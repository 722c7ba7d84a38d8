import csv
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from nvmdtd import analytic, harness
from nvmdtd.analytic import (
    ber_variable_offset,
    optimal_threshold_bisection,
    optimal_threshold_closed_form,
)
from nvmdtd.channel import ChannelParams, NoiseModel, derive_seed, sample_block_matrix
from nvmdtd.cli import CURVE_COLUMNS, SWEEP_COLUMNS, main
from nvmdtd.config import DEFAULT_CONFIG, channel_params
from nvmdtd.detectors import GenieDetector, NnDetector, ThresholdDetector, dtd_search, threshold_detect
from nvmdtd.errors import MissingAssetError, ParameterError
from nvmdtd.harness import (
    BerEstimate,
    DriftSchedule,
    SegmentStats,
    SessionLog,
    SweepSpec,
    TriggerPolicy,
    dtd_calibrate,
    estimate_ber,
    estimate_ber_paired,
    run_sweep,
    simulate_recalibration_session,
)
from nvmdtd.nn.models import create_model
from nvmdtd.nn.training import TrainConfig, train


N = DEFAULT_CONFIG["n"]
CALIB_BLOCKS = DEFAULT_CONFIG["sweep"]["calib_blocks"]


def _points(ratios, mu_b_values=(0.0,), sigma_b_over_mu1=0.0, noise_model="gaussian"):
    """Sweep points over a ratio x mu_b grid of the default channel, ratio outer."""
    fixed = {"sigma_b_over_mu1": sigma_b_over_mu1, "noise_model": noise_model}
    channels = [DEFAULT_CONFIG["channel"] | fixed | {"ratio": ratio, "mu_b": mu_b}
                for ratio in ratios for mu_b in mu_b_values]
    return tuple(({k: ch[k] for k in SWEEP_COLUMNS[:4]}, channel_params(ch)) for ch in channels)


class TestBerEstimate:
    def test_fields(self):
        est = BerEstimate.from_counts(50, 10_000)
        assert est.ber == 0.005
        assert est.ci_half_width == pytest.approx(3 * math.sqrt(0.005 * 0.995 / 10_000))

    def test_genie_is_error_free(self):
        p = ChannelParams.from_ratio(0.12, mu_b=-0.2, sigma_b_over_mu1=0.07)
        est = estimate_ber(GenieDetector(), p, 200, seed=1, n=N)
        assert est.errors == 0 and est.ber == 0.0

    def test_threshold_matches_analytic_no_offset(self):
        p = ChannelParams.from_ratio(0.12)
        ref = optimal_threshold_closed_form(p, b=0.0)
        est = estimate_ber(ThresholdDetector(ref.r_th), p, 15_000, seed=21, n=N)
        sigma = math.sqrt(ref.ber * (1 - ref.ber) / est.bits)
        assert abs(est.ber - ref.ber) <= 3 * sigma

    def test_threshold_matches_analytic_variable_offset(self):
        p = ChannelParams.from_ratio(0.10, mu_b=-0.2, sigma_b_over_mu1=0.04)
        midpoint = 0.5 * (p.mu0 + p.mu1)
        expected = ber_variable_offset(midpoint, p)
        est = estimate_ber(ThresholdDetector(midpoint), p, 15_000, seed=22, n=N)
        sigma = math.sqrt(expected * (1 - expected) / est.bits)
        assert abs(est.ber - expected) <= 3 * sigma

    def test_invariant_to_chunking(self):
        p = ChannelParams.from_ratio(0.10)
        det = ThresholdDetector(1.35)
        a = estimate_ber(det, p, 3000, seed=5, n=N, chunk_blocks=37)
        b = estimate_ber(det, p, 3000, seed=5, n=N, chunk_blocks=1024)
        c = estimate_ber(det, p, 3000, seed=5, n=N, chunk_blocks=256)
        assert a == b == c

    def test_rejects_zero_blocks(self):
        with pytest.raises(ParameterError):
            estimate_ber(GenieDetector(), ChannelParams.from_ratio(0.05), 0, seed=1, n=N)

    def test_paired_pass_invariant_to_chunking(self):
        p = ChannelParams.from_ratio(0.10, mu_b=-0.2, sigma_b_over_mu1=0.04)
        dets = [ThresholdDetector(1.3), ThresholdDetector(1.45), GenieDetector()]
        runs = [estimate_ber_paired(dets, p, 3000, seed=5, n=N, chunk_blocks=chunk)
                for chunk in (37, 1024, 5000)]
        assert all(run == runs[0] for run in runs)
        assert runs[0] == [estimate_ber(det, p, 3000, seed=5, n=N) for det in dets]
        assert runs[0][0].errors != runs[0][1].errors


class TestDtdCalibrate:
    def test_genie_near_optimum(self, active_offset_channel):
        opt = optimal_threshold_bisection(active_offset_channel)
        calib = dtd_calibrate(GenieDetector(), active_offset_channel, 1000, seed=17, n=N)
        assert abs(calib.r_adj - opt.r_th) < 0.02


class TestRunSweep:
    def test_row_grid_shape_and_schema(self, tmp_path):
        sweep = {"ratios": [0.08, 0.12], "mu_b_values": [0.0, -0.2], "blocks": 500,
                 "detectors": ["midpoint", "opt-full", "optimum-bound"]}
        spec = SweepSpec(
            points=_points(sweep["ratios"], sweep["mu_b_values"]),
            detectors=tuple(sweep["detectors"]),
            blocks_per_point=sweep["blocks"],
            seed=3,
            n=N, calib_blocks=CALIB_BLOCKS,
        )
        rows = run_sweep(spec)
        assert len(rows) == 2 * 2 * 3
        assert all(tuple(row) == SWEEP_COLUMNS for row in rows)
        # The CLI writes the same rows under the header, one line each.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 3, "sweep": sweep}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "sweep.csv") as fh:
            reader = csv.reader(fh)
            assert tuple(next(reader)) == SWEEP_COLUMNS
            assert list(reader) == [[str(row[c]) for c in SWEEP_COLUMNS] for row in rows]

    def test_mc_tracks_analytic_bound(self):
        spec = SweepSpec(
            points=_points((0.10, 0.12)),
            detectors=("opt-full", "optimum-bound"),
            blocks_per_point=20_000,
            seed=11,
            n=N, calib_blocks=CALIB_BLOCKS,
        )
        rows = run_sweep(spec)
        by_ratio = {}
        for row in rows:
            by_ratio.setdefault(row["ratio"], {})[row["detector"]] = row
        for ratio, group in by_ratio.items():
            mc = group["opt-full"]
            bound = group["optimum-bound"]
            assert bound["bits"] == 0 and bound["ci"] == 0.0
            assert abs(mc["ber"] - bound["ber"]) <= mc["ci"]

    def test_offset_dominance_between_reference_rows(self):
        spec = SweepSpec(
            points=_points((0.10,), (-0.2,), 0.07),
            detectors=("opt-no-offset", "opt-mean-offset", "opt-full"),
            blocks_per_point=30_000,
            seed=13,
            n=N, calib_blocks=CALIB_BLOCKS,
        )
        rows = {row["detector"]: row for row in run_sweep(spec)}
        assert rows["opt-no-offset"]["ber"] >= rows["opt-full"]["ber"]
        assert rows["opt-mean-offset"]["ber"] >= rows["opt-full"]["ber"] - rows["opt-full"]["ci"]

    @pytest.mark.parametrize("detectors", [("midpoint", "rnn"), ("midpoint", "dtd-rnn")],
                             ids=["rnn", "dtd-rnn"])
    def test_missing_weights_raise(self, detectors):
        spec = SweepSpec(
            points=_points((0.10,)),
            detectors=detectors,
            blocks_per_point=200,
            seed=7,
            n=N, calib_blocks=CALIB_BLOCKS,
        )
        with pytest.raises(MissingAssetError, match="no trained rnn weights"):
            run_sweep(spec, assets={"mlp": None})

    def test_nn_and_dtd_rows_with_trained_asset(self, trained_tiny_mlp):
        params, model = trained_tiny_mlp
        spec = SweepSpec(
            points=_points((0.02,)),
            detectors=("mlp", "dtd-mlp", "genie"),
            blocks_per_point=300,
            seed=19,
            n=8,
            calib_blocks=CALIB_BLOCKS,
        )
        rows = {row["detector"]: row for row in run_sweep(spec, assets={"mlp": model})}
        assert rows["genie"]["ber"] == 0.0
        assert rows["mlp"]["ber"] == 0.0
        assert rows["dtd-mlp"]["ber"] == 0.0
        assert math.isfinite(rows["dtd-mlp"]["r_th"])

    def test_beta_sweep_full_reference_is_exact_optimum(self):
        spec = SweepSpec(
            points=_points((0.10,), (-0.2,), 0.07, NoiseModel.CENTERED_BETA.value),
            detectors=("opt-mean-offset", "opt-full", "optimum-bound"),
            blocks_per_point=5_000,
            seed=23,
            n=N, calib_blocks=CALIB_BLOCKS,
        )
        rows = {row["detector"]: row for row in run_sweep(spec)}
        p = ChannelParams.from_ratio(0.10, mu_b=-0.2, sigma_b_over_mu1=0.07,
                                     noise_model=NoiseModel.CENTERED_BETA)
        opt = optimal_threshold_bisection(p)
        assert rows["opt-full"]["r_th"] == opt.r_th
        assert rows["opt-full"]["bits"] == 5_000 * N
        bound = rows["optimum-bound"]
        assert (bound["r_th"], bound["bits"]) == (opt.r_th, 0)
        assert bound["ber"] == ber_variable_offset(opt.r_th, p)
        assert abs(rows["opt-full"]["ber"] - bound["ber"]) <= rows["opt-full"]["ci"]

    def test_rows_equal_standalone_estimates(self, trained_tiny_mlp):
        _, model = trained_tiny_mlp
        spec = SweepSpec(
            points=_points((0.10, 0.12), (-0.2,), 0.04),
            detectors=("midpoint", "opt-no-offset", "opt-mean-offset", "opt-full",
                       "optimum-bound", "genie", "mlp", "dtd-mlp"),
            blocks_per_point=300,
            seed=29,
            n=8,
            calib_blocks=CALIB_BLOCKS,
        )
        rows = run_sweep(spec, assets={"mlp": model})
        for point_idx, (labels, _) in enumerate(spec.points):
            ratio = labels["ratio"]
            p = ChannelParams.from_ratio(ratio, mu_b=-0.2, sigma_b_over_mu1=0.04)
            eval_seed = derive_seed(derive_seed(spec.seed, point_idx), 0)
            point = {row["detector"]: row for row in rows if row["ratio"] == ratio}
            standalone = {"genie": GenieDetector(), "mlp": NnDetector(model)}
            for name, row in point.items():
                if name == "optimum-bound":
                    continue
                det = standalone.get(name) or ThresholdDetector(row["r_th"])
                est = estimate_ber(det, p, spec.blocks_per_point, eval_seed, n=spec.n)
                assert (row["errors"], row["bits"]) == (est.errors, est.bits), name

    def test_one_sampling_pass_per_point(self, monkeypatch):
        n = 8
        rng = np.random.default_rng(3)
        assets = {kind: create_model(kind, n, rng, hidden=4) for kind in ("mlp", "rnn")}
        spec = SweepSpec(
            points=_points((0.10,), (-0.2,), 0.04),
            detectors=("midpoint", "opt-no-offset", "opt-mean-offset", "opt-full",
                       "dtd-mlp", "dtd-rnn"),
            blocks_per_point=250,
            calib_blocks=40,
            seed=31,
            n=n,
        )
        sampled = []
        real = harness.sample_block_matrix

        def counting(params, n, nblocks, seed, start=0):
            sampled.append(nblocks)
            return real(params, n, nblocks, seed, start=start)

        monkeypatch.setattr(harness, "sample_block_matrix", counting)
        assert not hasattr(analytic, "sample_block_matrix")  # the reference math samples nothing
        for noise in NoiseModel:
            sampled.clear()
            points = _points((0.10,), (-0.2,), 0.04, noise.value)
            rows = run_sweep(dataclasses.replace(spec, points=points), assets=assets)
            assert len(rows) == 6 and all(row["bits"] == 250 * n for row in rows)
            assert sum(sampled) == spec.blocks_per_point + spec.calib_blocks, noise

    def test_reference_thresholds_only_for_reference_rows(self, monkeypatch):
        n = 8
        rnn = create_model("rnn", n, np.random.default_rng(5), hidden=4)
        network_only = SweepSpec(
            points=_points((0.08, 0.10), (-0.2,), 0.04),
            detectors=("rnn", "dtd-rnn", "genie"),
            blocks_per_point=100,
            calib_blocks=20,
            seed=37,
            n=n,
        )
        with_refs = dataclasses.replace(
            network_only, detectors=network_only.detectors + ("opt-full", "optimum-bound"))
        calls = []
        real = analytic.reference_thresholds

        def counting(params):
            calls.append(params)
            return real(params)

        monkeypatch.setattr(analytic, "reference_thresholds", counting)
        full_rows = run_sweep(with_refs, assets={"rnn": rnn})
        assert calls == [params for _, params in with_refs.points]

        def refuse(params):
            raise AssertionError("reference thresholds computed for a network-only sweep")

        monkeypatch.setattr(analytic, "reference_thresholds", refuse)
        rows = run_sweep(network_only, assets={"rnn": rnn})
        assert rows == [row for row in full_rows if not row["detector"].startswith("opt")]

    @pytest.mark.parametrize("points, detectors", [((), ("midpoint",)),
                                                    (_points((0.1,)), ())])
    def test_empty_points_or_detectors_rejected(self, points, detectors):
        with pytest.raises(ParameterError, match="non-empty"):
            SweepSpec(points=points, detectors=detectors, blocks_per_point=10, seed=1, n=N,
                      calib_blocks=CALIB_BLOCKS)

    def test_unknown_detector_rejected(self):
        spec = SweepSpec(points=_points((0.1,)), detectors=("nonsense",), blocks_per_point=10,
                         seed=1, n=N, calib_blocks=CALIB_BLOCKS)
        with pytest.raises(ParameterError):
            run_sweep(spec)


class TestTrainingCurve:
    def test_csv_rows_match_epochs(self, tmp_path):
        params = ChannelParams.from_ratio(0.05)
        cfg = TrainConfig(epochs=2, minibatch_blocks=2, train_blocks=40,
                          validation_blocks=30, seed=5, learning_rate=1e-3)
        result = train("rnn", params, cfg, n=12)
        doc = tmp_path / "c.json"
        doc.write_text(json.dumps({"seed": 5, "n": 12, "channel": {"ratio": 0.05}, "train": {
            "kind": "rnn", "epochs": 2, "minibatch_blocks": 2, "train_blocks": 40,
            "validation_blocks": 30}}))
        assert main(["train", "--config", str(doc), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "curve.csv") as fh:
            reader = csv.reader(fh)
            assert tuple(next(reader)) == CURVE_COLUMNS == ("epoch", "val_ber", "train_loss")
            rows = list(reader)
        assert len(rows) == 2
        assert [int(r[0]) for r in rows] == [1, 2]
        assert [float(r[1]) for r in rows] == [rec.val_ber for rec in result.history]
        assert [float(r[2]) for r in rows] == [rec.train_loss for rec in result.history]

    def test_rerun_reproduces_curve(self):
        params = ChannelParams.from_ratio(0.05)
        cfg = TrainConfig(epochs=2, minibatch_blocks=2, train_blocks=40,
                          validation_blocks=30, seed=5, learning_rate=1e-3)
        a = train("rnn", params, cfg, n=12)
        b = train("rnn", params, cfg, n=12)
        assert a.history == b.history


def test_sweep_and_training_write_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_sweep(SweepSpec(points=_points((0.1,)), detectors=("midpoint", "opt-full"),
                        blocks_per_point=50, seed=1, n=N, calib_blocks=CALIB_BLOCKS))
    train("rnn", ChannelParams.from_ratio(0.05),
          TrainConfig(epochs=1, minibatch_blocks=2, train_blocks=4, validation_blocks=4, seed=1,
                      learning_rate=1e-3),
          n=8, hidden=4)
    assert list(tmp_path.iterdir()) == []


class _Drawn(Exception):
    """Raised in place of the first block a pass draws."""


def _first_draw(*args, **kwargs):
    raise _Drawn


# Each streamed pass as a call of (blocks, n).  A sweep's bound is checked when
# its spec is built; ``run_sweep`` then draws the point's evaluation blocks.
_PASSES = {
    "estimate_ber": lambda blocks, n: estimate_ber(
        ThresholdDetector(1.5), _P0, blocks, seed=1, n=n),
    "estimate_ber_paired": lambda blocks, n: estimate_ber_paired(
        [ThresholdDetector(1.5), GenieDetector()], _P0, blocks, seed=1, n=n),
    "session": lambda blocks, n: simulate_recalibration_session(
        DriftSchedule(segments=((0, _P0),), total_blocks=blocks,
                      trigger=TriggerPolicy(kind="periodic", period=10)),
        GenieDetector(), seed=1, m_blocks=5, n=n),
    "sweep": lambda blocks, n: run_sweep(SweepSpec(
        points=_points((0.1,)), detectors=("midpoint",), blocks_per_point=blocks, seed=1, n=n,
        calib_blocks=CALIB_BLOCKS)),
}


class TestReadBound:
    @pytest.mark.parametrize("name", list(_PASSES))
    def test_one_read_beyond_the_bound_is_refused(self, monkeypatch, name):
        monkeypatch.setattr(harness, "sample_block_matrix", _first_draw)
        blocks = harness.MAX_PASS_READS // 8 + 1
        with pytest.raises(ParameterError) as info:
            _PASSES[name](blocks, 8)
        assert str(info.value).endswith(
            f"of {blocks} blocks of 8 bits makes {blocks * 8} reads, "
            f"more than the {harness.MAX_PASS_READS} one streamed pass may make")

    @pytest.mark.parametrize("name", ["estimate_ber", "session", "sweep"])
    def test_a_pass_of_exactly_the_bound_starts_drawing(self, monkeypatch, name):
        monkeypatch.setattr(harness, "sample_block_matrix", _first_draw)
        assert (harness.MAX_PASS_READS // 8) * 8 == harness.MAX_PASS_READS
        with pytest.raises(_Drawn):
            _PASSES[name](harness.MAX_PASS_READS // 8, 8)


def reference_session(schedule, detector, seed, m_blocks, initial_threshold=None, *, n):
    """The recalibration loop drawn and labeled one block at a time.

    The rewritten session must log exactly what this plain loop logs.
    """

    def params_at(block_index):
        current = 0
        for seg_idx, (start, _) in enumerate(schedule.segments):
            if block_index >= start:
                current = seg_idx
        return current, schedule.segments[current][1]

    first_params = schedule.segments[0][1]
    r_th = (
        0.5 * (first_params.mu0 + first_params.mu1)
        if initial_threshold is None
        else initial_threshold
    )
    stats = [SegmentStats(segment=i, start_block=s) for i, (s, _) in enumerate(schedule.segments)]
    log = SessionLog(segments=stats, thresholds=[(0, r_th)])
    recalibrated_in = [False] * len(stats)
    since_recal = 0

    i = 0
    while i < schedule.total_blocks:
        seg_idx, params = params_at(i)
        seg = stats[seg_idx]
        x, y = sample_block_matrix(params, n, 1, seed, start=i)
        i += 1
        since_recal += 1
        decided = threshold_detect(y[0], r_th)
        block_errors = int(np.count_nonzero(decided != x[0]))
        if recalibrated_in[seg_idx]:
            seg.errors_post += block_errors
            seg.bits_post += n
        else:
            seg.errors_pre += block_errors
            seg.bits_pre += n

        fire = (
            since_recal >= schedule.trigger.period
            if schedule.trigger.kind == "periodic"
            else block_errors / n >= schedule.trigger.threshold
        )
        if not fire:
            continue
        take = min(m_blocks, schedule.total_blocks - i)
        if take == 0:
            break
        seg.triggers += 1
        reads = []
        labels = []
        for j in range(take):
            seg_j, params_j = params_at(i)
            xj, yj = sample_block_matrix(params_j, n, 1, seed, start=i)
            i += 1
            stats[seg_j].nn_blocks += 1
            reads.append(yj[0])
            labels.append(np.asarray(detector(yj, xj)[0], dtype=np.uint8))
        result = dtd_search(np.array(reads), np.array(labels))
        r_th = result.r_adj
        recal_seg, _ = params_at(i - 1)
        recalibrated_in[recal_seg] = True
        log.thresholds.append((i, r_th))
        since_recal = 0

    return log


class RecordingGenie(GenieDetector):
    """Genie labels that keep every batch they were asked to label."""

    def __init__(self):
        self.calls = []

    def __call__(self, y, x=None):
        self.calls.append((np.array(y), np.array(x)))
        return super().__call__(y, x)


_P0 = ChannelParams.from_ratio(0.10)
_P_DRIFT = ChannelParams.from_ratio(0.10, mu_b=-0.35, sigma_b_over_mu1=0.04)
_P_BETA = ChannelParams.from_ratio(0.10, mu_b=-0.2, sigma_b_over_mu1=0.03,
                                   noise_model=NoiseModel.CENTERED_BETA)


class TestSchedule:
    def test_segment_lookup(self):
        # Blocks 90..109 form one recalibration window across the boundary
        # at 100: each half is drawn under its own segment's channel.
        sched = DriftSchedule(
            segments=((0, _P0), (100, _P_DRIFT)),
            total_blocks=115,
            trigger=TriggerPolicy(kind="periodic", period=90),
        )
        det = RecordingGenie()
        log = simulate_recalibration_session(sched, det, seed=8, m_blocks=20, n=12)
        assert len(det.calls) == 1
        y, x = det.calls[0]
        x0, y0 = sample_block_matrix(_P0, 12, 10, 8, start=90)
        x1, y1 = sample_block_matrix(_P_DRIFT, 12, 10, 8, start=100)
        np.testing.assert_array_equal(y, np.concatenate([y0, y1]))
        np.testing.assert_array_equal(x, np.concatenate([x0, x1]))
        assert [seg.nn_blocks for seg in log.segments] == [10, 10]

    def test_validation(self):
        p = ChannelParams.from_ratio(0.05)
        with pytest.raises(ParameterError):
            DriftSchedule(segments=(), total_blocks=10,
                          trigger=TriggerPolicy(kind="periodic", period=1))
        with pytest.raises(ParameterError):
            DriftSchedule(segments=((5, p),), total_blocks=10,
                          trigger=TriggerPolicy(kind="periodic", period=1))
        with pytest.raises(ParameterError):
            TriggerPolicy(kind="periodic", period=0)
        with pytest.raises(ParameterError):
            TriggerPolicy(kind="sometimes")
        # The failure threshold's one default is in the config; the policy has none.
        with pytest.raises(ParameterError, match="failure threshold"):
            TriggerPolicy(kind="on_failure")


class TestSession:
    @pytest.mark.parametrize("segments, total, trigger, m_blocks", [
        # a periodic window straddles the segment boundary at 100
        (((0, _P0), (100, _P_DRIFT)), 400, TriggerPolicy(kind="periodic", period=90), 20),
        # on-failure triggers under an offset drift
        (((0, _P0), (300, _P_DRIFT)), 900,
         TriggerPolicy(kind="on_failure", threshold=3.0 / 71.0), 150),
        # the trigger fires on the last block and is not counted
        (((0, _P0),), 25, TriggerPolicy(kind="periodic", period=10), 5),
        # the session ends inside the second recalibration window
        (((0, _P0), (15, _P_DRIFT)), 28, TriggerPolicy(kind="periodic", period=10), 5),
        # a window of over two super-blocks (100..240) crosses the segment start 150
        (((0, _P0), (150, _P_DRIFT)), 600, TriggerPolicy(kind="periodic", period=100), 140),
        # a centered-Beta segment between two Gaussian ones
        (((0, _P0), (70, _P_BETA), (200, _P_DRIFT)), 300,
         TriggerPolicy(kind="periodic", period=40), 12),
        # every threshold-detected block fires the trigger
        (((0, _P0), (33, _P_DRIFT)), 90, TriggerPolicy(kind="periodic", period=1), 3),
    ])
    def test_matches_block_by_block_loop(self, segments, total, trigger, m_blocks):
        sched = DriftSchedule(segments=segments, total_blocks=total, trigger=trigger)
        det = RecordingGenie()
        log = simulate_recalibration_session(sched, det, seed=17, m_blocks=m_blocks, n=16)
        assert log == reference_session(sched, GenieDetector(), 17, m_blocks, n=16)
        assert log.triggers_total >= 1
        # one network call per recalibration, never one per block
        assert len(det.calls) == log.triggers_total == len(log.thresholds) - 1
        assert sum(len(y) for y, _ in det.calls) == log.nn_blocks_total

    def test_set_initial_threshold_matches_block_by_block_loop(self):
        # on-failure triggers from a threshold far below the midpoint
        sched = DriftSchedule(segments=((0, _P0), (130, _P_DRIFT)), total_blocks=400,
                              trigger=TriggerPolicy(kind="on_failure", threshold=2.0 / 16.0))
        log = simulate_recalibration_session(sched, GenieDetector(), seed=3, m_blocks=30,
                                             initial_threshold=1.3, n=16)
        assert log == reference_session(sched, GenieDetector(), 3, 30, initial_threshold=1.3, n=16)
        assert log.thresholds[0] == (0, 1.3) and log.triggers_total >= 2

    def test_draws_each_superblock_once_per_segment(self, monkeypatch):
        drawn = []

        def recording(params, n, nblocks, seed, start=0):
            drawn.append((params, start, nblocks))
            return sample_block_matrix(params, n, nblocks, seed, start=start)

        monkeypatch.setattr(harness, "sample_block_matrix", recording)
        sched = DriftSchedule(segments=((0, _P0), (70, _P_BETA), (200, _P_DRIFT)), total_blocks=300,
                              trigger=TriggerPolicy(kind="periodic", period=30))
        log = simulate_recalibration_session(sched, GenieDetector(), seed=6, m_blocks=140, n=8)
        assert log.thresholds[1][0] == 170  # the window 30..169 spans three super-blocks
        assert drawn == [(_P0, 0, 64), (_P0, 64, 64), (_P_BETA, 64, 64), (_P_BETA, 128, 64),
                         (_P_BETA, 192, 64), (_P_DRIFT, 192, 64), (_P_DRIFT, 256, 64)]

    def test_memory_does_not_grow_with_the_schedule(self):
        # Sampling the schedule whole would hold at least 20000 x 71 x 9 bytes, 12.8 MB.
        sched = DriftSchedule(segments=((0, _P0), (7001, _P_DRIFT)), total_blocks=20000,
                              trigger=TriggerPolicy(kind="periodic", period=500))
        tracemalloc.start()
        try:
            log = simulate_recalibration_session(sched, GenieDetector(), seed=4, m_blocks=100, n=N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert log.triggers_total > 30
        assert peak < 5e6, f"a 20000-block session peaked at {peak / 1e6:.1f} MB"

    def test_offset_jump_recovers_optimum(self):
        # Segment boundary aligned to full trigger cycles (300 threshold
        # blocks + 500 calibration blocks), so the second segment starts
        # with a stale threshold and a clean pre phase.
        p0 = ChannelParams.from_ratio(0.10)
        p1 = ChannelParams.from_ratio(0.10, mu_b=-0.2, sigma_b_over_mu1=0.04)
        sched = DriftSchedule(
            segments=((0, p0), (2400, p1)),
            total_blocks=12400,
            trigger=TriggerPolicy(kind="periodic", period=300),
        )
        log = simulate_recalibration_session(sched, GenieDetector(), seed=2025, m_blocks=500, n=N)
        seg1 = log.segments[1]
        opt_new = optimal_threshold_bisection(p1)
        assert seg1.bits_pre > 0
        assert seg1.ber_pre > seg1.ber_post
        ci = 3 * math.sqrt(opt_new.ber * (1 - opt_new.ber) / seg1.bits_post)
        assert abs(seg1.ber_post - opt_new.ber) <= ci + 5e-4
        # the final trigger may truncate its calibration batch at session end
        assert (log.triggers_total - 1) * 500 <= log.nn_blocks_total <= log.triggers_total * 500
        assert log.nn_blocks_total < 0.7 * 12400

    def test_stationary_channel_keeps_threshold(self, active_offset_channel):
        sched = DriftSchedule(
            segments=((0, active_offset_channel),),
            total_blocks=5000,
            trigger=TriggerPolicy(kind="periodic", period=200),
        )
        log = simulate_recalibration_session(
            sched, GenieDetector(), seed=99, m_blocks=1000, n=N
        )
        assert log.triggers_total >= 3
        recals = [r for _, r in log.thresholds[1:]]
        assert max(recals) - min(recals) < 0.05

    def test_every_block_trigger_smoke(self):
        p = ChannelParams.from_ratio(0.10)
        sched = DriftSchedule(
            segments=((0, p),),
            total_blocks=60,
            trigger=TriggerPolicy(kind="periodic", period=1),
        )
        log = simulate_recalibration_session(sched, GenieDetector(), seed=1, m_blocks=10, n=N)
        # every threshold-detected block fires the trigger
        assert log.triggers_total >= 5
        assert log.nn_blocks_total >= 50

    def test_on_failure_trigger_fires_under_drift(self):
        p0 = ChannelParams.from_ratio(0.10)
        p1 = ChannelParams.from_ratio(0.10, mu_b=-0.35, sigma_b_over_mu1=0.04)
        sched = DriftSchedule(
            segments=((0, p0), (500, p1)),
            total_blocks=3000,
            trigger=TriggerPolicy(kind="on_failure", threshold=3.0 / 71.0),
        )
        log = simulate_recalibration_session(sched, GenieDetector(), seed=42, m_blocks=400, n=N)
        assert log.triggers_total >= 1
        seg1 = log.segments[1]
        assert seg1.ber_post < seg1.ber_pre
