"""Monte-Carlo BER estimation, figure-style sweeps, and recalibration sessions.

Every estimate here is one serial pass over chunks of blocks.  Block ``i``
is row ``i % 64`` of a super-block drawn from its own random stream keyed
by ``(seed, i // 64)``, so results do not depend on the chunk size.  A
sweep evaluates the operating points it is given, one Monte-Carlo pass
per point: each chunk of evaluation blocks is sampled once and scored by
every simulated detector of that point, and the point's DTD rows share one
sample of calibration blocks, so the rows of a point are a paired
comparison on the same blocks.  A recalibration session is one forward
scan that draws each super-block when it reaches it, scores the runs of
blocks between triggers at once, and labels each recalibration window
with one call of the network.  A pass of more than ``MAX_PASS_READS``
reads is refused before it draws a block.  A sweep row is a dict: its
point's labels, then ``detector``, ``r_th``, ``errors``, ``bits``, ``ber``
and ``ci``.  The module returns records and writes no file.

The reference thresholds come from :func:`analytic.reference_thresholds`:
``opt-full`` is the exact optimum under the channel's own variation law,
Gaussian or centered-Beta, and ``optimum-bound`` is its exact BER, a row
with ``bits = 0`` because nothing is simulated.  They are computed only
at points that have an ``opt-*`` or ``optimum-bound`` row.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import analytic
from .channel import SUPERBLOCK, ChannelParams, QuantizerSpec, derive_seed, sample_block_matrix
from .detectors import DtdResult, GenieDetector, NnDetector, ThresholdDetector, dtd_search, threshold_detect
from .errors import MissingAssetError, ParameterError

# The detector rows a sweep knows, and the kinds of recalibration trigger.
DETECTORS = ("midpoint", "opt-no-offset", "opt-mean-offset", "opt-full", "optimum-bound",
             "genie", "mlp", "rnn", "dtd-mlp", "dtd-rnn")
TRIGGER_KINDS = ("periodic", "on_failure")
# The most reads (blocks x n) one streamed Monte-Carlo pass may make.  Sampling alone
# costs about 57 ns a read on one core of a 2-vCPU x86-64 host, so 10**12 reads would
# run for about 16 hours; a count above it is refused before any block is drawn.
MAX_PASS_READS = 10**12


def _check_pass_reads(what: str, blocks: int, n: int) -> None:
    if blocks * n > MAX_PASS_READS:
        raise ParameterError(f"{what} of {blocks} blocks of {n} bits makes {blocks * n} reads, "
                             f"more than the {MAX_PASS_READS} one streamed pass may make")


@dataclass(frozen=True)
class BerEstimate:
    """Monte-Carlo bit error rate with a 3-sigma binomial half width."""

    errors: int
    bits: int
    ber: float
    ci_half_width: float

    @classmethod
    def from_counts(cls, errors: int, bits: int) -> "BerEstimate":
        p = errors / bits
        return cls(
            errors=errors,
            bits=bits,
            ber=p,
            ci_half_width=3.0 * math.sqrt(p * (1.0 - p) / bits),
        )


def estimate_ber(detector, params: ChannelParams, nblocks: int, seed: int,
                 n: int, chunk_blocks: int = 2048) -> BerEstimate:
    """Stream blocks through a detector and count bit errors against the truth.

    ``detector`` is called as ``detector(y_chunk, x_chunk)`` on matrices of
    whole blocks and must return hard decisions of the same shape.
    """
    return estimate_ber_paired([detector], params, nblocks, seed, n, chunk_blocks)[0]


def estimate_ber_paired(detectors, params: ChannelParams, nblocks: int, seed: int,
                        n: int, chunk_blocks: int = 2048) -> list[BerEstimate]:
    """:func:`estimate_ber` for several detectors in one pass over the blocks.

    Each chunk is sampled once and scored by every detector, so the
    estimates are paired: all of them count errors on the same bits.
    ``chunk_blocks`` bounds the memory of a pass and does not change the counts.
    """
    if nblocks < 1:
        raise ParameterError(f"need at least one block, got {nblocks}")
    _check_pass_reads("an evaluation pass", nblocks, n)
    errors = [0] * len(detectors)
    for start in range(0, nblocks, chunk_blocks):
        x, y = sample_block_matrix(params, n, min(chunk_blocks, nblocks - start), seed,
                                   start=start)
        for k, det in enumerate(detectors):
            errors[k] += int(np.count_nonzero(np.asarray(det(y, x), dtype=np.uint8) != x))
    return [BerEstimate.from_counts(e, nblocks * n) for e in errors]


def dtd_calibrate(detector, params: ChannelParams, m_blocks: int, seed: int,
                  n: int) -> DtdResult:
    """Derive an adjusted threshold from a detector's decisions on ``m_blocks`` blocks."""
    x, y = sample_block_matrix(params, n, m_blocks, seed)
    labels = detector(y, x)
    return dtd_search(y, labels)


@dataclass(frozen=True)
class SweepSpec:
    """Operating points, each ``(row labels, channel built from them)``, times detectors."""

    points: tuple[tuple[dict, ChannelParams], ...]
    detectors: tuple[str, ...]
    blocks_per_point: int
    seed: int
    n: int
    calib_blocks: int
    quantizer: QuantizerSpec | None = None

    def __post_init__(self):
        if not self.points or not self.detectors:
            raise ParameterError("sweep points and detector list must be non-empty")
        if self.blocks_per_point < 1 or self.calib_blocks < 1:
            raise ParameterError("block counts must be >= 1")
        _check_pass_reads("an evaluation pass", self.blocks_per_point, self.n)


def run_sweep(spec: SweepSpec, assets: dict | None = None) -> list[dict]:
    """One row per (operating point, detector) of ``spec``.

    Point ``i`` runs on ``derive_seed(spec.seed, i)``: its channel as given, its labels
    at the head of its rows.
    ``assets`` maps "mlp"/"rnn" to trained models for the NN and DTD rows;
    a row whose model is missing raises MissingAssetError.  The
    simulated rows of a point are scored in one pass over the same blocks.
    A point's reference thresholds are computed once, by its first ``opt-*``
    or ``optimum-bound`` row, so a sweep without such rows never computes them.
    """
    assets = assets or {}
    rows = []
    for point_idx, (labels, params) in enumerate(spec.points):
        point_seed = derive_seed(spec.seed, point_idx)
        eval_seed = derive_seed(point_seed, 0)
        calib_seed = derive_seed(point_seed, 1)
        # Reference thresholds and calibration blocks are made on first use;
        # the opt-* and bound rows share the one, the DTD rows the other.
        refs = functools.cache(functools.partial(analytic.reference_thresholds, params))
        calibration_blocks = functools.cache(functools.partial(
            sample_block_matrix, params, spec.n, spec.calib_blocks, calib_seed))
        simulated = []
        for name in spec.detectors:
            row, det = _detector_row(name, params, refs, assets, spec, calibration_blocks)
            rows.append(labels | row)
            if det is not None:
                simulated.append((rows[-1], det))
        if simulated:
            estimates = estimate_ber_paired([det for _, det in simulated], params,
                                            spec.blocks_per_point, eval_seed, n=spec.n)
            for (row, _), est in zip(simulated, estimates):
                row.update(errors=est.errors, bits=est.bits, ber=est.ber,
                           ci=est.ci_half_width)
    return rows


def _detector_row(name: str, params: ChannelParams, refs, assets: dict,
                  spec: SweepSpec, calibration_blocks) -> tuple[dict, object]:
    """A detector's row and, when the row is simulated, the detector to score."""
    if name not in DETECTORS:
        raise ParameterError(f"unknown detector {name!r}")
    r_th = math.nan
    if name == "midpoint":
        r_th = 0.5 * (params.mu0 + params.mu1)
        det = ThresholdDetector(r_th)
    elif name.startswith("opt-"):
        r_th = refs()[name].r_th
        det = ThresholdDetector(r_th)
    elif name == "optimum-bound":
        full = refs()["opt-full"]
        return {"detector": name, "r_th": full.r_th, "errors": 0, "bits": 0,
                "ber": full.ber, "ci": 0.0}, None
    elif name == "genie":
        det = GenieDetector()
    else:  # mlp, rnn, dtd-mlp, dtd-rnn
        det = NnDetector(_require_asset(assets, name.removeprefix("dtd-")), spec.quantizer)
        if name.startswith("dtd-"):
            x, y = calibration_blocks()
            r_th = dtd_search(y, det(y, x)).r_adj
            det = ThresholdDetector(r_th)
    return {"detector": name, "r_th": r_th}, det


def _require_asset(assets: dict, kind: str):
    if kind not in assets or assets[kind] is None:
        raise MissingAssetError(f"no trained {kind} weights available")
    return assets[kind]


@dataclass(frozen=True)
class TriggerPolicy:
    """When to invoke the network for a threshold recalibration.

    ``periodic``: after every ``period`` threshold-detected blocks since the
    last recalibration.  ``on_failure``: when a block's error fraction
    reaches ``threshold``, a stand-in for an ECC decoder failure, which
    such a policy must be given.
    """

    kind: str
    period: int = 0
    threshold: float | None = None

    def __post_init__(self):
        if self.kind not in TRIGGER_KINDS:
            raise ParameterError(f"unknown trigger kind {self.kind!r}")
        if self.kind == "periodic" and self.period < 1:
            raise ParameterError("periodic trigger needs period >= 1")
        if self.kind == "on_failure" and not (self.threshold is not None
                                              and 0.0 < self.threshold <= 1.0):
            raise ParameterError(f"an on_failure trigger needs a failure threshold in (0, 1], "
                                 f"got {self.threshold}")


@dataclass(frozen=True)
class DriftSchedule:
    """Piecewise-stationary channel: segments of (start block, params)."""

    segments: tuple[tuple[int, ChannelParams], ...]
    total_blocks: int
    trigger: TriggerPolicy

    def __post_init__(self):
        if not self.segments:
            raise ParameterError("schedule needs at least one segment")
        starts = [s for s, _ in self.segments]
        if starts[0] != 0 or any(b <= a for a, b in zip(starts, starts[1:])):
            raise ParameterError("segment starts must begin at 0 and strictly increase")
        if self.total_blocks <= starts[-1]:
            raise ParameterError("total_blocks must exceed the last segment start")


@dataclass
class SegmentStats:
    """Threshold-detector error accounting for one schedule segment.

    ``pre`` covers blocks seen before the first recalibration completed
    inside this segment, ``post`` the blocks after it.  Calibration blocks
    themselves (the ones the network reads) are excluded from both.
    """

    segment: int
    start_block: int
    errors_pre: int = 0
    bits_pre: int = 0
    errors_post: int = 0
    bits_post: int = 0
    triggers: int = 0
    nn_blocks: int = 0

    @property
    def ber_pre(self) -> float:
        return self.errors_pre / self.bits_pre if self.bits_pre else math.nan

    @property
    def ber_post(self) -> float:
        return self.errors_post / self.bits_post if self.bits_post else math.nan


@dataclass
class SessionLog:
    segments: list[SegmentStats]
    thresholds: list[tuple[int, float]] = field(default_factory=list)

    @property
    def final_threshold(self) -> float:
        return self.thresholds[-1][1]

    @property
    def nn_blocks_total(self) -> int:
        return sum(s.nn_blocks for s in self.segments)

    @property
    def triggers_total(self) -> int:
        return sum(s.triggers for s in self.segments)


def simulate_recalibration_session(schedule: DriftSchedule, detector, seed: int, m_blocks: int,
                                   initial_threshold: float | None = None, *, n: int) -> SessionLog:
    """Replay the deployment loop: cheap threshold detection, NN only on triggers.

    Blocks stream under the scheduled channel, each detected with the current
    threshold.  When the trigger policy fires, the next ``m_blocks`` blocks are
    read by ``detector`` (the expensive path) in one call, the dynamic threshold
    search runs over those reads and labels, and its threshold replaces the
    current one.  The log records per-segment BER before/after recalibration
    and how many blocks ever touched the network.

    The session is one forward scan.  Each super-block is drawn when the scan
    reaches it, once per segment it overlaps, and block ``i`` is its row
    ``i % 64``, as in a block-by-block replay.  A run of blocks is scored at once
    under the current threshold; it ends at the end of its super-block or its
    segment, or at the first block that fires the trigger.  So the session holds
    one super-block and one recalibration window, whatever ``total_blocks``.
    """
    if m_blocks < 1:
        raise ParameterError(f"session m_blocks must be >= 1, got {m_blocks}")
    _check_pass_reads("a session", schedule.total_blocks, n)
    bounds = [s for s, _ in schedule.segments] + [schedule.total_blocks]
    trigger = schedule.trigger

    @functools.lru_cache(maxsize=1)  # the scan never returns to a super-block it has left
    def superblock(seg: int, k: int):
        return sample_block_matrix(schedule.segments[seg][1], n, SUPERBLOCK, seed,
                                   start=k * SUPERBLOCK)

    def blocks(start: int, stop: int):
        """Blocks ``start .. stop-1`` as (bits, reads), each drawn under its segment."""
        parts = []
        while start < stop:
            seg = bisect.bisect_right(bounds, start) - 1
            k, row = divmod(start, SUPERBLOCK)
            take = min(stop, bounds[seg + 1], (k + 1) * SUPERBLOCK) - start
            parts.append(tuple(m[row:row + take] for m in superblock(seg, k)))
            start += take
        return tuple(np.concatenate(ms) for ms in zip(*parts))

    first = schedule.segments[0][1]
    r_th = 0.5 * (first.mu0 + first.mu1) if initial_threshold is None else initial_threshold
    stats = [SegmentStats(segment=i, start_block=s) for i, s in enumerate(bounds[:-1])]
    log = SessionLog(segments=stats, thresholds=[(0, r_th)])
    i = since_recal = 0
    while i < schedule.total_blocks:
        seg = stats[bisect.bisect_right(bounds, i) - 1]
        stop = min(bounds[seg.segment + 1], (i // SUPERBLOCK + 1) * SUPERBLOCK)
        x, y = blocks(i, stop)
        block_errors = np.count_nonzero(threshold_detect(y, r_th) != x, axis=1)
        fires = (since_recal + np.arange(1, stop - i + 1) >= trigger.period
                 if trigger.kind == "periodic" else block_errors / n >= trigger.threshold)
        fire = bool(fires.any())
        stop = i + int(fires.argmax()) + 1 if fire else stop
        errors, bits = int(block_errors[:stop - i].sum()), (stop - i) * n
        if log.thresholds[-1][0] > seg.start_block:  # a recalibration ended inside the segment
            seg.errors_post += errors
            seg.bits_post += bits
        else:
            seg.errors_pre += errors
            seg.bits_pre += bits
        since_recal += stop - i
        i = stop
        if not fire or i == schedule.total_blocks:
            continue  # a trigger on the last block finds no window to read
        end = min(i + m_blocks, schedule.total_blocks)
        seg.triggers += 1
        for s in stats:
            s.nn_blocks += max(0, min(end, bounds[s.segment + 1]) - max(i, s.start_block))
        x, y = blocks(i, end)
        r_th = dtd_search(y, np.asarray(detector(y, x), dtype=np.uint8)).r_adj
        log.thresholds.append((end, r_th))
        i, since_recal = end, 0
    return log
