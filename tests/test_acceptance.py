"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the suite is deterministic (fixed seeds throughout) and sized for a
workstation, totalling a few minutes.
"""

import math

import numpy as np
import pytest

from nvmdtd.analytic import (
    ber_variable_offset,
    optimal_threshold_bisection,
    optimal_threshold_closed_form,
)
from nvmdtd.channel import ChannelParams, NoiseModel, derive_seed
from nvmdtd.detectors import GenieDetector, NnDetector, ThresholdDetector, dtd_search, threshold_detect
from nvmdtd.harness import dtd_calibrate, estimate_ber, estimate_ber_paired
from nvmdtd.nn.models import create_model
from nvmdtd.nn.training import TrainConfig, train

from empirical import empirical_threshold
from param_count import count_params

RATIOS = (0.05, 0.08, 0.10, 0.12)
N = 71  # the paper's block length
TEN_MILLION_BITS_BLOCKS = math.ceil(1e7 / N)


def verdict(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
# 1. Architecture pinning
# --------------------------------------------------------------------------

def test_c1_architecture_pinning():
    rng = np.random.default_rng(0)
    mlp = count_params(create_model("mlp", N, rng))
    rnn = count_params(create_model("rnn", N, rng))
    verdict("C1 architecture pinning", mlp == 40683 and rnn == 46080,
            f"mlp={mlp} rnn={rnn}")


# --------------------------------------------------------------------------
# 2. Analytic / Monte-Carlo agreement at 1e7 bits per point
# --------------------------------------------------------------------------

def test_c2_analytic_monte_carlo_agreement():
    failures = []
    for ratio in RATIOS:
        p = ChannelParams.from_ratio(ratio)
        ref = optimal_threshold_closed_form(p, b=0.0)
        est = estimate_ber(ThresholdDetector(ref.r_th), p, TEN_MILLION_BITS_BLOCKS,
                           seed=derive_seed(2001, int(ratio * 100)), n=N)
        sigma = math.sqrt(ref.ber * (1 - ref.ber) / est.bits)
        if abs(est.ber - ref.ber) > 3 * sigma:
            failures.append(f"no-offset ratio={ratio}: mc={est.ber:.3e} ref={ref.ber:.3e}")
    for sb in (0.04, 0.07):
        for ratio in RATIOS:
            p = ChannelParams.from_ratio(ratio, mu_b=-0.2, sigma_b_over_mu1=sb)
            r_th = optimal_threshold_closed_form(p, b=p.offset_mu_b).r_th
            expected = ber_variable_offset(r_th, p)
            est = estimate_ber(ThresholdDetector(r_th), p, TEN_MILLION_BITS_BLOCKS,
                               seed=derive_seed(2002, int(ratio * 100), int(sb * 100)), n=N)
            sigma = math.sqrt(expected * (1 - expected) / est.bits)
            if abs(est.ber - expected) > 3 * sigma:
                failures.append(
                    f"offset ratio={ratio} sb={sb}: mc={est.ber:.3e} exp={expected:.3e}"
                )
    verdict("C2 analytic/MC agreement (12 points, 1e7 bits each)", not failures,
            "; ".join(failures) or "all within 3 binomial sigma")


# --------------------------------------------------------------------------
# 3. Gaussian-offset reduction
# --------------------------------------------------------------------------

def test_c3_gaussian_offset_reduction():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(20):
        ratio = rng.uniform(0.03, 0.14)
        mu_b = rng.uniform(-0.35, 0.15)
        sb = rng.uniform(0.005, 0.09)
        p = ChannelParams.from_ratio(ratio, mu_b=mu_b, sigma_b_over_mu1=sb)
        bi = optimal_threshold_bisection(p)
        eff = ChannelParams(
            p.mu0, p.mu1 + p.offset_mu_b, p.sigma0,
            math.sqrt(p.sigma1 ** 2 + p.offset_sigma_b ** 2),
        )
        cf = optimal_threshold_closed_form(eff, b=0.0)
        worst = max(worst, abs(bi.r_th - cf.r_th))
    verdict("C3 bisection equals folded-variance closed form at 20 random points",
            worst < 1e-8, f"worst |delta| = {worst:.2e} kOhm")


# --------------------------------------------------------------------------
# 4. Gradient correctness at full architecture sizes
# --------------------------------------------------------------------------

def _fd_entry(model, arr, idx, y, target, step=1e-5):
    orig = arr[idx]
    arr[idx] = orig + step
    lp = model.value_and_grad(y, target)[0]
    arr[idx] = orig - step
    lm = model.value_and_grad(y, target)[0]
    arr[idx] = orig
    return (lp - lm) / (2 * step)


def _entry_ok(fd, an):
    return abs(fd - an) <= 1e-8 or abs(fd - an) <= 1e-4 * max(abs(fd), abs(an))


def test_c4_gradient_correctness():
    rng = np.random.default_rng(44)
    bad = []

    # every scalar parameter of the full-width MLP
    mlp = create_model("mlp", 71, rng)
    y = rng.normal(1.5, 0.2, size=71)
    t = rng.integers(0, 2, 71).astype(float)
    _, grads = mlp.value_and_grad(y, t)
    for name, arr in mlp.param_blocks():
        g = grads[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            if not _entry_ok(_fd_entry(mlp, arr, idx, y, t), g[idx]):
                bad.append(f"mlp:{name}{idx}")

    # every parameter block of the full-width recurrent model on a
    # length-8 sequence; large blocks are checked on 64 seeded entries
    rnn = create_model("rnn", 71, rng)
    y = rng.normal(1.5, 0.2, size=8)
    t = rng.integers(0, 2, 8).astype(float)
    _, grads = rnn.value_and_grad(y, t)
    for name, arr in rnn.param_blocks():
        g = grads[name]
        if arr.size <= 72:
            picks = np.arange(arr.size)
        else:
            picks = rng.choice(arr.size, size=64, replace=False)
        for flat in picks:
            idx = np.unravel_index(flat, arr.shape)
            if not _entry_ok(_fd_entry(rnn, arr, idx, y, t), g[idx]):
                bad.append(f"rnn:{name}{idx}")

    verdict("C4 finite-difference gradient checks, all parameter blocks",
            not bad, "; ".join(bad[:5]) or "mlp full scan + rnn per-block scan clean")


# --------------------------------------------------------------------------
# 5. Dynamic-threshold sweep exactness
# --------------------------------------------------------------------------

def test_c5_dtd_exactness_against_brute_force():
    rng = np.random.default_rng(55)
    grid_values = np.array([0.8, 1.0, 1.15, 1.3, 1.5, 1.7, 1.9, 2.1])
    mismatches = 0
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        reads = rng.choice(grid_values, size=(m, n))
        labels = rng.integers(0, 2, size=(m, n))
        res = dtd_search(reads, labels)
        thresholds = np.linspace(0.5, 2.4, 10_000)
        flat_y = reads.ravel()
        flat_l = labels.ravel()
        objective = (flat_y[None, :] >= thresholds[:, None]).astype(np.int8) != flat_l[None, :]
        brute = objective.sum(axis=1).min()
        achieved = np.count_nonzero(threshold_detect(flat_y, res.r_adj) != flat_l)
        if res.objective != brute or achieved != res.objective:
            mismatches += 1
    verdict("C5 DTD sweep equals brute force on 1000 random instances",
            mismatches == 0, f"{mismatches} mismatches")


# --------------------------------------------------------------------------
# 6. DTD genie convergence
# --------------------------------------------------------------------------

def test_c6_dtd_genie_convergence():
    # Offset setting of the small-offset comparison figure; evaluated at the
    # 10% variation level, where errors are plentiful enough for M=1000
    # blocks to localize the threshold (at 5% the expected error count over
    # 71k bits is 0.2, which no estimator can turn into a 0.02 kOhm bound).
    p = ChannelParams.from_ratio(0.10, mu_b=-0.2, sigma_b_over_mu1=0.04)
    opt = optimal_threshold_bisection(p)
    devs = [
        abs(dtd_calibrate(GenieDetector(), p, 1000, seed=derive_seed(600 + s, 0), n=N).r_adj
            - opt.r_th)
        for s in range(20)
    ]
    verdict("C6 genie DTD within 0.02 kOhm of optimum over 20 seeds (M=1000)",
            max(devs) < 0.02, f"max |dev| = {max(devs):.4f} kOhm")


# --------------------------------------------------------------------------
# 7. End-to-end detection quality, desk scale
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_trained_rnn():
    params = ChannelParams.from_ratio(0.10, mu_b=-0.2, sigma_b_over_mu1=0.04)
    config = TrainConfig(epochs=6, minibatch_blocks=2, train_blocks=1600,
                         validation_blocks=800, seed=20260808, learning_rate=1e-3)
    result = train("rnn", params, config, n=N)
    return params, result


def test_c7_end_to_end_detection_quality(desk_trained_rnn):
    params, result = desk_trained_rnn
    opt = optimal_threshold_bisection(params)
    detector = NnDetector(result.model)
    rnn_est = estimate_ber(detector, params, 10_000, seed=derive_seed(700, 0), n=N)
    calib = dtd_calibrate(detector, params, 1000, seed=derive_seed(700, 1), n=N)
    dtd_est = estimate_ber(ThresholdDetector(calib.r_adj), params, 10_000,
                           seed=derive_seed(700, 0), n=N)
    rnn_ok = rnn_est.ber <= 1.5 * opt.ber
    dtd_ok = dtd_est.ber <= rnn_est.ber + rnn_est.ci_half_width
    verdict(
        "C7 desk-scale RNN within 1.5x optimum and DTD non-inferior",
        rnn_ok and dtd_ok,
        f"rnn={rnn_est.ber:.3e} (bound {1.5 * opt.ber:.3e}), "
        f"dtd={dtd_est.ber:.3e} (bound {rnn_est.ber + rnn_est.ci_half_width:.3e})",
    )


# --------------------------------------------------------------------------
# 8. Figure-ordering properties
# --------------------------------------------------------------------------

def test_c8a_reference_detector_ordering():
    violations = []
    for ratio in RATIOS:
        for mu_b in (-0.3, -0.2, -0.1, -0.05):
            for sb in (0.04, 0.07):
                p = ChannelParams.from_ratio(ratio, mu_b=mu_b, sigma_b_over_mu1=sb)
                r1 = optimal_threshold_closed_form(p, b=0.0).r_th
                r2 = optimal_threshold_closed_form(p, b=p.offset_mu_b).r_th
                r3 = optimal_threshold_bisection(p).r_th
                b1 = ber_variable_offset(r1, p)
                b2 = ber_variable_offset(r2, p)
                b3 = ber_variable_offset(r3, p)
                if not (b1 >= b2 - 1e-15 and b2 >= b3 - 1e-15):
                    violations.append(f"ratio={ratio} mu_b={mu_b} sb={sb}")
    verdict("C8a no-offset >= mean-offset >= full-knowledge BER ordering",
            not violations, "; ".join(violations) or "32 operating points ordered")


def first_epoch_in_band(history) -> int:
    final = history[-1].val_ber
    bar = 1.1 * final + 1e-4
    return next(rec.epoch for rec in history if rec.val_ber <= bar)


def test_c8b_rnn_converges_in_fewer_epochs():
    params = ChannelParams.from_ratio(0.05, mu_b=-0.2, sigma_b_over_mu1=0.04)
    histories = {}
    for kind, mb in (("rnn", 2), ("mlp", 4)):
        config = TrainConfig(epochs=8, minibatch_blocks=mb, train_blocks=1200,
                             validation_blocks=400, seed=808, learning_rate=1e-3)
        histories[kind] = train(kind, params, config, n=N).history
    rnn_epoch = first_epoch_in_band(histories["rnn"])
    mlp_epoch = first_epoch_in_band(histories["mlp"])
    verdict("C8b matched-budget curves: RNN reaches its band first",
            rnn_epoch < mlp_epoch, f"rnn at epoch {rnn_epoch}, mlp at epoch {mlp_epoch}")


# --------------------------------------------------------------------------
# 9. Beta-channel sanity
# --------------------------------------------------------------------------

def test_c9_beta_channel_empirical_beats_gaussian_assumption():
    failures = []
    for ratio in (0.08, 0.10, 0.12):
        p = ChannelParams.from_ratio(ratio, mu_b=-0.2, sigma_b_over_mu1=0.07,
                                     noise_model=NoiseModel.CENTERED_BETA)
        gauss_view = ChannelParams(p.mu0, p.mu1, p.sigma0, p.sigma1,
                                   p.offset_mu_b, p.offset_sigma_b)
        emp_r, _ = empirical_threshold(p, 30_000, seed=derive_seed(900, int(ratio * 100)))
        curve2 = optimal_threshold_closed_form(gauss_view, b=p.offset_mu_b)
        eval_seed = derive_seed(901, int(ratio * 100))
        e_emp, e_gauss = estimate_ber_paired(
            [ThresholdDetector(emp_r), ThresholdDetector(curve2.r_th)], p, 30_000, seed=eval_seed,
            n=N)
        if e_emp.ber > e_gauss.ber:
            failures.append(f"ratio={ratio}: emp={e_emp.ber:.3e} > gauss={e_gauss.ber:.3e}")
    verdict("C9 empirical optimum beats Gaussian-assumption threshold under Beta noise",
            not failures, "; ".join(failures) or "holds at ratios 8%, 10%, 12%")
