import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from nvmdtd import analytic

from nvmdtd.analytic import (
    Method,
    ber_variable_offset,
    ber_variable_offset_derivative,
    optimal_threshold_bisection,
    optimal_threshold_closed_form,
    q_function,
    reference_thresholds,
)
from nvmdtd.channel import (BETA_MAX_SHAPE, BETA_MEAN, BETA_SHAPE_RATIO, CHANNEL_MAX_KOHM,
                            SIGMA_MIN_KOHM, ChannelParams, NoiseModel, beta_alpha_for_sigma,
                            sample_block_matrix)
from nvmdtd.detectors import ThresholdDetector, threshold_detect
from nvmdtd.harness import estimate_ber
from nvmdtd.errors import NoRootError, ParameterError, UnsupportedModelError

from empirical import empirical_threshold


def golden_min(f, a, c, tol=1e-11):
    """Independent golden-section minimizer used as the closed-form oracle."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = c - invphi * (c - a), a + invphi * (c - a)
    f1, f2 = f(x1), f(x2)
    while c - a > tol:
        if f1 < f2:
            c, x2, f2 = x2, x1, f1
            x1 = c - invphi * (c - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (c - a)
            f2 = f(x2)
    return 0.5 * (a + c)


def fixed(params, b):
    """``params`` with every high-state read offset by exactly ``b``."""
    return replace(params, offset_mu_b=b, offset_sigma_b=0.0)


class TestQFunction:
    def test_zero(self):
        assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_tail_complement(self):
        for t in np.linspace(-6, 6, 25):
            assert q_function(t) + q_function(-t) == pytest.approx(1.0, abs=1e-14)

    def test_against_numerical_integration(self):
        # Oracle: direct quadrature of the standard normal density.
        pdf = lambda u: math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)
        for t in (0.5, 1.0, 2.0, 3.0, 5.0):
            ref, _ = quad(pdf, t, 40.0)
            assert q_function(t) == pytest.approx(ref, rel=1e-10)
        assert q_function(3.0) == pytest.approx(1.3498980316301e-3, rel=1e-10)


class TestBerFixedOffset:
    def test_symmetric_midpoint(self):
        p = ChannelParams(1.0, 2.0, 0.1, 0.1)
        assert ber_variable_offset(1.5, fixed(p, 0.0)) == pytest.approx(float(q_function(0.5 / 0.1)), rel=1e-12)

    def test_threshold_far_left(self):
        p = ChannelParams.from_ratio(0.05)
        assert ber_variable_offset(-50.0, fixed(p, 0.0)) == pytest.approx(0.5, abs=1e-12)

    def test_monte_carlo_agreement(self):
        p = ChannelParams.from_ratio(0.12)
        res = optimal_threshold_closed_form(p, b=0.0)
        x, y = sample_block_matrix(p, 71, 15_000, seed=314)
        decided = threshold_detect(y, res.r_th)
        ber_mc = np.count_nonzero(decided != x) / x.size
        sigma = math.sqrt(res.ber * (1 - res.ber) / x.size)
        assert abs(ber_mc - res.ber) <= 3 * sigma

    def test_non_gaussian_rejected(self):
        # The BER itself is exact for both noise models; only the closed-form
        # optimum is Gaussian by nature.
        p = ChannelParams.from_ratio(0.05, noise_model=NoiseModel.CENTERED_BETA)
        assert 0.0 <= ber_variable_offset(1.5, fixed(p, 0.0)) < 1e-12
        with pytest.raises(UnsupportedModelError):
            optimal_threshold_closed_form(p, b=0.0)


class TestBerDerivative:
    def test_zero_at_closed_form_root(self):
        p = ChannelParams(1.0, 2.0, 0.05, 0.10)
        res = optimal_threshold_closed_form(p, b=0.0)
        assert abs(ber_variable_offset_derivative(res.r_th, fixed(p, 0.0))) < 1e-10

    def test_matches_finite_differences(self):
        # The difference quotient carries cancellation noise of roughly
        # eps * BER / h ~ 1e-10, so the relative check only binds where the
        # derivative is comfortably above that floor.
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(100):
            ratio = rng.uniform(0.03, 0.15)
            b = rng.uniform(-0.3, 0.1)
            p = fixed(ChannelParams.from_ratio(ratio), b)
            r = rng.uniform(1.05, 1.9)
            fd = (ber_variable_offset(r + h, p) - ber_variable_offset(r - h, p)) / (2 * h)
            an = ber_variable_offset_derivative(r, p)
            assert an == pytest.approx(fd, rel=1e-6, abs=2e-9)

    def test_strongly_negative_near_mu0(self):
        p = ChannelParams(1.0, 2.0, 0.02, 0.04)
        assert ber_variable_offset_derivative(1.0, fixed(p, 0.0)) < -1.0


def _reference_derivative(r_th, params, nodes):
    """The derivative's formula with every term formed afresh on each call."""
    from scipy.special import betaln

    if params.offset_sigma_b == 0.0:
        b, w = np.array([params.offset_mu_b]), np.ones(1)
    else:
        t, w = np.polynomial.hermite.hermgauss(nodes)
        b = params.offset_mu_b + math.sqrt(2.0) * params.offset_sigma_b * t
        w = w / math.sqrt(math.pi)
    if params.noise_model is NoiseModel.GAUSSIAN:
        u0 = (r_th - params.mu0) / params.sigma0
        f0 = math.exp(-0.5 * u0 * u0) / math.sqrt(2.0 * math.pi) / params.sigma0
        u1 = (r_th - params.mu1 - b) / params.sigma1
        e_f1 = float(np.dot(w, np.exp(-0.5 * u1 * u1) / math.sqrt(2.0 * math.pi))) / params.sigma1
        return 0.5 * (e_f1 - f0)

    def pdf(excess, sigma):
        a = beta_alpha_for_sigma(sigma)
        x = np.clip(excess + BETA_MEAN, 0.0, 1.0)
        inside = (x > 0.0) & (x < 1.0)
        xi = np.where(inside, x, 0.5)
        log_pdf = ((a - 1.0) * np.log(xi) + (BETA_SHAPE_RATIO * a - 1.0) * np.log1p(-xi)
                   - betaln(a, BETA_SHAPE_RATIO * a))
        return np.where(inside, np.exp(log_pdf), 0.0)

    f0 = float(pdf(r_th - params.mu0, params.sigma0))
    e_f1 = float(np.dot(w, pdf(r_th - params.mu1 - b, params.sigma1)))
    return 0.5 * (e_f1 - f0)


class TestDerivativePinned:
    """The derivative equals its formula bit for bit, per-point terms cached or not."""

    @pytest.mark.parametrize("noise_model", list(NoiseModel), ids=lambda m: m.value)
    def test_equals_the_formula(self, noise_model):
        rng = np.random.default_rng(19)
        for i in range(1200):
            sigma_b = 0.0 if i % 5 == 0 else rng.uniform(0.0, 0.1)
            p = ChannelParams.from_ratio(rng.uniform(0.03, 0.14), mu_b=rng.uniform(-0.4, 0.2),
                                         sigma_b_over_mu1=sigma_b, noise_model=noise_model)
            nodes = (8, 64)[i % 2]
            # Reads from below the state-0 support to above the state-1 one.
            for r in (rng.uniform(0.3, 2.8), rng.uniform(1.0, 2.0)):
                got = ber_variable_offset_derivative(r, p, nodes)
                assert got == _reference_derivative(r, p, nodes), (i, r, p, nodes)
        assert analytic._point_terms.cache_info().maxsize is not None  # bounded


class TestClosedForm:
    def test_equal_sigma_midpoint(self):
        p = ChannelParams(1.0, 2.0, 0.07, 0.07)
        assert optimal_threshold_closed_form(p, b=0.0).r_th == pytest.approx(1.5, abs=1e-12)

    def test_against_golden_section(self):
        p = ChannelParams(1.0, 2.0, 0.05, 0.10)
        res = optimal_threshold_closed_form(p, b=0.0)
        oracle = golden_min(lambda r: ber_variable_offset(r, fixed(p, 0.0)), 1.0, 2.0)
        assert res.r_th == pytest.approx(oracle, abs=1e-6)
        assert res.r_th == pytest.approx(1.3368, abs=5e-5)
        assert res.method is Method.CLOSED_FORM

    def test_offset_is_mean_shift(self):
        p = ChannelParams(1.0, 2.0, 0.05, 0.10)
        shifted = ChannelParams(1.0, 1.8, 0.05, 0.10)
        a = optimal_threshold_closed_form(p, b=-0.2)
        b = optimal_threshold_closed_form(shifted, b=0.0)
        assert a.r_th == pytest.approx(b.r_th, abs=1e-12)

    def test_nearly_equal_sigmas_fall_back_to_bisection(self):
        # d0 - d1 cancels here: the quadratic's root lands at 1.99985, not a
        # local minimum, so the closed form takes the bisection's answer.
        p = ChannelParams(1.0, 3.0, 0.3, 0.3 * (1 + 2e-12))
        assert optimal_threshold_closed_form(p, b=0.0).r_th == pytest.approx(2.0, abs=1e-8)

    def test_underflowing_sigma_ratio_bisects(self):
        # sigma0 / sigma1 would underflow to 0, leaving log(sigma0 / sigma1) no float
        # value; both sigmas are outside the accepted range, so the channel is refused.
        with pytest.raises(ParameterError, match=r"sigmas in \[1e-50, 1e\+50\]"):
            ChannelParams.from_ratio(0.05, mu0=2.6e-195, mu1=5e152)

    def test_dominates_grid(self):
        p = ChannelParams.from_ratio(0.08, mu_b=-0.2, sigma_b_over_mu1=0.04)
        res = optimal_threshold_closed_form(p, b=p.offset_mu_b)
        grid = np.linspace(p.mu0, p.mu1 + abs(p.offset_mu_b) + 4 * p.offset_sigma_b, 10_000)
        best = min(ber_variable_offset(float(r), fixed(p, p.offset_mu_b)) for r in grid)
        assert res.ber <= best + 1e-15


class TestVariableOffset:
    def test_degenerate_sigma_b(self):
        p = ChannelParams.from_ratio(0.05, mu_b=-0.2, sigma_b_over_mu1=0.0)
        for r in (1.2, 1.4, 1.6):
            assert ber_variable_offset(r, p) == ber_variable_offset(r, fixed(p, -0.2))

    def test_gaussian_convolution_identity(self, offset_channel):
        p = offset_channel
        s_eff = math.sqrt(p.sigma1 ** 2 + p.offset_sigma_b ** 2)
        for r in np.linspace(1.05, 1.95, 19):
            exact = 0.5 * (
                1.0
                + q_function((r - p.mu0) / p.sigma0)
                - q_function((r - p.mu1 - p.offset_mu_b) / s_eff)
            )
            assert ber_variable_offset(float(r), p) == pytest.approx(float(exact), abs=1e-10)

    def test_local_minimality(self, offset_channel):
        opt = optimal_threshold_bisection(offset_channel)
        assert opt.ber < ber_variable_offset(opt.r_th - 0.05, offset_channel)
        assert opt.ber < ber_variable_offset(opt.r_th + 0.05, offset_channel)

    def test_quadrature_node_convergence(self, offset_channel):
        for r in np.linspace(1.0, 2.0, 21):
            a = ber_variable_offset(float(r), offset_channel, nodes=64)
            b = ber_variable_offset(float(r), offset_channel, nodes=128)
            assert abs(a - b) < 1e-12


class TestBisection:
    def test_matches_closed_form_when_degenerate(self):
        p = ChannelParams.from_ratio(0.07, mu_b=-0.15, sigma_b_over_mu1=0.0)
        bi = optimal_threshold_bisection(p)
        cf = optimal_threshold_closed_form(p, b=-0.15)
        assert bi.r_th == pytest.approx(cf.r_th, abs=1e-8)

    def test_gaussian_reduction(self, offset_channel):
        p = offset_channel
        bi = optimal_threshold_bisection(p)
        eff = ChannelParams(
            p.mu0, p.mu1 + p.offset_mu_b, p.sigma0,
            math.sqrt(p.sigma1 ** 2 + p.offset_sigma_b ** 2),
        )
        cf = optimal_threshold_closed_form(eff, b=0.0)
        assert bi.r_th == pytest.approx(cf.r_th, abs=1e-8)
        assert bi.method is Method.BISECTION

    def test_grid_oracle(self, offset_channel):
        # Two-stage grid: coarse pass over the bracket, then a fine pass
        # around the coarse minimum; the flat quadratic bottom makes a
        # single 1e4-point grid resolve only ~1e-9 in BER.
        p = offset_channel
        bi = optimal_threshold_bisection(p)
        grid = np.linspace(p.mu0, p.mu1, 10_000)
        vals = np.array([ber_variable_offset(float(r), p) for r in grid])
        k = int(np.argmin(vals))
        fine = np.linspace(grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)], 10_000)
        best = min(ber_variable_offset(float(r), p) for r in fine)
        assert abs(bi.ber - best) < 1e-12

    # From 2^23 kOhm up, adjacent floats are further apart than the 1e-9 kOhm
    # width, so the bisection must stop when no float lies between its ends.
    # 1e49 puts mu1 = 2e49 next to the largest accepted magnitude.
    @pytest.mark.parametrize("mu0", [2.0 ** 23, 1e7, 1e20, 1e49])
    def test_terminates_where_floats_are_coarser_than_the_width(self, mu0):
        scaled = ChannelParams.from_ratio(0.05, mu_b=-0.1 * mu0, sigma_b_over_mu1=0.04,
                                          mu0=mu0, mu1=2.0 * mu0)
        unit = ChannelParams.from_ratio(0.05, mu_b=-0.1, sigma_b_over_mu1=0.04)
        opt = optimal_threshold_bisection(scaled)
        assert scaled.mu0 < opt.r_th < scaled.mu1
        # The channel law is scale-invariant, so the BER is the unit channel's.
        assert opt.ber == pytest.approx(optimal_threshold_bisection(unit).ber, rel=1e-6)

    def test_signs_are_compared_where_their_product_underflows(self):
        # Both read densities are about 1e-211 near this optimum, so the product of
        # two derivatives there underflows to 0 and would pass for "no sign change".
        p = ChannelParams.from_ratio(0.011)
        assert optimal_threshold_bisection(p).r_th == pytest.approx(
            optimal_threshold_closed_form(p, b=0.0).r_th, abs=1e-8)

    def test_derivative_root(self, offset_channel):
        opt = optimal_threshold_bisection(offset_channel)
        assert abs(ber_variable_offset_derivative(opt.r_th, offset_channel)) < 1e-9

    def test_cached_rule_is_read_only_and_bit_identical(self, offset_channel, monkeypatch):
        t, w = analytic._gh_rule(64)
        assert analytic._gh_rule(64)[0] is t
        with pytest.raises(ValueError):
            t[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0
        cached = optimal_threshold_bisection(offset_channel)

        def fresh_rule(nodes):
            t, w = np.polynomial.hermite.hermgauss(nodes)
            return t, w / math.sqrt(math.pi)

        monkeypatch.setattr(analytic, "_gh_rule", fresh_rule)
        analytic._point_terms.cache_clear()  # so the bisection also sees fresh offsets
        fresh = optimal_threshold_bisection(offset_channel)
        analytic._point_terms.cache_clear()
        assert (cached.r_th, cached.ber) == (fresh.r_th, fresh.ber)


class TestEmpirical:
    def test_gaussian_consistency(self, active_offset_channel):
        emp_r, _ = empirical_threshold(active_offset_channel, 100_000, seed=987)
        bi = optimal_threshold_bisection(active_offset_channel)
        assert abs(emp_r - bi.r_th) < 0.01

    def test_noise_free_limit(self):
        p = ChannelParams(1.0, 2.0, 1e-9, 2e-9)
        emp_r, emp_ber = empirical_threshold(p, 200, seed=5)
        assert 1.0 < emp_r < 2.0
        assert emp_ber == 0.0

    def test_beta_dominates_gaussian_threshold_on_same_sample(self):
        p = ChannelParams.from_ratio(0.10, mu_b=-0.2, sigma_b_over_mu1=0.07,
                                     noise_model=NoiseModel.CENTERED_BETA)
        gauss_view = ChannelParams(p.mu0, p.mu1, p.sigma0, p.sigma1,
                                   p.offset_mu_b, p.offset_sigma_b)
        nblocks, seed = 20_000, 77
        _, emp_ber = empirical_threshold(p, nblocks, seed=seed)
        curve2 = optimal_threshold_closed_form(gauss_view, b=p.offset_mu_b)
        x, y = sample_block_matrix(p, 71, nblocks, seed=seed)
        errors_gauss = int(np.count_nonzero(threshold_detect(y, curve2.r_th) != x))
        assert emp_ber <= errors_gauss / x.size


def test_beta_density_is_within_1e_6_of_scipy_up_to_the_largest_shape():
    """The limit BETA_MAX_SHAPE holds the package's Beta log-density close to scipy's."""
    from scipy.special import betaln
    from scipy.stats import beta as scipy_beta

    for a in np.geomspace(1e2, BETA_MAX_SHAPE, 25):
        b = BETA_SHAPE_RATIO * a
        mean, sd = a / (a + b), math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
        x = mean + sd * np.linspace(-5.0, 5.0, 201)
        got = analytic._beta_pdf(x, a, b, float(betaln(a, b)))
        assert np.max(np.abs(got / scipy_beta.pdf(x, a, b) - 1.0)) < 1e-6, a


def _log_uniform(lo: float, hi: float):
    """Magnitudes spread evenly in log10 over [lo, hi], ends included."""
    return st.sampled_from(np.geomspace(lo, hi, 1001).tolist())


_MAGNITUDE = _log_uniform(SIGMA_MIN_KOHM, CHANNEL_MAX_KOHM)
_SIGNED = st.one_of(st.just(0.0), _MAGNITUDE, _MAGNITUDE.map(lambda v: -v))


@st.composite
def _in_range_channels(draw):
    """Channels inside the accepted range: either noise model, any scale, nearly equal
    sigmas, large offsets, and centered-Beta sigmas up to the largest Beta shape."""
    mu0, mu1 = sorted((draw(_SIGNED), draw(_SIGNED)))
    assume(mu0 < mu1)
    noise = draw(st.sampled_from(NoiseModel))
    # sigma ~ 3.357e-5 is the largest Beta shape, and sigma^2 < 1.2/4.84 its smallest.
    sigma = _MAGNITUDE if noise is NoiseModel.GAUSSIAN else _log_uniform(3.4e-5, 0.49)
    sigma0 = draw(sigma)
    sigma1 = draw(st.one_of(sigma, st.floats(-1e-11, 1e-11).map(lambda e: sigma0 * (1 + e))))
    return ChannelParams(mu0, mu1, sigma0, sigma1,
                         offset_mu_b=draw(_SIGNED), offset_sigma_b=abs(draw(_SIGNED)),
                         noise_model=noise)


# Inside the accepted range nothing overflows: every value is finite, and no numpy
# RuntimeWarning (an error under this suite's warning filter) is raised.
@settings(derandomize=True, deadline=None, max_examples=200)
@given(params=_in_range_channels())
def test_channels_inside_the_range_give_finite_results(params):
    r = 0.5 * (params.mu0 + params.mu1)
    assert math.isfinite(ber_variable_offset(r, params))
    assert math.isfinite(ber_variable_offset_derivative(r, params))
    try:
        refs = reference_thresholds(params)
    except NoRootError:  # a derivative that keeps one sign is a documented exit 3
        pass
    else:
        for res in refs.values():
            assert math.isfinite(res.r_th) and math.isfinite(res.ber), res
    _, y = sample_block_matrix(params, 4, 2, seed=0)
    assert np.isfinite(y).all()


def beta_channel(ratio, mu_b=-0.15, sigma_b_over_mu1=0.04):
    return ChannelParams.from_ratio(ratio, mu_b=mu_b, sigma_b_over_mu1=sigma_b_over_mu1,
                                    noise_model=NoiseModel.CENTERED_BETA)


class TestCenteredBeta:
    @pytest.mark.parametrize("sigma_b_over_mu1", [0.04, 0.0])
    def test_derivative_matches_finite_differences(self, sigma_b_over_mu1):
        rng = np.random.default_rng(6)
        h = 1e-6
        for _ in range(100):
            p = beta_channel(rng.uniform(0.05, 0.14), rng.uniform(-0.3, 0.1), sigma_b_over_mu1)
            r = rng.uniform(1.05, 1.9)
            fd = (ber_variable_offset(r + h, p) - ber_variable_offset(r - h, p)) / (2 * h)
            an = ber_variable_offset_derivative(r, p)
            assert an == pytest.approx(fd, rel=1e-6, abs=2e-9)
            if sigma_b_over_mu1 == 0.0:
                assert ber_variable_offset_derivative(r, fixed(p, p.offset_mu_b)) == an

    @pytest.mark.parametrize("ratio", [0.08, 0.12])
    def test_monte_carlo_agreement(self, ratio):
        p = beta_channel(ratio)
        opt = optimal_threshold_bisection(p)
        est = estimate_ber(ThresholdDetector(opt.r_th), p, 20_000,
                           seed=2003 + int(ratio * 100))
        sigma = math.sqrt(opt.ber * (1 - opt.ber) / est.bits)
        assert abs(est.ber - opt.ber) <= 3 * sigma

    def test_bisection_matches_empirical_search(self):
        p = beta_channel(0.10, mu_b=-0.2, sigma_b_over_mu1=0.07)
        emp_r, _ = empirical_threshold(p, 30_000, seed=987)
        bi = optimal_threshold_bisection(p)
        assert abs(emp_r - bi.r_th) < 0.01
        assert bi.ber == ber_variable_offset(bi.r_th, p)

    def test_disjoint_supports_are_error_free(self):
        # At ratio 0.05 the two bounded read laws only touch at mu0 + 1 - 1/2.2.
        p = beta_channel(0.05, mu_b=0.0, sigma_b_over_mu1=0.0)
        opt = optimal_threshold_bisection(p)
        assert opt.ber < 1e-12
        assert p.mu0 < opt.r_th < p.mu1

    def test_reference_table_uses_gaussian_view_for_closed_forms(self):
        p = beta_channel(0.10, mu_b=-0.2, sigma_b_over_mu1=0.07)
        gauss = ChannelParams.from_ratio(0.10, mu_b=-0.2, sigma_b_over_mu1=0.07)
        refs = reference_thresholds(p)
        assert refs["opt-no-offset"] == optimal_threshold_closed_form(gauss, b=0.0)
        assert refs["opt-mean-offset"] == optimal_threshold_closed_form(gauss, b=-0.2)
        assert refs["opt-full"] == optimal_threshold_bisection(p)
        assert reference_thresholds(gauss)["opt-full"] == optimal_threshold_bisection(gauss)


class TestMonotoneDegradation:
    def test_min_ber_non_decreasing_in_ratio(self):
        ratios = np.linspace(0.04, 0.13, 10)
        bers = [
            optimal_threshold_bisection(
                ChannelParams.from_ratio(float(r), mu_b=-0.2, sigma_b_over_mu1=0.04)
            ).ber
            for r in ratios
        ]
        assert all(b2 >= b1 - 1e-15 for b1, b2 in zip(bers, bers[1:]))
