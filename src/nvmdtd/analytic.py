"""Exact reference detectors for both read-channel noise models.

For equiprobable bits, the threshold detector's bit error rate at
threshold ``r`` is

    P(r) = 1/2 * (P(state-0 read >= r) + E_b P(state-1 read < r | offset b))

where ``b`` is the high-state offset.  Each state's read law is its
nominal resistance plus the channel's variation law: Gaussian tails
``Q((r - mu0)/sigma0)`` and ``1 - Q((r - mu1 - b)/sigma1)``, or, under
centered-Beta variation, the regularized incomplete Beta functions of the
two Beta(alpha, 1.2*alpha) draws.  The expectation over a random offset
is taken by Gauss-Hermite quadrature (a fixed offset is a one-node rule),
and the minimizing threshold is found by bisecting the derivative.  For
Gaussian variation and a fixed offset, setting the derivative to zero
gives a quadratic in ``r`` whose minus branch is the closed-form optimum.
The module takes only channel parameters as input: it samples no reads.

``scipy.special`` is imported on first use, inside the three functions
that call it, so that commands which never evaluate ``erfc`` or an
incomplete Beta function (training, sessions, network-only evaluation)
start without it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .channel import BETA_MEAN, BETA_SHAPE_RATIO, ChannelParams, NoiseModel, beta_alpha_for_sigma
from .errors import NoRootError, UnsupportedModelError, float_range

GH_NODES_DEFAULT = 64
BISECTION_WIDTH = 1e-9
BRACKET_STEP = 0.1
BRACKET_MAX_EXPANSIONS = 50

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


class Method(Enum):
    CLOSED_FORM = "closed-form"
    BISECTION = "bisection"


@dataclass(frozen=True)
class ThresholdResult:
    """A sensing threshold plus the bit error rate it achieves."""

    r_th: float
    ber: float
    method: Method


def q_function(t):
    """Standard normal tail probability, Q(t) = P(Z > t)."""
    from scipy.special import erfc

    return 0.5 * erfc(np.asarray(t, dtype=np.float64) / _SQRT2)


def _require_gaussian(params: ChannelParams) -> None:
    if params.noise_model is not NoiseModel.GAUSSIAN:
        raise UnsupportedModelError(
            f"analytic formulas require Gaussian variation, got {params.noise_model.value}"
        )


def optimal_threshold_closed_form(params: ChannelParams, b: float = 0.0) -> ThresholdResult:
    """BER-minimizing threshold for Gaussian variation and a fixed offset ``b``.

    The general branch solves the stationarity quadratic with mu1 shifted
    by ``b``; equal variances degenerate to the midpoint (mu0 + mu1 + b)/2.
    A local-minimality probe guards the corner cases where the quadratic
    loses precision (variances equal to within about 1e-11) and falls back to
    bisecting the derivative of the same objective, as does a sigma ratio
    that underflows to 0.
    """
    _require_gaussian(params)
    fixed = replace(params, offset_mu_b=b, offset_sigma_b=0.0)
    mu0, mu1 = params.mu0, params.mu1 + b
    s0, s1 = params.sigma0, params.sigma1
    if abs(s0 - s1) < 1e-12 * s0:
        r = 0.5 * (params.mu0 + params.mu1 + b)
    elif s0 / s1 == 0.0:  # log(s0 / s1) is beyond float range, and so is the quadratic
        r = optimal_threshold_bisection(fixed).r_th
    else:
        with float_range("optimal_threshold_closed_form", fixed):
            d0, d1 = s0 * s0, s1 * s1
            disc = (mu0 - mu1) ** 2 + 2.0 * math.log(s0 / s1) * (d0 - d1)
            r = (mu1 * d0 - mu0 * d1 - s0 * s1 * math.sqrt(disc)) / (d0 - d1)
        if not _is_local_min(r, fixed):
            r = optimal_threshold_bisection(fixed).r_th
    return ThresholdResult(r_th=r, ber=ber_variable_offset(r, fixed), method=Method.CLOSED_FORM)


def _is_local_min(r: float, params: ChannelParams, h: float = 1e-4) -> bool:
    here = ber_variable_offset(r, params)
    return (
        ber_variable_offset(r - h, params) >= here - 1e-15
        and ber_variable_offset(r + h, params) >= here - 1e-15
    )


@functools.lru_cache(maxsize=None)
def _gh_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights (scaled by 1/sqrt(pi)), built once per node count.

    The arrays are shared by every caller, so they are read-only.
    """
    t, w = np.polynomial.hermite.hermgauss(nodes)
    w = w / math.sqrt(math.pi)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _gh_offsets(params: ChannelParams, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Offset nodes and weights; a fixed offset is the one node ``(mu_b, 1.0)``."""
    if params.offset_sigma_b == 0.0:
        return np.array([params.offset_mu_b]), np.ones(1)
    t, w = _gh_rule(nodes)
    return params.offset_mu_b + _SQRT2 * params.offset_sigma_b * t, w


def _beta_draw(excess):
    """The raw Beta draw, clipped to [0, 1], that puts a read ``excess`` above its nominal value."""
    return np.clip(excess + BETA_MEAN, 0.0, 1.0)


@functools.lru_cache(maxsize=32)
def _derivative_terms(params: ChannelParams, nodes: int):
    """Per-point constants of :func:`ber_variable_offset_derivative`, built once per point.

    A bisection evaluates the derivative about 32 times at one point.  The
    terms are the offset nodes and weights (shared, so read-only) and, under
    centered-Beta variation, each state's ``(a - 1, b - 1, betaln(a, b))``
    for its Beta(a, b) draw; ``None`` for Gaussian variation.
    """
    b, w = _gh_offsets(params, nodes)
    b.flags.writeable = w.flags.writeable = False
    if params.noise_model is NoiseModel.GAUSSIAN:
        return b, w, None
    from scipy.special import betaln

    terms = []
    for sigma in (params.sigma0, params.sigma1):
        a = beta_alpha_for_sigma(sigma)
        terms.append((a - 1.0, BETA_SHAPE_RATIO * a - 1.0, float(betaln(a, BETA_SHAPE_RATIO * a))))
    return b, w, terms


def _beta_pdf(x, am1: float, bm1: float, log_norm: float) -> np.ndarray:
    """Beta(a, b) density from its terms ``(a - 1, b - 1, betaln(a, b))``, 0 outside (0, 1)."""
    inside = (x > 0.0) & (x < 1.0)
    xi = np.where(inside, x, 0.5)
    log_pdf = am1 * np.log(xi) + bm1 * np.log1p(-xi) - log_norm
    return np.where(inside, np.exp(log_pdf), 0.0)


def ber_variable_offset(
    r_th: float, params: ChannelParams, nodes: int = GH_NODES_DEFAULT
) -> float:
    """Threshold-detector BER under the channel's variation law, averaged over the offset.

    The state-1 term is averaged over the Gaussian offset by Gauss-Hermite
    quadrature, exact up to quadrature truncation.  Gaussian tails are
    evaluated in the complement form (Q(u0) + Q(-u1)) / 2, which keeps full
    relative precision when both tails are tiny.
    """
    b, w = _gh_offsets(params, nodes)
    if params.noise_model is NoiseModel.GAUSSIAN:
        p0 = q_function((r_th - params.mu0) / params.sigma0)
        p1 = q_function(-(r_th - params.mu1 - b) / params.sigma1)
    else:
        from scipy.special import betainc

        a0, a1 = beta_alpha_for_sigma(params.sigma0), beta_alpha_for_sigma(params.sigma1)
        p0 = betainc(BETA_SHAPE_RATIO * a0, a0, 1.0 - _beta_draw(r_th - params.mu0))
        p1 = betainc(a1, BETA_SHAPE_RATIO * a1, _beta_draw(r_th - params.mu1 - b))
    return float(0.5 * (p0 + float(np.dot(w, p1))))


def ber_variable_offset_derivative(
    r_th: float, params: ChannelParams, nodes: int = GH_NODES_DEFAULT
) -> float:
    """d/dr of :func:`ber_variable_offset`: half the difference of the two read densities.

    A Beta density vanishes wherever the draw would be clipped, so the
    draws enter it unclipped.
    """
    b, w, beta_terms = _derivative_terms(params, nodes)
    if beta_terms is None:
        u0 = (r_th - params.mu0) / params.sigma0
        f0 = math.exp(-0.5 * u0 * u0) / _SQRT2PI / params.sigma0
        u1 = (r_th - params.mu1 - b) / params.sigma1
        with np.errstate(over="ignore"):  # u1 * u1 = inf far out, where exp(-inf) = 0 is exact
            e_f1 = float(np.dot(w, np.exp(-0.5 * u1 * u1) / _SQRT2PI)) / params.sigma1
    else:
        x0 = r_th - params.mu0 + BETA_MEAN
        am1, bm1, log_norm = beta_terms[0]
        f0 = 0.0
        if 0.0 < x0 < 1.0:
            f0 = float(np.exp(am1 * np.log(x0) + bm1 * np.log1p(-x0) - log_norm))
        e_f1 = float(np.dot(w, _beta_pdf(r_th - params.mu1 - b + BETA_MEAN, *beta_terms[1])))
    return 0.5 * (e_f1 - f0)


def optimal_threshold_bisection(
    params: ChannelParams, nodes: int = GH_NODES_DEFAULT
) -> ThresholdResult:
    """Optimum threshold under the channel law, by bisecting the BER derivative.

    Starts from the bracket [mu0, mu1 + max(0, offset mean)] and widens it
    in 0.1 kOhm steps until the derivative changes sign, then bisects down
    to a 1e-9 kOhm interval, or until no float lies strictly between the
    ends (at resistances of 2^23 kOhm and above, where floats are coarser
    than 1e-9).  Works for both noise models and for fixed (sigma_b = 0) as
    well as random offsets.
    """
    lo = params.mu0
    hi = params.mu1 + max(0.0, params.offset_mu_b)
    f = lambda r: ber_variable_offset_derivative(r, params, nodes)
    flo, fhi = f(lo), f(hi)
    expansions = 0
    # Signs are compared, not multiplied: far from kOhm scale the product
    # of two small derivatives underflows to 0 and would pass for a sign change.
    while (flo > 0.0 and fhi > 0.0) or (flo < 0.0 and fhi < 0.0):
        expansions += 1
        if expansions > BRACKET_MAX_EXPANSIONS:
            raise NoRootError(
                f"derivative kept one sign on [{lo:.3f}, {hi:.3f}] after "
                f"{BRACKET_MAX_EXPANSIONS} expansions"
            )
        lo -= BRACKET_STEP
        hi += BRACKET_STEP
        flo, fhi = f(lo), f(hi)
    while hi - lo > BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            lo = hi = mid
            break
        if flo < 0.0 < fmid or fmid < 0.0 < flo:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    r = 0.5 * (lo + hi)
    return ThresholdResult(
        r_th=r, ber=ber_variable_offset(r, params, nodes), method=Method.BISECTION
    )


def reference_thresholds(params: ChannelParams) -> dict[str, ThresholdResult]:
    """The three reference thresholds of an operating point, by detector row name.

    ``opt-no-offset`` ignores the offset and ``opt-mean-offset`` knows only
    its mean; both are the Gaussian closed form, so under centered-Beta
    variation they are the thresholds a Gaussian-assuming design would
    pick.  ``opt-full`` is the exact optimum under the complete channel law.
    """
    gaussian_view = replace(params, noise_model=NoiseModel.GAUSSIAN)
    return {
        "opt-no-offset": optimal_threshold_closed_form(gaussian_view, b=0.0),
        "opt-mean-offset": optimal_threshold_closed_form(gaussian_view, b=params.offset_mu_b),
        "opt-full": optimal_threshold_bisection(params),
    }
