"""Closed-form and numerical reference detectors for the Gaussian read channel.

For equiprobable bits and Gaussian variation, the threshold detector's
bit error rate at threshold ``r`` with a fixed high-state offset ``b`` is

    P(r, b) = 1/2 * (1 + Q((r - mu0)/sigma0) - Q((r - mu1 - b)/sigma1))

where Q is the standard normal tail.  Setting the derivative to zero gives
a quadratic in ``r`` whose minus branch is the minimizing threshold; when
the offset itself is random the expectation over it has no closed form and
the minimizer is found by bisecting the derivative computed with
Gauss-Hermite quadrature.  For non-Gaussian channels an empirical search
over simulated reads stands in for the optimum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import erfc

from . import detectors
from .channel import ChannelParams, NoiseModel, sample_block_matrix
from .errors import NoRootError, ParameterError, UnsupportedModelError

GH_NODES_DEFAULT = 64
BISECTION_WIDTH = 1e-9
BRACKET_STEP = 0.1
BRACKET_MAX_EXPANSIONS = 50

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


class Method(Enum):
    CLOSED_FORM = "closed-form"
    BISECTION = "bisection"
    EMPIRICAL_SEARCH = "empirical-search"


@dataclass(frozen=True)
class ThresholdResult:
    """A sensing threshold plus the bit error rate it achieves."""

    r_th: float
    ber: float
    method: Method
    warning: str | None = None


def q_function(t):
    """Standard normal tail probability, Q(t) = P(Z > t)."""
    return 0.5 * erfc(np.asarray(t, dtype=np.float64) / _SQRT2)


def _require_gaussian(params: ChannelParams) -> None:
    if params.noise_model is not NoiseModel.GAUSSIAN:
        raise UnsupportedModelError(
            f"analytic formulas require Gaussian variation, got {params.noise_model.value}"
        )


def ber_fixed_offset(r_th: float, params: ChannelParams, b: float) -> float:
    """Threshold-detector BER when every high-state read is offset by exactly ``b``.

    Evaluates (1 + Q(u0) - Q(u1)) / 2 in the complement form
    (Q(u0) + Q(-u1)) / 2, which keeps full relative precision when both
    tails are tiny.
    """
    _require_gaussian(params)
    q0 = q_function((r_th - params.mu0) / params.sigma0)
    q1c = q_function(-(r_th - params.mu1 - b) / params.sigma1)
    return float(0.5 * (q0 + q1c))


def ber_derivative(r_th: float, params: ChannelParams, b: float) -> float:
    """d/dr of :func:`ber_fixed_offset`; zero at the optimum threshold."""
    _require_gaussian(params)
    u0 = (r_th - params.mu0) / params.sigma0
    u1 = (r_th - params.mu1 - b) / params.sigma1
    phi0 = math.exp(-0.5 * u0 * u0) / _SQRT2PI
    phi1 = math.exp(-0.5 * u1 * u1) / _SQRT2PI
    return -phi0 / (2.0 * params.sigma0) + phi1 / (2.0 * params.sigma1)


def optimal_threshold_closed_form(params: ChannelParams, b: float = 0.0) -> ThresholdResult:
    """BER-minimizing threshold for a fixed offset ``b``, in closed form.

    The general branch solves the stationarity quadratic with mu1 shifted
    by ``b``; equal variances degenerate to the midpoint (mu0 + mu1 + b)/2.
    A local-minimality probe guards the corner cases where the closed-form
    branch is not the minimizer and falls back to a grid-plus-golden-section
    refinement of the same objective.
    """
    _require_gaussian(params)
    mu0, mu1 = params.mu0, params.mu1 + b
    s0, s1 = params.sigma0, params.sigma1
    if abs(s0 - s1) < 1e-12 * s0:
        r = 0.5 * (params.mu0 + params.mu1 + b)
    else:
        d0, d1 = s0 * s0, s1 * s1
        disc = (mu0 - mu1) ** 2 + 2.0 * math.log(s0 / s1) * (d0 - d1)
        r = (mu1 * d0 - mu0 * d1 - s0 * s1 * math.sqrt(disc)) / (d0 - d1)
        if not _is_local_min(r, params, b):
            r = _refine_by_search(params, b)
    return ThresholdResult(r_th=r, ber=ber_fixed_offset(r, params, b), method=Method.CLOSED_FORM)


def _is_local_min(r: float, params: ChannelParams, b: float, h: float = 1e-4) -> bool:
    here = ber_fixed_offset(r, params, b)
    return (
        ber_fixed_offset(r - h, params, b) >= here - 1e-15
        and ber_fixed_offset(r + h, params, b) >= here - 1e-15
    )


def _refine_by_search(params: ChannelParams, b: float) -> float:
    lo = min(params.mu0, params.mu1 + b) - 4.0 * params.sigma0
    hi = max(params.mu0, params.mu1 + b) + 4.0 * params.sigma1
    grid = np.linspace(lo, hi, 4001)
    vals = [ber_fixed_offset(float(g), params, b) for g in grid]
    k = int(np.argmin(vals))
    a = grid[max(0, k - 1)]
    c = grid[min(len(grid) - 1, k + 1)]
    return _golden_min(lambda r: ber_fixed_offset(r, params, b), float(a), float(c))


def _golden_min(f, a: float, c: float, tol: float = 1e-10) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = c - invphi * (c - a)
    x2 = a + invphi * (c - a)
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
    t, w = _gh_rule(nodes)
    return params.offset_mu_b + _SQRT2 * params.offset_sigma_b * t, w


def ber_variable_offset(
    r_th: float, params: ChannelParams, nodes: int = GH_NODES_DEFAULT
) -> float:
    """Threshold-detector BER averaged over the Gaussian offset distribution.

    The expectation of the high-state tail term is taken by Gauss-Hermite
    quadrature, exact for the Gaussian offset up to quadrature truncation.
    """
    _require_gaussian(params)
    if params.offset_sigma_b == 0.0:
        return ber_fixed_offset(r_th, params, params.offset_mu_b)
    b, w = _gh_offsets(params, nodes)
    q0 = q_function((r_th - params.mu0) / params.sigma0)
    e_q1c = float(np.dot(w, q_function(-(r_th - params.mu1 - b) / params.sigma1)))
    return float(0.5 * (q0 + e_q1c))


def ber_variable_offset_derivative(
    r_th: float, params: ChannelParams, nodes: int = GH_NODES_DEFAULT
) -> float:
    """d/dr of :func:`ber_variable_offset`, by the same quadrature."""
    _require_gaussian(params)
    if params.offset_sigma_b == 0.0:
        return ber_derivative(r_th, params, params.offset_mu_b)
    b, w = _gh_offsets(params, nodes)
    u0 = (r_th - params.mu0) / params.sigma0
    phi0 = math.exp(-0.5 * u0 * u0) / _SQRT2PI
    u1 = (r_th - params.mu1 - b) / params.sigma1
    e_phi1 = float(np.dot(w, np.exp(-0.5 * u1 * u1) / _SQRT2PI))
    return -phi0 / (2.0 * params.sigma0) + e_phi1 / (2.0 * params.sigma1)


def optimal_threshold_bisection(
    params: ChannelParams, nodes: int = GH_NODES_DEFAULT
) -> ThresholdResult:
    """Optimum threshold under the random offset, by bisecting the BER derivative.

    Starts from the bracket [mu0, mu1 + max(0, offset mean)] and widens it
    in 0.1 kOhm steps until the derivative changes sign, then bisects down
    to a 1e-9 kOhm interval.
    """
    _require_gaussian(params)
    lo = params.mu0
    hi = params.mu1 + max(0.0, params.offset_mu_b)
    f = lambda r: ber_variable_offset_derivative(r, params, nodes)
    flo, fhi = f(lo), f(hi)
    expansions = 0
    while flo * fhi > 0:
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
        fmid = f(mid)
        if fmid == 0.0:
            lo = hi = mid
            break
        if flo * fmid < 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    r = 0.5 * (lo + hi)
    return ThresholdResult(
        r_th=r, ber=ber_variable_offset(r, params, nodes), method=Method.BISECTION
    )


def optimal_threshold_empirical(
    params: ChannelParams, nblocks: int, seed: int, n: int = 71
) -> ThresholdResult:
    """Empirical optimum threshold from simulated reads, for any noise model.

    Pools ``nblocks`` blocks and reuses the dynamic-threshold sweep with the
    true bits as labels, so the returned threshold exactly minimizes the
    empirical error count.  Results from fewer than 100 blocks carry a
    warning instead of failing.
    """
    if nblocks < 1:
        raise ParameterError(f"need at least one block, got {nblocks}")
    x, y = sample_block_matrix(params, n, nblocks, seed)
    sweep = detectors.dtd_search(y, x)
    total_bits = nblocks * n
    warning = None
    if nblocks < 100:
        warning = f"empirical search over only {nblocks} blocks; threshold is noisy"
    return ThresholdResult(
        r_th=sweep.r_adj,
        ber=sweep.objective / total_bits,
        method=Method.EMPIRICAL_SEARCH,
        warning=warning,
    )
