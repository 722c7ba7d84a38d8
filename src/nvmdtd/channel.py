"""Synthetic resistance read channel for a two-state non-volatile memory cell.

A stored bit selects a nominal resistance (``mu0`` for 0, ``mu1`` for 1).
Each read adds zero-mean i.i.d. resistance variation, and reads of the
high state additionally pick up a Gaussian offset that is unknown to the
detector.  All resistances are in kilo-ohms.

Blocks are produced one way, as a pair of matrices ``(bits, reads)`` with
one row per block (:func:`sample_block_matrix`), and datasets are written
from that form (:func:`save_dataset`); the package reads none back.  Blocks are grouped in fixed super-blocks of
``SUPERBLOCK = 64``: block ``i`` is row ``i % 64`` of super-block
``i // 64``, and each super-block is drawn whole from its own random stream
derived from ``(master seed, super-block index)``
(:func:`superblock_stream`).  The grouping belongs to the scheme, not to
the caller, so a dataset is identical whether its rows are sampled at once,
in chunks or in slices.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ParameterError, channel_text, require_indexable

# The accepted channel values, in kOhm: inside them a standardized read (r - mu) / sigma
# stays below about 1e102 and sigma^2 above 1e-100, so the math and the reads stay finite.
CHANNEL_MAX_KOHM = 1e50
SIGMA_MIN_KOHM = 1e-50

# Raw Beta(alpha, 1.2*alpha) facts used by the skewed-noise mode: the draw
# lives on [0, 1] with mean 1/2.2, and its variance never exceeds the
# alpha -> 0 supremum (1.2/4.84).
BETA_SHAPE_RATIO = 1.2
BETA_MEAN = 1.0 / 2.2
BETA_VARIANCE_SUP = 1.2 / 4.84
# The largest Beta shape a channel may take (sigma ~ 3.36e-5): up to it the
# package's Beta log-density stays within 1e-6 of scipy.stats.beta.pdf; beyond
# it, its terms (a-1) log x + (b-1) log1p(-x) - betaln(a, b) cancel the precision away.
BETA_MAX_SHAPE = 1e8

DATASET_MAGIC = "nvmdtd-v1"


class NoiseModel(Enum):
    GAUSSIAN = "gaussian"
    CENTERED_BETA = "centered-beta"


def derive_sigmas(mu0: float, mu1: float, ratio: float) -> tuple[float, float]:
    """Spread the two states by a common relative variation level.

    Returns ``(sigma0, sigma1) = (ratio * mu0, ratio * mu1)``, the
    fabrication convention that both states share one sigma/mu ratio.
    """
    if mu0 <= 0 or mu1 <= 0:
        raise ParameterError(f"nominal resistances must be positive, got ({mu0}, {mu1})")
    if ratio <= 0:
        raise ParameterError(f"variation ratio must be positive, got {ratio}")
    return ratio * mu0, ratio * mu1


def beta_alpha_for_sigma(sigma: float) -> float:
    """Solve the Beta(alpha, 1.2*alpha) shape so the raw draw has std ``sigma``.

    The variance identity sigma^2 = alpha*beta / ((alpha+beta)^2 (alpha+beta+1))
    with beta = 1.2*alpha collapses to a linear equation in alpha:

        alpha = ((1.2/4.84) / sigma^2 - 1) / 2.2

    which is positive only for sigma^2 < 1.2/4.84, and accepted up to ``BETA_MAX_SHAPE``.
    """
    if sigma <= 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    alpha = (BETA_VARIANCE_SUP / (sigma * sigma) - 1.0) / 2.2
    if not 0.0 < alpha <= BETA_MAX_SHAPE:
        raise ParameterError(
            f"sigma = {sigma:.6g} needs the Beta shape alpha = {alpha:.6g}, which must be above 0 "
            f"(sigma^2 below {BETA_VARIANCE_SUP:.6g}) and at most {BETA_MAX_SHAPE:g}")
    return alpha


@dataclass(frozen=True)
class ChannelParams:
    """Full parameterization of the read channel.

    ``offset_mu_b`` / ``offset_sigma_b`` describe the Gaussian offset added
    to reads of state 1 only; state-0 reads never carry an offset.
    """

    mu0: float
    mu1: float
    sigma0: float
    sigma1: float
    offset_mu_b: float = 0.0
    offset_sigma_b: float = 0.0
    noise_model: NoiseModel = NoiseModel.GAUSSIAN

    def __post_init__(self):
        big, small = CHANNEL_MAX_KOHM, SIGMA_MIN_KOHM
        if not (-big <= self.mu0 < self.mu1 <= big and small <= self.sigma0 <= big
                and small <= self.sigma1 <= big and abs(self.offset_mu_b) <= big
                and 0.0 <= self.offset_sigma_b <= big):
            raise ParameterError(
                f"a channel needs -{big:g} <= mu0 < mu1 <= {big:g}, sigmas in [{small:g}, {big:g}],"
                f" |mu_b| <= {big:g} and sigma_b in [0, {big:g}] (kOhm), got {channel_text(self)}")
        if self.noise_model is NoiseModel.CENTERED_BETA:
            try:
                beta_alpha_for_sigma(self.sigma0)
                beta_alpha_for_sigma(self.sigma1)
            except ParameterError as exc:
                raise ParameterError(f"{exc}, on {channel_text(self)}") from None

    @classmethod
    def from_ratio(
        cls,
        ratio: float,
        mu_b: float = 0.0,
        sigma_b_over_mu1: float = 0.0,
        noise_model: NoiseModel = NoiseModel.GAUSSIAN,
        mu0: float = 1.0,
        mu1: float = 2.0,
    ) -> "ChannelParams":
        """Build params from the relative variation level and offset settings."""
        sigma0, sigma1 = derive_sigmas(mu0, mu1, ratio)
        return cls(
            mu0=mu0,
            mu1=mu1,
            sigma0=sigma0,
            sigma1=sigma1,
            offset_mu_b=mu_b,
            offset_sigma_b=sigma_b_over_mu1 * mu1,
            noise_model=noise_model,
        )

    def content_hash(self) -> str:
        """Stable 16-hex-digit digest of the parameter values."""
        canon = "|".join(
            [
                f"{self.mu0:.17g}",
                f"{self.mu1:.17g}",
                f"{self.sigma0:.17g}",
                f"{self.sigma1:.17g}",
                f"{self.offset_mu_b:.17g}",
                f"{self.offset_sigma_b:.17g}",
                self.noise_model.value,
            ]
        )
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


# A float64 carries a 52-bit fraction: with more bits, the cells of any
# range [lo, hi] with hi - lo <= |hi| are finer than the float64 spacing at hi.
QUANTIZER_MAX_BITS = 52


@dataclass(frozen=True)
class QuantizerSpec:
    """Uniform read quantizer: clamp to [lo, hi], snap to one of 2^bits cell midpoints."""

    bits: int
    lo: float = 0.5
    hi: float = 2.5

    def __post_init__(self):
        if not 1 <= self.bits <= QUANTIZER_MAX_BITS:
            raise ParameterError(
                f"quantizer bits must be in [1, {QUANTIZER_MAX_BITS}], got {self.bits}")
        if not -CHANNEL_MAX_KOHM <= self.lo < self.hi <= CHANNEL_MAX_KOHM:
            raise ParameterError(f"a quantizer range needs -{CHANNEL_MAX_KOHM:g} <= lo < hi <= "
                                 f"{CHANNEL_MAX_KOHM:g} (kOhm), got [{self.lo:g}, {self.hi:g}]")

    @property
    def levels(self) -> int:
        return 2 ** self.bits

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / self.levels


def quantize(y, spec: QuantizerSpec):
    """Map reads to reconstruction midpoints; values on a cell boundary go up.

    Output stays in kilo-ohms, so downstream detectors need not know
    whether their input was quantized.
    """
    arr = np.asarray(y, dtype=np.float64)
    clamped = np.clip(arr, spec.lo, spec.hi)
    idx = np.floor((clamped - spec.lo) / spec.step)
    idx = np.minimum(idx, spec.levels - 1)
    out = spec.lo + (idx + 0.5) * spec.step
    if np.isscalar(y):
        return float(out)
    return out


# Blocks per random stream; a constant of the scheme, not of any caller's chunking.
SUPERBLOCK = 64


def superblock_stream(seed: int, k: int) -> np.random.Generator:
    """Random stream of super-block ``k`` (blocks ``64k .. 64k+63``) under ``seed``.

    Uses SeedSequence spawn keys, numpy's counter-style scheme for carving
    non-overlapping streams out of one master seed.  This is the definition
    of the scheme.
    """
    if seed < 0 or k < 0:
        raise ParameterError("seed and super-block index must be non-negative")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))


def derive_seed(seed: int, *lane: int) -> int:
    """Deterministic 64-bit sub-seed for a named lane under a master seed.

    Separate lanes (training data, validation data, evaluation data, ...)
    get unrelated streams without the caller having to manage offsets.
    """
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    state = np.random.SeedSequence(seed, spawn_key=tuple(lane)).generate_state(2)
    return int(state[0]) | (int(state[1]) << 32)


def sample_block_matrix(
    params: ChannelParams, n: int, nblocks: int, seed: int, start: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Blocks ``start .. start+nblocks-1`` as matrices (bits, reads).

    Block ``i`` is row ``i % 64`` of super-block ``i // 64``, drawn from
    ``superblock_stream(seed, i // 64)`` alone, so any contiguous slice of a
    dataset can be produced independently.  A super-block draws, in this
    order and each as a (64, n) array: its bits (``integers(0, 2, (64, n),
    uint8)``); then the variation and the offset (``standard_normal`` each)
    for a Gaussian channel, or for centered-Beta one ``beta(a, 1.2 * a)``
    with per-read shapes ``a = where(bit, a1, a0)`` and the offset
    (``standard_normal``).  The reads are formed on those arrays.  Both
    outputs are allocated before anything is drawn, then the covered rows of
    each super-block are copied in; a call draws at most 63 blocks it does
    not return at each end of its range.
    """
    if n < 1:
        raise ParameterError(f"block length must be >= 1, got {n}")
    if nblocks < 0:
        raise ParameterError(f"block count must be >= 0, got {nblocks}")
    if seed < 0 or start < 0:
        raise ParameterError("seed and block index must be non-negative")
    require_indexable((nblocks, n))
    x = np.empty((nblocks, n), dtype=np.uint8)
    y = np.empty((nblocks, n), dtype=np.float64)
    gaussian = params.noise_model is NoiseModel.GAUSSIAN
    if not gaussian:
        a0 = beta_alpha_for_sigma(params.sigma0)
        a1 = beta_alpha_for_sigma(params.sigma1)
    shape = (SUPERBLOCK, n)
    done = 0
    while done < nblocks:
        k, row = divmod(start + done, SUPERBLOCK)
        take = min(SUPERBLOCK - row, nblocks - done)
        rng = superblock_stream(seed, k)
        bits = rng.integers(0, 2, shape, dtype=np.uint8)
        one = bits == 1
        if gaussian:
            noise = np.where(one, params.sigma1, params.sigma0) * rng.standard_normal(shape)
        else:
            a = np.where(one, a1, a0)
            noise = rng.beta(a, BETA_SHAPE_RATIO * a)
            noise -= BETA_MEAN
        offset = params.offset_mu_b + params.offset_sigma_b * rng.standard_normal(shape)
        reads = np.where(one, params.mu1, params.mu0) + noise + np.where(one, offset, 0.0)
        x[done:done + take] = bits[row:row + take]
        y[done:done + take] = reads[row:row + take]
        done += take
    return x, y


def save_dataset(path, x, y, params: ChannelParams) -> None:
    """Write bit and read matrices in the one-line-of-bits / one-line-of-reads format.

    Reads are kept to 9 significant digits; the format trades bit-exact
    round-tripping for a diffable file.
    """
    x = np.asarray(x, dtype=np.uint8)
    y = np.asarray(y, dtype=np.float64)
    if x.size == 0:
        raise ParameterError("refusing to write an empty dataset")
    if x.ndim != 2 or x.shape != y.shape:
        raise ParameterError(
            f"bits and reads must be matrices of one shape, got {x.shape} vs {y.shape}"
        )
    if not np.all(np.isfinite(y)):
        raise ParameterError("reads contain non-finite values")
    nblocks, n = x.shape
    lines = [f"{DATASET_MAGIC} {n} {nblocks} {params.content_hash()}"]
    for bits, reads in zip(x, y):
        lines.append("".join("1" if b else "0" for b in bits))
        lines.append(" ".join(f"{v:.9g}" for v in reads))
    Path(path).write_text("\n".join(lines) + "\n")

