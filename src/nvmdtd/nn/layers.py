"""Activations and weight initialization, numpy only, float64 throughout."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ParameterError, require_indexable


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic; never overflows for finite input.

    With e = exp(-|z|) in [0, 1] this is 1 / (1 + e) for z >= 0 and
    e / (1 + e) otherwise, so no exponent is positive; the numerator is
    exp(min(z, 0)).  ``out`` may be ``z`` itself.
    """
    z = np.asarray(z, dtype=np.float64)
    if out is None:
        out = np.empty_like(z)
    den = np.negative(z, out=np.empty_like(z))
    # minimum returns its first operand when it is NaN, so a NaN input comes
    # out with its sign.
    np.add(np.exp(np.minimum(z, den, out=den), out=den), 1.0, out=den)
    num = np.exp(np.minimum(z, 0.0, out=out), out=out)
    return np.divide(num, den, out=num)


def xavier_uniform_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Weights i.i.d. uniform on [-L, L] with L = sqrt(6 / (rows + cols))."""
    if rows < 1 or cols < 1:
        raise ParameterError(f"matrix dims must be positive, got ({rows}, {cols})")
    require_indexable((rows, cols))
    limit = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))
