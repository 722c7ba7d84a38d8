"""Activations and weight initialization, numpy only, float64 throughout."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ParameterError


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic; never overflows for finite input."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def xavier_uniform_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Weights i.i.d. uniform on [-L, L] with L = sqrt(6 / (rows + cols))."""
    if rows < 1 or cols < 1:
        raise ParameterError(f"matrix dims must be positive, got ({rows}, {cols})")
    limit = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))
