"""Dense and gated-recurrent building blocks, numpy only, float64 throughout."""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def xavier_uniform_init(rows: int, cols: int, rng: np.random.Generator | None) -> np.ndarray:
    """Weights i.i.d. uniform on [-L, L] with L = sqrt(6 / (rows + cols)).

    ``rng`` None gives zeros instead: the shape template a weight file is
    loaded into.  Their pages stay untouched until written, so a template
    for an absurd declared size costs no memory before it is rejected.
    """
    if rows < 1 or cols < 1:
        raise ParameterError(f"matrix dims must be positive, got ({rows}, {cols})")
    if rng is None:
        return np.zeros((rows, cols))
    limit = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


@dataclass
class DenseLayer:
    """Fully connected layer; weights are (out, in), bias (out,).

    The layer holds parameters only; each model applies its own activations.
    """

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ParameterError(
                f"inconsistent dense shapes: weights {self.weights.shape}, bias {self.bias.shape}"
            )

    @classmethod
    def create(cls, out_dim: int, in_dim: int, rng: np.random.Generator | None) -> "DenseLayer":
        return cls(weights=xavier_uniform_init(out_dim, in_dim, rng), bias=np.zeros(out_dim))


@dataclass
class GruLayer:
    """Gated recurrent layer with one shared bias per gate.

    Gate equations, with u_t the step input and h the carried state:

        z_t = sigmoid(W_z u_t + U_z h + b_z)
        r_t = sigmoid(W_r u_t + U_r h + b_r)
        c_t = tanh(W_h u_t + U_h (r_t * h) + b_h)
        h_t = (1 - z_t) * h + z_t * c_t
    """

    w_z: np.ndarray
    u_z: np.ndarray
    b_z: np.ndarray
    w_r: np.ndarray
    u_r: np.ndarray
    b_r: np.ndarray
    w_h: np.ndarray
    u_h: np.ndarray
    b_h: np.ndarray

    def __post_init__(self):
        h, i = self.w_z.shape
        expected = {
            "w_z": (h, i), "u_z": (h, h), "b_z": (h,),
            "w_r": (h, i), "u_r": (h, h), "b_r": (h,),
            "w_h": (h, i), "u_h": (h, h), "b_h": (h,),
        }
        for name, shape in expected.items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, arr)
            if arr.shape != shape:
                raise ParameterError(f"gru block {name} has shape {arr.shape}, expected {shape}")

    @classmethod
    def create(cls, input_size: int, hidden_size: int,
               rng: np.random.Generator | None) -> "GruLayer":
        def w():
            return xavier_uniform_init(hidden_size, input_size, rng)

        def u():
            return xavier_uniform_init(hidden_size, hidden_size, rng)

        def b():
            return np.zeros(hidden_size)

        # Draw order is part of the determinism contract: W then U per gate,
        # gates in z, r, h order.
        w_z, u_z = w(), u()
        w_r, u_r = w(), u()
        w_h, u_h = w(), u()
        return cls(w_z=w_z, u_z=u_z, b_z=b(), w_r=w_r, u_r=u_r, b_r=b(), w_h=w_h, u_h=u_h, b_h=b())

    @property
    def hidden_size(self) -> int:
        return self.w_z.shape[0]

    @property
    def input_size(self) -> int:
        return self.w_z.shape[1]
