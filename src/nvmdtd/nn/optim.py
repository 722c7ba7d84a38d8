"""Adam with bias correction, operating on named parameter blocks in place."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterError

# The published defaults (Kingma & Ba, arXiv:1412.6980); only the learning rate varies.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators per parameter block, plus the step count."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One Adam update; parameter arrays are modified in place and returned."""
    if params.keys() != grads.keys():
        raise ParameterError("parameter and gradient blocks do not match")
    state.step += 1
    c1 = 1.0 - BETA1 ** state.step
    c2 = 1.0 - BETA2 ** state.step
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ParameterError(f"gradient shape {g.shape} != param shape {p.shape} for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + EPSILON)
    return params, state
