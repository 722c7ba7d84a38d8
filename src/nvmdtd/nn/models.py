"""Detector networks, their parameter table and their exact gradients.

Two architectures, both mapping a length-N read vector to N soft bit
estimates in (0, 1):

* ``MlpModel``: N -> 4N (ReLU) -> N (sigmoid), 8N^2 + 5N parameters
  (40683 at N = 71).
* ``RnnModel``: two stacked gated-recurrent layers consuming one read per
  step, hidden width 71, with a shared sigmoid readout applied at every
  step.  One shared bias per gate keeps the stacked model at exactly
  46080 parameters.  Each recurrent layer runs, with u_t the step input
  and h the carried state:

      z_t = sigmoid(W_z u_t + U_z h + b_z)
      r_t = sigmoid(W_r u_t + U_r h + b_r)
      c_t = tanh(W_h u_t + U_h (r_t * h) + b_h)
      h_t = (1 - z_t) * h + z_t * c_t

``param_shapes`` is the one table of each network's named parameter
blocks, in weight-file order; ``create_model`` draws a fresh model from
it and the weight loader checks files against it.  Both models hold their
blocks in ``params`` and share one protocol: a ``kind`` name,
``param_blocks()``, ``forward(y)`` and ``value_and_grad(y, target)``.
Gradients are computed analytically (backpropagation through time for the
recurrent model) and are averaged over the blocks of a batch; every test
of them is against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from .layers import relu, sigmoid, xavier_uniform_init

KIND_MLP = "mlp"
KIND_RNN = "rnn"
RNN_HIDDEN_DEFAULT = 71


def param_shapes(kind: str, n: int, hidden: int | None = None) -> list[tuple[str, tuple[int, ...]]]:
    """The ``(name, shape)`` of every parameter block of a ``kind`` network, in weight-file order.

    ``hidden`` None takes the kind's default width: 4n for the MLP, 71 for
    the RNN.  A recurrent layer's blocks are W (hidden, inputs), U (hidden,
    hidden) and b (hidden,) per gate, gates in z, r, h order.
    """
    if kind == KIND_MLP:
        width = 4 * n if hidden is None else hidden
        shapes = [("layer1.weights", (width, n)), ("layer1.bias", (width,)),
                  ("layer2.weights", (n, width)), ("layer2.bias", (n,))]
    elif kind == KIND_RNN:
        width = RNN_HIDDEN_DEFAULT if hidden is None else hidden
        shapes = [(f"{layer}.{block}_{gate}", shape)
                  for layer, inputs in (("gru1", 1), ("gru2", width))
                  for gate in "zrh"
                  for block, shape in (("w", (width, inputs)), ("u", (width, width)),
                                       ("b", (width,)))]
        shapes += [("head.weights", (1, width)), ("head.bias", (1,))]
    else:
        raise ParameterError(f"unknown model kind {kind!r}")
    if n < 1 or width < 1:
        raise ParameterError(f"{kind} widths must be positive, got n {n}, hidden {width}")
    return shapes


@dataclass
class _Network:
    """A network's named parameter blocks, in ``param_shapes`` order."""

    params: dict[str, np.ndarray]

    def param_blocks(self) -> list[tuple[str, np.ndarray]]:
        """Named parameter arrays in weight-file order; arrays are live views."""
        return list(self.params.items())


class MlpModel(_Network):
    kind = KIND_MLP

    @property
    def n(self) -> int:
        return self.params["layer1.weights"].shape[1]

    @property
    def hidden_size(self) -> int:
        return self.params["layer1.weights"].shape[0]

    def forward(self, y) -> np.ndarray:
        """Soft estimates for one read vector or a (blocks, N) batch."""
        p = self.params
        yb, was_1d = _as_batch(y, self.n)
        h = relu(yb @ p["layer1.weights"].T + p["layer1.bias"])
        out = sigmoid(h @ p["layer2.weights"].T + p["layer2.bias"])
        return out[0] if was_1d else out

    def value_and_grad(self, y, target) -> tuple[float, dict[str, np.ndarray]]:
        """Batch-averaged loss and its gradient in one pass."""
        p = self.params
        yb, _ = _as_batch(y, self.n)
        tb, _ = _as_batch(target, self.n)
        if yb.shape != tb.shape:
            raise ParameterError(f"batch mismatch: {yb.shape} vs {tb.shape}")
        s1 = yb @ p["layer1.weights"].T + p["layer1.bias"]
        h = relu(s1)
        o = sigmoid(h @ p["layer2.weights"].T + p["layer2.bias"])
        g_s2 = (2.0 * (o - tb) / tb.size) * o * (1.0 - o)
        g_h = g_s2 @ p["layer2.weights"]
        g_s1 = g_h * (s1 > 0)
        grads = {
            "layer1.weights": g_s1.T @ yb,
            "layer1.bias": g_s1.sum(axis=0),
            "layer2.weights": g_s2.T @ h,
            "layer2.bias": g_s2.sum(axis=0),
        }
        return float(np.mean((tb - o) ** 2)), grads


class RnnModel(_Network):
    kind = KIND_RNN
    n = None  # the recurrence reads blocks of any length

    @property
    def hidden_size(self) -> int:
        return self.params["gru1.w_z"].shape[0]

    def forward(self, y) -> np.ndarray:
        """Soft estimates for one read sequence or a (blocks, N) batch.

        The recurrence is strictly left to right: the estimate at step t never
        depends on reads after t.
        """
        p = self.params
        yb, was_1d = _as_batch(y)
        h1, _ = _gru_layer_forward(_gates(p, "gru1"), yb[:, :, None], want_cache=False)
        h2, _ = _gru_layer_forward(_gates(p, "gru2"), h1, want_cache=False)
        out = sigmoid(h2 @ p["head.weights"][0] + p["head.bias"][0])
        return out[0] if was_1d else out

    def value_and_grad(self, y, target) -> tuple[float, dict[str, np.ndarray]]:
        """Batch-averaged loss and its gradient in one backpropagation-through-time pass."""
        p = self.params
        yb, _ = _as_batch(y)
        tb, _ = _as_batch(target)
        if yb.shape != tb.shape:
            raise ParameterError(f"batch mismatch: {yb.shape} vs {tb.shape}")
        gru1, gru2 = _gates(p, "gru1"), _gates(p, "gru2")
        h1, cache1 = _gru_layer_forward(gru1, yb[:, :, None], want_cache=True)
        h2, cache2 = _gru_layer_forward(gru2, h1, want_cache=True)
        w_out = p["head.weights"][0]
        o = sigmoid(h2 @ w_out + p["head.bias"][0])
        g_s = (2.0 * (o - tb) / tb.size) * o * (1.0 - o)
        d_h2 = g_s[:, :, None] * w_out
        g2, d_h1 = _gru_layer_backward(gru2, cache2, d_h2)
        g1, _ = _gru_layer_backward(gru1, cache1, d_h1)
        grads = {f"gru1.{gate}": g for gate, g in g1.items()}
        grads.update((f"gru2.{gate}", g) for gate, g in g2.items())
        grads["head.weights"] = np.einsum("bt,bth->h", g_s, h2)[None, :]
        grads["head.bias"] = np.array([g_s.sum()])
        return float(np.mean((tb - o) ** 2)), grads


MODELS = {KIND_MLP: MlpModel, KIND_RNN: RnnModel}


def create_model(kind: str, n: int, rng: np.random.Generator, hidden: int | None = None):
    """A fresh model of ``kind`` for blocks of ``n`` reads.

    Matrices are Xavier-uniform draws from ``rng`` and vectors zeros, in
    ``param_shapes`` order; that draw order is part of the determinism
    contract.
    """
    params = {name: xavier_uniform_init(*shape, rng) if len(shape) == 2 else np.zeros(shape)
              for name, shape in param_shapes(kind, n, hidden)}
    return MODELS[kind](params)


def count_params(model) -> int:
    return sum(arr.size for _, arr in model.param_blocks())


def _as_batch(y, n_expected: int | None = None) -> tuple[np.ndarray, bool]:
    y = np.asarray(y, dtype=np.float64)
    was_1d = y.ndim == 1
    if was_1d:
        y = y[None, :]
    if y.ndim != 2:
        raise ParameterError(f"expected a read vector or batch, got shape {y.shape}")
    if n_expected is not None and y.shape[1] != n_expected:
        raise ParameterError(f"model expects length {n_expected}, got {y.shape[1]}")
    return y, was_1d


def _gates(params: dict, layer: str) -> dict[str, np.ndarray]:
    """One recurrent layer's blocks keyed by gate name (``w_z``, ``u_z``, ...)."""
    prefix = layer + "."
    return {name[len(prefix):]: arr for name, arr in params.items() if name.startswith(prefix)}


def _gru_layer_forward(layer: dict, x_seq: np.ndarray, want_cache: bool):
    """Run one recurrent layer over x_seq of shape (B, N, in).

    Returns the per-step hidden states (B, N, h) and, when requested, the
    per-step gate values needed by the backward pass.
    """
    nb, nt, _ = x_seq.shape
    h_dim = layer["u_z"].shape[0]
    # Input projections for every step at once; only the recurrent half of
    # each gate has to run sequentially.
    xz = x_seq @ layer["w_z"].T
    xr = x_seq @ layer["w_r"].T
    xh = x_seq @ layer["w_h"].T
    outputs = np.empty((nb, nt, h_dim))
    cache = None
    if want_cache:
        cache = {
            "x": x_seq,
            "z": np.empty((nb, nt, h_dim)),
            "r": np.empty((nb, nt, h_dim)),
            "c": np.empty((nb, nt, h_dim)),
            "h_prev": np.empty((nb, nt, h_dim)),
        }
    h = np.zeros((nb, h_dim))
    for t in range(nt):
        z = sigmoid(xz[:, t] + h @ layer["u_z"].T + layer["b_z"])
        r = sigmoid(xr[:, t] + h @ layer["u_r"].T + layer["b_r"])
        c = np.tanh(xh[:, t] + (r * h) @ layer["u_h"].T + layer["b_h"])
        h_new = (1.0 - z) * h + z * c
        if want_cache:
            cache["z"][:, t] = z
            cache["r"][:, t] = r
            cache["c"][:, t] = c
            cache["h_prev"][:, t] = h
        outputs[:, t] = h_new
        h = h_new
    return outputs, cache


def _gru_layer_backward(layer: dict, cache: dict, d_out: np.ndarray):
    """Backpropagate through one recurrent layer.

    ``d_out[:, t]`` is the loss gradient at the layer's step-t output.  The
    recurrence is unrolled in reverse, carrying the gradient through the
    previous hidden state; weight gradients are then formed in one matmul
    per block from the accumulated per-step gate gradients.
    """
    z, r, c, h_prev, x_seq = cache["z"], cache["r"], cache["c"], cache["h_prev"], cache["x"]
    nb, nt, h_dim = z.shape
    da_z = np.empty((nb, nt, h_dim))
    da_r = np.empty((nb, nt, h_dim))
    da_c = np.empty((nb, nt, h_dim))
    carry = np.zeros((nb, h_dim))
    for t in range(nt - 1, -1, -1):
        dh = d_out[:, t] + carry
        zt, rt, ct, hp = z[:, t], r[:, t], c[:, t], h_prev[:, t]
        dz = dh * (ct - hp)
        dc = dh * zt
        dhp = dh * (1.0 - zt)
        ac = dc * (1.0 - ct * ct)
        drh = ac @ layer["u_h"]
        dr = drh * hp
        dhp = dhp + drh * rt
        az = dz * zt * (1.0 - zt)
        dhp = dhp + az @ layer["u_z"]
        ar = dr * rt * (1.0 - rt)
        dhp = dhp + ar @ layer["u_r"]
        da_z[:, t] = az
        da_r[:, t] = ar
        da_c[:, t] = ac
        carry = dhp
    flat = lambda a: a.reshape(-1, a.shape[-1])
    rz, rr, rc = flat(da_z), flat(da_r), flat(da_c)
    xs = flat(x_seq)
    hp_flat = flat(h_prev)
    rh_flat = flat(r * h_prev)
    grads = {
        "w_z": rz.T @ xs, "u_z": rz.T @ hp_flat, "b_z": rz.sum(axis=0),
        "w_r": rr.T @ xs, "u_r": rr.T @ hp_flat, "b_r": rr.sum(axis=0),
        "w_h": rc.T @ xs, "u_h": rc.T @ rh_flat, "b_h": rc.sum(axis=0),
    }
    d_x = da_z @ layer["w_z"] + da_r @ layer["w_r"] + da_c @ layer["w_h"]
    return grads, d_x
