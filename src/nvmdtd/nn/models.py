"""Detector networks and their exact gradients.

Two architectures, both mapping a length-N read vector to N soft bit
estimates in (0, 1):

* ``MlpModel``: N -> 4N (ReLU) -> N (sigmoid), 8N^2 + 5N parameters
  (40683 at N = 71).
* ``RnnModel``: two stacked gated-recurrent layers consuming one read per
  step, hidden width 71, with a shared sigmoid readout applied at every
  step.  One shared bias per gate keeps the stacked model at exactly
  46080 parameters.

Both models share one protocol: a ``kind`` name, ``param_blocks()``
(the named parameter arrays in weight-file order), ``forward(y)`` and
``value_and_grad(y, target)``.  Gradients are computed analytically
(backpropagation through time for the recurrent model) and are averaged
over the blocks of a batch; every test of them is against central finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from .layers import DenseLayer, GruLayer, relu, sigmoid

KIND_MLP = "mlp"
KIND_RNN = "rnn"
RNN_HIDDEN_DEFAULT = 71

_GRU_GATES = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")


@dataclass
class MlpModel:
    kind = KIND_MLP
    layer1: DenseLayer
    layer2: DenseLayer

    def __post_init__(self):
        if self.layer1.weights.shape[0] != self.layer2.weights.shape[1]:
            raise ParameterError("hidden widths of the two dense layers disagree")
        if self.layer1.weights.shape[1] != self.layer2.weights.shape[0]:
            raise ParameterError("input and output widths disagree")

    @property
    def n(self) -> int:
        return self.layer1.weights.shape[1]

    @property
    def hidden_size(self) -> int:
        return self.layer1.weights.shape[0]

    @classmethod
    def create(cls, n: int, rng: np.random.Generator | None,
               hidden: int | None = None) -> "MlpModel":
        hidden = 4 * n if hidden is None else hidden
        return cls(
            layer1=DenseLayer.create(hidden, n, rng),
            layer2=DenseLayer.create(n, hidden, rng),
        )

    def param_blocks(self) -> list[tuple[str, np.ndarray]]:
        """Named parameter arrays in canonical (manifest) order; arrays are live views."""
        return [
            ("layer1.weights", self.layer1.weights),
            ("layer1.bias", self.layer1.bias),
            ("layer2.weights", self.layer2.weights),
            ("layer2.bias", self.layer2.bias),
        ]

    def forward(self, y) -> np.ndarray:
        """Soft estimates for one read vector or a (blocks, N) batch."""
        yb, was_1d = _as_batch(y, self.n)
        h = relu(yb @ self.layer1.weights.T + self.layer1.bias)
        out = sigmoid(h @ self.layer2.weights.T + self.layer2.bias)
        return out[0] if was_1d else out

    def value_and_grad(self, y, target) -> tuple[float, dict[str, np.ndarray]]:
        """Batch-averaged loss and its gradient in one pass."""
        yb, _ = _as_batch(y, self.n)
        tb, _ = _as_batch(target, self.n)
        if yb.shape != tb.shape:
            raise ParameterError(f"batch mismatch: {yb.shape} vs {tb.shape}")
        s1 = yb @ self.layer1.weights.T + self.layer1.bias
        h = relu(s1)
        o = sigmoid(h @ self.layer2.weights.T + self.layer2.bias)
        g_s2 = (2.0 * (o - tb) / tb.size) * o * (1.0 - o)
        g_h = g_s2 @ self.layer2.weights
        g_s1 = g_h * (s1 > 0)
        grads = {
            "layer1.weights": g_s1.T @ yb,
            "layer1.bias": g_s1.sum(axis=0),
            "layer2.weights": g_s2.T @ h,
            "layer2.bias": g_s2.sum(axis=0),
        }
        return float(np.mean((tb - o) ** 2)), grads


@dataclass
class RnnModel:
    kind = KIND_RNN
    n = None  # the recurrence reads blocks of any length
    gru1: GruLayer
    gru2: GruLayer
    head: DenseLayer

    def __post_init__(self):
        if self.gru1.input_size != 1:
            raise ParameterError("first recurrent layer must consume one read per step")
        if self.gru2.input_size != self.gru1.hidden_size:
            raise ParameterError("stacked recurrent layers have mismatched widths")
        if self.head.weights.shape != (1, self.gru2.hidden_size):
            raise ParameterError("readout must map the top hidden state to one soft bit")

    @property
    def hidden_size(self) -> int:
        return self.gru1.hidden_size

    @classmethod
    def create(cls, rng: np.random.Generator | None, hidden: int | None = None) -> "RnnModel":
        hidden = RNN_HIDDEN_DEFAULT if hidden is None else hidden
        return cls(
            gru1=GruLayer.create(1, hidden, rng),
            gru2=GruLayer.create(hidden, hidden, rng),
            head=DenseLayer.create(1, hidden, rng),
        )

    def param_blocks(self) -> list[tuple[str, np.ndarray]]:
        """Named parameter arrays in canonical (manifest) order; arrays are live views."""
        blocks = []
        for prefix, layer in (("gru1", self.gru1), ("gru2", self.gru2)):
            for gate in _GRU_GATES:
                blocks.append((f"{prefix}.{gate}", getattr(layer, gate)))
        blocks.append(("head.weights", self.head.weights))
        blocks.append(("head.bias", self.head.bias))
        return blocks

    def forward(self, y) -> np.ndarray:
        """Soft estimates for one read sequence or a (blocks, N) batch.

        The recurrence is strictly left to right: the estimate at step t never
        depends on reads after t.
        """
        yb, was_1d = _as_batch(y)
        h1, _ = _gru_layer_forward(self.gru1, yb[:, :, None], want_cache=False)
        h2, _ = _gru_layer_forward(self.gru2, h1, want_cache=False)
        out = sigmoid(h2 @ self.head.weights[0] + self.head.bias[0])
        return out[0] if was_1d else out

    def value_and_grad(self, y, target) -> tuple[float, dict[str, np.ndarray]]:
        """Batch-averaged loss and its gradient in one backpropagation-through-time pass."""
        yb, _ = _as_batch(y)
        tb, _ = _as_batch(target)
        if yb.shape != tb.shape:
            raise ParameterError(f"batch mismatch: {yb.shape} vs {tb.shape}")
        h1, cache1 = _gru_layer_forward(self.gru1, yb[:, :, None], want_cache=True)
        h2, cache2 = _gru_layer_forward(self.gru2, h1, want_cache=True)
        w_out = self.head.weights[0]
        o = sigmoid(h2 @ w_out + self.head.bias[0])
        g_s = (2.0 * (o - tb) / tb.size) * o * (1.0 - o)
        grads = {
            "head.weights": np.einsum("bt,bth->h", g_s, h2)[None, :],
            "head.bias": np.array([g_s.sum()]),
        }
        d_h2 = g_s[:, :, None] * w_out
        g2, d_h1 = _gru_layer_backward(self.gru2, cache2, d_h2)
        g1, _ = _gru_layer_backward(self.gru1, cache1, d_h1)
        for gate in _GRU_GATES:
            grads[f"gru1.{gate}"] = g1[gate]
            grads[f"gru2.{gate}"] = g2[gate]
        return float(np.mean((tb - o) ** 2)), grads


def create_model(kind: str, n: int, rng: np.random.Generator | None, hidden: int | None = None):
    """A fresh model of ``kind`` for blocks of ``n`` reads.

    ``hidden`` None takes the kind's default width (4n for the MLP, 71 for
    the RNN); ``rng`` None gives zero weights (see ``xavier_uniform_init``).
    """
    if kind == KIND_MLP:
        return MlpModel.create(n, rng, hidden)
    if kind == KIND_RNN:
        return RnnModel.create(rng, hidden)
    raise ParameterError(f"unknown model kind {kind!r}")


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


def _gru_layer_forward(layer: GruLayer, x_seq: np.ndarray, want_cache: bool):
    """Run one recurrent layer over x_seq of shape (B, N, in).

    Returns the per-step hidden states (B, N, h) and, when requested, the
    per-step gate values needed by the backward pass.
    """
    nb, nt, _ = x_seq.shape
    h_dim = layer.hidden_size
    # Input projections for every step at once; only the recurrent half of
    # each gate has to run sequentially.
    xz = x_seq @ layer.w_z.T
    xr = x_seq @ layer.w_r.T
    xh = x_seq @ layer.w_h.T
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
        z = sigmoid(xz[:, t] + h @ layer.u_z.T + layer.b_z)
        r = sigmoid(xr[:, t] + h @ layer.u_r.T + layer.b_r)
        c = np.tanh(xh[:, t] + (r * h) @ layer.u_h.T + layer.b_h)
        h_new = (1.0 - z) * h + z * c
        if want_cache:
            cache["z"][:, t] = z
            cache["r"][:, t] = r
            cache["c"][:, t] = c
            cache["h_prev"][:, t] = h
        outputs[:, t] = h_new
        h = h_new
    return outputs, cache


def _gru_layer_backward(layer: GruLayer, cache: dict, d_out: np.ndarray):
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
        drh = ac @ layer.u_h
        dr = drh * hp
        dhp = dhp + drh * rt
        az = dz * zt * (1.0 - zt)
        dhp = dhp + az @ layer.u_z
        ar = dr * rt * (1.0 - rt)
        dhp = dhp + ar @ layer.u_r
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
    d_x = da_z @ layer.w_z + da_r @ layer.w_r + da_c @ layer.w_h
    return grads, d_x
