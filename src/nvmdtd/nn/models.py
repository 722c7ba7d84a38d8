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

The recurrent kernels are bit-identical, at a fixed BLAS thread count, to
the straightforward batch-major per-step recurrence kept as the reference
in the tests, so trained weights and every output are unchanged by their
layout.  The rules that keep the bits:

* The layers pass time-major (N, B, h) state buffers to each other and
  work per step in preallocated step buffers (``out=`` matmuls, in-place
  ``+=``: IEEE addition commutes).  The z and r gates share a stacked
  (2, B, h) step, so one add and one sigmoid serve both.  The
  step-independent backward factors ``1 - z``, ``1 - r``, ``c - h_prev``
  and ``1 - c*c`` are formed in bulk.
* Every GEMM keeps the reference's operands: the recurrent products are
  ``h @ U.T`` (forward) and ``a @ U`` (backward) on a (B, h) step, never
  a copy of ``U.T`` or fused ``[U_z; U_r]``.  The input projections,
  ``d_x`` and the head matvec run on batch-major views (B, N, .), one
  BLAS call per block; flattening them to one (N*B, k) GEMM can pick
  another BLAS kernel (it does at N = 8, B = 10) and change the bits.
* Weight gradients sum their rows in batch-major order.
* At inference, each gate has one step-sized scratch buffer; only
  training keeps the full-length gate values.

``RnnModel.forward`` splits a batch of B >= 256 blocks into floor(B/128)
near-equal row tiles (``np.array_split``), runs each through the kernels
on a process-wide thread pool with one worker per usable CPU that BLAS
leaves free (``_tile_workers``), and concatenates the tiles in order.  A
forward then holds the full-length arrays of one tile per worker instead
of the whole batch's.  The tile bounds depend on B alone, so the bytes do
not depend on the core count.
floor(B/128) tiles give every tile at least 128 rows, and at that height
the per-step recurrent GEMMs give each block the bits of the whole-batch
pass (the tests pin this from B = 255 to 2049 at several widths).  A
short tile does not: fixed 128-row tiles leave a one-row remainder at
B = 129 or 257, for which BLAS picks another kernel.  The MLP is not
tiled, because its whole-batch GEMM gives other bits when split into row
tiles, at every size tried.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from .layers import relu, sigmoid, xavier_uniform_init

KIND_MLP = "mlp"
KIND_RNN = "rnn"
RNN_HIDDEN_DEFAULT = 71
RNN_TILE_ROWS = 128  # the fewest rows of a tile in a split recurrent forward


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
        depends on reads after t.  A batch of 256 blocks or more runs as row
        tiles on the tile pool, with the bytes of one whole-batch pass.
        """
        yb, was_1d = _as_batch(y)
        ntiles = len(yb) // RNN_TILE_ROWS
        if ntiles < 2:
            out = self._forward_rows(yb)
        else:
            tiles = _tile_pool().map(self._forward_rows, np.array_split(yb, ntiles))
            out = np.concatenate(list(tiles))
        return out[0] if was_1d else out

    def _forward_rows(self, yb: np.ndarray) -> np.ndarray:
        """The soft estimates of a (blocks, N) batch in one pass of the kernels."""
        p = self.params
        h1, _ = _gru_layer_forward(_gates(p, "gru1"), yb.T[:, :, None], want_cache=False)
        h2, _ = _gru_layer_forward(_gates(p, "gru2"), h1, want_cache=False)
        return sigmoid(h2.transpose(1, 0, 2) @ p["head.weights"][0] + p["head.bias"][0])

    def value_and_grad(self, y, target) -> tuple[float, dict[str, np.ndarray]]:
        """Batch-averaged loss and its gradient in one backpropagation-through-time pass."""
        p = self.params
        yb, _ = _as_batch(y)
        tb, _ = _as_batch(target)
        if yb.shape != tb.shape:
            raise ParameterError(f"batch mismatch: {yb.shape} vs {tb.shape}")
        gru1, gru2 = _gates(p, "gru1"), _gates(p, "gru2")
        h1, cache1 = _gru_layer_forward(gru1, yb.T[:, :, None], want_cache=True)
        h2, cache2 = _gru_layer_forward(gru2, h1, want_cache=True)
        h2 = h2.transpose(1, 0, 2)
        w_out = p["head.weights"][0]
        o = sigmoid(h2 @ w_out + p["head.bias"][0])
        g_s = (2.0 * (o - tb) / tb.size) * o * (1.0 - o)
        d_h2 = g_s.T[:, :, None] * w_out
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


@functools.cache
def _tile_pool() -> ThreadPoolExecutor:
    """The process-wide pool running recurrent row tiles, with ``_tile_workers()`` workers.

    It is created on the first split forward and starts its threads on the
    first tiles, so importing the package or running only small batches
    starts no thread.
    """
    return ThreadPoolExecutor(_tile_workers(), thread_name_prefix="nvmdtd-rnn")


def _tile_workers() -> int:
    """One worker per usable CPU that BLAS leaves free.

    That is the usable CPUs divided by the BLAS thread count, read from the
    variables OpenBLAS reads.  With neither set, OpenBLAS threads each call
    over every CPU, so the tiles run one at a time: on a 2-CPU host, two
    workers at two BLAS threads each made a 512-block forward slower than
    one worker (0.33 against 0.27 s).
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    blas_threads = cpus
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            blas_threads = int(value)
            break
    return max(1, cpus // blas_threads)


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
    """Run one recurrent layer over the time-major x_seq of shape (N, B, in).

    Returns the time-major hidden states (N, B, h) and, when requested, the
    gate values the backward pass needs.  Without a cache, the gates of
    every step reuse one set of step buffers.
    """
    nt, nb, _ = x_seq.shape
    h_dim = layer["u_z"].shape[0]
    # Input projections for every step at once, one GEMM per block on the
    # batch-major views, written time-major; only the recurrent half of each
    # gate has to run sequentially.
    xzr = np.empty((nt, 2, nb, h_dim))
    xh = np.empty((nt, nb, h_dim))
    for w, proj in (("w_z", xzr[:, 0]), ("w_r", xzr[:, 1]), ("w_h", xh)):
        np.matmul(x_seq.transpose(1, 0, 2), layer[w].T, out=proj.transpose(1, 0, 2))
    b_zr = np.stack([layer["b_z"], layer["b_r"]])[:, None, :]
    out = np.empty((nt, nb, h_dim))
    cache = None
    if want_cache:
        cache = {"x": x_seq, "out": out,
                 "zr": np.empty((nt, 2, nb, h_dim)), "c": np.empty((nt, nb, h_dim))}
    else:
        zr, c = np.empty((2, nb, h_dim)), np.empty((nb, h_dim))
    prod = np.empty((nb, h_dim))
    u_z, u_r, u_h = layer["u_z"].T, layer["u_r"].T, layer["u_h"].T
    h = np.zeros((nb, h_dim))
    for t in range(nt):
        h_new = out[t]
        if want_cache:
            zr, c = cache["zr"][t], cache["c"][t]
        z, r = zr
        np.matmul(h, u_z, out=z)
        np.matmul(h, u_r, out=r)
        zr += xzr[t]
        zr += b_zr
        sigmoid(zr, out=zr)
        np.multiply(r, h, out=prod)
        np.matmul(prod, u_h, out=c)
        c += xh[t]
        c += layer["b_h"]
        np.tanh(c, out=c)
        np.subtract(1.0, z, out=prod)
        prod *= h
        np.multiply(z, c, out=h_new)
        h_new += prod
        h = h_new
    return out, cache


def _gru_layer_backward(layer: dict, cache: dict, d_out: np.ndarray):
    """Backpropagate through one recurrent layer.

    ``d_out[t]`` is the time-major (B, h) loss gradient at the layer's
    step-t output.  The recurrence is unrolled in reverse, carrying the
    gradient through the previous hidden state; weight gradients are then
    formed in one matmul per block from the accumulated per-step gate
    gradients.  Returns those gradients and the time-major input gradient.
    """
    zr, c, x_seq = cache["zr"], cache["c"], cache["x"]
    z, r = zr[:, 0], zr[:, 1]
    nt, nb, h_dim = c.shape
    h_prev = np.concatenate((np.zeros((1, nb, h_dim)), cache["out"][:-1]))
    # The step-independent factors, in bulk before the reverse loop.
    one_minus_zr = 1.0 - zr
    c_minus_h = c - h_prev
    one_minus_c2 = 1.0 - c * c
    da_zr = np.empty((nt, 2, nb, h_dim))
    da_c = np.empty((nt, nb, h_dim))
    carry = np.zeros((nb, h_dim))
    d_zr = np.empty((2, nb, h_dim))
    dh, prod = np.empty((nb, h_dim)), np.empty((nb, h_dim))
    for t in range(nt - 1, -1, -1):
        np.add(d_out[t], carry, out=dh)
        np.multiply(dh, c_minus_h[t], out=d_zr[0])
        ac = np.multiply(dh, z[t], out=da_c[t])
        ac *= one_minus_c2[t]
        np.multiply(dh, one_minus_zr[t, 0], out=carry)
        drh = np.matmul(ac, layer["u_h"], out=prod)
        np.multiply(drh, h_prev[t], out=d_zr[1])
        drh *= r[t]
        carry += drh
        a_zr = np.multiply(d_zr, zr[t], out=da_zr[t])
        a_zr *= one_minus_zr[t]
        carry += np.matmul(a_zr[0], layer["u_z"], out=prod)
        carry += np.matmul(a_zr[1], layer["u_r"], out=prod)
    da_z, da_r = da_zr[:, 0], da_zr[:, 1]
    batch_major = lambda a: a.transpose(1, 0, 2)
    # Weight gradients sum over rows in batch-major order.
    rows = lambda a: batch_major(a).reshape(nb * nt, -1)
    rz, rr, rc = rows(da_z), rows(da_r), rows(da_c)
    xs, hp_flat, rh_flat = rows(x_seq), rows(h_prev), rows(r * h_prev)
    grads = {
        "w_z": rz.T @ xs, "u_z": rz.T @ hp_flat, "b_z": rz.sum(axis=0),
        "w_r": rr.T @ xs, "u_r": rr.T @ hp_flat, "b_r": rr.sum(axis=0),
        "w_h": rc.T @ xs, "u_h": rc.T @ rh_flat, "b_h": rc.sum(axis=0),
    }
    d_x = (batch_major(da_z) @ layer["w_z"] + batch_major(da_r) @ layer["w_r"]
           + batch_major(da_c) @ layer["w_h"])
    return grads, batch_major(d_x)
