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
in the tests, whose step projects its own input (``x[:, t] @ W.T``) and
whose head is the row sum ``(h * w_out).sum(-1)``.  Inference and training
run the same step code (``_rnn_steps``, ``_gru_step``), so a model's
forward and its training pass give the same bytes.  The rules that keep
the bits:

* Both layers advance together, one step at a time: at step t layer 1
  reads y[:, t] and layer 2 reads layer 1's new state.  Each layer works
  in preallocated step buffers (``out=`` matmuls, in-place ``+=``: IEEE
  addition commutes).  The z and r gates share a stacked (2, B, h) step,
  so one add and one sigmoid serve both.
* Every GEMM keeps the reference's operands.  A step's input projection
  is one ``matmul`` of the (B, in) input against the stacked *transposed
  views* ``stack([W_z, W_r, W_h]).transpose(0, 2, 1)``, and its z and r
  recurrent products one against ``stack([U_z, U_r]).transpose(0, 2, 1)``;
  each slice is then the reference's ``x @ W.T`` GEMM.  A copy of the
  transposed weights, or one fused [U_z; U_r] GEMM, gives other bits.  The
  backward pass runs ``a @ U`` on (B, h) steps, z and r against the
  stacked ``[U_z, U_r]``, and ``d_x`` on batch-major views (B, N, .), one
  BLAS call per block; flattening those to one (N*B, k) GEMM can pick
  another BLAS kernel (it does at N = 8, B = 10) and change the bits.
* The head is a per-row sum, so a block's estimate does not depend on how
  many rows share the step; a per-step ``h @ w_out`` matvec does, and
  broke tiled == whole-batch at B from 257 to 2049.  Inference sums each
  step's rows as it goes; training, which keeps every layer-2 state, sums
  them all at once, the same row sums.
* Weight gradients sum their rows in batch-major order.  The
  step-independent backward factors ``1 - z``, ``1 - r``, ``c - h_prev``
  and ``1 - c*c`` are formed in bulk.

Memory: a forward of B blocks holds no full-length array but its (B, N)
input and output.  Each layer updates its (B, h) state in place, and its
gates, the (3, B, h) projection and the scratch are step-sized: 12 (B, h)
arrays in all.  A 100-block calibration window at N = h = 71 peaks at
1.3 MB under ``tracemalloc``, where input projections hoisted out of the
recurrence would hold five (N, B, h) arrays, 20 MB.  Training keeps each
layer's states and gate values at every step, four (N, B, h) arrays per
layer, for its backward pass.

``RnnModel.forward`` splits a batch of B >= 256 blocks into floor(B/128)
near-equal row tiles (``np.array_split``), runs each through the kernels
on a process-wide thread pool with one worker per usable CPU that BLAS
leaves free (``_tile_workers``), and concatenates the tiles in order.  The
tiles are there to use every core: a step's small GEMMs and elementwise
calls run on one core each, and at one BLAS thread two workers cut a
2048-block forward from 1.18 to 0.72 s on a 2-CPU host.
The tile bounds depend on B alone, so the bytes do not depend on the core
count.
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
import itertools
import os
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
        yb, tb = _as_pair(y, target, self.n)
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
        return _rnn_steps(self.params, yb, keep=False)[0]

    def value_and_grad(self, y, target) -> tuple[float, dict[str, np.ndarray]]:
        """Batch-averaged loss and its gradient in one backpropagation-through-time pass."""
        p = self.params
        yb, tb = _as_pair(y, target)
        o, (cache1, cache2) = _rnn_steps(p, yb, keep=True)
        w_out = p["head.weights"][0]
        g_s = (2.0 * (o - tb) / tb.size) * o * (1.0 - o)
        d_h2 = g_s.T[:, :, None] * w_out
        g2, d_h1 = _gru_layer_backward(cache2, d_h2)
        g1, _ = _gru_layer_backward(cache1, d_h1, input_grad=False)
        grads = {f"gru1.{gate}": g for gate, g in g1.items()}
        grads.update((f"gru2.{gate}", g) for gate, g in g2.items())
        h2 = cache2["h"][1:].transpose(1, 0, 2)
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
def _tile_pool():
    """The process-wide pool running recurrent row tiles, with ``_tile_workers()`` workers.

    It is created on the first split forward and starts its threads on the
    first tiles, so importing the package or running only small batches
    starts no thread and does not import ``concurrent.futures``.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(_tile_workers(), thread_name_prefix="nvmdtd-rnn")


def _tile_workers() -> int:
    """One worker per usable CPU that BLAS leaves free.

    That is the usable CPUs divided by the BLAS thread count, read from the
    variables OpenBLAS reads.  With neither set, OpenBLAS threads each call
    over every CPU, so the tiles run one at a time: on a 2-CPU host, two
    workers at two BLAS threads each made a 512-block forward slower than
    one worker (0.33 against 0.27 s).  The count sets how many cores a
    forward uses, not its memory: a running tile holds only its step
    buffers, about 1 MB at 128 rows and N = h = 71.
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


def _as_pair(y, target, n_expected: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """A training batch and its targets as equal-shape, non-empty (blocks, N) arrays."""
    yb, _ = _as_batch(y, n_expected)
    tb, _ = _as_batch(target, n_expected)
    if yb.shape != tb.shape:
        raise ParameterError(f"batch mismatch: {yb.shape} vs {tb.shape}")
    if yb.size == 0:
        raise ParameterError(f"empty batch of shape {yb.shape}")
    return yb, tb


def _gates(params: dict, layer: str) -> dict[str, np.ndarray]:
    """One recurrent layer's blocks keyed by gate name (``w_z``, ``u_z``, ...)."""
    prefix = layer + "."
    return {name[len(prefix):]: arr for name, arr in params.items() if name.startswith(prefix)}


def _rnn_steps(params: dict, yb: np.ndarray, keep: bool):
    """Run both recurrent layers and the head over a (B, N) batch, one step at a time.

    At step t layer 1 reads ``yb[:, t]``, layer 2 reads layer 1's new state
    and the head sums layer 2's new state against its weights row by row.
    Returns the (B, N) soft estimates and, with ``keep``, each layer's
    backward cache: its weights, its time-major input, its states ``h``
    (N + 1, B, h) from the zero state on, and its gate values at every
    step.  Without ``keep`` each layer updates one state in place and
    reuses one set of step buffers.
    """
    nb, nt = yb.shape
    h_dim = params["gru1.u_z"].shape[0]
    span = nt if keep else 1  # the steps whose gate values are kept
    caches, layer_steps, x_seq = [], [], yb.T[:, :, None]
    for name in ("gru1", "gru2"):
        h = np.zeros((nt + 1 if keep else 1, nb, h_dim))
        zr, c = np.empty((span, 2, nb, h_dim)), np.empty((span, nb, h_dim))
        caches.append({"layer": _step_weights(_gates(params, name)), "x": x_seq,
                       "h": h, "zr": zr, "c": c})
        # Per step: the state read, the state written, the gates, the candidate.
        layer_steps.append(zip(h[:-1], h[1:], zr, c) if keep
                           else itertools.repeat((h[0], h[0], zr[0], c[0]), nt))
        x_seq = h[1:]
    proj, prod = np.empty((3, nb, h_dim)), np.empty((nb, h_dim))
    scratch = (proj, proj[:2], proj[2], prod)
    w_out = params["head.weights"][0]
    s = np.empty((nt, nb))
    for t, (x, *steps) in enumerate(zip(caches[0]["x"], *layer_steps)):
        for cache, (h, h_new, zr, c) in zip(caches, steps):
            _gru_step(cache["layer"], x, h, h_new, zr, c, scratch)
            x = h_new
        if not keep:
            np.multiply(x, w_out, out=prod)
            prod.sum(axis=-1, out=s[t])
    if keep:  # the same row sums, over the kept layer-2 states at once
        (caches[1]["h"][1:] * w_out).sum(axis=-1, out=s)
    o = np.add(s.T, params["head.bias"][0], out=np.empty((nb, nt)))
    return sigmoid(o, out=o), caches if keep else None


def _step_weights(layer: dict) -> dict:
    """A layer's gate blocks plus what ``_gru_step`` reads.

    The stacked W and U blocks are read through transposed views, as are
    the blocks themselves in the reference's ``x @ W.T``.
    """
    w_zrh = np.stack([layer["w_z"], layer["w_r"], layer["w_h"]])
    u_zr = np.stack([layer["u_z"], layer["u_r"]])
    return layer | {"w_zrh": w_zrh.transpose(0, 2, 1), "u_zr": u_zr.transpose(0, 2, 1),
                    "u_h.T": layer["u_h"].T,
                    "b_zr": np.stack([layer["b_z"], layer["b_r"]])[:, None, :]}


def _gru_step(layer: dict, x, h, h_new, zr, c, scratch) -> None:
    """One step of one recurrent layer, from input x (B, in) and state h (B, h) into h_new.

    ``zr`` (2, B, h) receives the z and r gates and ``c`` (B, h) the
    candidate.  ``scratch`` is the (3, B, h) projection, its z-and-r and
    candidate parts, and a (B, h) buffer.  h_new may be h itself: h is last
    read before h_new is written.
    """
    proj, proj_zr, proj_h, prod = scratch
    np.matmul(x, layer["w_zrh"], out=proj)
    np.matmul(h, layer["u_zr"], out=zr)
    zr += proj_zr
    zr += layer["b_zr"]
    sigmoid(zr, out=zr)
    z, r = zr
    np.multiply(r, h, out=prod)
    np.matmul(prod, layer["u_h.T"], out=c)
    c += proj_h
    c += layer["b_h"]
    np.tanh(c, out=c)
    np.subtract(1.0, z, out=prod)
    prod *= h
    np.multiply(z, c, out=h_new)
    h_new += prod


def _gru_layer_backward(cache: dict, d_out: np.ndarray, input_grad: bool = True):
    """Backpropagate through one recurrent layer from its ``_rnn_steps`` cache.

    ``d_out[t]`` is the time-major (B, h) loss gradient at the layer's
    step-t output.  The recurrence is unrolled in reverse, carrying the
    gradient through the previous hidden state; weight gradients are then
    formed in one matmul per block from the accumulated per-step gate
    gradients.  Returns those gradients and the time-major input gradient,
    or ``None`` for it when ``input_grad`` is false (the first layer's
    input is the reads, which nothing trains).
    """
    layer, zr, c, x_seq = cache["layer"], cache["zr"], cache["c"], cache["x"]
    z, r = zr[:, 0], zr[:, 1]
    nt, nb, h_dim = c.shape
    h_prev = cache["h"][:-1]
    # The step-independent factors, in bulk before the reverse loop.
    one_minus_zr = 1.0 - zr
    c_minus_h = c - h_prev
    one_minus_c2 = 1.0 - c * c
    da_zr = np.empty((nt, 2, nb, h_dim))
    da_c = np.empty((nt, nb, h_dim))
    carry = np.zeros((nb, h_dim))
    d_zr = np.empty((2, nb, h_dim))
    dh, prod = np.empty((nb, h_dim)), np.empty((nb, h_dim))
    u_zr = layer["u_zr"].transpose(0, 2, 1)  # the stacked (u_z, u_r) of _step_weights
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
        np.matmul(a_zr, u_zr, out=d_zr)
        carry += d_zr[0]
        carry += d_zr[1]
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
    if not input_grad:
        return grads, None
    d_x = (batch_major(da_z) @ layer["w_z"] + batch_major(da_r) @ layer["w_r"]
           + batch_major(da_c) @ layer["w_h"])
    return grads, batch_major(d_x)
