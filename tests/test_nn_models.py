import itertools
import json
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from nvmdtd.cli import main
from nvmdtd.errors import ParameterError
from nvmdtd.nn import models as nn_models
from nvmdtd.nn.layers import sigmoid
from nvmdtd.nn.models import RnnModel, create_model
from nvmdtd.nn.weights_io import load_weights

STORED_RNN_WEIGHTS = Path(__file__).resolve().parents[1] / "perfbench" / "weights" / "weights-rnn.nvmw"

GRAD_STEP = 1e-5
GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-8


def finite_difference_check(model, y, target, step=GRAD_STEP):
    """Compare analytic gradients against central differences, every scalar."""
    blocks = dict(model.param_blocks())
    _, grads = model.value_and_grad(y, target)
    failures = []
    for name, arr in blocks.items():
        g = grads[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            lp = model.value_and_grad(y, target)[0]
            arr[idx] = orig - step
            lm = model.value_and_grad(y, target)[0]
            arr[idx] = orig
            fd = (lp - lm) / (2 * step)
            an = g[idx]
            if abs(fd - an) > GRAD_ATOL and abs(fd - an) > GRAD_RTOL * max(abs(fd), abs(an)):
                failures.append((name, idx, fd, an))
    return failures


class TestForward:
    def test_mlp_zero_weights_output_half(self):
        model = create_model("mlp", 6, np.random.default_rng(0))
        for _, arr in model.param_blocks():
            arr[...] = 0.0
        out = model.forward(np.linspace(0.5, 2.5, 6))
        np.testing.assert_allclose(out, 0.5)

    def test_rnn_zero_weights_output_half(self):
        model = create_model("rnn", 9, np.random.default_rng(0), hidden=5)
        for _, arr in model.param_blocks():
            arr[...] = 0.0
        out = model.forward(np.linspace(0.5, 2.5, 9))
        np.testing.assert_allclose(out, 0.5)

    def test_outputs_in_unit_interval(self):
        rng = np.random.default_rng(1)
        mlp = create_model("mlp", 12, rng)
        rnn = create_model("rnn", 12, rng, hidden=8)
        y = rng.uniform(0.0, 10.0, size=(1000, 12))
        for model in (mlp, rnn):
            out = model.forward(y)
            assert np.all(out > 0.0) and np.all(out < 1.0)
            assert np.all(np.isfinite(out))

    def test_finite_under_input_scaling(self):
        rng = np.random.default_rng(2)
        mlp = create_model("mlp", 10, rng)
        rnn = create_model("rnn", 10, rng, hidden=6)
        y = 100.0 * rng.uniform(0.5, 2.5, size=(8, 10))
        for model in (mlp, rnn):
            assert np.all(np.isfinite(model.forward(y)))

    def test_rnn_is_causal(self):
        rng = np.random.default_rng(3)
        model = create_model("rnn", 16, rng, hidden=7)
        y = rng.uniform(0.5, 2.5, size=16)
        base = model.forward(y)
        perturbed = y.copy()
        perturbed[9:] += rng.uniform(0.5, 1.5, size=7)
        out = model.forward(perturbed)
        np.testing.assert_array_equal(out[:9], base[:9])
        assert not np.array_equal(out[9:], base[9:])

    def test_mlp_length_mismatch(self):
        model = create_model("mlp", 5, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            model.forward(np.zeros(6))

    @pytest.mark.parametrize("kind", ["mlp", "rnn"])
    def test_forward_refuses_a_3d_input(self, kind):
        model = create_model(kind, 5, np.random.default_rng(0), hidden=3)
        with pytest.raises(ParameterError,
                           match=r"expected a read vector or batch, got shape \(2, 5, 1\)"):
            model.forward(np.zeros((2, 5, 1)))


class TestMseLoss:
    """The loss ``value_and_grad`` returns: mean squared error over the batch."""

    def test_perfect_fit(self):
        rng = np.random.default_rng(4)
        for model in (create_model("mlp", 5, rng), create_model("rnn", 5, rng, hidden=4)):
            y = rng.normal(1.5, 0.4, size=(3, 5))
            assert model.value_and_grad(y, model.forward(y))[0] == 0.0

    @pytest.mark.parametrize("batch", [1, 2, 100, 300])
    def test_perfect_fit_stored_rnn(self, batch):
        # Training and inference run the same step code, and a split forward
        # (300 blocks) keeps the bytes of the whole-batch training pass.
        model = load_weights(STORED_RNN_WEIGHTS)
        y = np.random.default_rng(batch).normal(1.5, 0.4, size=(batch, 71))
        assert model.value_and_grad(y, model.forward(y))[0] == 0.0

    def test_half_everywhere(self):
        # Zero weights put out 0.5 at every position.
        rng = np.random.default_rng(0)
        for model in (create_model("mlp", 8, rng), create_model("rnn", 8, rng, hidden=3)):
            for _, arr in model.param_blocks():
                arr[...] = 0.0
            assert model.value_and_grad(np.ones(8), np.ones(8))[0] == pytest.approx(0.25)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        model = create_model("rnn", 8, rng, hidden=4)
        y = rng.normal(1.5, 0.4, size=(6, 8))
        target = rng.integers(0, 2, (6, 8)).astype(float)
        perm = rng.permutation(6)
        loss = model.value_and_grad(y, target)[0]
        assert loss == pytest.approx(model.value_and_grad(y[perm], target[perm])[0])

    def test_length_mismatch(self):
        model = create_model("rnn", 2, np.random.default_rng(0), hidden=3)
        with pytest.raises(ParameterError):
            model.value_and_grad([1.0], [0.0, 1.0])


class TestGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mlp_every_parameter(self, seed):
        rng = np.random.default_rng(seed)
        model = create_model("mlp", 4, rng)
        y = rng.normal(1.5, 0.4, size=4)
        target = rng.integers(0, 2, 4).astype(float)
        assert finite_difference_check(model, y, target) == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gru_every_parameter_length_8(self, seed):
        rng = np.random.default_rng(seed)
        model = create_model("rnn", 8, rng, hidden=5)
        y = rng.normal(1.5, 0.4, size=8)
        target = rng.integers(0, 2, 8).astype(float)
        assert finite_difference_check(model, y, target) == []

    def test_batched_gradients(self):
        rng = np.random.default_rng(9)
        model = create_model("rnn", 6, rng, hidden=4)
        y = rng.normal(1.5, 0.4, size=(3, 6))
        target = rng.integers(0, 2, (3, 6)).astype(float)
        assert finite_difference_check(model, y, target) == []

    def test_zero_residual_point(self):
        rng = np.random.default_rng(5)
        for model in (create_model("mlp", 5, rng), create_model("rnn", 5, rng, hidden=4)):
            y = rng.normal(1.5, 0.4, size=5)
            target = model.forward(y)
            grads = model.value_and_grad(y, target)[1]
            for name, g in grads.items():
                np.testing.assert_allclose(g, 0.0, atol=1e-15, err_msg=name)

    def test_batch_average_of_single_blocks(self):
        rng = np.random.default_rng(6)
        model = create_model("mlp", 4, rng)
        y = rng.normal(1.5, 0.4, size=(3, 4))
        target = rng.integers(0, 2, (3, 4)).astype(float)
        batched = model.value_and_grad(y, target)[1]
        singles = [model.value_and_grad(y[i], target[i])[1] for i in range(3)]
        for name in batched:
            mean = sum(s[name] for s in singles) / 3
            np.testing.assert_allclose(batched[name], mean, atol=1e-14)

    def test_shape_mismatch(self):
        model = create_model("mlp", 4, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            model.value_and_grad(np.zeros((2, 4)), np.zeros((3, 4)))


class TestEmptyBatch:
    @pytest.fixture(params=["mlp", "rnn"])
    def model(self, request):
        return create_model(request.param, 4, np.random.default_rng(0), hidden=3)

    def test_value_and_grad_refuses_empty_batch(self, model):
        with pytest.raises(ParameterError, match="empty batch"):
            model.value_and_grad(np.zeros((0, 4)), np.zeros((0, 4)))

    @pytest.mark.parametrize("shape", [(2, 0), (0,)])
    def test_rnn_refuses_zero_length_blocks(self, shape):
        model = create_model("rnn", 4, np.random.default_rng(0), hidden=3)
        with pytest.raises(ParameterError, match="empty batch"):
            model.value_and_grad(np.zeros(shape), np.zeros(shape))

    def test_forward_of_no_blocks_is_empty(self, model):
        out = model.forward(np.zeros((0, 4)))
        assert out.shape == (0, 4)

    def test_rnn_forward_of_zero_length_blocks_is_empty(self):
        model = create_model("rnn", 4, np.random.default_rng(0), hidden=3)
        assert model.forward(np.zeros((5, 0))).shape == (5, 0)


def _reference_gru_forward(layer, x_seq, want_cache=True):
    """Straightforward batch-major recurrence over x_seq (B, N, in).

    Each step projects its own input, ``x_seq[:, t] @ W.T``.  ``sigmoid`` is
    pinned bit for bit to the masked formula in test_nn_layers.  Without
    ``want_cache`` only the outputs are kept.
    """
    nb, nt, _ = x_seq.shape
    h_dim = layer["u_z"].shape[0]
    names = ("z", "r", "c", "h_prev", "out") if want_cache else ("out",)
    cache = {name: np.empty((nb, nt, h_dim)) for name in names}
    h = np.zeros((nb, h_dim))
    for t in range(nt):
        x = x_seq[:, t]
        z = sigmoid(x @ layer["w_z"].T + h @ layer["u_z"].T + layer["b_z"])
        r = sigmoid(x @ layer["w_r"].T + h @ layer["u_r"].T + layer["b_r"])
        c = np.tanh(x @ layer["w_h"].T + (r * h) @ layer["u_h"].T + layer["b_h"])
        h_new = (1.0 - z) * h + z * c
        values = {"z": z, "r": r, "c": c, "h_prev": h, "out": h_new}
        for name in names:
            cache[name][:, t] = values[name]
        h = h_new
    cache["x"] = x_seq
    return cache["out"], cache


def _reference_gru_backward(layer, cache, d_out):
    z, r, c, h_prev, x_seq = cache["z"], cache["r"], cache["c"], cache["h_prev"], cache["x"]
    nb, nt, h_dim = z.shape
    da = {gate: np.empty((nb, nt, h_dim)) for gate in "zrh"}
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
        da["z"][:, t], da["r"][:, t], da["h"][:, t] = az, ar, ac
        carry = dhp
    flat = lambda a: a.reshape(-1, a.shape[-1])
    xs, hp_flat, rh_flat = flat(x_seq), flat(h_prev), flat(r * h_prev)
    grads = {}
    for gate in "zrh":
        rows = flat(da[gate])
        grads[f"w_{gate}"] = rows.T @ xs
        grads[f"u_{gate}"] = rows.T @ (rh_flat if gate == "h" else hp_flat)
        grads[f"b_{gate}"] = rows.sum(axis=0)
    d_x = da["z"] @ layer["w_z"] + da["r"] @ layer["w_r"] + da["h"] @ layer["w_h"]
    return grads, d_x


def _reference_rnn(model, y, target=None):
    """Forward output, loss and gradients of ``RnnModel`` by the reference kernels.

    Without a target, the forward output alone, computed without the caches.
    """
    p = model.params
    gates = lambda layer: {k[len(layer) + 1:]: v for k, v in p.items() if k.startswith(layer + ".")}
    want_cache = target is not None
    h1, cache1 = _reference_gru_forward(gates("gru1"), y[:, :, None], want_cache)
    h2, cache2 = _reference_gru_forward(gates("gru2"), h1, want_cache)
    w_out = p["head.weights"][0]
    heads = [(h2[:, t] * w_out).sum(-1) for t in range(h2.shape[1])]
    o = sigmoid(np.stack(heads, axis=1) + p["head.bias"][0])
    if not want_cache:
        return o
    g_s = (2.0 * (o - target) / target.size) * o * (1.0 - o)
    g2, d_h1 = _reference_gru_backward(gates("gru2"), cache2, g_s[:, :, None] * w_out)
    g1, _ = _reference_gru_backward(gates("gru1"), cache1, d_h1)
    grads = {f"gru1.{k}": v for k, v in g1.items()}
    grads.update((f"gru2.{k}", v) for k, v in g2.items())
    grads["head.weights"] = np.einsum("bt,bth->h", g_s, h2)[None, :]
    grads["head.bias"] = np.array([g_s.sum()])
    return o, float(np.mean((target - o) ** 2)), grads


class TestGruKernelBits:
    """The GRU kernels reproduce the straightforward recurrence bit for bit."""

    @pytest.fixture(scope="class")
    def models(self):
        stored = load_weights(STORED_RNN_WEIGHTS)
        return {"stored": stored, "fresh": create_model("rnn", 8, np.random.default_rng(11), hidden=23)}

    @pytest.mark.parametrize("which", ["stored", "fresh"])
    @pytest.mark.parametrize("length", [71, 8])
    @pytest.mark.parametrize("batch", [1, 2, 10, 100])
    def test_forward_and_gradients_match_reference(self, models, which, length, batch):
        model = models[which]
        rng = np.random.default_rng(batch * 1000 + length)
        y = rng.normal(1.5, 0.4, size=(batch, length))
        target = rng.integers(0, 2, (batch, length)).astype(float)
        ref_out, ref_loss, ref_grads = _reference_rnn(model, y, target)
        assert model.forward(y).tobytes() == ref_out.tobytes()
        loss, grads = model.value_and_grad(y, target)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert g.shape == ref_grads[name].shape, name
            assert g.tobytes() == ref_grads[name].tobytes(), name

    def test_forward_peak_memory(self, models):
        # Four 128-block tiles, as many at once as the pool has workers.
        y = np.random.default_rng(6).normal(1.5, 0.4, size=(512, 71))
        running = min(4, nn_models._tile_workers())
        assert _forward_peak(models["stored"], y) <= _forward_bound(512, 128, running)

    def test_unsplit_forward_peak_memory(self, models):
        # A calibration window's 100 blocks run as one pass on the caller's thread.
        y = np.random.default_rng(5).normal(1.5, 0.4, size=(100, 71))
        assert _forward_peak(models["stored"], y) <= _forward_bound(100, 100, 1)


def _forward_peak(model, y) -> int:
    """The peak bytes traced while ``model`` runs one forward of ``y``."""
    tracemalloc.start()
    try:
        model.forward(y)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _forward_bound(batch: int, rows: int, running: int, width: int = 71) -> int:
    """The bytes a forward of ``batch`` blocks may hold, with ``running`` tiles of ``rows`` at once.

    Besides its (batch, width) input, tile outputs and result, a running
    tile of b rows holds (b, width) step buffers at h = N = width: two
    states, two (2, b, h) gate stacks, two candidates, the (3, b, h)
    projection and one scratch (12 arrays); the head sums and estimates
    (2); sigmoid's scratch (up to 2); and the stacked weights (under 5 at
    b >= 100): 21 arrays, of which 32 are allowed.  One full-length
    (N, b, h) array, 4 MB at b = 100, breaks the bound.
    """
    return (3 * batch + 32 * rows * running) * width * 8


FRESH_RNNS = {"n8-h23": (8, 23), "n8": (8, None), "n1": (1, None), "n33-h40": (33, 40)}


def _failing_tile(error):
    """A ``_forward_rows`` that raises ``error`` in the second tile a pool worker starts."""
    tiles = itertools.count()
    whole = RnnModel._forward_rows

    def forward_rows(self, yb):
        if threading.current_thread() is not threading.main_thread() and next(tiles) == 1:
            raise error
        return whole(self, yb)

    return forward_rows


class TestTiledForward:
    """A batch of 256 blocks or more runs as row tiles with the bytes of one whole pass."""

    @pytest.fixture(scope="class")
    def models(self):
        models = {"stored": (load_weights(STORED_RNN_WEIGHTS), 71)}
        for seed, (name, (n, hidden)) in enumerate(FRESH_RNNS.items()):
            models[name] = (create_model("rnn", n, np.random.default_rng(seed), hidden=hidden), n)
        return models

    @pytest.fixture
    def pool_of(self, monkeypatch):
        """Run split forwards on a pool of the given worker count."""
        pools = []

        def use(workers):
            pools.append(ThreadPoolExecutor(workers))
            monkeypatch.setattr(nn_models, "_tile_pool", lambda: pools[-1])

        yield use
        for pool in pools:
            pool.shutdown()

    @pytest.mark.parametrize("which", ["stored", *FRESH_RNNS])
    @pytest.mark.parametrize("batch", [255, 256, 257, 300, 513, 2049])
    def test_matches_reference_and_untiled_kernel(self, models, which, batch):
        model, n = models[which]
        y = np.random.default_rng(batch).normal(1.5, 0.4, size=(batch, n))
        out = model.forward(y)
        assert out.shape == (batch, n)
        assert out.tobytes() == model._forward_rows(y).tobytes()
        assert out.tobytes() == _reference_rnn(model, y).tobytes()

    @pytest.mark.parametrize("batch, tiles", [
        (1, [1]), (255, [255]), (256, [128, 128]), (257, [129, 128]), (383, [192, 191]),
        (384, [128, 128, 128]), (2049, [129] + [128] * 15)])
    def test_tile_rule(self, models, monkeypatch, batch, tiles):
        seen = []
        whole = RnnModel._forward_rows

        def forward_rows(self, yb):
            seen.append((yb[0, 0], len(yb)))
            return whole(self, yb)

        monkeypatch.setattr(RnnModel, "_forward_rows", forward_rows)
        model, n = models["n8-h23"]
        y = np.arange(batch * n, dtype=float).reshape(batch, n)
        model.forward(y)
        starts = np.cumsum([0] + tiles[:-1])
        assert sorted(seen) == [(y[start, 0], size) for start, size in zip(starts, tiles)]

    def test_worker_count_does_not_change_bytes(self, models, pool_of):
        model, n = models["stored"]
        y = np.random.default_rng(9).normal(1.5, 0.4, size=(513, n))
        outs = []
        for workers in (1, 2):
            pool_of(workers)
            outs.append(model.forward(y).tobytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("cpus, env, workers", [
        (2, {}, 1), (2, {"OPENBLAS_NUM_THREADS": "1"}, 2), (4, {"OMP_NUM_THREADS": "1"}, 4),
        (4, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "4"}, 1), (3, {"OPENBLAS_NUM_THREADS": "0"}, 1),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, 1)])
    def test_workers_share_the_cpus_with_blas(self, monkeypatch, cpus, env, workers):
        monkeypatch.setattr(nn_models.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert nn_models._tile_workers() == workers

    def test_one_read_vector_keeps_its_shape(self, models):
        model, n = models["stored"]
        y = np.random.default_rng(10).normal(1.5, 0.4, size=n)
        out = model.forward(y)
        assert out.shape == (n,)
        assert out.tobytes() == model.forward(y[None, :])[0].tobytes()

    def test_split_forward_peak_memory(self, models, pool_of):
        # Two workers run two of the sixteen 128-block tiles at once.
        pool_of(2)
        model, n = models["stored"]
        y = np.random.default_rng(7).normal(1.5, 0.4, size=(2048, n))
        assert _forward_peak(model, y) <= _forward_bound(2048, 128, 2)

    def test_tile_error_propagates_and_pool_survives(self, models, monkeypatch, tmp_path, capsys):
        model, n = models["stored"]
        y = np.random.default_rng(8).normal(1.5, 0.4, size=(300, n))
        expected = model._forward_rows(y).tobytes()
        error = MemoryError("Unable to allocate a tile")
        monkeypatch.setattr(RnnModel, "_forward_rows", _failing_tile(error))
        with pytest.raises(MemoryError) as raised:
            model.forward(y)
        assert raised.value is error

        cfg = tmp_path / "eval.json"
        cfg.write_text(json.dumps({"seed": 5, "channel": {"ratio": 0.1}, "eval": {
            "blocks": 300, "detectors": ["midpoint", "rnn"],
            "weights": {"rnn": str(STORED_RNN_WEIGHTS)}}}))
        monkeypatch.setattr(RnnModel, "_forward_rows", _failing_tile(error))
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate a tile\n"

        monkeypatch.undo()
        assert model.forward(y).tobytes() == expected
