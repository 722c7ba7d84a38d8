import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nvmdtd.errors import ParameterError
from nvmdtd.nn.layers import sigmoid
from nvmdtd.nn.models import create_model
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


class TestMseLoss:
    """The loss ``value_and_grad`` returns: mean squared error over the batch."""

    def test_perfect_fit(self):
        rng = np.random.default_rng(4)
        for model in (create_model("mlp", 5, rng), create_model("rnn", 5, rng, hidden=4)):
            y = rng.normal(1.5, 0.4, size=(3, 5))
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


def _reference_gru_forward(layer, x_seq):
    """Straightforward batch-major recurrence over x_seq (B, N, in).

    ``sigmoid`` is pinned bit for bit to the masked formula in test_nn_layers.
    """
    nb, nt, _ = x_seq.shape
    h_dim = layer["u_z"].shape[0]
    xz, xr, xh = x_seq @ layer["w_z"].T, x_seq @ layer["w_r"].T, x_seq @ layer["w_h"].T
    cache = {name: np.empty((nb, nt, h_dim)) for name in ("z", "r", "c", "h_prev", "out")}
    h = np.zeros((nb, h_dim))
    for t in range(nt):
        z = sigmoid(xz[:, t] + h @ layer["u_z"].T + layer["b_z"])
        r = sigmoid(xr[:, t] + h @ layer["u_r"].T + layer["b_r"])
        c = np.tanh(xh[:, t] + (r * h) @ layer["u_h"].T + layer["b_h"])
        h_new = (1.0 - z) * h + z * c
        for name, value in (("z", z), ("r", r), ("c", c), ("h_prev", h), ("out", h_new)):
            cache[name][:, t] = value
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


def _reference_rnn(model, y, target):
    """Forward output, loss and gradients of ``RnnModel`` by the reference kernels."""
    p = model.params
    gates = lambda layer: {k[len(layer) + 1:]: v for k, v in p.items() if k.startswith(layer + ".")}
    h1, cache1 = _reference_gru_forward(gates("gru1"), y[:, :, None])
    h2, cache2 = _reference_gru_forward(gates("gru2"), h1)
    w_out = p["head.weights"][0]
    o = sigmoid(h2 @ w_out + p["head.bias"][0])
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
        # One (512, 71, 71) float64 array is 20.6 MB; the forward pass keeps
        # about five alive at once and no full-length gate arrays.
        y = np.random.default_rng(6).normal(1.5, 0.4, size=(512, 71))
        tracemalloc.start()
        try:
            models["stored"].forward(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * 512 * 71 * 71 * 8
