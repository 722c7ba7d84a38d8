import numpy as np
import pytest

from nvmdtd.errors import ParameterError
from nvmdtd.nn.models import create_model

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
