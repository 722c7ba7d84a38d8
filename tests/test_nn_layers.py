import math

import numpy as np
import pytest

from nvmdtd.errors import ParameterError
from nvmdtd.nn.layers import DenseLayer, GruLayer, relu, sigmoid, xavier_uniform_init
from nvmdtd.nn.models import MlpModel, RnnModel, count_params


class TestActivations:
    def test_sigmoid_stable_at_extremes(self):
        z = np.array([-1000.0, -50.0, 0.0, 50.0, 1000.0])
        out = sigmoid(z)
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[-1] == 1.0
        assert out[2] == 0.5

    def test_sigmoid_matches_reference(self):
        z = np.linspace(-20, 20, 101)
        np.testing.assert_allclose(sigmoid(z), 1.0 / (1.0 + np.exp(-z)), rtol=1e-14)

    def test_relu(self):
        np.testing.assert_array_equal(relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0])


class TestXavier:
    def test_one_by_one_bound(self):
        rng = np.random.default_rng(0)
        draws = np.array([xavier_uniform_init(1, 1, rng)[0, 0] for _ in range(500)])
        assert np.all(np.abs(draws) <= math.sqrt(3.0))

    def test_fan_bound(self):
        rng = np.random.default_rng(1)
        w = xavier_uniform_init(71, 284, rng)
        assert np.abs(w).max() <= math.sqrt(6.0 / 355.0)

    def test_uniform_variance(self):
        rng = np.random.default_rng(2)
        w = xavier_uniform_init(250, 400, rng)  # 1e5 draws
        limit = math.sqrt(6.0 / 650.0)
        assert w.var() == pytest.approx(limit ** 2 / 3.0, rel=0.05)

    def test_bad_dims(self):
        with pytest.raises(ParameterError):
            xavier_uniform_init(0, 3, np.random.default_rng(0))


class TestShapes:
    def test_dense_shape_validation(self):
        with pytest.raises(ParameterError):
            DenseLayer(weights=np.ones((3, 2)), bias=np.zeros(2))

    def test_gru_shape_validation(self):
        rng = np.random.default_rng(0)
        layer = GruLayer.create(2, 4, rng)
        with pytest.raises(ParameterError):
            GruLayer(
                w_z=layer.w_z, u_z=np.zeros((3, 3)), b_z=layer.b_z,
                w_r=layer.w_r, u_r=layer.u_r, b_r=layer.b_r,
                w_h=layer.w_h, u_h=layer.u_h, b_h=layer.b_h,
            )

    def test_gru_param_count_formula(self):
        model = RnnModel.create(np.random.default_rng(0), hidden=5)
        gru = lambda i, h: 3 * (i * h + h * h + h)
        assert count_params(model) == gru(1, 5) + gru(5, 5) + 5 + 1


class TestParamCounts:
    def test_mlp_reference_size(self):
        model = MlpModel.create(71, np.random.default_rng(0))
        assert count_params(model) == 40683

    def test_rnn_reference_size(self):
        model = RnnModel.create(np.random.default_rng(0))
        assert count_params(model) == 46080

    def test_mlp_unit_size(self):
        model = MlpModel.create(1, np.random.default_rng(0))
        assert count_params(model) == 13
