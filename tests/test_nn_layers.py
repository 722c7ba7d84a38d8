import hashlib
import math

import numpy as np
import pytest

from nvmdtd.errors import ParameterError
from nvmdtd.nn.layers import relu, sigmoid, xavier_uniform_init
from nvmdtd.nn.models import count_params, create_model


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
    def test_gru_param_count_formula(self):
        model = create_model("rnn", 71, np.random.default_rng(0), hidden=5)
        gru = lambda i, h: 3 * (i * h + h * h + h)
        assert count_params(model) == gru(1, 5) + gru(5, 5) + 5 + 1


class TestParamCounts:
    def test_mlp_reference_size(self):
        model = create_model("mlp", 71, np.random.default_rng(0))
        assert count_params(model) == 40683

    def test_rnn_reference_size(self):
        model = create_model("rnn", 71, np.random.default_rng(0))
        assert count_params(model) == 46080

    def test_mlp_unit_size(self):
        model = create_model("mlp", 1, np.random.default_rng(0))
        assert count_params(model) == 13


class TestInitDrawOrder:
    # sha256 of the initial blocks at N = 71 from default_rng(0), little-endian
    # float64 in weight-file order: the draw order is part of the determinism contract.
    @pytest.mark.parametrize("kind, digest", [
        ("mlp", "1be4af0bf794c0d7a20e1f844a1378104f12ae002fa88e93d21708c50ccc4588"),
        ("rnn", "e7a4db81accc4938b23b40ac3b98c094d9233237ef205f5c6d6d8eaca6b1dd9c"),
    ])
    def test_init_digest_pinned(self, kind, digest):
        model = create_model(kind, 71, np.random.default_rng(0))
        raw = b"".join(a.astype("<f8").tobytes() for _, a in model.param_blocks())
        assert hashlib.sha256(raw).hexdigest() == digest
