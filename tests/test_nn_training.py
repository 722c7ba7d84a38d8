import numpy as np
import pytest

from nvmdtd.channel import ChannelParams, derive_seed, sample_block_matrix
from nvmdtd.config import resolve_config, train_config
from nvmdtd.errors import DivergenceError, ParameterError
from nvmdtd.nn import training
from nvmdtd.nn.models import RnnModel
from nvmdtd.nn.training import TrainConfig, create_model, train, validation_ber


def small_config(**overrides) -> TrainConfig:
    base = dict(epochs=2, minibatch_blocks=2, train_blocks=60,
                validation_blocks=40, seed=101)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            small_config(epochs=0)
        with pytest.raises(ParameterError):
            small_config(learning_rate=0.0)

    def test_default_budgets(self):
        desk = train_config(resolve_config({"train": {"kind": "rnn"}}))
        assert desk.train_blocks == training.DESK_TRAIN_BLOCKS["rnn"] == 1600
        assert desk.minibatch_blocks == 2
        full = train_config(resolve_config({"train": {"kind": "mlp"}}, paper_scale=True))
        assert full.train_blocks == training.PAPER_TRAIN_BLOCKS["mlp"]
        assert full.minibatch_blocks == 4


class TestTrain:
    def test_same_seed_same_weights(self, offset_channel):
        a = train("rnn", offset_channel, small_config(), n=16, hidden=8)
        b = train("rnn", offset_channel, small_config(), n=16, hidden=8)
        for (name_a, arr_a), (_, arr_b) in zip(a.model.param_blocks(), b.model.param_blocks()):
            np.testing.assert_array_equal(arr_a, arr_b, err_msg=name_a)
        assert a.history == b.history

    def test_fresh_model_near_half(self, offset_channel):
        rng = np.random.default_rng(0)
        model = create_model("rnn", 16, rng, hidden=8)
        x, y = sample_block_matrix(offset_channel, 16, 200, seed=4)
        ber = validation_ber(model, x, y)
        assert 0.25 < ber < 0.75

    def test_history_shape_and_learning(self):
        params = ChannelParams.from_ratio(0.05)
        cfg = small_config(epochs=3, train_blocks=200, validation_blocks=100)
        result = train("rnn", params, cfg, n=16, hidden=12)
        assert [rec.epoch for rec in result.history] == [1, 2, 3]
        assert result.history[-1].val_ber < 0.1
        assert all(np.isfinite(rec.train_loss) for rec in result.history)

    def test_mlp_smoke(self):
        params = ChannelParams.from_ratio(0.05)
        result = train("mlp", params, small_config(minibatch_blocks=4), n=8)
        assert len(result.history) == 2

    def test_hidden_sizes_both_kinds(self):
        rng = np.random.default_rng(0)
        assert create_model("mlp", 4, rng).hidden_size == 16
        assert create_model("mlp", 4, rng, hidden=6).hidden_size == 6
        assert create_model("rnn", 4, rng).hidden_size == 71

    def test_unknown_kind(self, offset_channel):
        with pytest.raises(ParameterError):
            train("lstm", offset_channel, small_config())

    def test_divergence_guard(self, offset_channel, monkeypatch):
        def poisoned(model, y, target):
            return float("nan"), {name: np.zeros_like(a) for name, a in model.param_blocks()}

        monkeypatch.setattr(RnnModel, "value_and_grad", poisoned)
        with pytest.raises(DivergenceError, match="epoch 1"):
            train("rnn", offset_channel, small_config(), n=8, hidden=4)

    def test_train_loss_non_increasing_at_small_lr(self):
        """Retrains prefix runs of 1..4 epochs; epoch-end loss over the fixed
        100-block dataset must come down monotonically at a tiny step size."""
        params = ChannelParams.from_ratio(0.08)
        losses = []
        for epochs in (1, 2, 3, 4):
            cfg = TrainConfig(epochs=epochs, minibatch_blocks=4, train_blocks=100,
                              validation_blocks=20, seed=77, learning_rate=1e-5)
            result = train("mlp", params, cfg, n=8)
            x, y = sample_block_matrix(params, 8, 100, seed=derive_seed(77, 1))
            losses.append(result.model.value_and_grad(y, x.astype(float))[0])
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
