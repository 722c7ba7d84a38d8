import pytest

from nvmdtd import ChannelParams, MlpModel
from nvmdtd.nn.training import TrainConfig, train


@pytest.fixture(scope="session")
def offset_channel() -> ChannelParams:
    """Small-variation channel with the standard negative offset setting."""
    return ChannelParams.from_ratio(0.05, mu_b=-0.2, sigma_b_over_mu1=0.04)


@pytest.fixture(scope="session")
def active_offset_channel() -> ChannelParams:
    """Offset channel at 10% variation, where detection errors are plentiful."""
    return ChannelParams.from_ratio(0.10, mu_b=-0.2, sigma_b_over_mu1=0.04)


@pytest.fixture(scope="session")
def trained_tiny_mlp():
    """A small MLP trained to saturation on an easily separable channel.

    Used wherever a test needs a genuinely working detector without paying
    for full-size training.
    """
    params = ChannelParams.from_ratio(0.02, mu0=1.0, mu1=2.0)
    config = TrainConfig(
        epochs=60, minibatch_blocks=4, train_blocks=400, validation_blocks=100, seed=424242,
        learning_rate=1e-3,
    )
    result = train("mlp", params, config, n=8)
    assert isinstance(result.model, MlpModel)
    return params, result.model
