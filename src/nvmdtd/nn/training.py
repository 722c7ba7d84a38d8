"""Minibatch Adam training of the detector networks on freshly sampled channel data.

A training run is fully determined by ``(kind, channel params, config)``:
model initialization, the training and validation datasets, and the
per-epoch shuffle order all come from fixed lanes of the config seed.
After every epoch the model's hard-decision bit error rate is measured on
the held-out validation set, which is the convergence curve callers plot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..channel import ChannelParams, derive_seed, sample_block_matrix
from ..detectors import hard_decision
from ..errors import DivergenceError, ParameterError
from .models import KIND_MLP, KIND_RNN, MlpModel, RnnModel, create_model
from .optim import AdamState, adam_step

# Block budgets: full scale matches the published training-sample sizes
# (bits / N); desk scale is 1/25 of that for workstation runs.
PAPER_TRAIN_BLOCKS = {KIND_MLP: 1_000_000, KIND_RNN: 40_000}
DESK_TRAIN_BLOCKS = {KIND_MLP: 40_000, KIND_RNN: 1_600}
# Minibatch sizes of 4N and 2N bits, i.e. whole blocks.
MINIBATCH_BLOCKS = {KIND_MLP: 4, KIND_RNN: 2}

_SEED_LANE_INIT = 0
_SEED_LANE_TRAIN = 1
_SEED_LANE_VAL = 2
_SEED_LANE_SHUFFLE = 3


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    minibatch_blocks: int
    train_blocks: int
    validation_blocks: int
    seed: int
    learning_rate: float

    def __post_init__(self):
        for field_name in ("epochs", "minibatch_blocks", "train_blocks", "validation_blocks"):
            if getattr(self, field_name) < 1:
                raise ParameterError(f"{field_name} must be >= 1")
        if self.learning_rate <= 0:
            raise ParameterError("learning rate must be positive")
        if self.seed < 0:
            raise ParameterError("seed must be non-negative")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    val_ber: float
    train_loss: float


@dataclass
class TrainResult:
    model: MlpModel | RnnModel
    history: list[EpochRecord]


def validation_ber(model, x_bits: np.ndarray, y_reads: np.ndarray,
                   chunk_blocks: int = 512) -> float:
    """Hard-decision bit error rate of the model over a labeled block matrix."""
    errors = 0
    total = x_bits.size
    for start in range(0, x_bits.shape[0], chunk_blocks):
        hard = hard_decision(model.forward(y_reads[start:start + chunk_blocks]))
        errors += int(np.count_nonzero(hard != x_bits[start:start + chunk_blocks]))
    return errors / total


def train(kind: str, params: ChannelParams, config: TrainConfig,
          n: int, hidden: int | None = None) -> TrainResult:
    """Train a fresh model of the given kind on data sampled from ``params``.

    Raises :class:`DivergenceError` as soon as a minibatch loss goes
    non-finite or a float operation overflows or is invalid.  Two calls with
    identical arguments produce bit-identical weights.
    """
    init_rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(_SEED_LANE_INIT,))
    )
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(_SEED_LANE_SHUFFLE,))
    )
    x_train, y_train = sample_block_matrix(
        params, n, config.train_blocks, derive_seed(config.seed, _SEED_LANE_TRAIN)
    )
    x_val, y_val = sample_block_matrix(
        params, n, config.validation_blocks, derive_seed(config.seed, _SEED_LANE_VAL)
    )
    t_train = x_train.astype(np.float64)

    model = create_model(kind, n, init_rng, hidden=hidden)
    state = AdamState.for_params(model.params)

    history: list[EpochRecord] = []
    # An overflow or invalid operation in a step or a validation pass is divergence. No
    # learning-rate range rules it out: the recurrent backward pass multiplies N Jacobians.
    try:
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(1, config.epochs + 1):
                order = shuffle_rng.permutation(config.train_blocks)
                loss_sum = 0.0
                steps = 0
                for start in range(0, config.train_blocks, config.minibatch_blocks):
                    idx = order[start:start + config.minibatch_blocks]
                    loss, grads = model.value_and_grad(y_train[idx], t_train[idx])
                    if not np.isfinite(loss):
                        raise FloatingPointError("non-finite loss")
                    adam_step(model.params, grads, state, lr=config.learning_rate)
                    loss_sum += loss
                    steps += 1
                history.append(
                    EpochRecord(
                        epoch=epoch,
                        val_ber=validation_ber(model, x_val, y_val),
                        train_loss=loss_sum / steps,
                    )
                )
    except FloatingPointError as exc:
        raise DivergenceError(f"{exc} at epoch {epoch}, step {steps} (kind={kind}, "
                              f"lr={config.learning_rate})") from None
    return TrainResult(model=model, history=history)
