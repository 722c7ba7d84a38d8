"""From-scratch trainable detector networks: activations, models, Adam, training, weights IO.

Each network is a dict of named parameter arrays; ``models.param_shapes``
is the one table of their names and shapes, and the ``models`` docstring
states the gate equations of the recurrent layers.
"""

from .layers import relu, sigmoid, xavier_uniform_init
from .models import KIND_MLP, KIND_RNN, MlpModel, RnnModel, create_model, param_shapes
from .optim import AdamState, adam_step
from .training import (
    DESK_TRAIN_BLOCKS,
    MINIBATCH_BLOCKS,
    PAPER_TRAIN_BLOCKS,
    EpochRecord,
    TrainConfig,
    TrainResult,
    train,
    validation_ber,
)
from .weights_io import load_weights, read_weight_manifest, save_weights
