"""From-scratch trainable detector networks: layers, models, Adam, training, weights IO."""

from .layers import DenseLayer, GruLayer, relu, sigmoid, xavier_uniform_init
from .models import KIND_MLP, KIND_RNN, MlpModel, RnnModel, count_params, create_model
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
