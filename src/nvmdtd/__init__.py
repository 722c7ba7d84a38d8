"""Read-channel detection laboratory for two-state non-volatile memories.

Simulate the resistance read channel with unknown high-state offset, train
small neural detectors from scratch, derive dynamic sensing thresholds
from their outputs, and check everything against closed-form and numerical
optimum detectors via Monte-Carlo bit-error-rate estimation.
"""

from .analytic import (
    Method,
    ThresholdResult,
    ber_variable_offset,
    optimal_threshold_bisection,
    optimal_threshold_closed_form,
    q_function,
    reference_thresholds,
)
from .channel import (
    ChannelParams,
    NoiseModel,
    QuantizerSpec,
    beta_alpha_for_sigma,
    derive_sigmas,
    derive_seed,
    load_dataset,
    quantize,
    sample_block_matrix,
    save_dataset,
    superblock_stream,
)
from .detectors import (
    DtdResult,
    GenieDetector,
    NnDetector,
    ThresholdDetector,
    dtd_search,
    hard_decision,
    threshold_detect,
)
from .harness import (
    BerEstimate,
    DriftSchedule,
    SessionLog,
    SweepSpec,
    TriggerPolicy,
    dtd_calibrate,
    estimate_ber,
    estimate_ber_paired,
    run_sweep,
    simulate_recalibration_session,
)
from .nn import (
    MlpModel,
    RnnModel,
    TrainConfig,
    TrainResult,
    count_params,
    load_weights,
    save_weights,
    train,
)

__version__ = "0.1.0"
