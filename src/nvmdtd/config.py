"""Run configuration: one JSON document, strict keys, full defaulting.

Unknown keys, mistyped values and non-finite numbers are rejected with
their JSON path so typos fail fast.  The CLI folds its flags into the user
document before resolving it, and echoes the fully resolved document
(defaults and scale-dependent budgets applied) next to every command's
outputs; rerunning from that echo alone reproduces the run.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

from .channel import ChannelParams, NoiseModel, QuantizerSpec
from .errors import ConfigError
from .nn.training import DESK_TRAIN_BLOCKS, MINIBATCH_BLOCKS, PAPER_TRAIN_BLOCKS, TrainConfig

_CHANNEL_DEFAULTS = {
    "mu0": 1.0,
    "mu1": 2.0,
    "ratio": 0.05,
    "mu_b": 0.0,
    "sigma_b_over_mu1": 0.0,
    "noise_model": "gaussian",
}

DEFAULT_CONFIG = {
    "seed": 12345,
    "n": 71,
    "channel": dict(_CHANNEL_DEFAULTS),
    "gen": {"blocks": 100},
    "train": {
        "kind": "rnn",
        "epochs": 15,
        "minibatch_blocks": None,
        "learning_rate": 1e-3,
        "train_blocks": None,
        "validation_blocks": 400,
        "hidden": None,
    },
    "eval": {
        "blocks": None,
        "detectors": ["midpoint", "opt-no-offset", "opt-mean-offset", "opt-full"],
        "calib_blocks": 100,
        "quantizer": None,
        "weights": {"mlp": None, "rnn": None},
    },
    "dtd": {"blocks": 100, "genie": False, "weights": None},
    "sweep": {
        "ratios": [0.05, 0.08, 0.10, 0.12],
        "mu_b_values": [0.0],
        "sigma_b_over_mu1": 0.0,
        "noise_model": "gaussian",
        "detectors": ["midpoint", "opt-no-offset", "opt-mean-offset", "opt-full", "optimum-bound"],
        "blocks": None,
        "calib_blocks": 100,
        "quantizer": None,
        "weights": {"mlp": None, "rnn": None},
    },
    "session": {
        "segments": [{"start_block": 0, "channel": dict(_CHANNEL_DEFAULTS)}],
        "total_blocks": 2000,
        "trigger": {"kind": "periodic", "period": 500, "threshold": 2.0 / 71.0},
        "m_blocks": 100,
        "initial_threshold": None,
        "genie": False,
        "weights": None,
    },
}

# Desk-scale evaluation uses 1e5 blocks; full scale the published 1e6 N bits.
DESK_EVAL_BLOCKS = 100_000
PAPER_EVAL_BLOCKS = 1_000_000


def load_config(path) -> dict:
    """Read a JSON config; parse errors keep their line and column."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


# Value types of the keys whose default is null (null itself stays allowed).
_NULLABLE_TYPES = {
    "minibatch_blocks": int, "train_blocks": int, "hidden": int, "blocks": int,
    "weights": str, "mlp": str, "rnn": str, "initial_threshold": float,
}
# Sizes that nothing downstream range-checks: when set, an integer >= 1.
_POSITIVE_INTS = {"n", "hidden"}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false",
               list: "a list", dict: "an object"}


def _check_type(here: str, base, value) -> None:
    """Reject a value whose JSON type differs from the default's; an int passes for a float."""
    key = here.rsplit(".", 1)[-1]
    expected = _NULLABLE_TYPES.get(key) if base is None else type(base)
    if expected is None or (base is None and value is None):
        return
    ok = isinstance(value, (int, float) if expected is float else expected) and (
        expected is bool or not isinstance(value, bool))
    if key in _POSITIVE_INTS and not (ok and value >= 1):
        raise ConfigError(f"{here} must be a positive integer, got {value!r}")
    if not ok:
        raise ConfigError(f"{here} must be {_TYPE_NAMES[expected]}, got {value!r}")
    # JSON NaN and Infinity parse, and so does an integer no float can hold.
    if expected is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{here} must be a finite number, got {value!r}")
    if expected is list and base:
        for i, item in enumerate(value):
            _check_type(f"{here}[{i}]", base[0], item)


def _merge(defaults, user, path: str):
    """Overlay user values on defaults, rejecting unknown keys and mistyped values.

    The result keeps the defaults' key order, and each default the user
    leaves alone is copied once.
    """
    if not isinstance(user, dict):
        raise ConfigError(f"{path or '<root>'}: expected an object, got {type(user).__name__}")
    out = {}
    for key, value in user.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {here}")
        base = defaults[key]
        if key == "quantizer" and value is not None:  # a set quantizer gets every key
            base = dataclasses.asdict(QuantizerSpec(bits=3))
        if isinstance(base, dict):
            out[key] = _merge(base, value, here)
        elif isinstance(base, list) and base and isinstance(base[0], dict):
            # Each object of such a list gets the default item's keys and checks.
            _check_type(here, base, value)
            out[key] = [_merge(base[0], item, f"{here}[{i}]") for i, item in enumerate(value)]
        else:
            _check_type(here, base, value)
            out[key] = copy.deepcopy(value)
    return {key: out[key] if key in out else copy.deepcopy(base) for key, base in defaults.items()}


def resolve_config(user: dict | None, paper_scale: bool = False) -> dict:
    """Apply defaults and scale-dependent budgets (written out as numbers)."""
    cfg = _merge(DEFAULT_CONFIG, user or {}, "")

    kind = cfg["train"]["kind"]
    if kind not in MINIBATCH_BLOCKS:
        raise ConfigError(f"train.kind must be one of {sorted(MINIBATCH_BLOCKS)}, got {kind!r}")
    budgets = PAPER_TRAIN_BLOCKS if paper_scale else DESK_TRAIN_BLOCKS
    if cfg["train"]["minibatch_blocks"] is None:
        cfg["train"]["minibatch_blocks"] = MINIBATCH_BLOCKS[kind]
    if cfg["train"]["train_blocks"] is None:
        cfg["train"]["train_blocks"] = budgets[kind]
    eval_blocks = PAPER_EVAL_BLOCKS if paper_scale else DESK_EVAL_BLOCKS
    if cfg["eval"]["blocks"] is None:
        cfg["eval"]["blocks"] = eval_blocks
    if cfg["sweep"]["blocks"] is None:
        cfg["sweep"]["blocks"] = eval_blocks
    return cfg


def noise_model(value: str, where: str = "channel") -> NoiseModel:
    """The noise model named by a config's ``<where>.noise_model`` string."""
    try:
        return NoiseModel(value)
    except ValueError:
        raise ConfigError(
            f"{where}.noise_model must be one of "
            f"{[m.value for m in NoiseModel]}, got {value!r}"
        )


def channel_params(section: dict, where: str = "channel") -> ChannelParams:
    """The channel of a resolved channel section; errors name ``<where>.noise_model``."""
    return ChannelParams.from_ratio(
        ratio=section["ratio"],
        mu_b=section["mu_b"],
        sigma_b_over_mu1=section["sigma_b_over_mu1"],
        noise_model=noise_model(section["noise_model"], where),
        mu0=section["mu0"],
        mu1=section["mu1"],
    )


def quantizer_spec(section: dict | None) -> QuantizerSpec | None:
    """The quantizer of a resolved ``quantizer`` key; None reads unquantized."""
    return None if section is None else QuantizerSpec(**section)


def train_config(cfg: dict) -> TrainConfig:
    t = cfg["train"]
    return TrainConfig(
        epochs=t["epochs"],
        minibatch_blocks=t["minibatch_blocks"],
        train_blocks=t["train_blocks"],
        validation_blocks=t["validation_blocks"],
        seed=cfg["seed"],
        learning_rate=t["learning_rate"],
    )
