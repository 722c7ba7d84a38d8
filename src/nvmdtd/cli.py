"""Command-line surface: data generation, training, analytic queries, evaluation,
dynamic-threshold runs, sweeps, and recalibration sessions.

Every flag except ``--config``, ``--out`` and ``--paper-scale`` sets one
config key (``_FLAG_KEYS``) before the config is resolved.  ``main`` runs
every command: resolve, create ``--out``, run, then echo the resolved config
to ``<out>/config-resolved.json``, from which a rerun reproduces the run.
A refused run removes the ``--out`` it created when nothing was written there.
This module decides which files a command writes, through :func:`write_csv`
and :func:`write_json`; datasets and weight files have writers of their own.

Exit codes: 0 success, 2 configuration or parameter problem (a channel value
outside the accepted range included), 3 numeric failure (training divergence,
root bracketing), 4 missing, unreadable or mismatched asset.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

from . import analytic, harness
from .channel import derive_seed, sample_block_matrix, save_dataset
from .config import (
    channel_params,
    load_config,
    quantizer_spec,
    resolve_config,
    train_config,
)
from .detectors import GenieDetector, NnDetector
from .errors import (
    ConfigError,
    DivergenceError,
    FormatError,
    MissingAssetError,
    NoRootError,
    NvmdtdError,
)
from .nn.training import train
from .nn.weights_io import load_weights, save_weights

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_ASSET = 4

# The columns of each CSV file a command writes, and the SessionLog attributes in session.json.
SWEEP_COLUMNS = ("ratio", "mu_b", "sigma_b_over_mu1", "noise_model", "detector",
                 "r_th", "errors", "bits", "ber", "ci")
CURVE_COLUMNS = ("epoch", "val_ber", "train_loss")
SESSION_COLUMNS = ("segment", "start_block", "bits_pre", "errors_pre", "ber_pre",
                   "bits_post", "errors_post", "ber_post", "triggers", "nn_blocks")
SESSION_SUMMARY = ("final_threshold", "nn_blocks_total", "triggers_total", "thresholds")


def write_csv(path: Path, columns: tuple[str, ...], rows) -> None:
    """Write a header of ``columns``, then per row each column's dict item or attribute."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([row[c] if isinstance(row, dict) else getattr(row, c) for c in columns]
                         for row in rows)


def write_json(path: Path, doc: dict) -> None:
    """Write ``doc`` as strict JSON (no NaN or Infinity), indented by two, with a final newline."""
    path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def echo_config(cfg: dict, out: Path, command: str) -> None:
    """Write the fully resolved config, with the command that ran it, into ``out``."""
    write_json(out / "config-resolved.json", {"command": command} | cfg)


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvmdtd",
        description="Read-channel detection laboratory: simulate, train, calibrate, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, out_required: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", required=out_required, help="output directory")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--paper-scale", action="store_true",
                       help="use full published data budgets instead of desk scale")
        return p

    add("gen", "generate a dataset file from the configured channel")
    add("train", "train a detector network and write weights plus the validation curve")
    a = add("analytic", "print reference thresholds and their BERs", out_required=False)
    a.add_argument("--ratio", type=float, help="sigma0/mu0 variation level")
    a.add_argument("--mu-b", type=float, help="offset mean in kOhm")
    a.add_argument("--sigma-b-over-mu1", type=float, help="offset std relative to mu1")
    a.add_argument("--mu0", type=float)
    a.add_argument("--mu1", type=float)
    add("eval", "Monte-Carlo evaluate detectors at one operating point")
    d = add("dtd", "derive an adjusted threshold from detector outputs")
    d.add_argument("--weights", help="weight file for the labeling network")
    d.add_argument("--genie", action="store_true", help="use the true bits as labels")
    s = add("sweep", "run a detector-by-operating-point BER sweep")
    s.add_argument("--weights-mlp", help="weight file for the mlp rows")
    s.add_argument("--weights-rnn", help="weight file for the rnn rows")
    se = add("session", "simulate the threshold-with-recalibration deployment loop")
    se.add_argument("--weights", help="weight file for the recalibration network")
    se.add_argument("--genie", action="store_true", help="use the true bits as labels")
    return parser


# The config key each flag sets; "{command}" is the running command's section.
_FLAG_KEYS = {
    "seed": "seed",
    **{k: f"channel.{k}" for k in ("ratio", "mu_b", "sigma_b_over_mu1", "mu0", "mu1")},
    "genie": "{command}.genie", "weights": "{command}.weights",
    "weights_mlp": "sweep.weights.mlp", "weights_rnn": "sweep.weights.rnn",
}


def _resolved(args) -> dict:
    user = load_config(args.config) if args.config else {}
    # A config-resolved.json echo names the command that wrote it.
    command = user.pop("command", args.command)
    if command != args.command:
        raise ConfigError(f"config was resolved for command {command!r}, not {args.command!r}")
    for dest, key in _FLAG_KEYS.items():
        value = getattr(args, dest, None)
        if value is None or value is False:  # flag not given
            continue
        *sections, leaf = key.format(command=command).split(".")
        node = user
        for name in sections:
            node = node.setdefault(name, {}) if isinstance(node, dict) else None
        if isinstance(node, dict):  # else resolve_config reports the malformed section
            node[leaf] = value
    return resolve_config(user, paper_scale=args.paper_scale)


def _load_asset(path_str: str):
    path = Path(path_str)
    if not path.is_file():
        raise MissingAssetError(f"weight file not found: {path}")
    return load_weights(path)


def _labeler(cfg: dict, section: str):
    """The labeling detector of ``cfg[section]``: the true bits or a weight file."""
    sec = cfg[section]
    if sec["genie"]:
        return GenieDetector()
    if sec["weights"] is None:
        raise MissingAssetError(f"{section} needs --genie or a --weights file")
    return NnDetector(_load_asset(sec["weights"]))


def _sweep(cfg: dict, section: str, out: Path, channels: list[dict]) -> list[dict]:
    """Run ``cfg[section]``'s detectors at ``channels``, all built first, into ``<section>.csv``."""
    # A point's row labels are its channel keys as the config gives them.
    points = tuple(({k: ch[k] for k in SWEEP_COLUMNS[:4]}, channel_params(ch))
                   for ch in channels)
    sec = cfg[section]
    spec = harness.SweepSpec(
        points=points,
        detectors=tuple(sec["detectors"]),
        blocks_per_point=sec["blocks"],
        seed=cfg["seed"],
        n=cfg["n"],
        calib_blocks=sec["calib_blocks"],
        quantizer=quantizer_spec(sec["quantizer"]),
    )
    used = {name.removeprefix("dtd-") for name in spec.detectors}  # "dtd-mlp" uses the mlp
    assets = {k: _load_asset(v) for k, v in sec["weights"].items() if v is not None and k in used}
    for kind, model in assets.items():
        if model.kind != kind:
            raise FormatError(f"{section}.weights.{kind} is {sec['weights'][kind]}, whose "
                              f"network is of kind {model.kind}, not {kind}")
    rows = harness.run_sweep(spec, assets=assets)
    write_csv(out / f"{section}.csv", SWEEP_COLUMNS, rows)
    return rows


def cmd_gen(cfg: dict, out: Path) -> None:
    params = channel_params(cfg["channel"])
    n = cfg["n"]
    x, y = sample_block_matrix(params, n, cfg["gen"]["blocks"], cfg["seed"])
    save_dataset(out / "dataset.txt", x, y, params)
    print(f"wrote {len(x)} blocks of {n} bits to {out / 'dataset.txt'}")


def cmd_train(cfg: dict, out: Path) -> None:
    params = channel_params(cfg["channel"])
    kind = cfg["train"]["kind"]
    tc = train_config(cfg)
    result = train(kind, params, tc, n=cfg["n"], hidden=cfg["train"]["hidden"])
    write_csv(out / "curve.csv", CURVE_COLUMNS, result.history)
    weight_path = out / f"weights-{kind}.nvmw"
    save_weights(result.model, weight_path, seed=cfg["seed"], n=cfg["n"])
    final = result.history[-1]
    print(f"trained {kind}: {tc.epochs} epochs, final validation BER {final.val_ber:.3e}")
    print(f"weights: {weight_path}")


def cmd_analytic(cfg: dict, out: Path | None) -> None:
    ch = cfg["channel"]
    params = channel_params(ch)
    refs = analytic.reference_thresholds(params)
    print(
        "channel: "
        + json.dumps({k: ch[k] for k in ("mu0", "mu1", "ratio", "mu_b", "sigma_b_over_mu1")})
    )
    print(f"{'detector':<16} {'method':<17} {'r_th (kOhm)':>12} {'ber':>13}")
    for name, res in refs.items():
        ber_true = analytic.ber_variable_offset(res.r_th, params)
        print(f"{name:<16} {res.method.value:<17} {res.r_th:>12.6f} {ber_true:>13.6e}")


def cmd_eval(cfg: dict, out: Path) -> None:
    for row in _sweep(cfg, "eval", out, [cfg["channel"]]):
        print(f"{row['detector']:<16} ber={row['ber']:.6e} ci={row['ci']:.2e}")


def cmd_dtd(cfg: dict, out: Path) -> None:
    params = channel_params(cfg["channel"])
    detector = _labeler(cfg, "dtd")
    result = harness.dtd_calibrate(
        detector, params, cfg["dtd"]["blocks"], derive_seed(cfg["seed"], 0), n=cfg["n"]
    )
    # An unbounded side of the tie interval is written as null.
    write_json(out / "dtd.json", dataclasses.asdict(result) | {
        "interval": [v if math.isfinite(v) else None for v in result.interval],
        "reference_optimum": analytic.optimal_threshold_bisection(params).r_th})
    print(f"adjusted threshold {result.r_adj:.6f} kOhm "
          f"(objective {result.objective}, interval {result.interval})")


def cmd_sweep(cfg: dict, out: Path) -> None:
    sw = cfg["sweep"]
    # Each grid point is the channel section with the sweep's keys laid over it.
    fixed = {k: sw[k] for k in ("sigma_b_over_mu1", "noise_model")}
    channels = [cfg["channel"] | fixed | {"ratio": ratio, "mu_b": mu_b}
                for ratio in sw["ratios"] for mu_b in sw["mu_b_values"]]
    rows = _sweep(cfg, "sweep", out, channels)
    print(f"wrote {len(rows)} rows to {out / 'sweep.csv'}")


def cmd_session(cfg: dict, out: Path) -> None:
    se = cfg["session"]
    segments = tuple((seg["start_block"], channel_params(seg["channel"])) for seg in se["segments"])
    schedule = harness.DriftSchedule(
        segments=segments, total_blocks=se["total_blocks"],
        trigger=harness.TriggerPolicy(**se["trigger"]),
    )
    detector = _labeler(cfg, "session")
    log = harness.simulate_recalibration_session(
        schedule, detector, seed=derive_seed(cfg["seed"], 0), m_blocks=se["m_blocks"],
        initial_threshold=se["initial_threshold"], n=cfg["n"],
    )
    write_csv(out / "session.csv", SESSION_COLUMNS, log.segments)
    write_json(out / "session.json", {k: getattr(log, k) for k in SESSION_SUMMARY})
    print(f"session done: {log.triggers_total} recalibrations, "
          f"{log.nn_blocks_total} network blocks, final threshold {log.final_threshold:.6f}")


_COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "analytic": cmd_analytic,
    "eval": cmd_eval,
    "dtd": cmd_dtd,
    "sweep": cmd_sweep,
    "session": cmd_session,
}


# A refused run's exit code: the first entry naming its error's class (MemoryError: a bad size).
_EXIT_CODES = ((EXIT_NUMERIC, (DivergenceError, NoRootError, ArithmeticError)),
               (EXIT_ASSET, (MissingAssetError, FormatError)),
               (EXIT_CONFIG, (NvmdtdError, MemoryError)))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = Path(args.out) if args.out else None  # only analytic may run without --out
    created = False  # --out was absent before this call, and may be made by it
    try:
        cfg = _resolved(args)
        if out is not None:
            try:
                created = not out.exists()
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"--out {out} cannot be a directory: {exc}")
        _COMMANDS[args.command](cfg, out)
        if out is not None:
            echo_config(cfg, out, args.command)
        return EXIT_OK
    except (NvmdtdError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if created and out.is_dir() and not any(out.iterdir()):
            out.rmdir()
        return next(code for code, kinds in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
