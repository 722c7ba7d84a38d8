"""Golden output digests: the sha256 of every file and of the stdout of small CLI runs.

Each case runs one ``nvmdtd`` command through ``cli.main`` in this process,
in its own ``--out`` directory.  A digest is keyed by the file's path
relative to ``--out`` (stdout under ``<stdout>``).  Before hashing, the
checkout path and the ``--out`` path are replaced by ``<checkout>`` and
``<out>``, so the digests do not depend on where the repository or the
scratch directory lives.

Byte identity holds at a fixed BLAS thread count and numpy version; the
table was recorded at one BLAS thread.  Run as a script, it sets
``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` to 1 before numpy is
imported; imported as a module, it changes no environment variable::

    PYTHONPATH=src python tests/golden.py           # compare
    PYTHONPATH=src python tests/golden.py --update  # rewrite

A change that declares a seeded difference regenerates ``golden.json`` with
``--update``, which first prints one line per moved digest (case/file:
old -> new), the same lines a compare run fails with.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
WEIGHTS = CHECKOUT / "perfbench" / "weights"
STDOUT_KEY = "<stdout>"

_OFFSET = {"ratio": 0.1, "mu_b": -0.2, "sigma_b_over_mu1": 0.04}
_BETA = {"ratio": 0.08, "mu_b": -0.2, "sigma_b_over_mu1": 0.04, "noise_model": "centered-beta"}
_NETS = ["midpoint", "opt-full", "mlp", "rnn", "dtd-mlp", "dtd-rnn"]
_SEGMENTS = [{"start_block": 0, "channel": _OFFSET},
             {"start_block": 150, "channel": _OFFSET | {"mu_b": -0.35}}]

# name -> (command, config document, flags); "{weights}" is perfbench/weights.
CASES = {
    "gen": ("gen", {"seed": 3, "channel": _OFFSET, "gen": {"blocks": 40}}, []),
    "gen-beta": ("gen", {"seed": 4, "n": 9, "channel": _BETA, "gen": {"blocks": 30}}, []),
    "train-rnn": ("train", {"seed": 321, "n": 12, "channel": _OFFSET, "train": {
        "kind": "rnn", "epochs": 2, "train_blocks": 60, "validation_blocks": 40,
        "hidden": 8}}, []),
    "train-mlp": ("train", {"seed": 322, "n": 12, "channel": _OFFSET, "train": {
        "kind": "mlp", "epochs": 3, "train_blocks": 200, "validation_blocks": 40,
        "hidden": 16}}, []),
    "analytic": ("analytic", {"channel": _OFFSET}, []),
    "analytic-beta": ("analytic", {"channel": _BETA}, []),
    "eval-nets": ("eval", {"seed": 11, "channel": _OFFSET, "eval": {
        "blocks": 300, "calib_blocks": 40, "detectors": _NETS,
        "weights": {"mlp": "{weights}/weights-mlp.nvmw",
                    "rnn": "{weights}/weights-rnn.nvmw"}}}, []),
    "eval-beta": ("eval", {"seed": 12, "channel": _BETA, "eval": {
        "blocks": 2000, "detectors": ["midpoint", "opt-no-offset", "opt-mean-offset",
                                      "opt-full", "genie"]}}, []),
    "dtd-genie": ("dtd", {"seed": 13, "channel": _OFFSET, "dtd": {"blocks": 200}},
                  ["--genie"]),
    "dtd-rnn": ("dtd", {"seed": 14, "channel": _OFFSET, "dtd": {"blocks": 40}},
                ["--weights", "{weights}/weights-rnn.nvmw"]),
    "sweep-nets": ("sweep", {"seed": 15, "sweep": {
        "ratios": [0.08, 0.12], "mu_b_values": [-0.2], "sigma_b_over_mu1": 0.04,
        "blocks": 120, "calib_blocks": 30, "detectors": _NETS + ["optimum-bound"],
        "quantizer": {"bits": 6}}},
        ["--weights-mlp", "{weights}/weights-mlp.nvmw",
         "--weights-rnn", "{weights}/weights-rnn.nvmw"]),
    "sweep-beta": ("sweep", {"seed": 16, "n": 16, "sweep": {
        "ratios": [0.05, 0.1], "mu_b_values": [0.0, -0.2], "sigma_b_over_mu1": 0.04,
        "noise_model": "centered-beta", "blocks": 500}}, []),
    "session-periodic": ("session", {"seed": 17, "session": {
        "segments": _SEGMENTS, "total_blocks": 400, "m_blocks": 30,
        "trigger": {"kind": "periodic", "period": 100}}}, ["--genie"]),
    "session-on-failure": ("session", {"seed": 18, "n": 71, "session": {
        "segments": _SEGMENTS, "total_blocks": 300, "m_blocks": 20,
        "trigger": {"kind": "on_failure", "threshold": 0.03}}},
        ["--weights", "{weights}/weights-rnn.nvmw"]),
}


def _fill(value):
    """``value`` with every ``{weights}`` replaced by the stored weights directory."""
    if isinstance(value, str):
        return value.replace("{weights}", str(WEIGHTS))
    if isinstance(value, dict):
        return {k: _fill(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_fill(v) for v in value]
    return value


def _digest(data: bytes, out: Path) -> str:
    for path, token in ((out, b"<out>"), (CHECKOUT, b"<checkout>")):
        data = data.replace(str(path).encode(), token)
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, root: Path) -> dict:
    """Run case ``name`` under ``root``; its digests keyed by path relative to ``--out``."""
    from nvmdtd.cli import main

    command, doc, flags = CASES[name]
    out = root / name
    config = root / f"{name}.json"
    config.write_text(json.dumps(_fill(doc)))
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main([command, "--config", str(config), "--out", str(out)] + _fill(flags))
    if code != 0:
        raise RuntimeError(f"case {name} exited {code}")
    digests = {STDOUT_KEY: _digest(printed.getvalue().encode(), out)}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digests[path.relative_to(out).as_posix()] = _digest(path.read_bytes(), out)
    return digests


def run_all() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: run_case(name, Path(tmp)) for name in CASES}


def differences(expected: dict, actual: dict) -> list[str]:
    """One line per case or file whose digest is missing, extra or different."""
    lines = []
    for name in sorted(expected.keys() | actual.keys()):
        want, got = expected.get(name, {}), actual.get(name, {})
        for key in sorted(want.keys() | got.keys()):
            if want.get(key) != got.get(key):
                lines.append(f"{name}/{key}: {want.get(key)} -> {got.get(key)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--update", action="store_true",
                        help=f"print the moved digests, then rewrite {GOLDEN.name}")
    args = parser.parse_args(argv)
    actual = run_all()
    diff = differences(json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}, actual)
    print("\n".join(diff) if diff else "all digests match")
    if args.update:
        GOLDEN.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        print(f"wrote {sum(map(len, actual.values()))} digests to {GOLDEN}")
        return 0
    return 1 if diff else 0


if __name__ == "__main__":
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")  # before run_case imports numpy
    sys.exit(main())
