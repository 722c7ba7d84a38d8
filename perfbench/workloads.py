"""The workloads: how each op's CLI input is drawn from the seed, and its gates.

One op is one ``nvmdtd`` invocation.  Op ``i`` of a run is drawn from
``(workload seed, i)`` alone.  Generated configs leave ``threads`` and the
per-section ``n`` keys at their defaults.  Every gate is an invariant of
the channel law, not of particular random draws, so it still holds after a
declared change in how the package seeds its streams.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.optimize import brentq
from scipy.special import betaincinv

from nvmdtd import ChannelParams, NoiseModel, analytic, load_weights

WEIGHTS_DIR = Path(__file__).resolve().parent / "weights"
WEIGHTS = {"rnn": WEIGHTS_DIR / "weights-rnn.nvmw", "mlp": WEIGHTS_DIR / "weights-mlp.nvmw"}

N = 71  # the paper's block length, which the package uses by default
# Two-sided level of the Clopper-Pearson gate.  Rows of one run share
# blocks, so with ~10^3 rows a run falsely fails with probability ~10^-3.
CP_ALPHA = 1e-6
DTD_TOLERANCE = 0.15  # kOhm between a DTD threshold and the optimum
# A session recalibrates from only M_BLOCKS blocks, and its distance to the
# optimum depends on the segment's channel: over 1845 recalibrations it was
# 0.047 +- 0.034 kOhm below the optimum, at most 0.15.  So a session passes
# when its recalibrations lie within DTD_TOLERANCE of their optima on
# average (6 standard deviations above the mean of 240 sessions) and each
# within 2 * DTD_TOLERANCE; one at the midpoint (0.23 away) fails the first.
NN_BER_BOUND = 0.05  # trained networks reach ~1e-2 on the eval channel
TRAIN_BER_BOUND = 0.15  # a short run from scratch reaches 0.02-0.05; chance is 0.5

THRESHOLD_ROWS = ("midpoint", "opt-no-offset", "opt-mean-offset", "opt-full", "dtd-rnn", "dtd-mlp")


@dataclass
class Op:
    command: str
    config: dict
    bits: int  # channel bits the op simulates, detects, trains on or streams
    # Gate: reads the op's output directory, returns (failures, statistics).
    check: Callable[[Path], tuple[list[str], dict]]


def clopper_pearson(errors: int, bits: int, alpha: float = CP_ALPHA) -> tuple[float, float]:
    """Exact two-sided binomial interval (Clopper & Pearson, 1934)."""
    lo = 0.0 if errors == 0 else float(betaincinv(errors, bits - errors + 1, alpha / 2))
    hi = 1.0 if errors == bits else float(betaincinv(errors + 1, bits - errors, 1 - alpha / 2))
    return lo, hi


def optimum(params: ChannelParams) -> float:
    """Root of the BER derivative by Brent's method, independent of the package's bisection."""
    f = lambda r: analytic.ber_variable_offset_derivative(r, params)
    return brentq(f, params.mu0, params.mu1, xtol=1e-13)


def _params(channel: dict) -> ChannelParams:
    return ChannelParams.from_ratio(
        channel["ratio"], mu_b=channel["mu_b"], sigma_b_over_mu1=channel["sigma_b_over_mu1"],
        noise_model=NoiseModel(channel.get("noise_model", "gaussian")),
    )


def _offset(rng, mu_b: tuple[float, float], sb: tuple[float, float]) -> dict:
    return {"mu_b": float(rng.uniform(*mu_b)), "sigma_b_over_mu1": float(rng.uniform(*sb))}


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_eval_rows(rows, detectors, blocks, params) -> tuple[list[str], dict]:
    """Gates shared by the eval workloads."""
    failures = []
    stats = {"cp_rows": 0, "zero_error_rows": 0}
    names = [r["detector"] for r in rows]
    if names != list(detectors):
        return [f"rows {names} != detectors {list(detectors)}"], stats
    gaussian = params.noise_model is NoiseModel.GAUSSIAN
    r_opt = optimum(params) if gaussian else math.nan
    for row in rows:
        name = row["detector"]
        errors, bits = int(row["errors"]), int(row["bits"])
        r_th, ber = float(row["r_th"]), float(row["ber"])
        if name == "optimum-bound":
            if bits != 0:
                failures.append(f"{name}: bits {bits} != 0")
            if gaussian and abs(r_th - r_opt) > 1e-8:
                failures.append(f"{name}: r_th {r_th} != optimum {r_opt}")
            continue
        if bits != blocks * N or not 0 <= errors <= bits or ber != errors / bits:
            failures.append(f"{name}: inconsistent counts errors={errors} bits={bits} ber={ber}")
            continue
        if name in ("rnn", "mlp") and ber > NN_BER_BOUND:
            failures.append(f"{name}: ber {ber:.3e} > {NN_BER_BOUND}")
        if name == "opt-full" and gaussian and abs(r_th - r_opt) > 1e-8:
            failures.append(f"opt-full: r_th {r_th!r} != optimum {r_opt!r}")
        if name.startswith("dtd-") and abs(r_th - r_opt) > DTD_TOLERANCE:
            failures.append(f"{name}: r_th {r_th:.4f} is {r_th - r_opt:+.4f} from optimum")
        if gaussian and name in THRESHOLD_ROWS:
            p = analytic.ber_variable_offset(r_th, params)
            lo, hi = clopper_pearson(errors, bits)
            stats["cp_rows"] += 1
            stats["zero_error_rows"] += errors == 0
            if not lo <= p <= hi:
                failures.append(f"{name}: analytic BER {p:.3e} outside [{lo:.3e}, {hi:.3e}]")
    return failures, stats


class Workload:
    """A repeating schedule of op kinds plus the rule that draws op ``i``'s inputs from the seed."""

    name: str
    cycle: int  # ops after which the schedule of point kinds repeats
    weights: tuple[str, ...] = ()

    def op(self, seed: int, index: int) -> Op:
        rng = np.random.default_rng([seed, index])
        return self._op(rng, int(rng.integers(2**31)), index)

    def _op(self, rng, op_seed: int, index: int) -> Op:
        raise NotImplementedError


class SweepThreshold(Workload):
    name = "sweep-threshold"
    # The paper's variation ratios, Gaussian, then two centered-Beta points.
    POINTS = ((0.05, "gaussian"), (0.08, "gaussian"), (0.10, "gaussian"), (0.12, "gaussian"),
              (0.08, "centered-beta"), (0.12, "centered-beta"))
    cycle = len(POINTS)
    BLOCKS = 500
    DETECTORS = ("midpoint", "opt-no-offset", "opt-mean-offset", "opt-full", "optimum-bound")

    def _op(self, rng, op_seed, index):
        ratio, noise = self.POINTS[index % self.cycle]
        channel = {"ratio": ratio, "noise_model": noise, **_offset(rng, (-0.3, 0.0), (0.01, 0.07))}
        config = {"seed": op_seed, "channel": channel,
                  "eval": {"blocks": self.BLOCKS, "detectors": list(self.DETECTORS)}}
        # Every detector but optimum-bound samples the point's blocks; a
        # non-Gaussian point adds one empirical-search pass over fresh blocks.
        passes = len(self.DETECTORS) - 1 + (noise != "gaussian")

        def check(out: Path):
            rows = _read_rows(out / "eval.csv")
            return _check_eval_rows(rows, self.DETECTORS, self.BLOCKS, _params(channel))

        return Op("eval", config, passes * self.BLOCKS * N, check)


# The op kinds of the nn-mix workload.

class EvalRnn:
    BLOCKS = 512
    CALIB_BLOCKS = 100
    DETECTORS = ("rnn", "dtd-rnn", "mlp", "dtd-mlp")

    def make(self, rng, op_seed: int) -> Op:
        # Near the channel the stored weights were trained on.
        channel = {"ratio": 0.10, **_offset(rng, (-0.25, -0.15), (0.03, 0.05))}
        config = {
            "seed": op_seed,
            "channel": channel,
            "eval": {"blocks": self.BLOCKS, "calib_blocks": self.CALIB_BLOCKS,
                     "detectors": list(self.DETECTORS),
                     "weights": {k: str(v) for k, v in WEIGHTS.items()}},
        }
        bits = (len(self.DETECTORS) * self.BLOCKS + 2 * self.CALIB_BLOCKS) * N

        def check(out: Path):
            rows = _read_rows(out / "eval.csv")
            return _check_eval_rows(rows, self.DETECTORS, self.BLOCKS, _params(channel))

        return Op("eval", config, bits, check)


class TrainRnn:
    TRAIN_BLOCKS = 64
    VALIDATION_BLOCKS = 32
    EPOCHS = 1
    # Above the package default of 1e-3 so that 32 steps from scratch land
    # reliably below TRAIN_BER_BOUND; the cost of a step does not depend on it.
    LEARNING_RATE = 5e-3

    def make(self, rng, op_seed: int) -> Op:
        channel = {"ratio": 0.10, **_offset(rng, (-0.25, -0.15), (0.03, 0.05))}
        config = {
            "seed": op_seed,
            "channel": channel,
            "train": {"kind": "rnn", "epochs": self.EPOCHS, "train_blocks": self.TRAIN_BLOCKS,
                      "validation_blocks": self.VALIDATION_BLOCKS,
                      "learning_rate": self.LEARNING_RATE},
        }

        def check(out: Path):
            curve = _read_rows(out / "curve.csv")
            if len(curve) != self.EPOCHS:
                return [f"curve has {len(curve)} epochs, expected {self.EPOCHS}"], {}
            final = float(curve[-1]["val_ber"])
            failures = []
            if not final <= TRAIN_BER_BOUND:
                failures.append(f"final validation BER {final} > {TRAIN_BER_BOUND}")
            load_weights(out / "weights-rnn.nvmw")  # raises on a malformed file
            raw = (out / "weights-rnn.nvmw").read_bytes()
            payload = raw[raw.index(b"\ndata\n") + 6:]
            if not np.all(np.isfinite(np.frombuffer(payload, dtype="<f8"))):
                failures.append("trained weights are not finite")
            return failures, {}

        # A finite loss is gated by the exit code: the package raises on a
        # non-finite minibatch loss and the CLI then exits 3.
        return Op("train", config, self.EPOCHS * self.TRAIN_BLOCKS * N, check)


class SessionDrift:
    TOTAL_BLOCKS = 240
    M_BLOCKS = 10
    PERIOD = 20
    SEGMENTS = ((0, 0.08), (80, 0.10), (160, 0.10))  # (start block, ratio)

    def __init__(self, trigger: dict):
        self.trigger = trigger

    def make(self, rng, op_seed: int) -> Op:
        segments = [
            {"start_block": start,
             "channel": {"ratio": ratio, **_offset(rng, (-0.3, 0.0), (0.02, 0.05))}}
            for start, ratio in self.SEGMENTS
        ]
        config = {
            "seed": op_seed,
            "session": {"segments": segments, "total_blocks": self.TOTAL_BLOCKS,
                        "trigger": self.trigger, "m_blocks": self.M_BLOCKS,
                        "weights": str(WEIGHTS["rnn"])},
        }

        def check(out: Path):
            doc = json.loads((out / "session.json").read_text())
            starts = [s for s, _ in self.SEGMENTS]
            seg_of = lambda i: int(np.searchsorted(starts, i, side="right")) - 1
            optima = [optimum(_params(s["channel"])) for s in segments]
            failures = []
            distances = []
            for end, r_th in doc["thresholds"][1:]:
                first = end - self.M_BLOCKS
                if first < 0 or seg_of(first) != seg_of(end - 1):
                    continue  # calibration window straddles a drift
                dev = r_th - optima[seg_of(first)]
                distances.append(abs(dev))
                if abs(dev) > 2 * DTD_TOLERANCE:
                    failures.append(f"recalibration ending at block {end}: {dev:+.4f} from optimum")
            if distances and sum(distances) / len(distances) > DTD_TOLERANCE:
                failures.append(f"recalibrations lie {sum(distances) / len(distances):.4f} "
                                f"from their segments' optima on average")
            if doc["final_threshold"] != doc["thresholds"][-1][1]:
                failures.append("final threshold is not the last recalibrated one")
            return failures, {"recalibrations": len(doc["thresholds"]) - 1, "tracked": len(distances)}

        return Op("session", config, self.TOTAL_BLOCKS * N, check)


class NnMix(Workload):
    """The network paths, one op kind after another: bulk inference,
    training, and the per-block session loop under both trigger kinds."""

    name = "nn-mix"
    weights = ("rnn", "mlp")
    KINDS = (EvalRnn(), TrainRnn(), SessionDrift({"kind": "periodic", "period": SessionDrift.PERIOD}),
             SessionDrift({"kind": "on_failure"}))
    cycle = len(KINDS)

    def _op(self, rng, op_seed, index):
        return self.KINDS[index % self.cycle].make(rng, op_seed)


WORKLOADS = {w.name: w for w in (SweepThreshold(), NnMix())}
