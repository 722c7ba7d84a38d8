"""Spans around the package's module boundaries, installed from outside.

The tracer replaces public functions in the module namespaces where the
package looks them up (``harness.sample_block_matrix``,
``detectors.forward``, ...) with timing wrappers, so nothing inside
``src/`` is edited.  Spans carry their parent's id and the op they belong
to, are kept in memory, and are written out when the run ends.  A boundary
that a later refactor removes is listed as absent instead of failing the
run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass, field

import numpy as np


def _blocks_of(y) -> int:
    return 1 if np.ndim(y) == 1 else int(np.shape(y)[0])


# Counters read the wrapped call's bound arguments (by name) and result.

def _sample_counts(args, result) -> dict:
    return {"blocks": int(result[0].shape[0]), "key_seed": int(args["seed"]),
            "key_start": int(args["start"])}


def _forward_counts(args, result) -> dict:
    kind = type(args["model"]).__name__.lower().removesuffix("model")
    return {"blocks": _blocks_of(args["y"]), "kind": kind}


def _nn_counts(args, result) -> dict:
    return {"blocks": _blocks_of(args["y"])}


def _threshold_counts(args, result) -> dict:
    return {"bits": int(np.size(args["y"]))}


def _dtd_counts(args, result) -> dict:
    return {"reads": int(np.size(args["reads"]))}


def _session_counts(args, result) -> dict:
    return {"blocks": int(args["schedule"].total_blocks)}


# (module, attribute, span name, counter).  A span's layer is the first
# dotted part of its name.  Several sites may feed one span name: the
# package imports e.g. ``sample_block_matrix`` into three modules.
BOUNDARIES = (
    ("nvmdtd.cli", "load_config", "config.load", None),
    ("nvmdtd.cli", "resolve_config", "config.resolve", None),
    ("nvmdtd.cli", "echo_config", "config.echo", None),
    ("nvmdtd.cli", "load_weights", "nn.weights.load", None),
    ("nvmdtd.cli", "save_weights", "nn.weights.save", None),
    ("nvmdtd.harness", "run_sweep", "harness.run_sweep", None),
    ("nvmdtd.harness", "estimate_ber", "harness.estimate_ber", None),
    ("nvmdtd.harness", "dtd_calibrate", "harness.dtd_calibrate", None),
    ("nvmdtd.harness", "write_sweep_csv", "harness.write_csv", None),
    ("nvmdtd.harness", "training_curve", "harness.training_curve", None),
    ("nvmdtd.harness", "simulate_recalibration_session", "harness.session", _session_counts),
    ("nvmdtd.harness", "sample_block_matrix", "channel.sample", _sample_counts),
    ("nvmdtd.analytic", "sample_block_matrix", "channel.sample", _sample_counts),
    ("nvmdtd.nn.training", "sample_block_matrix", "channel.sample", _sample_counts),
    ("nvmdtd.analytic", "optimal_threshold_closed_form", "analytic.closed_form", None),
    ("nvmdtd.analytic", "optimal_threshold_bisection", "analytic.bisection", None),
    ("nvmdtd.analytic", "ber_variable_offset_derivative", "analytic.derivative", None),
    ("nvmdtd.analytic", "optimal_threshold_empirical", "analytic.empirical", None),
    ("nvmdtd.harness", "threshold_detect", "detectors.threshold", _threshold_counts),
    ("nvmdtd.detectors", "threshold_detect", "detectors.threshold", _threshold_counts),
    ("nvmdtd.harness", "dtd_search", "detectors.dtd_search", _dtd_counts),
    ("nvmdtd.detectors", "dtd_search", "detectors.dtd_search", _dtd_counts),
    ("nvmdtd.detectors", "detect_with_nn", "detectors.nn", _nn_counts),
    ("nvmdtd.detectors", "forward", "nn.forward", _forward_counts),
    ("nvmdtd.nn.training", "forward", "nn.forward", _forward_counts),
    ("nvmdtd.harness", "train", "nn.train", None),
    ("nvmdtd.nn.training", "value_and_grad", "nn.train_step", None),
    ("nvmdtd.nn.training", "adam_step", "nn.adam_step", None),
    ("nvmdtd.nn.training", "validation_ber", "nn.validation", None),
)

LAYERS = ("cli", "config", "harness", "channel", "analytic", "detectors", "nn")


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    t0: float
    t1: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Installs boundary wrappers and records spans while an op is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.count_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name, counter in BOUNDARIES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            orig = getattr(module, attr, None)
            try:
                wrapped = self._wrap(orig, name, counter)
            except (TypeError, ValueError):  # gone, or no longer a plain function
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, orig))
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()

    def _open(self, name: str) -> Span:
        span = Span(id=len(self.spans), parent=self._stack[-1] if self._stack else None,
                    op=self._op, name=name, t0=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack.pop()

    def _wrap(self, orig, name: str, counter):
        signature = inspect.signature(orig)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return orig(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.counts = counter(bound.arguments, result)
                except (TypeError, KeyError, AttributeError, IndexError) as exc:
                    # A boundary whose signature changed still times; its counts are lost.
                    tracer.count_errors[name] = repr(exc)
            return result

        return traced

    def run_op(self, op_index: int, fn):
        """Call ``fn`` as op ``op_index`` under a root ``cli.main`` span."""
        self._op = op_index
        span = self._open("cli.main")
        try:
            return fn()
        finally:
            self._close(span)

    def dump(self, path) -> None:
        doc = {
            "absent": self.absent,
            "count_errors": self.count_errors,
            "spans": [[s.id, s.parent, s.op, s.name, s.t0, s.t1, s.counts] for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _mean(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_metrics(tracer: Tracer, count_ops: set[int], untraced_s: float) -> dict:
    """Per-layer metrics from the recorded spans.

    Times are averaged over every traced op.  Counts are taken per op over
    ``count_ops`` (one full cycle of the workload's op schedule), so they
    repeat exactly for a given seed.  ``untraced_s`` is the total time of
    the same ops run without wrappers, the base of ``trace.overhead_frac``.
    """
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.dur
    roots = [s for s in spans if s.parent is None]
    n_ops = len(roots)
    n_count = len(count_ops)
    op_s = sum(s.dur for s in roots)

    def total(name, key=None, where=None, counted=False):
        """(seconds, sum of counts[key], calls) over matching spans."""
        secs = amount = calls = 0
        for s in spans:
            if s.name != name or (counted and s.op not in count_ops):
                continue
            if where is not None and not where(s):
                continue
            secs += s.dur
            amount += s.counts.get(key, 0) if key else 0
            calls += 1
        return secs, amount, calls

    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        self_by_layer[s.name.split(".")[0]] += s.dur - child_s[s.id]

    sample_s, sample_blocks, _ = total("channel.sample", "blocks")
    _, cycle_blocks, _ = total("channel.sample", "blocks", counted=True)
    # Redundant sampling on the Monte-Carlo path: blocks the harness drew
    # versus distinct (seed, block index) stream keys among them.
    keys: set[tuple[int, int]] = set()
    mc_blocks = 0
    for s in spans:
        if s.name == "channel.sample" and s.op in count_ops and "key_seed" in s.counts:
            if spans[s.parent].name.startswith("harness."):
                seed, start = s.counts["key_seed"], s.counts["key_start"]
                keys.update((seed, start + j) for j in range(s.counts["blocks"]))
                mc_blocks += s.counts["blocks"]

    bis_s, _, bis_calls = total("analytic.bisection")
    _, _, deriv_calls = total("analytic.derivative", counted=True)
    emp_s, _, emp_calls = total("analytic.empirical")
    # Bulk inference and the session's one-block calls differ ~5x per block.
    rnn_s, rnn_blocks, _ = total("nn.forward", "blocks",
                                 where=lambda s: s.counts.get("kind") == "rnn" and s.counts["blocks"] > 1)
    rnn1_s, rnn1_calls, _ = total("nn.forward", "blocks",
                                  where=lambda s: s.counts.get("kind") == "rnn" and s.counts["blocks"] == 1)
    mlp_s, mlp_blocks, _ = total("nn.forward", "blocks", where=lambda s: s.counts.get("kind") == "mlp")
    _, nn_blocks, nn_calls = total("detectors.nn", "blocks", counted=True)
    step_s, _, step_calls = total("nn.train_step")
    _, _, cycle_steps = total("nn.train_step", counted=True)
    adam_s, _, adam_calls = total("nn.adam_step")
    val_s, _, _ = total("nn.validation")
    thr_s, thr_bits, _ = total("detectors.threshold", "bits")
    dtd_s, _, dtd_calls = total("detectors.dtd_search")
    _, dtd_reads, _ = total("detectors.dtd_search", "reads", counted=True)
    sess_blocks = sum(s.counts.get("blocks", 0) for s in spans if s.name == "harness.session")
    sess_self = sum(s.dur - child_s[s.id] for s in spans if s.name == "harness.session")
    load_s, _, load_calls = total("nn.weights.load")
    root_self = sum(s.dur - child_s[s.id] for s in roots)

    m = {
        "channel.sample.us_per_block": (1e6 * _mean(sample_s, sample_blocks), "us/block"),
        "channel.sample.blocks": (_mean(cycle_blocks, n_count), "blocks/op"),
        "channel.resample_ratio": (_mean(mc_blocks, len(keys)), "ratio"),
        "analytic.bisection.ms": (1e3 * _mean(bis_s, bis_calls), "ms"),
        "analytic.derivative.evals": (_mean(deriv_calls, n_count), "evals/op"),
        "analytic.empirical.ms": (1e3 * _mean(emp_s, emp_calls), "ms"),
        "nn.forward.rnn.us_per_block": (1e6 * _mean(rnn_s, rnn_blocks), "us/block"),
        "nn.forward.rnn_batch1.us_per_block": (1e6 * _mean(rnn1_s, rnn1_calls), "us/block"),
        "nn.forward.mlp.us_per_block": (1e6 * _mean(mlp_s, mlp_blocks), "us/block"),
        "detectors.nn.blocks_per_call": (_mean(nn_blocks, nn_calls), "blocks/call"),
        "nn.train_step.ms": (1e3 * _mean(step_s, step_calls), "ms"),
        "nn.adam_step.ms": (1e3 * _mean(adam_s, adam_calls), "ms"),
        "nn.train.steps": (_mean(cycle_steps, n_count), "steps/op"),
        "nn.validation.s": (_mean(val_s, n_ops), "s/op"),
        "detectors.threshold.ns_per_bit": (1e9 * _mean(thr_s, thr_bits), "ns/bit"),
        "detectors.dtd_search.ms": (1e3 * _mean(dtd_s, dtd_calls), "ms"),
        "detectors.dtd_search.reads": (_mean(dtd_reads, n_count), "reads/op"),
        "harness.session.self_us_per_block": (1e6 * _mean(sess_self, sess_blocks), "us/block"),
        "nn.weights.load_ms": (1e3 * _mean(load_s, load_calls), "ms"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (_mean(self_by_layer[layer], n_ops), "s/op")
    m["trace.overhead_frac"] = (_mean(op_s, untraced_s) - 1.0, "fraction")
    m["trace.unspanned_frac"] = (_mean(root_self, op_s), "fraction")
    return m
