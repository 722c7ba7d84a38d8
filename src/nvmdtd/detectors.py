"""The detector zoo: fixed thresholds, neural detectors, and the dynamic threshold search.

The dynamic threshold detector (DTD) recovers a sensing threshold from
detector outputs alone: over M blocks it finds the threshold whose hard
decisions are closest in total Hamming distance to the reference labels.
Because that objective is piecewise constant in the threshold, with jumps
only at observed read values, the exact minimizer is found by one sorted
sweep instead of a grid search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import QuantizerSpec, quantize
from .errors import ParameterError


@dataclass(frozen=True)
class DtdResult:
    """Adjusted threshold, its total Hamming distance, and the tie interval."""

    r_adj: float
    objective: int
    interval: tuple[float, float]


def hard_decision(soft) -> np.ndarray:
    """Soft value above 0.5 decides 1; 0.5 itself and below decide 0."""
    return (np.asarray(soft) > 0.5).astype(np.uint8)


def threshold_detect(y, r_th: float) -> np.ndarray:
    """Read at or above the threshold decides 1."""
    return (np.asarray(y) >= r_th).astype(np.uint8)


def dtd_search(reads, labels) -> DtdResult:
    """Exact minimizer of total Hamming distance between labels and threshold decisions.

    ``reads`` and ``labels`` are matching collections of read vectors and bit
    vectors (flattened together).  The objective
    F(R) = sum_i d(labels_i, [reads_i >= R]) is constant between consecutive
    distinct read values: walking R upward past a read labeled 0 removes one
    error, past a read labeled 1 adds one.  The sweep accumulates those jumps
    over the sorted pool and returns the midpoint of the first widest open
    interval between consecutive distinct reads attaining the minimum.

    When the minimum is attained only below the smallest read (or only above
    the largest) there is no bounded interval to report; the threshold is then
    pinned to the nearest value achieving the minimum at that edge and the
    unbounded side of the interval is +-inf.
    """
    y = np.asarray(reads, dtype=np.float64).ravel()
    l = np.asarray(labels).ravel()
    if y.size == 0:
        raise ParameterError("dtd search needs at least one read")
    if y.size != l.size:
        raise ParameterError(f"{y.size} reads vs {l.size} labels")

    order = np.argsort(y, kind="stable")
    ys = y[order]
    delta = np.where(l[order] == 1, 1, -1).astype(np.int64)

    vals, first = np.unique(ys, return_index=True)
    jumps = np.add.reduceat(delta, first)
    f0 = int(np.count_nonzero(l == 0))
    # f_regions[g] is the objective for thresholds in (vals[g-1], vals[g]];
    # g = 0 covers everything at or below vals[0], g = m everything above
    # vals[m-1].
    f_regions = np.concatenate(([f0], f0 + np.cumsum(jumps)))
    f_min = int(f_regions.min())

    m = vals.size
    inner = np.flatnonzero(f_regions[1:m] == f_min) + 1
    if inner.size:
        widths = vals[inner] - vals[inner - 1]
        g = int(inner[np.argmax(widths)])
        lo, hi = float(vals[g - 1]), float(vals[g])
        return DtdResult(r_adj=0.5 * (lo + hi), objective=f_min, interval=(lo, hi))
    if f_regions[0] == f_min:
        edge = float(vals[0])
        return DtdResult(r_adj=edge, objective=f_min, interval=(-np.inf, edge))
    edge = float(vals[-1])
    return DtdResult(
        r_adj=float(np.nextafter(edge, np.inf)), objective=f_min, interval=(edge, np.inf)
    )


class ThresholdDetector:
    """Batch detector applying one fixed sensing threshold."""

    def __init__(self, r_th: float):
        self.r_th = float(r_th)

    def __call__(self, y: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
        return threshold_detect(y, self.r_th)


class NnDetector:
    """Batch detector wrapping a trained network (optionally quantized input)."""

    def __init__(self, model, quantizer: QuantizerSpec | None = None):
        self.model = model
        self.quantizer = quantizer

    def __call__(self, y: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if self.quantizer is not None:
            y = quantize(y, self.quantizer)
        return hard_decision(self.model.forward(y))


class GenieDetector:
    """Returns the true bits (``--genie``, the ``genie`` row); isolates calibration."""

    def __call__(self, y: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
        if x is None:
            raise ParameterError("genie detection needs the true bits")
        return np.asarray(x, dtype=np.uint8)
