"""The four series similarity measures.

PCC and CS read "higher is more similar"; ED and RMSE are distances and
read the other way.  Callers that need one code path use
:func:`similarity`; the method's ``higher_is_more_similar`` gives the
polarity.
"""
from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import AlignmentError, ConstantSeriesError, ZeroVectorError


class SimilarityMethod(Enum):
    PCC = "pcc"
    ED = "ed"
    CS = "cs"
    RMSE = "rmse"

    @property
    def higher_is_more_similar(self) -> bool:
        return self in (SimilarityMethod.PCC, SimilarityMethod.CS)


def _series(a, minimum: int = 1) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional series")
    if arr.size < minimum:
        raise ValueError(f"series needs at least {minimum} points")
    return arr


def _pair(a, b, minimum: int = 1) -> tuple[np.ndarray, np.ndarray]:
    x = _series(a, minimum)
    y = _series(b, minimum)
    if x.size != y.size:
        raise AlignmentError(f"series lengths differ: {x.size} vs {y.size}")
    return x, y


def euclidean(a, b) -> float:
    """Standard L2 distance between two equal-length series."""
    x, y = _pair(a, b)
    return float(np.sqrt(np.sum((x - y) ** 2)))


def rmse(a, b) -> float:
    """Root mean square error; euclidean(a, b) / sqrt(len)."""
    x, y = _pair(a, b)
    d = x - y
    return math.sqrt(np.add.reduce(np.square(d, out=d)) / d.size)


def pcc(a, b) -> float:
    """Pearson correlation coefficient, clamped to [-1, 1]."""
    x, y = _pair(a, b, 2)
    dx = x - np.add.reduce(x) / x.size
    dy = y - np.add.reduce(y) / y.size
    denom = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if denom <= 0.0:
        raise ConstantSeriesError("correlation undefined for constant input")
    return float(min(1.0, max(-1.0, float(dx @ dy) / denom)))


def cosine(a, b) -> float:
    """Cosine of the angle between two series viewed as vectors."""
    x, y = _pair(a, b)
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx <= 0.0 or ny <= 0.0:
        raise ZeroVectorError("cosine similarity undefined for a zero vector")
    return float(min(1.0, max(-1.0, float(x @ y) / (nx * ny))))


_DISPATCH = {
    SimilarityMethod.PCC: pcc,
    SimilarityMethod.ED: euclidean,
    SimilarityMethod.CS: cosine,
    SimilarityMethod.RMSE: rmse,
}


def similarity(a, b, method: SimilarityMethod) -> float:
    """The value of one of the four measures."""
    return _DISPATCH[method](a, b)
