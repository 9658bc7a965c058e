"""Event-condition-action change points over trial anomaly streams.

The similarity threshold is the worst similarity any past trial user
achieved against the current signature; the frequency threshold is the
largest number of past users sitting exactly on that boundary within one
trial window.  A change point fires when a window's anomaly count
strictly exceeds the frequency threshold.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import Signature, TrialExperience, read_csv, unit_rows, write_csv
from .errors import AlignmentError, ParseError
from .similarity import SimilarityMethod, similarity


@dataclass(frozen=True)
class AnomalyThreshold:
    method: SimilarityMethod
    value: float


@dataclass(frozen=True)
class EventConfig:
    window_length: int
    frequency_threshold: int

    def __post_init__(self):
        if self.window_length < 1:
            raise ValueError("window_length must be at least 1")
        if self.frequency_threshold < 1:
            raise ValueError("frequency_threshold must be at least 1")


@dataclass(frozen=True)
class ChangePoint:
    grid_index: int
    anomaly_count: int
    window: tuple[int, int]


def _experience_similarity(exp: TrialExperience, sig: Signature,
                           method: SimilarityMethod) -> float:
    if exp.parameter not in sig.parameters:
        raise AlignmentError(f"user {exp.user_id!r} is for parameter {exp.parameter!r}, "
                             "which the signature has no row for")
    row = sig.row(exp.parameter)
    start, length = exp.window
    if length >= sig.matrix.shape[1]:
        raise AlignmentError("trial window must be shorter than the grid")
    if start + length > sig.matrix.shape[1]:
        raise AlignmentError("trial window exceeds the grid")
    segment = row.values[start:start + length]
    # Scaled to unit std, and checked, as a signature row is.
    return similarity(segment, unit_rows(exp.values[None], (exp.parameter,))[0], method)


def calibrate(past, sig: Signature, method: SimilarityMethod,
              window_length: int) -> tuple[AnomalyThreshold, EventConfig]:
    """The similarity threshold, the worst similarity over past trial
    users (min for PCC/CS, max distance for ED/RMSE), and the frequency
    threshold, the largest number of them in one window that tie it."""
    if window_length < 1:
        raise ValueError("window_length must be at least 1")
    sims = [(e.trial_start // window_length, _experience_similarity(e, sig, method))
            for e in past]
    if not sims:
        raise ValueError("cannot calibrate from an empty history")
    values = [value for _, value in sims]
    worst = min(values) if method.higher_is_more_similar else max(values)
    ties = Counter(window for window, value in sims if value == worst)
    return AnomalyThreshold(method, worst), EventConfig(window_length, max(ties.values()))


def is_anomalous(exp: TrialExperience, sig: Signature,
                 threshold: AnomalyThreshold) -> tuple[bool, float]:
    """Strictly-worse-than-threshold test; returns (flag, measured similarity)."""
    value = _experience_similarity(exp, sig, threshold.method)
    if threshold.method.higher_is_more_similar:
        return value < threshold.value, value
    return value > threshold.value, value


def detect_events(anomaly_flags, config: EventConfig) -> list[ChangePoint]:
    """Scan aligned non-overlapping windows; emit where count > threshold.

    ``anomaly_flags`` is a time-ordered iterable of (grid_index, bool);
    several flags may share an index (one per trial user).  Windows are
    [k*T, (k+1)*T) for the configured window length T, and a change
    point is reported at the last index of each qualifying window.
    """
    width = config.window_length
    counts = Counter()
    last = 0
    for idx, flagged in anomaly_flags:
        if idx < 0:
            raise AlignmentError("grid indices must be non-negative")
        if idx < last:
            raise AlignmentError("anomaly flags must be sorted by grid index")
        last = idx
        if flagged:
            counts[idx // width] += 1
    return [ChangePoint(bucket * width + width - 1, count, (bucket * width, width))
            for bucket, count in sorted(counts.items())
            if count > config.frequency_threshold]


# ---------------------------------------------------------------------------
# Anomaly-flag CSV: header "index,flag,similarity"; flag is 0 or 1.

def write_flags(flags, path) -> None:
    write_csv(path, ["index", "flag", "similarity"],
              [f"{int(idx)},{1 if flagged else 0},{repr(float(sim))}"
               for idx, flagged, sim in flags])


def read_flags(path) -> list[tuple[int, bool, float]]:
    """The flags of a file; a file with only its header is an empty stream."""
    header, rows = read_csv(path, "flag")
    if header != ["index", "flag", "similarity"]:
        raise ParseError(f"{path}: bad header {','.join(header)!r}")
    out = []
    for cells in rows:
        try:
            idx, flag, sim = int(cells[0]), int(cells[1]), float(cells[2])
        except ValueError as exc:
            raise ParseError(f"{path}: bad row {','.join(cells)!r}: {exc}") from None
        if flag not in (0, 1):
            raise ParseError(f"{path}: flag must be 0 or 1, got {cells[1]!r}")
        out.append((idx, bool(flag), sim))
    return out
