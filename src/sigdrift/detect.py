"""The three change detectors: sliding-window, SNR-profile, CUSUM.

All three take the existing signature and a recomputed one on the same
grid and return a :class:`DetectionOutcome`.  The recomputed side may be
un-normalized (it usually is, after noise injection or splicing).

The sliding-window detector is the only one that names the noise it
thinks it saw.  Its per-row decision sequence:

1. p = pcc(existing, recomputed), r = rmse(existing, recomputed)
2. p >= s_p and r <= s_r          -> no change
3. p >= s_p and r <= t_d          -> noise (attenuation)
4. otherwise scan every deletion window of width W: drop [w, w+W) from
   both series and recompute PCC; if any deletion reaches s_p the row is
   noise (spike) at the best-scoring window, else it is a change.

A multi-row signature is a change if any row is a change; noise kinds
stay per-row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._kernels import cusum_scan, deletion_pcc_scan
from .core import Signature
from .errors import AlignmentError
from .noisegen import NoiseProfile, check_aligned, residual, snr_ratios
from .similarity import pcc, rmse


class Verdict(Enum):
    CHANGE = "change"
    NOISE = "noise"
    NO_CHANGE = "no_change"


@dataclass(frozen=True)
class DetectorThresholds:
    similarity_floor: float = 0.60   # s_p: minimum PCC to call shapes alike
    distance_ceiling: float = 0.20   # s_r: maximum RMSE for "no change"
    attenuation_ceiling: float = 0.50  # t_d: maximum RMSE still explainable as damping
    window: int = 6                  # W: deletion window width for the spike scan

    def __post_init__(self):
        if not -1.0 <= self.similarity_floor <= 1.0:
            raise ValueError("similarity floor must be a correlation value")
        if self.distance_ceiling < 0 or self.attenuation_ceiling < 0:
            raise ValueError("distance thresholds must be non-negative")
        if self.distance_ceiling > self.attenuation_ceiling:
            raise ValueError("distance ceiling cannot exceed the attenuation ceiling")
        if self.window < 1:
            raise ValueError("scan window must be at least 1")


@dataclass(frozen=True)
class RowDecision:
    parameter: str
    verdict: Verdict
    noise_kind: str | None
    diagnostics: dict


@dataclass(frozen=True)
class DetectionOutcome:
    verdict: Verdict
    noise_kind: str | None
    diagnostics: dict
    rows: tuple[RowDecision, ...] = ()

    def to_dict(self) -> dict:
        payload = {
            "verdict": self.verdict.value,
            "noise_kind": self.noise_kind,
            "diagnostics": _jsonable(self.diagnostics),
        }
        if self.rows:
            payload["diagnostics"]["rows"] = [
                {
                    "parameter": r.parameter,
                    "verdict": r.verdict.value,
                    "noise_kind": r.noise_kind,
                    **_jsonable(r.diagnostics),
                }
                for r in self.rows
            ]
        return payload


def _jsonable(diag: dict) -> dict:
    out = {}
    for key, value in diag.items():
        if isinstance(value, float) and not math.isfinite(value):
            out[key] = None
        elif isinstance(value, (list, tuple)):
            out[key] = [
                None if isinstance(v, float) and not math.isfinite(v) else v
                for v in value
            ]
        else:
            out[key] = value
    return out


def _aggregate(rows: list[RowDecision]) -> DetectionOutcome:
    """The first change row decides, else the first noise row; with
    neither, the verdict is no change with row 0's diagnostics."""
    for verdict in (Verdict.CHANGE, Verdict.NOISE):
        for r in rows:
            if r.verdict is verdict:
                return DetectionOutcome(verdict, r.noise_kind, dict(r.diagnostics),
                                        tuple(rows))
    return DetectionOutcome(Verdict.NO_CHANGE, None, dict(rows[0].diagnostics), tuple(rows))


def _first_max(scan: np.ndarray) -> tuple[int, float]:
    """Index and value of the first maximum of `scan`, skipping NaN, as
    ``np.nanargmax`` picks it; ``(-1, nan)`` when every entry is NaN."""
    filled = np.where(np.isnan(scan), -np.inf, scan)
    start = int(filled.argmax())
    best = float(filled[start])
    if best == -math.inf:
        return -1, math.nan
    return start, best


def sliding_window_detect(existing: Signature, recomputed: Signature,
                          thresholds: DetectorThresholds = DetectorThresholds()
                          ) -> DetectionOutcome:
    check_aligned(existing, recomputed)
    if thresholds.window >= existing.grid.length - 1:
        raise ValueError("scan window must be shorter than the grid")

    decisions = []
    for parameter, x, y in zip(existing.parameters, existing.matrix, recomputed.matrix):
        p = pcc(x, y)
        r = rmse(x, y)
        diag = {"pcc": p, "rmse": r}
        if p >= thresholds.similarity_floor and r <= thresholds.distance_ceiling:
            decisions.append(RowDecision(parameter, Verdict.NO_CHANGE, None, diag))
            continue
        if p >= thresholds.similarity_floor and r <= thresholds.attenuation_ceiling:
            decisions.append(RowDecision(parameter, Verdict.NOISE, "attenuation", diag))
            continue
        best_start, best = _first_max(deletion_pcc_scan(x, y, thresholds.window))
        diag["best_window_pcc"] = best
        diag["removed_window_start"] = best_start
        if not math.isnan(best) and best >= thresholds.similarity_floor:
            decisions.append(RowDecision(parameter, Verdict.NOISE, "spike", diag))
        else:
            decisions.append(RowDecision(parameter, Verdict.CHANGE, None, diag))
    return _aggregate(decisions)


def snr_detect(existing: Signature, recomputed: Signature, profile: NoiseProfile,
               mode: str = "segments") -> DetectionOutcome:
    """Change when any segment's current SNR drops strictly below baseline.

    ``mode="aggregate"`` instead compares one whole-period SNR against
    the lowest baseline segment.
    """
    res = residual(existing, recomputed)
    seg = profile.segment_length
    if profile.segments * seg != existing.grid.length:
        raise AlignmentError(f"profile covers {profile.segments * seg} points, "
                             f"the grid {existing.grid.length}")

    ex = existing.matrix
    # Ratios are floats with inf for an unbounded SNR, so `<` orders them
    # as SnrValue does.
    floors = [s.ratio for s in profile.segment_snrs]

    if mode == "aggregate":
        current = snr_ratios(ex, res, 1).item()
        baseline = min(floors)
        diag = {
            "snr_current": [current],
            "snr_baseline": [baseline],
        }
        verdict = Verdict.CHANGE if current < baseline else Verdict.NO_CHANGE
        return DetectionOutcome(verdict, None, diag)
    if mode != "segments":
        raise ValueError(f"unknown snr mode {mode!r}")

    currents = snr_ratios(ex, res, profile.segments).tolist()
    violated = next((i for i, (current, floor) in enumerate(zip(currents, floors))
                     if current < floor), -1)
    diag = {
        "snr_current": currents,
        "snr_baseline": floors,
        "violated_segment": violated,
    }
    verdict = Verdict.CHANGE if violated >= 0 else Verdict.NO_CHANGE
    return DetectionOutcome(verdict, None, diag)


def cusum_detect(existing: Signature, recomputed: Signature,
                 slack: float = 0.5, decision_interval: float = 5.0
                 ) -> DetectionOutcome:
    """Two-sided CUSUM on standardized deviations; change on a strict crossing."""
    check_aligned(existing, recomputed)
    if slack < 0 or decision_interval <= 0:
        raise ValueError("slack must be >= 0 and the decision interval positive")

    decisions = []
    for parameter, x, y, std in zip(existing.parameters, existing.matrix, recomputed.matrix,
                                    existing.row_stds.tolist()):
        z = (y - x) / std
        max_pos, max_neg, alarm = cusum_scan(z, slack, decision_interval)
        diag = {
            "cusum_max_pos": max_pos,
            "cusum_max_neg": max_neg,
            "alarm_index": alarm,
        }
        verdict = Verdict.CHANGE if alarm >= 0 else Verdict.NO_CHANGE
        decisions.append(RowDecision(parameter, verdict, None, diag))
    return _aggregate(decisions)
