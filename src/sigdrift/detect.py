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

from ._kernels import cusum_scan, deletion_scan_base, deletion_scan_finish
from .config import DetectorThresholds, ExperimentConfig
from .core import Signature
from .errors import AlignmentError
from .noisegen import (AttenuationNoise, NoiseProfile, SpikeNoise, check_aligned,
                       mean_square_ratios, residual, segment_mean_squares)
from .similarity import pcc, rmse


class Verdict(Enum):
    CHANGE = "change"
    NOISE = "noise"
    NO_CHANGE = "no_change"


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
    filled = np.fmax(scan, -np.inf)  # NaN -> -inf, every other value as is
    start = int(filled.argmax())
    best = float(filled[start])
    if best == -math.inf:
        return -1, math.nan
    return start, best


def _memoized(sig: Signature, key: tuple, compute, *args):
    """``compute(*args)``, kept in ``sig.memo`` under ``key``, which
    names everything the value depends on besides ``sig.matrix``.

    Only the existing side is memoized: a corpus checks each existing
    signature against many recomputed ones, so its half of the deletion
    scan and its segment mean squares are computed once, not per pair.
    """
    memo = sig.memo
    value = memo.get(key)
    if value is None:
        value = memo[key] = compute(*args)
    return value


def sliding_window_detect(existing: Signature, recomputed: Signature,
                          thresholds: DetectorThresholds = DetectorThresholds()
                          ) -> DetectionOutcome:
    check_aligned(existing, recomputed)
    window, length = thresholds.scan_window, existing.matrix.shape[1]
    if window >= length - 1:
        raise AlignmentError(f"scan_window = {window} must be less than "
                             f"the grid length {length} minus 1")

    decisions = []
    for row, (parameter, x, y) in enumerate(zip(existing.parameters, existing.matrix,
                                                recomputed.matrix)):
        p = pcc(x, y)
        r = rmse(x, y)
        diag = {"pcc": p, "rmse": r}
        if p >= thresholds.similarity_floor and r <= thresholds.distance_ceiling:
            decisions.append(RowDecision(parameter, Verdict.NO_CHANGE, None, diag))
            continue
        if p >= thresholds.similarity_floor and r <= thresholds.attenuation_ceiling:
            decisions.append(RowDecision(parameter, Verdict.NOISE, AttenuationNoise.kind, diag))
            continue
        base = _memoized(existing, ("scan", row, window), deletion_scan_base, x, window)
        best_start, best = _first_max(deletion_scan_finish(base, y))
        diag["best_window_pcc"] = best
        diag["removed_window_start"] = best_start
        if not math.isnan(best) and best >= thresholds.similarity_floor:
            decisions.append(RowDecision(parameter, Verdict.NOISE, SpikeNoise.kind, diag))
        else:
            decisions.append(RowDecision(parameter, Verdict.CHANGE, None, diag))
    return _aggregate(decisions)


def snr_detect(existing: Signature, recomputed: Signature,
               profile: NoiseProfile) -> DetectionOutcome:
    """Change when any segment's current SNR drops strictly below baseline."""
    res = residual(existing, recomputed)
    segments, seg = profile.segments, profile.segment_length
    if segments * seg != existing.matrix.shape[1]:
        raise AlignmentError(f"profile covers {segments * seg} points, "
                             f"the grid {existing.matrix.shape[1]}")

    # Ratios are floats with inf for an unbounded SNR, so `<` orders them
    # as SnrValue does.
    floors = [s.ratio for s in profile.segment_snrs]
    signal_ms = _memoized(existing, ("snr", segments), segment_mean_squares,
                          existing.matrix, segments)
    currents = mean_square_ratios(signal_ms, segment_mean_squares(res, segments)).tolist()
    violated = next((i for i, (current, floor) in enumerate(zip(currents, floors))
                     if current < floor), -1)
    diag = {"snr_current": currents, "snr_baseline": floors, "violated_segment": violated}
    verdict = Verdict.CHANGE if violated >= 0 else Verdict.NO_CHANGE
    return DetectionOutcome(verdict, None, diag)


def cusum_detect(existing: Signature, recomputed: Signature,
                 slack: float = ExperimentConfig.cusum_slack,
                 decision_interval: float = ExperimentConfig.cusum_interval
                 ) -> DetectionOutcome:
    """Two-sided CUSUM on standardized deviations; change on a strict crossing."""
    check_aligned(existing, recomputed)
    if not (slack >= 0 and decision_interval > 0):
        raise ValueError("slack must be >= 0 and the decision interval positive")

    decisions = []
    for parameter, x, y, std in zip(existing.parameters, existing.matrix, recomputed.matrix,
                                    existing.row_stds.tolist()):
        z = np.subtract(y, x)
        z /= std
        max_pos, max_neg, alarm = cusum_scan(z, slack, decision_interval)
        diag = {
            "cusum_max_pos": max_pos,
            "cusum_max_neg": max_neg,
            "alarm_index": alarm,
        }
        verdict = Verdict.CHANGE if alarm >= 0 else Verdict.NO_CHANGE
        decisions.append(RowDecision(parameter, verdict, None, diag))
    return _aggregate(decisions)
