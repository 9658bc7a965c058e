"""Build performance signatures from trial cohorts; PAA downsampling.

Generation follows the measurement pipeline: average the cohort's
per-timestamp observations for each parameter, then scale the mean
series by its population standard deviation so rows are unit-std.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Signature, TimeGrid, TrialExperience, csv_field, read_csv, unit_rows,
                   write_csv)
from .errors import AlignmentError, ParseError


@dataclass(frozen=True)
class TrialCohort:
    """A group of trial users observed over one shared window."""

    experiences: tuple[TrialExperience, ...]
    window: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "experiences", tuple(self.experiences))
        object.__setattr__(self, "window", tuple(self.window))
        if not self.experiences:
            raise ValueError("cohort needs at least one experience")
        params = {e.parameter for e in self.experiences}
        if len(params) != 1:
            raise AlignmentError(f"cohort mixes parameters: {sorted(params)}")
        for e in self.experiences:
            if e.window != self.window:
                raise AlignmentError(
                    f"user {e.user_id!r} window {e.window} != cohort window {self.window}"
                )

    @property
    def parameter(self) -> str:
        return self.experiences[0].parameter


def generate_signature(cohorts, grid: TimeGrid, provider_id: str = "") -> Signature:
    """Mean each cohort across users, normalize, stack into a signature.

    Every cohort must cover the full grid (window == (0, grid.length)),
    and each QoS parameter may appear in exactly one cohort.
    """
    cohorts = list(cohorts)
    if not cohorts:
        raise ValueError("need at least one cohort")
    for cohort in cohorts:
        if cohort.window != (0, grid.length):
            raise AlignmentError(
                f"cohort for {cohort.parameter!r} covers {cohort.window}, "
                f"signature generation needs (0, {grid.length})"
            )
    names = tuple(c.parameter for c in cohorts)
    means = np.stack([np.stack([e.values for e in c.experiences]).mean(axis=0)
                      for c in cohorts])
    return Signature(names, unit_rows(means, names), grid, provider_id)


def paa_boundaries(length: int, target_length: int) -> np.ndarray:
    """Frame boundaries for PAA: round-half-up of j*length/target."""
    if target_length < 1:
        raise ValueError("target length must be at least 1")
    if target_length > length:
        raise ValueError("target length exceeds series length")
    j = np.arange(target_length + 1, dtype=np.int64)
    # floor(j*L/m + 1/2) done in exact integer arithmetic
    return (2 * j * length + target_length) // (2 * target_length)


def paa(values, target_length: int) -> np.ndarray:
    """Piecewise aggregate approximation: per-frame means along the last
    axis, so a ``(..., L)`` array reduces every series in one call."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim < 1:
        raise ValueError("expected a series or an array of series")
    bounds = paa_boundaries(arr.shape[-1], target_length)
    sums = np.add.reduceat(arr, bounds[:-1], axis=-1)
    return sums / np.diff(bounds)


# ---------------------------------------------------------------------------
# Trial cohort CSV: header "user_id,parameter,start,v0,v1,...", one line
# per user.  All users of one parameter form one cohort and must share
# a window.

def write_cohorts(cohorts, path) -> None:
    cohorts = list(cohorts)
    if not cohorts:
        raise ValueError("nothing to write")
    width = cohorts[0].window[1]
    for c in cohorts:
        if c.window[1] != width:
            raise AlignmentError("cohort CSV requires equal-length windows")
    write_csv(path, ["user_id", "parameter", "start", *(f"v{i}" for i in range(width))],
              [f"{csv_field(e.user_id)},{csv_field(e.parameter)},{e.trial_start},"
               + ",".join(repr(float(v)) for v in e.values)
               for c in cohorts for e in c.experiences])


def read_experiences(path) -> list[TrialExperience]:
    """Parse trial rows without the shared-window constraint.

    Calibration histories mix users whose trials started at different
    times, so they cannot be grouped into cohorts.
    """
    header, rows = read_csv(path, "cohort")
    width = len(header) - 3
    if width < 1 or header != ["user_id", "parameter", "start", *(f"v{i}" for i in range(width))]:
        raise ParseError(f"{path}: bad header {','.join(header)!r}")
    if not rows:
        raise ParseError(f"{path}: no data rows")

    experiences = []
    for user, param, start, *cells in rows:
        try:
            values = np.array([float(p) for p in cells], dtype=np.float64)
            experiences.append(TrialExperience(user, param, values, int(start)))
        except ValueError as exc:
            raise ParseError(f"{path}: row for {user!r}: {exc}") from None
    return experiences


def read_cohorts(path) -> list[TrialCohort]:
    by_param: dict[str, list[TrialExperience]] = {}
    for e in read_experiences(path):
        by_param.setdefault(e.parameter, []).append(e)
    try:
        return [TrialCohort(tuple(exps), exps[0].window) for exps in by_param.values()]
    except AlignmentError as exc:
        raise AlignmentError(f"{path}: {exc}") from None
