"""Build performance signatures from trial experiences; PAA downsampling.

Generation follows the measurement pipeline: average the trial users'
per-timestamp observations for each parameter, then scale the mean
series by its population standard deviation so rows are unit-std.
"""
from __future__ import annotations

import numpy as np

from .core import (Signature, TimeGrid, TrialExperience, csv_field, read_csv, unit_rows,
                   write_csv)
from .errors import AlignmentError, ParseError


def generate_signature(experiences, grid: TimeGrid, provider_id: str = "") -> Signature:
    """Mean each parameter's experiences across users, normalize, stack
    into a signature with rows in order of each parameter's first
    appearance.

    Every experience must cover the full grid (window == (0, grid.length)).
    """
    by_param: dict[str, list[np.ndarray]] = {}
    for e in experiences:
        if e.window != (0, grid.length):
            raise AlignmentError(
                f"user {e.user_id!r} covers {e.window} for {e.parameter!r}, "
                f"signature generation needs (0, {grid.length})"
            )
        by_param.setdefault(e.parameter, []).append(e.values)
    if not by_param:
        raise ValueError("need at least one trial experience")
    names = tuple(by_param)
    means = np.stack([np.stack(values).mean(axis=0) for values in by_param.values()])
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
# per user, every line as wide as the header.

def write_experiences(experiences, path) -> None:
    experiences = list(experiences)
    if not experiences:
        raise ValueError("nothing to write")
    width = experiences[0].trial_length
    if any(e.trial_length != width for e in experiences):
        raise AlignmentError("cohort CSV requires equal-length windows")
    write_csv(path, ["user_id", "parameter", "start", *(f"v{i}" for i in range(width))],
              [f"{csv_field(e.user_id)},{csv_field(e.parameter)},{e.trial_start},"
               + ",".join(repr(float(v)) for v in e.values)
               for e in experiences])


def read_experiences(path) -> list[TrialExperience]:
    """Parse trial rows; their windows may differ.

    Calibration histories mix users whose trials started at different
    times; signature generation checks each window against its grid.
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
