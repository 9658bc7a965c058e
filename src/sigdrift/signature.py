"""Build performance signatures from trial experiences.

Generation follows the measurement pipeline: average the trial users'
per-timestamp observations for each parameter, then scale the mean
series by its population standard deviation so rows are unit-std.
"""
from __future__ import annotations

import numpy as np

from .core import Signature, TrialExperience, csv_field, read_csv, unit_rows, write_csv
from .errors import AlignmentError, ParseError


def generate_signature(experiences, provider_id: str = "") -> Signature:
    """Mean each parameter's experiences across users, normalize, stack
    into a signature with rows in order of each parameter's first
    appearance.

    The first experience's length is the grid length, and every
    experience must cover the full grid (window == (0, length)).
    """
    experiences = list(experiences)
    if not experiences:
        raise ValueError("need at least one trial experience")
    length = experiences[0].trial_length
    by_param: dict[str, list[np.ndarray]] = {}
    for e in experiences:
        if e.window != (0, length):
            raise AlignmentError(
                f"user {e.user_id!r} covers {e.window} for {e.parameter!r}, "
                f"signature generation needs (0, {length})"
            )
        by_param.setdefault(e.parameter, []).append(e.values)
    names = tuple(by_param)
    means = np.stack([np.stack(values).mean(axis=0) for values in by_param.values()])
    return Signature(names, unit_rows(means, names), provider_id)


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
