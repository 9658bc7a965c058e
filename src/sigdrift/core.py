"""Core domain types: time grids, signatures and their rows, trial experiences.

A signature is a small matrix: one row per QoS parameter, one column per
grid timestamp.  Rows produced by signature generation have unit
population standard deviation; copies that went through noise injection
or splicing are allowed to drift off unit scale and carry that fact
implicitly (detectors must not assume otherwise).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConstantSeriesError, ParseError

#: |population std - 1| above this means a row does not count as normalized.
STD_TOLERANCE = 1e-9

#: population std below this means the series is constant for our purposes.
_CONSTANT_EPS = 1e-12

#: Bytes of signature matrices that a corpus build or profile learning
#: stores or works on at a time, so that no allocation grows with the
#: corpus.  Blocks this small stay in cache, and the allocator serves
#: them from memory freed earlier instead of mapping fresh pages.
BLOCK_BYTES = 1 << 17


def _std(arr: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Population std over `axis` (all axes when None): the ufunc sequence
    ``ndarray.std`` runs, without its Python wrapper, so bit-identical."""
    n = arr.size if axis is None else arr.shape[axis]
    d = arr - np.add.reduce(arr, axis=axis, keepdims=True) / n
    return np.sqrt(np.add.reduce(np.square(d, out=d), axis=axis) / n)


def population_std(values: np.ndarray) -> float:
    """Population (ddof=0) standard deviation."""
    return float(_std(np.asarray(values, dtype=np.float64)))


def block_slices(count: int, item_bytes: int) -> list[slice]:
    """Slices of ``range(count)``, each covering about ``BLOCK_BYTES`` of
    items that take ``item_bytes`` each (at least one item per slice)."""
    step = max(1, BLOCK_BYTES // max(1, item_bytes))
    return [slice(start, start + step) for start in range(0, count, step)]


def check_stack(stack: np.ndarray, parameters: tuple[str, ...]) -> np.ndarray:
    """Check a ``(N, rows, L)`` float64 stack of signature matrices and
    return its ``(N, rows)`` row population stds, read-only.

    The checks are the ones every signature passes: finite values and no
    constant row.  Matrices are checked in order and the first failing
    one decides the error, a non-finite value before a constant row.
    The temporaries are as large as the stack, so a corpus is checked
    one block (see ``BLOCK_BYTES``) at a time.
    """
    finite = np.isfinite(stack).all(axis=(1, 2))
    ok = finite.size if finite.all() else int(finite.argmin())
    stds = _std(stack[:ok], axis=-1)
    constant = np.flatnonzero(stds.ravel() <= _CONSTANT_EPS)
    if constant.size:
        raise ConstantSeriesError(f"row {parameters[constant[0] % stack.shape[1]]!r} is "
                                  "constant; signatures reject zero-variance rows")
    if ok < finite.size:
        raise ValueError("signature values must be finite (no NaN/inf)")
    stds.setflags(write=False)
    return stds


def unit_rows(matrix: np.ndarray, parameters: tuple[str, ...]) -> np.ndarray:
    """A ``(rows, L)`` matrix with each row divided by the population std
    :func:`check_stack` returns for it, so the same checks apply."""
    return matrix / check_stack(matrix[None], parameters)[0][:, None]


def _freeze(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeGrid:
    """Uniformly spaced observation grid starting at index 0."""

    length: int
    resolution: str = "day"

    def __post_init__(self):
        if self.length < 2:
            raise ValueError("grid needs at least two points")
        if not self.resolution:
            raise ValueError("grid resolution label must be non-empty")


class QoSSeries(NamedTuple):
    """One QoS parameter's row of a signature: a read-only view of its matrix."""

    parameter: str
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class Signature:
    """Per-parameter performance matrix for one provider.

    ``matrix`` holds one float64 row per entry of ``parameters`` over the
    grid; it is copied and made read-only once, here.  Structural
    invariants (checked here, by :func:`check_stack`): at least one row,
    non-empty unique parameter names, a finite ``(rows, grid.length)``
    matrix, no constant rows.  ``row_stds`` holds each row's population
    std as that check computed it, read-only.  Unit-std normalization is
    established by the generation and file ingest paths, not re-checked
    on every instance, because noisy and spliced copies legitimately
    leave unit scale.

    ``provider_id`` is provenance, not data: the on-disk format does not
    carry it, so equality ignores it.
    """

    parameters: tuple[str, ...]
    matrix: np.ndarray
    grid: TimeGrid
    provider_id: str = ""
    row_stds: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        names = tuple(self.parameters)
        matrix = _freeze(self.matrix)
        object.__setattr__(self, "parameters", names)
        object.__setattr__(self, "matrix", matrix)
        if not names:
            raise ValueError("signature needs at least one row")
        if not all(names):
            raise ValueError("parameter name must be non-empty")
        if len(set(names)) != len(names):
            raise ValueError("duplicate QoS parameter in signature")
        if matrix.ndim != 2 or matrix.shape[0] != len(names):
            raise ValueError(f"need one 1-D row per parameter ({len(names)}), "
                             f"got an array of shape {matrix.shape}")
        if matrix.shape[1] != self.grid.length:
            raise ValueError(f"rows have {matrix.shape[1]} points, grid has {self.grid.length}")
        object.__setattr__(self, "row_stds", check_stack(matrix[None], names)[0])

    @classmethod
    def _checked(cls, parameters: tuple[str, ...], matrix: np.ndarray, grid: TimeGrid,
                 provider_id: str, row_stds: np.ndarray) -> "Signature":
        """A signature over a read-only ``(rows, grid.length)`` matrix that
        :func:`check_stack` has passed, with the stds it returned: no
        copy and no second check."""
        sig = object.__new__(cls)
        for name, value in (("parameters", parameters), ("matrix", matrix), ("grid", grid),
                            ("provider_id", provider_id), ("row_stds", row_stds)):
            object.__setattr__(sig, name, value)
        return sig

    @property
    def rows(self) -> tuple[QoSSeries, ...]:
        return tuple(QoSSeries(p, v) for p, v in zip(self.parameters, self.matrix))

    def row(self, parameter: str) -> QoSSeries:
        if parameter not in self.parameters:
            raise KeyError(f"no row for parameter {parameter!r}")
        return QoSSeries(parameter, self.matrix[self.parameters.index(parameter)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return (self.grid == other.grid and self.parameters == other.parameters
                and np.array_equal(self.matrix, other.matrix))


@dataclass(frozen=True, eq=False)
class TrialExperience:
    """One trial user's observed series for one parameter."""

    user_id: str
    parameter: str
    values: np.ndarray
    trial_start: int

    def __post_init__(self):
        if not self.user_id:
            raise ValueError("user_id must be non-empty")
        if not self.parameter:
            raise ValueError("parameter name must be non-empty")
        arr = _freeze(self.values)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("trial values must be a series of at least two points")
        if not np.all(np.isfinite(arr)):
            raise ValueError("trial values must be finite")
        if self.trial_start < 0:
            raise ValueError("trial_start must be non-negative")
        object.__setattr__(self, "values", arr)

    @property
    def trial_length(self) -> int:
        return int(self.values.size)

    @property
    def window(self) -> tuple[int, int]:
        return (self.trial_start, self.trial_length)


# ---------------------------------------------------------------------------
# Files.  Every CSV and JSON file is UTF-8 text with LF line endings and
# one trailing newline.  A CSV line is comma-separated cells with no
# quoting; JSON keys are sorted and NaN or infinity is never written.

def write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def read_text(path) -> str:
    """A file's UTF-8 text; bytes that are not UTF-8 are a ``ParseError``
    that names the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def csv_field(value: str) -> str:
    """A text cell, checked to need no quoting."""
    if "," in value or "\n" in value:
        raise ValueError(f"field {value!r} not representable in CSV")
    return value


def write_csv(path, header, lines) -> None:
    """Write the ``header`` cells, then each of ``lines`` (joined cells)."""
    write_text(path, "\n".join([",".join(header), *lines]) + "\n")


def read_csv(path, what: str) -> tuple[list[str], list[list[str]]]:
    """The header cells and the data rows of a ``what`` file; blank lines
    are skipped.  An empty file, a last line without its newline (a
    truncated file) or a row not as wide as the header is a
    ``ParseError`` that names the file."""
    text = read_text(path)
    lines = [ln.split(",") for ln in text.split("\n") if ln]
    if not lines:
        raise ParseError(f"{path}: empty {what} file")
    if not text.endswith("\n"):
        raise ParseError(f"{path}: the last line has no newline; the file looks truncated")
    header, *rows = lines
    for row in rows:
        if len(row) != len(header):
            raise ParseError(f"{path}: row {row[0]!r} has {len(row)} cells, "
                             f"the header has {len(header)}")
    return header, rows


def json_text(payload, indent: int | None = None) -> str:
    """``payload`` as JSON text: sorted keys, one trailing newline, and a
    ``ValueError`` for NaN or infinity, which JSON cannot spell."""
    return json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False) + "\n"


def parse_json(text: str, parse, source):
    """``parse`` of the decoded ``text``; an error names ``source``."""
    try:
        return parse(json.loads(text))
    except (json.JSONDecodeError, ParseError) as exc:
        raise ParseError(f"{source}: {exc}") from None


def read_json(path, parse):
    """``parse`` of the JSON payload in a file; an error names the file."""
    return parse_json(read_text(path), parse, path)


# ---------------------------------------------------------------------------
# Signature CSV: header "parameter,t0,...,t{L-1}", one row per parameter,
# floats printed in shortest round-trip form.

def write_signature(sig: Signature, path) -> None:
    write_csv(path, ["parameter", *(f"t{i}" for i in range(sig.grid.length))],
              [csv_field(name) + "," + ",".join(repr(float(v)) for v in values)
               for name, values in zip(sig.parameters, sig.matrix)])


def read_signature(path) -> Signature:
    """Read a signature file; its stem is the provider id, and rows off
    unit std are re-normalized."""
    path = Path(path)
    header, rows = read_csv(path, "signature")
    length = len(header) - 1
    if length < 2 or header != ["parameter", *(f"t{i}" for i in range(length))]:
        raise ParseError(f"{path}: bad header {','.join(header)!r}")
    if not rows:
        raise ParseError(f"{path}: no data rows")
    names = tuple(row[0] for row in rows)
    try:
        matrix = np.array([[float(p) for p in cells] for _, *cells in rows])
        stds = check_stack(matrix[None], names)[0]
    except ConstantSeriesError as exc:
        raise ConstantSeriesError(f"{path}: {exc}") from None
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    off = np.abs(stds - 1.0) > STD_TOLERANCE
    matrix[off] /= stds[off, None]
    return Signature(names, matrix, TimeGrid(length), path.stem)


# ---------------------------------------------------------------------------
# Typed fields of JSON payloads: a boolean or a string is never a number.

def json_number(value, key: str) -> float:
    """A finite JSON number as a float; ``key`` names the field in the error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{key}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"{key}: {value!r} is not a finite number")
    return number


def json_integer(value, key: str) -> int:
    """A JSON integer; ``key`` names the field in the error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{key}: expected an integer, got {value!r}")
    return value


def json_list(value, key: str) -> list:
    """A JSON array; ``key`` names the field in the error."""
    if not isinstance(value, list):
        raise ParseError(f"{key}: expected a list, got {value!r}")
    return value
