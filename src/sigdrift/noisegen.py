"""Noise injection (spike, attenuation, distortion), SNR, noise profiles.

Injection modifies signature rows in place semantics-wise: the result is
a copy of the input with the noise applied and is deliberately NOT
re-normalized, so detectors see the raw effect.  Everything is
deterministic for a given (spec, seed).
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import get_args

import numpy as np

from .config import MAX_ABS_DB, MAX_SPIKE_MAGNITUDE
from .core import (Signature, json_integer, json_list, json_number, json_text, read_json,
                   write_text)
from .errors import AlignmentError, ParseError


# Each noise kind is one class: its ``kind`` name, its fields with their
# defaults (a spec file may omit a field that has one), and its effect,
# ``apply(matrix, row_stds, seed)``, in place on every row of a
# ``(rows, L)`` matrix whose rows have population stds ``row_stds``.

@dataclass(frozen=True)
class SpikeNoise:
    """Short additive burst: `magnitude` row-stds added at `width` points."""

    position: int
    width: int = 3
    magnitude: float = 5.0
    kind = "spike"

    def __post_init__(self):
        if self.position < 0:
            raise ValueError("spike position must be non-negative")
        if self.width < 1:
            raise ValueError("spike width must be at least 1")
        if self.magnitude <= 0:
            raise ValueError("spike magnitude must be positive")
        if not self.magnitude <= MAX_SPIKE_MAGNITUDE:
            raise ValueError(f"magnitude = {self.magnitude} must be at most "
                             f"{MAX_SPIKE_MAGNITUDE:g}")

    def apply(self, matrix: np.ndarray, row_stds: np.ndarray, seed: int) -> None:
        """Sized by the rows before the spike; draws no random numbers."""
        if self.position + self.width > matrix.shape[1]:
            raise AlignmentError(f"spike at position = {self.position} with width = "
                                 f"{self.width} exceeds the grid of {matrix.shape[1]} points")
        matrix[:, self.position:self.position + self.width] += self.magnitude * row_stds[:, None]


@dataclass(frozen=True)
class AttenuationNoise:
    """Whole-series damping by a factor in (0, 1)."""

    factor: float
    kind = "attenuation"

    def __post_init__(self):
        if not 0.0 < self.factor < 1.0:
            raise ValueError("attenuation factor must be in (0, 1)")

    def apply(self, matrix: np.ndarray, row_stds: np.ndarray, seed: int) -> None:
        matrix *= self.factor


@dataclass(frozen=True)
class DistortionNoise:
    """Additive white Gaussian noise at a target SNR in dB."""

    target_snr_db: float = 20.0
    kind = "distortion"

    def __post_init__(self):
        if not abs(self.target_snr_db) <= MAX_ABS_DB:
            raise ValueError(f"target_snr_db = {self.target_snr_db} must be in "
                             f"[-{MAX_ABS_DB:g}, {MAX_ABS_DB:g}]")

    def apply(self, matrix: np.ndarray, row_stds: np.ndarray, seed: int) -> None:
        """A generator seeded with `seed` draws the noise row after row."""
        rng = np.random.default_rng(seed)
        powers = np.add.reduce(np.square(matrix), axis=1) / matrix.shape[1]
        for values, power in zip(matrix, powers.tolist()):
            sigma = math.sqrt(power / (10.0 ** (self.target_snr_db / 10.0)))
            values += rng.normal(0.0, sigma, size=values.size)


NoiseSpec = SpikeNoise | AttenuationNoise | DistortionNoise
NOISE_KINDS = {cls.kind: cls for cls in get_args(NoiseSpec)}
#: How a spec file's value is read for each field annotation.
_FIELD_READERS = {"int": json_integer, "float": json_number}


def spec_to_dict(spec: NoiseSpec) -> dict:
    """The kind, then the fields in order (``vars``: no deep copy)."""
    return {"kind": spec.kind, **vars(spec)}


def spec_from_dict(payload: dict) -> NoiseSpec:
    try:
        kind = payload["kind"]
        # A kind no dict can look up (a list, an object) is unknown too.
        cls = NOISE_KINDS.get(kind) if isinstance(kind, str) else None
        if cls is not None:
            return cls(**{f.name: _FIELD_READERS[f.type](payload[f.name], f.name)
                          for f in fields(cls)
                          if f.name in payload or f.default is MISSING})
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad noise spec {payload!r}: {exc}") from None
    raise ParseError(f"unknown noise kind {kind!r}")


def read_spec(path) -> NoiseSpec:
    return read_json(path, spec_from_dict)


def write_spec(spec: NoiseSpec, path) -> None:
    write_text(path, json_text(spec_to_dict(spec)))


def inject(sig: Signature, spec: NoiseSpec, seed: int) -> Signature:
    """A copy of `sig` with `spec` applied to every row."""
    matrix = sig.matrix.copy()
    spec.apply(matrix, sig.row_stds, seed)
    return Signature(sig.parameters, matrix, sig.provider_id)


# ---------------------------------------------------------------------------
# SNR

@dataclass(frozen=True, order=True)
class SnrValue:
    """A signal-to-noise ratio; ``inf`` when it is unbounded (see
    :func:`mean_square_ratios`), which orders it above every finite
    ratio, so ``min`` picks the lowest."""

    ratio: float

    def __post_init__(self):
        if not self.ratio >= 0.0:  # also false for NaN
            raise ValueError("SNR ratio must be non-negative")

    @property
    def infinite(self) -> bool:
        return self.ratio == math.inf


def mean_square_ratios(signal_ms, noise_ms) -> np.ndarray:
    """Signal over noise mean squares, elementwise; ``inf`` where the noise
    mean square is zero (all-zero noise, or squares so small they
    underflow) or the quotient overflows."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(noise_ms > 0.0, signal_ms / noise_ms, math.inf)


def check_aligned(existing: Signature, recomputed: Signature) -> None:
    """Raise unless the two signatures share grid and parameters."""
    if (existing.matrix.shape != recomputed.matrix.shape
            or existing.parameters != recomputed.parameters):
        raise AlignmentError(
            f"signatures must share grid and parameters: existing {existing.parameters} on "
            f"{existing.matrix.shape[1]} points, recomputed {recomputed.parameters} on "
            f"{recomputed.matrix.shape[1]} points")


def residual(existing: Signature, recomputed: Signature) -> np.ndarray:
    """Noise estimate, one row per parameter: existing minus recomputed."""
    check_aligned(existing, recomputed)
    return existing.matrix - recomputed.matrix


def segment_mean_squares(a: np.ndarray, segments: int) -> np.ndarray:
    """Mean square of each of `segments` equal column blocks of a
    ``(..., rows, L)`` array, shape ``(..., segments)``.  L must split
    into whole segments of at least two points, so that every point is
    checked."""
    if segments < 1:
        raise ValueError("need at least one segment")
    *lead, rows, length = a.shape
    seg_len, rest = divmod(length, segments)
    if rest:
        raise AlignmentError(f"a {length}-point grid does not split "
                             f"into {segments} equal segments")
    if seg_len < 2:
        raise AlignmentError("segments too short for the grid")
    # Row i of the last two axes holds a[..., :, i*seg_len:(i+1)*seg_len]
    # in C order, so each sum along the contiguous last axis is the one
    # np.mean of that column block takes.
    blocks = np.square(a).reshape(*lead, rows, segments, seg_len).swapaxes(-3, -2)
    blocks = blocks.reshape(*lead, segments, rows * seg_len)
    return np.add.reduce(blocks, axis=-1) / blocks.shape[-1]


def snr_ratios(signal: np.ndarray, noise: np.ndarray, segments: int) -> np.ndarray:
    """SNR ratio of each of `segments` equal column blocks of two
    ``(..., rows, L)`` arrays, shape ``(..., segments)``, with ``inf`` for
    the unbounded case of :func:`mean_square_ratios`; see
    :func:`segment_mean_squares`."""
    return mean_square_ratios(segment_mean_squares(signal, segments),
                              segment_mean_squares(noise, segments))


@dataclass(frozen=True)
class NoiseProfile:
    """Per-segment baseline SNR learned over a monitoring period."""

    segment_snrs: tuple[SnrValue, ...]
    segment_length: int

    def __post_init__(self):
        object.__setattr__(self, "segment_snrs", tuple(self.segment_snrs))
        if not self.segment_snrs:
            raise ValueError("profile needs at least one segment")
        if self.segment_length < 2:
            # Detectors judge segments of at least two points (segment_mean_squares).
            raise ValueError(f"segment_length = {self.segment_length} must be at least 2")

    @property
    def segments(self) -> int:
        return len(self.segment_snrs)


def profile_from_ratios(ratios, segment_length: int) -> NoiseProfile:
    """A profile over per-segment SNR ratios, ``inf`` meaning unbounded."""
    return NoiseProfile(tuple(map(SnrValue, np.asarray(ratios).tolist())), segment_length)


def learn_noise_profile(existing: Signature, recomputed: Signature,
                        segments: int) -> NoiseProfile:
    """Per-segment SNR of existing against the residual of a recomputed
    signature taken over a noise-only monitoring period.

    Segment i covers grid indices [i*seg, (i+1)*seg) with
    seg = L / segments over an L-point grid; see :func:`snr_ratios`.
    """
    ratios = snr_ratios(existing.matrix, residual(existing, recomputed), segments)
    return profile_from_ratios(ratios, existing.matrix.shape[1] // segments)


def profile_to_dict(profile: NoiseProfile) -> dict:
    return {
        "segment_length": profile.segment_length,
        "segment_snrs": [None if s.infinite else s.ratio for s in profile.segment_snrs],
    }


def _ratio_from_json(value, key: str) -> float:
    """A profile file spells an unbounded SNR only as ``null``."""
    return math.inf if value is None else json_number(value, key)


def profile_from_dict(payload: dict) -> NoiseProfile:
    try:
        snrs = tuple(SnrValue(_ratio_from_json(r, f"segment_snrs[{i}]"))
                     for i, r in enumerate(json_list(payload["segment_snrs"], "segment_snrs")))
        return NoiseProfile(snrs, json_integer(payload["segment_length"], "segment_length"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad noise profile: {exc}") from None


def read_profile(path) -> NoiseProfile:
    return read_json(path, profile_from_dict)


def write_profile(profile: NoiseProfile, path) -> None:
    write_text(path, json_text(profile_to_dict(profile)))
