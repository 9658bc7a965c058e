"""Noise injection (spike, attenuation, distortion), SNR, noise profiles.

Injection modifies signature rows in place semantics-wise: the result is
a copy of the input with the noise applied and is deliberately NOT
re-normalized, so detectors see the raw effect.  Everything is
deterministic for a given (spec, seed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Signature, json_integer, json_list, json_number, json_text, read_json,
                   write_text)
from .errors import AlignmentError, ParseError


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


@dataclass(frozen=True)
class AttenuationNoise:
    """Whole-series damping by a factor in (0, 1)."""

    factor: float
    kind = "attenuation"

    def __post_init__(self):
        if not 0.0 < self.factor < 1.0:
            raise ValueError("attenuation factor must be in (0, 1)")


@dataclass(frozen=True)
class DistortionNoise:
    """Additive white Gaussian noise at a target SNR in dB."""

    target_snr_db: float = 20.0
    kind = "distortion"


NoiseSpec = SpikeNoise | AttenuationNoise | DistortionNoise


def spec_to_dict(spec: NoiseSpec) -> dict:
    if isinstance(spec, SpikeNoise):
        return {"kind": "spike", "position": spec.position,
                "width": spec.width, "magnitude": spec.magnitude}
    if isinstance(spec, AttenuationNoise):
        return {"kind": "attenuation", "factor": spec.factor}
    if isinstance(spec, DistortionNoise):
        return {"kind": "distortion", "target_snr_db": spec.target_snr_db}
    raise TypeError(f"not a noise spec: {spec!r}")


def spec_from_dict(payload: dict) -> NoiseSpec:
    try:
        kind = payload["kind"]
        if kind == "spike":
            return SpikeNoise(json_integer(payload["position"], "position"),
                              json_integer(payload.get("width", 3), "width"),
                              json_number(payload.get("magnitude", 5.0), "magnitude"))
        if kind == "attenuation":
            return AttenuationNoise(json_number(payload["factor"], "factor"))
        if kind == "distortion":
            return DistortionNoise(json_number(payload.get("target_snr_db", 20.0),
                                               "target_snr_db"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad noise spec {payload!r}: {exc}") from None
    raise ParseError(f"unknown noise kind {kind!r}")


def read_spec(path) -> NoiseSpec:
    return read_json(path, spec_from_dict)


def write_spec(spec: NoiseSpec, path) -> None:
    write_text(path, json_text(spec_to_dict(spec)))


def apply_noise(matrix: np.ndarray, row_stds: np.ndarray, spec: NoiseSpec,
                seed: int) -> None:
    """Apply a noise spec in place to every row of a ``(rows, L)`` matrix
    whose rows have population stds ``row_stds`` (a spike is sized by the
    untouched row).  Only distortion draws random numbers: a generator
    seeded with `seed` draws them row after row."""
    if isinstance(spec, SpikeNoise):
        if spec.position + spec.width > matrix.shape[1]:
            raise ValueError("spike window exceeds the grid")
        matrix[:, spec.position:spec.position + spec.width] += spec.magnitude * row_stds[:, None]
    elif isinstance(spec, AttenuationNoise):
        matrix *= spec.factor
    elif isinstance(spec, DistortionNoise):
        rng = np.random.default_rng(seed)
        powers = np.add.reduce(np.square(matrix), axis=1) / matrix.shape[1]
        for values, power in zip(matrix, powers.tolist()):
            sigma = math.sqrt(power / (10.0 ** (spec.target_snr_db / 10.0)))
            values += rng.normal(0.0, sigma, size=values.size)
    else:
        raise TypeError(f"not a noise spec: {spec!r}")


def inject(sig: Signature, spec: NoiseSpec, seed: int) -> Signature:
    """A copy of `sig` with `spec` applied to every row by :func:`apply_noise`."""
    matrix = sig.matrix.copy()
    apply_noise(matrix, sig.row_stds, spec, seed)
    return Signature(sig.parameters, matrix, sig.grid, sig.provider_id)


# ---------------------------------------------------------------------------
# SNR

@dataclass(frozen=True, order=True)
class SnrValue:
    """A signal-to-noise ratio; ``inf`` when it is unbounded (see
    :func:`_ratios`), which orders it above every finite ratio, so ``min``
    picks the lowest."""

    ratio: float

    def __post_init__(self):
        if not self.ratio >= 0.0:  # also false for NaN
            raise ValueError("SNR ratio must be non-negative")

    @classmethod
    def unbounded(cls) -> "SnrValue":
        return cls(math.inf)

    @property
    def infinite(self) -> bool:
        return self.ratio == math.inf

    @property
    def db(self) -> float:
        if self.ratio == 0.0:
            return -math.inf
        return 10.0 * math.log10(self.ratio)


def _ratios(signal_ms, noise_ms) -> np.ndarray:
    """Signal over noise mean squares, elementwise; ``inf`` where the noise
    mean square is zero (all-zero noise, or squares so small they
    underflow) or the quotient overflows."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(noise_ms > 0.0, signal_ms / noise_ms, math.inf)


def snr(signal, noise) -> SnrValue:
    """Mean-square(signal) over mean-square(noise); arrays of any shape
    are pooled.  See :func:`_ratios` for the infinite case."""
    s = np.asarray(signal, dtype=np.float64)
    n = np.asarray(noise, dtype=np.float64)
    if s.size == 0 or n.size == 0:
        raise ValueError("signal and noise must be non-empty")
    return SnrValue(float(_ratios(np.add.reduce(np.square(s), axis=None) / s.size,
                                  np.add.reduce(np.square(n), axis=None) / n.size)))


def check_aligned(existing: Signature, recomputed: Signature) -> None:
    """Raise unless the two signatures share grid and parameters."""
    if existing.grid != recomputed.grid or existing.parameters != recomputed.parameters:
        raise AlignmentError("signatures must share grid and parameters")


def residual(existing: Signature, recomputed: Signature) -> np.ndarray:
    """Noise estimate, one row per parameter: existing minus recomputed."""
    check_aligned(existing, recomputed)
    return existing.matrix - recomputed.matrix


def _segment_mean_squares(a: np.ndarray, segments: int) -> np.ndarray:
    """Mean square of each of `segments` equal column blocks of a
    ``(..., rows, L)`` array, shape ``(..., segments)``."""
    *lead, rows, length = a.shape
    seg_len = length // segments
    # Row i of the last two axes holds a[..., :, i*seg_len:(i+1)*seg_len]
    # in C order, so each sum along the contiguous last axis is the one
    # np.mean of that column block takes.
    blocks = np.square(a).reshape(*lead, rows, segments, seg_len).swapaxes(-3, -2)
    blocks = blocks.reshape(*lead, segments, rows * seg_len)
    return np.add.reduce(blocks, axis=-1) / blocks.shape[-1]


def snr_ratios(signal: np.ndarray, noise: np.ndarray, segments: int) -> np.ndarray:
    """SNR ratio of each of `segments` equal column blocks of two
    ``(..., rows, L)`` arrays, shape ``(..., segments)``, with ``inf`` for
    the unbounded case of :func:`_ratios`.  L must split into whole
    segments, so that every point is checked."""
    if segments < 1:
        raise ValueError("need at least one segment")
    length = signal.shape[-1]
    seg_len, rest = divmod(length, segments)
    if rest:
        raise AlignmentError(f"a {length}-point grid does not split "
                             f"into {segments} equal segments")
    if seg_len < 2:
        raise ValueError("segments too short for the grid")
    return _ratios(_segment_mean_squares(signal, segments),
                   _segment_mean_squares(noise, segments))


@dataclass(frozen=True)
class NoiseProfile:
    """Per-segment baseline SNR learned over a monitoring period."""

    segment_snrs: tuple[SnrValue, ...]
    segment_length: int

    def __post_init__(self):
        object.__setattr__(self, "segment_snrs", tuple(self.segment_snrs))
        if not self.segment_snrs:
            raise ValueError("profile needs at least one segment")
        if self.segment_length < 1:
            raise ValueError("segment_length must be at least 1")

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
    seg = grid.length / segments; see :func:`snr_ratios`.
    """
    ratios = snr_ratios(existing.matrix, residual(existing, recomputed), segments)
    return profile_from_ratios(ratios, existing.grid.length // segments)


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
