"""Noise injection (spike, attenuation, distortion), SNR, noise profiles.

Injection modifies signature rows in place semantics-wise: the result is
a copy of the input with the noise applied and is deliberately NOT
re-normalized, so detectors see the raw effect.  Everything is
deterministic for a given (spec, seed).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Signature, population_std
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
            return SpikeNoise(int(payload["position"]),
                              int(payload.get("width", 3)),
                              float(payload.get("magnitude", 5.0)))
        if kind == "attenuation":
            return AttenuationNoise(float(payload["factor"]))
        if kind == "distortion":
            return DistortionNoise(float(payload.get("target_snr_db", 20.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad noise spec {payload!r}: {exc}") from None
    raise ParseError(f"unknown noise kind {kind!r}")


def read_spec(path) -> NoiseSpec:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return spec_from_dict(payload)


def write_spec(spec: NoiseSpec, path) -> None:
    Path(path).write_text(json.dumps(spec_to_dict(spec), sort_keys=True) + "\n",
                          encoding="utf-8")


def inject(sig: Signature, spec: NoiseSpec, seed: int) -> Signature:
    """Apply a noise spec to every row; returns an un-renormalized copy.

    Only distortion draws random numbers; `seed` seeds those draws."""
    rng = np.random.default_rng(seed) if isinstance(spec, DistortionNoise) else None
    matrix = sig.matrix.copy()
    for values in matrix:  # std and power are read before the row changes
        if isinstance(spec, SpikeNoise):
            if spec.position + spec.width > values.size:
                raise ValueError("spike window exceeds the grid")
            values[spec.position:spec.position + spec.width] += (
                spec.magnitude * population_std(values)
            )
        elif isinstance(spec, AttenuationNoise):
            values *= spec.factor
        elif isinstance(spec, DistortionNoise):
            power = float(np.add.reduce(np.square(values)) / values.size)
            sigma = math.sqrt(power / (10.0 ** (spec.target_snr_db / 10.0)))
            values += rng.normal(0.0, sigma, size=values.size)
        else:
            raise TypeError(f"not a noise spec: {spec!r}")
    return Signature(sig.parameters, matrix, sig.grid, sig.provider_id)


# ---------------------------------------------------------------------------
# SNR

@dataclass(frozen=True)
class SnrValue:
    """A signal-to-noise ratio; infinite when the noise term is all zero.

    The infinite case is an explicit flag rather than float('inf') so it
    never enters arithmetic by accident; ``<`` orders it above every
    finite ratio, so ``min`` picks the lowest.
    """

    ratio: float
    infinite: bool = False

    def __post_init__(self):
        if not self.infinite and (self.ratio < 0 or not math.isfinite(self.ratio)):
            raise ValueError("SNR ratio must be finite and non-negative")

    @classmethod
    def unbounded(cls) -> "SnrValue":
        return cls(ratio=math.inf, infinite=True)

    @property
    def db(self) -> float:
        if self.infinite:
            return math.inf
        if self.ratio == 0.0:
            return -math.inf
        return 10.0 * math.log10(self.ratio)

    def __lt__(self, other: "SnrValue") -> bool:
        if self.infinite:
            return False
        if other.infinite:
            return True
        return self.ratio < other.ratio


def _snr_value(signal_ms: float, noise_ms: float) -> SnrValue:
    """SNR from two mean squares.  A noise mean square of zero (all-zero
    noise, or squares so small they underflow) gives the infinite value."""
    if noise_ms <= 0.0:
        return SnrValue.unbounded()
    return SnrValue(signal_ms / noise_ms)


def snr(signal, noise) -> SnrValue:
    """Mean-square(signal) over mean-square(noise); arrays of any shape
    are pooled.  See :func:`_snr_value` for the infinite case."""
    s = np.asarray(signal, dtype=np.float64)
    n = np.asarray(noise, dtype=np.float64)
    if s.size == 0 or n.size == 0:
        raise ValueError("signal and noise must be non-empty")
    return _snr_value(float(np.add.reduce(np.square(s), axis=None) / s.size),
                      float(np.add.reduce(np.square(n), axis=None) / n.size))


def residual(existing: Signature, recomputed: Signature) -> np.ndarray:
    """Noise estimate, one row per parameter: existing minus recomputed."""
    if existing.grid != recomputed.grid or existing.parameters != recomputed.parameters:
        raise AlignmentError("signatures must share grid and parameters")
    return existing.matrix - recomputed.matrix


def segment_snrs(signal, noise, segments: int) -> list[SnrValue]:
    """:func:`snr` of each of `segments` equal column blocks of two
    ``(rows, L)`` arrays.  L must split into whole segments, so that
    every point is checked."""
    if segments < 1:
        raise ValueError("need at least one segment")
    length = signal.shape[1]
    seg_len, rest = divmod(length, segments)
    if rest:
        raise AlignmentError(f"a {length}-point grid does not split "
                             f"into {segments} equal segments")
    if seg_len < 2:
        raise ValueError("segments too short for the grid")
    rows = signal.shape[0]

    def mean_squares(a: np.ndarray) -> list[float]:
        # Row i holds a[:, i*seg_len:(i+1)*seg_len] in C order, so each
        # row's sum is the one np.mean of that column block takes.
        blocks = a.reshape(rows, segments, seg_len).transpose(1, 0, 2).reshape(segments, -1)
        return (np.add.reduce(np.square(blocks), axis=1) / blocks.shape[1]).tolist()

    return [_snr_value(s, n) for s, n in zip(mean_squares(signal), mean_squares(noise))]


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


def learn_noise_profile(existing: Signature, recomputed: Signature,
                        segments: int) -> NoiseProfile:
    """Per-segment SNR of existing against the residual of a recomputed
    signature taken over a noise-only monitoring period.

    Segment i covers grid indices [i*seg, (i+1)*seg) with
    seg = grid.length / segments; see :func:`segment_snrs`.
    """
    snrs = segment_snrs(existing.matrix, residual(existing, recomputed), segments)
    return NoiseProfile(tuple(snrs), existing.grid.length // segments)


def combine_min(profiles) -> NoiseProfile:
    """Fold profiles segment-wise, keeping the lowest (noisiest) baseline."""
    profiles = list(profiles)
    if not profiles:
        raise ValueError("nothing to combine")
    first = profiles[0]
    for p in profiles[1:]:
        if p.segments != first.segments or p.segment_length != first.segment_length:
            raise AlignmentError("profiles must share segmentation")
    merged = [min(column) for column in zip(*(p.segment_snrs for p in profiles))]
    return NoiseProfile(tuple(merged), first.segment_length)


def profile_to_dict(profile: NoiseProfile) -> dict:
    return {
        "segment_length": profile.segment_length,
        "segment_snrs": [None if s.infinite else s.ratio for s in profile.segment_snrs],
    }


def profile_from_dict(payload: dict) -> NoiseProfile:
    try:
        snrs = tuple(
            SnrValue.unbounded() if r is None else SnrValue(float(r))
            for r in payload["segment_snrs"]
        )
        return NoiseProfile(snrs, int(payload["segment_length"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad noise profile: {exc}") from None


def read_profile(path) -> NoiseProfile:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return profile_from_dict(payload)


def write_profile(profile: NoiseProfile, path) -> None:
    Path(path).write_text(json.dumps(profile_to_dict(profile), sort_keys=True) + "\n",
                          encoding="utf-8")
