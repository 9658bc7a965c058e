"""Synthetic workload traces, provider QoS profiles, and benchmark corpora.

The pipeline mirrors how a broker would assemble ground truth:

* a workload trace gives per-node requested cores (whole cores out of
  ``CORES_TOTAL``) over a raw grid;
* a baseline map turns demand into baseline performance (heavier load,
  lower throughput);
* a provider profile perturbs the baseline with a workload response map,
  a seasonal map stretched over the observation grid, and bounded random
  jitter;
* every node acts as one trial user; PAA reduces the raw series to the
  observation grid and the cohort mean becomes the provider signature.

Labeled pairs are then (signature, modified copy): a splice from a donor
provider for the "changed" class, or one of the three noise kinds for
the "noisy" class.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Iterator, NamedTuple

import numpy as np

from .config import CorpusParams
from .core import (Signature, block_slices, check_stack, json_list, json_number, json_text,
                   parse_json, unit_rows, write_csv, write_text)
from .errors import AlignmentError, ParseError
from .noisegen import AttenuationNoise, DistortionNoise, NoiseSpec, SpikeNoise, spec_to_dict


# ---------------------------------------------------------------------------
# Workload traces

CORES_TOTAL = 32  # cores per trace node


def synthesize_trace(nodes: int, length: int, seed: int) -> np.ndarray:
    """Bounded random-walk demand per node, quantized to whole cores.

    Returns the read-only ``uint8`` ``(nodes, length)`` matrix of
    requested cores, each in ``0..CORES_TOTAL``; row i is node i.

    Every node's start is drawn first; then each block of nodes (see
    ``BLOCK_BYTES``) draws, walks, folds and quantizes its steps, so the
    float temporaries are one block in size.  Consecutive draws from one
    generator give the variates of a single draw, so the trace does not
    depend on the block size.
    """
    if nodes < 1 or length < 2:
        raise ValueError("need at least one node and two timestamps")
    rng = np.random.default_rng(seed)
    start = rng.uniform(0.25, 0.75, size=(nodes, 1))
    cores = np.empty((nodes, length), dtype=np.uint8)  # 0..CORES_TOTAL
    for block in block_slices(nodes, 8 * length):
        first = start[block]
        steps = rng.normal(0.0, 0.015, size=(first.shape[0], length - 1))
        walk = np.empty((first.shape[0], length))
        walk[:, :1] = first
        np.cumsum(steps, axis=1, out=walk[:, 1:])
        walk[:, 1:] += first
        # Reflect into [0, 1]: fold the walk back at both edges, in place.
        # walk - 2*floor(walk/2) is np.mod(walk, 2.0) to the bit (halving and
        # doubling are exact, and each side rounds the same exact value once),
        # without np.mod's slower divmod.
        twice_floor = walk * 0.5
        np.floor(twice_floor, out=twice_floor)
        twice_floor *= 2.0
        walk -= twice_floor
        np.subtract(2.0, walk, out=walk, where=walk > 1.0)
        walk *= CORES_TOTAL
        np.rint(walk, out=cores[block], casting="unsafe")
    cores.setflags(write=False)
    return cores


def write_trace(cores: np.ndarray, path) -> None:
    """Trace CSV: node_id,timestamp,cores_requested,cores_total, where
    row i of the ``(nodes, timestamps)`` cores matrix is node ``node-{i:02d}``."""
    nodes = [f"node-{i:02d}" for i in range(len(cores))]
    write_csv(path, ["node_id", "timestamp", "cores_requested", "cores_total"],
              [f"{node},{t},{requested},{CORES_TOTAL}"
               for node, row in zip(nodes, cores.tolist())
               for t, requested in enumerate(row)])


# ---------------------------------------------------------------------------
# Baseline map and provider profiles

@dataclass(frozen=True)
class BaselineMap:
    """Piecewise-linear demand -> baseline performance, strictly decreasing."""

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self):
        bps = tuple((float(d), float(p)) for d, p in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if len(bps) < 2:
            raise ValueError("baseline map needs at least two breakpoints")
        demands = [d for d, _ in bps]
        perfs = [p for _, p in bps]
        if demands[0] != 0.0 or demands[-1] != 1.0:
            raise ValueError("baseline map must cover demand 0.0 to 1.0")
        if not all(a < b for a, b in zip(demands, demands[1:])):
            raise ValueError("baseline demands must be strictly increasing")
        if not all(a > b for a, b in zip(perfs, perfs[1:])):
            raise ValueError("baseline performance must strictly decrease with demand")
        if not perfs[-1] > 0:
            raise ValueError("baseline performance must stay positive")


def baseline_performance(bmap: BaselineMap, demand) -> float | np.ndarray:
    """Interpolate baseline performance at a demand fraction in [0, 1]."""
    arr = np.asarray(demand, dtype=np.float64)
    if not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise ValueError("demand must lie in [0, 1]")
    xs = np.array([d for d, _ in bmap.breakpoints])
    ys = np.array([p for _, p in bmap.breakpoints])
    out = np.interp(arr, xs, ys)
    return float(out) if np.isscalar(demand) or arr.ndim == 0 else out


@dataclass(frozen=True)
class IntervalRule:
    """Half-open interval [lo, hi) mapped to a multiplier (last hi inclusive)."""

    lo: float
    hi: float
    multiplier: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError("interval must have positive width")
        if not self.multiplier > 0:
            raise ValueError("multiplier must be positive")


def _check_tiling(rules: tuple[IntervalRule, ...], lo: float, hi: float, what: str):
    if not rules:
        raise ValueError(f"{what} needs at least one rule")
    if rules[0].lo != lo or rules[-1].hi != hi:
        raise ValueError(f"{what} must tile [{lo}, {hi}]")
    for a, b in zip(rules, rules[1:]):
        if b.lo != a.hi:
            raise ValueError(f"{what} rules must tile without gaps or overlap")


def _rule_values(rules: tuple[IntervalRule, ...], x, scale: float = 1.0) -> np.ndarray:
    """The multiplier of the rule each point of ``x`` falls in, with every
    bound of the tiling ``rules`` multiplied by ``scale``."""
    edges = np.array([r.lo for r in rules] + [rules[-1].hi]) * scale
    multipliers = np.array([r.multiplier for r in rules])
    arr = np.asarray(x, dtype=np.float64)
    if arr.min() < edges[0] or arr.max() > edges[-1]:
        raise ValueError("value outside the rule domain")
    idx = np.searchsorted(edges, arr, side="right") - 1
    return multipliers[np.clip(idx, 0, multipliers.size - 1)]


@dataclass(frozen=True)
class QoSProfile:
    """How one provider's performance deviates from the baseline."""

    provider_id: str
    workload_map: tuple[IntervalRule, ...]   # over demand fraction [0, 1]
    seasonal_map: tuple[IntervalRule, ...]   # one period, stretched over the grid
    jitter_amplitude: float

    def __post_init__(self):
        object.__setattr__(self, "workload_map", tuple(self.workload_map))
        object.__setattr__(self, "seasonal_map", tuple(self.seasonal_map))
        if not self.provider_id:
            raise ValueError("provider_id must be non-empty")
        _check_tiling(self.workload_map, 0.0, 1.0, "workload map")
        _check_tiling(self.seasonal_map, 0.0, self.seasonal_map[-1].hi, "seasonal map")
        if not self.jitter_amplitude >= 0:
            raise ValueError("jitter amplitude must be non-negative")

    @property
    def grid_span(self) -> int:
        return int(self.seasonal_map[-1].hi)


def profile_to_dict(profile: QoSProfile) -> dict:
    return {
        "provider_id": profile.provider_id,
        "jitter_amplitude": profile.jitter_amplitude,
        "workload_map": [[r.lo, r.hi, r.multiplier] for r in profile.workload_map],
        "seasonal_map": [[r.lo, r.hi, r.multiplier] for r in profile.seasonal_map],
    }


def _rules_from_json(payload: dict, key: str) -> tuple[IntervalRule, ...]:
    rules = []
    for i, rule in enumerate(json_list(payload[key], key)):
        if len(json_list(rule, f"{key}[{i}]")) != 3:
            raise ParseError(f"{key}[{i}]: expected [lo, hi, multiplier], got {rule!r}")
        rules.append(IntervalRule(*(json_number(v, f"{key}[{i}][{j}]")
                                    for j, v in enumerate(rule))))
    return tuple(rules)


def profile_from_dict(payload: dict) -> QoSProfile:
    try:
        provider_id = payload["provider_id"]
        if not isinstance(provider_id, str):
            raise ParseError(f"provider_id: expected a string, got {provider_id!r}")
        return QoSProfile(
            provider_id,
            _rules_from_json(payload, "workload_map"),
            _rules_from_json(payload, "seasonal_map"),
            json_number(payload["jitter_amplitude"], "jitter_amplitude"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad profile payload: {exc}") from None


def write_profile(profile: QoSProfile, path) -> None:
    write_text(path, json_text(profile_to_dict(profile), indent=2))


def _baseline_from_json(payload: dict) -> BaselineMap:
    points = json_list(payload["breakpoints"], "breakpoints")
    return BaselineMap(tuple((json_number(d, f"breakpoints[{i}]"),
                              json_number(p, f"breakpoints[{i}]"))
                             for i, (d, p) in enumerate(points)))


def default_baseline() -> BaselineMap:
    entry = resources.files("sigdrift.data").joinpath("baseline_map.json")
    return parse_json(entry.read_text("utf-8"), _baseline_from_json, entry.name)


def default_profiles() -> list[QoSProfile]:
    root = resources.files("sigdrift.data").joinpath("profiles")
    profiles = [parse_json(entry.read_text("utf-8"), profile_from_dict, entry.name)
                for entry in sorted(root.iterdir(), key=lambda e: e.name)
                if entry.name.endswith(".json")]
    if not profiles:
        raise RuntimeError("no packaged provider profiles found")
    return profiles


# ---------------------------------------------------------------------------
# Performance synthesis

PARAMETERS = ("throughput",)  # the one row of every synthesized signature


def paa_boundaries(length: int, target_length: int) -> np.ndarray:
    """Frame boundaries of piecewise aggregate approximation (PAA) from
    ``length`` raw points to ``target_length``: frame j is raw points
    [bounds[j], bounds[j+1]), with each bound the round-half-up of
    j*length/target_length."""
    if target_length < 1:
        raise ValueError("target length must be at least 1")
    if target_length > length:
        raise ValueError("target length exceeds series length")
    j = np.arange(target_length + 1, dtype=np.int64)
    # floor(j*L/m + 1/2) done in exact integer arithmetic
    return (2 * j * length + target_length) // (2 * target_length)


def _multipliers(profile: QoSProfile, levels, day_of: np.ndarray, grid_length: int,
                 baseline: BaselineMap) -> tuple[np.ndarray, np.ndarray]:
    """The baseline times the workload response at each demand level of
    ``levels``, and the seasonal multiplier at each raw timestamp, where
    ``day_of[t]`` is the index of timestamp t on a grid of
    ``grid_length`` points.

    The seasonal map is one period, stretched over the grid: each of its
    bounds is multiplied by ``grid_length`` over the map's span.

    The baseline and the workload response depend on demand alone, so
    they are looked up once per demand level and gathered; being
    elementwise, each gathered value is the double a lookup at that
    point would give.
    """
    return (baseline_performance(baseline, levels) * _rule_values(profile.workload_map, levels),
            _rule_values(profile.seasonal_map, day_of,
                         grid_length / profile.seasonal_map[-1].hi))


def _performance_matrix(table: np.ndarray, seasonal: np.ndarray, jitter_amplitude: float,
                        level_of, rng: np.random.Generator) -> np.ndarray:
    """Raw performance of the nodes whose rows ``level_of`` holds, at
    every raw timestamp: ``table[level_of[i, t]] * seasonal[t]`` with
    jitter drawn from ``rng``, for the ``(table, seasonal)`` of
    :func:`_multipliers`."""
    # table * seasonal * (1 + amplitude * U), left to right as written,
    # in place: each temporary is as large as ``level_of``.
    perf = table[level_of]
    perf *= seasonal[None, :]
    jitter = rng.random(perf.shape)
    jitter *= jitter_amplitude
    jitter += 1.0
    perf *= jitter
    return perf


def build_provider_signatures(profiles, cores: np.ndarray, grid_length: int,
                              seed: int | np.random.SeedSequence = 0) -> list[Signature]:
    """One signature per profile: every node (row) of the ``(nodes,
    timestamps)`` trace ``cores`` acts as a trial user.

    Each node's raw performance series is PAA-reduced to the grid (the
    mean of each frame of :func:`paa_boundaries`) and the node cohort is
    averaged and normalized into the signature.  The raw series are made
    one block of nodes (see ``BLOCK_BYTES``) at a time, and each block's
    frame sums go straight into one ``(nodes, grid)`` buffer that every
    profile reuses, divided by the frame widths once the profile's
    blocks are summed; a profile's jitter comes from consecutive draws
    of its generator, which give the variates of a single draw.
    """
    cores = np.asarray(cores)
    if not np.issubdtype(cores.dtype, np.integer):
        raise ValueError("cores must be an integer array")
    if cores.ndim != 2:
        raise ValueError("cores must be (nodes, timestamps)")
    nodes, length = cores.shape
    if nodes < 1:
        raise ValueError("trace needs at least one node")
    if length < 2:
        raise ValueError("trace needs at least two timestamps")
    if cores.min() < 0 or cores.max() > CORES_TOTAL:
        raise ValueError(f"requested cores must lie in [0, {CORES_TOTAL}]")
    profiles = list(profiles)
    if not profiles:
        raise ValueError("need at least one profile")
    if grid_length > length:
        raise AlignmentError("grid cannot be finer than the trace")

    bounds = paa_boundaries(length, grid_length)
    widths = np.diff(bounds)
    # Grid index of each raw timestamp: the PAA frame it lands in.
    day_of = np.repeat(np.arange(grid_length), widths)
    # Demand level k is k whole cores; the trace holds each point's level.
    levels = np.arange(CORES_TOTAL + 1) / CORES_TOTAL

    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    streams = ss.spawn(len(profiles))
    baseline = default_baseline()
    blocks = block_slices(nodes, 8 * length)
    reduced = np.empty((nodes, grid_length))
    signatures = []
    for profile, stream in zip(profiles, streams):
        rng = np.random.default_rng(stream)
        table, seasonal = _multipliers(profile, levels, day_of, grid_length, baseline)
        for block in blocks:
            np.add.reduceat(_performance_matrix(table, seasonal, profile.jitter_amplitude,
                                                cores[block], rng),
                            bounds[:-1], axis=-1, out=reduced[block])
        reduced /= widths
        means = reduced.mean(axis=0, keepdims=True)
        signatures.append(Signature(PARAMETERS, unit_rows(means, PARAMETERS),
                                    profile.provider_id))
    return signatures


# ---------------------------------------------------------------------------
# Labeled pairs and corpora

class Label(Enum):
    CHANGED = "changed"
    NOISY = "noisy"


@dataclass(frozen=True)
class LabeledPair:
    existing: Signature
    recomputed: Signature
    label: Label
    noise: NoiseSpec | None
    provenance: dict


class _Splice(NamedTuple):
    """Columns [start, stop) of the base matrix `donor`, which ``apply`` copies in."""

    donor: np.ndarray
    start: int
    stop: int

    def apply(self, matrix: np.ndarray, row_stds: np.ndarray, seed: int) -> None:
        matrix[:, self.start:self.stop] = self.donor[:, self.start:self.stop]


def _pair_blocks(bases: list[Signature], drawn: list[tuple[int, _Splice | NoiseSpec, dict]]
                 ) -> Iterator[list[LabeledPair]]:
    """The pairs one block at a time: pair i, drawn as ``(base, edit,
    provenance)``, is ``bases[base]`` against a copy of it with ``edit``
    applied, a splice (a changed pair) or noise seeded with
    ``provenance["seed"]`` (a noisy pair).

    Each block's copies fill one ``(pairs, rows, L)`` array of about
    ``BLOCK_BYTES``, which is checked once and then made read-only; each
    recomputed signature is a view of its slice.  Blocks, not one array
    for the whole corpus, so that a corpus reuses freed memory of the
    size its pairs take, as pair-at-a-time copies do, and a caller that
    drops each block holds one block at a time.
    """
    first = bases[0]
    matrices = np.stack([sig.matrix for sig in bases])
    indices = np.array([base for base, _, _ in drawn], dtype=np.intp)
    for block in block_slices(len(drawn), first.matrix.nbytes):
        block_drawn = drawn[block]
        stack = np.empty((len(block_drawn),) + first.matrix.shape)
        # mode="raise" would buffer a hidden copy of the block.
        np.take(matrices, indices[block], axis=0, out=stack, mode="clip")
        for values, (base, edit, provenance) in zip(stack, block_drawn):
            edit.apply(values, bases[base].row_stds, provenance["seed"])
        row_stds = check_stack(stack, first.parameters)
        stack.setflags(write=False)

        pairs = []
        for values, stds, (base, edit, provenance) in zip(stack, row_stds, block_drawn):
            existing = bases[base]
            recomputed = Signature._checked(existing.parameters, values,
                                            existing.provider_id, stds)
            label, noise = ((Label.CHANGED, None) if isinstance(edit, _Splice)
                            else (Label.NOISY, edit))
            pairs.append(LabeledPair(existing, recomputed, label, noise, provenance))
        yield pairs


def base_signature_seeds(seed: int) -> tuple[int, np.random.SeedSequence]:
    """The trace seed and the provider-signature stream derived from `seed`."""
    ss_trace, ss_perf = np.random.SeedSequence(seed).spawn(2)
    return int(ss_trace.generate_state(1)[0]), ss_perf


def build_base_signatures(seed: int, params: CorpusParams = CorpusParams(),
                          profiles=None) -> list[Signature]:
    """Synthesize a trace and derive one signature per packaged profile."""
    profiles = profiles if profiles is not None else default_profiles()
    trace_seed, perf_seed = base_signature_seeds(seed)
    cores = synthesize_trace(params.nodes, params.raw_length, trace_seed)
    return build_provider_signatures(profiles, cores, params.grid_length, seed=perf_seed)


def _noise_counts(n_noisy: int, distortion_fraction: float,
                  params: CorpusParams) -> tuple[int, int, int]:
    n_distortion = int(round(distortion_fraction * n_noisy))
    n_attenuation = min(int(round(params.attenuation_share * n_noisy)),
                        n_noisy - n_distortion)
    n_spike = n_noisy - n_distortion - n_attenuation
    return n_spike, n_distortion, n_attenuation


def corpus_blocks(n_changed: int, n_noisy: int, distortion_fraction: float,
                  seed: int, signatures: list[Signature],
                  params: CorpusParams = CorpusParams()) -> Iterator[list[LabeledPair]]:
    """Deterministic labeled corpus over base `signatures`, one block of
    pairs at a time: changed pairs first, then noisy pairs.

    Changed and noisy pairs consume independent random streams, so
    changing only the noise composition leaves the changed pairs
    untouched for the same seed.  Every setting and base signature is
    checked, then every pair is drawn, here; the returned iterator fills
    the pairs' matrices a block at a time as it is advanced.
    """
    if n_changed < 0 or n_noisy < 0:
        raise ValueError("pair counts must be non-negative")
    if not 0.0 <= distortion_fraction <= 1.0:
        raise ValueError("distortion fraction must be in [0, 1]")
    k = len(signatures)
    if n_changed > 0 and k < 2:
        raise ValueError("changed pairs need at least two base signatures")
    if k < 1:
        raise ValueError("need at least one base signature")
    for sig in signatures[1:]:
        if (sig.matrix.shape != signatures[0].matrix.shape
                or sig.parameters != signatures[0].parameters):
            raise AlignmentError("base signatures must share grid and parameters")
    if n_changed > 0:
        provider, count = Counter(sig.provider_id for sig in signatures).most_common(1)[0]
        if count > 1:
            raise ValueError("changed pairs need base signatures of distinct providers; "
                             f"{provider!r} appears {count} times")

    # The first child once seeded default base signatures; it is still
    # spawned so that the other three streams keep their seeds.
    _, ss_changed, ss_noisy, ss_pair_seeds = np.random.SeedSequence(seed).spawn(4)
    grid_length = signatures[0].matrix.shape[1]
    pair_seeds = [int(s) for s in ss_pair_seeds.generate_state(n_changed + n_noisy,
                                                               dtype=np.uint64)]
    # Draw every pair's (base, edit, provenance) first, one scalar draw at
    # a time in the order of the pair-at-a-time build (a vectorized draw
    # changes the stream), then fill the pairs a block at a time.
    drawn: list[tuple[int, _Splice | NoiseSpec, dict]] = []

    rng_changed = np.random.default_rng(ss_changed)
    for i in range(n_changed):
        base = int(rng_changed.integers(0, k))
        donor = int(rng_changed.integers(0, k - 1))
        if donor >= base:
            donor += 1
        start = int(rng_changed.integers(0, grid_length - params.changed_segment + 1))
        drawn.append((base, _Splice(signatures[donor].matrix, start,
                                    start + params.changed_segment),
                      {"donor": signatures[donor].provider_id, "segment_start": start,
                       "segment_length": params.changed_segment,
                       "seed": pair_seeds[i], "index": i}))

    n_spike, n_distortion, n_attenuation = _noise_counts(
        n_noisy, distortion_fraction, params)
    kinds = (["spike"] * n_spike + ["distortion"] * n_distortion
             + ["attenuation"] * n_attenuation)
    rng_noisy = np.random.default_rng(ss_noisy)
    for j, kind in enumerate(kinds):
        idx = n_changed + j
        base = int(rng_noisy.integers(0, k))
        if kind == "spike":
            position = int(rng_noisy.integers(0, grid_length - params.spike_width + 1))
            spec: NoiseSpec = SpikeNoise(position, params.spike_width,
                                         params.spike_magnitude)
        elif kind == "distortion":
            spec = DistortionNoise(params.awgn_db)
        else:
            spec = AttenuationNoise(float(rng_noisy.uniform(
                params.attenuation_low, params.attenuation_high)))
        drawn.append((base, spec, {"seed": pair_seeds[idx], "index": idx}))

    return _pair_blocks(signatures, drawn)


def build_corpus(n_changed: int, n_noisy: int, distortion_fraction: float,
                 seed: int, signatures: list[Signature],
                 params: CorpusParams = CorpusParams()) -> list[LabeledPair]:
    """The pairs of :func:`corpus_blocks`, all at once, in its order."""
    return [pair for block in corpus_blocks(n_changed, n_noisy, distortion_fraction, seed,
                                            signatures, params)
            for pair in block]


# ---------------------------------------------------------------------------
# Corpus manifest

def manifest_entry(pair: LabeledPair, existing_path: str, recomputed_path: str,
                   snr_profile_path: str) -> dict:
    """One pair of a corpus as the manifest lists it, with the paths of
    its two signature files and of the SNR profile its provider is
    judged by."""
    entry = {
        "index": pair.provenance["index"],
        "label": pair.label.value,
        "provider": pair.existing.provider_id,
        "seed": pair.provenance["seed"],
        "noise": spec_to_dict(pair.noise) if pair.noise is not None else None,
        "existing_path": existing_path,
        "recomputed_path": recomputed_path,
        "snr_profile_path": snr_profile_path,
    }
    if pair.label is Label.CHANGED:
        entry["donor"] = pair.provenance["donor"]
        entry["segment"] = [pair.provenance["segment_start"],
                            pair.provenance["segment_length"]]
    return entry


def write_manifest(entries: list[dict], config: dict, seed: int, path) -> None:
    payload = {"config": config, "seed": seed, "pairs": entries}
    write_text(path, json_text(payload, indent=2))
