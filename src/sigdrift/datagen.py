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

from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import NamedTuple

import numpy as np

from .config import CorpusParams
from .core import (Signature, block_slices, check_stack, json_list, json_number, json_text,
                   parse_json, unit_rows, write_csv, write_text)
from .errors import AlignmentError, ParseError
from .noisegen import AttenuationNoise, DistortionNoise, NoiseSpec, SpikeNoise, spec_to_dict
from .signature import paa, paa_boundaries


# ---------------------------------------------------------------------------
# Workload traces

CORES_TOTAL = 32  # cores per trace node


@dataclass(frozen=True)
class WorkloadTrace:
    """Per-node requested cores over a raw (pre-PAA) grid."""

    node_ids: tuple[str, ...]
    cores: np.ndarray  # shape (nodes, timestamps), integers in [0, CORES_TOTAL]

    def __post_init__(self):
        object.__setattr__(self, "node_ids", tuple(self.node_ids))
        cores = np.array(self.cores)
        if not np.issubdtype(cores.dtype, np.integer):
            raise ValueError("cores must be an integer array")
        cores.setflags(write=False)
        object.__setattr__(self, "cores", cores)
        if cores.ndim != 2 or cores.shape[0] != len(self.node_ids):
            raise ValueError("cores must be (nodes, timestamps)")
        if not self.node_ids:
            raise ValueError("trace needs at least one node")
        if cores.shape[1] < 2:
            raise ValueError("trace needs at least two timestamps")
        if cores.min() < 0 or cores.max() > CORES_TOTAL:
            raise ValueError(f"requested cores must lie in [0, {CORES_TOTAL}]")

    @property
    def length(self) -> int:
        return int(self.cores.shape[1])


def synthesize_trace(nodes: int, length: int, seed: int) -> WorkloadTrace:
    """Bounded random-walk demand per node, quantized to whole cores."""
    if nodes < 1 or length < 2:
        raise ValueError("need at least one node and two timestamps")
    rng = np.random.default_rng(seed)
    start = rng.uniform(0.25, 0.75, size=(nodes, 1))
    steps = rng.normal(0.0, 0.015, size=(nodes, length - 1))
    walk = np.empty((nodes, length))
    walk[:, :1] = start
    np.cumsum(steps, axis=1, out=walk[:, 1:])
    walk[:, 1:] += start
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
    return WorkloadTrace(tuple(f"node-{i:02d}" for i in range(nodes)),
                         np.rint(walk, out=walk).astype(np.intp))


def write_trace(trace: WorkloadTrace, path) -> None:
    """Trace CSV: node_id,timestamp,cores_requested,cores_total."""
    write_csv(path, ["node_id", "timestamp", "cores_requested", "cores_total"],
              [f"{node},{t},{cores},{CORES_TOTAL}"
               for node, row in zip(trace.node_ids, trace.cores.tolist())
               for t, cores in enumerate(row)])


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
        if any(b <= a for a, b in zip(demands, demands[1:])):
            raise ValueError("baseline demands must be strictly increasing")
        if any(b >= a for a, b in zip(perfs, perfs[1:])):
            raise ValueError("baseline performance must strictly decrease with demand")
        if perfs[-1] <= 0:
            raise ValueError("baseline performance must stay positive")


def baseline_performance(bmap: BaselineMap, demand) -> float | np.ndarray:
    """Interpolate baseline performance at a demand fraction in [0, 1]."""
    arr = np.asarray(demand, dtype=np.float64)
    if arr.min() < 0.0 or arr.max() > 1.0:
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
        if self.hi <= self.lo:
            raise ValueError("interval must have positive width")
        if self.multiplier <= 0:
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
        if self.jitter_amplitude < 0:
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

def _performance_matrix(profile: QoSProfile, levels, level_of,
                        day_of: np.ndarray, grid_length: int, baseline: BaselineMap,
                        rng: np.random.Generator) -> np.ndarray:
    """Raw performance of every node at every raw timestamp, where
    ``levels[level_of[i, t]]`` is node i's demand at timestamp t and
    ``day_of[t]`` is the index of timestamp t on a grid of
    ``grid_length`` points.

    The seasonal map is one period, stretched over the grid: each of its
    bounds is multiplied by ``grid_length`` over the map's span.

    The baseline and the workload response depend on demand alone, so
    they are looked up once per demand level and gathered; being
    elementwise, each gathered value is the double a lookup at that
    point would give.
    """
    table = baseline_performance(baseline, levels) * _rule_values(profile.workload_map, levels)
    smul = _rule_values(profile.seasonal_map, day_of,
                        grid_length / profile.seasonal_map[-1].hi)
    # table * smul * (1 + amplitude * U), left to right as written, in
    # place: on long traces each temporary is a (nodes, raw) array.
    perf = table[level_of]
    perf *= smul[None, :]
    jitter = rng.random(perf.shape)
    jitter *= profile.jitter_amplitude
    jitter += 1.0
    perf *= jitter
    return perf


def build_provider_signatures(profiles, trace: WorkloadTrace, grid_length: int,
                              parameters: tuple[str, ...] = ("throughput",),
                              seed: int | np.random.SeedSequence = 0) -> list[Signature]:
    """One signature per profile: every trace node acts as a trial user.

    Each node's raw performance series is PAA-reduced to the grid and
    the node cohort is averaged and normalized into the signature.
    """
    profiles = list(profiles)
    if not profiles:
        raise ValueError("need at least one profile")
    if grid_length > trace.length:
        raise AlignmentError("grid cannot be finer than the trace")

    bounds = paa_boundaries(trace.length, grid_length)
    # Grid index of each raw timestamp: the PAA frame it lands in.
    day_of = np.searchsorted(bounds, np.arange(trace.length), side="right") - 1
    # Demand level k is k whole cores; the trace holds each point's level.
    levels = np.arange(CORES_TOTAL + 1) / CORES_TOTAL

    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    streams = ss.spawn(len(profiles))
    baseline = default_baseline()
    signatures = []
    for profile, stream in zip(profiles, streams):
        rng = np.random.default_rng(stream)
        means = np.stack([
            paa(_performance_matrix(profile, levels, trace.cores, day_of, grid_length,
                                    baseline, rng),
                grid_length).mean(axis=0)
            for _ in parameters])
        signatures.append(Signature(parameters, unit_rows(means, parameters), profile.provider_id))
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
    """Columns [start, stop) of base signature `donor`, spliced in."""

    donor: int
    start: int
    stop: int


def _build_pairs(bases: list[Signature], base_of: list[int],
                 edits: list[_Splice | NoiseSpec],
                 provenances: list[dict]) -> list[LabeledPair]:
    """Pair i is ``bases[base_of[i]]`` against a copy of it with
    ``edits[i]`` applied: a splice (a changed pair) or noise seeded with
    ``provenances[i]["seed"]`` (a noisy pair).

    The copies fill ``(pairs, rows, L)`` block arrays of about
    ``BLOCK_BYTES`` each.  Each block is checked once and then made
    read-only, and each recomputed signature is a view of its slice.
    Blocks, not one array for the whole corpus, so that a corpus reuses
    freed memory of the size its pairs take, as pair-at-a-time copies do.
    """
    first = bases[0]
    for base in bases[1:]:
        if base.matrix.shape != first.matrix.shape or base.parameters != first.parameters:
            raise AlignmentError("base signatures must share grid and parameters")
    matrices = np.stack([base.matrix for base in bases])
    indices = np.array(base_of, dtype=np.intp)
    pairs = []
    for block in block_slices(len(base_of), first.matrix.nbytes):
        base_ids, block_edits, block_provenances = base_of[block], edits[block], provenances[block]
        stack = np.empty((len(base_ids),) + first.matrix.shape)
        # mode="raise" would buffer a hidden copy of the block.
        np.take(matrices, indices[block], axis=0, out=stack, mode="clip")
        for values, base, edit, provenance in zip(stack, base_ids, block_edits,
                                                  block_provenances):
            if isinstance(edit, _Splice):
                values[:, edit.start:edit.stop] = matrices[edit.donor, :, edit.start:edit.stop]
            else:
                edit.apply(values, bases[base].row_stds, provenance["seed"])
        row_stds = check_stack(stack, first.parameters)
        stack.setflags(write=False)

        for values, stds, base, edit, provenance in zip(stack, row_stds, base_ids, block_edits,
                                                        block_provenances):
            existing = bases[base]
            recomputed = Signature._checked(existing.parameters, values,
                                            existing.provider_id, stds)
            if isinstance(edit, _Splice):
                pairs.append(LabeledPair(existing, recomputed, Label.CHANGED, None, provenance))
            else:
                pairs.append(LabeledPair(existing, recomputed, Label.NOISY, edit, provenance))
    return pairs


def base_signature_seeds(seed: int) -> tuple[int, np.random.SeedSequence]:
    """The trace seed and the provider-signature stream derived from `seed`."""
    ss_trace, ss_perf = np.random.SeedSequence(seed).spawn(2)
    return int(ss_trace.generate_state(1)[0]), ss_perf


def build_base_signatures(seed: int, params: CorpusParams = CorpusParams(),
                          profiles=None) -> list[Signature]:
    """Synthesize a trace and derive one signature per packaged profile."""
    profiles = profiles if profiles is not None else default_profiles()
    trace_seed, perf_seed = base_signature_seeds(seed)
    trace = synthesize_trace(params.nodes, params.raw_length, trace_seed)
    return build_provider_signatures(
        profiles,
        trace,
        params.grid_length,
        parameters=(params.parameter,),
        seed=perf_seed,
    )


def _noise_counts(n_noisy: int, distortion_fraction: float,
                  params: CorpusParams) -> tuple[int, int, int]:
    n_distortion = int(round(distortion_fraction * n_noisy))
    n_attenuation = min(int(round(params.attenuation_share * n_noisy)),
                        n_noisy - n_distortion)
    n_spike = n_noisy - n_distortion - n_attenuation
    return n_spike, n_distortion, n_attenuation


def build_corpus(n_changed: int, n_noisy: int, distortion_fraction: float,
                 seed: int, signatures: list[Signature],
                 params: CorpusParams = CorpusParams()) -> list[LabeledPair]:
    """Deterministic labeled corpus over base `signatures`: changed pairs
    first, then noisy pairs.

    Changed and noisy pairs consume independent random streams, so
    changing only the noise composition leaves the changed pairs
    untouched for the same seed.
    """
    if n_changed < 0 or n_noisy < 0:
        raise ValueError("pair counts must be non-negative")
    if not 0.0 <= distortion_fraction <= 1.0:
        raise ValueError("distortion fraction must be in [0, 1]")

    # The first child once seeded default base signatures; it is still
    # spawned so that the other three streams keep their seeds.
    _, ss_changed, ss_noisy, ss_pair_seeds = np.random.SeedSequence(seed).spawn(4)
    k = len(signatures)
    if n_changed > 0 and k < 2:
        raise ValueError("changed pairs need at least two base signatures")
    if k < 1:
        raise ValueError("need at least one base signature")

    grid_length = signatures[0].matrix.shape[1]
    pair_seeds = [int(s) for s in ss_pair_seeds.generate_state(n_changed + n_noisy,
                                                               dtype=np.uint64)]
    # Draw every pair's parameters first, one scalar draw at a time in the
    # order of the pair-at-a-time build (a vectorized draw changes the
    # stream), then fill the pairs a block at a time.
    base_of: list[int] = []
    edits: list[_Splice | NoiseSpec] = []
    provenances: list[dict] = []

    rng_changed = np.random.default_rng(ss_changed)
    for i in range(n_changed):
        base = int(rng_changed.integers(0, k))
        donor = int(rng_changed.integers(0, k - 1))
        if donor >= base:
            donor += 1
        start = int(rng_changed.integers(0, grid_length - params.changed_segment + 1))
        if signatures[donor].provider_id == signatures[base].provider_id:
            raise ValueError("donor must be a different provider")
        base_of.append(base)
        edits.append(_Splice(donor, start, start + params.changed_segment))
        provenances.append({"donor": signatures[donor].provider_id,
                            "segment_start": start, "segment_length": params.changed_segment,
                            "seed": pair_seeds[i], "index": i})

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
        base_of.append(base)
        edits.append(spec)
        provenances.append({"seed": pair_seeds[idx], "index": idx})

    return _build_pairs(signatures, base_of, edits, provenances)


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
