"""Bit-for-bit parity of provider-signature synthesis with the
point-at-a-time form it stands for.

The reference below looks up the baseline and the workload multiplier at
every raw point of the demand matrix, applies the seasonal multiplier
and the jitter, and PAA-reduces each node's series on its own before the
cohort mean.  The program may share work between points of equal demand
and between nodes, but every signature must come out with the same bytes.
"""
import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sigdrift.core import TrialExperience, block_slices
from sigdrift.datagen import (CORES_TOTAL, IntervalRule, QoSProfile,
                              build_provider_signatures, default_baseline,
                              default_profiles, synthesize_trace)
from sigdrift.signature import generate_signature


# ----------------------------------------------------------- references

def _ref_lookup(rules, x):
    edges = np.array([r.lo for r in rules] + [rules[-1].hi])
    multipliers = np.array([r.multiplier for r in rules])
    idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, multipliers.size - 1)
    return multipliers[idx]


def _ref_paa_bounds(length, target):
    j = np.arange(target + 1, dtype=np.int64)
    return (2 * j * length + target) // (2 * target)


def _ref_paa(series, target):
    bounds = _ref_paa_bounds(series.size, target)
    return np.add.reduceat(series, bounds[:-1]) / np.diff(bounds)


def _ref_build(profiles, cores, grid_length, seed):
    demands = cores / CORES_TOTAL
    bounds = _ref_paa_bounds(cores.shape[1], grid_length)
    day_of = np.searchsorted(bounds, np.arange(cores.shape[1]), side="right") - 1
    baseline = default_baseline()
    xs = np.array([d for d, _ in baseline.breakpoints])
    ys = np.array([p for _, p in baseline.breakpoints])
    signatures = []
    for profile, stream in zip(profiles, np.random.SeedSequence(seed).spawn(len(profiles))):
        rng = np.random.default_rng(stream)
        perf = np.interp(demands, xs, ys) * _ref_lookup(profile.workload_map, demands)
        perf = perf * _ref_lookup(profile.seasonal_map, day_of)[None, :]
        perf = perf * (1.0 + profile.jitter_amplitude * rng.random(demands.shape))
        experiences = [TrialExperience(f"node-{i:02d}", "throughput",
                                       _ref_paa(perf[i], grid_length), 0)
                       for i in range(cores.shape[0])]
        signatures.append(generate_signature(experiences, profile.provider_id))
    return signatures


def _stretched(factor):
    """The packaged profiles with every seasonal interval ``factor`` times wider."""
    return [QoSProfile(p.provider_id, p.workload_map,
                       tuple(IntervalRule(r.lo * factor, r.hi * factor, r.multiplier)
                             for r in p.seasonal_map),
                       p.jitter_amplitude)
            for p in default_profiles()]


def _ref_trace_cores(nodes, length, seed):
    rng = np.random.default_rng(seed)
    start = rng.uniform(0.25, 0.75, size=(nodes, 1))
    steps = rng.normal(0.0, 0.015, size=(nodes, length - 1))
    walk = np.concatenate([start, start + np.cumsum(steps, axis=1)], axis=1)
    folded = np.abs(np.mod(walk, 2.0))
    folded = np.where(folded > 1.0, 2.0 - folded, folded)
    return np.rint(folded * CORES_TOTAL)


# ---------------------------------------------------------------- tests

@settings(max_examples=100, deadline=None)
@given(nodes=st.integers(1, 6), length=st.integers(2, 3000), seed=st.integers(0, 2**32 - 1))
def test_trace_cores_match_the_float_fold(nodes, length, seed):
    cores = synthesize_trace(nodes, length, seed)
    assert cores.tobytes() == _ref_trace_cores(nodes, length, seed).astype(cores.dtype).tobytes()


@settings(max_examples=300, deadline=None)
@given(x=hnp.arrays(np.float64, st.integers(1, 50),
                    elements=st.floats(-1e300, 1e300).filter(lambda v: v == 0 or abs(v) > 1e-300)))
def test_floor_fold_is_mod_two(x):
    """The trace folds its walk with x - 2*floor(x/2) in place of np.mod(x, 2.0)."""
    assert (x - 2.0 * np.floor(x * 0.5)).tobytes() == np.mod(x, 2.0).tobytes()


@settings(max_examples=60, deadline=None)
@given(length=st.sampled_from([360, 720, 1000]), prestretched=st.booleans(),
       nodes=st.integers(1, 6), scale=st.floats(2.0, 4.0),
       trace_seed=st.integers(0, 2**32 - 1), perf_seed=st.integers(0, 2**32 - 1))
def test_provider_signatures_match_the_point_at_a_time_build(length, prestretched, nodes,
                                                             scale, trace_seed, perf_seed):
    """The program stretches the packaged seasonal maps over the grid itself,
    and leaves maps that already span the grid as they are."""
    stretched = _stretched(length / 360)
    cores = synthesize_trace(nodes, int(length * scale), trace_seed)
    got = build_provider_signatures(stretched if prestretched else default_profiles(),
                                    cores, length, seed=perf_seed)
    want = _ref_build(stretched, cores, length, perf_seed)
    assert [s.provider_id for s in got] == [s.provider_id for s in want]
    for a, b in zip(got, want):
        assert a.parameters == b.parameters
        assert a.matrix.tobytes() == b.matrix.tobytes()


@settings(max_examples=8, deadline=None)
@given(nodes=st.integers(2, 5), raw=st.integers(5_000, 40_000),
       grid=st.sampled_from([360, 720, 1000]),
       trace_seed=st.integers(0, 2**32 - 1), perf_seed=st.integers(0, 2**32 - 1))
@example(nodes=5, raw=5_000, grid=1000, trace_seed=1, perf_seed=2)  # three nodes a block
@example(nodes=3, raw=40_000, grid=720, trace_seed=3, perf_seed=4)  # one node a block
def test_synthesis_across_blocks_of_nodes_matches_the_references(nodes, raw, grid,
                                                                 trace_seed, perf_seed):
    """On these traces a block holds one to three nodes, so the trace and
    every signature are made over several blocks."""
    assume(len(block_slices(nodes, 8 * raw)) > 1)
    cores = synthesize_trace(nodes, raw, trace_seed)
    want_cores = _ref_trace_cores(nodes, raw, trace_seed).astype(cores.dtype)
    assert cores.tobytes() == want_cores.tobytes()
    got = build_provider_signatures(default_profiles(), cores, grid, seed=perf_seed)
    want = _ref_build(_stretched(grid / 360), cores, grid, perf_seed)
    assert [a.matrix.tobytes() for a in got] == [b.matrix.tobytes() for b in want]
