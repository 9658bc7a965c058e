import json
import math

import numpy as np
import pytest

from sigdrift.config import DetectorThresholds
from sigdrift.core import Signature, TrialExperience
from sigdrift.datagen import (CORES_TOTAL, BaselineMap, CorpusParams, IntervalRule, Label,
                              QoSProfile, _multipliers, _performance_matrix,
                              baseline_performance, build_base_signatures, build_corpus,
                              build_provider_signatures, default_baseline,
                              default_profiles, manifest_entry, paa_boundaries,
                              profile_from_dict, profile_to_dict, synthesize_trace,
                              write_manifest, write_trace)
from sigdrift.detect import cusum_detect
from sigdrift.errors import AlignmentError, ParseError
from sigdrift.noisegen import AttenuationNoise, DistortionNoise, SpikeNoise
from sigdrift.similarity import pcc

from conftest import unit_signature, wavy_row


# ------------------------------------------------------------------- traces

def test_synthesize_trace_matches_frame():
    cores = synthesize_trace(31, 6486, seed=0)
    demands = cores / CORES_TOTAL
    assert demands.shape == (31, 6486)
    assert demands.min() >= 0.0
    assert demands.max() <= 1.0
    np.testing.assert_array_equal(cores, synthesize_trace(31, 6486, seed=0))
    assert not np.array_equal(cores, synthesize_trace(31, 6486, seed=1))


def test_trace_holds_whole_cores():
    cores = synthesize_trace(3, 40, seed=2)
    assert cores.dtype == np.uint8
    assert 0 <= cores.min() and cores.max() <= CORES_TOTAL
    assert not cores.flags.writeable


@pytest.mark.parametrize("cores, message", [
    (np.array([[0.0, 1.0]]), "integer"),
    (np.array([[True, False]]), "integer"),
    (np.array([[0, CORES_TOTAL + 1]]), "must lie in"),
    (np.array([[-1, 3]]), "must lie in"),
    (np.array([0, 3]), r"\(nodes, timestamps\)"),
    (np.array([[3]]), "two timestamps"),
    (np.zeros((0, 3), dtype=np.uint8), "at least one node"),
])
def test_trace_rejects_anything_but_whole_cores_in_range(cores, message):
    with pytest.raises(ValueError, match=message):
        build_provider_signatures(default_profiles(), cores, 1)


def test_trace_round_trip(tmp_path):
    cores = synthesize_trace(4, 50, seed=3)
    path = tmp_path / "trace.csv"
    write_trace(cores, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "node_id,timestamp,cores_requested,cores_total"
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[0], int(r[1])) for r in rows] == [
        (f"node-{i:02d}", t) for i in range(4) for t in range(50)]
    demands = np.array([int(r[2]) / int(r[3]) for r in rows])
    np.testing.assert_allclose(demands.reshape(cores.shape), cores / CORES_TOTAL, atol=1e-12)


# ------------------------------------------------------------ baseline map

def test_baseline_interpolation():
    bmap = BaselineMap(((0.0, 2000.0), (1.0, 1000.0)))
    assert baseline_performance(bmap, 0.0) == 2000.0
    assert baseline_performance(bmap, 1.0) == 1000.0  # busiest -> slowest
    assert baseline_performance(bmap, 0.5) == 1500.0


def test_baseline_must_strictly_decrease():
    with pytest.raises(ValueError):
        BaselineMap(((0.0, 1000.0), (1.0, 2000.0)))
    with pytest.raises(ValueError):
        BaselineMap(((0.0, 1000.0), (1.0, 1000.0)))
    with pytest.raises(ValueError):
        BaselineMap(((0.1, 2000.0), (1.0, 1000.0)))
    with pytest.raises(ValueError):
        baseline_performance(BaselineMap(((0.0, 2.0), (1.0, 1.0))), 1.5)


def test_baseline_monotone_property():
    bmap = default_baseline()
    rng = np.random.default_rng(0)
    d = np.sort(rng.random(200))
    out = baseline_performance(bmap, d)
    assert np.all(np.diff(out) <= 0)
    assert baseline_performance(bmap, 0.6) == 1500.0


# ----------------------------------------------------------------- profiles

def _example_profile(jitter=0.0):
    workload = (IntervalRule(0.0, 0.4, 1.0),
                IntervalRule(0.4, 0.7, 1.10),
                IntervalRule(0.7, 1.0, 1.0))
    seasonal = (IntervalRule(0.0, 330.0, 1.0),
                IntervalRule(330.0, 360.0, 1.01))
    return QoSProfile("example", workload, seasonal, jitter)


def _performance(profile, demand, t, bmap, seed, grid_length=360):
    """One observation: one node at `demand`, one raw timestamp on grid day `t`."""
    table, seasonal = _multipliers(profile, [demand], np.array([t]), grid_length, bmap)
    return float(_performance_matrix(table, seasonal, profile.jitter_amplitude, [[0]],
                                     np.random.default_rng(seed))[0, 0])


def test_performance_matrix_worked_example():
    bmap = BaselineMap(((0.0, 2100.0), (0.6, 1500.0), (1.0, 900.0)))
    profile = _example_profile()
    # demand 0.6 -> baseline 1500, workload band multiplier 1.10
    assert _performance(profile, 0.6, 10, bmap, seed=1) == pytest.approx(1650.0, abs=1e-9)
    # December band adds one percent on top
    assert _performance(profile, 0.6, 340, bmap, seed=1) == pytest.approx(1666.5, abs=1e-9)
    # on a grid twice as long, every seasonal band is twice as wide
    assert _performance(profile, 0.6, 659, bmap, seed=1, grid_length=720) == \
        pytest.approx(1650.0, abs=1e-9)
    assert _performance(profile, 0.6, 660, bmap, seed=1, grid_length=720) == \
        pytest.approx(1666.5, abs=1e-9)


def test_zero_jitter_ignores_seed():
    bmap = default_baseline()
    profile = _example_profile(jitter=0.0)
    a = _performance(profile, 0.3, 5, bmap, seed=1)
    b = _performance(profile, 0.3, 5, bmap, seed=999)
    assert a == b


def test_jitter_is_bounded_and_seeded():
    bmap = BaselineMap(((0.0, 2.0), (1.0, 1.0)))
    profile = _example_profile(jitter=0.05)
    base = _performance(_example_profile(0.0), 0.3, 5, bmap, seed=1)
    vals = [_performance(profile, 0.3, 5, bmap, seed=s) for s in range(20)]
    assert all(base <= v <= base * 1.05 for v in vals)
    assert len(set(vals)) > 1


def test_profile_tiling_enforced():
    with pytest.raises(ValueError):
        QoSProfile("x", (IntervalRule(0.0, 0.5, 1.0),),
                   (IntervalRule(0.0, 360.0, 1.0),), 0.0)  # workload gap
    with pytest.raises(ValueError):
        QoSProfile("x", (IntervalRule(0.0, 0.6, 1.0), IntervalRule(0.5, 1.0, 1.0)),
                   (IntervalRule(0.0, 360.0, 1.0),), 0.0)  # overlap
    with pytest.raises(ValueError):
        IntervalRule(0.5, 0.4, 1.0)
    with pytest.raises(ValueError):
        IntervalRule(0.0, 1.0, 0.0)


_NAN_PAIR = (unit_signature(wavy_row(60)), unit_signature(wavy_row(60, seed=1)))


@pytest.mark.parametrize("build", [
    lambda: cusum_detect(*_NAN_PAIR, math.nan),
    lambda: cusum_detect(*_NAN_PAIR, 0.5, math.nan),
    lambda: baseline_performance(default_baseline(), math.nan),
    lambda: baseline_performance(default_baseline(), [0.2, math.nan]),
    lambda: IntervalRule(math.nan, 1.0, 1.0),
    lambda: IntervalRule(0.0, math.nan, 1.0),
    lambda: IntervalRule(0.0, 1.0, math.nan),
    lambda: QoSProfile("x", (IntervalRule(0.0, 1.0, 1.0),), (IntervalRule(0.0, 360.0, 1.0),),
                       math.nan),
    lambda: BaselineMap(((0.0, math.nan), (1.0, 1.0))),
    lambda: BaselineMap(((0.0, 2.0), (1.0, math.nan))),
    lambda: BaselineMap(((0.0, 2.0), (math.nan, 1.5), (1.0, 1.0))),
    lambda: SpikeNoise(0, 3, math.nan),
    lambda: AttenuationNoise(math.nan),
    lambda: DistortionNoise(math.nan),
    lambda: build_corpus(0, 2, math.nan, seed=0, signatures=[_NAN_PAIR[0]]),
    lambda: TrialExperience("u1", "cpu", [1.0, math.nan], 0),
    lambda: DetectorThresholds(similarity_floor=math.nan),
    lambda: DetectorThresholds(distance_ceiling=math.nan),
    lambda: DetectorThresholds(attenuation_ceiling=math.nan),
], ids=["cusum-slack", "cusum-interval", "demand", "demand-array", "rule-lo", "rule-hi",
        "rule-multiplier", "jitter", "baseline-first-perf", "baseline-last-perf",
        "baseline-demand", "spike-magnitude", "attenuation-factor", "distortion-db",
        "distortion-fraction", "trial-values", "similarity-floor", "distance-ceiling",
        "attenuation-ceiling"])
def test_every_float_library_guard_rejects_nan(build):
    """Each guard is written so that NaN fails it: a NaN argument is an
    error, never a value every comparison lets through."""
    with pytest.raises(ValueError):
        build()


def test_profile_json_round_trip(tmp_path):
    profile = _example_profile(jitter=0.02)
    assert profile_from_dict(profile_to_dict(profile)) == profile


@pytest.mark.parametrize("key, value, named", [
    ("jitter_amplitude", True, "jitter_amplitude"),
    ("jitter_amplitude", "0.02", "jitter_amplitude"),
    ("jitter_amplitude", float("nan"), "jitter_amplitude"),
    ("workload_map", [[0.0, "1", 1.0]], r"workload_map\[0\]\[1\]"),
    ("workload_map", [[0.0, 1.0, True]], r"workload_map\[0\]\[2\]"),
    ("workload_map", [[0.0, 1.0]], r"workload_map\[0\]"),
    ("seasonal_map", [[False, 360.0, 1.0]], r"seasonal_map\[0\]\[0\]"),
    ("seasonal_map", "0,360,1", "seasonal_map"),
    ("provider_id", 7, "provider_id"),
])
def test_profile_payload_numbers_are_json_numbers(key, value, named):
    """A boolean or a string is an error naming its key, never a number."""
    payload = profile_to_dict(_example_profile(jitter=0.02))
    payload[key] = value
    with pytest.raises(ParseError, match=rf"^bad profile payload: {named}: "):
        profile_from_dict(payload)


def test_default_profiles_are_five_distinct_providers():
    profiles = default_profiles()
    assert [p.provider_id for p in profiles] == [
        "alpha", "bravo", "charlie", "delta", "echo"]
    assert all(p.grid_span >= 360 for p in profiles)


# --------------------------------------------------------------- signatures

def test_paa_boundaries_round_half_up():
    # frame j of m over length L starts at round(j*L/m) with .5 rounding up
    L, m = 10, 4
    bounds = paa_boundaries(L, m)
    expected = [(2 * j * L + m) // (2 * m) for j in range(m)] + [L]
    np.testing.assert_array_equal(bounds, expected)


def test_paa_boundaries_on_trace_scale():
    bounds = paa_boundaries(6486, 360)
    assert bounds[0] == 0 and bounds[-1] == 6486
    assert np.all(np.diff(bounds) >= 1)
    # ~18 raw points per day at this trace length
    assert 17 <= np.diff(bounds).max() <= 19


def test_build_provider_signatures_shape_and_determinism():
    trace = synthesize_trace(8, 720, seed=5)
    profiles = default_profiles()
    sigs = build_provider_signatures(profiles, trace, 360, seed=11)
    assert len(sigs) == 5
    for sig in sigs:
        assert sig.matrix.shape == (1, 360)
        assert abs(np.std(sig.matrix[0]) - 1.0) < 1e-9
    again = build_provider_signatures(profiles, trace, 360, seed=11)
    for a, b in zip(sigs, again):
        np.testing.assert_array_equal(a.matrix, b.matrix)


def test_identical_profiles_with_zero_jitter_coincide():
    trace = synthesize_trace(4, 720, seed=5)
    base = _example_profile(jitter=0.0)
    twin = QoSProfile("twin", base.workload_map, base.seasonal_map, 0.0)
    sigs = build_provider_signatures([base, twin], trace, 360, seed=2)
    np.testing.assert_array_equal(sigs[0].matrix, sigs[1].matrix)
    assert sigs[0].provider_id == "example" and sigs[1].provider_id == "twin"


def test_default_signatures_are_distinguishable():
    sigs = build_base_signatures(seed=42)
    for i, a in enumerate(sigs):
        for j, b in enumerate(sigs):
            if i != j:
                assert pcc(a.matrix[0], b.matrix[0]) < 0.95


# ------------------------------------------------------------------- corpus

def test_corpus_counts_and_composition():
    sigs = build_base_signatures(seed=42)
    corpus = build_corpus(12, 300, 0.5, seed=1, signatures=sigs)
    assert len(corpus) == 312
    assert sum(p.label is Label.CHANGED for p in corpus) == 12
    # changed pairs first: an evaluate repeat takes its labels from this order
    assert [p.label for p in corpus] == [Label.CHANGED] * 12 + [Label.NOISY] * 300
    assert [p.noise is None for p in corpus] == [True] * 12 + [False] * 300
    kinds = {}
    for p in corpus:
        if p.label is Label.NOISY:
            k = p.noise.kind
            kinds[k] = kinds.get(k, 0) + 1
    # half distortion, a tenth attenuation, spikes take the rest
    assert kinds == {"distortion": 150, "attenuation": 30, "spike": 120}


def test_zero_distortion_level_has_none():
    sigs = build_base_signatures(seed=42)
    corpus = build_corpus(0, 40, 0.0, seed=1, signatures=sigs)
    kinds = {p.noise.kind for p in corpus}
    assert "distortion" not in kinds


def test_corpus_is_seed_deterministic():
    sigs = build_base_signatures(seed=42)
    a = build_corpus(6, 6, 0.5, seed=9, signatures=sigs)
    b = build_corpus(6, 6, 0.5, seed=9, signatures=sigs)
    assert len(a) == len(b) == 12
    for pa, pb in zip(a, b):
        assert pa.label == pb.label
        assert pa.provenance == pb.provenance
        np.testing.assert_array_equal(pa.recomputed.matrix, pb.recomputed.matrix)


def test_changed_pairs_use_distinct_donors():
    sigs = build_base_signatures(seed=42)
    corpus = build_corpus(30, 0, 0.5, seed=2, signatures=sigs)
    for p in corpus:
        assert p.provenance["donor"] != p.existing.provider_id
        assert 0 <= p.provenance["segment_start"] <= 270
    # A repeated provider id is an error before any draw, whatever the
    # seed; noisy pairs draw no donor, so they may repeat one.
    repeated = [unit_signature(wavy_row(60, seed=i), provider_id=pid)
                for i, pid in enumerate(["a", "a", "b"])]
    for seed in range(6):
        with pytest.raises(ValueError, match="^changed pairs need base signatures of "
                                             "distinct providers; 'a' appears 2 times$"):
            build_corpus(2, 0, 0.5, seed=seed, signatures=repeated)
    assert len(build_corpus(0, 4, 0.5, seed=0, signatures=repeated)) == 4


def test_corpus_rejects_base_signatures_that_do_not_align():
    sigs = build_base_signatures(seed=42)
    renamed = Signature(("latency",), sigs[1].matrix, sigs[1].provider_id)
    with pytest.raises(AlignmentError, match="base signatures must share grid and parameters"):
        build_corpus(1, 0, 0.5, seed=0, signatures=[sigs[0], renamed])


def test_manifest_round_trip(tmp_path):
    sigs = build_base_signatures(seed=42)
    corpus = build_corpus(2, 2, 0.5, seed=3, signatures=sigs)
    entries = [manifest_entry(p, f"signatures/{p.existing.provider_id}.csv",
                              f"pairs/{i:06d}.recomputed.csv", "snr_profiles/pooled.json")
               for i, p in enumerate(corpus)]
    path = tmp_path / "manifest.json"
    write_manifest(entries, {"n_changed": 2}, seed=3, path=path)
    payload = json.loads(path.read_text())
    assert payload["seed"] == 3
    assert payload["config"]["n_changed"] == 2
    assert len(payload["pairs"]) == 4
    assert {e["label"] for e in payload["pairs"]} == {"changed", "noisy"}
