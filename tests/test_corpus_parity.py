"""Bit-for-bit parity of the corpus builder and profile learning with the
pair-at-a-time forms they stand for.

The references below build every pair on its own: copy the base matrix,
splice or inject, build a ``Signature``; learn one ``NoiseProfile`` per
monitoring pair and fold them segment-wise with ``min``.  The program
may batch that work, but the bytes of every matrix, the labels, specs,
provenance and the learned ratios must come out the same.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sigdrift.core import Signature, TimeGrid, check_stack, population_std
from sigdrift.datagen import CorpusParams, Label, LabeledPair, _noise_counts, build_corpus
from sigdrift.evaluate import learn_monitoring_profiles
from sigdrift.noisegen import (AttenuationNoise, DistortionNoise, NoiseProfile,
                               SpikeNoise, learn_noise_profile, spec_to_dict)

from conftest import unit_signature, wavy_row


# ----------------------------------------------------------- references

def _ref_inject(sig, spec, seed):
    rng = np.random.default_rng(seed) if isinstance(spec, DistortionNoise) else None
    matrix = np.array(sig.matrix)
    for values in matrix:
        if isinstance(spec, SpikeNoise):
            values[spec.position:spec.position + spec.width] += (
                spec.magnitude * float(np.std(values)))
        elif isinstance(spec, AttenuationNoise):
            values *= spec.factor
        else:
            power = float(np.mean(np.square(values)))
            sigma = math.sqrt(power / (10.0 ** (spec.target_snr_db / 10.0)))
            values += rng.normal(0.0, sigma, size=values.size)
    return Signature(sig.parameters, matrix, sig.grid, sig.provider_id)


def _ref_build_corpus(n_changed, n_noisy, distortion_fraction, seed, signatures,
                      params):
    ss_sigs, ss_changed, ss_noisy, ss_pair_seeds = np.random.SeedSequence(seed).spawn(4)
    k = len(signatures)
    grid_length = signatures[0].grid.length
    pair_seeds = [int(s) for s in ss_pair_seeds.generate_state(n_changed + n_noisy,
                                                               dtype=np.uint64)]
    pairs = []
    rng = np.random.default_rng(ss_changed)
    for i in range(n_changed):
        base = int(rng.integers(0, k))
        donor = int(rng.integers(0, k - 1))
        if donor >= base:
            donor += 1
        start = int(rng.integers(0, grid_length - params.changed_segment + 1))
        original, other = signatures[base], signatures[donor]
        matrix = np.array(original.matrix)
        end = start + params.changed_segment
        matrix[:, start:end] = other.matrix[:, start:end]
        spliced = Signature(original.parameters, matrix, original.grid, original.provider_id)
        pairs.append(LabeledPair(
            original, spliced, Label.CHANGED, None,
            {"provider": original.provider_id, "donor": other.provider_id,
             "segment_start": start, "segment_length": params.changed_segment,
             "seed": pair_seeds[i], "index": i}))

    n_spike, n_distortion, n_attenuation = _noise_counts(n_noisy, distortion_fraction,
                                                         params)
    kinds = (["spike"] * n_spike + ["distortion"] * n_distortion
             + ["attenuation"] * n_attenuation)
    rng = np.random.default_rng(ss_noisy)
    for j, kind in enumerate(kinds):
        idx = n_changed + j
        base = int(rng.integers(0, k))
        if kind == "spike":
            position = int(rng.integers(0, grid_length - params.spike_width + 1))
            spec = SpikeNoise(position, params.spike_width, params.spike_magnitude)
        elif kind == "distortion":
            spec = DistortionNoise(params.awgn_db)
        else:
            spec = AttenuationNoise(float(rng.uniform(params.attenuation_low,
                                                      params.attenuation_high)))
        original = signatures[base]
        pairs.append(LabeledPair(
            original, _ref_inject(original, spec, pair_seeds[idx]), Label.NOISY, spec,
            {"provider": original.provider_id, "noise": spec_to_dict(spec),
             "seed": pair_seeds[idx], "index": idx}))
    return pairs


def _ref_monitoring_profiles(pairs, segments):
    by_provider = {}
    for pair in pairs:
        profile = learn_noise_profile(pair.existing, pair.recomputed, segments)
        by_provider.setdefault(pair.existing.provider_id, []).append(profile)

    def fold(profiles):
        columns = zip(*(p.segment_snrs for p in profiles))
        return NoiseProfile(tuple(min(c) for c in columns), profiles[0].segment_length)
    merged = {pid: fold(ps) for pid, ps in by_provider.items()}
    merged[""] = fold([p for ps in by_provider.values() for p in ps])
    return merged


def _bases(count, rows, length, seed):
    return [unit_signature([wavy_row(length, seed=seed + 7 * b + r, mean=0.3 * r)
                            for r in range(rows)],
                           provider_id=f"p{b}", parameters=[f"q{r}" for r in range(rows)])
            for b in range(count)]


def _profile_bits(profile):
    return profile.segment_length, [(s.infinite, s.ratio.hex()) for s in profile.segment_snrs]


# ---------------------------------------------------------------- tests

CORPUS_CASE = dict(
    count=st.integers(2, 4), rows=st.sampled_from([1, 3]),
    length=st.sampled_from([96, 120, 360]),
    n_changed=st.integers(0, 12), n_noisy=st.integers(0, 16),
    fraction=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    faithful=st.booleans(), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(**CORPUS_CASE)
def test_build_corpus_matches_the_pair_at_a_time_build(count, rows, length, n_changed,
                                                       n_noisy, fraction, faithful, seed):
    bases = _bases(count, rows, length, seed % 1000)
    params = CorpusParams(changed_segment=length // 4, paper_faithful=faithful)
    got = build_corpus(n_changed, n_noisy, fraction, seed, signatures=bases, params=params)
    want = _ref_build_corpus(n_changed, n_noisy, fraction, seed, bases, params)
    assert len(got) == len(want) == n_changed + n_noisy
    for g, w in zip(got, want):
        assert g.existing is w.existing
        assert g.label is w.label
        assert g.noise == w.noise
        assert g.provenance == w.provenance
        assert list(g.provenance) == list(w.provenance)
        assert g.recomputed.parameters == w.recomputed.parameters
        assert g.recomputed.grid == w.recomputed.grid
        assert g.recomputed.provider_id == w.recomputed.provider_id
        assert g.recomputed.matrix.shape == w.recomputed.matrix.shape
        assert g.recomputed.matrix.tobytes() == w.recomputed.matrix.tobytes()
        assert not g.recomputed.matrix.flags.writeable


@settings(max_examples=40, deadline=None)
@given(count=st.integers(1, 4), rows=st.sampled_from([1, 3]),
       segments=st.sampled_from([1, 2, 6]), n_noisy=st.integers(1, 24),
       fraction=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_monitoring_profiles_match_per_pair_profiles_folded_with_min(
        count, rows, segments, n_noisy, fraction, seed):
    bases = _bases(count, rows, 120, seed % 1000)
    pairs = build_corpus(0, n_noisy, fraction, seed, signatures=bases,
                         params=CorpusParams(changed_segment=30))
    got = learn_monitoring_profiles(pairs, segments)
    want = _ref_monitoring_profiles(pairs, segments)
    assert list(got) == list(want)
    assert {k: _profile_bits(v) for k, v in got.items()} == \
        {k: _profile_bits(v) for k, v in want.items()}


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 3), length=st.integers(2, 400), pairs=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 1e4]))
def test_row_stds_are_population_std_of_each_row(rows, length, pairs, seed, scale):
    stack = np.random.default_rng(seed).standard_normal((pairs, rows, length)) * scale
    names = tuple(f"q{r}" for r in range(rows))
    stacked = check_stack(stack, names)  # the corpus path: one check per stack
    for p in range(pairs):
        sig = Signature(names, stack[p], TimeGrid(length))
        for r in range(rows):
            want = np.float64(population_std(stack[p, r])).tobytes()
            assert sig.row_stds[r].tobytes() == want
            assert stacked[p, r].tobytes() == want
    assert not sig.row_stds.flags.writeable and not stacked.flags.writeable
