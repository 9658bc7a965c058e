import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigdrift.errors import AlignmentError, ParseError
from sigdrift.noisegen import (AttenuationNoise, DistortionNoise, NoiseProfile,
                               SnrValue, SpikeNoise, inject,
                               learn_noise_profile, profile_from_dict,
                               profile_to_dict, read_profile, read_spec,
                               residual, snr_ratios, spec_from_dict,
                               spec_to_dict,
                               write_profile, write_spec)
from sigdrift.similarity import pcc

import oracle
from conftest import raw_signature, unit_signature, wavy_row


@pytest.fixture
def sig():
    return unit_signature(wavy_row(360, seed=3))


# ------------------------------------------------------------------ specs

def test_spec_validation():
    with pytest.raises(ValueError):
        SpikeNoise(position=-1)
    with pytest.raises(ValueError):
        SpikeNoise(position=0, width=0)
    with pytest.raises(ValueError):
        AttenuationNoise(factor=1.0)
    with pytest.raises(ValueError):
        AttenuationNoise(factor=0.0)
    with pytest.raises(ValueError):
        SpikeNoise(position=0, magnitude=0.0)


@pytest.mark.parametrize("spec", [
    SpikeNoise(position=100, width=3, magnitude=5.0),
    AttenuationNoise(factor=0.95),
    DistortionNoise(target_snr_db=20.0),
])
def test_spec_round_trip(tmp_path, spec):
    assert spec_from_dict(spec_to_dict(spec)) == spec
    path = tmp_path / "spec.json"
    write_spec(spec, path)
    assert read_spec(path) == spec


@pytest.mark.parametrize("spec, payload", [
    (SpikeNoise(position=100, width=4, magnitude=2.5),
     {"kind": "spike", "position": 100, "width": 4, "magnitude": 2.5}),
    (AttenuationNoise(factor=0.95), {"kind": "attenuation", "factor": 0.95}),
    (DistortionNoise(target_snr_db=17.0), {"kind": "distortion", "target_snr_db": 17.0}),
])
def test_spec_dict_is_the_kind_then_the_fields_in_order(spec, payload):
    assert list(spec_to_dict(spec).items()) == list(payload.items())


@pytest.mark.parametrize("payload, omitted", [
    ({"kind": "spike", "position": 7}, {"width", "magnitude"}),
    ({"kind": "spike", "position": 7, "magnitude": 2.0}, {"width"}),
    ({"kind": "spike", "position": 7, "width": 1}, {"magnitude"}),
    ({"kind": "distortion"}, {"target_snr_db"}),
])
def test_omitted_spec_fields_take_the_dataclass_defaults(payload, omitted):
    spec = spec_from_dict(payload)
    defaults = {f.name: f.default for f in fields(spec) if f.name in omitted}
    assert set(defaults) == omitted
    for name, default in defaults.items():
        value = getattr(spec, name)
        assert type(value) is type(default) and value == default
    assert spec == type(spec)(**{k: v for k, v in payload.items() if k != "kind"})


def test_bad_spec_dict():
    with pytest.raises(ParseError):
        spec_from_dict({"kind": "gremlins"})


@pytest.mark.parametrize("payload, key", [
    ({"kind": "spike", "position": "5"}, "position"),
    ({"kind": "spike", "position": True}, "position"),
    ({"kind": "spike", "position": 5.7}, "position"),
    ({"kind": "spike", "position": 5, "width": 2.0}, "width"),
    ({"kind": "spike", "position": 5, "magnitude": "3"}, "magnitude"),
    ({"kind": "attenuation", "factor": "0.9"}, "factor"),
    ({"kind": "distortion", "target_snr_db": False}, "target_snr_db"),
])
def test_spec_numbers_are_json_numbers(payload, key):
    """A string, a boolean or a fraction where an integer belongs is an
    error naming its key, never a position, a width or a factor."""
    with pytest.raises(ParseError, match=rf"^bad noise spec .*: {key}: expected an? "):
        spec_from_dict(payload)


@pytest.mark.parametrize("db", [4000.0, -4000.0, -3200.0, 300.5])
def test_distortion_rejects_a_target_snr_beyond_300_db(db):
    """Beyond it 10 ** (dB / 10) overflows or the noise turns infinite."""
    with pytest.raises(ValueError, match=r"^target_snr_db = .* must be in \[-300, 300\]$"):
        DistortionNoise(db)
    with pytest.raises(ParseError, match="target_snr_db = "):
        spec_from_dict({"kind": "distortion", "target_snr_db": db})


@pytest.mark.parametrize("db", [-300.0, 300.0])
def test_distortion_at_the_db_bound_stays_finite(sig, db):
    assert np.isfinite(inject(sig, DistortionNoise(db), seed=1).matrix).all()


# ------------------------------------------------------------------ inject

def test_spike_touches_exactly_width_points(sig):
    noisy = inject(sig, SpikeNoise(position=100, width=3, magnitude=5.0), seed=1)
    delta = noisy.matrix[0] - sig.matrix[0]
    changed = np.nonzero(delta)[0]
    np.testing.assert_array_equal(changed, [100, 101, 102])
    # magnitude is in units of the row's own std (1.0 here)
    np.testing.assert_allclose(delta[changed], 5.0, atol=1e-12)


def test_spike_must_fit_grid(sig):
    """A user error the CLI reports, so a ``SigdriftError`` that is still a ``ValueError``."""
    with pytest.raises(AlignmentError) as caught:
        inject(sig, SpikeNoise(position=358, width=3, magnitude=5.0), seed=0)
    assert isinstance(caught.value, ValueError)
    assert str(caught.value) == \
        "spike at position = 358 with width = 3 exceeds the grid of 360 points"


def test_attenuation_scales_exactly(sig):
    noisy = inject(sig, AttenuationNoise(factor=0.8), seed=0)
    np.testing.assert_array_equal(noisy.matrix[0], 0.8 * sig.matrix[0])
    assert pcc(sig.matrix[0], noisy.matrix[0]) == 1.0
    # result is deliberately left un-renormalized
    assert abs(np.std(noisy.matrix[0]) - 0.8) < 1e-12


def _oracle_db(signal, noise) -> float:
    """The pooled SNR of two arrays in dB, by the independent oracle."""
    return 10.0 * math.log10(oracle.snr(np.ravel(signal).tolist(), np.ravel(noise).tolist()))


def _pooled(signal, noise) -> float:
    """The program's pooled SNR ratio: one segment over every row."""
    return float(snr_ratios(np.atleast_2d(signal), np.atleast_2d(noise), 1)[0])


def test_distortion_hits_target_snr(sig):
    noisy = inject(sig, DistortionNoise(target_snr_db=20.0), seed=2)
    noise = np.stack(residual(sig, noisy))
    assert _oracle_db(sig.matrix, noise) == pytest.approx(20.0, abs=1.0)


def test_inject_is_deterministic(sig):
    a = inject(sig, DistortionNoise(20.0), seed=9)
    b = inject(sig, DistortionNoise(20.0), seed=9)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    c = inject(sig, DistortionNoise(20.0), seed=10)
    assert not np.array_equal(a.matrix, c.matrix)


def test_distortion_converges_with_length():
    # realized SNR tightens as the row grows; at 3600 points every seed
    # in this block lands within 0.3 dB of the 20 dB target
    long_sig = unit_signature(wavy_row(3600, seed=5))
    for seed in range(1000, 1100):
        noisy = inject(long_sig, DistortionNoise(20.0), seed=seed)
        noise = np.stack(residual(long_sig, noisy))
        assert abs(_oracle_db(long_sig.matrix, noise) - 20.0) <= 0.3


# --------------------------------------------------------------------- snr

def test_snr_fixtures():
    assert _pooled([1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]) == 1.0
    assert _pooled([2.0, 2.0], [1.0, 1.0]) == 4.0


def test_snr_zero_noise_is_unbounded():
    assert _pooled([1.0, 2.0], [0.0, 0.0]) == math.inf


@pytest.mark.parametrize("noise", [
    [0.1, 0.2, -0.3],              # mean ~1.9e-17: no separate variance branch
    [1.0, -1.0, 1.0],              # exactly zero mean
    [0.0, 0.0, 0.0],               # all zero
    [1e-170, -1e-170, 2e-170],     # squares underflow to zero
    [1e-170, 1e-170, 1e-170],      # underflow with a non-zero mean
])
def test_snr_denominator_is_the_mean_square(noise):
    signal = np.array([2.0, -2.0, 2.0])
    value = _pooled(signal, noise)
    denom = float(np.mean(np.square(noise)))
    if denom == 0.0:
        assert value == math.inf
    else:
        assert value == float(np.mean(signal ** 2)) / denom


def test_snr_value_ordering():
    assert SnrValue(50.0) < SnrValue(100.0)
    assert SnrValue(50.0) < SnrValue(math.inf)
    assert not SnrValue(math.inf) < SnrValue(1e9)
    assert not SnrValue(100.0) < SnrValue(100.0)
    with pytest.raises(ValueError):
        SnrValue(-1.0)


def test_snr_value_orders_every_finite_ratio_below_unbounded():
    mixed = [SnrValue(3.0), SnrValue(math.inf), SnrValue(0.0), SnrValue(1e300), SnrValue(3.0)]
    assert sorted(mixed) == [SnrValue(0.0), SnrValue(3.0), SnrValue(3.0), SnrValue(1e300),
                             SnrValue(math.inf)]
    assert min(mixed) == SnrValue(0.0)
    assert max(mixed) == SnrValue(math.inf)
    assert min(SnrValue(math.inf), SnrValue(1e300)) == SnrValue(1e300)
    assert SnrValue(1e300) < SnrValue(math.inf)
    assert SnrValue(math.inf) > SnrValue(1e300)
    assert not SnrValue(math.inf) < SnrValue(math.inf)
    assert SnrValue(2.0) == SnrValue(2.0) != SnrValue(2.5)
    assert SnrValue(math.inf) == SnrValue(math.inf) != SnrValue(1e300)
    assert SnrValue(math.inf).infinite and SnrValue(math.inf).ratio == math.inf
    assert not SnrValue(1e300).infinite and not SnrValue(0.0).infinite


@pytest.mark.parametrize("ratio", [-1.0, -math.inf, math.nan])
def test_snr_value_rejects_negative_and_nan_ratios(ratio):
    with pytest.raises(ValueError):
        SnrValue(ratio)


# ---------------------------------------------------------------- residual

def test_residual_identities(sig):
    assert all(np.all(r == 0.0) for r in residual(sig, sig))
    shifted = unit_signature(wavy_row(360, seed=3))
    rows = residual(sig, inject(shifted, AttenuationNoise(0.8), seed=0))
    np.testing.assert_allclose(rows[0], 0.2 * sig.matrix[0], atol=1e-12)


def test_residual_of_constant_shift(sig):
    rows = residual(sig, raw_signature(sig.matrix + 3.0))
    np.testing.assert_allclose(rows[0], -3.0, atol=1e-12)


def test_residual_alignment(sig):
    other = unit_signature(wavy_row(100))
    with pytest.raises(AlignmentError):
        residual(sig, other)


# ------------------------------------------------------------ noise profile

def test_zero_residual_profile_is_all_infinite(sig):
    profile = learn_noise_profile(sig, sig, 6)
    assert profile.segments == 6
    assert profile.segment_length == 60
    assert all(s.infinite for s in profile.segment_snrs)


def test_single_noisy_segment_shows_up(sig):
    noisy = inject(sig, DistortionNoise(20.0), seed=7)
    values = sig.matrix[0].copy()
    values[120:180] = noisy.matrix[0, 120:180]
    spliced = raw_signature(values, parameters=sig.parameters)
    profile = learn_noise_profile(sig, spliced, 6)
    flags = [s.infinite for s in profile.segment_snrs]
    assert flags == [True, True, False, True, True, True]
    assert 10.0 * math.log10(profile.segment_snrs[2].ratio) == pytest.approx(20.0, abs=1.5)


def test_degenerate_single_segment(sig):
    noisy = inject(sig, DistortionNoise(20.0), seed=7)
    profile = learn_noise_profile(sig, noisy, 1)
    assert profile.segment_snrs[0].ratio == _pooled(sig.matrix, residual(sig, noisy))


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 3), segments=st.sampled_from([1, 2, 3, 5, 6, 12]),
       seed=st.integers(0, 2**16))
def test_profile_equals_snr_of_each_segment_slice(rows, segments, seed):
    # bit for bit: learned baselines decide verdicts with a strict <
    ex = unit_signature(np.stack([wavy_row(360, seed=seed + r) for r in range(rows)]))
    rec = inject(ex, DistortionNoise(15.0), seed=seed)
    seg = 360 // segments
    want = []
    for i in range(segments):
        part, rec_part = ex.matrix[:, i * seg:(i + 1) * seg], rec.matrix[:, i * seg:(i + 1) * seg]
        want.append(SnrValue(_pooled(part, part - rec_part)))
    profile = learn_noise_profile(ex, rec, segments)
    assert profile == NoiseProfile(tuple(want), seg)
    assert list(map(SnrValue, snr_ratios(ex.matrix, residual(ex, rec), segments).tolist())) == want


def test_overflowing_snr_ratio_is_unbounded():
    """A tiny but non-zero noise mean square (here 2.7e-305) overflows the
    ratio to inf: the SNR is unbounded, not an error."""
    signal = np.array([[99.0, 0.0]])
    noise = np.array([[5.18e-153, 5.18e-153]])
    assert snr_ratios(signal, noise, 1).tolist() == [math.inf]
    existing = raw_signature(signal)
    recomputed = raw_signature(signal - noise)
    assert residual(existing, recomputed)[0, 1] == 5.18e-153
    assert learn_noise_profile(existing, recomputed, 1).segment_snrs == (SnrValue(math.inf),)


def test_profile_grid_must_split_into_whole_segments():
    sig = unit_signature(wavy_row(365, seed=3))
    with pytest.raises(AlignmentError, match="365-point grid"):
        learn_noise_profile(sig, sig, 6)
    with pytest.raises(ValueError, match="too short"):
        learn_noise_profile(sig, sig, 365)


def test_profile_round_trip_with_infinities(tmp_path):
    profile = NoiseProfile((SnrValue(123.456), SnrValue(math.inf)), 60)
    payload = profile_to_dict(profile)
    assert payload["segment_snrs"] == [123.456, None]
    assert profile_from_dict(payload) == profile
    path = tmp_path / "profile.json"
    write_profile(profile, path)
    assert read_profile(path) == profile


@pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN", "1e400", "-1"])
def test_profile_file_spells_unbounded_only_as_null(tmp_path, token):
    path = tmp_path / "profile.json"
    path.write_text('{"segment_length": 60, "segment_snrs": [5.0, null]}\n', encoding="utf-8")
    assert read_profile(path) == NoiseProfile((SnrValue(5.0), SnrValue(math.inf)), 60)
    path.write_text(f'{{"segment_length": 60, "segment_snrs": [5.0, {token}]}}\n',
                    encoding="utf-8")
    with pytest.raises(ParseError):
        read_profile(path)


def test_bad_profile_payload():
    with pytest.raises(ParseError):
        profile_from_dict({"segment_length": 60})


@pytest.mark.parametrize("payload, key", [
    ({"segment_length": True, "segment_snrs": [5.0]}, "segment_length"),
    ({"segment_length": "60", "segment_snrs": [5.0]}, "segment_length"),
    ({"segment_length": 60.5, "segment_snrs": [5.0]}, "segment_length"),
    ({"segment_length": True, "segment_snrs": [True, "7", 5.0]}, r"segment_snrs\[0\]"),
    ({"segment_length": 60, "segment_snrs": [5.0, "7"]}, r"segment_snrs\[1\]"),
    ({"segment_length": 60, "segment_snrs": "57"}, "segment_snrs"),
])
def test_profile_numbers_are_json_numbers(payload, key):
    """A boolean or a string is an error naming its key, never a ratio or a length."""
    with pytest.raises(ParseError, match=rf"^bad noise profile: {key}: "):
        profile_from_dict(payload)
