"""Exact metamorphic relations of the three detectors.

Each relation follows from the paper's definitions and holds bit for bit
in IEEE arithmetic, so none takes a tolerance:

* PCC and RMSE are symmetric, so ``sw`` does not care which side is which;
* negating the standardized deviations swaps CUSUM's two sides;
* scaling by a power of two is exact (no value here overflows or drops
  to a subnormal), and SNR is a ratio of mean squares and CUSUM runs on
  deviations over the row std, so neither sees the scale; PCC does not
  either, and RMSE scales with it;
* a multi-row verdict is "any row changes" over the rows alone.

The inputs are 1-3 rows of 8-400 bounded values: smooth rows, near-constant
rows and raw drawn values, against copies carrying a spike, a splice,
Gaussian noise or a damping, or against unrelated rows.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sigdrift._kernels import cusum_scan
from sigdrift.core import Signature
from sigdrift.detect import Verdict, cusum_detect, sliding_window_detect, snr_detect
from sigdrift.noisegen import profile_from_ratios, residual, snr_ratios

BOUND = 1e3
#: Values closer to zero than this are drawn as zero, so that no square
#: or product of two differences is subnormal.
TINY = 1e-100


def _snap(values: np.ndarray) -> np.ndarray:
    return np.where(np.abs(values) < TINY, 0.0, values)


def _unconstant(values: np.ndarray) -> np.ndarray:
    """`values`, with a bump at point 0 when the row is (nearly) constant."""
    if np.std(values) <= 1e-6:
        values = values.copy()
        values[0] += 1.0
    return values


@st.composite
def _row(draw, length: int) -> np.ndarray:
    shape = draw(st.sampled_from(["smooth", "near-constant", "drawn"]))
    if shape == "drawn":
        values = draw(hnp.arrays(np.float64, length,
                                 elements=st.floats(-BOUND, BOUND, allow_subnormal=False)))
        return _unconstant(_snap(values))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    level = draw(st.floats(-100.0, 100.0))
    if shape == "near-constant":
        values = np.full(length, level)
        at = rng.choice(length, size=draw(st.integers(1, 3)), replace=False)
        values[at] += draw(st.floats(1e-3, 1.0)) * rng.choice([-1.0, 1.0], size=at.size)
        return _snap(values)
    t = np.arange(length)
    values = (np.sin(2 * np.pi * t / draw(st.floats(4.0, 60.0)))
              + 0.3 * rng.standard_normal(length))
    return _snap(values * draw(st.floats(1e-2, 10.0)) + level)


@st.composite
def _edited(draw, existing: np.ndarray) -> np.ndarray:
    """A recomputed row: `existing` with one edit, or an unrelated row."""
    length = existing.size
    edit = draw(st.sampled_from(["spike", "splice", "awgn", "damp", "unrelated", "same"]))
    values = existing.copy()
    if edit == "spike":
        width = draw(st.integers(1, min(6, length - 2)))
        start = draw(st.integers(0, length - width))
        values[start:start + width] += draw(st.floats(1.0, 8.0)) * np.std(existing)
    elif edit == "splice":
        donor = draw(_row(length))
        start = draw(st.integers(0, length - 2))
        stop = draw(st.integers(start + 1, length))
        values[start:stop] = donor[start:stop]
    elif edit == "awgn":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values += rng.normal(0.0, draw(st.floats(1e-3, 1.0)) * np.std(existing), length)
    elif edit == "damp":
        values *= draw(st.floats(0.5, 0.999))
    elif edit == "unrelated":
        values = draw(_row(length))
    return _unconstant(_snap(values))


@st.composite
def _pair(draw, lengths=st.integers(8, 400)):
    """(existing, recomputed) matrices of 1-3 rows."""
    rows = draw(st.integers(1, 3))
    length = draw(lengths)
    existing = np.stack([draw(_row(length)) for _ in range(rows)])
    recomputed = np.stack([draw(_edited(row)) for row in existing])
    return existing, recomputed


def _sig(matrix: np.ndarray, scale: float = 1.0) -> Signature:
    return Signature(tuple(f"q{r}" for r in range(matrix.shape[0])), matrix * scale)


def _bits(value: float) -> str:
    return float(value).hex()


def _diagnostic_bits(diagnostics: dict) -> dict:
    """Diagnostics with every float as its exact bits (NaN included)."""
    return {key: _bits(value) if isinstance(value, float) else value
            for key, value in diagnostics.items()}


CASES = settings(max_examples=150, deadline=None)


@CASES
@given(_pair())
def test_sw_outcome_does_not_depend_on_which_side_is_existing(pair):
    existing, recomputed = map(_sig, pair)
    assert (sliding_window_detect(existing, recomputed).to_dict()
            == sliding_window_detect(recomputed, existing).to_dict())


@CASES
@given(z=hnp.arrays(np.float64, st.integers(1, 400),
                    elements=st.floats(-50.0, 50.0, allow_subnormal=False)),
       slack=st.floats(0.0, 2.0), threshold=st.floats(0.1, 10.0))
def test_cusum_of_negated_deviations_swaps_its_sides(z, slack, threshold):
    max_pos, max_neg, alarm = cusum_scan(z, slack, threshold)
    neg_pos, neg_neg, neg_alarm = cusum_scan(-z, slack, threshold)
    assert (_bits(neg_pos), _bits(neg_neg), neg_alarm) == (_bits(max_neg), _bits(max_pos), alarm)


@CASES
@given(data=st.data(), segments=st.sampled_from([1, 2, 3, 4, 6]))
def test_snr_outcome_does_not_change_when_both_sides_double(data, segments):
    existing, recomputed = data.draw(_pair(st.integers(max(8, 2 * segments), 400 // segments)
                                           .map(lambda n: n * segments)))
    ex, rec = _sig(existing), _sig(recomputed)
    # Baselines at, above and below the pair's own ratios, so that ties
    # and both verdicts occur.
    own = snr_ratios(ex.matrix, residual(ex, rec), segments)
    factors = data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=segments,
                                 max_size=segments))
    profile = profile_from_ratios(own * np.array(factors), existing.shape[1] // segments)
    for mode in ("segments", "aggregate"):
        assert (snr_detect(ex, rec, profile, mode).to_dict()
                == snr_detect(_sig(existing, 2.0), _sig(recomputed, 2.0), profile,
                              mode).to_dict())


@CASES
@given(_pair())
def test_cusum_outcome_does_not_change_when_both_sides_halve(pair):
    existing, recomputed = pair
    assert (cusum_detect(_sig(existing), _sig(recomputed)).to_dict()
            == cusum_detect(_sig(existing, 0.5), _sig(recomputed, 0.5)).to_dict())


@CASES
@given(_pair())
def test_sw_pcc_ignores_and_rmse_follows_a_fourfold_scale(pair):
    existing, recomputed = pair
    plain = sliding_window_detect(_sig(existing), _sig(recomputed)).rows
    scaled = sliding_window_detect(_sig(existing, 4.0), _sig(recomputed, 4.0)).rows
    for a, b in zip(plain, scaled, strict=True):
        assert _bits(b.diagnostics["pcc"]) == _bits(a.diagnostics["pcc"])
        assert _bits(b.diagnostics["rmse"]) == _bits(4.0 * a.diagnostics["rmse"])


def _single_row_outcomes(detect, existing, recomputed):
    return [detect(_sig(existing[r:r + 1]), _sig(recomputed[r:r + 1]))
            for r in range(existing.shape[0])]


@CASES
@given(_pair(), st.sampled_from(["sw", "cusum"]))
def test_a_multi_row_verdict_is_any_row_changing(pair, name):
    detect = sliding_window_detect if name == "sw" else cusum_detect
    existing, recomputed = pair
    whole = detect(_sig(existing), _sig(recomputed))
    alone = _single_row_outcomes(detect, existing, recomputed)
    verdicts = [o.verdict for o in alone]
    # The first changing row decides, else the first noise row, else row 0;
    # the verdict carries that row's noise kind and diagnostics.
    deciding = next((verdicts.index(v) for v in (Verdict.CHANGE, Verdict.NOISE)
                     if v in verdicts), 0)
    verdict = next((v for v in (Verdict.CHANGE, Verdict.NOISE) if v in verdicts),
                   Verdict.NO_CHANGE)
    assert (whole.verdict, whole.noise_kind) == (verdict, alone[deciding].noise_kind)
    assert _diagnostic_bits(whole.diagnostics) == _diagnostic_bits(alone[deciding].diagnostics)
    for row, single in zip(whole.rows, alone, strict=True):
        assert (row.verdict, row.noise_kind) == (single.verdict, single.noise_kind)
        assert _diagnostic_bits(row.diagnostics) == _diagnostic_bits(single.diagnostics)
