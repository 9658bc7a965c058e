import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigdrift.errors import AlignmentError, ConstantSeriesError, ZeroVectorError
from sigdrift.similarity import (SimilarityMethod, cosine, euclidean, normalize,
                                 pcc, rmse, similarity)

A = np.array([1.0, 2.0, 3.0, 4.0])


def test_normalize_scale_only():
    out = normalize(np.array([2.0, 4.0, 6.0]))
    np.testing.assert_allclose(out, np.array([2.0, 4.0, 6.0]) / math.sqrt(8 / 3),
                               atol=1e-12)
    # idempotent on a unit-std series
    np.testing.assert_allclose(normalize(out), out, atol=1e-9)
    with pytest.raises(ConstantSeriesError):
        normalize(np.array([5.0, 5.0, 5.0]))


def test_euclidean_fixtures():
    assert euclidean(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0
    assert euclidean(A, A) == 0.0
    assert euclidean(np.ones(3), np.full(3, 2.0)) == pytest.approx(
        math.sqrt(3.0), abs=1e-12)


def test_pcc_fixtures():
    ramp = np.array([1.0, 2.0, 3.0])
    assert pcc(ramp, ramp) == 1.0
    assert pcc(ramp, ramp[::-1].copy()) == -1.0
    # cov sum 4 over norms sqrt(5)*sqrt(5)
    assert pcc(np.array([1.0, 2.0, 3.0, 4.0]),
               np.array([1.0, 3.0, 2.0, 4.0])) == pytest.approx(0.8, abs=1e-12)
    with pytest.raises(ConstantSeriesError):
        pcc(ramp, np.full(3, 7.0))


def test_cosine_fixtures():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert cosine(A, 3.0 * A) == 1.0
    assert cosine(np.array([1.0, 2.0]),
                  np.array([2.0, 1.0])) == pytest.approx(0.8, abs=1e-12)
    with pytest.raises(ZeroVectorError):
        cosine(A, np.zeros(4))


def test_rmse_fixtures():
    assert rmse(A, A) == 0.0
    assert rmse(np.array([0.0, 0.0]), np.array([1.0, 1.0])) == 1.0
    assert rmse(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 2.0


def test_length_mismatch_raises():
    short = np.array([1.0, 2.0])
    for fn in (euclidean, pcc, cosine, rmse):
        with pytest.raises(AlignmentError):
            fn(A, short)


def test_polarity_flags():
    assert SimilarityMethod.PCC.higher_is_more_similar
    assert SimilarityMethod.CS.higher_is_more_similar
    assert not SimilarityMethod.ED.higher_is_more_similar
    assert not SimilarityMethod.RMSE.higher_is_more_similar
    assert len(list(SimilarityMethod)) == 4


def test_similarity_dispatch_matches_functions():
    rng = np.random.default_rng(5)
    a = rng.normal(size=32)
    b = rng.normal(size=32)
    pairs = [(SimilarityMethod.PCC, pcc), (SimilarityMethod.ED, euclidean),
             (SimilarityMethod.CS, cosine), (SimilarityMethod.RMSE, rmse)]
    for method, fn in pairs:
        value = similarity(a, b, method)
        assert type(value) is float
        assert value == fn(a, b)
    assert similarity(a, 2.0 * a, SimilarityMethod.CS) == 1.0


def _reference_pcc(a, b):
    da = a - math.fsum(a) / len(a)
    db = b - math.fsum(b) / len(b)
    num = math.fsum(da * db)
    den = math.sqrt(math.fsum(da * da)) * math.sqrt(math.fsum(db * db))
    return num / den


def test_pcc_against_fsum_reference():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(3, 200))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        assert pcc(a, b) == pytest.approx(_reference_pcc(a, b), abs=1e-9)


finite = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


@settings(max_examples=120, deadline=None)
@given(st.integers(3, 64), st.integers(0, 2**31), finite, st.floats(1e-3, 1e3))
def test_pcc_affine_invariance(n, seed, beta, alpha):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    base = pcc(a, b)
    assert -1.0 <= base <= 1.0
    # a large offset against a tiny scale costs ~7 digits to cancellation,
    # so the bound is loose in float terms while still far below any
    # behavioural threshold
    assert pcc(alpha * a + beta, b) == pytest.approx(base, abs=1e-6)
    assert pcc(b, a) == pytest.approx(base, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 64), st.integers(0, 2**31), st.floats(1e-3, 1e3))
def test_cosine_scale_invariance(n, seed, alpha):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    assert cosine(alpha * a, b) == pytest.approx(cosine(a, b), abs=1e-9)
    assert -1.0 <= cosine(a, b) <= 1.0


def test_euclidean_symmetry_and_shift():
    rng = np.random.default_rng(2)
    a = rng.normal(size=50)
    b = rng.normal(size=50)
    assert euclidean(a, b) == euclidean(b, a)
    assert rmse(a, b) == pytest.approx(euclidean(a, b) / math.sqrt(50), abs=1e-12)
