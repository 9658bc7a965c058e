"""The scan kernels must agree with naive reference loops, and their
outputs are pinned bit for bit."""
import hashlib

import numpy as np
import pytest

from sigdrift._kernels import backend, cusum_scan, deletion_pcc_scan
from sigdrift.core import Signature
from sigdrift.datagen import build_base_signatures
from sigdrift.detect import Verdict, cusum_detect

from conftest import direct_deletion_pcc


def _naive_cusum(z, slack, threshold):
    pos = neg = 0.0
    max_pos = max_neg = 0.0
    alarm = -1
    for i, v in enumerate(z):
        pos = max(0.0, pos + v - slack)
        neg = max(0.0, neg - v - slack)
        max_pos = max(max_pos, pos)
        max_neg = max(max_neg, neg)
        if alarm < 0 and (pos > threshold or neg > threshold):
            alarm = i
    return max_pos, max_neg, alarm


def test_backend_is_reported():
    assert backend == "python"


def test_deletion_scan_matches_naive():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(10, 120))
        w = int(rng.integers(1, min(8, n - 2)))
        x = rng.normal(size=n)
        y = x + rng.normal(scale=rng.uniform(0.1, 2.0), size=n)
        got = deletion_pcc_scan(x, y, w)
        want = [direct_deletion_pcc(x, y, start, w) for start in range(n - w + 1)]
        np.testing.assert_allclose(got, want, atol=1e-9, equal_nan=True)


def test_deletion_scan_marks_constant_remainders():
    x = np.zeros(9)
    x[4:6] = [1.0, -1.0]
    y = np.arange(9.0)
    got = deletion_pcc_scan(x, y, 6)
    # any deletion window covering indices 4..5 leaves x constant
    assert np.isnan(got[0]) and np.isnan(got[3])
    assert not np.isnan(deletion_pcc_scan(y, y, 6)).any()


def test_deletion_scan_window_bounds():
    x = np.arange(10.0)
    with pytest.raises(ValueError):
        deletion_pcc_scan(x, x, 0)
    with pytest.raises(ValueError):
        deletion_pcc_scan(x, x, 9)
    assert deletion_pcc_scan(x, x, 8).shape == (3,)


def test_cusum_scan_matches_naive():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 400))
        z = rng.normal(scale=2.0, size=n)
        got = cusum_scan(z, 0.5, 5.0)
        want = _naive_cusum(z, 0.5, 5.0)
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        assert got[1] == pytest.approx(want[1], abs=1e-12)
        assert got[2] == want[2]


def test_cusum_scan_threshold_is_strict():
    z = np.full(5, 1.5)  # accumulates to exactly 5.0 with slack 0.5
    max_pos, max_neg, alarm = cusum_scan(z, 0.5, 5.0)
    assert max_pos == 5.0
    assert alarm == -1
    max_pos, _, alarm = cusum_scan(np.full(6, 1.5), 0.5, 5.0)
    assert max_pos == 6.0
    assert alarm == 5


@pytest.mark.parametrize("height", [1e8, 1e16, 1e20, 1e100])
def test_cusum_alarms_at_a_huge_spike_as_the_recursion_does(height):
    """Past about 1e15 the maxima lose precision (see ``cusum_scan``),
    but the verdict and the alarm index stay the recursion's."""
    existing = build_base_signatures(seed=42)[0]
    x = existing.matrix[0]
    y = x + 0.3 * np.random.default_rng(1).standard_normal(x.size)
    y[100:103] += height
    outcome = cusum_detect(existing, Signature(existing.parameters, y[None, :],
                                               existing.provider_id))
    want = _naive_cusum(((y - x) / existing.row_stds[0]).tolist(), 0.5, 5.0)
    assert outcome.verdict is Verdict.CHANGE
    assert outcome.diagnostics["alarm_index"] == want[2] == 100


# sha256 of deletion_pcc_scan(x, y, 6).tobytes() and repr of
# cusum_scan(z, 0.5, 5.0) on seeded rows. SNR and threshold ties are
# decided by rounding, so any change to summation order must show here
# rather than in a flipped verdict.
PINNED = {
    360: ("149575b1ff46c78662f594834e47d550774c71bab924717894e22268e28d523c",
          "(11.664021997983365, 14.9212792249063, 2)"),
    23040: ("0656ee182f541b8d92bdf790926f92bda5716fa991ab47fd214a94ac5cdfe45a",
            "(25.725130207953953, 25.219865901613957, 1)"),
}


@pytest.mark.parametrize("n", sorted(PINNED))
def test_kernels_are_pinned_bit_for_bit(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    y = x + rng.normal(scale=0.7, size=n)
    z = rng.normal(scale=2.0, size=n)
    scan_digest, cusum_repr = PINNED[n]
    assert hashlib.sha256(deletion_pcc_scan(x, y, 6).tobytes()).hexdigest() == scan_digest
    assert repr(cusum_scan(z, 0.5, 5.0)) == cusum_repr
