import math
import os

import numpy as np
import pytest

from sigdrift.core import Signature
from sigdrift.evaluate import ExperimentConfig


def raw_signature(matrix, provider_id="prov", parameters=None):
    """Signature straight from the given rows, no renormalization."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if parameters is None:
        parameters = [f"q{i}" for i in range(matrix.shape[0])]
    return Signature(tuple(parameters), matrix, provider_id=provider_id)


def unit_signature(matrix, provider_id="prov", parameters=None):
    """Signature with each row scaled to unit population std."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if parameters is None:
        parameters = [f"q{i}" for i in range(matrix.shape[0])]
    rows = [row / np.std(row) for row in matrix]
    return Signature(tuple(parameters), rows, provider_id)


def wavy_row(length, seed=0, mean=0.0):
    """Deterministic non-constant row: two sinusoids plus a little noise."""
    t = np.arange(length, dtype=float)
    rng = np.random.default_rng(seed)
    base = np.sin(2 * np.pi * t / 37.0) + 0.4 * np.cos(2 * np.pi * t / 11.0)
    base = base + 0.05 * rng.standard_normal(length)
    base = base - base.mean()
    return base / base.std() + mean


def direct_deletion_pcc(x, y, start, window):
    """Two-pass PCC of what is left of x and y once [start, start+window)
    is deleted: centre each remainder by its own mean, then sum.  NaN
    when either remainder is constant."""
    a = np.delete(x, np.s_[start:start + window])
    b = np.delete(y, np.s_[start:start + window])
    if np.all(a == a[0]) or np.all(b == b[0]):
        return np.nan
    a -= a.mean()
    b -= b.mean()
    return float((a * b).sum() / (np.sqrt((a * a).sum()) * np.sqrt((b * b).sum())))


@pytest.fixture
def sig360():
    return unit_signature(wavy_row(360, seed=3), provider_id="alpha")


# ------------------------------------------------- the paper's claims C5-C8
# Conditions on reports of the desk-scale benchmark, shared by
# test_acceptance.py (one seed) and test_claims.py (many seeds, both noise
# mixes).  Each asserts its criterion and returns the figures it checked.

DESK = ExperimentConfig(
    n_changed=300,
    n_noisy=300,
    distortion_fraction=0.5,
    sample_sizes=(100, 200, 300, 400, 500, 600),
    repeats=10,
    monitor_fraction=0.15,
)
JOBS = min(4, os.cpu_count() or 1)
FULL = "600"  # the whole-corpus sample cell

# `evaluate` at the C10 sizes: two repeats of a 40-pair corpus.
C10_ARGV = ["evaluate", "--seed", "42", "--jobs", "1",
            "--n-changed", "20", "--n-noisy", "20", "--repeats", "2",
            "--sample-sizes", "20,40", "--monitor-fraction", "0.15"]


def _mean(report, detector, metric, size=FULL):
    return report["detectors"][detector][size][metric]["mean"]


def _std(report, detector, metric, size=FULL):
    return report["detectors"][detector][size][metric]["std"]


def _pooled_std(report, metric, det_a, det_b):
    sa = _std(report, det_a, metric)
    sb = _std(report, det_b, metric)
    return math.sqrt((sa ** 2 + sb ** 2) / 2.0)


def check_c05(report) -> str:
    """False positives: sw < snr < cusum, each gap above the pooled std."""
    fp_sw = _mean(report, "sw", "fp_rate")
    fp_snr = _mean(report, "snr", "fp_rate")
    fp_cusum = _mean(report, "cusum", "fp_rate")
    gap_a = fp_snr - fp_sw
    gap_b = fp_cusum - fp_snr
    pooled_a = _pooled_std(report, "fp_rate", "sw", "snr")
    pooled_b = _pooled_std(report, "fp_rate", "snr", "cusum")
    assert fp_sw < fp_snr < fp_cusum
    assert gap_a > pooled_a
    assert gap_b > pooled_b
    return (f"mean FP sw={fp_sw:.4f} < snr={fp_snr:.4f} < "
            f"cusum={fp_cusum:.4f}; gaps {gap_a:.3f}/{gap_b:.3f} exceed pooled "
            f"stds {pooled_a:.3f}/{pooled_b:.3f}")


def check_c06(report) -> str:
    """True positives: cusum > snr > sw, each gap above the pooled std."""
    tp_sw = _mean(report, "sw", "tp_rate")
    tp_snr = _mean(report, "snr", "tp_rate")
    tp_cusum = _mean(report, "cusum", "tp_rate")
    gap_a = tp_cusum - tp_snr
    gap_b = tp_snr - tp_sw
    pooled_a = _pooled_std(report, "tp_rate", "cusum", "snr")
    pooled_b = _pooled_std(report, "tp_rate", "snr", "sw")
    assert tp_cusum > tp_snr > tp_sw
    assert gap_a > pooled_a
    assert gap_b > pooled_b
    return (f"mean TP cusum={tp_cusum:.4f} > snr={tp_snr:.4f} > "
            f"sw={tp_sw:.4f}; gaps {gap_a:.3f}/{gap_b:.3f} exceed pooled stds "
            f"{pooled_a:.3f}/{pooled_b:.3f}")


def check_c07(report) -> str:
    """F1: snr > sw > cusum, and sw ranks first on accuracy in most cells."""
    f1_snr = _mean(report, "snr", "f1")
    f1_sw = _mean(report, "sw", "f1")
    f1_cusum = _mean(report, "cusum", "f1")
    assert f1_snr > f1_sw > f1_cusum

    sw_first = 0
    cells = report["detectors"]["sw"].keys()
    for size in cells:
        acc = {d: _mean(report, d, "accuracy", size)
               for d in ("sw", "snr", "cusum")}
        if acc["sw"] > acc["snr"] and acc["sw"] > acc["cusum"]:
            sw_first += 1
    assert sw_first > len(cells) / 2
    return (f"mean F1 snr={f1_snr:.4f} > sw={f1_sw:.4f} > "
            f"cusum={f1_cusum:.4f}; accuracy ranks sw first in "
            f"{sw_first}/{len(cells)} sample-size cells")


def check_c08(sensitivity) -> str:
    """SNR's F1 beats SW's at every distortion level."""
    lines = []
    for key in ("0.5", "0.25", "0.0"):
        run = sensitivity["runs"][key]
        f1_snr = run["detectors"]["snr"][FULL]["f1"]["mean"]
        f1_sw = run["detectors"]["sw"][FULL]["f1"]["mean"]
        assert f1_snr > f1_sw, f"level {key}: snr {f1_snr} vs sw {f1_sw}"
        lines.append(f"{key}: snr={f1_snr:.4f} > sw={f1_sw:.4f}")
    return "; ".join(lines)
