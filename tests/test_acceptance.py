"""Acceptance gate: ten go/no-go checks over the whole pipeline.

Criteria 5-8 share one desk-scale benchmark run (600-pair corpus, ten
repeats, fixed seed) so the whole module stays well under five minutes.
Each test prints a single summary line when it passes; the test name
carries the criterion number.
"""
import hashlib
import json
import math
import time

import numpy as np
import pytest

from sigdrift.cli import main as cli_main
from sigdrift.core import TrialExperience, json_text
from sigdrift.cpd import EventConfig, calibrate, detect_events
from sigdrift.datagen import build_base_signatures, build_corpus
from sigdrift.detect import DetectorThresholds, Verdict, sliding_window_detect
from sigdrift.evaluate import (ConfusionCounts, accuracy, f1, fp_rate, run_experiment,
                               sensitivity_analysis, tp_rate)
from sigdrift.noisegen import DistortionNoise, SpikeNoise, inject, residual
from sigdrift.similarity import SimilarityMethod, cosine, euclidean, pcc, rmse

import oracle
from conftest import (C10_ARGV, DESK, JOBS, brute_events, check_c05, check_c06, check_c07,
                      check_c08, unit_signature)

SEED = 42

# `json_text(..., indent=2)` of the `desk_sensitivity` report, the bytes
# `sensitivity` would write for it.
DESK_SENSITIVITY_SHA256 = "462478165659f21e73e09f00b9ff38acdbb100bed0345abf04f10d98c65d01be"


@pytest.fixture(scope="module")
def desk_report():
    return run_experiment(DESK, seed=SEED, jobs=JOBS)


@pytest.fixture(scope="module")
def desk_sensitivity():
    return sensitivity_analysis(DESK, seed=SEED, levels=(0.5, 0.25, 0.0),
                                jobs=JOBS)


def test_the_oracle_passes_its_own_fixtures():
    """Tests take tolerance references from the benchmark's oracle, so a
    broken oracle must fail here, not pass a broken program."""
    oracle.self_check()


# --------------------------------------------------------------- criterion 1

def test_c01_metric_oracle_against_bruteforce():
    rng = np.random.default_rng(123)
    for _ in range(50):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 1000, size=4))
        c = ConfusionCounts(tp, fp, tn, fn)
        want = oracle.rates(tp, fp, tn, fn)
        expect = [want["fp_rate"], want["tp_rate"], want["accuracy"], want["f1"]]
        got = [fp_rate(c), tp_rate(c), accuracy(c), f1(c)]
        for g, e in zip(got, expect):
            if e is None:
                assert g is None
            else:
                assert abs(g - e) < 1e-12
    fixture = ConfusionCounts(3, 1, 5, 1)
    assert round(fp_rate(fixture), 4) == 0.1667
    assert tp_rate(fixture) == 0.75
    assert accuracy(fixture) == 0.8
    assert f1(fixture) == 0.75
    print("C1 PASS: 50 random confusion matrices match brute force at 1e-12; "
          "hand fixture (3,1,5,1) reproduced")


# --------------------------------------------------------------- criterion 2

def _brute(a, b):
    n = len(a)
    ma = math.fsum(a) / n
    mb = math.fsum(b) / n
    da = [x - ma for x in a]
    db = [x - mb for x in b]
    cov = math.fsum(x * y for x, y in zip(da, db))
    va = math.sqrt(math.fsum(x * x for x in da))
    vb = math.sqrt(math.fsum(x * x for x in db))
    dot = math.fsum(x * y for x, y in zip(a, b))
    na = math.sqrt(math.fsum(x * x for x in a))
    nb = math.sqrt(math.fsum(x * x for x in b))
    sq = math.fsum((x - y) ** 2 for x, y in zip(a, b))
    return {
        "pcc": cov / (va * vb),
        "cs": dot / (na * nb),
        "ed": math.sqrt(sq),
        "rmse": math.sqrt(sq / n),
    }


def test_c02_similarity_oracle_on_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(2, 513))
        a = rng.normal(scale=rng.uniform(0.1, 10.0), size=n)
        b = rng.normal(scale=rng.uniform(0.1, 10.0), size=n)
        want = _brute(a.tolist(), b.tolist())
        assert abs(pcc(a, b) - np.clip(want["pcc"], -1, 1)) < 1e-9
        assert abs(cosine(a, b) - np.clip(want["cs"], -1, 1)) < 1e-9
        assert abs(euclidean(a, b) - want["ed"]) < 1e-9
        assert abs(rmse(a, b) - want["rmse"]) < 1e-9
    # exact identities on the hand fixtures
    ramp = np.array([1.0, 2.0, 3.0])
    assert pcc(ramp, ramp) == 1.0
    assert pcc(ramp, ramp[::-1].copy()) == -1.0
    assert cosine(ramp, 3.0 * ramp) == 1.0
    assert euclidean(ramp, ramp) == 0.0
    assert rmse(ramp, ramp) == 0.0
    print("C2 PASS: 1000 random pairs (len <= 512) match fsum brute force at "
          "1e-9; identity fixtures exact")


# --------------------------------------------------------------- criterion 3

def test_c03_awgn_calibration_on_unit_rows():
    base = build_base_signatures(seed=SEED)[0]
    hits = 0
    for seed in range(100):
        noisy = inject(base, DistortionNoise(20.0), seed=seed)
        noise = np.stack(residual(base, noisy))
        ratio = oracle.snr(base.matrix.ravel().tolist(), noise.ravel().tolist())
        if abs(10.0 * math.log10(ratio) - 20.0) <= 1.0:
            hits += 1
    assert hits >= 95
    print(f"C3 PASS: realized AWGN within 20±1 dB on {hits}/100 seeds "
          "(360-point unit-std row)")


# --------------------------------------------------------------- criterion 4

def test_c04_spike_pairs_classified_with_window_overlap():
    t0 = time.monotonic()
    sigs = build_base_signatures(seed=SEED)
    corpus = build_corpus(0, 223, 0.0, seed=7, signatures=sigs)
    spikes = [p for p in corpus if isinstance(p.noise, SpikeNoise)][:200]
    assert len(spikes) == 200
    th = DetectorThresholds()
    hits = 0
    for pair in spikes:
        out = sliding_window_detect(pair.existing, pair.recomputed, th)
        if out.verdict is not Verdict.NOISE or out.noise_kind != "spike":
            continue
        pos, width = pair.noise.position, pair.noise.width
        start = out.rows[0].diagnostics["removed_window_start"]
        if start < pos + width and start + th.scan_window > pos:
            hits += 1
    elapsed = time.monotonic() - t0
    assert hits >= 190  # 95% of 200
    assert elapsed < 60.0
    print(f"C4 PASS: {hits}/200 spike pairs -> Noise(spike) with overlapping "
          f"deletion window in {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 5

def test_c05_false_positive_ordering(desk_report):
    print(f"C5 PASS: {check_c05(desk_report)}")


# --------------------------------------------------------------- criterion 6

def test_c06_true_positive_ordering(desk_report):
    print(f"C6 PASS: {check_c06(desk_report)}")


# --------------------------------------------------------------- criterion 7

def test_c07_f1_and_accuracy_rankings(desk_report):
    print(f"C7 PASS: {check_c07(desk_report)}")


# --------------------------------------------------------------- criterion 8

def test_c08_distortion_sensitivity(desk_sensitivity):
    print(f"C8 PASS: SNR F1 beats SW F1 at every distortion level "
          f"({check_c08(desk_sensitivity)})")


def test_desk_sensitivity_report_is_pinned(desk_sensitivity):
    text = json_text(desk_sensitivity, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == DESK_SENSITIVITY_SHA256


# --------------------------------------------------------------- criterion 9

def test_c09_eca_oracle_and_initialization_example():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(0, 120))
        idx = np.sort(rng.integers(0, 100, size=n))
        flagged = rng.random(n) < 0.35
        flags = list(zip(idx.tolist(), flagged.tolist()))
        width = int(rng.integers(1, 15))
        thresh = int(rng.integers(1, 7))
        assert detect_events(flags, EventConfig(width, thresh)) == \
            brute_events(flags, width, thresh)

    # five past users tied at the minimum similarity inside one window
    sig = unit_signature(np.arange(12.0), parameters=["cpu"])
    down = np.array([4.0, 3.0, 2.0, 1.0])
    up = np.array([1.0, 2.0, 3.0, 4.0])
    past = [TrialExperience(f"b{i}", "cpu", down, i) for i in range(5)]
    past += [TrialExperience(f"g{s}", "cpu", up, s) for s in (0, 3, 6)]
    _, cfg = calibrate(past, sig, SimilarityMethod.PCC, window_length=6)
    assert cfg.frequency_threshold == 5
    print("C9 PASS: detect_events equals brute-force recount on 1000 random "
          "streams; five boundary users initialize the frequency threshold to 5")


# -------------------------------------------------------------- criterion 10

def test_c10_cli_evaluate_is_byte_identical(tmp_path):
    def run(path):
        code = cli_main([*C10_ARGV, "--out", str(path)])
        assert code == 0

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(a)
    run(b)
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["seed"] == 42
    print("C10 PASS: evaluate --seed 42 produced byte-identical reports on "
          "two runs")
