"""Byte pins of outputs a refactor must leave unchanged.

The SNR verdicts of some pairs are decided by rounding (a pair can sit
exactly on its learned baseline), so "close" is not enough: these pin
the exact bytes of an evaluate report, of learned noise profiles and of
detector outcomes on multi-row signatures.
"""
import hashlib
import json

import numpy as np

from sigdrift.cli import main
from sigdrift.core import Signature
from sigdrift.datagen import build_base_signatures, synthesize_trace, write_trace
from sigdrift.detect import cusum_detect, sliding_window_detect, snr_detect
from sigdrift.noisegen import (AttenuationNoise, DistortionNoise, SpikeNoise, inject,
                               learn_noise_profile)

from conftest import unit_signature, wavy_row

C10_REPORT_SHA256 = "72537d00f48ce8e8e6dc88a93d25c5dbc511972de94438f2f23bd6d945aaea42"

SNR_PROFILES = {
    "bravo.json": '{"segment_length": 60, "segment_snrs": [122.16477783724845, '
                  '93.4161645636599, 78.18911555867359, 107.91984490938147, '
                  '97.32454880057455, 43.04451032341312]}\n',
    "charlie.json": '{"segment_length": 60, "segment_snrs": [null, null, '
                    '62.371975645075416, null, null, null]}\n',
    "delta.json": '{"segment_length": 60, "segment_snrs": [52.48127454073455, '
                  '122.45612351455843, 122.70395173488032, 86.2400441432429, '
                  '96.92932325488728, 101.51075691276434]}\n',
    "pooled.json": '{"segment_length": 60, "segment_snrs": [52.48127454073455, '
                   '93.4161645636599, 62.371975645075416, 86.2400441432429, '
                   '96.92932325488728, 43.04451032341312]}\n',
}

# `evaluate --seed 42 --repeats 1` at the paper defaults (6,000 pairs).
# At this size 137 of its SNR segment comparisons equal their baseline
# exactly, so a summation-order change that flips any verdict shows here.
PAPER_REPORT_SHA256 = "07d446d8050498d2da23778f34a696f473bc7b2ee90b82aa0012a2719e9db0da"

MULTI_ROW_SHA256 = "42cbfcebb73e1216616a9155dadf3cd6dc31ef312d7ca24c52178aeade1314e7"

# Provider ids and matrix bytes of `build_base_signatures(seed=42)` at the
# paper defaults (31 nodes, 6,486 raw points, 360-point grid).
BASE_SIGNATURES_SHA256 = "3dc9b20b939794c97403ebdb268d40f306fbdd546877cd0eb62d86751b7af7f9"

# `write_trace` bytes for `synthesize_trace(4, 720, seed=5)`.
TRACE_CSV_SHA256 = "372efbc7e534b2caf4efb98b455647a39fb3fb7b1a8b0a83b20a735539a629c1"


def _three_rows(seed):
    walk = np.random.default_rng(seed).standard_normal(360).cumsum()
    return [wavy_row(360, seed=seed), walk, np.roll(wavy_row(360, seed=seed + 1), 45)]


def _spliced(original, donor, start, stop):
    """A copy of `original` with the donor's columns [start, stop)."""
    values = original.matrix.copy()
    values[:, start:stop] = donor.matrix[:, start:stop]
    return Signature(original.parameters, values, original.provider_id)


def test_multi_row_detector_outcomes_are_pinned():
    """Every corpus the CLI builds has one row per signature; this pins
    the per-row paths of all three detectors on 3-row signatures."""
    params = ("cpu", "disk", "net")
    alpha = unit_signature(_three_rows(1), provider_id="alpha", parameters=params)
    bravo = unit_signature(_three_rows(5), provider_id="bravo", parameters=params)
    recomputed = [inject(alpha, SpikeNoise(100, 4, 12.0), 11),
                  inject(alpha, AttenuationNoise(0.7), 12),
                  inject(alpha, DistortionNoise(20.0), 13),
                  _spliced(alpha, bravo, 120, 210)]
    profile = learn_noise_profile(alpha, inject(alpha, DistortionNoise(20.0), 15), 6)
    outcomes = [outcome.to_dict()
                for rec in recomputed
                for outcome in (sliding_window_detect(alpha, rec),
                                snr_detect(alpha, rec, profile),
                                cusum_detect(alpha, rec))]
    digest = hashlib.sha256(json.dumps(outcomes, sort_keys=True).encode()).hexdigest()
    assert digest == MULTI_ROW_SHA256


def test_paper_base_signatures_are_pinned():
    digest = hashlib.sha256()
    for sig in build_base_signatures(seed=42):
        digest.update(sig.provider_id.encode())
        digest.update(sig.matrix.tobytes())
    assert digest.hexdigest() == BASE_SIGNATURES_SHA256


def test_trace_csv_is_pinned(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(synthesize_trace(4, 720, seed=5), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_CSV_SHA256


def test_c10_sized_evaluate_report_is_pinned(tmp_path):
    out = tmp_path / "report.json"
    assert main(["evaluate", "--seed", "42", "--jobs", "1",
                 "--n-changed", "20", "--n-noisy", "20", "--repeats", "2",
                 "--sample-sizes", "20,40", "--monitor-fraction", "0.15",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == C10_REPORT_SHA256


def test_gen_data_snr_profiles_are_pinned(tmp_path):
    out = tmp_path / "data"
    assert main(["gen-data", "--seed", "3", "--n-changed", "10", "--n-noisy", "10",
                 "--out", str(out)]) == 0
    written = {p.name: p.read_text(encoding="utf-8")
               for p in (out / "snr_profiles").iterdir()}
    assert written == SNR_PROFILES


def test_paper_scale_evaluate_report_is_pinned(tmp_path):
    out = tmp_path / "report.json"
    assert main(["evaluate", "--seed", "42", "--jobs", "1", "--repeats", "1",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PAPER_REPORT_SHA256
