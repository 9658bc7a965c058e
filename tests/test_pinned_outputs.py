"""Byte pins of outputs a refactor must leave unchanged.

The SNR verdicts of some pairs are decided by rounding (a pair can sit
exactly on its learned baseline), so "close" is not enough: these pin
the exact bytes of an evaluate report and of learned noise profiles.
"""
import hashlib

from sigdrift.cli import main

C10_REPORT_SHA256 = "4d9102d64606567fc80f112d885b8753b7c6c7d237c39012b449769639ab139b"

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
