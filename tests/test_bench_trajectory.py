"""``BENCH_perfbench.json`` is the committed benchmark trajectory: one
entry per measured commit, each holding the final JSON line of
``perfbench/run.py --seed 42`` for every workload in ``BENCHMARK.json``,
untraced, plus the traced ``evaluate-paper`` line."""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ENTRIES = json.loads((ROOT / "BENCH_perfbench.json").read_text(encoding="utf-8"))["entries"]


def _check_line(line, metric_names):
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == metric_names
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and metric["unit"]


def test_trajectory_has_entries():
    assert len(ENTRIES) >= 2


@pytest.mark.parametrize("index", range(len(ENTRIES)))
def test_entry_records_every_workload(index):
    entry = ENTRIES[index]
    assert len(entry["git_sha"]) == 40
    assert entry["nproc"] >= 1 and entry["numpy"] and entry["host_noise"]
    assert set(entry["untraced"]) == {w["name"] for w in SPEC["workloads"]}
    for line in entry["untraced"].values():
        _check_line(line, {m["name"] for m in SPEC["end_to_end"]})
    _check_line(entry["traced"]["evaluate-paper"], {m["name"] for m in SPEC["per_layer"]})
