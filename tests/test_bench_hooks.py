"""The functions perfbench's tracer swaps must exist and be called, and
perfbench's own checks must run on the program's data types.

A traced benchmark run (``perfbench/run.py --trace 1``) replaces
``module.name`` with a timing wrapper, so each target has to stay a
module global that the program calls through that module.  The targets
are read from ``perfbench/workloads.py`` itself, so this follows the
benchmark as it changes.
"""
import ast
import importlib
import json
from pathlib import Path

import pytest

import sigdrift.cli as cli
import sigdrift.evaluate as evaluate
from sigdrift.datagen import CorpusParams, build_base_signatures, build_corpus
from sigdrift.detect import cusum_detect, sliding_window_detect

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"


def _swap_targets() -> set[tuple[str, str]]:
    """(module, name) of every ``(alias, "name", ...)`` tuple whose alias is
    a sigdrift module imported as ``import sigdrift.x as alias``."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    aliases = {a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.asname and a.name.startswith("sigdrift.")}
    return {(aliases[node.elts[0].id], node.elts[1].value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Tuple) and len(node.elts) >= 2
            and isinstance(node.elts[0], ast.Name) and node.elts[0].id in aliases
            and isinstance(node.elts[1], ast.Constant) and isinstance(node.elts[1].value, str)}


TARGETS = _swap_targets()


def test_targets_are_found():
    assert ("sigdrift.evaluate", "learn_monitoring_profiles") in TARGETS
    assert ("sigdrift.detect", "pcc") in TARGETS
    assert ("sigdrift.cli", "snr_detect") in TARGETS


@pytest.mark.parametrize("module, name", sorted(TARGETS))
def test_target_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name))


def _record_calls(monkeypatch, targets) -> set:
    """Wrap each target for the test; returns the set of keys called."""
    called = set()

    def wrap(key, fn):
        def recorded(*args, **kwargs):
            called.add(key)
            return fn(*args, **kwargs)
        return recorded
    for module, name in targets:
        owner = importlib.import_module(module)
        monkeypatch.setattr(owner, name, wrap((module, name), getattr(owner, name)))
    for name, fn in list(evaluate.METRICS.items()):  # evaluate-paper swaps these too
        monkeypatch.setitem(evaluate.METRICS, name, wrap(("METRICS", name), fn))
    return called


def test_evaluate_calls_its_targets_through_module_globals(tmp_path, monkeypatch):
    targets = sorted(t for t in TARGETS if t[0] != "sigdrift.cli")
    called = _record_calls(monkeypatch, targets)
    assert cli.main(["evaluate", "--seed", "1", "--jobs", "1",
                     "--n-changed", "6", "--n-noisy", "6", "--repeats", "1",
                     "--sample-sizes", "12", "--out", str(tmp_path / "r.json")]) == 0
    wanted = targets + [("METRICS", name) for name in evaluate.METRICS]
    assert [t for t in wanted if t not in called] == []


def test_cli_calls_its_targets_through_module_globals(tmp_path, monkeypatch):
    targets = sorted(t for t in TARGETS if t[0] == "sigdrift.cli")
    called = _record_calls(monkeypatch, targets)
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--seed", "1", "--nodes", "5", "--raw-length", "720",
                     "--n-changed", "2", "--n-noisy", "2", "--out", str(data)]) == 0
    entry = json.loads((data / "manifest.json").read_text())["pairs"][0]
    for det in ("sw", "snr", "cusum"):
        assert cli.main(["detect", "--existing", str(data / entry["existing_path"]),
                         "--recomputed", str(data / entry["recomputed_path"]),
                         "--detector", det,
                         "--profile", str(data / "snr_profiles" / "pooled.json"),
                         "--out", str(tmp_path / f"{det}.json")]) in (0, 2)
    assert [t for t in targets if t not in called] == []


def test_perfbench_checks_run_on_a_tiny_corpus(monkeypatch):
    """The benchmark's checks read ``Signature.rows`` and ``.row()``, the
    row fields, ``DetectionOutcome.rows`` and ``SnrValue``; run them here,
    so that changing that API fails the tests and not only a benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    checks = importlib.import_module("checks")
    oracle = importlib.import_module("oracle")
    workloads = importlib.import_module("workloads")
    params = CorpusParams(nodes=5, raw_length=720)
    corpus = build_corpus(4, 8, 0.5, 2, signatures=build_base_signatures(1, params),
                          params=params)

    counts = workloads.DetectCounts()
    sw_outcomes = []
    for pair in corpus:
        args = (pair.existing, pair.recomputed)
        sw_outcomes.append(sliding_window_detect(*args))
        counts.sw(args, sw_outcomes[-1])
        counts.cusum(args, cusum_detect(*args))
    assert counts.n["pairs"] == len(corpus) == len(counts.cusum_rows)
    assert 0 < counts.n["sw_scanned"] == len(counts.scan_rows)
    workloads.check_gate(corpus, sw_outcomes, "tiny corpus")

    monitoring = corpus[4:]
    oracle_profiles = oracle.learn_profiles(
        ((p.existing.provider_id, workloads.rows_of(p.existing),
          workloads.rows_of(p.recomputed)) for p in monitoring), 6)
    checks.check_profiles(evaluate.learn_monitoring_profiles(monitoring, 6),
                          oracle_profiles, "tiny corpus")
