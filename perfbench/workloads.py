"""The three workloads.  Each returns its metrics, records the operations
it attempted and those that failed on the context before checking, and
raises :class:`checks.CheckFailed` when the program's output is wrong.

* ``evaluate-paper``: ``sigdrift evaluate`` through ``sigdrift.cli.main``
  at the paper defaults, two repeats per call.
* ``long-grid``: the public datagen, evaluate and detect functions on a
  23,040-point grid, pair by pair.
* ``detect-cli``: ``sigdrift gen-data`` once as set-up, then
  ``python -m sigdrift.cli detect`` subprocesses.

Everything runs in one process, single-threaded (``--jobs 1``).
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import checks
import oracle
from checks import Thresholds, require
from tracing import Tracer

DETECTORS = ("sw", "snr", "cusum")

# evaluate-paper: the paper defaults, except two repeats per call.
PAPER_REPEATS = 2
PAPER = {"n_changed": 3000, "n_noisy": 3000, "distortion_fraction": 0.5,
         "monitor_fraction": 0.2, "snr_segments": 6,
         "sample_sizes": [1000, 2000, 3000, 4000, 5000]}
PAPER_ORACLE_PER_KIND = 6  # oracle-checked pairs per pair kind
# Calls take 6-10 s: three give a median and keep a run near 30 s.  The
# tail and peak RSS are read over the first three calls only, so that they
# do not depend on how many calls fit in a run.
PAPER_MIN_CALLS = 3

# long-grid: the 360-day grid stretched 64-fold, two raw points per grid point.
LONG_GRID = 23040
LONG_RAW = 2 * LONG_GRID
LONG_SEGMENT = LONG_GRID // 4  # changed-pair splice, a quarter of the grid as at 360
LONG_CHANGED = LONG_NOISY = 150
LONG_MONITOR = 60  # monitor fraction 0.2 of the 300 pairs
LONG_MIN_PASSES = 2
LONG_ORACLE_PAIRS = {"changed": 2, "spike": 2, "distortion": 1, "attenuation": 1}

# detect-cli: a 200-pair gen-data corpus; a round is 10 of its pairs x 3 detectors.
GEN_CHANGED = GEN_NOISY = 100
CLI_PAIRS = {"changed": 4, "spike": 2, "distortion": 2, "attenuation": 2}
CLI_MIN_ROUNDS = 4  # 120 calls, so p90 has at least ten calls beyond it

SETUP_REPEATS = {"evaluate-paper": 9, "long-grid": 5, "detect-cli": 5}


class Context:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float,
                 trace: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.tracer = Tracer()
        self.details: dict = {}
        self.attempted = 0
        self.failed = 0
        env = {k: v for k, v in os.environ.items() if k != "SIGDRIFT_SEED"}
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env


# ---------------------------------------------------------------------------
# Helpers

def percentile(values, q: float) -> float:
    """Nearest-rank percentile: at q=0.9 and 100 values, ten lie beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_child(ctx: Context, argv: list[str]) -> tuple[float, float, int, bytes, str]:
    """Run a child to completion: (wall s, peak RSS MB, exit code, stdout, stderr)."""
    err_path = ctx.work / "child.stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=ctx.env, cwd=ctx.work)
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_maxrss / 1024.0, proc.returncode, out,
            err_path.read_text(encoding="utf-8", errors="replace"))


def child_python(ctx: Context, code: str) -> tuple[float, str]:
    wall, _, rc, out, err = run_child(ctx, [sys.executable, "-c", code])
    require(rc == 0, f"python -c {code!r} exited {rc}: {err.strip()}")
    return wall, out.decode()


def rows_of(sig) -> dict[str, list[float]]:
    return {row.parameter: row.values.tolist() for row in sig.rows}


def pair_kind(pair) -> str:
    return "changed" if pair.noise is None else pair.noise.kind


def stratified(items, kind_of, quota: dict, rng: random.Random) -> list:
    """``quota[kind]`` items of each kind, drawn by ``rng``, in input order."""
    by_kind: dict[str, list] = {}
    for i, item in enumerate(items):
        by_kind.setdefault(kind_of(item), []).append(i)
    chosen = []
    for kind, count in quota.items():
        pool = by_kind.get(kind, [])
        require(len(pool) >= count, f"only {len(pool)} {kind} pairs to sample from")
        chosen += rng.sample(pool, count)
    return [items[i] for i in sorted(chosen)]


class DetectCounts:
    """Work counts taken from detector outcomes, plus the rows each kernel
    saw, so the kernels can be timed on them afterwards."""

    def __init__(self):
        self.n = Counter()
        self.scan_rows: list[tuple[np.ndarray, np.ndarray]] = []
        self.cusum_rows: list[tuple[np.ndarray, np.ndarray]] = []

    def sw(self, args, outcome) -> None:
        existing, recomputed = args[0], args[1]
        self.n["pairs"] += 1
        for row in outcome.rows:
            if "removed_window_start" in row.diagnostics:
                self.n["sw_scanned"] += 1
                self.scan_rows.append((existing.row(row.parameter).values,
                                       recomputed.row(row.parameter).values))
            else:
                self.n["sw_gate_settled"] += 1

    def snr(self, args, outcome) -> None:
        self.n["snr_changes"] += outcome.verdict.value == "change"

    def cusum(self, args, outcome) -> None:
        existing, recomputed = args[0], args[1]
        self.n["cusum_alarms"] += outcome.verdict.value == "change"
        self.cusum_rows += [(e.values, r.values) for e, r in zip(existing.rows, recomputed.rows)]


def detector_layers(tracer: Tracer, counts: DetectCounts) -> dict:
    """Per-layer metrics of the detector stack; the kernels are timed by
    calling them directly on the rows the detectors gave them."""
    from sigdrift._kernels import cusum_scan, deletion_pcc_scan

    zs = [(y - x) / x.std() for x, y in counts.cusum_rows]
    start = time.perf_counter()
    for x, y in counts.scan_rows:
        deletion_pcc_scan(x, y, Thresholds.window)
    scan_s = time.perf_counter() - start
    start = time.perf_counter()
    for z in zs:
        cusum_scan(z, Thresholds.slack, Thresholds.interval)
    cusum_s = time.perf_counter() - start
    points = sum(x.size for x, _ in counts.scan_rows) + sum(z.size for z in zs)
    return {
        "datagen.signatures_s": tracer.total("datagen.signatures"),
        "datagen.corpus_s": tracer.total("datagen.corpus"),
        "evaluate.profiles_s": tracer.total("evaluate.profiles"),
        "evaluate.score_s": tracer.total("evaluate.score"),
        "detect.sw_s": tracer.total("detect.sw"),
        "detect.snr_s": tracer.total("detect.snr"),
        "detect.cusum_s": tracer.total("detect.cusum"),
        "similarity.gate_s": tracer.total("similarity.gate"),
        "kernels.deletion_pcc_scan_s": scan_s,
        "kernels.cusum_scan_s": cusum_s,
        "kernels.scan_points": points,
        "detect.pairs": counts.n["pairs"],
        "detect.sw_gate_settled": counts.n["sw_gate_settled"],
        "detect.sw_scanned": counts.n["sw_scanned"],
        "detect.snr_changes": counts.n["snr_changes"],
        "detect.cusum_alarms": counts.n["cusum_alarms"],
    }


def overhead_pct(traced: float, untraced: float) -> float:
    return 100.0 * (traced - untraced) / untraced


# ---------------------------------------------------------------------------
# evaluate-paper

def evaluate_paper(ctx: Context):
    if not ctx.trace:
        # Set-up is importing sigdrift.cli, timed inside fresh interpreters.
        code = ("import time; t = time.perf_counter(); import sigdrift.cli; "
                "print(time.perf_counter() - t)")
        setup = statistics.median(float(child_python(ctx, code)[1])
                                  for _ in range(SETUP_REPEATS[ctx.workload]))
    import sigdrift.cli as cli

    report_path = ctx.work / "report.json"
    argv = ["evaluate", "--seed", str(ctx.seed), "--jobs", "1",
            "--repeats", str(PAPER_REPEATS), "--out", str(report_path)]
    walls, digests, failed, rss = [], [], 0, 0.0

    def one_call() -> None:
        nonlocal failed, rss
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a dead run
            ctx.details.setdefault("errors", []).append(repr(exc))
            code = -1
        walls.append(time.perf_counter() - start)
        if code == 0:
            digests.append(hashlib.sha256(report_path.read_bytes()).hexdigest())
        else:
            failed += 1
        if len(walls) == PAPER_MIN_CALLS:
            rss = peak_rss_mb()

    metrics = {}
    if ctx.trace:
        import sigdrift.detect as det
        import sigdrift.evaluate as ev

        counts = DetectCounts()
        targets = [
            (ev, "build_base_signatures", "datagen.signatures", None),
            (ev, "build_corpus", "datagen.corpus", None),
            (ev, "learn_monitoring_profiles", "evaluate.profiles", None),
            (ev, "sliding_window_detect", "detect.sw", counts.sw),
            (ev, "snr_detect", "detect.snr", counts.snr),
            (ev, "cusum_detect", "detect.cusum", counts.cusum),
            (det, "pcc", "similarity.gate", None),
            (det, "rmse", "similarity.gate", None),
            (ev, "score", "evaluate.score", None),
        ] + [(ev.METRICS, name, "evaluate.score", None) for name in list(ev.METRICS)]
        one_call()
        with ctx.tracer.patched(targets), ctx.tracer.span("cli.main"):
            one_call()
        one_call()
        metrics = detector_layers(ctx.tracer, counts)
        metrics["trace.overhead_pct"] = overhead_pct(walls[1], (walls[0] + walls[2]) / 2)
    else:
        start = time.perf_counter()
        while len(walls) < PAPER_MIN_CALLS or time.perf_counter() - start < ctx.seconds:
            one_call()
        verdicts = (PAPER["n_changed"] + PAPER["n_noisy"]) * len(DETECTORS) * PAPER_REPEATS
        metrics = {
            "verdicts_per_s": statistics.median(verdicts / w for w in walls),
            "detect_p50_ms": 1000.0 * statistics.median(walls),
            "detect_tail_ms": 1000.0 * max(walls[:PAPER_MIN_CALLS]),
            "peak_rss_mb": rss,
            "setup_s": setup,
        }
    ctx.details.update(calls=len(walls), call_s=walls, report_sha256=sorted(set(digests)))
    ctx.attempted, ctx.failed = len(walls), failed

    require(bool(digests), "no evaluate call succeeded")
    require(len(set(digests)) == 1, f"one seed gave different reports: {digests}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    check_paper_report(report)
    check_paper_repeat_zero(ctx, report)
    return metrics


def check_paper_report(report: dict) -> None:
    """Method properties of an evaluate report at the paper defaults."""
    for key, want in PAPER.items():
        require(report["config"][key] == want,
                f"report config {key}={report['config'][key]!r}, expected {want!r}")
    cells = report["detectors"]
    for det, sizes in cells.items():
        for size, per_metric in sizes.items():
            for metric, cell in per_metric.items():
                values = cell["values"]
                require(len(values) == PAPER_REPEATS and None not in values,
                        f"{det}/{size}/{metric} values {values}")
                require(checks.close(cell["mean"], oracle.mean(values), 1e-12)
                        and checks.close(cell["std"], oracle.pstd(values), 1e-12),
                        f"{det}/{size}/{metric}: mean/std {cell['mean']}/{cell['std']} "
                        f"do not match values {values}")
    largest = str(max(PAPER["sample_sizes"]))

    def means(metric):
        return {d: cells[d][largest][metric]["mean"] for d in DETECTORS}

    checks.check_order(means("fp_rate"), ["sw", "snr", "cusum"], False, "FP rate")
    checks.check_order(means("tp_rate"), ["cusum", "snr", "sw"], True, "TP rate")
    checks.check_order(means("f1"), ["snr", "sw", "cusum"], True, "F1")
    ceiling = 1.0 - PAPER["distortion_fraction"]
    for v in report["diagnostics"]["sw_noise_kind_accuracy"]["values"]:
        require(v <= ceiling + 1e-12,
                f"sw noise-kind accuracy {v} above {ceiling}; sw never names distortion")


def check_paper_repeat_zero(ctx: Context, report: dict) -> None:
    """Rebuild repeat 0 from the seed the way ``run_experiment`` derives it,
    recount its smallest-sample cell from the program's verdicts with the
    oracle's confusion counting, check the ``sw`` gate of every pair of
    that cell, and check a stratified sample of its pairs, and its learned
    SNR profiles, against the oracle."""
    from sigdrift.datagen import CorpusParams, build_base_signatures, build_corpus
    from sigdrift.evaluate import learn_monitoring_profiles

    stream = np.random.SeedSequence(ctx.seed).spawn(PAPER_REPEATS)[0]
    sig_ss, corpus_ss, monitor_ss, sample_ss = stream.spawn(4)
    params = CorpusParams()
    signatures = build_base_signatures(int(sig_ss.generate_state(1)[0]), params)
    corpus = build_corpus(PAPER["n_changed"], PAPER["n_noisy"], PAPER["distortion_fraction"],
                          int(corpus_ss.generate_state(1)[0]),
                          signatures=signatures, params=params)
    n_monitor = max(1, int(round(PAPER["monitor_fraction"] * len(corpus))))
    monitoring = build_corpus(0, n_monitor, PAPER["distortion_fraction"],
                              int(monitor_ss.generate_state(1)[0]),
                              signatures=signatures, params=params)
    profiles = learn_monitoring_profiles(monitoring, PAPER["snr_segments"])
    size = PAPER["sample_sizes"][0]
    chosen = np.random.default_rng(sample_ss).choice(len(corpus), size=size, replace=False)
    sample = [corpus[int(i)] for i in chosen]

    labels = [pair.label.value for pair in sample]
    for det in DETECTORS:
        outcomes = [detector_outcome(det, pair, profiles) for pair in sample]
        want = oracle.rates(*oracle.confusion(labels, [o.verdict.value for o in outcomes]))
        for metric, value in want.items():
            got = report["detectors"][det][str(size)][metric]["values"][0]
            require(checks.close(got, value, 1e-12),
                    f"repeat 0, {det} at {size}: {metric} {got}, oracle recount {value}")
        if det == "sw":
            ctx.details["gate_pairs"] = len(sample)
            ctx.details["gate_ties"] = check_gate(sample, outcomes, "evaluate-paper")

    oracle_profiles = oracle.learn_profiles(
        ((p.existing.provider_id, rows_of(p.existing), rows_of(p.recomputed))
         for p in monitoring), PAPER["snr_segments"])
    checks.check_profiles(profiles, oracle_profiles, "evaluate-paper repeat 0")
    picked = stratified(sample, pair_kind,
                        dict.fromkeys(("changed", "spike", "distortion", "attenuation"),
                                      PAPER_ORACLE_PER_KIND),
                        random.Random(ctx.seed))
    ctx.details["oracle_pairs"] = len(picked)
    ctx.details["oracle_ties"] = check_pairs_in_process(
        picked, profiles, oracle_profiles, "evaluate-paper")


def detector_outcome(det: str, pair, profiles):
    """One detector at the paper-default settings; ``snr`` takes the
    pair's provider profile, or the pooled one."""
    from sigdrift.detect import cusum_detect, sliding_window_detect, snr_detect

    if det == "sw":
        return sliding_window_detect(pair.existing, pair.recomputed)
    if det == "snr":
        profile = profiles.get(pair.existing.provider_id, profiles[""])
        return snr_detect(pair.existing, pair.recomputed, profile)
    return cusum_detect(pair.existing, pair.recomputed)


def check_gate(pairs, sw_outcomes, label: str) -> int:
    """The ``sw`` first gate of every pair against the oracle; returns ties."""
    return sum(checks.check_sw_gate(rows_of(pair.existing), rows_of(pair.recomputed),
                                    outcome.to_dict(),
                                    f"{label} pair {pair.provenance['index']} ({pair_kind(pair)})")
               for pair, outcome in zip(pairs, sw_outcomes) if outcome is not None)


def check_pairs_in_process(pairs, profiles, oracle_profiles, label: str) -> int:
    ties = 0
    seg_len = profiles[""].segment_length
    for pair in pairs:
        where = f"{label} pair {pair.provenance['index']} ({pair_kind(pair)})"
        ex, rec = rows_of(pair.existing), rows_of(pair.recomputed)
        baseline = oracle_profiles.get(pair.existing.provider_id, oracle_profiles[""])
        ties += checks.check_sw(ex, rec, detector_outcome("sw", pair, profiles).to_dict(), where)
        ties += checks.check_cusum(ex, rec, detector_outcome("cusum", pair, profiles).to_dict(),
                                   where)
        ties += checks.check_snr(ex, rec, detector_outcome("snr", pair, profiles).to_dict(),
                                 baseline, seg_len, where)
    return ties


# ---------------------------------------------------------------------------
# long-grid

def stretched_profiles(span: int):
    """The packaged provider profiles with their seasonal maps scaled to
    ``span`` grid points: every interval keeps its share of the grid and
    its multiplier."""
    from sigdrift.datagen import default_profiles, profile_from_dict, profile_to_dict

    out = []
    for profile in default_profiles():
        payload = profile_to_dict(profile)
        factor = span / profile.grid_span
        payload["seasonal_map"] = [[lo * factor, hi * factor, m]
                                   for lo, hi, m in payload["seasonal_map"]]
        out.append(profile_from_dict(payload))
    return out


def long_grid_setup(seed: int, tracer: Tracer | None = None):
    from sigdrift.datagen import CorpusParams, build_base_signatures, build_corpus
    from sigdrift.evaluate import learn_monitoring_profiles

    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    sig_seed, corpus_seed, monitor_seed = (
        int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(3))
    params = CorpusParams(raw_length=LONG_RAW, grid_length=LONG_GRID,
                          changed_segment=LONG_SEGMENT)
    profiles = stretched_profiles(LONG_GRID)
    with span("datagen.signatures"):
        signatures = build_base_signatures(sig_seed, params, profiles)
    with span("datagen.corpus"):
        corpus = build_corpus(LONG_CHANGED, LONG_NOISY, 0.5, corpus_seed,
                              signatures=signatures, params=params)
    with span("datagen.corpus"):
        monitoring = build_corpus(0, LONG_MONITOR, 0.5, monitor_seed,
                                  signatures=signatures, params=params)
    with span("evaluate.profiles"):
        snr_profiles = learn_monitoring_profiles(monitoring, PAPER["snr_segments"])
    return corpus, monitoring, snr_profiles


def long_grid(ctx: Context):
    from sigdrift.detect import cusum_detect, sliding_window_detect, snr_detect

    if ctx.trace:
        corpus, monitoring, profiles = long_grid_setup(ctx.seed, ctx.tracer)
    else:
        setups = []
        for _ in range(SETUP_REPEATS[ctx.workload]):
            # Only one set-up is alive at a time, so peak RSS is the program's;
            # collecting now keeps it from depending on when the GC runs.
            corpus = monitoring = profiles = None
            gc.collect()
            start = time.perf_counter()
            corpus, monitoring, profiles = long_grid_setup(ctx.seed)
            setups.append(time.perf_counter() - start)
        ctx.details["setup_s"] = setups

    failed = 0
    calls: list[float] = []
    passes: list[float] = []
    verdicts: list[list] = []
    first_outcomes: list = []  # only the first pass's, so memory does not grow with passes

    def one_pass(sw, snr, cusum) -> None:
        nonlocal failed
        out = []
        pass_start = time.perf_counter()
        for pair in corpus:
            ex, rec = pair.existing, pair.recomputed
            profile = profiles.get(ex.provider_id, profiles[""])
            for fn, args in ((sw, ()), (snr, (profile,)), (cusum, ())):
                start = time.perf_counter()
                try:
                    out.append(fn(ex, rec, *args))
                except Exception as exc:  # a failed operation, not a dead run
                    ctx.details.setdefault("errors", []).append(repr(exc))
                    failed += 1
                    out.append(None)
                calls.append(time.perf_counter() - start)
        passes.append(time.perf_counter() - pass_start)
        verdicts.append([None if o is None else o.verdict.value for o in out])
        if not first_outcomes:
            first_outcomes.extend(out)

    metrics = {}
    if ctx.trace:
        import sigdrift.detect as det

        counts = DetectCounts()
        tr = ctx.tracer
        one_pass(sliding_window_detect, snr_detect, cusum_detect)
        tr.op = 1
        with tr.patched([(det, "pcc", "similarity.gate", None),
                         (det, "rmse", "similarity.gate", None)]):
            one_pass(tr.wrap("detect.sw", sliding_window_detect, counts.sw),
                     tr.wrap("detect.snr", snr_detect, counts.snr),
                     tr.wrap("detect.cusum", cusum_detect, counts.cusum))
        tr.op = 2
        one_pass(sliding_window_detect, snr_detect, cusum_detect)
        metrics = detector_layers(tr, counts)
        metrics["trace.overhead_pct"] = overhead_pct(passes[1], (passes[0] + passes[2]) / 2)
    else:
        start = time.perf_counter()
        while len(passes) < LONG_MIN_PASSES or time.perf_counter() - start < ctx.seconds:
            one_pass(sliding_window_detect, snr_detect, cusum_detect)
        per_pass = len(corpus) * len(DETECTORS)
        metrics = {
            "verdicts_per_s": statistics.median(per_pass / p for p in passes),
            "detect_p50_ms": 1000.0 * statistics.median(calls),
            "detect_tail_ms": 1000.0 * percentile(calls, 0.99),
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": statistics.median(setups),
        }
    ctx.details.update(passes=len(passes), pass_s=passes, calls=len(calls))
    ctx.attempted, ctx.failed = len(calls), failed

    require(all(v == verdicts[0] for v in verdicts), "detector verdicts differ between passes")
    labels = [pair.label.value for pair in corpus]
    rates = {det: oracle.rates(*oracle.confusion(labels, verdicts[0][i::len(DETECTORS)]))
             for i, det in enumerate(DETECTORS)}
    ctx.details["rates"] = rates
    checks.check_order({d: r["fp_rate"] for d, r in rates.items()},
                       ["sw", "snr", "cusum"], False, "long-grid FP rate")
    checks.check_order({d: r["tp_rate"] for d, r in rates.items()},
                       ["cusum", "snr", "sw"], True, "long-grid TP rate")

    oracle_profiles = oracle.learn_profiles(
        ((p.existing.provider_id, rows_of(p.existing), rows_of(p.recomputed))
         for p in monitoring), PAPER["snr_segments"])
    checks.check_profiles(profiles, oracle_profiles, "long-grid")
    ctx.details["gate_pairs"] = len(corpus)
    ctx.details["gate_ties"] = check_gate(corpus, first_outcomes[::len(DETECTORS)], "long-grid")
    picked = stratified(corpus, pair_kind, LONG_ORACLE_PAIRS, random.Random(ctx.seed))
    ctx.details["oracle_pairs"] = len(picked)
    ctx.details["oracle_ties"] = check_pairs_in_process(
        picked, profiles, oracle_profiles, "long-grid")
    return metrics


# ---------------------------------------------------------------------------
# detect-cli

def gen_data_argv(out: Path, seed: int) -> list[str]:
    return ["gen-data", "--seed", str(seed), "--n-changed", str(GEN_CHANGED),
            "--n-noisy", str(GEN_NOISY), "--out", str(out)]


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def detect_argv(data: Path, entry: dict, det: str) -> list[str]:
    argv = ["detect", "--existing", str(data / entry["existing_path"]),
            "--recomputed", str(data / entry["recomputed_path"]), "--detector", det]
    if det == "snr":
        argv += ["--profile", str(data / "snr_profiles" / "pooled.json")]
    return argv


def detect_cli(ctx: Context):
    cli_cmd = [sys.executable, "-m", "sigdrift.cli"]
    setups, digests = [], []
    for k in range(1 if ctx.trace else SETUP_REPEATS[ctx.workload]):
        out = ctx.work / f"gen{k}"
        wall, _, rc, _, err = run_child(ctx, cli_cmd + gen_data_argv(out, ctx.seed))
        require(rc == 0, f"gen-data exited {rc}: {err.strip()}")
        setups.append(wall)
        digests.append(tree_digest(out))
    require(len(set(digests)) == 1, "gen-data wrote different files for one seed")
    data = ctx.work / "gen0"
    manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
    entries = stratified(manifest["pairs"],
                         lambda e: e["label"] if e["noise"] is None else e["noise"]["kind"],
                         CLI_PAIRS, random.Random(ctx.seed))
    round_calls = [(entry, det) for entry in entries for det in DETECTORS]

    calls: list[float] = []
    rounds: list[float] = []
    rss: list[float] = []
    results: list[tuple] = []
    failed = 0

    def one_round() -> None:
        nonlocal failed
        round_start = time.perf_counter()
        for entry, det in round_calls:
            wall, peak, rc, out, err = run_child(ctx, cli_cmd + detect_argv(data, entry, det))
            calls.append(wall)
            rss.append(peak)
            if rc not in (0, 2):
                failed += 1
                ctx.details.setdefault("errors", []).append(err.strip()[-500:])
            results.append((entry, det, rc, out))
        rounds.append(time.perf_counter() - round_start)

    metrics = {}
    if ctx.trace:
        one_round()
        metrics = detect_cli_layers(ctx, data, round_calls)
    else:
        start = time.perf_counter()
        while len(rounds) < CLI_MIN_ROUNDS or time.perf_counter() - start < ctx.seconds:
            one_round()
        metrics = {
            "verdicts_per_s": statistics.median(len(round_calls) / r for r in rounds),
            "detect_p50_ms": 1000.0 * statistics.median(calls),
            "detect_tail_ms": 1000.0 * percentile(calls, 0.9),
            "peak_rss_mb": max(rss),
            "setup_s": statistics.median(setups),
        }
    ctx.details.update(rounds=len(rounds), calls=len(calls), setup_s=setups,
                       pairs=[e["index"] for e in entries])
    ctx.attempted, ctx.failed = len(calls), failed
    check_detect_results(ctx, data, results)
    return metrics


def check_detect_results(ctx: Context, data: Path, results) -> None:
    """Exit code 2 exactly when the outcome says change; every call on one
    pair and detector prints the same outcome; and that outcome matches
    the oracle on the same two files, re-normalized as read_signature
    documents."""
    profile = json.loads((data / "snr_profiles" / "pooled.json").read_text(encoding="utf-8"))
    baseline = [math.inf if r is None else r for r in profile["segment_snrs"]]
    first: dict[tuple, dict] = {}
    ties = 0
    for entry, det, rc, out in results:
        if rc not in (0, 2):
            continue
        payload = json.loads(out)
        where = f"detect-cli pair {entry['index']} ({det})"
        require(rc == (2 if payload["verdict"] == "change" else 0),
                f"{where}: exit code {rc} with verdict {payload['verdict']}")
        key = (entry["index"], det)
        if key in first:
            require(payload == first[key], f"{where}: outcome differs between calls")
            continue
        first[key] = payload
        ex = oracle.read_signature_rows(data / entry["existing_path"])
        rec = oracle.read_signature_rows(data / entry["recomputed_path"])
        if det == "sw":
            ties += checks.check_sw(ex, rec, payload, where)
        elif det == "cusum":
            ties += checks.check_cusum(ex, rec, payload, where)
        else:
            ties += checks.check_snr(ex, rec, payload, baseline, profile["segment_length"], where)
    ctx.details["oracle_ties"] = ties
    # read_signature re-normalizes the attenuated rows, so sw sees no change.
    attenuated = {e["index"] for e, _, _, _ in results
                  if e["noise"] and e["noise"]["kind"] == "attenuation"}
    ctx.details["attenuation_sw_verdicts"] = {
        index: payload["verdict"] for (index, det), payload in first.items()
        if det == "sw" and index in attenuated}


def detect_cli_layers(ctx: Context, data: Path, round_calls) -> dict:
    """Interpreter start and import from fresh children; main, file reads
    and the detectors from warm in-process calls; file writes from an
    in-process gen-data run."""
    bare = [child_python(ctx, "pass")[0] for _ in range(5)]
    imported = [child_python(ctx, "import sigdrift.cli")[0] for _ in range(5)]
    import sigdrift.cli as cli

    tr = ctx.tracer
    counts = DetectCounts()

    def in_process_round() -> list[float]:
        walls = []
        for entry, det in round_calls:
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(detect_argv(data, entry, det))
            walls.append(time.perf_counter() - start)
            require(rc in (0, 2), f"in-process detect exited {rc}")
        return walls

    in_process_round()  # warm
    tr.op = 1
    untraced = in_process_round()
    tr.op = 2
    with tr.patched([(cli, "read_signature", "core.read_signature", None),
                     (cli, "read_profile", "noisegen.read_profile", None),
                     (cli, "sliding_window_detect", "detect.sw", counts.sw),
                     (cli, "snr_detect", "detect.snr", counts.snr),
                     (cli, "cusum_detect", "detect.cusum", counts.cusum)]):
        traced = in_process_round()
    tr.op = 3
    with tr.patched([(cli, "write_signature", "core.write_signature", None),
                     (cli, "build_provider_signatures", "datagen.signatures", None),
                     (cli, "build_corpus", "datagen.corpus", None),
                     (cli, "learn_monitoring_profiles", "evaluate.profiles", None)]), \
            tr.span("cli.main"):
        rc = cli.main(gen_data_argv(ctx.work / "gen-traced", ctx.seed))
    require(rc == 0, f"in-process gen-data exited {rc}")
    require(tree_digest(ctx.work / "gen-traced") == tree_digest(data),
            "traced gen-data wrote different files")

    def median_ms(name: str) -> float:
        return 1000.0 * statistics.median(tr.durations(name))

    return {
        "cli.python_start_ms": 1000.0 * statistics.median(bare),
        "cli.import_ms": 1000.0 * (statistics.median(imported) - statistics.median(bare)),
        "cli.main_ms": 1000.0 * statistics.median(untraced),
        "core.read_signature_ms": median_ms("core.read_signature"),
        "noisegen.read_profile_ms": median_ms("noisegen.read_profile"),
        "core.write_signature_ms": median_ms("core.write_signature"),
        "datagen.signatures_s": tr.total("datagen.signatures"),
        "datagen.corpus_s": tr.total("datagen.corpus"),
        "evaluate.profiles_s": tr.total("evaluate.profiles"),
        "detect.sw_s": tr.total("detect.sw"),
        "detect.snr_s": tr.total("detect.snr"),
        "detect.cusum_s": tr.total("detect.cusum"),
        "trace.overhead_pct": overhead_pct(sum(traced), sum(untraced)),
        **{f"detect.{name}": n for name, n in counts.n.items()},
    }


WORKLOADS = {
    "evaluate-paper": evaluate_paper,
    "long-grid": long_grid,
    "detect-cli": detect_cli,
}
