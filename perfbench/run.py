"""Run one sigdrift benchmark workload and print its metrics.

    python3 perfbench/run.py --workload evaluate-paper --seed 42 --seconds 25 --trace 0

Run from the root of a sigdrift source tree: the program is imported from
``src/`` (and children get it on PYTHONPATH), never from an installed
copy.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
describes the run (workload, seed, git sha, nproc, Python and numpy
versions, kernel backend, sample counts).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` makes a separate traced run and reports
the per-layer metrics, writing its spans to ``.perfbench_out/``.

Exit codes: 0 when every check passed, 1 otherwise.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed; the program sees only inputs made from it")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long the timed part runs (whole operations)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    return parser.parse_args(argv)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sigdrift" / "__init__.py").is_file():
        print(f"perfbench: no sigdrift sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"perfbench: {spec_path} is missing", file=sys.stderr)
        return 1
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    # One BLAS thread, here and in children: at these array sizes a second
    # thread adds no speed, and its spin-waiting on a busy machine does.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    import numpy

    import checks
    import oracle
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 1
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(ROOT, args.workload, args.seed, args.seconds,
                            bool(args.trace), work)
    correct = True
    metrics: dict = {}
    try:
        oracle.self_check()
        metrics = workloads.WORKLOADS[args.workload](ctx)
    except checks.CheckFailed as exc:
        correct = False
        ctx.details["check_failed"] = str(exc)
        print(f"perfbench: CHECK FAILED: {exc}", file=sys.stderr)
    except oracle.OracleError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    from sigdrift import _kernels

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "kernel_backend": _kernels.backend, "details": ctx.details,
    }
    if args.trace:
        spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        ctx.tracer.write(spans, info)
        info["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(info, sort_keys=True, default=str))
    if not correct:
        metrics = {}
    elif args.trace:
        # A layer the workload does not exercise reads 0.
        metrics = {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": ctx.attempted,
                      "failed": ctx.failed, "metrics": metrics}, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
