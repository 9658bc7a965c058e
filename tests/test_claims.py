"""The paper's ranking claims as a property, not a pin of one seed.

C5-C7 are checked at more seeds, in the default noise mix and in the
paper's (``attenuation_share = 0``: no attenuation pairs), and C8 at two
more seeds, with the conditions that ``test_acceptance.py`` checks at
seed 42 (both call the helpers in ``conftest.py``).  The C10-sized report
must also keep its pinned bytes with every numpy SIMD dispatch level
switched off.

Every seed here held when it was added.  A seed that fails is a finding,
to be reported with its numbers; it is never dropped, and no margin is
widened to make it pass.
"""
import functools
import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import sigdrift
from sigdrift.evaluate import run_experiment, sensitivity_analysis

from conftest import C10_ARGV, DESK, JOBS, check_c05, check_c06, check_c07, check_c08
from test_pinned_outputs import C10_REPORT_SHA256

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

PAPER_MIX = replace(DESK, corpus=replace(DESK.corpus, attenuation_share=0.0))
MIXES = ([pytest.param(DESK, seed, id=f"default-{seed}") for seed in range(12, 18)]
         + [pytest.param(PAPER_MIX, seed, id=f"paper-{seed}")
            for seed in (42, 1, 2, 3, 12, 13)])


@functools.cache
def _report(config, seed):
    return run_experiment(config, seed, JOBS)


@pytest.mark.parametrize("config, seed", MIXES)
@pytest.mark.parametrize("check", [check_c05, check_c06, check_c07],
                         ids=["c05", "c06", "c07"])
def test_rankings_hold_at_every_seed_and_mix(check, config, seed):
    check(_report(config, seed))


@pytest.mark.parametrize("seed", [1, 12])
def test_c08_holds_at_more_seeds(seed):
    check_c08(sensitivity_analysis(DESK, seed, jobs=JOBS))


def test_c10_report_keeps_its_bytes_without_simd_dispatch(tmp_path):
    """numpy picks its SIMD kernels at run time; with every dispatch level
    this host has switched off, the baseline kernels must give the same
    report bytes."""
    enabled = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(enabled),
           "PYTHONPATH": str(Path(sigdrift.__file__).parents[1])}
    out = tmp_path / "report.json"
    subprocess.run([sys.executable, "-m", "sigdrift.cli", *C10_ARGV, "--out", str(out)],
                   env=env, check=True, capture_output=True)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == C10_REPORT_SHA256
