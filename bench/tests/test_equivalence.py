"""The benchmark measures the same bytes that `g2calc verify` prints.

Run from the root of a source checkout (about 40 s):

    python3 -m pytest -q bench/tests

For one seed, the per-suite-driven pointwise and torus-box verdicts must
together equal the stdout of `python -m g2calc verify --format json`, and a
traced verdict of every workload must equal its untraced one, so tracing
never changes a verdict.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def test_suite_verdicts_equal_cli_output():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("G2CALC_SEED", None)
    cli = subprocess.run(
        [sys.executable, "-m", "g2calc", "verify", "--seed", str(SEED),
         "--samples", str(workloads.SAMPLES), "--format", "json"],
        capture_output=True, env=env, timeout=300, check=True,
    ).stdout
    suites = workloads.POINTWISE_SUITES + workloads.TORUS_SUITES
    combined = workloads.suite_verdict(SEED, suites)
    assert combined.failed == 0
    assert combined.payload == cli


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_leaves_verdicts_unchanged(workload):
    verdict = workloads.make(workload, SEED)
    plain = verdict()
    tracer = tracing.Tracer()
    with tracer.active():
        traced = verdict()
    assert traced.failed == plain.failed == 0
    assert traced.payload == plain.payload
    assert tracer.stats.durations, "no span was recorded"
