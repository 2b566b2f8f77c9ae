"""Benchmark of the g2calc certifier: one workload, one seed, one process.

Run from the root of a source checkout:

    python3 bench/run.py --workload pointwise --seed 0 --seconds 20 --trace 0

The package is imported from ``src/`` of the same checkout; nothing needs
to be installed.  The run measures set-up time in fresh processes, builds
the workload's inputs from the seed, runs one untimed warm-up verdict and
then repeats verdicts for ``--seconds`` seconds.  Every verdict is checked:
all checks must pass and its report bytes must equal the warm-up's.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run (see README.md).  Lines before it give the environment, the
report digest and the per-suite and per-structure times.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 11
# Share of each other workload's size that the probe of a traced run runs.
PROBE_SCALE = 0.03

# Runs in a fresh interpreter: what every `g2calc verify` pays before its
# first suite.
SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import g2calc
g2calc.standard_g2()
for n in (1, 2, 3):
    g2calc.standard_kahler(n)
g2calc.standard_su3()
print(repr(time.perf_counter() - start))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pointwise", "torus-box", "fresh-structures"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup() -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def _tree_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    for file in sorted(path.rglob("*.py")):
        digest.update(str(file.relative_to(path)).encode() + b"\0")
        digest.update(file.read_bytes())
    return digest.hexdigest()


def _blas_threads():
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _tree_sha256(SRC / "g2calc"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Gate:
    """Correctness of a run: every check passes, every verdict's bytes agree."""

    def __init__(self, reference):
        self.sha256 = reference.sha256
        self.attempted = self.failed = self.mismatches = 0
        self.add(reference)

    def add(self, verdict, compare: bool = True) -> None:
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        if compare and verdict.sha256 != self.sha256:
            self.mismatches += 1

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.mismatches == 0


def _metric(value: float, unit: str, samples: int | None = None) -> dict:
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def _timed(verdict):
    start = perf_counter()
    result = verdict()
    return result, perf_counter() - start


def run_untraced(verdict, gate, seconds, details):
    verdicts, times = [], []
    deadline = perf_counter() + seconds
    while not times or perf_counter() < deadline:
        result, elapsed = _timed(verdict)
        gate.add(result)
        verdicts.append(result)
        times.append(elapsed)
    details["verdict_s"] = _metric(statistics.median(times), "s", len(times))
    parts = {}
    for result in verdicts:
        for name, elapsed in result.parts.items():
            parts.setdefault(name, []).append(elapsed)
    for name, values in parts.items():
        details[f"suite_s.{name}"] = _metric(statistics.median(values), "s", len(values))
    items = [t for result in verdicts for t in result.items]
    if items:
        cuts = statistics.quantiles(items, n=100, method="inclusive")
        details["structure_ms_p50"] = _metric(cuts[49] * 1e3, "ms", len(items))
        details["structure_ms_p95"] = _metric(cuts[94] * 1e3, "ms", len(items))
    return times


def run_traced(args, verdict, gate, workloads, tracing):
    """Alternate untraced and traced verdicts, then trace the probe."""
    tracer = tracing.Tracer()
    untraced, traced, checks = [], [], 0
    deadline = perf_counter() + args.seconds
    while not traced or perf_counter() < deadline:
        result, elapsed = _timed(verdict)
        gate.add(result)
        untraced.append(elapsed)
        with tracer.active():
            result, elapsed = _timed(verdict)
        gate.add(result)
        traced.append(elapsed)
        checks += result.attempted if result.parts else 0
    run_stats, tracer.stats = tracer.stats, tracing.Stats()
    # The probe runs a small version of every other workload, so that code
    # this workload never enters still has a measured per-call time.
    for other in workloads.WORKLOADS:
        if other != args.workload:
            probe = workloads.make(other, args.seed, PROBE_SCALE)
            with tracer.active():
                gate.add(probe(), compare=False)
    values, from_probe = tracing.layer_metrics(run_stats, len(traced), tracer.stats)
    values["suites.checks"] = checks / len(traced)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    units = {name: unit for name, unit, _ in tracing.metric_specs()}
    metrics = {name: _metric(values[name], units[name]) for name in units}
    return metrics, {"traced_verdicts": len(traced), "untraced_verdicts": len(untraced),
                     "from_probe": from_probe}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "g2calc" / "__init__.py").is_file():
        print(f"error: no g2calc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    setup = [] if args.trace else measure_setup()

    sys.path[:0] = [str(SRC), str(HERE)]
    import g2calc
    if Path(g2calc.__file__).resolve().parent != SRC / "g2calc":
        print(f"error: imported g2calc from {g2calc.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    details = {"environment": environment(args)}
    verdict = workloads.make(args.workload, args.seed)
    first, first_s = _timed(verdict)
    gate = Gate(first)

    if args.trace:
        metrics, details["trace"] = run_traced(args, verdict, gate, workloads, tracing)
    else:
        times = run_untraced(verdict, gate, args.seconds, details)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "verdict_s": _metric(statistics.median(times), "s"),
            "peak_rss_mb": _metric(peak_mb, "MB"),
        }
        details["setup_s"] = _metric(statistics.median(setup), "s", len(setup))
        details["first_verdict_s"] = _metric(first_s, "s", 1)
        details["peak_rss_mb"] = _metric(peak_mb, "MB", 1)

    details["report_sha256"] = gate.sha256
    details["fail_ratio"] = {"value": gate.failed / gate.attempted, "unit": "ratio",
                             "failed": gate.failed, "attempted": gate.attempted}
    details["verdict"] = "PASS" if gate.correct else "FAIL"
    for name, entry in details.items():
        if isinstance(entry, dict) and "unit" in entry:
            count = f"  n={entry['samples']}" if "samples" in entry else ""
            print(f"{name:<22} {entry['value']:.6g} {entry['unit']}{count}", file=sys.stderr)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({"correct": gate.correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
