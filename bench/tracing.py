"""Spans around calls into g2calc's layers, recorded from outside the package.

A layer is one module of the package: forms, g2, ddt, dhym, product, torus
and suites (cli has no code of its own on the verdict path).  ``Tracer``
wraps every public function of each layer, the public methods, class
methods and properties of the classes it defines, and a few dunders that do
real work (``__post_init__`` validation and KForm arithmetic).  Each
module attribute that names a wrapped function is replaced, so calls
between modules pass through the wrappers as well.  ``active()`` installs
the wrappers and restores the originals on exit.

Spans are aggregated as they close rather than stored one by one: a
pointwise verdict opens about half a million spans.  For each span name the
tracer keeps every duration; for each layer it keeps self time, the span's
duration minus the part covered by child spans, so the layers' self times
partition the traced time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("forms", "g2", "ddt", "dhym", "product", "torus", "suites")
ARITHMETIC = ("__post_init__", "__add__", "__sub__", "__neg__", "__mul__",
              "__rmul__")

# Methods whose instance keeps a ``_cache`` dict: a call that grows it built
# a matrix, any other call was served from the cache.
CACHED = ("forms.LinearMap.pullback_matrix", "forms.Metric.gram_on_forms")

# Its durations are also kept per cutoff, the box size it sums over.
HARMONIC_DIM = "torus.harmonic_dim"


class Stats:
    """Aggregated spans of one phase of a run."""

    def __init__(self):
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.by_cutoff: dict[int, list[float]] = defaultdict(list)


class Tracer:
    def __init__(self):
        self.stats = Stats()
        self._stack: list[list] = []  # [layer, seconds covered by children]
        self._patches = self._plan()

    def _span(self, layer: str, name: str, fn):
        stack = self._stack
        by_cutoff = name == HARMONIC_DIM
        cached = name in CACHED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats = self.stats
            frame = [layer, 0.0]
            stack.append(frame)
            size = len(args[0]._cache) if cached else 0
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except ValueError:
                # Count an error once, where it leaves the layer.
                if len(stack) < 2 or stack[-2][0] != layer:
                    stats.counts[f"{layer}.errors"] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stats.durations[name].append(elapsed)
                stats.self_time[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if cached:
                    grew = len(args[0]._cache) > size
                    stats.counts[f"{name}.{'builds' if grew else 'hits'}"] += 1
                if by_cutoff:
                    cutoff = args[0] if args else kwargs["cutoff"]
                    stats.by_cutoff[cutoff].append(elapsed)

        return traced

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every patch to install."""
        patches = []
        functions = {}  # id of an original function -> its wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"g2calc.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    patches += self._class_patches(layer, obj)
                elif callable(obj):
                    functions[id(obj)] = (obj, self._span(layer, f"{layer}.{attr}", obj))
        modules = [m for n, m in sys.modules.items()
                   if n == "g2calc" or n.startswith("g2calc.")]
        for module in modules:
            for attr, obj in vars(module).items():
                if id(obj) in functions:
                    original, wrapper = functions[id(obj)]
                    if obj is original:
                        patches.append((module, attr, original, wrapper))
        return patches

    def _class_patches(self, layer: str, cls) -> list:
        patches = []
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                wrapper = self._span(layer, name, obj)
            elif isinstance(obj, (classmethod, staticmethod)):
                wrapper = type(obj)(self._span(layer, name, obj.__func__))
            elif isinstance(obj, property) and obj.fget is not None:
                wrapper = property(self._span(layer, name, obj.fget),
                                   obj.fset, obj.fdel, obj.__doc__)
            else:
                continue
            patches.append((cls, attr, obj, wrapper))
        return patches

    @contextmanager
    def active(self):
        """Trace every call into the layers made inside the block."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)


# Spans with per-call metrics: .calls, .us_p50 and .us_p99 under the same name.
CALLS = (
    "forms.wedge", "forms.pullback",
    "g2.g2_bundle", "g2.metric_from_three_form", "g2.identity_battery",
    "ddt.solution_report", "ddt.wedge_injectivity", "ddt.linearization_density",
    "dhym.dhym_report", "dhym.pq_project", "dhym.normal_form", "dhym.symbol_bound",
    "product.correspondence_check", "product.zero_phase_flux",
    "torus.adjoint_check",
)
# Count-only metrics: metric name -> span name.
COUNTS = {
    "forms.kform.count": "forms.KForm.__post_init__",
    "forms.hodge.calls": "forms.hodge",
    "forms.interior.calls": "forms.interior",
}
CUTOFFS = (1, 2, 3)


def box_modes(cutoff: int) -> int:
    """Modes one harmonic_dim call visits: the box twice, once per kernel count."""
    return 2 * (2 * cutoff + 1) ** 7


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    for span in CALLS:
        specs += [(f"{span}.calls", "count", "lower"),
                  (f"{span}.us_p50", "us", "lower"),
                  (f"{span}.us_p99", "us", "lower")]
    specs += [(name, "count", "lower") for name in COUNTS]
    specs += [
        ("forms.pullback_matrix.builds", "count", "lower"),
        ("forms.pullback_matrix.hit_ratio", "ratio", "higher"),
        ("forms.gram_on_forms.builds", "count", "lower"),
        ("ddt.errors", "count", "lower"),
    ]
    specs += [(f"torus.harmonic_dim.c{c}_s", "s", "lower") for c in CUTOFFS]
    specs += [
        ("torus.box_modes", "modes.computed", "higher"),
        ("torus.box_modes_per_s", "modes/s", "higher"),
        ("suites.checks", "count", "higher"),
        ("suites.emit_ms", "ms", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return specs


def _percentile_us(times: list[float], q: int) -> float:
    ordered = sorted(times)
    if len(ordered) == 1:
        return ordered[0] * 1e6
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1] * 1e6


def layer_metrics(run: Stats, verdicts: int, probe: Stats) -> tuple[dict, list[str]]:
    """Per-layer values from the traced verdicts of a run.

    Counts and self times are per verdict.  A time that has no sample in the
    verdicts, because the workload never enters that code, is taken from
    the probe instead; the names of those metrics are returned as well.
    """
    values: dict[str, float] = {}
    from_probe: list[str] = []

    def timed(metric: str, measure):
        value = measure(run, verdicts)
        if value is None:
            value = measure(probe, 1)
            from_probe.append(metric)
        values[metric] = 0.0 if value is None else value

    for layer in LAYERS:
        timed(f"{layer}.self_s",
              lambda s, n, layer=layer: s.self_time[layer] / n if s.self_time.get(layer) else None)
    for span in CALLS:
        values[f"{span}.calls"] = len(run.durations.get(span, ())) / verdicts
        for q in (50, 99):
            timed(f"{span}.us_p{q}",
                  lambda s, n, span=span, q=q:
                  _percentile_us(s.durations[span], q) if s.durations.get(span) else None)
    for metric, span in COUNTS.items():
        values[metric] = len(run.durations.get(span, ())) / verdicts

    builds = run.counts["forms.LinearMap.pullback_matrix.builds"]
    hits = run.counts["forms.LinearMap.pullback_matrix.hits"]
    values["forms.pullback_matrix.builds"] = builds / verdicts
    values["forms.pullback_matrix.hit_ratio"] = hits / (hits + builds) if hits + builds else 0.0
    values["forms.gram_on_forms.builds"] = run.counts["forms.Metric.gram_on_forms.builds"] / verdicts
    values["ddt.errors"] = run.counts["ddt.errors"] / verdicts

    for c in CUTOFFS:
        timed(f"torus.harmonic_dim.c{c}_s",
              lambda s, n, c=c: statistics.median(s.by_cutoff[c]) if s.by_cutoff.get(c) else None)
    values["torus.box_modes"] = sum(box_modes(c) * len(t) for c, t in run.by_cutoff.items()) / verdicts

    def modes_per_s(s, n):
        seconds = sum(sum(t) for t in s.by_cutoff.values())
        return sum(box_modes(c) * len(t) for c, t in s.by_cutoff.items()) / seconds if seconds else None

    timed("torus.box_modes_per_s", modes_per_s)
    timed("suites.emit_ms",
          lambda s, n: statistics.median(s.durations["suites.emit"]) * 1e3
          if s.durations.get("suites.emit") else None)
    return values, from_probe
