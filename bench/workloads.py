"""The benchmark's three workloads, driven through g2calc's public API.

Each workload turns a seed into a zero-argument verdict function.  Calling
it certifies the workload's inputs once and returns a ``Verdict``: the
report bytes, the number of checks attempted and failed, and wall times
for its parts.  The same seed always gives the same inputs, so repeated
verdicts of one run, and runs of one seed, must give identical bytes.

Module functions are looked up on their module at call time
(``g2.g2_bundle``, not an imported name), so the tracer in ``tracing`` can
wrap them without touching ``src/``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from g2calc import ddt, forms, g2, suites, torus

POINTWISE_SUITES = ("appendixA", "appendixB", "thmC1", "propD1", "corD2",
                    "dhym", "product")
TORUS_SUITES = ("torus",)
SAMPLES = 1000
STRUCTURES = 200

# Tolerances of the fresh-structures checks.  tol_rel is read from the
# package's own campaign default; the adjoint tolerance is the literal
# that the torus suite applies to the same check.
TOL_REL = suites.Campaign(seed=0).tol_rel
ADJOINT_TOL = 1e-10

# Stream id of the fresh-structures generator, kept apart from the suite ids
# (1..8) that campaigns combine with the seed.
FRESH_STREAM = 101


@dataclass
class Verdict:
    """One certification pass over a workload's inputs."""

    payload: bytes
    attempted: int
    failed: int
    parts: dict[str, float] = field(default_factory=dict)
    items: list[float] = field(default_factory=list)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.payload).hexdigest()


def suite_verdict(seed: int, names, samples: int = SAMPLES) -> Verdict:
    """Run each suite as its own campaign, then emit all reports once.

    A single-suite campaign reproduces the report the full campaign would
    give for that suite, so the bytes equal ``g2calc verify`` restricted
    to these suites.
    """
    reports, parts = [], {}
    for name in names:
        start = perf_counter()
        reports += suites.Campaign(seed, samples, suites=(name,)).run()
        parts[name] = perf_counter() - start
    payload = suites.emit(reports, "json")
    return Verdict(
        payload=payload,
        attempted=sum(r.passed + r.failed for r in reports),
        failed=sum(r.failed for r in reports),
        parts=parts,
    )


@dataclass(frozen=True)
class StructureInput:
    """Raw draws for one fresh structure and the checks made on it."""

    flux: np.ndarray        # 21 coefficients of the deforming 2-form
    vector: np.ndarray      # 7, for the contraction battery
    beta: np.ndarray        # 21, projected to the 14-part of the new structure
    two_form: np.ndarray    # 21, for the project2 / assemble2 round trip
    three_form: np.ndarray  # 35, for the project3 round trip
    test_flux: np.ndarray   # 21, for the residual type split
    mode: tuple[int, ...]   # torus mode for the adjoint check


def structure_inputs(seed: int, count: int) -> list[StructureInput]:
    rng = np.random.default_rng([seed, FRESH_STREAM])
    out = []
    for _ in range(count):
        scale = 10.0 ** rng.uniform(-1.5, -0.5)
        flux = scale * rng.standard_normal(21)
        vector = rng.standard_normal(7)
        beta = rng.standard_normal(21)
        two_form = rng.standard_normal(21)
        three_form = rng.standard_normal(35)
        test_flux = 10.0 ** rng.uniform(-1.0, 1.0) * rng.standard_normal(21)
        mode = tuple(int(v) for v in rng.integers(-4, 5, size=7))
        out.append(StructureInput(flux, vector, beta, two_form, three_form,
                                  test_flux, mode))
    return out


CHECKS = (
    ("contraction battery", TOL_REL),
    ("project2 round trip", TOL_REL),
    ("project3 round trip", TOL_REL),
    ("residual type split", TOL_REL),
    ("middle operator self-adjointness", ADJOINT_TOL),
)


def certify_structure(x: StructureInput) -> list[float]:
    """Build a fresh structure from x and return one residual per CHECKS entry."""
    base = g2.standard_g2()
    moved = forms.pullback(ddt.graph_map(forms.KForm(7, 2, x.flux), base),
                           base.phi)
    data = g2.g2_bundle(moved)

    beta = forms.KForm(7, 2, data.proj2_14 @ x.beta)
    battery = g2.identity_battery(x.vector, beta, data)

    f = forms.KForm(7, 2, x.two_form)
    back = g2.assemble2(g2.project2(f, data), data)
    two = forms.rel_residual(back.coeffs, f.coeffs)

    gamma = forms.KForm(7, 3, x.three_form)
    one, seven, twenty_seven = g2.project3(gamma, data)
    three = forms.rel_residual(one.coeffs + seven.coeffs + twenty_seven.coeffs,
                               gamma.coeffs)

    flux = forms.KForm(7, 2, x.test_flux)
    split = forms.rel_residual(ddt.ddt_residual_decomposed(flux, data).coeffs,
                               ddt.ddt_residual(flux, data).coeffs)

    adjoint = torus.adjoint_check(x.mode, data)
    return [float(r) for r in (battery, two, three, split, adjoint)]


def structures_verdict(inputs: list[StructureInput]) -> Verdict:
    """Certify every input on a structure built afresh, so no cache is warm."""
    rows, items, failed = [], [], 0
    for x in inputs:
        start = perf_counter()
        residuals = certify_structure(x)
        items.append(perf_counter() - start)
        # A NaN residual compares false and so counts as a failure.
        failed += sum(not r <= tol for r, (_, tol) in zip(residuals, CHECKS))
        rows.append(residuals)
    payload = (json.dumps({"checks": [label for label, _ in CHECKS],
                           "residuals": rows}) + "\n").encode()
    return Verdict(payload=payload, attempted=len(CHECKS) * len(inputs),
                   failed=failed, items=items)


def make(workload: str, seed: int, scale: float = 1.0):
    """The verdict function of a workload; scale < 1 shrinks its sample counts."""
    if workload == "pointwise":
        samples = max(1, round(SAMPLES * scale))
        return lambda: suite_verdict(seed, POINTWISE_SUITES, samples)
    if workload == "torus-box":
        samples = max(1, round(SAMPLES * scale))
        return lambda: suite_verdict(seed, TORUS_SUITES, samples)
    if workload == "fresh-structures":
        inputs = structure_inputs(seed, max(1, round(STRUCTURES * scale)))
        return lambda: structures_verdict(inputs)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("pointwise", "torus-box", "fresh-structures")
