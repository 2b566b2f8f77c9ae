"""Randomised verification campaigns with deterministic, serialisable reports.

Each suite re-certifies one family of claims on freshly drawn data.  A
campaign fixes the seed, the sample count and the tolerances; running the
same campaign twice produces byte-identical output.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from math import comb, isfinite, isnan, pi, sqrt
from typing import Callable, NamedTuple

import numpy as np

from . import ddt
from .ddt import (
    cartan_solve,
    cartan_two_form,
    cube_norm_bound,
    ddt_residual,
    ddt_residual_decomposed,
    graph_map,
    norm_bound_check,
    reformulation_residual,
    wedge_injectivity,
    _cartan_coeffs,
    _cartan_roots,
    _density_routes,
    _merged_roots,
    _solution_report,
)
from .dhym import (
    dhym_report,
    j_duality_residual,
    normal_form,
    standard_kahler,
    _rotation_generator,
    _symbol_routes,
    _unitary_rotations,
)
from .forms import (
    KForm,
    Metric,
    euclidean_metric,
    flat,
    form_inner,
    form_norm,
    hodge,
    interior,
    pullback,
    rel_residual,
    row_residual,
    wedge,
    _require_tolerance,
)
from .g2 import g2_bundle, identity_battery, standard_g2
from .product import correspondence_check, standard_su3, _zero_phase_draw, _zero_phase_fluxes
from .torus import adjoint_check, harmonic_dim, harmonic_dims

SUITE_IDS: dict[str, int] = {
    "appendixA": 1,
    "appendixB": 2,
    "thmC1": 3,
    "propD1": 4,
    "corD2": 5,
    "dhym": 6,
    "product": 7,
    "torus": 8,
}

MAX_WITNESSES = 5

# Rows per batched call.  Larger chunks spread each call's Python overhead
# over more rows: at 1000 samples on a 2-core Xeon the seven pointwise
# suites took 385 ms at 32 rows and 218 ms at 256 (dhym 82 and 43 ms).  The
# chunk no longer bounds memory: forms._contract, whose tensors are most of
# a chunk's, works through any batch in blocks of forms._CONTRACT_ENTRIES.
CHUNK_ROWS = 256


def _strict(value):
    """Replace non-finite floats by "NaN", "Infinity" and "-Infinity"."""
    if isinstance(value, float) and not isfinite(value):
        return "NaN" if isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


class _Column(NamedTuple):
    """One per-row check of a table: residuals against a tolerance, or outcomes.

    ``values`` holds a residual per row, or, when ``tol`` is None, the
    outcome of an expectation per row.  ``where`` marks the rows the check
    applies to (all of them when None); other rows' values are not read.
    ``info(row)`` gives the witness fields of a row; it runs only for the
    failing rows that become witnesses.
    """

    label: str
    values: np.ndarray
    tol: float | None
    info: Callable[[int], dict]
    where: np.ndarray | None = None


def _plain(value):
    if isinstance(value, KForm):
        return value.to_dict()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


@dataclass(frozen=True)
class Report:
    """Outcome of one suite: counts, the worst residual seen, failure data."""

    suite: str
    passed: int
    failed: int
    worst_residual: float
    witnesses: tuple[dict, ...]
    details: dict

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "failed": self.failed,
            "worst_residual": self.worst_residual,
            "witnesses": [dict(w) for w in self.witnesses],
            "details": dict(self.details),
        }


class _Recorder:
    """Accumulates check outcomes for one suite."""

    def __init__(self, suite: str):
        self.suite = suite
        self.passed = 0
        self.failed = 0
        self.worst = 0.0
        self.witnesses: list[dict] = []
        self.details: dict = {}

    def _fail(self, entry: dict) -> None:
        self.failed += 1
        if len(self.witnesses) < MAX_WITNESSES:
            self.witnesses.append({k: _plain(v) for k, v in entry.items()})

    def check(self, label: str, residual: float, tol: float, **info) -> None:
        # A non-finite residual always fails, and the first one stays the worst.
        residual = float(residual)
        finite = isfinite(residual)
        if isfinite(self.worst) and (not finite or residual > self.worst):
            self.worst = residual
        if finite and residual <= tol:
            self.passed += 1
        else:
            self._fail({"check": label, "residual": residual, "tolerance": tol, **info})

    def expect(self, label: str, ok: bool, **info) -> None:
        if ok:
            self.passed += 1
        else:
            self._fail({"check": label, **info})

    def columns(self, table: list[_Column]) -> None:
        """Record a table of per-row checks, in (row, check) order.

        The counts, the worst residual and the witnesses are those of check()
        and expect() called row by row, and within a row check by check.
        """
        rows = len(table[0].values)
        applies = np.stack([np.ones(rows, dtype=bool) if c.where is None else c.where
                            for c in table], axis=1)
        ok = np.stack([c.values.astype(bool) if c.tol is None
                       else np.isfinite(c.values) & (c.values <= c.tol)
                       for c in table], axis=1)
        measured = [i for i, c in enumerate(table) if c.tol is not None]
        if measured and isfinite(self.worst):
            residuals = np.stack([table[i].values for i in measured], axis=1).astype(float)
            live = applies[:, measured]
            # The first non-finite residual in (row, check) order stays the worst.
            bad = live & ~np.isfinite(residuals)
            if bad.any():
                self.worst = float(residuals.flat[np.argmax(bad)])
            elif live.any():
                self.worst = max(self.worst, float(residuals[live].max()))
        self.passed += int(np.count_nonzero(applies & ok))
        failing = applies & ~ok
        self.failed += int(np.count_nonzero(failing))
        for row, col in zip(*np.nonzero(failing)):
            if len(self.witnesses) >= MAX_WITNESSES:
                break
            c, row = table[col], int(row)
            entry = {"check": c.label}
            if c.tol is not None:
                entry.update(residual=float(c.values[row]), tolerance=c.tol)
            entry.update(c.info(row))
            self.witnesses.append({k: _plain(v) for k, v in entry.items()})

    def report(self) -> Report:
        return Report(
            suite=self.suite,
            passed=self.passed,
            failed=self.failed,
            worst_residual=self.worst,
            witnesses=tuple(self.witnesses),
            details=self.details,
        )


def _batched(evaluate, rows) -> dict[str, np.ndarray]:
    """evaluate(sample indices) on CHUNK_ROWS rows at a time; its per-row arrays, joined."""
    rows = np.asarray(rows, dtype=np.intp)
    parts = [evaluate(rows[lo:lo + CHUNK_ROWS]) for lo in range(0, len(rows), CHUNK_ROWS)]
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


def _random_gram(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a @ a.T + 0.5 * np.eye(n)


def _two_form_draw(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return scale * rng.standard_normal(comb(n, 2))


def _zero_sum_weights(rng: np.random.Generator):
    l1, l2 = rng.uniform(-3.0, 3.0, size=2)
    return float(l1), float(l2), float(-l1 - l2)


def _run_appendix_a(campaign: Campaign, rng: np.random.Generator) -> Report:
    rec = _Recorder("appendixA")
    dims = (6, 7, 8)
    draws = []
    for i in range(campaign.samples):
        n = dims[i % 3]
        gram = _random_gram(rng, n) if i % 3 == 0 else None
        k = int(rng.integers(0, n + 1))
        a = rng.standard_normal(comb(n, k))
        b = rng.standard_normal(comb(n, k))
        draws.append((n, k, gram, a, b, rng.standard_normal(n)))

    groups: dict[tuple[int, int], list[int]] = {}
    for i, (n, k, *_) in enumerate(draws):
        groups.setdefault((n, k), []).append(i)
    labels = ("double star sign", "star isometry", "contraction of star", "star of contraction")
    residuals = {label: np.full(campaign.samples, np.nan) for label in labels}
    for rows in groups.values():
        for label, values in _batched(lambda idx: _appendix_a_rows(draws, idx), rows).items():
            residuals[label][rows] = values

    def form(i):
        n, k, _, a, *_ = draws[i]
        return {"sample": i, "dim": n, "grade": k, "form": KForm(n, k, a)}

    def form_and_vector(i):
        return {**form(i), "vector": draws[i][5]}

    tol = campaign.tol_rel
    rec.columns([
        _Column("double star sign", residuals["double star sign"], tol, form),
        _Column("star isometry", residuals["star isometry"], tol, form),
        _Column("contraction of star", residuals["contraction of star"], tol, form_and_vector),
        _Column("star of contraction", residuals["star of contraction"], tol, form_and_vector,
                np.array([k >= 1 for _, k, *_ in draws])),
    ])
    rec.details = {"dimensions": list(dims), "trials": campaign.samples}
    return rec.report()


def _appendix_a_rows(draws: list, idx: np.ndarray) -> dict[str, np.ndarray]:
    """The star and contraction residuals of draws[idx], which share (n, k)."""
    n, k, gram, *_ = draws[idx[0]]
    # The chunk's stacked Metric checks its random Gram matrices (n = 6).
    m = euclidean_metric(n) if gram is None else Metric(n, np.stack([draws[i][2] for i in idx]))
    a, b, v = (np.stack([draws[i][col] for i in idx]) for col in (3, 4, 5))
    a, b = KForm(n, k, a), KForm(n, k, b)
    vb = flat(v, m)
    star_a = hodge(a, m)
    inner = form_inner(a, b, m)
    lhs = interior(v, star_a)
    rhs = ((-1) ** k) * hodge(wedge(vb, a), m)
    out = {
        "double star sign": row_residual(hodge(star_a, m).coeffs,
                                         ((-1) ** (k * (n - k))) * a.coeffs),
        "star isometry": np.abs(form_inner(star_a, hodge(b, m), m) - inner)
        / np.maximum(1.0, np.abs(inner)),
        "contraction of star": row_residual(lhs.coeffs, rhs.coeffs),
    }
    if k >= 1:
        lhs = hodge(interior(v, a), m)
        rhs = ((-1) ** (k + 1)) * wedge(vb, star_a)
        out["star of contraction"] = row_residual(lhs.coeffs, rhs.coeffs)
    return out


def _run_appendix_b(campaign: Campaign, rng: np.random.Generator) -> Report:
    rec = _Recorder("appendixB")
    data = standard_g2()

    traces = (
        ("two-form 7-part trace", data.proj2_7, 7.0),
        ("two-form 14-part trace", data.proj2_14, 14.0),
        ("three-form 1-part trace", data.proj3_1, 1.0),
        ("three-form 7-part trace", data.proj3_7, 7.0),
        ("three-form 27-part trace", data.proj3_27, 27.0),
    )
    for label, mat, expected in traces:
        rec.check(label, abs(float(np.trace(mat)) - expected), campaign.tol_rel)
    pair_sums = (
        ("two-form projectors resolve identity",
         data.proj2_7 + data.proj2_14, np.eye(21)),
        ("three-form projectors resolve identity",
         data.proj3_1 + data.proj3_7 + data.proj3_27, np.eye(35)),
    )
    for label, total, expected in pair_sums:
        rec.check(label, rel_residual(total, expected), campaign.tol_rel)
    for label, mat in (("7-part idempotent", data.proj2_7),
                       ("14-part idempotent", data.proj2_14)):
        rec.check(label, rel_residual(mat @ mat, mat), campaign.tol_rel)
    rec.check(
        "projectors annihilate each other",
        float(np.abs(data.proj2_7 @ data.proj2_14).max()),
        campaign.tol_rel,
    )
    rec.check(
        "structure form has norm seven",
        abs(form_inner(data.phi, data.phi, data.metric) - 7.0),
        campaign.tol_rel,
    )

    flux = KForm.monomial(7, (1, 2)) - KForm.monomial(7, (3, 4))
    rank, cube = wedge_injectivity(flux, data)
    rec.expect("degenerate flux drops rank", rank <= 20 and cube == 0.0,
               rank=rank, cube_norm=cube)
    witness = KForm.monomial(7, (1, 3)) + KForm.monomial(7, (2, 4))
    rec.expect("kernel witness wedges to zero",
               not np.any(wedge(flux, witness).coeffs))
    rec.details["degenerate_rank"] = int(rank)

    vectors = np.empty((campaign.samples, 7))
    betas = np.empty((campaign.samples, 21))
    for i in range(campaign.samples):
        vectors[i] = rng.standard_normal(7)
        betas[i] = data.proj2_14 @ rng.standard_normal(21)
    battery = _batched(
        lambda idx: {"battery": identity_battery(vectors[idx], KForm(7, 2, betas[idx]), data)},
        range(campaign.samples),
    )["battery"]
    rec.columns([_Column(
        "contraction battery", battery, campaign.tol_rel,
        lambda i: {"sample": i, "vector": vectors[i], "form": KForm(7, 2, betas[i])})])
    rec.details["battery_trials"] = campaign.samples
    return rec.report()


def _cartan_families(campaign: Campaign, rng: np.random.Generator, extra):
    """Draw families of Cartan solutions, with one extra() row after each family's weights.

    Returns the solutions' coefficients stacked, each family's range of rows
    in them, and the extra rows stacked.  The roots of all families are
    solved at once after the draws.
    """
    weights, extras = [], []
    for _ in range(max(67, campaign.samples // 5)):
        weights.append(_zero_sum_weights(rng))
        extras.append(extra())
    weights = np.array(weights)
    roots = [_merged_roots(row) for row in _cartan_roots(weights)]
    sizes = [len(r) for r in roots]
    families = [range(end - size, end) for size, end in zip(sizes, np.cumsum(sizes).tolist())]
    fluxes = _cartan_coeffs(np.concatenate(roots), np.repeat(weights, sizes, axis=0))
    return fluxes, families, np.array(extras)


def _family_of(families) -> list[int]:
    """The index of each row's family, for families given as ranges of rows."""
    return [i for i, rows in enumerate(families) for _ in rows]


def _run_thm_c1(campaign: Campaign, rng: np.random.Generator) -> Report:
    rec = _Recorder("thmC1")
    data = standard_g2()
    fluxes, families, directions = _cartan_families(
        campaign, rng, lambda: _two_form_draw(rng, 7))
    # Each solution's density is taken along its family's direction.
    directions = np.repeat(directions, [len(family) for family in families], axis=0)

    def evaluate(idx):
        f = KForm(7, 2, fluxes[idx])
        rep = _solution_report(f, data)
        _, density = _density_routes(rep.scalar_factor, rep.dual_target, rep.tilde_star,
                                     KForm(7, 2, directions[idx]))
        scale = np.maximum(1.0, np.power(form_norm(f, data.metric), 3))
        return {"solve": rep.residual_norm / scale, "deviation": rep.lhs_minus_rhs_norm,
                "conformal": rep.conformal_residual, "factor": rep.scalar_factor,
                "sign": rep.sign_C, "density": density}

    sol = _batched(evaluate, range(len(fluxes)))
    family = _family_of(families)

    def solution(j, **values):
        return {"sample": family[j], **values, "flux": KForm(7, 2, fluxes[j])}

    tol = campaign.tol_identity
    rec.columns([
        _Column("Cartan flux solves the equation", sol["solve"], ddt.SOLUTION_TOL, solution),
        _Column("transport agrees with algebraic dual", sol["deviation"], tol, solution),
        _Column("conformal normalisation is a structure", sol["conformal"], tol, solution),
        _Column("factor stays away from zero", np.abs(sol["factor"]) > 1e-6, None,
                lambda j: solution(j, factor=sol["factor"][j])),
        _Column("orientation sign matches factor",
                sol["sign"] == np.where(sol["factor"] > 0, 1, -1), None,
                lambda j: solution(j, factor=sol["factor"][j], sign=sol["sign"][j])),
        _Column("linearised density routes agree", sol["density"], tol,
                lambda j: {**solution(j), "form": KForm(7, 2, directions[j])}),
    ])
    rec.details = {"solutions_certified": len(fluxes), "families": len(families)}
    return rec.report()


def _run_prop_d1(campaign: Campaign, rng: np.random.Generator) -> Report:
    rec = _Recorder("propD1")
    data = standard_g2()
    scales = np.empty(campaign.samples)
    fluxes = np.empty((campaign.samples, 21))
    for i in range(campaign.samples):
        scales[i] = float(10.0 ** rng.uniform(-1.0, 1.0))
        fluxes[i] = _two_form_draw(rng, 7, scales[i])

    def evaluate(idx):
        f = KForm(7, 2, fluxes[idx])
        split = ddt_residual_decomposed(f, data)
        return {"split": row_residual(split.coeffs, ddt_residual(f, data).coeffs)}

    split = _batched(evaluate, range(campaign.samples))["split"]
    rec.columns([_Column(
        "type split reassembles the residual", split, campaign.tol_rel,
        lambda i: {"sample": i, "scale": scales[i], "flux": KForm(7, 2, fluxes[i])})])
    rec.details = {"fluxes_checked": campaign.samples}
    return rec.report()


def _run_cor_d2(campaign: Campaign, rng: np.random.Generator) -> Report:
    rec = _Recorder("corD2")
    data = standard_g2()

    roots = np.sort(cartan_solve(0.0, 0.0, 0.0))
    rec.check("pure contraction roots",
              rel_residual(roots, np.array([-sqrt(3.0), 0.0, sqrt(3.0)])),
              campaign.tol_rel)
    extremal = cartan_two_form(sqrt(3.0), (0.0, 0.0, 0.0))
    lhs, rhs, ok = norm_bound_check(extremal, data)
    rec.expect("bound saturates on the extremal solution",
               ok and abs(lhs - 3.0) < campaign.tol_identity
               and abs(rhs - 3.0) < campaign.tol_identity,
               lhs=lhs, rhs=rhs)

    fluxes, families, betas = _cartan_families(
        campaign, rng, lambda: data.proj2_14 @ rng.standard_normal(21))
    draws = len(families)

    def per_solution(idx):
        f = KForm(7, 2, fluxes[idx])
        lhs, rhs, ok = norm_bound_check(f, data)
        rank, cube = wedge_injectivity(f, data)
        scale = np.maximum(1.0, form_norm(f, data.metric) ** 3)
        return {"lhs": lhs, "rhs": rhs, "ok": ok, "rank": rank, "cube": cube,
                "reformulation": reformulation_residual(f, data) / scale}

    def per_family(idx):
        lhs, rhs = cube_norm_bound(KForm(7, 2, betas[idx]), data)
        return {"lhs": lhs, "rhs": rhs}

    sol = _batched(per_solution, range(len(fluxes)))
    fam = _batched(per_family, range(draws))
    family = _family_of(families)
    # Each family's cube bound is recorded after its solutions, on its last row.
    last = np.zeros(len(fluxes), dtype=bool)
    last[[rows[-1] for rows in families]] = True
    cube_ok = fam["lhs"] <= fam["rhs"] * (1.0 + campaign.tol_rel) + 1e-12

    def solution(j, **values):
        return {"sample": family[j], **values, "flux": KForm(7, 2, fluxes[j])}

    def cube(j):
        i = family[j]
        return {"sample": i, "lhs": fam["lhs"][i], "rhs": fam["rhs"][i],
                "form": KForm(7, 2, betas[i])}

    rec.columns([
        _Column("7-part bound holds on solutions", sol["ok"], None,
                lambda j: solution(j, lhs=sol["lhs"][j], rhs=sol["rhs"][j])),
        _Column("wedge map has full rank", sol["rank"] == 21, None,
                lambda j: solution(j, rank=sol["rank"][j], cube_norm=sol["cube"][j]),
                sol["cube"] > campaign.tol_identity),
        _Column("first-order reformulation vanishes", sol["reformulation"],
                campaign.tol_identity, solution),
        _Column("14-part cube bound", cube_ok[family], None, cube, last),
    ])
    rec.details = {"solutions_checked": len(fluxes), "families": draws}
    return rec.report()


def _run_dhym(campaign: Campaign, rng: np.random.Generator) -> Report:
    rec = _Recorder("dhym")
    point2 = standard_kahler(2)
    golden = dhym_report(point2, point2.omega)
    rec.check("fundamental form radius",
              abs(golden.r - 2.0), campaign.tol_rel)
    rec.check("fundamental form angle",
              abs(golden.theta - pi / 2.0), campaign.tol_rel)

    draws = []
    for i in range(campaign.samples):
        n = (1, 2, 3)[i % 3]
        f = _two_form_draw(rng, 2 * n)
        xi = rng.standard_normal(2 * n)
        generator = _rotation_generator(rng, n) if n >= 2 else None
        draws.append((n, f, xi, generator))

    groups: dict[int, list[int]] = {}
    for i, (n, *_) in enumerate(draws):
        groups.setdefault(n, []).append(i)
    # Sample i is row where[i] of its group's results.
    where = {i: j for rows in groups.values() for j, i in enumerate(rows)}
    results = {
        n: _batched(lambda idx: _dhym_rows(draws, rows, idx), range(len(rows)))
        for n, rows in groups.items()
    }
    # The per-sample values in sample order; rotation is NaN where n = 1.
    col = {}
    for key in ("im", "vol", "lower", "r", "sigma", "floor", "routes", "duality", "rotation"):
        col[key] = np.full(campaign.samples, np.nan)
        for n, rows in groups.items():
            if key in results[n]:
                col[key][rows] = results[n][key]

    def drawn(i, **values):
        n = draws[i][0]
        return {"sample": i, "n": n, **values, "form": KForm(2 * n, 2, draws[i][1])}

    def symbol(i, form=True, covector=True, **values):
        # The invariant part f11 is the form of the symbol and rotation checks.
        n, _, xi, _ = draws[i]
        out = {"sample": i, "n": n, **values}
        if form:
            out["form"] = KForm(2 * n, 2, results[n]["f11"][where[i]])
        if covector:
            out["covector"] = KForm(2 * n, 1, xi)
        return out

    tol, tol_identity = campaign.tol_rel, campaign.tol_identity
    rec.columns([
        _Column("rotated top power is real", col["im"], tol, drawn),
        _Column("volume ratio identity", col["vol"], tol, drawn),
        _Column("lower power reproduction", col["lower"], tol, drawn),
        _Column("radius at least one", col["r"] >= 1.0 - tol, None,
                lambda i: drawn(i, r=col["r"][i])),
        _Column("symbol routes agree", col["routes"], tol_identity, symbol),
        _Column("symbol dominates its floor", col["sigma"] >= col["floor"] - tol, None,
                lambda i: symbol(i, sigma=col["sigma"][i], floor=col["floor"][i])),
        _Column("duality against the complex structure", col["duality"], tol,
                lambda i: symbol(i, form=False)),
        _Column("eigenvalues invariant under rotation", col["rotation"], tol_identity,
                lambda i: symbol(i, covector=False), np.array([d[0] >= 2 for d in draws])),
    ])
    rec.details = {"complex_dimensions": [1, 2, 3]}
    return rec.report()


def _dhym_rows(draws: list, rows: list, idx: np.ndarray) -> dict:
    """dhym's per-sample quantities for draws[rows[j]], j in idx, which share n."""
    picked = [draws[rows[j]] for j in idx]
    n = picked[0][0]
    point = standard_kahler(n)
    f = KForm(2 * n, 2, np.stack([d[1] for d in picked]))
    xi = KForm(2 * n, 1, np.stack([d[2] for d in picked]))
    rep = dhym_report(point, f)
    nf = rep.normal
    sigma, floor, routes = _symbol_routes(point, nf, xi)
    out = {"im": rep.im_residual, "vol": rep.vol_identity_residual,
           "lower": rep.im_identity_residual, "r": rep.r,
           "f11": rep.f11.coeffs, "sigma": sigma, "floor": floor, "routes": routes,
           "duality": j_duality_residual(point, xi)}
    if n >= 2:
        rotations = _unitary_rotations(point, np.stack([d[3] for d in picked]))
        rotated = normal_form(point, pullback(rotations, rep.f11))
        out["rotation"] = row_residual(np.sort(rotated.lambdas), np.sort(nf.lambdas))
    return out


def _run_product(campaign: Campaign, rng: np.random.Generator) -> Report:
    rec = _Recorder("product")
    su3 = standard_su3()
    fluxes = np.empty((campaign.samples, 15))
    pairs, generators = [], []
    for i in range(campaign.samples):
        branch = i % 3
        if branch == 0:
            pair, generator = _zero_phase_draw(rng, su3)
            pairs.append(pair)
            generators.append(generator)
        else:
            fluxes[i] = _two_form_draw(rng, 6, 1.5 if branch == 1 else 0.3)
    pairs, generators = np.array(pairs), np.array(generators)
    fluxes[0::3] = _batched(
        lambda idx: {"flux": _zero_phase_fluxes(su3, pairs[idx], generators[idx]).coeffs},
        range(len(pairs)),
    )["flux"]
    reports = _batched(
        lambda idx: correspondence_check(su3, KForm(6, 2, fluxes[idx]),
                                         tol=campaign.tol_identity).to_dict(),
        range(campaign.samples),
    )
    branch = np.arange(campaign.samples) % 3
    both = reports["ddt_solves"] & reports["su3_solves"]
    solved_both = int(np.count_nonzero(both))
    solved_neither = int(np.count_nonzero(~reports["ddt_solves"] & ~reports["su3_solves"]))

    def report(i):
        return {key: values[i] for key, values in reports.items()}

    rec.columns([
        _Column("classifications agree", reports["agree"], None,
                lambda i: {"sample": i, "branch": i % 3, "flux": KForm(6, 2, fluxes[i]),
                           **report(i)}),
        _Column("engineered flux solves both sides", both, None,
                lambda i: {"sample": i, "flux": KForm(6, 2, fluxes[i]), **report(i)},
                branch == 0),
    ])
    rec.details = {"solved_both": solved_both, "solved_neither": solved_neither}
    return rec.report()


def _run_torus(campaign: Campaign, rng: np.random.Generator) -> Report:
    rec = _Recorder("torus")
    summaries = harmonic_dims(3)
    for summary in summaries[1:]:
        rec.expect(
            f"dimension counts at cutoff {summary.cutoff}",
            (summary.dim_check_H1, summary.dim_H2, summary.b1) == (7, 0, 7),
            **summary.to_dict(),
        )
    rec.details.update(summaries[-1].to_dict())

    rescaled = harmonic_dim(1, c=-2.0)
    rec.expect("counts ignore the coupling scale",
               (rescaled.dim_check_H1, rescaled.dim_H2, rescaled.b1) == (7, 0, 7),
               **rescaled.to_dict())

    perturbation = KForm(7, 2, 0.1 * rng.standard_normal(21))
    base = standard_g2()
    moved = g2_bundle(pullback(graph_map(perturbation, base), base.phi))
    perturbed = harmonic_dim(1, moved)
    rec.expect("counts survive a structure perturbation",
               (perturbed.dim_check_H1, perturbed.dim_H2, perturbed.b1)
               == (7, 0, 7),
               **perturbed.to_dict())

    modes = min(campaign.samples, 100)
    # Row by row these are the draws of seven integers at a time, so the modes do not depend on batching.
    flat = rng.integers(-4, 5, size=(modes, 7))
    tilted = rng.integers(-4, 5, size=(10, 7))
    for label, drawn, data in (("middle operator self-adjointness", flat, None),
                               ("self-adjointness on the perturbed structure", tilted, moved)):
        for i, (k, residual) in enumerate(zip(drawn.tolist(), adjoint_check(drawn, data))):
            rec.check(label, residual, 1e-10, sample=i, mode=k)
    rec.details["modes_checked"] = modes + 10
    return rec.report()


_RUNNERS = {
    "appendixA": _run_appendix_a,
    "appendixB": _run_appendix_b,
    "thmC1": _run_thm_c1,
    "propD1": _run_prop_d1,
    "corD2": _run_cor_d2,
    "dhym": _run_dhym,
    "product": _run_product,
    "torus": _run_torus,
}


@dataclass(frozen=True)
class Campaign:
    """A reproducible run plan: seed, sample counts, tolerances, suite list.

    Suites always execute in canonical order with per-suite generators
    seeded from (seed, suite id), so a subset run reproduces exactly the
    reports the full run would have produced for those suites.
    """

    seed: int
    samples: int = 1000
    tol_rel: float = 1e-9
    tol_identity: float = 1e-8
    suites: tuple[str, ...] = tuple(SUITE_IDS)

    def __post_init__(self):
        if isinstance(self.suites, str):
            raise ValueError(f"suites must be a list of names, not the string {self.suites!r}")
        try:
            names = tuple(self.suites)
        except TypeError:
            raise ValueError(f"suites must be a list of names, got {self.suites!r}") from None
        if not names:
            raise ValueError("suites must name at least one suite")
        for name in names:
            if not isinstance(name, str):
                raise ValueError(f"suites must be a list of names, got {name!r} in it")
        unknown = sorted(set(names) - set(SUITE_IDS))
        if unknown:
            raise ValueError(
                f"unknown suites: {', '.join(unknown)}; "
                f"valid names are {', '.join(SUITE_IDS)}"
            )
        for name in ("seed", "samples"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.samples < 1:
            raise ValueError("samples must be positive")
        for name in ("tol_rel", "tol_identity"):
            _require_tolerance(name, getattr(self, name))
        ordered = tuple(sorted(set(names), key=SUITE_IDS.__getitem__))
        object.__setattr__(self, "suites", ordered)

    def run_suite(self, name: str) -> Report:
        """The report of one suite, the same whether or not run() runs it."""
        if name not in SUITE_IDS:
            raise ValueError(f"unknown suite {name!r}; valid names are {', '.join(SUITE_IDS)}")
        return _RUNNERS[name](self, np.random.default_rng([self.seed, SUITE_IDS[name]]))

    def run(self) -> list[Report]:
        return [self.run_suite(name) for name in self.suites]


def all_passed(reports) -> bool:
    return all(r.failed == 0 for r in reports)


def emit(reports, fmt: str = "json", campaign: Campaign | None = None) -> bytes:
    """Serialise reports; identical inputs give identical bytes.

    The json payload is the array of report objects; non-finite floats are
    written as "NaN", "Infinity" and "-Infinity", so it is strict JSON.
    The text rendering prepends a campaign header when one is supplied.
    """
    if fmt == "json":
        payload = _strict([r.to_dict() for r in reports])
        return (json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()
    if fmt == "text":
        lines = []
        if campaign is not None:
            lines.append(
                f"campaign seed={campaign.seed} samples={campaign.samples} "
                f"tol_rel={campaign.tol_rel:g} tol_identity={campaign.tol_identity:g}"
            )
        for rep in reports:
            lines.append(
                f"suite {rep.suite}: passed={rep.passed} failed={rep.failed} "
                f"worst={rep.worst_residual:.3e}"
            )
            for witness in rep.witnesses:
                strict = json.dumps(_strict(witness), sort_keys=True, allow_nan=False)
                lines.append(f"  witness {strict}")
        status = "PASS" if all_passed(reports) else "FAIL"
        lines.append(f"overall: {status}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}; use 'json' or 'text'")
