"""Independent oracles shared by the test modules.

Everything here works straight from definitions (multilinear evaluation,
shuffle sums, explicit sign counts) so library results can be checked
against a second, unrelated code path.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import itertools
import os
import sys
from functools import cached_property
from math import comb, pi, sqrt
from pathlib import Path

import numpy as np
import scipy.linalg

import g2calc
import g2calc.ddt as ddt_module
import g2calc.dhym as dhym_module
from g2calc import cli, torus
from g2calc.ddt import (
    SOLUTION_TOL,
    cartan_solve,
    cartan_two_form,
    cube_norm_bound,
    ddt_residual,
    ddt_residual_decomposed,
    norm_bound_check,
    reformulation_residual,
    solution_report,
    wedge_injectivity,
)
from g2calc.dhym import (
    HermitianPoint,
    NormalForm,
    dhym_report,
    j_duality_residual,
    normal_form,
    radius_angle,
    standard_kahler,
)
from g2calc.forms import (
    KForm,
    LinearMap,
    Metric,
    euclidean_metric,
    flat,
    form_inner,
    form_norm,
    hodge,
    interior,
    multi_indices,
    pullback,
    rel_residual,
    sharp2,
    wedge,
)
from g2calc.g2 import G2Data, _from_monomials, _or_standard, identity_battery, standard_g2
from g2calc.product import correspondence_check, standard_su3, zero_phase_flux
from g2calc.suites import (
    Campaign,
    Report,
    _Recorder,
    _random_gram,
    _two_form_draw,
    _zero_sum_weights,
)

STAR_PHI_MONOMIALS = (
    ((3, 4, 5, 6), 1.0),
    ((1, 2, 5, 6), 1.0),
    ((1, 2, 3, 4), 1.0),
    ((0, 2, 4, 6), 1.0),
    ((0, 2, 3, 5), -1.0),
    ((0, 1, 4, 5), -1.0),
    ((0, 1, 3, 6), -1.0),
)


def package_env() -> dict[str, str]:
    """The environment for a child interpreter that imports the g2calc the tests import."""
    path = [str(Path(g2calc.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def public_methods(cls) -> dict[str, object]:
    """The functions behind a class's public methods, classmethods and properties, by name."""
    found = {}
    for name, attr in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(attr, (classmethod, staticmethod)):
            attr = attr.__func__
        elif isinstance(attr, property):
            attr = attr.fget
        elif isinstance(attr, cached_property):
            attr = attr.func
        if inspect.isfunction(attr):
            found[f"{cls.__name__}.{name}"] = attr
    return found


def unreached_exports(argv: list[str]) -> tuple[int, list[str]]:
    """cli.main(argv)'s exit status, and the exported functions and methods it never calls.

    The methods are the public methods, classmethods and properties of the
    exported classes, named "Class.method".  A function counts as called
    when its frame is entered, an lru_cache'd one when its cache is
    consulted: a warm cache answers without a frame.  The verdict written
    to stdout is dropped.
    """
    exports = {name: getattr(g2calc, name) for name in g2calc.__all__}
    cached = {name: f for name, f in exports.items() if hasattr(f, "cache_info")}
    plain = {f.__code__: name for name, f in exports.items() if inspect.isfunction(f)}
    for cls in filter(inspect.isclass, exports.values()):
        plain.update((f.__code__, name) for name, f in public_methods(cls).items())

    def consulted(f):
        info = f.cache_info()
        return info.hits + info.misses

    before = {name: consulted(f) for name, f in cached.items()}
    reached = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in plain:
            reached.add(plain[frame.f_code])

    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):
            status = cli.main(argv)
    finally:
        sys.setprofile(None)
    reached |= {name for name, f in cached.items() if consulted(f) > before[name]}
    return status, sorted((set(plain.values()) | set(cached)) - reached)


def evaluate(form: KForm, vectors) -> float | complex:
    """Evaluate a k-form on k vectors from the determinant definition."""
    if form.grade == 0:
        return form.coeffs[0]
    X = np.column_stack([np.asarray(v, dtype=float) for v in vectors])
    total = 0.0 * form.coeffs[0]
    for pos, idx in enumerate(multi_indices(form.dim, form.grade)):
        total += form.coeffs[pos] * np.linalg.det(X[list(idx), :])
    return total


def evaluate_wedge(a: KForm, b: KForm, vectors) -> float | complex:
    """(a ^ b)(x_1, ..., x_{k+l}) via the shuffle sum, independent of wedge()."""
    k, l = a.grade, b.grade
    total = 0.0
    for left in itertools.combinations(range(k + l), k):
        right = tuple(i for i in range(k + l) if i not in left)
        sign = 1
        for p in left:
            sign *= (-1) ** sum(1 for q in right if q < p)
        total += sign * evaluate(a, [vectors[i] for i in left]) * evaluate(
            b, [vectors[i] for i in right]
        )
    return total


def kernel_total(tensor: np.ndarray, cutoff: int) -> int:
    """The sum of torus._kernel_shells over the box of the cutoff."""
    return int(torus._kernel_shells(tensor, cutoff).sum())


def cartan_solutions(l1: float, l2: float, l3: float) -> list[KForm]:
    """All diagonal solutions with the given zero-sum 14-part weights."""
    return [cartan_two_form(x, (l1, l2, l3)) for x in cartan_solve(l1, l2, l3)]


def dx_split(a: KForm) -> tuple[KForm, KForm]:
    """(low, high) with a = dx ^ lift(low) + lift(high), read coefficient by coefficient."""
    def part(head, k):
        return np.array([a.coefficient(head + tuple(i + 1 for i in idx))
                         for idx in multi_indices(6, k)])
    return KForm(6, a.grade - 1, part((0,), a.grade - 1)), KForm(6, a.grade, part((), a.grade))


def mode_block(k, data: G2Data | None = None, c: float = 1.0) -> np.ndarray:
    """The (..., 8, 7) torus blocks at modes k: the middle operator's 7 rows over the coclosed row."""
    return torus._mode_symbols(k, _or_standard(data), c)


def random_form(rng: np.random.Generator, n: int, k: int, scale: float = 1.0) -> KForm:
    return KForm(n, k, scale * rng.standard_normal(comb(n, k)))


def random_vector(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return scale * rng.standard_normal(n)


def random_metric(rng: np.random.Generator, n: int, orientation: int = 1) -> Metric:
    a = rng.standard_normal((n, n))
    return Metric(n, a @ a.T + 0.5 * np.eye(n), orientation)


def suite_two_form(rng: np.random.Generator, n: int, scale: float = 1.0) -> KForm:
    """The suites' random 2-form draw, as a KForm."""
    return KForm(n, 2, _two_form_draw(rng, n, scale))


def standard_star_phi() -> KForm:
    """Frozen coefficients of star(phi) for golden comparisons."""
    return _from_monomials(4, STAR_PHI_MONOMIALS)


def random_unitary_rotation(rng: np.random.Generator, point: HermitianPoint) -> LinearMap:
    """One isometry commuting with J: dhym._unitary_rotations at one drawn generator."""
    return dhym_module._unitary_rotations(point, dhym_module._rotation_generator(rng, point.n))


def coframe_pair(nf: NormalForm, i: int) -> tuple[KForm, KForm]:
    """The coframe 1-forms u^i and v^i of a normal form."""
    dim = 2 * nf.point.n
    return KForm(dim, 1, nf.coframe[..., 2 * i, :]), KForm(dim, 1, nf.coframe[..., 2 * i + 1, :])


def rescaled(nf: NormalForm) -> KForm | None:
    """The conformal multiple of omega_nabla whose (n-1) power has unit radius.

    Undefined for n = 1, where no rescaling can absorb the radius.
    """
    if nf.point.n == 1:
        return None
    r, _ = radius_angle(nf.lambdas)
    return np.power(r, -1.0 / (nf.point.n - 1)) * nf.omega_nabla


def random_structure_rotation(
    rng: np.random.Generator,
    data: G2Data | None = None,
    magnitude: float = 0.6,
    tol: float = SOLUTION_TOL,
    attempts: int = 5,
) -> LinearMap:
    """A rotation preserving phi, built from the 14-part of a random 2-form.

    The exponential of the skew map of a 14-part 2-form fixes the structure;
    the result is accepted only after verifying the pullback reproduces phi.
    """
    if data is None:
        data = standard_g2()
    for _ in range(attempts):
        raw = KForm(7, 2, magnitude * rng.standard_normal(21))
        beta = KForm(7, 2, data.proj2_14 @ raw.coeffs)
        rotation = LinearMap(7, scipy.linalg.expm(sharp2(beta, data.metric).matrix))
        if rel_residual(pullback(rotation, data.phi).coeffs, data.phi.coeffs) < tol:
            return rotation
    raise ValueError("could not draw a structure-preserving rotation")


def replay_columns(rec: _Recorder, table) -> None:
    """The check() and expect() calls that rec.columns(table) stands for, made one by one.

    Rows in order and, within a row, the table's checks in order; a check
    skips the rows its mask leaves out, and every row builds its witness
    fields.
    """
    for row in range(len(table[0].values)):
        for c in table:
            if c.where is not None and not c.where[row]:
                continue
            if c.tol is None:
                rec.expect(c.label, c.values[row], **c.info(row))
            else:
                rec.check(c.label, c.values[row], c.tol, **c.info(row))


# The per-sample suite bodies that the batched runners in g2calc.suites
# replaced, kept as reference loops: each draws and checks one sample at a
# time through the single-form API, in the order the batched runners keep.


def reference_appendix_a(campaign: Campaign, rng: np.random.Generator) -> Report:
    rec = _Recorder("appendixA")
    dims = (6, 7, 8)
    for i in range(campaign.samples):
        n = dims[i % 3]
        m = Metric(n, _random_gram(rng, n)) if i % 3 == 0 else euclidean_metric(n)
        k = int(rng.integers(0, n + 1))
        a = KForm(n, k, rng.standard_normal(comb(n, k)))
        b = KForm(n, k, rng.standard_normal(comb(n, k)))
        v = rng.standard_normal(n)
        vb = flat(v, m)

        twice = hodge(hodge(a, m), m)
        rec.check(
            "double star sign",
            rel_residual(twice.coeffs, ((-1) ** (k * (n - k))) * a.coeffs),
            campaign.tol_rel,
            sample=i, dim=n, grade=k, form=a,
        )
        inner = form_inner(a, b, m)
        rec.check(
            "star isometry",
            abs(form_inner(hodge(a, m), hodge(b, m), m) - inner)
            / max(1.0, abs(inner)),
            campaign.tol_rel,
            sample=i, dim=n, grade=k, form=a,
        )
        lhs = interior(v, hodge(a, m))
        rhs = ((-1) ** k) * hodge(wedge(vb, a), m)
        rec.check(
            "contraction of star",
            rel_residual(lhs.coeffs, rhs.coeffs),
            campaign.tol_rel,
            sample=i, dim=n, grade=k, form=a, vector=v,
        )
        if k >= 1:
            lhs = hodge(interior(v, a), m)
            rhs = ((-1) ** (k + 1)) * wedge(vb, hodge(a, m))
            rec.check(
                "star of contraction",
                rel_residual(lhs.coeffs, rhs.coeffs),
                campaign.tol_rel,
                sample=i, dim=n, grade=k, form=a, vector=v,
            )
    rec.details = {"dimensions": list(dims), "trials": campaign.samples}
    return rec.report()


def reference_appendix_b(campaign: Campaign, rng: np.random.Generator) -> Report:
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

    for i in range(campaign.samples):
        u = rng.standard_normal(7)
        beta = KForm(7, 2, data.proj2_14 @ rng.standard_normal(21))
        rec.check("contraction battery", identity_battery(u, beta, data),
                  campaign.tol_rel, sample=i, vector=u, form=beta)
    rec.details["battery_trials"] = campaign.samples
    return rec.report()


def reference_thm_c1(campaign: Campaign, rng: np.random.Generator) -> Report:
    rec = _Recorder("thmC1")
    data = standard_g2()
    draws = max(67, campaign.samples // 5)
    certified = 0
    for i in range(draws):
        weights = _zero_sum_weights(rng)
        direction = suite_two_form(rng, 7)
        for f in cartan_solutions(*weights):
            rec.check("Cartan flux solves the equation",
                      form_norm(ddt_residual(f, data), data.metric)
                      / max(1.0, np.power(form_norm(f, data.metric), 3)),
                      ddt_module.SOLUTION_TOL, sample=i, flux=f)
            rep = solution_report(f, data)
            rec.check("transport agrees with algebraic dual",
                      rep.lhs_minus_rhs_norm, campaign.tol_identity,
                      sample=i, flux=f)
            rec.check("conformal normalisation is a structure",
                      rep.conformal_residual, campaign.tol_identity,
                      sample=i, flux=f)
            rec.expect("factor stays away from zero",
                       abs(rep.scalar_factor) > 1e-6,
                       sample=i, factor=rep.scalar_factor, flux=f)
            rec.expect("orientation sign matches factor",
                       rep.sign_C == (1 if rep.scalar_factor > 0 else -1),
                       sample=i, factor=rep.scalar_factor, sign=rep.sign_C,
                       flux=f)
            _, density = ddt_module._density_routes(rep.scalar_factor, rep.dual_target,
                                                    rep.tilde_star, direction)
            rec.check("linearised density routes agree", density, campaign.tol_identity,
                      sample=i, flux=f, form=direction)
            certified += 1
    rec.details = {"solutions_certified": certified, "families": draws}
    return rec.report()


def reference_prop_d1(campaign: Campaign, rng: np.random.Generator) -> Report:
    rec = _Recorder("propD1")
    data = standard_g2()
    for i in range(campaign.samples):
        scale = float(10.0 ** rng.uniform(-1.0, 1.0))
        f = suite_two_form(rng, 7, scale)
        direct = ddt_residual(f, data)
        split = ddt_residual_decomposed(f, data)
        rec.check("type split reassembles the residual",
                  rel_residual(split.coeffs, direct.coeffs),
                  campaign.tol_rel, sample=i, scale=scale, flux=f)
    rec.details = {"fluxes_checked": campaign.samples}
    return rec.report()


def reference_cor_d2(campaign: Campaign, rng: np.random.Generator) -> Report:
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

    draws = max(67, campaign.samples // 5)
    solutions = 0
    for i in range(draws):
        weights = _zero_sum_weights(rng)
        for f in cartan_solutions(*weights):
            solutions += 1
            lhs, rhs, ok = norm_bound_check(f, data)
            rec.expect("7-part bound holds on solutions", ok,
                       sample=i, lhs=lhs, rhs=rhs, flux=f)
            rank, cube = wedge_injectivity(f, data)
            if cube > campaign.tol_identity:
                rec.expect("wedge map has full rank", rank == 21,
                           sample=i, rank=rank, cube_norm=cube, flux=f)
            scale = max(1.0, np.power(form_norm(f, data.metric), 3))
            rec.check("first-order reformulation vanishes",
                      reformulation_residual(f, data) / scale,
                      campaign.tol_identity, sample=i, flux=f)
        beta = KForm(7, 2, data.proj2_14 @ rng.standard_normal(21))
        cube_lhs, cube_rhs = cube_norm_bound(beta, data)
        rec.expect("14-part cube bound",
                   cube_lhs <= cube_rhs * (1.0 + campaign.tol_rel) + 1e-12,
                   sample=i, lhs=cube_lhs, rhs=cube_rhs, form=beta)
    rec.details = {"solutions_checked": solutions, "families": draws}
    return rec.report()


def reference_dhym(campaign: Campaign, rng: np.random.Generator) -> Report:
    rec = _Recorder("dhym")
    point2 = standard_kahler(2)
    golden = dhym_report(point2, point2.omega)
    rec.check("fundamental form radius",
              abs(golden.r - 2.0), campaign.tol_rel)
    rec.check("fundamental form angle",
              abs(golden.theta - pi / 2.0), campaign.tol_rel)

    for i in range(campaign.samples):
        n = (1, 2, 3)[i % 3]
        point = standard_kahler(n)
        f = suite_two_form(rng, 2 * n)
        rep = dhym_report(point, f)
        rec.check("rotated top power is real",
                  rep.im_residual, campaign.tol_rel, sample=i, n=n, form=f)
        rec.check("volume ratio identity",
                  rep.vol_identity_residual, campaign.tol_rel,
                  sample=i, n=n, form=f)
        rec.check("lower power reproduction",
                  rep.im_identity_residual, campaign.tol_rel,
                  sample=i, n=n, form=f)
        rec.expect("radius at least one", rep.r >= 1.0 - campaign.tol_rel,
                   sample=i, n=n, r=rep.r, form=f)

        invariant, nf = rep.f11, rep.normal
        xi = KForm(2 * n, 1, rng.standard_normal(2 * n))
        sigma, floor, routes = dhym_module._symbol_routes(point, nf, xi)
        rec.check("symbol routes agree", routes, campaign.tol_identity,
                  sample=i, n=n, form=invariant, covector=xi)
        rec.expect("symbol dominates its floor",
                   sigma >= floor - campaign.tol_rel,
                   sample=i, n=n, sigma=sigma, floor=floor,
                   form=invariant, covector=xi)
        rec.check("duality against the complex structure",
                  j_duality_residual(point, xi),
                  campaign.tol_rel, sample=i, n=n, covector=xi)

        if n >= 2:
            rotation = random_unitary_rotation(rng, point)
            rotated = normal_form(point, pullback(rotation, invariant))
            rec.check("eigenvalues invariant under rotation",
                      rel_residual(np.sort(rotated.lambdas),
                                   np.sort(nf.lambdas)),
                      campaign.tol_identity, sample=i, n=n, form=invariant)
    rec.details = {"complex_dimensions": [1, 2, 3]}
    return rec.report()


def reference_product(campaign: Campaign, rng: np.random.Generator) -> Report:
    rec = _Recorder("product")
    su3 = standard_su3()
    solved_both = 0
    solved_neither = 0
    for i in range(campaign.samples):
        branch = i % 3
        if branch == 0:
            f = zero_phase_flux(rng, su3)
        elif branch == 1:
            f = suite_two_form(rng, 6, 1.5)
        else:
            f = suite_two_form(rng, 6, 0.3)
        rep = correspondence_check(su3, f, tol=campaign.tol_identity)
        rec.expect("classifications agree", rep.agree, sample=i,
                   branch=branch, flux=f, **rep.to_dict())
        if branch == 0:
            rec.expect("engineered flux solves both sides",
                       rep.ddt_solves and rep.su3_solves,
                       sample=i, flux=f, **rep.to_dict())
        if rep.ddt_solves and rep.su3_solves:
            solved_both += 1
        elif not rep.ddt_solves and not rep.su3_solves:
            solved_neither += 1
    rec.details = {"solved_both": solved_both, "solved_neither": solved_neither}
    return rec.report()


def suite_changes(old: list[dict], new: list[dict]) -> str:
    """Per suite of two parsed `emit` reports, the old and new passed, failed and worst residual."""
    fields = ("passed", "failed", "worst_residual")
    old_by, new_by = ({r["suite"]: r for r in reports} for reports in (old, new))
    lines = []
    for suite in dict.fromkeys([*old_by, *new_by]):
        was, now = old_by.get(suite, {}), new_by.get(suite, {})
        moved = " ".join(f"{f} {was.get(f)!r} -> {now.get(f)!r}" for f in fields)
        mark = "" if was == now else "  (report differs)"
        lines.append(f"{suite}: {moved}{mark}")
    return "\n".join(lines)
