"""Planted defects: each must end in failed suite reports, never in a traceback.

A defect is planted by replacing one function in every module that imported
it.  Each suite named in the defect's row then has to record failing checks
with witnesses, and the command line has to exit 1 with a parseable JSON
report.
"""

import json
from typing import NamedTuple

import pytest

from g2calc import cli, ddt, dhym, forms, g2, product, suites, torus
from g2calc.forms import KForm, Metric, euclidean_metric
from g2calc.suites import Campaign

MODULES = (forms, g2, ddt, dhym, product, torus, suites)


def plant(monkeypatch, module, name, defect):
    """Replace module.name, and every import of it, by defect(original)."""
    original = getattr(module, name)
    for owner in MODULES:
        if getattr(owner, name, None) is original:
            monkeypatch.setattr(owner, name, defect(original))


def scaled_wedge(original):
    def wedge(a, b):
        out = original(a, b)
        return out * 1.001 if a.grade >= 1 and b.grade >= 1 else out
    return wedge


def scaled_gram(original):
    def metric_from_three_form(phi):
        m = original(phi)
        return Metric(m.dim, 1.01 * m.gram, m.orientation)
    return metric_from_three_form


def scaled_three_form_star(original):
    def hodge(a, m=None):
        out = original(a, m)
        return out * 1.001 if a.grade == 3 else out
    return hodge


def shifted_residual(original):
    def _residual(f, f_sq, data):
        out = original(f, f_sq, data)
        return KForm(out.dim, out.grade, out.coeffs + 1e-6)
    return _residual


def scaled_inner(original):
    def form_inner(a, b, m=None):
        return original(a, b, m) * 1.001
    return form_inner


def scaled_factor(original):
    def _factor(f_sq, data):
        return original(f_sq, data) * 1.001
    return _factor


def shifted_angle(original):
    def radius_angle(lambdas):
        r, theta = original(lambdas)
        return r, theta + 0.01
    return radius_angle


def scaled_two_form_lift(original):
    def lift(a, with_dx=False):
        out = original(a, with_dx)
        return out * 1.001 if a.grade == 2 else out
    return lift


def flipped_star_sign(original):
    # One sign of the table the Hodge star at an identity Gram matrix reads.
    def _hodge_moves(n, k):
        gather, signs = original(n, k)
        flipped = signs.copy()
        flipped[0] = -flipped[0]
        return gather, flipped
    return _hodge_moves


def euclidean_symbol(original):
    def symbol_tensors(psi, metric):
        return original(psi, euclidean_metric(7))
    return symbol_tensors


class Defect(NamedTuple):
    module: object
    name: str
    build: object
    suites: tuple[str, ...]
    # Witness labels that the uncapped reports must include, by suite.
    labels: dict = {}


DEFECTS = {
    "wedge": Defect(forms, "wedge", scaled_wedge,
                    ("appendixA", "appendixB", "thmC1", "propD1", "corD2", "dhym", "product"),
                    {"dhym": "symbol routes agree"}),
    "metric gram": Defect(g2, "metric_from_three_form", scaled_gram,
                          ("appendixB", "thmC1", "propD1", "corD2")),
    "three-form star": Defect(forms, "hodge", scaled_three_form_star,
                              ("appendixA", "appendixB", "thmC1", "propD1", "corD2"),
                              {"thmC1": "linearised density routes agree"}),
    "residual": Defect(ddt, "_residual", shifted_residual, ("thmC1",),
                       {"thmC1": "Cartan flux solves the equation"}),
    "form inner": Defect(forms, "form_inner", scaled_inner,
                         ("appendixB", "thmC1", "propD1", "corD2")),
    "scalar factor": Defect(ddt, "_factor", scaled_factor, ("thmC1",)),
    "angle": Defect(dhym, "radius_angle", shifted_angle, ("dhym",)),
    "two-form lift": Defect(product, "lift", scaled_two_form_lift, ("product",)),
    "euclidean symbol": Defect(torus, "symbol_tensors", euclidean_symbol, ("torus",)),
    "flat-model star sign": Defect(forms, "_hodge_moves", flipped_star_sign, ("appendixA", "dhym"),
                                   {"dhym": "duality against the complex structure"}),
}


@pytest.fixture
def fresh_structure():
    # The cached G2 structure is built under the defect, as in a fresh
    # process, and built again after the test.  The Kahler and SU(3) points
    # and the product bundle are built before it: under some defects their
    # constructors raise (test_fresh_kahler_points_under_a_wedge_defect).
    g2.standard_g2.cache_clear()
    for n in (1, 2, 3):
        dhym.standard_kahler(n)
    product.product_g2(product.standard_su3())
    yield
    g2.standard_g2.cache_clear()


@pytest.fixture
def cold_kahler():
    # The Kahler and SU(3) points are built under the defect, and built again after the test.
    caches = (dhym.standard_kahler, product.standard_su3, g2.standard_g2)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def assert_caught(monkeypatch, capsys, defect, names):
    """Plant the defect, run `g2calc verify` on the suites, and check each one's failures."""
    row = DEFECTS[defect]
    plant(monkeypatch, row.module, row.name, row.build)
    monkeypatch.setattr(suites, "MAX_WITNESSES", 10**6)
    monkeypatch.delenv("G2CALC_SEED", raising=False)
    argv = ["verify", "--samples", "60", "--format", "json"]
    for name in names:
        argv += ["--suite", name]
    code = cli.main(argv)
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [r["suite"] for r in payload] == list(names)
    for report in payload:
        assert report["failed"] > 0, report["suite"]
        assert len(report["witnesses"]) == report["failed"]
        if report["suite"] in row.labels:
            assert row.labels[report["suite"]] in {w["check"] for w in report["witnesses"]}


# thmC1 certifies the most G2 arithmetic, so each of its rows is a case of
# its own; the other suites of a row run together.
@pytest.mark.parametrize("defect", [d for d, row in DEFECTS.items() if "thmC1" in row.suites])
def test_defect_fails_thm_c1_without_raising(fresh_structure, monkeypatch, capsys, defect):
    assert_caught(monkeypatch, capsys, defect, ("thmC1",))


@pytest.mark.parametrize("defect", [d for d, row in DEFECTS.items() if row.suites != ("thmC1",)])
def test_defect_fails_its_other_suites_without_raising(fresh_structure, monkeypatch, capsys,
                                                       defect):
    names = tuple(name for name in DEFECTS[defect].suites if name != "thmC1")
    assert_caught(monkeypatch, capsys, defect, names)


@pytest.mark.xfail(raises=ValueError, strict=True,
                   reason="HermitianPoint checks its orientation with a raising guard")
def test_fresh_kahler_points_under_a_wedge_defect(cold_kahler, monkeypatch, capsys):
    # In a fresh process standard_kahler builds its points under the defect,
    # and the constructor's guard raises before the suite can report.
    assert_caught(monkeypatch, capsys, "wedge", ("dhym", "product"))


def test_zero_solution_tolerance_fails_the_solve_check(monkeypatch):
    # The tolerance is read when the suite runs; a residual that rounds to a
    # nonzero value then fails.
    monkeypatch.setattr(ddt, "SOLUTION_TOL", 0.0)
    monkeypatch.setattr(suites, "MAX_WITNESSES", 10**6)
    report = Campaign(0, 60, suites=("thmC1",)).run()[0]
    failed = {w["check"] for w in report.witnesses}
    assert failed == {"Cartan flux solves the equation"}
    assert all(w["tolerance"] == 0.0 and w["residual"] > 0.0 for w in report.witnesses)
