"""Planted defects: each must end in a failed thmC1 report, never in a traceback.

A defect is planted by replacing one function in every module that imported
it.  The suite then has to record failing checks with witnesses, and the
command line has to exit 1 with a parseable JSON report.
"""

import json

import pytest

from g2calc import cli, ddt, dhym, forms, g2, product, suites, torus
from g2calc.forms import KForm, Metric
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


DEFECTS = {
    "wedge": (forms, "wedge", scaled_wedge),
    "metric gram": (g2, "metric_from_three_form", scaled_gram),
    "three-form star": (forms, "hodge", scaled_three_form_star),
    "residual": (ddt, "_residual", shifted_residual),
}


@pytest.fixture
def fresh_structure():
    # The cached standard structure is built under the defect, as in a fresh
    # process, and built again after the test.
    g2.standard_g2.cache_clear()
    yield
    g2.standard_g2.cache_clear()


@pytest.mark.parametrize("defect", DEFECTS)
def test_defect_fails_thm_c1_without_raising(fresh_structure, monkeypatch, capsys, defect):
    plant(monkeypatch, *DEFECTS[defect])
    report = Campaign(0, 60, suites=("thmC1",)).run()[0]
    assert report.failed > 0
    if defect == "residual":
        assert "Cartan flux solves the equation" in [w["check"] for w in report.witnesses]

    monkeypatch.delenv("G2CALC_SEED", raising=False)
    code = cli.main(["verify", "--suite", "thmC1", "--samples", "60", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [r["suite"] for r in payload] == ["thmC1"]
    assert payload[0]["failed"] == report.failed


def test_zero_solution_tolerance_fails_the_solve_check(monkeypatch):
    # The tolerance is read when the suite runs; a residual that rounds to a
    # nonzero value then fails.
    monkeypatch.setattr(ddt, "SOLUTION_TOL", 0.0)
    monkeypatch.setattr(suites, "MAX_WITNESSES", 10**6)
    report = Campaign(0, 60, suites=("thmC1",)).run()[0]
    failed = {w["check"] for w in report.witnesses}
    assert failed == {"Cartan flux solves the equation"}
    assert all(w["tolerance"] == 0.0 and w["residual"] > 0.0 for w in report.witnesses)
