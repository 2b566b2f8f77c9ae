"""Acceptance battery: ten criteria, one printed verdict line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the verdict
lines on passing runs as well).
"""

import time
from math import pi, sqrt

import numpy as np

from g2calc import (
    Campaign,
    KForm,
    adjoint_check,
    cartan_solve,
    cartan_two_form,
    correspondence_check,
    cube_norm_bound,
    ddt_residual,
    ddt_residual_decomposed,
    dhym_report,
    emit,
    form_norm,
    harmonic_dim,
    identity_battery,
    norm_bound_check,
    normal_form,
    pq_project,
    rel_residual,
    solution_report,
    standard_g2,
    standard_kahler,
    standard_su3,
    symbol_bound,
    wedge,
    wedge_injectivity,
    zero_phase_flux,
)
from g2calc.suites import SUITE_IDS, _RUNNERS

from support import cartan_solutions

IDENTITY_TOL = 1e-8
EXACT_TOL = 1e-9


def _record(num: int, ok: bool, note: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {note}"
    print(line)
    assert ok, line


def _zero_sum(rng):
    l1, l2 = rng.uniform(-3.0, 3.0, size=2)
    return float(l1), float(l2), float(-l1 - l2)


def test_criterion_01_star_identities_at_scale():
    campaign = Campaign(seed=1, samples=1000, suites=("appendixA",))
    start = time.perf_counter()
    report = _RUNNERS["appendixA"](
        campaign, np.random.default_rng([1, SUITE_IDS["appendixA"]])
    )
    elapsed = time.perf_counter() - start
    ok = report.failed == 0 and elapsed < 10.0
    _record(1, ok,
            f"{report.passed} identity checks over dims 6/7/8 in {elapsed:.2f}s, "
            f"worst {report.worst_residual:.2e}")


def test_criterion_02_contraction_battery_and_traces():
    data = standard_g2()
    trace_err = max(
        abs(float(np.trace(data.proj2_7)) - 7.0),
        abs(float(np.trace(data.proj2_14)) - 14.0),
        abs(float(np.trace(data.proj3_1)) - 1.0),
        abs(float(np.trace(data.proj3_7)) - 7.0),
        abs(float(np.trace(data.proj3_27)) - 27.0),
        rel_residual(data.proj2_7 + data.proj2_14, np.eye(21)),
        rel_residual(data.proj3_1 + data.proj3_7 + data.proj3_27, np.eye(35)),
    )
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        u = rng.standard_normal(7)
        beta = KForm(7, 2, data.proj2_14 @ rng.standard_normal(21))
        worst = max(worst, identity_battery(u, beta, data))
    ok = trace_err < EXACT_TOL and worst < EXACT_TOL
    _record(2, ok,
            f"traces exact to {trace_err:.2e}, battery worst {worst:.2e} "
            f"over 1000 draws")


def test_criterion_03_diagonal_family_transport():
    data = standard_g2()
    rng = np.random.default_rng(3)
    count = 0
    worst_route = 0.0
    worst_conformal = 0.0
    ok = True
    while count < 200:
        for f in cartan_solutions(*_zero_sum(rng)):
            rep = solution_report(f, data)
            worst_route = max(worst_route, rep.lhs_minus_rhs_norm)
            worst_conformal = max(worst_conformal, rep.conformal_residual)
            ok = ok and abs(rep.scalar_factor) > 1e-6
            ok = ok and rep.sign_C == (1 if rep.scalar_factor > 0 else -1)
            count += 1
    ok = ok and worst_route < IDENTITY_TOL and worst_conformal < IDENTITY_TOL
    _record(3, ok,
            f"{count} solutions, transport route worst {worst_route:.2e}, "
            f"conformal worst {worst_conformal:.2e}")


def test_criterion_04_residual_type_split():
    data = standard_g2()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        scale = float(10.0 ** rng.uniform(-1.0, 1.0))
        f = KForm(7, 2, scale * rng.standard_normal(21))
        worst = max(worst, rel_residual(
            ddt_residual_decomposed(f, data).coeffs,
            ddt_residual(f, data).coeffs,
        ))
    ok = worst < EXACT_TOL
    _record(4, ok, f"split vs direct residual worst {worst:.2e} on 1000 fluxes")


def test_criterion_05_root_set_and_norm_bounds():
    data = standard_g2()
    roots_err = rel_residual(
        np.sort(cartan_solve(0.0, 0.0, 0.0)),
        np.array([-sqrt(3.0), 0.0, sqrt(3.0)]),
    )
    lhs, rhs, sat = norm_bound_check(
        cartan_two_form(sqrt(3.0), (0.0, 0.0, 0.0)), data
    )
    saturation = max(abs(lhs - 3.0), abs(rhs - 3.0))
    zero_lhs = norm_bound_check(cartan_two_form(0.0, (0.0, 0.0, 0.0)), data)[0]

    rng = np.random.default_rng(5)
    bound_ok = sat and zero_lhs < 1e-12
    for _ in range(67):
        for f in cartan_solutions(*_zero_sum(rng)):
            bound_ok = bound_ok and norm_bound_check(f, data)[2]
    cube_ok = True
    for _ in range(1000):
        beta = KForm(7, 2, data.proj2_14 @ rng.standard_normal(21))
        cube_lhs, cube_rhs = cube_norm_bound(beta, data)
        cube_ok = cube_ok and cube_lhs <= cube_rhs * (1.0 + EXACT_TOL) + 1e-12
    ok = roots_err < 1e-10 and saturation < IDENTITY_TOL and bound_ok and cube_ok
    _record(5, ok,
            f"pure-contraction norms {{0, 3}} to {max(roots_err, zero_lhs):.2e}, "
            f"bound saturates to {saturation:.2e}, family and cube bounds hold "
            f"on 1000 samples")


def test_criterion_06_wedge_rank_and_counterexample():
    data = standard_g2()
    rng = np.random.default_rng(6)
    rank_ok = True
    checked = 0
    while checked < 100:
        for f in cartan_solutions(*_zero_sum(rng)):
            rank, cube = wedge_injectivity(f, data)
            if cube > EXACT_TOL:
                rank_ok = rank_ok and rank == 21
                checked += 1
    flux = KForm.monomial(7, (1, 2)) - KForm.monomial(7, (3, 4))
    rank, cube = wedge_injectivity(flux, data)
    witness = KForm.monomial(7, (1, 3)) + KForm.monomial(7, (2, 4))
    degenerate_ok = (rank <= 20 and cube == 0.0
                     and not np.any(wedge(flux, witness).coeffs))
    ok = rank_ok and degenerate_ok
    _record(6, ok,
            f"rank 21 on {checked} solutions; degenerate flux has rank {rank} "
            f"with an exact kernel witness")


def test_criterion_07_complex_pipelines():
    rng = np.random.default_rng(7)
    worst = 0.0
    radius_ok = True
    for n in (1, 2, 3):
        point = standard_kahler(n)
        for _ in range(334):
            f = KForm(2 * n, 2, rng.standard_normal(len(point.omega.coeffs)))
            rep = dhym_report(point, f)
            worst = max(worst, rep.im_residual, rep.vol_identity_residual,
                        rep.im_identity_residual)
            radius_ok = radius_ok and rep.r >= 1.0 - EXACT_TOL
    point2 = standard_kahler(2)
    golden = dhym_report(point2, point2.omega)
    golden_err = max(abs(golden.r - 2.0), abs(golden.theta - pi / 2.0))

    symbol_ok = True
    for _ in range(100):
        f = KForm(4, 2, rng.standard_normal(6))
        p02 = pq_project(point2, f, 0, 2)
        p20 = pq_project(point2, f, 2, 0)
        nf = normal_form(point2, KForm(4, 2, np.real(
            f.coeffs - p02.coeffs - p20.coeffs)))
        for _ in range(100):
            xi = KForm(4, 1, rng.standard_normal(4))
            sigma, floor = symbol_bound(point2, nf, xi)
            symbol_ok = symbol_ok and sigma >= floor - EXACT_TOL
    ok = worst < EXACT_TOL and radius_ok and golden_err < 1e-12 and symbol_ok
    _record(7, ok,
            f"volume identities worst {worst:.2e} over 1002 draws, golden "
            f"point to {golden_err:.2e}, symbol floor on 100x100 draws")


def test_criterion_08_reduction_classification():
    su3 = standard_su3()
    rng = np.random.default_rng(8)
    disagreements = 0
    solved = 0
    for i in range(1000):
        if i % 3 == 0:
            f = zero_phase_flux(rng, su3)
        else:
            scale = 1.5 if i % 3 == 1 else 0.3
            f = KForm(6, 2, scale * rng.standard_normal(15))
        rep = correspondence_check(su3, f, tol=IDENTITY_TOL)
        if not rep.agree:
            disagreements += 1
        if rep.ddt_solves and rep.su3_solves:
            solved += 1
    ok = disagreements == 0 and solved >= 300
    _record(8, ok,
            f"{disagreements} disagreements over 1000 fluxes "
            f"({solved} solved on both sides)")


def test_criterion_09_torus_mode_counts():
    dims_ok = True
    for cutoff in (1, 2, 3):
        summary = harmonic_dim(cutoff)
        dims_ok = dims_ok and (
            summary.dim_check_H1, summary.dim_H2, summary.b1
        ) == (7, 0, 7)
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        k = tuple(int(v) for v in rng.integers(-4, 5, size=7))
        worst = max(worst, adjoint_check(k))
    ok = dims_ok and worst < 1e-10
    _record(9, ok,
            f"counts (7, 0, 7) at cutoffs 1..3, adjoint residual worst "
            f"{worst:.2e} on 100 modes")


def test_criterion_10_reproducible_battery():
    campaign = Campaign(seed=42, samples=1000)
    start = time.perf_counter()
    first_reports = campaign.run()
    first = emit(first_reports, "json", campaign)
    second = emit(Campaign(seed=42, samples=1000).run(), "json", campaign)
    elapsed = time.perf_counter() - start
    passed = all(r.failed == 0 for r in first_reports)
    ok = first == second and passed and elapsed < 120.0
    _record(10, ok,
            f"two full campaigns in {elapsed:.1f}s, byte-identical={first == second}, "
            f"all suites pass={passed}")
