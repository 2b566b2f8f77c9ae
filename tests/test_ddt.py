"""Unit tests for the deformed-flux module."""

import dataclasses

import numpy as np
import pytest

import g2calc.ddt as ddt_module
import g2calc.forms as forms_module
from g2calc.forms import (
    KForm,
    form_inner,
    form_norm,
    hodge,
    interior,
    multi_indices,
    pullback,
    rel_residual,
    row_residual,
    wedge,
)
from g2calc.g2 import metric_from_three_form, project2, standard_g2
from g2calc.suites import SUITE_IDS, Campaign, _cartan_families, _zero_sum_weights
from g2calc.ddt import (
    DdtReport,
    _cartan_coeffs,
    _cartan_roots,
    _density_routes,
    _merged_roots,
    _solution_report,
    cartan_solve,
    cartan_two_form,
    cube_norm_bound,
    ddt_residual,
    ddt_residual_decomposed,
    graph_map,
    induced_phi,
    is_solution,
    linearization_density,
    norm_bound_check,
    reformulation_residual,
    scalar_factor,
    solution_report,
    wedge_injectivity,
)

from support import (
    cartan_solutions,
    random_form,
    random_structure_rotation,
    random_vector,
    suite_two_form,
)

REL = 1e-9
SQ3 = np.sqrt(3.0)


@pytest.fixture(scope="module")
def G():
    return standard_g2()


def random_zero_sum(rng, bound=3.0):
    l1, l2 = rng.uniform(-bound, bound, size=2)
    return l1, l2, -(l1 + l2)


def transported_dual_oracle(f, G):
    """(1+F#)* star(phi) via the product of corrected coframe covectors."""
    basis = np.eye(7)
    corrected = [
        KForm.monomial(7, (j,)) - interior(basis[j], f) for j in range(7)
    ]
    total = KForm.zero(7, 4)
    for pos, idx in enumerate(multi_indices(7, 4)):
        term = KForm(7, 0, np.ones(1))
        for j in idx:
            term = wedge(term, corrected[j])
        total = total + G.star_phi.coeffs[pos] * term
    return total


class TestResidual:
    def test_zero_flux(self, G):
        assert form_norm(ddt_residual(KForm.zero(7, 2), G)) == 0.0

    def test_pure_contraction_flux(self, G):
        f = interior(np.eye(7)[0], G.phi)
        target = 2.0 * hodge(KForm.monomial(7, (0,)), G.metric)
        assert rel_residual(ddt_residual(f, G).coeffs, target.coeffs) < 1e-14

    def test_decomposed_matches_direct(self, G):
        rng = np.random.default_rng(50)
        for _ in range(200):
            f = KForm(7, 2, 2.0 * rng.standard_normal(21))
            assert rel_residual(
                ddt_residual(f, G).coeffs, ddt_residual_decomposed(f, G).coeffs
            ) < REL

    def test_decomposed_pure_fourteen_part(self, G):
        rng = np.random.default_rng(51)
        beta = KForm(7, 2, G.proj2_14 @ rng.standard_normal(21))
        want = (-1.0 / 6.0) * wedge(wedge(beta, beta), beta)
        assert rel_residual(ddt_residual(beta, G).coeffs, want.coeffs) < 1e-12

    def test_rejects_wrong_grade(self, G):
        with pytest.raises(ValueError):
            ddt_residual(KForm.zero(7, 3), G)


class TestCartanFamily:
    def test_zero_weights_roots(self):
        roots = cartan_solve(0.0, 0.0, 0.0)
        assert np.allclose(roots, [-SQ3, 0.0, SQ3], atol=1e-12)

    def test_opposite_pair_roots(self):
        lam = 1.7
        roots = cartan_solve(lam, -lam, 0.0)
        assert np.allclose(sorted(roots), sorted([0.0, np.sqrt(3 + lam * lam), -np.sqrt(3 + lam * lam)]), atol=1e-12)

    def test_known_cubic(self):
        roots = cartan_solve(1.0, 1.0, -2.0)
        for x in roots:
            assert abs(x**3 - 6.0 * x - 2.0) < 1e-12

    def test_nonzero_sum_rejected(self):
        with pytest.raises(ValueError):
            cartan_solve(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("weights", [
        (np.nan, 0.0, 0.0), (np.inf, -np.inf, 0.0), (np.inf, 0.0, 0.0), (1.0, -1.0, np.nan),
    ])
    def test_non_finite_weights_rejected(self, weights):
        # A NaN sum compares false against any tolerance, and an infinite
        # weight makes the tolerance infinite: both must still fail the check.
        with pytest.raises(ValueError, match=r"lambdas must sum to zero and be finite, got \["):
            cartan_solve(*weights)

    def test_all_roots_solve(self, G):
        rng = np.random.default_rng(52)
        for _ in range(50):
            lams = random_zero_sum(rng)
            sols = cartan_solutions(*lams)
            assert len(sols) == 3
            for f in sols:
                assert form_norm(ddt_residual(f, G)) < 1e-10 * max(
                    1.0, form_norm(f) ** 3
                )

    @pytest.mark.parametrize("x, lambdas", [
        (0.0, (0.0, 0.0, 0.0)),
        (-0.0, (-0.0, 0.0, -0.0)),
        (1.25, (-1.25, 0.5, 0.75)),
        (-SQ3, (0.3, -0.1, -0.2)),
    ])
    def test_two_form_is_the_monomial_sum_bit_for_bit(self, x, lambdas):
        l1, l2, l3 = lambdas
        want = (KForm.monomial(7, (1, 2), x + l1)
                + KForm.monomial(7, (3, 4), x + l2)
                + KForm.monomial(7, (5, 6), x + l3))
        got = cartan_two_form(x, lambdas)
        assert (got.dim, got.grade, got.coeffs.dtype) == (7, 2, np.float64)
        # tobytes tells 0.0 from -0.0.
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
        assert not got.coeffs.flags.writeable

    def test_solutions_come_in_sign_pairs(self, G):
        for x in cartan_solve(0.0, 0.0, 0.0):
            f = cartan_two_form(x, (0.0, 0.0, 0.0))
            assert is_solution(f, G)
            assert is_solution(-1.0 * f, G)


def reference_cartan_solve(l1, l2, l3):
    """The scalar body cartan_solve had before its roots were solved for a stack of weights."""
    s = l1 * l1 + l2 * l2 + l3 * l3
    p = -(3.0 + 0.5 * s)
    q = l1 * l2 * l3
    radius = 2.0 * np.sqrt(-p / 3.0)
    argument = np.clip(3.0 * q / (p * radius), -1.0, 1.0)
    theta = np.arccos(argument) / 3.0
    roots = []
    for x in [radius * np.cos(theta - 2.0 * np.pi * k / 3.0) for k in range(3)]:
        for _ in range(3):
            slope = 3.0 * x * x + p
            if abs(slope) < 1e-12:
                break
            x -= (x * (x * x + p) + q) / slope
        roots.append(float(x))
    roots.sort()
    merged = []
    for x in roots:
        if merged and abs(x - merged[-1]) < 1e-8 * max(1.0, abs(x)):
            continue
        merged.append(x)
    return merged


class TestStackedCartanRoots:
    def weights(self):
        rng = np.random.default_rng(54)
        drawn = [_zero_sum_weights(rng) for _ in range(500)]
        return np.array(drawn + [(0.0, 0.0, 0.0), (1e9, 1e9, -2e9), (-1e12, -1e12, 2e12)])

    def test_each_row_is_the_single_call(self):
        weights = self.weights()
        roots = _cartan_roots(weights)
        assert roots.shape == (503, 3)
        merged_rows = 0
        for row, lambdas in zip(roots, weights):
            single = cartan_solve(*lambdas.tolist())
            assert _merged_roots(row) == single == reference_cartan_solve(*lambdas.tolist())
            merged_rows += len(single) < 3
        # The last two weights' roots lie within the merge tolerance of each other.
        assert merged_rows == 2

    def test_coefficients_are_the_single_two_forms(self):
        weights = self.weights()
        x = _cartan_roots(weights)
        coeffs = _cartan_coeffs(x, weights[:, None, :])
        for i, lambdas in enumerate(weights.tolist()):
            for k in range(3):
                want = cartan_two_form(x[i, k].item(), tuple(lambdas)).coeffs
                # tobytes tells 0.0 from -0.0.
                assert coeffs[i, k].tobytes() == want.tobytes()

    def test_one_row_off_the_plane_rejects_the_stack(self):
        weights = self.weights()
        weights[7, 2] += 1e-6
        with pytest.raises(ValueError, match="lambdas must sum to zero"):
            _cartan_roots(weights)


class TestOrthogonality:
    # On solutions, |i(u)F14| and |phi ^ star(F^2)| both vanish.
    @staticmethod
    def split_norms(f, G):
        split = project2(f, G)
        return (form_norm(interior(split.u, split.f14), G.metric),
                form_norm(wedge(G.phi, hodge(wedge(f, f), G.metric)), G.metric))

    def test_solutions_have_orthogonal_split(self, G):
        rng = np.random.default_rng(53)
        for _ in range(20):
            lams = random_zero_sum(rng)
            for f in cartan_solutions(*lams):
                assert max(self.split_norms(f, G)) < 1e-10

    def test_zero_flux(self, G):
        assert self.split_norms(KForm.zero(7, 2), G) == (0.0, 0.0)


class TestSolutionTolIsReadAtCallTime:
    # A Cartan solution whose residual rounds to a nonzero value, so that a zero
    # tolerance rejects it.
    @staticmethod
    def inexact_solution(G):
        f = cartan_solutions(1.0, -0.25, -0.75)[0]
        assert form_norm(ddt_residual(f, G), G.metric) > 0.0
        return f

    def test_zero_tolerance_rejects(self, G, monkeypatch):
        f = self.inexact_solution(G)
        solution_report(f, G)
        monkeypatch.setattr(ddt_module, "SOLUTION_TOL", 0.0)
        with pytest.raises(ValueError, match="does not solve"):
            solution_report(f, G)

    def test_is_solution_default(self, G, monkeypatch):
        # The default used to be bound when the module loaded, so this stayed True.
        f = self.inexact_solution(G)
        assert is_solution(f)
        monkeypatch.setattr(ddt_module, "SOLUTION_TOL", 0.0)
        assert not is_solution(f)

    def test_density_routes_default(self, G, monkeypatch):
        f = cartan_solutions(0.5, -0.2, -0.3)[0]
        b2 = KForm(7, 2, np.ones(21))
        linearization_density(f, b2, G)
        monkeypatch.setattr(ddt_module, "DENSITY_ROUTES_TOL", 0.0)
        with pytest.raises(ValueError, match="routes disagree"):
            linearization_density(f, b2, G)


class TestInducedStructure:
    def test_zero_flux_is_identity(self, G):
        phi_f, tilde = induced_phi(KForm.zero(7, 2), G)
        assert np.allclose(phi_f.coeffs, G.phi.coeffs)
        assert np.allclose(tilde.coeffs, G.phi.coeffs)

    def test_golden_scalar_factor(self, G):
        f = cartan_two_form(SQ3, (0.0, 0.0, 0.0))
        pairing = form_inner(wedge(f, f), G.star_phi, G.metric)
        assert pairing == pytest.approx(18.0, rel=1e-12)
        assert scalar_factor(f, G) == pytest.approx(-8.0, rel=1e-12)

    def test_degenerate_factor_rejected(self, G):
        # |u|^2 = 1/3 makes the factor vanish for pure contraction flux.
        u = np.zeros(7)
        u[0] = 1.0 / SQ3
        f = interior(u, G.phi)
        assert abs(scalar_factor(f, G)) < 1e-12
        with pytest.raises(ValueError, match="degenerate"):
            induced_phi(f, G)

    def test_tilde_scaling(self, G):
        f = cartan_two_form(SQ3, (0.0, 0.0, 0.0))
        phi_f, tilde = induced_phi(f, G)
        assert rel_residual(tilde.coeffs, 8.0 ** (-0.75) * phi_f.coeffs) < 1e-14

    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_batch_rows_equal_single_forms_bit_for_bit(self, G, seed):
        # The thmC1 suite's solutions at this seed: it certifies them in batches
        # and rebuilds a failing row as a single form, which must agree exactly.
        rng = np.random.default_rng([seed, SUITE_IDS["thmC1"]])
        fluxes = []
        for _ in range(67):
            fluxes.extend(f.coeffs for f in cartan_solutions(*_zero_sum_weights(rng)))
            suite_two_form(rng, 7)
        phi_f, tilde = induced_phi(KForm(7, 2, np.array(fluxes)), G)
        for i, coeffs in enumerate(fluxes):
            one_phi_f, one_tilde = induced_phi(KForm(7, 2, coeffs), G)
            assert np.array_equal(phi_f.coeffs[i], one_phi_f.coeffs), i
            assert np.array_equal(tilde.coeffs[i], one_tilde.coeffs), i

    def test_transported_dual_matches_expansion(self, G):
        rng = np.random.default_rng(54)
        for _ in range(10):
            f = KForm(7, 2, rng.standard_normal(21))
            direct = pullback(graph_map(f, G), G.star_phi)
            oracle = transported_dual_oracle(f, G)
            assert rel_residual(direct.coeffs, oracle.coeffs) < 1e-12


class TestSolutionReport:
    def test_zero_flux_report(self, G):
        rep = solution_report(KForm.zero(7, 2), G)
        assert rep.residual_norm == 0.0
        assert rep.scalar_factor == 1.0
        assert rep.sign_C == 1
        assert rep.lhs_minus_rhs_norm < 1e-12
        assert rep.conformal_residual < 1e-12

    def test_three_routes_agree_on_family(self, G):
        rng = np.random.default_rng(55)
        for _ in range(40):
            lams = random_zero_sum(rng)
            for f in cartan_solutions(*lams):
                rep = solution_report(f, G)
                assert rep.lhs_minus_rhs_norm < 1e-8
                assert rep.conformal_residual < 1e-8
                assert abs(rep.scalar_factor) > 1e-6
                assert rep.sign_C == (1 if rep.scalar_factor > 0 else -1)

    def test_rotated_solutions_also_pass(self, G):
        rng = np.random.default_rng(56)
        for _ in range(5):
            rot = random_structure_rotation(rng, G)
            f = pullback(rot, cartan_solutions(*random_zero_sum(rng))[0])
            rep = solution_report(f, G)
            assert rep.lhs_minus_rhs_norm < 1e-8

    def test_fields_compose_from_public_functions(self, G):
        rng = np.random.default_rng(57)
        fluxes = [f for _ in range(4) for f in cartan_solutions(*random_zero_sum(rng))]
        fluxes.append(pullback(random_structure_rotation(rng, G), fluxes[0]))
        for f in fluxes:
            rep = solution_report(f, G)
            residual = ddt_residual(f, G)
            factor = scalar_factor(f, G)
            phi_f, tilde = induced_phi(f, G)
            dual = G.star_phi - 0.5 * wedge(f, f)
            routes = [
                hodge(phi_f, metric_from_three_form(phi_f)).coeffs,
                pullback(graph_map(f, G), G.star_phi).coeffs,
                (factor * dual).coeffs,
            ]
            sign = 1 if factor > 0 else -1
            conformal = float(row_residual(hodge(tilde, metric_from_three_form(tilde)).coeffs,
                                           (float(sign) * dual).coeffs))
            assert np.array_equal(rep.residual.coeffs, residual.coeffs)
            assert rep.residual_norm == form_norm(residual, G.metric)
            assert rep.scalar_factor == factor
            assert rep.lhs_minus_rhs_norm == max(
                float(row_residual(routes[i], routes[j]))
                for i in range(3) for j in range(i + 1, 3)
            )
            assert rep.sign_C == sign
            assert rep.conformal_residual == conformal

    def test_non_solution_rejected(self, G):
        with pytest.raises(ValueError):
            solution_report(KForm.monomial(7, (0, 1)), G)

    def test_batch_reports_each_row(self, G):
        rng = np.random.default_rng(60)
        fluxes = [f for _ in range(3) for f in cartan_solutions(*random_zero_sum(rng))]
        fluxes.append(pullback(random_structure_rotation(rng, G), fluxes[0]))
        rep = solution_report(KForm(7, 2, np.stack([f.coeffs for f in fluxes])), G)
        assert rep.residual.coeffs.shape == (len(fluxes), 7)
        for i, f in enumerate(fluxes):
            one = solution_report(f, G)
            assert np.array_equal(rep.residual.coeffs[i], one.residual.coeffs)
            for name in ("residual_norm", "lhs_minus_rhs_norm", "conformal_residual",
                         "scalar_factor", "sign_C"):
                assert getattr(rep, name).shape == (len(fluxes),)
                assert getattr(rep, name)[i] == getattr(one, name), name
        assert isinstance(one.sign_C, int) and isinstance(one.conformal_residual, float)

    def test_one_non_solution_rejects_the_batch(self, G):
        good = cartan_solutions(0.5, -0.2, -0.3)[0]
        batch = KForm(7, 2, np.stack([good.coeffs, KForm.monomial(7, (0, 1)).coeffs]))
        assert is_solution(batch, G).tolist() == [True, False]
        with pytest.raises(ValueError, match="does not solve"):
            solution_report(batch, G)


class TestExteriorPowerBudget:
    def test_certificate_builds_no_power_above_two(self, G, monkeypatch):
        # The graph maps and induced metrics of a batch act once each, on phi,
        # star(phi) and the induced 3-forms: contracted, never built as Λ^3 or Λ^4.
        rng = np.random.default_rng(62)
        fluxes = []
        while len(fluxes) < 32:
            fluxes.extend(f.coeffs for f in cartan_solutions(*random_zero_sum(rng)))
        f = KForm(7, 2, np.array(fluxes[:32]))
        b2 = KForm(7, 2, rng.standard_normal((32, 21)))
        def certify(f, b2):
            rep = _solution_report(f, G)
            return _density_routes(rep.scalar_factor, rep.dual_target, rep.tilde_star, b2)

        # The shared structure builds its own Grams once, on the first call.
        certify(KForm(7, 2, f.coeffs[0]), KForm(7, 2, b2.coeffs[0]))
        grades = []
        original = forms_module.exterior_power

        def counted(a, k):
            grades.append(k)
            return original(a, k)

        monkeypatch.setattr(forms_module, "exterior_power", counted)
        certify(f, b2)
        assert all(k < 3 for k in grades), grades


class TestReformulation:
    def test_golden_diagonal_solution(self, G):
        f = cartan_two_form(SQ3, (0.0, 0.0, 0.0))
        assert reformulation_residual(f, G) < 1e-12

    def test_family(self, G):
        rng = np.random.default_rng(57)
        for _ in range(25):
            for f in cartan_solutions(*random_zero_sum(rng)):
                assert reformulation_residual(f, G) < 1e-9 * max(
                    1.0, form_norm(f) ** 3
                )

    def test_nonzero_off_solutions(self, G):
        assert reformulation_residual(KForm.monomial(7, (0, 1)), G) > 0.1


class TestLinearization:
    def test_flat_point(self, G):
        b2 = KForm.monomial(7, (0, 1))
        out = linearization_density(KForm.zero(7, 2), b2, G)
        assert rel_residual(out.coeffs, wedge(b2, G.star_phi).coeffs) < 1e-14

    def test_fourteen_part_at_flat_point(self, G):
        rng = np.random.default_rng(58)
        b14 = KForm(7, 2, G.proj2_14 @ rng.standard_normal(21))
        out = linearization_density(KForm.zero(7, 2), b14, G)
        assert form_norm(out) < 1e-12

    def test_family_routes_agree(self, G):
        rng = np.random.default_rng(59)
        for _ in range(25):
            f = cartan_solutions(*random_zero_sum(rng))[-1]
            b2 = random_form(rng, 7, 2)
            linearization_density(f, b2, G)  # raises on route mismatch

    def test_non_solution_rejected(self, G):
        with pytest.raises(ValueError):
            linearization_density(KForm.monomial(7, (0, 1)), KForm.zero(7, 2), G)

    def test_density_is_the_reports_route(self, G):
        # The density reads the same factor and forms that the solution report
        # keeps, so it equals the suites' route bit for bit.
        rng = np.random.default_rng(60)
        f = KForm(7, 2, np.stack([cartan_solutions(*random_zero_sum(rng))[0].coeffs
                                  for _ in range(3)]))
        b2 = random_form(rng, 7, 2)
        rep = solution_report(f, G)
        density, _ = _density_routes(rep.scalar_factor, rep.dual_target, rep.tilde_star, b2)
        assert linearization_density(f, b2, G).coeffs.tobytes() == density.coeffs.tobytes()

    def test_batch_gives_each_row_density(self, G):
        rng = np.random.default_rng(61)
        fluxes = np.stack([cartan_solutions(*random_zero_sum(rng))[-1].coeffs for _ in range(4)])
        b2 = rng.standard_normal((4, 21))
        got = linearization_density(KForm(7, 2, fluxes), KForm(7, 2, b2), G)
        for row, f, b in zip(got.coeffs, fluxes, b2):
            want = linearization_density(KForm(7, 2, f), KForm(7, 2, b), G).coeffs
            assert rel_residual(row, want) <= 1e-14

    def test_one_non_solution_rejects_the_batch(self, G):
        # The package's error, not numpy's "truth value of an array is ambiguous".
        good = cartan_solutions(0.5, -0.2, -0.3)[0]
        batch = KForm(7, 2, np.stack([good.coeffs, KForm.monomial(7, (0, 1)).coeffs]))
        with pytest.raises(ValueError, match="does not solve the deformed equation"):
            linearization_density(batch, KForm(7, 2, np.ones((2, 21))), G)

    def test_one_disagreeing_row_rejects_the_batch(self, G, monkeypatch):
        good = cartan_solutions(0.5, -0.2, -0.3)[0]
        batch = KForm(7, 2, np.stack([good.coeffs, good.coeffs]))
        b2 = KForm(7, 2, np.stack([np.zeros(21), np.ones(21)]))
        monkeypatch.setattr(ddt_module, "DENSITY_ROUTES_TOL", 0.0)
        with pytest.raises(ValueError, match="routes disagree"):
            linearization_density(batch, b2, G)


class TestNormBound:
    def test_pure_contraction_extremes(self, G):
        f = cartan_two_form(SQ3, (0.0, 0.0, 0.0))
        lhs, rhs, ok = norm_bound_check(f, G)
        assert ok
        assert lhs == pytest.approx(3.0, rel=1e-12)
        assert rhs == pytest.approx(3.0, rel=1e-12)

    def test_zero_flux(self, G):
        lhs, rhs, ok = norm_bound_check(KForm.zero(7, 2), G)
        assert (lhs, rhs, ok) == (0.0, pytest.approx(3.0, rel=1e-12), True)

    def test_family_never_violates(self, G):
        rng = np.random.default_rng(60)
        for _ in range(50):
            for f in cartan_solutions(*random_zero_sum(rng)):
                lhs, rhs, ok = norm_bound_check(f, G)
                assert ok, (lhs, rhs)

    def test_rotations_preserve_bound_data(self, G):
        rng = np.random.default_rng(61)
        f = cartan_solutions(*random_zero_sum(rng))[-1]
        rot = random_structure_rotation(rng, G)
        lhs, rhs, _ = norm_bound_check(f, G)
        lhs2, rhs2, ok2 = norm_bound_check(pullback(rot, f), G)
        assert ok2
        assert lhs2 == pytest.approx(lhs, rel=1e-9, abs=1e-12)
        assert rhs2 == pytest.approx(rhs, rel=1e-9)


class TestCubeBound:
    def test_cancellation_case(self, G):
        beta = KForm.monomial(7, (1, 2)) - KForm.monomial(7, (3, 4))
        lhs, rhs = cube_norm_bound(beta, G)
        assert lhs == 0.0
        assert rhs > 0.0

    def test_diagonal_closed_form(self, G):
        lams = (1.2, 0.7, -1.9)
        beta = (
            KForm.monomial(7, (1, 2), lams[0])
            + KForm.monomial(7, (3, 4), lams[1])
            + KForm.monomial(7, (5, 6), lams[2])
        )
        lhs, rhs = cube_norm_bound(beta, G)
        assert lhs == pytest.approx(6.0 * abs(np.prod(lams)), rel=1e-12)
        assert rhs == pytest.approx(
            np.sqrt(6.0) / 3.0 * np.sum(np.square(lams)) ** 1.5, rel=1e-12
        )
        assert lhs <= rhs + 1e-12

    def test_extremiser_reaches_equality(self, G):
        beta = (
            KForm.monomial(7, (1, 2), 1.0)
            + KForm.monomial(7, (3, 4), 1.0)
            + KForm.monomial(7, (5, 6), -2.0)
        )
        lhs, rhs = cube_norm_bound(beta, G)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_random_fourteen_parts(self, G):
        rng = np.random.default_rng(62)
        for _ in range(200):
            beta = KForm(7, 2, G.proj2_14 @ (2.0 * rng.standard_normal(21)))
            lhs, rhs = cube_norm_bound(beta, G)
            assert lhs <= rhs * (1 + 1e-9) + 1e-12


class TestWedgeInjectivity:
    def test_solutions_have_full_rank(self, G):
        rng = np.random.default_rng(63)
        for _ in range(10):
            for f in cartan_solutions(*random_zero_sum(rng)):
                rank, cube = wedge_injectivity(f, G)
                if cube > 1e-9:
                    assert rank == 21

    def test_degenerate_flux_drops_rank(self, G):
        f = KForm.monomial(7, (1, 2)) - KForm.monomial(7, (3, 4))
        rank, cube = wedge_injectivity(f, G)
        assert cube == 0.0
        assert rank <= 20
        witness = KForm.monomial(7, (1, 3)) + KForm.monomial(7, (2, 4))
        assert not wedge(f, witness).coeffs.any()

    def test_zero_flux(self, G):
        rank, cube = wedge_injectivity(KForm.zero(7, 2), G)
        assert (rank, cube) == (0, 0.0)

    def test_screened_ranks_are_the_svd_counts(self, G, monkeypatch):
        # Rows the eigenvalue screen settles and rows it leaves to the SVD, in one batch.
        rng = np.random.default_rng(65)
        degenerate = (KForm.monomial(7, (1, 2)) - KForm.monomial(7, (3, 4))).coeffs
        solutions = [f.coeffs for f in cartan_solutions(*random_zero_sum(rng))]
        rows = np.stack([*rng.standard_normal((4, 21)), degenerate, np.zeros(21),
                         degenerate + 1e-7 * rng.standard_normal(21), *solutions])
        svd = np.linalg.svd
        mats = forms_module.wedge_matrix(KForm(7, 2, rows), 2)
        want = []
        for mat in mats:
            singular = svd(mat, compute_uv=False)
            top = singular.max()
            want.append(int(np.count_nonzero(singular > ddt_module.RANK_CUTOFF * top)) if top > 0 else 0)
        sent = []

        def counted(a, *args, **kwargs):
            sent.append(len(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        ranks, _ = wedge_injectivity(KForm(7, 2, rows), G)
        assert ranks.tolist() == want
        assert want[4:7] == [16, 0, 21]
        # The degenerate, zero and nearly degenerate rows go to the SVD, and only they.
        assert sent == [3]
        assert [wedge_injectivity(KForm(7, 2, row), G)[0] for row in rows] == want


class TestStructureRotations:
    def test_rotation_preserves_phi_and_metric(self, G):
        rng = np.random.default_rng(64)
        rot = random_structure_rotation(rng, G)
        assert rel_residual(pullback(rot, G.phi).coeffs, G.phi.coeffs) < 1e-9
        assert np.abs(rot.matrix.T @ rot.matrix - np.eye(7)).max() < 1e-9

    def test_rotation_preserves_solutions(self, G):
        rng = np.random.default_rng(65)
        f = cartan_solutions(*random_zero_sum(rng))[0]
        rot = random_structure_rotation(rng, G)
        assert form_norm(ddt_residual(pullback(rot, f), G)) < 1e-9 * max(
            1.0, form_norm(f) ** 3
        )


@pytest.fixture(scope="module")
def cor_d2_draw(G):
    """The Cartan solutions and 14-part forms that corD2 draws at seed 0 and 1000 samples."""
    rng = np.random.default_rng([0, SUITE_IDS["corD2"]])
    fluxes, _, betas = _cartan_families(Campaign(seed=0, samples=1000), rng,
                                        lambda: G.proj2_14 @ rng.standard_normal(21))
    return KForm(7, 2, fluxes), KForm(7, 2, betas)


def rows(batch):
    return [KForm(batch.dim, batch.grade, c) for c in batch.coeffs]


def as_tuple(result):
    return result if isinstance(result, tuple) else (result,)


def assert_rows_are_single_calls(batched, singles, name):
    assert len(batched) == len(singles), name
    for i, (row, single) in enumerate(zip(batched, singles)):
        assert np.array_equal(row, single), (name, i)


class TestExactBatchRows:
    # A batch row is computed by the single-form call's arithmetic, scalar
    # powers included, so each row equals that call bit for bit.
    def test_solution_report(self, G, cor_d2_draw):
        fluxes, _ = cor_d2_draw
        rep = solution_report(fluxes, G)
        singles = [solution_report(f, G) for f in rows(fluxes)]
        def get(report, name):
            # A KForm field is compared by its coefficients.
            value = getattr(report, name)
            return value.coeffs if isinstance(value, KForm) else value

        for field in dataclasses.fields(DdtReport):
            assert_rows_are_single_calls(get(rep, field.name),
                                         [get(one, field.name) for one in singles], field.name)

    def test_bounds_solutions_and_reformulation(self, G, cor_d2_draw):
        fluxes, betas = cor_d2_draw
        for name, function, batch in (
            ("norm_bound_check", norm_bound_check, fluxes),
            ("cube_norm_bound", cube_norm_bound, betas),
            ("is_solution", is_solution, fluxes),
            ("reformulation_residual", reformulation_residual, fluxes),
        ):
            got = np.column_stack(as_tuple(function(batch, G)))
            want = [np.array(as_tuple(function(f, G))) for f in rows(batch)]
            assert_rows_are_single_calls(got, want, name)

    def test_metric_from_three_form(self, G, cor_d2_draw):
        fluxes, _ = cor_d2_draw
        for name, form in zip(("phi_f", "tilde_phi"), induced_phi(fluxes, G)):
            assert_rows_are_single_calls(metric_from_three_form(form).gram,
                                         [metric_from_three_form(r).gram for r in rows(form)],
                                         name)
