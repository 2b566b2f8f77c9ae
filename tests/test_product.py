"""Unit tests for the reduction between a threefold and the seven dimensional model."""

import dataclasses

import numpy as np
import pytest

import g2calc.product as product_module
import g2calc.ddt as ddt_module
from g2calc.forms import KForm, form_norm, pullback, rel_residual, wedge, _wedge_power
from g2calc.g2 import standard_g2
from g2calc.ddt import ddt_residual, is_solution, solution_report
from g2calc.dhym import pq_project, standard_kahler
from g2calc.product import (
    SU3Point,
    correspondence_check,
    lift,
    product_g2,
    product_phi,
    product_psi,
    standard_su3,
    zero_phase_flux,
    _zero_phase_draw,
    _zero_phase_fluxes,
)

from support import dx_split


@pytest.fixture(scope="module")
def su3():
    return standard_su3()


@pytest.fixture(scope="module")
def bundle(su3):
    return product_g2(su3)


class TestStandardVolumeForm:
    def test_real_part_monomials(self, su3):
        re = su3.re_holo
        assert re.coefficient((0, 2, 4)) == 1.0
        assert re.coefficient((0, 3, 5)) == -1.0
        assert re.coefficient((1, 2, 5)) == -1.0
        assert re.coefficient((1, 3, 4)) == -1.0
        assert np.count_nonzero(re.coeffs) == 4

    def test_imaginary_part_monomials(self, su3):
        im = su3.im_holo
        assert im.coefficient((0, 2, 5)) == 1.0
        assert im.coefficient((0, 3, 4)) == 1.0
        assert im.coefficient((1, 2, 4)) == 1.0
        assert im.coefficient((1, 3, 5)) == -1.0
        assert np.count_nonzero(im.coeffs) == 4

    def test_volume_pairing(self, su3):
        conj = KForm(6, 3, su3.holo.coeffs.conj())
        vol = (1.0 / 6.0) * _wedge_power(su3.omega, 3)
        assert np.array_equal(wedge(su3.holo, conj).coeffs, -8.0j * vol.coeffs)

    def test_annihilates_fundamental_form(self, su3):
        assert form_norm(wedge(su3.omega, su3.holo)) == 0.0

    def test_is_pure_type(self, su3):
        pure = pq_project(su3.point, su3.holo, 3, 0)
        assert rel_residual(pure.coeffs, su3.holo.coeffs) < 1e-13

    def test_rescaled_volume_rejected(self, su3):
        with pytest.raises(ValueError, match="normalised"):
            SU3Point(su3.point, 2.0 * su3.holo)

    def test_contaminated_volume_rejected(self, su3):
        bad = KForm(6, 3, su3.holo.coeffs + 0.5 * np.eye(20, dtype=complex)[0])
        with pytest.raises(ValueError):
            SU3Point(su3.point, bad)


class TestProductForms:
    def test_phi_matches_standard_exactly(self, su3):
        assert np.array_equal(product_phi(su3).coeffs, standard_g2().phi.coeffs)

    def test_psi_matches_standard_exactly(self, su3):
        assert np.array_equal(product_psi(su3).coeffs, standard_g2().star_phi.coeffs)

    def test_bundle_metric_is_flat(self, bundle):
        assert rel_residual(bundle.metric.gram, np.eye(7)) < 1e-13
        assert bundle.metric.orientation == 1

    def test_bundle_dual_form(self, su3, bundle):
        assert rel_residual(bundle.star_phi.coeffs, product_psi(su3).coeffs) < 1e-13


class TestLift:
    def test_roundtrip(self):
        rng = np.random.default_rng(110)
        for k in (1, 2, 3, 4, 6):
            a = KForm(7, k, rng.standard_normal(len(KForm.zero(7, k).coeffs)))
            low, high = dx_split(a)
            rebuilt = lift(low, with_dx=True) + lift(high)
            assert np.array_equal(rebuilt.coeffs, a.coeffs)

    def test_preserves_norm(self):
        rng = np.random.default_rng(111)
        a = KForm(6, 3, rng.standard_normal(20))
        assert form_norm(lift(a)) == pytest.approx(form_norm(a), rel=1e-13)
        assert form_norm(lift(a, with_dx=True)) == pytest.approx(form_norm(a), rel=1e-13)

    def test_commutes_with_wedge(self):
        rng = np.random.default_rng(112)
        a = KForm(6, 2, rng.standard_normal(15))
        b = KForm(6, 3, rng.standard_normal(20))
        assert rel_residual(
            wedge(lift(a), lift(b)).coeffs, lift(wedge(a, b)).coeffs
        ) < 1e-13

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            lift(KForm.zero(7, 2))


class TestResidualDecomposition:
    def test_exact_split(self, su3, bundle):
        rng = np.random.default_rng(113)
        for _ in range(50):
            f = KForm(6, 2, rng.standard_normal(15))
            residual = ddt_residual(lift(f), bundle)
            rho = KForm(6, 2, su3.omega.coeffs + 1j * f.coeffs)
            phase = KForm(6, 6, (1.0 / 6.0) * np.imag(_wedge_power(rho, 3).coeffs))
            anti = wedge(f, su3.im_holo)
            predicted = lift(phase) - lift(anti, with_dx=True)
            assert rel_residual(residual.coeffs, predicted.coeffs) < 1e-12

    def test_components_are_orthogonal(self, su3, bundle):
        rng = np.random.default_rng(114)
        for _ in range(20):
            f = KForm(6, 2, rng.standard_normal(15))
            residual = ddt_residual(lift(f), bundle)
            rho = KForm(6, 2, su3.omega.coeffs + 1j * f.coeffs)
            phase = KForm(6, 6, (1.0 / 6.0) * np.imag(_wedge_power(rho, 3).coeffs))
            anti = wedge(f, su3.im_holo)
            lhs = form_norm(residual) ** 2
            rhs = form_norm(phase) ** 2 + form_norm(anti) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_antiholomorphic_pairing_measures_type(self, su3):
        rng = np.random.default_rng(115)
        for _ in range(50):
            f = KForm(6, 2, rng.standard_normal(15))
            pairing = form_norm(wedge(f, su3.im_holo))
            p02 = form_norm(pq_project(su3.point, f, 0, 2))
            assert pairing == pytest.approx(2.0 * p02, rel=1e-10, abs=1e-12)


class TestCorrespondence:
    def test_zero_phase_fluxes_solve_both_sides(self, su3):
        rng = np.random.default_rng(116)
        for _ in range(25):
            f = zero_phase_flux(rng, su3)
            rep = correspondence_check(su3, f)
            assert rep.ddt_solves
            assert rep.su3_solves
            assert rep.agree

    def test_lifted_solution_passes_seven_dim_report(self, su3, bundle):
        rng = np.random.default_rng(117)
        rep = solution_report(lift(zero_phase_flux(rng, su3)), bundle)
        assert rep.lhs_minus_rhs_norm < 1e-8
        assert rep.conformal_residual < 1e-8

    def test_each_row_of_a_batch_is_the_single_call(self, su3):
        # Zero-phase fluxes sit on both solution thresholds; random ones of two sizes do not.
        rng = np.random.default_rng(119)
        pairs, generators = zip(*[_zero_phase_draw(rng, su3) for _ in range(334)])
        fluxes = np.concatenate([
            _zero_phase_fluxes(su3, np.array(pairs), np.array(generators)).coeffs,
            1.5 * rng.standard_normal((333, 15)),
            0.3 * rng.standard_normal((333, 15)),
        ])
        rep = correspondence_check(su3, KForm(6, 2, fluxes))
        for i, row in enumerate(fluxes):
            one = correspondence_check(su3, KForm(6, 2, row))
            for field in dataclasses.fields(one):
                assert np.array_equal(getattr(rep, field.name)[i], getattr(one, field.name)), (
                    field.name, i)

    def test_random_fluxes_agree(self, su3):
        rng = np.random.default_rng(118)
        for _ in range(200):
            f = KForm(6, 2, 1.5 * rng.standard_normal(15))
            rep = correspondence_check(su3, f)
            assert rep.agree
            assert not rep.ddt_solves

    def test_seven_dim_side_is_the_solution_test_of_the_lift(self, su3, bundle, monkeypatch):
        rng = np.random.default_rng(140)
        fluxes = [zero_phase_flux(rng, su3)] + [
            KForm(6, 2, scale * rng.standard_normal(15)) for scale in (0.3, 1.5)
        ]
        for f in fluxes:
            for tol in (1e-8, 1e-30):
                rep = correspondence_check(su3, f, tol=tol)
                monkeypatch.setattr(ddt_module, "SOLUTION_TOL", tol)
                assert rep.ddt_solves == is_solution(lift(f), bundle)
                assert rep.ddt_residual_norm == form_norm(ddt_residual(lift(f), bundle),
                                                          bundle.metric)

    def test_fundamental_form_misses_phase(self, su3):
        rep = correspondence_check(su3, KForm(6, 2, su3.omega.coeffs))
        assert rep.phase_residual_norm == pytest.approx(2.0, rel=1e-12)
        assert rep.p02_norm < 1e-13
        assert not rep.su3_solves
        assert not rep.ddt_solves
        assert rep.agree

    def test_pure_antiholomorphic_obstruction(self, su3):
        # Zero phase residual yet failing on type alone; the lifted flux
        # must fail through the dx component and keep the sides agreeing.
        f = KForm.monomial(6, (0, 2)) - KForm.monomial(6, (1, 3))
        rep = correspondence_check(su3, f)
        assert rep.phase_residual_norm < 1e-13
        assert rep.p02_norm == pytest.approx(1.0, rel=1e-12)
        assert rep.antiholo_norm == pytest.approx(2.0, rel=1e-12)
        assert not rep.su3_solves
        assert not rep.ddt_solves
        assert rep.agree

    def test_zero_flux_solves(self, su3):
        rep = correspondence_check(su3, KForm.zero(6, 2))
        assert rep.ddt_solves and rep.su3_solves and rep.agree
        assert rep.ddt_residual_norm == 0.0

    def test_report_serialises(self, su3):
        payload = correspondence_check(su3, KForm.zero(6, 2)).to_dict()
        assert set(payload) == {
            "ddt_residual_norm",
            "phase_residual_norm",
            "antiholo_norm",
            "p02_norm",
            "ddt_solves",
            "su3_solves",
            "agree",
        }

    def test_rejects_complex_or_wrong_shape(self, su3):
        with pytest.raises(ValueError):
            correspondence_check(su3, KForm.zero(7, 2))
        with pytest.raises(ValueError):
            correspondence_check(su3, KForm(6, 2, np.zeros(15, dtype=complex)))

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-8, "1e-8", None, 1e-8j])
    def test_rejects_a_tolerance_that_is_not_finite_and_non_negative(self, su3, tol):
        # A NaN tolerance would read "solves" as False on both sides yet "agree"
        # as True, and an infinite one would let every flux solve.
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            correspondence_check(su3, KForm.zero(6, 2), tol=tol)


class TestZeroPhaseFlux:
    def test_angles_cancel_exactly(self, su3):
        rng = np.random.default_rng(119)
        from g2calc.dhym import normal_form, radius_angle

        for _ in range(20):
            f = zero_phase_flux(rng, su3)
            _, theta = radius_angle(normal_form(su3.point, f).lambdas)
            assert abs(theta) < 1e-13

    def test_bound_is_read_at_call_time(self, su3, monkeypatch):
        monkeypatch.setattr(product_module, "ZERO_PHASE_BOUND", 0.0)
        f = zero_phase_flux(np.random.default_rng(123), su3)
        assert np.all(f.coeffs == 0.0)

    def test_is_one_one(self, su3):
        rng = np.random.default_rng(120)
        f = zero_phase_flux(rng, su3)
        assert form_norm(pq_project(su3.point, f, 0, 2)) < 1e-13

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_row_of_a_stack_is_the_single_call(self, su3, seed):
        rng_single, rng_stack = np.random.default_rng([121, seed]), np.random.default_rng([121, seed])
        singles = [zero_phase_flux(rng_single, su3) for _ in range(40)]
        pairs, generators = zip(*[_zero_phase_draw(rng_stack, su3) for _ in range(40)])
        stack = _zero_phase_fluxes(su3, np.array(pairs), np.array(generators))
        assert stack.coeffs.shape == (40, 15)
        for row, single in zip(stack.coeffs, singles):
            assert np.array_equal(row, single.coeffs)
        assert rng_stack.bit_generator.state == rng_single.bit_generator.state
