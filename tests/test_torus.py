"""Unit tests for the mode-by-mode torus analysis."""

import numpy as np
import pytest

from g2calc.forms import KForm, hodge, pullback, rel_residual, wedge
from g2calc.g2 import g2_bundle, standard_g2
from g2calc.ddt import graph_map
from g2calc.torus import (
    _coordinate_wedge,
    _kernel_total,
    CohomologySummary,
    adjoint_check,
    betti_one,
    harmonic_dim,
    mode_block,
)


@pytest.fixture(scope="module")
def G():
    return standard_g2()


@pytest.fixture(scope="module")
def perturbed():
    rng = np.random.default_rng(130)
    G = standard_g2()
    f = KForm(7, 2, 0.1 * rng.standard_normal(21))
    return g2_bundle(pullback(graph_map(f, G), G.phi))


class TestModeBlock:
    def test_shapes(self):
        mb = mode_block((1, 0, 0, 0, 0, 0, 0))
        assert mb.d0.shape == (7,)
        assert mb.d1.shape == (21, 7)
        assert mb.d1_prime.shape == (7, 7)
        assert mb.dstar1.shape == (7,)
        assert mb.stacked.shape == (8, 7)

    def test_derivative_squares_to_zero(self):
        rng = np.random.default_rng(131)
        for _ in range(20):
            mb = mode_block(rng.integers(-4, 5, size=7))
            assert np.abs(mb.d1 @ mb.d0).max() == 0.0

    def test_mode_covector_in_kernel(self):
        rng = np.random.default_rng(132)
        for _ in range(20):
            k = rng.integers(-4, 5, size=7)
            mb = mode_block(k)
            assert np.abs(mb.d1_prime @ k.astype(float)).max() < 1e-12

    def test_coclosed_row_golden(self):
        mb = mode_block((1, 0, 0, 0, 0, 0, 0))
        expected = np.zeros(7, dtype=complex)
        expected[0] = -1.0j
        assert np.allclose(mb.dstar1, expected, atol=1e-14)

    def test_middle_operator_column_golden(self, G):
        # For the first coordinate mode, the block column of e^1 is the
        # coefficient vector of star(e^01 ^ star_phi) times i.
        mb = mode_block((1, 0, 0, 0, 0, 0, 0))
        direct = hodge(wedge(KForm.monomial(7, (0, 1)), G.star_phi)).coeffs
        assert np.allclose(mb.d1_prime[:, 1], 1j * direct, atol=1e-14)

    def test_zero_mode_vanishes(self):
        mb = mode_block((0,) * 7)
        assert np.abs(mb.stacked).max() == 0.0

    def test_scale_factor_multiplies_middle_block(self):
        k = (2, -1, 0, 0, 3, 0, 0)
        base = mode_block(k, c=1.0)
        scaled = mode_block(k, c=-2.0)
        assert np.allclose(scaled.d1_prime, -2.0 * base.d1_prime, atol=1e-14)
        assert np.allclose(scaled.dstar1, base.dstar1, atol=1e-14)

    def test_nonzero_mode_has_trivial_stacked_kernel(self):
        mb = mode_block((1, 0, 0, 0, 0, 0, 0))
        assert np.linalg.matrix_rank(mb.stacked) == 7
        assert np.linalg.matrix_rank(mb.d1_prime) == 6

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            mode_block((1, 2, 3))


class TestProjectionDiagram:
    def test_fourteen_part_drops_out(self, G):
        # Wedging with star_phi kills the 14-part, so projecting first
        # must not change the middle operator.
        rng = np.random.default_rng(133)
        for _ in range(10):
            beta = KForm(7, 2, rng.standard_normal(21))
            full = hodge(wedge(beta, G.star_phi))
            projected = hodge(wedge(KForm(7, 2, G.proj2_7 @ beta.coeffs), G.star_phi))
            assert rel_residual(full.coeffs, projected.coeffs) < 1e-12


class TestAdjoint:
    def test_flat_identities_are_exact(self):
        rng = np.random.default_rng(134)
        for _ in range(20):
            k = rng.integers(-4, 5, size=7)
            mb = mode_block(k)
            opp = mode_block(-k)
            assert rel_residual(mb.d1_prime.conj().T, mb.d1_prime) == 0.0
            assert rel_residual(mb.d1_prime.conj(), opp.d1_prime) == 0.0
            assert rel_residual(opp.d1_prime.T, mb.d1_prime) == 0.0

    def test_check_function_flat(self):
        rng = np.random.default_rng(135)
        for _ in range(20):
            assert adjoint_check(rng.integers(-4, 5, size=7)) < 1e-12

    def test_check_function_perturbed(self, perturbed):
        rng = np.random.default_rng(136)
        for _ in range(20):
            assert adjoint_check(rng.integers(-4, 5, size=7), perturbed) < 1e-10


class TestDimensionCounts:
    def test_flat_box_one(self):
        summary = harmonic_dim(1)
        assert summary == CohomologySummary(1, 7, 0, 7)

    def test_flat_box_two(self):
        summary = harmonic_dim(2)
        assert (summary.dim_check_H1, summary.dim_H2, summary.b1) == (7, 0, 7)

    def test_betti_number(self):
        assert betti_one(1) == 7
        assert betti_one(2) == 7

    def test_scale_invariance(self):
        assert harmonic_dim(1, c=-2.0) == harmonic_dim(1, c=1.0)

    def test_perturbed_structure_keeps_dimensions(self, perturbed):
        summary = harmonic_dim(1, perturbed)
        assert (summary.dim_check_H1, summary.dim_H2, summary.b1) == (7, 0, 7)

    def test_chunking_does_not_change_counts(self):
        assert harmonic_dim(1, chunk=100) == harmonic_dim(1)

    def test_summary_serialises(self):
        payload = harmonic_dim(1).to_dict()
        assert payload == {"cutoff": 1, "dim_check_H1": 7, "dim_H2": 0, "b1": 7}


class TestKernelCounter:
    @pytest.mark.parametrize("cutoff", [1, 2])
    def test_known_kernel_oracle(self, cutoff):
        # k ^ . on 1-forms is zero at k = 0 and has kernel span(k) at every
        # other mode, so the box holds 7 + (side^7 - 1) kernel dimensions.
        side = 2 * cutoff + 1
        assert _kernel_total(_coordinate_wedge(7, 1), cutoff, 65536) == 7 + side**7 - 1

    def test_coordinate_wedge_slices(self):
        rng = np.random.default_rng(140)
        for g in range(7):
            beta = KForm(7, g, rng.standard_normal(_coordinate_wedge(7, g).shape[2]))
            for j in range(7):
                want = wedge(KForm.monomial(7, (j,)), beta).coeffs
                assert np.array_equal(_coordinate_wedge(7, g)[j] @ beta.coeffs, want)

