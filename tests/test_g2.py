"""Unit tests for the standard G2 package and its decompositions."""

import dataclasses
from math import comb

import numpy as np
import pytest

from g2calc.ddt import ddt_residual, ddt_residual_decomposed, graph_map
from g2calc.forms import (
    KForm,
    LinearMap,
    Metric,
    flat,
    form_inner,
    form_norm,
    hodge,
    interior,
    pullback,
    rel_residual,
    wedge,
)
from g2calc.g2 import (
    G2Data,
    TwoFormSplit,
    assemble2,
    g2_bundle,
    identity_battery,
    metric_from_three_form,
    project2,
    project3,
    standard_g2,
)
from g2calc.torus import adjoint_check, harmonic_dim, harmonic_dims

from support import random_form, random_vector, standard_star_phi

REL = 1e-9


@pytest.fixture(scope="module")
def G() -> G2Data:
    return standard_g2()


def basis_vector(i: int) -> np.ndarray:
    v = np.zeros(7)
    v[i] = 1.0
    return v


class TestStandardForms:
    def test_phi_coefficients(self, G):
        phi = G.phi
        assert phi.coefficient((0, 1, 2)) == 1.0
        assert phi.coefficient((0, 3, 4)) == 1.0
        assert phi.coefficient((0, 5, 6)) == 1.0
        assert phi.coefficient((1, 3, 5)) == 1.0
        assert phi.coefficient((1, 4, 6)) == -1.0
        assert phi.coefficient((2, 3, 6)) == -1.0
        assert phi.coefficient((2, 4, 5)) == -1.0
        assert np.count_nonzero(phi.coeffs) == 7

    def test_star_phi_is_hodge_dual(self, G):
        assert np.array_equal(G.star_phi.coeffs, standard_star_phi().coeffs)
        assert np.array_equal(G.star_phi.coeffs, hodge(G.phi, G.metric).coeffs)

    def test_phi_norm_squared_is_seven(self, G):
        assert form_inner(G.phi, G.phi, G.metric) == pytest.approx(7.0, abs=1e-12)

    def test_interior_of_first_basis_vector(self, G):
        out = interior(basis_vector(0), G.phi)
        expected = (
            KForm.monomial(7, (1, 2)) + KForm.monomial(7, (3, 4)) + KForm.monomial(7, (5, 6))
        )
        assert np.array_equal(out.coeffs, expected.coeffs)


class TestInducedMetric:
    def test_standard_form_gives_flat_metric(self, G):
        m = metric_from_three_form(G.phi)
        assert np.abs(m.gram - np.eye(7)).max() < 1e-12
        assert m.orientation == 1

    def test_equivariance_near_identity(self, G):
        rng = np.random.default_rng(30)
        for _ in range(10):
            L = np.eye(7) + 0.15 * rng.standard_normal((7, 7))
            m = metric_from_three_form(pullback(LinearMap(7, L), G.phi))
            assert rel_residual(m.gram, L.T @ L) < 1e-9

    def test_uniform_scaling_squares(self, G):
        m = metric_from_three_form(pullback(LinearMap(7, 3.0 * np.eye(7)), G.phi))
        assert rel_residual(m.gram, 9.0 * np.eye(7)) < 1e-9

    def test_indefinite_form_rejected(self, G):
        coeffs = G.phi.coeffs.copy()
        coeffs[0] = -1.0  # flip the e123 monomial
        with pytest.raises(ValueError, match="not a G2 structure"):
            metric_from_three_form(KForm(7, 3, coeffs))

    def test_wrong_grade_rejected(self):
        with pytest.raises(ValueError):
            metric_from_three_form(KForm.zero(7, 2))

    def test_batch_gives_the_stack_of_row_metrics(self, G):
        rng = np.random.default_rng(31)
        maps = np.eye(7) + 0.15 * rng.standard_normal((5, 7, 7))
        phis = pullback(LinearMap(7, maps), G.phi)
        m = metric_from_three_form(phis)
        assert m.gram.shape == (5, 7, 7)
        for gram, L, c in zip(m.gram, maps, phis.coeffs):
            single = metric_from_three_form(KForm(7, 3, c))
            assert single.orientation == m.orientation
            assert rel_residual(gram, single.gram) < 1e-14
            assert rel_residual(gram, L.T @ L) < 1e-9

    def test_one_indefinite_row_rejects_the_batch(self, G):
        bad = G.phi.coeffs.copy()
        bad[0] = -1.0
        with pytest.raises(ValueError, match="not a G2 structure"):
            metric_from_three_form(KForm(7, 3, np.stack([G.phi.coeffs, bad])))

    def test_mixed_orientations_reject_the_batch(self, G):
        flip = np.diag([-1.0] + [1.0] * 6)
        phis = pullback(LinearMap(7, np.stack([np.eye(7), flip])), G.phi)
        assert metric_from_three_form(KForm(7, 3, phis.coeffs[1])).orientation == -1
        with pytest.raises(ValueError, match="one orientation"):
            metric_from_three_form(phis)


class TestTwoFormSplit:
    def test_traces(self, G):
        for proj, expected in ((G.proj2_7, 7), (G.proj2_14, 14)):
            tr = float(np.trace(proj))
            assert round(tr) == expected
            assert abs(tr - expected) < 1e-10

    def test_projection_algebra(self, G):
        assert np.abs(G.proj2_7 @ G.proj2_7 - G.proj2_7).max() < 1e-12
        assert np.abs(G.proj2_14 @ G.proj2_14 - G.proj2_14).max() < 1e-12
        assert np.abs(G.proj2_7 @ G.proj2_14).max() < 1e-12
        assert np.abs(G.proj2_7 + G.proj2_14 - np.eye(21)).max() < 1e-12

    def test_wedge_operator_eigenvalues(self, G):
        rng = np.random.default_rng(31)
        for _ in range(25):
            f = random_form(rng, 7, 2)
            p7 = KForm(7, 2, G.proj2_7 @ f.coeffs)
            p14 = KForm(7, 2, G.proj2_14 @ f.coeffs)
            assert rel_residual(
                hodge(wedge(G.phi, p7), G.metric).coeffs, 2.0 * p7.coeffs
            ) < REL
            assert rel_residual(
                hodge(wedge(G.phi, p14), G.metric).coeffs, -p14.coeffs
            ) < REL

    def test_contraction_is_pure_seven_part(self, G):
        split = project2(interior(basis_vector(0), G.phi), G)
        assert np.allclose(split.u, basis_vector(0))
        assert form_norm(split.f14) == 0.0

    def test_known_fourteen_part(self, G):
        beta = KForm.monomial(7, (1, 2)) - KForm.monomial(7, (3, 4))
        split = project2(beta, G)
        assert np.linalg.norm(split.u) < 1e-14
        assert rel_residual(
            hodge(wedge(G.phi, beta), G.metric).coeffs, -beta.coeffs
        ) < 1e-14

    def test_seven_part_norm_scaling(self, G):
        rng = np.random.default_rng(32)
        for _ in range(10):
            u = random_vector(rng, 7)
            iu = interior(u, G.phi)
            assert form_inner(iu, iu, G.metric) == pytest.approx(
                3.0 * float(u @ u), rel=1e-12
            )

    def test_reassembly(self, G):
        rng = np.random.default_rng(33)
        for _ in range(10):
            f = random_form(rng, 7, 2)
            split = project2(f, G)
            assert rel_residual(assemble2(split, G).coeffs, f.coeffs) < 1e-12

    def test_fourteen_part_wedge_vanishes(self, G):
        rng = np.random.default_rng(34)
        beta = KForm.monomial(7, (1, 2)) - KForm.monomial(7, (3, 4))
        assert form_norm(wedge(beta, G.star_phi), G.metric) == 0.0
        for _ in range(10):
            f = random_form(rng, 7, 2)
            p14 = KForm(7, 2, G.proj2_14 @ f.coeffs)
            assert form_norm(wedge(p14, G.star_phi), G.metric) < 1e-10 * max(1.0, form_norm(f))

    def test_seven_part_wedge_does_not_vanish(self, G):
        value = form_norm(wedge(interior(basis_vector(0), G.phi), G.star_phi), G.metric)
        assert value == pytest.approx(3.0, rel=1e-12)


class TestThreeFormSplit:
    def test_traces(self, G):
        for proj, expected in ((G.proj3_1, 1), (G.proj3_7, 7), (G.proj3_27, 27)):
            tr = float(np.trace(proj))
            assert round(tr) == expected
            assert abs(tr - expected) < 1e-10

    def test_projection_algebra(self, G):
        for p in (G.proj3_1, G.proj3_7, G.proj3_27):
            assert np.abs(p @ p - p).max() < 1e-10
        assert np.abs(G.proj3_1 @ G.proj3_7).max() < 1e-12
        assert np.abs(G.proj3_7 @ G.proj3_27).max() < 1e-10
        assert np.abs(G.proj3_1 + G.proj3_7 + G.proj3_27 - np.eye(35)).max() < 1e-12

    def test_phi_is_pure_singlet(self, G):
        g1, g7, g27 = project3(G.phi, G)
        assert rel_residual(g1.coeffs, G.phi.coeffs) < 1e-12
        assert form_norm(g7) < 1e-12
        assert form_norm(g27) < 1e-12

    def test_contraction_of_dual_is_pure_seven(self, G):
        gamma = interior(basis_vector(1), G.star_phi)
        g1, g7, g27 = project3(gamma, G)
        assert form_norm(g1) < 1e-13
        assert rel_residual(g7.coeffs, gamma.coeffs) < 1e-12
        assert form_norm(g27) < 1e-13

    def test_dual_contraction_norm_scaling(self, G):
        rng = np.random.default_rng(35)
        for _ in range(10):
            u = random_vector(rng, 7)
            gamma = interior(u, G.star_phi)
            assert form_inner(gamma, gamma, G.metric) == pytest.approx(
                4.0 * float(u @ u), rel=1e-12
            )

    def test_components_are_orthogonal(self, G):
        rng = np.random.default_rng(36)
        gamma = random_form(rng, 7, 3)
        g1, g7, g27 = project3(gamma, G)
        assert abs(form_inner(g1, g7, G.metric)) < 1e-10
        assert abs(form_inner(g1, g27, G.metric)) < 1e-10
        assert abs(form_inner(g7, g27, G.metric)) < 1e-10

    def test_singlet_carries_the_dual_pairing(self, G):
        # gamma ^ star_phi only sees the singlet component.
        rng = np.random.default_rng(37)
        for _ in range(10):
            gamma = random_form(rng, 7, 3)
            g1, _, _ = project3(gamma, G)
            assert rel_residual(
                wedge(gamma, G.star_phi).coeffs, wedge(g1, G.star_phi).coeffs
            ) < 1e-10


class TestIdentityBattery:
    def test_pure_vector(self, G):
        assert identity_battery(basis_vector(0), KForm.zero(7, 2), G) < 1e-14

    def test_zero_everything(self, G):
        assert identity_battery(np.zeros(7), KForm.zero(7, 2), G) == 0.0

    def test_random_samples(self, G):
        rng = np.random.default_rng(38)
        for _ in range(100):
            u = random_vector(rng, 7)
            beta = KForm(7, 2, G.proj2_14 @ random_form(rng, 7, 2).coeffs)
            assert identity_battery(u, beta, G) < REL


class TestPerturbedBundle:
    def test_bundle_from_nearby_form(self, G):
        rng = np.random.default_rng(39)
        L = np.eye(7) + 0.1 * rng.standard_normal((7, 7))
        data = g2_bundle(pullback(LinearMap(7, L), G.phi))
        for proj, expected in (
            (data.proj2_7, 7),
            (data.proj2_14, 14),
            (data.proj3_1, 1),
            (data.proj3_7, 7),
            (data.proj3_27, 27),
        ):
            tr = float(np.trace(proj))
            assert round(tr) == expected
            assert abs(tr - expected) < 1e-8
            assert np.abs(proj @ proj - proj).max() < 1e-8

    def test_battery_holds_in_perturbed_bundle(self):
        rng = np.random.default_rng(40)
        base = standard_g2()
        L = np.eye(7) + 0.1 * rng.standard_normal((7, 7))
        data = g2_bundle(pullback(LinearMap(7, L), base.phi))
        for _ in range(20):
            u = random_vector(rng, 7)
            beta = KForm(7, 2, data.proj2_14 @ random_form(rng, 7, 2).coeffs)
            assert identity_battery(u, beta, data) < 1e-8


ROWS = 32


def exact_row_cases():
    """(name, batched result, per-row single-form results) on a perturbed structure."""
    rng = np.random.default_rng(130)
    base = standard_g2()
    move = graph_map(KForm(7, 2, 0.1 * rng.standard_normal(21)), base)
    data = g2_bundle(pullback(move, base.phi))
    m = data.metric
    rng = np.random.default_rng(150)

    def batch(k):
        coeffs = rng.standard_normal((ROWS, comb(7, k)))
        return KForm(7, k, coeffs), [KForm(7, k, c) for c in coeffs]

    vectors = rng.standard_normal((ROWS, 7))
    for k in range(8):
        a, a_rows = batch(k)
        b, b_rows = batch(k)
        yield f"hodge {k}", hodge(a, m).coeffs, [hodge(r, m).coeffs for r in a_rows]
        yield (f"form_inner {k}", form_inner(a, b, m),
               [form_inner(x, y, m) for x, y in zip(a_rows, b_rows)])
        yield f"pullback {k}", pullback(move, a).coeffs, [pullback(move, r).coeffs for r in a_rows]
        yield (f"interior {k}", interior(vectors, a).coeffs,
               [interior(v, r).coeffs for v, r in zip(vectors, a_rows)])
        for l in range(8 - k):
            c, c_rows = batch(l)
            yield (f"wedge {k} {l}", wedge(a, c).coeffs,
                   [wedge(x, y).coeffs for x, y in zip(a_rows, c_rows)])
    f, f_rows = batch(2)
    split, splits = project2(f, data), [project2(r, data) for r in f_rows]
    yield "project2 u", split.u, [x.u for x in splits]
    yield "project2 f14", split.f14.coeffs, [x.f14.coeffs for x in splits]
    yield "flat", flat(vectors, m).coeffs, [flat(v, m).coeffs for v in vectors]


class TestExactBatchRows:
    def test_each_row_is_its_single_form_call(self):
        # A shared matrix is applied to each row as to one form, so a batch row
        # sums in the same order as its single-form call and equals it bit for bit.
        cases = list(exact_row_cases())
        assert len(cases) == 8 * 4 + 36 + 3
        for name, batched, singles in cases:
            assert len(batched) == ROWS, name
            for row, single in zip(batched, singles):
                assert np.array_equal(row, single), name


def drawn_phis(shape=(8,), scale=0.3, seed=160):
    """Positive 3-forms (1 + F#)* phi for a stack of drawn fluxes F."""
    base = standard_g2()
    fluxes = KForm(7, 2, scale * np.random.default_rng(seed).standard_normal(shape + (21,)))
    return pullback(graph_map(fluxes, base), base.phi)


def package_arrays(data):
    """Every field of a G2 package as an array: forms by coefficients, the metric by its Gram."""
    out = {}
    for f in dataclasses.fields(G2Data):
        if f.compare:
            value = getattr(data, f.name)
            out[f.name] = value.gram if isinstance(value, Metric) else getattr(value, "coeffs", value)
    return out


def single_calls(phis):
    """g2_bundle of each 3-form of a stack, in row order."""
    return [g2_bundle(KForm(7, 3, c)) for c in phis.coeffs.reshape(-1, 35)]


class TestStackedBundle:
    @pytest.mark.parametrize("shape, scale", [((8,), 0.3), ((8,), 1.0), ((2, 3), 0.05)])
    def test_each_row_is_its_single_call_byte_for_byte(self, shape, scale):
        phis = drawn_phis(shape, scale)
        stack = package_arrays(g2_bundle(phis))
        assert set(stack) == {"phi", "star_phi", "metric", "proj2_7", "proj2_14", "proj3_1",
                              "proj3_7", "proj3_27", "basis2_7"}
        for i, one in enumerate(single_calls(phis)):
            assert one.metric.orientation == 1
            for name, value in package_arrays(one).items():
                row = stack[name].reshape((-1,) + value.shape)[i]
                assert row.tobytes() == value.tobytes(), name


def consumer_calls():
    """call(data, i) for each public reader of a G2 package: on batched arguments for i = None,
    on their row i otherwise."""
    rng = np.random.default_rng(161)
    f, gamma, u = (rng.standard_normal((8, n)) for n in (21, 35, 7))

    def two_form(i):
        return KForm(7, 2, f if i is None else f[i])

    return {
        "project2": lambda data, i: project2(two_form(i), data).u,
        "assemble2": lambda data, i: assemble2(project2(two_form(i), data), data).coeffs,
        "project3": lambda data, i: np.stack(
            [part.coeffs for part in project3(KForm(7, 3, gamma if i is None else gamma[i]), data)], axis=-2),
        "identity_battery": lambda data, i: identity_battery(
            u if i is None else u[i], project2(two_form(i), data).f14, data),
        "ddt_residual": lambda data, i: ddt_residual(two_form(i), data).coeffs,
        "ddt_residual_decomposed": lambda data, i: ddt_residual_decomposed(two_form(i), data).coeffs,
        "harmonic_dims": lambda data, i: harmonic_dims(1, data),
        "harmonic_dim": lambda data, i: harmonic_dim(1, data),
        "adjoint_check": lambda data, i: adjoint_check((1, 0, -2, 0, 0, 3, 0), data),
    }


# The readers that need one structure, with the function their error names.
NEEDS_ONE_STRUCTURE = {"harmonic_dims": "harmonic_dims", "harmonic_dim": "harmonic_dims",
                       "adjoint_check": "adjoint_check"}


@pytest.mark.parametrize("name", list(consumer_calls()))
def test_a_stacked_package_works_row_by_row_or_is_refused(name):
    # A reader of a G2 package either gives in each row its single call on that row of the
    # stack and of the arguments, or raises ValueError saying that it needs one structure.
    phis = drawn_phis()
    stack, singles = g2_bundle(phis), single_calls(phis)
    call = consumer_calls()[name]
    if name in NEEDS_ONE_STRUCTURE:
        with pytest.raises(ValueError, match=f"^{NEEDS_ONE_STRUCTURE[name]} needs one G2 structure, got a stack of shape \\(8,\\)$"):
            call(stack, None)
        assert call(singles[0], 0) is not None
        return
    batched = call(stack, None)
    assert len(batched) == 8
    for i, one in enumerate(singles):
        assert np.array_equal(batched[i], call(one, i)), i
