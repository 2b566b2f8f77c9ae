"""Unit tests for the exterior algebra layer."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2calc import forms
from g2calc.forms import (
    ABS_FLOOR,
    KForm,
    LinearMap,
    Metric,
    euclidean_metric,
    exterior_power,
    flat,
    form_inner,
    form_norm,
    hodge,
    interior,
    interior_matrix,
    multi_indices,
    pullback,
    rel_residual,
    row_residual,
    sharp2,
    wedge,
    wedge_matrix,
    _contract,
    _interior_terms,
    _matvec,
    _skew,
    _two_form,
    _upper_pairs,
    _wedge_table,
    _wedge_terms,
)
from g2calc.g2 import metric_from_three_form, standard_g2

from support import evaluate, evaluate_wedge, random_form, random_metric, random_vector

REL = 1e-9

coeff = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


class TestKFormBasics:
    def test_zero_has_right_length(self):
        z = KForm.zero(7, 3)
        assert z.coeffs.shape == (35,)
        assert not z.coeffs.any()

    def test_monomial_sign_normalisation(self):
        a = KForm.monomial(4, (1, 0))
        b = KForm.monomial(4, (0, 1))
        assert np.array_equal(a.coeffs, -b.coeffs)

    def test_monomial_rejects_repeats(self):
        with pytest.raises(ValueError):
            KForm.monomial(4, (1, 1))

    @pytest.mark.parametrize("build, match", [
        (lambda: KForm.monomial(7, (7,)), "0..6"),
        (lambda: KForm.monomial(7, (-1,)), "0..6"),
        (lambda: KForm.monomial(7, (0,)).coefficient((9,)), "0..6"),
        (lambda: KForm.monomial(7, (0, 1)).coefficient((1, 1)), "repeated"),
        (lambda: KForm.monomial(7, (0, 1)).coefficient((1,)), "2 indices"),
    ], ids=["monomial-7", "monomial-minus-1", "coefficient-9", "coefficient-1-1", "coefficient-1"])
    def test_bad_indices_raise_value_error(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    def test_bad_grade_rejected(self):
        with pytest.raises(ValueError):
            KForm(4, 5, np.zeros(1))

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            KForm(9, 1, np.zeros(9))

    def test_wrong_coeff_count_rejected(self):
        with pytest.raises(ValueError):
            KForm(4, 2, np.zeros(5))

    def test_addition_requires_matching_grade(self):
        with pytest.raises(ValueError):
            KForm.zero(4, 1) + KForm.zero(4, 2)

    def test_coeffs_are_immutable(self):
        z = KForm.zero(4, 1)
        with pytest.raises(ValueError):
            z.coeffs[0] = 1.0

    def test_roundtrip_serialisation(self):
        rng = np.random.default_rng(0)
        a = random_form(rng, 6, 3)
        payload = a.to_dict()
        again = KForm(payload["dim"], payload["grade"], np.array(payload["coeffs"]))
        assert np.allclose(a.coeffs, again.coeffs, rtol=0, atol=0)

    def test_coefficient_accessor_tracks_signs(self):
        a = KForm.monomial(5, (0, 2, 3), 2.5)
        assert a.coefficient((0, 2, 3)) == 2.5
        assert a.coefficient((2, 0, 3)) == -2.5


class TestWedge:
    def test_basis_monomials(self):
        e1 = KForm.monomial(4, (0,))
        e2 = KForm.monomial(4, (1,))
        assert wedge(e1, e2).coefficient((0, 1)) == 1.0

    def test_repeated_index_vanishes(self):
        e12 = KForm.monomial(4, (0, 1))
        e13 = KForm.monomial(4, (0, 2))
        assert not wedge(e12, e13).coeffs.any()

    def test_known_cancellation_is_exact(self):
        # (e23 - e45) ^ (e24 + e35) = 0 with exact zero coefficients.
        f = KForm.monomial(7, (1, 2)) - KForm.monomial(7, (3, 4))
        g = KForm.monomial(7, (1, 3)) + KForm.monomial(7, (2, 4))
        assert not wedge(f, g).coeffs.any()

    def test_grade_overflow_returns_top_zero(self):
        a = KForm(4, 3, np.ones(4))
        out = wedge(a, KForm(4, 2, np.ones(6)))
        assert out.grade == 4
        assert not out.coeffs.any()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            wedge(KForm.zero(4, 1), KForm.zero(5, 1))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(coeff, min_size=6, max_size=6), st.lists(coeff, min_size=6, max_size=6))
    def test_one_forms_anticommute(self, xs, ys):
        a = KForm(6, 1, np.array(xs))
        b = KForm(6, 1, np.array(ys))
        assert np.allclose(wedge(a, b).coeffs, -wedge(b, a).coeffs)

    def test_graded_commutation(self):
        rng = np.random.default_rng(1)
        for k, l in [(1, 2), (2, 2), (2, 3), (1, 3), (3, 3)]:
            a = random_form(rng, 7, k)
            b = random_form(rng, 7, l)
            sign = (-1) ** (k * l)
            assert rel_residual(wedge(a, b).coeffs, sign * wedge(b, a).coeffs) < REL

    def test_associativity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = random_form(rng, 7, 2)
            b = random_form(rng, 7, 2)
            c = random_form(rng, 7, 2)
            assert rel_residual(
                wedge(wedge(a, b), c).coeffs, wedge(a, wedge(b, c)).coeffs
            ) < REL

    def test_against_shuffle_evaluation(self):
        rng = np.random.default_rng(3)
        for k, l in [(1, 1), (1, 2), (2, 2), (2, 1), (3, 1)]:
            a = random_form(rng, 6, k)
            b = random_form(rng, 6, l)
            w = wedge(a, b)
            for _ in range(4):
                vectors = [random_vector(rng, 6) for _ in range(k + l)]
                direct = evaluate_wedge(a, b, vectors)
                assert abs(evaluate(w, vectors) - direct) < 1e-9 * max(1.0, abs(direct))

    def test_seven_one_forms_give_determinant(self):
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((7, 7))
        acc = KForm(7, 0, np.ones(1))
        for i in range(7):
            acc = wedge(acc, KForm(7, 1, rows[i]))
        assert abs(acc.coeffs[0] - np.linalg.det(rows)) < 1e-9 * abs(np.linalg.det(rows))


class TestInterior:
    def test_basis_contraction(self):
        e12 = KForm.monomial(4, (0, 1))
        v = np.zeros(4)
        v[0] = 1.0
        out = interior(v, e12)
        assert out.coefficient((1,)) == 1.0

    def test_second_slot_picks_up_sign(self):
        e12 = KForm.monomial(4, (0, 1))
        v = np.zeros(4)
        v[1] = 1.0
        assert interior(v, e12).coefficient((0,)) == -1.0

    def test_grade_zero_gives_zero(self):
        out = interior(np.ones(4), KForm(4, 0, np.array([3.0])))
        assert out.grade == 0
        assert not out.coeffs.any()

    def test_nilpotent(self):
        rng = np.random.default_rng(5)
        v = random_vector(rng, 7)
        a = random_form(rng, 7, 3)
        assert form_norm(interior(v, interior(v, a))) < 1e-12

    def test_antiderivation(self):
        rng = np.random.default_rng(6)
        for k, l in [(1, 2), (2, 2), (2, 3)]:
            a = random_form(rng, 7, k)
            b = random_form(rng, 7, l)
            v = random_vector(rng, 7)
            lhs = interior(v, wedge(a, b))
            rhs = wedge(interior(v, a), b) + ((-1) ** k) * wedge(a, interior(v, b))
            assert rel_residual(lhs.coeffs, rhs.coeffs) < REL

    def test_against_direct_evaluation(self):
        rng = np.random.default_rng(7)
        for k in (1, 2, 3, 4):
            a = random_form(rng, 6, k)
            v = random_vector(rng, 6)
            out = interior(v, a)
            for _ in range(4):
                rest = [random_vector(rng, 6) for _ in range(k - 1)]
                want = evaluate(a, [v] + rest)
                assert abs(evaluate(out, rest) - want) < 1e-9 * max(1.0, abs(want))

    def test_vector_shape_checked(self):
        with pytest.raises(ValueError):
            interior(np.zeros(5), KForm.zero(4, 2))


class TestHodge:
    def test_standard_three_form(self):
        a = KForm.monomial(7, (0, 1, 2))
        out = hodge(a)
        assert out.coefficient((3, 4, 5, 6)) == 1.0
        assert np.count_nonzero(out.coeffs) == 1

    def test_star_of_one_is_volume(self):
        rng = np.random.default_rng(8)
        for n in (6, 7, 8):
            for orientation in (1, -1):
                m = random_metric(rng, n, orientation)
                one = KForm(n, 0, np.array([1.0]))
                assert rel_residual(hodge(one, m).coeffs, m.volume_form().coeffs) < REL
                assert abs(hodge(m.volume_form(), m).coeffs[0] - 1.0) < REL

    def test_defining_property(self):
        # beta ^ star(alpha) = <beta, alpha> vol, for random metrics and grades.
        rng = np.random.default_rng(9)
        for n in (6, 7, 8):
            m = random_metric(rng, n, 1 if n != 7 else -1)
            for k in range(n + 1):
                a = random_form(rng, n, k)
                b = random_form(rng, n, k)
                lhs = wedge(b, hodge(a, m))
                rhs = form_inner(b, a, m) * m.volume_form()
                assert rel_residual(lhs.coeffs, rhs.coeffs) < REL

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=6, max_value=8), st.integers(min_value=0, max_value=8), st.integers())
    def test_double_star_sign(self, n, k, seed):
        if k > n:
            k = n
        rng = np.random.default_rng(abs(seed) % 2**32)
        m = random_metric(rng, n)
        a = random_form(rng, n, k)
        twice = hodge(hodge(a, m), m)
        sign = (-1) ** (k * (n - k))
        assert rel_residual(twice.coeffs, sign * a.coeffs) < REL

    def test_star_is_isometry(self):
        rng = np.random.default_rng(10)
        for n in (6, 7, 8):
            m = random_metric(rng, n)
            for k in range(n + 1):
                a = random_form(rng, n, k)
                b = random_form(rng, n, k)
                assert abs(
                    form_inner(hodge(a, m), hodge(b, m), m) - form_inner(a, b, m)
                ) < REL * max(1.0, abs(form_inner(a, b, m)))

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("orientation", [1, -1])
    def test_euclidean_star_is_signed_complement(self, n, orientation):
        m = Metric(n, np.eye(n), orientation)
        for k in range(n + 1):
            dst, signs = reference_complement_table(n, k)
            want = np.zeros((comb(n, n - k), comb(n, k)))
            want[dst, np.arange(comb(n, k))] = orientation * signs
            assert np.array_equal(m.hodge_matrix(k), want)

    def test_orientation_flips_star(self):
        a = KForm.monomial(7, (0, 1, 2))
        plus = hodge(a, Metric(7, np.eye(7), 1))
        minus = hodge(a, Metric(7, np.eye(7), -1))
        assert np.allclose(plus.coeffs, -minus.coeffs)


class TestStarInteriorIdentities:
    """The four star/interior/flat compatibility identities, random data."""

    def test_all_four(self):
        rng = np.random.default_rng(11)
        for n in (6, 7, 8):
            for trial in range(60):
                m = random_metric(rng, n) if trial % 3 == 0 else euclidean_metric(n)
                k = int(rng.integers(0, n + 1))
                a = random_form(rng, n, k)
                b = random_form(rng, n, k)
                v = random_vector(rng, n)
                vb = flat(v, m)

                twice = hodge(hodge(a, m), m)
                assert rel_residual(twice.coeffs, ((-1) ** (k * (n - k))) * a.coeffs) < REL

                assert abs(
                    form_inner(hodge(a, m), hodge(b, m), m) - form_inner(a, b, m)
                ) < REL * max(1.0, abs(form_inner(a, b, m)))

                lhs = interior(v, hodge(a, m))
                rhs = ((-1) ** k) * hodge(wedge(vb, a), m)
                assert rel_residual(lhs.coeffs, rhs.coeffs) < REL

                lhs2 = hodge(interior(v, a), m) if k >= 1 else KForm.zero(n, n)
                rhs2 = ((-1) ** (k + 1)) * wedge(vb, hodge(a, m))
                if k >= 1:
                    assert rel_residual(lhs2.coeffs, rhs2.coeffs) < REL


class TestMusical:
    def test_flat_with_diagonal_metric(self):
        g = np.eye(7)
        g[0, 0] = 4.0
        m = Metric(7, g)
        v = np.zeros(7)
        v[0] = 1.0
        assert flat(v, m).coefficient((0,)) == 4.0

    def test_flat_sharp_roundtrip(self):
        rng = np.random.default_rng(12)
        m = random_metric(rng, 6)
        v = random_vector(rng, 6)
        assert np.allclose(np.linalg.solve(m.gram, flat(v, m).coeffs), v)

    def test_complex_flat_sharp_roundtrip(self):
        rng = np.random.default_rng(14)
        m = random_metric(rng, 6)
        alpha = KForm(6, 1, random_vector(rng, 6) + 1j * random_vector(rng, 6))
        back = flat(np.linalg.solve(m.gram, alpha.coeffs), m)
        assert back.coeffs.dtype == np.complex128
        assert rel_residual(back.coeffs, alpha.coeffs) < REL
        assert flat(np.array([1j, 0, 0]), euclidean_metric(3)).coeffs[0] == 1j

    def test_real_flat_is_unchanged(self):
        # The real path as it was before complex vectors were kept: g @ v in float64.
        rng = np.random.default_rng(15)
        m = random_metric(rng, 7)
        vs = [random_vector(rng, 7), rng.standard_normal((3, 7)), np.arange(7), [1, 0, 0, 0, 0, 0, 2]]
        for v in vs:
            got = flat(v, m).coeffs
            assert got.dtype == np.float64
            assert np.array_equal(got, _matvec(m.gram, np.asarray(v, dtype=np.float64)))

    def test_flat_is_metric_pairing(self):
        rng = np.random.default_rng(13)
        m = random_metric(rng, 7)
        v = random_vector(rng, 7)
        w = random_vector(rng, 7)
        assert abs(evaluate(flat(v, m), [w]) - v @ m.gram @ w) < 1e-9

    def test_sharp2_sign_convention(self):
        # Pinned: g(F#(u), v) = F(u, v), so F = e1^e2 rotates e1 to e2.
        f = KForm.monomial(7, (0, 1))
        L = sharp2(f, euclidean_metric(7))
        e1 = np.zeros(7)
        e1[0] = 1.0
        e2 = np.zeros(7)
        e2[1] = 1.0
        assert np.allclose(L.matrix @ e1, e2)
        assert np.allclose(L.matrix @ e2, -e1)

    def test_sharp2_reproduces_pairing(self):
        rng = np.random.default_rng(14)
        m = random_metric(rng, 7)
        f = random_form(rng, 7, 2)
        L = sharp2(f, m)
        for _ in range(5):
            u = random_vector(rng, 7)
            w = random_vector(rng, 7)
            assert abs((L.matrix @ u) @ m.gram @ w - evaluate(f, [u, w])) < 1e-8

    def test_sharp2_is_gram_skew(self):
        rng = np.random.default_rng(15)
        m = random_metric(rng, 7)
        f = random_form(rng, 7, 2)
        M = sharp2(f, m).matrix
        assert np.abs(m.gram @ M + M.T @ m.gram).max() < 1e-10

    def test_sharp2_requires_two_form(self):
        with pytest.raises(ValueError):
            sharp2(KForm.zero(7, 1), euclidean_metric(7))


class TestResiduals:
    def test_rel_residual_is_row_residual_of_flattened_operands(self):
        rng = np.random.default_rng(380)
        real = rng.standard_normal((2, 35))
        cplx = real + 1j * rng.standard_normal((2, 35))
        mat = rng.standard_normal((2, 5, 7))
        tiny = 0.1 * ABS_FLOOR * rng.standard_normal((2, 4))
        nan_row = np.array([1.0, np.nan, 2.0])
        pairs = [
            (real[0], real[1]), (cplx[0], cplx[1]), (real[0], cplx[1]),
            (mat[0], mat[1]), (real[0].tolist(), real[1].tolist()), (2.0, 3.0),
            (tiny[0], tiny[1]), (tiny[0], np.zeros(4)),
            (nan_row, np.ones(3)), (np.ones(3), nan_row),
        ]
        for lhs, rhs in pairs:
            got = rel_residual(lhs, rhs)
            want = row_residual(np.ravel(lhs), np.ravel(rhs))
            assert type(got) is float
            assert np.array_equal(got, want, equal_nan=True)

    def test_operands_below_the_floor_compare_absolutely(self):
        a, b = np.array([3e-13, 0.0]), np.array([0.0, 4e-13])
        assert rel_residual(a, b) == float(np.linalg.norm(a - b))
        assert np.isnan(rel_residual([np.nan], [0.0]))
        assert np.isnan(rel_residual([0.0], [np.nan]))


class TestPullback:
    def test_identity(self):
        rng = np.random.default_rng(16)
        a = random_form(rng, 7, 3)
        out = pullback(LinearMap(7, np.eye(7)), a)
        assert np.allclose(out.coeffs, a.coeffs)

    def test_uniform_scaling(self):
        a = KForm.monomial(7, (0, 1, 2))
        out = pullback(LinearMap(7, 2.0 * np.eye(7)), a)
        assert out.coefficient((0, 1, 2)) == pytest.approx(8.0, rel=1e-12)

    def test_functoriality(self):
        rng = np.random.default_rng(17)
        for k in (1, 2, 3):
            a = random_form(rng, 6, k)
            L = LinearMap(6, rng.standard_normal((6, 6)))
            M = LinearMap(6, rng.standard_normal((6, 6)))
            lhs = pullback(LinearMap(6, L.matrix @ M.matrix), a)
            rhs = pullback(M, pullback(L, a))
            assert rel_residual(lhs.coeffs, rhs.coeffs) < REL

    def test_against_direct_evaluation(self):
        rng = np.random.default_rng(18)
        for k in (1, 2, 3):
            a = random_form(rng, 6, k)
            L = LinearMap(6, rng.standard_normal((6, 6)))
            out = pullback(L, a)
            for _ in range(4):
                vs = [random_vector(rng, 6) for _ in range(k)]
                want = evaluate(a, [L.matrix @ v for v in vs])
                assert abs(evaluate(out, vs) - want) < 1e-9 * max(1.0, abs(want))

    def test_grade_zero_passthrough(self):
        a = KForm(6, 0, np.array([2.0]))
        out = pullback(LinearMap(6, np.zeros((6, 6))), a)
        assert out.coeffs[0] == 2.0

    def test_complex_coefficients_supported(self):
        rng = np.random.default_rng(19)
        a = KForm(6, 2, rng.standard_normal(15) + 1j * rng.standard_normal(15))
        L = LinearMap(6, rng.standard_normal((6, 6)))
        out = pullback(L, a)
        re = pullback(L, KForm(6, 2, a.coeffs.real))
        im = pullback(L, KForm(6, 2, a.coeffs.imag))
        assert np.allclose(out.coeffs, re.coeffs + 1j * im.coeffs)


class TestInner:
    def test_orthonormal_basis(self):
        m = euclidean_metric(7)
        assert form_inner(KForm.monomial(7, (0, 1)), KForm.monomial(7, (0, 1)), m) == 1.0
        assert form_inner(KForm.monomial(7, (0, 1)), KForm.monomial(7, (2, 3)), m) == 0.0

    def test_positive_definite(self):
        rng = np.random.default_rng(20)
        for n in (6, 7):
            m = random_metric(rng, n)
            for k in range(n + 1):
                a = random_form(rng, n, k)
                assert form_inner(a, a, m) > 0

    def test_decomposable_inner_is_gram_determinant(self):
        rng = np.random.default_rng(21)
        m = random_metric(rng, 6)
        us = [random_form(rng, 6, 1) for _ in range(2)]
        vs = [random_form(rng, 6, 1) for _ in range(2)]
        lhs = form_inner(wedge(us[0], us[1]), wedge(vs[0], vs[1]), m)
        gram = np.array([[form_inner(u, v, m) for v in vs] for u in us])
        assert abs(lhs - np.linalg.det(gram)) < 1e-9 * max(1.0, abs(lhs))


class TestMetricValidation:
    def test_rejects_asymmetric(self):
        g = np.eye(4)
        g[0, 1] = 0.5
        with pytest.raises(ValueError):
            Metric(4, g)

    def test_rejects_indefinite(self):
        g = np.eye(4)
        g[3, 3] = -1.0
        with pytest.raises(ValueError):
            Metric(4, g)

    def test_rejects_bad_orientation(self):
        with pytest.raises(ValueError):
            Metric(4, np.eye(4), 2)

    def test_nan_eigenvalue_fails_the_definiteness_test(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(a.shape[:-1], np.nan))
        with pytest.raises(ValueError, match="positive definite"):
            Metric(2, np.eye(2))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_rejects_non_finite_entries(self, bad, entry):
        # Metric(2, [[inf, 0], [0, 1]]) used to construct.
        g = np.eye(2)
        g[entry] = g[entry[::-1]] = bad
        with pytest.raises(ValueError, match="finite"):
            Metric(2, g)
        with pytest.raises(ValueError, match="finite"):
            Metric(2, np.stack([np.eye(2), g, 2.0 * np.eye(2)]))

    def test_volume_uses_orientation_and_determinant(self):
        g = 4.0 * np.eye(2)
        m = Metric(2, g, -1)
        assert m.volume_form().coeffs[0] == pytest.approx(-4.0, rel=1e-12)


class TestKernels:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_wedge_matrix_reproduces_wedge(self, n):
        rng = np.random.default_rng(220 + n)
        for k in range(n + 1):
            for l in range(n + 1):
                for imag in (0.0, 1.0):
                    a = KForm(n, k, random_form(rng, n, k).coeffs
                              + imag * 1j * rng.standard_normal(comb(n, k)))
                    b = random_form(rng, n, l)
                    # The oracle is the scatter sum, which shares no table with forms.
                    want = scatter_wedge(a, b).coeffs
                    got = wedge_matrix(a, l) @ b.coeffs
                    assert got.shape == want.shape
                    assert np.iscomplexobj(got) == np.iscomplexobj(a.coeffs)
                    assert rel_residual(got, want) < 1e-13

    def test_wedge_matrix_past_the_top_is_zero(self):
        a = KForm.monomial(5, (0, 1, 2))
        mat = wedge_matrix(a, 3)
        assert mat.shape == (1, 10)
        assert not mat.any()

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_exterior_power_is_multiplicative(self, n):
        rng = np.random.default_rng(230 + n)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for k in range(n + 1):
            lhs = exterior_power(a @ b, k)
            rhs = exterior_power(a, k) @ exterior_power(b, k)
            assert lhs.shape == (comb(n, k), comb(n, k))
            assert rel_residual(lhs, rhs) < 1e-10

    def test_exterior_power_ends(self):
        rng = np.random.default_rng(240)
        a = rng.standard_normal((6, 6))
        assert np.array_equal(exterior_power(a, 0), np.ones((1, 1)))
        assert np.allclose(exterior_power(a, 1), a, rtol=0, atol=1e-14)
        assert exterior_power(a, 6)[0, 0] == pytest.approx(np.linalg.det(a), rel=1e-12)

    def test_metric_from_three_form_matches_double_wedges(self):
        # B(u, v) vol = (1/6) i(u)phi ^ i(v)phi ^ phi, entry by entry.
        rng = np.random.default_rng(250)
        phi0 = standard_g2().phi
        orientations = set()
        for _ in range(25):
            # Well-conditioned maps, with random reflections for both orientations.
            signs = np.where(rng.random(7) < 0.5, -1.0, 1.0)
            move = signs[:, None] * (np.eye(7) + 0.1 * rng.standard_normal((7, 7)))
            phi = pullback(LinearMap(7, move), phi0)
            contractions = [interior(e, phi) for e in np.eye(7)]
            raw = np.array([[wedge(wedge(ci, cj), phi).coeffs[0] / 6.0
                             for cj in contractions] for ci in contractions])
            det = np.linalg.det(raw)
            metric = metric_from_three_form(phi)
            assert metric.orientation == (1 if det > 0 else -1)
            assert rel_residual(metric.gram, raw / np.copysign(abs(det) ** (1 / 9), det)) < 1e-12
            orientations.add(metric.orientation)
        assert orientations == {1, -1}


def det_exterior_power(a, k):
    """Reference exterior power: every k x k minor as one batched determinant."""
    if k == 0:
        return np.ones((1, 1))
    combos = np.array(multi_indices(a.shape[0], k), dtype=np.intp)
    return np.linalg.det(a[combos[:, None, :, None], combos[None, :, None, :]])


# The wedge steps and the batched determinants round differently; the error
# of each is a small multiple of eps * |a|^k, so they agree to that scale.
POWER_TOL = 64 * np.finfo(np.float64).eps


def oracle_matrices(rng, n):
    """Real and complex, generic, rank-deficient and widely scaled n x n matrices."""
    real = rng.standard_normal((n, n))
    complex_ = real + 1j * rng.standard_normal((n, n))
    low = rng.standard_normal((n, max(n - 2, 1))) @ rng.standard_normal((max(n - 2, 1), n))
    wide = rng.choice([-1.0, 1.0], (n, n)) * 10.0 ** rng.uniform(-6.0, 6.0, (n, n))
    wide_complex = wide * np.exp(2j * np.pi * rng.random((n, n)))
    return [real, complex_, low, wide, wide_complex]


class TestExteriorPower:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_batched_determinants(self, n):
        rng = np.random.default_rng(260 + n)
        for a in oracle_matrices(rng, n):
            scale = np.linalg.norm(a, 2)
            for k in range(n + 1):
                got = exterior_power(a, k)
                want = det_exterior_power(a, k)
                assert got.shape == want.shape == (comb(n, k), comb(n, k))
                assert np.abs(got - want).max() <= POWER_TOL * scale**k

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_dtype_is_preserved(self, dtype):
        rng = np.random.default_rng(270)
        a = rng.standard_normal((5, 5)).astype(dtype)
        if dtype is np.complex128:
            a += 1j * rng.standard_normal((5, 5))
        for k in range(6):
            assert exterior_power(a, k).dtype == dtype

    def test_first_power_is_a_copy(self):
        rng = np.random.default_rng(271)
        a = rng.standard_normal((4, 4))
        once = exterior_power(a, 1)
        assert np.array_equal(once, a)
        assert not np.shares_memory(once, a)
        m = random_metric(rng, 4)
        assert not np.shares_memory(m.gram_on_forms(1), m.gram_inv)

    @pytest.mark.parametrize("shape", [(3, 4), (4,), (2, 2, 3), ()])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="square matrix"):
            exterior_power(np.ones(shape), 1)

    @pytest.mark.parametrize("k", [-2, -1, 5, 9])
    def test_rejects_grade_out_of_range(self, k):
        with pytest.raises(ValueError, match="0 <= k <= 4"):
            exterior_power(np.eye(4), k)


def reference_wedge_table(n, k, l):
    """e^I ^ e^J for disjoint I, J: the position of I u J and the sign of the merge.

    Merging I and J into increasing order moves each entry of J past the
    entries of I above it, so the sign is (-1)^#{(i, j) in I x J : i > j}.
    Built from the multi-indices alone, independently of _wedge_table.
    """
    pos_out = {idx: pos for pos, idx in enumerate(multi_indices(n, k + l))}
    ia, ib, out, signs = [], [], [], []
    for pa, idx_a in enumerate(multi_indices(n, k)):
        for pb, idx_b in enumerate(multi_indices(n, l)):
            if set(idx_a) & set(idx_b):
                continue
            ia.append(pa)
            ib.append(pb)
            out.append(pos_out[tuple(sorted(idx_a + idx_b))])
            signs.append(-1.0 if sum(i > j for i in idx_a for j in idx_b) % 2 else 1.0)
    return (np.array(ia, dtype=np.intp), np.array(ib, dtype=np.intp),
            np.array(out, dtype=np.intp), np.array(signs))


def scatter_wedge(a, b):
    """Reference wedge: the signed products of reference_wedge_table summed with np.add.at."""
    n = a.dim
    if a.grade + b.grade > n:
        return KForm.zero(n, n)
    ia, ib, out, signs = reference_wedge_table(n, a.grade, b.grade)
    vals = signs * a.coeffs[ia] * b.coeffs[ib]
    res = np.zeros(comb(n, a.grade + b.grade), dtype=vals.dtype)
    np.add.at(res, out, vals)
    return KForm(n, a.grade + b.grade, res)


def reference_interior_table(n, k):
    """i(e_j) on each k-tuple I with I[p] = j: row I minus I[p], sign (-1)^p.

    Built from the multi-indices alone, independently of _wedge_table.
    """
    vec_idx, src, dst, signs = [], [], [], []
    pos_out = {idx: pos for pos, idx in enumerate(multi_indices(n, k - 1))}
    for ia, idx in enumerate(multi_indices(n, k)):
        for p, entry in enumerate(idx):
            vec_idx.append(entry)
            src.append(ia)
            dst.append(pos_out[idx[:p] + idx[p + 1 :]])
            signs.append(-1.0 if p % 2 else 1.0)
    return np.array(vec_idx), np.array(src), np.array(dst), np.array(signs)


def reference_complement_table(n, k):
    """For each k-tuple I: the position of its complement among the (n-k)-tuples,
    and the sign of the permutation (I, I^c) of (0..n-1).

    The permutation has sum_p (I[p] - p) inversions: I[p] passes the I[p] - p
    entries of I^c below it.
    """
    pos_out = {idx: pos for pos, idx in enumerate(multi_indices(n, n - k))}
    dst, signs = [], []
    for idx in multi_indices(n, k):
        comp = tuple(sorted(set(range(n)) - set(idx)))
        dst.append(pos_out[comp])
        signs.append(-1.0 if sum(i - p for p, i in enumerate(idx)) % 2 else 1.0)
    return np.array(dst, dtype=np.intp), np.array(signs)


def minors_pullback(coeffs, mat, k):
    """Reference pullback: sum_I a[I] det mat[I, J], every minor a determinant."""
    return coeffs @ det_exterior_power(mat, k)


def minors_hodge(coeffs, gram, orientation, k):
    """Reference Hodge star: minors of the inverse gram moved to the complements."""
    n = gram.shape[0]
    dst, signs = reference_complement_table(n, k)
    values = det_exterior_power(np.linalg.inv(gram), k) @ coeffs
    out = np.zeros(comb(n, n - k), dtype=values.dtype)
    out[dst] = orientation * np.sqrt(np.linalg.det(gram)) * signs * values
    return out


# Contracting slot by slot and taking determinants round differently, each to
# a small multiple of eps times the size of the terms, sum_I |a[I]| |mat|^k.
CONTRACT_TOL = 64 * np.finfo(np.float64).eps
# The metrics of random_metric are well conditioned, so stars compare relatively.
HODGE_TOL = 1e-13


class TestContractedKernels:
    """Low-grade pullbacks and Hodge stars contract the form through the map or
    metric; high-grade Grams come from complementary minors.  Each is checked
    against determinants of submatrices, which share no table with forms."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_pullback_matches_minors(self, n):
        rng = np.random.default_rng(380 + n)
        mats = oracle_matrices(rng, n)
        # A real and a complex stack, each of a matrix and two relatives.
        stacks = [np.stack([m, m[::-1], 0.5 * m.T]) for m in mats[:2]]
        singles = [LinearMap(n, m) for m in mats]
        stacked = [LinearMap(n, stack) for stack in stacks]
        for k in range(n + 1):
            forms = real_and_complex_forms(rng, n, k)
            for L in singles:
                minors = det_exterior_power(L.matrix, k)
                scale = np.linalg.norm(L.matrix, 2) ** k
                for a in forms:
                    error = np.abs(pullback(L, a).coeffs - a.coeffs @ minors).max()
                    assert error <= CONTRACT_TOL * np.abs(a.coeffs).sum() * scale
            if k == 0:
                continue  # a function pulls back to itself, whatever the maps
            for L in stacked:
                minors = [det_exterior_power(m, k) for m in L.matrix]
                scales = [np.linalg.norm(m, 2) ** k for m in L.matrix]
                for a in forms:
                    batch = np.stack([a.coeffs, -2.0 * a.coeffs, a.coeffs.conj()])
                    one = pullback(L, a).coeffs
                    rows = pullback(L, KForm(n, k, batch)).coeffs
                    assert one.shape == rows.shape == (3, comb(n, k))
                    for got, c in ((one, [a.coeffs] * 3), (rows, batch)):
                        for row, x, minor, scale in zip(got, c, minors, scales):
                            size = np.abs(x).sum() * scale
                            assert np.abs(row - x @ minor).max() <= CONTRACT_TOL * size

    @pytest.mark.parametrize("n", range(1, 9))
    def test_hodge_matches_minors(self, n):
        rng = np.random.default_rng(390 + n)
        grams = [random_metric(rng, n).gram for _ in range(3)]
        stacked = Metric(n, np.stack(grams), orientation=-1)
        for k in range(n + 1):
            for a in real_and_complex_forms(rng, n, k):
                batch = KForm(n, k, np.stack([a.coeffs, 3.0 * a.coeffs, a.coeffs.conj()]))
                for gram in grams:
                    got = hodge(a, Metric(n, gram)).coeffs
                    assert rel_residual(got, minors_hodge(a.coeffs, gram, 1, k)) <= HODGE_TOL
                got = hodge(a, stacked).coeffs
                assert got.shape == (3, comb(n, n - k))
                for row, gram in zip(got, grams):
                    assert rel_residual(row, minors_hodge(a.coeffs, gram, -1, k)) <= HODGE_TOL
                got = hodge(batch, stacked).coeffs
                for row, c, gram in zip(got, batch.coeffs, grams):
                    assert rel_residual(row, minors_hodge(c, gram, -1, k)) <= HODGE_TOL

    @pytest.mark.parametrize("n", range(1, 9))
    def test_high_grade_grams_are_complementary_minors(self, n):
        rng = np.random.default_rng(400 + n)
        grams = np.stack([random_metric(rng, n).gram for _ in range(3)])
        stacked = Metric(n, grams)
        for k in range(n + 1):
            got = stacked.gram_on_forms(k)
            assert got.shape == (3, comb(n, k), comb(n, k))
            for row, gram in zip(got, grams):
                want = exterior_power(np.linalg.inv(gram), k)
                for mat in (row, Metric(n, gram).gram_on_forms(k)):
                    assert np.abs(mat - want).max() <= 1e-12 * np.abs(want).max()


class TestContractBlocks:
    """_contract works through a large batch in blocks; each row comes out as it would alone."""

    CASES = [
        # (coefficient batch shape, matrix batch shape)
        ((), (40,)),          # a single form against stacked maps
        ((40,), ()),          # a stack of forms against one matrix
        ((40,), (40,)),
        ((3, 1, 9), (9,)),    # more than one leading axis, broadcast
        ((2, 1), (1, 17)),
    ]

    @pytest.mark.parametrize("n, k", [(7, 4), (8, 4), (7, 3), (6, 3), (5, 2)])
    @pytest.mark.parametrize("coeff_batch, mat_batch", CASES)
    def test_blocked_equals_unblocked_bit_for_bit(self, monkeypatch, n, k, coeff_batch, mat_batch):
        rng = np.random.default_rng(410 + n * 10 + k)
        coeffs = rng.standard_normal(coeff_batch + (comb(n, k),))
        mats = np.eye(n) + 0.3 * rng.standard_normal(mat_batch + (n, n))
        monkeypatch.setattr(forms, "_CONTRACT_ENTRIES", 10**9)
        whole = _contract(coeffs, mats, k)
        # Blocks of three rows, and of the default size.
        for entries in (3 * n**k, 2**15):
            monkeypatch.setattr(forms, "_CONTRACT_ENTRIES", entries)
            blocked = _contract(coeffs, mats, k)
            assert blocked.shape == whole.shape == np.broadcast_shapes(coeff_batch, mat_batch) + (comb(n, k),)
            assert blocked.tobytes() == whole.tobytes()
        complex_coeffs = coeffs + 1j * rng.standard_normal(coeffs.shape)
        monkeypatch.setattr(forms, "_CONTRACT_ENTRIES", 10**9)
        whole = _contract(complex_coeffs, mats, k)
        monkeypatch.setattr(forms, "_CONTRACT_ENTRIES", 3 * n**k)
        assert _contract(complex_coeffs, mats, k).tobytes() == whole.tobytes()


def scatter_interior(v, a):
    """Reference interior product: reference_interior_table products summed with np.add.at."""
    if a.grade == 0:
        return KForm.zero(a.dim, 0)
    vec_idx, src, dst, signs = reference_interior_table(a.dim, a.grade)
    vals = signs * v[vec_idx] * a.coeffs[src]
    res = np.zeros(comb(a.dim, a.grade - 1), dtype=vals.dtype)
    np.add.at(res, dst, vals)
    return KForm(a.dim, a.grade - 1, res)


# Matrix products and scatter sums add the same terms in different orders.
KERNEL_TOL = 1e-13


def real_and_complex_forms(rng, n, k):
    real = random_form(rng, n, k)
    return [real, KForm(n, k, real.coeffs + 1j * rng.standard_normal(comb(n, k)))]


class TestProductKernels:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_wedge_matches_scatter(self, n):
        rng = np.random.default_rng(280 + n)
        for k in range(n + 1):
            for l in range(n + 1):
                for a in real_and_complex_forms(rng, n, k):
                    for b in real_and_complex_forms(rng, n, l):
                        got, want = wedge(a, b), scatter_wedge(a, b)
                        assert (got.grade, got.coeffs.dtype) == (want.grade, want.coeffs.dtype)
                        assert rel_residual(got.coeffs, want.coeffs) <= KERNEL_TOL

    @pytest.mark.parametrize("n", range(1, 9))
    def test_interior_matches_scatter(self, n):
        rng = np.random.default_rng(290 + n)
        for k in range(n + 1):
            for a in real_and_complex_forms(rng, n, k):
                real = random_vector(rng, n)
                for v in (real, real + 1j * random_vector(rng, n)):
                    got, want = interior(v, a), scatter_interior(v, a)
                    assert (got.grade, got.coeffs.dtype) == (want.grade, want.coeffs.dtype)
                    assert rel_residual(got.coeffs, want.coeffs) <= KERNEL_TOL

    @pytest.mark.parametrize("n", range(1, 9))
    def test_interior_matrix_columns_are_contractions(self, n):
        rng = np.random.default_rng(300 + n)
        for k in range(n + 1):
            for a in real_and_complex_forms(rng, n, k):
                mat = interior_matrix(a)
                assert mat.shape == (comb(n, max(k - 1, 0)), n)
                assert mat.dtype == a.coeffs.dtype
                for j, e in enumerate(np.eye(n)):
                    assert np.array_equal(mat[:, j], interior(e, a).coeffs)

    def test_edge_results_are_real_zero_forms(self):
        rng = np.random.default_rng(310)
        v = random_vector(rng, 5) + 1j * random_vector(rng, 5)
        got = interior(v, KForm(5, 0, np.array([2.0 + 1j])))
        assert (got.grade, got.coeffs.dtype) == (0, np.float64)
        assert not got.coeffs.any()
        a, b = real_and_complex_forms(rng, 5, 3)
        for got in (wedge(a, b), wedge(b, b)):
            assert (got.grade, got.coeffs.dtype) == (5, np.float64)
            assert not got.coeffs.any()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_grouped_tables_sort_the_wedge_table(self, n):
        # Column I of the grouped tables lists _wedge_table's entries with output
        # I in their table order, so _wedge_table stays the one source of signs.
        for k in range(n + 1):
            for l in range(n + 1 - k):
                ia, ib, out, signs = _wedge_table(n, k, l)
                got = _wedge_terms(n, k, l)
                assert got[0].shape == (comb(k + l, k), comb(n, k + l))
                for col in range(comb(n, k + l)):
                    want = [(x, y, s) for x, y, o, s in zip(ia, ib, out, signs) if o == col]
                    assert list(zip(*(t[:, col].tolist() for t in got))) == want
            if k >= 1:
                j, rest, out, signs = _wedge_table(n, 1, k - 1)
                got = _interior_terms(n, k)
                assert got[0].shape == (n - k + 1, comb(n, k - 1))
                for col in range(comb(n, k - 1)):
                    want = [(o, x, s) for x, r, o, s in zip(j, rest, out, signs) if r == col]
                    assert list(zip(*(t[:, col].tolist() for t in got))) == want
        for table in _wedge_terms(n, 1, n - 1) + _interior_terms(n, 1):
            assert not table.flags.writeable

    @pytest.mark.parametrize("n", range(2, 9))
    def test_skew_and_two_form_are_inverse(self, n):
        rng = np.random.default_rng(320 + n)
        for f in real_and_complex_forms(rng, n, 2):
            a = _skew(f)
            assert a.dtype == f.coeffs.dtype
            assert np.array_equal(a, -a.T)
            back = _two_form(a)
            assert back.coeffs.dtype == f.coeffs.dtype
            assert np.array_equal(back.coeffs, f.coeffs)
        b = rng.standard_normal((n, n))
        skew = b - b.T
        assert np.array_equal(_skew(_two_form(skew)), skew)
        # The index pair is built once per dimension and cannot be written.
        pairs = _upper_pairs(n)
        assert pairs is _upper_pairs(n) and not pairs.flags.writeable
        assert np.array_equal(pairs, np.triu_indices(n, 1))


# Batched and per-row products add the same terms, possibly in another order,
# so a row agrees with the per-row call to a few ulps of the size of its terms:
# of |a| |b| for a product of two forms, of |M| |x| for a matrix applied to x.
# (A row whose terms cancel cannot be held to ulps of its own small value.)
BATCH_TOL = 1e-15
BATCH = 4


def batch_of_forms(rng, n, k, imag):
    coeffs = rng.standard_normal((BATCH, comb(n, k)))
    return KForm(n, k, coeffs + imag * 1j * rng.standard_normal(coeffs.shape))


def rows_close(got, want_rows, scales):
    assert got.shape == (BATCH,) + np.shape(want_rows[0])
    for row, want, scale in zip(got, want_rows, scales):
        assert np.linalg.norm(row - want) <= BATCH_TOL * max(np.linalg.norm(want), scale)


def norms(x):
    return np.linalg.norm(np.atleast_2d(x), axis=-1) * np.ones(BATCH)


class TestBatches:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_products_act_row_by_row(self, n):
        rng = np.random.default_rng(330 + n)
        single_v = random_vector(rng, n)
        vs = rng.standard_normal((BATCH, n))
        for k in range(n + 1):
            for imag in (0.0, 1.0):
                a = batch_of_forms(rng, n, k, imag)
                single = KForm(n, k, a.coeffs[0] + 1.0)
                rows = [KForm(n, k, c) for c in a.coeffs]
                # The matrices are filled, not summed: equal bit for bit.
                for l in range(n + 1):
                    assert np.array_equal(wedge_matrix(a, l), [wedge_matrix(r, l) for r in rows])
                assert np.array_equal(interior_matrix(a), [interior_matrix(r) for r in rows])
                rows_close(interior(vs, a).coeffs,
                           [interior(v, r).coeffs for v, r in zip(vs, rows)],
                           norms(vs) * norms(a.coeffs))
                rows_close(interior(single_v, a).coeffs,
                           [interior(single_v, r).coeffs for r in rows],
                           norms(single_v) * norms(a.coeffs))
                rows_close(interior(vs, single).coeffs, [interior(v, single).coeffs for v in vs],
                           norms(vs) * norms(single.coeffs))
                for l in range(n + 1):
                    b = batch_of_forms(rng, n, l, imag)
                    b_rows = [KForm(n, l, c) for c in b.coeffs]
                    b_single = KForm(n, l, b.coeffs[0] - 1.0)
                    rows_close(wedge(a, b).coeffs,
                               [wedge(x, y).coeffs for x, y in zip(rows, b_rows)],
                               norms(a.coeffs) * norms(b.coeffs))
                    rows_close(wedge(a, b_single).coeffs,
                               [wedge(x, b_single).coeffs for x in rows],
                               norms(a.coeffs) * norms(b_single.coeffs))
                    rows_close(wedge(single, b).coeffs,
                               [wedge(single, y).coeffs for y in b_rows],
                               norms(single.coeffs) * norms(b.coeffs))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_products_equal_single_form_calls_bit_for_bit(self, n):
        # Real and complex rows, batch against batch and mixed with a single
        # form, every pair of grades including those past the top.
        rng = np.random.default_rng(335 + n)
        for imag in (0.0, 1.0):
            vs = rng.standard_normal((BATCH, n)) + imag * 1j * rng.standard_normal((BATCH, n))
            for k in range(n + 1):
                a = batch_of_forms(rng, n, k, imag)
                rows = [KForm(n, k, c) for c in a.coeffs]
                pairs = [(interior(vs, a), [interior(v, r) for v, r in zip(vs, rows)]),
                         (interior(vs[0], a), [interior(vs[0], r) for r in rows]),
                         (interior(vs, rows[0]), [interior(v, rows[0]) for v in vs])]
                for l in range(n + 1):
                    b = batch_of_forms(rng, n, l, 1.0 - imag)
                    b_rows = [KForm(n, l, c) for c in b.coeffs]
                    pairs += [(wedge(a, b), [wedge(x, y) for x, y in zip(rows, b_rows)]),
                              (wedge(rows[0], b), [wedge(rows[0], y) for y in b_rows]),
                              (wedge(a, b_rows[0]), [wedge(x, b_rows[0]) for x in rows])]
                for batch, singles in pairs:
                    assert batch.coeffs.shape == (BATCH,) + singles[0].coeffs.shape
                    assert batch.coeffs.flags.c_contiguous
                    for row, single in zip(batch.coeffs, singles):
                        assert row.dtype == single.coeffs.dtype
                        assert row.tobytes() == single.coeffs.tobytes()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_metric_operations_act_row_by_row(self, n):
        rng = np.random.default_rng(340 + n)
        grams = [random_metric(rng, n).gram for _ in range(BATCH)]
        stacked = Metric(n, np.stack(grams), orientation=-1)
        metrics = [Metric(n, g, orientation=-1) for g in grams]
        fixed = random_metric(rng, n)
        move = LinearMap(n, np.eye(n) + 0.3 * rng.standard_normal((n, n)))
        vs = rng.standard_normal((BATCH, n))
        for m, per_row in ((fixed, [fixed] * BATCH), (stacked, metrics)):
            rows_close(flat(vs, m).coeffs, [flat(v, g).coeffs for v, g in zip(vs, per_row)],
                       norms(vs) * norms(m.gram.reshape(-1, n * n)))
        for k in range(n + 1):
            for imag in (0.0, 1.0):
                a = batch_of_forms(rng, n, k, imag)
                b = batch_of_forms(rng, n, k, imag)
                rows = [KForm(n, k, c) for c in a.coeffs]
                b_rows = [KForm(n, k, c) for c in b.coeffs]
                rows_close(pullback(move, a).coeffs, [pullback(move, r).coeffs for r in rows],
                           norms(a.coeffs) * np.linalg.norm(exterior_power(move.matrix, k)))
                for m, per_row in ((fixed, [fixed] * BATCH), (stacked, metrics)):
                    rows_close(hodge(a, m).coeffs, [hodge(r, g).coeffs for r, g in zip(rows, per_row)],
                               norms(a.coeffs) * [np.linalg.norm(g.hodge_matrix(k)) for g in per_row])
                    got = form_inner(a, b, m)
                    want = [form_inner(x, y, g) for x, y, g in zip(rows, b_rows, per_row)]
                    scale = [form_norm(x, g) * form_norm(y, g) for x, y, g in zip(rows, b_rows, per_row)]
                    assert got.shape == (BATCH,)
                    assert np.all(np.abs(got - want) <= BATCH_TOL * np.maximum(scale, 1.0))
                    got = form_norm(a, m)
                    want = [form_norm(x, g) for x, g in zip(rows, per_row)]
                    assert np.all(np.abs(got - want) <= BATCH_TOL * np.maximum(want, 1.0))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_stacked_maps_act_row_by_row(self, n):
        rng = np.random.default_rng(345 + n)
        mats = np.eye(n) + 0.3 * rng.standard_normal((BATCH, n, n))
        stacked = LinearMap(n, mats)
        maps = [LinearMap(n, m) for m in mats]
        assert stacked.matrix.shape == (BATCH, n, n)
        for k in range(n + 1):
            a = batch_of_forms(rng, n, k, 0.0)
            rows = [KForm(n, k, c) for c in a.coeffs]
            scales = [np.linalg.norm(exterior_power(m.matrix, k)) for m in maps]
            rows_close(pullback(stacked, a).coeffs,
                       [pullback(m, r).coeffs for m, r in zip(maps, rows)],
                       norms(a.coeffs) * scales)
            rows_close(pullback(stacked, rows[0]).coeffs,
                       [pullback(m, rows[0]).coeffs for m in maps],
                       norms(a.coeffs[0]) * scales)
        f = batch_of_forms(rng, n, 2, 0.0)
        m = random_metric(rng, n)
        got = sharp2(f, m)
        assert got.matrix.shape == (BATCH, n, n)
        for row, c in zip(got.matrix, f.coeffs):
            assert rel_residual(row, sharp2(KForm(n, 2, c), m).matrix) <= 1e-14

    @pytest.mark.parametrize("imag", [0.0, 1.0])
    def test_functions_pull_back_through_a_stack(self, imag):
        # A 0-form used to come back unchanged, with shape (1,), through a stack of maps.
        n = 4
        rng = np.random.default_rng(360)
        stacked = LinearMap(n, np.eye(n) + 0.3 * rng.standard_normal((BATCH, n, n)))
        metrics = Metric(n, np.stack([random_metric(rng, n).gram for _ in range(BATCH)]))
        for k in range(n + 1):
            single = KForm(n, k, rng.standard_normal(comb(n, k)) * (1 + imag * 1j))
            batch = batch_of_forms(rng, n, k, imag)
            for a in (single, batch):
                got = pullback(stacked, a).coeffs
                assert got.shape == (BATCH, comb(n, k))
                assert got.shape[:-1] == hodge(a, metrics).coeffs.shape[:-1]
        f = KForm(n, 0, np.array([2.5 - imag * 1j]))
        assert np.array_equal(pullback(stacked, f).coeffs, np.full((BATCH, 1), 2.5 - imag * 1j))

    def test_map_stack_needs_square_trailing_axes(self):
        with pytest.raises(ValueError, match="matrix must be 3x3"):
            LinearMap(3, np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="matrix must be 3x3"):
            LinearMap(3, np.zeros(3))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exterior_power_of_a_stack(self, n):
        rng = np.random.default_rng(350 + n)
        stack = np.stack([oracle_matrices(rng, n)[i % 2] for i in range(BATCH)])
        for k in range(n + 1):
            got = exterior_power(stack, k)
            assert got.shape == (BATCH, comb(n, k), comb(n, k))
            for row, a in zip(got, stack):
                assert rel_residual(row, exterior_power(a, k)) <= BATCH_TOL
        assert exterior_power(stack[None], n // 2).shape == (1, BATCH) + (comb(n, n // 2),) * 2

    def test_batch_of_one_equals_the_single_form(self):
        rng = np.random.default_rng(360)
        m = random_metric(rng, 6)
        a, b = random_form(rng, 6, 2), random_form(rng, 6, 3)
        one_a, one_b = KForm(6, 2, a.coeffs[None]), KForm(6, 3, b.coeffs[None])
        v = random_vector(rng, 6)
        move = LinearMap(6, np.eye(6) + 0.3 * rng.standard_normal((6, 6)))
        pairs = [
            (wedge(one_a, one_b), wedge(a, b)),
            (interior(v[None], one_b), interior(v, b)),
            (hodge(one_b, m), hodge(b, m)),
            (pullback(move, one_b), pullback(move, b)),
        ]
        for batched, single in pairs:
            assert batched.coeffs.shape == (1,) + single.coeffs.shape
            assert rel_residual(batched.coeffs[0], single.coeffs) <= BATCH_TOL
        assert form_inner(one_a, one_a, m).shape == (1,)
        assert form_inner(one_a, one_a, m)[0] == pytest.approx(form_inner(a, a, m), rel=BATCH_TOL)
        assert form_norm(one_b, m)[0] == pytest.approx(form_norm(b, m), rel=BATCH_TOL)
        assert isinstance(form_inner(a, a, m), float)
        assert isinstance(form_norm(b, m), float)

    def test_last_axis_is_checked(self):
        with pytest.raises(ValueError, match="last axis"):
            KForm(5, 2, np.zeros((3, 9)))
        with pytest.raises(ValueError, match="last axis"):
            KForm(5, 2, np.zeros((10, 3)))
        with pytest.raises(ValueError, match="last axis"):
            KForm(5, 0, np.float64(1.0))
        assert KForm(5, 2, np.zeros((2, 3, 10))).coeffs.shape == (2, 3, 10)

    def test_single_form_accessors_refuse_a_batch(self):
        batch = KForm(4, 1, np.ones((2, 4)))
        with pytest.raises(ValueError, match="single form"):
            batch.to_dict()
        with pytest.raises(ValueError, match="single form"):
            batch.coefficient((0,))

    def test_scalar_per_row(self):
        batch = KForm(4, 1, np.ones((3, 4)))
        scaled = np.array([1.0, 2.0, 3.0]) * batch
        assert np.array_equal(scaled.coeffs, np.arange(1.0, 4.0)[:, None] * np.ones((3, 4)))
        assert np.array_equal((batch * np.float64(2.0)).coeffs, 2.0 * batch.coeffs)

    def test_stacked_metric_checks_each_matrix(self):
        good = np.eye(3)
        with pytest.raises(ValueError, match="symmetric"):
            Metric(3, np.stack([good, good + np.triu(np.ones((3, 3)), 1)]))
        with pytest.raises(ValueError, match="positive definite"):
            Metric(3, np.stack([good, -good]))
        stacked = Metric(3, np.stack([good, 4.0 * good]), orientation=-1)
        assert stacked.sqrt_det == pytest.approx([1.0, 8.0], rel=1e-15)
        assert stacked.volume_form().coeffs[:, 0] == pytest.approx([-1.0, -8.0], rel=1e-15)


class TestKernelResults:
    def test_results_are_fresh_read_only_arrays(self):
        rng = np.random.default_rng(370)
        m = random_metric(rng, 5)
        move = LinearMap(5, np.eye(5) + 0.3 * rng.standard_normal((5, 5)))
        for imag in (0.0, 1.0):
            for shape in ((), (3,)):
                a = KForm(5, 2, rng.standard_normal(shape + (10,)) + imag * 1j)
                b = KForm(5, 1, rng.standard_normal(shape + (5,)))
                c = KForm(5, 2, rng.standard_normal(shape + (10,)))
                v = rng.standard_normal(shape + (5,))
                results = {
                    "wedge": (wedge(a, b), 3, (a, b)),
                    "wedge past the top": (wedge(a, KForm(5, 4, np.ones(5))), 5, (a,)),
                    "interior": (interior(v, a), 1, (a,)),
                    "interior of a function": (interior(v, KForm(5, 0, np.ones(shape + (1,)))), 0, ()),
                    "hodge": (hodge(a, m), 3, (a,)),
                    "pullback": (pullback(move, a), 2, (a,)),
                    "sum": (a + c, 2, (a, c)),
                    "difference": (a - c, 2, (a, c)),
                }
                cached = [m.gram, m.hodge_matrix(2), move.matrix]
                for name, (form, grade, inputs) in results.items():
                    arrays = [x.coeffs for x in inputs] + [v] + cached
                    assert form.grade == grade, name
                    assert form.coeffs.shape == shape + (comb(5, grade),), name
                    assert form.coeffs.dtype in (np.float64, np.complex128), name
                    assert not form.coeffs.flags.writeable, name
                    assert not any(np.shares_memory(form.coeffs, x) for x in arrays), name

    def test_scalar_products_stay_validated(self):
        a = KForm(4, 1, np.ones(4))
        scaled = a * np.longdouble(2.0)
        assert scaled.coeffs.dtype == np.float64
        assert np.array_equal(scaled.coeffs, 2.0 * np.ones(4))
