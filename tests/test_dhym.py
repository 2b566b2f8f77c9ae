"""Unit tests for the Hermitian normal-form module."""

from math import comb

import numpy as np
import pytest
import scipy.linalg

import g2calc.dhym as dhym_module
import g2calc.forms as forms_module
from g2calc.forms import (
    KForm,
    LinearMap,
    Metric,
    form_norm,
    multi_indices,
    pullback,
    rel_residual,
    sharp2,
    wedge,
)
from g2calc.dhym import (
    ROTATION_MAGNITUDE,
    DhymReport,
    HermitianPoint,
    NormalForm,
    dhym_report,
    j_duality_residual,
    normal_form,
    one_one_residual,
    pq_project,
    radius_angle,
    random_unitary_rotation,
    standard_kahler,
    symbol_bound,
    _pq_parts,
    _rotation_generator,
    _unitary_rotations,
)
from g2calc.product import standard_su3


def wedge_power(a, k):
    if k == 0:
        return KForm(a.dim, 0, np.ones(1))
    out = a
    for _ in range(k - 1):
        out = wedge(out, a)
    return out


def one_one_part(point, f):
    p02 = pq_project(point, f, 0, 2)
    p20 = pq_project(point, f, 2, 0)
    return KForm(f.dim, 2, np.real(f.coeffs - p02.coeffs - p20.coeffs))


def random_one_one(rng, point):
    raw = KForm(2 * point.n, 2, rng.standard_normal(comb(2 * point.n, 2)))
    return one_one_part(point, raw)


def transported(n, seed):
    """A non-standard Hermitian point: the standard one moved by a random map."""
    rng = np.random.default_rng(seed)
    s = np.eye(2 * n) + 0.2 * rng.standard_normal((2 * n, 2 * n))
    std = standard_kahler(n)
    j = LinearMap(2 * n, np.linalg.solve(s, std.j_map.matrix @ s))
    return HermitianPoint(n, Metric(2 * n, s.T @ s), j)


def fresh_pq_project(point, a, p, q):
    """pq_project through two change-of-basis maps built afresh on every call."""
    frame = point.frame
    u, v = frame[:, 0::2], frame[:, 1::2]
    t = np.hstack([(u - 1j * v) / 2.0, (u + 1j * v) / 2.0])
    pulled = pullback(LinearMap(a.dim, t), a)
    keep = np.array(
        [sum(1 for i in idx if i < point.n) == p for idx in multi_indices(a.dim, a.grade)]
    )
    masked = KForm(a.dim, a.grade, np.where(keep, pulled.coeffs, 0.0))
    return pullback(LinearMap(a.dim, np.linalg.inv(t)), masked)


@pytest.fixture(scope="module")
def transported_point():
    rng = np.random.default_rng(90)
    s = np.eye(6) + 0.2 * rng.standard_normal((6, 6))
    std = standard_kahler(3)
    metric = Metric(6, s.T @ s)
    j = LinearMap(6, np.linalg.solve(s, std.j_map.matrix @ s))
    return s, HermitianPoint(3, metric, j)


class TestStandardStructure:
    def test_omega_pairs_coordinates(self):
        point = standard_kahler(2)
        assert point.omega.coefficient((0, 1)) == 1.0
        assert point.omega.coefficient((2, 3)) == 1.0
        assert np.count_nonzero(point.omega.coeffs) == 2

    def test_flat_frame_is_identity(self):
        assert np.array_equal(standard_kahler(3).frame, np.eye(6))

    def test_omega_is_j_invariant(self):
        point = standard_kahler(3)
        assert one_one_residual(point, point.omega) == 0.0

    def test_top_power_is_volume(self):
        point = standard_kahler(4)
        top = wedge_power(point.omega, 4)
        assert top.coeffs[-1] == pytest.approx(24.0)

    def test_incompatible_structure_rejected(self):
        j = np.zeros((4, 4))
        j[1, 0] = j[3, 2] = 1.0
        j[0, 1] = j[2, 3] = -1.0
        with pytest.raises(ValueError, match="isometry"):
            HermitianPoint(2, Metric(4, np.diag([1.0, 2.0, 1.0, 1.0])), LinearMap(4, j))

    def test_non_square_root_rejected(self):
        with pytest.raises(ValueError, match="square"):
            HermitianPoint(2, Metric(4, np.eye(4)), LinearMap.identity(4))

    @pytest.mark.parametrize("n", [0, -1, 2.5])
    def test_standard_kahler_rejects_bad_dimension(self, n):
        with pytest.raises(ValueError, match="complex dimension must lie in 1..4"):
            standard_kahler(n)


class TestTypeDecomposition:
    def test_parts_sum_to_whole(self):
        rng = np.random.default_rng(91)
        point = standard_kahler(3)
        f = KForm(6, 2, rng.standard_normal(15))
        total = KForm.zero(6, 2)
        for p in range(3):
            total = total + KForm(6, 2, pq_project(point, f, p, 2 - p).coeffs)
        assert rel_residual(total.coeffs, f.coeffs) < 1e-12

    def test_real_two_zero_plus_zero_two(self):
        point = standard_kahler(2)
        f = KForm.monomial(4, (0, 2)) - KForm.monomial(4, (1, 3))
        assert form_norm(pq_project(point, f, 1, 1)) < 1e-14
        assert form_norm(pq_project(point, f, 0, 2)) == pytest.approx(1.0, rel=1e-12)
        assert form_norm(pq_project(point, f, 2, 0)) == pytest.approx(1.0, rel=1e-12)

    def test_conjugate_symmetry_for_real_forms(self):
        rng = np.random.default_rng(92)
        point = standard_kahler(3)
        f = KForm(6, 2, rng.standard_normal(15))
        p02 = pq_project(point, f, 0, 2)
        p20 = pq_project(point, f, 2, 0)
        assert rel_residual(p20.coeffs, p02.coeffs.conj()) < 1e-12

    def test_projection_is_idempotent(self):
        rng = np.random.default_rng(93)
        point = standard_kahler(2)
        f = KForm(4, 2, rng.standard_normal(6))
        once = pq_project(point, f, 1, 1)
        twice = pq_project(point, once, 1, 1)
        assert rel_residual(once.coeffs, twice.coeffs) < 1e-12

    def test_three_forms_split(self):
        point = standard_kahler(3)
        f = KForm.monomial(6, (0, 2, 4))
        parts = [pq_project(point, f, p, 3 - p) for p in range(4)]
        total = KForm.zero(6, 3)
        for part in parts:
            total = total + KForm(6, 3, part.coeffs)
        assert rel_residual(total.coeffs, f.coeffs) < 1e-12

    def test_type_must_match_grade(self):
        point = standard_kahler(2)
        with pytest.raises(ValueError):
            pq_project(point, point.omega, 2, 1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cached_maps_match_fresh_maps(self, n):
        rng = np.random.default_rng(100 + n)
        for point in (standard_kahler(n), transported(n, 110 + n)):
            for grade in range(1, min(3, 2 * n) + 1):
                a = KForm(2 * n, grade, rng.standard_normal(comb(2 * n, grade)))
                for p in range(grade + 1):
                    got = pq_project(point, a, p, grade - p).coeffs
                    want = fresh_pq_project(point, a, p, grade - p).coeffs
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_report_masks_both_parts_from_one_pullback(self, n):
        rng = np.random.default_rng(130 + n)
        for point in (standard_kahler(n), transported(n, 140 + n)):
            f = KForm(2 * n, 2, rng.standard_normal(comb(2 * n, 2)))
            p02, p20 = _pq_parts(point, f, (0, 2))
            want02, want20 = pq_project(point, f, 0, 2), pq_project(point, f, 2, 0)
            assert p02.coeffs.tobytes() == want02.coeffs.tobytes()
            assert p20.coeffs.tobytes() == want20.coeffs.tobytes()
            rep = dhym_report(point, f)
            assert rep.p02_norm == form_norm(want02, point.metric)
            invariant = np.real(f.coeffs - want02.coeffs - want20.coeffs)
            assert rep.f11.coeffs.tobytes() == invariant.tobytes()

    @staticmethod
    def count_builds(monkeypatch):
        builds = []
        original = forms_module.exterior_power

        def counted(a, k):
            builds.append(k)
            return original(a, k)

        monkeypatch.setattr(forms_module, "exterior_power", counted)
        return builds

    def test_second_call_builds_no_pullback_matrix(self, monkeypatch):
        # On R^6 pullbacks of grade 4 are above the contraction bound, so they
        # go through the cached exterior powers of the change of basis.
        point = transported(3, 120)
        f = KForm(6, 4, np.random.default_rng(121).standard_normal(15))
        builds = self.count_builds(monkeypatch)
        first = pq_project(point, f, 2, 2)
        assert builds == [4, 4]
        second = pq_project(point, f, 2, 2)
        assert builds == [4, 4]
        assert np.array_equal(first.coeffs, second.coeffs)

    def test_low_grades_build_no_pullback_matrix(self, monkeypatch):
        point = transported(3, 122)
        f = KForm(6, 2, np.random.default_rng(123).standard_normal(15))
        builds = self.count_builds(monkeypatch)
        pq_project(point, f, 1, 1)
        assert builds == []


class TestNormalForm:
    def test_diagonal_golden(self):
        point = standard_kahler(2)
        f = KForm.monomial(4, (0, 1), 2.0) - KForm.monomial(4, (2, 3))
        nf = normal_form(point, f)
        assert np.allclose(nf.lambdas, [2.0, -1.0], atol=1e-12)

    def test_mixed_golden(self):
        point = standard_kahler(2)
        f = KForm.monomial(4, (0, 2)) + KForm.monomial(4, (1, 3))
        nf = normal_form(point, f)
        assert np.allclose(nf.lambdas, [1.0, -1.0], atol=1e-12)

    def test_frame_is_orthonormal_and_adapted(self):
        rng = np.random.default_rng(94)
        point = standard_kahler(3)
        nf = normal_form(point, random_one_one(rng, point))
        assert rel_residual(nf.frame.T @ nf.frame, np.eye(6)) < 1e-12
        jm = point.j_map.matrix
        for i in range(3):
            assert np.allclose(jm @ nf.frame[:, 2 * i], nf.frame[:, 2 * i + 1], atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(95)
        point = standard_kahler(3)
        for _ in range(25):
            f = random_one_one(rng, point)
            nf = normal_form(point, f)
            rebuilt = KForm.zero(6, 2)
            for i, lam in enumerate(nf.lambdas):
                rebuilt = rebuilt + lam * wedge(nf.u_form(i), nf.v_form(i))
            assert rel_residual(rebuilt.coeffs, f.coeffs) < 1e-12

    @pytest.mark.parametrize("n", range(1, 5))
    def test_diagonal_matches_wedge_sum(self, n):
        rng = np.random.default_rng(96 + n)
        point = transported(n, 400 + n)
        nf = normal_form(point, random_one_one(rng, point))
        for _ in range(10):
            weights = rng.standard_normal(n)
            want = KForm.zero(2 * n, 2)
            for i, w in enumerate(weights):
                want = want + w * wedge(nf.u_form(i), nf.v_form(i))
            assert rel_residual(nf.diagonal(weights).coeffs, want.coeffs) <= 1e-13

    def test_degenerate_eigenvalues(self):
        point = standard_kahler(2)
        nf = normal_form(point, KForm(4, 2, point.omega.coeffs))
        assert np.allclose(nf.lambdas, [1.0, 1.0], atol=1e-14)

    def test_none_gives_adapted_frame(self):
        point = standard_kahler(2)
        nf = normal_form(point)
        assert np.array_equal(nf.lambdas, np.zeros(2))
        assert np.array_equal(nf.frame, np.eye(4))

    def test_rejects_non_one_one(self):
        point = standard_kahler(2)
        f = KForm.monomial(4, (0, 2)) - KForm.monomial(4, (1, 3))
        with pytest.raises(ValueError, match=r"\(1,1\)"):
            normal_form(point, f)

    def test_multiset_invariant_under_unitary_rotation(self):
        rng = np.random.default_rng(96)
        point = standard_kahler(3)
        f = random_one_one(rng, point)
        base = np.sort(normal_form(point, f).lambdas)
        for _ in range(5):
            rot = random_unitary_rotation(rng, point)
            rotated = np.sort(normal_form(point, pullback(rot, f)).lambdas)
            assert np.allclose(rotated, base, atol=1e-10)

    def test_eta_metric_dual_route(self):
        rng = np.random.default_rng(97)
        point = standard_kahler(3)
        for _ in range(20):
            f = random_one_one(rng, point)
            nf = normal_form(point, f)
            m = sharp2(f, point.metric).matrix
            assert rel_residual(nf.eta.gram, np.eye(6) + m.T @ m) < 1e-12

    def test_eta_golden_for_omega(self):
        point = standard_kahler(2)
        nf = normal_form(point, KForm(4, 2, point.omega.coeffs))
        assert rel_residual(nf.eta.gram, 2.0 * np.eye(4)) < 1e-14
        assert rel_residual(nf.omega_nabla.coeffs, 2.0 * point.omega.coeffs) < 1e-14

    def test_one_one_tol_is_read_at_call_time(self, monkeypatch):
        point = standard_kahler(2)
        normal_form(point, point.omega)
        monkeypatch.setattr(dhym_module, "ONE_ONE_TOL", -1.0)
        with pytest.raises(ValueError, match="not of type"):
            normal_form(point, point.omega)


class TestRadiusAngle:
    def test_unit_pair(self):
        r, theta = radius_angle([1.0, 1.0])
        assert r == pytest.approx(2.0, rel=1e-12)
        assert theta == pytest.approx(np.pi / 2, rel=1e-12)

    def test_unit_triple(self):
        r, theta = radius_angle([1.0, 1.0, 1.0])
        assert r == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)
        assert theta == pytest.approx(3.0 * np.pi / 4, rel=1e-12)

    def test_angle_is_unreduced(self):
        _, theta = radius_angle([10.0, 10.0, 10.0, 10.0])
        assert theta > np.pi

    def test_opposite_weights_cancel(self):
        r, theta = radius_angle([2.5, -2.5])
        assert theta == 0.0
        assert r == pytest.approx(1.0 + 2.5**2, rel=1e-12)


class TestReport:
    def test_golden_omega(self):
        point = standard_kahler(2)
        rep = dhym_report(point, KForm(4, 2, point.omega.coeffs))
        assert rep.r == pytest.approx(2.0, rel=1e-12)
        assert rep.theta == pytest.approx(np.pi / 2, rel=1e-12)
        assert rep.p02_norm < 1e-14
        assert rep.im_residual < 1e-12
        assert rep.vol_identity_residual < 1e-12
        assert rep.im_identity_residual < 1e-12

    def test_serialised_fields(self):
        point = standard_kahler(2)
        payload = dhym_report(point, KForm.zero(4, 2)).to_dict()
        assert set(payload) == {"r", "theta", "p02_norm", "im_residual"}
        assert payload["r"] == 1.0
        assert payload["theta"] == 0.0

    def test_serialised_angle_is_wrapped(self):
        point = standard_kahler(4)
        f = KForm.zero(8, 2)
        for j in range(4):
            f = f + KForm.monomial(8, (2 * j, 2 * j + 1), 10.0)
        rep = dhym_report(point, f)
        assert rep.theta > np.pi
        wrapped = rep.to_dict()["theta"]
        assert -np.pi <= wrapped < np.pi
        assert wrapped == pytest.approx(rep.theta - 2.0 * np.pi, rel=1e-12)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_serialised_angle_at_the_boundary_is_minus_pi(self, sign):
        # F = +-omega on C^4 has four eigenvalues +-1, so theta = +-pi exactly;
        # the wrap into [-pi, pi) sends both to -pi.
        point = standard_kahler(4)
        rep = dhym_report(point, sign * point.omega)
        assert rep.theta == sign * np.pi
        assert rep.to_dict()["theta"] == -np.pi

    def test_identities_hold_for_random_input(self):
        rng = np.random.default_rng(98)
        for n in (1, 2, 3, 4):
            point = standard_kahler(n)
            for _ in range(15):
                f = KForm(2 * n, 2, rng.standard_normal(comb(2 * n, 2)))
                rep = dhym_report(point, f)
                assert rep.im_residual < 1e-12
                assert rep.vol_identity_residual < 1e-12
                assert rep.im_identity_residual < 1e-12
                assert rep.r >= 1.0

    def test_line_case_reduces_to_cosine(self):
        point = standard_kahler(1)
        rep = dhym_report(point, KForm.monomial(2, (0, 1), 3.0))
        assert rep.r == pytest.approx(np.sqrt(10.0), rel=1e-12)
        assert rep.theta == pytest.approx(np.arctan(3.0), rel=1e-12)
        assert rep.im_identity_residual < 1e-12

    def test_p02_norm_reported(self):
        point = standard_kahler(2)
        f = KForm.monomial(4, (0, 2)) - KForm.monomial(4, (1, 3))
        rep = dhym_report(point, f)
        assert rep.p02_norm == pytest.approx(1.0, rel=1e-12)
        assert rep.r == pytest.approx(1.0, rel=1e-12)

    def test_rejects_complex_input(self):
        point = standard_kahler(2)
        with pytest.raises(ValueError, match="real"):
            dhym_report(point, KForm(4, 2, np.zeros(6, dtype=complex)))

    def test_carries_its_projection_and_normal_form(self, transported_point):
        rng = np.random.default_rng(99)
        points = [standard_kahler(n) for n in (1, 2, 3)] + [transported_point[1]]
        for point in points:
            n = point.n
            f = KForm(2 * n, 2, rng.standard_normal(comb(2 * n, 2)))
            rep = dhym_report(point, f)
            invariant = one_one_part(point, f)
            assert np.array_equal(rep.f11.coeffs, invariant.coeffs)
            nf = normal_form(point, invariant)
            assert np.array_equal(rep.normal.lambdas, nf.lambdas)
            assert np.array_equal(rep.normal.frame, nf.frame)
            assert set(rep.to_dict()) == {"r", "theta", "p02_norm", "im_residual"}
            assert "f11" not in repr(rep) and "normal" not in repr(rep)


class TestBatches:
    """A batch of forms (and covectors) gives each row's single-form result."""

    @staticmethod
    def batch(rng, point, rows=5):
        n = point.n
        coeffs = rng.standard_normal((rows, comb(2 * n, 2)))
        return KForm(2 * n, 2, coeffs), [KForm(2 * n, 2, c) for c in coeffs]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_report_and_normal_form_rows(self, n, transported_point):
        rng = np.random.default_rng(150 + n)
        points = [standard_kahler(n)] + ([transported_point[1]] if n == 3 else [])
        for point in points:
            f, rows = self.batch(rng, point)
            rep = dhym_report(point, f)
            nf = rep.normal
            assert nf.lambdas.shape == (5, n) and nf.frame.shape == (5, 2 * n, 2 * n)
            assert np.all(np.diff(nf.lambdas, axis=-1) <= 0)
            for i, row in enumerate(rows):
                one = dhym_report(point, row)
                for name in ("r", "theta", "p02_norm"):
                    assert getattr(rep, name)[i] == pytest.approx(getattr(one, name), rel=1e-12)
                for name in ("im_residual", "vol_identity_residual", "im_identity_residual"):
                    assert abs(getattr(rep, name)[i] - getattr(one, name)) <= 1e-12
                assert rel_residual(rep.f11.coeffs[i], one.f11.coeffs) <= 1e-14
                assert rel_residual(nf.lambdas[i], one.normal.lambdas) <= 1e-12
                assert rel_residual(nf.frame[i], one.normal.frame) <= 1e-12
                assert rel_residual(nf.omega_nabla.coeffs[i], one.normal.omega_nabla.coeffs) <= 1e-12
                assert rel_residual(nf.eta.gram[i], one.normal.eta.gram) <= 1e-12
                assert rep.to_dict()["theta"][i] == pytest.approx(one.to_dict()["theta"], rel=1e-12)
            assert one_one_residual(point, rep.f11).shape == (5,)
            assert np.all(one_one_residual(point, rep.f11) <= 1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_symbol_and_duality_rows(self, n, monkeypatch):
        rng = np.random.default_rng(160 + n)
        point = standard_kahler(n)
        f, rows = self.batch(rng, point)
        nf = dhym_report(point, f).normal
        xi = rng.standard_normal((5, 2 * n))
        sigma, floor = symbol_bound(point, nf, KForm(2 * n, 1, xi))
        duality = j_duality_residual(point, KForm(2 * n, 1, xi))
        assert sigma.shape == floor.shape == duality.shape == (5,)
        for i, row in enumerate(rows):
            one_nf = dhym_report(point, row).normal
            one = symbol_bound(point, one_nf, KForm(2 * n, 1, xi[i]))
            assert (sigma[i], floor[i]) == pytest.approx(one, rel=1e-12)
            assert abs(duality[i] - j_duality_residual(point, KForm(2 * n, 1, xi[i]))) <= 1e-12
            # A row of a batched normal form is a normal form of its own.
            row_nf = NormalForm(point, nf.lambdas[i], nf.frame[i])
            assert symbol_bound(point, row_nf, KForm(2 * n, 1, xi[i])) == pytest.approx(one, rel=1e-12)
        monkeypatch.setattr(dhym_module, "ONE_ONE_TOL", -1.0)
        with pytest.raises(ValueError, match="symbol routes disagree"):
            symbol_bound(point, nf, KForm(2 * n, 1, xi))

    def test_one_bad_row_rejects_the_batch(self):
        point = standard_kahler(2)
        good = KForm(4, 2, point.omega.coeffs)
        mixed = KForm(4, 2, np.stack([good.coeffs, KForm.monomial(4, (0, 2)).coeffs]))
        assert one_one_residual(point, mixed)[0] == 0.0
        with pytest.raises(ValueError, match="not of type"):
            normal_form(point, mixed)

    def test_frames_must_match_the_eigenvalue_rows(self):
        point = standard_kahler(2)
        with pytest.raises(ValueError, match="one per row"):
            NormalForm(point, np.zeros((3, 2)), np.stack([np.eye(4)] * 2))
        with pytest.raises(ValueError, match="eigenvalues"):
            NormalForm(point, np.zeros((3, 3)), np.stack([np.eye(4)] * 3))

    def test_radius_angle_per_row(self):
        lam = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, -2.0]])
        r, theta = radius_angle(lam)
        for i, row in enumerate(lam):
            assert (r[i], theta[i]) == radius_angle(row)


class TestRescaled:
    def test_power_identity(self):
        rng = np.random.default_rng(99)
        for n in (2, 3, 4):
            point = standard_kahler(n)
            f = random_one_one(rng, point)
            nf = normal_form(point, f)
            r, _ = radius_angle(nf.lambdas)
            tilde = nf.rescaled()
            lhs = wedge_power(tilde, n - 1)
            rhs = (1.0 / r) * wedge_power(nf.omega_nabla, n - 1)
            assert rel_residual(lhs.coeffs, rhs.coeffs) < 1e-12

    def test_line_case_has_no_rescaling(self):
        point = standard_kahler(1)
        assert normal_form(point, KForm.monomial(2, (0, 1))).rescaled() is None

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_each_row_of_a_batch_is_the_single_call(self, n):
        point = standard_kahler(n)
        raw = KForm(2 * n, 2, np.random.default_rng(100 + n).standard_normal((300, comb(2 * n, 2))))
        f = one_one_part(point, raw)
        batch = normal_form(point, f).rescaled().coeffs
        for i, row in enumerate(f.coeffs):
            assert np.array_equal(batch[i], normal_form(point, KForm(2 * n, 2, row)).rescaled().coeffs), i


class TestSymbol:
    def test_line_golden(self):
        point = standard_kahler(1)
        sigma, bound = symbol_bound(
            point, KForm.monomial(2, (0, 1), 2.0), KForm.monomial(2, (0,))
        )
        assert sigma == pytest.approx(0.2, rel=1e-12)
        assert bound == pytest.approx(0.2, rel=1e-12)

    def test_flat_symbol_is_norm(self):
        point = standard_kahler(2)
        xi = KForm(4, 1, np.array([1.0, 2.0, 0.0, -1.0]))
        sigma, bound = symbol_bound(point, KForm.zero(4, 2), xi)
        assert sigma == pytest.approx(6.0, rel=1e-12)
        assert bound == pytest.approx(6.0, rel=1e-12)

    def test_ellipticity_bound(self):
        rng = np.random.default_rng(100)
        for n in (2, 3):
            point = standard_kahler(n)
            for _ in range(40):
                f = random_one_one(rng, point)
                xi = KForm(2 * n, 1, rng.standard_normal(2 * n))
                sigma, bound = symbol_bound(point, f, xi)
                assert sigma >= bound - 1e-12
                assert sigma > 0.0

    def test_route_tolerance_is_read_at_call_time(self, monkeypatch):
        # The default used to be bound when the module loaded, so a zero ONE_ONE_TOL passed.
        rng = np.random.default_rng(101)
        point = standard_kahler(3)
        nf = normal_form(point, random_one_one(rng, point))
        xi = KForm(6, 1, rng.standard_normal(6))
        symbol_bound(point, nf, xi)
        monkeypatch.setattr(dhym_module, "ONE_ONE_TOL", 0.0)
        with pytest.raises(ValueError, match="symbol routes disagree"):
            symbol_bound(point, nf, xi)

    def test_accepts_prepared_normal_form(self):
        rng = np.random.default_rng(101)
        point = standard_kahler(3)
        nf = normal_form(point, random_one_one(rng, point))
        xi = KForm(6, 1, rng.standard_normal(6))
        direct = symbol_bound(point, nf, xi)
        assert direct[0] > 0.0


class TestJduality:
    def test_plane_golden(self):
        point = standard_kahler(2)
        assert j_duality_residual(point, KForm.monomial(4, (0,))) == 0.0

    def test_all_dimensions(self):
        rng = np.random.default_rng(102)
        for n in (1, 2, 3, 4):
            point = standard_kahler(n)
            for _ in range(15):
                alpha = KForm(2 * n, 1, rng.standard_normal(2 * n))
                assert j_duality_residual(point, alpha) < 1e-13


class TestTransportedPoint:
    def test_frame_orthonormal(self, transported_point):
        _, point = transported_point
        q = point.frame
        assert rel_residual(q.T @ point.metric.gram @ q, np.eye(6)) < 1e-12

    def test_eigenvalues_transport(self, transported_point):
        s, point = transported_point
        rng = np.random.default_rng(103)
        std = standard_kahler(3)
        f = random_one_one(rng, std)
        moved = pullback(LinearMap(6, s), f)
        assert rel_residual(
            np.sort(normal_form(point, moved).lambdas),
            np.sort(normal_form(std, f).lambdas),
        ) < 1e-10

    def test_report_identities(self, transported_point):
        _, point = transported_point
        rng = np.random.default_rng(104)
        f = KForm(6, 2, rng.standard_normal(15))
        rep = dhym_report(point, f)
        assert rep.im_residual < 1e-12
        assert rep.vol_identity_residual < 1e-12
        assert rep.im_identity_residual < 1e-12

    def test_j_duality(self, transported_point):
        _, point = transported_point
        rng = np.random.default_rng(105)
        alpha = KForm(6, 1, rng.standard_normal(6))
        assert j_duality_residual(point, alpha) < 1e-12


def rotation_points(n):
    return [standard_kahler(n), transported(n, 110 + n)]


class TestRandomUnitaryRotation:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_scipy_expm_of_the_same_generator(self, n):
        for k, point in enumerate(rotation_points(n)):
            rot = random_unitary_rotation(np.random.default_rng([111, n, k]), point)
            rng = np.random.default_rng([111, n, k])
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            x = ROTATION_MAGNITUDE * 0.5 * (x - x.conj().T)
            # The realification of x in the frame u_1, v_1, ..., u_n, v_n.
            real = np.kron(x.real, np.eye(2)) + np.kron(x.imag, np.array([[0.0, -1.0], [1.0, 0.0]]))
            q = point.frame
            want = q @ scipy.linalg.expm(real) @ q.T @ point.metric.gram
            assert np.max(np.abs(rot.matrix - want)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_commutes_with_j_and_is_an_isometry(self, n):
        rng = np.random.default_rng(112 + n)
        for point in rotation_points(n):
            r = random_unitary_rotation(rng, point).matrix
            jm, g = point.j_map.matrix, point.metric.gram
            assert rel_residual(r @ jm, jm @ r) < 1e-12
            assert rel_residual(r.T @ g @ r, g) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_nan_draw_raises(self, n):
        class NanGenerator:
            def standard_normal(self, shape):
                return np.full(shape, np.nan)

        with pytest.raises(ValueError):
            random_unitary_rotation(NanGenerator(), standard_kahler(n))


def reference_rotation(rng, point):
    """The per-sample body random_unitary_rotation had before its arithmetic took a stack."""
    n = point.n
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = ROTATION_MAGNITUDE * 0.5 * (x - x.conj().T)
    real = np.zeros((2 * n, 2 * n))
    real[0::2, 0::2] = x.real
    real[0::2, 1::2] = -x.imag
    real[1::2, 0::2] = x.imag
    real[1::2, 1::2] = x.real
    mu, w = np.linalg.eigh(1j * real)
    expm = ((w * np.exp(-1j * mu)) @ w.conj().T).real
    q = point.frame
    return q @ expm @ (q.T @ point.metric.gram)


def stack_points():
    points = [p for n in (1, 2, 3) for p in rotation_points(n)]
    return points + [standard_su3().point]


class TestStackedRotations:
    @pytest.mark.parametrize("k", range(7))
    def test_each_row_is_the_single_call(self, k):
        point = stack_points()[k]
        rng_single, rng_stack, rng_ref = (np.random.default_rng([113, k]) for _ in range(3))
        singles = [random_unitary_rotation(rng_single, point).matrix for _ in range(40)]
        generators = np.stack([_rotation_generator(rng_stack, point.n) for _ in range(40)])
        stack = _unitary_rotations(point, generators)
        assert stack.matrix.shape == (40, 2 * point.n, 2 * point.n)
        for row, single in zip(stack.matrix, singles):
            assert np.array_equal(row, single)
            assert np.array_equal(row, reference_rotation(rng_ref, point))
        assert rng_stack.bit_generator.state == rng_single.bit_generator.state
        assert rng_ref.bit_generator.state == rng_single.bit_generator.state

    def test_leading_axes_are_kept(self):
        point = standard_kahler(2)
        generators = np.stack([_rotation_generator(np.random.default_rng(k), 2) for k in range(6)])
        flat = _unitary_rotations(point, generators).matrix
        grid = _unitary_rotations(point, generators.reshape(2, 3, 2, 2)).matrix
        assert np.array_equal(grid.reshape(6, 4, 4), flat)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_nan_generator_row_rejects_the_stack(self, n):
        generators = np.stack([_rotation_generator(np.random.default_rng(k), n) for k in range(5)])
        _unitary_rotations(standard_kahler(n), generators)
        generators[3] = np.nan
        with pytest.raises(ValueError, match="could not draw a unitary rotation"):
            _unitary_rotations(standard_kahler(n), generators)

    @pytest.mark.parametrize("bad", [1.01, np.nan])
    @pytest.mark.parametrize("n", [2, 3])
    def test_one_row_that_breaks_omega_rejects_the_stack(self, monkeypatch, n, bad):
        # Scaling one row's eigenvectors scales its rotation by bad^2, so only
        # that row stops preserving omega; a NaN row must fail the check too
        # rather than pass a comparison that NaN makes false.
        generators = np.stack([_rotation_generator(np.random.default_rng(k), n) for k in range(5)])
        eigh = np.linalg.eigh

        def one_bad_row(a):
            mu, w = eigh(a)
            w = w.copy()
            w[2] *= bad
            return mu, w

        monkeypatch.setattr(np.linalg, "eigh", one_bad_row)
        with pytest.raises(ValueError, match="could not draw a unitary rotation"):
            _unitary_rotations(standard_kahler(n), generators)
        monkeypatch.undo()
        _unitary_rotations(standard_kahler(n), generators)
