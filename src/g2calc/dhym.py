"""Constant Kahler structures and the normal form of a deformed curvature.

A point of a Kahler manifold is modelled by its tangent space: an even
dimensional inner-product space together with a compatible complex
structure J and the associated two-form omega = g(J., .).  A real (1,1)
curvature representative F admits a unitary frame in which it is
diagonal, F = sum_i lambda_i u^i ^ v^i with v_i = J u_i; every closed
form identity of the deformed equation is a statement about those
eigenvalues and is certified here against direct wedge arithmetic.

The radius r = prod sqrt(1 + lambda_i^2) and angle theta =
sum arctan(lambda_i) encode the complex volume ratio
(omega + iF)^n = r e^{i theta} omega^n.

The (1,1) residual, the (p,q) projection, the normal form, the radius and
angle, the report, the symbol bound and the J-duality residual also take a
batch of forms (and of covectors) and return one value per row; a
``NormalForm`` or ``DhymReport`` of a batch holds arrays with the batch's
leading axes.  A check that guards a result, such as the (1,1) test of
``normal_form`` or the route comparison of ``symbol_bound``, raises when
any row fails it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import factorial

import numpy as np

from .forms import (
    ABS_FLOOR,
    KForm,
    LinearMap,
    Metric,
    euclidean_metric,
    form_norm,
    hodge,
    multi_indices,
    pullback,
    rel_residual,
    row_residual,
    wedge,
    _matvec,
    _scalar,
    _skew,
    _two_form,
    _wedge_power,
)

ONE_ONE_TOL = 1e-8
FRAME_TOL = 1e-10
# Size of the skew-Hermitian generator of random_unitary_rotation, and the
# tolerance to which the rotation must preserve omega.
ROTATION_MAGNITUDE = 0.6
ROTATION_TOL = 1e-9
SYMBOL_ROUTES_ERROR = "symbol routes disagree beyond tolerance"
ROTATION_ERROR = "could not draw a unitary rotation"


def _wrap_angle(theta: float) -> float:
    """theta reduced modulo 2 pi into [-pi, pi); pi itself maps to -pi."""
    return _scalar((theta + np.pi) % (2.0 * np.pi) - np.pi)


def _check_complex_dim(n) -> None:
    if not (isinstance(n, (int, np.integer)) and 1 <= n <= 4):
        raise ValueError(f"complex dimension must lie in 1..4, got {n}")


@dataclass(frozen=True)
class HermitianPoint:
    """An inner-product space with a compatible constant complex structure."""

    n: int
    metric: Metric
    j_map: LinearMap

    def __post_init__(self):
        _check_complex_dim(self.n)
        if self.metric.dim != 2 * self.n:
            raise ValueError("metric dimension must be twice the complex dimension")
        jm = self.j_map.matrix
        if np.iscomplexobj(jm):
            raise ValueError("the complex structure must be a real matrix")
        g = self.metric.gram
        if rel_residual(jm @ jm, -np.eye(2 * self.n)) > FRAME_TOL:
            raise ValueError("matrix does not square to minus the identity")
        if rel_residual(jm.T @ g @ jm, g) > FRAME_TOL:
            raise ValueError("complex structure is not an isometry of the metric")
        top = _wedge_power(self.omega, self.n)
        vol = float(factorial(self.n)) * self.metric.volume_form()
        if rel_residual(top.coeffs, vol.coeffs) > ONE_ONE_TOL:
            raise ValueError("orientation does not match the complex structure")

    @cached_property
    def omega(self) -> KForm:
        """The fundamental two-form g(J., .)."""
        return _two_form(self.j_map.matrix.T @ self.metric.gram)

    @cached_property
    def frame(self) -> np.ndarray:
        """Orthonormal columns u_1, v_1, ..., u_n, v_n with v_i = J u_i."""
        g = self.metric.gram
        jm = self.j_map.matrix
        cols: list[np.ndarray] = []
        for cand in np.eye(2 * self.n):
            w = cand.copy()
            for q in cols:
                w -= q * (q @ g @ w)
            norm = float(np.sqrt(w @ g @ w))
            if norm < 1e-8:
                continue
            u = w / norm
            v = jm @ u
            for q in cols + [u]:
                v -= q * (q @ g @ v)
            v /= float(np.sqrt(v @ g @ v))
            cols.extend([u, v])
            if len(cols) == 2 * self.n:
                break
        mat = np.column_stack(cols)
        mat.flags.writeable = False
        return mat

    @cached_property
    def _holomorphic_change(self) -> tuple[LinearMap, LinearMap]:
        # Columns dual to the coframe (dz^1..dz^n, dzbar^1..dzbar^n), and the
        # inverse, built once per point.  Pulling a 2-form back through them
        # builds a matrix only for n = 1; for n >= 2 the pullback contracts.
        q = self.frame
        u, v = q[:, 0::2], q[:, 1::2]
        t = np.hstack([(u - 1j * v) / 2.0, (u + 1j * v) / 2.0])
        dim = 2 * self.n
        return LinearMap(dim, t), LinearMap(dim, np.linalg.inv(t))


@lru_cache(maxsize=None)
def standard_kahler(n: int) -> HermitianPoint:
    """The flat structure pairing coordinates (x_1, y_1, ..., x_n, y_n)."""
    _check_complex_dim(n)
    jm = np.zeros((2 * n, 2 * n))
    for j in range(n):
        jm[2 * j + 1, 2 * j] = 1.0
        jm[2 * j, 2 * j + 1] = -1.0
    return HermitianPoint(n, euclidean_metric(2 * n), LinearMap(2 * n, jm))


def one_one_residual(point: HermitianPoint, f: KForm) -> float:
    """Deviation of a two-form from J-invariance, relative to its size."""
    if (f.dim, f.grade) != (2 * point.n, 2):
        raise ValueError(f"expected a 2-form on R^{2 * point.n}")
    return _scalar(row_residual(pullback(point.j_map, f).coeffs, f.coeffs))


@lru_cache(maxsize=None)
def _type_mask(n: int, grade: int, p: int) -> np.ndarray:
    # Multi-indices over (dz^1..dz^n, dzbar^1..dzbar^n) with p holomorphic factors.
    mask = np.array([sum(1 for i in idx if i < n) == p for idx in multi_indices(2 * n, grade)])
    mask.flags.writeable = False
    return mask


def pq_project(point: HermitianPoint, a: KForm, p: int, q: int) -> KForm:
    """Component of a form with p holomorphic and q antiholomorphic factors."""
    if a.dim != 2 * point.n:
        raise ValueError(f"expected a form on R^{2 * point.n}")
    if p < 0 or q < 0 or p + q != a.grade:
        raise ValueError(f"type ({p},{q}) does not match grade {a.grade}")
    return _pq_parts(point, a, (p,))[0]


def _pq_parts(point: HermitianPoint, a: KForm, holomorphic: tuple[int, ...]) -> list[KForm]:
    # The components of a with each given number of holomorphic factors,
    # masked from one pullback through the holomorphic change of basis.
    t, t_inv = point._holomorphic_change
    pulled = pullback(t, a).coeffs
    return [
        pullback(t_inv, KForm(a.dim, a.grade, np.where(_type_mask(point.n, a.grade, p), pulled, 0.0)))
        for p in holomorphic
    ]


@dataclass(frozen=True)
class NormalForm:
    """A unitary frame diagonalising a (1,1) form over a Hermitian point.

    The frame columns are ordered u_1, v_1, ..., u_n, v_n; the form equals
    sum_i lambdas[i] u^i ^ v^i in the dual coframe, eigenvalues descending.
    A batch has lambdas of shape (..., n) and frames of shape (..., 2n, 2n).
    """

    point: HermitianPoint
    lambdas: np.ndarray
    frame: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=np.float64).copy()
        mat = np.asarray(self.frame, dtype=np.float64).copy()
        if lam.shape[-1:] != (self.point.n,):
            raise ValueError(f"need {self.point.n} eigenvalues, got shape {lam.shape}")
        if mat.shape != lam.shape[:-1] + (2 * self.point.n,) * 2:
            raise ValueError("frame must be a square matrix of the ambient dimension, "
                             "one per row of eigenvalues")
        lam.flags.writeable = False
        mat.flags.writeable = False
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "frame", mat)

    @cached_property
    def coframe(self) -> np.ndarray:
        """Rows are the coframe covectors u^1, v^1, ..., u^n, v^n."""
        w = self.frame.swapaxes(-1, -2) @ self.point.metric.gram
        w.flags.writeable = False
        return w

    def u_form(self, i: int) -> KForm:
        return KForm(2 * self.point.n, 1, self.coframe[..., 2 * i, :])

    def v_form(self, i: int) -> KForm:
        return KForm(2 * self.point.n, 1, self.coframe[..., 2 * i + 1, :])

    def diagonal(self, weights) -> KForm:
        """The two-form sum_i weights[i] u^i ^ v^i in this frame."""
        w = self.coframe
        a = w[..., 0::2, :].swapaxes(-1, -2) @ (np.asarray(weights)[..., None] * w[..., 1::2, :])
        return _two_form(a - a.swapaxes(-1, -2))

    @cached_property
    def omega_nabla(self) -> KForm:
        """The descendant two-form sum_i (1 + lambda_i^2) u^i ^ v^i."""
        return self.diagonal(1.0 + np.square(self.lambdas))

    @cached_property
    def eta(self) -> Metric:
        """The descendant inner product g(., .) + g(F# ., F# .)."""
        w = self.coframe
        weights = np.repeat(1.0 + np.square(self.lambdas), 2, axis=-1)
        return Metric(2 * self.point.n, w.swapaxes(-1, -2) @ (weights[..., None] * w))

    def rescaled(self) -> KForm | None:
        """Conformal multiple of omega_nabla whose (n-1) power has unit radius.

        Undefined for n = 1, where no rescaling can absorb the radius.
        """
        if self.point.n == 1:
            return None
        r, _ = radius_angle(self.lambdas)
        return np.power(r, -1.0 / (self.point.n - 1)) * self.omega_nabla


def normal_form(point: HermitianPoint, f: KForm | None = None) -> NormalForm:
    """Diagonalise a real (1,1) form in a unitary frame, eigenvalues descending.

    With no form this returns the zero normal form over an adapted frame.
    Raises ValueError when the input, or any row of a batch, is not
    J-invariant at ONE_ONE_TOL.
    """
    n = point.n
    if f is None:
        return NormalForm(point, np.zeros(n), point.frame)
    if np.iscomplexobj(f.coeffs):
        raise ValueError("normal form expects a real representative")
    if not np.all(one_one_residual(point, f) <= ONE_ONE_TOL):
        raise ValueError("form is not of type (1,1) at this tolerance")
    q = point.frame
    a = _skew(f)
    af = q.T @ a @ q
    h = af[..., 0::2, 1::2] + 1j * af[..., 0::2, 0::2]
    h = 0.5 * (h + h.conj().swapaxes(-1, -2))
    _, u = np.linalg.eigh(h)
    # Column c of u is the complex coordinate vector of the pair (u_c, J u_c).
    vec = np.empty(u.shape[:-2] + (2 * n, n))
    vec[..., 0::2, :] = u.real
    vec[..., 1::2, :] = u.imag
    uvecs = q @ vec
    vvecs = point.j_map.matrix @ uvecs
    lams = np.sum((uvecs.swapaxes(-1, -2) @ a) * vvecs.swapaxes(-1, -2), axis=-1)
    # Descending, ties kept in eigh's order.
    order = np.argsort(-lams, axis=-1, kind="stable")
    pairs = np.stack([np.take_along_axis(vecs, order[..., None, :], axis=-1)
                      for vecs in (uvecs, vvecs)], axis=-1)
    lambdas = np.take_along_axis(lams, order, axis=-1)
    nf = NormalForm(point, lambdas, pairs.reshape(pairs.shape[:-3] + (2 * n, 2 * n)))
    if not np.all(row_residual(nf.diagonal(lambdas).coeffs, f.coeffs) <= ONE_ONE_TOL):
        raise ValueError("normal form reconstruction failed at this tolerance")
    return nf


def radius_angle(lambdas: np.ndarray) -> tuple[float, float]:
    """Polar form of prod (1 + i lambda_i); the angle is left unreduced."""
    lam = np.asarray(lambdas, dtype=np.float64)
    r = _scalar(np.prod(np.sqrt(1.0 + np.square(lam)), axis=-1))
    theta = _scalar(np.sum(np.arctan(lam), axis=-1))
    return r, theta


@dataclass(frozen=True)
class DhymReport:
    """Certificates for one curvature representative at one point, or arrays over a batch.

    ``f11`` is the J-invariant part the certificates refer to and ``normal``
    its normal form; neither is serialized.
    """

    r: float
    theta: float
    p02_norm: float
    im_residual: float
    vol_identity_residual: float
    im_identity_residual: float
    f11: KForm = field(compare=False, repr=False)
    normal: NormalForm = field(compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "theta": _wrap_angle(self.theta),
            "p02_norm": self.p02_norm,
            "im_residual": self.im_residual,
        }


def dhym_report(point: HermitianPoint, f: KForm) -> DhymReport:
    """Certify the volume-ratio identities of a real curvature representative.

    The (0,2) component is measured and removed first, so the eigenvalue
    data always refers to the J-invariant part.  Residuals certify, in
    order: the vanishing of Im(e^{-i theta} (omega + iF)^n), the volume
    identity omega_nabla^n = r^2 omega^n, and the reproduction of
    omega_nabla^{n-1} by Im(i e^{-i theta} (omega + iF)^{n-1}).
    """
    n = point.n
    if (f.dim, f.grade) != (2 * n, 2):
        raise ValueError(f"expected a 2-form on R^{2 * n}")
    if np.iscomplexobj(f.coeffs):
        raise ValueError("curvature representative must be real")
    p02, p20 = _pq_parts(point, f, (0, 2))
    p02_norm = form_norm(p02, point.metric)
    f11 = KForm(2 * n, 2, np.real(f.coeffs - p02.coeffs - p20.coeffs))
    nf = normal_form(point, f11)
    r, theta = radius_angle(nf.lambdas)
    # Per-row scalars as columns against coefficient rows.
    r_col, phase = np.asarray(r)[..., None], np.exp(-1j * np.asarray(theta))[..., None]
    rho = KForm(2 * n, 2, point.omega.coeffs + 1j * f11.coeffs)
    rotated = phase * _wedge_power(rho, n).coeffs
    scale = np.maximum(np.linalg.norm(rotated, axis=-1), ABS_FLOOR)
    im_residual = _scalar(np.linalg.norm(np.imag(rotated), axis=-1) / scale)
    omega_top = _wedge_power(point.omega, n)
    vol_identity = _scalar(row_residual(
        _wedge_power(nf.omega_nabla, n).coeffs, r_col * r_col * omega_top.coeffs
    ))
    rho_low = _wedge_power(rho, n - 1)
    lhs = np.imag(1j * phase * rho_low.coeffs)
    rhs = (1.0 / r_col) * _wedge_power(nf.omega_nabla, n - 1).coeffs
    im_identity = _scalar(row_residual(lhs, rhs))
    return DhymReport(r, theta, p02_norm, im_residual, vol_identity, im_identity, f11, nf)


def symbol_bound(point: HermitianPoint, f: KForm | NormalForm, xi: KForm) -> tuple[float, float]:
    """Principal symbol of the linearised operator at a covector, with its floor.

    Returns (sigma, bound) where sigma = sum_i (xi(u_i)^2 + xi(v_i)^2)
    / (1 + lambda_i^2) and bound = |xi|^2 / (1 + max lambda_i^2), so
    ellipticity is the statement sigma >= bound.  The eigenvalue route is
    checked against the ratio n omega_nabla^{n-1} ^ xi ^ J^{-1} xi over
    omega_nabla^n to ONE_ONE_TOL, read at call time, before returning.
    Batches of forms and covectors give arrays, and any row whose routes
    disagree raises.
    """
    nf = f if isinstance(f, NormalForm) else normal_form(point, f)
    if (xi.dim, xi.grade) != (2 * point.n, 1):
        raise ValueError(f"expected a 1-form on R^{2 * point.n}")
    sigma, bound, disagreement = _symbol_routes(point, nf, xi)
    if not np.all(disagreement <= ONE_ONE_TOL):
        raise ValueError(SYMBOL_ROUTES_ERROR)
    return sigma, bound


def _symbol_routes(point: HermitianPoint, nf: NormalForm, xi: KForm):
    # symbol_bound's (sigma, bound) and the relative disagreement of the two
    # routes to sigma, without the check.
    n = point.n
    weights = 1.0 + np.square(nf.lambdas)
    comps = _matvec(nf.frame.swapaxes(-1, -2), xi.coeffs)
    sigma = np.sum((comps[..., 0::2] ** 2 + comps[..., 1::2] ** 2) / weights, axis=-1)
    j_xi = pullback(LinearMap(2 * n, -point.j_map.matrix), xi)
    numer = float(n) * wedge(_wedge_power(nf.omega_nabla, n - 1), wedge(xi, j_xi))
    denom = _wedge_power(nf.omega_nabla, n)
    sigma_wedge = numer.coeffs[..., 0] / denom.coeffs[..., 0]
    disagreement = row_residual(sigma[..., None], sigma_wedge[..., None])
    # One einsum, so that a row of a batch and a single covector sum alike.
    norm_sq = np.einsum("...i,ij,...j->...", xi.coeffs, point.metric.gram_inv, xi.coeffs)
    return _scalar(sigma), _scalar(norm_sq / weights.max(axis=-1)), disagreement


def j_duality_residual(point: HermitianPoint, alpha: KForm) -> float:
    """Residual of omega^{n-1} ^ alpha = (n-1)! star(J* alpha) for 1-forms."""
    if (alpha.dim, alpha.grade) != (2 * point.n, 1):
        raise ValueError(f"expected a 1-form on R^{2 * point.n}")
    lhs = wedge(_wedge_power(point.omega, point.n - 1), alpha)
    rhs = float(factorial(point.n - 1)) * hodge(
        pullback(point.j_map, alpha), point.metric
    )
    return _scalar(row_residual(lhs.coeffs, rhs.coeffs))


def random_unitary_rotation(rng: np.random.Generator, point: HermitianPoint) -> LinearMap:
    """A random isometry commuting with J, drawn from the exponential chart.

    A skew-Hermitian X of size ROTATION_MAGNITUDE is realified, in the
    frame of ``point``, to a real skew matrix S.  Its exponential comes
    from the Hermitian eigenproblem of iS: with (mu, W) = eigh(iS),
    exp(S) = Re(W diag(e^{-i mu}) W^H).  The result must preserve omega,
    R^T A R = A for A the skew matrix of omega, to ROTATION_TOL.  A draw
    that does not raises ValueError rather than drawing again, as does one
    whose eigenproblem fails.
    """
    return _unitary_rotations(point, _rotation_generator(rng, point.n))


def _rotation_generator(rng: np.random.Generator, n: int) -> np.ndarray:
    # The draws of one random_unitary_rotation: a complex Gaussian n x n matrix.
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _unitary_rotations(point: HermitianPoint, x: np.ndarray) -> LinearMap:
    # random_unitary_rotation's arithmetic on drawn generators x of shape
    # (..., n, n): a stack of rotations, each row equal to the single call's.
    # Any row that fails the omega check, a NaN row included, raises.
    n = point.n
    x = ROTATION_MAGNITUDE * 0.5 * (x - x.conj().swapaxes(-1, -2))
    real = np.zeros(x.shape[:-2] + (2 * n, 2 * n))
    real[..., 0::2, 0::2] = x.real
    real[..., 0::2, 1::2] = -x.imag
    real[..., 1::2, 0::2] = x.imag
    real[..., 1::2, 1::2] = x.real
    try:
        mu, w = np.linalg.eigh(1j * real)
    except np.linalg.LinAlgError as err:
        raise ValueError(ROTATION_ERROR) from err
    expm = ((w * np.exp(-1j * mu)[..., None, :]) @ w.conj().swapaxes(-1, -2)).real
    q = point.frame
    rot = q @ expm @ (q.T @ point.metric.gram)
    a = _skew(point.omega)
    preserved = (rot.swapaxes(-1, -2) @ a @ rot).reshape(rot.shape[:-2] + (-1,))
    # Written so that a NaN residual fails the check.
    if not np.all(row_residual(preserved, a.ravel()) < ROTATION_TOL):
        raise ValueError(ROTATION_ERROR)
    return LinearMap(2 * n, rot)
