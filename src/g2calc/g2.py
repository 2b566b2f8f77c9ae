"""The standard G2 package on R^7: associative form, induced metric, projections.

The positive 3-form phi used throughout is

    phi = e123 + e145 + e167 + e246 - e257 - e347 - e356

with coassociative dual

    star(phi) = e4567 + e2367 + e2345 + e1357 - e1346 - e1256 - e1247.

Any 3-form in the same open orbit induces a metric through the bilinear
form B(u, v) vol = (1/6) i(u)phi ^ i(v)phi ^ phi, normalised by the ninth
root of its determinant so that phi has unit comass.  Two-forms split into
a 7-dimensional piece {i(u)phi} and a 14-dimensional piece annihilated by
wedging with star(phi); three-forms split as 1 + 7 + 27.  Projections are
assembled from the wedge operator's integer spectrum, never from an
eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .forms import (
    KForm,
    Metric,
    euclidean_metric,
    flat,
    form_inner,
    form_norm,
    hodge,
    interior,
    interior_matrix,
    row_residual,
    wedge,
    wedge_matrix,
    _dot,
    _matvec,
    _scalar,
    _vecmat,
    _wedge_power,
)

PHI_MONOMIALS = (
    ((0, 1, 2), 1.0),
    ((0, 3, 4), 1.0),
    ((0, 5, 6), 1.0),
    ((1, 3, 5), 1.0),
    ((1, 4, 6), -1.0),
    ((2, 3, 6), -1.0),
    ((2, 4, 5), -1.0),
)


def _from_monomials(grade: int, monomials) -> KForm:
    total = KForm.zero(7, grade)
    for indices, c in monomials:
        total = total + KForm.monomial(7, indices, c)
    return total


@dataclass(frozen=True)
class TwoFormSplit:
    """A 2-form written as i(u)phi plus a piece in the 14-dimensional part."""

    u: np.ndarray
    f14: KForm


@dataclass(frozen=True)
class G2Data:
    """A G2 package: forms, induced metric, and type-decomposition projectors."""

    phi: KForm
    star_phi: KForm
    metric: Metric
    proj2_7: np.ndarray
    proj2_14: np.ndarray
    proj3_1: np.ndarray
    proj3_7: np.ndarray
    proj3_27: np.ndarray
    basis2_7: np.ndarray  # columns i(e_i)phi, 21 x 7
    _cache: dict = field(default_factory=dict, repr=False, compare=False)


def metric_from_three_form(phi: KForm) -> Metric:
    """Recover the metric (and orientation) a positive 3-form induces.

    Raises ValueError when the intermediate bilinear form is not definite,
    which is the algebraic meaning of "not a G2 structure".  A batch of
    3-forms gives a stack of metrics; every row must be definite, and all
    rows must induce the same orientation.
    """
    if (phi.dim, phi.grade) != (7, 3):
        raise ValueError("expected a 3-form on R^7")
    # B = M^T P M / 6, where M has the columns i(e_i)phi and
    # P[a, b] = e_a ^ e_b ^ phi / vol = <e_a, star(phi ^ e_b)> in the
    # euclidean metric, whose star on 5-forms only moves and signs rows.
    contractions = interior_matrix(phi)
    pairing = euclidean_metric(7).hodge_matrix(5) @ wedge_matrix(phi, 2)
    raw = contractions.swapaxes(-1, -2) @ pairing @ contractions / 6.0
    eigs = np.linalg.eigvalsh(raw)  # ascending
    lo, hi, size = eigs[..., 0], eigs[..., -1], np.abs(eigs)
    if not ((lo * hi > 0) & (size.min(axis=-1) >= 1e-12 * size.max(axis=-1))).all():
        raise ValueError("not a G2 structure: induced bilinear form is not definite")
    # A definite form in odd dimension has a determinant of its eigenvalues' sign.
    orientation = 1 if lo.flat[0] > 0 else -1
    if (orientation * lo < 0).any():
        raise ValueError("a batch of 3-forms must induce one orientation")
    ninth_root = orientation * np.power(np.abs(np.linalg.det(raw)), 1.0 / 9.0)
    return Metric(7, raw / ninth_root[..., None, None], orientation=orientation)


def g2_bundle(phi: KForm) -> G2Data:
    """Assemble metric, dual form and projections for a positive 3-form."""
    metric = metric_from_three_form(phi)
    star_phi = hodge(phi, metric)

    basis2_7 = interior_matrix(phi)

    # alpha -> star(phi ^ alpha) on 2-forms has eigenvalue 2 on the 7-part
    # and -1 on the 14-part, so both projections are linear in the operator.
    wedge_op = metric.hodge_matrix(5) @ wedge_matrix(phi, 2)
    eye2 = np.eye(21)
    proj2_7 = (wedge_op + eye2) / 3.0
    proj2_14 = (2.0 * eye2 - wedge_op) / 3.0

    gram3 = metric.gram_on_forms(3)
    phi_norm2 = float(phi.coeffs @ gram3 @ phi.coeffs)
    proj3_1 = np.outer(phi.coeffs, gram3 @ phi.coeffs) / phi_norm2
    basis3_7 = interior_matrix(star_phi)  # columns i(e_i)star_phi, 35 x 7
    normal = basis3_7.T @ gram3 @ basis3_7
    proj3_7 = basis3_7 @ np.linalg.solve(normal, basis3_7.T @ gram3)
    proj3_27 = np.eye(35) - proj3_1 - proj3_7

    return G2Data(
        phi=phi,
        star_phi=star_phi,
        metric=metric,
        proj2_7=proj2_7,
        proj2_14=proj2_14,
        proj3_1=proj3_1,
        proj3_7=proj3_7,
        proj3_27=proj3_27,
        basis2_7=basis2_7,
    )


@lru_cache(maxsize=None)
def standard_g2() -> G2Data:
    """The shared package for the standard flat structure."""
    return g2_bundle(_from_monomials(3, PHI_MONOMIALS))


def _or_standard(data: G2Data | None) -> G2Data:
    """The given structure, or the standard one for None."""
    return standard_g2() if data is None else data


def _require_two_form(f: KForm) -> None:
    if (f.dim, f.grade) != (7, 2):
        raise ValueError("expected a 2-form on R^7")


def project2(f: KForm, data: G2Data | None = None) -> TwoFormSplit:
    """Split a 2-form into i(u)phi and its 14-part; a batch gives u of shape (..., 7)."""
    data = _or_standard(data)
    _require_two_form(f)
    part7 = _matvec(data.proj2_7, f.coeffs)
    cols = data.basis2_7
    rhs = _matvec(cols.T, part7)
    # One right-hand side per row, so that a batch row solves as a single form does.
    u = np.linalg.solve(cols.T @ cols, rhs[..., None])[..., 0]
    f14 = KForm(7, 2, f.coeffs - _matvec(cols, u))
    return TwoFormSplit(u=u, f14=f14)


def assemble2(split: TwoFormSplit, data: G2Data | None = None) -> KForm:
    """Inverse of project2."""
    data = _or_standard(data)
    return interior(split.u, data.phi) + split.f14


def project3(gamma: KForm, data: G2Data | None = None) -> tuple[KForm, KForm, KForm]:
    """Split a 3-form into its 1, 7 and 27 dimensional components."""
    data = _or_standard(data)
    if (gamma.dim, gamma.grade) != (7, 3):
        raise ValueError("expected a 3-form on R^7")
    return (
        KForm(7, 3, data.proj3_1 @ gamma.coeffs),
        KForm(7, 3, data.proj3_7 @ gamma.coeffs),
        KForm(7, 3, data.proj3_27 @ gamma.coeffs),
    )


def lambda14_wedge_norm(beta: KForm, data: G2Data | None = None) -> float:
    """Norm of beta ^ star(phi); zero exactly on the 14-dimensional part."""
    data = _or_standard(data)
    _require_two_form(beta)
    return form_norm(wedge(beta, data.star_phi), data.metric)


def identity_battery(u: np.ndarray, beta: KForm, data: G2Data | None = None) -> float:
    """Max relative residual over six contraction identities.

    The first three hold for every vector u; the last three additionally
    need beta to lie in the 14-dimensional part of the 2-forms.  Batches of
    vectors and forms give the maximum of each row.
    """
    data = _or_standard(data)
    _require_two_form(beta)
    u = np.asarray(u, dtype=float)
    m = data.metric
    phi, star_phi = data.phi, data.star_phi

    ub = flat(u, m)
    star_ub = hodge(ub, m)
    iu_phi = interior(u, phi)
    iu_star_phi = interior(u, star_phi)
    u_norm2 = _dot(_vecmat(u, m.gram), u)
    beta_norm2 = form_inner(beta, beta, m)

    residuals = [
        row_residual(wedge(phi, iu_star_phi).coeffs, -4.0 * star_ub.coeffs),
        row_residual(wedge(star_phi, iu_phi).coeffs, 3.0 * star_ub.coeffs),
        row_residual(wedge(phi, iu_phi).coeffs, 2.0 * hodge(iu_phi, m).coeffs),
        row_residual(
            _wedge_power(iu_phi, 3).coeffs,
            (6.0 * u_norm2 * star_ub).coeffs,
        ),
        row_residual(
            wedge(wedge(iu_phi, iu_phi), beta).coeffs,
            2.0 * wedge(wedge(star_phi, ub), interior(u, beta)).coeffs,
        ),
        row_residual(
            wedge(iu_phi, wedge(beta, beta)).coeffs,
            (-beta_norm2 * star_ub + wedge(phi, interior(u, wedge(beta, beta)))).coeffs,
        ),
    ]
    # np.max, unlike max(), lets a NaN residual through.
    return _scalar(np.max(residuals, axis=0))
