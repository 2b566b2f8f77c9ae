"""Pointwise algebra of the deformed flux equation on the G2 model space.

A 2-form F (real convention) solves the deformed equation at a point when

    residual(F) = -F^3/6 + F ^ star(phi) = 0.

Writing F = i(u)phi + F14 for the type split, the residual rearranges into
a closed form whose leading coefficient is the cubic behind the Cartan
family, and every solution induces a second G2 structure through the graph
map 1 + F#.  The functions here certify those statements numerically:
the residual in both raw and decomposed shape, a root solver for the
diagonal family, the induced-structure star identity with its conformal
normalisation, the linearised density, the sharp norm bound, and the
injectivity of wedging with a solution.  The residuals, the type split,
the norm and cube bounds, the reformulation, the wedge rank, the solution
test, the scalar factor, the graph map, the induced structure, the
solution report and the linearised density also take a batch of fluxes and
return one value per row (``DdtReport`` then holds arrays).  Where a batch must pass a check to go on, as in
``solution_report`` and ``linearization_density``, one failing row raises
for the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forms import (
    KForm,
    LinearMap,
    flat,
    form_inner,
    form_norm,
    hodge,
    interior,
    pullback,
    row_residual,
    sharp2,
    wedge,
    wedge_matrix,
    _dot,
    _positions,
    _scalar,
    _vecmat,
    _wedge_power,
)
from .g2 import G2Data, metric_from_three_form, project2, _or_standard, _require_two_form

SOLUTION_TOL = 1e-9
DEGENERATE_TOL = 1e-10
RANK_CUTOFF = 1e-10
DENSITY_ROUTES_TOL = 1e-8
DENSITY_ROUTES_ERROR = "linearised density routes disagree beyond tolerance"

# Positions of e23, e45 and e67 among the 2-form coefficients.
_CARTAN_POSITIONS = [_positions(7, 2)[idx] for idx in ((1, 2), (3, 4), (5, 6))]


@dataclass(frozen=True)
class DdtReport:
    """Certified quantities attached to one solution, or arrays over a batch of them."""

    residual: KForm
    residual_norm: float
    scalar_factor: float
    lhs_minus_rhs_norm: float
    sign_C: int
    conformal_residual: float
    dual_target: KForm = field(compare=False, repr=False)
    tilde_star: KForm = field(compare=False, repr=False)


def ddt_residual(f: KForm, data: G2Data | None = None) -> KForm:
    """The 6-form -F^3/6 + F ^ star(phi)."""
    data = _or_standard(data)
    _require_two_form(f)
    return _residual(f, wedge(f, f), data)


def _residual(f: KForm, f_sq: KForm, data: G2Data) -> KForm:
    return wedge(f, data.star_phi) - (1.0 / 6.0) * wedge(f_sq, f)


def ddt_residual_decomposed(f: KForm, data: G2Data | None = None) -> KForm:
    """The same 6-form assembled from the type split of F.

    With F = i(u)phi + F14,

        residual = (3 - |u|^2 + |F14|^2/2) star(u_flat)
                   - F14^3/6
                   - star(phi) ^ u_flat ^ i(u)F14
                   - phi ^ F14 ^ i(u)F14.
    """
    data = _or_standard(data)
    _require_two_form(f)
    split = project2(f, data)
    u, f14 = split.u, split.f14
    m = data.metric

    ub = flat(u, m)
    star_ub = hodge(ub, m)
    u_norm2 = _dot(_vecmat(u, m.gram), u)
    f14_norm2 = np.real(form_inner(f14, f14, m))
    iuf14 = interior(u, f14)

    lead = (3.0 - u_norm2 + 0.5 * f14_norm2) * star_ub
    cube = (1.0 / 6.0) * _wedge_power(f14, 3)
    cross1 = wedge(wedge(data.star_phi, ub), iuf14)
    cross2 = wedge(wedge(data.phi, f14), iuf14)
    return lead - cube - cross1 - cross2


def _solves(residual_norm, flux_norm, tol: float):
    # The solution rule, on norms already computed: |residual| <= tol * max(1, |F|^3).
    return residual_norm <= tol * np.maximum(1.0, np.power(flux_norm, 3))


def is_solution(f: KForm, data: G2Data | None = None) -> bool:
    """Whether F solves the deformed equation at SOLUTION_TOL, read at call time.

    A batch gives one answer per row.
    """
    data = _or_standard(data)
    m = data.metric
    return _scalar(_solves(form_norm(ddt_residual(f, data), m), form_norm(f, m), SOLUTION_TOL))


def _require_solution(f: KForm, data: G2Data) -> None:
    # Every row of a batch must solve at SOLUTION_TOL.
    if not np.all(is_solution(f, data)):
        raise ValueError("input does not solve the deformed equation at this tolerance")


def cartan_solve(l1: float, l2: float, l3: float) -> list[float]:
    """Real roots x of x^3 - (3 + (l1^2+l2^2+l3^2)/2) x + l1 l2 l3 = 0.

    The lambdas must be finite and sum to zero (they are the diagonal
    14-part weights); ValueError names them otherwise.
    The depressed cubic always has nonpositive discriminant deficit, so the
    trigonometric closed form applies; each root is polished by Newton
    steps and near-coincident roots are merged.
    """
    return _merged_roots(_cartan_roots(np.array([l1, l2, l3], dtype=np.float64)))


def _cartan_roots(weights: np.ndarray) -> np.ndarray:
    # cartan_solve's three polished roots for weights of shape (..., 3), sorted
    # along the last axis and not yet merged; each row equals the single call's.
    # Raises when any row's weights are not finite or do not sum to zero.
    l1, l2, l3 = weights[..., 0], weights[..., 1], weights[..., 2]
    with np.errstate(invalid="ignore"):
        total = np.abs(l1 + l2 + l3)
    # Written so that a NaN sum fails the check.
    bad = ~(np.isfinite(weights).all(axis=-1)
            & (total <= 1e-12 * np.maximum(1.0, np.abs(weights).max(axis=-1))))
    if np.any(bad):
        raise ValueError(f"lambdas must sum to zero and be finite, got {weights[bad][0].tolist()}")
    p = (-(3.0 + 0.5 * (l1 * l1 + l2 * l2 + l3 * l3)))[..., None]
    q = (l1 * l2 * l3)[..., None]

    radius = 2.0 * np.sqrt(-p / 3.0)
    argument = np.clip(3.0 * q / (p * radius), -1.0, 1.0)
    theta = np.arccos(argument) / 3.0
    x = radius * np.cos(theta - 2.0 * np.pi * np.arange(3) / 3.0)
    # Three Newton steps; a root stops for good where the slope vanishes.
    moving = np.ones(x.shape, dtype=bool)
    for _ in range(3):
        slope = 3.0 * x * x + p
        moving &= ~(np.abs(slope) < 1e-12)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(moving, x - (x * (x * x + p) + q) / slope, x)
    return np.sort(x, axis=-1, kind="stable")


def _merged_roots(roots: np.ndarray) -> list[float]:
    # One row of _cartan_roots with near-coincident roots merged.
    merged: list[float] = []
    for x in roots.tolist():
        if merged and abs(x - merged[-1]) < 1e-8 * max(1.0, abs(x)):
            continue
        merged.append(x)
    return merged


def cartan_two_form(x: float, lambdas: tuple[float, float, float]) -> KForm:
    """The diagonal flux x i(e1)phi + l1 e23 + l2 e45 + l3 e67."""
    return KForm._made(7, 2, _cartan_coeffs(np.asarray(x, dtype=np.float64),
                                            np.asarray(lambdas, dtype=np.float64)))


def _cartan_coeffs(x: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    # cartan_two_form's coefficients for roots x of shape (...) and weights (..., 3).
    coeffs = np.zeros(x.shape + (21,))
    # Added to zeros, as a sum of monomials would be, so that -0.0 becomes 0.0.
    coeffs[..., _CARTAN_POSITIONS] += x[..., None] + lambdas
    return coeffs


def scalar_factor(f: KForm, data: G2Data | None = None) -> float:
    """The factor 1 - <F^2, star(phi)>/2 controlling the induced structure."""
    data = _or_standard(data)
    _require_two_form(f)
    return _factor(wedge(f, f), data)


def _factor(f_sq: KForm, data: G2Data):
    return _scalar(1.0 - 0.5 * np.real(form_inner(f_sq, data.star_phi, data.metric)))


def graph_map(f: KForm, data: G2Data | None = None) -> LinearMap:
    """The endomorphism 1 + F# whose pullback transports the structure; a stack for a batch."""
    data = _or_standard(data)
    return LinearMap(7, np.eye(7) + sharp2(f, data.metric).matrix)


def induced_phi(f: KForm, data: G2Data | None = None) -> tuple[KForm, KForm]:
    """The transported 3-form (1+F#)* phi and its conformal normalisation.

    Raises ValueError when the scalar factor is too close to zero for the
    normalisation |factor|^(-3/4) to make sense.
    """
    data = _or_standard(data)
    _require_two_form(f)
    _, phi_f, tilde_phi = _induced(wedge(f, f), graph_map(f, data), data)
    return phi_f, tilde_phi


def _induced(f_sq: KForm, graph: LinearMap, data: G2Data) -> tuple[float, KForm, KForm]:
    # The scalar factor, then induced_phi's pair, from a precomputed F^2 and 1 + F#.
    factor = _factor(f_sq, data)
    if np.any(abs(factor) <= DEGENERATE_TOL):
        raise ValueError("degenerate induced structure: scalar factor is numerically zero")
    phi_f = pullback(graph, data.phi)
    # The ufunc, not Python's float power, so that a single form scales as a batch row does.
    return factor, phi_f, np.power(np.abs(factor), -0.75) * phi_f


def _induced_duals(f_sq: KForm, graph: LinearMap, data: G2Data):
    # The scalar factor, (1+F#)* phi, star(phi) - F^2/2 and the star of the
    # normalised structure in its own metric: what solution_report and
    # linearization_density both read.
    factor, phi_f, tilde_phi = _induced(f_sq, graph, data)
    tilde_star = hodge(tilde_phi, metric_from_three_form(tilde_phi))
    return factor, phi_f, data.star_phi - 0.5 * f_sq, tilde_star


def solution_report(f: KForm, data: G2Data | None = None) -> DdtReport:
    """Certify the induced-structure identities for one solution.

    Three pipelines for the transported dual form are compared pairwise:
    the honest Hodge star of (1+F#)* phi in its own induced metric, the
    pullback (1+F#)* star(phi), and the closed form
    factor * (star(phi) - F^2/2).  The conformal normalisation is checked
    to reproduce sign_C * (star(phi) - F^2/2) through its own star, where
    sign_C is the sign of that star's pairing with star(phi) - F^2/2; on a
    solution it is sign(factor).  The report keeps star(phi) - F^2/2 as
    dual_target and the induced star as tilde_star.  Raises ValueError
    unless every row solves at SOLUTION_TOL.
    """
    data = _or_standard(data)
    _require_two_form(f)
    _require_solution(f, data)
    return _solution_report(f, data)


def _solution_report(f: KForm, data: G2Data) -> DdtReport:
    # solution_report's body, which certifies a row whether or not it solves.
    f_sq = wedge(f, f)
    residual = _residual(f, f_sq, data)
    graph = graph_map(f, data)
    factor, phi_f, dual_target, tilde_star = _induced_duals(f_sq, graph, data)
    transported = pullback(graph, data.star_phi)
    own_star = hodge(phi_f, metric_from_three_form(phi_f))
    closed = factor * dual_target
    routes = [own_star.coeffs, transported.coeffs, closed.coeffs]
    # np.max, unlike max(), lets a NaN deviation through.
    deviation = _scalar(np.max([
        row_residual(routes[i], routes[j])
        for i in range(3)
        for j in range(i + 1, 3)
    ], axis=0))

    # The sign is read off the induced star itself, so that it can disagree with the factor.
    sign_c = _scalar(np.where(_dot(tilde_star.coeffs, dual_target.coeffs) > 0, 1, -1))
    conformal = _scalar(row_residual(tilde_star.coeffs, (sign_c * dual_target).coeffs))

    return DdtReport(
        residual=residual,
        residual_norm=form_norm(residual, data.metric),
        scalar_factor=factor,
        lhs_minus_rhs_norm=deviation,
        sign_C=sign_c,
        conformal_residual=conformal,
        dual_target=dual_target,
        tilde_star=tilde_star,
    )


def reformulation_residual(f: KForm, data: G2Data | None = None) -> float:
    """Norm of star(F) + phi ^ F - (1/6) star(F^3) ^ star(phi).

    An equivalent first-order shape of the deformed equation; the sign of
    the cubic term is pinned by the diagonal solution family.
    """
    data = _or_standard(data)
    _require_two_form(f)
    m = data.metric
    star_cube = hodge(_wedge_power(f, 3), m)
    combo = hodge(f, m) + wedge(data.phi, f) - (1.0 / 6.0) * wedge(star_cube, data.star_phi)
    return form_norm(combo, m)


def linearization_density(f: KForm, b2: KForm, data: G2Data | None = None) -> KForm:
    """The 6-form b2 ^ (-F^2/2 + star(phi)) at a solution.

    Cross-checked against sign(factor) * b2 ^ star(tilde_phi) computed in
    the induced conformal structure; a relative mismatch above
    DENSITY_ROUTES_TOL, read at call time, raises.  A batch raises when any
    row is not a solution or its routes disagree.
    """
    data = _or_standard(data)
    _require_two_form(f)
    _require_two_form(b2)
    _require_solution(f, data)
    factor, _, dual_target, tilde_star = _induced_duals(wedge(f, f), graph_map(f, data), data)
    density, disagreement = _density_routes(factor, dual_target, tilde_star, b2)
    if not np.all(disagreement <= DENSITY_ROUTES_TOL):
        raise ValueError(DENSITY_ROUTES_ERROR)
    return density


def _density_routes(factor, dual_target: KForm, tilde_star: KForm, b2: KForm):
    # The density b2 ^ (star(phi) - F^2/2) and its relative disagreement with
    # the induced-structure route sign(factor) * b2 ^ star(tilde_phi).
    density = wedge(b2, dual_target)
    other = np.sign(factor) * wedge(b2, tilde_star)
    return density, _scalar(row_residual(density.coeffs, other.coeffs))


def norm_bound_check(f: KForm, data: G2Data | None = None) -> tuple[float, float, bool]:
    """Sharp bound |F7| <= sqrt(2|F14|^2 + 12) cos(arccos(...)/3) on solutions.

    Returns (lhs, rhs, whether lhs <= rhs + SOLUTION_TOL).
    """
    data = _or_standard(data)
    _require_two_form(f)
    split = project2(f, data)
    m = data.metric
    seven = interior(split.u, data.phi)
    lhs = form_norm(seven, m)
    lam = form_norm(split.f14, m)
    inner = np.clip(np.power(lam, 3) / np.power(lam * lam + 6.0, 1.5), -1.0, 1.0)
    rhs = _scalar(np.sqrt(2.0 * lam * lam + 12.0) * np.cos(np.arccos(inner) / 3.0))
    return lhs, rhs, _scalar(lhs <= rhs + SOLUTION_TOL)


def cube_norm_bound(beta: KForm, data: G2Data | None = None) -> tuple[float, float]:
    """(|beta^3|, sqrt(6)/3 |beta|^3) for a 2-form in the 14-part."""
    data = _or_standard(data)
    _require_two_form(beta)
    m = data.metric
    lhs = form_norm(_wedge_power(beta, 3), m)
    rhs = _scalar(np.sqrt(6.0) / 3.0 * np.power(form_norm(beta, m), 3))
    return lhs, rhs


def wedge_injectivity(f: KForm, data: G2Data | None = None) -> tuple[int, float]:
    """Rank of the map gamma -> F ^ gamma on 2-forms, plus |F^3|.

    The map is injective (rank 21) whenever F = i(u)phi + F14 satisfies
    i(u)F14 = 0 and F^3 is nonzero; the rank drops without the cubic
    condition.
    """
    data = _or_standard(data)
    _require_two_form(f)
    mat = wedge_matrix(f, 2)
    # A row of M whose M^T M has lambda_min >= 1e-8 lambda_max > 0 has
    # sigma_min >= 1e-4 sigma_max, far above RANK_CUTOFF: rank 21.  The other
    # rows, a non-finite one included, go to the SVD.
    gram = mat.swapaxes(-1, -2) @ mat
    finite = np.isfinite(gram).all(axis=(-2, -1))[..., None, None]
    eigs = np.linalg.eigvalsh(np.where(finite, gram, 0.0))
    rank = np.full(mat.shape[:-2], 21)
    rest = ~((eigs[..., -1] > 0) & (eigs[..., 0] >= 1e-8 * eigs[..., -1]))
    if rest.any():
        singular = np.linalg.svd(mat[rest], compute_uv=False)
        top = singular.max(axis=-1, initial=0.0, keepdims=True)
        count = np.count_nonzero(singular > RANK_CUTOFF * top, axis=-1)
        rank[rest] = np.where(top[..., 0] > 0, count, 0)
    cube_norm = form_norm(_wedge_power(f, 3), data.metric)
    return _scalar(rank), cube_norm
