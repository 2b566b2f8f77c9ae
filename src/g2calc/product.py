"""Dimensional reduction between a Kahler threefold and a seven dimensional cone point.

A threefold carries a fundamental two-form omega and a holomorphic volume
form Omega normalised so that Omega ^ conj(Omega) = -8i omega^3 / 6.  The
product with a line carries the three-form dx ^ omega + Re(Omega), whose
deformed equation splits into the component along dx and the component
without it.  The first vanishes exactly when the curvature has no
antiholomorphic part, the second exactly when Im((omega + iF)^3) = 0, and
the classification of solutions on the two sides must always agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .forms import (
    KForm,
    form_norm,
    multi_indices,
    pullback,
    rel_residual,
    wedge,
    _positions,
    _require_tolerance,
    _scalar,
    _wedge_power,
)
from .g2 import G2Data, g2_bundle
from .ddt import ddt_residual, _solves
from .dhym import (
    HermitianPoint,
    normal_form,
    pq_project,
    standard_kahler,
    _rotation_generator,
    _unitary_rotations,
)

PRODUCT_TOL = 1e-8
ZERO_PHASE_BOUND = 2.0


@lru_cache(maxsize=None)
def _shifted(k: int) -> np.ndarray:
    """Position on R^7 of each k-tuple on R^6 shifted up by one."""
    pos7 = _positions(7, k)
    return np.array([pos7[tuple(i + 1 for i in idx)] for idx in multi_indices(6, k)],
                    dtype=np.intp)


def lift(a: KForm, with_dx: bool = False) -> KForm:
    """Embed a form on the threefold into seven dimensions, spanning index 0.

    The embedding shifts every coordinate index up by one; with_dx wedges
    the result with the covector of the new first coordinate.
    """
    if a.dim != 6:
        raise ValueError(f"expected a form on R^6, got R^{a.dim}")
    out = np.zeros(a.coeffs.shape[:-1] + (comb(7, a.grade),), dtype=a.coeffs.dtype)
    out[..., _shifted(a.grade)] = a.coeffs
    lifted = KForm(7, a.grade, out)
    if with_dx:
        return wedge(KForm.monomial(7, (0,)), lifted)
    return lifted


@dataclass(frozen=True)
class SU3Point:
    """A Hermitian point together with a normalised holomorphic volume form."""

    point: HermitianPoint
    holo: KForm

    def __post_init__(self):
        if self.point.n != 3:
            raise ValueError("the reduction needs complex dimension three")
        if (self.holo.dim, self.holo.grade) != (6, 3):
            raise ValueError("the volume form must be a 3-form on R^6")
        omega = self.point.omega
        if form_norm(wedge(omega, self.holo), self.point.metric) > PRODUCT_TOL:
            raise ValueError("volume form does not annihilate the fundamental form")
        pure = pq_project(self.point, self.holo, 3, 0)
        if rel_residual(pure.coeffs, self.holo.coeffs) > PRODUCT_TOL:
            raise ValueError("volume form is not of type (3,0)")
        vol = (1.0 / 6.0) * _wedge_power(omega, 3)
        pairing = wedge(self.holo, KForm(6, 3, self.holo.coeffs.conj()))
        if rel_residual(pairing.coeffs, -8.0j * vol.coeffs) > PRODUCT_TOL:
            raise ValueError("volume form is not normalised to -8i times the volume")

    @property
    def omega(self) -> KForm:
        return self.point.omega

    @property
    def re_holo(self) -> KForm:
        return KForm(6, 3, self.holo.coeffs.real)

    @property
    def im_holo(self) -> KForm:
        return KForm(6, 3, self.holo.coeffs.imag)

    @cached_property
    def _bundle(self) -> G2Data:
        data = g2_bundle(product_phi(self))
        if rel_residual(data.star_phi.coeffs, product_psi(self).coeffs) > PRODUCT_TOL:
            raise ValueError("induced dual form disagrees with the product formula")
        return data


@lru_cache(maxsize=None)
def standard_su3() -> SU3Point:
    """The flat threefold with dz^1 ^ dz^2 ^ dz^3 as volume form."""
    point = standard_kahler(3)
    holo = KForm(6, 0, np.ones(1, dtype=complex))
    for j in range(3):
        coeffs = np.zeros(6, dtype=complex)
        coeffs[2 * j] = 1.0
        coeffs[2 * j + 1] = 1.0j
        holo = wedge(holo, KForm(6, 1, coeffs))
    return SU3Point(point, holo)


def product_phi(su3: SU3Point) -> KForm:
    """The positive three-form dx ^ omega + Re(Omega) of the product."""
    return lift(su3.omega, with_dx=True) + lift(su3.re_holo)


def product_psi(su3: SU3Point) -> KForm:
    """The dual four-form omega^2 / 2 - dx ^ Im(Omega) of the product."""
    return 0.5 * lift(wedge(su3.omega, su3.omega)) - lift(su3.im_holo, with_dx=True)


def product_g2(su3: SU3Point) -> G2Data:
    """Bundle of the product structure; its dual form must match product_psi."""
    return su3._bundle


@dataclass(frozen=True)
class ProductReport:
    """Solution classification of one curvature on both ends of the reduction."""

    ddt_residual_norm: float
    phase_residual_norm: float
    antiholo_norm: float
    p02_norm: float
    ddt_solves: bool
    su3_solves: bool

    @property
    def agree(self) -> bool:
        return self.ddt_solves == self.su3_solves

    def to_dict(self) -> dict:
        return {
            "ddt_residual_norm": self.ddt_residual_norm,
            "phase_residual_norm": self.phase_residual_norm,
            "antiholo_norm": self.antiholo_norm,
            "p02_norm": self.p02_norm,
            "ddt_solves": self.ddt_solves,
            "su3_solves": self.su3_solves,
            "agree": self.agree,
        }


def correspondence_check(su3: SU3Point, f: KForm, tol: float = PRODUCT_TOL) -> ProductReport:
    """Classify a curvature on the threefold and on the product independently.

    The threefold side tests the phase condition Im((omega + iF)^3) = 0 and
    the absence of a (0,2) component; the product side tests the deformed
    equation of the lifted flux.  Thresholds scale with the flux size.  A
    batch of curvatures gives a report whose fields are arrays over its rows.
    """
    if (f.dim, f.grade) != (6, 2):
        raise ValueError("expected a 2-form on R^6")
    if np.iscomplexobj(f.coeffs):
        raise ValueError("curvature representative must be real")
    _require_tolerance("tol", tol)
    metric = su3.point.metric
    data = product_g2(su3)
    lifted = lift(f)
    ddt_norm = form_norm(ddt_residual(lifted, data), data.metric)
    rho = KForm(6, 2, su3.omega.coeffs + 1j * f.coeffs)
    phase = KForm(6, 6, (1.0 / 6.0) * np.imag(_wedge_power(rho, 3).coeffs))
    phase_norm = form_norm(phase, metric)
    antiholo_norm = form_norm(wedge(f, su3.im_holo), metric)
    p02_norm = form_norm(pq_project(su3.point, f, 0, 2), metric)
    size = form_norm(f, metric)
    cubic_scale = np.maximum(1.0, np.power(size, 3))
    return ProductReport(
        ddt_residual_norm=ddt_norm,
        phase_residual_norm=phase_norm,
        antiholo_norm=antiholo_norm,
        p02_norm=p02_norm,
        ddt_solves=_scalar(_solves(ddt_norm, form_norm(lifted, data.metric), tol)),
        su3_solves=_scalar(
            (phase_norm <= tol * cubic_scale) & (p02_norm <= tol * np.maximum(1.0, size))
        ),
    )


def zero_phase_flux(rng: np.random.Generator, su3: SU3Point) -> KForm:
    """A random (1,1) curvature whose eigenvalue angles sum to zero exactly.

    Two eigenvalues are drawn uniformly from [-ZERO_PHASE_BOUND,
    ZERO_PHASE_BOUND] and the third is forced through the arctangent
    addition law, which is exact while the drawn product stays below one
    in magnitude.
    """
    pair, generator = _zero_phase_draw(rng, su3)
    return _zero_phase_fluxes(su3, pair, generator)


def _zero_phase_draw(rng: np.random.Generator, su3: SU3Point) -> tuple[np.ndarray, np.ndarray]:
    # The draws of one zero_phase_flux: the eigenvalue pair, then the rotation's generator.
    return _zero_phase_pair(rng), _rotation_generator(rng, su3.point.n)


def _zero_phase_pair(rng: np.random.Generator) -> np.ndarray:
    # The eigenvalue pair of one zero_phase_flux, drawn until its product is below 0.99.
    while True:
        pair = rng.uniform(-ZERO_PHASE_BOUND, ZERO_PHASE_BOUND, size=2)
        if abs(pair[0] * pair[1]) < 0.99:
            return pair


def _zero_phase_fluxes(su3: SU3Point, pair: np.ndarray, generator: np.ndarray) -> KForm:
    # zero_phase_flux's arithmetic on drawn pairs (..., 2) and generators
    # (..., 3, 3): a batch of fluxes, each row equal to the single call's.
    l1, l2 = pair[..., 0], pair[..., 1]
    l3 = -(l1 + l2) / (1.0 - l1 * l2)
    diag = normal_form(su3.point).diagonal(np.stack([l1, l2, l3], axis=-1))
    return pullback(_unitary_rotations(su3.point, generator), diag)
