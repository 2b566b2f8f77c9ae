"""Independent oracles shared by the test modules.

Everything here works straight from definitions (multilinear evaluation,
shuffle sums, explicit sign counts) so library results can be checked
against a second, unrelated code path.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np
import scipy.linalg

from g2calc.ddt import SOLUTION_TOL
from g2calc.forms import KForm, LinearMap, Metric, multi_indices, pullback, rel_residual, sharp2
from g2calc.g2 import G2Data, _from_monomials, standard_g2

STAR_PHI_MONOMIALS = (
    ((3, 4, 5, 6), 1.0),
    ((1, 2, 5, 6), 1.0),
    ((1, 2, 3, 4), 1.0),
    ((0, 2, 4, 6), 1.0),
    ((0, 2, 3, 5), -1.0),
    ((0, 1, 4, 5), -1.0),
    ((0, 1, 3, 6), -1.0),
)


def evaluate(form: KForm, vectors) -> float | complex:
    """Evaluate a k-form on k vectors from the determinant definition."""
    if form.grade == 0:
        return form.coeffs[0]
    X = np.column_stack([np.asarray(v, dtype=float) for v in vectors])
    total = 0.0 * form.coeffs[0]
    for pos, idx in enumerate(multi_indices(form.dim, form.grade)):
        total += form.coeffs[pos] * np.linalg.det(X[list(idx), :])
    return total


def evaluate_wedge(a: KForm, b: KForm, vectors) -> float | complex:
    """(a ^ b)(x_1, ..., x_{k+l}) via the shuffle sum, independent of wedge()."""
    k, l = a.grade, b.grade
    total = 0.0
    for left in itertools.combinations(range(k + l), k):
        right = tuple(i for i in range(k + l) if i not in left)
        sign = 1
        for p in left:
            sign *= (-1) ** sum(1 for q in right if q < p)
        total += sign * evaluate(a, [vectors[i] for i in left]) * evaluate(
            b, [vectors[i] for i in right]
        )
    return total


def random_form(rng: np.random.Generator, n: int, k: int, scale: float = 1.0) -> KForm:
    return KForm(n, k, scale * rng.standard_normal(comb(n, k)))


def random_vector(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return scale * rng.standard_normal(n)


def random_metric(rng: np.random.Generator, n: int, orientation: int = 1) -> Metric:
    a = rng.standard_normal((n, n))
    return Metric(n, a @ a.T + 0.5 * np.eye(n), orientation)


def standard_star_phi() -> KForm:
    """Frozen coefficients of star(phi) for golden comparisons."""
    return _from_monomials(4, STAR_PHI_MONOMIALS)


def random_structure_rotation(
    rng: np.random.Generator,
    data: G2Data | None = None,
    magnitude: float = 0.6,
    tol: float = SOLUTION_TOL,
    attempts: int = 5,
) -> LinearMap:
    """A rotation preserving phi, built from the 14-part of a random 2-form.

    The exponential of the skew map of a 14-part 2-form fixes the structure;
    the result is accepted only after verifying the pullback reproduces phi.
    """
    if data is None:
        data = standard_g2()
    for _ in range(attempts):
        raw = KForm(7, 2, magnitude * rng.standard_normal(21))
        beta = KForm(7, 2, data.proj2_14 @ raw.coeffs)
        rotation = LinearMap(7, scipy.linalg.expm(sharp2(beta, data.metric).matrix))
        if rel_residual(pullback(rotation, data.phi).coeffs, data.phi.coeffs) < tol:
            return rotation
    raise ValueError("could not draw a structure-preserving rotation")
