"""Exterior algebra on an oriented inner-product space of dimension at most eight.

A k-form on R^n is stored densely: one coefficient per strictly increasing
multi-index, with the indices enumerated in lexicographic order.  All
operations are exact linear algebra on these coefficient vectors; nothing
here is discretised or approximated beyond floating point.

Conventions.  Basis covectors are written e^1, ..., e^n in prose but indexed
from zero in code.  The volume form of a metric with gram matrix G and
orientation s is s * sqrt(det G) * e^1...e^n, so the standard metric with
orientation +1 has volume e^1...e^n.  The Hodge star is the unique map with
beta ^ star(alpha) = <beta, alpha> vol for forms of equal grade.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

MAX_DIM = 8

# Residuals are measured relative to the larger operand norm; operands
# below this floor are compared absolutely.
ABS_FLOOR = 1e-12


def rel_residual(lhs, rhs, floor: float = ABS_FLOOR) -> float:
    """Deviation between two coefficient arrays, relative to their scale.

    Falls back to the absolute difference when both operands are smaller
    than ``floor``, so that identities with vanishing sides still report 0.
    """
    a = np.asarray(lhs, dtype=complex).ravel()
    b = np.asarray(rhs, dtype=complex).ravel()
    diff = float(np.linalg.norm(a - b))
    scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    if scale <= floor:
        return diff
    return diff / scale


@lru_cache(maxsize=None)
def multi_indices(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Strictly increasing k-tuples from range(n), lexicographically ordered."""
    return tuple(itertools.combinations(range(n), k))


@lru_cache(maxsize=None)
def _positions(n: int, k: int) -> dict[tuple[int, ...], int]:
    return {idx: pos for pos, idx in enumerate(multi_indices(n, k))}


@lru_cache(maxsize=None)
def _wedge_table(n: int, k: int, l: int):
    rows_a, rows_b, rows_out, signs = [], [], [], []
    pos_out = _positions(n, k + l)
    for ia, idx_a in enumerate(multi_indices(n, k)):
        taken = set(idx_a)
        for ib, idx_b in enumerate(multi_indices(n, l)):
            if taken.intersection(idx_b):
                continue
            rows_a.append(ia)
            rows_b.append(ib)
            rows_out.append(pos_out[tuple(sorted(idx_a + idx_b))])
            signs.append(_permutation_sign(idx_a + idx_b))
    return (
        np.array(rows_a, dtype=np.intp),
        np.array(rows_b, dtype=np.intp),
        np.array(rows_out, dtype=np.intp),
        np.array(signs, dtype=np.float64),
    )


@lru_cache(maxsize=None)
def _interior_table(n: int, k: int):
    vec_idx, src, dst, signs = [], [], [], []
    pos_out = _positions(n, k - 1)
    for ia, idx in enumerate(multi_indices(n, k)):
        for p, entry in enumerate(idx):
            vec_idx.append(entry)
            src.append(ia)
            dst.append(pos_out[idx[:p] + idx[p + 1 :]])
            signs.append(-1.0 if p % 2 else 1.0)
    return (
        np.array(vec_idx, dtype=np.intp),
        np.array(src, dtype=np.intp),
        np.array(dst, dtype=np.intp),
        np.array(signs, dtype=np.float64),
    )


@lru_cache(maxsize=None)
def _complement_table(n: int, k: int):
    # For each increasing k-tuple I: position of its complement among the
    # (n-k)-tuples, and the sign of the permutation (I, I^c) of (1..n).
    pos_out = _positions(n, n - k)
    dst = np.empty(comb(n, k), dtype=np.intp)
    signs = np.empty(comb(n, k), dtype=np.float64)
    for ia, idx in enumerate(multi_indices(n, k)):
        comp = tuple(sorted(set(range(n)) - set(idx)))
        dst[ia] = pos_out[comp]
        signs[ia] = _permutation_sign(idx + comp)
    return dst, signs


@lru_cache(maxsize=None)
def _wedge_step(n: int, k: int):
    # Row I of the k-th exterior power is row I[0] of the matrix wedged with
    # row I[1:] of the (k-1)-th: the gather indices of both rows, and the
    # _wedge_table(n, 1, k-1) signs as a dense (n * C(n,k-1)) x C(n,k) matrix.
    pos = _positions(n, k - 1)
    rows = multi_indices(n, k)
    first = np.array([idx[0] for idx in rows], dtype=np.intp)
    rest = np.array([pos[idx[1:]] for idx in rows], dtype=np.intp)
    ia, ib, out, signs = _wedge_table(n, 1, k - 1)
    mat = np.zeros((n * comb(n, k - 1), comb(n, k)))
    mat[ia * comb(n, k - 1) + ib, out] = signs
    return first, rest, mat


def exterior_power(a: np.ndarray, k: int) -> np.ndarray:
    """The k-th exterior power of a square matrix: minors det a[I, J] over k-tuples.

    Built by k - 1 wedge steps, each row of the k-th power being a row of
    ``a`` wedged with a row of the (k-1)-th.  The result is a new array of
    ``a``'s floating dtype, also at k = 1.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"exterior power needs a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if not 0 <= k <= n:
        raise ValueError(f"exterior power of an {n}x{n} matrix needs 0 <= k <= {n}, got {k}")
    dtype = np.result_type(a, np.float64)
    if k == 0:
        return np.ones((1, 1), dtype=dtype)
    out = a.astype(dtype)
    for j in range(2, k + 1):
        first, rest, signs = _wedge_step(n, j)
        prod = a[first][:, :, None] * out[rest][:, None, :]
        out = prod.reshape(len(first), -1) @ signs
    return out


@dataclass(frozen=True)
class KForm:
    """A k-form with dense coefficients over increasing multi-indices."""

    dim: int
    grade: int
    coeffs: np.ndarray

    def __post_init__(self):
        if not 0 < self.dim <= MAX_DIM:
            raise ValueError(f"dimension must lie in 1..{MAX_DIM}, got {self.dim}")
        if not 0 <= self.grade <= self.dim:
            raise ValueError(f"grade must lie in 0..{self.dim}, got {self.grade}")
        arr = np.asarray(self.coeffs)
        if not np.iscomplexobj(arr):
            arr = arr.astype(np.float64, copy=True)
        else:
            arr = arr.astype(np.complex128, copy=True)
        expected = comb(self.dim, self.grade)
        if arr.shape != (expected,):
            raise ValueError(
                f"a grade {self.grade} form on R^{self.dim} needs {expected} "
                f"coefficients, got shape {arr.shape}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def zero(cls, dim: int, grade: int) -> "KForm":
        return cls(dim, grade, np.zeros(comb(dim, grade)))

    @classmethod
    def monomial(cls, dim: int, indices: tuple[int, ...], coeff: float = 1.0) -> "KForm":
        """The form coeff * e^{i1} ^ ... ^ e^{ik} for zero-based indices."""
        if len(set(indices)) != len(indices):
            raise ValueError(f"repeated index in monomial {indices}")
        ordered = tuple(sorted(indices))
        sign = _permutation_sign(indices)
        data = np.zeros(comb(dim, len(indices)))
        data[_positions(dim, len(indices))[ordered]] = sign * coeff
        return cls(dim, len(indices), data)

    @classmethod
    def from_dict(cls, payload: dict) -> "KForm":
        return cls(int(payload["dim"]), int(payload["grade"]), np.array(payload["coeffs"]))

    def to_dict(self) -> dict:
        if np.iscomplexobj(self.coeffs):
            raise ValueError("only real forms serialize; split into real and imaginary parts first")
        return {
            "dim": self.dim,
            "grade": self.grade,
            "coeffs": [float(c) for c in self.coeffs],
        }

    def coefficient(self, indices: tuple[int, ...]) -> float:
        ordered = tuple(sorted(indices))
        sign = _permutation_sign(indices)
        return sign * self.coeffs[_positions(self.dim, self.grade)[ordered]]

    def _require_like(self, other: "KForm", op: str) -> None:
        if not isinstance(other, KForm):
            raise TypeError(f"cannot {op} KForm and {type(other).__name__}")
        if (self.dim, self.grade) != (other.dim, other.grade):
            raise ValueError(
                f"cannot {op} forms of (dim, grade) ({self.dim}, {self.grade}) "
                f"and ({other.dim}, {other.grade})"
            )

    def __add__(self, other: "KForm") -> "KForm":
        self._require_like(other, "add")
        return KForm(self.dim, self.grade, self.coeffs + other.coeffs)

    def __sub__(self, other: "KForm") -> "KForm":
        self._require_like(other, "subtract")
        return KForm(self.dim, self.grade, self.coeffs - other.coeffs)

    def __neg__(self) -> "KForm":
        return KForm(self.dim, self.grade, -self.coeffs)

    def __mul__(self, scalar) -> "KForm":
        return KForm(self.dim, self.grade, self.coeffs * scalar)

    __rmul__ = __mul__


def _permutation_sign(given: tuple[int, ...]) -> int:
    inversions = sum(
        1
        for a in range(len(given))
        for b in range(a + 1, len(given))
        if given[a] > given[b]
    )
    return -1 if inversions % 2 else 1


@dataclass(frozen=True)
class Metric:
    """A constant inner product with an orientation relative to e^1...e^n."""

    dim: int
    gram: np.ndarray
    orientation: int = 1
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.gram, dtype=np.float64).copy()
        if arr.shape != (self.dim, self.dim):
            raise ValueError(f"gram matrix must be {self.dim}x{self.dim}, got {arr.shape}")
        scale = max(1.0, float(np.abs(arr).max()))
        if np.abs(arr - arr.T).max() > 1e-10 * scale:
            raise ValueError("gram matrix must be symmetric")
        arr = 0.5 * (arr + arr.T)
        if np.linalg.eigvalsh(arr).min() <= 0:
            raise ValueError("gram matrix must be positive definite")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        arr.flags.writeable = False
        object.__setattr__(self, "gram", arr)

    @property
    def sqrt_det(self) -> float:
        if "sqrt_det" not in self._cache:
            self._cache["sqrt_det"] = float(np.sqrt(np.linalg.det(self.gram)))
        return self._cache["sqrt_det"]

    @property
    def gram_inv(self) -> np.ndarray:
        if "gram_inv" not in self._cache:
            self._cache["gram_inv"] = np.linalg.inv(self.gram)
        return self._cache["gram_inv"]

    def gram_on_forms(self, k: int) -> np.ndarray:
        """Gram matrix of the induced inner product on grade-k coefficients."""
        key = ("gram_forms", k)
        if key not in self._cache:
            self._cache[key] = exterior_power(self.gram_inv, k)
        return self._cache[key]

    def hodge_matrix(self, k: int) -> np.ndarray:
        """Matrix of the Hodge star from grade k to grade dim - k coefficients."""
        key = ("hodge", k)
        if key not in self._cache:
            dst, signs = _complement_table(self.dim, k)
            gk = self.gram_on_forms(k)
            mat = np.zeros((comb(self.dim, self.dim - k), comb(self.dim, k)))
            mat[dst, :] = (self.orientation * self.sqrt_det) * signs[:, None] * gk
            self._cache[key] = mat
        return self._cache[key]

    def volume_form(self) -> KForm:
        return KForm(self.dim, self.dim, np.array([self.orientation * self.sqrt_det]))


@lru_cache(maxsize=None)
def euclidean_metric(n: int) -> Metric:
    """The shared standard metric on R^n with orientation +1."""
    return Metric(n, np.eye(n))


@dataclass(frozen=True)
class LinearMap:
    """A linear endomorphism of R^n acting on forms by pullback."""

    dim: int
    matrix: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.matrix)
        if not np.iscomplexobj(arr):
            arr = arr.astype(np.float64, copy=True)
        else:
            arr = arr.astype(np.complex128, copy=True)
        if arr.shape != (self.dim, self.dim):
            raise ValueError(f"matrix must be {self.dim}x{self.dim}, got {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    @classmethod
    def identity(cls, n: int) -> "LinearMap":
        return cls(n, np.eye(n))

    def compose(self, other: "LinearMap") -> "LinearMap":
        """The map sending x to self(other(x))."""
        if self.dim != other.dim:
            raise ValueError("cannot compose maps of different dimensions")
        return LinearMap(self.dim, self.matrix @ other.matrix)

    def pullback_matrix(self, k: int) -> np.ndarray:
        """Matrix D with (L* alpha)[J] = sum_I alpha[I] D[I, J] on grade k."""
        key = ("pullback", k)
        if key not in self._cache:
            self._cache[key] = exterior_power(self.matrix, k)
        return self._cache[key]


def _require_same_dim(a: KForm, b: KForm) -> None:
    if a.dim != b.dim:
        raise ValueError(f"forms live on different spaces: R^{a.dim} vs R^{b.dim}")


def wedge_matrix(a: KForm, l: int) -> np.ndarray:
    """Matrix of beta -> a ^ beta from grade l to grade a.grade + l, zero past the top."""
    n, k = a.dim, a.grade
    if k + l > n:
        return np.zeros((1, comb(n, l)), dtype=a.coeffs.dtype)
    ia, ib, out, signs = _wedge_table(n, k, l)
    mat = np.zeros((comb(n, k + l), comb(n, l)), dtype=a.coeffs.dtype)
    # Each (out, ib) pair occurs once: the multi-index of a is out minus ib.
    mat[out, ib] = signs * a.coeffs[ia]
    return mat


def interior_matrix(a: KForm) -> np.ndarray:
    """Matrix of v -> i(v) a from vectors to grade a.grade - 1; column j is i(e_j) a."""
    n, k = a.dim, a.grade
    if k == 0:
        return np.zeros((1, n), dtype=a.coeffs.dtype)
    vec_idx, src, dst, signs = _interior_table(n, k)
    mat = np.zeros((comb(n, k - 1), n), dtype=a.coeffs.dtype)
    # Each (dst, vec_idx) pair occurs once: the multi-index of a is dst plus vec_idx.
    mat[dst, vec_idx] = signs * a.coeffs[src]
    return mat


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product.  Grades adding past the dimension give the zero top form."""
    _require_same_dim(a, b)
    n = a.dim
    if a.grade + b.grade > n:
        return KForm.zero(n, n)
    return KForm(n, a.grade + b.grade, wedge_matrix(a, b.grade) @ b.coeffs)


def interior(v: np.ndarray, a: KForm) -> KForm:
    """Interior product i(v) alpha; on grade zero it returns 0."""
    v = np.asarray(v)
    if v.shape != (a.dim,):
        raise ValueError(f"vector must have shape ({a.dim},), got {v.shape}")
    if a.grade == 0:
        return KForm.zero(a.dim, 0)
    return KForm(a.dim, a.grade - 1, interior_matrix(a) @ v)


def _require_metric(a: KForm, m: Metric) -> None:
    if a.dim != m.dim:
        raise ValueError(f"form on R^{a.dim} does not match metric on R^{m.dim}")


def hodge(a: KForm, m: Metric | None = None) -> KForm:
    """Hodge star of a form, defined by beta ^ star(alpha) = <beta, alpha> vol."""
    if m is None:
        m = euclidean_metric(a.dim)
    _require_metric(a, m)
    return KForm(a.dim, a.dim - a.grade, m.hodge_matrix(a.grade) @ a.coeffs)


def flat(v: np.ndarray, m: Metric) -> KForm:
    """The covector g(v, .) of a vector."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (m.dim,):
        raise ValueError(f"vector must have shape ({m.dim},), got {v.shape}")
    return KForm(m.dim, 1, m.gram @ v)


def sharp(a: KForm, m: Metric) -> np.ndarray:
    """The vector dual to a 1-form; inverse of flat."""
    _require_metric(a, m)
    if a.grade != 1:
        raise ValueError(f"sharp expects a 1-form, got grade {a.grade}")
    return np.linalg.solve(m.gram, a.coeffs)


def _skew(f: KForm) -> np.ndarray:
    """The skew matrix A[i, j] = f(e_i, e_j) = (i(e_i) f)_j of a 2-form, in f's dtype."""
    return interior_matrix(f).T


def _two_form(a: np.ndarray) -> KForm:
    """The 2-form f with f(e_i, e_j) = a[i, j] for a skew matrix a; inverse of _skew."""
    return KForm(a.shape[0], 2, a[np.triu_indices(a.shape[0], 1)])


def sharp2(f: KForm, m: Metric) -> LinearMap:
    """The endomorphism F# of a 2-form F, with g(F#(u), v) = F(u, v).

    For the standard metric and F = e^1 ^ e^2 this sends e1 to e2 and
    e2 to -e1; the skew matrix A of F satisfies gram @ F# = -A.
    """
    _require_metric(f, m)
    if f.grade != 2:
        raise ValueError(f"sharp2 expects a 2-form, got grade {f.grade}")
    return LinearMap(f.dim, np.linalg.solve(m.gram, -_skew(f)))


def pullback(L: LinearMap, a: KForm) -> KForm:
    """Pullback L* alpha = alpha(L ., ..., L .).  Contravariant: (LM)* = M* L*."""
    if L.dim != a.dim:
        raise ValueError(f"map on R^{L.dim} does not match form on R^{a.dim}")
    if a.grade == 0:
        return a
    return KForm(a.dim, a.grade, a.coeffs @ L.pullback_matrix(a.grade))


def form_inner(a: KForm, b: KForm, m: Metric | None = None):
    """Induced inner product on forms of equal grade.

    Conjugate-linear in the first slot for complexified forms, so that
    form_inner(a, a) is real and nonnegative.
    """
    a._require_like(b, "pair")
    if m is None:
        m = euclidean_metric(a.dim)
    _require_metric(a, m)
    val = a.coeffs.conj() @ m.gram_on_forms(a.grade) @ b.coeffs
    if not (np.iscomplexobj(a.coeffs) or np.iscomplexobj(b.coeffs)):
        return float(val)
    return complex(val)


def form_norm(a: KForm, m: Metric | None = None) -> float:
    val = form_inner(a, a, m)
    return float(np.sqrt(max(np.real(val), 0.0)))
