"""Exterior algebra on an oriented inner-product space of dimension at most eight.

A k-form on R^n is stored densely: one coefficient per strictly increasing
multi-index, with the indices enumerated in lexicographic order.  All
operations are exact linear algebra on these coefficient vectors; nothing
here is discretised or approximated beyond floating point.

Every form may carry leading batch axes: ``KForm.coeffs`` has shape
``(..., C(n, k))``, and the products, the Hodge star, pullbacks and inner
products act row by row, broadcasting those axes as numpy does.  A single
form is the case with no leading axes; results on it are Python scalars
where they always were, and each row of a batch equals them bit for bit.
A ``Metric`` may likewise hold a stack of Gram matrices, one per row.

Conventions.  Basis covectors are written e^1, ..., e^n in prose but indexed
from zero in code.  The volume form of a metric with gram matrix G and
orientation s is s * sqrt(det G) * e^1...e^n, so the standard metric with
orientation +1 has volume e^1...e^n.  The Hodge star is the unique map with
beta ^ star(alpha) = <beta, alpha> vol for forms of equal grade.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb, isfinite, prod
from numbers import Real

import numpy as np

MAX_DIM = 8

# Residuals are measured relative to the larger operand norm; operands
# below this floor are compared absolutely.
ABS_FLOOR = 1e-12


def rel_residual(lhs, rhs) -> float:
    """Deviation between two coefficient arrays, relative to their scale.

    This is row_residual of the flattened arrays, as a float.
    """
    return float(row_residual(np.ravel(lhs), np.ravel(rhs)))


def row_residual(lhs, rhs):
    """Deviation of each row along the last axis, relative to the larger row norm.

    Returns an array over the leading axes.  Falls back to the absolute
    difference when both rows are smaller than ABS_FLOOR, so that
    identities with vanishing sides still report 0.
    """
    a = np.asarray(lhs)
    b = np.asarray(rhs)
    diff = np.asarray(_row_norms(a - b))
    scale = np.maximum(_row_norms(a), _row_norms(b))
    return np.divide(diff, scale, out=diff, where=scale > ABS_FLOOR)


def _row_norms(x):
    """np.linalg.norm(x, axis=-1) as numpy evaluates it, without its argument handling."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=-1))


def _require_tolerance(name: str, value) -> None:
    """Raise ValueError naming the tolerance unless it is a finite, non-negative real."""
    if not (isinstance(value, Real) and isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


def _scalar(x):
    """A result without leading axes as a Python scalar; a batched result as it is."""
    return x.item() if getattr(x, "ndim", 1) == 0 else x


def _matvec(mat, x):
    """mat @ x over leading axes, as one matrix-vector product per row.

    A shared matrix applied to a whole batch as one matrix product would sum
    in another order; row by row, each batch row equals its single-form call.
    """
    return np.matmul(mat, x[..., None])[..., 0]


def _vecmat(x, mat):
    """x @ mat over leading axes, as one vector-matrix product per row (see _matvec)."""
    return np.matmul(x[..., None, :], mat)[..., 0, :]


def _dot(x, y):
    """Sum of x * y over the last axis, over leading axes.

    One einsum for a single row and a batch alike, so that each row of a
    batch sums as the single row does, bit for bit (a BLAS dot may not).
    """
    return np.einsum("...i,...i->...", x, y)


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
    pos_b = _positions(n, l)
    pos_out = _positions(n, k + l)
    for ia, idx_a in enumerate(multi_indices(n, k)):
        # The l-tuples disjoint from idx_a, in the order of multi_indices(n, l).
        free = [i for i in range(n) if i not in idx_a]
        for idx_b in itertools.combinations(free, l):
            rows_a.append(ia)
            rows_b.append(pos_b[idx_b])
            rows_out.append(pos_out[tuple(sorted(idx_a + idx_b))])
            signs.append(_permutation_sign(idx_a + idx_b))
    return (
        np.array(rows_a, dtype=np.intp),
        np.array(rows_b, dtype=np.intp),
        np.array(rows_out, dtype=np.intp),
        np.array(signs, dtype=np.float64),
    )


@lru_cache(maxsize=None)
def _wedge_fill(n: int, k: int, l: int):
    # The _wedge_table entries as (gather index into a, flat index into the
    # C(n,k+l) x C(n,l) matrix of beta -> a ^ beta, sign).
    ia, ib, out, signs = _wedge_table(n, k, l)
    return ia, out * comb(n, l) + ib, signs


def _grouped(key: np.ndarray, groups: int, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    # The columns' entries stably sorted by key, as read-only (terms, groups)
    # arrays: column g lists the entries with key g, in their original order.
    order = np.argsort(key, kind="stable").reshape(groups, -1).T
    out = tuple(col[order] for col in columns)
    for col in out:
        col.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _wedge_terms(n: int, k: int, l: int):
    # The _wedge_table entries grouped by output index: column I of each
    # (C(k+l,k), C(n,k+l)) array lists the gather index into a, the gather
    # index into b and the sign of a term of (a ^ b)[I], in a's index order.
    ia, ib, out, signs = _wedge_table(n, k, l)
    return _grouped(out, comb(n, k + l), ia, ib, signs)


@lru_cache(maxsize=None)
def _interior_terms(n: int, k: int):
    # i(v) a from the _wedge_table(n, 1, k-1) entries (j, J, I, sign), grouped by
    # J: column J of each (n-k+1, C(n,k-1)) array lists the gather index I into
    # a, the vector index j and the sign of a term of (i(v) a)[J], in j's order.
    j, rest, out, signs = _wedge_table(n, 1, k - 1)
    return _grouped(rest, comb(n, k - 1), out, j, signs)


@lru_cache(maxsize=None)
def _interior_fill(n: int, k: int):
    # i(e_j) is the transpose of e^j ^ . on coefficients: the _wedge_table(n, 1, k-1)
    # entry (j, J, I, sign) as (gather index I into a, flat index of (J, j) in the
    # C(n,k-1) x n matrix of v -> i(v) a, sign).
    j, rest, out, signs = _wedge_table(n, 1, k - 1)
    return out, rest * n + j, signs


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
    mat.setflags(write=False)
    return first, rest, mat


def _coordinate_wedge(n: int, g: int) -> np.ndarray:
    """W[j] is the matrix of beta -> e^j ^ beta from grade g to g + 1.

    A read-only view, of shape (n, C(n,g+1), C(n,g)), of the wedge step matrix.
    """
    mat = _wedge_step(n, g + 1)[2]
    return mat.reshape(n, comb(n, g), comb(n, g + 1)).swapaxes(1, 2)


def exterior_power(a: np.ndarray, k: int) -> np.ndarray:
    """The k-th exterior power of a square matrix: minors det a[I, J] over k-tuples.

    Built by k - 1 wedge steps, each row of the k-th power being a row of
    ``a`` wedged with a row of the (k-1)-th.  A stack of matrices (..., n, n)
    gives the stack of their powers.  The result is a new array of ``a``'s
    floating dtype, also at k = 1.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"exterior power needs a square matrix, got shape {a.shape}")
    n = a.shape[-1]
    if not 0 <= k <= n:
        raise ValueError(f"exterior power of an {n}x{n} matrix needs 0 <= k <= {n}, got {k}")
    dtype = np.result_type(a, np.float64)
    batch = a.shape[:-2]
    if k == 0:
        return np.ones(batch + (1, 1), dtype=dtype)
    out = a.astype(dtype)
    for j in range(2, k + 1):
        first, rest, signs = _wedge_step(n, j)
        prod = a.take(first, axis=-2)[..., None] * out.take(rest, axis=-2)[..., None, :]
        out = prod.reshape(batch + (len(first), -1)) @ signs
    return out


def _contracts(n: int, k: int) -> bool:
    """Whether a grade-k pullback or Hodge star on R^n contracts the form through
    the map or metric (_contract) instead of applying a k-th exterior power.

    True for 2k <= n + 1: up to the middle grade, and one past it in odd
    dimension (grades 3 and 4 on R^7).  There the form's n^k tensor has at
    most 4096 entries and contracting it is cheaper than building the power
    by k - 1 wedge steps (on a 2-core Xeon, grade 4 on R^7: 26 us against
    71 us for one map, 0.8-1.5 ms against 2.7-5 ms for a stack of 32).  One
    grade higher the tensor is n times larger and loses (grade 5 on R^7:
    200 us against 128 us), and a Hodge star there reads the cached Gram
    that gram_on_forms builds from complementary minors.
    """
    return 2 * k <= n + 1


@lru_cache(maxsize=None)
def _expansion(n: int, k: int):
    # The dense antisymmetric n^k tensor of a k-form a, whose entry (i1, ..., ik)
    # is i(e_ik) ... i(e_i1) a = sign(i1, ..., ik) a[sorted]: gather indices into
    # a, flat tensor indices (i1 most significant) and signs, one entry per
    # ordered k-tuple of distinct indices.  The same tensor as gather indices
    # into the concatenation [a, -a, 0], one per tensor entry, the zero where
    # two indices repeat.  Last, the flat indices of the increasing k-tuples
    # in the layout _contract leaves its result in.
    size = comb(n, k)
    src, perms, signs = [], [], []
    for pos, idx in enumerate(multi_indices(n, k)):
        for perm in itertools.permutations(idx):
            src.append(pos)
            perms.append(perm)
            signs.append(_permutation_sign(perm))
    weights = n ** np.arange(k - 1, -1, -1)
    flat = np.array(perms, dtype=np.intp).reshape(len(src), k) @ weights
    src, signs = np.array(src, dtype=np.intp), np.array(signs, dtype=np.float64)
    gather = np.full(n**k, 2 * size, dtype=np.intp)
    gather[flat] = np.where(signs > 0, src, src + size)
    # _contract's last product leaves slot 1 last: (j2, ..., jk, j1).
    idx = np.array(multi_indices(n, k), dtype=np.intp).reshape(size, k)
    read = np.roll(idx, -1, axis=1) @ weights
    return src, flat, signs, gather, read


# Most tensor entries _contract holds at once.  Blocks of 2^15 entries (13
# rows at grade 4 on R^7) keep a block's tensors in a 2 MB L2 cache: on a
# 2-core Xeon the thmC1 suite ran in 33 ms with them and in 50 ms with blocks
# of 2^17, the 32 rows at grade 4 on R^8 that 32-row chunks used to hold.
_CONTRACT_ENTRIES = 2**15


def _contract(coeffs: np.ndarray, mat: np.ndarray, k: int) -> np.ndarray:
    """coeffs @ exterior_power(mat, k) over leading axes, without forming the power.

    The coefficients are spread into their antisymmetric n^k tensor, each of
    its k slots is contracted with ``mat`` by one matrix product, and the
    result is read at the increasing k-tuples: sum_I a[I] det mat[I, J] is
    the tensor entry (J) of a(mat ., ..., mat .).

    The broadcast batch is worked through in blocks of at most
    _CONTRACT_ENTRIES // n^k rows, which caps the memory the tensors take
    whatever the batch size.  Each row is contracted as it would be alone.
    """
    n = mat.shape[-1]
    if coeffs.ndim > 1 or mat.ndim > 2:
        batch = np.broadcast_shapes(coeffs.shape[:-1], mat.shape[:-2])
        block = max(1, _CONTRACT_ENTRIES // n**k)
        if prod(batch) > block:
            return _contract_blocks(coeffs, mat, k, batch, block)
    src, flat, signs, gather, read = _expansion(n, k)
    shape = coeffs.shape[:-1]
    if coeffs.ndim == 1:
        tensor = np.zeros(n**k, dtype=np.result_type(coeffs, mat))
        _fill(tensor, flat, signs, coeffs, src)
    else:
        # A stack is gathered from [a, -a, 0], about twice as fast as filling it.
        # A complex one is signed by products with 1.0 and -1.0, as _fill signs
        # it, so that its zeros keep the signs such a product gives them.
        signed = (1.0 * coeffs, -1.0 * coeffs) if np.iscomplexobj(coeffs) else (coeffs, -coeffs)
        tensor = np.concatenate((*signed, np.zeros(shape + (1,))), axis=-1).take(gather, axis=-1)
    for step in range(k):
        if step:
            # The slot just contracted moves to the front, the next one is last.
            tensor = tensor.swapaxes(-1, -2)
        tensor = tensor.reshape(shape + (n ** (k - 1), n)) @ mat
        shape = tensor.shape[:-2]
    # take, unlike indexing the last axis of a stack, keeps each row contiguous.
    return tensor.reshape(shape + (n**k,)).take(read, axis=-1)


def _contract_blocks(coeffs, mat, k, batch, block):
    # _contract over the broadcast batch, flattened, block rows at a time.  A
    # single form or matrix is shared by every block.
    n, rows = mat.shape[-1], prod(batch)
    if coeffs.ndim > 1:
        coeffs = np.broadcast_to(coeffs, batch + coeffs.shape[-1:]).reshape(rows, -1)
    if mat.ndim > 2:
        mat = np.broadcast_to(mat, batch + mat.shape[-2:]).reshape(rows, n, n)
    out = np.empty((rows, comb(n, k)), dtype=np.result_type(coeffs, mat))
    for lo in range(0, rows, block):
        part = slice(lo, lo + block)
        out[part] = _contract(coeffs[part] if coeffs.ndim > 1 else coeffs,
                              mat[part] if mat.ndim > 2 else mat, k)
    return out.reshape(batch + (comb(n, k),))


@dataclass(frozen=True)
class KForm:
    """A k-form with dense coefficients over increasing multi-indices.

    ``coeffs`` has shape (..., C(dim, grade)): any leading axes make the
    object a batch of forms of one dimension and grade.
    """

    dim: int
    grade: int
    coeffs: np.ndarray

    # Makes numpy defer to KForm.__rmul__ in `array * form`.
    __array_ufunc__ = None

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
        if arr.shape[-1:] != (expected,):
            raise ValueError(
                f"a grade {self.grade} form on R^{self.dim} needs {expected} "
                f"coefficients in its last axis, got shape {arr.shape}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def _made(cls, dim: int, grade: int, coeffs: np.ndarray) -> "KForm":
        # Wraps an array this module has just computed, without copy or checks:
        # it must be float64 or complex128, of shape (..., C(dim, grade)), and
        # alias no caller's array.
        form = object.__new__(cls)
        coeffs.setflags(write=False)
        object.__setattr__(form, "dim", dim)
        object.__setattr__(form, "grade", grade)
        object.__setattr__(form, "coeffs", coeffs)
        return form

    @classmethod
    def zero(cls, dim: int, grade: int) -> "KForm":
        return cls(dim, grade, np.zeros(comb(dim, grade)))

    @classmethod
    def monomial(cls, dim: int, indices: tuple[int, ...], coeff: float = 1.0) -> "KForm":
        """The form coeff * e^{i1} ^ ... ^ e^{ik} for zero-based indices."""
        ordered, sign = _sorted_indices(dim, indices)
        data = np.zeros(comb(dim, len(indices)))
        data[_positions(dim, len(indices))[ordered]] = sign * coeff
        return cls(dim, len(indices), data)

    def _require_single(self, op: str) -> None:
        if self.coeffs.ndim != 1:
            raise ValueError(f"{op} needs a single form, got a batch of shape {self.coeffs.shape[:-1]}")

    def to_dict(self) -> dict:
        self._require_single("to_dict")
        if np.iscomplexobj(self.coeffs):
            raise ValueError("only real forms serialize; split into real and imaginary parts first")
        return {
            "dim": self.dim,
            "grade": self.grade,
            "coeffs": [float(c) for c in self.coeffs],
        }

    def coefficient(self, indices: tuple[int, ...]) -> float:
        self._require_single("coefficient")
        if len(indices) != self.grade:
            raise ValueError(f"a grade {self.grade} form needs {self.grade} indices, got {indices}")
        ordered, sign = _sorted_indices(self.dim, indices)
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
        return KForm._made(self.dim, self.grade, self.coeffs + other.coeffs)

    def __sub__(self, other: "KForm") -> "KForm":
        self._require_like(other, "subtract")
        return KForm._made(self.dim, self.grade, self.coeffs - other.coeffs)

    def __neg__(self) -> "KForm":
        return KForm(self.dim, self.grade, -self.coeffs)

    def __mul__(self, scalar) -> "KForm":
        # A scalar with leading axes scales each form of the batch by its own value.
        if getattr(scalar, "ndim", 0):
            scalar = scalar[..., None]
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


def _sorted_indices(n: int, indices: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The increasing tuple of distinct indices into R^n, and the sign that sorts them."""
    if not all(0 <= i < n for i in indices):
        raise ValueError(f"indices must lie in 0..{n - 1}, got {indices}")
    if len(set(indices)) != len(indices):
        raise ValueError(f"repeated index in {indices}")
    return tuple(sorted(indices)), _permutation_sign(indices)


@dataclass(frozen=True)
class Metric:
    """A constant inner product with an orientation relative to e^1...e^n.

    ``gram`` may be a stack (..., dim, dim): a batch of inner products that
    share the orientation, each checked as one metric is.
    """

    dim: int
    gram: np.ndarray
    orientation: int = 1
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.gram, dtype=np.float64).copy()
        if arr.shape[-2:] != (self.dim, self.dim):
            raise ValueError(f"gram matrix must be {self.dim}x{self.dim}, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("gram matrix must be finite")
        transposed = arr.swapaxes(-1, -2)
        scale = np.maximum(1.0, np.abs(arr).max(axis=(-2, -1)))
        if (np.abs(arr - transposed).max(axis=(-2, -1)) > 1e-10 * scale).any():
            raise ValueError("gram matrix must be symmetric")
        arr = 0.5 * (arr + transposed)
        if not (np.linalg.eigvalsh(arr) > 0).all():
            raise ValueError("gram matrix must be positive definite")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        arr.flags.writeable = False
        object.__setattr__(self, "gram", arr)

    @cached_property
    def sqrt_det(self) -> float:
        return _scalar(np.sqrt(np.linalg.det(self.gram)))

    @cached_property
    def gram_inv(self) -> np.ndarray:
        return np.linalg.inv(self.gram)

    @cached_property
    def _identity(self) -> bool:
        # Whether every Gram matrix is exactly I, compared bit for bit (a -0.0
        # takes the product path).  The operators then skip their products
        # with it, which are exact: each dropped term is a product with 0 or 1.
        return self.gram.tobytes() == _identity_bytes(self.dim) * (self.gram.size // self.dim**2)

    def _spread(self, x: np.ndarray, axes: int = 1) -> np.ndarray:
        # x, whose last `axes` axes are a form or matrix, broadcast against the
        # stack of Gram matrices as a product with them would be: times ones.
        return x if self.gram.ndim == 2 else x * np.ones(self.gram.shape[:-2] + (1,) * axes)

    def gram_on_forms(self, k: int) -> np.ndarray:
        """Gram matrix of the induced inner product on grade-k coefficients.

        This is the k-th exterior power of the inverse gram matrix.  Above
        the middle grade it is read from the lower power of the gram matrix
        by Jacobi's complementary minors,
        G_k[c(I), c(J)] = s_I s_J det g[I, J] / det g, where c(I) is the
        complement of the (n-k)-tuple I and s_I the sign of (I, c(I)).
        """
        key = ("gram_forms", k)
        if key not in self._cache:
            n = self.dim
            if 2 * k > n:
                _, comp, _, signs = _wedge_table(n, n - k, k)
                det = np.linalg.det(self.gram)[..., None, None]
                mat = np.empty(self.gram.shape[:-2] + (comb(n, k),) * 2)
                mat[..., comp[:, None], comp] = (
                    np.outer(signs, signs) * exterior_power(self.gram, n - k) / det
                )
            else:
                mat = exterior_power(self.gram_inv, k)
            self._cache[key] = mat
        return self._cache[key]

    def hodge_matrix(self, k: int) -> np.ndarray:
        """Matrix of the Hodge star from grade k to grade dim - k coefficients."""
        key = ("hodge", k)
        if key not in self._cache:
            # Each k-tuple's only partner of grade dim - k is its complement, in row order.
            _, dst, _, signs = _wedge_table(self.dim, k, self.dim - k)
            gk = self.gram_on_forms(k)
            scale = np.asarray(self.orientation * self.sqrt_det)[..., None, None]
            mat = np.zeros(gk.shape[:-2] + (comb(self.dim, self.dim - k), comb(self.dim, k)))
            mat[..., dst, :] = scale * signs[:, None] * gk
            self._cache[key] = mat
        return self._cache[key]

    def volume_form(self) -> KForm:
        return KForm(self.dim, self.dim, np.asarray(self.orientation * self.sqrt_det)[..., None])


@lru_cache(maxsize=None)
def _identity_bytes(n: int) -> bytes:
    return np.eye(n).tobytes()


@lru_cache(maxsize=None)
def euclidean_metric(n: int) -> Metric:
    """The shared standard metric on R^n with orientation +1."""
    return Metric(n, np.eye(n))


@dataclass(frozen=True)
class LinearMap:
    """A linear endomorphism of R^n acting on forms by pullback.

    ``matrix`` may be a stack (..., n, n): a batch of maps, one per row.
    """

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.matrix)
        if not np.iscomplexobj(arr):
            arr = arr.astype(np.float64, copy=True)
        else:
            arr = arr.astype(np.complex128, copy=True)
        if arr.shape[-2:] != (self.dim, self.dim):
            raise ValueError(f"matrix must be {self.dim}x{self.dim}, got {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    @cached_property
    def _signed_permutation(self) -> tuple[tuple[int, ...], tuple[float, ...]] | None:
        # (rows, signs) when the matrix is one real signed permutation, column j
        # being signs[j] e_rows[j]; None otherwise, a stack included.
        mat = self.matrix
        if mat.ndim != 2 or np.iscomplexobj(mat) or np.count_nonzero(mat) != self.dim:
            return None
        rows = np.abs(mat).argmax(axis=0)
        signs = mat[rows, np.arange(self.dim)]
        if len(set(rows.tolist())) != self.dim or not (np.abs(signs) == 1.0).all():
            return None
        return tuple(rows.tolist()), tuple(signs.tolist())


@lru_cache(maxsize=None)
def _permuted(k: int, rows: tuple[int, ...], signs: tuple[float, ...]):
    # Pullback of k-forms through the signed permutation (rows, signs) of
    # LinearMap._signed_permutation as gathers and signs: (L* a)[J] is
    # out_signs[J] * a[gather[J]], since det L[I, J] vanishes unless I holds
    # the rows of J.  Every product the contraction makes is with 0 or +-1.
    n = len(rows)
    pos = _positions(n, k)
    gather, out_signs = [], []
    for idx in multi_indices(n, k):
        image, sign = _sorted_indices(n, tuple(rows[j] for j in idx))
        gather.append(pos[image])
        out_signs.append(sign * prod(signs[j] for j in idx))
    return _frozen(np.array(gather, dtype=np.intp)), _frozen(np.array(out_signs))


def _frozen(x: np.ndarray) -> np.ndarray:
    x.setflags(write=False)
    return x


def _require_same_dim(a: KForm, b: KForm) -> None:
    if a.dim != b.dim:
        raise ValueError(f"forms live on different spaces: R^{a.dim} vs R^{b.dim}")


def _fill(mat: np.ndarray, flat: np.ndarray, signs: np.ndarray,
          coeffs: np.ndarray, gather: np.ndarray) -> None:
    """mat[..., flat] = signs * coeffs[..., gather], over any leading axes."""
    if coeffs.ndim == 1:
        # Plain indexing is about three times faster than the Ellipsis form.
        mat[flat] = signs * coeffs[gather]
    else:
        mat[..., flat] = signs * coeffs[..., gather]


def wedge_matrix(a: KForm, l: int) -> np.ndarray:
    """Matrix of beta -> a ^ beta from grade l to grade a.grade + l, zero past the top.

    A batch of forms gives a stack of matrices, one per row.
    """
    n, k = a.dim, a.grade
    batch = a.coeffs.shape[:-1]
    if k + l > n:
        return np.zeros(batch + (1, comb(n, l)), dtype=a.coeffs.dtype)
    ia, flat, signs = _wedge_fill(n, k, l)
    rows, cols = comb(n, k + l), comb(n, l)
    mat = np.zeros(batch + (rows * cols,), dtype=a.coeffs.dtype)
    # Each flat index occurs once: the multi-index of a is the row's minus the column's.
    _fill(mat, flat, signs, a.coeffs, ia)
    return mat.reshape(batch + (rows, cols))


def interior_matrix(a: KForm) -> np.ndarray:
    """Matrix of v -> i(v) a from vectors to grade a.grade - 1; column j is i(e_j) a.

    A batch of forms gives a stack of matrices, one per row.
    """
    n, k = a.dim, a.grade
    batch = a.coeffs.shape[:-1]
    if k == 0:
        return np.zeros(batch + (1, n), dtype=a.coeffs.dtype)
    src, flat, signs = _interior_fill(n, k)
    mat = np.zeros(batch + (comb(n, k - 1) * n,), dtype=a.coeffs.dtype)
    # Each flat index occurs once: the multi-index of a is the row's plus the column.
    _fill(mat, flat, signs, a.coeffs, src)
    return mat.reshape(batch + (comb(n, k - 1), n))


def _sum_terms(signs, x, ix, y, iy):
    """sum over t of signs[t] * x[..., ix[t]] * y[..., iy[t]], for (terms, groups) tables.

    The terms are added one after another in table order, for a single form
    and for every batch row alike, so that a batch row equals its
    single-form call bit for bit.
    """
    if x.ndim == 1 and y.ndim == 1:
        # Plain indexing is about three times faster than the Ellipsis form.  The
        # last partial sums are copied out: a row inside a larger array may lie
        # off the alignment of a fresh one, and numpy's dot products then add
        # in another order.
        return np.add.accumulate(signs * x[ix] * y[iy], axis=0)[-1].copy()
    terms = signs * (x[ix] if x.ndim == 1 else x[..., ix]) * (y[iy] if y.ndim == 1 else y[..., iy])
    total = terms[..., 0, :]
    for t in range(1, len(signs)):
        total = total + terms[..., t, :]
    # The Ellipsis form lays a batch out with its rows strided.
    return np.ascontiguousarray(total)


def _batch_shape(*arrays) -> tuple[int, ...]:
    return np.broadcast_shapes(*(x.shape[:-1] for x in arrays))


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product.  Grades adding past the dimension give the zero top form."""
    _require_same_dim(a, b)
    n = a.dim
    if a.grade + b.grade > n:
        return KForm._made(n, n, np.zeros(_batch_shape(a.coeffs, b.coeffs) + (1,)))
    ia, ib, signs = _wedge_terms(n, a.grade, b.grade)
    return KForm._made(n, a.grade + b.grade, _sum_terms(signs, a.coeffs, ia, b.coeffs, ib))


def _wedge_power(a: KForm, k: int) -> KForm:
    # a ^ ... ^ a with k factors, folded from the left; the unit 0-form for k = 0.
    if k == 0:
        return KForm(a.dim, 0, np.ones(a.coeffs.shape[:-1] + (1,)))
    out = a
    for _ in range(k - 1):
        out = wedge(out, a)
    return out


def interior(v: np.ndarray, a: KForm) -> KForm:
    """Interior product i(v) alpha; on grade zero it returns 0."""
    v = np.asarray(v)
    if v.shape[-1:] != (a.dim,):
        raise ValueError(f"vector must have shape (..., {a.dim}), got {v.shape}")
    if v.dtype != np.float64 and v.dtype != np.complex128:
        v = v.astype(np.complex128 if np.iscomplexobj(v) else np.float64)
    if a.grade == 0:
        return KForm._made(a.dim, 0, np.zeros(_batch_shape(v, a.coeffs) + (1,)))
    src, j, signs = _interior_terms(a.dim, a.grade)
    return KForm._made(a.dim, a.grade - 1, _sum_terms(signs, a.coeffs, src, v, j))


def _require_metric(a: KForm, m: Metric) -> None:
    if a.dim != m.dim:
        raise ValueError(f"form on R^{a.dim} does not match metric on R^{m.dim}")


@lru_cache(maxsize=None)
def _hodge_moves(n: int, k: int):
    # The Hodge star of the identity Gram matrix as gathers and signs: entry J
    # of star(a) is signs[J] * a[gather[J]], with J the complement of the
    # gathered index and the sign hodge_matrix gives it, orientation aside.
    _, dst, _, signs = _wedge_table(n, k, n - k)
    gather = np.argsort(dst)
    return _frozen(gather), _frozen(signs[gather])


def hodge(a: KForm, m: Metric | None = None) -> KForm:
    """Hodge star of a form, defined by beta ^ star(alpha) = <beta, alpha> vol."""
    if m is None:
        m = euclidean_metric(a.dim)
    _require_metric(a, m)
    n, k = a.dim, a.grade
    if m._identity:
        gather, signs = _hodge_moves(n, k)
        values = m._spread(a.coeffs).take(gather, axis=-1)
        return KForm._made(n, n - k, (m.orientation * signs) * values)
    if not _contracts(n, k):
        return KForm._made(n, n - k, _matvec(m.hodge_matrix(k), a.coeffs))
    # hodge_matrix applied without building it: the inverse gram's power on a,
    # moved to the complements and signed as there.
    _, dst, _, signs = _wedge_table(n, k, n - k)
    scale = np.asarray(m.orientation * m.sqrt_det)[..., None] * signs
    values = scale * _contract(a.coeffs, m.gram_inv, k)
    out = np.empty(values.shape, dtype=values.dtype)
    out[..., dst] = values
    return KForm._made(n, n - k, out)


def flat(v: np.ndarray, m: Metric) -> KForm:
    """The covector g(v, .) of a vector; complex for a complex vector."""
    v = np.asarray(v)
    v = v.astype(np.complex128 if np.iscomplexobj(v) else np.float64, copy=False)
    if v.shape[-1:] != (m.dim,):
        raise ValueError(f"vector must have shape (..., {m.dim}), got {v.shape}")
    return KForm(m.dim, 1, m._spread(v) if m._identity else _matvec(m.gram, v))


def _skew(f: KForm) -> np.ndarray:
    """The skew matrix A[i, j] = f(e_i, e_j) = (i(e_i) f)_j of a 2-form, in f's dtype."""
    return interior_matrix(f).swapaxes(-1, -2)


@lru_cache(maxsize=None)
def _upper_pairs(n: int) -> np.ndarray:
    # np.triu_indices(n, 1) as one read-only (2, C(n,2)) array: the (i, j), i < j, in 2-form order.
    pairs = np.array(np.triu_indices(n, 1))
    pairs.setflags(write=False)
    return pairs


def _two_form(a: np.ndarray) -> KForm:
    """The 2-form f with f(e_i, e_j) = a[i, j] for a skew matrix a; inverse of _skew."""
    rows, cols = _upper_pairs(a.shape[-1])
    # Indexing two axes of a stack lays the result out transposed; a batch
    # row must be contiguous to be multiplied as a single form is.
    return KForm(a.shape[-1], 2, np.ascontiguousarray(a[..., rows, cols]))


def sharp2(f: KForm, m: Metric) -> LinearMap:
    """The endomorphism F# of a 2-form F, with g(F#(u), v) = F(u, v).

    For the standard metric and F = e^1 ^ e^2 this sends e1 to e2 and
    e2 to -e1; the skew matrix A of F satisfies gram @ F# = -A.  A batch
    of forms, or a stack of metrics, gives a stack of maps.
    """
    _require_metric(f, m)
    if f.grade != 2:
        raise ValueError(f"sharp2 expects a 2-form, got grade {f.grade}")
    skew = -_skew(f)
    return LinearMap(f.dim, m._spread(skew, 2) if m._identity else np.linalg.solve(m.gram, skew))


def pullback(L: LinearMap, a: KForm) -> KForm:
    """Pullback L* alpha = alpha(L ., ..., L .).  Contravariant: (LM)* = M* L*.

    A stack of maps pulls back row by row, broadcasting against a batch of forms.
    """
    if L.dim != a.dim:
        raise ValueError(f"map on R^{L.dim} does not match form on R^{a.dim}")
    if a.grade == 0:
        # A function pulls back to itself, broadcast against the map stack like other grades.
        return KForm._made(a.dim, 0, a.coeffs * np.ones(L.matrix.shape[:-2] + (1,), L.matrix.dtype))
    if L._signed_permutation is not None:
        gather, signs = _permuted(a.grade, *L._signed_permutation)
        return KForm._made(a.dim, a.grade, signs * a.coeffs.take(gather, axis=-1))
    if _contracts(a.dim, a.grade):
        return KForm._made(a.dim, a.grade, _contract(a.coeffs, L.matrix, a.grade))
    return KForm._made(a.dim, a.grade, _vecmat(a.coeffs, exterior_power(L.matrix, a.grade)))


def form_inner(a: KForm, b: KForm, m: Metric | None = None):
    """Induced inner product on forms of equal grade.

    Conjugate-linear in the first slot for complexified forms, so that
    form_inner(a, a) is real and nonnegative.  Batches give an array over
    their leading axes.
    """
    a._require_like(b, "pair")
    if m is None:
        m = euclidean_metric(a.dim)
    _require_metric(a, m)
    if m._identity:
        return _scalar(_dot(m._spread(a.coeffs.conj()), b.coeffs))
    return _scalar(_dot(_vecmat(a.coeffs.conj(), m.gram_on_forms(a.grade)), b.coeffs))


def form_norm(a: KForm, m: Metric | None = None):
    val = np.real(form_inner(a, a, m))
    if getattr(val, "ndim", 0):
        return np.sqrt(np.maximum(val, 0.0))
    # On one value max() gives the same result as the ufunc, NaN included, at a tenth of the cost.
    return float(np.sqrt(max(val, 0.0)))
