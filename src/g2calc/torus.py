"""Fourier mode analysis of the deformation complex on the flat seven-torus.

Constant-structure operators act mode by mode on the torus: on the span of
e^{i k.x} the exterior derivative becomes the wedge with ik, so every
differential operator in the deformation complex reduces to a small matrix
per integer mode k.  The middle operator of the complex sends a one-form
alpha to star(d alpha ^ star_phi), a first-order map whose per-mode block
is linear in k; its kernel intersected with the coclosed condition counts
the check-harmonic one-forms.  The symbol identity (_symbol_identity)
leaves no kernel at any mode k != 0, so k = 0 alone certifies the
dimension of that space and, by subtracting the first Betti number, the
obstruction count; summing kernel dimensions over a box of modes is the
second, independent route.
"""

from __future__ import annotations

import operator
from contextlib import suppress
from dataclasses import asdict, dataclass
from functools import lru_cache
from math import isfinite
from numbers import Real

import numpy as np

from .forms import KForm, Metric, _coordinate_wedge, _scalar, row_residual, wedge_matrix
from .g2 import G2Data, _or_standard

# A singular value of a mode block at most this fraction of its largest
# counts as zero: exact kernels sit below 1e-7, genuine ones above 0.4.
KERNEL_RTOL = 1e-6

# Modes per block of Gram matrices in the box counts.  A block's working set is about 800
# bytes per mode (the mode table, 28 pair products, 28 packed entries and the screen's
# temporaries), so 2048 modes fit a 2 MB per-core L2 cache; the cutoff-1 half box
# (1094 modes) is one block.
CHUNK = 2048


def _one_structure(data: G2Data | None, op: str) -> G2Data:
    """The given structure, or the standard one for None; a stacked package raises ValueError."""
    data = _or_standard(data)
    if data.phi.coeffs.ndim != 1:
        raise ValueError(f"{op} needs one G2 structure, got a stack of shape {data.phi.coeffs.shape[:-1]}")
    return data


def _symbol(rows: np.ndarray, metric: Metric) -> np.ndarray:
    """S with block i sum k_j S[j] at mode k: rows @ (e^j ^ .) on one-forms over -G_1[j].

    d* of e^{ik.x} alpha is -i <k, alpha>_g, so the gauge row's tensor is -G_1.  Stacks
    of rows (..., r, 21) and of metrics broadcast to a stack of tensors (..., 7, r + 1, 7).
    """
    # Each column of e^j ^ . has at most one nonzero, so the product is exact in any order.
    middle = rows[..., None, :, :] @ _coordinate_wedge(7, 1)
    g1 = metric.gram_on_forms(1)
    out = np.empty(np.broadcast_shapes(middle.shape[:-3], g1.shape[:-2]) + (7, rows.shape[-2] + 1, 7))
    out[..., :-1, :] = middle
    out[..., -1, :] = -g1
    return out


def symbol_tensors(psi: KForm, metric: Metric) -> np.ndarray:
    """The (..., 7, 8, 7) symbol of alpha -> (star(d alpha ^ psi), d* alpha) in the metric.

    psi = c star_phi gives the check-harmonic condition at coupling scale c.
    """
    if (psi.dim, psi.grade) != (7, 4):
        raise ValueError("expected a 4-form on R^7")
    # beta ^ psi = psi ^ beta on 2-forms.
    return _symbol(metric.hodge_matrix(6) @ wedge_matrix(psi, 2), metric)


def _check_tensor(data: G2Data, c) -> np.ndarray:
    """symbol_tensors at psi = c star_phi, for a coupling scale c checked to be a finite real."""
    if not (isinstance(c, Real) and isfinite(c)):
        raise ValueError(f"coupling scale c must be a finite real number, got {c!r}")
    return symbol_tensors(float(c) * data.star_phi, data.metric)


def _symbol_identity(tensor: np.ndarray, weight: np.ndarray, g1: np.ndarray):
    """Residual of S(k)^T W S(k) = |k|^2_g G_1 at every mode, for S(k) = sum k_j tensor[j].

    W = diag(weight, 1) weighs the middle rows and the gauge row.  With W = L L^T, the table
    of _gram_form for L^T S holds S_j^T W S_j and, for j < l, S_j^T W S_l + S_l^T W S_j,
    which must equal G_1[j, j] G_1 and 2 G_1[j, l] G_1.  The residual is the largest
    difference over max|G_1|^2, NaN if any entry is or if weight has no Cholesky factor.
    Where it vanishes and G_1 is positive definite, S(k) v = 0 forces
    |k|^2_g v^T G_1 v = 0, so no mode k != 0 has a kernel.  Stacks of tensors, weights and
    G_1 over the same leading axes give one residual per row, each that of its single call.
    """
    try:
        factor = np.linalg.cholesky(weight)
    except np.linalg.LinAlgError:
        # Row by row: a weight without a factor keeps a NaN one, so only its rows read NaN.
        factor = np.full(weight.shape, np.nan)
        for i in np.ndindex(weight.shape[:-2]):
            with suppress(np.linalg.LinAlgError):
                factor[i] = np.linalg.cholesky(weight[i])
    j, l = _packing(tensor.shape[-3])[:2]
    rows, cols, _, _ = _packing(g1.shape[-1])
    target = np.where(j == l, 1.0, 2.0)[:, None] * g1[..., j, l, None] * g1[..., None, rows, cols]
    weighted = np.concatenate([factor.swapaxes(-1, -2)[..., None, :, :] @ tensor[..., :-1, :],
                               tensor[..., -1:, :]], axis=-2)
    worst = np.max(np.abs(_gram_form(weighted) - target), axis=(-2, -1))
    return _scalar(worst / np.max(np.abs(g1), axis=(-2, -1)) ** 2)


def _mode_symbols(k, data: G2Data, c) -> np.ndarray:
    """The (..., 8, 7) blocks i sum k_j S[j] at modes k (..., 7), every row checked.

    Each is the middle operator's 7 x 7 block over the coclosed row.
    """
    kvec = np.asarray(k, dtype=np.float64)
    if kvec.shape[-1:] != (7,):
        raise ValueError(f"mode must have seven components, got shape {kvec.shape}")
    bad = ~(np.isfinite(kvec) & (kvec == np.trunc(kvec))).all(axis=-1)
    if bad.any():
        raise ValueError(f"mode components must be finite integers, got {kvec[bad][0].tolist()}")
    return 1j * np.einsum("...j,jab->...ab", kvec, _check_tensor(data, c))


@lru_cache(maxsize=None)
def _packing(c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """How a c x c Gram is packed: rows, cols, entry and incidence.

    A packed Gram keeps the U = c(c+1)/2 entries a <= b, the c diagonal
    ones first, then the rest in np.triu_indices(c, 1) order: packed entry
    p is (rows[p], cols[p]), and entry[a * c + b] is the packed entry of
    (a, b) for any a, b.  The (c, U - c) 0/1 incidence matrix has a one
    where row a meets off-diagonal entry p.  The arrays are shared by every
    caller, so they are read-only.
    """
    upper = np.triu_indices(c, 1)
    offdiag = np.arange(len(upper[0]))
    rows = np.concatenate([np.arange(c), upper[0]])
    cols = np.concatenate([np.arange(c), upper[1]])
    entry = np.empty((c, c), dtype=np.intp)
    entry[rows, cols] = entry[cols, rows] = np.arange(len(rows))
    incidence = np.zeros((c, len(offdiag)))
    incidence[upper[0], offdiag] = incidence[upper[1], offdiag] = 1.0
    tables = rows, cols, entry.ravel(), incidence
    for table in tables:
        table.flags.writeable = False
    return tables


def _gram_form(tensor: np.ndarray) -> np.ndarray:
    """Packed rows q[p] with S(k)^H S(k) = sum over pairs p = (j <= l) of k_j k_l q[p].

    The blocks are i times the real matrix sum k_j tensor[j], so the Gram
    matrix is the real quadratic form sum_{j,l} k_j k_l T_j^T T_l: q[p] is
    T_j^T T_j for j = l and T_j^T T_l + T_l^T T_j for j < l.  The pairs run
    over the d coordinates in _packing(d) order, as the entries of a d x d
    Gram, and each row holds the U entries of a c x c Gram in _packing(c)
    order.  A stack of tensors (..., d, r, c) gives a stack of tables.
    """
    *batch, d, r, c = tensor.shape
    j, l = _packing(d)[:2]
    rows, cols, _, _ = _packing(c)
    # One product per row: flat.T @ flat holds T_j^T T_l in block (j, l).
    flat = tensor.swapaxes(-3, -2).reshape(*batch, r, d * c)
    full = (flat.swapaxes(-1, -2) @ flat).reshape(*batch, d, c, d, c).swapaxes(-3, -2)[..., rows, cols]
    return np.where((j == l)[:, None], full[..., j, l, :], full[..., j, l, :] + full[..., l, j, :])


def _mode_grams(q: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """Packed Gram matrices S^H S at each column of modes (d, n), from the table of _gram_form.

    The result is entry-major, of shape (U, n), so that the screen's
    reductions run along contiguous rows.
    """
    j, l = _packing(len(modes))[:2]
    k = np.asarray(modes, dtype=np.float64)
    return q.T @ (k[j] * k[l])


def _screen_open(grams: np.ndarray, incidence: np.ndarray) -> np.ndarray:
    """Columns of a packed Gram stack that may have a kernel.

    grams holds the c diagonal entries of each Gram, then its off-diagonal
    entries in the order of the columns of the (c, p) incidence, as in
    _packing(c), whose incidence matrix is _packing(c)[3].  A column is
    settled when lo > 2 rtol^2 trace(G), where by Gershgorin's theorem
    lo = min_i (G_ii - sum_{j != i} |G_ij|) bounds every eigenvalue of the
    symmetric G from below.  The bound is sound.  If trace(G) <= 0, then
    lo <= min_i G_ii <= trace(G) / c <= 2 rtol^2 trace(G), so the column
    stays open.  Otherwise lo > 0 makes G positive definite, so
    lambda_max <= trace(G) and lambda_min >= lo > 2 rtol^2 lambda_max;
    eigvalsh errs there by about 1e-15 lambda_max, far below the threshold,
    so it would count no kernel either.  NaN and inf columns compare false
    and stay open.
    """
    c = len(incidence)
    lo = grams[:c] - incidence @ np.abs(grams[c:])
    # The factor 2 leaves room for rounding in the Gram, the bounds and eigvalsh.
    return ~(lo.min(axis=0) > 2 * KERNEL_RTOL**2 * grams[:c].sum(axis=0))


def _kernel_shells(tensor: np.ndarray, cutoff: int) -> np.ndarray:
    """Kernel dimensions of i * sum k_j tensor[j] over the box, per shell max|k_i| = 0..cutoff.

    The Gram matrix is even in k, and k and -k sit at flat indices i and total - 1 - i, so
    only the half box from k = 0 on is evaluated, CHUNK modes at a time: the centre counts
    once and every other mode twice.  The Gershgorin screen (_screen_open) settles only modes
    where eigvalsh, within its rounding error, would count no kernel, and eigvalsh counts the
    rest.  So the counts are the same integers at any CHUNK, and their running sums are the
    counts of every smaller box.
    """
    try:
        cutoff = operator.index(cutoff)
    except TypeError:
        raise ValueError(f"cutoff must be an integer, got {cutoff!r}") from None
    if cutoff < 0:
        raise ValueError(f"cutoff must be non-negative, got {cutoff}")
    d, c = len(tensor), tensor.shape[2]
    box = (2 * cutoff + 1,) * d
    total = box[0] ** d
    q = _gram_form(tensor)
    _, _, entry, incidence = _packing(c)
    shells = np.zeros(cutoff + 1, dtype=np.int64)
    for start in range(total // 2, total, CHUNK):
        flat = np.arange(start, min(start + CHUNK, total))
        modes = np.array(np.unravel_index(flat, box)) - cutoff
        grams = _mode_grams(q, modes)
        open_ = np.flatnonzero(_screen_open(grams, incidence))
        if open_.size:
            eigs = np.linalg.eigvalsh(grams[:, open_][entry].T.reshape(-1, c, c))
            zero = np.count_nonzero(eigs <= KERNEL_RTOL**2 * eigs[:, -1:], axis=1)
            shell = np.abs(modes[:, open_]).max(axis=0)
            np.add.at(shells, shell, np.where(flat[open_] == total // 2, 1, 2) * zero)
    return shells


@dataclass(frozen=True)
class CohomologySummary:
    """Dimension counts over all modes with max-norm at most the cutoff."""

    cutoff: int
    dim_check_H1: int
    dim_H2: int
    b1: int

    def to_dict(self) -> dict:
        return asdict(self)


def harmonic_dims(cutoff: int, data: G2Data | None = None,
                  c: float = 1.0) -> list[CohomologySummary]:
    """Check-harmonic one-form counts and what they give, for the boxes of cutoffs 0..cutoff.

    dim_check_H1 sums the kernels of the per-mode blocks of the middle
    operator over the coclosed row, b1 those of the ordinary harmonic
    condition, and dim_H2 is their difference.  The boxes are nested, so
    one sweep of the largest box per tensor gives every cutoff.  b1 does not
    depend on c: it is kept in the structure's cache per cutoff and swept
    only when a cutoff is missing.
    """
    data = _one_structure(data, "harmonic_dims")
    # Plain ints, so that the summaries serialise and numpy integers share the cache.
    check = np.cumsum(_kernel_shells(_check_tensor(data, c), cutoff)).tolist()
    keys = [("b1", s) for s in range(len(check))]
    if not all(key in data._cache for key in keys):
        b1 = np.cumsum(_kernel_shells(_symbol(np.eye(21), data.metric), cutoff)).tolist()
        data._cache.update(zip(keys, b1))
    b1 = [data._cache[key] for key in keys]
    return [CohomologySummary(s, h, h - b, b) for s, (h, b) in enumerate(zip(check, b1))]


def harmonic_dim(cutoff: int, data: G2Data | None = None, c: float = 1.0) -> CohomologySummary:
    """The summary of the box of the cutoff: the last entry of harmonic_dims."""
    return harmonic_dims(cutoff, data, c)[-1]


def adjoint_check(k, data: G2Data | None = None, c: float = 1.0) -> float | np.ndarray:
    """Residual of the adjoint identity of the middle operator at each mode of k.

    k is one mode (7,), which returns a float, or a stack (..., 7), which
    returns one residual per row; the symbol and g1^-1 are built once per
    call, and each row equals its single call bit for bit.
    The operator is formally self-adjoint, so the conjugate transpose of its
    block must equal the gram-conjugated block g1 B g1^-1 at the same mode.
    The block is i times a real matrix odd in k, so its conjugate is exactly
    the block at -k: comparing with the opposite mode, or transposing it,
    would repeat this residual bit for bit.  A NaN in the block reads NaN.
    """
    data = _one_structure(data, "adjoint_check")
    blocks = _mode_symbols(k, data, c)[..., :7, :]
    g1 = data.metric.gram_on_forms(1)
    weighted = g1 @ blocks @ np.linalg.inv(g1)
    rows = blocks.shape[:-2] + (49,)
    return _scalar(row_residual(blocks.conj().swapaxes(-1, -2).reshape(rows), weighted.reshape(rows)))
