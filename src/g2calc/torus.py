"""Fourier mode analysis of the deformation complex on the flat seven-torus.

Constant-structure operators act mode by mode on the torus: on the span of
e^{i k.x} the exterior derivative becomes the wedge with ik, so every
differential operator in the deformation complex reduces to a small matrix
per integer mode k.  The middle operator of the complex sends a one-form
alpha to star(d alpha ^ star_phi), a first-order map whose per-mode block
is linear in k; its kernel intersected with the coclosed condition counts
the check-harmonic one-forms.  Summing kernel dimensions over a box of
modes certifies the dimension of that space and, by subtracting the first
Betti number, the obstruction count.
"""

from __future__ import annotations

import operator
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

# Most modes per block of Gram matrices in the box counts: a block holds whole tails, the
# last m coordinates for the largest m with side^m <= CHUNK.  For 7 x 7 Grams a block's
# working set is at most about 470 bytes per mode (all 28 packed entries and the screen
# temporaries; about 75 bytes with the 7 diagonal entries alone), so 2048 modes fit a 2 MB
# per-core L2 cache.  In two sweeps of the cutoff-3 and cutoff-1 counts on a 2-core Xeon,
# with all 28 entries built, 1536 and 2048 were within 4 % of each other, and 1024, 3072
# and 4096 (2401-mode blocks at cutoff 3) took 20-32 % longer.
CHUNK = 2048


def _symbol(rows: np.ndarray, metric: Metric) -> np.ndarray:
    """S with block i sum k_j S[j] at mode k: rows @ (e^j ^ .) on one-forms over -G_1[j].

    d* of e^{ik.x} alpha is -i <k, alpha>_g, so the gauge row's tensor is -G_1.
    """
    # Each column of e^j ^ . has at most one nonzero, so the product is exact in any order.
    middle = rows @ _coordinate_wedge(7, 1)
    return np.concatenate([middle, -metric.gram_on_forms(1)[:, None, :]], axis=1)


def symbol_tensors(psi: KForm, metric: Metric) -> np.ndarray:
    """The (7, 8, 7) symbol of alpha -> (star(d alpha ^ psi), d* alpha) in the metric.

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
    over the d = len(tensor) coordinates in _packing(d) order, as the
    entries of a d x d Gram, and each row holds the U entries of a c x c
    Gram in _packing(c) order.
    """
    j, l = _packing(len(tensor))[:2]
    rows, cols, _, _ = _packing(tensor.shape[2])
    full = np.einsum("jrc,lrd->jlcd", tensor, tensor)[:, :, rows, cols]
    return np.where((j == l)[:, None], full[j, l], full[j, l] + full[l, j])


def _mode_grams(q: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """Packed Gram matrices S^H S at each column of modes (d, n), from the table of _gram_form.

    The result is entry-major, of shape (U, n), so that the screen's
    reductions run along contiguous rows.
    """
    j, l = _packing(len(modes))[:2]
    k = np.asarray(modes, dtype=np.float64)
    return q.T @ (k[j] * k[l])


def _kept_entries(q: np.ndarray, c: int) -> np.ndarray:
    """The packed entries of a c x c Gram that the table q of _gram_form can make nonzero.

    These are the c diagonal entries and every off-diagonal entry whose
    column of q is not all zero; NaN and inf count as nonzero.  Every term
    of a dropped entry is 0 times a finite mode product, so the entry is
    exactly 0.0 at every finite mode.
    """
    keep = q.any(axis=0)
    keep[:c] = True
    return np.flatnonzero(keep)


def _screen_open(grams: np.ndarray, incidence: np.ndarray) -> np.ndarray:
    """Columns of a packed Gram stack that may have a kernel.

    grams holds the c diagonal entries of each Gram, then its off-diagonal
    entries in the order of the columns of the (c, p) incidence, which are
    columns of _packing(c)[3]; every off-diagonal entry left out is zero.
    A column is settled when lo > 2 rtol^2 trace(G), where by Gershgorin's
    theorem lo = min_i (G_ii - sum_{j != i} |G_ij|) bounds every eigenvalue
    of the symmetric G from below; a zero entry adds nothing to the sums,
    and with no off-diagonal entry lo is the least diagonal entry.  The
    bound is sound.  If trace(G) <= 0, then lo <= min_i G_ii <= trace(G) / c
    <= 2 rtol^2 trace(G), so the column stays open.  Otherwise lo > 0 makes
    G positive definite, so lambda_max <= trace(G) and lambda_min >= lo >
    2 rtol^2 lambda_max; eigvalsh errs there by about 1e-15 lambda_max, far
    below the threshold, so it would count no kernel either.  NaN and inf
    columns compare false and stay open.
    """
    c = len(incidence)
    diag = grams[:c]
    lo = diag
    if incidence.size:
        lo = incidence @ np.abs(grams[c:])
        np.subtract(diag, lo, out=lo)
    bound = diag.sum(axis=0)
    # The factor 2 leaves room for rounding in the Gram, the bounds and eigvalsh.
    bound *= 2 * KERNEL_RTOL**2
    return ~(lo.min(axis=0) > bound)


def _unpacked(grams: np.ndarray, c: int, kept: np.ndarray) -> np.ndarray:
    """The (n, c, c) symmetric matrices of the packed entries kept (len(kept), n), zero elsewhere."""
    packed = np.zeros((c * (c + 1) // 2, grams.shape[1]))
    packed[kept] = grams
    return packed[_packing(c)[2]].T.reshape(-1, c, c)


def _index(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _half_box_grams(q: np.ndarray, d: int, cutoff: int):
    """Packed Grams of the half box from the centre k = 0 on, in blocks of whole head prefixes.

    q is the table of _gram_form over d coordinates, restricted to u of its packed entries:
    each block has one row per entry.  _kernel_shells keeps the entries of _kept_entries, and
    every entry it drops is exactly 0.0 at every mode, so it is not built.
    The head h is the first d - m coordinates and the tail t the last m, for the largest m
    with side^m <= CHUNK.  G(h, t) is a quadratic in t with coefficients depending on h, so a
    prefix is one (u, K) map against the K = m(m+1)/2 + m + 1 tail monomials (t_j t_l, t_l, 1),
    and a block of CHUNK // side^m prefixes is one product with the monomial table.  The first
    block is the centre's prefix h = 0 from the tail centre on, the quadratic part alone.
    Yields (offset, grams), offset being the flat index of the block's first mode less the centre's.
    """
    side = 2 * cutoff + 1
    m = d
    while m and side**m > CHUNK:
        m -= 1
    head, n = d - m, side**m
    # pair[j, l] is the row of q that holds the pair {j, l}.
    pair = _packing(d)[2].reshape(d, d)
    # The tail modes as columns, in C order, as np.unravel_index gives them.
    tail = np.indices((side,) * m).reshape(m, n) - cutoff
    j, l = _packing(m)[:2]
    monomials = np.vstack([tail[j] * tail[l], tail, np.ones((1, n))])
    q_tail = q[pair[head:, head:][j, l]].T
    u, quadratic = q_tail.shape
    # t and -t sit at tail indices i and n - 1 - i: the half from the tail centre on.
    yield 0, q_tail @ monomials[:quadratic, n // 2:]
    q_head, q_cross = q[pair[:head, :head][_packing(head)[:2]]], q[pair[:head, head:]]
    # Prefix index to head mode, as np.unravel_index in C order.
    strides = side ** np.arange(head - 1, -1, -1)[:, None]
    centre = side**head // 2
    step = CHUNK // n
    # The prefix maps are built for side blocks at a time: a block of a few modes does
    # not pay their numpy calls alone, and they cover at most side * CHUNK / side^m prefixes.
    for start in range(centre + 1, side**head, side * step):
        stop = min(start + side * step, side**head)
        h = np.arange(start, stop) // strides % side - cutoff
        # linear[:, p] is the (u, K) map of prefix p: quadratic part, cross term and G(h, 0).
        linear = np.concatenate([np.broadcast_to(q_tail[:, None], (u, stop - start, quadratic)),
                                 np.einsum("jp,jlu->upl", h, q_cross),
                                 _mode_grams(q_head, h)[:, :, None]], axis=2)
        for first in range(start, stop, step):
            maps = linear[:, first - start:first - start + step].reshape(-1, len(monomials))
            yield (first - centre) * n - n // 2, (maps @ monomials).reshape(u, -1)


def _kernel_shells(tensor: np.ndarray, cutoff: int) -> np.ndarray:
    """Kernel dimensions of i * sum k_j tensor[j] over the box, per shell max|k_i| = 0..cutoff.

    The Gram matrix is even in k, and k and -k sit at flat indices i and total - 1 - i, so
    only the half box from k = 0 on is evaluated (_half_box_grams): the centre counts once and
    every other mode twice.  Only the packed Gram entries of _kept_entries are built and
    screened; the rest are exactly 0.0 at every mode, so the screen and eigvalsh see the same
    matrices as with every entry built.  The Gershgorin screen (_screen_open) settles only
    modes where eigvalsh, within its rounding error, would count no kernel, and eigvalsh counts
    the rest.  So the counts are the same integers at any CHUNK, and their running sums are the
    counts of every smaller box.
    """
    cutoff = _index("cutoff", cutoff)
    if cutoff < 0:
        raise ValueError(f"cutoff must be non-negative, got {cutoff}")
    d, c = len(tensor), tensor.shape[2]
    box = (2 * cutoff + 1,) * d
    centre = box[0] ** d // 2
    q = _gram_form(tensor)
    kept = _kept_entries(q, c)
    incidence = _packing(c)[3][:, kept[c:] - c]
    shells = np.zeros(cutoff + 1, dtype=np.int64)
    for offset, grams in _half_box_grams(q[:, kept], d, cutoff):
        open_ = _screen_open(grams, incidence)
        if open_.any():
            open_ = np.flatnonzero(open_)
            eigs = np.linalg.eigvalsh(_unpacked(grams[:, open_], c, kept))
            zero = np.count_nonzero(eigs <= KERNEL_RTOL**2 * eigs[:, -1:], axis=1)
            flat = centre + offset + open_
            shell = np.abs(np.array(np.unravel_index(flat, box)) - cutoff).max(axis=0)
            np.add.at(shells, shell, np.where(flat == centre, 1, 2) * zero)
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
    data = _or_standard(data)
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
    data = _or_standard(data)
    blocks = _mode_symbols(k, data, c)[..., :7, :]
    g1 = data.metric.gram_on_forms(1)
    weighted = g1 @ blocks @ np.linalg.inv(g1)
    rows = blocks.shape[:-2] + (49,)
    return _scalar(row_residual(blocks.conj().swapaxes(-1, -2).reshape(rows), weighted.reshape(rows)))
