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
from math import isfinite, isqrt
from numbers import Real

import numpy as np

from .forms import KForm, Metric, _coordinate_wedge, _scalar, row_residual, wedge_matrix
from .g2 import G2Data, _or_standard

# A singular value of a mode block at most this fraction of its largest
# counts as zero: exact kernels sit below 1e-7, genuine ones above 0.4.
KERNEL_RTOL = 1e-6

# Most modes per block of Gram matrices in betti_one and harmonic_dim.  The tail of
# the box is its last m coordinates, for the largest m with side^m <= CHUNK, and a
# block holds whole tails.  For 7 x 7 Grams a block's working set is about 680
# bytes per mode: its packed Grams, the tiled tail table and the screen's
# temporaries.  At 2048 modes that is about 1.4 MB, inside a 2 MB per-core L2
# cache; at 8192 it spilled, and the cutoff-2 and cutoff-3 counts took about 1.7
# times as long.  A sweep of 1024 to 8192 on a 2-core Xeon picked 2048, with 1536
# to 3072 within a few per cent of it.
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


@dataclass(frozen=True)
class ModeBlock:
    """The complex of one Fourier mode, as dense matrices on coefficients."""

    k: tuple[int, ...]
    d0: np.ndarray
    d1: np.ndarray
    d1_prime: np.ndarray
    dstar1: np.ndarray

    @property
    def stacked(self) -> np.ndarray:
        """The check-harmonic condition: d1_prime rows over the coclosed row."""
        return np.vstack([self.d1_prime, self.dstar1[None, :]])


def _check_tensor(data: G2Data, c) -> np.ndarray:
    """symbol_tensors at psi = c star_phi, for a coupling scale c checked to be a finite real."""
    if not (isinstance(c, Real) and isfinite(c)):
        raise ValueError(f"coupling scale c must be a finite real number, got {c!r}")
    return symbol_tensors(float(c) * data.star_phi, data.metric)


def _mode_symbols(k, data: G2Data, c) -> tuple[np.ndarray, np.ndarray]:
    """Modes k (..., 7) as floats, every row checked, and the stacked (..., 8, 7) blocks i sum k_j S[j]."""
    kvec = np.asarray(k, dtype=np.float64)
    if kvec.shape[-1:] != (7,):
        raise ValueError(f"mode must have seven components, got shape {kvec.shape}")
    bad = ~(np.isfinite(kvec) & (kvec == np.trunc(kvec))).all(axis=-1)
    if bad.any():
        raise ValueError(f"mode components must be finite integers, got {kvec[bad][0].tolist()}")
    return kvec, 1j * np.einsum("...j,jab->...ab", kvec, _check_tensor(data, c))


def mode_block(k, data: G2Data | None = None, c: float = 1.0) -> ModeBlock:
    """Assemble the mode matrices for one integer frequency vector."""
    if np.shape(k) != (7,):
        raise ValueError(f"mode must have seven components, got shape {np.shape(k)}")
    kvec, symbol = _mode_symbols(k, _or_standard(data), c)
    return ModeBlock(
        k=tuple(int(v) for v in kvec),
        d0=1j * kvec,
        d1=1j * np.einsum("j,jab->ab", kvec, _coordinate_wedge(7, 1)),
        d1_prime=symbol[:7],
        dstar1=symbol[7],
    )


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


def _screen_open(grams: np.ndarray) -> np.ndarray:
    """Columns of a packed Gram stack (U, n) that may have a kernel.

    A column is settled when lo > 2 rtol^2 trace(G), where by Gershgorin's
    theorem lo = min_i (G_ii - sum_{j != i} |G_ij|) bounds every eigenvalue
    of the symmetric G from below.  The bound is sound.  If trace(G) <= 0,
    then lo <= min_i G_ii <= trace(G) / c <= 2 rtol^2 trace(G), so the
    column stays open.  Otherwise lo > 0 makes G positive definite, so
    lambda_max <= trace(G) and lambda_min >= lo > 2 rtol^2 lambda_max;
    eigvalsh errs there by about 1e-15 lambda_max, far below the threshold,
    so it would count no kernel either.  NaN and inf columns compare false
    and stay open.
    """
    c = (isqrt(8 * len(grams) + 1) - 1) // 2   # U = c(c+1)/2
    diag = grams[:c]
    lo = _packing(c)[3] @ np.abs(grams[c:])
    np.subtract(diag, lo, out=lo)
    bound = diag.sum(axis=0)
    # The factor 2 leaves room for rounding in the Gram, the bounds and eigvalsh.
    bound *= 2 * KERNEL_RTOL**2
    return ~(lo.min(axis=0) > bound)


def _unpacked(grams: np.ndarray) -> np.ndarray:
    """The (n, c, c) symmetric matrices of a packed Gram stack (U, n)."""
    c = (isqrt(8 * len(grams) + 1) - 1) // 2
    return grams[_packing(c)[2]].T.reshape(-1, c, c)


def _index(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _half_box_grams(tensor: np.ndarray, cutoff: int):
    """Packed Grams of the half box from the centre k = 0 on, in blocks of whole head prefixes.

    The d coordinates split into a head (the first d - m) and a tail (the
    last m), with m the largest value such that side^m <= CHUNK.  At
    k = (h, t) the quadratic form splits as
    G(h, t) = G(0, t) + G(h, 0) + sum_{j in head, l in tail} h_j t_l q[j, l],
    so the tail table G(0, t) over all side^m tail modes is built once,
    and each prefix h adds one (U, m + 1) @ (m + 1, side^m) product: the
    cross term and, against a row of ones, the constant G(h, 0).  The
    first block is the centre's prefix h = 0 from the centre of its tail
    on, which is G(0, t) alone; after it, each block holds
    CHUNK // side^m whole prefixes, and their maps are built side blocks
    at a time.  Yields (offset, grams), where offset is the flat index of
    the block's first mode less that of the centre.
    """
    d = len(tensor)
    side = 2 * cutoff + 1
    m = d
    while m and side**m > CHUNK:
        m -= 1
    head, n = d - m, side**m
    q = _gram_form(tensor)
    # pair[j, l] is the row of q that holds the pair {j, l}.
    pair = _packing(d)[2].reshape(d, d)
    # The tail modes as columns, in C order, as np.unravel_index gives them.
    tail_modes = np.indices((side,) * m).reshape(m, n) - cutoff
    # G(0, t) is even in t, and t and -t sit at tail indices i and n - 1 - i: the half
    # from the tail centre on is the block of the centre prefix h = 0, and mirrors to the rest.
    half = _mode_grams(q[pair[head:, head:][_packing(m)[:2]]], tail_modes[:, n // 2:])
    yield 0, half
    tail = np.concatenate([half[:, :0:-1], half], axis=1)
    q_head, q_cross = q[pair[:head, :head][_packing(head)[:2]]], q[pair[:head, head:]]
    # Prefix index to head mode, as np.unravel_index in C order.
    strides = side ** np.arange(head - 1, -1, -1)[:, None]
    columns = np.vstack([tail_modes, np.ones((1, n))])
    centre = side**head // 2
    step = CHUNK // n
    # The tail table repeated for the most prefixes a block holds; centre is the number of later prefixes.
    tiled = np.tile(tail, min(step, centre))
    # The prefix maps are built for side blocks at a time: a block of a few modes does
    # not pay their numpy calls alone, and they cover at most side * CHUNK / side^m prefixes.
    for start in range(centre + 1, side**head, side * step):
        stop = min(start + side * step, side**head)
        h = np.arange(start, stop) // strides % side - cutoff
        # linear[:, p] is the (U, m + 1) map of prefix p, applied to the tail modes over a row of ones.
        linear = np.concatenate([np.einsum("jp,jlu->upl", h, q_cross),
                                 _mode_grams(q_head, h)[:, :, None]], axis=2)
        for first in range(start, stop, step):
            maps = linear[:, first - start:first - start + step].reshape(-1, m + 1)
            grams = (maps @ columns).reshape(len(tail), -1)
            grams += tiled[:, :grams.shape[1]]
            yield (first - centre) * n - n // 2, grams


def _kernel_total(tensor: np.ndarray, cutoff: int) -> int:
    """Sum per-mode kernel dimensions of i * sum k_j tensor[j] over the box.

    The Gram matrix is even in k, and k and -k sit at flat indices i and
    total - 1 - i, so only the half from the centre (k = 0) on is evaluated
    (_half_box_grams): the centre counts once and every other mode twice.
    A Gershgorin screen (_screen_open) settles the modes whose Grams are
    too well conditioned to have a kernel; eigvalsh counts the zero
    eigenvalues of the rest, and a block with no open mode costs none.
    The screen settles only modes where eigvalsh, within its rounding
    error, would count none, so the total is the same integer.  Any CHUNK
    gives the same total.
    """
    cutoff = _index("cutoff", cutoff)
    if cutoff < 0:
        raise ValueError(f"cutoff must be non-negative, got {cutoff}")
    count = 0
    for offset, grams in _half_box_grams(tensor, cutoff):
        open_ = np.flatnonzero(_screen_open(grams))
        if len(open_):
            eigs = np.linalg.eigvalsh(_unpacked(grams[:, open_]))
            zero = eigs <= KERNEL_RTOL**2 * eigs[:, -1:]
            count += 2 * int(np.count_nonzero(zero))
            # The centre is the first mode of the first block, and counts once.
            if offset == 0 and open_[0] == 0:
                count -= int(np.count_nonzero(zero[0]))
    return count


@dataclass(frozen=True)
class CohomologySummary:
    """Dimension counts over all modes with max-norm at most the cutoff."""

    cutoff: int
    dim_check_H1: int
    dim_H2: int
    b1: int

    def to_dict(self) -> dict:
        return asdict(self)


def betti_one(cutoff: int, data: G2Data | None = None) -> int:
    """First Betti number from one-forms with d alpha = 0 and d* alpha = 0, mode by mode."""
    data = _or_standard(data)
    return _kernel_total(_symbol(np.eye(21), data.metric), cutoff)


def harmonic_dim(cutoff: int, data: G2Data | None = None, c: float = 1.0) -> CohomologySummary:
    """Count check-harmonic one-forms over the mode box and derive the rest.

    dim_check_H1 sums the kernels of the stacked (d1_prime; dstar1) blocks;
    b1 is counted from the ordinary harmonic condition on the same box,
    and dim_H2 is their difference.  b1 does not depend on c, so it is
    counted once per structure and cutoff and kept in the structure's cache.
    """
    data = _or_standard(data)
    # A plain int, so that the summary serialises and numpy integers share the cache.
    cutoff = _index("cutoff", cutoff)
    check_h1 = _kernel_total(_check_tensor(data, c), cutoff)
    key = ("betti_one", cutoff)
    if key not in data._cache:
        data._cache[key] = betti_one(cutoff, data)
    b1 = data._cache[key]
    return CohomologySummary(cutoff, check_h1, check_h1 - b1, b1)


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
    blocks = _mode_symbols(k, data, c)[1][..., :7, :]
    g1 = data.metric.gram_on_forms(1)
    weighted = g1 @ blocks @ np.linalg.inv(g1)
    rows = blocks.shape[:-2] + (49,)
    return _scalar(row_residual(blocks.conj().swapaxes(-1, -2).reshape(rows), weighted.reshape(rows)))
