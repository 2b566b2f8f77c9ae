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

import numpy as np

from .forms import MAX_DIM, KForm, Metric, _coordinate_wedge, row_residual, wedge_matrix
from .g2 import G2Data, _or_standard

# A singular value of a mode block at most this fraction of its largest
# counts as zero: exact kernels sit below 1e-7, genuine ones above 0.4.
KERNEL_RTOL = 1e-6

# Modes per batch of Gram matrices in betti_one and harmonic_dim.
CHUNK = 8192


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


def mode_block(k, data: G2Data | None = None, c: float = 1.0) -> ModeBlock:
    """Assemble the mode matrices for one integer frequency vector."""
    data = _or_standard(data)
    kvec = np.asarray(k, dtype=np.float64)
    if kvec.shape != (7,):
        raise ValueError(f"mode must have seven components, got shape {kvec.shape}")
    if not (np.isfinite(kvec) & (kvec == np.trunc(kvec))).all():
        raise ValueError(f"mode components must be finite integers, got {kvec.tolist()}")
    symbol = 1j * np.einsum("j,jab->ab", kvec, symbol_tensors(c * data.star_phi, data.metric))
    return ModeBlock(
        k=tuple(int(v) for v in np.asarray(k).ravel()),
        d0=1j * kvec,
        d1=1j * np.einsum("j,jab->ab", kvec, _coordinate_wedge(7, 1)),
        d1_prime=symbol[:7],
        dstar1=symbol[7],
    )


# The pairs j <= l of the Gram table in each dimension, built once: the counter reads them per chunk.
_PAIRS = {d: np.triu_indices(d) for d in range(1, MAX_DIM + 1)}


def _gram_form(tensor: np.ndarray) -> np.ndarray:
    """Matrices q[p] with S(k)^H S(k) = sum over pairs p = (j <= l) of k_j k_l q[p].

    The blocks are i times the real matrix sum k_j tensor[j], so the Gram
    matrix is the real quadratic form sum_{j,l} k_j k_l T_j^T T_l: q[p] is
    T_j^T T_j for j = l and T_j^T T_l + T_l^T T_j for j < l.  The pairs run
    over the d = len(tensor) coordinates in np.triu_indices(d) order.
    """
    j, l = _PAIRS[len(tensor)]
    full = np.einsum("jrc,lrd->jlcd", tensor, tensor)
    return np.where((j == l)[:, None, None], full[j, l], full[j, l] + full[l, j])


def _mode_grams(q: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """Gram matrices S^H S at each column of modes (d, n), from the table of _gram_form.

    The result is entry-major, of shape (c, c, n) for c columns of the
    tensor, so that the screen's reductions run along contiguous rows.
    """
    j, l = _PAIRS[len(modes)]
    k = np.asarray(modes, dtype=np.float64)
    return (q.reshape(len(q), -1).T @ (k[j] * k[l])).reshape(*q.shape[1:], -1)


def _screen_open(grams: np.ndarray) -> np.ndarray:
    """Columns of an entry-major Gram stack (c, c, n) that may have a kernel.

    By Gershgorin's theorem every eigenvalue of a symmetric G lies in
    [lo, hi], with lo = min_i (G_ii - sum_{j != i} |G_ij|) and
    hi = max_i (G_ii + sum_{j != i} |G_ij|).  A column with
    lo > 2 rtol^2 hi has lambda_min > 2 rtol^2 lambda_max; eigvalsh errs
    there by about 1e-15 lambda_max, far below the threshold, so it would
    count no kernel either.  NaN and inf columns compare false and stay open.
    """
    diag = np.einsum("iin->in", grams)
    radius = np.abs(grams).sum(axis=1) - np.abs(diag)
    lo = (diag - radius).min(axis=0)
    hi = (diag + radius).max(axis=0)
    # The factor 2 leaves room for rounding in the Gram, the bounds and eigvalsh.
    return ~(lo > 2 * KERNEL_RTOL**2 * hi)


def _index(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _kernel_total(tensor: np.ndarray, cutoff: int) -> int:
    """Sum per-mode kernel dimensions of i * sum k_j tensor[j] over the box.

    The Gram matrix is even in k, and k and -k sit at flat indices i and
    total - 1 - i, so only the half from the centre (k = 0) on is evaluated:
    the centre counts once and every other mode twice.  A Gershgorin screen
    (_screen_open) settles the modes whose Grams are too well conditioned
    to have a kernel; eigvalsh counts the zero eigenvalues of the rest.  The
    screen settles only modes where eigvalsh, within its rounding error,
    would count none, so the total is the same integer.  The half box is
    walked in chunks of CHUNK modes, and any chunk gives the same total.
    """
    cutoff = _index("cutoff", cutoff)
    if cutoff < 0:
        raise ValueError(f"cutoff must be non-negative, got {cutoff}")
    d = len(tensor)
    side = 2 * cutoff + 1
    total = side**d
    centre = total // 2
    # Flat index to mode, as unravel_index in C order: coordinate p has stride side^(d - 1 - p).
    strides = side ** np.arange(d - 1, -1, -1)[:, None]
    q = _gram_form(tensor)
    count = 0
    for lo in range(centre, total, CHUNK):
        flat = np.arange(lo, min(lo + CHUNK, total))
        grams = _mode_grams(q, flat // strides % side - cutoff)
        open_ = _screen_open(grams)
        eigs = np.linalg.eigvalsh(np.moveaxis(grams[..., open_], -1, 0))
        hits = np.sum(eigs <= KERNEL_RTOL**2 * eigs[:, -1:], axis=1)
        count += int(hits @ np.where(flat[open_] == centre, 1, 2))
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
    check_h1 = _kernel_total(symbol_tensors(c * data.star_phi, data.metric), cutoff)
    key = ("betti_one", cutoff)
    if key not in data._cache:
        data._cache[key] = betti_one(cutoff, data)
    b1 = data._cache[key]
    return CohomologySummary(cutoff, check_h1, check_h1 - b1, b1)


def adjoint_check(k, data: G2Data | None = None, c: float = 1.0) -> float:
    """Residual of the adjoint identity of the middle operator at one mode.

    The operator is formally self-adjoint, so the conjugate transpose of its
    block must equal the gram-conjugated block g1 B g1^-1 at the same mode.
    The block is i times a real matrix odd in k, so its conjugate is exactly
    the block at -k: comparing with the opposite mode, or transposing it,
    would repeat this residual bit for bit.  A NaN in the block reads NaN.
    """
    data = _or_standard(data)
    block = mode_block(k, data, c).d1_prime
    g1 = data.metric.gram_on_forms(1)
    weighted = g1 @ block @ np.linalg.inv(g1)
    return float(row_residual(block.conj().T.ravel(), weighted.ravel()))
