"""Unit tests for the mode-by-mode torus analysis."""

import dataclasses
import itertools
import json
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2calc.forms import KForm, LinearMap, hodge, pullback, rel_residual, wedge, wedge_matrix
from g2calc.g2 import g2_bundle, standard_g2
from g2calc import torus
from g2calc.ddt import graph_map
from g2calc.torus import (
    KERNEL_RTOL,
    _coordinate_wedge,
    _gram_form,
    _half_box_grams,
    _kept_entries,
    _kernel_shells,
    _kernel_total,
    _mode_grams,
    _packing,
    _screen_open,
    _symbol,
    CohomologySummary,
    adjoint_check,
    betti_one,
    harmonic_dim,
    harmonic_dims,
    mode_block,
    symbol_tensors,
)


@pytest.fixture(scope="module")
def G():
    return standard_g2()


@pytest.fixture(scope="module")
def perturbed():
    rng = np.random.default_rng(130)
    G = standard_g2()
    f = KForm(7, 2, 0.1 * rng.standard_normal(21))
    return g2_bundle(pullback(graph_map(f, G), G.phi))


def full_box_total(tensor, cutoff, chunk=65536):
    """Reference counter: S^T S built directly at every mode of the box, in len(tensor) dimensions."""
    d = len(tensor)
    side = 2 * cutoff + 1
    total = side**d
    count = 0
    for lo in range(0, total, chunk):
        flat = np.arange(lo, min(lo + chunk, total))
        modes = np.stack(np.unravel_index(flat, (side,) * d), axis=1) - cutoff
        real = np.einsum("mj,jrc->mrc", modes.astype(np.float64), tensor)
        gram = np.einsum("mrc,mrd->mcd", real, real)
        eigs = np.linalg.eigvalsh(gram)
        count += int(np.sum(eigs <= KERNEL_RTOL**2 * eigs[:, -1:]))
    return count


def triangle(c):
    """Row and column of each packed Gram entry: the diagonal first, then a < b in row order."""
    upper = np.triu_indices(c, 1)
    return np.r_[np.arange(c), upper[0]], np.r_[np.arange(c), upper[1]]


def pack(grams):
    """A stack of symmetric matrices (n, c, c) as packed columns (U, n)."""
    rows, cols = triangle(grams.shape[-1])
    return grams[:, rows, cols].T


def unpack(packed, c, kept):
    """Columns (len(kept), n) of the packed entries `kept` as matrices (n, c, c), zero elsewhere."""
    rows, cols = (index[kept] for index in triangle(c))
    full = np.zeros((packed.shape[1], c, c))
    full[:, rows, cols] = packed.T
    full[:, cols, rows] = packed.T
    return full


def kept_entries(tensor):
    """The packed Gram entries the counter builds for a tensor."""
    return _kept_entries(_gram_form(tensor), tensor.shape[2])


def half_box_blocks(tensor, cutoff):
    """The counter's blocks of kept packed Grams over the half box."""
    return _half_box_grams(_gram_form(tensor)[:, kept_entries(tensor)], len(tensor), cutoff)


def half_box_columns(tensor, cutoff, flat):
    """The counter's kept packed Grams at the half-box modes with flat C-order indices `flat`."""
    centre = (2 * cutoff + 1) ** len(tensor) // 2
    found = {}
    for offset, grams in half_box_blocks(tensor, cutoff):
        for f in flat:
            if 0 <= f - centre - offset < grams.shape[1]:
                found[f] = grams[:, f - centre - offset]
    return np.stack([found[f] for f in flat], axis=1)


def check_tensor(data, c=1.0):
    return symbol_tensors(c * data.star_phi, data.metric)


def b1_tensor(data):
    return _symbol(np.eye(21), data.metric)


def reference_middle_rows(data):
    """A second construction of the middle rows T[j] = star(e^j ^ . ^ star_phi), on their own."""
    project = data.metric.hodge_matrix(6) @ wedge_matrix(data.star_phi, 2)
    return np.einsum("pa,jab->jpb", project, _coordinate_wedge(7, 1))


def reference_with_gauge_row(tensor, data):
    """Stack the coclosed row's tensor U = -G_1 under each tensor[j]."""
    return np.concatenate([tensor, -data.metric.gram_on_forms(1)[:, None, :]], axis=1)


def reference_gauge_row(data):
    """The coclosed row's tensor U from Hodge stars: d* = -star d star on one-forms.

    Row j is the coefficient map of -star(e^j ^ star alpha), read off the
    volume coefficient, so that dstar1(k) = i sum k_j U[j].
    """
    w6 = _coordinate_wedge(7, 6)
    h1 = data.metric.hodge_matrix(1)
    h7 = data.metric.hodge_matrix(7)
    return -float(h7[0, 0]) * np.einsum("jxa,ab->jxb", w6, h1)[:, 0, :]


def two_block_tensor():
    """Columns 0-2 on rows 0-4 and columns 3-6 on rows 5-7, random within the blocks.

    The 12 Gram entries across the blocks are zero at every mode, the 9 within
    them are not.  The second block has three rows for four columns, so every
    mode has a kernel.
    """
    rng = np.random.default_rng(149)
    tensor = np.zeros((7, 8, 7))
    tensor[:, :5, :3] = rng.standard_normal((7, 5, 3))
    tensor[:, 5:, 3:] = rng.standard_normal((7, 3, 4))
    return tensor


def zeroed_column_tensor(data):
    """The flat check tensor with column 2 of its middle rows zeroed and the gauge row kept."""
    tensor = check_tensor(data)
    tensor[:, :7, 2] = 0.0
    return tensor


@pytest.fixture(scope="module")
def tensors(G, perturbed):
    return {
        "known_kernel": _coordinate_wedge(7, 1),
        "flat_check": check_tensor(G),
        "flat_b1": b1_tensor(G),
        "flat_check_c-2": check_tensor(G, -2.0),
        "perturbed_check": check_tensor(perturbed),
        "perturbed_b1": b1_tensor(perturbed),
        "two_blocks": two_block_tensor(),
        "zeroed_column": zeroed_column_tensor(G),
    }


@pytest.fixture(scope="module")
def reference(tensors):
    """full_box_total of a named tensor at a cutoff, computed once per module."""
    counts = {}

    def count(name, cutoff):
        if (name, cutoff) not in counts:
            counts[name, cutoff] = full_box_total(tensors[name], cutoff)
        return counts[name, cutoff]
    return count


class TestModeBlock:
    def test_shapes(self):
        mb = mode_block((1, 0, 0, 0, 0, 0, 0))
        assert mb.d0.shape == (7,)
        assert mb.d1.shape == (21, 7)
        assert mb.d1_prime.shape == (7, 7)
        assert mb.dstar1.shape == (7,)
        assert mb.stacked.shape == (8, 7)

    def test_derivative_squares_to_zero(self):
        rng = np.random.default_rng(131)
        for _ in range(20):
            mb = mode_block(rng.integers(-4, 5, size=7))
            assert np.abs(mb.d1 @ mb.d0).max() == 0.0

    def test_mode_covector_in_kernel(self):
        rng = np.random.default_rng(132)
        for _ in range(20):
            k = rng.integers(-4, 5, size=7)
            mb = mode_block(k)
            assert np.abs(mb.d1_prime @ k.astype(float)).max() < 1e-12

    def test_gauge_row_is_minus_gram(self, G, perturbed):
        rng = np.random.default_rng(137)
        structures = [G, perturbed] + [
            g2_bundle(pullback(LinearMap(7, np.eye(7) + 0.3 * rng.standard_normal((7, 7))), G.phi))
            for _ in range(20)
        ]
        for data in structures:
            u = -data.metric.gram_on_forms(1)
            assert rel_residual(reference_gauge_row(data), u) <= 1e-14
            assert np.array_equal(b1_tensor(data)[:, -1, :], u)

    def test_symbol_matches_the_reference_construction(self, G, perturbed):
        rng = np.random.default_rng(144)
        structures = [(G, 1.0), (G, -2.0), (perturbed, 1.0)] + [
            (g2_bundle(pullback(LinearMap(7, np.eye(7) + 0.3 * rng.standard_normal((7, 7))),
                                G.phi)), 1.0)
            for _ in range(20)
        ]
        for data, c in structures:
            got = check_tensor(data, c)
            assert got.shape == (7, 8, 7)
            assert np.array_equal(got, reference_with_gauge_row(c * reference_middle_rows(data), data))
            assert np.array_equal(b1_tensor(data),
                                  reference_with_gauge_row(_coordinate_wedge(7, 1), data))

    def test_symbol_needs_a_four_form(self, G):
        with pytest.raises(ValueError, match="4-form on R\\^7"):
            symbol_tensors(G.phi, G.metric)

    def test_coclosed_row_golden(self):
        mb = mode_block((1, 0, 0, 0, 0, 0, 0))
        expected = np.zeros(7, dtype=complex)
        expected[0] = -1.0j
        assert np.allclose(mb.dstar1, expected, atol=1e-14)

    def test_middle_operator_column_golden(self, G):
        # For the first coordinate mode, the block column of e^1 is the
        # coefficient vector of star(e^01 ^ star_phi) times i.
        mb = mode_block((1, 0, 0, 0, 0, 0, 0))
        direct = hodge(wedge(KForm.monomial(7, (0, 1)), G.star_phi)).coeffs
        assert np.allclose(mb.d1_prime[:, 1], 1j * direct, atol=1e-14)

    def test_zero_mode_vanishes(self):
        mb = mode_block((0,) * 7)
        assert np.abs(mb.stacked).max() == 0.0

    def test_scale_factor_multiplies_middle_block(self):
        k = (2, -1, 0, 0, 3, 0, 0)
        base = mode_block(k, c=1.0)
        scaled = mode_block(k, c=-2.0)
        assert np.allclose(scaled.d1_prime, -2.0 * base.d1_prime, atol=1e-14)
        assert np.allclose(scaled.dstar1, base.dstar1, atol=1e-14)

    def test_nonzero_mode_has_trivial_stacked_kernel(self):
        mb = mode_block((1, 0, 0, 0, 0, 0, 0))
        assert np.linalg.matrix_rank(mb.stacked) == 7
        assert np.linalg.matrix_rank(mb.d1_prime) == 6

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            mode_block((1, 2, 3))

    @pytest.mark.parametrize("bad", [0.5, -2.25, np.nan, np.inf])
    def test_rejects_non_integer_mode(self, bad):
        # A block built at 0.5 used to be labelled k = 0, and its adjoint check read 0.0.
        k = (bad, 0, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError, match="finite integers"):
            mode_block(k)
        with pytest.raises(ValueError, match="finite integers"):
            adjoint_check(k)
        with pytest.raises(ValueError, match="finite integers"):
            adjoint_check([(0,) * 7, k])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "1", 1j, None])
    def test_rejects_bad_coupling_scale(self, bad):
        # A NaN scale used to build the whole symbol and fail in eigvalsh, and
        # "1" failed inside numpy.
        k = (1, 0, 0, 0, 0, 0, 0)
        for call in (lambda: harmonic_dim(1, c=bad), lambda: adjoint_check(k, c=bad),
                     lambda: adjoint_check([k, k], c=bad), lambda: mode_block(k, c=bad)):
            with pytest.raises(ValueError, match="coupling scale c must be a finite real"):
                call()

    def test_accepts_numpy_and_integer_coupling_scales(self):
        k = (2, -1, 0, 0, 3, 0, 0)
        want = mode_block(k, c=-2.0).d1_prime
        for c in (-2, np.float64(-2.0), np.int64(-2)):
            assert np.array_equal(mode_block(k, c=c).d1_prime, want)
            assert adjoint_check(k, c=c) == adjoint_check(k, c=-2.0)


class TestProjectionDiagram:
    def test_fourteen_part_drops_out(self, G):
        # Wedging with star_phi kills the 14-part, so projecting first
        # must not change the middle operator.
        rng = np.random.default_rng(133)
        for _ in range(10):
            beta = KForm(7, 2, rng.standard_normal(21))
            full = hodge(wedge(beta, G.star_phi))
            projected = hodge(wedge(KForm(7, 2, G.proj2_7 @ beta.coeffs), G.star_phi))
            assert rel_residual(full.coeffs, projected.coeffs) < 1e-12


class TestAdjoint:
    def test_flat_identities_are_exact(self):
        rng = np.random.default_rng(134)
        for _ in range(20):
            k = rng.integers(-4, 5, size=7)
            mb = mode_block(k)
            opp = mode_block(-k)
            assert rel_residual(mb.d1_prime.conj().T, mb.d1_prime) == 0.0
            assert rel_residual(mb.d1_prime.conj(), opp.d1_prime) == 0.0
            assert rel_residual(opp.d1_prime.T, mb.d1_prime) == 0.0

    def test_opposite_mode_repeats_the_first_identity(self, perturbed):
        # Why adjoint_check compares one pair: T is real and the block is odd
        # in k, so the reality identity is exact and the opposite-mode one
        # equals the first bit for bit, on any structure.
        rng = np.random.default_rng(139)
        g1 = perturbed.metric.gram_on_forms(1)
        for _ in range(20):
            k = rng.integers(-4, 5, size=7)
            block = mode_block(k, perturbed, -2.0).d1_prime
            opposite = mode_block(-k, perturbed, -2.0).d1_prime
            weighted = g1 @ block @ np.linalg.inv(g1)
            assert np.array_equal(block.conj(), opposite)
            assert rel_residual(opposite.T, weighted) == rel_residual(block.conj().T, weighted)
            assert rel_residual(block.conj().T, weighted) == adjoint_check(k, perturbed, -2.0)

    @pytest.mark.parametrize("c", [1.0, -2.0])
    @pytest.mark.parametrize("structure", ["G", "perturbed"])
    def test_stack_rows_equal_single_calls(self, request, structure, c):
        data = request.getfixturevalue(structure)
        modes = np.random.default_rng(146).integers(-4, 5, size=(100, 7))
        stacked = adjoint_check(modes, data, c)
        assert stacked.shape == (100,)
        single = [adjoint_check(tuple(int(v) for v in k), data, c) for k in modes]
        assert all(type(r) is float for r in single)
        assert np.array_equal(stacked, single)
        assert np.array_equal(adjoint_check(modes.reshape(10, 10, 7), data, c),
                              stacked.reshape(10, 10))
        assert adjoint_check(modes[:0], data, c).shape == (0,)

    @pytest.mark.parametrize("row", [0, 57, 99])
    def test_bad_row_anywhere_fails_the_stack(self, row):
        modes = np.random.default_rng(147).integers(-4, 5, size=(100, 7)).astype(float)
        modes[row, 3] = 0.5
        with pytest.raises(ValueError, match="finite integers, got .*0.5"):
            adjoint_check(modes)
        with pytest.raises(ValueError, match="seven components, got shape \\(100, 6\\)"):
            adjoint_check(modes[:, :6])

    def test_check_function_flat(self):
        rng = np.random.default_rng(135)
        for _ in range(20):
            assert adjoint_check(rng.integers(-4, 5, size=7)) < 1e-12

    def test_check_function_perturbed(self, perturbed):
        rng = np.random.default_rng(136)
        for _ in range(20):
            assert adjoint_check(rng.integers(-4, 5, size=7), perturbed) < 1e-10

    def test_wrong_metric_fails(self, G, perturbed, monkeypatch):
        # The middle operator is self-adjoint only for the metric its Hodge star uses.
        build = torus.symbol_tensors
        monkeypatch.setattr(torus, "symbol_tensors",
                            lambda psi, metric: build(psi, perturbed.metric))
        rng = np.random.default_rng(138)
        for _ in range(20):
            k = rng.integers(-4, 5, size=7)
            if k.any():
                assert adjoint_check(k, G) > 1e-3

    def test_nan_in_tensor_is_reported(self, G):
        k = (1, -2, 0, 3, 0, 0, 1)
        assert adjoint_check(k, G) < 1e-12
        psi = G.star_phi.coeffs.copy()
        psi[3] = np.nan
        broken = dataclasses.replace(G, star_phi=KForm(7, 4, psi))
        assert np.isnan(symbol_tensors(broken.star_phi, broken.metric)).any()
        assert np.isnan(adjoint_check(k, broken))


class TestDimensionCounts:
    def test_flat_box_one(self):
        summary = harmonic_dim(1)
        assert summary == CohomologySummary(1, 7, 0, 7)

    def test_flat_box_two(self):
        summary = harmonic_dim(2)
        assert (summary.dim_check_H1, summary.dim_H2, summary.b1) == (7, 0, 7)

    def test_betti_number(self):
        assert betti_one(1) == 7
        assert betti_one(2) == 7

    def test_scale_invariance(self):
        assert harmonic_dim(1, c=-2.0) == harmonic_dim(1, c=1.0)

    def test_perturbed_structure_keeps_dimensions(self, perturbed):
        summary = harmonic_dim(1, perturbed)
        assert (summary.dim_check_H1, summary.dim_H2, summary.b1) == (7, 0, 7)

    def test_b1_is_counted_once_per_structure_and_cutoff(self, monkeypatch):
        # One b1 sweep per structure and largest cutoff; smaller cutoffs are read from it.
        data = g2_bundle(standard_g2().phi)
        b1 = b1_tensor(data)
        swept = []

        def counting_shells(tensor, cutoff):
            if np.array_equal(tensor, b1):
                swept.append(cutoff)
            return shells(tensor, cutoff)

        shells = torus._kernel_shells
        monkeypatch.setattr(torus, "_kernel_shells", counting_shells)
        assert harmonic_dim(1, data) == CohomologySummary(1, 7, 0, 7)
        assert harmonic_dim(1, data, c=-2.0) == CohomologySummary(1, 7, 0, 7)
        assert swept == [1]
        assert harmonic_dims(2, data)[1:] == [CohomologySummary(1, 7, 0, 7), CohomologySummary(2, 7, 0, 7)]
        assert swept == [1, 2]
        assert harmonic_dim(0, data) == CohomologySummary(0, 7, 0, 7)
        assert harmonic_dim(2, data, c=3.0) == CohomologySummary(2, 7, 0, 7)
        assert swept == [1, 2]

    def test_chunking_does_not_change_counts(self, G, monkeypatch):
        tensor = check_tensor(G)
        count = _kernel_total(tensor, 1)
        monkeypatch.setattr(torus, "CHUNK", 100)
        assert count == _kernel_total(tensor, 1) == harmonic_dim(1).dim_check_H1

    def test_summary_serialises(self):
        payload = harmonic_dim(1).to_dict()
        assert payload == {"cutoff": 1, "dim_check_H1": 7, "dim_H2": 0, "b1": 7}

    def test_numpy_cutoff_is_stored_as_int(self):
        summary = harmonic_dim(np.int64(1))
        assert type(summary.cutoff) is int
        assert json.loads(json.dumps(summary.to_dict())) == harmonic_dim(1).to_dict()


class TestKernelCounter:
    @pytest.mark.parametrize("cutoff", [1, 2])
    def test_known_kernel_oracle(self, cutoff):
        # k ^ . on 1-forms is zero at k = 0 and has kernel span(k) at every
        # other mode, so the box holds 7 + (side^7 - 1) kernel dimensions.
        side = 2 * cutoff + 1
        assert _kernel_total(_coordinate_wedge(7, 1), cutoff) == 7 + side**7 - 1

    @pytest.mark.parametrize("chunk, cutoff", [(1, 1), (100, 1), (torus.CHUNK, 1), (torus.CHUNK, 2)])
    def test_known_kernel_shells(self, monkeypatch, chunk, cutoff):
        # Seven dimensions at the centre and one at each other mode, by shell max|k_i|: at
        # cutoff 2, [7, 3^7 - 1, 5^7 - 3^7].  Every mode is open, and at CHUNK 1 each is an
        # eigvalsh call of its own, so cutoff 2 runs at the default CHUNK alone.
        monkeypatch.setattr(torus, "CHUNK", chunk)
        want = [7] + [(2 * s + 1) ** 7 - (2 * s - 1) ** 7 for s in range(1, cutoff + 1)]
        assert _kernel_shells(_coordinate_wedge(7, 1), cutoff).tolist() == want

    @pytest.mark.parametrize("chunk", [1, 100, torus.CHUNK])
    def test_one_sweep_gives_every_smaller_box(self, G, perturbed, reference, monkeypatch, chunk):
        # A fresh cache, so that b1 is swept at this CHUNK too.
        monkeypatch.setattr(torus, "CHUNK", chunk)
        flat, moved = (dataclasses.replace(data, _cache={}) for data in (G, perturbed))
        for data, c, check, b1 in ((flat, 1.0, "flat_check", "flat_b1"),
                                   (flat, -2.0, "flat_check_c-2", "flat_b1"),
                                   (moved, 1.0, "perturbed_check", "perturbed_b1")):
            counts = [(reference(check, s), reference(b1, s)) for s in range(3)]
            assert harmonic_dims(2, data, c) == [CohomologySummary(s, h, h - b, b)
                                                 for s, (h, b) in enumerate(counts)]

    @pytest.mark.parametrize("chunk", [1, 100, torus.CHUNK])
    @pytest.mark.parametrize("cutoff", [1, 2])
    def test_partially_sparse_tensor_matches_full_box(self, tensors, reference, monkeypatch,
                                                      cutoff, chunk):
        # Only the entries within the two blocks are built; a wrongly dropped one would
        # change the kernel that every mode has.
        tensor = tensors["two_blocks"]
        assert len(kept_entries(tensor)) == 7 + 3 + 6
        monkeypatch.setattr(torus, "CHUNK", chunk)
        want = 7 + (2 * cutoff + 1) ** 7 - 1
        assert _kernel_total(tensor, cutoff) == reference("two_blocks", cutoff) == want

    @pytest.mark.parametrize("cutoff", [1, 2])
    def test_sparse_path_can_still_fail(self, tensors, reference, cutoff):
        # The flat check tensor with a defect: the counter still builds only some entries,
        # and the count rises above 7.
        assert len(kept_entries(tensors["zeroed_column"])) < 28
        count = _kernel_total(tensors["zeroed_column"], cutoff)
        assert count > 7
        assert count == reference("zeroed_column", cutoff)

    @pytest.mark.parametrize("chunk", [1, 100, 8192])
    @pytest.mark.parametrize("cutoff", [1, 2])
    def test_dimension_comes_from_the_tensor(self, monkeypatch, cutoff, chunk):
        # On R^4, k ^ . has kernel span(k) at every mode but the centre, and a
        # gauge row -1 removes it; a random tensor with more rows than columns
        # has a kernel at the centre alone.
        side = 2 * cutoff + 1
        known = _coordinate_wedge(4, 1)
        gauged = np.concatenate([known, -np.eye(4)[:, None, :]], axis=1)
        generic = np.random.default_rng(144).standard_normal((4, 5, 3))
        monkeypatch.setattr(torus, "CHUNK", chunk)
        for tensor, want in ((known, 4 + side**4 - 1), (gauged, 4), (generic, 3)):
            assert full_box_total(tensor, cutoff) == want
            assert _kernel_total(tensor, cutoff) == want

    def test_coordinate_wedge_slices(self):
        # The same matrices drive every exterior-power step, so every (n, g) is checked.
        rng = np.random.default_rng(140)
        for n in range(1, 9):
            for g in range(n):
                w = _coordinate_wedge(n, g)
                assert w.shape == (n, comb(n, g + 1), comb(n, g))
                assert not w.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    w[0, 0, 0] = 2.0
                beta = KForm(n, g, rng.standard_normal(comb(n, g)))
                for j in range(n):
                    want = wedge(KForm.monomial(n, (j,)), beta).coeffs
                    assert np.array_equal(w[j] @ beta.coeffs, want)


    @pytest.mark.parametrize("chunk", [1, 2, 100, 65536])
    @pytest.mark.parametrize("name, cutoff", [
        ("known_kernel", 1), ("known_kernel", 2),
        ("flat_check", 1), ("flat_check", 2),
        ("flat_b1", 1), ("flat_b1", 2),
        ("flat_check_c-2", 1),
        ("perturbed_check", 1), ("perturbed_b1", 1),
    ])
    def test_half_box_matches_full_box(self, tensors, reference, monkeypatch, name, cutoff, chunk):
        # Chunks of 1 and 2 make every coordinate a head coordinate, so a
        # block holds one or two modes and the centre (k = 0) is a block of
        # its own; the reference walks the whole box.
        monkeypatch.setattr(torus, "CHUNK", chunk)
        assert _kernel_total(tensors[name], cutoff) == reference(name, cutoff)

    @pytest.mark.parametrize("m", range(8))
    @pytest.mark.parametrize("name", ["known_kernel", "flat_check", "flat_b1", "flat_check_c-2",
                                      "perturbed_check", "perturbed_b1"])
    def test_every_split_matches_full_box(self, tensors, reference, monkeypatch, name, m):
        # CHUNK = side^m puts exactly the last m coordinates in the tail.
        monkeypatch.setattr(torus, "CHUNK", 3**m)
        assert len(list(half_box_blocks(tensors[name], 1))) == 3 ** (7 - m) // 2 + 1
        assert _kernel_total(tensors[name], 1) == reference(name, 1)

    @pytest.mark.parametrize("m", range(5))
    @pytest.mark.parametrize("cutoff", [1, 2])
    def test_every_split_matches_full_box_in_four_dimensions(self, monkeypatch, cutoff, m):
        side = 2 * cutoff + 1
        known = _coordinate_wedge(4, 1)
        gauged = np.concatenate([known, -np.eye(4)[:, None, :]], axis=1)
        generic = np.random.default_rng(144).standard_normal((4, 5, 3))
        monkeypatch.setattr(torus, "CHUNK", side**m)
        for tensor in (known, gauged, generic):
            assert len(list(half_box_blocks(tensor, cutoff))) == side ** (4 - m) // 2 + 1
            assert _kernel_total(tensor, cutoff) == full_box_total(tensor, cutoff)

    @pytest.mark.parametrize("cutoff", range(5))
    @pytest.mark.parametrize("d", [4, 7])
    def test_blocks_fit_the_chunk_and_tile_the_half_box(self, d, cutoff):
        # The memory bound that the CHUNK comment promises, at the default CHUNK.
        tensor = np.random.default_rng(148).standard_normal((d, d + 1, d))
        covered = 0
        for offset, grams in half_box_blocks(tensor, cutoff):
            assert grams.shape == ((d * (d + 1)) // 2, grams.shape[1])
            assert 0 < grams.shape[1] <= torus.CHUNK
            assert offset == covered
            covered += grams.shape[1]
        assert covered == (2 * cutoff + 1) ** d // 2 + 1

    @pytest.mark.parametrize("cutoff", [-1, 1.5, None])
    def test_rejects_bad_box(self, cutoff):
        # At the old counter these returned 0 (an empty box) instead of failing.
        with pytest.raises(ValueError, match="cutoff"):
            _kernel_total(_coordinate_wedge(7, 1), cutoff)
        with pytest.raises(ValueError, match="cutoff"):
            harmonic_dim(cutoff)
        with pytest.raises(ValueError, match="cutoff"):
            betti_one(cutoff)


class TestGramForm:
    @pytest.fixture(scope="class")
    def modes(self):
        return np.random.default_rng(141).integers(-4, 5, size=(200, 7))

    @pytest.mark.parametrize("name", ["flat_check", "perturbed_check", "flat_b1"])
    def test_even_in_k(self, tensors, modes, name):
        q = _gram_form(tensors[name])
        assert np.array_equal(_mode_grams(q, -modes.T), _mode_grams(q, modes.T))

    @pytest.mark.parametrize("structure", ["G", "perturbed"])
    def test_matches_direct_gram(self, request, modes, structure):
        data = request.getfixturevalue(structure)
        grams = _mode_grams(_gram_form(check_tensor(data)), modes.T)
        assert grams.shape == (28, len(modes))
        for k, gram in zip(modes, unpack(grams, 7, np.arange(28))):
            s = mode_block(k, data).stacked
            assert rel_residual(gram, (s.conj().T @ s).real) <= 1e-13

    @pytest.mark.parametrize("structure", ["G", "perturbed"])
    def test_split_grams_match_direct_gram(self, request, structure):
        # The whole cutoff-1 box sits in the tail table; at cutoff 4 the head
        # is the first three coordinates.  On the perturbed structure, where
        # q[j, l] for j != l is nonzero, modes with a nonzero head and tail
        # fail if the cross term is dropped.  The Gram is even in k, so a
        # mode before the centre is read at -k.
        data = request.getfixturevalue(structure)
        tensor = check_tensor(data)
        rng = np.random.default_rng(145)
        drawn = rng.integers(-4, 5, size=(2000, 7))
        drawn = drawn[drawn[:, :3].any(axis=1) & drawn[:, 3:].any(axis=1)][:200]
        assert len(drawn) == 200
        box = np.stack(np.unravel_index(np.arange(3**7), (3,) * 7), axis=1) - 1
        for cutoff, modes in ((1, box), (4, drawn)):
            side = 2 * cutoff + 1
            flat = np.ravel_multi_index(tuple((modes + cutoff).T), (side,) * 7)
            half = np.where(flat >= side**7 // 2, flat, side**7 - 1 - flat)
            grams = unpack(half_box_columns(tensor, cutoff, half.tolist()), 7, kept_entries(tensor))
            for k, gram in zip(modes, grams):
                s = mode_block(k, data).stacked
                assert rel_residual(gram, (s.conj().T @ s).real) <= 1e-13


def near_threshold_tensor(ratio, diagonal):
    """A random tensor whose Gram at k = e_1 has lambda_min / lambda_max = ratio * rtol^2.

    Column 0 is scaled to reach the ratio.  A dense tensor's Grams are far
    from diagonal, so Gershgorin's bounds are loose and the screen leaves its
    modes open.  With column c on row c alone the Gram is diagonal at every
    mode, the bounds are the extreme eigenvalues, and the screen settles the
    modes above 2 rtol^2 but must leave those at or below rtol^2 open.
    """
    tensor = np.random.default_rng(142).standard_normal((7, 8, 7))
    if diagonal:
        tensor[:, :7] *= np.eye(7)
        tensor[:, 7] = 0.0
    scale = 1.0
    for _ in range(6):
        tensor[:, :, 0] *= scale
        eigs = np.linalg.eigvalsh(tensor[0].T @ tensor[0])
        scale = np.sqrt(ratio * KERNEL_RTOL**2 * eigs[-1] / eigs[0])
    return tensor


def hits(grams):
    """eigvalsh's kernel count of each Gram in a stack (n, 7, 7), as the counter takes it."""
    eigs = np.linalg.eigvalsh(grams)
    return np.sum(eigs <= KERNEL_RTOL**2 * eigs[:, -1:], axis=1)


class TestScreen:
    @pytest.mark.parametrize("diagonal", [False, True])
    @pytest.mark.parametrize("ratio", [0.5, 1.5, 3.0])
    @pytest.mark.parametrize("cutoff", [1, 2])
    def test_near_threshold_counts_match_full_box(self, ratio, diagonal, cutoff):
        tensor = near_threshold_tensor(ratio, diagonal)
        eigs = np.linalg.eigvalsh(tensor[0].T @ tensor[0])
        assert eigs[0] / eigs[-1] == pytest.approx(ratio * KERNEL_RTOL**2, rel=1e-6)
        assert _kernel_total(tensor, cutoff) == full_box_total(tensor, cutoff)

    def test_diagonal_tensors_put_modes_on_both_sides_of_the_screen(self):
        # Without this the near-threshold counts would not reach the screen's boundary.
        side = 5
        modes = np.array(np.unravel_index(np.arange(side**7), (side,) * 7)) - 2
        for ratio in (0.5, 1.5, 3.0):
            grams = _mode_grams(_gram_form(near_threshold_tensor(ratio, True)), modes)
            open_ = _screen_open(grams, _packing(7)[3])
            counted = hits(unpack(grams, 7, np.arange(28))) > 0
            # The off-diagonal entries are zero, and screening the diagonal alone agrees.
            assert not grams[7:].any()
            assert np.array_equal(_screen_open(grams[:7], _packing(7)[3][:, :0]), open_)
            assert 0 < counted.sum() < open_.sum() < len(open_)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           rank=st.integers(0, 7),
           tilt=st.sampled_from([0.0, 1e-14, 1e-13, 1e-6, 1.0]),
           ratio=st.floats(0.05, 5.0))
    def test_settled_rows_have_no_kernel(self, seed, rank, tilt, ratio):
        # PSD Grams with eigenvalues 1, a near-threshold ratio * rtol^2 and
        # 7 - rank zeros, in a basis tilted from the axes by up to `tilt`.
        # Only a tilt below rtol^2 lets the screen settle a near-threshold row.
        rng = np.random.default_rng(seed)
        n = 64
        values = rng.uniform(0.1, 1.0, size=(n, 7))
        values[:, 0] = 1.0
        values[:, 1] = ratio * KERNEL_RTOL**2
        values[:, rank:] = 0.0
        values *= 10.0 ** rng.uniform(-3, 3, size=(n, 1))
        basis = np.linalg.qr(np.eye(7) + tilt * rng.standard_normal((n, 7, 7)))[0]
        grams = (basis * values[:, None, :]) @ basis.swapaxes(1, 2)
        grams = (grams + grams.swapaxes(1, 2)) / 2
        settled = ~_screen_open(pack(grams), _packing(7)[3])
        assert np.all(hits(grams)[settled] == 0)

    @pytest.mark.parametrize("j", [0, 6], ids=["head", "tail"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("cutoff", [0, 1])
    def test_non_finite_tensor_still_fails(self, monkeypatch, bad, cutoff, j):
        # With CHUNK = 3^6 the cutoff-1 box has coordinate 0 alone in the
        # head, so the bad entry reaches the per-prefix term at j = 0 and the
        # tail table at j = 6.  At cutoff 0 every coordinate is in the tail.
        monkeypatch.setattr(torus, "CHUNK", 3**6)
        tensor = np.random.default_rng(143).standard_normal((7, 8, 7))
        tensor[j, 3, 4] = bad
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
            _kernel_total(tensor, cutoff)

    @pytest.mark.parametrize("j", [0, 6], ids=["head", "tail"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("cutoff", [0, 1])
    def test_non_finite_flat_tensor_still_fails(self, tensors, monkeypatch, bad, cutoff, j):
        # The flat check tensor builds the Gram diagonal alone.  A bad value where the tensor
        # is zero makes off-diagonal columns of the Gram table non-finite, so they are built
        # and the failure reaches eigvalsh, in the head and in the tail.
        monkeypatch.setattr(torus, "CHUNK", 3**6)
        tensor = tensors["flat_check"].copy()
        row, col = np.argwhere(tensor[j] == 0)[0]
        tensor[j, row, col] = bad
        assert len(kept_entries(tensor)) > 7
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
            _kernel_total(tensor, cutoff)

    def test_non_finite_columns_are_kept(self):
        q = np.zeros((28, 28))
        q[3, 10], q[27, 20], q[0, 12] = np.nan, -np.inf, 1e-300
        assert _kept_entries(q, 7).tolist() == [0, 1, 2, 3, 4, 5, 6, 10, 12, 20]

    @pytest.mark.parametrize("name, entries", [
        ("flat_check", 7), ("flat_b1", 7), ("flat_check_c-2", 28),
        ("perturbed_check", 28), ("perturbed_b1", 28),
    ])
    def test_flat_sweeps_build_the_diagonal_alone(self, tensors, monkeypatch, name, entries):
        # Guards the speed of the flat sweeps: S^T S = |k|^2 I there, so the 21 off-diagonal
        # entries are zero at every mode and are neither built nor screened.  If structural
        # zeros stopped being found, this would fail instead of the sweep slowing quietly.
        seen = set()
        unpatched = torus._screen_open

        def recording_screen(grams, incidence):
            seen.add((len(grams), incidence.shape))
            return unpatched(grams, incidence)

        monkeypatch.setattr(torus, "_screen_open", recording_screen)
        _kernel_total(tensors[name], 1)
        assert seen == {(entries, (7, entries - 7))}

    @pytest.mark.parametrize("name", ["flat_check", "flat_b1"])
    def test_screen_settles_every_nonzero_flat_mode(self, tensors, monkeypatch, name):
        # Guards the speed of the counter at the default CHUNK: if the screen
        # stopped settling modes, eigvalsh would see the whole half box and
        # this would fail.
        solved = []
        unpatched = np.linalg.eigvalsh

        def counting_eigvalsh(grams):
            solved.append(len(grams))
            return unpatched(grams)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        for cutoff in (2, 3):
            solved.clear()
            assert _kernel_total(tensors[name], cutoff) == 7
            assert sum(solved) <= 1

    def test_trace_bound_keeps_degenerate_columns_open(self):
        # Columns the trace bound must not settle: an indefinite Gram with
        # negative trace, a negative definite one, zero, and NaN and inf
        # entries; the identity is settled, so the screen is not simply off.
        indefinite = np.diag([1.0, -3.0, 0.5, 0.0, 0.0, 0.0, 0.0])
        indefinite[0, 1] = indefinite[1, 0] = 1e-3
        columns = [indefinite, -np.eye(7), np.zeros((7, 7))]
        for bad, (a, b) in itertools.product([np.nan, np.inf, -np.inf], [(2, 2), (0, 5)]):
            gram = np.eye(7)
            gram[a, b] = gram[b, a] = bad
            columns.append(gram)
        columns.append(np.eye(7))
        assert np.trace(indefinite) < 0
        with np.errstate(invalid="ignore"):
            open_ = _screen_open(pack(np.stack(columns)), _packing(7)[3])
        assert open_.tolist() == [True] * (len(columns) - 1) + [False]
