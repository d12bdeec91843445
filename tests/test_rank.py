import contextlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incompat.deficiency
import incompat.support
from bruteforce import svd_batch_ranks
from incompat import (
    DegenerateWitnessError,
    NoKernelError,
    NonFiniteEntryError,
    SubmatrixSelector,
    bronzan_rotation,
    deficiency_profile,
    dft_matrix,
    extract_submatrix,
    from_array,
    identity,
    kernel_witness,
    min_support_uncertainty,
    numerical_rank,
    qubit_rotation,
    random_unitary,
    tau_fast,
)
from incompat.rank import (
    CERT_MARGIN,
    FRAGILE_GAP_RATIO,
    _certified_full_rank,
    batch_ranks,
    rank_threshold,
)


class TestExtractSubmatrix:
    def test_identity_pattern(self):
        sub = extract_submatrix(identity(6).matrix, SubmatrixSelector((0, 2), (1, 2, 3)))
        assert np.array_equal(sub, [[0, 0, 0], [0, 1, 0]])

    def test_full_selection_is_the_matrix(self):
        m = random_unitary(4, 2).matrix
        sub = extract_submatrix(m, SubmatrixSelector(tuple(range(4)), tuple(range(4))))
        assert np.array_equal(sub, m)

    def test_singleton(self):
        m = dft_matrix(3).matrix
        sub = extract_submatrix(m, SubmatrixSelector((1,), (2,)))
        assert sub.shape == (1, 1) and sub[0, 0] == m[1, 2]

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            extract_submatrix(np.eye(3), SubmatrixSelector((0, 3), (0,)))


class TestNumericalRank:
    def test_identity_full_rank(self):
        assert numerical_rank(np.eye(3)).rank == 3

    def test_zero_matrix_rank_zero(self):
        result = numerical_rank(np.zeros((2, 4)))
        assert result.rank == 0
        assert result.gap_ratio == 0.0

    def test_structural_zero_entry_of_bronzan(self):
        sub = extract_submatrix(bronzan_rotation(0.7, 0.3).matrix, SubmatrixSelector((2,), (1,)))
        assert numerical_rank(sub).rank == 0

    def test_parent_scale_decides_roundoff_zero(self):
        # cos(pi/2) is ~6e-17, nonzero in floating point; relative to the
        # submatrix alone it looks rank 1, at the parent unitary's scale it
        # is rank 0.
        tiny = np.array([[math.cos(math.pi / 2)]])
        assert numerical_rank(tiny).rank == 1
        assert numerical_rank(tiny, scale=1.0).rank == 0

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteEntryError):
            numerical_rank(np.array([[np.nan]]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            numerical_rank(np.zeros((0, 3)))

    def test_gap_invariants(self):
        m = np.diag([1.0, 1e-14]).astype(complex)
        result = numerical_rank(m, scale=1.0)
        assert result.rank == 1
        assert result.smallest_kept_sv >= result.largest_dropped_sv
        assert result.gap_ratio == pytest.approx(1e-14)
        assert not result.fragile


def _random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestRankInvariances:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(2, 5))
    @settings(max_examples=40)
    def test_permutation_and_phase_invariance(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        m = _random_complex(rng, rows, cols)
        base = numerical_rank(m).rank
        row_perm = rng.permutation(rows)
        col_perm = rng.permutation(cols)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, rows))[:, None]
        assert numerical_rank(m[row_perm]).rank == base
        assert numerical_rank(m[:, col_perm]).rank == base
        assert numerical_rank(m * phases).rank == base

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_transpose_and_conjugate_invariance(self, seed):
        rng = np.random.default_rng(seed)
        m = _random_complex(rng, 3, 5)
        m[2] = m[0] * (1 + 2j)  # force deficiency so the decision is nontrivial
        base = numerical_rank(m).rank
        assert numerical_rank(m.T).rank == base
        assert numerical_rank(m.conj()).rank == base

    @pytest.mark.parametrize("seed", [3, 14, 159])
    def test_generic_square_submatrices_are_clean(self, seed):
        # On Haar unitaries every square submatrix rank decision has a
        # spectral gap far below the fragility threshold.
        import itertools

        tm = random_unitary(4, seed)
        for m in range(1, 5):
            for rows in itertools.combinations(range(4), m):
                for cols in itertools.combinations(range(4), m):
                    sub = tm.matrix[np.ix_(rows, cols)]
                    result = numerical_rank(sub, scale=1.0)
                    assert result.gap_ratio < 1e-6
                    assert result.gap_ratio < FRAGILE_GAP_RATIO


class TestKernelWitness:
    def test_zero_submatrix_left_kernel(self):
        sel = SubmatrixSelector((0, 1), (2, 3, 4, 5))
        w = kernel_witness(identity(6).matrix, "left", sel)
        assert w.side == "left"
        assert len(w.coefficients) == 2
        assert np.isclose(np.linalg.norm(w.coefficients), 1.0)
        assert w.residual <= 1e-9

    def test_rank_one_square_right_kernel(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        w = kernel_witness(m, "right", SubmatrixSelector((0, 1), (0, 1)))
        # (1, -1)/sqrt(2) up to a global phase
        assert np.allclose(np.abs(w.coefficients), 1 / math.sqrt(2))
        assert np.isclose(w.coefficients[0], -w.coefficients[1])
        pivot = w.coefficients[np.argmax(np.abs(w.coefficients))]
        assert pivot.real > 0 and abs(pivot.imag) < 1e-15
        assert w.all_nonzero
        assert w.residual <= 1e-9

    def test_left_residual_uses_plain_transpose(self):
        # Kernel of a complex rank-deficient stack: z^T S must vanish without
        # conjugation.
        s = np.array([[1.0, 1j], [2.0, 2j]])
        w = kernel_witness(s, "left", SubmatrixSelector((0, 1), (0, 1)))
        assert np.linalg.norm(w.coefficients @ s) <= 1e-9

    def test_full_rank_raises(self):
        with pytest.raises(NoKernelError):
            kernel_witness(identity(3).matrix, "left", SubmatrixSelector((0, 1), (0, 1, 2)))

    def test_phase_normalization_deterministic(self):
        m = dft_matrix(6).matrix
        sel = SubmatrixSelector((0, 3), (0, 2, 4))
        w1 = kernel_witness(m, "left", sel, scale=1.0)
        w2 = kernel_witness(m, "left", sel, scale=1.0)
        assert np.array_equal(w1.coefficients, w2.coefficients)
        pivot = w1.coefficients[np.argmax(np.abs(w1.coefficients))]
        assert pivot.imag == pytest.approx(0.0, abs=1e-15)
        assert pivot.real > 0

    def test_invalid_side_rejected(self):
        with pytest.raises(ValueError):
            kernel_witness(np.eye(2), "up", SubmatrixSelector((0,), (0,)))


def _batch(blocks):
    """Lay blocks of one shape side by side: a[:, col_sets[i]] is blocks[i]."""
    rows, cols = blocks[0].shape
    a = np.concatenate(blocks, axis=1)
    return a, tuple(range(rows)), np.arange(len(blocks) * cols).reshape(len(blocks), cols)


def _block(rng, rows, cols, sigmas):
    """U diag(sigmas) V^H with Haar-like U, V: singular values exactly sigmas."""
    u, _ = np.linalg.qr(_random_complex(rng, rows, rows))
    v, _ = np.linalg.qr(_random_complex(rng, cols, cols))
    s = np.zeros((rows, cols))
    s[np.arange(len(sigmas)), np.arange(len(sigmas))] = sigmas
    return u @ s @ v.conj().T


SHAPES = {
    "wide": [(k, k + 1 + k % 3) for k in range(1, 7)],
    "tall": [(k + 1 + k % 3, k) for k in range(1, 7)],
    "square": [(k, k) for k in range(1, 7)],
}


class TestCertifiedBatchRanks:
    """batch_ranks must return exactly what the SVD-only step returns."""

    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-6, 1e-2])
    @pytest.mark.parametrize("kind", sorted(SHAPES))
    def test_matches_svd_across_the_margin(self, rank_tol, kind):
        rng = np.random.default_rng(0)
        certified = uncertified = 0
        for rows, cols in SHAPES[kind]:
            k = min(rows, cols)
            threshold = rank_threshold((rows, cols), rank_tol, 1.0)
            blocks, smallest = [], []
            for factor in (0.5, 2, 1e3, 1e4, 1e5, 1e6):
                low = factor * threshold
                for top in (1.0, 1e3):
                    high = max(top, low)
                    # A flat spectrum (the others all at the top) and a spread one.
                    for others in (np.full(k - 1, high), rng.uniform(low, high, k - 1)):
                        blocks.append(_block(rng, rows, cols, np.append(others, low)))
                        smallest.append(low)
            a, sel, col_sets = _batch(blocks)
            got = batch_ranks(a, sel, col_sets, threshold)
            want = svd_batch_ranks(a, sel, col_sets, threshold)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            cert = _certified_full_rank(a[np.asarray(sel)], col_sets, threshold)
            # Sound: never certified unless sigma_min is beyond the margin.
            assert not cert[np.array(smallest) <= CERT_MARGIN * threshold].any()
            certified += int(cert.sum())
            uncertified += int((~cert).sum())
        assert certified > 0 and uncertified > 0

    @pytest.mark.parametrize("rows,cols", [(1, 1), (2, 5), (5, 2), (4, 4)])
    def test_zero_blocks(self, rows, cols):
        rng = np.random.default_rng(rows * 10 + cols)
        k = min(rows, cols)
        zero = np.zeros((rows, cols), dtype=complex)
        full = _block(rng, rows, cols, np.ones(k))
        threshold = rank_threshold((rows, cols), 1e-10, 1.0)
        for blocks in ([zero] * 4, [zero, full, zero, full]):
            a, sel, col_sets = _batch(blocks)
            got = batch_ranks(a, sel, col_sets, threshold)
            want = svd_batch_ranks(a, sel, col_sets, threshold)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert list(got[0]) == [0, k, 0, k]

    @pytest.mark.parametrize("rank_tol", [1e-10, 0.0])
    @pytest.mark.parametrize("rows,cols", [(1, 1), (2, 2), (2, 3), (3, 2)])
    def test_tiny_and_huge_entries(self, rank_tol, rows, cols):
        # Squared entries near or below the smallest normal float, or above the
        # largest one, must leave the decision to the SVD.
        rng = np.random.default_rng(rows * 10 + cols)
        k = min(rows, cols)
        threshold = rank_threshold((rows, cols), rank_tol, 1.0)
        for scale in (1e-200, 1e-162, 1e-160, 1e-155, 1e-154, 1e-150, 1e150, 1e154, 1e160):
            blocks = [
                scale * _block(rng, rows, cols, np.ones(k)),
                scale * _block(rng, rows, cols, np.geomspace(1.0, 0.1, k)),
                _block(rng, rows, cols, np.ones(k)),
            ]
            a, sel, col_sets = _batch(blocks)
            got = batch_ranks(a, sel, col_sets, threshold)
            want = svd_batch_ranks(a, sel, col_sets, threshold)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_huge_threshold_certifies_nothing(self):
        a, sel, col_sets = _batch([np.eye(3, dtype=complex)] * 2)
        assert not _certified_full_rank(a, col_sets, 1e200).any()
        assert list(batch_ranks(a, sel, col_sets, 1e200)[0]) == [0, 0]


def _perturbed_dft(d, eps, seed):
    """DFT(d) exp(i eps H) for a seeded Hermitian H."""
    rng = np.random.default_rng(seed)
    x = _random_complex(rng, d, d)
    w, v = np.linalg.eigh((x + x.conj().T) / 2)
    return from_array(dft_matrix(d).matrix @ (v * np.exp(1j * eps * w)) @ v.conj().T)


SEARCH_CORPUS = (
    [identity(d) for d in range(1, 8)]
    + [dft_matrix(d) for d in range(1, 8)]
    + [
        bronzan_rotation(t1, t2)
        for t1, t2 in itertools.product(np.linspace(0, math.pi / 2, 4), repeat=2)
    ]
    + [random_unitary(d, seed) for d in range(2, 7) for seed in (0, 1)]
    + [_perturbed_dft(6, eps, 0) for eps in (1e-12, 1e-10, 1e-9, 1e-8)]
    + [qubit_rotation(theta) for theta in (1e-160, 1e-155, 1e-300)]
)


class TestCertifiedSearches:
    def test_every_batch_matches_svd(self, monkeypatch):
        batches = []

        def checked(a, rows, col_sets, threshold):
            got = batch_ranks(a, rows, col_sets, threshold)
            want = svd_batch_ranks(a, rows, col_sets, threshold)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            batches.append(len(col_sets))
            return got

        monkeypatch.setattr(incompat.deficiency, "batch_ranks", checked)
        monkeypatch.setattr(incompat.support, "batch_ranks", checked)
        for tm in SEARCH_CORPUS:
            deficiency_profile(tm)
            tau_fast(tm)
            with contextlib.suppress(DegenerateWitnessError):
                min_support_uncertainty(tm)
        assert len(batches) > 1000
