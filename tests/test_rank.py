import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incompat.deficiency
import incompat.rank
import incompat.support
from bruteforce import svd_batch_ranks
from incompat import (
    DegenerateWitnessError,
    NoKernelError,
    NonFiniteEntryError,
    SubmatrixSelector,
    analyze_transition,
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
    r_col,
    r_row,
    random_unitary,
    tau_fast,
)
from incompat.rank import (
    DEFAULT_ZERO_THRESHOLD,
    FRAGILE_GAP_RATIO,
    GRAM_MIN_BLOCKS,
    TABLE_CACHE_ENTRIES,
    _certified_full_rank,
    _drop_ranks,
    _minor_bounds,
    _square_minors,
    batch_ranks,
    lex_sets,
    rank_threshold,
    squares_full_rank,
    strong_minors,
    subset_covers,
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
        assert np.abs(w.coefficients).min() > DEFAULT_ZERO_THRESHOLD
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


def _grid(a, row_sets, col_sets, threshold):
    """batch_ranks with its batches stacked back into the full (ranks, gaps) grid."""
    _, ranks, gaps = zip(*batch_ranks(a, row_sets, col_sets, threshold))
    return np.concatenate(ranks), np.concatenate(gaps)


def _batch(blocks):
    """Lay blocks of one shape side by side: a[row_sets[0], col_sets[i]] is blocks[i]."""
    rows, cols = blocks[0].shape
    a = np.concatenate(blocks, axis=1)
    return a, np.arange(rows)[None, :], np.arange(len(blocks) * cols).reshape(len(blocks), cols)


def _at_gate(blocks):
    """blocks repeated up to at least GRAM_MIN_BLOCKS, so that a grid of them
    reaches the Gram certificate."""
    return blocks * -(-GRAM_MIN_BLOCKS // len(blocks))


def _gathered(a, row_sets, col_sets):
    """The grid's blocks as batch_ranks gathers a slice: [i, j] is
    a[row_sets[i], col_sets[j]]."""
    return a[row_sets[:, None, :, None], col_sets[None, :, None, :]]


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
            for factor in (0.5, 1 + 1e-6, 1.01, 1.5, 2, 1e3, 1e4, 1e5, 1e6):
                low = factor * threshold
                for top in (1.0, 1e3):
                    high = max(top, low)
                    # A flat spectrum (the others all at the top) and a spread one.
                    for others in (np.full(k - 1, high), rng.uniform(low, high, k - 1)):
                        blocks.append(_block(rng, rows, cols, np.append(others, low)))
                        smallest.append(low)
            a, sel, col_sets = _batch(blocks)
            got = _grid(a, sel, col_sets, threshold)
            want = svd_batch_ranks(a, sel, col_sets, threshold)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            cert = _certified_full_rank(_gathered(a, sel, col_sets), threshold)[0]
            # Sound: never certified at or below the threshold.
            assert not cert[np.array(smallest) <= threshold].any()
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
        for blocks in (_at_gate([zero] * 4), _at_gate([zero, full, zero, full])):
            a, sel, col_sets = _batch(blocks)
            got = _grid(a, sel, col_sets, threshold)
            want = svd_batch_ranks(a, sel, col_sets, threshold)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert list(got[0][0]) == [0, k, 0, k] * (len(blocks) // 4)
        # The full blocks are certified, the zero ones left to the SVD.
        cert = _certified_full_rank(_gathered(a, sel, col_sets), threshold)[0]
        assert list(cert) == [False, True] * (len(blocks) // 2)

    @pytest.mark.parametrize("rank_tol", [1e-10, 0.0])
    @pytest.mark.parametrize("rows,cols", [(1, 1), (2, 2), (2, 3), (3, 2)])
    def test_tiny_and_huge_entries(self, rank_tol, rows, cols):
        # Squared entries near or below the smallest normal float, or above the
        # largest one, must leave the decision to the SVD.
        rng = np.random.default_rng(rows * 10 + cols)
        k = min(rows, cols)
        threshold = rank_threshold((rows, cols), rank_tol, 1.0)
        for scale in (1e-200, 1e-162, 1e-160, 1e-155, 1e-154, 1e-150, 1e150, 1e154, 1e160):
            blocks = _at_gate([
                scale * _block(rng, rows, cols, np.ones(k)),
                scale * _block(rng, rows, cols, np.geomspace(1.0, 0.1, k)),
                _block(rng, rows, cols, np.ones(k)),
            ])
            a, sel, col_sets = _batch(blocks)
            got = _grid(a, sel, col_sets, threshold)
            want = svd_batch_ranks(a, sel, col_sets, threshold)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            # The scaled blocks leave the unscaled ones as they are alone.
            assert _certified_full_rank(_gathered(a, sel, col_sets), threshold)[0, 2::3].all()

    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-2])
    @pytest.mark.parametrize("kind", sorted(SHAPES))
    def test_conjugate_transposes_certify_alike(self, rank_tol, kind):
        # S S^H for a wide block is S^H S for its conjugate transpose: one
        # Gram product serves both shapes, so the verdicts are the same.
        rng = np.random.default_rng(1)
        certified = uncertified = 0
        for rows, cols in SHAPES[kind]:
            k = min(rows, cols)
            threshold = rank_threshold((rows, cols), rank_tol, 1.0)
            blocks = np.stack(_at_gate([
                _block(rng, rows, cols, np.append(rng.uniform(low, 1.0, k - 1), low))
                for low in threshold * np.array([0.5, 1 + 1e-6, 1.01, 2, 1e3, 1e5])
                if low < 1
            ]))[None]
            cert = _certified_full_rank(blocks, threshold)
            adjoint = np.ascontiguousarray(blocks.conj().swapaxes(-1, -2))
            assert np.array_equal(_certified_full_rank(adjoint, threshold), cert)
            certified += int(cert.sum())
            uncertified += int((~cert).sum())
        assert certified > 0 and uncertified > 0

    @pytest.mark.parametrize("rows,cols", [(2, 5), (5, 2), (3, 3)], ids=["wide", "tall", "square"])
    def test_bad_blocks_leave_the_others_alone(self, rows, cols):
        # Blocks near or past overflow or underflow, or with a NaN or an
        # infinite entry, sit between well-scaled ones. Each block of the
        # slice gets the verdict it gets in a slice of its own copies; at
        # threshold 0 the well-scaled ones and those scaled within the guard
        # are certified, the rest left to the SVD.
        rng = np.random.default_rng(rows * 10 + cols)
        k = min(rows, cols)
        threshold = 0.0
        unit = [_block(rng, rows, cols, np.geomspace(1.0, low, k)) for low in (1.0, 0.5, 0.1)]
        within = [scale * x for scale in (1e-150, 1e150) for x in unit]
        beyond = [scale * unit[0] for scale in (1e-200, 1e-162, 1e-155, 1e154, 1e160, 1e300)]
        for entry in (np.nan, np.inf):
            beyond.append(unit[1].copy())
            beyond[-1][0, -1] = entry
        beyond.append(np.zeros((rows, cols), dtype=complex))
        blocks = np.stack(unit * 3 + beyond + within + beyond[::-1] + unit)[None]
        want = [True] * 9 + [False] * len(beyond) + [True] * 6 + [False] * len(beyond) + [True] * 3
        cert = _certified_full_rank(blocks, threshold)[0]
        assert cert.tolist() == want
        for block, verdict in zip(blocks[0], cert):
            copies = np.broadcast_to(block, (1, GRAM_MIN_BLOCKS) + block.shape)
            assert (_certified_full_rank(copies, threshold) == verdict).all()

    def test_huge_threshold_certifies_nothing(self):
        a, sel, col_sets = _batch(_at_gate([np.eye(3, dtype=complex)] * 2))
        assert not _certified_full_rank(_gathered(a, sel, col_sets), 1e200).any()
        assert list(_grid(a, sel, col_sets, 1e200)[0][0]) == [0] * len(col_sets)

    @pytest.mark.parametrize("n", [GRAM_MIN_BLOCKS - 1, GRAM_MIN_BLOCKS])
    def test_small_slices_skip_the_gram_certificate(self, n, monkeypatch):
        # A slice of fewer than GRAM_MIN_BLOCKS blocks goes to the SVD with no
        # Gram stack; a slice of GRAM_MIN_BLOCKS blocks is factored once.
        rng = np.random.default_rng(n)
        blocks = [_block(rng, 2, 3, [1.0, (1e-12, 0.5, 0.0)[i % 3]]) for i in range(n)]
        a, sel, col_sets = _batch(blocks)
        threshold = rank_threshold((2, 3), 1e-10, 1.0)
        want = svd_batch_ranks(a, sel, col_sets, threshold)
        cholesky, calls = np.linalg.cholesky, []

        def counted(x, *args, **kwargs):
            calls.append(x.shape)
            return cholesky(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        got = _grid(a, sel, col_sets, threshold)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert (got[1] > 0).any()
        assert len(calls) == (n >= GRAM_MIN_BLOCKS)


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
    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-6, 1e-4])
    def test_every_batch_matches_svd(self, rank_tol, monkeypatch):
        batches = []

        def checked(a, row_sets, col_sets, threshold, first_rows=None):
            for rows, ranks, gaps in batch_ranks(a, row_sets, col_sets, threshold, first_rows):
                want = svd_batch_ranks(a, rows, col_sets, threshold)
                assert np.array_equal(ranks, want[0]) and np.array_equal(gaps, want[1])
                batches.append(ranks.size)
                yield rows, ranks, gaps

        monkeypatch.setattr(incompat.deficiency, "batch_ranks", checked)
        monkeypatch.setattr(incompat.support, "batch_ranks", checked)
        monkeypatch.setattr(incompat.rank, "batch_ranks", checked)
        # dft(8), dft(9) and the borderline DFTs keep the corpus's block count
        # above the floor now that inputs with no singular square block stop
        # after level 0, the coherence prune skips the DFTs' levels above tau,
        # and the square steps send only the blocks their minors do not
        # certify to batch_ranks.
        corpus = SEARCH_CORPUS + FRAGILE_DFTS + [dft_matrix(8), dft_matrix(9)]
        reached = []
        for tm in corpus:
            deficiency_profile(tm, rank_tol=rank_tol)
            tau_fast(tm, rank_tol=rank_tol)
            try:
                reached.append(min(tm.dim, min_support_uncertainty(tm, rank_tol=rank_tol).n_ab))
            except DegenerateWitnessError:
                reached.append(tm.dim)
        # The subset search leaves most blocks of its levels to the square
        # minors; feed the full grid of every level it reaches with s <= d
        # to the check directly, so the blocks a search without the screen
        # decides are compared too.
        for tm, top in zip(corpus, reached):
            d = tm.dim
            for s, nb in ((s, nb) for s in range(2, top + 1) for nb in range(1, s)):
                r = d - s + nb
                row_sets = lex_sets(d, r)[::-1]
                col_sets = lex_sets(d, nb)
                for _ in checked(tm.matrix, row_sets, col_sets, rank_threshold((r, nb), rank_tol, 1.0)):
                    pass
        # One call per row-set chunk, so count blocks, not calls: at least
        # the 73,037 that one call per row set compared on this corpus.
        assert sum(batches) >= 73_037

    def test_svd_work_does_not_grow_at_coarse_tolerances(self, monkeypatch):
        # The certificate decides at the threshold itself, so a coarser
        # tolerance sends no more blocks of the DFT(12) profile to the SVD.
        svd = np.linalg.svd
        blocks = []

        def counted(x, *args, **kwargs):
            blocks[-1] += x.shape[0] if x.ndim == 3 else 1
            return svd(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        for rank_tol in (1e-10, 1e-5):
            blocks.append(0)
            deficiency_profile(dft_matrix(12), rank_tol=rank_tol)
        assert blocks[1] <= blocks[0]


# Borderline inputs: DFT(d) exp(i eps H) keeps the DFT's deficient blocks
# within a few eps of singular. d = 8 keeps two of them, for test time.
FRAGILE_DFTS = [
    _perturbed_dft(d, eps, 0)
    for d, epsilons in ((4, (1e-11, 1e-10, 1e-9, 1e-8, 1e-7)),
                        (6, (1e-11, 1e-10, 1e-9, 1e-8, 1e-7)),
                        (8, (1e-11, 1e-9)))
    for eps in epsilons
]


def _search_results(tm):
    """Everything the searches report that batching could disturb."""
    p = deficiency_profile(tm)
    try:
        w = min_support_uncertainty(tm)
        support = (w.subset_a, w.subset_b, w.state_in_a.tobytes())
    except DegenerateWitnessError as exc:
        support = str(exc)
    return (
        p.r_values, p.r_row_values, p.r_col_values, p.witnesses, p.worst_gap_ratio,
        tau_fast(tm), support,
    )


def _budget_checked(monkeypatch, budget):
    """Set the batch budget; return the list of batch sizes, checked as they come."""
    batches = []

    def checked(blocks, threshold):
        n_rows, n_cols = blocks.shape[:2]
        assert blocks.size <= budget or n_rows * n_cols == 1
        batches.append(n_rows * n_cols)
        return _certified_full_rank(blocks, threshold)

    monkeypatch.setattr(incompat.rank, "BATCH_ENTRIES", budget)
    monkeypatch.setattr(incompat.rank, "_certified_full_rank", checked)
    return batches


class TestBatchBudget:
    def test_searches_do_not_depend_on_the_budget(self, monkeypatch):
        corpus = SEARCH_CORPUS + FRAGILE_DFTS
        want = [_search_results(tm) for tm in corpus]
        batches = _budget_checked(monkeypatch, 1)
        got = [_search_results(tm) for tm in corpus]
        assert got == want
        assert set(batches) == {1}

    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-6])
    def test_searches_do_not_depend_on_the_first_batch(self, rank_tol, monkeypatch):
        # A grid after one whose search exited at its first row set starts
        # with a batch of that one row set. Forcing every first batch to the
        # usual size changes no output.
        corpus = (
            SEARCH_CORPUS + FRAGILE_DFTS + [identity(d) for d in range(2, 10)]
            + [bronzan_rotation(0.0, t2) for t2 in (0.3, 0.6, 1.1)]
        )

        def results(tm):
            p = deficiency_profile(tm, rank_tol=rank_tol)
            levels = [(r_row(tm, t, rank_tol=rank_tol), r_col(tm, t, rank_tol=rank_tol))
                      for t in range(tm.dim)]
            return (p.r_values, p.r_row_values, p.r_col_values, p.witnesses,
                    p.worst_gap_ratio, tau_fast(tm, rank_tol=rank_tol), levels)

        firsts = []

        def usual(a, row_sets, col_sets, threshold, first_rows=None):
            firsts.append(first_rows)
            return batch_ranks(a, row_sets, col_sets, threshold)

        with monkeypatch.context() as patch:
            patch.setattr(incompat.deficiency, "batch_ranks", usual)
            want = [results(tm) for tm in corpus]
        assert [results(tm) for tm in corpus] == want
        assert 1 in firsts

    def test_first_batch_alone_block_counts(self, monkeypatch):
        # The blocks and batches the level search sends to batch_ranks: the
        # identity's grids exit at their first row set, the DFT's do not.
        # Each seed of the descent is a grid of one block: identity(7) and
        # identity(9) have 5 and 7 of them, and the DFTs' descents decide
        # their seeds and nothing else. r_row takes no seed, so its search at
        # tau still decides the DFT's grids.
        counts = []

        def counted(a, row_sets, col_sets, threshold, first_rows=None):
            for rows, ranks, gaps in batch_ranks(a, row_sets, col_sets, threshold, first_rows):
                counts[-1][0] += ranks.size
                counts[-1][1] += 1
                yield rows, ranks, gaps

        def count(search, tm):
            counts.append([0, 0])
            search(tm)
            return tuple(counts[-1])

        monkeypatch.setattr(incompat.deficiency, "batch_ranks", counted)
        assert count(deficiency_profile, identity(7)) == (110, 8)
        assert count(deficiency_profile, identity(9)) == (334, 11)
        dfts = [dft_matrix(d) for d in (8, 9, 10, 12)]
        assert [count(deficiency_profile, tm) for tm in dfts] == [(4, 4), (5, 5), (5, 5), (10, 10)]
        assert [count(tau_fast, tm) for tm in dfts] == [(1, 1)] * 4
        taus = (2, 3, 3, 5)
        assert [count(lambda tm: r_row(tm, tau), tm) for tm, tau in zip(dfts, taus)] == [
            (30, 1), (30, 1), (78, 1), (387, 3)
        ]

    @pytest.mark.parametrize("budget", [1, 7, 40, 600])
    @pytest.mark.parametrize("rows,cols", [(1, 2), (2, 2), (3, 2), (2, 5)])
    def test_grid_does_not_depend_on_the_budget(self, monkeypatch, budget, rows, cols):
        rng = np.random.default_rng(rows * 10 + cols)
        d = 8
        a = _random_complex(rng, d, d)
        a[2] *= 1e160  # huge entries under some row sets only
        a[:, 5] = 0  # zero and rank-deficient blocks, decided by SVD
        row_sets = np.array(list(itertools.combinations(range(d), rows)))
        col_sets = np.array(list(itertools.combinations(range(d), cols)))
        threshold = rank_threshold((rows, cols), 1e-10, 1.0)
        want = _grid(a, row_sets, col_sets, threshold)
        assert np.array_equal(want[0], svd_batch_ranks(a, row_sets, col_sets, threshold)[0])
        # The overflow guard acts per block: row 2 certifies nothing under
        # its own row sets and leaves the others as they are alone.
        blocks = _gathered(a, row_sets, col_sets)
        cert = _certified_full_rank(blocks, threshold)
        for i in range(len(row_sets)):
            alone = _certified_full_rank(blocks[i : i + 1], threshold)
            assert np.array_equal(cert[i], alone[0])
        has_2 = (row_sets == 2).any(axis=1)
        assert not cert[has_2].any() and cert[~has_2].any()
        batches = _budget_checked(monkeypatch, budget)
        got = _grid(a, row_sets, col_sets, threshold)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert sum(batches) == row_sets.shape[0] * col_sets.shape[0]

    @pytest.mark.parametrize("first_rows", [None, 1])
    def test_empty_grid_yields_nothing(self, first_rows):
        # No row sets, or no column sets (the subset search can filter away
        # every one): nothing to decide, and no batch to size.
        a = random_unitary(6, 0).matrix
        row_sets, col_sets = lex_sets(6, 2), lex_sets(6, 3)
        threshold = rank_threshold((2, 3), 1e-10, 1.0)
        for rows, cols in ((row_sets[:0], col_sets), (row_sets, col_sets[:0]),
                           (row_sets[:0], col_sets[:0])):
            assert list(batch_ranks(a, rows, cols, threshold, first_rows)) == []


def _squares_by_batch_ranks(a, thresholds, residual, *, row_0_at_top=False, floors=None):
    """squares_full_rank's reference: batch_ranks over every block, size by
    size. It records no floors, so floors is accepted and left as it is.

    Under errstate, as squares_full_rank runs it: the Gram certificate
    squares a threshold of 1e289 (the subset search's allowance at a
    residual of 1e300) in float64, which warns but decides the same."""
    d, top = a.shape[0], len(thresholds)
    with np.errstate(over="ignore"):
        for m, threshold in enumerate(thresholds, 1):
            col_sets = row_sets = lex_sets(d, m)
            if row_0_at_top and m == top:
                row_sets = row_sets[row_sets[:, 0] == 0]
            for _, ranks, _ in batch_ranks(a, row_sets, col_sets, threshold):
                if ranks.min() < m:
                    return False
    return True


def _exact_det(block):
    """(re, im) of det(block) in exact rational arithmetic, by Leibniz's formula."""
    m = len(block)
    entries = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in block]
    re = im = Fraction(0)
    for perm in itertools.permutations(range(m)):
        pr, pi = Fraction(1), Fraction(0)
        for i, j in enumerate(perm):
            er, ei = entries[i][j]
            pr, pi = pr * er - pi * ei, pr * ei + pi * er
        odd = sum(perm[i] > perm[j] for i in range(m) for j in range(i + 1, m)) % 2
        re, im = (re - pr, im - pi) if odd else (re + pr, im + pi)
    return re, im


def _scaled(tm, scale):
    """scale * U, loaded with room for its residual |scale^2 - 1|: ||a||_2 = scale."""
    return from_array(scale * tm.matrix, unitarity_tolerance=2 * max(scale * scale, 1.0))


def _tilt(c):
    """A real 3 x 3 rotation whose block on rows and columns (0, 1) is diag(1, c)."""
    s = math.sqrt(1 - c * c)
    return from_array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


# Loaded inputs with ||a||_2 = 2 or 1/2, where the norm bound N^(m - 1) of the
# minor certificate is far from 1. _tilt(7e-4) scaled by 2 has a 2 x 2 block
# with singular values 2 and 1.4e-3 and |det| 2.8e-3, on either side of the
# threshold 2e-3 at rank_tol 1e-3.
SCALED = [_scaled(_tilt(7e-4), 2.0)] + [
    _scaled(tm, scale) for tm in (dft_matrix(5), random_unitary(5, 0)) for scale in (2.0, 0.5)
]


# The 1e150-scaled input overflows its minors of size 3 and the 1e-150-scaled
# one underflows them.
EXTREME = [_scaled(random_unitary(6, 0), scale) for scale in (1e150, 1e-150)]


def _kron(theta):
    """R(theta) (x) DFT(2), R(theta) the real rotation by theta: entries of
    sin(theta) / sqrt(2), and a singular 2 x 2 block on rows (0, 1)."""
    c, s = math.cos(theta), math.sin(theta)
    return from_array(np.kron([[c, -s], [s, c]], dft_matrix(2).matrix))


# At rank_tol 0 the square level's threshold, 32 d^2 eps, is above this
# matrix's smallest entries, 5e-14, and the level-0 step's is below them, so
# the square level declines at size 1 before it computes any larger minor,
# and the level-0 step declines only at size 2.
DECLINE_AT_SIZE_1 = _kron(math.asin(math.sqrt(2) * 5e-14))

FLOOR_TOLS = [0.0, 1e-10, 1e-6, 1e-4, 1e-3]


def _floors_decide_alike(tm):
    """For the floors of the square level at each of FLOOR_TOLS, empty
    unless it clears, check that the level-0 step decides tm alike with and
    without them at each of FLOOR_TOLS. Return the set of its decisions and
    how many read the floors instead of walking."""
    walks = []

    def counted(*args, **kwargs):
        walks.append(args)
        return _square_minors(*args, **kwargs)

    decided, skipped = set(), 0
    for oracle_tol in FLOOR_TOLS:
        floors = []
        clear = incompat.support._square_level_clear(tm, oracle_tol, floors)
        assert len(floors) == (tm.dim - 1 if clear else 0)
        for rank_tol in FLOOR_TOLS:
            want = incompat.deficiency._square_blocks_clear(tm, rank_tol)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(incompat.rank, "_square_minors", counted)
                before = len(walks)
                assert incompat.deficiency._square_blocks_clear(tm, rank_tol, floors) == want
            decided.add(want)
            skipped += len(walks) == before
    return decided, skipped


def _walk_by_size(a, top, row_0_at_top):
    """{m: (rows, cols, minors)} of _square_minors, each size's yields joined;
    every yield of a size gives its column sets as lex_sets's table."""
    sizes = {}
    for rows, cols, minors in _square_minors(a, top, row_0_at_top):
        m = cols.shape[1]
        assert np.array_equal(cols, lex_sets(a.shape[0], m))
        sizes.setdefault(m, []).append((rows, cols, minors))
    return {
        m: (np.concatenate([p[0] for p in parts]), parts[0][1], np.concatenate([p[2] for p in parts]))
        for m, parts in sorted(sizes.items())
    }


class TestSquareMinors:
    """The minor certificate of squares_full_rank and the walk behind it."""

    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-6, 1e-4, 1e-3])
    def test_certified_blocks_clear_the_svd(self, rank_tol):
        # Every block the minor bound certifies has its SVD sigma_min above the
        # threshold plus the SVD's own error, on every block of the corpus.
        eps = np.finfo(float).eps
        haar = [random_unitary(d, seed) for d in range(2, 10) for seed in (0, 1)]
        certified = 0
        for tm in SEARCH_CORPUS + FRAGILE_DFTS + haar + SCALED:
            d = tm.dim
            thresholds = [rank_threshold((m, m), rank_tol, 1.0) for m in range(1, d + 1)]
            need = [bound for _, bound in _minor_bounds(d, tm.residual, thresholds)]
            for rows, cols, minors in _square_minors(tm.matrix, d):
                m = cols.shape[1]
                i, j = np.nonzero(np.abs(minors) > need[m - 1])
                if not i.size:
                    continue
                s = np.linalg.svd(
                    tm.matrix[rows[i][:, :, None], cols[j][:, None, :]], compute_uv=False
                )
                assert (s[:, -1] > thresholds[m - 1] + 16 * m * eps * s[:, 0]).all()
                certified += i.size
        assert certified > 0

    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-4])
    def test_strong_minors_keep_each_minor_at_its_lex_ranks(self, rank_tol):
        kinds = set()
        for tm in [dft_matrix(6), random_unitary(7, 0), _perturbed_dft(6, 1e-9, 0)]:
            d = tm.dim
            threshold = rank_threshold((d, d), rank_tol, 1.0)
            need = [bound for _, bound in _minor_bounds(d, tm.residual, [threshold] * (d - 1))]
            strong = strong_minors(tm.matrix, d - 1, threshold, tm.residual)
            assert [t.shape for t in strong] == [(math.comb(d, m),) * 2 for m in range(1, d)]
            # Size 1 alone is read off the entries, with the walk's values.
            (entries,) = strong_minors(tm.matrix, 1, threshold, tm.residual)
            assert np.array_equal(entries, strong[0])
            seen = [np.zeros_like(t) for t in strong]
            for rows, cols, minors in _square_minors(tm.matrix, d - 1):
                m = cols.shape[1]
                assert np.array_equal(cols, lex_sets(d, m))
                index = {r: i for i, r in enumerate(map(tuple, lex_sets(d, m).tolist()))}
                i = [index[r] for r in map(tuple, rows.tolist())]
                assert np.array_equal(strong[m - 1][i], np.abs(minors) > need[m - 1])
                seen[m - 1][i] = True
            assert all(s.all() for s in seen)
            kinds.update(np.unique(np.concatenate([t.ravel() for t in strong])).tolist())
        assert kinds == {False, True}

    def test_rounding_bound_holds_in_exact_arithmetic(self):
        # Every computed minor is within E_m of the exact one, underflow
        # included (qubit_rotation(1e-300) squares entries of 1e-300).
        checked = 0
        for tm in [tm for tm in SEARCH_CORPUS + FRAGILE_DFTS + SCALED if tm.dim <= 5]:
            errs = [err for err, _ in _minor_bounds(tm.dim, tm.residual, [0.0] * tm.dim)]
            for rows, cols, minors in _square_minors(tm.matrix, tm.dim):
                err = Fraction(errs[cols.shape[1] - 1])
                for i, j in itertools.product(range(len(rows)), range(len(cols))):
                    re, im = _exact_det(tm.matrix[np.ix_(rows[i], cols[j])])
                    z = minors[i, j]
                    assert (Fraction(z.real) - re) ** 2 + (Fraction(z.imag) - im) ** 2 <= err**2
                    checked += 1
        assert checked > 1000

    def test_minor_within_its_rounding_bound_of_the_margin_is_not_certified(self):
        # A certified block must have |det| - E_m above (th + 32 m^2 eps N)
        # N^(m - 1), the margin that keeps the SVD's decision. This 2 x 2
        # block's computed minor is c exactly, half of E_2 above that margin
        # at rank_tol 0.
        eps = np.finfo(float).eps
        probe = _tilt(1e-13)
        norm = (1 + 3 * probe.residual) * (1 + 36 * eps)
        err = _minor_bounds(3, probe.residual, [0.0] * 3)[1][0]
        tm = _tilt(128 * eps * norm * norm + err / 2)
        assert tm.residual == probe.residual
        need = _minor_bounds(3, tm.residual, [0.0] * 3)[1][1]
        rows, cols, minors = next(
            (rows, cols, minors) for rows, cols, minors in _square_minors(tm.matrix, 2)
            if cols.shape[1] == 2 and rows[0].tolist() == [0, 1]
        )
        assert cols[0].tolist() == [0, 1] and minors[0, 0] == tm.matrix[1, 1]
        assert not abs(minors[0, 0]) > need

    @pytest.mark.parametrize("budget", [1, 7, 40, 2**12])
    @pytest.mark.parametrize("row_0_at_top", [False, True])
    def test_walk_yields_every_minor_once(self, monkeypatch, budget, row_0_at_top):
        # Every minor once, each size's row sets in lexicographic order, the
        # same output as at the default budget, and the same read-only
        # drop ranks.
        for d in (2, 5, 8):
            a = _random_complex(np.random.default_rng(d), d, d)
            for top in range(1, d + 1):
                want = _walk_by_size(a, top, row_0_at_top)
                tables = [_drop_ranks(d, m) for m in range(1, top + 1)]
                with monkeypatch.context() as patch:
                    patch.setattr(incompat.rank, "BATCH_ENTRIES", budget)
                    got = _walk_by_size(a, top, row_0_at_top)
                    again = [_drop_ranks(d, m) for m in range(1, top + 1)]
                assert all(x is y for x, y in zip(again, tables))
                assert all(not t.flags.writeable for t in tables)
                assert list(got) == list(range(1, top + 1))
                for m, (rows, cols, minors) in got.items():
                    assert all(map(np.array_equal, (rows, cols, minors), want[m]))
                    assert [tuple(r) for r in rows.tolist()] == [
                        r for r in itertools.combinations(range(d), m)
                        if not (row_0_at_top and m == top and r[0] > 0)
                    ]
                    dets = np.linalg.det(a[rows[:, None, :, None], cols[None, :, None, :]])
                    assert (np.abs(minors - dets) <= 1e-12 * 2**m).all()

    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-6, 1e-4, 1e-3])
    def test_square_steps_match_batch_ranks_over_every_block(self, rank_tol, monkeypatch):
        # Entries of 1e150 overflow the minors of size 3 and entries of
        # 1e-150 underflow them; neither may certify a block or warn.
        haar = [random_unitary(d, seed) for d in range(2, 10) for seed in (0, 1)]
        corpus = SEARCH_CORPUS + FRAGILE_DFTS + haar + SCALED + EXTREME
        steps = (
            (incompat.deficiency, incompat.deficiency._square_blocks_clear),
            (incompat.support, incompat.support._square_level_clear),
        )
        got = [[step(tm, rank_tol) for tm in corpus] for _, step in steps]
        for module, _ in steps:
            monkeypatch.setattr(module, "squares_full_rank", _squares_by_batch_ranks)
        want = [[step(tm, rank_tol) for tm in corpus] for _, step in steps]
        assert got == want
        assert all(True in g and False in g for g in got)

    def test_floors_only_from_a_clear_walk_over_every_row_set(self):
        # Each floor is the least |minor| of its size, bit for bit; the
        # level-0 step's walk, on row 0 at its top size, computes the same
        # minors.
        tm = random_unitary(7, 0)
        d, a = tm.dim, tm.matrix
        thresholds = [rank_threshold((m, m), 1e-10, 1.0) for m in range(1, d)]
        floors = []
        assert squares_full_rank(a, thresholds, tm.residual, floors=floors)
        full = _walk_by_size(a, d - 1, False)
        assert floors == [np.abs(minors).min() for _, _, minors in full.values()]
        for m, (rows, _, minors) in _walk_by_size(a, d // 2, True).items():
            index = {r: i for i, r in enumerate(map(tuple, full[m][0].tolist()))}
            same = [index[r] for r in map(tuple, rows.tolist())]
            assert np.array_equal(minors, full[m][2][same])
        # A walk over fewer sizes leaves a longer list as it was and replaces
        # a shorter one. No need_m is below a floor of 0, so each call walks.
        for kept, want in (([0.0] * (d - 1), [0.0] * (d - 1)), ([0.0] * 2, floors[:3])):
            assert squares_full_rank(a, thresholds[:3], tm.residual, floors=kept)
            assert kept == want
        # A walk on row 0 at its top size or one that declines records none.
        for a, row_0_at_top in ((a, True), (dft_matrix(4).matrix, False)):
            floors = []
            squares_full_rank(
                a, thresholds[:3], tm.residual, row_0_at_top=row_0_at_top, floors=floors
            )
            assert floors == []
        # The size-2 minor is 4e400 - 1e400, inf - inf = NaN, in a full-rank
        # block: the floor stays NaN, which no need_m is below.
        floors = []
        a = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex) * 1e200
        assert squares_full_rank(a, [1e-10, 1e-10], 0.0, floors=floors)
        assert floors[0] == 1e200 and math.isnan(floors[1])

    def test_floors_decide_the_level_0_step_alike_on_the_corpora(self):
        haar = [random_unitary(d, seed) for d in range(2, 10) for seed in (0, 1)]
        corpus = SEARCH_CORPUS + FRAGILE_DFTS + haar + SCALED + EXTREME + [DECLINE_AT_SIZE_1]
        decided, skipped = set(), 0
        for tm in corpus:
            got = _floors_decide_alike(tm)
            decided |= got[0]
            skipped += got[1]
        assert decided == {False, True} and skipped > 100

    @given(
        st.sampled_from(["haar", "perturbed"]),
        st.integers(2, 9),
        st.integers(0, 2**16),
        st.integers(-12, -2),
    )
    @settings(max_examples=30)
    def test_floors_decide_the_level_0_step_alike(self, family, d, seed, log_eps):
        tm = random_unitary(d, seed) if family == "haar" else _perturbed_dft(d, 10.0**log_eps, seed)
        _floors_decide_alike(tm)

    def test_analysis_walks_once_on_a_clear_square_level(self, monkeypatch):
        # The level-0 step reads the subset search's floors, one list per
        # call: nothing is kept on the matrix for a later call.
        walks = []

        def counted(*args, **kwargs):
            walks.append(args)
            return _square_minors(*args, **kwargs)

        def count(run):
            before = len(walks)
            run()
            return len(walks) - before

        monkeypatch.setattr(incompat.rank, "_square_minors", counted)
        for seed in (0, 1, 2):
            tm = random_unitary(9, seed)
            assert count(lambda: analyze_transition(tm, {}, oracle_cap=10)) == 1
            assert count(lambda: analyze_transition(tm, {}, oracle_cap=10)) == 1
            assert count(lambda: tau_fast(tm)) == 1
            # Without the subset search the level-0 step walks.
            assert count(lambda: analyze_transition(tm, {})) == 1
        # The DFT's square level declines, so nothing is shared.
        tm = dft_matrix(8)
        apart = count(lambda: min_support_uncertainty(tm)) + count(lambda: deficiency_profile(tm))
        assert count(lambda: analyze_transition(tm, {}, oracle_cap=10)) == apart

    @pytest.mark.parametrize("d", [9, 10, 11, 12, 13])
    def test_memory_does_not_grow_with_the_row_sets(self, d):
        # The walk holds one chunk per depth: about (top + 3) BATCH_ENTRIES
        # entries, plus the column tables, whatever the number of row sets.
        tm = random_unitary(d, 0)
        tracemalloc.start()
        try:
            assert tau_fast(tm) == -1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_early_decline_builds_only_the_sizes_it_reaches(self):
        # identity(40) declines at size 1: no table of a larger size (the
        # size 20 one alone would be C(40, 20) x 20 entries) is built.
        tracemalloc.start()
        try:
            assert tau_fast(identity(40)) == 38
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_subset_covers_or_each_sets_subsets(self, m):
        # Row i of the r-th cover is the OR of the table's rows over the
        # m-subsets of lex_sets(d, r)[i].
        d, width = 7, 11
        table = np.random.default_rng(m).random((math.comb(d, m), width)) < 0.15
        covers = subset_covers(table, d, m, d - 1)
        assert len(covers) == d - m
        index = {s: i for i, s in enumerate(itertools.combinations(range(d), m))}
        for r, cover in enumerate(covers, m):
            want = [
                table[[index[s] for s in itertools.combinations(rows, m)]].any(axis=0)
                for rows in itertools.combinations(range(d), r)
            ]
            assert np.array_equal(cover, want)
        assert 0 < covers[1].mean() < covers[-1].mean()

    def test_only_small_tables_stay_cached(self):
        # The first yield of each size up to 7 at d = 14: the drop ranks of
        # sizes 1..4 (at most 4004 entries) are cached, those of 5..7 only
        # used.
        _drop_ranks.cache_clear()
        walk = _square_minors(random_unitary(14, 0).matrix, 7)
        firsts = [cols for _, cols, _ in itertools.islice(walk, 7)]
        walk.close()
        assert [cols.shape[1] for cols in firsts] == list(range(1, 8))
        small = [m for m in range(1, 8) if m * math.comb(14, m) <= TABLE_CACHE_ENTRIES]
        assert small == [1, 2, 3, 4]
        assert _drop_ranks.cache_info().currsize == len(small)
        first = [_drop_ranks(14, m) for m in range(1, 8)]
        assert [_drop_ranks(14, m) is first[m - 1] for m in range(1, 8)] == [
            m in small for m in range(1, 8)
        ]


class TestLexSets:
    """The one table of k-subsets every search reads."""

    def test_every_table_is_the_lexicographic_combinations(self):
        for d in range(15):
            for k in range(d + 1):
                sets = lex_sets(d, k)
                assert sets.shape == (math.comb(d, k), k)
                assert list(map(tuple, sets.tolist())) == list(itertools.combinations(range(d), k))

    @pytest.mark.parametrize("d,k", [(8, 3), (14, 7)], ids=["cached", "per-call"])
    def test_read_only(self, d, k):
        for table in (lex_sets(d, k), _drop_ranks(d, k)):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0

    def test_only_small_tables_stay_cached(self):
        small = {k for k in range(1, 15) if k * math.comb(14, k) <= TABLE_CACHE_ENTRIES}
        assert small == {1, 2, 3, 4, 11, 12, 13, 14}
        for table in (lex_sets, _drop_ranks):
            table.cache_clear()
            first = [table(14, k) for k in range(1, 15)]
            assert table.cache_info().currsize == len(small)
            assert [table(14, k) is first[k - 1] for k in range(1, 15)] == [
                k in small for k in range(1, 15)
            ]

    def test_drop_ranks_rank_each_set_less_one_entry(self):
        # drop[j, i], as the walk and subset_covers read it, is the index in
        # lex_sets(d, m - 1) of lex_sets(d, m)[i] less its j-th entry.
        for d in range(1, 15):
            index = {(): 0}
            for m in range(1, d + 1):
                sets, drop = lex_sets(d, m), _drop_ranks(d, m)
                assert drop.shape == (m, len(sets))
                for j in range(m):
                    less = np.delete(sets, j, axis=1)
                    assert drop[j].tolist() == [index[s] for s in map(tuple, less.tolist())]
                index = {s: i for i, s in enumerate(map(tuple, sets.tolist()))}

    @pytest.mark.parametrize("budget", [1, 40, 2**12])
    @pytest.mark.parametrize("first_rows", [None, 1])
    def test_array_row_sets_are_sliced(self, monkeypatch, budget, first_rows):
        # An array of row sets is decided in consecutive slices of it, the
        # first at most first_rows long, each as a copy of the array is.
        monkeypatch.setattr(incompat.rank, "BATCH_ENTRIES", budget)
        d, a = 8, random_unitary(8, 0).matrix
        row_sets, col_sets = lex_sets(d, 3), lex_sets(d, 4)
        threshold = rank_threshold((3, 4), 1e-10, 1.0)
        sliced = list(batch_ranks(a, row_sets, col_sets, threshold, first_rows))
        taken = list(batch_ranks(a, row_sets.copy(), col_sets, threshold, first_rows))
        assert len(sliced) == len(taken) > 1
        assert np.array_equal(np.concatenate([rows for rows, _, _ in sliced]), row_sets)
        assert first_rows is None or len(sliced[0][0]) == first_rows
        for (rows, ranks, gaps), want in zip(sliced, taken):
            assert np.shares_memory(rows, row_sets)
            assert all(map(np.array_equal, (rows, ranks, gaps), want))
