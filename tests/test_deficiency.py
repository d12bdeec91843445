import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incompat.deficiency
from bruteforce import brute_profile, brute_r_row
from incompat import (
    DegenerateWitnessError,
    SubmatrixSelector,
    bronzan_rotation,
    deficiency_profile,
    dft_chi,
    dft_matrix,
    divisor_decomposition,
    extremal_comb,
    from_array,
    identity,
    load_matrix,
    qubit_rotation,
    r_col,
    r_row,
    r_t,
    random_unitary,
    save_matrix,
    support_at_tau,
    tau_fast,
)
from incompat.cli import main
from incompat.deficiency import _max_row_deficiency, _square_blocks_clear
from incompat.fourier import coset_blocks
from incompat.rank import (
    DEFAULT_RANK_TOL,
    FRAGILE_GAP_RATIO,
    TABLE_CACHE_ENTRIES,
    batch_ranks,
    extract_submatrix,
    numerical_rank,
    rank_threshold,
)
from incompat.report import extremal_checks, profile_shape_checks
from incompat.symmetry import verify
from test_rank import FRAGILE_DFTS, SEARCH_CORPUS, _perturbed_dft
from test_support import TALL_CORPUS

SMALL_CORPUS = (
    [identity(d) for d in (2, 3, 4, 5)]
    + [dft_matrix(d) for d in (2, 3, 4, 5)]
    + [qubit_rotation(t, 0.3, 1.1) for t in (0.0, math.pi / 6, math.pi / 2)]
    + [bronzan_rotation(t1, t2) for t1, t2 in ((0.0, 0.6), (0.5, 1.0), (math.pi / 2, 0.2))]
    + [random_unitary(d, seed) for d in (2, 3, 4, 5) for seed in (0, 1)]
)


class TestIdentitySix:
    def test_level_values(self):
        p = deficiency_profile(identity(6))
        assert p.r_values == (3, 2, 2, 1, 1, 0)
        assert p.tau == 4
        assert p.chi == 2

    def test_row_equals_col_by_symmetry(self):
        tm = identity(6)
        transposed = from_array(tm.matrix.T)
        for t in range(6):
            assert r_row(tm, t)[0] == r_row(transposed, t)[0]

    @pytest.mark.parametrize("t,expected", [(0, 3), (1, 2), (2, 2), (3, 1), (4, 1), (5, 0)])
    def test_single_levels(self, t, expected):
        assert r_t(identity(6), t) == expected

    def test_top_level_witness_is_first_lexicographic(self):
        value, sel = r_row(identity(6), 0)
        assert value == 3
        assert sel == SubmatrixSelector((0, 1, 2), (3, 4, 5))


class TestAgainstBruteForce:
    """Pruned search vs the unpruned reference enumeration, d <= 5."""

    @pytest.mark.parametrize("idx", range(len(SMALL_CORPUS)))
    def test_full_profile_matches(self, idx):
        tm = SMALL_CORPUS[idx]
        expected_r, expected_row, expected_col, expected_tau, expected_chi = brute_profile(
            tm.matrix
        )
        p = deficiency_profile(tm)
        assert list(p.r_values) == expected_r
        assert list(p.r_row_values) == expected_row
        assert list(p.r_col_values) == expected_col
        assert p.tau == expected_tau
        assert p.chi == expected_chi

    def test_dft5_level_zero_is_zero(self):
        assert brute_r_row(dft_matrix(5).matrix, 0) == 0
        assert r_row(dft_matrix(5), 0)[0] == 0


class TestSymmetricFamilies:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_dft_row_equals_col(self, d):
        tm = dft_matrix(d)
        transposed = from_array(tm.matrix.T)
        for t in range(d):
            assert r_row(tm, t)[0] == r_row(transposed, t)[0]

    @pytest.mark.parametrize("tm", SMALL_CORPUS[:8], ids=lambda tm: f"d{tm.dim}")
    def test_top_t_level_always_zero(self, tm):
        assert r_t(tm, tm.dim - 1) == 0


class TestProfiles:
    def test_qubit_balanced_is_completely_incompatible(self):
        p = deficiency_profile(qubit_rotation(math.pi / 4, 0.0, 0.0))
        assert (p.tau, p.chi) == (-1, 3)
        assert p.r_values == (0, 0)
        assert all(w is None for w in p.witnesses)

    def test_bronzan_generic(self):
        p = deficiency_profile(bronzan_rotation(math.pi / 5, math.pi / 7))
        assert (p.tau, p.chi) == (0, 3)

    def test_d1_profile(self):
        p = deficiency_profile(identity(1))
        assert p.r_values == (0,)
        assert (p.tau, p.chi) == (-1, 2)

    def test_witnesses_populated_exactly_for_positive_levels(self):
        p = deficiency_profile(identity(6))
        for t in range(6):
            if p.r_values[t] > 0:
                w = p.witnesses[t]
                assert w is not None and w.deficiency == p.r_values[t]
                rows, cols = w.selector.rows, w.selector.cols
                if w.side == "row":
                    assert len(cols) == len(rows) + t
                else:
                    assert len(rows) == len(cols) + t
            else:
                assert p.witnesses[t] is None

    @pytest.mark.parametrize(
        "tm,rows,cols",
        [
            (dft_matrix(9), (0, 3, 6), ((1, 2, 4, 5, 7, 8), (0, 1, 3, 4, 6, 7))),
            (identity(5), (0,), ((1, 2, 3, 4), (1, 2, 3, 4))),
        ],
    )
    def test_row_witness_at_tau_pinned(self, tm, rows, cols):
        # cols holds the profile's witness columns, then r_row's. The profile
        # keeps its seed unless a block beats it: dft(9)'s tau is seeded with
        # the coset comb, rows 0 mod 3 and columns off 0 mod 3. r_row takes
        # no seed and returns the first maximizer in the documented
        # enumeration order. identity(5) has no seed at tau, so the two agree.
        p = deficiency_profile(tm)
        w = p.witnesses[p.tau]
        assert (w.side, w.selector) == ("row", SubmatrixSelector(rows, cols[0]))
        assert r_row(tm, p.tau) == (w.deficiency, SubmatrixSelector(rows, cols[1]))

    def test_profile_deterministic_across_calls(self):
        tm = random_unitary(4, 9)
        a = deficiency_profile(tm)
        for other in (deficiency_profile(tm), deficiency_profile(tm)):
            assert a.r_values == other.r_values
            assert a.witnesses == other.witnesses
            assert a.worst_gap_ratio == other.worst_gap_ratio

    def test_level_domain_error(self):
        with pytest.raises(ValueError):
            r_row(identity(3), 3)
        with pytest.raises(ValueError):
            r_col(identity(3), -1)


class TestOneSearchPerLevel:
    """The column side is derived from the row search, never searched."""

    TRANSPOSE_CORPUS = [random_unitary(d, seed) for d in range(2, 7) for seed in range(10)] + [
        bronzan_rotation(t1, t2)
        for t1 in np.linspace(0, math.pi / 2, 4)
        for t2 in np.linspace(0, math.pi / 2, 4)
    ]

    @pytest.mark.parametrize("idx", range(len(TRANSPOSE_CORPUS)))
    def test_profile_matches_transpose_search(self, idx):
        # The row search on U^T is the old column search: an independent oracle.
        tm = self.TRANSPOSE_CORPUS[idx]
        p = deficiency_profile(tm)
        assert p.r_values == deficiency_profile(from_array(tm.matrix.T)).r_values
        assert p.r_row_values == p.r_col_values

    @pytest.mark.parametrize(
        "tm", [identity(5), dft_matrix(6), bronzan_rotation(math.pi / 5, math.pi / 7)],
        ids=lambda tm: f"d{tm.dim}",
    )
    def test_extremal_checks_search_nothing(self, tm, monkeypatch):
        profile = deficiency_profile(tm)
        assert profile.tau >= 0

        def refuse(*args, **kwargs):
            raise AssertionError("extremal_checks ran a level search")

        monkeypatch.setattr(incompat.deficiency, "_max_row_deficiency", refuse)
        assert all(extremal_checks(tm, profile).values())

    def test_side_mismatch_fails_shape_check(self):
        p = deficiency_profile(identity(4))
        skewed = dataclasses.replace(p, r_col_values=(p.r_col_values[0] - 1,) + p.r_col_values[1:])
        assert profile_shape_checks(p)["levels_max_of_sides"]
        assert not profile_shape_checks(skewed)["levels_max_of_sides"]


class TestTauFast:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    def test_identity_reaches_d_minus_two(self, d):
        assert tau_fast(identity(d)) == d - 2

    def test_prime_dft_has_no_deficiency(self):
        assert tau_fast(dft_matrix(7)) == -1

    def test_composite_dft(self):
        assert tau_fast(dft_matrix(6)) == 1

    @pytest.mark.parametrize("idx", range(len(SMALL_CORPUS)))
    def test_matches_full_profile(self, idx):
        tm = SMALL_CORPUS[idx]
        assert tau_fast(tm) == deficiency_profile(tm).tau

    def test_d1(self):
        assert tau_fast(identity(1)) == -1

    def test_walks_the_profile_descent(self, monkeypatch):
        # Every rank step tau_fast takes, with the row sets its batches
        # decide, is the profile's, in the same order; only the column checks
        # are left out.
        calls = []

        def recorded(a, row_sets, col_sets, threshold, first_rows=None):
            pulled = []
            calls.append((col_sets.shape, threshold, first_rows, pulled))
            for rows, ranks, gaps in batch_ranks(a, row_sets, col_sets, threshold, first_rows):
                pulled.extend(map(tuple, rows.tolist()))
                yield rows, ranks, gaps

        def refuse(*args, **kwargs):
            raise AssertionError("tau_fast made a column check")

        monkeypatch.setattr(incompat.deficiency, "batch_ranks", recorded)
        searched = 0
        for tm in SEARCH_CORPUS + FRAGILE_DFTS:
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(incompat.deficiency, "numerical_rank", refuse)
                tau = tau_fast(tm)
            fast = list(calls)
            calls.clear()
            assert deficiency_profile(tm).tau == tau
            assert calls[: len(fast)] == fast
            # Calls past the level-0 step: blocks with more columns than rows.
            searched += sum(len(rows[0]) < shape[1] for shape, _, _, rows in fast if rows)
        assert searched > 0


# deficiency_profile of dft(14) and identity(14): the values and the row
# witness (rows, columns, deficiency) of each level up to tau. dft(14)'s
# witnesses are its coset seeds, and its descent decides no other block;
# r_row at t = 0, which takes no seed, reads row tables of more than
# TABLE_CACHE_ENTRIES entries on both.
LARGE_TABLE_PROFILES = {
    "dft": (
        dft_matrix(14),
        (3, 3, 2, 2, 1, 1) + (0,) * 8,
        [
            ((0, 1, 2, 7, 8, 9), (1, 3, 5, 7, 9, 11), 3),
            ((0, 1, 2, 7, 8, 9), (1, 3, 5, 7, 9, 11, 13), 3),
            ((0, 1, 7, 8), (1, 3, 5, 7, 9, 11), 2),
            ((0, 1, 7, 8), (1, 3, 5, 7, 9, 11, 13), 2),
            ((0, 7), (1, 3, 5, 7, 9, 11), 1),
            ((0, 7), (1, 3, 5, 7, 9, 11, 13), 1),
        ],
    ),
    "identity": (
        identity(14),
        (7, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1, 0),
        [
            ((0, 1, 2, 3, 4, 5, 6), (7, 8, 9, 10, 11, 12, 13), 7),
            ((0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11, 12), 6),
            ((0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11, 12, 13), 6),
            ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9, 10, 11, 12), 5),
            ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9, 10, 11, 12, 13), 5),
            ((0, 1, 2, 3), (4, 5, 6, 7, 8, 9, 10, 11, 12), 4),
            ((0, 1, 2, 3), (4, 5, 6, 7, 8, 9, 10, 11, 12, 13), 4),
            ((0, 1, 2), (3, 4, 5, 6, 7, 8, 9, 10, 11, 12), 3),
            ((0, 1, 2), (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13), 3),
            ((0, 1), (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), 2),
            ((0, 1), (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13), 2),
            ((0,), (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), 1),
            ((0,), (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13), 1),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(LARGE_TABLE_PROFILES))
def test_large_row_tables_keep_the_outputs(monkeypatch, name):
    # Every rank step gets its row sets as one array, some of them from a
    # table too large to cache (in r_row's search), and the outputs are the
    # pinned ones.
    tm, values, witnesses = LARGE_TABLE_PROFILES[name]
    d, tau = tm.dim, len(witnesses) - 1
    sizes = set()

    def checked(a, row_sets, col_sets, threshold, first_rows=None):
        assert isinstance(row_sets, np.ndarray) and row_sets.ndim == 2
        if len(row_sets) > 1:  # a seed is one block, read from no table
            sizes.add(row_sets.shape[1])
        yield from batch_ranks(a, row_sets, col_sets, threshold, first_rows)

    monkeypatch.setattr(incompat.deficiency, "batch_ranks", checked)
    monkeypatch.setattr(incompat.rank, "batch_ranks", checked)
    p = deficiency_profile(tm)
    assert p.r_values == p.r_row_values == p.r_col_values == values
    assert (p.tau, p.chi) == (tau, d - tau)
    got = [(w.side, w.selector.rows, w.selector.cols, w.deficiency) for w in p.witnesses[: tau + 1]]
    assert got == [("row", *w) for w in witnesses]
    assert all(w is None for w in p.witnesses[tau + 1 :])
    assert tau_fast(tm) == tau
    assert r_row(tm, 0)[0] == values[0]
    assert any(m * math.comb(d, m) > TABLE_CACHE_ENTRIES for m in sizes)


class TestLevelZeroFirst:
    """The level-0 step on square blocks with m <= d/2, decided before any
    level is searched, unless the levels are seeded from coset blocks."""

    @pytest.mark.parametrize("d", range(2, 9))
    def test_block_and_complement_share_sigma_min(self, d):
        # Jacobi / CS decomposition: the shortcut's ground.
        a = random_unitary(d, d).matrix
        for m in range(1, d // 2 + 1):
            sets = list(itertools.combinations(range(d), m))
            blocks = np.array([a[np.ix_(r, c)] for r in sets for c in sets])
            comps = np.array([
                np.delete(np.delete(a, r, axis=0), c, axis=1) for r in sets for c in sets
            ])
            s = np.linalg.svd(blocks, compute_uv=False)[:, -1]
            s_comp = np.linalg.svd(comps, compute_uv=False)[:, -1]
            assert np.max(np.abs(s - s_comp)) <= 1e-12

    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-6])
    def test_agrees_with_level_zero_search(self, rank_tol):
        for tm in SEARCH_CORPUS + FRAGILE_DFTS:
            full, _, _, _ = _max_row_deficiency(
                tm.matrix, 0, *_coherence(tm), stop_at=1, rank_tol=rank_tol
            )
            assert _square_blocks_clear(tm, rank_tol) == (full == 0)

    @pytest.mark.parametrize("eps,rank_tol", [(1e-8, 1e-10), (1e-4, 1e-6)])
    def test_complement_threshold_pinned(self, eps, rank_tol):
        # A 3 x 3 block of this DFT(8) has sigma_min between 3 and 5 times
        # rank_tol: deficient at its 5 x 5 complement's threshold, which the
        # full level-0 search applies, but not at its own.
        tm = _perturbed_dft(8, eps, 8)
        assert not _square_blocks_clear(tm, rank_tol)
        assert tau_fast(tm, rank_tol=rank_tol) == 0
        assert deficiency_profile(tm, rank_tol=rank_tol).r_values[0] == 1
        sets = np.array(list(itertools.combinations(range(8), 3)))
        own = batch_ranks(tm.matrix, sets, sets, rank_threshold((3, 3), rank_tol, 1.0))
        assert all(ranks.min() == 3 for _, ranks, _ in own)

    @staticmethod
    def near_unitary_d3():
        """A real 3 x 3 within 3e-9 of orthogonal: U[2, 2] = 1e-9, while the
        top-left 2 x 2 block, its complement, is made singular by moving U[0, 0]
        by about 1e-9. Loaded at the default unitarity tolerance, 1e-8."""
        c, s = 1e-9, math.sqrt(1 - 1e-18)
        tilt = np.array([[1.0, 0, 0], [0, c, -s], [0, s, c]])
        turn = np.array([[math.cos(0.7), -math.sin(0.7), 0], [math.sin(0.7), math.cos(0.7), 0],
                         [0, 0, 1]])
        u = turn @ tilt @ turn.T
        u[0, 0] = u[0, 1] * u[1, 0] / u[1, 1]
        return from_array(u.tolist())

    @staticmethod
    def without_level_zero_step(tm, monkeypatch, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(incompat.deficiency, "_square_blocks_clear", lambda *a: False)
            return tau_fast(tm, **kwargs), deficiency_profile(tm, **kwargs)

    def test_near_unitary_input_matches_level_search(self, monkeypatch):
        # The 1 x 1 block U[2, 2] = 1e-9 is above every threshold at d = 3
        # (2e-10), yet its complement is singular: only the residual margin
        # keeps the step from certifying chi = d + 1.
        tm = self.near_unitary_d3()
        assert 1e-9 < tm.residual < 1e-8 and abs(tm.matrix[2, 2]) > 2e-10
        assert not _square_blocks_clear(tm, 1e-10)
        tau, p = self.without_level_zero_step(tm, monkeypatch)
        assert (tau, p.r_row_values, p.tau) == (0, (1, 0, 0), 0)
        assert tau_fast(tm) == tau
        assert dataclasses.astuple(deficiency_profile(tm)) == dataclasses.astuple(p)

    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-6])
    def test_outputs_equal_the_level_search(self, rank_tol, monkeypatch):
        near = [from_array(tm.matrix * (1 + 1e-9)) for tm in SEARCH_CORPUS if tm.dim > 1]
        for tm in SEARCH_CORPUS + FRAGILE_DFTS + near:
            tau, p = self.without_level_zero_step(tm, monkeypatch, rank_tol=rank_tol)
            assert tau_fast(tm, rank_tol=rank_tol) == tau
            got = deficiency_profile(tm, rank_tol=rank_tol)
            assert dataclasses.astuple(got) == dataclasses.astuple(p)

    @pytest.mark.parametrize(
        "tm",
        [random_unitary(d, 0) for d in range(2, 9)] + [dft_matrix(p) for p in (2, 3, 5, 7, 11)],
        ids=lambda tm: f"d{tm.dim}",
    )
    def test_no_level_searched_without_a_singular_square_block(self, tm, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a level was searched")

        monkeypatch.setattr(incompat.deficiency, "_max_row_deficiency", refuse)
        d = tm.dim
        assert tau_fast(tm) == -1
        p = deficiency_profile(tm)
        assert (p.tau, p.chi) == (-1, d + 1)
        assert p.r_values == p.r_row_values == p.r_col_values == (0,) * d
        assert p.witnesses == (None,) * d and p.worst_gap_ratio == 0.0

    @pytest.mark.parametrize(
        "tm",
        [identity(1), from_array([[1j]]), random_unitary(2, 3)]
        + [random_unitary(d, 1) for d in (3, 6, 7)]
        + [dft_matrix(6), dft_matrix(7), identity(7)],
        ids=lambda tm: f"d{tm.dim}",
    )
    def test_small_odd_and_even_match_brute_force(self, tm):
        # Beyond SMALL_CORPUS (d = 2..5): d = 1, and d = 6, 7 on both paths.
        r_values, row_vals, col_vals, tau, chi = brute_profile(tm.matrix)
        p = deficiency_profile(tm)
        assert (list(p.r_values), list(p.r_row_values), list(p.r_col_values)) == (
            r_values, row_vals, col_vals,
        )
        assert (p.tau, p.chi, tau_fast(tm)) == (tau, chi, tau)


STOP_CORPUS = (
    [identity(7), identity(9)] + [dft_matrix(d) for d in range(8, 13)]
    + [_perturbed_dft(8, 1e-9, 0)] + list(TALL_CORPUS)
)


@pytest.mark.parametrize("tm", STOP_CORPUS, ids=lambda tm: f"d{tm.dim}")
def test_stop_at_ends_the_search_at_its_bound(tm):
    # For every t and every bound k in 1..d: a search whose value stays
    # below k returns what the unbounded one does, all four outputs; one
    # that reaches k returns a value of at least k, on a selector whose
    # deficiency the SVD at the level's threshold confirms, and some such
    # search ends before the unbounded one would.
    a, d = tm.matrix, tm.dim
    coherence, sym = _coherence(tm), verify(a, tm.residual)
    reached, ended_early = 0, 0
    for t in range(d):
        full = _max_row_deficiency(a, t, *coherence, sym=sym)
        for k in range(1, d + 1):
            got = _max_row_deficiency(a, t, *coherence, stop_at=k, sym=sym)
            if full[0] < k:
                assert got == full
                continue
            value, sel = got[:2]
            assert k <= value <= full[0]
            decided = numerical_rank(extract_submatrix(a, sel), DEFAULT_RANK_TOL, scale=1.0)
            assert len(sel.rows) - decided.rank == value
            reached += 1
            ended_early += got != full
    assert ended_early > 0 or reached == 0

class TestProfileShapeLaws:
    """Structural laws every profile obeys, over a broad corpus."""

    @staticmethod
    def assert_clauses(p):
        r = p.r_values
        assert all(v >= 0 for v in r)
        assert all(0 <= r[t] - r[t + 1] <= 1 for t in range(p.dim - 1))
        assert r[p.dim - 1] == 0
        if r[0] == 0:
            assert all(v == 0 for v in r)
        assert all(
            r[t] == max(p.r_row_values[t], p.r_col_values[t]) for t in range(p.dim)
        )

    @pytest.mark.parametrize("d", range(2, 9))
    def test_identity_and_dft(self, d):
        self.assert_clauses(deficiency_profile(identity(d)))
        self.assert_clauses(deficiency_profile(dft_matrix(d)))

    def test_rotation_grids(self):
        for theta in np.linspace(0, math.pi / 2, 5):
            for phases in ((0.0, 0.0), (0.4, 2.2)):
                self.assert_clauses(deficiency_profile(qubit_rotation(theta, *phases)))
        for t1 in np.linspace(0, math.pi / 2, 4):
            for t2 in np.linspace(0, math.pi / 2, 4):
                self.assert_clauses(deficiency_profile(bronzan_rotation(t1, t2)))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_fifty_random_per_dimension(self, d):
        for seed in range(50):
            self.assert_clauses(deficiency_profile(random_unitary(d, seed)))


def _chi(tm):
    return tm.dim - tau_fast(tm)


class TestChiInvariances:
    @given(st.integers(2, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_permutations_and_phases(self, d, seed):
        rng = np.random.default_rng(seed)
        tm = random_unitary(d, seed % 1000)
        base = _chi(tm)
        permuted = tm.matrix[rng.permutation(d)][:, rng.permutation(d)]
        phased = (
            np.exp(1j * rng.uniform(0, 2 * np.pi, d))[:, None]
            * tm.matrix
            * np.exp(1j * rng.uniform(0, 2 * np.pi, d))[None, :]
        )
        assert _chi(from_array(permuted, 1e-10)) == base
        assert _chi(from_array(phased, 1e-10)) == base

    @pytest.mark.parametrize("tm", SMALL_CORPUS[4:10], ids=lambda tm: f"d{tm.dim}")
    def test_transpose_and_conjugate(self, tm):
        base = _chi(tm)
        assert _chi(from_array(tm.matrix.T, 1e-10)) == base
        assert _chi(from_array(tm.matrix.conj(), 1e-10)) == base


def _coherence(tm):
    """(mu, e) as the level search reads them: the largest entry modulus
    (TransitionMatrix.coherence) and d times the unitarity residual."""
    return float(np.abs(tm.matrix).max()), tm.dim * tm.residual


def _coherence_family(family, d, seed, eps):
    return {
        "haar": lambda: random_unitary(d, seed),
        "dft": lambda: dft_matrix(d),
        "perturbed": lambda: _perturbed_dft(d, eps, seed),
    }[family]()


def _block_singular_values(tm):
    """(t, m, singular values) for every level t and row count m: one row
    of descending singular values per m x (m + t) block."""
    d, a = tm.dim, tm.matrix
    for t in range(d):
        for m in range(1, d - t + 1):
            rows = np.array(list(itertools.combinations(range(d), m)))
            cols = np.array(list(itertools.combinations(range(d), m + t)))
            blocks = a[rows[:, None, :, None], cols[None, :, None, :]]
            yield t, m, np.linalg.svd(blocks, compute_uv=False).reshape(-1, m)


class TestCoherencePrune:
    """The coherence cap lowers an m's ceiling to the largest deficiency the
    bound allows; an m whose ceiling cannot beat the best is skipped."""

    COMPOSITE_DFTS = [dft_matrix(d) for d in (4, 6, 8, 9, 10, 12)]

    @staticmethod
    def unpruned(monkeypatch, run):
        with monkeypatch.context() as patch:
            patch.setattr(incompat.deficiency, "_coherence_cap", lambda shape, *a: shape[0])
            return run()

    @staticmethod
    def record_caps(monkeypatch):
        """Every cap the search computes, as (d, shape, cap)."""
        caps = []
        cap = incompat.deficiency._coherence_cap

        def recorded(shape, d, mu, e, threshold):
            caps.append((d, shape, cap(shape, d, mu, e, threshold)))
            return caps[-1][2]

        monkeypatch.setattr(incompat.deficiency, "_coherence_cap", recorded)
        return caps

    def assert_matches_unpruned(self, tm, rank_tol, monkeypatch, profile=True):
        tau = tau_fast(tm, rank_tol=rank_tol)
        assert tau == self.unpruned(monkeypatch, lambda: tau_fast(tm, rank_tol=rank_tol))
        if not profile:
            return
        got = deficiency_profile(tm, rank_tol=rank_tol)
        want = self.unpruned(monkeypatch, lambda: deficiency_profile(tm, rank_tol=rank_tol))
        exact = [f.name for f in dataclasses.fields(got) if f.name != "worst_gap_ratio"]
        assert [getattr(got, f) for f in exact] == [getattr(want, f) for f in exact]
        # The capped search makes a subset of the unpruned search's decisions.
        assert got.worst_gap_ratio <= want.worst_gap_ratio
        assert (got.worst_gap_ratio > FRAGILE_GAP_RATIO) == (want.worst_gap_ratio > FRAGILE_GAP_RATIO)

    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-6, 0.0])
    def test_outputs_equal_the_unpruned_search(self, rank_tol, monkeypatch):
        near = [from_array(tm.matrix * (1 + 1e-9)) for tm in SEARCH_CORPUS if tm.dim > 1]
        # At rank_tol 0 no DFT block is deficient, so DFT(d) searches every
        # level down to 0 with or without the cap (DFT(12) about 15 s each
        # way): there the DFTs stop at d = 9.
        dfts = [dft_matrix(d) for d in range(1, 13 if rank_tol else 10)]
        caps = self.record_caps(monkeypatch)
        for tm in SEARCH_CORPUS + FRAGILE_DFTS + near + dfts:
            self.assert_matches_unpruned(tm, rank_tol, monkeypatch, profile=tm.dim <= 9)
        below = {d for d, (m, c), cap in caps if cap < min(m, d - c)}
        assert below >= {6, 8, 9}
        if rank_tol:
            # A cap above 0 ends an m early: DFT(8) at t = 0, m = 2.
            assert (8, (2, 2), 1) in caps

    @pytest.mark.parametrize("rank_tol", [1e-5, 1e-4])
    def test_outputs_equal_the_unpruned_search_at_coarse_tolerances(self, rank_tol, monkeypatch):
        # Here the threshold is within a few orders of 1: the cap must still
        # fire, because it is evaluated at the threshold itself.
        caps = self.record_caps(monkeypatch)
        for tm in FRAGILE_DFTS + [dft_matrix(d) for d in range(1, 10)]:
            self.assert_matches_unpruned(tm, rank_tol, monkeypatch)
        assert {d for d, _, cap in caps if cap == 0} >= {6, 8, 9}

    @given(
        st.sampled_from(["haar", "dft", "perturbed"]),
        st.integers(2, 6),
        st.integers(0, 2**16),
        st.sampled_from([1e-12, 1e-9, 1e-6]),
    )
    @settings(max_examples=40, deadline=None)
    def test_sigma_min_obeys_the_bound(self, family, d, seed, eps):
        tm = _coherence_family(family, d, seed, eps)
        mu, e = _coherence(tm)
        slack = 32 * d**3 * np.finfo(float).eps
        for t, m, s in _block_singular_values(tm):
            # The j-th smallest singular value moves by at most e from the
            # nearest unitary's.
            for j in range(1, m + 1):
                bound = 1 - m * (d - m - t) * (mu + e) ** 2 / j - 2 * e - slack
                assert s[:, m - j].min() ** 2 >= bound

    @given(
        st.sampled_from(["haar", "dft", "perturbed"]),
        st.integers(2, 6),
        st.integers(0, 2**16),
        st.sampled_from([1e-12, 1e-9, 1e-6]),
        st.sampled_from([1e-10, 1e-6, 1e-4, 1e-2, 0.1]),
    )
    @settings(max_examples=60, deadline=None)
    def test_cap_bounds_every_block_deficiency(self, family, d, seed, eps, rank_tol):
        tm = _coherence_family(family, d, seed, eps)
        mu, e = _coherence(tm)
        for t, m, s in _block_singular_values(tm):
            threshold = rank_threshold((m, m + t), rank_tol, 1.0)
            cap = incompat.deficiency._coherence_cap((m, m + t), d, mu, e, threshold)
            assert 0 <= cap <= m
            assert (m - (s > threshold).sum(axis=1)).max() <= cap

    def test_prune_only_where_the_bound_clears_the_margin(self):
        # Soundness: whenever j (1 - (threshold + e)^2) <= m (d - m - t)
        # (mu + e)^2, a block could reach deficiency j, so the cap is >= j;
        # at j = 1, an m is skipped whole (cap 0) only where the bound
        # clears the threshold.
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(4000):
            d = int(rng.integers(1, 17))
            t = int(rng.integers(0, d))
            m = int(rng.integers(1, d - t + 1))
            mu = float(rng.uniform(0, 3)) / math.sqrt(d)
            e = float(10.0 ** rng.uniform(-18, -1))
            threshold = rank_threshold((m, m + t), float(10.0 ** rng.uniform(-16, -1)), 1.0)
            cap = incompat.deficiency._coherence_cap((m, m + t), d, mu, e, threshold)
            assert 0 <= cap <= m
            x = m * (d - m - t) * (mu + e) ** 2
            room = 1 - (threshold + e) ** 2
            for j in range(1, m + 1):
                if j * room <= x:
                    assert cap >= j
                    checked += 1
                elif j * (room - 64 * d**3 * np.finfo(float).eps) > x:
                    # Sharp up to twice the slack: no deficiency the bound
                    # rules out is let through.
                    assert cap < j
        assert checked > 1000

    @pytest.mark.parametrize(
        "d,mu,e,threshold",
        [
            (6, 0.3, 0.0, 1e300),
            (6, 0.3, 1e300, 0.0),
            (6, 1e200, 0.0, 0.0),
            # Within rounding of the tight DFT(6) bound at rank_tol 0: only
            # the 32 d^3 eps slack keeps this m's cap from falling to 0.
            (6, (1 - 1e-14) / math.sqrt(6), 0.0, 0.0),
        ],
    )
    def test_no_prune_at_the_edges(self, d, mu, e, threshold):
        # Huge terms give no cap (m = 2), not OverflowError; the tight case
        # keeps cap 1.
        cap = incompat.deficiency._coherence_cap((2, 3), d, mu, e, threshold)
        assert cap == (2 if max(mu, e, threshold) > 1 else 1)

    @pytest.mark.parametrize("tm", COMPOSITE_DFTS, ids=lambda tm: f"d{tm.dim}")
    def test_tau_witness_at_a_tight_m_never_pruned(self, tm, monkeypatch):
        # mu^2 = 1 / d: the bound is tight exactly where m (d - m - tau) = d.
        # The caps are computed here, as the search computes them: a level
        # that its one ceiling test skips computes none of its m's caps.
        d = tm.dim
        shapes = []
        for module in (incompat.rank, incompat.deficiency):
            decide = module.batch_ranks

            def recorded(a, row_sets, col_sets, *args, decide=decide):
                shapes.append((row_sets.shape[1], col_sets.shape[1]))
                return decide(a, row_sets, col_sets, *args)

            monkeypatch.setattr(module, "batch_ranks", recorded)
        tau = tau_fast(tm)
        mu, e = _coherence(tm)
        zero = {
            (d, (k, k + t))
            for t in range(tau, d)
            for k in range(1, d - t + 1)
            if not incompat.deficiency._coherence_cap(
                (k, k + t), d, mu, e, rank_threshold((k, k + t), 1e-10, 1.0)
            )
        }
        # Every m above tau, and every m at tau before the witness's, is
        # capped to 0, and no block above tau is decided.
        above = {(d, (k, k + t)) for t in range(tau + 1, d) for k in range(1, d - t)}
        assert above <= zero
        assert shapes and all(c - m <= tau for m, c in shapes)
        value, sel = r_row(tm, tau)
        m = len(sel.rows)
        assert value == 1 and m * (d - m - tau) == d
        assert {(d, (k, k + tau)) for k in range(1, m)} <= zero
        assert (d, (m, m + tau)) not in zero
        threshold = rank_threshold((m, m + tau), 1e-10, 1.0)
        assert incompat.deficiency._coherence_cap((m, m + tau), d, mu, e, threshold) == 1

    @given(
        st.integers(2, 30),
        st.data(),
        st.sampled_from(["tight-", "tight+", "random"]),
        st.sampled_from([0.0, 1e-16, 1e-12]),
        st.sampled_from([0.0, 1e-10, 1e-6, 1e-2, 1e300]),
    )
    @settings(max_examples=300, deadline=None)
    def test_level_ceiling_bounds_every_m(self, d, data, kind, e, rank_tol):
        # Whenever the level test skips (best >= the level ceiling), every
        # m's ceiling, computed as the search computes it, is <= best.
        t = data.draw(st.integers(0, d - 1))
        stop_at = data.draw(st.integers(1, d))
        if kind == "random":
            mu = data.draw(st.floats(0.0, 2.0)) / math.sqrt(d)
        else:
            mu = (1 + (1e-14 if kind == "tight+" else -1e-14)) / math.sqrt(d)
        level = incompat.deficiency._level_ceiling(d, t, mu, e, rank_tol, stop_at)
        for m in range(1, d - t + 1):
            threshold = rank_threshold((m, m + t), rank_tol, 1.0)
            cap = incompat.deficiency._coherence_cap((m, m + t), d, mu, e, threshold)
            assert min(m, d - m - t, cap, stop_at) <= level

    def test_dft_levels_above_tau_with_a_positive_cap(self):
        # For the DFT the cap is m (d - m - t) / d rounded down, so a level
        # above tau is skipped whole only where every m with a positive
        # interlacing ceiling has m (d - m - t) < d. No level is searched:
        # the caps are computed as the search computes them.
        positive, closed_form = set(), set()
        for d in range(1, 31):
            tm = dft_matrix(d)
            mu, e = _coherence(tm)
            tau = d - dft_chi(d)
            for t in range(tau + 1, d):
                for m in range(1, d - t):
                    threshold = rank_threshold((m, m + t), 1e-10, 1.0)
                    if incompat.deficiency._coherence_cap((m, m + t), d, mu, e, threshold):
                        positive.add((d, t))
                    if m * (d - m - t) >= d:
                        closed_form.add((d, t))
        assert positive == closed_form
        # Composite d: the cap is 1 on these levels, which are searched and
        # refuted (dft(14) at t = 6 = tau + 1, m = 3, 4, 5).
        assert {(d, t) for d, t in positive if dft_chi(d) <= d} == {
            (14, 6), (22, 10), (22, 11), (22, 12), (26, 12), (26, 13), (26, 14), (26, 15),
            (27, 16),
        }
        # Prime d (tau = -1): positive from t = 0 up, but the level-0 step
        # decides these inputs before any level is searched.
        primes = {d for d, t in positive if dft_chi(d) == d + 1}
        assert primes == {5, 7, 11, 13, 17, 19, 23, 29}
        assert {(d, 0) for d in primes} <= positive

    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-6])
    def test_support_witness_obeys_the_product_bound(self, rank_tol):
        # n_a n_b >= 1 / mu^2 (Donoho & Huo; Elad & Bruckstein), up to rounding.
        checked = 0
        for tm in SEARCH_CORPUS + FRAGILE_DFTS + self.COMPOSITE_DFTS[:-1]:
            profile = deficiency_profile(tm, rank_tol=rank_tol)
            try:
                w = support_at_tau(tm, profile, rank_tol=rank_tol)
            except DegenerateWitnessError:
                continue
            mu, _ = _coherence(tm)
            assert w.n_a * w.n_b * mu * mu >= 1 - 1e-9
            checked += 1
        assert checked >= len(SEARCH_CORPUS)


# Inputs whose descents take seeds: the DFTs (coset blocks from d = 7 on,
# where both translations are verified) and, below their first deficient
# level, every input (the witness of the level above less a column).
SEEDED_CORPUS = (
    [dft_matrix(d) for d in (6, 8, 9, 10, 12)]
    + [_perturbed_dft(8, 1e-9, 0), _perturbed_dft(8, 1e-14, 0), _perturbed_dft(9, 1e-9, 3)]
    + [identity(d) for d in (5, 7, 9)]
    + [bronzan_rotation(t1, t2) for t1, t2 in ((0.0, 0.6), (0.0, 1.1), (0.5, 1.0))]
)


def _unseeded(monkeypatch, run):
    with monkeypatch.context() as patch:
        patch.setattr(incompat.deficiency, "_seed", lambda *args: None)
        return run()


class TestSeeds:
    """Each level of the descent starts from a seed decided up front; the
    values, tau, chi and exit codes are those of the unseeded search."""

    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-6])
    def test_outputs_equal_the_unseeded_descent(self, rank_tol, monkeypatch, tmp_path, capsys):
        path = tmp_path / "input.json"

        def results(tm):
            p = deficiency_profile(tm, rank_tol=rank_tol)
            path.write_text(save_matrix(tm.matrix))
            code = main(["analyze", "--input", str(path), "--json", "--rank-tol", str(rank_tol)])
            doc = json.loads(capsys.readouterr().out)
            return (p.r_values, p.r_row_values, p.tau, p.chi, tau_fast(tm, rank_tol=rank_tol),
                    code, doc["checks"]), p.r_col_values

        moved = []
        for i, tm in enumerate(SEEDED_CORPUS):
            (got, got_cols), (want, want_cols) = results(tm), _unseeded(monkeypatch, lambda: results(tm))
            assert got == want
            if got_cols != want_cols:
                moved.append(i)
        # r_col_values is the complement's decision of each witness, so it
        # moves with the witness where a decision is borderline: perturbed
        # dft(8) at 1e-10 (the known disagreement; at t = 0 the seed is
        # decided deficient at gap 9.0e-10 and its complement full rank).
        # levels_max_of_sides fails on it either way.
        assert moved == ([5] if rank_tol == 1e-10 else [])

    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-6])
    def test_seeded_witnesses_have_their_deficiency(self, rank_tol, monkeypatch):
        # Every seed, decided again by batch_ranks alone at its shape's
        # threshold, has the value it was taken with, and a level whose
        # witness is its seed reports that value.
        seed = incompat.deficiency._seed
        seeds = []

        def recorded(a, t, tol, candidates):
            seeds.append((t, seed(a, t, tol, candidates)))
            return seeds[-1][1]

        monkeypatch.setattr(incompat.deficiency, "_seed", recorded)
        kept = 0
        for tm in SEEDED_CORPUS:
            seeds.clear()
            p = deficiency_profile(tm, rank_tol=rank_tol)
            for t, found in seeds:
                if found is None:
                    continue
                value, sel, _ = found
                m = len(sel.rows)
                threshold = rank_threshold((m, m + t), rank_tol, 1.0)
                ((_, ranks, _),) = batch_ranks(
                    tm.matrix, np.array([sel.rows]), np.array([sel.cols]), threshold
                )
                assert m - ranks[0, 0] == value <= p.r_row_values[t]
                w = p.witnesses[t]
                row_sel = w.selector if w.side == "row" else w.selector.complement(tm.dim)
                if row_sel == sel:
                    assert p.r_row_values[t] == value
                    assert w.side == "col" or w.deficiency == value
                    kept += 1
        assert kept > 0


def _sylvester_hadamard():
    """H (x) H (x) H, d = 8: flat, but its Z_8 translations do not hold."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    return from_array(np.kron(np.kron(h, h), h))


def _phased_dft_from_json(d, seed):
    """diag(a) F diag(b), unit-modulus a and b, written and read back as JSON."""
    rng = np.random.default_rng(seed)
    a, b = (np.exp(2j * np.pi * rng.random(d)) for _ in range(2))
    return from_array(load_matrix(save_matrix(a[:, None] * dft_matrix(d).matrix * b), "json"))


def _counted(monkeypatch, module, name):
    """Wrap module.name to count its calls; return count, where count(run)
    is the number of calls that run() makes."""
    wrapped, counts = getattr(module, name), []

    def counting(*args, **kwargs):
        counts[-1] += 1
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)

    def count(run):
        counts.append(0)
        run()
        return counts[-1]

    return count


class TestCosetSeedFirst:
    """The descent skips the level-0 step where it seeds from coset blocks,
    both translations verified on a composite d >= 7, and a step that
    certifies reports what the descent would yield without it."""

    WALK_AVOIDED = [dft_matrix(d) for d in (8, 9, 10, 12, 14, 15, 16, 18, 20, 24)] + [
        _phased_dft_from_json(d, d) for d in (8, 12)
    ]
    WALK_TAKEN = [random_unitary(9, 0), dft_matrix(7), dft_matrix(11), dft_matrix(13),
                  identity(9), _sylvester_hadamard()]

    def test_walk_skipped_where_the_coset_seed_is_deficient(self, monkeypatch):
        count = _counted(monkeypatch, incompat.deficiency, "squares_full_rank")
        for tm in self.WALK_AVOIDED:
            assert count(lambda: tau_fast(tm)) == 0
            assert count(lambda: deficiency_profile(tm)) == 0
        # Haar, prime DFTs and the identity have no deficient coset seed;
        # the Hadamard is flat, so it is verified early, but holds no
        # translation, so it falls back to the step too.
        for tm in self.WALK_TAKEN:
            assert count(lambda: tau_fast(tm)) == 1
            assert count(lambda: deficiency_profile(tm)) == 1

    def test_verify_at_most_once_and_never_for_haar_tau(self, monkeypatch):
        count = _counted(monkeypatch, incompat.symmetry, "verify")
        for d in (7, 8, 9, 10):
            for seed in (0, 1):
                assert count(lambda: tau_fast(random_unitary(d, seed))) == 0
        corpus = (SEARCH_CORPUS + FRAGILE_DFTS + list(SEEDED_CORPUS) + self.WALK_AVOIDED
                  + self.WALK_TAKEN)
        for tm in corpus:
            assert count(lambda: tau_fast(tm)) <= 1
            assert count(lambda: deficiency_profile(tm)) <= 1

    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-6, 0.0], ids=["1e-10", "1e-06", "0"])
    def test_outputs_equal_the_step_first_descent(self, rank_tol, monkeypatch, tmp_path, capsys):
        # With the level-0 step never certifying, every descent searches its
        # levels: every output is the same, where the real step certifies
        # too.
        path = tmp_path / "input.json"

        def results(tm):
            p = deficiency_profile(tm, rank_tol=rank_tol)
            path.write_text(save_matrix(tm.matrix))
            code = main(["analyze", "--input", str(path), "--json", "--rank-tol", str(rank_tol)])
            doc = json.loads(capsys.readouterr().out)
            return (p.r_values, p.r_row_values, p.r_col_values, p.witnesses, p.worst_gap_ratio,
                    tau_fast(tm, rank_tol=rank_tol), code, doc["checks"])

        corpus = list(dict.fromkeys(
            list(SEEDED_CORPUS) + SEARCH_CORPUS + FRAGILE_DFTS
            + [_perturbed_dft(8, 1e-8, 8), _perturbed_dft(8, 1e-9, 0), _sylvester_hadamard()]
            + [random_unitary(7, 0), random_unitary(9, 0)]
            + [dft_matrix(d) for d in (7, 11, 13)]
        ))
        step, certified = incompat.deficiency._square_blocks_clear, []

        def recording(*args):
            certified.append(step(*args))
            return certified[-1]

        for tm in corpus:
            with monkeypatch.context() as patch:
                patch.setattr(incompat.deficiency, "_square_blocks_clear", recording)
                got = results(tm)
            with monkeypatch.context() as patch:
                patch.setattr(incompat.deficiency, "_square_blocks_clear", lambda *args: False)
                want = results(tm)
            assert got == want
        assert any(certified)


class TestTranslationGate:
    """Without a given symmetry the descent tests the two translations
    alone for its coset seeds, and verifies the whole group only when some
    m of some level is searched."""

    NEVER_SEARCHED = [dft_matrix(d) for d in (8, 9, 10, 12, 15, 16, 18, 20, 24)] + [
        _phased_dft_from_json(d, d) for d in (8, 12)
    ]

    def test_tau_fast_verifies_only_what_it_searches(self, monkeypatch):
        count = _counted(monkeypatch, incompat.symmetry, "verify")
        for tm in self.NEVER_SEARCHED:
            assert count(lambda: tau_fast(tm)) == 0
        # dft(14) refutes tau + 1 = 6 at m = 3..5, where the cap is 1.
        assert count(lambda: tau_fast(dft_matrix(14))) == 1

    def test_profile_verifies_once(self, monkeypatch):
        count = _counted(monkeypatch, incompat.symmetry, "verify")
        for tm in self.NEVER_SEARCHED + [dft_matrix(14), random_unitary(9, 0), identity(9)]:
            assert count(lambda: deficiency_profile(tm)) == 1

    def test_translation_flags_equal_verify(self):
        corpus = (
            [dft_matrix(d) for d in range(7, 25)]
            + [_phased_dft_from_json(d, d) for d in (8, 12)]
            + [_perturbed_dft(8, 1e-14, 0), _perturbed_dft(8, 1e-9, 0), _sylvester_hadamard()]
            + [random_unitary(d, 0) for d in range(7, 11)]
        )
        seen = set()
        for tm in corpus:
            sym = verify(tm.matrix, tm.residual)
            flags = incompat.symmetry.holds(
                tm.matrix, incompat.symmetry.translations(tm.dim), tm.residual
            )
            assert flags.tolist() == [sym.column_translations, sym.row_shift]
            seen.add(tuple(flags.tolist()))
        assert seen == {(True, True), (False, False)}


def test_translates_is_verify_on_both_translations():
    corpus = (
        [dft_matrix(d) for d in range(7, 25)]
        + [_phased_dft_from_json(d, d) for d in (8, 12)]
        + [_perturbed_dft(8, 1e-14, 0), _perturbed_dft(8, 1e-9, 0), _sylvester_hadamard()]
        + [random_unitary(d, 0) for d in range(7, 11)]
        + [identity(9), dft_matrix(6), dft_matrix(64)]
    )
    seen = set()
    for tm in corpus:
        sym = verify(tm.matrix, tm.residual)
        held = incompat.symmetry.translates(tm.matrix, tm.residual, tm.coherence)
        assert held == (sym.row_shift and sym.column_translations)
        seen.add(held)
    assert seen == {True, False}


COMPOSITE = [d for d in range(4, 19) if dft_chi(d) <= d]


@pytest.mark.parametrize("d", [d for d in range(2, 19) if d != 17])
def test_dft_profile_is_the_coset_formula(d):
    # Each level of the DFT is max j l over a | d and j a + l d / a <= d - t
    # (fourier.coset_blocks). Prime d: no divisor qualifies, every level 0.
    # d = 17 is left out: its level-0 step alone takes about a minute.
    p = deficiency_profile(dft_matrix(d))
    assert p.r_values == tuple(count for count, _ in coset_blocks(d))


@pytest.mark.parametrize("d", COMPOSITE)
def test_dft_support_witness_is_the_extremal_comb(d):
    # At tau the seed is the coset block with j = l = 1 and a = low, so the
    # support witness's A side is the comb of extremal_comb(d, low).
    tm = dft_matrix(d)
    w = support_at_tau(tm, deficiency_profile(tm))
    low = divisor_decomposition(d).low
    assert w.subset_a == tuple(np.flatnonzero(extremal_comb(d, low)).tolist())
