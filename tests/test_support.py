import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incompat.rank
import incompat.report
import incompat.support
from bruteforce import brute_min_support, fft_support_counts, svd_batch_ranks
from incompat import (
    DegenerateWitnessError,
    DimensionCapError,
    InvalidParameterError,
    ZeroVectorError,
    analyze_transition,
    bronzan_rotation,
    deficiency_profile,
    dft_matrix,
    from_array,
    identity,
    min_support_uncertainty,
    qubit_rotation,
    random_unitary,
    support_at_tau,
    support_counts,
)
from incompat.matrices import SubmatrixSelector
from incompat.rank import DEFAULT_ZERO_THRESHOLD
from incompat.rank import _square_minors as square_minors
from incompat.rank import batch_ranks, kernel_witness, rank_threshold, strong_minors
from incompat.support import _build_witness as build_witness
from incompat.report import extremal_checks, profile_shape_checks
from test_rank import FRAGILE_DFTS, SEARCH_CORPUS, _perturbed_dft

# Brute-force subset-search minima for the DFT, frozen from the independent
# span-intersection oracle in bruteforce.py; they equal the most balanced
# divisor sum in every case.
DFT_MIN_SUPPORT = {2: 3, 3: 4, 4: 4, 5: 6, 6: 5, 7: 8}


def basis_state(d, j):
    e = np.zeros(d, dtype=complex)
    e[j] = 1.0
    return e


class TestSupportCounts:
    def test_basis_state_in_identity(self):
        assert support_counts(basis_state(6, 0), identity(6)) == (1, 1, 2)

    @pytest.mark.parametrize("d", [2, 5, 6])
    def test_delta_has_full_transform_support(self, d):
        assert support_counts(basis_state(d, 0), dft_matrix(d)) == (1, d, d + 1)

    def test_comb_on_six(self):
        comb = np.zeros(6, dtype=complex)
        comb[[0, 3]] = 1 / math.sqrt(2)
        assert support_counts(comb, dft_matrix(6)) == (2, 3, 5)
        assert fft_support_counts(comb) == (2, 3)

    def test_zero_state_rejected(self):
        with pytest.raises(ZeroVectorError):
            support_counts(np.zeros(3), identity(3))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            support_counts(np.ones(4), identity(3))

    def test_threshold_is_respected(self):
        state = np.array([1.0, 1e-9, 0.0], dtype=complex)
        n_a, _, _ = support_counts(state, identity(3), zero_threshold=1e-8)
        assert n_a == 1
        n_a, _, _ = support_counts(state, identity(3), zero_threshold=1e-10)
        assert n_a == 2


class TestMinSupportUncertainty:
    def test_identity_six(self):
        w = min_support_uncertainty(identity(6))
        assert w.n_ab == 2
        assert (w.subset_a, w.subset_b) == ((0,), (0,))
        assert np.allclose(w.state_in_a, basis_state(6, 0))

    @pytest.mark.parametrize("d,expected", sorted(DFT_MIN_SUPPORT.items()))
    def test_dft_minima(self, d, expected):
        assert min_support_uncertainty(dft_matrix(d)).n_ab == expected

    @pytest.mark.parametrize(
        "tm",
        [identity(4), dft_matrix(4), dft_matrix(5), dft_matrix(6),
         qubit_rotation(0.3, 0.1, 0.2), random_unitary(5, 3)]
        + [random_unitary(d, s) for d in (2, 3, 4) for s in (0, 5)],
        ids=lambda tm: f"d{tm.dim}",
    )
    def test_matches_independent_span_oracle(self, tm):
        # The span-stacking oracle re-proves both halves of minimality: the
        # returned pair intersects and no smaller subset-size sum does.
        assert min_support_uncertainty(tm).n_ab == brute_min_support(tm.matrix)

    @pytest.mark.parametrize(
        "tm",
        [identity(5), dft_matrix(6), bronzan_rotation(0.4, 0.9), random_unitary(5, 3)],
        ids=lambda tm: f"d{tm.dim}",
    )
    def test_witness_self_consistency(self, tm):
        w = min_support_uncertainty(tm)
        assert support_counts(w.state_in_a, tm) == (w.n_a, w.n_b, w.n_ab)
        assert 2 <= w.n_ab <= tm.dim + 1
        assert np.isclose(np.linalg.norm(w.state_in_a), 1.0)

    def test_witness_deterministic_across_calls(self):
        tm = dft_matrix(6)
        a = min_support_uncertainty(tm)
        b = min_support_uncertainty(tm)
        assert (a.subset_a, a.subset_b) == (b.subset_a, b.subset_b)
        assert np.array_equal(a.state_in_a, b.state_in_a)

    @pytest.mark.parametrize(
        "tm,subset_a,subset_b",
        [
            (dft_matrix(6), (0, 2, 4), (0, 3)),
            (dft_matrix(8), (0, 2, 4, 6), (0, 4)),
            (dft_matrix(9), (0, 3, 6), (0, 3, 6)),
            (bronzan_rotation(math.pi / 5, math.pi / 7), (0, 1), (1,)),
        ],
    )
    def test_witness_subsets_pinned(self, tm, subset_a, subset_b):
        # The first hit in the documented search order.
        w = min_support_uncertainty(tm)
        assert (w.subset_a, w.subset_b) == (subset_a, subset_b)

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapError):
            min_support_uncertainty(identity(11))
        with pytest.raises(DimensionCapError):
            min_support_uncertainty(identity(4), max_dim=3)
        assert min_support_uncertainty(identity(11), max_dim=11).n_ab == 2

    @pytest.mark.parametrize("max_dim", [0, -1])
    def test_cap_below_one_rejected(self, max_dim):
        with pytest.raises(InvalidParameterError, match="max_dim"):
            min_support_uncertainty(identity(1), max_dim=max_dim)

    def test_d1(self):
        w = min_support_uncertainty(identity(1))
        assert w.n_ab == 2 and w.n_a == w.n_b == 1


def _oracle_result(tm, rank_tol):
    """Everything the oracle returns, or its error text."""
    try:
        w = min_support_uncertainty(tm, rank_tol=rank_tol)
    except DegenerateWitnessError as exc:
        return str(exc)
    return w.n_ab, w.subset_a, w.subset_b, w.state_in_a.tobytes()


def _sequential_result(tm, rank_tol):
    """_oracle_result by the search's documented order alone: s from 2, n_b
    ascending, then A subsets and B subsets lexicographic, one A subset at
    a time, every block decided by svd_batch_ranks at its threshold, with
    neither the square level nor the screen. The witness is rebuilt from
    the first hit as the oracle rebuilds it."""
    a, d = tm.matrix, tm.dim
    try:
        for s in range(2, d + 2):
            for nb in range(1, s):
                na = s - nb
                if na == d:
                    w = build_witness(
                        tm, tuple(range(d)), (0,), np.ones(1, dtype=complex), DEFAULT_ZERO_THRESHOLD
                    )
                    return w.n_ab, w.subset_a, w.subset_b, w.state_in_a.tobytes()
                col_sets = np.array(list(itertools.combinations(range(d), nb)))
                threshold = rank_threshold((d - na, nb), rank_tol, 1.0)
                for subset_a in itertools.combinations(range(d), na):
                    rows = [j for j in range(d) if j not in subset_a]
                    hits = np.flatnonzero(svd_batch_ranks(a, [rows], col_sets, threshold)[0][0] < nb)
                    if hits.size:
                        subset_b = tuple(col_sets[hits[0]].tolist())
                        sel = SubmatrixSelector(rows, subset_b)
                        y = kernel_witness(a, "right", sel, tol=rank_tol, scale=1.0).coefficients
                        w = build_witness(tm, subset_a, subset_b, y, DEFAULT_ZERO_THRESHOLD)
                        return w.n_ab, w.subset_a, w.subset_b, w.state_in_a.tobytes()
    except DegenerateWitnessError as exc:
        return str(exc)
    raise AssertionError("unreachable: the search terminates by s = d + 1")


def _counted_blocks(monkeypatch):
    """Wrap the oracle's rank step; return the list of its batch sizes."""
    batches = []

    def counted(a, row_sets, col_sets, threshold):
        for rows, ranks, gaps in batch_ranks(a, row_sets, col_sets, threshold):
            batches.append(ranks.size)
            yield rows, ranks, gaps

    monkeypatch.setattr(incompat.support, "batch_ranks", counted)
    return batches


class TestSquareLevelFirst:
    """The s = d level, decided first with each square at the threshold of
    the pairs' blocks inside it, certifies that no smaller s can hit."""

    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-6, 1e-4])
    def test_certificate_changes_no_result(self, rank_tol, monkeypatch):
        haar = [random_unitary(d, seed) for d in range(2, 9) for seed in (0, 1)]
        corpus = SEARCH_CORPUS + FRAGILE_DFTS + haar
        want = [_oracle_result(tm, rank_tol) for tm in corpus]
        cleared = sum(incompat.support._square_level_clear(tm, rank_tol) for tm in corpus)
        monkeypatch.setattr(incompat.support, "_square_level_clear", lambda *args: False)
        assert [_oracle_result(tm, rank_tol) for tm in corpus] == want
        assert cleared >= 30

    def test_clears_generic_input_at_a_coarse_tolerance(self):
        # Each n x n square is decided at tol * n, the threshold of every
        # pair's block inside it: at tol * (d - 1) for every n this input was
        # declined, though no pair with s <= d hits.
        tm = random_unitary(6, 8)
        assert incompat.support._square_level_clear(tm, 1e-3)
        assert min_support_uncertainty(tm, rank_tol=1e-3).n_ab == 7

    @pytest.mark.parametrize("d", [4, 6, 8])
    def test_declined_input_hits_at_the_square_level_or_below(self, d):
        tm = dft_matrix(d)
        assert not incompat.support._square_level_clear(tm, 1e-10)
        assert min_support_uncertainty(tm).n_ab <= d

    def test_generic_input_decides_only_the_square_level(self, monkeypatch):
        batches = _counted_blocks(monkeypatch)
        monkeypatch.setattr(incompat.rank, "batch_ranks", incompat.support.batch_ranks)
        minors = []

        def counted(*args):
            for item in square_minors(*args):
                minors.append(item[2].size)
                yield item

        monkeypatch.setattr(incompat.rank, "_square_minors", counted)
        assert min_support_uncertainty(random_unitary(8, 0), rank_tol=1e-10).n_ab == 9
        assert sum(minors) == math.comb(16, 8) - 2
        assert batches == []

    def test_refused_cap_decides_no_block(self, monkeypatch):
        batches = _counted_blocks(monkeypatch)
        with pytest.raises(DimensionCapError):
            min_support_uncertainty(random_unitary(5, 0), max_dim=4)
        assert batches == []


def _dft_product(*dims):
    """DFT(n_1) kron DFT(n_2) kron ..."""
    return from_array(functools.reduce(np.kron, [dft_matrix(n).matrix for n in dims]))


# Inputs of d >= 8, whose levels outgrow one batch: DFTs and their products
# have deficient blocks, so the square level does not clear and the levels
# below it are screened by their square minors.
TALL_CORPUS = (
    [dft_matrix(d) for d in (8, 9, 10)]
    + [_dft_product(2, 4), _dft_product(3, 3), _dft_product(2, 2, 2)]
    + [_perturbed_dft(d, eps, 0) for d in (8, 9) for eps in (1e-12, 1e-9, 1e-6)]
)


def _check_certified_blocks(tm, rank_tol):
    """Check that every block the subset search's minor screen certifies,
    on every level with s <= d, has rank n_b under the SVD at its level's
    threshold; return (blocks certified, blocks screened)."""
    d = tm.dim
    screen = incompat.support._Screen(tm, rank_tol)
    certified_count = total = 0
    for r in range(1, d):
        row_sets = np.array(list(itertools.combinations(range(d), r)))
        for nb in range(1, r + 1):
            col_sets = np.array(list(itertools.combinations(range(d), nb)))
            certified = ~screen.weak(r, nb)
            threshold = rank_threshold((r, nb), rank_tol, 1.0)
            ranks, _ = svd_batch_ranks(tm.matrix, row_sets, col_sets, threshold)
            assert (ranks[certified] == nb).all()
            certified_count += certified.sum()
            total += certified.size
    return certified_count, total


def _family(family, d, seed, eps):
    """One input of a named family; d is ignored by the fixed-size ones."""
    angles = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)
    return {
        "identity": lambda: identity(d),
        "bronzan": lambda: bronzan_rotation(angles[seed % 5], angles[seed // 5 % 5]),
        "qubit": lambda: qubit_rotation((0.0, 1e-160, eps, 0.3, math.pi / 2)[seed % 5]),
        "haar": lambda: random_unitary(d, seed),
        "dft": lambda: dft_matrix(d),
        "perturbed": lambda: _perturbed_dft(d, eps, seed),
    }[family]()


class TestTallBlockCertificate:
    """Every level with s <= d sends to batch_ranks only the blocks that
    none of their square row sub-blocks certifies."""

    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-6, 1e-4])
    def test_certificate_changes_no_result(self, rank_tol, monkeypatch):
        walks = []

        def counted(*args):
            walks.append(args[1])
            return strong_minors(*args)

        monkeypatch.setattr(incompat.support, "strong_minors", counted)
        screened = 0
        for tm in TALL_CORPUS:
            before = len(walks)
            assert _oracle_result(tm, rank_tol) == _sequential_result(tm, rank_tol)
            screened += len(walks) > before
        assert screened >= 9

    @pytest.mark.parametrize("d,n_ab,blocks", [(8, 6, 8), (9, 6, 9), (10, 7, 10)])
    def test_dft_decides_few_blocks_from_one_walk(self, d, n_ab, blocks, monkeypatch):
        # 7,904 / 18,867 / 64,510 blocks with no screen.
        batches = _counted_blocks(monkeypatch)
        walks, tables = [], []

        def walked(*args):
            walks.append(args[1])
            return square_minors(*args)

        def counted(*args):
            tables.append(args[1])
            return strong_minors(*args)

        monkeypatch.setattr(incompat.rank, "_square_minors", walked)
        monkeypatch.setattr(incompat.support, "strong_minors", counted)
        assert min_support_uncertainty(dft_matrix(d)).n_ab == n_ab
        assert sum(batches) == blocks
        # The square level's walk to d - 1, then the screen's one walk, to
        # d // 2; its size 1 table is read off the entries without a walk.
        assert walks == [d - 1, d // 2]
        assert tables == [1, d // 2]

    @given(
        st.sampled_from(["identity", "bronzan", "qubit", "haar", "dft", "perturbed"]),
        st.integers(1, 7),
        st.integers(0, 2**16),
        st.sampled_from([1e-12, 1e-9, 1e-6]),
        st.sampled_from([1e-10, 1e-6]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_sequential_search(self, family, d, seed, eps, rank_tol):
        tm = _family(family, d, seed, eps)
        assert _oracle_result(tm, rank_tol) == _sequential_result(tm, rank_tol)

    def test_dft9_decides_few_blocks(self, monkeypatch):
        # 18,867 blocks when every level of dft(9) went to batch_ranks whole.
        batches = _counted_blocks(monkeypatch)
        assert min_support_uncertainty(dft_matrix(9)).n_ab == 6
        assert 0 < sum(batches) <= 1000

    @given(
        st.sampled_from(["haar", "dft", "perturbed"]),
        st.integers(2, 8),
        st.integers(0, 2**16),
        st.sampled_from([1e-12, 1e-9, 1e-6, 1e-4, 1e-2]),
        st.sampled_from([1e-10, 1e-6]),
    )
    @settings(max_examples=30, deadline=None)
    def test_certified_blocks_have_full_rank(self, family, d, seed, eps, rank_tol):
        tm = {
            "haar": lambda: random_unitary(d, seed),
            "dft": lambda: dft_matrix(d),
            "perturbed": lambda: _perturbed_dft(d, eps, seed),
        }[family]()
        _check_certified_blocks(tm, rank_tol)

    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-6])
    @pytest.mark.parametrize(
        "tm", [dft_matrix(9), _dft_product(3, 3), _perturbed_dft(9, 1e-9, 0)],
        ids=["dft9", "dft3xdft3", "perturbed_dft9"],
    )
    def test_certified_blocks_have_full_rank_at_d9(self, tm, rank_tol):
        # Structured inputs of a screened size: most blocks are certified.
        certified, total = _check_certified_blocks(tm, rank_tol)
        assert certified > total / 2

    def test_memory_stays_bounded(self):
        # The walk's slices, its strong tables (sum_m C(10, m)^2 bytes up to
        # the walk's size) and one chunk of a level's screen at a time.
        tm = dft_matrix(10)
        min_support_uncertainty(tm)
        tracemalloc.start()
        try:
            assert min_support_uncertainty(tm).n_ab == 7
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20


def _oracle_or_degenerate(tm, rank_tol):
    try:
        return min_support_uncertainty(tm, rank_tol=rank_tol)
    except DegenerateWitnessError:
        return None


class TestSupportAtTau:
    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-6])
    def test_agrees_with_the_subset_search(self, rank_tol):
        # Where both witnesses rebuild, both routes reach the same minimum.
        # The tau witness fails to rebuild only where the oracle's does too,
        # or where the profile fails its own checks: in perturbed_dft(8, 1e-9)
        # at 1e-10 the tau block (sigma_min 5.6e-10, threshold 6e-10) and its
        # complement (threshold 3e-10) are decided apart.
        compared = 0
        for tm in SEARCH_CORPUS + FRAGILE_DFTS:
            oracle = _oracle_or_degenerate(tm, rank_tol)
            profile = deficiency_profile(tm, rank_tol=rank_tol)
            try:
                w = support_at_tau(tm, profile, rank_tol=rank_tol)
            except DegenerateWitnessError:
                checks = profile_shape_checks(profile)
                checks.update(extremal_checks(tm, profile, rank_tol=rank_tol))
                assert oracle is None or not all(checks.values())
                continue
            assert w.n_ab == profile.chi
            assert support_counts(w.state_in_a, tm) == (w.n_a, w.n_b, w.n_ab)
            if oracle is not None:
                assert oracle.n_ab == w.n_ab
                compared += 1
        assert compared >= 40

    @pytest.mark.parametrize(
        "tm,subset_a,subset_b",
        [
            (identity(6), (0,), (0,)),
            (dft_matrix(6), (0, 3), (1, 3, 5)),
            (dft_matrix(5), (0, 1, 2, 3, 4), (0,)),
        ],
    )
    def test_witness_comes_from_the_tau_block(self, tm, subset_a, subset_b):
        w = support_at_tau(tm, deficiency_profile(tm))
        assert (w.subset_a, w.subset_b) == (subset_a, subset_b)
        assert np.isclose(np.linalg.norm(w.state_in_a), 1.0)

    @pytest.mark.parametrize(
        "tm,sides",
        [(identity(6), ["left", "right"]), (dft_matrix(6), ["left", "right"]),
         (dft_matrix(8), ["left", "right"]), (dft_matrix(5), [])],
        ids=["identity6", "dft6", "dft8", "dft5"],
    )
    def test_analyze_decides_the_tau_kernel_once(self, tm, sides, monkeypatch):
        # One left kernel of the tau block, shared by the support witness and
        # the extremal checks, and one right kernel of its complement.
        profile = deficiency_profile(tm)
        alone = support_at_tau(tm, profile), extremal_checks(tm, profile)
        calls = []

        def counted(matrix, side, selector, **kwargs):
            calls.append(side)
            return kernel_witness(matrix, side, selector, **kwargs)

        monkeypatch.setattr(incompat.support, "kernel_witness", counted)
        monkeypatch.setattr(incompat.report, "kernel_witness", counted)
        report = analyze_transition(tm, {})
        assert sorted(calls) == sides
        assert report.checks.items() >= alone[1].items()
        assert np.array_equal(report.support.state_in_a, alone[0].state_in_a)
        assert report.support.subset_a == alone[0].subset_a
        assert report.support.subset_b == alone[0].subset_b


class TestCrossCheck:
    """analyze_transition with oracle_cap runs the subset search as a
    cross-check of chi; support_matches_deficiency records the verdict."""

    @pytest.mark.parametrize("seed", range(20))
    def test_twenty_random_d4_agree(self, seed):
        report = analyze_transition(random_unitary(4, seed), {}, oracle_cap=4)
        assert report.checks["support_matches_deficiency"]
        assert report.all_checks_pass
        assert report.support.n_ab == report.profile.chi

    def test_identity_six(self):
        report = analyze_transition(identity(6), {}, oracle_cap=6)
        verdict = report.checks["support_matches_deficiency"]
        assert (report.profile.chi, report.support.n_ab, verdict) == (2, 2, True)

    def test_bronzan_boundary(self):
        report = analyze_transition(bronzan_rotation(0.0, math.pi / 7), {}, oracle_cap=3)
        verdict = report.checks["support_matches_deficiency"]
        assert (report.profile.chi, report.support.n_ab, verdict) == (2, 2, True)

    @pytest.mark.parametrize("d", [7, 8])
    def test_structured_families_at_larger_dimension(self, d):
        assert analyze_transition(identity(d), {}, oracle_cap=d).all_checks_pass
        assert analyze_transition(dft_matrix(d), {}, oracle_cap=d).all_checks_pass

    def test_check_only_with_oracle_cap(self):
        assert "support_matches_deficiency" not in analyze_transition(identity(3), {}).checks

    def test_cap_refused_before_the_level_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the level search ran")

        monkeypatch.setattr(incompat.report, "deficiency_profile", refuse)
        with pytest.raises(DimensionCapError):
            analyze_transition(dft_matrix(5), {}, oracle_cap=4)

    def test_degenerate_oracle_witness_fails_the_check(self, monkeypatch):
        def degenerate(*args, **kwargs):
            raise DegenerateWitnessError("near-degenerate")

        monkeypatch.setattr(incompat.report, "min_support_uncertainty", degenerate)
        report = analyze_transition(dft_matrix(4), {}, oracle_cap=4)
        assert report.checks["support_matches_deficiency"] is False
        assert report.support.n_ab == report.profile.chi == 4


class TestDonohoStarkProduct:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_dft_witness_product_at_least_d(self, d):
        w = min_support_uncertainty(dft_matrix(d))
        assert w.n_a * w.n_b >= d
