"""The symmetry-reduced level search against the unreduced one.

The unreduced search is the same code with symmetry.least_sets replaced by
the whole lex_sets table, so every row set and column set is decided. The
verified symmetry still picks the descent's seeds, so both searches start
each level from the same seed.
"""

import dataclasses
import inspect
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incompat.deficiency
import incompat.symmetry
from incompat import (
    DegenerateWitnessError,
    deficiency_profile,
    dft_matrix,
    from_array,
    identity,
    min_support_uncertainty,
    r_col,
    r_row,
    r_t,
    random_unitary,
    tau_fast,
)
from incompat.rank import TABLE_CACHE_ENTRIES, _drop_ranks, batch_ranks, lex_sets
from incompat.symmetry import _least_sets, may_translate, orbit_least, verify
from test_rank import _perturbed_dft
from test_support import TALL_CORPUS

TABLE_CACHES = (lex_sets, _drop_ranks, _least_sets)

REDUCED_FIELDS = ("row_group_order", "column_translations", "worst_gap_ratio")


def unreduced(monkeypatch, run):
    with monkeypatch.context() as patch:
        patch.setattr(incompat.symmetry, "least_sets", lambda d, k, *group: lex_sets(d, k))
        return run()


def outputs(profile):
    """Every profile field the reduction must leave as it is."""
    return [
        getattr(profile, f.name)
        for f in dataclasses.fields(profile)
        if f.name not in REDUCED_FIELDS
    ]


def affine_order(d):
    return d * sum(math.gcd(u, d) == 1 for u in range(d))


def random_phases(rng, d):
    return np.exp(2j * np.pi * rng.random(d))


class TestReducedSearch:
    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-6, 1e-4])
    def test_dft_outputs_equal_the_unreduced_search(self, rank_tol, monkeypatch):
        for d in range(2, 13):
            tm = dft_matrix(d)
            got = deficiency_profile(tm, rank_tol=rank_tol)
            want = unreduced(monkeypatch, lambda: deficiency_profile(tm, rank_tol=rank_tol))
            assert outputs(got) == outputs(want)
            assert got.worst_gap_ratio <= want.worst_gap_ratio
            tau = tau_fast(tm, rank_tol=rank_tol)
            assert tau == got.tau == unreduced(monkeypatch, lambda: tau_fast(tm, rank_tol=rank_tol))
            # Below MIN_REDUCED_DIM = 7 nothing is verified.
            assert got.row_group_order == (affine_order(d) if d > 6 else 1)
            assert got.column_translations == (d > 6)

    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-6])
    def test_level_functions_equal_the_unreduced_search(self, rank_tol, monkeypatch):
        # r_row, r_col and r_t search with the verified symmetry too. The
        # three make the same search at each t, so the unreduced one is run
        # once for all three (dft(11) takes about 4 s a pass over t).
        search = incompat.deficiency._max_row_deficiency
        for tm in [dft_matrix(d) for d in range(2, 13)] + [random_unitary(9, 0)]:
            for t in range(tm.dim):
                levels = lambda: [f(tm, t, rank_tol=rank_tol) for f in (r_row, r_col, r_t)]
                got, memo = levels(), []

                def search_once(*args, **kwargs):
                    if not memo:
                        memo.append(search(*args, **kwargs))
                    return memo[0]

                with monkeypatch.context() as patch:
                    patch.setattr(incompat.deficiency, "_max_row_deficiency", search_once)
                    assert got == unreduced(monkeypatch, levels)

    def test_phase_scaled_dft_keeps_the_dft_witnesses(self):
        rng = np.random.default_rng(5)
        for d in (8, 9, 10, 12):
            f = dft_matrix(d)
            tm = from_array(random_phases(rng, d)[:, None] * f.matrix * random_phases(rng, d))
            got, want = deficiency_profile(tm), deficiency_profile(f)
            assert (got.row_group_order, got.column_translations) == (affine_order(d), True)
            assert got.r_values == want.r_values
            assert got.witnesses == want.witnesses
            assert tau_fast(tm) == want.tau

    @pytest.mark.parametrize(
        "tm,rank_tol",
        [
            (_perturbed_dft(12, 1e-9, 12), 1e-6),
            (_perturbed_dft(8, 1e-9, 0), 1e-10),
            (random_unitary(9, 2), 1e-10),
            (identity(7), 1e-10),
            (identity(9), 1e-10),
        ],
        ids=["perturbed_dft12", "perturbed_dft8", "haar9", "identity7", "identity9"],
    )
    def test_no_map_verified_outputs_bitwise_equal(self, tm, rank_tol, monkeypatch):
        got = deficiency_profile(tm, rank_tol=rank_tol)
        want = unreduced(monkeypatch, lambda: deficiency_profile(tm, rank_tol=rank_tol))
        assert (got.row_group_order, got.column_translations) == (1, False)
        assert dataclasses.astuple(got) == dataclasses.astuple(want)
        assert tau_fast(tm, rank_tol=rank_tol) == want.tau

    def test_identity_eight_keeps_its_unit_maps(self, monkeypatch):
        # Every unit u mod 8 has u^2 = 1, so j -> u j, k -> u^-1 k = u k
        # maps the identity to itself: a genuine symmetry, verified.
        tm = identity(8)
        got = deficiency_profile(tm)
        want = unreduced(monkeypatch, lambda: deficiency_profile(tm))
        assert (got.row_group_order, got.column_translations) == (4, False)
        assert outputs(got) == outputs(want)
        assert got.worst_gap_ratio <= want.worst_gap_ratio

    def test_reduced_search_decides_fewer_blocks(self, monkeypatch):
        blocks = []

        def counted(a, row_sets, col_sets, threshold, first_rows=None):
            for rows, ranks, gaps in batch_ranks(a, row_sets, col_sets, threshold, first_rows):
                blocks[-1] += ranks.size
                yield rows, ranks, gaps

        monkeypatch.setattr(incompat.deficiency, "batch_ranks", counted)
        # r_row takes no seed, so its search of dft(12) at tau = 5 still
        # decides blocks; the seeded descent decides none there.
        tm = dft_matrix(12)
        blocks.append(0)
        assert r_row(tm, 5)[0] == 1
        blocks.append(0)
        assert unreduced(monkeypatch, lambda: r_row(tm, 5))[0] == 1
        assert 0 < 10 * blocks[0] < blocks[1]

    def test_scaled_dft_verifies(self):
        # A real scale factor changes no phase ratio: the maps hold exactly.
        tm = from_array(dft_matrix(9).matrix * (1 + 1e-9))
        sym = verify(tm.matrix, tm.residual)
        assert (sym.row_order, sym.column_translations) == (54, True)

    def test_one_entry_off_breaks_the_maps_through_it(self):
        a = dft_matrix(8).matrix.copy()
        a[3, 5] *= np.exp(1e-9j)
        sym = verify(a, 0.0)
        assert (sym.row_order, sym.column_translations) == (1, False)

    @pytest.mark.parametrize("d", [7, 8, 9, 12])
    def test_row_group_is_the_affine_group(self, d):
        # Every j -> u j + b, u a unit mod d, in the rows; every translation
        # in the columns.
        sym = verify(dft_matrix(d).matrix, 0.0)
        assert sym.dilations == tuple(u for u in range(1, d) if math.gcd(u, d) == 1)
        assert sym.row_shift and sym.column_translations
        assert sym.row_order == len(affine_group(d, sym.dilations, True))


def brute_orbit_least(sets, gens):
    """Whether each set is least in its orbit, by closing the orbit under gens."""
    least = []
    for s in sets:
        orbit, frontier = {tuple(s)}, [tuple(s)]
        while frontier:
            fresh = []
            for x in frontier:
                for g in gens:
                    y = tuple(sorted(int(g[i]) for i in x))
                    if y not in orbit:
                        orbit.add(y)
                        fresh.append(y)
            frontier = fresh
        least.append(min(orbit) == tuple(s))
    return np.array(least)


def affine_group(d, units, shift):
    """The maps j -> u j + b, u in the subgroup the units generate and b in
    Z_d when shift (b = 0 otherwise), one permutation per row."""
    ident = np.arange(d)
    offsets = ident if shift else ident[:1]
    dilations = incompat.symmetry._subgroup(tuple(units), d)
    return np.array([(u * ident + b) % d for u in dilations for b in offsets])


@given(
    st.integers(2, 10),
    st.integers(1, 10),
    st.booleans(),
    st.lists(st.integers(2, 9), max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_orbit_least_matches_brute_force(d, m, shift, picks):
    m = min(m, d)
    units = [u for u in picks if u < d and math.gcd(u, d) == 1]
    dilations = incompat.symmetry._subgroup(tuple(units), d)
    ident = np.arange(d)
    gens = [(ident + 1) % d] if shift else []
    gens += [u * ident % d for u in units]
    sets = np.array(list(itertools.combinations(range(d), m)))
    got = orbit_least(sets, d, dilations, shift)
    assert np.array_equal(got, brute_orbit_least(sets, gens or [ident]))


def test_orbit_least_holds_at_the_largest_dimension():
    # At d = 62, the largest verify proposes maps for, the rotated codes
    # reach bit 61: each set against its images under every map, explicitly.
    d = 62
    units = tuple(u for u in range(1, d) if math.gcd(u, d) == 1)
    rng = np.random.default_rng(62)
    sets = [np.arange(k) for k in (1, 2, 31, 61)] + [np.arange(d - k, d) for k in (1, 2, 31, 61)]
    sets += [np.sort(rng.choice(d, k, replace=False)) for k in (1, 2, 31, 61) for _ in range(3)]
    for dilations, shift in ((units, True), (units, False), ((1,), True)):
        perms = affine_group(d, dilations, shift)
        for s in sets:
            least = min(tuple(sorted(p[s].tolist())) for p in perms) == tuple(s.tolist())
            assert orbit_least(s[None], d, dilations, shift)[0] == least
    assert orbit_least(np.arange(31)[None], d, units, True)[0]


@pytest.mark.parametrize("d,m", [(8, 3), (12, 3), (12, 8)])
def test_least_rows_are_taken_in_order(d, m):
    sym = verify(dft_matrix(d).matrix, 0.0)
    sets = np.array(list(itertools.combinations(range(d), m)))
    want = sets[orbit_least(sets, d, sym.dilations, sym.row_shift)]
    assert np.array_equal(sym.least_rows(m), want)
    want = sets[orbit_least(sets, d, (1,), sym.column_translations)]
    assert np.array_equal(sym.least_cols(m), want)


@pytest.mark.parametrize("d", range(7, 17))
def test_cached_representatives_equal_the_filtered_table(d):
    # The verified DFT group and, for d = 8, the identity's smaller one (its
    # unit maps, no translation): each is its own key. Tables over the
    # cache bound are filtered whole, per call.
    inputs = [dft_matrix(d)] + ([identity(8)] if d == 8 else [])
    for sym in [verify(tm.matrix, tm.residual) for tm in inputs]:
        assert sym.row_order > 1
        for k in range(1, d + 1):
            sets = np.array(list(itertools.combinations(range(d), k)))
            rows, cols = sym.least_rows(k), sym.least_cols(k)
            small = k * math.comb(d, k) <= TABLE_CACHE_ENTRIES
            want = sets[orbit_least(sets, d, sym.dilations, sym.row_shift)]
            assert np.array_equal(rows, want)
            want = sets[orbit_least(sets, d, (1,), sym.column_translations)]
            assert np.array_equal(cols, want)
            assert (sym.least_cols(k) is cols) == small
            assert (sym.least_rows(k) is rows) == small
            for table in (rows, cols):
                assert not small or not table.flags.writeable


def _clear_tables():
    for table in TABLE_CACHES:
        table.cache_clear()


def _all_outputs(tm, rank_tol):
    """The profile, tau and, for d <= 10, the oracle's hit and state or why
    it could not rebuild one."""
    out = [dataclasses.astuple(deficiency_profile(tm, rank_tol=rank_tol))]
    out.append(tau_fast(tm, rank_tol=rank_tol))
    if tm.dim <= 10:
        try:
            w = min_support_uncertainty(tm, rank_tol=rank_tol)
            out.append((w.subset_a, w.subset_b, w.state_in_a.tobytes()))
        except DegenerateWitnessError as exc:
            out.append(str(exc))
    return out


@pytest.mark.parametrize("rank_tol", [1e-10, 1e-6])
def test_cold_and_warm_tables_give_the_same_outputs(rank_tol):
    for tm in list(TALL_CORPUS) + [dft_matrix(d) for d in (10, 12, 14)]:
        _clear_tables()
        cold = _all_outputs(tm, rank_tol)
        assert _all_outputs(tm, rank_tol) == cold


def _held_by_table_builders(run):
    """Bytes still held after run() that the builders of TABLE_CACHES
    allocated during it, traced with every one of those caches empty at the
    start."""
    builders = [table.__wrapped__ for table in TABLE_CACHES]
    spans = []
    for f in builders:
        lines, start = inspect.getsourcelines(f)
        spans.append((inspect.getsourcefile(f), start, start + len(lines)))
    _clear_tables()
    tracemalloc.start()
    try:
        run()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    return sum(
        trace.size for trace in snapshot.traces
        if any(frame.filename == path and lo <= frame.lineno < hi
               for frame in trace.traceback[:1] for path, lo, hi in spans)
    )


def test_table_caches_hold_a_bounded_number_of_bytes():
    # Each of the three caches holds at most 32 tables of TABLE_CACHE_ENTRIES
    # entries, 1 MiB; this run fills two of them and holds at most 2 MiB in
    # all. The prime DFTs 17 and 19
    # are left out: their level-0 walk alone takes a minute and more, and it
    # reads only lex_sets and the drop ranks.
    def run():
        for d in [d for d in range(2, 21) if d not in (17, 19)]:
            tau_fast(dft_matrix(d))
        for d in range(2, 11):
            min_support_uncertainty(dft_matrix(d))

    held = _held_by_table_builders(run)
    assert 0 < held <= 2 * 2**20
    # The caches of lex_sets and the drop ranks are full: the bound holds at
    # capacity.
    assert [table.cache_info().currsize for table in TABLE_CACHES[:2]] == [32, 32]


class TestMayTranslate:
    """may_translate is false only where verify cannot keep both
    translations, so a descent that skips verify there loses nothing."""

    def test_true_wherever_both_translations_hold(self):
        rng = np.random.default_rng(7)
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
        inputs = (
            [dft_matrix(d) for d in range(7, 25)]
            + [from_array(random_phases(rng, d)[:, None] * dft_matrix(d).matrix
                          * random_phases(rng, d)) for d in (8, 9, 12)]
            + [from_array(dft_matrix(9).matrix * (1 + 1e-9))]
            + [_perturbed_dft(d, eps, 0) for d in (8, 12) for eps in (1e-15, 1e-14, 1e-13, 1e-9)]
            + [from_array(np.kron(np.kron(h, h), h)), identity(8), random_unitary(9, 0)]
        )
        held = 0
        for tm in inputs:
            sym = verify(tm.matrix, tm.residual)
            if sym.row_shift and sym.column_translations:
                assert may_translate(tm.dim, float(np.abs(tm.matrix).max()), tm.residual)
                held += 1
        assert held >= 22

    def test_false_off_flat_input_and_outside_verify_range(self):
        for d in (7, 8, 9, 10):
            for seed in (0, 1):
                tm = random_unitary(d, seed)
                assert not may_translate(d, float(np.abs(tm.matrix).max()), tm.residual)
        assert not may_translate(9, 1.0, 0.0)  # identity(9)
        # Flat, but verify proposes nothing below MIN_REDUCED_DIM or above 62.
        assert not may_translate(6, 1 / math.sqrt(6), 0.0)
        assert not may_translate(64, 1 / 8, 0.0)
        # One entry of dft(8) 1e-9 larger in modulus: just off flat, and no
        # translation holds through it either.
        a = dft_matrix(8).matrix.copy()
        a[0, 0] *= 1 + 1e-9
        tm = from_array(a)
        assert not may_translate(8, float(np.abs(a).max()), tm.residual)
        sym = verify(a, tm.residual)
        assert not (sym.row_shift or sym.column_translations)
