import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incompat.deficiency
from bruteforce import brute_profile, brute_r_row
from incompat import (
    SubmatrixSelector,
    bronzan_rotation,
    deficiency_profile,
    dft_matrix,
    from_array,
    identity,
    qubit_rotation,
    r_col,
    r_row,
    r_t,
    random_unitary,
    tau_fast,
)
from incompat.report import extremal_checks, profile_shape_checks

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
