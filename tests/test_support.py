import math

import numpy as np
import pytest

from bruteforce import brute_min_support, fft_support_counts
from incompat import (
    DimensionCapError,
    ZeroVectorError,
    bronzan_rotation,
    cross_check,
    dft_matrix,
    identity,
    min_support_uncertainty,
    qubit_rotation,
    random_unitary,
    support_counts,
)

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

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapError):
            min_support_uncertainty(identity(11))
        with pytest.raises(DimensionCapError):
            min_support_uncertainty(identity(4), max_dim=3)
        assert min_support_uncertainty(identity(11), max_dim=11).n_ab == 2

    def test_d1(self):
        w = min_support_uncertainty(identity(1))
        assert w.n_ab == 2 and w.n_a == w.n_b == 1


class TestCrossCheck:
    @pytest.mark.parametrize("seed", range(20))
    def test_twenty_random_d4_agree(self, seed):
        result = cross_check(random_unitary(4, seed))
        assert result.passed
        assert result.chi_from_deficiency == result.min_support

    def test_identity_six(self):
        result = cross_check(identity(6))
        assert (result.chi_from_deficiency, result.min_support, result.passed) == (2, 2, True)

    def test_bronzan_boundary(self):
        result = cross_check(bronzan_rotation(0.0, math.pi / 7))
        assert (result.chi_from_deficiency, result.min_support, result.passed) == (2, 2, True)

    @pytest.mark.parametrize("d", [7, 8])
    def test_structured_families_at_larger_dimension(self, d):
        assert cross_check(identity(d)).passed
        assert cross_check(dft_matrix(d)).passed


class TestDonohoStarkProduct:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_dft_witness_product_at_least_d(self, d):
        w = min_support_uncertainty(dft_matrix(d))
        assert w.n_a * w.n_b >= d
