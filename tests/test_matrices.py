import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incompat.matrices
from incompat import (
    InvalidDimensionError,
    InvalidParameterError,
    MatrixFormatError,
    MatrixShapeError,
    NonFiniteEntryError,
    SubmatrixSelector,
    UnitarityError,
    analyze_transition,
    bronzan_rotation,
    deficiency_profile,
    dft_matrix,
    from_array,
    identity,
    load_matrix,
    min_support_uncertainty,
    qubit_rotation,
    r_col,
    r_row,
    r_t,
    random_unitary,
    save_matrix,
    support_at_tau,
    tau_fast,
)
from incompat.matrices import UNITARITY_TOL_PER_DIM, unitarity_residual


class TestIdentity:
    def test_d6_matches_eye(self):
        tm = identity(6)
        assert np.array_equal(tm.matrix, np.eye(6))
        assert tm.unitarity_tolerance == 0.0

    def test_d1_is_scalar_one(self):
        assert np.array_equal(identity(1).matrix, [[1.0]])

    def test_d3_diagonal(self):
        tm = identity(3)
        assert np.array_equal(np.diagonal(tm.matrix), [1, 1, 1])
        assert np.count_nonzero(tm.matrix) == 3

    def test_zero_dimension_rejected(self):
        with pytest.raises(InvalidDimensionError):
            identity(0)


class TestQubitRotation:
    def test_theta_half_pi_is_identity(self):
        tm = qubit_rotation(math.pi / 2, 0.0, 0.0)
        assert np.allclose(tm.matrix, np.eye(2), atol=1e-15)

    def test_theta_zero_is_signed_swap(self):
        tm = qubit_rotation(0.0, 0.0, 0.0)
        assert np.array_equal(tm.matrix, [[0, -1], [1, 0]])

    def test_balanced_angle_has_uniform_moduli(self):
        tm = qubit_rotation(math.pi / 4, 0.3, 1.1)
        assert np.allclose(np.abs(tm.matrix), 1 / math.sqrt(2))
        assert unitarity_residual(tm.matrix) <= 2e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            qubit_rotation(bad)
        with pytest.raises(ValueError):
            qubit_rotation(0.5, bad, 0.0)


class TestBronzanRotation:
    def test_zero_angles_give_identity(self):
        assert np.array_equal(bronzan_rotation(0.0, 0.0).matrix, np.eye(3))

    def test_first_angle_half_pi(self):
        tm = bronzan_rotation(math.pi / 2, 0.0)
        assert np.allclose(tm.matrix, [[0, 1, 0], [-1, 0, 0], [0, 0, 1]], atol=1e-15)

    def test_generic_angles_orthogonal_with_structural_zero(self):
        tm = bronzan_rotation(math.pi / 5, math.pi / 7)
        assert unitarity_residual(tm.matrix) <= 3e-12
        assert tm.matrix[2, 1] == 0.0
        assert np.allclose(tm.matrix.imag, 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            bronzan_rotation(math.nan, 0.0)


class TestDftMatrix:
    def test_d2_hadamard(self):
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.allclose(dft_matrix(2).matrix, expected, atol=1e-15)

    def test_d4_spot_entries(self):
        f = dft_matrix(4).matrix
        assert np.isclose(f[1, 1], 0.5j, atol=1e-15)
        assert np.isclose(f[2, 2], 0.5, atol=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 8, 12, 16])
    def test_symmetric_bit_for_bit(self, d):
        f = dft_matrix(d).matrix
        assert np.array_equal(f, f.T)

    @pytest.mark.parametrize("d", [1, 2, 5, 7, 9])
    def test_uniform_moduli(self, d):
        assert np.allclose(np.abs(dft_matrix(d).matrix), 1 / math.sqrt(d))

    def test_zero_dimension_rejected(self):
        with pytest.raises(InvalidDimensionError):
            dft_matrix(0)


class TestRandomUnitary:
    def test_deterministic_per_seed(self):
        a = random_unitary(3, 0).matrix
        b = random_unitary(3, 0).matrix
        assert np.array_equal(a, b)
        assert not np.array_equal(a, random_unitary(3, 1).matrix)

    def test_unitary_within_tolerance(self):
        tm = random_unitary(4, 7)
        assert unitarity_residual(tm.matrix) <= 1e-11

    def test_d1_unit_modulus(self):
        tm = random_unitary(1, 1)
        assert np.isclose(abs(tm.matrix[0, 0]), 1.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidParameterError):
            random_unitary(3, -1)


@pytest.mark.parametrize(
    "tm",
    [identity(5), dft_matrix(7), qubit_rotation(0.9, 0.2, 0.4), bronzan_rotation(0.3, 1.2)]
    + [random_unitary(d, s) for d in (2, 3, 5) for s in (0, 1)],
    ids=lambda tm: f"d{tm.dim}",
)
def test_constructors_meet_unitarity_budget(tm):
    assert unitarity_residual(tm.matrix) <= UNITARITY_TOL_PER_DIM * tm.dim


@pytest.mark.parametrize(
    "tm",
    [identity(1), identity(4), dft_matrix(1), dft_matrix(6), qubit_rotation(0.9, 0.2, 0.4),
     bronzan_rotation(0.3, 1.2), random_unitary(5, 3)]
    + [from_array(dft_matrix(4).matrix * np.exp(0.3j)), from_array([[0, 1], [1, 0]])],
    ids=lambda tm: f"d{tm.dim}",
)
def test_coherence_is_the_largest_entry_modulus(tm):
    # Kept on construction, and the same after a JSON round trip.
    assert tm.coherence == float(np.abs(tm.matrix).max())
    loaded = from_array(load_matrix(save_matrix(tm.matrix), "json"))
    assert loaded.coherence == float(np.abs(loaded.matrix).max()) == tm.coherence


@pytest.mark.parametrize(
    "tm",
    [
        qubit_rotation(0.0),
        qubit_rotation(math.pi / 2),
        bronzan_rotation(0.0, math.pi / 2),
        bronzan_rotation(math.pi / 2, math.pi / 2),
    ],
)
def test_boundary_angles_give_signed_permutations(tm):
    moduli = np.abs(tm.matrix)
    assert np.all((moduli < 1e-12) | (np.abs(moduli - 1) < 1e-12))
    assert np.allclose(moduli.sum(axis=0), 1, atol=1e-12)


class TestTransitionMatrixValidation:
    def test_rejects_non_unitary(self):
        with pytest.raises(UnitarityError):
            from_array(np.ones((2, 2)))

    def test_rejects_non_square(self):
        with pytest.raises(MatrixShapeError):
            from_array(np.ones((2, 3)))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_rejects_bad_tolerance(self, tol):
        # NaN compares false with every residual, so it used to skip the check.
        for entries in ([[5, 1], [2, 7]], np.eye(2)):
            with pytest.raises(InvalidParameterError):
                from_array(entries, unitarity_tolerance=tol)

    def test_matrix_is_read_only(self):
        tm = identity(3)
        with pytest.raises(ValueError):
            tm.matrix[0, 0] = 5.0

    @pytest.mark.parametrize("entries", [dft_matrix(4).matrix.copy(), np.eye(3), [[0, 1], [1, 0]]])
    def test_from_array_coerces_once_into_its_own_copy(self, entries, monkeypatch):
        coerce, calls = incompat.matrices.as_complex_matrix, []

        def counted(x):
            calls.append(x)
            return coerce(x)

        monkeypatch.setattr(incompat.matrices, "as_complex_matrix", counted)
        tm = from_array(entries)
        assert len(calls) == 1
        assert np.array_equal(tm.matrix, np.asarray(entries))
        assert not np.shares_memory(tm.matrix, entries)


# Every library entry point that takes a tolerance, called on a 4 x 4 matrix.
TOLERANCE_ENTRY_POINTS = {
    "r_row": (lambda tm, **kw: r_row(tm, 0, **kw), ("rank_tol",)),
    "r_col": (lambda tm, **kw: r_col(tm, 0, **kw), ("rank_tol",)),
    "r_t": (lambda tm, **kw: r_t(tm, 0, **kw), ("rank_tol",)),
    "deficiency_profile": (deficiency_profile, ("rank_tol",)),
    "tau_fast": (tau_fast, ("rank_tol",)),
    "min_support_uncertainty": (min_support_uncertainty, ("rank_tol", "zero_threshold")),
    # analyze_transition with the subset search run as a cross-check of chi.
    "cross_check": (
        lambda tm, **kw: analyze_transition(tm, {}, oracle_cap=4, **kw),
        ("rank_tol", "zero_threshold"),
    ),
    "analyze_transition": (
        lambda tm, **kw: analyze_transition(tm, {}, **kw), ("rank_tol", "zero_threshold")
    ),
    "support_at_tau": (
        lambda tm, **kw: support_at_tau(tm, deficiency_profile(tm), **kw),
        ("rank_tol", "zero_threshold"),
    ),
}


class TestLibraryTolerances:
    @pytest.mark.parametrize("name", TOLERANCE_ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_bad_tolerance_rejected(self, name, bad):
        # Unchecked, a NaN rank_tol makes every count of singular values
        # above the threshold 0, and a generic unitary reads chi 2.
        call, keywords = TOLERANCE_ENTRY_POINTS[name]
        for keyword in keywords:
            with pytest.raises(InvalidParameterError, match=keyword):
                call(random_unitary(4, 0), **{keyword: bad})

    @pytest.mark.parametrize("name", TOLERANCE_ENTRY_POINTS)
    def test_zero_tolerance_accepted(self, name):
        call, keywords = TOLERANCE_ENTRY_POINTS[name]
        call(identity(4), **{keyword: 0.0 for keyword in keywords})


class TestSelector:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SubmatrixSelector(rows=(), cols=(0,))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SubmatrixSelector(rows=(2, 1), cols=(0,))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SubmatrixSelector(rows=(1, 1), cols=(0,))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SubmatrixSelector(rows=(-1,), cols=(0,))

    def test_complement_omits_selected(self):
        sel = SubmatrixSelector(rows=(0, 2), cols=(1,))
        assert sel.complement(4) == SubmatrixSelector(rows=(1, 3), cols=(0, 2, 3))
        assert sel.complement(4).complement(4) == sel


class TestLoadMatrix:
    def test_minimal_json_document(self):
        arr = load_matrix('{"rows":1,"cols":1,"re":[[1]],"im":[[0]]}', "json")
        assert np.array_equal(arr, [[1.0]])

    def test_csv_identity(self):
        arr = load_matrix("1+0i,0+0i\n0+0i,1+0i", "csv")
        assert np.array_equal(arr, np.eye(2))

    def test_json_im_defaults_to_zero(self):
        arr = load_matrix('{"rows":2,"cols":2,"re":[[1,2],[3,4]]}', "json")
        assert np.array_equal(arr.imag, np.zeros((2, 2)))
        assert np.array_equal(arr.real, [[1, 2], [3, 4]])

    def test_csv_bare_real_and_negative_imag(self):
        arr = load_matrix("1,-2.5-0.5i", "csv")
        assert arr[0, 0] == 1.0
        assert arr[0, 1] == complex(-2.5, -0.5)

    def test_json_syntax_error_reports_position(self):
        with pytest.raises(MatrixFormatError, match=r"line \d+, column \d+"):
            load_matrix('{"rows":1, "cols":1, "re": [[1]', "json")

    @pytest.mark.parametrize("value", ["true", '"1"', "1.9"])
    @pytest.mark.parametrize("field", ["rows", "cols"])
    def test_json_non_integer_shape_rejected(self, field, value):
        doc = {"rows": "1", "cols": "1", "re": "[[1]]"}
        doc[field] = value
        text = "{" + ",".join(f'"{k}":{v}' for k, v in doc.items()) + "}"
        with pytest.raises(MatrixFormatError, match="non-integer"):
            load_matrix(text, "json")

    def test_json_ragged_rows_rejected(self):
        with pytest.raises(MatrixShapeError, match="row 1"):
            load_matrix('{"rows":2,"cols":2,"re":[[1,2],[3]]}', "json")

    @pytest.mark.parametrize("value", [True, "1", None, [1]], ids=["true", "string", "null", "list"])
    @pytest.mark.parametrize("field", ["re", "im"])
    def test_json_entry_that_is_not_a_number_rejected(self, field, value):
        # numpy alone would read true and "1" as 1.0 and null as nan.
        doc = {"rows": 2, "cols": 3, "re": [[0.5, 1, 2], [3, 4.5, 5]], "im": [[0] * 3, [0] * 3]}
        doc[field][1][2] = value
        with pytest.raises(MatrixFormatError) as raised:
            load_matrix(json.dumps(doc), "json")
        assert str(raised.value) == f"field '{field}' entry (1, 2) is not a number"

    def test_json_non_finite_rejected(self):
        with pytest.raises(NonFiniteEntryError):
            load_matrix('{"rows":1,"cols":1,"re":[[1e999]]}', "json")

    def test_json_integer_too_large_for_a_float_rejected(self):
        # 10**400 overflows float(); the largest integer that rounds to a
        # finite float is still accepted.
        big = "1" + "0" * 400
        with pytest.raises(MatrixFormatError, match=r"'im' entry \(1, 0\) is too large"):
            load_matrix(f'{{"rows":2,"cols":1,"re":[[0],[1]],"im":[[0],[-{big}]]}}', "json")
        top = 2**1024 - 2**970 - 1
        arr = load_matrix(f'{{"rows":1,"cols":1,"re":[[{top}]]}}', "json")
        assert arr[0, 0] == np.finfo(float).max

    def test_json_integer_over_the_digit_limit_rejected(self):
        with pytest.raises(MatrixFormatError, match="invalid JSON"):
            load_matrix('{"rows":1,"cols":1,"re":[[' + "1" * 5000 + "]]}", "json")

    @pytest.mark.parametrize(
        "fmt,text", [("json", '{"rows":1,"cols":1,"re":[[1]]}'), ("csv", "1")], ids=["json", "csv"]
    )
    def test_non_utf8_bytes_rejected(self, fmt, text):
        with pytest.raises(MatrixFormatError, match="not UTF-8 text: byte 0"):
            load_matrix(b"\xff\xfe" + text.encode("utf-16-le"), fmt)

    def test_csv_bad_token_reports_position(self):
        with pytest.raises(MatrixFormatError, match="line 2, entry 1"):
            load_matrix("1,2\nx,4", "csv")

    def test_csv_ragged_rows_rejected(self):
        with pytest.raises(MatrixShapeError, match="ragged"):
            load_matrix("1,2\n3", "csv")

    def test_bytes_and_streams_accepted(self):
        import io

        assert load_matrix(b'{"rows":1,"cols":1,"re":[[2]]}', "json")[0, 0] == 2.0
        assert load_matrix(io.StringIO("3"), "csv")[0, 0] == 3.0

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            load_matrix("1", "tsv")


class TestJsonRoundTrip:
    def test_save_then_load_is_bit_exact(self):
        arr = random_unitary(4, 11).matrix
        again = load_matrix(save_matrix(arr), "json")
        assert np.array_equal(arr, again)

    def test_saved_document_shape(self):
        doc = json.loads(save_matrix(np.array([[1 + 2j]])))
        assert doc == {"rows": 1, "cols": 1, "re": [[1.0]], "im": [[2.0]]}

    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30)
    def test_round_trip_random_matrices(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        arr = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        assert np.array_equal(load_matrix(save_matrix(arr), "json"), arr)
