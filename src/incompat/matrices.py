"""Transition matrices between orthonormal basis pairs, plus file ingestion.

Matrices are dense complex128 numpy arrays. A :class:`TransitionMatrix` wraps
a validated unitary whose (j, k) entry is the overlap of the j-th vector of
basis A with the k-th vector of basis B. All indices are zero-based.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidDimensionError,
    InvalidParameterError,
    MatrixFormatError,
    MatrixShapeError,
    NonFiniteEntryError,
    UnitarityError,
)

# Constructors guarantee ||U^dag U - I||_max <= UNITARITY_TOL_PER_DIM * d.
UNITARITY_TOL_PER_DIM = 1e-12
# File-ingested matrices get a looser default; override per call if needed.
LOADED_MATRIX_TOL = 1e-8


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce to a finite, nonempty 2-d complex128 array (a fresh copy)."""
    arr = np.array(entries, dtype=complex, order="C")
    if arr.ndim != 2 or arr.size == 0:
        raise MatrixShapeError(f"expected a nonempty 2-d matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteEntryError("matrix contains NaN or infinite entries")
    return arr


@dataclass(frozen=True)
class SubmatrixSelector:
    """Strictly increasing row and column index lists selecting a submatrix."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(int(i) for i in self.rows))
        object.__setattr__(self, "cols", tuple(int(i) for i in self.cols))
        for name, idx in (("rows", self.rows), ("cols", self.cols)):
            if not idx:
                raise ValueError(f"selector {name} must be nonempty")
            if any(i < 0 for i in idx):
                raise ValueError(f"selector {name} contains a negative index")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"selector {name} must be strictly increasing")

    def complement(self, dim: int) -> "SubmatrixSelector":
        """The rows and columns of a dim x dim matrix that this selector omits.

        For a unitary U the column nullity of U[R, C] equals the row nullity
        of U[R^c, C^c] (the nullity theorem), so the complement of a row
        deficiency witness is a column deficiency witness of the same size.
        """
        return SubmatrixSelector(
            rows=tuple(i for i in range(dim) if i not in self.rows),
            cols=tuple(j for j in range(dim) if j not in self.cols),
        )


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """A d x d unitary of basis overlaps, validated on construction.

    The measured residual ||U^dag U - I||_max is kept as ``.residual``, and
    the coherence mu = max |U_jk|, which the level search's coherence cap
    and the translation gate read (deficiency, symmetry.translates), as
    ``.coherence``.
    """

    dim: int
    matrix: np.ndarray
    unitarity_tolerance: float

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidDimensionError(f"dimension must be >= 1, got {self.dim}")
        arr = as_complex_matrix(self.matrix)
        if arr.shape[0] != arr.shape[1]:
            raise MatrixShapeError(f"transition matrix must be square, got {arr.shape}")
        if arr.shape != (self.dim, self.dim):
            raise MatrixShapeError(
                f"expected a {self.dim} x {self.dim} matrix, got shape {arr.shape}"
            )
        check_tolerance("unitarity tolerance", self.unitarity_tolerance)
        residual = unitarity_residual(arr)
        if residual > self.unitarity_tolerance:
            raise UnitarityError(
                f"||U^dag U - I||_max = {residual:.3e} exceeds "
                f"tolerance {self.unitarity_tolerance:.3e}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "coherence", float(np.abs(arr).max()))


def check_tolerance(name: str, value: float) -> float:
    """Return a tolerance that is a finite number >= 0; raise InvalidParameterError
    for NaN, infinite or negative values. 0 is legal."""
    if not (math.isfinite(value) and value >= 0):
        raise InvalidParameterError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def unitarity_residual(arr: np.ndarray) -> float:
    """Entrywise max deviation of U^dag U from the identity."""
    d = arr.shape[0]
    return float(np.abs(arr.conj().T @ arr - np.eye(d)).max())


def from_array(entries, unitarity_tolerance: float = LOADED_MATRIX_TOL) -> TransitionMatrix:
    """Validate an arbitrary square array as a transition matrix.

    TransitionMatrix coerces, copies and checks the entries, once; only
    their row count is read here. An input that is not a nonempty 2-d array
    gets dimension 1, so that its shape error is the one raised."""
    arr = np.asarray(entries)
    return TransitionMatrix(len(arr) if arr.ndim == 2 and arr.size else 1, arr, unitarity_tolerance)


def identity(dim: int) -> TransitionMatrix:
    """The identity transition: bases A and B coincide."""
    if dim < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")
    return TransitionMatrix(dim, np.eye(dim, dtype=complex), 0.0)


def qubit_rotation(theta: float, phi1: float = 0.0, phi2: float = 0.0) -> TransitionMatrix:
    """General 2 x 2 transition, parametrized by one angle and two phases.

    Rows/columns: [[e^{i phi1} sin(t), -e^{-i phi2} cos(t)],
                   [e^{i phi2} cos(t),  e^{-i phi1} sin(t)]].
    """
    for name, value in (("theta", theta), ("phi1", phi1), ("phi2", phi2)):
        if not math.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    s, c = math.sin(theta), math.cos(theta)
    arr = np.array(
        [
            [np.exp(1j * phi1) * s, -np.exp(-1j * phi2) * c],
            [np.exp(1j * phi2) * c, np.exp(-1j * phi1) * s],
        ]
    )
    return TransitionMatrix(2, arr, 2 * UNITARITY_TOL_PER_DIM)


def bronzan_rotation(theta1: float, theta2: float) -> TransitionMatrix:
    """Two-angle real orthogonal 3 x 3 transition with a structural zero at (2, 1)."""
    for name, value in (("theta1", theta1), ("theta2", theta2)):
        if not math.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    c1, s1 = math.cos(theta1), math.sin(theta1)
    c2, s2 = math.cos(theta2), math.sin(theta2)
    arr = np.array(
        [
            [c1 * c2, s1, c1 * s2],
            [-s1 * c2, c1, -s1 * s2],
            [-s2, 0.0, c2],
        ],
        dtype=complex,
    )
    return TransitionMatrix(3, arr, 3 * UNITARITY_TOL_PER_DIM)


def dft_matrix(dim: int) -> TransitionMatrix:
    """Discrete Fourier transform: entry (j, k) = exp(2 pi i j k / d) / sqrt(d).

    Symmetric (F equals its transpose entrywise, bit for bit) and unitary.
    """
    if dim < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    phase = (2.0 * np.pi / dim) * (j * k)
    arr = np.exp(1j * phase) / math.sqrt(dim)
    return TransitionMatrix(dim, arr, UNITARITY_TOL_PER_DIM * dim)


def random_unitary(dim: int, seed: int) -> TransitionMatrix:
    """Haar-distributed unitary, deterministic for a given seed.

    QR of a complex standard-Gaussian matrix, with R's diagonal phases folded
    into Q so the distribution is Haar.
    """
    if dim < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0  # probability-zero guard; keeps the phase defined
    return TransitionMatrix(dim, q * (diag / np.abs(diag)), UNITARITY_TOL_PER_DIM * dim)


# ---------------------------------------------------------------------------
# File formats


def load_matrix(source, format: str = "json") -> np.ndarray:
    """Parse a matrix from JSON or CSV text/bytes (see module README for schemas)."""
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MatrixFormatError(
                f"input is not UTF-8 text: byte {exc.start} ({exc.reason})"
            ) from exc
    if format == "json":
        return matrix_from_json(source)
    if format == "csv":
        return matrix_from_csv(source)
    raise ValueError(f"unknown matrix format {format!r}, expected 'json' or 'csv'")


def matrix_from_json(text: str) -> np.ndarray:
    """Parse the JSON matrix document: rows, cols, "re" and optional "im"."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal over Python's digit limit
        raise MatrixFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MatrixFormatError("top-level JSON value must be an object")
    rows, cols = doc.get("rows"), doc.get("cols")
    if not all(isinstance(n, int) and not isinstance(n, bool) for n in (rows, cols)):
        raise MatrixFormatError("missing or non-integer 'rows'/'cols' fields")
    if rows < 1 or cols < 1:
        raise MatrixShapeError(f"rows and cols must be positive, got {rows} x {cols}")
    re_part = _json_grid(doc.get("re"), "re", rows, cols)
    if "im" in doc and doc["im"] is not None:
        im_part = _json_grid(doc["im"], "im", rows, cols)
    else:
        im_part = np.zeros((rows, cols))
    arr = re_part + 1j * im_part
    if not np.all(np.isfinite(arr)):
        raise NonFiniteEntryError("matrix contains NaN or infinite entries")
    return arr


def _json_grid(grid, name: str, rows: int, cols: int) -> np.ndarray:
    if not isinstance(grid, list) or len(grid) != rows:
        got = len(grid) if isinstance(grid, list) else type(grid).__name__
        raise MatrixShapeError(f"field '{name}' must be a list of {rows} rows, got {got}")
    for i, row in enumerate(grid):
        if not isinstance(row, list) or len(row) != cols:
            got = len(row) if isinstance(row, list) else type(row).__name__
            raise MatrixShapeError(f"field '{name}' row {i} has {got} entries, expected {cols}")
        for j, value in enumerate(row):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise MatrixFormatError(f"field '{name}' entry ({i}, {j}) is not a number")
            try:
                float(value)
            except OverflowError:
                raise MatrixFormatError(
                    f"field '{name}' entry ({i}, {j}) is too large for a float"
                ) from None
    return np.array(grid, dtype=float)


_FLOAT = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_CSV_ENTRY = re.compile(rf"^(?P<re>[+-]?{_FLOAT})(?:(?P<im>[+-]{_FLOAT})i)?$")


def matrix_from_csv(text: str) -> np.ndarray:
    """Parse CSV rows of entries like '1.5', '0.2+0.3i', '1-2i' (no header)."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise MatrixFormatError("empty CSV input")
    parsed: list[list[complex]] = []
    width = None
    for ln, line in enumerate(lines, start=1):
        row = []
        for pos, token in enumerate(line.split(","), start=1):
            m = _CSV_ENTRY.match(token.strip())
            if m is None:
                raise MatrixFormatError(
                    f"line {ln}, entry {pos}: cannot parse {token.strip()!r}"
                )
            row.append(complex(float(m["re"]), float(m["im"]) if m["im"] else 0.0))
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise MatrixShapeError(
                f"line {ln} has {len(row)} entries, expected {width} (ragged rows)"
            )
        parsed.append(row)
    arr = np.array(parsed, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteEntryError("matrix contains NaN or infinite entries")
    return arr


def matrix_to_json_dict(matrix: np.ndarray) -> dict:
    """The JSON-document form of a matrix (always includes both parts)."""
    arr = as_complex_matrix(matrix)
    return {
        "rows": arr.shape[0],
        "cols": arr.shape[1],
        "re": arr.real.tolist(),
        "im": arr.imag.tolist(),
    }


def save_matrix(matrix: np.ndarray) -> str:
    """Serialize to the JSON format; load_matrix(save_matrix(m)) is bit-exact."""
    return json.dumps(matrix_to_json_dict(matrix))
