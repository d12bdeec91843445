"""Numerically robust rank decisions for complex submatrices.

Rank is decided by SVD with the relative threshold tol * sigma_scale *
max(rows, cols). By default sigma_scale is the matrix's own largest singular
value; searches over submatrices of a unitary pass scale=1.0 so that nearly
zero submatrices (all singular values at roundoff level relative to the
parent) are decided at the parent's scale rather than their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoKernelError, NonFiniteEntryError
from .matrices import SubmatrixSelector

DEFAULT_RANK_TOL = 1e-10
# Decisions whose dropped/kept singular value ratio exceeds this are fragile:
# the caller should not trust the classification without a second look.
FRAGILE_GAP_RATIO = 1e-3
# Witness coefficients with modulus above this count as nonzero.
NONZERO_COEFF_THRESHOLD = 1e-8
WITNESS_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class RankResult:
    """A rank decision together with the spectral gap that supports it."""

    rank: int
    smallest_kept_sv: float
    largest_dropped_sv: float
    gap_ratio: float

    @property
    def fragile(self) -> bool:
        return self.gap_ratio > FRAGILE_GAP_RATIO


def rank_threshold(shape: tuple[int, int], tol: float, scale: float) -> float:
    return tol * max(shape) * scale


def rank_from_singular_values(
    s: np.ndarray, shape: tuple[int, int], tol: float = DEFAULT_RANK_TOL, scale: float | None = None
) -> RankResult:
    """Turn a descending singular-value list into a RankResult.

    The keep/drop rule is the one batch_ranks applies to whole batches: both
    count singular values above rank_threshold, so every caller decides rank
    identically.
    """
    if scale is None:
        scale = float(s[0]) if s.size else 0.0
    threshold = rank_threshold(shape, tol, scale)
    rank = int(np.count_nonzero(s > threshold))
    kept = float(s[rank - 1]) if rank > 0 else 0.0
    dropped = float(s[rank]) if rank < s.size else 0.0
    gap = dropped / kept if (rank > 0 and rank < s.size) else 0.0
    return RankResult(rank, kept, dropped, gap)


def batch_ranks(
    a: np.ndarray, rows, col_sets: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Ranks and gap ratios of a[rows, K] for every column set K (one SVD call).

    Both combinatorial searches decide rank here: the blocks are gathered,
    singular values above ``threshold`` are counted, and the dropped/kept
    ratio at the rank boundary is returned (0 for zero- or full-rank blocks).
    """
    sub = a[np.asarray(rows)][:, col_sets].transpose(1, 0, 2)
    s = np.linalg.svd(sub, compute_uv=False)
    ranks = (s > threshold).sum(axis=1)
    gaps = np.zeros(len(ranks))
    inner = (ranks > 0) & (ranks < s.shape[1])
    if inner.any():
        where = np.nonzero(inner)[0]
        r = ranks[where]
        gaps[where] = s[where, r] / s[where, r - 1]
    return ranks, gaps


def numerical_rank(
    matrix: np.ndarray, tol: float = DEFAULT_RANK_TOL, scale: float | None = None
) -> RankResult:
    """Numerical rank of a dense complex matrix.

    rank = number of singular values > tol * scale * max(rows, cols), with
    scale defaulting to the largest singular value of ``matrix`` itself.
    """
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteEntryError("matrix contains NaN or infinite entries")
    s = np.linalg.svd(arr, compute_uv=False)
    return rank_from_singular_values(s, arr.shape, tol, scale)


def extract_submatrix(matrix: np.ndarray, selector: SubmatrixSelector) -> np.ndarray:
    """Copy of the selected rows x columns, in index order."""
    arr = np.asarray(matrix)
    rows, cols = arr.shape
    if selector.rows[-1] >= rows or selector.cols[-1] >= cols:
        raise IndexError(
            f"selector (rows<={selector.rows[-1]}, cols<={selector.cols[-1]}) "
            f"out of bounds for a {rows} x {cols} matrix"
        )
    return arr[np.ix_(selector.rows, selector.cols)]


@dataclass(frozen=True, eq=False)
class KernelWitness:
    """A unit vector certifying row (left) or column (right) rank deficiency.

    For side='left' the coefficients z satisfy z^T S ~ 0 for the selected
    submatrix S (plain transpose, no conjugation); for side='right' they
    satisfy S z ~ 0. The phase is normalized so the largest-modulus
    coefficient is real positive.
    """

    side: str
    coefficients: np.ndarray
    selector: SubmatrixSelector
    all_nonzero: bool
    residual: float


def kernel_witness(
    matrix: np.ndarray,
    side: str,
    selector: SubmatrixSelector,
    tol: float = DEFAULT_RANK_TOL,
    scale: float | None = None,
    nonzero_threshold: float = NONZERO_COEFF_THRESHOLD,
) -> KernelWitness:
    """Extract a kernel vector of the selected submatrix on the given side.

    Raises NoKernelError if the submatrix is full rank on that side. The
    returned vector is the singular vector of the smallest singular value
    (deterministic: the decomposition's last one), phase-normalized.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    sub = extract_submatrix(matrix, selector)
    u, s, vh = np.linalg.svd(sub)
    decided = rank_from_singular_values(s, sub.shape, tol, scale)
    needed = sub.shape[0] if side == "left" else sub.shape[1]
    if decided.rank >= needed:
        raise NoKernelError(
            f"submatrix is full rank ({decided.rank}) on the {side} side"
        )
    if side == "left":
        # z^T S = 0  <=>  conj(z) spans the left null space.
        z = u[:, -1].conj()
        residual = float(np.linalg.norm(z @ sub))
    else:
        z = vh[-1].conj()
        residual = float(np.linalg.norm(sub @ z))
    z = _normalize_phase(z)
    z.setflags(write=False)
    return KernelWitness(
        side=side,
        coefficients=z,
        selector=selector,
        all_nonzero=bool(np.abs(z).min() > nonzero_threshold),
        residual=residual,
    )


def _normalize_phase(z: np.ndarray) -> np.ndarray:
    """Rotate so the largest-modulus coefficient (first on ties) is real positive."""
    i = int(np.argmax(np.abs(z)))
    pivot = z[i]
    if pivot == 0:
        return z.copy()
    return z * (pivot.conjugate() / abs(pivot))
