"""Numerically robust rank decisions for complex submatrices.

Rank is decided by SVD with the relative threshold tol * sigma_scale *
max(rows, cols). By default sigma_scale is the matrix's own largest singular
value; searches over submatrices of a unitary pass scale=1.0 so that nearly
zero submatrices (all singular values at roundoff level relative to the
parent) are decided at the parent's scale rather than their own.

The searches' batched step, batch_ranks, first tries to prove each block
full rank from its Gram matrix G: sigma_min^2 = lambda_min(G) >= det(G) *
((k - 1) / tr G)^(k - 1) for a k x k Gram matrix (AM-GM on the other
eigenvalues), evaluated with an explicit allowance for rounding. A block is
certified only when that bound puts sigma_min above CERT_MARGIN times the
threshold, where the SVD would keep all k singular values too, so the
certificate skips SVDs without changing a decision. Every other block, every
kernel witness and numerical_rank are decided by SVD.
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
# batch_ranks certifies a block full rank without an SVD only when its
# smallest singular value provably exceeds the threshold by this factor.
CERT_MARGIN = 1e4


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
    identically. Blocks that batch_ranks certifies full rank without an SVD
    have every singular value above CERT_MARGIN * threshold, so this rule
    would keep all of them too.
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
    """Ranks and gap ratios of a[rows, K] for every column set K.

    Both combinatorial searches decide rank here. A block that the Gram
    determinant certificate (_certified_full_rank) proves to have every
    singular value above CERT_MARGIN * threshold gets rank k = min(rows,
    cols) and gap 0 without an SVD: the SVD would keep all k singular values
    of such a block, and the gap of a full-rank block is 0. The other blocks
    go to one batched SVD, whose singular values above ``threshold`` are
    counted, with the dropped/kept ratio at the rank boundary as the gap (0
    for zero- or full-rank blocks). No SVD is called when every block is
    certified.
    """
    block_rows = a[np.asarray(rows)]
    k = min(len(block_rows), col_sets.shape[1])
    ranks = np.full(len(col_sets), k)
    gaps = np.zeros(len(col_sets))
    todo = np.nonzero(~_certified_full_rank(block_rows, col_sets, threshold))[0]
    if todo.size:
        sub = block_rows[:, col_sets[todo]].transpose(1, 0, 2)
        s = np.linalg.svd(sub, compute_uv=False)
        r = (s > threshold).sum(axis=1)
        ranks[todo] = r
        inner = (r > 0) & (r < k)
        if inner.any():
            where = np.nonzero(inner)[0]
            gaps[todo[where]] = s[where, r[where]] / s[where, r[where] - 1]
    return ranks, gaps


def _certified_full_rank(
    block_rows: np.ndarray, col_sets: np.ndarray, threshold: float
) -> np.ndarray:
    """Which blocks block_rows[:, K] have sigma_min > CERT_MARGIN * threshold, proven.

    With k = min(rows, cols) and G the k x k Gram matrix of a block S (S S^H
    or S^H S), sigma_min(S)^2 = lambda_min(G), and since the other k - 1
    eigenvalues have product at most ((tr G) / (k - 1))^(k - 1) (AM-GM),

        lambda_min(G) >= det(G) * ((k - 1) / tr G)^(k - 1)

    (det G itself for k = 1). The bound is evaluated on A = G / tr G + shift
    * I, with shift = 32 (n + k)^2 eps and n = max(rows, cols): det(A) is the
    squared product of the diagonal of A's Cholesky factor, and tr A = 1 + k
    * shift. Rounding in the trace, the Gram sums, the division, the
    factorization and the bound itself moves lambda_min(A) by a few tens of
    (n + k) units of roundoff, well below shift, so lambda_min(G) / tr G >=
    bound(A) - 2 * shift. A's eigenvalues are then at least about shift, far
    above the 20 k^1.5 units of roundoff below which the Cholesky
    factorization can break down, so it cannot fail.

    A block is certified when tr G * (bound(A) - 2 * shift) > (CERT_MARGIN *
    threshold)^2. Since bound(A) - 2 * shift < 1, only blocks with tr G above
    that square are candidates, and only those with tr G above the smallest
    normal float, where underflow in the Gram sums costs at most n units of
    roundoff relative to tr G, and no column of squared norm above 1 / (d *
    that float), where nothing overflows. The rest (all-zero blocks, blocks
    of tiny or huge entries) get A = shift * I, whose bound(A) - 2 * shift
    is negative, so they are left to the SVD. A certified block also has
    sigma_min^2 > shift / 2 * tr G >= shift / 2 * sigma_max^2, far above the
    SVD's own roundoff of a few eps * sigma_max, so the SVD would find all k
    singular values above threshold: certification cannot change a rank
    decision.
    """
    m, d = block_rows.shape
    n_blocks, c = col_sets.shape
    k = min(m, c)
    shift = 32 * (max(m, c) + k) ** 2 * np.finfo(float).eps
    tiny = np.finfo(float).tiny
    col_norms = np.einsum("ij,ij->j", block_rows, block_rows.conj()).real
    # Columns of squared norm above 1 / (d tiny), or not finite, are in no
    # candidate; zeroing them keeps every sum and product finite.
    if not col_norms.max() <= 1 / (d * tiny):
        bad = ~(col_norms <= 1 / (d * tiny))
        block_rows = np.where(bad, 0, block_rows)
        col_norms = np.where(bad, np.nan, col_norms)
    trace = col_norms[col_sets].sum(axis=1)
    # A product, not ** 2: a huge threshold must give inf, not OverflowError.
    margin = CERT_MARGIN * threshold
    candidate = trace > max(tiny, margin * margin)
    inv_trace = np.divide(1.0, trace, out=np.zeros(n_blocks), where=candidate)
    if m <= c:
        # S S^H / tr G is a weighted sum of the outer products of a's columns.
        weights = np.zeros((n_blocks, d))
        weights[np.arange(n_blocks)[:, None], col_sets] = inv_trace[:, None]
        outer = np.einsum("il,jl->lij", block_rows, block_rows.conj())
        g = weights @ outer.reshape(d, k * k)
    else:
        # S^H S is a principal submatrix of the selected rows' Gram matrix.
        gram = block_rows.conj().T @ block_rows
        g = gram[col_sets[:, :, None], col_sets[:, None, :]] * inv_trace[:, None, None]
        g = g.reshape(n_blocks, k * k)
    g[:, :: k + 1] += shift
    diag = np.linalg.cholesky(g.reshape(n_blocks, k, k)).diagonal(axis1=1, axis2=2).real
    bound = diag.prod(axis=1) ** 2 * ((k - 1) / (1 + k * shift)) ** (k - 1)
    return trace * (bound - 2 * shift) > margin * margin


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
