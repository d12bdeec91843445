"""Rank-deficiency levels of a transition matrix and the indices they define.

For a d x d unitary U and t in [0, d-1], the level-t row deficiency is the
maximum of m - rank(S) over all submatrices S of U with m rows and m + t
columns (m in [1, d-t]); the column deficiency is the same with the roles of
rows and columns exchanged. The overall level is the larger of the two. The
deficiency index tau is one less than the smallest t whose level is zero, and
the incompatibility order of the underlying basis pair is chi = d - tau.

Only the row side is searched. By the nullity theorem the column nullity of
U[R, C] equals the row nullity of the complementary block U[R^c, C^c], so
complementing maps the row candidates at level t one to one onto the column
candidates at level t with equal deficiency: the two sides have the same
value, and the complement of a row witness is a column witness. The column
value reported is the column deficiency of that complement, decided by its
own SVD, so the profile still cross-checks the two sides numerically. The
row search takes its rank decisions from rank.batch_ranks, a batch of row
sets at a time, and replays each batch in the sequential order.

Level 0 is decided first. Levels are nonincreasing in t, so when no square
block of U is singular (complete incompatibility, chi = d + 1) every level is
0 and no other level is searched. By Jacobi's complementary-minor identity,
|det U[R, C]| = |det U[R^c, C^c]| for a unitary, and by the CS decomposition
a square block and its complement have the same singular values below 1; so
only blocks with m <= d/2 rows are decided, and at m = d/2, where the
complement is another block of the same size, only the row sets that hold
row 0. The step only certifies. Each block is decided at its complement's
threshold, the larger of the two (shape (m, d - m)), raised by
2 d ||U^dag U - I||_max, a bound on how far the smallest singular values of
a block and its complement can part when U is only near unitary. If every
block is full rank there, the level search would decide every block full
rank at every level (see _square_blocks_clear); otherwise it runs exactly
as without the step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .matrices import SubmatrixSelector, TransitionMatrix, check_tolerance
from .rank import (
    DEFAULT_RANK_TOL,
    batch_ranks,
    extract_submatrix,
    numerical_rank,
    rank_threshold,
)


@dataclass(frozen=True)
class DeficiencyWitness:
    """A submatrix achieving the level maximum, with the side it is deficient on."""

    side: str  # 'row' or 'col'
    selector: SubmatrixSelector
    deficiency: int


@dataclass(frozen=True, eq=False)
class DeficiencyProfile:
    """All deficiency levels of one transition matrix, with witnesses.

    r_values[t] = max(r_row_values[t], r_col_values[t]); tau and chi follow.
    r_row_values comes from the level search and r_col_values from the
    complement of each row witness (0 where there is none); the two agree for
    every unitary unless a rank decision is borderline. worst_gap_ratio is
    the largest dropped/kept singular-value ratio seen across every rank
    decision of the level search, so borderline classifications can be
    flagged instead of silently trusted.
    """

    dim: int
    r_values: tuple[int, ...]
    r_row_values: tuple[int, ...]
    r_col_values: tuple[int, ...]
    tau: int
    chi: int
    witnesses: tuple[Optional[DeficiencyWitness], ...]
    worst_gap_ratio: float


def _check_level(dim: int, t: int, rank_tol: float) -> None:
    if not 0 <= t <= dim - 1:
        raise ValueError(f"level t must be in [0, {dim - 1}], got {t}")
    check_tolerance("rank_tol", rank_tol)


def _square_blocks_clear(tm: TransitionMatrix, rank_tol: float) -> bool:
    """Whether the level search would find every block of tm full rank.

    Decides the m x m blocks for m = 1..d//2, each at threshold
    tol * (d - m) + 2 d * residual; at m = d/2 only the row sets that hold
    row 0, the first C(d - 1, m - 1) in lexicographic order, because the
    other blocks are their complements. Stops at the first batch with a
    block under its threshold. Let V be the unitary nearest U, e =
    ||U - V||_2 <= ||U^dag U - I||_2 <= d * residual. Blocks of U and V
    differ in each singular value by at most e, and in V a block and its
    complement share their singular values below 1 (CS decomposition). So
    True gives every n x n block X of V smallest singular value above
    tol * max(n, d - n) + e. Every decision of the level search is then
    full rank: a square block at tol * n directly, and an m x (m + t)
    block S at tol * (m + t) because its m-th singular value in V is at
    least that of any (d - m - t)-square block inside its complement,
    whose threshold tol * max(d - m - t, m + t) is no smaller.
    """
    a = tm.matrix
    d = tm.dim
    for m in range(1, d // 2 + 1):
        col_sets = np.array(list(itertools.combinations(range(d), m)))
        row_sets = itertools.combinations(range(d), m)
        if 2 * m == d:
            row_sets = itertools.islice(row_sets, math.comb(d - 1, m - 1))
        threshold = rank_threshold((m, d - m), rank_tol, 1.0) + 2 * d * tm.residual
        for _, ranks, _ in batch_ranks(a, row_sets, col_sets, threshold):
            if ranks.min() < m:
                return False
    return True


def _max_row_deficiency(
    a: np.ndarray,
    t: int,
    *,
    stop_at: int | None = None,
    rank_tol: float = DEFAULT_RANK_TOL,
):
    """Maximum of m - rank over all m x (m+t) submatrices of the unitary a.

    Enumeration order: m ascending, row subsets lexicographic, column subsets
    lexicographic; the returned selector is the first one achieving the
    maximum in that order. Three prunes, none of which can change the value
    or the witness:

    - interlacing ceiling: a submatrix of a unitary with m rows and c columns
      has rank >= m + c - d, so no candidate at this m can exceed
      min(m, d - m - t); an m whose ceiling cannot beat the current maximum
      is skipped, and the search for one m stops once its ceiling is reached
      (later candidates at the same m could only tie, and ties never replace
      the first-achieving selector);
    - stop_at: a caller-supplied hard upper bound (from the unit-step
      property of consecutive levels, or 1 when only existence of deficiency
      matters); reaching it ends the search immediately.

    rank.batch_ranks decides the row sets a batch at a time, and each
    batch's rows are then replayed in order as if decided one by one: the
    witness is the first to achieve the maximum, an exit happens at the
    first row that reaches the ceiling or stop_at, and the worst gap ratio
    covers only the rows up to that exit, not those the batch decided past
    it.

    Returns (value, selector or None, worst gap ratio seen).
    """
    d = a.shape[0]
    best = 0
    best_sel: SubmatrixSelector | None = None
    worst_gap = 0.0
    for m in range(1, d - t + 1):
        ceiling = min(m, d - m - t)
        if ceiling <= best:
            continue
        c = m + t
        limit = ceiling if stop_at is None else min(ceiling, stop_at)
        col_sets = np.array(list(itertools.combinations(range(d), c)))
        threshold = rank_threshold((m, c), rank_tol, 1.0)
        row_sets = itertools.combinations(range(d), m)
        for rows, ranks, gaps in batch_ranks(a, row_sets, col_sets, threshold):
            # Replay the batch in order: the sequential search stops at the
            # first row set that reaches the limit, its best is the first
            # maximum up to there, and only the rows it visits count towards
            # the gap.
            row_best = m - ranks.min(axis=1)
            reached = np.flatnonzero(row_best >= limit)
            visited = reached[0] + 1 if reached.size else len(rows)
            i = int(np.argmax(row_best[:visited]))
            worst_gap = max(worst_gap, float(gaps[:visited].max()))
            if row_best[i] > best:
                best = int(row_best[i])
                first = int(np.argmin(ranks[i]))
                best_sel = SubmatrixSelector(rows[i].tolist(), col_sets[first].tolist())
            if best >= limit:
                if stop_at is not None and best >= stop_at:
                    return best, best_sel, worst_gap
                break
    return best, best_sel, worst_gap


def _level(a: np.ndarray, t: int, *, stop_at: int | None = None, rank_tol: float):
    """Both sides of level t from one row search.

    Returns (row value, row witness, column value, worst gap ratio of the
    search). The column value is the column deficiency of the complement of
    the row witness, decided at the complement's own shape threshold; it is 0
    when there is no witness.
    """
    value, sel, gap = _max_row_deficiency(a, t, stop_at=stop_at, rank_tol=rank_tol)
    if sel is None:
        return value, None, 0, gap
    comp = sel.complement(a.shape[0])
    decided = numerical_rank(extract_submatrix(a, comp), rank_tol, scale=1.0)
    return value, sel, len(comp.cols) - decided.rank, gap


def r_row(
    tm: TransitionMatrix, t: int, *, rank_tol: float = DEFAULT_RANK_TOL
) -> tuple[int, Optional[SubmatrixSelector]]:
    """Level-t row deficiency with the first maximizing selector."""
    _check_level(tm.dim, t, rank_tol)
    value, sel, _ = _max_row_deficiency(tm.matrix, t, rank_tol=rank_tol)
    return value, sel


def r_col(
    tm: TransitionMatrix, t: int, *, rank_tol: float = DEFAULT_RANK_TOL
) -> tuple[int, Optional[SubmatrixSelector]]:
    """Level-t column deficiency with the complement of r_row's witness."""
    _check_level(tm.dim, t, rank_tol)
    _, sel, value, _ = _level(tm.matrix, t, rank_tol=rank_tol)
    return value, sel.complement(tm.dim) if sel is not None else None


def r_t(tm: TransitionMatrix, t: int, *, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Level-t deficiency: the larger of the row and column values."""
    _check_level(tm.dim, t, rank_tol)
    row_value, _, col_value, _ = _level(tm.matrix, t, rank_tol=rank_tol)
    return max(row_value, col_value)


def deficiency_profile(
    tm: TransitionMatrix, *, rank_tol: float = DEFAULT_RANK_TOL
) -> DeficiencyProfile:
    """Compute every level, tau, chi, and per-level witnesses.

    Level 0 is decided first, on the square blocks with m <= d/2 (see the
    module docstring). If they certify that no block is deficient, every
    level is 0, tau = -1, there are no witnesses, and worst_gap_ratio is 0,
    as the level search would give. Otherwise the levels are computed for t
    descending so that the row value at t + 1 bounds the value at t from
    above by one unit, giving an early exit the moment that bound is
    reached; the witnesses and worst_gap_ratio are those of this descent.
    """
    check_tolerance("rank_tol", rank_tol)
    d = tm.dim
    if _square_blocks_clear(tm, rank_tol):
        zeros = (0,) * d
        return DeficiencyProfile(
            dim=d,
            r_values=zeros,
            r_row_values=zeros,
            r_col_values=zeros,
            tau=-1,
            chi=d + 1,
            witnesses=(None,) * d,
            worst_gap_ratio=0.0,
        )
    row_vals = [0] * d
    col_vals = [0] * d
    row_wits: list[Optional[SubmatrixSelector]] = [None] * d
    worst = 0.0
    prev = None
    for t in range(d - 1, -1, -1):
        row_vals[t], row_wits[t], col_vals[t], gap = _level(
            tm.matrix, t, stop_at=None if prev is None else prev + 1, rank_tol=rank_tol
        )
        worst = max(worst, gap)
        prev = row_vals[t]

    r_values = tuple(max(x, y) for x, y in zip(row_vals, col_vals))
    tau = min(t for t in range(d) if r_values[t] == 0) - 1
    witnesses: list[Optional[DeficiencyWitness]] = []
    for t in range(d):
        if r_values[t] == 0:
            witnesses.append(None)
        elif row_vals[t] >= col_vals[t]:
            witnesses.append(DeficiencyWitness("row", row_wits[t], row_vals[t]))
        else:
            witnesses.append(DeficiencyWitness("col", row_wits[t].complement(d), col_vals[t]))
    return DeficiencyProfile(
        dim=d,
        r_values=r_values,
        r_row_values=tuple(row_vals),
        r_col_values=tuple(col_vals),
        tau=tau,
        chi=d - tau,
        witnesses=tuple(witnesses),
        worst_gap_ratio=worst,
    )


def tau_fast(tm: TransitionMatrix, *, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """The deficiency index without computing full levels.

    Decides level 0 first, on the square blocks with m <= d/2 (see the
    module docstring), and returns -1 if they certify that no block is
    deficient. Otherwise it descends t from d - 2 and returns the first t at
    which any rank-deficient m x (m+t) submatrix exists; -1 if none. The row
    side alone decides this, because a column-deficient block's complement
    is row deficient at the same t. Agrees with deficiency_profile(...).tau
    because levels are nonincreasing in t.
    """
    check_tolerance("rank_tol", rank_tol)
    if _square_blocks_clear(tm, rank_tol):
        return -1
    for t in range(tm.dim - 2, -1, -1):
        value, _, _ = _max_row_deficiency(tm.matrix, t, stop_at=1, rank_tol=rank_tol)
        if value >= 1:
            return t
    return -1
