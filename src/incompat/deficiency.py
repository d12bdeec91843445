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
own SVD, so the profile still cross-checks the two sides numerically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .matrices import SubmatrixSelector, TransitionMatrix
from .rank import DEFAULT_RANK_TOL, batch_ranks, extract_submatrix, numerical_rank, rank_threshold


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


def _check_level(dim: int, t: int) -> None:
    if not 0 <= t <= dim - 1:
        raise ValueError(f"level t must be in [0, {dim - 1}], got {t}")


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
        col_sets = np.array(list(itertools.combinations(range(d), c)))
        threshold = rank_threshold((m, c), rank_tol, 1.0)
        for rows in itertools.combinations(range(d), m):
            ranks, gaps = batch_ranks(a, rows, col_sets, threshold)
            worst_gap = max(worst_gap, float(gaps.max()))
            deficiencies = m - ranks
            vmax = int(deficiencies.max())
            if vmax > best:
                first = int(np.argmax(deficiencies == vmax))
                best = vmax
                best_sel = SubmatrixSelector(rows, tuple(int(x) for x in col_sets[first]))
                if stop_at is not None and best >= stop_at:
                    return best, best_sel, worst_gap
                if best >= ceiling:
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
    _check_level(tm.dim, t)
    value, sel, _ = _max_row_deficiency(tm.matrix, t, rank_tol=rank_tol)
    return value, sel


def r_col(
    tm: TransitionMatrix, t: int, *, rank_tol: float = DEFAULT_RANK_TOL
) -> tuple[int, Optional[SubmatrixSelector]]:
    """Level-t column deficiency with the complement of r_row's witness."""
    _check_level(tm.dim, t)
    _, sel, value, _ = _level(tm.matrix, t, rank_tol=rank_tol)
    return value, sel.complement(tm.dim) if sel is not None else None


def r_t(tm: TransitionMatrix, t: int, *, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Level-t deficiency: the larger of the row and column values."""
    _check_level(tm.dim, t)
    row_value, _, col_value, _ = _level(tm.matrix, t, rank_tol=rank_tol)
    return max(row_value, col_value)


def deficiency_profile(
    tm: TransitionMatrix, *, rank_tol: float = DEFAULT_RANK_TOL
) -> DeficiencyProfile:
    """Compute every level, tau, chi, and per-level witnesses.

    Levels are computed for t descending so that the row value at t + 1
    bounds the value at t from above by one unit, giving an early exit the
    moment that bound is reached.
    """
    d = tm.dim
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

    Descends t from d - 2 and returns the first t at which any rank-deficient
    m x (m+t) submatrix exists; -1 if none. The row side alone decides this,
    because a column-deficient block's complement is row deficient at the
    same t. Agrees with deficiency_profile(...).tau because levels are
    nonincreasing in t.
    """
    for t in range(tm.dim - 2, -1, -1):
        value, _, _ = _max_row_deficiency(tm.matrix, t, stop_at=1, rank_tol=rank_tol)
        if value >= 1:
            return t
    return -1
