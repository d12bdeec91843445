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
sets at a time, and replays each batch in the sequential order. A grid
that follows one whose replay exited at its first row set starts with a
batch of that one row set, as identity-like input stops there every time.
The row and column sets are read as whole arrays from one table per (d,
k), rank.lex_sets, and their orbit representatives from
symmetry.least_sets, each built once and cached when small, and built
for the call otherwise.

Both deficiency_profile and tau_fast read the levels off one descent,
_descent: t from d - 1 down to 0, after a level-0 step on half-size square
blocks (_square_blocks_clear) that ends the descent when it certifies
every level 0. The step runs unless the descent seeds from coset blocks
(below), which it does where both translations are verified on a
composite d >= symmetry.MIN_REDUCED_DIM; skipping it there changes no
output (_descent). Within a level each m
has one ceiling on the deficiency of its blocks: the interlacing bound
min(m, d - m - t), capped by the coherence bound sigma_{m-j+1}^2 >= 1 -
mu^2 m (d - m - t) / j on the j-th smallest singular value. The search
skips an m whose ceiling cannot beat the best found and leaves an m once
its ceiling is reached, and first skips the whole level when one bound on
every m's ceiling (_level_ceiling) cannot beat the best it starts from;
the proof and its allowance for near-unitary input are in
_max_row_deficiency's docstring. The matrix's affine symmetries are
verified at most once per descent (symmetry.verify), and the search of
every grid decides one row set per orbit of them and one column set per
column translation class, with the same values and witnesses.

Which maps are tested when: deficiency_profile verifies every map up
front, as it reports the row group. tau_fast's descent is given no
symmetry; on composite d >= MIN_REDUCED_DIM it asks symmetry.translates
whether both translations hold, the one question the step rule needs, and
it verifies the whole group only when some m of some level is searched.
On dft(d) for d = 8, 9, 10, 12, 15, 16, 18, 20 and 24 none is, and on
dft(14) level tau + 1 is.

The descent seeds each level before searching it: the witness of the level
above less its last column and, where the descent seeds from coset blocks,
the level's coset block (fourier.coset_blocks), each decided by batch_ranks
alone. The search starts from the better seed and looks only for a block
that beats it, so every m whose ceiling the seed reaches is skipped: on
dft(d) for d = 8, 9, 10, 12, 15, 16, 18 and 20 the descent decides no
block but its seeds. Witness contract: a level's witness is its seed
unless some block beats it, and then the first maximizer in the search's
order, as without a seed. The row values, tau and chi are those of the
unseeded search (the seed is one of the level's blocks, decided as the
search decides it). The witnesses and worst_gap_ratio can move, and so can
a column value, the decision of a moved witness's complement, where that
decision is borderline. r_row, r_col and r_t take no seed and keep the
first maximizer.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import fourier, symmetry
from .matrices import SubmatrixSelector, TransitionMatrix, check_tolerance
from .rank import (
    DEFAULT_RANK_TOL,
    EPS,
    batch_ranks,
    extract_submatrix,
    numerical_rank,
    rank_threshold,
    squares_full_rank,
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
    complement of each row witness (0 where there is none), the level's seed
    unless a block beats it (_descent); the two agree for
    every unitary unless a rank decision is borderline. worst_gap_ratio is
    the largest dropped/kept singular-value ratio seen across every rank
    decision of the level search, so borderline classifications can be
    flagged instead of silently trusted. row_group_order and
    column_translations describe the symmetry the level search reduces by
    (symmetry.verify): the order of its row group, 1 when no map holds or
    d < symmetry.MIN_REDUCED_DIM, and whether the column translations hold.
    """

    dim: int
    r_values: tuple[int, ...]
    r_row_values: tuple[int, ...]
    r_col_values: tuple[int, ...]
    tau: int
    chi: int
    witnesses: tuple[Optional[DeficiencyWitness], ...]
    worst_gap_ratio: float
    row_group_order: int = 1
    column_translations: bool = False


def _check_level(dim: int, t: int, rank_tol: float) -> None:
    if not 0 <= t <= dim - 1:
        raise ValueError(f"level t must be in [0, {dim - 1}], got {t}")
    check_tolerance("rank_tol", rank_tol)


def _square_blocks_clear(tm: TransitionMatrix, rank_tol: float, floors: list | None = None) -> bool:
    """Whether the level search would find every block of tm full rank.

    Levels are nonincreasing in t, so when no square block of U is singular
    (complete incompatibility, chi = d + 1) every level is 0. By Jacobi's
    complementary-minor identity, |det U[R, C]| = |det U[R^c, C^c]| for a
    unitary, so only the m x m blocks for m = 1..d//2 are decided, each at
    its complement's threshold, the larger of the two (shape (m, d - m)),
    raised by 2 d * residual; at m = d/2 only the row sets that hold row 0,
    because the other blocks are their complements. rank.squares_full_rank
    decides them: each block's minor comes from its row-prefix minors by
    Laplace expansion and certifies the block from |det| and a bound on
    ||U||_2 from the residual, the rest go to batch_ranks, and the verdict
    is batch_ranks's over every block; it stops at the first deficient
    block. The step only certifies: False says nothing about any level,
    which the level search then decides. _descent skips the step where it
    seeds from coset blocks: True, by the last paragraph, makes every
    decision of the level search full rank, its seeds' too, so the descent
    then yields only zero levels, no witness and gap 0, which is what the
    step's True reports.

    floors, when given, are passed on to squares_full_rank: the minor
    floors of the subset search's square level on tm
    (support._square_level_clear), whose walk covers every block of this
    one with bit-identical minors, so squares_full_rank returns True
    without walking when each size's need_m at this step's thresholds is
    below its floor. Only the minors are shared; the thresholds and the
    proof below stay this step's own.

    Let V be the unitary nearest U, e = ||U - V||_2 <= ||U^dag U - I||_2 <=
    d * residual. Blocks of U and V differ in each singular value by at most
    e, and in V a block and its complement share their singular values below
    1 (CS decomposition). So True gives every n x n block X of V smallest
    singular value above tol * max(n, d - n) + e. Every decision of the
    level search is then full rank: a square block at tol * n directly, and
    an m x (m + t) block S at tol * (m + t) because its m-th singular value
    in V is at least that of any (d - m - t)-square block inside its
    complement, whose threshold tol * max(d - m - t, m + t) is no smaller.
    """
    d = tm.dim
    thresholds = [
        rank_threshold((m, d - m), rank_tol, 1.0) + 2 * d * tm.residual for m in range(1, d // 2 + 1)
    ]
    return squares_full_rank(
        tm.matrix, thresholds, tm.residual, row_0_at_top=d % 2 == 0, floors=floors
    )


def _coherence_cap(
    shape: tuple[int, int], d: int, mu: float, e: float, threshold: float
) -> int:
    """The largest deficiency the rank step can find in a block of this
    shape of a d x d matrix within e of a unitary, entries at most mu in
    modulus, at this threshold: the largest j <= m with j (1 - (threshold
    + e)^2 - 32 d^3 eps) <= m (d - c) (mu + e)^2, or m when the factor of
    j is not positive (the coherence ceiling of _max_row_deficiency).
    Products, not ** 2, and no int() of an unbounded quotient: a huge
    threshold, e or mu must give m, not OverflowError."""
    m, c = shape
    x, margin = mu + e, threshold + e
    room = 1 - margin * margin - 32 * d**3 * EPS
    quotient = m * (d - c) * x * x / room if room > 0 else math.inf
    return int(quotient) if quotient < m else m


def _level_ceiling(
    d: int, t: int, mu: float, e: float, rank_tol: float, stop_at: int
) -> int:
    """A bound on the ceiling of every m of level t (_max_row_deficiency):
    min(stop_at, h, the coherence cap of an h x (h + t) block at threshold
    tol * d), h = (d - t) // 2.

    The interlacing bound min(m, d - m - t) is at most h. h (d - h - t) is
    the largest m (d - m - t), and tol * d the largest threshold, tol (m +
    t); IEEE rounding is monotone, so every m's computed quotient m (d - m
    - t) (mu + e)^2 / room is at most this block's, Q (room falls with the
    threshold, and where it is not positive here Q is infinite). If Q < h,
    an m's cap is the integer part of its quotient or m itself, which is
    then at most its quotient, so at most int(Q), this block's cap; if not,
    this cap is h. So when best is at least the result, every m is skipped,
    as the search of each m would skip it."""
    h = (d - t) // 2
    threshold = rank_threshold((d - t, d), rank_tol, 1.0)
    return min(stop_at, h, _coherence_cap((h, h + t), d, mu, e, threshold))


def _max_row_deficiency(
    a: np.ndarray,
    t: int,
    mu: float,
    e: float,
    *,
    stop_at: int | None = None,
    rank_tol: float = DEFAULT_RANK_TOL,
    sym: symmetry.Symmetry | Callable[[], symmetry.Symmetry] | None = None,
    alone: bool = False,
    seed: tuple[int, SubmatrixSelector, float] | None = None,
):
    """Maximum of m - rank over all m x (m+t) submatrices of the unitary a.

    Enumeration order: m ascending, row subsets lexicographic, column subsets
    lexicographic; without a seed, the returned selector is the first one
    achieving the maximum in that order. Each m has one ceiling, min(m, d -
    m - t, cap, stop_at), on the deficiency the search looks for in its
    blocks; the first three bound what the rank step can find in any of
    them:

    - interlacing: a submatrix of a unitary with m rows and c columns has
      rank >= m + c - d, so no block exceeds min(m, d - m - t);
    - coherence (cap, from _coherence_cap): for a unitary V, S = V[R, C]
      and T = V[R, C^c] satisfy S S^H = I_m - T T^H, so for j = 1..m

          sigma_{m-j+1}(S)^2 = 1 - lambda_j(T T^H) >= 1 - ||T||_F^2 / j
                             >= 1 - mu_V^2 m (d - m - t) / j,

      with mu_V = max |V_jk| (lambda_j is at most the mean of the j largest
      eigenvalues of T T^H, whose sum is at most its trace): the coherence
      bound n_a n_b >= 1 / mu^2 of Donoho & Huo (IEEE TIT 2001) and Elad &
      Bruckstein (IEEE TIT 2002), per block and per deficiency. For the
      input U, V is the nearest unitary and e = d * residual >= ||U - V||_2,
      the allowance of _square_blocks_clear; then mu_V <= mu + e with mu =
      max |U_jk| (TransitionMatrix.coherence), and each singular value of a
      block moves by at most e.
      With X = m (d - m - t) (mu + e)^2, th the threshold and s = 32 d^3
      eps, the cap is the largest j <= m with j (1 - (th + e)^2 - s) <= X.
      For every larger j, 1 - X / j > (th + e)^2 + s, so

          sigma_{m-j+1}(S_U) >= sqrt((th + e)^2 + s) - e >= th + s / 2,

      since sqrt(a^2 + s) - a = s / (sqrt(a^2 + s) + a) >= s / 2 when a^2 +
      s < 1. That margin of 16 d^3 eps, less the rounding of the computed
      residual (d^2 eps in e), of mu and of the test itself, is still more
      than the SVD's own error of a few d eps, so the SVD keeps
      sigma_{m-j+1} and every larger singular value; the Gram certificate
      of batch_ranks certifies only blocks that are full rank. So the rank
      step gives every block at this m rank >= m - cap, and at cap 0 rank m
      and gap 0. For the DFT mu^2 = 1 / d and the cap is m (d - m - t) / d
      rounded down (an exact integer quotient is kept, since s makes the
      test round up): 0 at every m with m (d - m - t) < d. At tau that
      holds for every m before the witness's. Above tau it holds at every m
      of most levels, which are then skipped whole, but not of all: for d
      <= 30, the cap is 1 at some m of t = tau + 1 for d = 14 (m = 3..5),
      22, 26 and 27, and of t = tau + 2, tau + 3 for d = 22 and 26 and tau
      + 4 for d = 26, and every block of those m is searched and refuted.
      For prime d >= 5 (tau = -1) the cap is positive from t = 0 up, but
      the level-0 step decides those inputs before any level is searched.

    stop_at is a caller-supplied hard upper bound (from the unit-step
    property of consecutive levels, see _descent; None puts no bound). An m
    whose ceiling cannot beat the current maximum is skipped before any row
    set is enumerated; the whole level is, by one test, when the bound on
    every m's ceiling (_level_ceiling) cannot beat the starting best, which
    skips no m the test of each m would not. The search of one m stops once
    its ceiling is reached: later blocks at the same m could only tie, and
    ties never replace the first-achieving selector. Once the maximum
    reaches stop_at, every later m has a ceiling at most the maximum and is
    skipped, so reaching it ends the search. None of these exits changes the
    value or the witness. The worst gap ratio covers the decisions the
    search makes, so a cap below the interlacing ceiling can only lower it,
    by ending an m's search early or skipping an m; a cap of 0 never changes
    it, as every block it skips has gap 0.

    seed, when given, is (value, selector, gap) from _seed: a block of this
    level, its deficiency as batch_ranks decides it at the block's own
    shape threshold, and the worst gap of the decisions behind it. The
    search starts from it: best, the witness and the worst gap are the
    seed's, so every m whose ceiling is at most the seed's value is skipped,
    and the witness changes only at a block strictly more deficient. The
    seed is one of the level's blocks, decided as the search decides it
    (batch_ranks decides a block the same in any batch), so the value is
    the level's maximum either way: seeded and unseeded searches return the
    same value whenever no decision exceeds its m's ceiling, as none does
    in exact arithmetic (stop_at is the one bound of the ceiling proved
    only there). The witness is the seed unless some block beats it, so it
    need not be the first maximizer, and the worst gap ratio covers the
    seed's decisions and those the search still makes.

    The column sets are the rows of rank.lex_sets(d, m + t), and the row
    sets those of lex_sets(d, m). With sym (the symmetry verified on a, or
    a function that returns it, called at the first m searched; None
    reduces nothing), every m decides only the row sets
    least in their orbit under sym's row group (Symmetry.least_rows), and,
    for each, only the column sets least under its column translations
    (Symmetry.least_cols), both filtered from the whole tables
    (symmetry.least_sets). Let f(R) = max_C (m - rank a[R, C]) over the
    level's column sets. A verified map (pi, sigma)
    sends a[R, C] to a[pi(R), sigma(C)] with the same singular values, and
    sigma permutes the column sets, so f(pi(R)) = f(R). The search raises its
    best at the first row set R with f(R) > best; every row set before R
    has f <= best, and R's least orbit member R' <= R has f(R') = f(R), so
    R' = R, whatever best starts from, a seed's value too. Every raise, and
    every exit at the ceiling (each is a raise), is at a representative,
    and the reduced search raises and exits at the same row sets. With pi =
    id, m - rank a[R, .] is constant on column translation orbits, so the
    first column set reaching a row set's maximum is least in its orbit:
    values, witnesses and exits are those of the unreduced search given the
    same seed. Its decisions are a subset of the unreduced
    search's, each made the same way (batch_ranks decides a block the same
    in any batch), so the worst gap ratio can only fall. On a matrix whose
    maps hold only to within rounding, blocks of one orbit have singular
    values within the bound of symmetry.verify's docstring, so the two
    searches can differ only where a decision is that close to its
    threshold.

    rank.batch_ranks decides the row sets a batch at a time, and each
    batch's rows are then replayed in order as if decided one by one: the
    witness is the first to achieve the maximum, an exit happens at the
    first row that reaches the ceiling, and the worst gap ratio covers only
    the rows up to that exit, not those the batch decided past it. alone
    says whether the last grid searched, here or in the caller's previous
    call, exited at its first row set; then the next grid's first batch is
    that one row set (batch_ranks's first_rows), and the rest take the usual
    size. A skipped m, or level, leaves the bit as it was. Identity-like
    input exits at the first row set of every grid, and its first batches
    would otherwise decide up to hundreds of blocks that the replay throws
    away. Batching changes no decision, so nothing returned but the bit
    depends on it.

    Returns (value, selector or None, worst gap ratio seen, alone after the
    last grid searched).
    """
    d = a.shape[0]
    sym = symmetry.Symmetry(d) if sym is None else sym
    stop_at = d if stop_at is None else stop_at
    best, best_sel, worst_gap = (0, None, 0.0) if seed is None else seed
    if best >= _level_ceiling(d, t, mu, e, rank_tol, stop_at):
        return best, best_sel, worst_gap, alone
    for m in range(1, d - t + 1):
        c = m + t
        threshold = rank_threshold((m, c), rank_tol, 1.0)
        ceiling = min(m, d - c, _coherence_cap((m, c), d, mu, e, threshold), stop_at)
        if ceiling <= best:
            continue
        if callable(sym):
            sym = sym()
        row_sets, col_sets = sym.least_rows(m), sym.least_cols(c)
        batches = batch_ranks(a, row_sets, col_sets, threshold, 1 if alone else None)
        alone, seen = False, 0
        for rows, ranks, gaps in batches:
            # Replay the batch in order: the sequential search stops at the
            # first row set that reaches the ceiling, its best is the first
            # maximum up to there, and only the rows it visits count towards
            # the gap.
            row_best = m - ranks.min(axis=1)
            reached = np.flatnonzero(row_best >= ceiling)
            visited = reached[0] + 1 if reached.size else len(rows)
            seen += visited
            i = int(np.argmax(row_best[:visited]))
            worst_gap = max(worst_gap, float(gaps[:visited].max()))
            if row_best[i] > best:
                best = int(row_best[i])
                first = int(np.argmin(ranks[i]))
                best_sel = SubmatrixSelector(rows[i].tolist(), col_sets[first].tolist())
            if best >= ceiling:
                alone = seen == 1
                break
    return best, best_sel, worst_gap, alone


def _complement_deficiency(
    a: np.ndarray, sel: Optional[SubmatrixSelector], rank_tol: float
) -> int:
    """Column deficiency of the complement of a row witness, decided at the
    complement's own shape threshold; 0 when there is no witness."""
    if sel is None:
        return 0
    comp = sel.complement(a.shape[0])
    decided = numerical_rank(extract_submatrix(a, comp), rank_tol, scale=1.0)
    return len(comp.cols) - decided.rank


def _seed(
    a: np.ndarray, t: int, rank_tol: float, candidates: list[SubmatrixSelector]
) -> tuple[int, SubmatrixSelector, float] | None:
    """The seed of _max_row_deficiency at level t: of the candidate m x (m +
    t) blocks, each decided once by batch_ranks alone at its shape's
    threshold, the most deficient, the first in the search's order among
    equals, as (value, selector, gap), gap the largest of their gaps; None
    when none is deficient (every gap is then 0)."""
    decided = []
    for sel in dict.fromkeys(candidates):
        m = len(sel.rows)
        threshold = rank_threshold((m, m + t), rank_tol, 1.0)
        ((_, ranks, gaps),) = batch_ranks(a, np.array([sel.rows]), np.array([sel.cols]), threshold)
        decided.append((m - int(ranks[0, 0]), sel, float(gaps[0, 0])))
    value, sel, _ = min(decided, key=lambda f: (-f[0], len(f[1].rows), f[1].rows, f[1].cols))
    return (value, sel, max(f[2] for f in decided)) if value > 0 else None


def _descent(
    tm: TransitionMatrix, rank_tol: float, sym: symmetry.Symmetry | None = None, floors=None
):
    """The row search of every level that needs one, yielded as
    (t, value, witness, worst gap ratio) for t descending from d - 1.

    The searches reduce by sym, verified here (symmetry.verify) when not
    given, on first use: the level search calls it at the first m that it
    searches, of any level, so a descent whose every level is skipped whole
    or decided by its seeds verifies nothing. Each level is searched with
    stop_at one above the value at t + 1, the unit-step bound on consecutive
    levels, so a search ends the moment it reaches that bound. Level d - 1
    has no candidate (its interlacing ceiling is 0), so the first bounded
    search is at t = d - 2 with stop_at 1: up to the first deficient level
    every search asks only whether a deficient block exists, the question
    tau_fast asks. Each search gets the bit the one before it left (alone,
    see _max_row_deficiency), so a grid after one that exited at its first
    row set starts with that row set alone.

    Each level is seeded (_seed) with at most two blocks, decided before it
    is searched:

    - the witness of level t + 1 less its last column, an m x (m + t) block
      whose deficiency is at least the value at t + 1 in exact arithmetic
      (dropping a column cannot raise the rank);
    - where the descent seeds from coset blocks (below), the level's coset
      block of fourier.coset_blocks, which depends on d only and is read
      once per descent. At tau its value is 1, stop_at, so that level's
      search skips every m.

    The value at each level is the same as unseeded; the witness is the
    seed unless some block beats it (_max_row_deficiency).

    The descent seeds from coset blocks where both translations are
    verified on a composite d >= symmetry.MIN_REDUCED_DIM (coset_blocks(d)[0]
    has a block exactly when d is composite). Everywhere else it first runs
    the level-0 step, _square_blocks_clear given floors, and yields nothing
    when the step certifies that every level is 0. Skipping the step where
    the descent seeds from coset blocks changes no output: a step that
    returns True makes every decision of the level search full rank
    (_square_blocks_clear), the seeds' too, as each seed is one of its
    blocks decided at its shape's threshold by batch_ranks, which decides a
    block the same in any batch. The descent then yields only zero levels,
    with no witness and gap 0, which is what the step's True reports, and a
    step that returns False leaves the descent as it is.

    Without sym, symmetry.translates decides the translations, and only
    where the rule reads them: d >= MIN_REDUCED_DIM and composite. Its
    flatness test lets input that cannot hold both, a Haar unitary among
    it, skip the test of the two maps. mu is the matrix's coherence
    (TransitionMatrix.coherence), for that test and for the coherence cap.
    The whole group is verified after the step, at most once per descent,
    and its translations then agree with translates'.
    """
    d = tm.dim
    cosets = fourier.coset_blocks(d) if d >= symmetry.MIN_REDUCED_DIM else None
    if cosets is None or cosets[0][1] is None:  # d below MIN_REDUCED_DIM, or prime
        translate = False
    elif sym is None:
        translate = symmetry.translates(tm.matrix, tm.residual, tm.coherence)
    else:
        translate = sym.row_shift and sym.column_translations
    if not translate:
        if _square_blocks_clear(tm, rank_tol, floors):
            return
        cosets = None
    if sym is None:  # verified at the first m searched (_max_row_deficiency)
        sym = functools.cache(lambda: symmetry.verify(tm.matrix, tm.residual))
    value, sel, alone = None, None, False
    for t in range(d - 1, -1, -1):
        stop_at = None if value is None else value + 1
        coset = None if cosets is None else cosets[t][1]
        above = None if sel is None else SubmatrixSelector(sel.rows, sel.cols[:-1])
        candidates = [c for c in (coset, above) if c is not None]
        seed = _seed(tm.matrix, t, rank_tol, candidates) if candidates else None
        value, sel, gap, alone = _max_row_deficiency(
            tm.matrix, t, tm.coherence, d * tm.residual, stop_at=stop_at, rank_tol=rank_tol,
            sym=sym, alone=alone, seed=seed,
        )
        yield t, value, sel, gap


def _level_search(
    tm: TransitionMatrix, t: int, rank_tol: float
) -> tuple[int, Optional[SubmatrixSelector]]:
    """The level-t row search behind r_row, r_col and r_t: one row set per
    orbit of the verified symmetry, which leaves the value and the first
    maximizing selector unchanged (see _max_row_deficiency)."""
    _check_level(tm.dim, t, rank_tol)
    value, sel, _, _ = _max_row_deficiency(
        tm.matrix, t, tm.coherence, tm.dim * tm.residual, rank_tol=rank_tol,
        sym=symmetry.verify(tm.matrix, tm.residual),
    )
    return value, sel


def r_row(
    tm: TransitionMatrix, t: int, *, rank_tol: float = DEFAULT_RANK_TOL
) -> tuple[int, Optional[SubmatrixSelector]]:
    """Level-t row deficiency with the first maximizing selector."""
    return _level_search(tm, t, rank_tol)


def r_col(
    tm: TransitionMatrix, t: int, *, rank_tol: float = DEFAULT_RANK_TOL
) -> tuple[int, Optional[SubmatrixSelector]]:
    """Level-t column deficiency with the complement of r_row's witness."""
    _, sel = _level_search(tm, t, rank_tol)
    value = _complement_deficiency(tm.matrix, sel, rank_tol)
    return value, sel.complement(tm.dim) if sel is not None else None


def r_t(tm: TransitionMatrix, t: int, *, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Level-t deficiency: the larger of the row and column values."""
    value, sel = _level_search(tm, t, rank_tol)
    return max(value, _complement_deficiency(tm.matrix, sel, rank_tol))


def deficiency_profile(
    tm: TransitionMatrix, *, rank_tol: float = DEFAULT_RANK_TOL, floors: list | None = None
) -> DeficiencyProfile:
    """Compute every level, tau, chi, and per-level witnesses from _descent;
    a level it does not search is 0, and the witnesses and worst_gap_ratio
    are those of its searches. The symmetry is verified up front, so the
    profile reports it whether or not the level-0 step decides the input.
    floors: min_support_uncertainty's, for the level-0 step."""
    check_tolerance("rank_tol", rank_tol)
    d = tm.dim
    row_vals = [0] * d
    col_vals = [0] * d
    witnesses: list[Optional[DeficiencyWitness]] = [None] * d
    worst = 0.0
    sym = symmetry.verify(tm.matrix, tm.residual)
    for t, value, sel, gap in _descent(tm, rank_tol, sym, floors):
        col = _complement_deficiency(tm.matrix, sel, rank_tol)
        row_vals[t], col_vals[t] = value, col
        worst = max(worst, gap)
        if sel is not None:
            witnesses[t] = (
                DeficiencyWitness("row", sel, value)
                if value >= col
                else DeficiencyWitness("col", sel.complement(d), col)
            )
    r_values = tuple(map(max, row_vals, col_vals))
    tau = r_values.index(0) - 1
    return DeficiencyProfile(
        dim=d,
        r_values=r_values,
        r_row_values=tuple(row_vals),
        r_col_values=tuple(col_vals),
        tau=tau,
        chi=d - tau,
        witnesses=tuple(witnesses),
        worst_gap_ratio=worst,
        row_group_order=sym.row_order,
        column_translations=sym.column_translations,
    )


def tau_fast(tm: TransitionMatrix, *, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """The deficiency index: the first t of _descent with a deficient block,
    or -1, without the column checks of deficiency_profile (a column-deficient
    block's complement is row deficient at the same t)."""
    check_tolerance("rank_tol", rank_tol)
    return next((t for t, value, _, _ in _descent(tm, rank_tol) if value > 0), -1)
