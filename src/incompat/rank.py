"""Numerically robust rank decisions for complex submatrices.

Rank is decided by SVD with the relative threshold tol * sigma_scale *
max(rows, cols). By default sigma_scale is the matrix's own largest singular
value; searches over submatrices of a unitary pass scale=1.0 so that nearly
zero submatrices (all singular values at roundoff level relative to the
parent) are decided at the parent's scale rather than their own.

The searches' one rank step, batch_ranks, decides a grid: an array of row
sets in search order times every column set of one shape. It sizes its
own batches, at most BATCH_ENTRIES block entries each, so memory does not
grow with d, and yields each batch's rows with their ranks and gaps. The
searches replay each batch's rows in the sequential order, so the
first-achieving witness, the early exits and the worst gap are those of a
search that decides one row set at a time. Each slice of a batch is
gathered once, into one stack of blocks. In a slice of at least
GRAM_MIN_BLOCKS blocks, batch_ranks first tries to prove each block full
rank from its k x k Gram matrix G, S S^H or S^H S by one batched product:
sigma_min^2 = lambda_min(G) >= det(G) * ((k - 1) / tr G)^(k - 1) (AM-GM on
the other eigenvalues), evaluated with an explicit allowance for rounding.
A block is certified only when that bound, less the allowance, puts
sigma_min above the threshold itself. The allowance also puts it above the
threshold by more than the SVD's own error, so the SVD would keep all k
singular values too and the certificate skips SVDs without changing a
decision, at every tolerance. The SVD takes the slice's other blocks.
Every rank and gap, of a batch or of numerical_rank and every kernel
witness, is counted by one rule (_ranks_and_gaps).

The two square steps, the level search's level 0 and the subset search's
square level, ask one question: is every m x m block full rank, for m up to
some size, each size at its own threshold? squares_full_rank answers it. It
walks the prefix tree of row sets depth first and gets each block's minor
from its row prefix's by Laplace expansion, m gathered multiply-adds per
block against O(m^3) for a Gram matrix or an SVD. Since every singular
value of a block is at most ||a||_2, sigma_min >= |det| / ||a||_2^(m-1), so
a block whose minor clears the threshold by a proven rounding bound is
certified from the minor alone; every other block goes to batch_ranks, so
the answer is batch_ranks's over every block. strong_minors runs the same
walk and keeps, per size, which blocks their minors certify at one
threshold, and subset_covers carries such a table from row sets to their
supersets, for the subset search's tall blocks.

Every search reads its subsets, row sets and column sets alike, as whole
arrays from one table per (d, k), lex_sets, the k-subsets of range(d) in
lexicographic order, and every table indexed by subsets is indexed by
their rank in it. The walk's drop ranks (_drop_ranks) and the orbit
representatives of symmetry.least_sets are derived from it. Each is built
once and kept while it has at most TABLE_CACHE_ENTRIES entries
(cached_when_small); a larger one is built for the call that needs it, so
what stays cached between calls does not grow with d.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import NoKernelError, NonFiniteEntryError
from .matrices import SubmatrixSelector

DEFAULT_RANK_TOL = 1e-10
# Decisions whose dropped/kept singular value ratio exceeds this are fragile:
# the caller should not trust the classification without a second look.
FRAGILE_GAP_RATIO = 1e-3
# State coordinates and witness coefficients with modulus above this count
# as nonzero.
DEFAULT_ZERO_THRESHOLD = 1e-8
# A batch of batch_ranks holds at most this many block entries (blocks x
# rows x cols), whatever d is, unless one block alone is larger. A slice's
# gathered blocks, and its Gram stack and Cholesky factor (k x k per block,
# k = min(rows, cols)), then take at most 64 KiB each; larger batches save
# little per-call time and raise the peak memory.
BATCH_ENTRIES = 2**12
# A slice of fewer blocks than this goes straight to the SVD: the Gram
# certificate's fixed cost, about 15 numpy calls, exceeds the SVD of so few.
GRAM_MIN_BLOCKS = 16
# Every cached table follows one rule (cached_when_small): those of at most
# this many entries stay cached, at most 32 of each kind, 1 MiB each:
# lex_sets's, the walk's drop ranks and the orbit representatives. Larger
# ones, from d = 12 on, are built per call.
TABLE_CACHE_ENTRIES = 2**12
# The float64 constants the rounding bounds read, looked up once.
EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)
SUBNORMAL = float(np.finfo(float).smallest_subnormal)


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

    The rank and gap come from _ranks_and_gaps, the rule batch_ranks applies
    to whole batches, so every caller decides rank identically. Blocks that
    batch_ranks certifies full rank without an SVD have every singular value
    above the threshold by more than the SVD's own error, so this rule would
    keep all of them too.
    """
    if scale is None:
        scale = float(s[0]) if s.size else 0.0
    ranks, gaps = _ranks_and_gaps(s[None], rank_threshold(shape, tol, scale))
    rank = int(ranks[0])
    kept = float(s[rank - 1]) if rank > 0 else 0.0
    dropped = float(s[rank]) if rank < s.size else 0.0
    return RankResult(rank, kept, dropped, float(gaps[0]))


def _ranks_and_gaps(s: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """The keep/drop rule for each row of s, a stack of descending singular
    values: the rank is the count above threshold, and the gap the largest
    dropped over the smallest kept value (0 for zero- or full-rank rows)."""
    ranks = (s > threshold).sum(axis=1)
    gaps = np.zeros(len(s))
    inner = np.flatnonzero((ranks > 0) & (ranks < s.shape[1]))
    if inner.size:
        r = ranks[inner]
        gaps[inner] = s[inner, r] / s[inner, r - 1]
    return ranks, gaps


def batch_ranks(
    a: np.ndarray, row_sets: np.ndarray, col_sets: np.ndarray, threshold: float,
    first_rows: int | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Ranks and gap ratios of a[R, K] for every row set R and column set K.

    Both combinatorial searches decide rank here. The row sets, an array of
    one row set per row, are decided in order, a batch at a time; each
    batch is yielded as (rows, ranks, gaps), rows the batch's slice of
    row_sets and the decision for a[rows[i], col_sets[j]] at [i, j]. A batch
    keeps within BATCH_ENTRIES block entries; a row set whose column sets
    alone are over it is a batch of its own, decided in slices of its column
    sets. With first_rows, the first batch holds at most that many row sets:
    a search that expects to stop at its first row set asks for only that
    one. An empty grid, with no row sets or no column sets, yields nothing.

    Each slice's blocks are gathered once, into one (rows, cols, m, c)
    stack. A block that the Gram determinant certificate
    (_certified_full_rank) proves to have every singular value above
    ``threshold``, by more than the SVD's own error, gets rank k = min(m, c)
    and gap 0 without an SVD: the SVD would keep all k singular values of
    such a block, and the gap of a full-rank block is 0. The other blocks go
    to one batched SVD, none when all are certified, and their ranks and
    gaps come from _ranks_and_gaps.
    """
    (n_rows, m), (n_cols, c) = row_sets.shape, col_sets.shape
    if not (n_rows and n_cols):
        return
    k = min(m, c)
    col_step = min(n_cols, max(1, BATCH_ENTRIES // (m * c)))
    row_step = max(1, BATCH_ENTRIES // (col_step * m * c))
    step = row_step if first_rows is None else min(first_rows, row_step)
    start = 0
    while start < n_rows:
        rows = row_sets[start : start + step]
        start, step = start + step, row_step
        ranks = np.full((len(rows), n_cols), k)
        gaps = np.zeros((len(rows), n_cols))
        for j in range(0, n_cols, col_step):
            cols = col_sets[j : j + col_step]
            blocks = a[rows[:, None, :, None], cols[None, :, None, :]]
            todo = ~_certified_full_rank(blocks, threshold)
            if todo.any():
                s = np.linalg.svd(blocks[todo], compute_uv=False)
                part = np.s_[:, j : j + len(cols)]
                ranks[part][todo], gaps[part][todo] = _ranks_and_gaps(s, threshold)
        yield rows, ranks, gaps


def squares_full_rank(
    a: np.ndarray, thresholds: list[float], residual: float, *,
    row_0_at_top: bool = False, floors: list | None = None,
) -> bool:
    """Whether batch_ranks finds every m x m block of the d x d matrix a full
    rank at thresholds[m - 1], for m = 1..top = len(thresholds); with
    row_0_at_top, only the row sets that hold row 0 at m = top. residual is
    ||a^H a - I||_max as computed (TransitionMatrix.residual).

    floors, a list, holds each size's floor from an earlier call on the
    same a: the least computed |minor| of the size, NaN if any is NaN. A
    walk of a to a size at most the earlier top computes bit-identical
    minors, so it would certify every block when each size's need_m is
    below its floor; then True is returned without a walk. Otherwise a
    walk with row_0_at_top False that returns True writes its floors into
    the list, unless the list already holds more sizes, which it leaves as
    it was. So analyze_transition lets the level-0 step read the subset
    search's walk, one list per call; each step keeps its own thresholds
    and proof.

    The minors come from _square_minors, an expansion of m terms per block
    in the minors of its row prefix, and a block is certified full rank from
    its minor alone. Every block that is not certified goes to batch_ranks
    at its size's threshold, in two grids per slice of row sets: the first
    row set with an uncertified block times the column sets of its
    uncertified blocks, then the slice's other such row sets times the
    column sets of any of theirs. The walk stops at the first grid with a
    deficient block. So the result is exactly that of batch_ranks over
    every block. A step that finds a deficient block mostly ends at its
    first uncertified row set's grid, a few blocks, which batch_ranks
    leaves to one SVD (GRAM_MIN_BLOCKS).

    Certificate. First, N = (1 + d residual)(1 + 4 d^2 eps) bounds ||a||_2.
    Each entry of a^H a is a dot product of d terms, between columns of
    squared norm at most 1 + r, r the exact ||a^H a - I||_max, so the
    computed residual is within 2 d eps (1 + r) of r, and ||a||_2^2 <= 1 +
    ||a^H a - I||_2 <= 1 + d r gives ||a||_2 <= 1 + d r / 2 <= N. Every
    singular value of a block S is at most N, so for S m x m

        sigma_min(S) >= |det S| / N^(m-1).

    Second, E_m bounds the error of the computed minors of size m (E_0 = 0:
    the root's minor is 1). A minor of size m is a complex dot product of m
    terms x_k y_k: x is a row of a over m columns, so sum |x_k| <= sqrt(m)
    N, and y_k is a computed minor of size m - 1 times +-1, so |y_k| <=
    N^(m-1) + E_(m-1). Their errors add at most sqrt(m) N E_(m-1). The dot
    product itself, in any order and with or without fused multiply-adds,
    is within (m + 2) eps / sqrt(2) < 4 m eps of sum |x_k| |y_k| of exact,
    plus 2 m eta from underflow, eta the smallest subnormal; _square_minors
    sums the m products in order, each sign exact. So

        E_m = sqrt(m) N ((1 + 4 m eps) E_(m-1) + 4 m eps N^(m-1)) + 4 m eta.

    A block is certified when its computed |det| exceeds

        need_m = (1 + 8 m eps) (E_m + (th + 32 m^2 eps N) N^(m-1)),

    th = thresholds[m - 1]. The factor 1 + 8 m eps covers the rounding of
    |det| and of need_m itself, about 2 m + 4 operations. A certified block
    has |det S| > need_m / (1 + 8 m eps) - E_m, so

        sigma_min(S) > th + 32 m^2 eps N >= th + 8 (m + m)^2 eps sigma_max,

    the margin _certified_full_rank keeps. That is more than the SVD's own
    error of a few (m + m) eps sigma_max, so batch_ranks gives a certified
    block rank m too, whether its Gram certificate or its SVD decides it.

    The computed minors of size m are at most about E_m / (2 m eps) in
    modulus, so while need_m / eps is finite none overflows. A size whose
    need_m / eps is not finite certifies nothing: its minors, overflowed or
    NaN among them, all go to batch_ranks, which guards its own arithmetic.
    """
    need = [bound for _, bound in _minor_bounds(a.shape[0], residual, thresholds)]
    if floors and len(floors) >= len(need) and all(n < low for n, low in zip(need, floors)):
        return True
    record = floors is not None and not row_0_at_top
    low = [math.inf] * len(thresholds)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, cols, minors in _square_minors(a, len(thresholds), row_0_at_top):
            m = cols.shape[1]
            size = np.abs(minors)
            if record:
                # np.minimum keeps a NaN minor's NaN, which fails every comparison.
                low[m - 1] = np.minimum(low[m - 1], size.min())
            weak = ~(size > need[m - 1])
            if not weak.any():
                continue
            # The first row set with an uncertified block alone, then the rest:
            # a deficient block is often on the first, and its grid is small.
            weak_rows = np.flatnonzero(weak.any(axis=1))
            for group in (weak_rows[:1], weak_rows[1:]):
                col_sets = cols[weak[group].any(axis=0)]
                for _, ranks, _ in batch_ranks(a, rows[group], col_sets, thresholds[m - 1]):
                    if ranks.min() < m:
                        return False
    if record and len(low) >= len(floors):
        floors[:] = low
    return True


def strong_minors(
    a: np.ndarray, top: int, threshold: float, residual: float
) -> list[np.ndarray]:
    """Which m x m blocks of the d x d matrix a, m = 1..top, have a minor
    that certifies them full rank at threshold: strong[m - 1][i, j] for
    the m-row set lex_sets(d, m)[i] and the m-column set lex_sets(d, m)[j],
    from one walk of _square_minors to size top, whose row sets of each
    size come in that order.

    The certificate is squares_full_rank's with every size at threshold: a
    block is strong when its computed |det| exceeds need_m (_minor_bounds),
    and then sigma_min(S) > threshold + 32 m^2 eps N, N >= ||a||_2 from the
    residual, as proven there. A taller block U[R, K] with |R| > m = |K| is
    then full column rank too when U[R', K] is strong for some m-subset R'
    of R: deleting rows can only lower singular values, so sigma_m(U[R, K])
    >= sigma_min(U[R', K]) (Horn & Johnson, Topics in Matrix Analysis, Cor.
    3.1.3). A minor that overflows or is NaN, or a size whose need_m is not
    finite, certifies nothing. The tables take sum_m C(d, m)^2 bytes. The
    walk's minors of size 1 are the entries themselves, so top = 1 reads
    them off a without a walk.
    """
    d = a.shape[0]
    need = [bound for _, bound in _minor_bounds(d, residual, [threshold] * top)]
    strong = [np.zeros((math.comb(d, m),) * 2, dtype=bool) for m in range(1, top + 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        strong[0] = np.abs(a) > need[0]
        walk = _square_minors(a, top) if top > 1 else ()
        seen = [0] * top  # row sets of each size so far
        for rows, _, minors in walk:
            m, n = rows.shape[1], len(rows)
            strong[m - 1][seen[m - 1] : seen[m - 1] + n] = np.abs(minors) > need[m - 1]
            seen[m - 1] += n
    return strong


def subset_covers(table: np.ndarray, d: int, m: int, top: int) -> list[np.ndarray]:
    """For a boolean table over the m-row sets of a d x d matrix, row i for
    the set lex_sets(d, m)[i] (strong_minors's, with any columns), the
    tables over the r-row sets for r = m..top: row i of the r-th is the OR
    of table's rows over the m-subsets of lex_sets(d, r)[i].

    Each is the OR of the last one's rows over the set less one of its
    first m + 1 entries, read at _drop_ranks: an m-subset of a larger set
    misses one of those m + 1 entries, so it lies in one of those sets, and
    each of them lies in the set."""
    covers = [table]
    for r in range(m + 1, top + 1):
        drop = _drop_ranks(d, r)[: m + 1]
        covers.append(np.bitwise_or.reduce(covers[-1][drop], axis=0))
    return covers


def _minor_bounds(
    d: int, residual: float, thresholds: list[float]
) -> list[tuple[float, float]]:
    """(E_m, need_m) for m = 1..len(thresholds), as in squares_full_rank:
    the error bound of the computed m x m minors of a d x d matrix with this
    residual, and the modulus above which such a minor certifies its block
    at thresholds[m - 1]. Products only, no ** or pow: a huge residual must
    give inf, not OverflowError, and Python floats, which do not warn."""
    eps, eta = EPS, SUBNORMAL
    norm = (1 + d * residual) * (1 + 4 * d * d * eps)
    bounds = []
    err, power = 0.0, 1.0  # E_(m-1) and N^(m-1)
    for m, th in enumerate(map(float, thresholds), 1):
        err = math.sqrt(m) * norm * ((1 + 4 * m * eps) * err + 4 * m * eps * power) + 4 * m * eta
        need = (1 + 8 * m * eps) * (err + (th + 32 * m * m * eps * norm) * power)
        bounds.append((err, need if need / eps < math.inf else math.inf))
        power *= norm
    return bounds


def cached_when_small(build):
    """The table builder build(d, k, *key), for tables of at most k * C(d,
    k) entries, with the tables of at most TABLE_CACHE_ENTRIES entries kept
    in an LRU cache of 32 and the larger ones built for the caller."""
    cached = functools.lru_cache(maxsize=32)(build)

    @functools.wraps(build)
    def table(d: int, k: int, *key):
        small = k * math.comb(d, k) <= TABLE_CACHE_ENTRIES
        return (cached if small else build)(d, k, *key)

    table.cache_clear, table.cache_info = cached.cache_clear, cached.cache_info
    return table


@cached_when_small
def lex_sets(d: int, k: int) -> np.ndarray:
    """The k-subsets of range(d) in lexicographic order, one per row;
    read-only. Every search reads its subsets from here."""
    combos = itertools.chain.from_iterable(itertools.combinations(range(d), k))
    sets = np.fromiter(combos, dtype=np.intp, count=k * math.comb(d, k))
    sets = sets.reshape(math.comb(d, k), k)
    sets.flags.writeable = False
    return sets


@cached_when_small
def _drop_ranks(d: int, m: int) -> np.ndarray:
    """drop[k, i], the rank in lex_sets(d, m - 1) of lex_sets(d, m)[i] less
    its k-th entry; read-only."""
    # An increasing n-tuple c has rank comb(d, n) - 1 - sum_i p[c_i, n - i],
    # p[c, j] = comb(d - 1 - c, j). So C - c_k has rank comb(d, m - 1) - 1 -
    # sum_{i<k} keep[i] - sum_{i>k} down[i], keep[i] = p[c_i, m - 1 - i] and
    # down[i] = p[c_i, m - i]: keep + comb(d, m - 1) - 1 - sum(down) -
    # cumsum(keep - down), built in place in down, so three tables are live.
    pascal = np.array([[math.comb(d - 1 - c, j) for j in range(m + 1)] for c in range(d)])
    sets = lex_sets(d, m).T
    keep, drop = (pascal[sets, np.arange(m - j, -j, -1)[:, None]] for j in (1, 0))
    total = drop.sum(axis=0)
    np.cumsum(np.subtract(keep, drop, out=drop), axis=0, out=drop)
    keep -= total
    keep += math.comb(d, m - 1) - 1
    np.subtract(keep, drop, out=drop)
    drop.flags.writeable = False
    return drop


def _square_minors(a: np.ndarray, top: int, row_0_at_top: bool = False):
    """Every m x m minor of the d x d matrix a, m = 1..top (with
    row_0_at_top, at m = top only those on row sets that hold row 0).

    The row sets form a prefix tree: R = (r_1 < ... < r_m) is the child of
    R' = R - r_m, and expanding along the last row,

        det a[R, C] = sum_k (-1)^(m-1+k) a[r_m, c_k] det a[R', C - c_k],

    m terms per block, the column sets C of each size lex_sets's and det
    a[R', C - c_k] read at _drop_ranks. The walk is depth first over a
    stack of frames, each a chunk of row sets of one size, their minors over
    all column sets and a cursor into their (row set, new row) pairs in
    lexicographic order. Each step takes the top frame's next slice of
    pairs, at most BATCH_ENTRIES minors and parent minors (or one pair),
    computes their minors as m gathered multiply-adds, yields them as (rows,
    cols, minors), minors[i, j] = det a[rows[i], cols[j]], and pushes them
    as the next frame. So each size's row sets come in lexicographic order,
    and each depth holds one chunk: about (top + 3) BATCH_ENTRIES entries
    live, whatever the number of row sets, besides each size's tables,
    fetched when first reached.
    """
    d = a.shape[0]
    tables, stack = {}, []

    def push(rows, minors):
        m = rows.shape[1] + 1
        kids = np.arange(d) > (rows[:, -1:] if m > 1 else np.full((1, 1), -1))
        if m == top and row_0_at_top:
            kids &= (np.arange(d) == 0) if m == 1 else (rows[:, :1] == 0)
        parent, new = np.nonzero(kids)
        if parent.size and m <= top:
            stack.append([rows, minors, parent, new, 0])

    push(np.zeros((1, 0), dtype=np.intp), np.ones((1, 1), dtype=complex))
    while stack:
        rows, minors, parent, new, start = frame = stack[-1]
        m = rows.shape[1] + 1
        if m not in tables:
            # The k-th entries of the column sets as one contiguous row each:
            # take copies an index array that is not contiguous.
            tables[m] = _drop_ranks(d, m), lex_sets(d, m).T.copy()
        drop, cols = tables[m]
        stop = frame[4] = start + max(1, BATCH_ENTRIES // max(minors.shape[1], cols.shape[1]))
        if stop >= len(parent):
            stack.pop()
        p, r = parent[start:stop], new[start:stop]
        # The first term's sign goes on the rows of a, the others alternate.
        x, y = (a[r] if m % 2 else -a[r]), minors[p]
        shape = (len(p), cols.shape[1])
        child, terms, factors = (np.empty(shape, dtype=complex) for _ in range(3))
        y.take(drop[0], axis=1, out=child, mode="clip")
        x.take(cols[0], axis=1, out=factors, mode="clip")
        child *= factors
        for k in range(1, m):
            y.take(drop[k], axis=1, out=terms, mode="clip")
            x.take(cols[k], axis=1, out=factors, mode="clip")
            terms *= factors
            (np.subtract if k % 2 else np.add)(child, terms, out=child)
        kid_rows = np.column_stack([rows[p], r])
        yield kid_rows, cols.T, child
        if m < top:
            push(kid_rows, child)


def _certified_full_rank(blocks: np.ndarray, threshold: float) -> np.ndarray:
    """Which blocks S of a stack have sigma_min > threshold, proven with room
    for the SVD's own error.

    blocks is batch_ranks's gathered slice, (rows, cols, m, c), and entry [i,
    j] of the result is for blocks[i, j]. A slice of fewer than
    GRAM_MIN_BLOCKS blocks certifies nothing, which is trivially sound. With
    k = min(m, c) and G the k x k Gram matrix of a block (S S^H or S^H S,
    whichever is smaller), sigma_min(S)^2 = lambda_min(G), and since the
    other k - 1 eigenvalues have product at most ((tr G) / (k - 1))^(k - 1)
    (AM-GM),

        lambda_min(G) >= det(G) * ((k - 1) / tr G)^(k - 1)

    (det G itself for k = 1). The bound is evaluated on A = G / tr G + shift
    * I, with shift = 32 (n + k)^2 eps and n = max(m, c): det(A) is the
    squared product of the diagonal of A's Cholesky factor, and tr A = 1 + k
    * shift, with tr G as computed throughout. Rounding in the trace, the
    Gram sums, the division, the factorization and the bound itself moves
    bound(A) from the bound of the exact A by a few tens of (n + k) units of
    roundoff, well below shift / 2, and lambda_min(A) = lambda_min(G) / tr G
    + shift, so

        lambda_min(G) / tr G >= bound(A) - shift - shift / 2.

    A's eigenvalues are at least about shift, far above the 20 k^1.5 units
    of roundoff below which the Cholesky factorization can break down, so it
    cannot fail.

    A block is certified when tr G (bound(A) - 2 shift) > threshold^2, the
    rank threshold itself. The test subtracts 2 shift, so a certified block
    has

        sigma_min^2 >= tr G (bound(A) - 2 shift) + tr G shift / 2
                     > threshold^2 + shift / 2 * tr G,

    and, since threshold < sigma_min <= sqrt(tr G),

        sigma_min - threshold = (sigma_min^2 - threshold^2) / (sigma_min + threshold)
                              > shift / 4 * sqrt(tr G)
                              >= 8 (n + k)^2 eps sigma_max.

    That margin is more than the SVD's own error of a few (n + k) eps
    sigma_max, so the SVD keeps all k singular values of a certified block:
    certification cannot change a rank decision, at any threshold.

    The candidates are the blocks whose own tr G is above the smallest
    normal float and at most its reciprocal. Above it, underflow in the Gram
    sums costs at most n units of roundoff relative to tr G; at most its
    reciprocal, 1 / tr G is normal and no Gram sum overflows, since every
    partial sum is at most tr G in modulus. The rest (all-zero blocks,
    blocks of tiny, huge or non-finite entries) are zeroed before the
    product and get A = shift * I, whose bound(A) - 2 * shift is negative,
    so they are left to the SVD. No threshold enters the candidate rule:
    bound(A) - 2 shift < 1, so a block with tr G at or below threshold^2
    fails the final test anyway. Each block's verdict reads its own entries
    only, so a bad block leaves every other block as it would be alone.
    """
    n_rows, n_cols, m, c = blocks.shape
    if n_rows * n_cols < GRAM_MIN_BLOCKS:
        return np.zeros((n_rows, n_cols), dtype=bool)
    k = min(m, c)
    shift = 32 * (max(m, c) + k) ** 2 * EPS
    trace = np.einsum("...ij,...ij->...", blocks, blocks.conj()).real
    candidate = (trace > TINY) & (trace <= 1 / TINY)
    if not candidate.all():
        blocks = np.where(candidate[..., None, None], blocks, 0)
    adjoint = blocks.conj().swapaxes(-1, -2)
    g = blocks @ adjoint if m <= c else adjoint @ blocks
    g *= np.divide(1.0, trace, out=np.zeros(trace.shape), where=candidate)[..., None, None]
    g.reshape(n_rows, n_cols, k * k)[:, :, :: k + 1] += shift
    diag = np.linalg.cholesky(g).diagonal(axis1=-2, axis2=-1).real
    bound = diag.prod(axis=-1) ** 2 * ((k - 1) / (1 + k * shift)) ** (k - 1)
    # A product, not ** 2: a huge threshold must give inf, not OverflowError.
    return trace * (bound - 2 * shift) > threshold * threshold


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
    residual: float


def kernel_witness(
    matrix: np.ndarray,
    side: str,
    selector: SubmatrixSelector,
    tol: float = DEFAULT_RANK_TOL,
    scale: float | None = None,
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
        residual=residual,
    )


def _normalize_phase(z: np.ndarray) -> np.ndarray:
    """Rotate so the largest-modulus coefficient (first on ties) is real positive."""
    i = int(np.argmax(np.abs(z)))
    pivot = z[i]
    if pivot == 0:
        return z.copy()
    return z * (pivot.conjugate() / abs(pivot))
