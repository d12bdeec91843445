"""Support uncertainty of states with respect to a basis pair.

A state expressed in basis A has coordinates x (x_j is the overlap of the
j-th A vector with the state); its B coordinates are y = U^dag x. The support
uncertainty is the number of A coordinates above the zero threshold plus the
number of B coordinates above it. Its minimum over all nonzero states is chi,
and support_at_tau reads a state achieving it off the deficiency profile's
witness at t = tau. min_support_uncertainty finds the minimum independently,
by an exhaustive subset search: spans of a row subset and a column subset
intersect nontrivially exactly when the submatrix on the complementary rows
and the chosen columns is column rank deficient. Those rank decisions come
from rank.batch_ranks, the rank step the level search uses too, fed the
complementary row sets directly. The search decides its square level (total
size d: every n x n block, n = 1..d - 1) before any other, each square at
the threshold of the pairs' blocks inside it; when every square block is
full rank there, no smaller size can hit, and the search returns its first
pair of size d + 1 after computing C(2d, d) - 2 minors instead of deciding
about 4^d blocks. When that level does not clear, every level sends to
batch_ranks only the blocks that no square minor certifies full rank
(interlacing: a tall block has rank |K| when one of its square row
sub-blocks does). The minors come from one walk per call, and each row
set's certified blocks from those of its subsets, so the DFTs, whose
levels hold few deficient blocks, decide about ten blocks instead of tens
of thousands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deficiency import DeficiencyProfile
from .errors import DegenerateWitnessError, DimensionCapError, InvalidParameterError
from .errors import NonFiniteEntryError, ZeroVectorError
from .matrices import SubmatrixSelector, TransitionMatrix, check_tolerance
from .rank import (
    DEFAULT_RANK_TOL,
    DEFAULT_ZERO_THRESHOLD,
    EPS,
    KernelWitness,
    batch_ranks,
    kernel_witness,
    lex_sets,
    rank_threshold,
    squares_full_rank,
    strong_minors,
    subset_covers,
)

# 4^d subset pairs; above this the search is refused unless the cap is raised.
DEFAULT_SUPPORT_CAP = 10


@dataclass(frozen=True, eq=False)
class SupportWitness:
    """A state achieving the minimal support uncertainty, with its subsets."""

    state_in_a: np.ndarray
    n_a: int
    n_b: int
    n_ab: int
    subset_a: tuple[int, ...]
    subset_b: tuple[int, ...]


def support_counts(
    psi_in_a, tm: TransitionMatrix, zero_threshold: float = DEFAULT_ZERO_THRESHOLD
) -> tuple[int, int, int]:
    """(n_a, n_b, n_a + n_b) for a state given by its A coordinates."""
    x = np.asarray(psi_in_a, dtype=complex).reshape(-1)
    if x.shape != (tm.dim,):
        raise ValueError(f"state must have length {tm.dim}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteEntryError("state contains NaN or infinite entries")
    if np.linalg.norm(x) <= zero_threshold:
        raise ZeroVectorError("support counts are undefined for the zero state")
    y = tm.matrix.conj().T @ x
    n_a = int(np.count_nonzero(np.abs(x) > zero_threshold))
    n_b = int(np.count_nonzero(np.abs(y) > zero_threshold))
    return n_a, n_b, n_a + n_b


def support_at_tau(
    tm: TransitionMatrix,
    profile: DeficiencyProfile,
    *,
    zero_threshold: float = DEFAULT_ZERO_THRESHOLD,
    rank_tol: float = DEFAULT_RANK_TOL,
    kernel: KernelWitness | None = None,
) -> SupportWitness:
    """A state of minimal support uncertainty, read off the profile's witness.

    The row witness U[R, C] at t = tau has a left kernel vector z (z^T U[R, C]
    = 0), so x = conj(z) on R has B coordinates y = U^dag x vanishing on C:
    n_a + n_b <= |R| + (d - |R| - tau) = chi, with equality as chi is the
    minimum. For tau = -1 column 0 of U is a witness. _build_witness rebuilds
    x from y on the complement of C and checks both supports. kernel, when
    given, is tau_kernel(tm, profile, rank_tol=rank_tol), computed once by a
    caller that needs it elsewhere too; otherwise it is computed here.
    """
    check_tolerance("zero_threshold", zero_threshold)
    check_tolerance("rank_tol", rank_tol)
    d = tm.dim
    if profile.tau < 0:
        return _build_witness(tm, tuple(range(d)), (0,), np.ones(1, dtype=complex), zero_threshold)
    if kernel is None:
        kernel = tau_kernel(tm, profile, rank_tol=rank_tol)
    sel = kernel.selector
    subset_b = sel.complement(d).cols
    y = (tm.matrix[np.ix_(sel.rows, subset_b)].T @ kernel.coefficients).conj()
    return _build_witness(tm, sel.rows, subset_b, y, zero_threshold)


def tau_kernel(
    tm: TransitionMatrix, profile: DeficiencyProfile, *, rank_tol: float = DEFAULT_RANK_TOL
) -> KernelWitness | None:
    """The left kernel witness of the profile's row witness at tau (the
    complement of its witness when that is on the column side), decided at
    the block's own threshold; None for tau = -1. Raises NoKernelError when
    the block is full rank there."""
    if profile.tau < 0:
        return None
    w = profile.witnesses[profile.tau]
    sel = w.selector if w.side == "row" else w.selector.complement(tm.dim)
    return kernel_witness(tm.matrix, "left", sel, tol=rank_tol, scale=1.0)


def min_support_uncertainty(
    tm: TransitionMatrix,
    *,
    zero_threshold: float = DEFAULT_ZERO_THRESHOLD,
    rank_tol: float = DEFAULT_RANK_TOL,
    max_dim: int = DEFAULT_SUPPORT_CAP,
    floors: list | None = None,
) -> SupportWitness:
    """Brute-force minimal support uncertainty with an explicit witness state:
    the route to chi independent of the level search, which analyze_transition
    runs only when given an oracle_cap.

    Search order (first hit wins, so minimality holds by construction and the
    witness is deterministic): total size s ascending from 2; within s the
    B-subset size ascending; then A subsets lexicographic, B subsets
    lexicographic. A pair (S_A, S_B) hits when the submatrix on rows outside
    S_A and columns S_B has rank below |S_B|; its kernel vector rebuilds the
    state as a combination of the selected columns. The search always
    terminates by s = d + 1, where S_A is everything and any single column
    works. rank.batch_ranks decides the complements of the A subsets a batch
    at a time; the hit returned is the batch's first in the order above, the
    one a search deciding one A subset at a time would stop at.

    The s = d level is decided first, by _square_level_clear (which holds
    the proof): when it finds every n x n block full rank at tol * n plus a
    rounding allowance, no s <= d can hit and the search starts at s = d +
    1, whose first pair is the hit; otherwise it starts at s = 2.
    Either way the hit is the one the search from s = 2 returns. floors,
    when given, receives the minor floors of a clear square level.

    Every level with s <= d is screened by square minors before
    batch_ranks decides it. Its blocks U[R, K] are tall: r = |R| = d - n_a
    >= n_b = |K|. The block is certified when some n_b-row subset R' of R
    has a square minor that certifies U[R', K] at T + delta, T = tol * (d -
    1) the largest threshold of any level and delta the allowance of
    _square_level_clear; a certificate at the largest threshold holds at
    every smaller one, so one table per size serves every level. Only the
    row sets with an uncertified block go to batch_ranks, times the column
    sets of any of their uncertified blocks. _Screen holds the tables: the
    minors of size 1 are the entries, read without a walk; the first level
    with n_b >= 2 takes sizes up to d // 2 from one walk of
    rank.strong_minors, and only a level with a larger n_b, reached when
    no pair hits below s = d // 2 + 2, walks once more, to d - 1. The
    certified blocks of each (n_b, r) come from rank.subset_covers, built
    once per n_b and call for every r. Each level's row and column sets are
    read from rank.lex_sets, the row sets reversed.

    The screen changes no hit. A certified U[R', K] has sigma_min > T +
    delta (rank.strong_minors), and deleting rows can only lower singular
    values (interlacing, Horn & Johnson, Topics in Matrix Analysis, Cor.
    3.1.3), so sigma_nb(U[R, K]) >= sigma_min(U[R', K]) > tol * r + delta.
    As in _square_level_clear, the SVD moves sigma_nb by less than delta /
    2, so batch_ranks gives the block rank n_b, whether its Gram certificate
    or its SVD decides it: it is not a hit. So the grid sent to batch_ranks
    holds every block of the level that can hit, in the order above, and
    its first hit is the level's: the same hit and witness.
    """
    check_tolerance("zero_threshold", zero_threshold)
    check_tolerance("rank_tol", rank_tol)
    if max_dim < 1:
        raise InvalidParameterError(f"max_dim must be >= 1, got {max_dim}")
    d = tm.dim
    if d > max_dim:
        raise DimensionCapError(
            f"subset search over dimension {d} exceeds the cap {max_dim}"
        )
    a = tm.matrix
    first = d + 1 if _square_level_clear(tm, rank_tol, floors) else 2
    screen = _Screen(tm, rank_tol)
    for s in range(first, d + 2):
        for nb in range(1, s):
            na = s - nb
            if na == d:
                # No complementary rows: spans always intersect. Reached only
                # at s = d + 1 with nb == 1, so the state is a single B column.
                y = np.ones(1, dtype=complex)
                return _build_witness(tm, tuple(range(d)), (0,), y, zero_threshold)
            r = d - na
            threshold = rank_threshold((r, nb), rank_tol, 1.0)
            # The complements of the A subsets in lexicographic order are the
            # (d - na)-subsets in reverse lexicographic order.
            weak = screen.weak(r, nb)[::-1]
            row_sets = lex_sets(d, r)[::-1][weak.any(axis=1)]
            cols = lex_sets(d, nb)[weak.any(axis=0)]
            for rows, ranks, _ in batch_ranks(a, row_sets, cols, threshold):
                hits = ranks < nb
                # The first hit in the sequential order: A subset, then B subset.
                hit_rows = np.flatnonzero(hits.any(axis=1))
                if hit_rows.size == 0:
                    continue
                i = hit_rows[0]
                subset_a = tuple(sorted(set(range(d)).difference(rows[i].tolist())))
                subset_b = tuple(cols[np.argmax(hits[i])].tolist())
                y = kernel_witness(
                    a, "right", SubmatrixSelector(rows[i], subset_b), tol=rank_tol, scale=1.0
                ).coefficients
                return _build_witness(tm, subset_a, subset_b, y, zero_threshold)
    raise AssertionError("unreachable: the search terminates by s = d + 1")


class _Screen:
    """Which blocks of the subset search's levels with s <= d no square row
    sub-block certifies, from rank.strong_minors's tables at T + delta, T =
    tol * (d - 1) the largest threshold of any such level and delta the
    rounding allowance of _square_level_clear. The tables are built when a
    level first needs them and kept for the call (see
    min_support_uncertainty). Their rows and columns, like a level's row
    and column sets, are in rank.lex_sets's order, so each level reads its
    blocks as they are."""

    def __init__(self, tm: TransitionMatrix, rank_tol: float):
        self.tm = tm
        self.bound = rank_threshold((tm.dim - 1, tm.dim - 1), rank_tol, 1.0) + _allowance(tm)
        self.strong: list[np.ndarray] = []
        self.covers: dict[int, list[np.ndarray]] = {}

    def weak(self, r: int, nb: int) -> np.ndarray:
        """Entry [i, j] for the i-th r-set and the j-th n_b-set of
        rank.lex_sets, n_b <= r < d: whether no n_b-row subset of the row set
        certifies the block."""
        d = self.tm.dim
        if nb not in self.covers:
            if nb > len(self.strong):
                # Size 1 needs no walk; one walk to d // 2 serves most calls.
                top = 1 if nb == 1 else d // 2 if nb <= d // 2 else d - 1
                self.strong = strong_minors(self.tm.matrix, top, self.bound, self.tm.residual)
            self.covers[nb] = subset_covers(self.strong[nb - 1], d, nb, d - 1)
        return ~self.covers[nb][r - nb]


def _allowance(tm: TransitionMatrix) -> float:
    """The rounding allowance delta = 32 d^2 eps (1 + d * residual) of the
    square level's proof (_square_level_clear)."""
    d = tm.dim
    return 32 * d * d * EPS * (1 + d * tm.residual)


def _square_level_clear(tm: TransitionMatrix, rank_tol: float, floors: list | None = None) -> bool:
    """Whether no pair with s <= d can hit, decided on the s = d level alone.

    The s = d level is every n x n block, n = 1..d - 1, and each is decided
    at its own threshold T_n + delta, T_n = tol * n, where delta = 32 d^2
    eps (1 + d * residual) is the rounding allowance. rank.squares_full_rank
    decides them: each block's minor comes from its row-prefix minors by
    Laplace expansion and certifies the block from |det| and a bound on
    ||U||_2 from the residual, the rest go to batch_ranks, and the verdict
    is batch_ranks's over every block; it stops at the first deficient
    block. The step only certifies: False says nothing about any pair, and
    the search then runs from s = 2 as if this step were not there.

    Suppose every square block is full rank at its T_n + delta. The SVD of
    an n x k block moves each singular value by at most a few (n + k) eps
    sigma_max <= 8 d eps ||U||_2, and ||U||_2^2 = ||U^dag U||_2 <= 1 + d *
    residual, so 16 d eps ||U||_2 <= delta / 2 for every d >= 1, with room
    to spare for the rounding of the computed residual. A square block S of
    size n has sigma_min(S) > T_n + delta - 8 d eps ||U||_2: the minor and
    Gram certificates prove sigma_min(S) > T_n + delta outright, and the
    SVD puts the exact value within its error of the computed one. Now let
    B = U[R, K] be the block of a pair with s <= d: r = |R| = d - n_a >=
    n_b = |K|, and r <= d - 1. Any r - n_b more columns K' give a square
    block S = U[R, K + K'] of the s = d level whose columns include B's,
    so sigma_min(B) = min ||B v|| over unit v >= sigma_min(S). B is
    decided at its shape threshold tol * max(r, n_b) = T_r, the threshold of
    S. Certified, B has rank n_b; by SVD, its computed sigma_min is at
    least sigma_min(B) - 8 d eps ||U||_2 > T_r + delta - 16 d eps ||U||_2
    > T_r, so it has rank n_b too. No pair with s <= d hits, and the first
    hit of the search is its first pair at s = d + 1. The proof uses no
    identity of unitaries, only the norm bound from the residual; the level
    search's level-0 step rests on the complement identity instead, and
    this step does not share it, so the two routes stay independent.

    On True the walk's minor floors go into floors, when given, and the
    level-0 step of the same analysis passes them to squares_full_rank,
    which reads them instead of walking again.
    It shares the computed minors only, not this proof: it decides at its
    own thresholds by the complement identity.
    """
    allowance = _allowance(tm)
    thresholds = [rank_threshold((n, n), rank_tol, 1.0) + allowance for n in range(1, tm.dim)]
    return squares_full_rank(tm.matrix, thresholds, tm.residual, floors=floors)


def _build_witness(
    tm: TransitionMatrix,
    subset_a: tuple[int, ...],
    subset_b: tuple[int, ...],
    y: np.ndarray,
    zero_threshold: float,
) -> SupportWitness:
    """Rebuild the state from the B-side kernel vector and verify its supports.

    The A-side support is checked against the search subset rather than
    assumed; a mismatch means the rank and zero thresholds disagree about
    this input, which only happens for near-degenerate matrices.
    """
    x = tm.matrix[:, np.asarray(subset_b)] @ y
    observed_a = tuple(int(i) for i in np.nonzero(np.abs(x) > zero_threshold)[0])
    observed_b = tuple(subset_b[i] for i in np.nonzero(np.abs(y) > zero_threshold)[0])
    if observed_a != subset_a or observed_b != subset_b:
        raise DegenerateWitnessError(
            "reconstructed witness support does not match the search subsets "
            f"(got A={observed_a} B={observed_b}, expected A={subset_a} "
            f"B={subset_b}); the input is numerically near-degenerate"
        )
    x.setflags(write=False)
    return SupportWitness(
        state_in_a=x,
        n_a=len(subset_a),
        n_b=len(subset_b),
        n_ab=len(subset_a) + len(subset_b),
        subset_a=subset_a,
        subset_b=subset_b,
    )
