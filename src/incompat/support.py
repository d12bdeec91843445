"""Support uncertainty of states with respect to a basis pair.

A state expressed in basis A has coordinates x (x_j is the overlap of the
j-th A vector with the state); its B coordinates are y = U^dag x. The support
uncertainty is the number of A coordinates above the zero threshold plus the
number of B coordinates above it. The minimum over all nonzero states is
found by an exhaustive subset search: spans of a row subset and a column
subset intersect nontrivially exactly when the submatrix on the complementary
rows and the chosen columns is column rank deficient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .deficiency import tau_fast
from .errors import DegenerateWitnessError, DimensionCapError, NonFiniteEntryError, ZeroVectorError
from .matrices import TransitionMatrix
from .rank import DEFAULT_RANK_TOL, _normalize_phase, batch_ranks, rank_threshold

DEFAULT_ZERO_THRESHOLD = 1e-8
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


def min_support_uncertainty(
    tm: TransitionMatrix,
    *,
    zero_threshold: float = DEFAULT_ZERO_THRESHOLD,
    rank_tol: float = DEFAULT_RANK_TOL,
    max_dim: int = DEFAULT_SUPPORT_CAP,
) -> SupportWitness:
    """Brute-force minimal support uncertainty with an explicit witness state.

    Search order (first hit wins, so minimality holds by construction and the
    witness is deterministic): total size s ascending from 2; within s the
    B-subset size ascending; then A subsets lexicographic, B subsets
    lexicographic. A pair (S_A, S_B) hits when the submatrix on rows outside
    S_A and columns S_B has rank below |S_B|; its kernel vector rebuilds the
    state as a combination of the selected columns. The search always
    terminates by s = d + 1, where S_A is everything and any single column
    works.
    """
    d = tm.dim
    if d > max_dim:
        raise DimensionCapError(
            f"subset search over dimension {d} exceeds the cap {max_dim}; "
            f"raise max_dim explicitly to override"
        )
    a = tm.matrix
    for s in range(2, d + 2):
        for nb in range(1, min(d, s - 1) + 1):
            na = s - nb
            if na > d:
                continue
            if na == d:
                # No complementary rows: spans always intersect. Reached only
                # at s = d + 1 with nb == 1, so the state is a single B column.
                y = np.ones(1, dtype=complex)
                return _build_witness(tm, tuple(range(d)), (0,), y, zero_threshold)
            col_sets = np.array(list(itertools.combinations(range(d), nb)))
            threshold = rank_threshold((d - na, nb), rank_tol, 1.0)
            for rows_a in itertools.combinations(range(d), na):
                comp = tuple(sorted(set(range(d)) - set(rows_a)))
                ranks, _ = batch_ranks(a, comp, col_sets, threshold)
                hits = np.nonzero(ranks < nb)[0]
                if hits.size == 0:
                    continue
                subset_b = tuple(int(x) for x in col_sets[hits[0]])
                sub = a[np.asarray(comp)][:, np.asarray(subset_b)]
                _, _, vh = np.linalg.svd(sub)
                y = _normalize_phase(vh[-1].conj())
                return _build_witness(tm, rows_a, subset_b, y, zero_threshold)
    raise AssertionError("unreachable: the search terminates by s = d + 1")


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


@dataclass(frozen=True, eq=False)
class CrossCheck:
    """Both routes to the incompatibility order, and whether they agree."""

    dim: int
    tau: int
    chi_from_deficiency: int
    min_support: int
    witness: SupportWitness
    passed: bool


def cross_check(
    tm: TransitionMatrix,
    *,
    zero_threshold: float = DEFAULT_ZERO_THRESHOLD,
    rank_tol: float = DEFAULT_RANK_TOL,
    max_dim: int = DEFAULT_SUPPORT_CAP,
) -> CrossCheck:
    """Compare chi from the deficiency route against the subset-search minimum."""
    tau = tau_fast(tm, rank_tol=rank_tol)
    chi = tm.dim - tau
    witness = min_support_uncertainty(
        tm,
        zero_threshold=zero_threshold,
        rank_tol=rank_tol,
        max_dim=max_dim,
    )
    return CrossCheck(
        dim=tm.dim,
        tau=tau,
        chi_from_deficiency=chi,
        min_support=witness.n_ab,
        witness=witness,
        passed=chi == witness.n_ab,
    )
