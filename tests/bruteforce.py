"""Independent reference implementations used as test oracles.

Deliberately different from the package internals: plain unpruned
enumeration, ranks via numpy.linalg.matrix_rank with an absolute cutoff, and
the span-intersection test done by stacking explicit basis vectors rather
than by the complement-rows criterion. svd_batch_ranks is the batched rank
step with every block decided by SVD, the reference for the certified one.
"""

import itertools

import numpy as np

ABS_RANK_CUTOFF = 1e-8  # singular values below this count as zero


def rank(matrix) -> int:
    return int(np.linalg.matrix_rank(np.asarray(matrix, dtype=complex), tol=ABS_RANK_CUTOFF))


def svd_batch_ranks(a: np.ndarray, row_sets, col_sets: np.ndarray, threshold: float):
    """rank.batch_ranks without the certificate or batching.

    One row set at a time: gather its blocks, one SVD, count, gap.
    """
    results = [_svd_ranks(a, rows, col_sets, threshold) for rows in row_sets]
    return np.array([r for r, _ in results]), np.array([g for _, g in results])


def _svd_ranks(a: np.ndarray, rows, col_sets: np.ndarray, threshold: float):
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


def brute_r_row(a: np.ndarray, t: int) -> int:
    """Unpruned maximum of m - rank over all m x (m+t) submatrices."""
    d = a.shape[0]
    best = 0
    for m in range(1, d - t + 1):
        for rows in itertools.combinations(range(d), m):
            for cols in itertools.combinations(range(d), m + t):
                best = max(best, m - rank(a[np.ix_(rows, cols)]))
    return best


def brute_profile(a: np.ndarray):
    """(r_values, r_row_values, r_col_values, tau, chi) by full enumeration."""
    d = a.shape[0]
    row_vals = [brute_r_row(a, t) for t in range(d)]
    col_vals = [brute_r_row(a.T, t) for t in range(d)]
    r_values = [max(x, y) for x, y in zip(row_vals, col_vals)]
    tau = min(t for t in range(d) if r_values[t] == 0) - 1
    return r_values, row_vals, col_vals, tau, d - tau


def spans_intersect(u: np.ndarray, subset_a, subset_b) -> bool:
    """Nontrivial intersection of the two subset spans, via a stacked basis.

    The A span is a coordinate subspace, the B span is a set of columns of u;
    the union is linearly dependent exactly when the spans intersect.
    """
    d = u.shape[0]
    stacked = np.hstack([np.eye(d, dtype=complex)[:, list(subset_a)], u[:, list(subset_b)]])
    return rank(stacked) < len(subset_a) + len(subset_b)


def brute_min_support(u: np.ndarray) -> int:
    d = u.shape[0]
    for s in range(2, d + 2):
        for n_a in range(1, d + 1):
            n_b = s - n_a
            if not 1 <= n_b <= d:
                continue
            for subset_a in itertools.combinations(range(d), n_a):
                for subset_b in itertools.combinations(range(d), n_b):
                    if spans_intersect(u, subset_a, subset_b):
                        return s
    raise AssertionError("unreachable: s = d + 1 always intersects")


def fft_support_counts(x: np.ndarray, threshold: float = 1e-8):
    """(n_a, n_b) for the DFT transition using numpy's FFT as the transform."""
    d = len(x)
    y = np.fft.fft(x) / np.sqrt(d)
    return int((np.abs(x) > threshold).sum()), int((np.abs(y) > threshold).sum())
