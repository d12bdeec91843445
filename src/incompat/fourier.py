"""Closed forms and support bounds specific to the discrete Fourier transform.

The incompatibility order of the d-dimensional DFT is low + d/low, where low
is the largest divisor of d not exceeding sqrt(d). Comb vectors (indicators
of arithmetic progressions whose step divides d) transform to combs and are
the extremal states: they realize the bound with equality and also meet the
Donoho-Stark product bound |supp f| * |supp fhat| >= d with equality. The
zeta interpolation curve is the piecewise-linear lower bound on
|supp f| + |supp fhat| obtained from Meshulam's divisor inequality. The
coset blocks are the DFT's deficient submatrices built the same way, rows on
cosets of a subgroup and columns off cosets of its annihilator; the level
search takes them as seeds.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError
from .matrices import SubmatrixSelector, dft_matrix
from .rank import DEFAULT_RANK_TOL, extract_submatrix, numerical_rank


@dataclass(frozen=True)
class DivisorDecomposition:
    """All divisors of d plus the most balanced factor pair low * high = d."""

    dim: int
    divisors: tuple[int, ...]
    low: int  # largest divisor <= sqrt(d)
    high: int  # d // low, so low <= sqrt(d) <= high


def divisor_decomposition(dim: int) -> DivisorDecomposition:
    """Divisors by trial division up to sqrt(d); tiny d, no factoring library."""
    if dim < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")
    small, large = [], []
    q = 1
    while q * q <= dim:
        if dim % q == 0:
            small.append(q)
            if q * q != dim:
                large.append(dim // q)
        q += 1
    divisors = tuple(small + large[::-1])
    low = small[-1]
    return DivisorDecomposition(dim, divisors, low, dim // low)


def dft_chi(dim: int) -> int:
    """Incompatibility order of the d-dimensional DFT: low + d/low."""
    dec = divisor_decomposition(dim)
    return dec.low + dec.high


@dataclass(frozen=True)
class ZetaPoint:
    """One point of the divisor interpolation curve.

    lower_divisor is the greatest divisor <= x, upper_divisor the least
    divisor >= x (equal when x itself divides d), and
    value = d/lower + d/upper + (1 - d/(lower*upper)) * x.
    """

    x: float
    lower_divisor: int
    upper_divisor: int
    value: float


def zeta(dim: int, x: float) -> ZetaPoint:
    """Evaluate the divisor interpolation curve at x in [1, d]."""
    dec = divisor_decomposition(dim)
    if not 1 <= x <= dim:
        raise ValueError(f"x must be in [1, {dim}], got {x}")
    divisors = dec.divisors
    i = bisect_right(divisors, x) - 1
    lower = divisors[i]
    upper = lower if lower == x else divisors[i + 1]
    value = dim / lower + dim / upper + (1 - dim / (lower * upper)) * x
    return ZetaPoint(x=float(x), lower_divisor=lower, upper_divisor=int(upper), value=value)


def meshulam_bound(dim: int, supp_f: int) -> int:
    """Integer lower bound on the transform support given |supp f|.

    Ceiling of d/(d1*d2) * (d1 + d2 - supp_f) with d1, d2 the divisors of d
    bracketing supp_f; supports are integers, so the ceiling never weakens
    the real-valued inequality.
    """
    if not 1 <= supp_f <= dim:
        raise ValueError(f"supp_f must be in [1, {dim}], got {supp_f}")
    point = zeta(dim, supp_f)
    d1, d2 = point.lower_divisor, point.upper_divisor
    return math.ceil(dim / (d1 * d2) * (d1 + d2 - supp_f))


def extremal_comb(dim: int, teeth: int) -> np.ndarray:
    """Normalized indicator of {0, d/teeth, 2*d/teeth, ...} (teeth points).

    Its DFT is supported on exactly d/teeth points, so the pair realizes
    support sum teeth + d/teeth and support product d.
    """
    if dim < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")
    if not 1 <= teeth <= dim or dim % teeth != 0:
        raise ValueError(f"teeth must divide {dim}, got {teeth}")
    comb = np.zeros(dim, dtype=complex)
    comb[:: dim // teeth] = 1.0 / math.sqrt(teeth)
    comb.setflags(write=False)
    return comb


@functools.lru_cache(maxsize=64)
def coset_blocks(dim: int) -> tuple[tuple[int, SubmatrixSelector | None], ...]:
    """For each level t of the d-dimensional DFT, (j l, selector): an
    m x (m + t) coset block with at least j l deficient rows, j l the largest
    the construction below gives; (0, None) where it gives none.

    For a divisor 1 < a < d, the rows x with x mod (d/a) < j are j cosets of
    the subgroup H of order a (m = j a), and the columns y with y mod a >= l
    avoid l of the a cosets of its annihilator H^perp = aZ_d; there are
    (a - l) d / a of them, at least m + t when j a + l d / a <= d - t, and
    the block keeps the first m + t. The transform of a vector on one coset
    of H is, on each coset of H^perp, a character times one number, so
    vanishing on the a - l cosets the columns meet is a - l conditions on
    an a-dimensional space: each row coset holds l left kernel vectors of
    the block, and the j cosets j l independent ones. Among the (a, j, l)
    with the largest j l the block is the first in the level search's
    order: fewest rows, then lexicographic rows and columns. At t = tau, j =
    l = 1 and a is the divisor low (a + d/a = chi): the rows are the
    support of extremal_comb(d, low). Each level's j l equals the DFT's
    level (deficiency_profile) at every d <= 18 the tests check, all but
    17; the level search decides each block before taking it.
    """
    triples = []
    for a in divisor_decomposition(dim).divisors[1:-1]:
        n = dim // a
        for j in range(1, n):
            rows = tuple(x for x in range(dim) if x % n < j)
            for l in range(1, a):
                if j * a + l * n <= dim:
                    triples.append((-j * l, j * a, rows, a, l, dim - j * a - l * n))
    blocks = []
    for t in range(dim):
        fits = [triple for triple in triples if triple[-1] >= t]
        if not fits:
            blocks.append((0, None))
            continue
        count, m, rows, a, l, _ = min(fits)
        cols = [y for y in range(dim) if y % a >= l][: m + t]
        blocks.append((-count, SubmatrixSelector(rows, cols)))
    return tuple(blocks)


def comb_submatrix_is_rank_one(
    dim: int,
    teeth: int,
    row_offset: int,
    col_offset: int,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> bool:
    """Whether the comb-indexed DFT submatrix has numerical rank one.

    Rows are row_offset + multiples of d/teeth (teeth of them), columns are
    col_offset + multiples of teeth (d/teeth of them). The entries factor as
    an outer product of two phase vectors, so the rank is one for every
    offset pair; this evaluates the claim numerically rather than assuming it.
    """
    if dim < 1 or dim % teeth != 0 or not 1 <= teeth <= dim:
        raise ValueError(f"teeth must divide {dim}, got {teeth}")
    step = dim // teeth
    if not 0 <= row_offset < step:
        raise ValueError(f"row_offset must be in [0, {step - 1}], got {row_offset}")
    if not 0 <= col_offset < teeth:
        raise ValueError(f"col_offset must be in [0, {teeth - 1}], got {col_offset}")
    selector = SubmatrixSelector(
        rows=tuple(row_offset + j * step for j in range(teeth)),
        cols=tuple(col_offset + k * teeth for k in range(step)),
    )
    sub = extract_submatrix(dft_matrix(dim).matrix, selector)
    return numerical_rank(sub, tol=rank_tol, scale=1.0).rank == 1
