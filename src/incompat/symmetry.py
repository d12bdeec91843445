"""Verified monomial symmetries of a transition matrix, for the level search.

A pair of permutations (pi, sigma) of range(d) is a monomial symmetry of U
when U[pi(j), sigma(k)] = alpha_j beta_k U[j, k] with |alpha_j| = |beta_k| =
1. It sends the block U[R, C] to U[pi(R), sigma(C)], which is diag(alpha_R)
U[R, C] diag(beta_C) with its rows and columns reordered, so the two blocks
have the same singular values and the same rank decisions. The DFT, and any
diag(a) F diag(b) with unit-modulus a and b, has three kinds:

- the column translation k -> k + 1 (pi = id, alpha_j = w^j);
- the row translation j -> j + 1 (sigma = id, beta_k = w^k);
- for each unit u of Z_d, j -> u j with k -> u^-1 k (alpha = beta = 1).

verify proposes them, for a set of units that generates the units mod d,
and keeps only those that hold on the matrix itself, so a loaded DFT file
is reduced too and a perturbed one is not. The verified maps generate the
row group, the affine maps j -> u j + a their pi generate, and the column
group, the translations when the column translation (the one map with pi =
id) holds. The level search then decides only the row sets that are
lexicographically least in their orbit under the row group and, for each,
only the column sets least under the column group;
deficiency._max_row_deficiency has the proof that this keeps its values and
witnesses. The representatives are filtered from rank.lex_sets's tables,
each whole, once per table and group (least_sets), and kept under
lex_sets's caching rule.

Which maps are tested when. verify tests all of them (holds, one flag per
map, each flag computed from its map alone). deficiency_profile, r_row,
r_col and r_t call it before they search, as the profile reports the row
group. tau_fast's descent first needs only whether both translations hold,
which decides whether it seeds from coset blocks or runs the level-0 step:
translates answers that alone, with verify's flags for the two maps, and
verify runs, once, for the group only when some m of some level is
searched.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .rank import BATCH_ENTRIES, EPS, cached_when_small, lex_sets

# Below this dimension verify proposes nothing. There every grid of the
# level search is decided in one batch of at most a few hundred blocks, and
# verify's fixed cost, a stack of proposed maps and their phases, outweighs
# what the reduction saves.
MIN_REDUCED_DIM = 7


@dataclass(frozen=True, eq=False)
class Symmetry:
    """The row group the level search may use, the maps j -> u j + b of
    range(d) for u in dilations and b in Z_d when row_shift (b = 0
    otherwise), and whether the column translations k -> k + b hold."""

    d: int
    dilations: tuple[int, ...] = (1,)
    row_shift: bool = False
    column_translations: bool = False

    @property
    def row_order(self) -> int:
        return len(self.dilations) * (self.d if self.row_shift else 1)

    def least_rows(self, m: int) -> np.ndarray:
        """The m-row sets least in their orbit under the row group, in
        lexicographic order (least_sets)."""
        return least_sets(self.d, m, self.dilations, self.row_shift)

    def least_cols(self, c: int) -> np.ndarray:
        """The c-column sets least in their orbit under the column group, the
        translations or the identity alone, in lexicographic order
        (least_sets)."""
        return least_sets(self.d, c, (1,), self.column_translations)


def least_sets(d: int, k: int, dilations: tuple[int, ...], shift: bool) -> np.ndarray:
    """The rows of lex_sets(d, k) least in their orbit under the maps j ->
    u j + b of range(d), u in dilations and b in Z_d when shift (b = 0
    otherwise), in order; read-only."""
    if dilations == (1,) and not shift:
        return lex_sets(d, k)
    return _least_sets(d, k, dilations, shift)


@cached_when_small
def _least_sets(d: int, k: int, dilations: tuple[int, ...], shift: bool) -> np.ndarray:
    """least_sets of a group other than the identity, cached under the
    rule of lex_sets. The group is part of the key: a perturbed DFT can
    verify a smaller group than the DFT, with other representatives."""
    sets = lex_sets(d, k)
    least = sets[orbit_least(sets, d, dilations, shift)]
    least.flags.writeable = False
    return least


def orbit_least(
    sets: np.ndarray, d: int, dilations: tuple[int, ...], shift: bool
) -> np.ndarray:
    """Mask of the rows of sets (increasing tuples of indices below d <= 62,
    of one size) that are lexicographically least in their orbit under the
    maps j -> u j + b of range(d), u in dilations and b in Z_d when shift
    (b = 0 otherwise).

    Among sets of one size, R precedes R' lexicographically exactly when the
    least element of their symmetric difference is in R, that is, when R's
    bitmask code sum_j 2^(d - 1 - j) is larger. A set is least in its orbit
    when no image has a larger code. Each set is coded once per dilation u;
    adding b to every index moves bit d - 1 - j to d - 1 - (j + b mod d),
    so the code of u R + b is that of u R rotated right by b places within
    its d bits, which int64 holds exactly. A chunk of sets is coded at a
    time, at most BATCH_ENTRIES rotated codes and gathered indices."""
    weight = np.left_shift(1, np.arange(d - 1, -1, -1), dtype=np.int64)
    b = np.arange(d if shift else 1)
    low = np.left_shift(1, b) - 1
    units = np.array(dilations)[:, None, None]
    step = max(1, BATCH_ENTRIES // (len(dilations) * d))
    top = []
    for i in range(0, len(sets), step):
        codes = weight[units * sets[i : i + step] % d].sum(axis=2)[:, :, None]
        top.append(((codes >> b) | ((codes & low) << (d - b))).max(axis=(0, 2)))
    return weight[sets].sum(axis=1) == np.concatenate(top)


def verify(a: np.ndarray, residual: float) -> Symmetry:
    """The symmetries proposed in the module docstring that hold on a.

    holds decides all proposals at once, gathered as one stack V[g, j, k]
    = a[pi_g(j), sigma_g(k)]. Where a map holds, V conj(a) = alpha_j beta_k
    |a_jk|^2, so beta is the phase of that ratio along the row j0 whose
    smallest entry is largest (alpha_j0 = 1), and alpha the phase of its
    sum along each row against conj(beta); a zero ratio gives phase 1. A
    map is kept when

        max_jk |V_jk - alpha_j beta_k a_jk| <= delta = 32 d eps (1 + d r),

    r the residual; the DFT's own construction error is under 2 d eps.

    How far a verified map moves a singular value. The computed phases are
    within 2 eps of unit modulus, so with exact unit phases each kept map
    holds within delta + 4 eps. Composing two maps adds their entry errors,
    an inverse has its map's, and every element j -> u j + b of the row
    group is a word of fewer than d kept maps and their inverses: at most
    d / 2 translations, and each unit generator to a power at most half its
    index over the subgroup of the ones before it, phi(d) / 2 in all. So
    every element has U[pi(R), sigma(C)] = P (D_alpha U[R, C] D_beta + E) Q,
    with permutations P, Q, unit phases and |E_jk| < d (delta + 4 eps),
    about 32 d^2 eps (1 + d r), the rounding allowance of
    support._square_level_clear. Then ||E||_2 <= ||E||_F <= sqrt(m c) max
    |E_jk|: each singular value of an m x c block moves by less than d^2
    (delta + 4 eps), about 32 d^3 eps (1 + d r), the coherence cap's
    rounding slack. The blocks of one orbit can therefore be decided
    differently only where a singular value lies that close to the
    threshold, where the unreduced search's own decision is set by rounding.

    Codes are int64 bitmasks, so for d > 62 nothing is proposed, nor below
    MIN_REDUCED_DIM.
    """
    d = a.shape[0]
    if not MIN_REDUCED_DIM <= d <= 62:
        return Symmetry(d)
    ident = np.arange(d)
    units = _unit_generators(d)
    unit_maps = [(u * ident % d, pow(u, -1, d) * ident % d) for u in units]
    col_shift, row_shift, *unit_ok = holds(a, translations(d) + unit_maps, residual)
    # The maps j -> u j + a, u in the verified units' subgroup, a in Z_d
    # when the row translation holds and a = 0 otherwise.
    dilations = _subgroup(tuple(u for u, ok in zip(units, unit_ok) if ok), d)
    return Symmetry(d, dilations, bool(row_shift), bool(col_shift))


def translations(d: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The column translation k -> k + 1 and the row translation j -> j +
    1 of range(d), as verify's first two (pi, sigma) maps."""
    ident = np.arange(d)
    shift = (ident + 1) % d
    return [(ident, shift), (shift, ident)]


def holds(a: np.ndarray, maps: list[tuple[np.ndarray, np.ndarray]], residual: float) -> np.ndarray:
    """Whether each (pi, sigma) of maps holds on a, by verify's test: one
    flag per map, each computed from its map alone, so a list of some of
    verify's maps gets verify's flags for them."""
    pi = np.array([p for p, _ in maps])
    sigma = np.array([s for _, s in maps])
    v = a[pi[:, :, None], sigma[:, None, :]]
    ratio = v * a.conj()
    beta = _phase(ratio[:, int(np.abs(a).min(axis=1).argmax()), :])
    alpha = _phase((ratio * beta[:, None, :].conj()).sum(axis=2))
    err = np.abs(v - alpha[:, :, None] * beta[:, None, :] * a).max(axis=(1, 2))
    return err <= _delta(a.shape[0], residual)


def translates(a: np.ndarray, residual: float, mu: float) -> bool:
    """Whether verify keeps both translations of a, mu = max |a_jk|: False
    where may_translate rules them out, verify's range of d or flatness,
    and otherwise holds on the two maps alone (translations), which gives
    verify's flags for them, as each flag reads its own map only."""
    d = a.shape[0]
    return may_translate(d, mu, residual) and bool(holds(a, translations(d), residual).all())


def may_translate(d: int, mu: float, residual: float) -> bool:
    """False when verify cannot keep both translations on a d x d matrix
    within residual r of unitary whose largest entry modulus is mu, so that
    a caller can skip verify there; True says nothing.

    verify proposes nothing outside MIN_REDUCED_DIM <= d <= 62. Where a
    translation is kept, each entry is within delta of alpha_j beta_k times
    the one it moves, phases within 2 eps of unit modulus, so the two
    moduli differ by at most delta + 4 eps mu. Any entry reaches any other
    by at most d / 2 row and d / 2 column translations or their inverses,
    so with both kept every modulus is within d (delta + 4 eps mu) of mu.
    Each column's squared norm is at most 1 + r, so its smallest modulus is
    at most sqrt((1 + r) / d), and mu^2 <= 1 + r makes 4 eps mu at most
    delta / (8 d). Both translations therefore need mu <= sqrt((1 + r) / d)
    + d delta + delta / 8, and the test below, mu <= sqrt((1 + r) / d) + 2 d
    delta, leaves more than 6 delta, over 1,000 eps, for the rounding of mu,
    r and the square root: a flatness test, as |U_jk| = 1 / sqrt(d) for the
    DFT."""
    if not MIN_REDUCED_DIM <= d <= 62:
        return False
    return mu <= math.sqrt((1 + residual) / d) + 2 * d * _delta(d, residual)


def _delta(d: int, residual: float) -> float:
    """verify's per-entry bound on a kept map, 32 d eps (1 + d r)."""
    return 32 * d * EPS * (1 + d * residual)


def _phase(z: np.ndarray) -> np.ndarray:
    size = np.abs(z)
    return np.divide(z, size, out=np.ones_like(z), where=size > 0)


@functools.lru_cache(maxsize=256)
def _subgroup(gens: tuple[int, ...], d: int) -> tuple[int, ...]:
    """The units mod d that the units gens generate, in increasing order;
    memoized, as verify asks for the same few groups on every call."""
    group = {1}
    for u in gens:
        group = {h * pow(u, k, d) % d for h in group for k in range(d)}
    return tuple(sorted(group))


@functools.lru_cache(maxsize=64)
def _unit_generators(d: int) -> tuple[int, ...]:
    """Units 1 < u < d that generate the units mod d, each outside the
    subgroup the ones before it generate; memoized like _subgroup."""
    gens: tuple[int, ...] = ()
    reached = {1}
    for u in range(2, d):
        if math.gcd(u, d) == 1 and u not in reached:
            gens += (u,)
            reached = set(_subgroup(gens, d))
    return gens
