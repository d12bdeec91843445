"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The matrix corpus for criteria 1-5 is computed once in module-scoped
fixtures; criteria 6 and 7 re-examine every profile computed there.
"""

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from incompat import (
    bronzan_rotation,
    comb_submatrix_is_rank_one,
    dft_chi,
    dft_matrix,
    divisor_decomposition,
    extremal_comb,
    identity,
    kernel_witness,
    min_support_uncertainty,
    qubit_rotation,
    r_col,
    r_row,
    random_unitary,
    support_counts,
    zeta,
)
from incompat.deficiency import deficiency_profile
from incompat.rank import DEFAULT_ZERO_THRESHOLD, FRAGILE_GAP_RATIO

QUBIT_PHASES = ((0.0, 0.0), (0.3, 1.1), (2.0, 0.5))


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@dataclass
class CorpusEntry:
    name: str
    tm: object
    profile: object
    min_support: int | None = None
    params: tuple = ()


@dataclass
class Corpus:
    entries: list = field(default_factory=list)
    elapsed: dict = field(default_factory=dict)
    excluded: list = field(default_factory=list)


@pytest.fixture(scope="module")
def corpus():
    data = Corpus()

    start = time.perf_counter()
    tm = identity(6)
    data.entries.append(CorpusEntry("identity(6)", tm, deficiency_profile(tm)))
    data.elapsed["identity6"] = time.perf_counter() - start

    start = time.perf_counter()
    for theta in (0.0, math.pi / 2, math.pi / 6, math.pi / 4, 1.0):
        for phi1, phi2 in QUBIT_PHASES:
            tm = qubit_rotation(theta, phi1, phi2)
            data.entries.append(
                CorpusEntry(
                    f"qubit({theta:.4f},{phi1},{phi2})", tm, deficiency_profile(tm),
                    params=(theta, phi1, phi2),
                )
            )
    data.elapsed["qubit"] = time.perf_counter() - start

    start = time.perf_counter()
    angles = np.linspace(0.0, math.pi / 2, 9)
    for t1, t2 in itertools.product(angles, angles):
        tm = bronzan_rotation(t1, t2)
        data.entries.append(
            CorpusEntry(
                f"bronzan({t1:.4f},{t2:.4f})", tm, deficiency_profile(tm), params=(t1, t2)
            )
        )
    data.elapsed["bronzan"] = time.perf_counter() - start

    start = time.perf_counter()
    for d in range(2, 9):
        tm = dft_matrix(d)
        entry = CorpusEntry(f"dft({d})", tm, deficiency_profile(tm))
        entry.min_support = min_support_uncertainty(tm).n_ab
        data.entries.append(entry)
    data.elapsed["dft"] = time.perf_counter() - start

    start = time.perf_counter()
    random_spec = [(d, seed) for d in (2, 3, 4, 5) for seed in range(50)]
    random_spec += [(6, seed) for seed in range(10)]
    for d, seed in random_spec:
        tm = random_unitary(d, seed)
        profile = deficiency_profile(tm)
        if profile.worst_gap_ratio > FRAGILE_GAP_RATIO:
            data.excluded.append((f"random({d},{seed})", profile.worst_gap_ratio))
            continue
        entry = CorpusEntry(f"random({d},{seed})", tm, profile)
        entry.min_support = min_support_uncertainty(tm).n_ab
        data.entries.append(entry)
    data.elapsed["random"] = time.perf_counter() - start
    return data


def test_criterion_01_identity_profile(corpus):
    entry = next(e for e in corpus.entries if e.name == "identity(6)")
    p = entry.profile
    ok = (
        p.r_values == (3, 2, 2, 1, 1, 0)
        and p.tau == 4
        and p.chi == 2
        and corpus.elapsed["identity6"] < 1.0
    )
    verdict(1, ok, f"identity(6) levels {list(p.r_values)}, tau={p.tau}, chi={p.chi}, "
                   f"{corpus.elapsed['identity6'] * 1e3:.0f} ms")


def test_criterion_02_qubit_classification(corpus):
    failures = []
    for entry in corpus.entries:
        if not entry.name.startswith("qubit("):
            continue
        theta = entry.params[0]
        boundary = theta in (0.0, math.pi / 2)
        expected = (0, 2) if boundary else (-1, 3)
        if (entry.profile.tau, entry.profile.chi) != expected:
            failures.append(entry.name)
    ok = not failures and corpus.elapsed["qubit"] < 1.0
    verdict(2, ok, f"qubit family over {len(QUBIT_PHASES)} phase pairs, "
                   f"failures={failures}, {corpus.elapsed['qubit'] * 1e3:.0f} ms")


def test_criterion_03_bronzan_grid(corpus):
    failures = []
    count = 0
    for entry in corpus.entries:
        if not entry.name.startswith("bronzan("):
            continue
        count += 1
        t1, t2 = entry.params
        on_boundary = any(
            math.isclose(angle, edge, abs_tol=1e-12)
            for angle in (t1, t2)
            for edge in (0.0, math.pi / 2)
        )
        expected = 2 if on_boundary else 3
        if entry.profile.chi != expected:
            failures.append(entry.name)
    ok = count == 81 and not failures and corpus.elapsed["bronzan"] < 5.0
    verdict(3, ok, f"9x9 grid ({count} points), failures={failures}, "
                   f"{corpus.elapsed['bronzan']:.2f} s")


def test_criterion_04_dft_oracle_equivalence(corpus):
    failures = []
    for d in range(2, 9):
        entry = next(e for e in corpus.entries if e.name == f"dft({d})")
        dec = divisor_decomposition(d)
        closed_form = dec.low + dec.high
        if not (entry.min_support == dft_chi(d) == closed_form == entry.profile.chi):
            failures.append((d, entry.min_support, dft_chi(d), entry.profile.chi))
    ok = not failures and corpus.elapsed["dft"] < 60.0
    verdict(4, ok, f"dft d=2..8 subset search vs closed form vs deficiency route, "
                   f"failures={failures}, {corpus.elapsed['dft']:.2f} s")


def test_criterion_05_random_cross_check(corpus):
    tested = 0
    failures = []
    for entry in corpus.entries:
        if not entry.name.startswith("random("):
            continue
        tested += 1
        if entry.tm.dim - entry.profile.tau != entry.min_support:
            failures.append(entry.name)
    for name, gap in corpus.excluded:
        print(f"    excluded fragile case {name} (gap ratio {gap:.2e})")
    ok = tested + len(corpus.excluded) == 210 and not failures and corpus.elapsed["random"] < 300.0
    verdict(5, ok, f"{tested} random unitaries agree, {len(corpus.excluded)} excluded as "
                   f"fragile, {corpus.elapsed['random']:.2f} s")


def test_criterion_06_profile_shape_clauses(corpus):
    failures = []
    for entry in corpus.entries:
        r = entry.profile.r_values
        d = entry.profile.dim
        clauses = (
            all(v >= 0 for v in r),
            all(0 <= r[t] - r[t + 1] <= 1 for t in range(d - 1)),
            r[d - 1] == 0,
            r[0] != 0 or all(v == 0 for v in r),
        )
        if not all(clauses):
            failures.append((entry.name, clauses))
    verdict(6, not failures, f"four profile clauses over {len(corpus.entries)} profiles, "
                             f"failures={failures}")


def test_criterion_07_extremal_level_witnesses(corpus):
    checked = 0
    failures = []
    for entry in corpus.entries:
        tau = entry.profile.tau
        d = entry.profile.dim
        if not 0 <= tau <= d - 2:
            continue
        checked += 1
        row_value, row_sel = r_row(entry.tm, tau)
        col_value, col_sel = r_col(entry.tm, tau)
        if not (
            row_value == 1
            and col_value == 1
            and entry.profile.r_row_values[tau] == 1
            and entry.profile.r_col_values[tau] == 1
        ):
            failures.append((entry.name, "levels"))
            continue
        left = kernel_witness(entry.tm.matrix, "left", row_sel, scale=1.0)
        right = kernel_witness(entry.tm.matrix, "right", col_sel, scale=1.0)
        coefficients = np.concatenate([left.coefficients, right.coefficients])
        if np.abs(coefficients).min() <= DEFAULT_ZERO_THRESHOLD:
            failures.append((entry.name, "witness"))
        if max(left.residual, right.residual) > 1e-9:
            failures.append((entry.name, "residual"))
    verdict(7, not failures, f"both sides reach 1 with all-nonzero kernels on "
                             f"{checked} extremal cases, failures={failures}")


def test_criterion_08_zeta_curves():
    failures = []
    if abs(zeta(12, 3).value - 7) > 1e-12 or abs(zeta(12, 4).value - 7) > 1e-12:
        failures.append("zeta_12 plateau")
    if abs(zeta(36, 6).value - 12) > 1e-12:
        failures.append("zeta_36 minimum value")
    for d in (12, 36, 30):
        dec = divisor_decomposition(d)
        xs = np.unique(np.concatenate([np.linspace(1, d, 1000), np.array(dec.divisors, float)]))
        values = np.array([zeta(d, x).value for x in xs])
        if d == 36:
            winners = xs[values <= values.min() + 1e-9]
            if len(winners) != 1 or winners[0] != 6.0:
                failures.append("zeta_36 unique minimizer")
        slopes = np.diff(values) / np.diff(xs)
        if not np.all(np.diff(slopes) >= -1e-8):
            failures.append(f"zeta_{d} convexity")
        for x in xs:
            if x in (1.0, float(dec.low), float(dec.high)):
                continue
            point = zeta(d, float(x))
            coeff = 1 - d / (point.lower_divisor * point.upper_divisor)
            region_ok = (
                coeff < 0 if x < dec.low else (coeff == 0 if x < dec.high else coeff > 0)
            )
            if not region_ok:
                failures.append(f"zeta_{d} slope sign at x={x}")
                break
    verdict(8, not failures, f"curve values, convexity and slope trichotomy on "
                             f"1000-point grids, failures={failures}")


def test_criterion_09_sharpness_witnesses():
    failures = []
    for d in (4, 6, 8, 9, 12, 16):
        dec = divisor_decomposition(d)
        tm = dft_matrix(d)
        n_a, n_b, n_ab = support_counts(extremal_comb(d, dec.low), tm)
        if n_ab != dec.low + d // dec.low or n_a * n_b != d:
            failures.append((d, n_a, n_b))
    for p in (2, 3, 5, 7, 11):
        n_a, n_b, n_ab = support_counts(extremal_comb(p, 1), dft_matrix(p))
        if n_ab != p + 1 or n_a * n_b != p:
            failures.append(("prime", p, n_ab))
    verdict(9, not failures, f"balanced combs achieve the order with support product d; "
                             f"delta combs meet p+1 at primes, failures={failures}")


def test_criterion_10_comb_rank_one():
    checked = 0
    failures = []
    for d in range(1, 17):
        for teeth in divisor_decomposition(d).divisors:
            step = d // teeth
            for row_offset in range(step):
                for col_offset in range(teeth):
                    checked += 1
                    if not comb_submatrix_is_rank_one(d, teeth, row_offset, col_offset):
                        failures.append((d, teeth, row_offset, col_offset))
    verdict(10, not failures, f"{checked} comb submatrices all rank one, "
                              f"failures={failures}")
