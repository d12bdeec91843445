"""Batch verification suites over a corpus of structured and random matrices.

Backs the verify-corpus CLI command: every invariant the package promises is
re-derived on identity, DFT, rotation families, and seeded Haar-random
unitaries up to a requested dimension, and failures are listed by input name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .deficiency import deficiency_profile, tau_fast
from .errors import DegenerateWitnessError
from .fourier import dft_chi, divisor_decomposition, extremal_comb
from .matrices import (
    TransitionMatrix,
    bronzan_rotation,
    dft_matrix,
    identity,
    qubit_rotation,
    random_unitary,
)
from .rank import DEFAULT_RANK_TOL
from .report import extremal_checks, profile_shape_checks
from .support import (
    DEFAULT_ZERO_THRESHOLD,
    min_support_uncertainty,
    support_counts,
)


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, label: str, ok: bool):
        self.cases += 1
        if not ok:
            self.failures.append(label)


def corpus_matrices(max_dim: int, seeds: int) -> list[tuple[str, TransitionMatrix]]:
    """Named corpus: structured families plus seeded random unitaries."""
    out: list[tuple[str, TransitionMatrix]] = []
    for d in range(2, max_dim + 1):
        out.append((f"identity(d={d})", identity(d)))
        out.append((f"dft(d={d})", dft_matrix(d)))
    if max_dim >= 2:
        for theta in (0.0, math.pi / 6, math.pi / 4, 1.0, math.pi / 2):
            for phi1, phi2 in ((0.0, 0.0), (0.3, 1.1)):
                out.append(
                    (f"qubit(theta={theta:.4f},phi1={phi1},phi2={phi2})",
                     qubit_rotation(theta, phi1, phi2))
                )
    if max_dim >= 3:
        for t1 in (0.0, math.pi / 5, math.pi / 2):
            for t2 in (0.0, math.pi / 7, math.pi / 2):
                out.append((f"bronzan(theta1={t1:.4f},theta2={t2:.4f})", bronzan_rotation(t1, t2)))
    for d in range(2, max_dim + 1):
        for seed in range(seeds):
            out.append((f"random(d={d},seed={seed})", random_unitary(d, seed)))
    return out


def run_corpus_checks(
    max_dim: int,
    seeds: int,
    *,
    rank_tol: float = DEFAULT_RANK_TOL,
    zero_threshold: float = DEFAULT_ZERO_THRESHOLD,
) -> list[SuiteResult]:
    shape = SuiteResult("profile shape (nonnegative, unit steps, ends at zero)")
    agreement = SuiteResult("deficiency route vs subset-search route")
    shortcut = SuiteResult("short-circuit index vs full profile")
    closed_form = SuiteResult("DFT closed-form order vs both routes")
    extremal = SuiteResult("extremal level balanced with all-nonzero witness")
    combs = SuiteResult("comb sharpness and support product bound")
    suites = [shape, agreement, shortcut, closed_form, extremal, combs]
    if max_dim < 2:
        return suites

    for name, tm in corpus_matrices(max_dim, seeds):
        profile = deficiency_profile(tm, rank_tol=rank_tol)
        shape.record(name, all(profile_shape_checks(profile).values()))
        shortcut.record(name, tau_fast(tm, rank_tol=rank_tol) == profile.tau)
        try:
            n_ab = min_support_uncertainty(
                tm, zero_threshold=zero_threshold, rank_tol=rank_tol,
                max_dim=tm.dim,
            ).n_ab
        except DegenerateWitnessError:
            # The rank and zero thresholds disagree on this input: the
            # subset-search route has no answer, which fails the agreement.
            n_ab = None
            agreement.record(f"{name} (degenerate support witness)", False)
        else:
            agreement.record(name, n_ab == profile.chi)
        extremal_ok = extremal_checks(
            tm, profile, rank_tol=rank_tol, zero_threshold=zero_threshold
        )
        extremal.record(name, all(extremal_ok.values()))
        if name.startswith("dft("):
            closed_form.record(name, dft_chi(tm.dim) == profile.chi == n_ab)

    for d in range(2, max_dim + 1):
        tm = dft_matrix(d)
        best = None
        for teeth in divisor_decomposition(d).divisors:
            n_a, n_b, n_ab = support_counts(
                extremal_comb(d, teeth), tm, zero_threshold=zero_threshold
            )
            combs.record(
                f"comb(d={d},teeth={teeth})",
                n_a == teeth and n_b == d // teeth and n_a * n_b == d,
            )
            best = n_ab if best is None else min(best, n_ab)
        combs.record(f"comb minimum (d={d})", best == dft_chi(d))
    return suites


def render_table(suites: list[SuiteResult]) -> str:
    lines = []
    width = max(len(s.name) for s in suites)
    for s in suites:
        verdict = "PASS" if s.passed else "FAIL"
        lines.append(f"{s.name:<{width}}  cases={s.cases:<5d} {verdict}")
        for label in s.failures[:10]:
            lines.append(f"    failed: {label}")
        if len(s.failures) > 10:
            lines.append(f"    ... and {len(s.failures) - 10} more")
    if all(s.cases == 0 for s in suites):
        lines.append("note: dimension cap below 2, all suites vacuous")
    return "\n".join(lines)
