"""Analysis reports: run the deficiency route on a matrix, read the support
witness off it, check it (against the subset search too when asked), render.

The machine-readable form (report_json_dict, which `analyze --json` prints
on one line) deliberately omits wall-clock timings so identical invocations
produce byte-identical output; the human-readable text form includes them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .deficiency import DeficiencyProfile, deficiency_profile
from .errors import DegenerateWitnessError, NoKernelError
from .matrices import TransitionMatrix, check_tolerance, matrix_to_json_dict
from .rank import DEFAULT_RANK_TOL, FRAGILE_GAP_RATIO, KernelWitness, kernel_witness
from .support import (
    DEFAULT_ZERO_THRESHOLD,
    SupportWitness,
    min_support_uncertainty,
    support_at_tau,
    tau_kernel,
)


@dataclass(eq=False)
class AnalysisReport:
    descriptor: dict
    dim: int
    matrix: np.ndarray
    tolerances: dict
    profile: DeficiencyProfile
    # None when the witness could not be rebuilt; support_skipped says why.
    support: Optional[SupportWitness]
    support_skipped: Optional[str]
    checks: dict
    timings: dict = field(default_factory=dict)

    @property
    def fragile(self) -> bool:
        return self.profile.worst_gap_ratio > FRAGILE_GAP_RATIO

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())


def profile_shape_checks(profile: DeficiencyProfile) -> dict:
    """The structural facts every valid profile satisfies, as named verdicts."""
    r = profile.r_values
    d = profile.dim
    steps_ok = all(0 <= r[t] - r[t + 1] <= 1 for t in range(d - 1))
    return {
        "levels_nonnegative": all(v >= 0 for v in r),
        "levels_unit_steps": steps_ok,
        "last_level_zero": r[d - 1] == 0,
        "zero_start_all_zero": r[0] != 0 or all(v == 0 for v in r),
        # The nullity theorem makes the two sides equal for every unitary.
        "levels_max_of_sides": all(
            r[t] == profile.r_row_values[t] == profile.r_col_values[t] for t in range(d)
        ),
    }


def extremal_checks(
    tm: TransitionMatrix,
    profile: DeficiencyProfile,
    *,
    rank_tol: float = DEFAULT_RANK_TOL,
    zero_threshold: float = DEFAULT_ZERO_THRESHOLD,
    kernel: KernelWitness | None = None,
) -> dict:
    """At t = tau both sides reach exactly 1 and their kernels are all nonzero.

    The row witness is the profile's and the column witness its complement,
    so no level is searched again. A kernel coefficient counts as nonzero
    when its modulus is above zero_threshold, the threshold the support
    witness is counted at. Vacuously true when tau = -1 (no deficiency
    anywhere). kernel, when given, is the row witness's left kernel from
    tau_kernel, shared with support_at_tau; otherwise it is computed here.
    """
    if profile.tau < 0:
        return {"extremal_levels_balanced": True, "extremal_witness_nonzero": True}
    tau = profile.tau
    balanced = profile.r_row_values[tau] == 1 and profile.r_col_values[tau] == 1
    try:
        left = kernel if kernel is not None else tau_kernel(tm, profile, rank_tol=rank_tol)
        right = kernel_witness(
            tm.matrix, "right", left.selector.complement(tm.dim), tol=rank_tol, scale=1.0
        )
        nonzero = all(np.abs(w.coefficients).min() > zero_threshold for w in (left, right))
    except NoKernelError:
        nonzero = False
    return {"extremal_levels_balanced": balanced, "extremal_witness_nonzero": nonzero}


def analyze_transition(
    tm: TransitionMatrix,
    descriptor: dict,
    *,
    rank_tol: float = DEFAULT_RANK_TOL,
    zero_threshold: float = DEFAULT_ZERO_THRESHOLD,
    oracle_cap: int | None = None,
) -> AnalysisReport:
    """Run the deficiency route, take the support witness from its witness at
    tau (support_at_tau), and run every check the profile allows. The left
    kernel of the row witness at tau is computed once (tau_kernel) and shared
    by support_at_tau and extremal_checks.

    With oracle_cap, the subset search (min_support_uncertainty) runs first,
    so a dimension above oracle_cap raises DimensionCapError before any level
    is searched; support_matches_deficiency then records whether its minimum
    equals chi, False when its witness cannot be rebuilt. When its square
    level clears, the profile's level-0 step reads that walk's minor floors,
    a list made for this call alone, instead of computing each minor again;
    each route keeps its own thresholds and proof. A support witness
    that cannot be rebuilt (DegenerateWitnessError) does not discard the
    deficiency route: the report is returned with support None and the
    reason in support_skipped.
    """
    check_tolerance("rank_tol", rank_tol)
    check_tolerance("zero_threshold", zero_threshold)
    timings: dict = {}

    floors = []
    if oracle_cap is not None:
        start = time.perf_counter()
        try:
            oracle_n_ab = min_support_uncertainty(
                tm, zero_threshold=zero_threshold, rank_tol=rank_tol, max_dim=oracle_cap,
                floors=floors,
            ).n_ab
        except DegenerateWitnessError:
            oracle_n_ab = None
        timings["oracle"] = time.perf_counter() - start

    start = time.perf_counter()
    profile = deficiency_profile(tm, rank_tol=rank_tol, floors=floors)
    timings["deficiency"] = time.perf_counter() - start

    support, support_skipped = None, None
    start = time.perf_counter()
    kernel = tau_kernel(tm, profile, rank_tol=rank_tol)
    try:
        support = support_at_tau(
            tm, profile, zero_threshold=zero_threshold, rank_tol=rank_tol, kernel=kernel
        )
    except DegenerateWitnessError as exc:
        support_skipped = str(exc)
    timings["support"] = time.perf_counter() - start

    start = time.perf_counter()
    checks = profile_shape_checks(profile)
    checks.update(
        extremal_checks(
            tm, profile, rank_tol=rank_tol, zero_threshold=zero_threshold, kernel=kernel
        )
    )
    if oracle_cap is not None:
        checks["support_matches_deficiency"] = oracle_n_ab == profile.chi
    timings["checks"] = time.perf_counter() - start

    return AnalysisReport(
        descriptor=descriptor,
        dim=tm.dim,
        matrix=tm.matrix,
        tolerances={
            "rank_tol": rank_tol,
            "zero_threshold": zero_threshold,
            "unitarity_tolerance": tm.unitarity_tolerance,
        },
        profile=profile,
        support=support,
        support_skipped=support_skipped,
        checks=checks,
        timings=timings,
    )


def report_json_dict(report: AnalysisReport) -> dict:
    """Machine-readable report document (timings excluded for determinism)."""
    profile = report.profile
    witnesses = []
    for t, w in enumerate(profile.witnesses):
        if w is None:
            continue
        witnesses.append(
            {
                "t": t,
                "side": w.side,
                "rows": list(w.selector.rows),
                "cols": list(w.selector.cols),
                "deficiency": w.deficiency,
            }
        )
    doc = {
        "input": report.descriptor,
        "dim": report.dim,
        "matrix": matrix_to_json_dict(report.matrix),
        "tolerances": report.tolerances,
        "deficiency": {
            "r_values": list(profile.r_values),
            "r_row_values": list(profile.r_row_values),
            "r_col_values": list(profile.r_col_values),
            "tau": profile.tau,
            "chi": profile.chi,
            "witnesses": witnesses,
            "worst_gap_ratio": profile.worst_gap_ratio,
        },
        "symmetry": {
            "row_group_order": profile.row_group_order,
            "column_translations": profile.column_translations,
        },
        "fragile": report.fragile,
        "checks": report.checks,
    }
    if report.support is not None:
        w = report.support
        doc["support"] = {
            "n_a": w.n_a,
            "n_b": w.n_b,
            "n_ab": w.n_ab,
            "subset_a": list(w.subset_a),
            "subset_b": list(w.subset_b),
            "state_re": w.state_in_a.real.tolist(),
            "state_im": w.state_in_a.imag.tolist(),
        }
    else:
        doc["support"] = None
        doc["support_skipped"] = report.support_skipped
    return doc


def render_text(report: AnalysisReport) -> str:
    profile = report.profile
    lines = []
    lines.append(f"input: {_describe(report.descriptor)}")
    lines.append(f"dimension: {report.dim}")
    lines.append(f"incompatibility order chi = {profile.chi}")
    lines.append(f"deficiency index     tau = {profile.tau}")
    lines.append("levels (t: total / rows / cols):")
    for t in range(report.dim):
        marker = ""
        w = profile.witnesses[t]
        if w is not None:
            marker = f"   <- {w.side} witness rows={list(w.selector.rows)} cols={list(w.selector.cols)}"
        lines.append(
            f"  t={t}: {profile.r_values[t]} / {profile.r_row_values[t]}"
            f" / {profile.r_col_values[t]}{marker}"
        )
    if report.support is not None:
        w = report.support
        lines.append(
            f"minimal support uncertainty: {w.n_ab} "
            f"(n_a={w.n_a} on {list(w.subset_a)}, n_b={w.n_b} on {list(w.subset_b)})"
        )
    else:
        lines.append(f"minimal support uncertainty: skipped ({report.support_skipped})")
    lines.append(
        f"search symmetry: row group of order {profile.row_group_order}, column translations "
        + ("used" if profile.column_translations else "unused")
    )
    lines.append(f"worst rank gap ratio: {profile.worst_gap_ratio:.3e}"
                 + ("  [FRAGILE]" if report.fragile else ""))
    lines.append("checks:")
    for name, ok in report.checks.items():
        lines.append(f"  {'pass' if ok else 'FAIL'}  {name}")
    lines.append("tolerances: " + ", ".join(f"{k}={v:g}" for k, v in report.tolerances.items()))
    lines.append("timings: " + ", ".join(f"{k}={v * 1e3:.1f} ms" for k, v in report.timings.items()))
    return "\n".join(lines)


def _describe(descriptor: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in descriptor.items())
