"""Command-line front end.

Subcommands: analyze, profile-curve, zeta-curve, verify-corpus.
Exit codes: 0 success / all checks pass, 1 verification failure,
2 input error, 3 subset-search cap exceeded (partial report emitted),
4 numerically near-degenerate input (a support witness could not be rebuilt;
analyze still emits the partial report without the support result).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .corpus import render_table, run_corpus_checks
from .deficiency import deficiency_profile
from .errors import DegenerateWitnessError, DimensionCapError, IncompatError
from .fourier import divisor_decomposition, zeta
from .matrices import (
    LOADED_MATRIX_TOL,
    TransitionMatrix,
    bronzan_rotation,
    dft_matrix,
    from_array,
    identity,
    load_matrix,
    qubit_rotation,
    random_unitary,
)
from .rank import DEFAULT_RANK_TOL
from .report import analyze_transition, render_text, report_json_dict
from .support import DEFAULT_SUPPORT_CAP, DEFAULT_ZERO_THRESHOLD

FAMILIES = ("identity", "dft", "qubit", "bronzan", "random")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incompat",
        description="Classify the incompatibility of two orthonormal bases "
        "from the rank-deficiency structure of their transition matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--input", help="path to a matrix file")
    source.add_argument("--format", choices=("json", "csv"), default="json",
                        help="matrix file format (default: json)")
    source.add_argument("--family", choices=FAMILIES, help="named matrix family")
    source.add_argument("--dim", type=int, help="dimension for identity/dft/random")
    source.add_argument("--theta", type=float, help="qubit rotation angle")
    source.add_argument("--phi1", type=float, default=0.0, help="qubit phase 1")
    source.add_argument("--phi2", type=float, default=0.0, help="qubit phase 2")
    source.add_argument("--theta1", type=float, help="bronzan first angle")
    source.add_argument("--theta2", type=float, help="bronzan second angle")
    source.add_argument("--seed", type=int, default=0, help="seed for --family random")
    source.add_argument("--unitarity-tol", type=float, default=LOADED_MATRIX_TOL,
                        help="unitarity tolerance for file input")

    tuning = argparse.ArgumentParser(add_help=False)
    tuning.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL,
                        help="relative SVD rank tolerance")
    tuning.add_argument("--zero-threshold", type=float, default=DEFAULT_ZERO_THRESHOLD,
                        help="support-counting zero threshold")

    p = sub.add_parser("analyze", parents=[source, tuning],
                       help="full analysis of one matrix")
    p.add_argument("--verify", action="store_true",
                   help="exit nonzero if any cross-check fails")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--support-cap", type=int, default=DEFAULT_SUPPORT_CAP,
                   help="largest dimension for the subset search")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("profile-curve", parents=[source, tuning],
                       help="emit the deficiency levels as CSV")
    p.add_argument("--output", required=True, help="CSV path, or - for stdout")
    p.set_defaults(func=cmd_profile_curve)

    p = sub.add_parser("zeta-curve", help="emit the divisor interpolation curve as CSV")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--samples", type=int, default=512,
                   help="even grid size on [1, dim]; divisors are always included")
    p.add_argument("--output", required=True, help="CSV path, or - for stdout")
    p.set_defaults(func=cmd_zeta_curve)

    p = sub.add_parser("verify-corpus", parents=[tuning],
                       help="run every invariant suite over a matrix corpus")
    p.add_argument("--max-dim", type=int, default=5)
    p.add_argument("--seeds", type=int, default=20,
                   help="random unitaries per dimension")
    p.set_defaults(func=cmd_verify_corpus)
    return parser


def _matrix_from_args(args) -> tuple[TransitionMatrix, dict]:
    if bool(args.input) == bool(args.family):
        raise IncompatError("provide exactly one of --input or --family")
    if args.input:
        arr = load_matrix(Path(args.input).read_bytes(), args.format)
        tm = from_array(arr, unitarity_tolerance=args.unitarity_tol)
        return tm, {"path": args.input, "format": args.format}
    family = args.family
    if family in ("identity", "dft", "random"):
        if args.dim is None:
            raise IncompatError(f"--family {family} requires --dim")
        if family == "identity":
            return identity(args.dim), {"family": family, "dim": args.dim}
        if family == "dft":
            return dft_matrix(args.dim), {"family": family, "dim": args.dim}
        return random_unitary(args.dim, args.seed), {
            "family": family, "dim": args.dim, "seed": args.seed,
        }
    if family == "qubit":
        if args.theta is None:
            raise IncompatError("--family qubit requires --theta")
        return qubit_rotation(args.theta, args.phi1, args.phi2), {
            "family": family, "theta": args.theta, "phi1": args.phi1, "phi2": args.phi2,
        }
    if args.theta1 is None or args.theta2 is None:
        raise IncompatError("--family bronzan requires --theta1 and --theta2")
    return bronzan_rotation(args.theta1, args.theta2), {
        "family": family, "theta1": args.theta1, "theta2": args.theta2,
    }


def _write_output(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def cmd_analyze(args) -> int:
    tm, descriptor = _matrix_from_args(args)
    report = analyze_transition(
        tm,
        descriptor,
        rank_tol=args.rank_tol,
        zero_threshold=args.zero_threshold,
        support_cap=args.support_cap,
    )
    if args.json:
        print(json.dumps(report_json_dict(report), indent=2))
    else:
        print(render_text(report))
    if args.verify and not report.all_checks_pass:
        return 1
    if report.support_degenerate:
        print(f"error: {report.support_skipped}", file=sys.stderr)
        return 4
    if report.support_skipped is not None:
        print(f"note: partial report, {report.support_skipped}", file=sys.stderr)
        return 3
    return 0


def cmd_profile_curve(args) -> int:
    tm, _ = _matrix_from_args(args)
    profile = deficiency_profile(tm, rank_tol=args.rank_tol)
    lines = ["t,R_t,R_row_t,R_col_t"]
    for t in range(tm.dim):
        lines.append(
            f"{t},{profile.r_values[t]},{profile.r_row_values[t]},{profile.r_col_values[t]}"
        )
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def cmd_zeta_curve(args) -> int:
    if args.dim < 2:
        raise IncompatError(f"--dim must be >= 2, got {args.dim}")
    if args.samples < 2:
        raise IncompatError(f"--samples must be >= 2, got {args.samples}")
    grid = set(np.linspace(1.0, float(args.dim), args.samples).tolist())
    grid.update(float(q) for q in divisor_decomposition(args.dim).divisors)
    lines = ["x,zeta,d1,d2"]
    for x in sorted(grid):
        point = zeta(args.dim, x)
        lines.append(f"{x!r},{point.value!r},{point.lower_divisor},{point.upper_divisor}")
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def cmd_verify_corpus(args) -> int:
    if args.max_dim > DEFAULT_SUPPORT_CAP:
        raise IncompatError(
            f"--max-dim must be <= {DEFAULT_SUPPORT_CAP} (subset-search cap), got {args.max_dim}"
        )
    if args.seeds < 0:
        raise IncompatError(f"--seeds must be >= 0, got {args.seeds}")
    start = time.perf_counter()
    suites = run_corpus_checks(
        args.max_dim,
        args.seeds,
        rank_tol=args.rank_tol,
        zero_threshold=args.zero_threshold,
    )
    print(render_table(suites))
    print(f"runtime: {time.perf_counter() - start:.2f} s")
    return 0 if all(s.passed for s in suites) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DimensionCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DegenerateWitnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except IncompatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
