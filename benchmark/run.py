#!/usr/bin/env python3
"""Benchmark of the incompat package: end-to-end op times, or a traced per-layer run.

Run from the root of a checkout:

    python3 benchmark/run.py --workload haar --seed 1 --seconds 20 --trace 0

Set-up imports ``incompat`` from the checkout's ``src/`` tree, writes the
workload's inputs (``workloads.py``) as JSON matrix files, and makes one
warm-up LAPACK call. A pass then runs every op once, in order:

- analyze op: ``incompat.cli.main(["analyze", "--input", f, "--json",
  "--verify"])`` with stdout captured, on the inputs marked for it;
- tau op: ``incompat.tau_fast(tm)`` on every input.

Passes repeat until ``--seconds`` have elapsed (always at least one). Each
pass also runs a fixed calibration chunk (``calibration.py``) at its start,
at its end, and before any op that starts a second or more after the last
chunk. The median chunk time of a pass, over the chunk's nominal time, is the
pass's slowdown. A time metric is the median over the passes of the pass's
total for ops of that kind divided by its slowdown: wall time at the speed at
which a chunk takes its nominal time. The speed of a shared machine drifts by
a third or more over seconds to minutes, and this cancels it; the raw wall
times and slowdowns are printed too. Every op is checked against the input's
reference chi, the tau op against the report's tau, and the JSON reports of a
pass are hashed into a digest that must repeat across passes and across runs
of the same program source on the same inputs.

With ``--trace 0`` the last stdout line carries the end-to-end metrics. With
``--trace 1`` each untraced pass is followed by a traced one (``tracing.py``)
and the line carries the per-layer metrics instead. The program always runs
with its default of one worker thread.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from the first statement

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# set_up runs once in this process and SETUP_PROBES times in fresh
# interpreters, one at the start of each untraced pass while they last (so
# that the pass's slowdown applies to it); setup_s is the median.
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {"analyze_s": "s", "tau_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "rank.svd_s": "s",
    "rank.svd_calls": "count",
    "rank.svd_blocks": "count",
    "rank.blocks_per_call": "blocks/call",
    "rank.gathered_mb": "MB",
    "rank.svd_share_of_tau": "ratio",
    "deficiency.self_s": "s",
    "deficiency.blocks": "count",
    "deficiency.block_space": "count",
    "deficiency.eval_ratio": "ratio",
    "support.search_s": "s",
    "support.blocks": "count",
    "report.checks_s": "s",
    "report.checks_blocks": "count",
    "matrices.ingest_s": "s",
    "report.render_s": "s",
    "cli.self_s": "s",
    "report.fragile_count": "count",
    "trace.overhead_s": "s",
}
# Per-layer metrics that are counts, or ratios of counts: they must repeat
# exactly across traced passes. The rest are times, reported as medians.
EXACT_LAYER_METRICS = (
    "rank.svd_calls", "rank.svd_blocks", "rank.blocks_per_call", "rank.gathered_mb",
    "deficiency.blocks", "deficiency.block_space", "deficiency.eval_ratio",
    "support.blocks", "report.checks_blocks", "report.fragile_count",
)


class SetupError(Exception):
    """The program under test cannot be found or imported."""


@dataclass(frozen=True, eq=False)
class Input:
    case: workloads.Case
    path: str  # relative to the work directory, so reports do not vary with it
    tm: object  # the program's TransitionMatrix, built during set-up for the tau op


@dataclass
class Pass:
    analyze_s: float = 0.0  # raw wall time, as are tau_s and setup_s
    tau_s: float = 0.0
    setup_s: float | None = None  # a set-up probe made in this pass, if any
    slowdown: float = 1.0
    attempted: int = 0
    failed: int = 0
    fragile: int = 0
    digest: str = ""
    layers: dict = field(default_factory=dict)


def load_program():
    """Import incompat from this checkout's source tree, never from elsewhere."""
    package = SRC / "incompat"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no incompat package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import incompat
        import incompat.cli
    except ImportError as exc:
        raise SetupError(f"cannot import incompat: {exc}") from exc
    if Path(incompat.__file__).resolve().parent != package.resolve():
        raise SetupError(f"imported incompat from {incompat.__file__}, not from {package}")
    return incompat


def set_up(workload: str, seed: int, workdir: Path):
    """Import the program, write the inputs, warm up LAPACK.

    Returns the program module, the inputs, and a digest of the input files.
    """
    incompat = load_program()
    workdir.mkdir(parents=True)
    inputs = []
    digest = hashlib.sha256()
    for case in workloads.WORKLOADS[workload](seed):
        path = workdir / f"{case.name}.json"
        text = workloads.matrix_json(case.matrix)
        path.write_text(text)
        digest.update(f"{case.name}\n{text}\n".encode())
        inputs.append(Input(case, path.name, incompat.from_array(case.matrix)))
    np.linalg.svd(np.ones((4, 3, 3), dtype=complex), compute_uv=False)
    return incompat, inputs, digest.hexdigest()


def run_pass(incompat, inputs: list[Input], cal: calibration.Calibration, probe=None) -> Pass:
    """Every op once, timed, checked, and hashed into the pass digest, with
    calibration chunks around and between the ops. ``probe``, if given, is
    a set-up probe made at the start of the pass."""
    result = Pass()
    digest = hashlib.sha256()
    chunks = [cal.chunk()]
    if probe is not None:
        result.setup_s = probe()

    def fail(case, op, problem):
        result.failed += 1
        print(f"FAIL {case.name} {op}: {problem}", file=sys.stderr)

    for inp in inputs:
        case = inp.case
        report_tau = None
        if case.analyze:
            chunks += cal.due()
            result.attempted += 1
            out = io.StringIO()
            argv = ["analyze", "--input", inp.path, "--json", "--verify"]
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = incompat.cli.main(argv)
            except (Exception, SystemExit) as exc:  # an op failure, not a benchmark failure
                code = repr(exc)
            result.analyze_s += time.perf_counter() - start
            text = out.getvalue()
            digest.update(f"analyze {case.name}\n{text}".encode())
            try:
                doc = json.loads(text)
                chi, report_tau = doc["deficiency"]["chi"], doc["deficiency"]["tau"]
                result.fragile += bool(doc["fragile"])
            except (ValueError, KeyError, TypeError) as exc:
                chi = f"unreadable report ({exc!r})"
            if code != 0:
                fail(case, "analyze", f"exit {code}")
            elif chi != case.chi:
                fail(case, "analyze", f"chi {chi}, reference {case.chi}")

        chunks += cal.due()
        result.attempted += 1
        start = time.perf_counter()
        try:
            tau = incompat.tau_fast(inp.tm)
        except Exception as exc:  # an op failure, not a benchmark failure
            tau = f"raised {exc!r}"
        result.tau_s += time.perf_counter() - start
        digest.update(f"tau {case.name} {tau}\n".encode())
        if tau != case.dim - case.chi:
            fail(case, "tau", f"tau {tau}, reference {case.dim - case.chi}")
        elif report_tau is not None and tau != report_tau:
            fail(case, "tau", f"tau {tau}, report says {report_tau}")
    chunks.append(cal.chunk())
    result.slowdown = calibration.slowdown(chunks)
    result.digest = digest.hexdigest()
    return result


def measure(incompat, inputs: list[Input], seconds: float, trace: bool,
            cal: calibration.Calibration, next_probe):
    """Untraced passes until time is up, each followed by a traced one when
    tracing. ``next_probe()`` gives the set-up probe for an untraced pass,
    or None."""
    deadline = time.perf_counter() + seconds
    untraced, traced = [], []
    tracer = tracing.Tracer()
    while True:
        untraced.append(run_pass(incompat, inputs, cal, None if trace else next_probe()))
        if trace:
            with tracer.installed():
                p = run_pass(incompat, inputs, cal)
            p.layers = tracing.layer_metrics(tracer.take())
            for name in p.layers:
                if name.endswith("_s"):
                    p.layers[name] /= p.slowdown
            p.layers["report.fragile_count"] = p.fragile
            traced.append(p)
        if time.perf_counter() >= deadline:
            return untraced, traced


def calibrated(passes: list[Pass], kind: str) -> float:
    """Median over the passes of one kind of pass total, divided by the
    pass's slowdown."""
    return statistics.median(getattr(p, kind) / p.slowdown for p in passes)


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter running the same set-up."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S,
    )
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def digest_repeats(workload: str, inputs_digest: str, digest: str) -> bool:
    """Compare against the digest stored by an earlier run of the same
    program source on the same inputs; store it if there is none."""
    key = hashlib.sha256(f"{workload}\n{inputs_digest}\n".encode())
    for path in sorted((SRC / "incompat").rglob("*.py")):
        key.update(f"{path.relative_to(SRC)}\n".encode())
        key.update(path.read_bytes())
    record = HERE / ".state" / f"{key.hexdigest()}.digest"
    if record.is_file():
        return record.read_text().strip() == digest
    record.parent.mkdir(exist_ok=True)
    record.write_text(digest + "\n")
    return True


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="seeds the Haar inputs")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced passes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        try:
            incompat, inputs, inputs_digest = set_up(args.workload, args.seed, workdir)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        probes = iter([lambda: probe_setup(args.workload, args.seed)] * SETUP_PROBES)

        def next_probe():
            return next(probes, None)

        cal = calibration.Calibration()
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            untraced, traced = measure(incompat, inputs, args.seconds, bool(args.trace),
                                       cal, next_probe)
        finally:
            os.chdir(cwd)
        # Set-ups as (raw seconds, slowdown): this process's own is charged
        # the first pass's slowdown, a probe that of the pass it ran in.
        setups = [(setup_s, untraced[0].slowdown)]
        setups += [(p.setup_s, p.slowdown) for p in untraced if p.setup_s is not None]
        while not args.trace and (probe := next_probe()) is not None:
            chunks = [cal.chunk()]
            raw = probe()
            chunks.append(cal.chunk())
            setups.append((raw, calibration.slowdown(chunks)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    passes = untraced + traced
    digests = {p.digest for p in passes}
    correct = len(digests) == 1 and all(p.failed == 0 for p in passes)
    if len(digests) != 1:
        print("FAIL report digest differs between passes", file=sys.stderr)
    elif not digest_repeats(args.workload, inputs_digest, passes[0].digest):
        correct = False
        print("FAIL report digest differs from an earlier run", file=sys.stderr)

    if args.trace:
        values = {
            name: (traced[0].layers[name] if name in EXACT_LAYER_METRICS
                   else statistics.median(p.layers[name] for p in traced))
            for name in PER_LAYER_UNITS if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = (calibrated(traced, "analyze_s")
                                      - calibrated(untraced, "analyze_s"))
        for name in EXACT_LAYER_METRICS:
            if any(p.layers[name] != values[name] for p in traced):
                correct = False
                print(f"FAIL layer count {name} differs between traced passes", file=sys.stderr)
        units = PER_LAYER_UNITS
    else:
        values = {
            "analyze_s": calibrated(untraced, "analyze_s"),
            "tau_s": calibrated(untraced, "tau_s"),
            "setup_s": statistics.median(raw / slowdown for raw, slowdown in setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS

    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {len(inputs)} inputs")
    print("  untraced passes, raw analyze / tau, slowdown: "
          + ", ".join(f"{p.analyze_s:.4g} / {p.tau_s:.4g} s x{p.slowdown:.3f}" for p in untraced))
    if not args.trace:
        print("  set-ups, raw, slowdown: "
              + ", ".join(f"{raw:.4g} s x{slowdown:.3f}" for raw, slowdown in setups))
    for name, value in values.items():
        print(f"  {name:24s} {value:.6g} {units[name]}")
    print(f"report_digest: {passes[0].digest}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
