#!/usr/bin/env python3
"""Run the benchmark once per seed and summarize each metric's spread.

Run from the root of a checkout:

    python3 benchmark/spread.py --runs 10 --first-seed 1
    python3 benchmark/spread.py --workloads haar --runs 5 --trace 0 1 --out haar.json

For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), and the spread: the
distance between the quartiles as a share of the median, beside the bound
``BENCHMARK.json`` gives an end-to-end metric. ``--trace 0`` covers the
end-to-end metrics, ``--trace 1`` the per-layer ones. ``--out`` writes the
same figures as JSON, with the machine they were measured on. Runs are made
one after another.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr}")
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} reported incorrect results: {out.stderr}")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0])
    parser.add_argument("--out", type=Path, help="write the summary as JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    sections = {0: config["end_to_end"], 1: config["per_layer"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    summary = {}
    for workload in args.workloads:
        summary[workload] = {}
        for trace in args.trace:
            names = [m["name"] for m in sections[trace]]
            values: dict[str, list[float]] = {name: [] for name in names}
            for seed in seeds:
                result = run_once(workload, seed, args.seconds, trace)
                for name in names:
                    values[name].append(result["metrics"][name]["value"])
            print(f"{workload}, trace {trace}: {args.runs} runs, seeds {seeds[0]}..{seeds[-1]}")
            for name in names:
                s = summary[workload][name] = summarize(values[name])
                spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
                print(f"  {name:24s} median {s['median']:.4g}  q1 {s['q1']:.4g}"
                      f"  q3 {s['q3']:.4g}  spread {spread}"
                      f"  bound {bounds.get(name, '-')}", flush=True)
    if args.out:
        args.out.write_text(json.dumps({
            "machine": machine(),
            "run_seconds": args.seconds,
            "seeds": list(seeds),
            "workloads": summary,
        }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
