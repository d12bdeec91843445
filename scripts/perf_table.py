#!/usr/bin/env python3
"""Render the benchmark trajectory as a markdown table from BENCH_*.json files.

Each BENCH_<n>.json at the root of the checkout holds the summary that

    python3 benchmark/spread.py --runs 10 --out BENCH_<n>.json

wrote for one version of the package. The table has one row per workload
and, for each of `analyze_s` and `tau_s`, one column per file in order of n,
each cell the median over the file's runs in calibrated seconds, to three
significant figures. The README's
performance table is this output, verbatim.

    python3 scripts/perf_table.py
"""

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def render(paths: list[Path]) -> str:
    paths = sorted(paths, key=lambda path: int(re.search(r"\d+", path.stem).group()))
    benches = [(path.stem, json.loads(path.read_text())["workloads"]) for path in paths]
    workloads = list(dict.fromkeys(w for _, summary in benches for w in summary))
    header = ["workload"] + [
        f"`{metric}` {stem}" for metric in ("analyze_s", "tau_s") for stem, _ in benches
    ]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for workload in workloads:
        cells = [f"`{workload}`"]
        for metric in ("analyze_s", "tau_s"):
            for _, summary in benches:
                value = summary.get(workload, {}).get(metric)
                cells.append("-" if value is None else f"{value['median']:.3g}")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main() -> int:
    paths = list(ROOT.glob("BENCH_*.json"))
    if not paths:
        print("no BENCH_<n>.json files", file=sys.stderr)
        return 2
    print(render(paths))
    return 0


if __name__ == "__main__":
    sys.exit(main())
