#!/usr/bin/env python3
"""Render the benchmark trajectory as a markdown table from BENCH_*.json files.

Each BENCH_<n>.json at the root of the checkout holds the summary that

    python3 benchmark/spread.py --runs 10 --out BENCH_<n>.json

wrote for one version of the package. The table has one row per file, in
order of n, and one column per workload and metric (`analyze_s`, then
`tau_s`, for each workload in the order the files first name it), each cell
the median over the file's runs in calibrated seconds, to three significant
figures; "-" where a file has no such median. The README's performance
table is this output, verbatim.

    python3 scripts/perf_table.py
"""

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("analyze_s", "tau_s")


def render(paths: list[Path]) -> str:
    paths = sorted(paths, key=lambda path: int(re.search(r"\d+", path.stem).group()))
    benches = [(path.stem, json.loads(path.read_text())["workloads"]) for path in paths]
    workloads = list(dict.fromkeys(w for _, summary in benches for w in summary))
    columns = [(workload, metric) for workload in workloads for metric in METRICS]
    header = ["file"] + [f"`{workload}` `{metric}`" for workload, metric in columns]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for stem, summary in benches:
        cells = [stem]
        for workload, metric in columns:
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
