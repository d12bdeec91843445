"""Smoke tests of the experiment scripts, run the way the README runs them."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path),
    )


def test_dft_order_scan_verifies_every_dimension():
    # tau_fast and the profile are checked up to d = 18 (the subset search
    # up to its default cap, 10), so every row up to the prime d = 13 is
    # checked.
    out = run_script("dft_order_scan.py", "--max-dim", "13", "--verify")
    assert out.returncode == 0, out.stderr
    rows = out.stdout.splitlines()[1:]
    assert [int(row.split()[0]) for row in rows] == list(range(2, 14))
    assert all(row.endswith("[ok]") for row in rows)
    assert "MISMATCH" not in out.stdout


def test_make_figure_data_writes_three_csvs(tmp_path):
    out = run_script("make_figure_data.py", "--out-dir", str(tmp_path), "--samples", "16")
    assert out.returncode == 0, out.stderr
    headers = {
        "identity6_levels.csv": "t,R_t,R_row_t,R_col_t",
        "zeta12.csv": "x,zeta,d1,d2",
        "zeta36.csv": "x,zeta,d1,d2",
    }
    for name, header in headers.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) > 1


def test_report_digest_repeats(tmp_path):
    records = tmp_path / "runs.jsonl"
    first = run_script("report_digest.py", "--max-dim", "4", "--records", str(records))
    second = run_script("report_digest.py", "--max-dim", "4")
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    lines = first.stdout.splitlines()
    assert lines[0].startswith("runs ") and int(lines[0].split()[1]) > 0
    assert len(lines[1].split()[1]) == 64
    assert second.stdout == first.stdout
    runs = [json.loads(line) for line in records.read_text().splitlines()]
    assert len(runs) == int(lines[0].split()[1])
    # DFT(10) and DFT(12) are analyzed whatever --max-dim is, and DFT(8) and
    # DFT(12) are analyzed and run through tau_fast at rank tolerance 0.
    analyzed = {(r["name"], r["rank_tol"]) for r in runs if r["mode"] == "analyze"}
    tols = ("1e-10", "1e-6", "1e-4")
    zero = {("dft(8)", "0"), ("dft(12)", "0")}
    assert analyzed == {(f"dft({d})", tol) for d in (10, 12) for tol in tols} | zero
    assert zero < {(r["name"], r["rank_tol"]) for r in runs if r["mode"] == "tau"}
    assert all(r["code"] == 0 for r in runs if r["mode"] == "analyze")
    same = run_script("report_digest.py", "--compare", str(records), str(records))
    assert same.returncode == 0, same.stderr
    assert same.stdout == f"0 of {len(runs)} runs differ\n"


def test_report_digest_compare_names_the_differing_field(tmp_path):
    # Each differing scalar is printed old -> new; a key in one report only
    # is named alone; reports that decode to the same document differ in
    # layout only, and that still counts as a difference.
    report = {"deficiency": {"tau": 1, "worst_gap_ratio": 0.0}, "checks": {"ok": True}}
    runs = [
        {"name": "dft(4)", "rank_tol": "1e-10", "mode": "()", "code": 0,
         "stdout": json.dumps(report), "stderr": "", "tau": 1},
        {"name": "dft(4)", "rank_tol": "1e-10", "mode": "tau", "code": None,
         "stdout": None, "stderr": None, "tau": 1},
        {"name": "dft(4)", "rank_tol": "1e-6", "mode": "()", "code": 0,
         "stdout": json.dumps(report, indent=2) + "\n", "stderr": "", "tau": 1},
    ]
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old.write_text("".join(json.dumps(r) + "\n" for r in runs))
    report["deficiency"]["worst_gap_ratio"] = 1e-12
    report["checks"]["fragile"] = False
    runs[0]["stdout"] = json.dumps(report)
    runs[1]["tau"] = 2
    runs[2]["stdout"] = json.dumps(json.loads(runs[2]["stdout"])) + "\n"
    new.write_text("".join(json.dumps(r) + "\n" for r in runs))
    out = run_script("report_digest.py", "--compare", str(old), str(new))
    assert out.returncode == 1, out.stderr
    assert out.stdout.splitlines() == [
        "dft(4) 1e-10 (): stdout.deficiency.worst_gap_ratio 0.0 -> 1e-12, stdout.checks.fragile",
        "dft(4) 1e-10 tau: tau 1 -> 2",
        "dft(4) 1e-6 (): stdout (layout only)",
        "3 of 3 runs differ",
    ]


def test_readme_holds_the_perf_table():
    out = run_script("perf_table.py")
    assert out.returncode == 0, out.stderr
    assert out.stdout in (ROOT / "README.md").read_text()


def test_perf_table_renders_committed_bench_files():
    out = run_script("perf_table.py")
    assert out.returncode == 0, out.stderr
    header, rule, *rows = out.stdout.splitlines()
    files = sorted(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))
    assert [row.split("|")[1].strip() for row in rows] == [path.stem for path in files]
    assert rule.count("---") == header.count("|") - 1
    bench = json.loads((ROOT / "BENCH_6.json").read_text())["workloads"]
    names = [cell.strip() for cell in header.strip("|").split("|")]
    cells = [cell.strip() for cell in rows[0].strip("|").split("|")]
    assert names[0] == "file" and cells[0] == "BENCH_6"
    for workload, metrics in bench.items():
        for metric in ("analyze_s", "tau_s"):
            column = names.index(f"`{workload}` `{metric}`")
            assert cells[column] == f"{metrics[metric]['median']:.3g}"


def test_perf_table_renders_medians_to_three_significant_figures(tmp_path):
    spec = importlib.util.spec_from_file_location("perf_table", ROOT / "scripts" / "perf_table.py")
    perf_table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perf_table)

    def bench(n, workloads):
        path = tmp_path / f"BENCH_{n}.json"
        summary = {
            name: {metric: {"median": value} for metric, value in zip(("analyze_s", "tau_s"), medians)}
            for name, medians in workloads.items()
        }
        path.write_text(json.dumps({"workloads": summary}))
        return path

    # Given out of order: the rows follow n, and a workload missing from a
    # file reads "-".
    paths = [
        bench(12, {"haar": (0.00482, 0.000931)}),
        bench(9, {"haar": (0.178, 0.0176), "dft": (0.148, 0.0213)}),
    ]
    assert perf_table.render(paths).splitlines() == [
        "| file | `haar` `analyze_s` | `haar` `tau_s` | `dft` `analyze_s` | `dft` `tau_s` |",
        "|---|---|---|---|---|",
        "| BENCH_9 | 0.178 | 0.0176 | 0.148 | 0.0213 |",
        "| BENCH_12 | 0.00482 | 0.000931 | - | - |",
    ]
