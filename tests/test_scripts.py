"""Smoke tests of the experiment scripts, run the way the README runs them."""

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
    out = run_script("dft_order_scan.py", "--max-dim", "8", "--verify")
    assert out.returncode == 0, out.stderr
    rows = out.stdout.splitlines()[1:]
    assert [int(row.split()[0]) for row in rows] == list(range(2, 9))
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


def test_report_digest_repeats():
    first, second = (run_script("report_digest.py", "--max-dim", "4") for _ in range(2))
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    lines = first.stdout.splitlines()
    assert lines[0].startswith("runs ") and int(lines[0].split()[1]) > 0
    assert len(lines[1].split()[1]) == 64
    assert second.stdout == first.stdout
