"""Tests of the benchmark itself (not of the program it measures).

Run from the root of a checkout:

    python3 -m pytest -q benchmark/selftest.py

The file name keeps the repository's own test run from collecting these; the
end-to-end tests run the benchmark on ``small-mixed`` and take under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import calibration
import run
import tracing
import workloads
from tracing import Span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def result_of(out: subprocess.CompletedProcess) -> dict:
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def small_mixed_runs():
    """One untraced and two traced runs of small-mixed on the same seed."""
    common = ("--workload", "small-mixed", "--seed", "5", "--seconds", "1")
    return {
        "untraced": result_of(bench(ROOT, *common, "--trace", "0")),
        "traced": [result_of(bench(ROOT, *common, "--trace", "1")) for _ in range(2)],
    }


def test_output_metrics_match_benchmark_json(small_mixed_runs):
    for result, section in ((small_mixed_runs["untraced"], "end_to_end"),
                            (small_mixed_runs["traced"][0], "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        expected = {m["name"]: m["unit"] for m in CONFIG[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_layer_counts_repeat_across_traced_runs(small_mixed_runs):
    first, second = (r["metrics"] for r in small_mixed_runs["traced"])
    for name in run.EXACT_LAYER_METRICS:
        assert first[name]["value"] == second[name]["value"], name


def test_seed_changes_haar_inputs_but_not_dft_inputs():
    def matrices(workload, seed):
        return [c.matrix for c in workloads.WORKLOADS[workload](seed)]

    assert all(np.array_equal(a, b) for a, b in zip(matrices("haar", 1), matrices("haar", 1)))
    assert not any(np.allclose(a, b) for a, b in zip(matrices("haar", 1), matrices("haar", 2)))
    assert all(np.array_equal(a, b) for a, b in zip(matrices("dft", 1), matrices("dft", 2)))


def test_inputs_are_unitary_and_round_trip_through_json():
    for make in workloads.WORKLOADS.values():
        for case in make(7):
            m = case.matrix
            assert np.abs(m.conj().T @ m - np.eye(case.dim)).max() < 1e-12, case.name
            doc = json.loads(workloads.matrix_json(m))
            back = np.array(doc["re"]) + 1j * np.array(doc["im"])
            assert np.array_equal(back, m), case.name


def test_dft_reference_chi():
    assert [workloads.dft_chi(d) for d in (2, 7, 8, 9, 10, 12, 36)] == [3, 8, 6, 6, 7, 7, 12]


def test_block_space_counts_both_sides():
    # d = 2, per side: t = 0 has C(2,1)C(2,1) + C(2,2)C(2,2) = 5 blocks,
    # t = 1 has C(2,1)C(2,2) = 2.
    assert tracing.block_space(2, 0) == 10
    assert tracing.block_space(2, 1) == 14


def _span(name, parent, start, end, blocks=0):
    span = Span(name, parent)
    span.start, span.end, span.blocks = start, end, blocks
    return span


def test_layer_metrics_self_time_and_attribution():
    spans = [
        _span("cli.main", -1, 0, 10),                            # 0
        _span("report.analyze_transition", 0, 1, 9),             # 1
        _span("deficiency.deficiency_profile", 1, 1, 5),         # 2
        _span("rank.svd", 2, 2, 3, blocks=4),                    # 3
        _span("support.min_support_uncertainty", 1, 5, 6),       # 4
        _span("rank.svd", 4, 5.2, 5.4, blocks=3),                # 5
        _span("report.extremal_checks", 1, 6, 8),                # 6
        _span("deficiency.r_row", 6, 6, 8),                      # 7
        _span("rank.svd", 7, 6.5, 7.5, blocks=2),                # 8
        _span("deficiency.tau_fast", -1, 10, 14),                # 9
        _span("rank.svd", 9, 11, 13, blocks=5),                  # 10
    ]
    m = tracing.layer_metrics(spans)
    assert m["rank.svd_calls"] == 4 and m["rank.svd_blocks"] == 14
    assert m["deficiency.blocks"] == 9
    assert m["support.blocks"] == 3
    assert m["report.checks_blocks"] == 2
    assert m["rank.svd_share_of_tau"] == pytest.approx(0.5)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["deficiency.self_s"] == pytest.approx(3 + 1 + 2)
    assert m["report.checks_s"] == pytest.approx(2.0)


def test_tracer_wraps_every_lookup_site_and_restores_it():
    incompat = run.load_program()
    original = incompat.report.deficiency_profile
    tracer = tracing.Tracer()
    with tracer.installed():
        assert incompat.report.deficiency_profile is not original
        assert incompat.deficiency.deficiency_profile is incompat.report.deficiency_profile
        assert incompat.tau_fast(incompat.dft_matrix(4)) == 4 - workloads.dft_chi(4)
    assert incompat.report.deficiency_profile is original
    assert incompat.deficiency.deficiency_profile is original
    names = [s.name for s in tracer.take()]
    assert names[0] == "deficiency.tau_fast" and "rank.svd" in names


def test_calibration_chunk_runs_outside_the_tracer():
    run.load_program()
    cal = calibration.Calibration()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cal.chunk() > 0
    assert tracer.take() == []
    assert calibration.slowdown([calibration.NOMINAL_S] * 3) == pytest.approx(1.0)
    assert calibration.slowdown([0.0, 9.0, 2 * calibration.NOMINAL_S]) == pytest.approx(2.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns(".work", ".state", "__pycache__"))
    out = bench(tmp_path, "--workload", "dft", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
