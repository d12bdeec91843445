import json
import math

import numpy as np
import pytest

from incompat import dft_matrix, save_matrix
from incompat.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_identity_six_verify(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--family", "identity", "--dim", "6", "--verify", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["deficiency"]["r_values"] == [3, 2, 2, 1, 1, 0]
        assert doc["deficiency"]["tau"] == 4
        assert doc["deficiency"]["chi"] == 2
        assert doc["support"]["n_ab"] == 2
        assert all(doc["checks"].values())
        assert doc["tolerances"]["rank_tol"] == 1e-10

    def test_dft_six(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--family", "dft", "--dim", "6", "--json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["deficiency"]["chi"], doc["deficiency"]["tau"]) == (5, 1)

    def test_bronzan_boundary_angle(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--family", "bronzan",
            "--theta1", "0", "--theta2", "0.4488", "--json",
        )
        assert code == 0
        assert json.loads(out)["deficiency"]["chi"] == 2

    def test_human_readable_default(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--family", "identity", "--dim", "4")
        assert code == 0
        assert "incompatibility order chi = 2" in out
        assert "timings:" in out

    def test_byte_identical_json_reports(self, capsys):
        args = ("analyze", "--family", "random", "--dim", "4", "--seed", "3", "--json")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_json_report_omits_timings(self, capsys):
        _, out, _ = run_cli(capsys, "analyze", "--family", "identity", "--dim", "3", "--json")
        assert "timings" not in json.loads(out)

    def test_cap_exceeded_gives_partial_report_and_exit_3(self, capsys):
        code, out, err = run_cli(
            capsys, "analyze", "--family", "dft", "--dim", "5",
            "--support-cap", "4", "--json",
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["support"] is None
        assert "cap" in doc["support_skipped"]
        assert doc["deficiency"]["chi"] == 6
        assert "partial report" in err

    def test_file_input_round_trip(self, capsys, tmp_path):
        path = tmp_path / "dft6.json"
        path.write_text(save_matrix(dft_matrix(6).matrix))
        code, out, _ = run_cli(
            capsys, "analyze", "--input", str(path), "--format", "json", "--json"
        )
        assert code == 0
        assert json.loads(out)["deficiency"]["chi"] == 5

    def test_report_matrix_reingests_identically(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "analyze", "--family", "random", "--dim", "4", "--seed", "8", "--json"
        )
        assert code == 0
        first = json.loads(out)
        path = tmp_path / "again.json"
        path.write_text(json.dumps(first["matrix"]))
        code, out, _ = run_cli(capsys, "analyze", "--input", str(path), "--json")
        assert code == 0
        second = json.loads(out)
        assert second["deficiency"] == first["deficiency"]
        assert second["support"] == first["support"]

    def test_malformed_input_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 2
        assert "error" in err

    def test_missing_source_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--dim", "3")
        assert code == 2
        assert "exactly one of" in err

    def test_missing_family_parameter_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--family", "qubit")
        assert code == 2
        assert "--theta" in err

    def test_non_unitary_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,1\n1,1")
        code, _, err = run_cli(capsys, "analyze", "--input", str(path), "--format", "csv")
        assert code == 2
        assert "tolerance" in err

    def test_near_degenerate_witness_exit_4(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--family", "qubit", "--theta", "1e-9")
        assert code == 4
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "near-degenerate" in lines[0]
        # The deficiency route succeeded, so its partial report is still emitted.
        code, out, err = run_cli(
            capsys, "analyze", "--family", "qubit", "--theta", "1e-9", "--json"
        )
        assert code == 4
        doc = json.loads(out)
        assert doc["deficiency"]["chi"] == 3
        assert doc["support"] is None
        assert "near-degenerate" in doc["support_skipped"]
        assert err.startswith("error:") and err.count("\n") == 1


class TestProfileCurve:
    def test_identity_six_rows(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            capsys, "profile-curve", "--family", "identity", "--dim", "6",
            "--output", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t,R_t,R_row_t,R_col_t"
        assert len(lines) == 7
        assert lines[-1] == "5,0,0,0"
        assert lines[1] == "0,3,3,3"

    def test_prime_dft_all_zero(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        run_cli(capsys, "profile-curve", "--family", "dft", "--dim", "5",
                "--output", str(out_path))
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        assert all(row[1:] == ["0", "0", "0"] for row in rows)

    def test_d1_single_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile-curve", "--family", "identity", "--dim", "1", "--output", "-"
        )
        assert code == 0
        assert out.splitlines() == ["t,R_t,R_row_t,R_col_t", "0,0,0,0"]


class TestZetaCurve:
    def read_curve(self, capsys, tmp_path, dim, samples=101):
        out_path = tmp_path / "zeta.csv"
        code, _, _ = run_cli(
            capsys, "zeta-curve", "--dim", str(dim), "--samples", str(samples),
            "--output", str(out_path),
        )
        assert code == 0
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        return [(float(x), float(z), int(d1), int(d2)) for x, z, d1, d2 in rows]

    def test_twelve_attains_seven_on_plateau(self, capsys, tmp_path):
        rows = self.read_curve(capsys, tmp_path, 12)
        minimum = min(z for _, z, _, _ in rows)
        assert minimum == pytest.approx(7, abs=1e-12)
        plateau = [x for x, z, _, _ in rows if z <= minimum + 1e-9]
        assert math.isclose(min(plateau), 3) and math.isclose(max(plateau), 4)

    def test_thirty_six_unique_minimum(self, capsys, tmp_path):
        rows = self.read_curve(capsys, tmp_path, 36)
        values = [z for _, z, _, _ in rows]
        minimum = min(values)
        assert minimum == pytest.approx(12, abs=1e-12)
        winners = [x for x, z, _, _ in rows if z <= minimum + 1e-9]
        assert winners == [6.0]

    def test_divisors_always_sampled(self, capsys, tmp_path):
        rows = self.read_curve(capsys, tmp_path, 12, samples=7)
        xs = {x for x, _, _, _ in rows}
        assert {1.0, 2.0, 3.0, 4.0, 6.0, 12.0} <= xs

    def test_small_dim_divisor_values(self, capsys, tmp_path):
        rows = {x: z for x, z, _, _ in self.read_curve(capsys, tmp_path, 4)}
        assert rows[1.0] == pytest.approx(5, abs=1e-12)
        assert rows[2.0] == pytest.approx(4, abs=1e-12)
        assert rows[4.0] == pytest.approx(5, abs=1e-12)

    def test_invalid_dim_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "zeta-curve", "--dim", "1", "--output", "-")
        assert code == 2

    def test_invalid_samples_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "zeta-curve", "--dim", "6", "--samples", "1",
                             "--output", "-")
        assert code == 2


class TestVerifyCorpus:
    def test_small_corpus_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-corpus", "--max-dim", "3", "--seeds", "3"
        )
        assert code == 0
        assert "FAIL" not in out
        assert "runtime" in out

    def test_vacuous_dimension_one(self, capsys):
        code, out, _ = run_cli(capsys, "verify-corpus", "--max-dim", "1", "--seeds", "2")
        assert code == 0
        assert "vacuous" in out

    def test_max_dim_above_cap_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify-corpus", "--max-dim", "11")
        assert code == 2
        assert "cap" in err


class TestDeterministicOutputs:
    def test_zeta_curve_bytes_stable(self, capsys, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            p = tmp_path / name
            run_cli(capsys, "zeta-curve", "--dim", "30", "--samples", "64",
                    "--output", str(p))
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_profile_curve_bytes_stable(self, capsys, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            p = tmp_path / name
            run_cli(capsys, "profile-curve", "--family", "random", "--dim", "4",
                    "--seed", "5", "--output", str(p))
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]
