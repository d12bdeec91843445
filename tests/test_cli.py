import json
import math

import numpy as np
import pytest

import incompat.cli
import incompat.report
from incompat import (
    analyze_transition,
    dft_matrix,
    min_support_uncertainty,
    qubit_rotation,
    save_matrix,
)
from incompat.cli import build_parser, main
from incompat.report import report_json_dict


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
        assert out1.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,order,translations",
        [
            (("--family", "dft", "--dim", "12"), 48, True),
            (("--family", "dft", "--dim", "6"), 1, False),
            (("--family", "random", "--dim", "9", "--seed", "1"), 1, False),
        ],
    )
    def test_report_names_the_search_symmetry(self, capsys, argv, order, translations):
        code, out, _ = run_cli(capsys, "analyze", *argv, "--json")
        assert code == 0
        assert json.loads(out)["symmetry"] == {
            "row_group_order": order, "column_translations": translations,
        }
        code, out, _ = run_cli(capsys, "analyze", *argv)
        used = "used" if translations else "unused"
        assert f"search symmetry: row group of order {order}, column translations {used}" in out

    def test_json_report_decodes_to_the_report_document(self, capsys):
        # The degenerate qubit exits 4 and carries "support": null.
        code, out, _ = run_cli(capsys, "analyze", "--family", "qubit", "--theta", "1e-9", "--json")
        assert code == 4
        descriptor = {"family": "qubit", "theta": 1e-9, "phi1": 0.0, "phi2": 0.0}
        expected = report_json_dict(analyze_transition(qubit_rotation(1e-9), descriptor))
        assert json.loads(out) == json.loads(json.dumps(expected))
        assert json.loads(out)["support"] is None

    def test_json_report_omits_timings(self, capsys):
        _, out, _ = run_cli(capsys, "analyze", "--family", "identity", "--dim", "3", "--json")
        assert "timings" not in json.loads(out)

    def test_cap_ignored_without_verify(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--family", "dft", "--dim", "5",
            "--support-cap", "4", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["support"]["n_ab"] == doc["deficiency"]["chi"] == 6
        assert "support_matches_deficiency" not in doc["checks"]

    def test_cap_exceeded_under_verify_exits_3_without_report(self, capsys):
        code, out, err = run_cli(
            capsys, "analyze", "--family", "dft", "--dim", "5",
            "--support-cap", "4", "--json", "--verify",
        )
        assert (code, out) == (3, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "cap 4" in lines[0]

    @pytest.mark.parametrize("verify", [(), ("--verify",)])
    @pytest.mark.parametrize("value", ["0", "-1", "x", "2.5"])
    def test_bad_support_cap_exit_2(self, capsys, value, verify):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--family", "identity", "--dim", "3", "--support-cap", value,
                  *verify])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "argument --support-cap: must be an integer >= 1" in captured.err

    def test_default_analyze_never_runs_the_subset_search(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the subset search ran")

        monkeypatch.setattr(incompat.report, "min_support_uncertainty", refuse)
        code, out, _ = run_cli(capsys, "analyze", "--family", "dft", "--dim", "6", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["support"]["n_ab"] == doc["deficiency"]["chi"] == 5

    def test_verify_runs_the_subset_search_once(self, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["max_dim"])
            return min_support_uncertainty(*args, **kwargs)

        monkeypatch.setattr(incompat.report, "min_support_uncertainty", counted)
        code, out, _ = run_cli(
            capsys, "analyze", "--family", "dft", "--dim", "6", "--json", "--verify",
            "--support-cap", "7",
        )
        assert (code, calls) == (0, [7])
        assert json.loads(out)["checks"]["support_matches_deficiency"] is True

    def test_support_witness_above_the_oracle_cap(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--family", "random", "--dim", "11", "--seed", "0", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["support"]["n_ab"] == doc["deficiency"]["chi"] == 12
        assert all(doc["checks"].values())

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

    @pytest.mark.parametrize(
        "fmt,data",
        [
            ("json", b'{"rows":1,"cols":1,"re":[[1' + b"0" * 400 + b"]]}"),
            ("json", b"\xff\xfe" + '{"rows":1,"cols":1,"re":[[1]]}'.encode("utf-16-le")),
            ("csv", b"\xff\xfe" + "1".encode("utf-16-le")),
        ],
        ids=["huge-integer", "utf16-json", "utf16-csv"],
    )
    def test_unreadable_file_exit_2(self, capsys, tmp_path, fmt, data):
        path = tmp_path / f"bad.{fmt}"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "analyze", "--input", str(path), "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_bad_unitarity_tolerance_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rows": 2, "cols": 2, "re": [[5, 1], [2, 7]]}))
        for tol in ("nan", "inf", "-1"):
            code, out, err = run_cli(
                capsys, "analyze", "--input", str(path), "--unitarity-tol", tol, "--json"
            )
            assert (code, out) == (2, "")
            assert err.startswith("error: unitarity tolerance must be finite")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_unitarity_tolerance_with_family_exit_2(self, capsys, tol):
        code, out, err = run_cli(
            capsys, "analyze", "--family", "dft", "--dim", "3", "--unitarity-tol", tol
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: unitarity tolerance must be finite")

    @pytest.mark.parametrize(
        "argv",
        [
            ("--family", "qubit", "--theta", "nan"),
            ("--family", "bronzan", "--theta1", "inf", "--theta2", "0"),
            ("--family", "random", "--dim", "3", "--seed", "-1"),
        ],
    )
    def test_bad_family_parameter_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "analyze", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("option", ["--rank-tol", "--zero-threshold"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--family", "identity", "--dim", "4"),
            ("profile-curve", "--family", "identity", "--dim", "4", "--output", "-"),
            ("verify-corpus", "--max-dim", "2", "--seeds", "0"),
        ],
    )
    def test_bad_tolerance_option_exit_2(self, capsys, argv, option, value):
        with pytest.raises(SystemExit) as exc:
            main([*argv, option, value])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"argument {option}: must be finite and >= 0" in captured.err

    def test_zero_tolerances_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--family", "identity", "--dim", "4", "--json",
            "--rank-tol", "0", "--zero-threshold", "0",
        )
        assert code == 0
        assert json.loads(out)["tolerances"]["rank_tol"] == 0.0

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

    def test_extremal_witness_counted_at_the_zero_threshold(self, capsys):
        # DFT(4)'s tau kernel has coefficients of modulus 1/sqrt(2): at a zero
        # threshold of 0.8 the support witness rebuilds with empty supports,
        # and the extremal check counts the same coefficients as zero.
        argv = ("analyze", "--family", "dft", "--dim", "4", "--json")
        code, out, _ = run_cli(capsys, *argv, "--zero-threshold", "0.8")
        assert code == 4
        doc = json.loads(out)
        assert "got A=() B=()" in doc["support_skipped"]
        assert doc["checks"]["extremal_witness_nonzero"] is False
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["checks"]["extremal_witness_nonzero"] is True


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

    def test_degenerate_witness_recorded_as_failure(self, capsys):
        # A zero threshold this coarse makes some support witnesses degenerate:
        # each is a failed agreement case, and the table is still printed.
        code, out, err = run_cli(
            capsys, "verify-corpus", "--max-dim", "4", "--seeds", "3",
            "--zero-threshold", "0.3",
        )
        assert code == 1
        assert err == ""
        assert "deficiency route vs subset-search route" in out
        assert "(degenerate support witness)" in out
        assert "runtime" in out

    def test_extremal_witness_counted_at_the_zero_threshold(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-corpus", "--max-dim", "4", "--seeds", "0",
            "--zero-threshold", "0.8",
        )
        assert code == 1
        lines = out.splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("extremal level"))
        assert "FAIL" in lines[start] and lines[start + 1].strip() == "failed: dft(d=4)"

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

    def test_parser_built_once_leaks_no_option(self, capsys, monkeypatch, tmp_path):
        # One parser serves every call of main in a process; each call must
        # read exactly what a fresh parser reads, whatever ran before it.
        assert build_parser() is build_parser()
        calls = [
            ("analyze", "--family", "dft", "--dim", "6", "--json", "--verify"),
            ("analyze", "--family", "dft", "--dim", "6", "--json"),
            ("analyze", "--family", "random", "--dim", "4", "--seed", "3", "--json",
             "--rank-tol", "1e-6", "--verify", "--support-cap", "5"),
            ("profile-curve", "--family", "identity", "--dim", "4", "--output", "-"),
            ("analyze", "--family", "random", "--dim", "4", "--json"),
            ("analyze", "--family", "identity", "--dim", "4"),
        ]

        def results():
            out = []
            for argv in calls:
                assert vars(build_parser().parse_args(argv)) == vars(
                    build_parser.__wrapped__().parse_args(argv)
                )
                code, text, err = run_cli(capsys, *argv)
                out.append((code, [l for l in text.splitlines() if not l.startswith("timings:")],
                            err))
            return out

        cached = results()
        with monkeypatch.context() as patch:
            patch.setattr(incompat.cli, "build_parser", build_parser.__wrapped__)
            fresh = results()
        assert cached == fresh
        docs = [json.loads("\n".join(text)) for _, text, _ in cached[:3]]
        assert "support_matches_deficiency" in docs[0]["checks"]
        assert "support_matches_deficiency" not in docs[1]["checks"]
        assert docs[2]["tolerances"]["rank_tol"] == 1e-6
        assert json.loads("\n".join(cached[4][1]))["tolerances"]["rank_tol"] == 1e-10
