import json
import re

import pytest

from qpow import cli
from qpow.cli import main
from qpow.graph6 import emit_graph6, parse_graph6
from qpow.graphs import construct_gi
from qpow.search import enumerate_graphs


EVERY_CHECK = [
    ["--id", "interlacing"],
    ["--id", "monotonicity", "--alpha", "0.5"],
    ["--id", "cospectral"],
    ["--id", "identities"],
    ["--id", "thm41-upper", "--alpha", "2"],
]
EVERY_CHECK_IDS = ["interlacing", "monotonicity", "cospectral", "identities", "bound"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrum:
    def test_q_k3(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--graph6", "Bw", "--matrix", "Q")
        assert code == 0
        assert out.strip() == "4 1 1"

    def test_l_k3(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--graph6", "Bw", "--matrix", "L")
        assert code == 0
        assert out.strip() == "3 3 0"

    def test_twelve_significant_digits(self, capsys):
        g6 = emit_graph6(construct_gi(4, 1, 1))
        code, out, _ = run(capsys, "spectrum", "--graph6", g6, "--matrix", "Q")
        assert code == 0
        # q1 = 2.5 + sqrt(17)/2 printed at 12 significant digits
        assert out.split()[0] == "4.56155281281"

    def test_bad_graph6_usage_error(self, capsys):
        code, _, err = run(capsys, "spectrum", "--graph6", "!!", "--matrix", "Q")
        assert code == 2 and err


class TestInvariant:
    def test_salpha(self, capsys):
        code, out, _ = run(capsys, "invariant", "--graph6", "Bw", "--name", "Salpha",
                           "--alpha", "2")
        assert code == 0 and out.strip() == "18"

    def test_salpha_missing_alpha(self, capsys):
        code, _, err = run(capsys, "invariant", "--graph6", "Bw", "--name", "Salpha")
        assert code == 2 and "--alpha" in err

    def test_kf(self, capsys):
        code, out, _ = run(capsys, "invariant", "--graph6", "Bg", "--name", "Kf")
        assert code == 0 and out.strip() == "4"

    def test_m1(self, capsys):
        code, out, _ = run(capsys, "invariant", "--graph6", "C~", "--name", "M1")
        assert code == 0 and out.strip() == "36"

    @pytest.mark.parametrize("alpha", ["inf", "-inf", "nan"])
    def test_salpha_non_finite_alpha(self, capsys, alpha):
        code, out, err = run(capsys, "invariant", "--graph6", "Bw", "--name", "Salpha",
                             f"--alpha={alpha}")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "finite" in err

    def test_disconnected_kf_usage_error(self, capsys):
        code, _, err = run(capsys, "invariant", "--graph6", "A?", "--name", "Kf")
        assert code == 2


class TestConstruct:
    def test_complete_summary(self, capsys):
        code, out, _ = run(capsys, "construct", "complete", "4")
        assert code == 0 and "n=4 m=6" in out

    def test_emit_roundtrip(self, capsys):
        code, out, _ = run(capsys, "construct", "gi", "6", "2", "2", "--emit", "graph6")
        assert code == 0
        assert parse_graph6(out.strip()) == construct_gi(6, 2, 2)

    def test_bipartite(self, capsys):
        code, out, _ = run(capsys, "construct", "bipartite", "2", "3", "--emit", "graph6")
        assert code == 0
        g = parse_graph6(out.strip())
        assert g.bipartition() == (2, 3)

    def test_param_count_error(self, capsys):
        code, _, err = run(capsys, "construct", "complete", "4", "5")
        assert code == 2

    def test_range_error(self, capsys):
        code, _, err = run(capsys, "construct", "gi", "5", "2", "2")
        assert code == 2


class TestBounds:
    def test_thm43(self, capsys):
        code, out, _ = run(capsys, "bounds", "--id", "thm43-upper", "--n", "5", "--k", "2",
                           "--alpha", "1")
        assert code == 0 and out.strip() == "16"

    def test_thm31_needs_parts(self, capsys):
        code, out, _ = run(capsys, "bounds", "--id", "thm31-lower", "--r", "2", "--s", "3",
                           "--alpha", "-1")
        assert code == 0 and out.strip() == "1.53333333333"
        code, _, err = run(capsys, "bounds", "--id", "thm31-lower", "--n", "5", "--alpha", "-1")
        assert code == 2

    def test_alias(self, capsys):
        code, out, _ = run(capsys, "bounds", "--id", "thm32", "--n", "4", "--alpha", "0.5")
        assert code == 0 and out.strip() == "4.82842712475"

    def test_alpha_out_of_range(self, capsys):
        code, _, err = run(capsys, "bounds", "--id", "thm32-upper", "--n", "4", "--alpha", "3")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("--id", "thm41", "--n", "4"),
        ("--id", "thm31-upper", "--r", "2", "--s", "3"),
        ("--id", "conj31", "--n", "4"),
        ("--id", "thm43-upper", "--n", "5", "--k", "2"),
    ])
    def test_alpha_inf_rejected(self, capsys, argv):
        code, out, err = run(capsys, "bounds", *argv, "--alpha", "inf")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "finite" in err


class TestCheck:
    def test_inapplicable_exit_2(self, capsys):
        code, out, _ = run(capsys, "check", "--id", "thm32-upper", "--graph6", "C~",
                           "--alpha", "0.5")
        assert code == 2
        doc = json.loads(out)
        assert doc["applicable"] is False and "bipartite" in doc["reason"]

    def test_pass_exit_0(self, capsys):
        code, out, _ = run(capsys, "check", "--id", "thm41-upper", "--graph6", "C~",
                           "--alpha", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["equality"] is True

    def test_violation_exit_1(self, capsys):
        code, out, _ = run(capsys, "check", "--id", "conj44-lower", "--graph6", "Bg",
                           "--alpha", "-1", "--k", "2")
        assert code == 1
        doc = json.loads(out)
        assert doc["slack"] < 0

    def test_family_alias(self, capsys):
        code, out, _ = run(capsys, "check", "--id", "conj44", "--graph6", "Bg",
                           "--alpha", "-1", "--k", "2")
        assert code == 1

    @pytest.mark.parametrize("cid", ["thm41-upper", "monotonicity"])
    @pytest.mark.parametrize("alpha", ["inf", "-inf", "nan"])
    def test_non_finite_alpha(self, capsys, cid, alpha):
        code, out, err = run(capsys, "check", "--id", cid, "--graph6", "Bw", f"--alpha={alpha}")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "finite" in err

    def test_interlacing(self, capsys):
        code, out, _ = run(capsys, "check", "--id", "interlacing", "--graph6", "C~")
        assert code == 0 and json.loads(out)["passed"] is True

    def test_monotonicity(self, capsys):
        code, out, _ = run(capsys, "check", "--id", "monotonicity", "--graph6", "C~",
                           "--alpha", "1")
        assert code == 0

    def test_cospectral_inapplicable(self, capsys):
        code, out, _ = run(capsys, "check", "--id", "cospectral", "--graph6", "Bw")
        assert code == 2

    def test_identities(self, capsys):
        code, out, _ = run(capsys, "check", "--id", "identities", "--graph6", "C~")
        assert code == 0 and json.loads(out)["passed"] is True

    def test_unknown_id(self, capsys):
        code, _, err = run(capsys, "check", "--id", "bogus", "--graph6", "C~")
        assert code == 2

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "check", "--id", "thm41-upper", "--graph6", "C~",
                           "--alpha", "2", "--format", "table")
        assert code == 0 and "equality = True" in out

    @pytest.mark.parametrize("argv", EVERY_CHECK, ids=EVERY_CHECK_IDS)
    def test_table_format_every_check(self, capsys, argv):
        # one key = value line per key of the JSON form, with its exit code
        code, out, _ = run(capsys, "check", *argv, "--graph6", "C^")
        doc = json.loads(out)
        table_code, table, _ = run(capsys, "check", *argv, "--graph6", "C^", "--format", "table")
        assert table_code == code
        lines = table.splitlines()
        assert [line.split(" = ", 1)[0] for line in lines] == list(doc)

    @pytest.mark.parametrize("g6", ["C^", "C~", "Bw"])
    @pytest.mark.parametrize("argv", EVERY_CHECK, ids=EVERY_CHECK_IDS)
    def test_json_has_no_nan(self, capsys, argv, g6):
        # RFC 8259 has no NaN or Infinity; a value that does not apply is null
        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        _, out, _ = run(capsys, "check", *argv, "--graph6", g6)
        doc = json.loads(out, parse_constant=reject)
        if doc.get("check") == "cospectral" and not doc["applicable"]:
            assert doc["max_diff"] is None


class TestScan:
    def test_clean_scan_exit_0(self, capsys):
        code, out, _ = run(capsys, "scan", "--id", "thm32", "--max-n", "5",
                           "--alpha-grid", "0.5,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["graphs_scanned"] == 1 + 3 + 19 + 195
        assert doc["violations"] == []

    def test_violations_exit_1(self, capsys):
        code, out, _ = run(capsys, "scan", "--id", "conj44", "--max-n", "4",
                           "--alpha-grid", "-1")
        assert code == 1
        doc = json.loads(out)
        assert doc["violations"]
        assert all(v["reverified"] for v in doc["violations"])

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "scan", "--id", "conj44", "--max-n", "4",
                           "--alpha-grid", "-1", "--format", "csv")
        assert code == 1
        assert out.splitlines()[0] == "graph6,n,k,alpha,bound_id,invariant,bound,margin"

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "scan", "--id", "thm41", "--max-n", "4",
                           "--alpha-grid", "1", "--format", "table")
        assert code == 0 and "scanned" in out

    def test_stream_input(self, tmp_path, capsys):
        lines = [emit_graph6(g) for g in enumerate_graphs(4, "connected")]
        path = tmp_path / "graphs.g6"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "scan", "--id", "thm41", "--max-n", "4",
                           "--alpha-grid", "1,2", "--input", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["source"] == "stream" and doc["graphs_scanned"] == 38

    def test_stream_errors_to_stderr(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_text("Bw\n!!\n")
        code, out, err = run(capsys, "scan", "--id", "thm41", "--max-n", "4",
                             "--alpha-grid", "1", "--input", str(path))
        assert code == 0 and "line 2" in err

    @pytest.mark.parametrize("strict", [False, True])
    def test_non_ascii_line_is_malformed(self, tmp_path, capsys, strict):
        path = tmp_path / "bytes.g6"
        path.write_bytes(b"Bw\n\xff\xfe\nBo\n")
        code, out, err = run(capsys, "scan", "--id", "thm41", "--max-n", "3", "--alpha-grid", "1",
                             "--input", str(path), *(["--strict"] if strict else []))
        if strict:
            assert code == 2 and out == "" and err.startswith("error: line 2:")
        else:
            assert code == 0 and err.startswith("warning: line 2:")
            assert json.loads(out)["graphs_scanned"] == 2

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "scan", "--id", "thm32", "--max-n", "4",
                           "--alpha-grid", "zebra")
        assert code == 2

    def test_readme_negative_grid(self, capsys):
        # the README example verbatim: a grid that starts with a negative alpha
        readme = "qpow scan --id conj44 --max-n 6 --alpha-grid -1,-0.5,0.5 --format json"
        code, out, _ = run(capsys, *readme.split()[1:])
        assert code == 1
        assert json.loads(out)["alpha_grid"] == [-1, -0.5, 0.5]

    def test_negative_grid_forms_agree(self, capsys):
        docs = []
        for grid in (["--alpha-grid", "-1,-0.5"], ["--alpha-grid=-1,-0.5"]):
            code, out, _ = run(capsys, "scan", "--id", "conj44", "--max-n", "3", *grid)
            assert code == 1
            docs.append(dict(json.loads(out), wall_time=None))
        assert docs[0] == docs[1]

    def test_malformed_threads_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QPOW_THREADS", "lots")
        code, out, err = run(capsys, "scan", "--id", "thm41", "--max-n", "4", "--alpha-grid", "1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "QPOW_THREADS" in err and "'lots'" in err

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_non_positive_threads_env(self, capsys, monkeypatch, value):
        monkeypatch.setenv("QPOW_THREADS", value)
        code, out, err = run(capsys, "scan", "--id", "thm41", "--max-n", "4", "--alpha-grid", "1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "QPOW_THREADS" in err and f"'{value}'" in err

    def test_malformed_threads_env_stream(self, capsys, monkeypatch, tmp_path):
        # a stream scan reads QPOW_THREADS like an internal one
        path = tmp_path / "graphs.g6"
        path.write_text("Bw\nC~\n", encoding="ascii")
        monkeypatch.setenv("QPOW_THREADS", "abc")
        code, out, err = run(capsys, "scan", "--id", "thm41", "--max-n", "4",
                             "--alpha-grid", "1", "--input", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "QPOW_THREADS" in err and "'abc'" in err

    def test_missing_input_file(self, capsys, tmp_path):
        path = str(tmp_path / "nonexistent.g6")
        code, out, err = run(capsys, "scan", "--id", "thm41", "--max-n", "4",
                             "--alpha-grid", "1", "--input", path)
        assert code == 2 and out == ""
        assert err.startswith("error:") and path in err and "Traceback" not in err

    def test_k_zero_rejected(self, capsys):
        code, out, err = run(capsys, "scan", "--id", "conj44", "--max-n", "4",
                             "--alpha-grid", "0.5", "--k", "0")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "k=0" in err

    def test_k_fitting_no_n_rejected(self, capsys):
        code, out, err = run(capsys, "scan", "--id", "conj44", "--max-n", "4",
                             "--alpha-grid", "0.5", "--k", "10")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "k=10" in err

    def test_alpha_zero_rejected(self, capsys):
        code, _, err = run(capsys, "scan", "--id", "thm32", "--max-n", "4",
                           "--alpha-grid", "0")
        assert code == 2

    def test_alpha_inf_rejected(self, capsys):
        code, out, err = run(capsys, "scan", "--id", "thm41", "--max-n", "4",
                             "--alpha-grid", "inf")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("ns", [("--min-n", "5", "--max-n", "3"), ("--max-n", "1")])
    def test_empty_n_range_rejected(self, capsys, ns):
        code, out, err = run(capsys, "scan", "--id", "conj44", *ns, "--alpha-grid", "0.5")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "n >= 2" in err


class TestParserReuse:
    ARGVS = [
        ["check", "--id", "cospectral", "--graph6", "C^", "--format", "table"],
        ["check", "--id", "thm41-upper", "--alpha", "2", "--graph6", "Bw"],
        ["scan", "--id", "thm32", "--max-n", "4", "--alpha-grid", "0.5", "--format", "csv"],
        ["scan", "--id", "conj44", "--max-n", "4", "--alpha-grid", "-1", "--format", "table"],
        ["scan", "--id", "conj44", "--max-n", "4", "--alpha-grid", "-1"],
        ["check", "--id", "identities", "--graph6", "C^"],
        ["spectrum", "--graph6", "Bw", "--matrix", "Q"],
        ["bounds", "--id", "thm41-upper", "--n", "5", "--alpha", "2"],
        ["construct", "gi", "5", "1", "1", "--emit", "graph6"],
        ["construct", "gi", "5", "1", "1"],
        ["invariant", "--graph6", "Bw", "--name", "Kf"],
        ["scan", "--id", "thm32", "--format", "csv"],
        ["check", "--id", "cospectral", "--graph6", "C^"],
    ]

    @staticmethod
    def steady(capsys, argv):
        """Exit code, stdout and stderr of one call, with the scan's wall
        time (the one output that varies between runs) blanked."""
        code, out, err = run(capsys, *argv)
        return code, re.sub(r'"wall_time": [^,}]+|, [\d.]+s\n', "", out), err

    def test_calls_in_one_process_match_single_calls(self, capsys):
        # the parser is built once per process, and no default or value of
        # one call leaks into the next
        single = []
        for argv in self.ARGVS:
            cli._build_parser.cache_clear()
            single.append(self.steady(capsys, argv))
        cli._build_parser.cache_clear()
        for argvs, want in [(self.ARGVS, single), (self.ARGVS[::-1], single[::-1])]:
            assert [self.steady(capsys, argv) for argv in argvs] == want
        assert cli._build_parser.cache_info().misses == 1
        assert {code for code, _, _ in single} == {0, 1, 2}


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(capsys, "spectrum", "--graph6", "Bw")[0] == 2  # missing --matrix

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_numerical_failure_exit_3(self, capsys, monkeypatch):
        from qpow import cli
        from qpow.spectra import EigensolverError

        def boom(g):
            raise EigensolverError("forced")

        monkeypatch.setitem(
            cli.__dict__, "q_spectrum", boom
        )
        code, _, err = run(capsys, "spectrum", "--graph6", "Bw", "--matrix", "Q")
        assert code == 3 and "numerical failure" in err
