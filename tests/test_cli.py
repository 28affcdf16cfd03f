import dataclasses
import json
import sys
from pathlib import Path

import pytest

import bsdecomp.stabilize
from bsdecomp import (
    BettiTable,
    Window,
    decomposition_from_json,
    detect_stabilization,
    enumerate_maximal_chains,
    greedy_decompose,
    table_from_json,
    to_btt_text,
    verify,
)
from bsdecomp.cli import build_parser, format_stabilize_summary, load_ideal, main
from reference_values import EDGE_GENERATORS, NUM_VARS, SMALL_TABLES
from test_stabilize import doubled_chain_expansion, doubled_greedy

PATH_IDEAL = {"variables": NUM_VARS, "generators": list(EDGE_GENERATORS)}
# offset window of 4 rows x 3 columns, 462 maximal chains
CHAINS_IDEAL = {"variables": 4, "generators": ["x1*x2*x3", "x2*x3*x4", "x1^3", "x4^3"]}
# edge ideals of the path on six vertices and of the 5-cycle
P6_IDEAL = {"variables": 6, "generators": ["x1*x2", "x2*x3", "x3*x4", "x4*x5", "x5*x6"]}
C5_IDEAL = {"variables": 5, "generators": ["x1*x2", "x2*x3", "x3*x4", "x4*x5", "x1*x5"]}
GOLDEN = Path(__file__).resolve().parent / "golden"
BENCH_EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected"
MAXIMAL_2VARS = {"variables": 2, "generators": [[1, 0], [0, 1]]}
# one digit past what int() converts from text, so json.loads and int() refuse it
LONG_INTEGER = "1" * (sys.get_int_max_str_digits() + 1)


@pytest.fixture
def ideal_file(tmp_path):
    def write(obj, name="ideal.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    return write


@pytest.fixture
def table_file(tmp_path):
    def write(entries, name="table.btt"):
        path = tmp_path / name
        path.write_text(to_btt_text(BettiTable.from_entries(entries)), encoding="utf-8")
        return str(path)

    return write


class TestBetti:
    def test_pretty_output(self, ideal_file, capsys):
        assert main(["betti", "--ideal", ideal_file(PATH_IDEAL)]) == 0
        out = capsys.readouterr().out
        assert "2: 4 3 -" in out
        assert "3: - 1 1" in out

    def test_pretty_output_bytes(self, ideal_file, capsys):
        # the README example, P5^3
        assert main(["betti", "--ideal", ideal_file(PATH_IDEAL), "-k", "3"]) == 0
        assert capsys.readouterr().out == (
            "    0  1  2  3\n"
            "--------------\n"
            "6: 20 30 12  1\n"
            "7:  -  3  3  -\n"
        )

    def test_btt_single_variable_power(self, ideal_file, capsys):
        path = ideal_file({"variables": 1, "generators": [[1]]})
        assert main(["betti", "--ideal", path, "-k", "7", "--format", "btt"]) == 0
        assert capsys.readouterr().out == "7 7 0\n1\n"

    def test_json_output_round_trips(self, ideal_file, capsys):
        assert main(["betti", "--ideal", ideal_file(PATH_IDEAL), "--format", "json"]) == 0
        table = table_from_json(json.loads(capsys.readouterr().out))
        assert table == BettiTable.from_entries(SMALL_TABLES[1])

    def test_out_file(self, ideal_file, tmp_path, capsys):
        out = tmp_path / "t.btt"
        assert main(["betti", "--ideal", ideal_file(PATH_IDEAL), "--format", "btt", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8").splitlines()[0] == "2 3 2"

    def test_power_must_be_positive(self, ideal_file, capsys):
        path = ideal_file(PATH_IDEAL)
        assert main(["betti", "--ideal", path, "-k", "0"]) == 2
        assert main(["betti", "--ideal", path, "-k", "-3"]) == 2

    def test_missing_file(self, tmp_path, capsys):
        assert main(["betti", "--ideal", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["betti", "--ideal", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_overlong_integer_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text('{"variables": 2, "generators": [[%s, 0]]}' % LONG_INTEGER, encoding="utf-8")
        assert main(["betti", "--ideal", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: Exceeds the limit")

    def test_overlong_exponent_is_parse_error(self, ideal_file, capsys):
        assert main(["betti", "--ideal", ideal_file({"variables": 2, "generators": ["x1^" + LONG_INTEGER]})]) == 2
        assert capsys.readouterr().err.startswith("error: exponent at position 3: Exceeds the limit")

    def test_boolean_variable_count_is_parse_error(self, ideal_file, capsys):
        # JSON true would otherwise be read as one variable
        assert main(["betti", "--ideal", ideal_file({"variables": True, "generators": [[True]]})]) == 2
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ideal, line",
        [
            ({"variables": 0, "generators": [[]]}, "error: need at least one variable, got 0"),
            ({"variables": 0, "generators": ["x1"]}, "error: need at least one variable, got 0"),
            (
                {"variables": 17, "generators": [[1] * 17]},
                "error: 17 variables exceeds the cap of 16 (a complex on n vertices can have 2^n faces)",
            ),
            (
                {"variables": 100000000000000, "generators": ["x1"]},
                "error: 100000000000000 variables exceeds the cap of 16 (a complex on n vertices can have 2^n faces)",
            ),
            (
                {"variables": 2, "generators": ["x1^0*x2"]},
                "error: exponent must be >= 1 at position 3 in 'x1^0*x2'",
            ),
            ({"variables": 2, "generators": ["x1²"]}, "error: expected '*' at position 2 in 'x1²'"),
            ({"variables": 2, "generators": ["x²"]}, "error: expected variable index at position 1 in 'x²'"),
            ({"variables": 2, "generators": ["x1^²"]}, "error: expected exponent at position 3 in 'x1^²'"),
            ({"variables": 2, "generators": ["x١"]}, "error: expected variable index at position 1 in 'x١'"),
        ],
        ids=[
            "no-variables",
            "no-variables-string-generator",
            "17-variables",
            "huge-variables-string-generator",
            "zero-exponent",
            "superscript-after-index",
            "superscript-index",
            "superscript-exponent",
            "arabic-indic-index",
        ],
    )
    def test_refused_ideal_stderr(self, ideal_file, capsys, ideal, line):
        assert main(["betti", "--ideal", ideal_file(ideal)]) == 2
        assert capsys.readouterr().err == line + "\n"

    def test_zero_ideal_is_domain_error(self, ideal_file, capsys):
        assert main(["betti", "--ideal", ideal_file({"variables": 2, "generators": []})]) == 3
        assert "zero ideal" in capsys.readouterr().err


class TestDecompose:
    def test_greedy(self, table_file, capsys):
        path = table_file(SMALL_TABLES[1])
        assert main(["decompose", "--table", path]) == 0
        decomposition = decomposition_from_json(json.loads(capsys.readouterr().out))
        assert decomposition == greedy_decompose(BettiTable.from_entries(SMALL_TABLES[1]))

    def test_chain(self, table_file, tmp_path, capsys):
        table = BettiTable.from_entries(SMALL_TABLES[1])
        chain = next(enumerate_maximal_chains(table.window))
        chain_path = tmp_path / "chain.json"
        chain_path.write_text(json.dumps([list(s.degrees) for s in chain.elements]), encoding="utf-8")
        assert main(["decompose", "--table", table_file(SMALL_TABLES[1]), "--chain", str(chain_path)]) == 0
        decomposition = decomposition_from_json(json.loads(capsys.readouterr().out))
        assert len(decomposition.terms) == table.window.dimension
        assert verify(decomposition, table)

    def test_malformed_chain(self, table_file, tmp_path, capsys):
        chain_path = tmp_path / "chain.json"
        chain_path.write_text(json.dumps({"not": "a list"}), encoding="utf-8")
        assert main(["decompose", "--table", table_file(SMALL_TABLES[1]), "--chain", str(chain_path)]) == 2
        assert "must be a list" in capsys.readouterr().err

    def test_chain_degrees_must_be_integers(self, table_file, tmp_path, capsys):
        # 1.5 must not be read as 1, which would make this the first chain of the window
        chain_path = tmp_path / "chain.json"
        chain_path.write_text(json.dumps([[0, 1.5], [0, 2], [1, 2], [1]]), encoding="utf-8")
        table = table_file({(0, 0): 1, (1, 2): 1})
        assert main(["decompose", "--table", table, "--chain", str(chain_path)]) == 2
        assert "malformed chain" in capsys.readouterr().err

    def test_chain_degrees_must_not_be_booleans(self, table_file, tmp_path, capsys):
        # [false, true] must not be read as [0, 1], which would make this a maximal chain
        chain_path = tmp_path / "chain.json"
        table = table_file({(0, 0): 1, (1, 2): 1})
        for first, code in (([0, 1], 0), ([False, True], 2)):
            chain_path.write_text(json.dumps([first, [0, 2], [1, 2], [1]]), encoding="utf-8")
            assert main(["decompose", "--table", table, "--chain", str(chain_path)]) == code
        assert "malformed chain" in capsys.readouterr().err

    def test_non_maximal_chain(self, table_file, tmp_path, capsys):
        chain_path = tmp_path / "chain.json"
        chain_path.write_text(json.dumps([[2, 3], [3]]), encoding="utf-8")
        assert main(["decompose", "--table", table_file(SMALL_TABLES[1]), "--chain", str(chain_path)]) == 2
        assert "not maximal" in capsys.readouterr().err

    def test_chain_window_must_contain_table(self, table_file, tmp_path, capsys):
        chain = next(enumerate_maximal_chains(Window(0, 1, 1)))
        chain_path = tmp_path / "chain.json"
        chain_path.write_text(json.dumps([list(s.degrees) for s in chain.elements]), encoding="utf-8")
        assert main(["decompose", "--table", table_file(SMALL_TABLES[1]), "--chain", str(chain_path)]) == 2

    def test_negative_table_is_domain_error(self, table_file, capsys):
        path = table_file({(0, 0): 1, (1, 1): -2})
        assert main(["decompose", "--table", path]) == 3
        assert "negative" in capsys.readouterr().err

    def test_bad_btt_names_file(self, tmp_path, capsys):
        path = tmp_path / "bad.btt"
        path.write_text("0 0\n", encoding="utf-8")
        assert main(["decompose", "--table", str(path)]) == 2
        assert "bad.btt" in capsys.readouterr().err

    def test_overlong_header_integer_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "long.btt"
        path.write_text(f"0 0 {LONG_INTEGER}\n1\n", encoding="utf-8")
        assert main(["decompose", "--table", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: line 1: Exceeds the limit")


class TestChains:
    def test_streams_one_chain_per_line(self, capsys):
        assert main(["chains", "0", "1", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "[[0,1],[0,2],[1,2],[1]]",
            "[[0,1],[0,2],[0],[1]]",
        ]

    def test_count_only(self, capsys):
        assert main(["chains", "0", "1", "3", "--count-only"]) == 0
        assert capsys.readouterr().out == "14\n"

    def test_count_single_row_window(self, capsys):
        assert main(["chains", "0", "0", "3", "--count-only"]) == 0
        assert capsys.readouterr().out == "1\n"

    @pytest.mark.parametrize("window", [("0", "1200", "0"), ("0", "0", "1200")])
    def test_chain_longer_than_the_recursion_limit(self, capsys, window):
        assert main(["chains", *window, "--count-only"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_bad_window(self, capsys):
        assert main(["chains", "3", "1", "2"]) == 2
        assert main(["chains", "0", "1", "-2"]) == 2

    @pytest.mark.parametrize("bad", ["\u0661", "1_0"])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_integers_are_ascii_digits(self, capsys, bad, slot):
        # int() would read these as 1 and 10
        argv = ["0", "1", "1"]
        argv[slot] = bad
        assert main(["chains", *argv, "--count-only"]) == 2
        captured = capsys.readouterr()
        name = ("min_row", "max_row", "max_col")[slot]
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"bsdecomp chains: error: argument {name}: not an integer: {bad!r}"


class TestStabilize:
    def test_small_family_stdout(self, ideal_file, capsys):
        assert main(["stabilize", "--ideal", ideal_file(MAXIMAL_2VARS), "--kmin", "1", "--kmax", "4"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["r"] == 1
        assert report["k0_observed"] == 1
        assert report["certified_from"] == 1
        assert report["verified_k"] == [1, 2, 3, 4]
        assert "positive decomposition: 2 summands" in captured.err

    def test_out_file_swaps_streams(self, ideal_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(
            ["stabilize", "--ideal", ideal_file(MAXIMAL_2VARS), "--kmin", "1", "--kmax", "4", "--out", str(out)]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "positive decomposition" in captured.out
        assert json.loads(out.read_text(encoding="utf-8"))["verified_k"] == [1, 2, 3, 4]

    def test_degree_bound_is_not_an_option(self, ideal_file, capsys):
        # the fit degree bound comes from the generators
        rc = main(
            ["stabilize", "--ideal", ideal_file(MAXIMAL_2VARS), "--kmin", "1", "--kmax", "4", "--degree-bound", "2"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --degree-bound 2" in captured.err
        assert "Traceback" not in captured.err

    def test_non_equigenerated(self, ideal_file, capsys):
        path = ideal_file({"variables": 2, "generators": [[2, 0], [0, 3]]})
        assert main(["stabilize", "--ideal", path, "--kmin", "1", "--kmax", "4"]) == 3
        assert "equigenerated" in capsys.readouterr().err

    def test_short_range_is_not_stabilized(self, ideal_file, capsys):
        assert main(["stabilize", "--ideal", ideal_file(PATH_IDEAL), "--kmin", "1", "--kmax", "4"]) == 4
        assert "not stabilized" in capsys.readouterr().err

    def test_empty_range(self, ideal_file, capsys):
        assert main(["stabilize", "--ideal", ideal_file(PATH_IDEAL), "--kmin", "3", "--kmax", "2"]) == 2

    def test_bad_kmin(self, ideal_file):
        assert main(["stabilize", "--ideal", ideal_file(PATH_IDEAL), "--kmin", "0", "--kmax", "4"]) == 2

    def test_failed_certificate_exit_code(self, ideal_file, capsys, monkeypatch):
        monkeypatch.setattr(bsdecomp.stabilize, "greedy_decompose", doubled_greedy)
        assert main(["stabilize", "--ideal", ideal_file(MAXIMAL_2VARS), "--kmin", "1", "--kmax", "4"]) == 6
        err = capsys.readouterr().err
        assert "certificate check failed" in err
        assert "Traceback" not in err

    def test_failed_chain_replay_exit_code(self, ideal_file, capsys, monkeypatch):
        monkeypatch.setattr(bsdecomp.stabilize, "chain_decompose", doubled_chain_expansion)
        assert main(["stabilize", "--ideal", ideal_file(MAXIMAL_2VARS), "--kmin", "1", "--kmax", "4"]) == 6
        assert capsys.readouterr().err == (
            "error: certificate check failed: numeric chain expansion differs from the symbolic one at k=1\n"
        )

    def test_summary_with_no_verified_power(self, ideal_file):
        report = detect_stabilization(load_ideal(ideal_file(MAXIMAL_2VARS)), 1, 4)
        assert format_stabilize_summary(dataclasses.replace(report, verified_k=())) == (
            "ideal: 2 minimal generators in 2 variables, equigenerated in degree 1\n"
            "shape stabilizes at k0 = 1 (observed)\n"
            "fit: 2 entry polynomials in k, valid from k = 1\n"
            "positive decomposition: 2 summands, certified for k >= 1\n"
            "  (0,1) x [k]\n"
            "  (0) x [1]\n"
            "verified numerically at no k in range (certified threshold above k_max)\n"
        )


class TestGolden:
    def test_large_window_report_and_summary(self, ideal_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["stabilize", "--ideal", ideal_file(CHAINS_IDEAL), "--kmin", "1", "--kmax", "6", "--out", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == (GOLDEN / "stabilize-chains.report.json").read_bytes()
        assert capsys.readouterr().out == (GOLDEN / "stabilize-chains.summary.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "ideal, k, name",
        [(P6_IDEAL, 7, "betti-p6-7.btt"), (C5_IDEAL, 8, "betti-c5-8.btt")],
        ids=["P6^7", "C5^8"],
    )
    def test_tables_beyond_the_taylor_oracle(self, ideal_file, capsys, ideal, k, name):
        # 462 and 495 generators: frozen tables stand in for the oracle here
        assert main(["betti", "--ideal", ideal_file(ideal), "-k", str(k), "--format", "btt"]) == 0
        assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")

    def test_golden_files_match_benchmark_expected(self):
        # both directories freeze the same stabilize outputs; neither may drift alone
        golden = sorted(GOLDEN.glob("stabilize-*"))
        assert [p.name for p in golden] == [
            "stabilize-chains.report.json",
            "stabilize-chains.summary.txt",
            "stabilize-p5.report.json",
            "stabilize-p5.summary.txt",
        ]
        for path in golden:
            assert path.read_bytes() == (BENCH_EXPECTED / path.name).read_bytes(), path.name


class TestVerify:
    @pytest.fixture
    def decomposition_file(self, tmp_path, table_file):
        from bsdecomp import decomposition_to_json

        table = BettiTable.from_entries(SMALL_TABLES[2])
        path = tmp_path / "decomposition.json"
        path.write_text(
            json.dumps(decomposition_to_json(greedy_decompose(table))), encoding="utf-8"
        )
        return str(path)

    def test_ok(self, table_file, decomposition_file, capsys):
        assert main(["verify", "--table", table_file(SMALL_TABLES[2]), "--decomposition", decomposition_file]) == 0
        assert capsys.readouterr().out.startswith("ok:")

    def test_mismatch(self, table_file, decomposition_file, capsys):
        perturbed = dict(SMALL_TABLES[2])
        perturbed[(1, 5)] += 1
        assert main(["verify", "--table", table_file(perturbed), "--decomposition", decomposition_file]) == 5
        out = capsys.readouterr().out
        assert "mismatch at column 1, degree 5" in out

    def test_malformed_decomposition(self, table_file, tmp_path, capsys):
        path = tmp_path / "d.json"
        path.write_text("[]", encoding="utf-8")
        assert main(["verify", "--table", table_file(SMALL_TABLES[2]), "--decomposition", str(path)]) == 2

    def test_float_coefficient_is_parse_error(self, table_file, tmp_path, capsys):
        table = table_file({(0, 0): 1, (1, 1): 1})  # pi(0, 1), coefficient exactly 1
        path = tmp_path / "d.json"
        for coefficient, code in (("1", 0), (1, 0), (1.0, 2)):
            term = {"degrees": [0, 1], "coefficient": coefficient}
            path.write_text(json.dumps({"window": [0, 0, 1], "terms": [term]}), encoding="utf-8")
            assert main(["verify", "--table", table, "--decomposition", str(path)]) == code
        assert "not an exact rational" in capsys.readouterr().err

    def test_terms_out_of_chain_order(self, table_file, tmp_path, capsys):
        table = table_file({(0, 0): 1, (1, 1): 1})
        path = tmp_path / "d.json"
        terms = [{"degrees": [0], "coefficient": "1"}, {"degrees": [0, 1], "coefficient": "1"}]
        path.write_text(json.dumps({"window": [0, 0, 1], "terms": terms}), encoding="utf-8")
        assert main(["verify", "--table", table, "--decomposition", str(path)]) == 2
        assert capsys.readouterr().err == "error: terms out of chain order: (0,) then (0, 1)\n"

    def test_repeated_key_is_parse_error(self, table_file, tmp_path, capsys):
        # json.loads alone keeps the second "window", and the file would verify
        table = table_file({(0, 0): 1, (1, 1): 1})
        path = tmp_path / "d.json"
        terms = '"terms": [{"degrees": [0, 1], "coefficient": "1"}]'
        for windows, code in (('"window": [0, 0, 1]', 0), ('"window": [0, 0, 0], "window": [0, 0, 1]', 2)):
            path.write_text("{" + windows + ", " + terms + "}", encoding="utf-8")
            assert main(["verify", "--table", table, "--decomposition", str(path)]) == code
        assert "repeated JSON key 'window'" in capsys.readouterr().err


class TestParser:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["betti", "-k", "abc"], "bsdecomp betti: error: argument -k/--power: not an integer: 'abc'"),
            (
                ["stabilize", "--kmin", "1", "--kmax", "x"],
                "bsdecomp stabilize: error: argument --kmax: not an integer: 'x'",
            ),
        ],
        ids=["power", "kmax"],
    )
    def test_non_integer_argument(self, ideal_file, capsys, argv, line):
        assert main(argv[:1] + ["--ideal", ideal_file(PATH_IDEAL)] + argv[1:]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == line

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "betti" in capsys.readouterr().out


class TestSharedParser:
    """``main`` reuses one parser per process, so no call may see another's."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize(
        "argv",
        [
            ["betti"],
            ["betti", "--ideal", "ideal.json", "-k", "0"],
            ["chains", "0", "1", "x"],
            ["frobnicate"],
            ["-h"],
            ["betti", "-h"],
        ],
        ids=["no-ideal", "power-zero", "chains-integer", "unknown-command", "help", "betti-help"],
    )
    def test_usage_paths_repeat_exactly(self, capsys, argv):
        runs = []
        for _ in range(2):
            code = main(argv)
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == (0 if "-h" in argv else 2)

    def test_out_does_not_leak(self, ideal_file, tmp_path, capsys):
        ideal = ideal_file(PATH_IDEAL)
        out = tmp_path / "table.txt"
        assert main(["betti", "--ideal", ideal, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["betti", "--ideal", ideal]) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    def test_chain_does_not_leak(self, table_file, tmp_path, capsys):
        # the chain expansion takes a negative entry; the greedy path refuses it
        table = table_file({(0, 0): 1, (1, 1): -2})
        chain = next(enumerate_maximal_chains(Window(0, 0, 1)))
        chain_path = tmp_path / "chain.json"
        chain_path.write_text(json.dumps([list(s.degrees) for s in chain.elements]), encoding="utf-8")
        assert main(["decompose", "--table", table, "--chain", str(chain_path)]) == 0
        capsys.readouterr()
        assert main(["decompose", "--table", table]) == 3
        assert "negative" in capsys.readouterr().err


class TestUnreadableInput:
    """Bytes that are not UTF-8, and JSON nested past the parser's depth, are
    parse errors (exit 2) that name the file, never a traceback."""

    @pytest.fixture
    def files(self, tmp_path, ideal_file, table_file):
        chain = tmp_path / "chain.json"
        chain.write_text("[[0, 1], [0]]", encoding="utf-8")
        decomposition = tmp_path / "decomposition.json"
        decomposition.write_text(
            json.dumps({"window": [0, 0, 1], "terms": [{"degrees": [0, 1], "coefficient": "1"}]}),
            encoding="utf-8",
        )
        return {
            "ideal": ideal_file(MAXIMAL_2VARS),
            "table": table_file({(0, 0): 1, (1, 1): 1}),
            "chain": str(chain),
            "decomposition": str(decomposition),
        }

    COMMANDS = {
        "betti-ideal": (["betti", "--ideal", "{ideal}"], "ideal"),
        "decompose-table": (["decompose", "--table", "{table}"], "table"),
        "decompose-chain": (["decompose", "--table", "{table}", "--chain", "{chain}"], "chain"),
        "verify-table": (["verify", "--table", "{table}", "--decomposition", "{decomposition}"], "table"),
        "verify-decomposition": (
            ["verify", "--table", "{table}", "--decomposition", "{decomposition}"],
            "decomposition",
        ),
        "stabilize-ideal": (["stabilize", "--ideal", "{ideal}", "--kmin", "1", "--kmax", "4"], "ideal"),
    }

    def run(self, files, capsys, name, content):
        argv, slot = self.COMMANDS[name]
        assert main([arg.format(**files) for arg in argv]) == 0
        capsys.readouterr()
        Path(files[slot]).write_bytes(content)
        assert main([arg.format(**files) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {files[slot]}: ")
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_non_utf8_bytes(self, files, capsys, name):
        err = self.run(files, capsys, name, b"\xff" + Path(files[self.COMMANDS[name][1]]).read_bytes())
        assert "not UTF-8: invalid start byte at byte 0" in err

    @pytest.mark.parametrize("name", ["betti-ideal", "decompose-chain", "verify-decomposition"])
    def test_deeply_nested_json(self, files, capsys, name):
        err = self.run(files, capsys, name, b"[" * 100_000 + b"]" * 100_000)
        assert err.endswith(": JSON nested too deeply\n")
