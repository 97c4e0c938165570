"""Command-line interface: goldens for every subcommand."""

import contextlib
import csv
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtlcheck
from mtlcheck import cli, engine
from mtlcheck.cli import BENCH_CSV_COLUMNS, main
from mtlcheck.formula import (
    Eventually,
    ExactStep,
    analyze,
    fold,
    parse_formula,
    singleton,
    to_text,
    with_children,
)
from mtlcheck.trace import GeneratorConfig, TraceError, generate_trace, parse_trace_lines
from mtlcheck.transforms import decompose, lazy_translation
from oracles import elements, random_formula, words

EXAMPLE_TRACE = "1 p\n2 p\n4\n6 p\n8 p\n9\n10\n"
T4_TRACE = "1 p\n2 q\n3 p\n5 p q\n"


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text(EXAMPLE_TRACE, encoding="utf-8")
    return str(path)


class TestTranslate:
    @pytest.mark.parametrize("formula,expected", [
        ("p", "p"),
        ("F[3,7] p", "F[3,7] (Act & p)"),
        ("G[2,4] c", "!(F[2,4] (Act & !c))"),
        ("p U[0,9] q", "p U[0,9] (Act & q)"),
    ])
    def test_golden_translations(self, capsys, formula, expected):
        assert main(["translate", "-f", formula]) == 0
        assert capsys.readouterr().out == expected + "\n"

    def test_bad_formula_fails(self, capsys):
        assert main(["translate", "-f", "F[5,3] p"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestDecompose:
    @pytest.mark.parametrize("formula,k,expected", [
        ("F[3,7] p", "4", "F[3,4] p | F=4 (F[0,3] p)"),
        ("F[3,7] p", "10", "F[3,7] p"),
        ("F[5,7] p", "4", "F=4 (F[1,3] p)"),
        ("G[0,7] q", "4", "!(F[0,4] (!q) | F=4 (F[0,3] (!q)))"),
    ])
    def test_golden_rewrites(self, capsys, formula, k, expected):
        assert main(["decompose", "-f", formula, "--k", k]) == 0
        assert capsys.readouterr().out == expected + "\n"

    def test_unbounded_window_fails(self, capsys):
        assert main(["decompose", "-f", "F[2,inf) p", "--k", "4"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_internal_error_exit_2(self, capsys, monkeypatch):
        def broken(formula, k):
            raise RecursionError("maximum recursion depth exceeded\nwhile rewriting")

        monkeypatch.setattr(cli, "decompose", broken)
        assert main(["decompose", "-f", "F[0,3000] p", "--k", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal error: RecursionError:")
        assert captured.err.count("\n") == 1

    def test_deep_decomposition_prints_its_plan(self, capsys):
        assert main(["decompose", "-f", "F[0,900] p", "--k", "1"]) == 0
        text = capsys.readouterr().out

        def as_window(node, kids):  # the grammar reads F=K as a singleton window
            if isinstance(node, ExactStep):
                return Eventually(singleton(node.step), *kids)
            return with_children(node, kids)

        assert parse_formula(text) is fold(decompose(parse_formula("F[0,900] p"), 1), as_window)
        assert to_text(parse_formula(text)) + "\n" == text

    @pytest.mark.parametrize("command", ["decompose", "check"])
    def test_over_the_hop_limit_is_one_plain_error(self, capsys, tmp_path, command):
        path = tmp_path / "t.txt"
        path.write_text("1 p\n", encoding="utf-8")
        argv = [command] + ([str(path)] if command == "check" else [])
        started = time.perf_counter()
        assert main(argv + ["-f", "G[0,100000000000] p", "--k", "1"]) == 2
        assert time.perf_counter() - started < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: window decomposition needs 100000000000 hops")
        assert captured.err.count("\n") == 1

    def test_budget_must_be_positive(self, capsys):
        assert main(["decompose", "-f", "p", "--k", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestCheck:
    def test_point_verdict_true(self, capsys, trace_file):
        assert main(["check", trace_file, "-f", "F[3,7] p"]) == 0
        assert capsys.readouterr().out == "VERDICT: true\n"

    def test_point_verdict_false(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("1 p\n", encoding="utf-8")
        assert main(["check", str(path), "-f", "!p"]) == 1
        assert capsys.readouterr().out == "VERDICT: false\n"

    def test_budget_run(self, capsys, trace_file):
        code = main(["check", trace_file, "-f", "F[3,7] p",
                     "--semantics", "lazy", "--k", "4"])
        assert code == 0
        assert capsys.readouterr().out == "VERDICT: true\n"

    def test_stdin_trace(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", types.SimpleNamespace(buffer=io.BytesIO(b"1 p\n2 p\n"))
        )
        assert main(["check", "-", "-f", "p"]) == 0
        assert capsys.readouterr().out == "VERDICT: true\n"

    def test_anchor_zero(self, capsys, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("1 q\n7 p\n", encoding="utf-8")
        base = ["check", str(path), "-f", "F=6 p", "--semantics", "lazy", "--k", "6"]
        assert main(base) == 0
        assert main(base + ["--anchor", "zero"]) == 1

    def test_oracle_route_matches_the_pipeline(self, capsys, trace_file):
        for formula in ("F[3,7] p", "G[0,2] !p", "p U[0,9] !p", "F=4 p"):
            for extra in ([], ["--semantics", "lazy", "--k", "3"]):
                argv = ["check", trace_file, "-f", formula] + extra
                pipeline = main(argv)
                capsys.readouterr()
                oracle = main(argv + ["--oracle"])
                capsys.readouterr()
                assert pipeline == oracle

    @pytest.mark.parametrize("formula", [
        "q | !p", "(q & !r) | !p", "!p", "!!p", "!p U[0,3] q", "p & !p", "!p | F[0,2] p",
    ])
    @pytest.mark.parametrize("mode", [
        [], ["--semantics", "lazy", "--k", "1"],
        ["--semantics", "lazy", "--anchor", "zero", "--k", "1"],
    ], ids=["point", "first-anchor", "zero-anchor"])
    @pytest.mark.parametrize("trace", [
        "2 q\n3 p\n6 r\n7 p q\n", "1 p\n2 p r\n5\n6 q\n9 p\n",
    ], ids=["from-2", "from-1"])
    def test_literals_match_the_oracle(self, capsys, tmp_path, formula, mode, trace):
        # a negated atom is read from the atom's column, and where it has no
        # record (a zero-anchor marker in the gap before the first element)
        # a join reads it true
        path = tmp_path / "gapped.txt"
        path.write_text(trace, encoding="utf-8")
        argv = ["check", str(path), "-f", formula] + mode
        got = main(argv), capsys.readouterr()
        want = main(argv + ["--oracle"]), capsys.readouterr()
        assert got == want
        if formula == "q | !p" and "zero" in mode:
            assert got[0] == 0  # !p holds at instant 0, before the first element

    def test_lazy_oracle_without_budget(self, capsys, trace_file):
        code = main(["check", trace_file, "-f", "F[3,7] p",
                     "--semantics", "lazy", "--oracle"])
        assert code == 0
        assert capsys.readouterr().out == "VERDICT: true\n"

    def test_stats_envelope(self, capsys, trace_file):
        code = main(["check", trace_file, "-f", "F[3,7] p",
                     "--semantics", "lazy", "--k", "4", "--stats"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[-1] == "VERDICT: true"
        payload = json.loads("\n".join(lines[:-1]))
        assert payload["verdict"] is True
        assert payload["iterations"] == 4
        assert payload["peak_win_records"] <= 5
        assert set(payload) == {
            "verdict", "iterations", "elements", "elements_reduced", "peak_win_records",
            "reducers",
        }
        assert payload["elements"] == 7
        assert [set(row) for row in payload["reducers"]] == [
            {"reducer_key", "peak_win", "records_in", "markers", "records_out", "iteration_ms"}
        ] * len(payload["reducers"])
        # only F[0,3] p, under the F=4 step, needs instants that are not
        # positions: 1 2 4 6 8 9 10 shifted by 4, less the positions and
        # the instants past the last one, 10
        assert [row["markers"] for row in payload["reducers"]] == [0, 1, 0, 0]
        # the keys read through the plan's position guards, and so do their
        # texts: a guard in each would add about 40% to a deep plan's output
        assert [row["reducer_key"] for row in payload["reducers"]] == [
            "F[3,4] p", "F[0,3] p", "F=4 (F[0,3] p)", "F[3,4] p | F=4 (F[0,3] p)",
        ]

    # p fails at every seventh instant of 1..4100
    UNIT_P_TRACE = "".join(f"{t}{' p' if t % 7 else ''}\n" for t in range(1, 4101))
    # 40 elements, with gaps of 1 and 4
    GAPPED_TRACE = "".join(f"{3 * i + i % 3 + 1} {['p', 'q', 'p q', 'r'][i % 4]}\n"
                           for i in range(40))
    LAZY_K3 = ["-f", "F[2,14] p | G[0,12] q", "--semantics", "lazy", "--k", "3"]

    @pytest.mark.parametrize("trace,argv_tail,verdict,rows,totals", [
        # a position marker at the anchor, below the operand's first read
        # instant, 2,001; !p is a literal, read off p's column inverted
        (UNIT_P_TRACE, ["-f", "F[2000,4000] p"], "true",
         {"F[2000,4000] p": (1715, 2002, 0, 1)}, (2002, 0, 1)),
        (UNIT_P_TRACE, ["-f", "G[2000,4000] !p"], "false",
         {"G[2000,4000] (!p)": (1715, 2002, 0, 1)}, (2002, 0, 1)),
        # the hop heads take sanctioned markers at the gaps, and at the zero
        # anchor also at the instants before the first element
        (GAPPED_TRACE, LAZY_K3, "true",
         {"F[2,3] p": (0, 1, 0, 1), "F[0,3] p": (1, 6, 3, 3), "F[0,2] p": (1, 2, 1, 1),
          "F[0,3] (!q)": (1, 7, 3, 4)}, (51, 15, 25)),
        (GAPPED_TRACE, LAZY_K3 + ["--anchor", "zero"], "true",
         {"F[2,3] p": (0, 1, 1, 1), "F[0,3] p": (1, 8, 5, 3), "F[0,2] p": (1, 2, 1, 1),
          "F[0,3] (!q)": (1, 10, 6, 4)}, (60, 27, 25)),
    ], ids=["position-markers", "literal", "lazy-first", "lazy-zero"])
    def test_stats_rows_of_column_fed_keys(self, capsys, tmp_path, trace, argv_tail, verdict,
                                           rows, totals):
        # the eventually and globally keys over an atom or a literal, read
        # off its column: (peak_win, records_in, markers, records_out)
        path = tmp_path / "trace.txt"
        path.write_text(trace, encoding="utf-8")
        _, (payload, last) = _check_output(["check", str(path), "--stats"] + argv_tail, capsys)
        assert last == f"VERDICT: {verdict}"
        counts = ("peak_win", "records_in", "markers", "records_out")
        got = {row["reducer_key"]: tuple(row[c] for c in counts) for row in payload["reducers"]}
        assert {key: got.get(key) for key in rows} == rows
        assert tuple(sum(row[c] for row in payload["reducers"]) for c in counts[1:]) == totals

    @pytest.mark.parametrize("argv_tail", [
        ["-f", "p"],  # no reducer rows
        ["-f", "F[1,2] p"],
        ["-f", "G[0,4] (p -> F[1,2] p)", "--k", "2"],
        ["-f", "p U[0,3] !p", "--semantics", "lazy", "--anchor", "zero", "--k", "1"],
    ])
    def test_stats_are_laid_out_as_json_with_indent_2(self, capsys, trace_file, argv_tail):
        main(["check", trace_file, "--stats"] + argv_tail)
        out = capsys.readouterr().out
        text = out[:out.index("VERDICT:") - 1]
        assert text == json.dumps(json.loads(text), indent=2)

    def test_long_key_texts_are_written_as_row_references(self, capsys, trace_file):
        def texts(cap):
            with mock.patch.object(engine, "KEY_TEXT_CAP", cap):
                main(["check", trace_file, "-f", "F[0,300] p", "--k", "1", "--stats"])
            out = capsys.readouterr().out
            return [row["reducer_key"] for row in json.loads(out[:out.index("VERDICT:")])["reducers"]]

        cap = engine.KEY_TEXT_CAP
        full, capped = texts(10**9), texts(cap)
        assert max(map(len, full)) > 10 * cap
        assert max(map(len, capped)) <= 2 * cap + 20
        for i, text in enumerate(capped):
            refs = [int(ref) for ref in re.findall(r"#(\d+)", text)]
            assert all(j < i and len(full[j]) > cap for j in refs), (i, text)
            if not refs:
                assert text == full[i]

    def test_json_pieces_match_json_dumps(self):
        for value in [{}, [], {"a": []}, {"a": {}}, [[], [{}], 0],
                      {"k\u00e9y\n": [1.5, -0.0, 1e300, None, True, "\"q\""], "z": {"y": [{"x": 2}]}}]:
            assert "".join(cli._json_pieces(value)) == json.dumps(value, indent=2)

    def test_table_to_stdout(self, capsys, trace_file):
        code = main(["check", trace_file, "-f", "F[3,7] p", "--table", "-"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "formula\t0\t1\t2\t3\t4\t5\t6"  # point keys are positions
        assert "p\t⊤\t⊤\t⊥\t⊤\t⊤\t⊥\t⊥" in lines
        assert "F[3,7] p\t⊤\t⊤\t⊤\t⊥\t⊥\t⊥\t⊥" in lines
        assert lines[-1] == "VERDICT: true"

    def test_table_to_file(self, tmp_path, capsys, trace_file):
        table_path = tmp_path / "table.tsv"
        code = main(["check", trace_file, "-f", "p", "--table", str(table_path)])
        assert code == 0
        assert table_path.read_text(encoding="utf-8").splitlines()[0].startswith("formula\t")

    def test_unwritable_table_exit_2(self, capsys, tmp_path, trace_file):
        table_path = tmp_path / "missing" / "table.tsv"
        assert main(["check", trace_file, "-f", "p", "--table", str(table_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "internal error" not in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv_tail", [
        ["-f", "F[3,7] p", "--semantics", "lazy"],                  # no budget
        ["-f", "F[3,7] p", "--anchor", "zero"],                     # zero needs lazy
        ["-f", "F[3,7] p", "--oracle", "--stats"],                  # stats need pipeline
        ["-f", "F[5,3] p"],                                         # bad interval
        ["-f", "F[3,7] p", "--k", "0"],                             # bad budget
        ["-f", "F[2,inf) p", "--k", "4"],                           # unbounded budget
        ["-f", "G p", "--semantics", "lazy", "--oracle"],           # unbounded lazy
        ["-f", "->"],                                               # reads as an option
        ["-f", "p", "--k", "x"],                                    # not an integer
    ])
    def test_config_errors_exit_2(self, capsys, trace_file, argv_tail):
        assert main(["check", trace_file] + argv_tail) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_bad_trace_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("foo p\n", encoding="utf-8")
        assert main(["check", str(path), "-f", "p"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_non_utf8_trace_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"1 p\n2 \xff q\n")
        assert main(["check", str(path), "-f", "p"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "line 2" in captured.err
        assert captured.err.count("\n") == 1

    # point, first-anchor and zero-anchor runs
    REACH_MODES = [[], ["--k", "3"], ["--k", "3", "--semantics", "lazy", "--anchor", "zero"]]

    @pytest.mark.parametrize("argv_tail,reduced", zip(REACH_MODES, [11, 11, 10]))
    def test_stats_count_the_elements_reduced(self, capsys, tmp_path, argv_tail, reduced):
        # the verdict reads p up to 10 past the anchor, the first element
        # at 1 or instant 0
        path = tmp_path / "unit.txt"
        path.write_text("".join(f"{t} p\n" for t in range(1, 201)), encoding="utf-8")
        assert main(["check", str(path), "-f", "F[0,10] p", "--stats"] + argv_tail) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "VERDICT: true"
        payload = json.loads("\n".join(lines[:-1]))
        assert (payload["elements"], payload["elements_reduced"]) == (200, reduced)

    @pytest.mark.parametrize("argv_tail", REACH_MODES)
    @pytest.mark.parametrize("defect", [b"x p\n", b"5001 \xff q\n", b"7 p\n"])
    def test_defect_far_past_the_reach_exit_2(self, capsys, tmp_path, argv_tail, defect):
        # the check reads 11 elements, but every line is parsed first
        path = tmp_path / "bad.txt"
        path.write_bytes(b"".join(b"%d p\n" % t for t in range(1, 5001)) + defect)
        assert main(["check", str(path), "-f", "F[0,10] p"] + argv_tail) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 5001")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("text", ["1_0 p\n", "1 p\n+20 q\n"])
    def test_non_decimal_timestamp_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path), "-f", "p"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "is not an integer" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("stamp, message", [
        ("9223372036854775808", "timestamp 9223372036854775808 is out of range"),
        ("99999999999999999999", "timestamp 99999999999999999999 is out of range"),
        ("9" * 5000, "timestamp of 5000 digits is out of range"),
    ])
    def test_out_of_range_timestamp_exit_2(self, capsys, tmp_path, stamp, message):
        path = tmp_path / "big.txt"
        path.write_text(f"1 p\n{stamp} p\n", encoding="utf-8")
        assert main(["check", str(path), "-f", "F[0,5] p"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line 2: {message}\n"

    def test_largest_timestamp_checks(self, capsys, tmp_path):
        path = tmp_path / "max.txt"
        path.write_text(f"1 q\n{2**63 - 1} p\n", encoding="utf-8")
        assert main(["check", str(path), "-f", "F p"]) == 0
        assert capsys.readouterr().out == "VERDICT: true\n"
        # leading zeros past int()'s digit limit still read as the value
        path.write_text(f"1 q\n{'0' * 5000}2 p\n", encoding="utf-8")
        assert main(["check", str(path), "-f", "F[1,1] p"]) == 0
        assert capsys.readouterr().out == "VERDICT: true\n"

    def test_internal_error_exit_2(self, capsys, trace_file, monkeypatch):
        def broken(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded\nwhile checking")

        monkeypatch.setattr(cli, "run_pipeline", broken)
        assert main(["check", trace_file, "-f", "F[0,3] p"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal error: RecursionError:")
        assert captured.err.count("\n") == 1

    def test_deep_decomposition_checks(self, capsys, trace_file):
        assert main(["check", trace_file, "-f", "F[0,2000] p"]) == 0
        plain = capsys.readouterr().out
        assert main(["check", trace_file, "-f", "F[0,2000] p", "--k", "1"]) == 0
        assert capsys.readouterr().out == plain == "VERDICT: true\n"

    @pytest.mark.parametrize("depth,status", [(5000, 0), (5001, 1)])
    @pytest.mark.parametrize("grouped", [False, True])
    def test_deep_negation_chain_checks(self, capsys, trace_file, depth, status, grouped):
        # p holds at the first element, so the verdict is the depth's parity
        text = "(!" * depth + "p" + ")" * depth if grouped else "!" * depth + "p"
        assert main(["check", trace_file, "-f", text]) == status
        assert capsys.readouterr().out == f"VERDICT: {'true' if status == 0 else 'false'}\n"

    @pytest.mark.parametrize("argv_tail,status", [
        (["-f", "F[0,300] r", "--k", "1"], 1),
        (["-f", "F[0,2000] r", "--k", "1"], 1),
        (["-f", "G[0,300] !r", "--k", "1"], 0),
        (["-f", "G[0,2000] !r", "--k", "1"], 0),
        (["--semantics", "lazy", "-f", "F[0,1] " * 3000 + "p"], 0),
        (["-f", "!" * 5000 + "p"], 0),
    ], ids=["F300", "F2000", "G300", "G2000", "nested-F3000", "not5000"])
    def test_oracle_reads_deep_plans(self, capsys, tmp_path, argv_tail, status):
        # the evaluator runs from an explicit stack, so nesting depth is no
        # limit: each of these plans is thousands of nodes deep
        path = tmp_path / "t4.txt"
        path.write_text(T4_TRACE, encoding="utf-8")
        assert main(["check", str(path), "--oracle"] + argv_tail) == status
        captured = capsys.readouterr()
        assert captured.out == f"VERDICT: {'true' if status == 0 else 'false'}\n"
        assert captured.err == ""

    def test_table_of_a_deep_plan(self, capsys, tmp_path):
        path = tmp_path / "t4.txt"
        path.write_text(T4_TRACE, encoding="utf-8")
        table = tmp_path / "table.tsv"
        argv = ["check", str(path), "--table", str(table), "-f", "F[0,300] p", "--k", "1"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "VERDICT: true\n"
        rows = table.read_text(encoding="utf-8").splitlines()
        plan = decompose(lazy_translation(parse_formula("F[0,300] p")), 1)
        assert len(rows) == 1 + analyze(plan).size  # a header, then one row per key
        assert rows[0].split("\t")[2] == "1"
        assert rows[-1].split("\t")[2] == "⊤"  # the root, read at the first element

    def test_missing_trace_file_exit_2(self, capsys, tmp_path):
        assert main(["check", str(tmp_path / "nope.txt"), "-f", "p"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_runs_as_a_module(self, trace_file):
        src = os.path.dirname(os.path.dirname(mtlcheck.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        done = subprocess.run(
            [sys.executable, "-m", "mtlcheck", "check", trace_file, "-f", "G[0,1] !p"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (1, "VERDICT: false\n", "")

    def test_closed_stdout_is_one_plain_error(self, tmp_path):
        # the table is far larger than a pipe's buffer, so writing it
        # fails once the reader has closed its end
        path = tmp_path / "long.txt"
        path.write_text("".join(f"{t} p\n" for t in range(1, 20001)), encoding="utf-8")
        src = os.path.dirname(os.path.dirname(mtlcheck.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "mtlcheck", "check", str(path), "-f", "p", "--table", "-"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(8) == b"formula\t"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert err.decode().splitlines() == [
            "error: standard output was closed before the output was written"
        ]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_closed_stdout_in_process_leaves_no_descriptor_open(self, trace_file):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return target.fileno()

        with tempfile.TemporaryFile() as target:
            before = len(os.listdir("/proc/self/fd"))
            err = io.StringIO()
            with mock.patch("sys.stdout", ClosedPipe()), contextlib.redirect_stderr(err):
                status = main(["check", trace_file, "-f", "p"])
            assert len(os.listdir("/proc/self/fd")) == before
        assert status == 2
        assert err.getvalue() == "error: standard output was closed before the output was written\n"

    def test_closed_stdout_without_a_descriptor_is_one_plain_error(self, trace_file):
        class ClosedPipe(io.StringIO):  # its fileno() raises io.UnsupportedOperation
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        err = io.StringIO()
        with mock.patch("sys.stdout", ClosedPipe()), contextlib.redirect_stderr(err):
            status = main(["check", trace_file, "-f", "p"])
        assert status == 2
        assert err.getvalue() == "error: standard output was closed before the output was written\n"

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
    def test_out_of_memory_is_one_plain_error(self, tmp_path):
        # the table of this plan holds hundreds of MiB; the child may map
        # only 64 MiB past what it maps once the package is imported
        path = tmp_path / "t4.txt"
        path.write_text(T4_TRACE, encoding="utf-8")
        code = (
            "import resource, sys\n"
            "from mtlcheck.cli import main\n"
            "with open('/proc/self/statm') as fh:\n"
            "    limit = int(fh.read().split()[0]) * resource.getpagesize() + (64 << 20)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        argv = ["check", str(path), "-f", "F[0,10000] p", "--k", "100", "--table", os.devnull]
        src = os.path.dirname(os.path.dirname(mtlcheck.__file__))
        done = subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")

    def test_contiguous_trace_plants_no_markers(self, capsys, tmp_path):
        path = tmp_path / "unit.txt"
        path.write_text("".join(f"{t} p{t % 3}\n" for t in range(1, 61)), encoding="utf-8")
        for formula in ("F[3,17] p1", "G[0,20] (p0 -> F[0,5] p2)", "p1 U[2,15] p2"):
            code = main(["check", str(path), "-f", formula, "--k", "4", "--stats"])
            lines = capsys.readouterr().out.splitlines()
            assert code in (0, 1)
            rows = json.loads("\n".join(lines[:-1]))["reducers"]
            assert len(rows) > 3
            assert [row["markers"] for row in rows] == [0] * len(rows)


def _all_atoms_read(lines, atoms=None, lookahead=None):
    """``input_read`` as it was before checks read only the formula's atoms
    and only the elements up to its lookahead: the whole word."""
    return engine.input_read(lines)


def _check_output(argv, capsys):
    """A check's exit status and output, with the timing in --stats rows
    left out."""
    status = main(argv)
    out = capsys.readouterr().out
    if "--stats" in argv:
        lines = out.splitlines()
        payload = json.loads("\n".join(lines[:-1]))
        for row in payload["reducers"]:
            del row["iteration_ms"]
        out = (payload, lines[-1])
    return status, out


class TestFormulaAtomsOnly:
    """``check`` reads only the formula's atoms from the trace, and shows
    nothing that the all-atoms parse would show differently."""

    @pytest.mark.parametrize("data", [
        b"1 p\n2 q \xff r\n3 p\n",   # not UTF-8
        b"1 p\n2x q\n3 p\n",          # not a timestamp
        b"1 p\n3 q\n3 r\n",           # not increasing
        b"0 q\n1 p\n",                # not positive
    ])
    def test_defect_in_a_line_of_other_atoms_exit_2(self, capsys, tmp_path, data):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(TraceError) as full:
            parse_trace_lines(data.splitlines())
        assert "line " in str(full.value)
        assert main(["check", str(path), "-f", "F[0,3] p"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {full.value}\n"

    @pytest.mark.parametrize("argv_tail", [
        ["-f", "G[0,20] (p2 -> F[0,5] p3)", "--k", "4", "--stats"],
        ["-f", "p2 U[0,9] p3", "--semantics", "lazy", "--k", "3", "--stats"],
        ["-f", "F[2,9] p & !q", "--stats"],
        ["-f", "G[0,20] (p2 -> F[0,5] p3)", "--k", "4", "--table", "-"],
        ["-f", "F[2,9] p & !q", "--table", "-"],
        ["-f", "G[0,20] (p2 -> F[0,5] p3)", "--k", "4", "--oracle"],
        ["-f", "F[2,9] p & !q", "--oracle"],
        ["-f", "p4 U[0,9] p3", "--semantics", "lazy", "--anchor", "zero", "--oracle"],
    ])
    def test_output_matches_the_all_atoms_parse(self, capsys, tmp_path, monkeypatch, argv_tail):
        path = tmp_path / "trace.txt"
        with open(path, "wb") as fh:
            generate_trace(GeneratorConfig(n=120, m=6, seed=3), fh)
        argv = ["check", str(path)] + argv_tail
        filtered = _check_output(argv, capsys)
        monkeypatch.setattr(cli, "input_read", _all_atoms_read)
        assert _check_output(argv, capsys) == filtered

    def test_word_of_one_atom_is_a_fraction_of_the_whole(self, capsys, tmp_path, monkeypatch):
        # the timestamps are common to both words; 21 flag columns of a
        # byte per element are not, so one atom's word is about two thirds.
        # The formula's lookahead spans the whole trace, so both words
        # hold every element.
        path = tmp_path / "trace.txt"
        with open(path, "wb") as fh:
            generate_trace(GeneratorConfig(n=3_000, m=20, seed=1), fh)
        held = []

        def measured(read):
            def input_read(*args, **kwargs):
                before = tracemalloc.get_traced_memory()[0]
                result = read(*args, **kwargs)
                held.append(tracemalloc.get_traced_memory()[0] - before)
                assert len(result[0].atoms) == (21 if read is _all_atoms_read else 1)
                return result
            return input_read

        tracemalloc.start()
        try:
            for read in (cli.input_read, _all_atoms_read):
                monkeypatch.setattr(cli, "input_read", measured(read))
                assert main(["check", str(path), "-f", "F[0,3000] p"]) == 0
        finally:
            tracemalloc.stop()
        one, every = held
        assert one <= 0.75 * every, f"one atom's word is {one / every:.2f}x the whole"
        capsys.readouterr()


class TestKeptPrefix:
    """A pipeline check keeps only the elements up to the first timestamp
    plus its formula's lookahead, and validates every line past them; the
    oracle and the table, and an unbounded lookahead, keep every element."""

    @pytest.mark.parametrize("argv_tail, kept", [
        (["-f", "F[0,10] p"], 11),
        (["-f", "F[0,10] p", "--k", "3", "--semantics", "lazy", "--anchor", "zero"], 11),
        (["-f", "G[0,4] (p -> F[2,5] p)", "--k", "2"], 10),
        (["-f", "F[0,10] p", "--oracle"], 200),
        (["-f", "F[0,10] p", "--table", "-"], 200),
        (["-f", "F[0,inf) p"], 200),
    ])
    def test_words_kept(self, capsys, tmp_path, monkeypatch, argv_tail, kept):
        path = tmp_path / "unit.txt"
        path.write_text("".join(f"{t} p\n" for t in range(1, 201)), encoding="utf-8")
        words_read = []

        def input_read(*args):
            result = engine.input_read(*args)
            words_read.append(result[0])
            return result

        monkeypatch.setattr(cli, "input_read", input_read)
        assert main(["check", str(path)] + argv_tail) == 0
        (w,) = words_read
        assert (len(w), w.trace_length) == (kept, 200)
        capsys.readouterr()

    def test_check_peak_does_not_grow_with_the_trace(self, capsys, tmp_path):
        # item 5 of the roadmap at test size: the word holds 11 elements of
        # either trace, and the lines past them are validated one at a time
        def peak(n):
            path = tmp_path / f"unit{n}.trace"
            path.write_text("".join(f"{t} p q{t % 7}\n" for t in range(1, n + 1)), encoding="utf-8")
            gc.collect()
            tracemalloc.start()
            try:
                assert main(["check", str(path), "-f", "F[0,10] p"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the first check's one-time allocations are not the trace's; past
        # about two 16 KiB read blocks the peak no longer depends on the length
        peak(200)
        small, large = peak(4_000), peak(40_000)
        capsys.readouterr()
        assert large <= 1.1 * small, (small, large)


class TestOneParser:
    """``main`` builds its parser once per process; the calls that share it
    read nothing of each other and leave no cyclic garbage behind."""

    def test_many_calls_share_one_parser(self, tmp_path, trace_file):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 p\n1 q\n", encoding="utf-8")
        plain = (["check", trace_file, "-f", "G[0,4] (p -> F[1,2] p)"], 1, "VERDICT: false\n", "")
        runs = [
            (["check"], 2, "",
             "error: the following arguments are required: trace, -f/--formula\n"),
            plain,
            (["check", trace_file, "-f", "F[4,6] p", "--k", "2"], 0, "VERDICT: true\n", ""),
            (["check", trace_file, "-f", "p U[0,3] !p", "--oracle"], 0, "VERDICT: true\n", ""),
            (["check", trace_file, "-f", "F[1,2] p", "--table", "-"], 0,
             "formula\t0\t1\t2\t3\t4\t5\t6\n"
             "p\t⊤\t⊤\t⊥\t⊤\t⊤\t⊥\t⊥\n"
             "F[1,2] p\t⊤\t⊥\t⊤\t⊤\t⊥\t⊥\t⊥\n"
             "VERDICT: true\n", ""),
            (["check", str(bad), "-f", "p"], 2, "",
             "error: line 2: non-monotonic timestamp 1 (previous was 1)\n"),
            (["check", trace_file, "-f", "F[1,2] p", "--stats"], 0,
             '{\n  "verdict": true,\n  "iterations": 2,\n  "elements": 7,\n'
             '  "elements_reduced": 2,\n  "peak_win_records": 1,\n  "reducers": [\n'
             '    {\n      "reducer_key": "F[1,2] p",\n      "peak_win": 1,\n'
             '      "records_in": 2,\n      "markers": 0,\n      "records_out": 1,\n'
             '      "iteration_ms": 0\n    }\n  ]\n}\nVERDICT: true\n', ""),
            plain,
        ]

        def call(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main(argv)
            shown = re.sub(r'"iteration_ms": [^\n]+', '"iteration_ms": 0', out.getvalue())
            return status, shown, err.getvalue()

        collecting = gc.isenabled()
        gc.disable()
        try:
            call(plain[0])
            gc.collect()
            for argv, status, out, err in runs:
                assert call(argv) == (status, out, err)
                assert gc.collect() == 0
        finally:
            if collecting:
                gc.enable()
        assert cli.build_parser() is cli.build_parser()


class TestGenerate:
    def test_deterministic_file_output(self, tmp_path, capsys):
        out = tmp_path / "trace.txt"
        code = main(["generate", "-n", "5", "-m", "1", "--force-p",
                     "--seed", "0", "-o", str(out)])
        assert code == 0
        assert out.read_bytes() == b"1 p\n2 p\n3 p\n4 p\n5 p\n"
        assert capsys.readouterr().err == "generated 5 elements (20 bytes)\n"

    def test_stdout_output(self, capsysbinary):
        code = main(["generate", "-n", "3", "-m", "1", "--force-p", "--seed", "0"])
        assert code == 0
        captured = capsysbinary.readouterr()
        assert captured.out == b"1 p\n2 p\n3 p\n"
        assert b"generated 3 elements" in captured.err

    def test_same_seed_same_trace(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["generate", "-n", "50", "-m", "5", "--seed", "9", "-o", str(a)])
        main(["generate", "-n", "50", "-m", "5", "--seed", "9", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_sizes_exit_2(self, capsys):
        assert main(["generate", "-n", "0"]) == 2
        assert main(["generate", "-n", "5", "-m", "0"]) == 2


class TestBench:
    def _rows(self, text):
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(BENCH_CSV_COLUMNS)
        assert lines[0] == "formula,N,K,trace_n,wall_ms,peak_win_records"
        return list(csv.reader(io.StringIO("\n".join(lines[1:]))))

    def test_csv_shape_and_peaks(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--trace-n", "40", "-m", "3", "--n", "6,10",
                     "--k", "4", "--template", "f", "-o", str(out)])
        assert code == 0
        rows = self._rows(out.read_text(encoding="utf-8"))
        assert len(rows) == 4  # two windows, off + one budget each
        by_key = {(r[1], r[2]): r for r in rows}
        off6 = by_key[("6", "off")]
        assert off6[0] == "F[0,6] p"
        assert off6[3] == "40"
        assert int(off6[5]) == 7  # undecomposed peak
        k6 = by_key[("6", "4")]
        assert k6[0] == "F[0,6] p"  # the formula checked, not its plan
        assert int(k6[5]) <= 5  # budgeted peak
        off10 = by_key[("10", "off")]
        assert int(off10[5]) == 11
        assert int(by_key[("10", "4")][5]) <= 5

    def test_budget_at_least_window_changes_nothing(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--trace-n", "30", "-m", "3", "--n", "3",
                     "--k", "4", "--template", "f", "-o", str(out)])
        assert code == 0
        rows = self._rows(out.read_text(encoding="utf-8"))
        off, budgeted = rows
        assert off[0] == budgeted[0] == "F[0,3] p"
        assert off[5] == budgeted[5]

    def test_globally_template(self, capsys):
        code = main(["bench", "--trace-n", "25", "-m", "3", "--n", "6",
                     "--k", "3", "--template", "g"])
        assert code == 0
        rows = self._rows(capsys.readouterr().out)
        assert [r[0] for r in rows][0] == "G[0,6] q"
        assert int(rows[0][5]) == 7

    def test_both_templates_by_default_flag(self, capsys):
        code = main(["bench", "--trace-n", "20", "-m", "3", "--n", "4",
                     "--k", "2", "--template", "both"])
        assert code == 0
        rows = self._rows(capsys.readouterr().out)
        assert len(rows) == 4
        off_formulas = [r[0] for r in rows if r[2] == "off"]
        assert off_formulas == ["F[0,4] p", "G[0,4] q"]

    def test_bad_arguments_exit_2(self, capsys):
        assert main(["bench", "--trace-n", "0"]) == 2
        assert main(["bench", "--trace-n", "10", "--k", "0"]) == 2

    def test_unwritable_output_exit_2(self, capsys, tmp_path):
        out = tmp_path / "missing" / "bench.csv"
        assert main(["bench", "--trace-n", "10", "--n", "3", "--k", "2", "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "internal error" not in captured.err
        assert captured.err.count("\n") == 1


def _trace_text(w):
    return "".join(f"{tau} {' '.join(sorted(atoms))}\n" for atoms, tau in elements(w))


# Trace bytes: valid words, valid words with one line spoiled, and junk.
TRACE_BYTES = st.one_of(
    words(max_len=6, max_timestamp=20).map(lambda w: _trace_text(w).encode()),
    st.tuples(
        words(max_len=6, max_timestamp=20),
        st.integers(min_value=0, max_value=6),
        st.sampled_from(["0 p", "x p", "1_0", "+3 q", "3 p\xff", "-2", "99999999999999999999 p"]),
    ).map(lambda t: "".join(
        line + "\n" for line in _trace_text(t[0]).splitlines()[: t[1]] + [t[2]]
    ).encode("latin-1")),  # "\xff" stays one byte, which is not UTF-8
    st.binary(max_size=30),
)

FORMULA_TEXT = st.one_of(
    st.integers(min_value=0, max_value=2**32).map(
        lambda seed: to_text(random_formula(random.Random(seed), max_depth=3, max_bound=8,
                                            allow_unbounded=True))
    ),
    st.text(alphabet="pqFGUX!&|()[],=01234567 ->inf", max_size=16),
)


class TestExitStatus:
    """Every check ends in exactly one of two ways: a VERDICT line with
    status 0 or 1, or one error line with status 2."""

    @settings(max_examples=200, deadline=None)
    @given(formula=FORMULA_TEXT, trace=TRACE_BYTES, data=st.data())
    def test_check_ends_in_a_verdict_or_one_error_line(self, formula, trace, data):
        argv = ["check", "-", "-f", formula]
        k = data.draw(st.one_of(st.none(), st.integers(min_value=-1, max_value=5)))
        if k is not None:
            argv += ["--k", str(k)]
        for flag, choices in (("--semantics", ["point", "lazy"]), ("--anchor", ["first", "zero"])):
            choice = data.draw(st.sampled_from([None] + choices))
            if choice is not None:
                argv += [flag, choice]
        if data.draw(st.booleans()):
            argv.append("--oracle")
        out, err = io.StringIO(), io.StringIO()
        stdin = types.SimpleNamespace(buffer=io.BytesIO(trace))
        with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            status = main(argv)
        out, err = out.getvalue(), err.getvalue()
        if status in (0, 1):
            assert out.splitlines()[-1:] == ["VERDICT: true" if status == 0 else "VERDICT: false"]
            assert err == ""
        else:
            assert status == 2
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
