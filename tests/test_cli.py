"""Command-line interface: goldens for every subcommand."""

import contextlib
import csv
import io
import json
import random
import types
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlcheck.cli import BENCH_CSV_COLUMNS, main
from mtlcheck.formula import to_text
from oracles import random_formula, words

EXAMPLE_TRACE = "1 p\n2 p\n4\n6 p\n8 p\n9\n10\n"


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

    def test_internal_error_exit_2(self, capsys):
        assert main(["decompose", "-f", "F[0,3000] p", "--k", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal error: RecursionError")
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
        assert set(payload) == {"verdict", "iterations", "peak_win_records", "reducers"}
        assert [set(row) for row in payload["reducers"]] == [
            {"reducer_key", "peak_win", "records_in", "records_out", "iteration_ms"}
        ] * len(payload["reducers"])

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

    @pytest.mark.parametrize("text", ["1_0 p\n", "1 p\n+20 q\n"])
    def test_non_decimal_timestamp_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path), "-f", "p"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "is not an integer" in captured.err
        assert captured.err.count("\n") == 1

    def test_internal_error_exit_2(self, capsys, trace_file):
        deep = "!" * 5000 + "p"
        assert main(["check", trace_file, "-f", deep]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal error: RecursionError")
        assert captured.err.count("\n") == 1

    def test_missing_trace_file_exit_2(self, capsys, tmp_path):
        assert main(["check", str(tmp_path / "nope.txt"), "-f", "p"]) == 2
        assert capsys.readouterr().err.startswith("error:")


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
    return "".join(f"{tau} {' '.join(sorted(atoms))}\n" for atoms, tau in w.elements)


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
