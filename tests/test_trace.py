"""Trace model, line parsing, and the pseudo-random generator."""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlcheck.trace import (
    GeneratorConfig,
    TimedWord,
    TraceError,
    generate_trace,
    parse_trace,
    parse_trace_lines,
    word,
)


class TestTimedWord:
    def test_basic_accessors(self):
        w = word((("p", "q"), 3), ((), 5), (("p",), 9))
        assert len(w) == 3
        assert w.timestamps == (3, 5, 9)
        assert w.atoms_at(0) == frozenset({"p", "q"})
        assert w.atoms_at(1) == frozenset()
        assert w.timestamp_at(2) == 9

    def test_rejects_bad_orderings(self):
        with pytest.raises(TraceError):
            word((("p",), 2), (("q",), 2))
        with pytest.raises(TraceError):
            word((("p",), 5), (("q",), 3))
        with pytest.raises(TraceError):
            word((("p",), 0))
        with pytest.raises(TraceError):
            word()


class TestParsing:
    def test_worked_example_trace(self):
        lines = ["1 p", "2 p", "4", "6 p", "8 p", "9", "10"]
        w = parse_trace_lines(lines)
        assert len(w) == 7
        assert w.timestamps == (1, 2, 4, 6, 8, 9, 10)
        p_holds = [i for i in range(len(w)) if "p" in w.atoms_at(i)]
        assert [w.timestamp_at(i) for i in p_holds] == [1, 2, 6, 8]

    def test_multiple_atoms_per_element(self):
        w = parse_trace_lines(["5 a b c"])
        assert w.atoms_at(0) == frozenset({"a", "b", "c"})

    def test_comments_and_blanks_are_skipped(self):
        w = parse_trace_lines(["# header", "", "1 p", "   ", "# mid", "2 q"])
        assert w.timestamps == (1, 2)

    def test_bytes_lines_accepted(self):
        w = parse_trace_lines([b"1 p", b"2 q"])
        assert w.timestamps == (1, 2)

    def test_line_numbered_errors(self):
        with pytest.raises(TraceError, match="line 2"):
            parse_trace_lines(["3 p", "3 q"])
        with pytest.raises(TraceError, match="line 2"):
            parse_trace_lines(["1 p", "0 q"])
        for bad in ("x p", "1_0 p", "+20 q", "\u0663 p"):
            with pytest.raises(TraceError, match="line 1: timestamp .* is not an integer"):
                parse_trace_lines([bad])
        with pytest.raises(TraceError, match="line 1: timestamps must be strictly positive"):
            parse_trace_lines(["0 p"])
        with pytest.raises(TraceError, match="line 2: byte 0xff at column 3"):
            parse_trace_lines([b"1 p", b"2 \xff"])

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceError):
            parse_trace_lines([])
        with pytest.raises(TraceError):
            parse_trace_lines(["# only a comment"])

    def test_stream_parsing(self):
        w = parse_trace(io.BytesIO(b"1 p\n2 q\n"))
        assert w.timestamps == (1, 2)


class TestGenerator:
    def test_forced_p_tiny_golden(self):
        buf = io.BytesIO()
        count, nbytes = generate_trace(GeneratorConfig(n=5, m=1, seed=0, force_p=True), buf)
        assert (count, nbytes) == (5, 20)
        assert buf.getvalue() == b"1 p\n2 p\n3 p\n4 p\n5 p\n"

    def test_deterministic_per_seed(self):
        def render(seed):
            buf = io.BytesIO()
            generate_trace(GeneratorConfig(n=50, m=5, seed=seed), buf)
            return buf.getvalue()

        assert render(7) == render(7)
        assert render(7) != render(8)

    def test_round_trip_and_unit_spacing(self):
        buf = io.BytesIO()
        generate_trace(GeneratorConfig(n=40, m=4, seed=3), buf)
        buf.seek(0)
        w = parse_trace(buf)
        assert len(w) == 40
        assert w.timestamps == tuple(range(1, 41))

    def test_force_p_holds_everywhere(self):
        buf = io.BytesIO()
        generate_trace(GeneratorConfig(n=60, m=6, seed=1, force_p=True), buf)
        buf.seek(0)
        w = parse_trace(buf)
        assert all("p" in w.atoms_at(i) for i in range(len(w)))

    def test_suppress_q_removes_q(self):
        buf = io.BytesIO()
        generate_trace(GeneratorConfig(n=60, m=6, seed=1, suppress_q=True), buf)
        buf.seek(0)
        w = parse_trace(buf)
        assert all("q" not in w.atoms_at(i) for i in range(len(w)))
        buf = io.BytesIO()
        generate_trace(GeneratorConfig(n=60, m=6, seed=1), buf)
        buf.seek(0)
        w = parse_trace(buf)
        assert any("q" in w.atoms_at(i) for i in range(len(w)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=1000))
    def test_generated_traces_always_parse(self, n, m, seed):
        buf = io.BytesIO()
        count, _ = generate_trace(GeneratorConfig(n=n, m=m, seed=seed), buf)
        buf.seek(0)
        w = parse_trace(buf)
        assert count == n == len(w)
        assert all(1 <= len(w.atoms_at(i)) <= m for i in range(len(w)))
