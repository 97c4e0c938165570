"""Trace model, line parsing, and the pseudo-random generator."""

import io
import random
from bisect import bisect_right
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtlcheck import trace
from mtlcheck.trace import (
    TIMESTAMP_MAX,
    GeneratorConfig,
    TimedWord,
    TraceError,
    generate_trace,
    parse_trace,
    parse_trace_lines,
    split_lines,
    word,
)
from oracles import atoms_at, elements, naive_parse


class TestTimedWord:
    def test_basic_accessors(self):
        w = word((("p", "q"), 3), ((), 5), (("p",), 9))
        assert len(w) == 3
        assert tuple(w.timestamps) == (3, 5, 9)
        assert atoms_at(w, 0) == frozenset({"p", "q"})
        assert atoms_at(w, 1) == frozenset()
        assert w.timestamp_at(2) == 9
        assert [w.index_of(t) for t in (0, 3, 4, 5, 9, 10)] == [None, 0, None, 1, 2, None]
        assert w.atoms == frozenset({"p", "q"})
        assert list(w.column("p")) == [1, 0, 1]

    def test_rejects_bad_orderings(self):
        with pytest.raises(TraceError):
            word((("p",), 2), (("q",), 2))
        with pytest.raises(TraceError):
            word((("p",), 5), (("q",), 3))
        with pytest.raises(TraceError):
            word((("p",), 0))
        with pytest.raises(TraceError):
            word()
        with pytest.raises(TraceError, match="atom 'p' has 1 flags for 2 elements"):
            TimedWord((1, 2), {"p": bytearray(1)})
        with pytest.raises(TraceError, match=r"^timestamp 9223372036854775808 is out of range$"):
            TimedWord((1, 2**63), {})
        assert tuple(TimedWord((1, 2**63 - 1), {}).timestamps) == (1, 2**63 - 1)

    def test_words_equal_and_hash_by_content(self):
        a = word((("p",), 1), (("q",), 4))
        b = parse_trace_lines(["1 p", "4 q"])
        assert a == b and hash(a) == hash(b)
        assert a != word((("p",), 1), (("q",), 5))


class TestParsing:
    def test_worked_example_trace(self):
        lines = ["1 p", "2 p", "4", "6 p", "8 p", "9", "10"]
        w = parse_trace_lines(lines)
        assert len(w) == 7
        assert tuple(w.timestamps) == (1, 2, 4, 6, 8, 9, 10)
        p_holds = [i for i in range(len(w)) if "p" in atoms_at(w, i)]
        assert [w.timestamp_at(i) for i in p_holds] == [1, 2, 6, 8]

    def test_multiple_atoms_per_element(self):
        w = parse_trace_lines(["5 a b c"])
        assert atoms_at(w, 0) == frozenset({"a", "b", "c"})

    def test_comments_and_blanks_are_skipped(self):
        w = parse_trace_lines(["# header", "", "1 p", "   ", "# mid", "2 q"])
        assert tuple(w.timestamps) == (1, 2)

    def test_bytes_lines_accepted(self):
        w = parse_trace_lines([b"1 p", b"2 q"])
        assert tuple(w.timestamps) == (1, 2)

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
        with pytest.raises(TraceError, match=r"^line 2: timestamp 99999999999999999999 is out of range$"):
            parse_trace_lines(["1 p", "99999999999999999999 p"])

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceError):
            parse_trace_lines([])
        with pytest.raises(TraceError):
            parse_trace_lines(["# only a comment"])

    def test_stream_parsing(self):
        w = parse_trace(io.BytesIO(b"1 p\n2 q\n"))
        assert tuple(w.timestamps) == (1, 2)


def _parsed(parse, lines):
    """The parse as (atom set, timestamp) pairs, or its error message."""
    try:
        result = parse(lines)
    except TraceError as exc:
        return str(exc)
    return result if isinstance(result, tuple) else elements(result)


# Separators str.split reads in a trace line: ASCII whitespace, \x1c-\x1f
# (which bytes.split keeps inside a token), and non-ASCII ones, whose UTF-8
# bytes bytes.split keeps inside a token too.
SEPARATORS = [" ", "\t", "  ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
              "\u2028", "\u3000"]

# One trace line: a comment, a blank, or a timestamp with atoms drawn from
# a small pool, so atoms repeat on a line and are missing from others.
TRACE_LINES = st.lists(
    st.one_of(
        st.just("# comment"),
        st.sampled_from(["", " ", "\t", "\x1c", "\u3000"]),
        st.tuples(
            st.one_of(st.integers(min_value=0, max_value=40).map(str),
                      st.sampled_from(["x", "+3", "1_0", "\u0663", "0" * 4999 + "7", "1" * 5000])),
            st.lists(st.sampled_from(["p", "q", "r", "p2", "\xe9"]), max_size=5),
            st.sampled_from(SEPARATORS),
        ).map(lambda t: t[2].join([t[0], *t[1]])),
    ),
    max_size=12,
)


def _ascending(lines):
    """The lines with each leading timestamp raised above the last, so
    that most traces are valid."""
    stamp = 0
    for n, line in enumerate(lines):
        head = line.split(None, 1)[:1]
        if head and head[0].isascii() and head[0].isdigit():
            stamp += int(head[0][-2:]) % 3 + 1  # its last digits: a stamp may pass int()'s limit
            lines[n] = str(stamp) + line[len(head[0]):]
    return lines


def _projected(parsed, atoms):
    """A parse's (atom set, timestamp) pairs cut down to ``atoms``; an error
    message stays as it is."""
    if isinstance(parsed, str):
        return parsed
    return tuple((element & atoms, t) for element, t in parsed)


class TestColumns:
    @settings(max_examples=300, deadline=None)
    @given(TRACE_LINES, st.lists(st.sampled_from(["\n", "\r\n"]), min_size=1),
           st.booleans(), st.frozensets(st.sampled_from(["p", "q", "r", "p2", "s", "\xe9"])))
    def test_parse_agrees_with_a_per_element_parser(self, lines, endings, ascending, atoms):
        if ascending:  # mostly valid traces
            lines = _ascending(lines)
        data = "".join(
            line + endings[n % len(endings)] for n, line in enumerate(lines)
        ).encode()
        for split in (data.splitlines(), data.splitlines(keepends=True),
                      data.decode().splitlines(keepends=True)):
            want = _parsed(naive_parse, split)
            assert _parsed(parse_trace_lines, split) == want
            # reading only some atoms validates every line all the same
            filtered = _parsed(lambda lines: parse_trace_lines(lines, atoms), split)
            assert filtered == _projected(want, atoms)

    @settings(max_examples=200, deadline=None)
    @given(TRACE_LINES, st.sampled_from([None, {"\xe9"}]))
    def test_bytes_and_text_lines_read_the_same(self, lines, atoms):
        lines = _ascending(lines)
        text = _outcome(lambda: parse_trace_lines(lines, atoms))
        raw = _outcome(lambda: parse_trace_lines([line.encode() for line in lines], atoms))
        assert raw == text
        if not isinstance(text, str):
            assert raw.atoms == text.atoms

    def test_a_lone_surrogate_reads_under_its_own_name(self):
        lines = ["1 p \ud800", "2 \ud800"]
        w = parse_trace_lines(lines)
        assert w.atoms == {"p", "\ud800"}
        assert list(w.column("\ud800")) == [1, 1]
        assert list(parse_trace_lines(lines, {"\ud800"}).column("\ud800")) == [1, 1]
        with pytest.raises(TraceError, match=r"^line 2: timestamp '\\ud800' is not an integer$"):
            parse_trace_lines(["1 p", "\ud800 p"])

    def test_repeated_and_missing_atoms(self):
        w = parse_trace_lines(["5 p p", "6 q", "7"])
        assert elements(w) == ((frozenset({"p"}), 5), (frozenset({"q"}), 6), (frozenset(), 7))
        assert list(w.column("p")) == [1, 0, 0]
        assert list(w.column("absent")) == [0, 0, 0]
        assert w == word((("p",), 5), (("q",), 6), ((), 7))
        # only the asked atoms that hold somewhere get a column
        w = parse_trace_lines(["5 p p", "6 q", "7"], atoms=["p", "absent"])
        assert w.atoms == {"p"}
        assert w == word((("p",), 5), ((), 6), ((), 7))
        assert parse_trace_lines(["5 p", "6 q"], atoms=()).atoms == frozenset()

    def test_word_of_a_generated_trace_is_small(self):
        buf = io.BytesIO()
        generate_trace(GeneratorConfig(n=10_500, m=20, seed=1), buf)
        lines = buf.getvalue().splitlines()
        tracemalloc.start()
        try:
            w = parse_trace_lines(lines)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(w) == 10_500
        assert held <= 1024 * 1024, f"the word holds {held / 2**20:.2f} MiB"

    def test_parse_peak_stays_near_the_word(self, tmp_path):
        # reading the whole file and splitting it peaked near 3x the word;
        # streamed blocks leave the growing columns as the peak
        path = tmp_path / "trace.txt"
        with open(path, "wb") as fh:
            generate_trace(GeneratorConfig(n=3_000, m=20, seed=1), fh)
        with open(path, "rb") as fh:
            tracemalloc.start()
            try:
                w = parse_trace(fh)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert len(w) == 3_000
        assert peak <= 2.2 * held, f"parse peak {peak / held:.2f}x the word"


class TestStorage:
    """Timestamps are held as 8-byte machine integers, not int objects."""

    def test_one_atom_word_holds_at_most_12_bytes_per_element(self):
        buf = io.BytesIO()
        generate_trace(GeneratorConfig(n=10_500, m=20, seed=1), buf)
        lines = buf.getvalue().splitlines()
        tracemalloc.start()
        try:
            w = parse_trace_lines(lines, atoms=["p"])
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w.atoms == {"p"}
        assert held <= 12 * len(w), f"the word holds {held / len(w):.1f} B per element"


class _Trickle:
    """A byte stream whose reads return at most ``step`` bytes, so that
    lines and ``\\r\\n`` pairs straddle reads."""

    def __init__(self, data: bytes, step: int) -> None:
        self.data, self.step = data, step

    def read(self, n: int) -> bytes:
        out, self.data = self.data[:min(n, self.step)], self.data[min(n, self.step):]
        return out


class TestLineBoundaries:
    """Lines are those of bytes.splitlines: \\x0c, \\x85 and \\u2028 stay
    inside a line, where they separate tokens, and a lone \\r ends one."""

    @pytest.mark.parametrize("sep", ["\x0c", "\x85", "\u2028"])
    def test_unicode_separators_stay_inside_a_line(self, sep):
        data = f"1 p{sep}q\n2{sep}r\n".encode()
        w = parse_trace_lines(data.splitlines())
        assert elements(w) == ((frozenset({"p", "q"}), 1), (frozenset({"r"}), 2))
        bad = f"1 p{sep}2 q\n2 r\n1 s\n".encode()
        with pytest.raises(TraceError, match=r"^line 3: non-monotonic timestamp 1 \(previous was 2\)$"):
            parse_trace_lines(bad.splitlines())

    def test_lone_carriage_return_ends_a_line(self):
        w = parse_trace_lines(b"1 p\r2 q\r\n3\n".splitlines())
        assert elements(w) == ((frozenset({"p"}), 1), (frozenset({"q"}), 2), (frozenset(), 3))
        with pytest.raises(TraceError, match=r"^line 2: non-monotonic timestamp 1 \(previous was 1\)$"):
            parse_trace_lines(b"1 p\r1 q\n".splitlines())
        with pytest.raises(TraceError, match=r"^line 3: timestamp 'x' is not an integer$"):
            parse_trace_lines(b"1 p\r\n\rx q\n".splitlines())

    @settings(max_examples=300, deadline=None)
    @given(st.binary() | st.lists(st.sampled_from(
        [b"\n", b"\r", b"\r\n", b"\x0c", b"\x85", b"\xe2\x80\xa8", b"1", b"p", b" "]
    )).map(b"".join), st.integers(min_value=1, max_value=5))
    def test_split_lines_equals_splitlines_of_the_whole(self, data, step):
        assert list(split_lines(io.BytesIO(data))) == data.splitlines()
        assert list(split_lines(_Trickle(data, step))) == data.splitlines()

    def test_parse_trace_splits_like_the_command_line(self):
        for data in (b"1 p\r2 q\n", b"1 p\r2 q\r\n3\x0c r\n", "1 p\x852 q\r".encode()):
            assert parse_trace(io.BytesIO(data)) == parse_trace_lines(data.splitlines())
        w = parse_trace(io.BytesIO(b"1 p\r2 q\n"))
        assert elements(w) == ((frozenset({"p"}), 1), (frozenset({"q"}), 2))


# what a line past the kept prefix may start with, hold between its
# timestamp and its atoms, and end with: ASCII separators, characters only
# str.split reads as separators (\x1c-\x1f, \x85, \u2028), line ends that
# splitlines cuts at, a comment mark and bytes that are not UTF-8
_LEADS = [b"", b"", b"", b" ", b"\t", b"\x0b", b"\x0c", b"\x1c", b"\x1f", b"#", b"\xc2\x85",
          b"\xe2\x80\xa8", b"\xff"]
_SEPARATORS = [b" ", b" ", b"\t", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\r",
               b"\r\n", b"\xc2\x85", b"\xe2\x80\xa8", b"\xff", b"#", b""]
_RESTS = [b"p", b"q", b"p q", b"", b"#", b"r\xff"]


@st.composite
def tails(draw):
    """Lines that follow ``1 p``, ``2 q`` and ``4 p q``: stamps that rise,
    repeat or fall, with leading zeros, of 19 to 25 digits, or missing."""
    lines, stamp = [], 4
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        stamp += draw(st.sampled_from([1, 1, 1, 2, 5, 0, -1, -3]))
        kind = draw(st.sampled_from(["plain", "plain", "plain", "zeros", "long", "none"]))
        if kind == "long":
            text = str(draw(st.integers(min_value=10**18, max_value=10**25 - 1)))
        elif kind == "none":
            text = ""
        else:
            text = "0" * (kind == "zeros") * draw(st.integers(min_value=1, max_value=25)) + str(stamp)
        line = (draw(st.sampled_from(_LEADS)) + text.encode() + draw(st.sampled_from(_SEPARATORS))
                + draw(st.sampled_from(_RESTS)))
        lines.append(line + draw(st.sampled_from([b"\n", b"\r", b"\r\n"])))
    return b"1 p\n2 q\n4 p q\n" + b"".join(lines)


def _outcome(parse):
    try:
        return parse()
    except TraceError as exc:
        return str(exc)


class TestKeptPrefix:
    """A parse given a lookahead keeps the elements up to the first
    timestamp plus it, and past them accepts exactly the lines a full
    parse accepts, raising the same error otherwise."""

    @settings(max_examples=500, deadline=None)
    @given(tails(), st.integers(min_value=0, max_value=6), st.sampled_from([None, {"p"}]))
    def test_cut_parse_is_the_full_parse_cut(self, data, ahead, atoms):
        lines = data.splitlines()
        full = _outcome(lambda: parse_trace_lines(lines, atoms))
        cut = _outcome(lambda: parse_trace_lines(lines, atoms, ahead))
        if isinstance(full, str):
            assert cut == full
            return
        n = bisect_right(full.timestamps, full.timestamps[0] + ahead)
        assert list(cut.timestamps) == list(full.timestamps[:n])
        assert cut.atoms == {a for a in full.atoms if 1 in full.column(a)[:n]}
        assert all(cut.column(a) == full.column(a)[:n] for a in full.atoms)
        assert cut.trace_length == full.trace_length == len(full)

    def test_kept_prefix_and_count(self):
        lines = [b"%d p" % t for t in range(1, 201)] + [b"# past the prefix", b""]
        w = parse_trace_lines(lines, {"p"}, 10)
        assert list(w.timestamps) == list(range(1, 12))
        assert (len(w), w.trace_length) == (11, 200)
        assert parse_trace_lines(lines, {"p"}).trace_length == 200


class TestStampErrors:
    """Each timestamp error reads the same, at the same line, inside the
    kept prefix (no lookahead, or 5) and past it (lookahead 0)."""

    @pytest.mark.parametrize("line, message", [
        (b"x p", "timestamp 'x' is not an integer"),
        ("\u0663 p".encode(), "timestamp '\u0663' is not an integer"),
        (b"1" * 5000 + b" p", "timestamp of 5000 digits is out of range"),
        (b"0 p", "timestamps must be strictly positive, got 0"),
        (b"2 p", "non-monotonic timestamp 2 (previous was 2)"),
        (b"0" * 5000 + b"2 p", "non-monotonic timestamp 2 (previous was 2)"),
        (b"9223372036854775808 p", "timestamp 9223372036854775808 is out of range"),
    ])
    @pytest.mark.parametrize("ahead", [None, 5, 0])
    @pytest.mark.parametrize("atoms", [None, {"p"}])
    def test_same_error_on_both_sides_of_the_limit(self, line, message, ahead, atoms):
        lines = [b"1 p", b"2 q", line, b"9 p"]
        for form in (lines, [raw.decode() for raw in lines]):
            with pytest.raises(TraceError) as exc:
                parse_trace_lines(form, atoms, ahead)
            assert str(exc.value) == f"line 3: {message}"

    @pytest.mark.parametrize("ahead", [None, 5, 0])
    def test_leading_zeros_past_the_digit_limit_read_as_the_value(self, ahead):
        w = parse_trace_lines([b"1 p", b"2 q", b"0" * 5000 + b"3 p"], {"p"}, ahead)
        assert w.trace_length == 3
        assert list(w.timestamps) == [1, 2, 3][: 1 if ahead == 0 else 3]


@st.composite
def mostly_regular_traces(draw):
    """Trace bytes of mostly regular lines, ``<stamp> <atoms>`` with rising
    stamps, single spaces and ``\\n`` endings, which the bulk pass reads.
    Now and then a line is one it declines or must read with care: a
    comment, a blank, a leading or trailing space, a tab, \\x0b or \\x1c
    between tokens, a ``\\r`` or ``\\r\\n`` ending, non-ASCII or non-UTF-8
    bytes, a stamp of 18 to 20 digits, led by zeros or repeating the last,
    an atom equal to its stamp (``5 5``), a repeated atom, or no atom.  The
    last line may lack its ``\\n``."""
    # a few kinds of odd line per trace, so that each kind drawn is common
    odd_kinds = draw(st.lists(st.sampled_from(
        ["long", "zeros", "repeat", "  ", "\t", "\x0b", "\x1c", "comment", "blank", "lead", "trail",
         "utf8", "bad", "\r\n", "\r"]), min_size=1, max_size=3))
    regular = [""] * draw(st.sampled_from([4, 16, 400]))
    lines, stamp = [], 0
    for _ in range(draw(st.integers(min_value=0, max_value=60))):
        odd = draw(st.sampled_from(regular + odd_kinds))
        if odd == "long":  # of 17 to 20 digits, in and out of range
            stamp = draw(st.sampled_from([10**17, 10**18, TIMESTAMP_MAX, 10**19]).flatmap(
                lambda base: st.integers(min_value=base - 3, max_value=base + 3)))
        elif odd != "repeat":
            stamp += draw(st.sampled_from([1, 1, 1, 2, 5]))
        text = "0" * (odd == "zeros") * draw(st.integers(min_value=1, max_value=3)) + str(stamp)
        atoms = draw(st.lists(st.sampled_from(["p", "q", "r", "5"]), max_size=3))
        sep = odd if odd in ("  ", "\t", "\x0b", "\x1c") else " "
        line = sep.join([text, *atoms]).encode()
        line = {"comment": b"# " + line, "blank": b"", "lead": b" " + line, "trail": line + b"  ",
                "utf8": line + " \xe9".encode(), "bad": line + b" \xff"}.get(odd, line)
        lines.append(line + (odd.encode() if odd in ("\r\n", "\r") else b"\n"))
    data = b"".join(lines)
    return data[:-1] if data.endswith(b"\n") and draw(st.booleans()) else data


def _read(parse):
    """A parse's timestamps, columns by atom and element count, or its error
    message."""
    result = _outcome(parse)
    if isinstance(result, str):
        return result
    columns = {atom: result.column(atom) for atom in result.atoms}
    return list(result.timestamps), columns, result.trace_length


class TestBlockReader:
    """``parse_trace`` reads a stream in blocks of whole lines, each in one
    bulk pass when the pass accepts it and in the line loop otherwise, and
    reads the word a line parse reads, or fails with its error."""

    def test_matches_the_line_parse_and_the_oracle(self, monkeypatch):
        accepted = []
        bulk = trace._Parse.block

        def counted(self, block):
            accepted.append(bulk(self, block))
            return accepted[-1]

        monkeypatch.setattr(trace._Parse, "block", counted)

        @settings(max_examples=500, deadline=None)
        @given(mostly_regular_traces(),
               # a None parse and atoms that are not tokens read every block in the line loop
               st.one_of(*[st.frozensets(st.sampled_from(["p", "q", "r", "5", "\xe9"]), max_size=4)] * 2,
                         st.sampled_from([None, {"p", "p q"}, {"", "q"}])),
               st.none() | st.integers(min_value=0, max_value=40),
               st.integers(min_value=1, max_value=300))
        @example(b"1 p\n9223372036854775808 p\n", {"p"}, None, 300)  # 19 digits, out of range
        @example(b"1 p\n2 p q\r3 r\n", {"q"}, None, 300)  # a lone \r ends a line
        @example(b"1 p\n2 p q", {"q"}, None, 300)  # the last line has no \n
        @example(b"4 5\n5\n6 5 5\n", {"5"}, 1, 2)  # atoms equal to stamps, repeated
        def check(data, atoms, ahead, step):
            lines = data.splitlines()
            got = _read(lambda: parse_trace(_Trickle(data, step), atoms, ahead))
            assert got == _read(lambda: parse_trace_lines(lines, atoms, ahead))
            want = _outcome(lambda: naive_parse(lines))
            if isinstance(want, str):
                assert got == want
                return
            stamps = [t for _, t in want]
            kept = want[: len(want) if ahead is None else bisect_right(stamps, stamps[0] + ahead)]
            asked = {atom for element, _ in want for atom in element} if atoms is None else atoms
            columns = {atom: bytes(atom in element for element, _ in kept) for atom in asked}
            assert got == (stamps[: len(kept)], {a: c for a, c in columns.items() if 1 in c}, len(want))

        check()
        # the bulk pass read most blocks it was offered, and declined some
        assert len(accepted) / 2 < accepted.count(True) < len(accepted) * 0.97, accepted

    def test_a_regular_trace_is_read_in_bulk(self, monkeypatch):
        buf = io.BytesIO()
        generate_trace(GeneratorConfig(n=3_000, m=20, seed=2), buf)
        data = buf.getvalue()
        for atoms, ahead in ((["p", "q"], None), (["p2"], 1_000), ([], 0)):
            want = _read(lambda: parse_trace_lines(data.splitlines(), atoms, ahead))

            def refused(self, lines):
                raise AssertionError("a block of a regular trace went to the line loop")

            with monkeypatch.context() as patch:
                patch.setattr(trace._Parse, "lines", refused)
                assert _read(lambda: parse_trace(io.BytesIO(data), atoms, ahead)) == want

    def test_a_comment_sends_only_its_block_to_the_line_loop(self, monkeypatch):
        buf = io.BytesIO()
        generate_trace(GeneratorConfig(n=3_000, m=20, seed=2), buf)
        lines = buf.getvalue().splitlines(keepends=True)
        data = b"".join(lines[:1_500] + [b"# halfway\n"] + lines[1_500:])
        blocks = list(trace._read_blocks(io.BytesIO(data)))
        (commented,) = [block.splitlines() for block in blocks if b"#" in block]
        assert len(blocks) > 10 and len(commented) > 1
        looped = []
        line_loop = trace._Parse.lines

        def spied(self, lines):
            looped.append(lines)
            line_loop(self, lines)

        monkeypatch.setattr(trace._Parse, "lines", spied)
        got = _read(lambda: parse_trace(io.BytesIO(data), ["p"]))
        assert looped == [commented]
        assert got == _read(lambda: parse_trace_lines(data.splitlines(), ["p"]))

    def test_transient_memory_is_flat_and_under_half_the_word(self):
        def parse(n, ahead):
            """The word held and the transient (traced peak minus the word
            held) of a one-atom parse of n generated lines."""
            buf = io.BytesIO()
            generate_trace(GeneratorConfig(n=n, m=20, seed=1), buf)
            buf.seek(0)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                w = parse_trace(buf, ["p"], ahead)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert w.trace_length == n
            return held - base, peak - held

        # the blocks' transient: the first parse's one-time allocations are
        # not the trace's, and the word holds the first 1,001 elements of both
        parse(3_000, 1_000)
        small, large = parse(3_000, 1_000)[1], parse(30_000, 1_000)[1]
        assert large <= 1.1 * small, (small, large)
        # every element kept: a block's transient, or at the end the exact
        # copy of the grown column
        word, transient = parse(10_500, None)
        assert transient < word / 2, (transient, word)


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
        assert tuple(w.timestamps) == tuple(range(1, 41))

    def test_force_p_holds_everywhere(self):
        buf = io.BytesIO()
        generate_trace(GeneratorConfig(n=60, m=6, seed=1, force_p=True), buf)
        buf.seek(0)
        w = parse_trace(buf)
        assert all("p" in atoms_at(w, i) for i in range(len(w)))

    def test_suppress_q_removes_q(self):
        buf = io.BytesIO()
        generate_trace(GeneratorConfig(n=60, m=6, seed=1, suppress_q=True), buf)
        buf.seek(0)
        w = parse_trace(buf)
        assert all("q" not in atoms_at(w, i) for i in range(len(w)))
        buf = io.BytesIO()
        generate_trace(GeneratorConfig(n=60, m=6, seed=1), buf)
        buf.seek(0)
        w = parse_trace(buf)
        assert any("q" in atoms_at(w, i) for i in range(len(w)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=1000))
    def test_generated_traces_always_parse(self, n, m, seed):
        buf = io.BytesIO()
        count, _ = generate_trace(GeneratorConfig(n=n, m=m, seed=seed), buf)
        buf.seek(0)
        w = parse_trace(buf)
        assert count == n == len(w)
        assert all(1 <= len(atoms_at(w, i)) <= m for i in range(len(w)))
