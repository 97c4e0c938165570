"""Timed words: the trace file format, ingestion, and the synthetic generator.

Trace files are line oriented text: each non-comment line is
``<timestamp> <atom> <atom> ...`` with ASCII decimal timestamps, any
whitespace run as separator, and ``#`` starting a comment line.  Lines
are those ``bytes.splitlines`` cuts the whole file into, so ``\\n``,
``\\r\\n`` and a lone ``\\r`` end a line, while ``\\x0c``, ``\\x85`` and
``\\u2028`` stay inside one and separate its tokens.  Timestamps must be
strictly increasing and strictly positive.

A parsed word is stored by column: one ``array('q')`` of timestamps, 8 B
per element, and, per atom, one byte per element flagging where the atom
holds.  Timestamps therefore range from 1 to ``TIMESTAMP_MAX`` (2**63 - 1,
292 years of nanoseconds); a larger one is a line error.  A 10,500-element
trace over 21 atoms takes about 0.42 MiB this way, where one frozenset of
atom strings per element took about 10.5 MiB.  A parse can be asked for
some atoms only (a check asks for its formula's), and then keeps about
11 KB per atom besides about 90 KB of timestamps.  It can also be asked to
keep only the elements up to the first timestamp plus a formula's
lookahead, all that a check of the formula reads; past them it holds
nothing but the last timestamp and a count, so its memory stays flat in
the trace's length.  Every line is validated all the same, with the
errors and line numbers of a full parse.

The line loop (``parse_trace_lines``) reads lines on their bytes: an
ASCII line is split as bytes, and only a line that is not ASCII is
decoded, split as text and its tokens encoded back, so every line splits
as ``str.split`` splits its text.  Past the kept prefix a line is split
only as far as its timestamp.

A stream (``parse_trace``, and so the command line) is read in blocks of
whole lines of about 4 KiB.  When atoms are asked for, each block first
goes to a bulk pass made only of bytes operations over the whole block or
all its lines at once: it finds every line's timestamp and every asked
atom's flags without a Python step per line.  It reads a block only if
the block is ASCII without ``\\r`` and every line starts with a timestamp
of at most 18 digits, each after the last; the line loop reads every
block it declines (one with a comment, a blank line, a leading blank, a
``\\r``, a non-ASCII byte, a longer stamp or a defect), and every block of
a parse of every atom.  The line loop is the only reader that raises, so
every error and line number is the one a line parse gives.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left, bisect_right
from itertools import chain, islice, repeat
from operator import ge, gt, itemgetter
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, Mapping, Optional, Union

TIMESTAMP_MAX = (1 << 63) - 1  # the largest timestamp an 8-byte signed integer holds
_STAMP_DIGITS = len(str(TIMESTAMP_MAX))


class TraceError(ValueError):
    """Raised for malformed or non-monotonic trace input.

    ``line`` is the 1-based number of the offending line, when there is one.
    """

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class TimedWord:
    """A finite sequence of elements, each a set of atoms and an integer
    timestamp, stored by column.

    ``timestamps`` is an ``array('q')`` of every element's timestamp,
    strictly increasing and from 1 to ``TIMESTAMP_MAX``; it reads like a
    tuple of ints (indexing, slicing, ``bisect``) and holds each in 8 B.
    Each atom has one flag column: byte ``i`` is 1 when the atom holds at
    element ``i`` and 0 when it does not.  ``column`` is the one reader of
    the flags, so no other module depends on how they are stored.  A word
    is built from its timestamps and a mapping from atoms to their flag
    columns; ``word`` builds one from (atoms, timestamp) pairs and
    ``parse_trace_lines`` from trace text.  Callers read the timestamps
    and columns and never change them.

    ``trace_length`` is the element count of the trace the word was read
    from: its own length, or more when the parse kept only a prefix of the
    trace (see ``parse_trace_lines``).
    """

    __slots__ = ("timestamps", "_columns", "_absent", "trace_length")

    def __init__(self, timestamps: Iterable[int], columns: Mapping[str, bytearray]) -> None:
        timestamps = tuple(timestamps)
        if not timestamps:
            raise TraceError("a timed word needs at least one element")
        previous = 0
        for timestamp in timestamps:
            if timestamp <= previous:
                raise TraceError(
                    f"timestamps must be strictly increasing and positive, got {timestamp} after {previous}"
                )
            previous = timestamp
        if previous > TIMESTAMP_MAX:
            raise TraceError(f"timestamp {previous} is out of range")
        n = len(timestamps)
        for atom, flags in columns.items():
            if len(flags) != n:
                raise TraceError(f"atom {atom!r} has {len(flags)} flags for {n} elements")
        self.timestamps, self._columns, self._absent = array("q", timestamps), dict(columns), bytes(n)
        self.trace_length = n

    @classmethod
    def _from_checked(
        cls, timestamps: array, columns: dict[str, bytearray], trace_length: int
    ) -> "TimedWord":
        """A word over timestamps and columns its builder has checked as
        ``__init__`` does, taken as they are, without a copy, cut from a
        trace of ``trace_length`` elements."""
        self = cls.__new__(cls)
        self.timestamps, self._columns, self._absent = timestamps, columns, bytes(len(timestamps))
        self.trace_length = trace_length
        return self

    def __len__(self) -> int:
        return len(self.timestamps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimedWord):
            return NotImplemented
        return self.timestamps == other.timestamps and all(
            self.column(atom) == other.column(atom)
            for atom in self._columns.keys() | other._columns.keys()
        )

    def __hash__(self) -> int:
        return hash(self.timestamps.tobytes())

    def __repr__(self) -> str:
        return f"TimedWord({len(self)} elements, atoms {sorted(self._columns)})"

    @property
    def atoms(self) -> frozenset[str]:
        """The atoms the word has a flag column for."""
        return frozenset(self._columns)

    def column(self, atom: str) -> bytes:
        """The atom's flags, one byte per element (all 0 for an atom the
        word has no column for).  Callers read it and never change it."""
        return self._columns.get(atom, self._absent)

    def timestamp_at(self, i: int) -> int:
        return self.timestamps[i]

    def index_of(self, instant: int) -> Optional[int]:
        """The element carrying the instant as its timestamp, or None."""
        i = bisect_left(self.timestamps, instant)
        if i < len(self.timestamps) and self.timestamps[i] == instant:
            return i
        return None


def word(*elements: tuple[Iterable[str], int]) -> TimedWord:
    """Convenience constructor: word(({'p'}, 1), ({'q'}, 7))."""
    columns: dict[str, bytearray] = {}
    for i, (atoms, _) in enumerate(elements):
        for atom in atoms:
            flags = columns.get(atom)
            if flags is None:
                flags = columns[atom] = bytearray(len(elements))
            flags[i] = 1
    return TimedWord((t for _, t in elements), columns)


def _stamp_error(stamp: bytes, number: int, previous: int) -> TraceError:
    """The error of line ``number``, whose first token ``stamp`` (UTF-8,
    lone surrogates passed through) is not a timestamp after ``previous``,
    the last one before it (0 before the first)."""
    if not stamp.isdigit():
        text = stamp.decode(errors="surrogatepass")
        return TraceError(f"timestamp {text!r} is not an integer", number)
    try:
        timestamp = int(stamp)
    except ValueError:  # more digits than int() reads: in range only if most are leading zeros
        digits = stamp.lstrip(b"0")
        if len(digits) > _STAMP_DIGITS:
            return TraceError(f"timestamp of {len(digits)} digits is out of range", number)
        timestamp = int(digits or b"0")
    if timestamp <= 0:
        return TraceError(f"timestamps must be strictly positive, got {timestamp}", number)
    if timestamp <= previous:
        return TraceError(f"non-monotonic timestamp {timestamp} (previous was {previous})", number)
    return TraceError(f"timestamp {timestamp} is out of range", number)


# \x1c-\x1f separate tokens for str.split but not for bytes.split; as
# spaces, an ASCII line's bytes split exactly as its text does
_SEPARATORS = bytes.maketrans(b"\x1c\x1d\x1e\x1f", b"    ")
# every byte but \n and \r that separates the tokens of an ASCII line
_BLANKS = bytes.maketrans(b"\t\x0b\x0c\x1c\x1d\x1e\x1f", b" " * 7)
_BLOCK = 1 << 12  # bytes per read; a block is the whole lines of one read or more


class _Parse:
    """One parse under way: the columns kept so far, and the state the next
    line is read in.  ``lines`` is the line loop and ``block`` the bulk
    pass; they share this state, so a stream's blocks can go to either in
    turn, and ``word`` ends the parse."""

    __slots__ = ("timestamps", "columns", "wanted", "lookahead", "capacity", "previous",
                 "limit", "split", "past", "number")

    def __init__(self, atoms: Optional[Iterable[str]], lookahead: Optional[int]) -> None:
        self.timestamps = array("q")
        self.columns: dict[bytes, bytearray] = {}  # by UTF-8 name, lone surrogates passed through
        self.wanted = None  # the (name, column) pairs of the atoms to read, or None to read every atom
        if atoms is not None:
            self.columns = {atom.encode(errors="surrogatepass"): bytearray() for atom in atoms}
            self.wanted = self.columns.items()  # a view: the columns popped in ``word`` are freed
        self.lookahead = lookahead
        self.capacity = 0  # the length of every column
        self.previous = 0  # the last timestamp read
        self.limit = TIMESTAMP_MAX  # the last instant kept, set from the first element
        self.split = -1  # the lines' maxsplit: every token, or past the limit only the timestamp
        self.past = 0  # the elements past the limit
        self.number = 0  # the lines read

    def lines(self, lines: Iterable[Union[str, bytes]]) -> None:
        """Read lines in the line loop (see ``parse_trace_lines``)."""
        timestamps, columns, wanted, lookahead = self.timestamps, self.columns, self.wanted, self.lookahead
        capacity, previous, limit, split, past, number = (
            self.capacity, self.previous, self.limit, self.split, self.past, self.number
        )
        for number, raw in enumerate(lines, start=number + 1):
            if isinstance(raw, bytes) and raw.isascii():
                tokens = raw.translate(_SEPARATORS).split(None, split)
            else:
                try:
                    text = raw if isinstance(raw, str) else raw.decode()
                except UnicodeDecodeError as exc:
                    raise TraceError(
                        f"byte 0x{raw[exc.start]:02x} at column {exc.start + 1} is not UTF-8 text", number
                    ) from None
                tokens = [token.encode(errors="surrogatepass") for token in text.split(None, split)]
            stamp = tokens[0] if tokens else b"#"  # a blank line reads as a comment
            try:
                timestamp = int(stamp) if stamp.isdigit() else 0
            except ValueError:  # more digits than int() reads: in range only if most are leading zeros
                timestamp = int(stamp.lstrip(b"0")[: _STAMP_DIGITS + 1] or b"0")
            if not previous < timestamp <= TIMESTAMP_MAX:
                if stamp.startswith(b"#"):
                    continue
                raise _stamp_error(stamp, number, previous)
            previous = timestamp
            if timestamp > limit:
                split = 1
                past += 1
                continue
            index = len(timestamps)
            timestamps.append(timestamp)
            if index == capacity:  # a first element too, which sets the limit
                if not index and lookahead is not None:
                    limit = timestamp + lookahead
                zeros = bytes(capacity or 64)
                capacity += len(zeros)
                for flags in columns.values():
                    flags += zeros
            del tokens[0]
            if wanted is None:
                for atom in tokens:
                    flags = columns.get(atom)
                    if flags is None:
                        flags = columns[atom] = bytearray(capacity)
                    flags[index] = 1
            else:
                for atom, flags in wanted:
                    if atom in tokens:
                        flags[index] = 1
        self.capacity, self.previous, self.limit, self.split, self.past, self.number = (
            capacity, previous, limit, split, past, number
        )

    def block(self, block: bytes) -> bool:
        """Read a block of whole lines in one bulk pass, if each of its
        lines is one the line loop would read as an element, and return
        whether it did; a block it declines is left unread.  Only a parse
        of given atoms, none of them empty or holding whitespace, may call
        it.  Each step is one bytes operation over the block or its lines."""
        if not block.isascii() or b"\r" in block:
            return False
        # each line with a space after it, so that its stamp ends at its first
        # space and it holds " a " just where atom a is a token after the stamp
        lines = block.translate(_BLANKS).replace(b"\n", b" \n").splitlines()
        stamps = list(map(itemgetter(0), map(bytes.partition, lines, repeat(b" "))))
        # each stamp non-empty, all digits and at most 18 of them, so that
        # int() reads each and each is below TIMESTAMP_MAX
        if not (all(stamps) and b"".join(stamps).isdigit()) or max(map(len, stamps)) >= _STAMP_DIGITS:
            return False
        stamps = list(map(int, stamps))
        if stamps[0] <= self.previous or not all(map(gt, islice(stamps, 1, None), stamps)):
            return False
        index = len(self.timestamps)
        if not index and self.lookahead is not None:
            self.limit = stamps[0] + self.lookahead
        kept = bisect_right(stamps, self.limit)
        self.previous = stamps[-1]
        self.number += len(stamps)
        self.past += len(stamps) - kept
        if kept < len(stamps):
            self.split = 1
        if kept:
            # one at a time, as the line loop appends them, so the array
            # ends with the capacity a line parse leaves it
            self.timestamps.extend(islice(stamps, kept))
            end = index + kept
            for atom, flags in self.wanted:
                key = b" " + atom + b" "
                flags[index:end] = bytes(map(ge, map(bytes.find, islice(lines, kept), repeat(key)), repeat(0)))
            self.capacity = max(self.capacity, end)
        return True

    def word(self) -> TimedWord:
        """The word read, with exact-size copies of the columns of the atoms
        that hold somewhere, made one at a time, since cutting a
        ``bytearray`` in place keeps its capacity."""
        timestamps, columns = self.timestamps, self.columns
        if not timestamps:
            raise TraceError("empty trace: checking needs at least one element")
        named: dict[str, bytearray] = {}
        for atom in list(columns):  # each grown column freed once copied
            flags = columns.pop(atom)
            if 1 in flags:
                named[atom.decode(errors="surrogatepass")] = flags[: len(timestamps)]
        return TimedWord._from_checked(timestamps, named, len(timestamps) + self.past)


def parse_trace_lines(
    lines: Iterable[Union[str, bytes]],
    atoms: Optional[Iterable[str]] = None,
    lookahead: Optional[int] = None,
) -> TimedWord:
    """Parse trace lines into a TimedWord; errors carry 1-based line numbers.

    This is the line loop.  It reads each line once, on its bytes: an
    ASCII ``bytes`` line is split as it is, and any other line is decoded
    (a ``str`` line is taken as it is), split as text and its tokens
    encoded back to UTF-8, so both split exactly as ``str.split`` does.  A
    line whose first token is not a timestamp after the last one is a
    comment when that token starts with ``#``, and an error otherwise;
    ``_stamp_error`` names the error only then.  The columns are built in
    the same pass: each line appends a timestamp and sets its atoms'
    flags, so nothing of a line but those outlives it.  Flag columns grow
    by doubling a shared capacity and are replaced by exact-size copies at
    the end, one at a time, since cutting a ``bytearray`` in place keeps
    its capacity.  The lines' checks are those of ``TimedWord``, so the
    word is built without a second pass over it.

    ``parse_trace`` runs the same loop, with the same state, on each block
    of a stream that its bulk pass declines: a block that is not ASCII,
    holds a ``\\r``, or has a line that does not start with a timestamp of
    at most 18 digits after the last one (a comment, a blank, a leading
    blank, a longer stamp or a defect), and every block of a parse of
    every atom.  So this loop is the one reader that raises, and a stream
    fails with the error and line number its lines fail with here.

    With ``atoms`` given, only those atoms get a column (and only those
    that hold somewhere), as the mapper of a MapReduce check reads only
    the formula's propositions.  With ``lookahead`` given, the word keeps
    only the elements up to the first timestamp plus the lookahead, the
    prefix a check whose formula has that lookahead reads; its
    ``trace_length`` still counts every element.  Past the kept prefix a
    line is split only as far as its timestamp, which gets the same check,
    so the errors and line numbers are those of a full parse.
    """
    parse = _Parse(atoms, lookahead)
    parse.lines(lines)
    return parse.word()


def _read_blocks(stream: BinaryIO) -> Iterator[bytes]:
    """A binary stream's bytes in blocks of whole lines, each ending with
    ``\\n``: each read is cut after its last ``\\n``, which always ends a
    line, and what follows the cut starts the next block.  The last block
    holds what follows the stream's last ``\\n``, if anything does, with a
    ``\\n`` added, which changes none of its lines."""
    pending: list[bytes] = []
    while data := stream.read(_BLOCK):
        cut = data.rfind(b"\n") + 1
        if cut:
            pending.append(data[:cut])
            yield b"".join(pending)
            pending = [data[cut:]]
        else:
            pending.append(data)
    if tail := b"".join(pending):
        yield tail + b"\n"


def split_lines(stream: BinaryIO) -> Iterator[bytes]:
    """A binary stream's lines as ``bytes.splitlines`` splits the whole:
    each block of whole lines ``parse_trace`` reads, split by
    ``bytes.splitlines``.  A ``readline`` per line made parsing measurably
    slower."""
    return chain.from_iterable(map(bytes.splitlines, _read_blocks(stream)))


def parse_trace(
    stream: BinaryIO, atoms: Optional[Iterable[str]] = None, lookahead: Optional[int] = None
) -> TimedWord:
    """Parse a byte stream of trace lines, split as ``bytes.splitlines``
    splits the whole, keeping the ``atoms`` columns only when they are
    given and, with ``lookahead``, only the elements up to the first
    timestamp plus it (see ``parse_trace_lines``).

    With atoms given, none of them empty or holding whitespace, each block
    of whole lines goes first to the bulk pass (``_Parse.block``) and, if
    the pass declines it, to the line loop; a block costs the pass a few
    bytes operations over the whole block or all its lines, where the
    line loop takes several Python steps per line.  A parse of every atom
    reads every line in the line loop."""
    parse = _Parse(atoms, lookahead)
    if atoms is not None and all(atom.split() == [atom] for atom in parse.columns):
        for block in _read_blocks(stream):
            if not parse.block(block):
                parse.lines(block.splitlines())
    else:
        parse.lines(split_lines(stream))
    return parse.word()


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic trace generator.

    Element i (0-based) gets timestamp i+1, keeping timestamps strictly
    positive while staying unit-spaced, which is what the worst-case
    window measurements need.  force_p pins atom p into every element;
    suppress_q guarantees atom q never occurs (q is otherwise part of the
    random pool).
    """

    n: int
    m: int
    seed: int = 0
    force_p: bool = False
    suppress_q: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.m < 1:
            raise ValueError("m must be at least 1")


def generate_trace(cfg: GeneratorConfig, out: BinaryIO) -> tuple[int, int]:
    """Write a synthetic trace; returns (element count, bytes written)."""
    rng = random.Random(cfg.seed)
    rest = [f"p{i}" for i in range(2, cfg.m + 1)]
    if not cfg.suppress_q:
        rest.append("q")
    written = 0
    for i in range(cfg.n):
        count = rng.randint(1, cfg.m)
        if cfg.force_p:
            picks = {"p"}
            if rest:
                picks.update(rng.choice(rest) for _ in range(count - 1))
        else:
            pool = ["p"] + rest
            picks = {rng.choice(pool) for _ in range(count)}
        line = f"{i + 1} {' '.join(sorted(picks))}\n"
        data = line.encode("utf-8")
        out.write(data)
        written += len(data)
    return cfg.n, written
