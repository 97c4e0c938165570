"""Timed words: the trace file format, ingestion, and the synthetic generator.

Trace files are line oriented text: each non-comment line is
``<timestamp> <atom> <atom> ...`` with ASCII decimal timestamps, any
whitespace run as separator, and ``#`` starting a comment line.  Both
``parse_trace`` and the command line split trace bytes with ``split_lines``
like ``bytes.splitlines``, so ``\\n``, ``\\r\\n`` and a lone ``\\r`` end a line,
while ``\\x0c``, ``\\x85`` and ``\\u2028`` stay inside one and separate its
tokens.  Timestamps must be strictly increasing and strictly positive.

A parsed word is stored by column: one ``array('q')`` of timestamps, 8 B
per element, and, per atom, one byte per element flagging where the atom
holds.  Timestamps therefore range from 1 to ``TIMESTAMP_MAX`` (2**63 - 1,
292 years of nanoseconds); a larger one is a line error.  A 10,500-element
trace over 21 atoms takes about 0.42 MiB this way, where one frozenset of
atom strings per element took about 10.5 MiB.  A parse can be asked for
some atoms only (a check asks for its formula's), and then keeps about
16 KB per atom besides about 90 KB of timestamps.  It can also be asked to
keep only the elements up to the first timestamp plus a formula's
lookahead, all that a check of the formula reads; past them it holds
nothing but the last timestamp and a count, so its memory stays flat in
the trace's length.  Every line is validated all the same, with the
errors and line numbers of a full parse.

Lines are read on their bytes: an ASCII line is split as bytes, and only
a line that is not ASCII is decoded, split as text and its tokens encoded
back, so every line splits as ``str.split`` splits its text.  Past the
kept prefix a line is split only as far as its timestamp.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from itertools import chain
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


def parse_trace_lines(
    lines: Iterable[Union[str, bytes]],
    atoms: Optional[Iterable[str]] = None,
    lookahead: Optional[int] = None,
) -> TimedWord:
    """Parse trace lines into a TimedWord; errors carry 1-based line numbers.

    One loop reads each line once, on its bytes: an ASCII ``bytes`` line
    is split as it is, and any other line is decoded (a ``str`` line is
    taken as it is), split as text and its tokens encoded back to UTF-8,
    so both split exactly as ``str.split`` does.  A line whose first token
    is not a timestamp after the last one is a comment when that token
    starts with ``#``, and an error otherwise; ``_stamp_error`` names the
    error only then.  The columns are built in the same pass: each line
    appends a timestamp and sets its atoms' flags, so nothing of a line
    but those outlives it.  Flag columns grow by doubling a shared
    capacity and are replaced by exact-size copies at the end, one at a
    time, since cutting a ``bytearray`` in place keeps its capacity.  The
    lines' checks are those of ``TimedWord``, so the word is built without
    a second pass over it.

    With ``atoms`` given, only those atoms get a column (and only those
    that hold somewhere), as the mapper of a MapReduce check reads only
    the formula's propositions.  With ``lookahead`` given, the word keeps
    only the elements up to the first timestamp plus the lookahead, the
    prefix a check whose formula has that lookahead reads; its
    ``trace_length`` still counts every element.  Past the kept prefix a
    line is split only as far as its timestamp, which gets the same check,
    so the errors and line numbers are those of a full parse.
    """
    timestamps = array("q")
    columns: dict[bytes, bytearray] = {}  # by UTF-8 name, lone surrogates passed through
    wanted = None  # the (name, column) pairs of the atoms to read, or None to read every atom
    if atoms is not None:
        columns = {atom.encode(errors="surrogatepass"): bytearray() for atom in atoms}
        wanted = columns.items()  # a view: the columns popped below are freed
    capacity = 0
    previous = 0
    limit = TIMESTAMP_MAX  # the last instant kept, set from the first element
    split = -1  # the lines' maxsplit: every token, or past the limit only the timestamp
    past = 0  # the elements past the limit
    for number, raw in enumerate(lines, start=1):
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
    if not timestamps:
        raise TraceError("empty trace: checking needs at least one element")
    named: dict[str, bytearray] = {}
    for atom in list(columns):  # one at a time, each grown column freed once copied
        flags = columns.pop(atom)
        if 1 in flags:
            named[atom.decode(errors="surrogatepass")] = flags[: len(timestamps)]
    return TimedWord._from_checked(timestamps, named, len(timestamps) + past)


def split_lines(stream: BinaryIO) -> Iterator[bytes]:
    """A binary stream's lines as ``bytes.splitlines`` splits the whole, from
    16 KiB blocks cut after their last ``\\n``, which always ends a line; a
    ``readline`` per line made parsing measurably slower."""

    def blocks() -> Iterator[list[bytes]]:
        pending: list[bytes] = []
        while block := stream.read(1 << 14):
            cut = block.rfind(b"\n") + 1
            if cut:
                pending.append(block[:cut])
                yield b"".join(pending).splitlines()
                pending = [block[cut:]]
            else:
                pending.append(block)
        yield b"".join(pending).splitlines()

    return chain.from_iterable(blocks())


def parse_trace(stream: BinaryIO, atoms: Optional[Iterable[str]] = None) -> TimedWord:
    """Parse a byte stream of trace lines, split as the command line does,
    keeping the ``atoms`` columns only when they are given."""
    return parse_trace_lines(split_lines(stream), atoms)


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
