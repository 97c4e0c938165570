"""Timed words: the trace file format, ingestion, and the synthetic generator.

Trace files are line oriented text: each non-comment line is
``<timestamp> <atom> <atom> ...`` with ASCII decimal timestamps, any
whitespace run as separator, ``\\n`` line endings, and ``#`` starting a
comment line.  Timestamps must be strictly increasing and strictly
positive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Optional, Union


class TraceError(ValueError):
    """Raised for malformed or non-monotonic trace input.

    ``line`` is the 1-based number of the offending line, when there is one.
    """

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class TimedWord:
    """A finite sequence of (atom set, integer timestamp) elements."""

    elements: tuple[tuple[frozenset[str], int], ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise TraceError("a timed word needs at least one element")
        previous = 0
        for atoms, timestamp in self.elements:
            if timestamp <= previous:
                raise TraceError(
                    f"timestamps must be strictly increasing and positive, got {timestamp} after {previous}"
                )
            previous = timestamp

    def __len__(self) -> int:
        return len(self.elements)

    def atoms_at(self, i: int) -> frozenset[str]:
        return self.elements[i][0]

    def timestamp_at(self, i: int) -> int:
        return self.elements[i][1]

    @property
    def timestamps(self) -> tuple[int, ...]:
        return tuple(t for _, t in self.elements)


def word(*elements: tuple[Iterable[str], int]) -> TimedWord:
    """Convenience constructor: word(({'p'}, 1), ({'q'}, 7))."""
    return TimedWord(tuple((frozenset(atoms), t) for atoms, t in elements))


def _decode(line: Union[str, bytes], number: int) -> str:
    if isinstance(line, str):
        return line
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceError(
            f"byte 0x{line[exc.start]:02x} at column {exc.start + 1} is not UTF-8 text", number
        ) from None


def parse_trace_lines(lines: Iterable[Union[str, bytes]]) -> TimedWord:
    """Parse trace lines into a TimedWord; errors carry 1-based line numbers."""
    elements: list[tuple[frozenset[str], int]] = []
    previous: int | None = None
    for number, raw in enumerate(lines, start=1):
        line = _decode(raw, number).strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if not (tokens[0].isascii() and tokens[0].isdigit()):
            raise TraceError(f"timestamp {tokens[0]!r} is not an integer", number)
        timestamp = int(tokens[0])
        if timestamp <= 0:
            raise TraceError(f"timestamps must be strictly positive, got {timestamp}", number)
        if previous is not None and timestamp <= previous:
            raise TraceError(
                f"non-monotonic timestamp {timestamp} (previous was {previous})", number
            )
        previous = timestamp
        elements.append((frozenset(tokens[1:]), timestamp))
    if not elements:
        raise TraceError("empty trace: checking needs at least one element")
    return TimedWord(tuple(elements))


def parse_trace(stream: BinaryIO) -> TimedWord:
    """Parse a byte stream of trace lines."""
    return parse_trace_lines(stream)


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
