"""Reference evaluators over timed words.

Two interpretations are provided:

* point: formulas are judged at trace positions; temporal operators
  quantify over later positions whose timestamp difference falls in the
  operator interval.
* lazy: formulas are judged at integer instants; temporal witnesses range
  over every integer instant in the shifted interval, while atoms and the
  position marker hold only at instants that carry a trace element, and
  until's continuity requirement is checked at position instants only.

``eval_table`` materializes every subformula's value over the full key
range (positions for point mode, ``[0, horizon]`` for lazy mode) and can be
exported as TSV.  The pipeline engine is validated against these tables.

Both evaluators read an atom through the word's flag column for it.  The
lazy evaluator finds the element at an instant, and until's positions
strictly between an instant and its witness, by bisection on the word's
timestamps, so a full lazy table costs no scan of the trace per instant.
"""

from __future__ import annotations

import io
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, TextIO, Union

from .formula import (
    Act,
    And,
    Atom,
    Eventually,
    ExactStep,
    Formula,
    FormulaTable,
    Globally,
    Interval,
    Not,
    Or,
    Until,
    analyze,
    node_interval,
    to_text,
)
from .trace import TimedWord

POINT = "point"
LAZY = "lazy"

ANCHOR_FIRST = "first"
ANCHOR_ZERO = "zero"

TRUE_CELL = "⊤"
FALSE_CELL = "⊥"


class EvaluationError(ValueError):
    """Raised for queries outside the defined range of an interpretation."""


def _witness_instants(t: int, interval: Interval) -> range:
    """Integer instants t' with t' - t inside the (bounded) interval."""
    if interval.upper is None:
        raise EvaluationError("lazy evaluation requires bounded temporal intervals")
    lower = interval.lower if interval.lower_closed else interval.lower + 1
    upper = interval.upper if interval.upper_closed else interval.upper - 1
    return range(t + lower, t + upper + 1)


class _PointEvaluator:
    """Memoized evaluation of formulas at trace positions."""

    def __init__(self, word: TimedWord) -> None:
        self.word = word
        self.memo: dict[tuple[Formula, int], bool] = {}

    def eval(self, f: Formula, i: int) -> bool:
        if not 0 <= i < len(self.word):
            raise EvaluationError(
                f"position {i} out of range for a trace of length {len(self.word)}"
            )
        key = (f, i)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        ts = self.word.timestamps
        if isinstance(f, Atom):
            value = self.word.column(f.name)[i] == 1
        elif isinstance(f, Act):
            value = True
        elif isinstance(f, Not):
            value = not self.eval(f.child, i)
        elif isinstance(f, And):
            value = self.eval(f.left, i) and self.eval(f.right, i)
        elif isinstance(f, Or):
            value = self.eval(f.left, i) or self.eval(f.right, i)
        elif isinstance(f, Until):
            value = False
            for j in range(i, len(self.word)):
                if f.interval.upper is not None and ts[j] - ts[i] > f.interval.upper:
                    break
                if not f.interval.contains(ts[j] - ts[i]):
                    continue
                if not self.eval(f.right, j):
                    continue
                if all(self.eval(f.left, k) for k in range(i + 1, j)):
                    value = True
                    break
        elif isinstance(f, (Eventually, ExactStep)):
            interval = node_interval(f)
            value = False
            for j in range(i, len(self.word)):
                if interval.upper is not None and ts[j] - ts[i] > interval.upper:
                    break
                if interval.contains(ts[j] - ts[i]) and self.eval(f.child, j):
                    value = True
                    break
        elif isinstance(f, Globally):
            value = True
            for j in range(i, len(self.word)):
                if f.interval.upper is not None and ts[j] - ts[i] > f.interval.upper:
                    break
                if f.interval.contains(ts[j] - ts[i]) and not self.eval(f.child, j):
                    value = False
                    break
        else:
            raise TypeError(f"unknown formula node {f!r}")
        self.memo[key] = value
        return value


class _LazyEvaluator:
    """Memoized evaluation of formulas at integer instants."""

    def __init__(self, word: TimedWord) -> None:
        self.word = word
        self.memo: dict[tuple[Formula, int], bool] = {}

    def eval(self, f: Formula, t: int) -> bool:
        key = (f, t)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        if isinstance(f, Atom):
            i = self.word.index_of(t)
            value = i is not None and self.word.column(f.name)[i] == 1
        elif isinstance(f, Act):
            value = self.word.index_of(t) is not None
        elif isinstance(f, Not):
            value = not self.eval(f.child, t)
        elif isinstance(f, And):
            value = self.eval(f.left, t) and self.eval(f.right, t)
        elif isinstance(f, Or):
            value = self.eval(f.left, t) or self.eval(f.right, t)
        elif isinstance(f, Until):
            value = False
            ts = self.word.timestamps
            after_t = bisect_right(ts, t)
            for tp in _witness_instants(t, f.interval):
                if not self.eval(f.right, tp):
                    continue
                # the positions strictly between t and the witness
                if all(
                    self.eval(f.left, ts[k])
                    for k in range(after_t, bisect_left(ts, tp))
                ):
                    value = True
                    break
        elif isinstance(f, (Eventually, ExactStep)):
            value = any(
                self.eval(f.child, tp)
                for tp in _witness_instants(t, node_interval(f))
            )
        elif isinstance(f, Globally):
            value = all(
                self.eval(f.child, tp)
                for tp in _witness_instants(t, f.interval)
            )
        else:
            raise TypeError(f"unknown formula node {f!r}")
        self.memo[key] = value
        return value


def eval_point(word: TimedWord, position: int, formula: Formula) -> bool:
    """Value of the formula at the given trace position (point semantics)."""
    return _PointEvaluator(word).eval(formula, position)


def eval_lazy(word: TimedWord, instant: int, formula: Formula) -> bool:
    """Value of the formula at the given integer instant (lazy semantics)."""
    return _LazyEvaluator(word).eval(formula, instant)


def lazy_horizon(word: TimedWord, table: FormulaTable) -> int:
    """Last instant a lazy table covers: final timestamp plus window spans."""
    total = 0
    for node in table.nodes:
        interval = node_interval(node)
        if interval is not None and interval.upper is not None:
            total += interval.upper
    return word.timestamps[-1] + total


@dataclass
class EvalTable:
    """Materialized truth values of every subformula over the key range."""

    word: TimedWord
    table: FormulaTable
    semantics: str
    keys: tuple[int, ...]
    rows: dict[int, dict[int, bool]]

    def value(self, f: Formula, key: int) -> bool:
        return self.rows[self.table.id_of[f]][key]

    def row(self, f: Formula) -> dict[int, bool]:
        return dict(self.rows[self.table.id_of[f]])

    def to_tsv(self, stream: TextIO) -> None:
        stream.write("formula\t" + "\t".join(str(k) for k in self.keys) + "\n")
        height = self.table.height_of
        for node_id in sorted(self.rows, key=lambda i: (height[i], i)):
            cells = [TRUE_CELL if self.rows[node_id][k] else FALSE_CELL for k in self.keys]
            stream.write(to_text(self.table.node(node_id)) + "\t" + "\t".join(cells) + "\n")

    def tsv_text(self) -> str:
        buf = io.StringIO()
        self.to_tsv(buf)
        return buf.getvalue()


def eval_table(word: TimedWord, formula: Formula, semantics: str) -> EvalTable:
    """Evaluate every subformula at every key of the chosen interpretation."""
    table = analyze(formula)
    if semantics == POINT:
        keys = tuple(range(len(word)))
        evaluator: Union[_PointEvaluator, _LazyEvaluator] = _PointEvaluator(word)
    elif semantics == LAZY:
        for node in table.nodes:
            interval = node_interval(node)
            if interval is not None and interval.upper is None:
                raise EvaluationError(
                    "lazy evaluation requires bounded temporal intervals"
                )
        keys = tuple(range(0, lazy_horizon(word, table) + 1))
        evaluator = _LazyEvaluator(word)
    else:
        raise ValueError(f"unknown semantics {semantics!r}")
    rows: dict[int, dict[int, bool]] = {}
    for node_id, node in enumerate(table.nodes, start=1):
        rows[node_id] = {k: evaluator.eval(node, k) for k in keys}
    return EvalTable(word=word, table=table, semantics=semantics, keys=keys, rows=rows)


def verdict(
    word: TimedWord,
    formula: Formula,
    semantics: str = POINT,
    anchor: str = ANCHOR_FIRST,
) -> bool:
    """Single truth value of the formula over the word.

    Point semantics anchors at the first position.  Lazy semantics anchors
    either at the first position's timestamp or at instant zero.
    """
    if semantics == POINT:
        if anchor != ANCHOR_FIRST:
            raise EvaluationError("point semantics only supports the first-position anchor")
        return eval_point(word, 0, formula)
    if semantics == LAZY:
        if anchor == ANCHOR_ZERO:
            return eval_lazy(word, 0, formula)
        if anchor == ANCHOR_FIRST:
            return eval_lazy(word, word.timestamps[0], formula)
        raise EvaluationError(f"unknown anchor {anchor!r}")
    raise ValueError(f"unknown semantics {semantics!r}")
