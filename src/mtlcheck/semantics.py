"""The reference evaluator over timed words.

It reads a formula in one of two interpretations:

* point: formulas are judged at trace positions; temporal operators
  quantify over later positions whose timestamp difference falls in the
  operator interval.
* lazy: formulas are judged at integer instants; temporal witnesses range
  over every integer instant in the shifted interval, while atoms and the
  position marker hold only at instants that carry a trace element, and
  until's continuity requirement is checked at position instants only.

Each node kind is defined once, for both: only an atom's value at a key,
the keys an interval reaches from a key, and the positions strictly
between two keys depend on the interpretation.  A node is a generator
that yields the (subformula, key) pairs it reads and is sent back their
values, so a conjunction or a window stops at the first value that
settles it.  One loop runs the generators from an explicit stack and
memoizes every value, so a formula thousands of nodes deep (a deep
decomposition, a long negation chain) costs no recursion.

``eval_table`` materializes every subformula's value over the full key
range (positions for point mode, ``[0, horizon]`` for lazy mode) and can be
exported as TSV.  The pipeline engine is validated against these tables.

Atoms are read through the word's flag column for them.  Point semantics
finds the positions an interval reaches, and lazy semantics the element
at an instant and until's positions between an instant and its witness,
by bisection on the word's timestamps, so no key costs a scan of the
trace.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Generator, Iterable, TextIO

from .formula import (
    Act,
    And,
    Atom,
    Eventually,
    ExactStep,
    Formula,
    FormulaTable,
    Globally,
    Not,
    Or,
    Until,
    analyze,
    closed_bounds,
    node_interval,
    node_texts,
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


_Need = tuple[Formula, int]  # a subformula and the key it is read at


class _Evaluator:
    """Memoized evaluation of formulas at trace positions (point) or at
    integer instants (lazy)."""

    def __init__(self, word: TimedWord, lazy: bool) -> None:
        self.word = word
        self.lazy = lazy
        self.memo: dict[_Need, bool] = {}

    def _holds(self, f: Formula, key: int) -> bool:
        """An atom's or the position marker's value at a key."""
        i = self.word.index_of(key) if self.lazy else key
        return i is not None and (type(f) is Act or self.word.column(f.name)[i] == 1)

    def _reach(self, key: int, f: Formula) -> Iterable[int]:
        """The keys whose distance from ``key`` lies in the temporal node's
        interval, in increasing order."""
        lo, up = (f.step, f.step) if type(f) is ExactStep else closed_bounds(f.interval)
        if self.lazy:
            if up is None:
                raise EvaluationError("lazy evaluation requires bounded temporal intervals")
            return range(key + lo, key + up + 1)
        ts = self.word.timestamps
        stop = len(ts) if up is None else bisect_right(ts, ts[key] + up)
        return range(bisect_left(ts, ts[key] + lo), stop)

    def _between(self, key: int, later: int) -> Iterable[int]:
        """The keys of the positions strictly between two keys."""
        if not self.lazy:
            return range(key + 1, later)
        ts = self.word.timestamps
        return ts[bisect_right(ts, key):bisect_left(ts, later)]

    def _node(self, f: Formula, key: int) -> Generator[_Need, bool, bool]:
        """The value of ``f`` at ``key``, given the values of what it yields."""
        kind = type(f)  # nodes are never subclassed
        if kind is Atom or kind is Act:
            return self._holds(f, key)
        if kind is Not:
            return not (yield f.child, key)
        if kind is And:
            return (yield f.left, key) and (yield f.right, key)
        if kind is Or:
            return (yield f.left, key) or (yield f.right, key)
        if kind is Until:
            for later in self._reach(key, f):
                if not (yield f.right, later):
                    continue
                for k in self._between(key, later):
                    if not (yield f.left, k):
                        break
                else:
                    return True
            return False
        if kind is Eventually or kind is ExactStep or kind is Globally:
            # a window stops at its first witness, globally at its first violation
            sought = kind is not Globally
            for later in self._reach(key, f):
                if (yield f.child, later) == sought:
                    return sought
            return not sought
        raise TypeError(f"unknown formula node {f!r}")

    def eval(self, f: Formula, key: int) -> bool:
        if not self.lazy and not 0 <= key < len(self.word):
            raise EvaluationError(
                f"position {key} out of range for a trace of length {len(self.word)}"
            )
        memo = self.memo
        value = memo.get((f, key))
        if value is not None:
            return value
        # each frame is a node being evaluated and its generator; ``value``
        # is sent into the top one: None to start it, else what it yielded for
        stack = [((f, key), self._node(f, key))]
        while stack:
            need, node = stack[-1]
            try:
                wanted = node.send(value)
            except StopIteration as done:
                stack.pop()
                value = memo[need] = done.value
                continue
            value = memo.get(wanted)
            if value is None:
                stack.append((wanted, self._node(*wanted)))
        return value


def eval_point(word: TimedWord, position: int, formula: Formula) -> bool:
    """Value of the formula at the given trace position (point semantics)."""
    return _Evaluator(word, lazy=False).eval(formula, position)


def eval_lazy(word: TimedWord, instant: int, formula: Formula) -> bool:
    """Value of the formula at the given integer instant (lazy semantics)."""
    return _Evaluator(word, lazy=True).eval(formula, instant)


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

    def row(self, f: Formula) -> dict[int, bool]:
        return dict(self.rows[self.table.id_of[f]])

    def to_tsv(self, stream: TextIO) -> None:
        stream.write("formula\t" + "\t".join(str(k) for k in self.keys) + "\n")
        height = self.table.height_of
        texts = node_texts(self.table.nodes)
        for node_id in sorted(self.rows, key=lambda i: (height[i], i)):
            cells = [TRUE_CELL if self.rows[node_id][k] else FALSE_CELL for k in self.keys]
            stream.write(texts[self.table.node(node_id)] + "\t" + "\t".join(cells) + "\n")


def eval_table(word: TimedWord, formula: Formula, semantics: str) -> EvalTable:
    """Evaluate every subformula at every key of the chosen interpretation."""
    table = analyze(formula)
    if semantics == POINT:
        keys = tuple(range(len(word)))
    elif semantics == LAZY:
        for node in table.nodes:
            interval = node_interval(node)
            if interval is not None and interval.upper is None:
                raise EvaluationError(
                    "lazy evaluation requires bounded temporal intervals"
                )
        keys = tuple(range(0, lazy_horizon(word, table) + 1))
    else:
        raise ValueError(f"unknown semantics {semantics!r}")
    evaluator = _Evaluator(word, lazy=semantics == LAZY)
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
