"""Formula ASTs, the text grammar, and interval algebra.

The grammar (loosest to tightest binding)::

    formula  := disjunct ('->' formula)?          # a -> b sugars to !a | b
    disjunct := conjunct ('|' conjunct)*
    conjunct := untilexp ('&' untilexp)*
    untilexp := unary ('U' interval? untilexp)?   # right associative
    unary    := '!' unary
              | ('F' | 'G' | 'X') interval? unary
              | '(' formula ')'
              | atom
    interval := '=' NUM                           # =c is [c,c]
              | ('[' | '(') NUM ',' (NUM | 'inf') (']' | ')')

An omitted interval on F/G/U/X means [0,inf).  `X` is sugar: X_I f stands
for "bottom until_{I minus 0} f", with bottom spelled (f & !f) so no
reserved constructs leak in from user input.  The word `Act` (the
position-existence marker used by the lazy translation) is reserved and
rejected by the parser; it only ever appears in machine-built formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


class FormulaError(ValueError):
    """Raised for malformed formula text or invalid intervals."""


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """An interval over the naturals with open/closed ends.

    ``upper is None`` means unbounded above (always open on that side).
    Non-emptiness is required: lower < upper, or lower == upper with both
    ends closed.
    """

    lower: int
    upper: Optional[int]
    lower_closed: bool = True
    upper_closed: bool = True

    def __post_init__(self) -> None:
        if self.lower < 0 or (self.upper is not None and self.upper < 0):
            raise FormulaError("interval bounds must be non-negative")
        if self.upper is None:
            if self.upper_closed:
                raise FormulaError("an unbounded interval cannot be closed above")
            return
        if self.lower > self.upper:
            raise FormulaError(f"empty interval: lower {self.lower} > upper {self.upper}")
        if self.lower == self.upper and not (self.lower_closed and self.upper_closed):
            raise FormulaError("empty interval: equal bounds need both ends closed")

    @property
    def bounded(self) -> bool:
        return self.upper is not None

    def contains(self, t: Union[int, float]) -> bool:
        """Membership respecting endpoint closure."""
        if t < self.lower or (t == self.lower and not self.lower_closed):
            return False
        if self.upper is None:
            return True
        if t > self.upper or (t == self.upper and not self.upper_closed):
            return False
        return True

    def __str__(self) -> str:
        if self.bounded and self.lower == self.upper:
            return f"={self.lower}"
        lb = "[" if self.lower_closed else "("
        if self.upper is None:
            return f"{lb}{self.lower},inf)"
        ub = "]" if self.upper_closed else ")"
        return f"{lb}{self.lower},{self.upper}{ub}"


def singleton(c: int) -> Interval:
    """The interval [c,c]."""
    return Interval(c, c, True, True)


FULL = Interval(0, None, True, False)  # [0,inf), the default when omitted


def minkowski_sum(i: Interval, j: Interval) -> Interval:
    """Element-wise sum {x+y : x in i, y in j} of two bounded intervals.

    A result endpoint is closed exactly when both contributing endpoints
    are closed (an open contribution can only be approached, never hit).
    """
    if not i.bounded or not j.bounded:
        raise FormulaError("element-wise sum requires bounded intervals")
    return Interval(
        i.lower + j.lower,
        i.upper + j.upper,
        i.lower_closed and j.lower_closed,
        i.upper_closed and j.upper_closed,
    )


def overlap_union(i: Interval, j: Interval) -> Interval:
    """Union of two intervals that share at least one point.

    Overlap makes the union itself an interval; disjoint inputs are a
    caller error (merging them would invent points between the two).
    """
    lo, hi = (i, j) if (i.lower, not i.lower_closed) <= (j.lower, not j.lower_closed) else (j, i)
    # lo starts no later than hi; they overlap iff hi's start lies inside
    # the combined reach of lo (touching endpoints need one closed end).
    if lo.upper is not None:
        if hi.lower > lo.upper:
            raise FormulaError("cannot union disjoint intervals")
        if hi.lower == lo.upper and not (lo.upper_closed or hi.lower_closed):
            raise FormulaError("cannot union disjoint intervals")
    lower, lower_closed = lo.lower, lo.lower_closed
    if lo.lower == hi.lower:
        lower_closed = lo.lower_closed or hi.lower_closed
    if lo.upper is None or hi.upper is None:
        return Interval(lower, None, lower_closed, False)
    if hi.upper > lo.upper:
        upper, upper_closed = hi.upper, hi.upper_closed
    elif hi.upper < lo.upper:
        upper, upper_closed = lo.upper, lo.upper_closed
    else:
        upper, upper_closed = lo.upper, lo.upper_closed or hi.upper_closed
    return Interval(lower, upper, lower_closed, upper_closed)


def convex_union_with_zero(i: Interval) -> Interval:
    """Smallest interval containing {0} and all of ``i``.

    This is the retention span of the sliding windows: an entry is kept
    while its distance from the newest entry still falls in here.
    """
    return Interval(0, i.upper, True, i.upper_closed if i.upper is not None else False)


def without_zero(i: Interval) -> Interval:
    """Drop the point 0 from an interval (used by the X sugar)."""
    if i.lower == 0 and i.lower_closed:
        if i.upper == 0:
            raise FormulaError("interval {0} has nothing left without 0")
        return Interval(0, i.upper, False, i.upper_closed)
    return i


# ---------------------------------------------------------------------------
# Formula nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Formula:
    """Base class for all formula nodes; nodes are immutable and hashable."""

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Act(Formula):
    """Position-existence marker: true exactly where the trace has an element.

    Never produced by the parser; introduced by the lazy translation and
    consumed specially by the pipeline.
    """


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Until(Formula):
    interval: Interval
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    interval: Interval
    child: Formula


@dataclass(frozen=True)
class Globally(Formula):
    interval: Interval
    child: Formula


@dataclass(frozen=True)
class ExactStep(Formula):
    """F at exactly ``step`` time units ahead, as produced by decomposition.

    Semantically identical to Eventually([step,step], child); kept as its
    own node kind because the pipeline treats it differently: its window
    reducer admits witnesses that are not positions (the operand's values
    at virtual instants), and ``compute_offsets`` pushes the instants it
    is needed at forward by ``step`` to its operand.
    """

    step: int
    child: Formula

    def __post_init__(self) -> None:
        if self.step < 1:
            raise FormulaError("exact step must be at least 1")


def children(f: Formula) -> tuple[Formula, ...]:
    """Direct subformulas of a node, left to right."""
    if isinstance(f, (Atom, Act)):
        return ()
    if isinstance(f, Not):
        return (f.child,)
    if isinstance(f, (And, Or)):
        return (f.left, f.right)
    if isinstance(f, Until):
        return (f.left, f.right)
    if isinstance(f, (Eventually, Globally)):
        return (f.child,)
    if isinstance(f, ExactStep):
        return (f.child,)
    raise TypeError(f"not a formula node: {f!r}")


def node_interval(f: Formula) -> Optional[Interval]:
    """The timing interval carried by a node, if any (exact steps report [K,K])."""
    if isinstance(f, (Until, Eventually, Globally)):
        return f.interval
    if isinstance(f, ExactStep):
        return singleton(f.step)
    return None


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

_LEVEL_OR = 2
_LEVEL_AND = 3
_LEVEL_UNTIL = 4
_LEVEL_PREFIX = 5
_LEVEL_ATOM = 6


def _level(f: Formula) -> int:
    if isinstance(f, (Atom, Act)):
        return _LEVEL_ATOM
    if isinstance(f, (Not, Eventually, Globally, ExactStep)):
        return _LEVEL_PREFIX
    if isinstance(f, Until):
        return _LEVEL_UNTIL
    if isinstance(f, And):
        return _LEVEL_AND
    if isinstance(f, Or):
        return _LEVEL_OR
    raise TypeError(f"not a formula node: {f!r}")


def _interval_suffix(i: Interval) -> str:
    return "" if i == FULL else str(i)


def _prefix_operand(f: Formula) -> str:
    if isinstance(f, (Atom, Act)):
        return " " + to_text(f)
    return " (" + to_text(f) + ")"


def to_text(f: Formula) -> str:
    """Render a formula in the input grammar (parseable unless it contains Act)."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Act):
        return "Act"
    if isinstance(f, Not):
        if isinstance(f.child, (Atom, Act)):
            return "!" + to_text(f.child)
        if isinstance(f.child, Not):
            return "!" + to_text(f.child)
        return "!(" + to_text(f.child) + ")"
    if isinstance(f, Eventually):
        return "F" + _interval_suffix(f.interval) + _prefix_operand(f.child)
    if isinstance(f, Globally):
        return "G" + _interval_suffix(f.interval) + _prefix_operand(f.child)
    if isinstance(f, ExactStep):
        return f"F={f.step}" + _prefix_operand(f.child)
    if isinstance(f, Until):
        left = to_text(f.left)
        if _level(f.left) <= _LEVEL_UNTIL:  # U is right associative
            left = "(" + left + ")"
        right = to_text(f.right)
        if _level(f.right) < _LEVEL_UNTIL:
            right = "(" + right + ")"
        return f"{left} U{_interval_suffix(f.interval)} {right}"
    if isinstance(f, (And, Or)):
        own = _level(f)
        op = "&" if isinstance(f, And) else "|"
        left = to_text(f.left)
        if _level(f.left) < own:
            left = "(" + left + ")"
        right = to_text(f.right)
        if _level(f.right) <= own:  # left associative
            right = "(" + right + ")"
        return f"{left} {op} {right}"
    raise TypeError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_RESERVED = {"F", "G", "U", "X", "Act", "inf"}


class _Lexer:
    _PUNCT = ("->", "[", "]", "(", ")", ",", "=", "!", "&", "|")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []  # (kind, value, offset)
        self._scan()
        self.index = 0

    def _scan(self) -> None:
        text, n = self.text, len(self.text)
        i = 0
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.tokens.append(("num", text[i:j], i))
                i = j
                continue
            if ch == "-" and i + 1 < n and text[i + 1].isdigit():
                j = i + 1
                while j < n and text[j].isdigit():
                    j += 1
                self.tokens.append(("num", text[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], i))
                i = j
                continue
            for punct in self._PUNCT:
                if text.startswith(punct, i):
                    self.tokens.append(("punct", punct, i))
                    i += len(punct)
                    break
            else:
                raise FormulaError(f"unexpected character {ch!r} at position {i}")
        self.tokens.append(("end", "", n))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[str]:
        tok = self.peek()
        if tok[0] == kind and (value is None or tok[1] == value):
            self.next()
            return tok[1]
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> str:
        got = self.accept(kind, value)
        if got is None:
            tok = self.peek()
            want = value if value is not None else kind
            raise FormulaError(
                f"expected {want!r} at position {tok[2]}, found {tok[1]!r}" if tok[1]
                else f"expected {want!r} at position {tok[2]}, found end of input"
            )
        return got


def _parse_interval(lx: _Lexer) -> Interval:
    if lx.accept("punct", "="):
        tok = lx.expect("num")
        value = int(tok)
        if value < 0:
            raise FormulaError("interval bounds must be non-negative")
        return singleton(value)
    tok = lx.peek()
    if tok[0] == "punct" and tok[1] in ("[", "("):
        open_tok = lx.next()[1]
        lower = int(lx.expect("num"))
        lx.expect("punct", ",")
        if lx.accept("ident", "inf"):
            upper: Optional[int] = None
        else:
            upper = int(lx.expect("num"))
        close = lx.peek()
        if close[0] == "punct" and close[1] in ("]", ")"):
            lx.next()
        else:
            raise FormulaError(f"expected ']' or ')' at position {close[2]}")
        if lower < 0 or (upper is not None and upper < 0):
            raise FormulaError("interval bounds must be non-negative")
        if upper is None and close[1] == "]":
            raise FormulaError("an unbounded interval cannot be closed above")
        return Interval(lower, upper, open_tok == "[", close[1] == "]")
    return FULL


def _maybe_interval(lx: _Lexer) -> Interval:
    tok = lx.peek()
    if tok[0] == "punct" and tok[1] in ("=", "[",):
        return _parse_interval(lx)
    if tok[0] == "punct" and tok[1] == "(":
        # lookahead: "(num," starts an interval, otherwise it is a grouped formula
        nxt = lx.tokens[lx.index + 1]
        if nxt[0] == "num":
            after = lx.tokens[lx.index + 2]
            if after[0] == "punct" and after[1] == ",":
                return _parse_interval(lx)
    return FULL


def _parse_unary(lx: _Lexer) -> Formula:
    tok = lx.peek()
    if tok[0] == "punct" and tok[1] == "!":
        lx.next()
        return Not(_parse_unary(lx))
    if tok[0] == "ident" and tok[1] in ("F", "G", "X"):
        lx.next()
        interval = _maybe_interval(lx)
        operand = _parse_unary(lx)
        if tok[1] == "F":
            return Eventually(interval, operand)
        if tok[1] == "G":
            return Globally(interval, operand)
        # X_I f == bottom U_{I without 0} f; bottom spelled from the operand
        return Until(without_zero(interval), And(operand, Not(operand)), operand)
    if tok[0] == "punct" and tok[1] == "(":
        lx.next()
        inner = _parse_implies(lx)
        lx.expect("punct", ")")
        return inner
    if tok[0] == "ident":
        if tok[1] == "Act":
            raise FormulaError(f"'Act' is reserved and cannot appear in input (position {tok[2]})")
        if tok[1] in _RESERVED:
            raise FormulaError(f"unexpected keyword {tok[1]!r} at position {tok[2]}")
        lx.next()
        return Atom(tok[1])
    raise FormulaError(
        f"expected a formula at position {tok[2]}, found {tok[1]!r}" if tok[1]
        else f"unexpected end of input at position {tok[2]}"
    )


def _parse_until(lx: _Lexer) -> Formula:
    left = _parse_unary(lx)
    if lx.accept("ident", "U") is not None:
        interval = _maybe_interval(lx)
        right = _parse_until(lx)
        return Until(interval, left, right)
    return left


def _parse_and(lx: _Lexer) -> Formula:
    node = _parse_until(lx)
    while lx.accept("punct", "&") is not None:
        node = And(node, _parse_until(lx))
    return node


def _parse_or(lx: _Lexer) -> Formula:
    node = _parse_and(lx)
    while lx.accept("punct", "|") is not None:
        node = Or(node, _parse_and(lx))
    return node


def _parse_implies(lx: _Lexer) -> Formula:
    node = _parse_or(lx)
    if lx.accept("punct", "->") is not None:
        return Or(Not(node), _parse_implies(lx))
    return node


def parse_formula(text: str) -> Formula:
    """Parse formula text into an AST; raises FormulaError with a position."""
    lx = _Lexer(text)
    node = _parse_implies(lx)
    tok = lx.peek()
    if tok[0] != "end":
        raise FormulaError(f"trailing input at position {tok[2]}: {tok[1]!r}")
    return node


# ---------------------------------------------------------------------------
# Structural analysis
# ---------------------------------------------------------------------------

@dataclass
class FormulaTable:
    """Structural index of a formula: one id per distinct subformula.

    Structurally equal subtrees share an id, so the pipeline evaluates each
    distinct subformula once.  Heights: atoms (and Act) are 1, every other
    node is one more than its tallest direct subformula.
    """

    root: Formula
    nodes: list[Formula] = field(default_factory=list)          # id -> node (ids from 1)
    id_of: dict[Formula, int] = field(default_factory=dict)
    child_ids: dict[int, tuple[int, ...]] = field(default_factory=dict)
    parent_ids: dict[int, frozenset[int]] = field(default_factory=dict)
    height_of: dict[int, int] = field(default_factory=dict)

    def node(self, node_id: int) -> Formula:
        return self.nodes[node_id - 1]

    @property
    def root_id(self) -> int:
        return self.id_of[self.root]

    @property
    def height(self) -> int:
        return self.height_of[self.root_id]

    @property
    def size(self) -> int:
        """Number of distinct subformulas, the root included."""
        return len(self.nodes)


def analyze(root: Formula) -> FormulaTable:
    """Build the structural index used by evaluators and the pipeline."""
    table = FormulaTable(root)

    def visit(f: Formula) -> int:
        known = table.id_of.get(f)
        if known is not None:
            return known
        kid_ids = tuple(visit(c) for c in children(f))
        table.nodes.append(f)
        node_id = len(table.nodes)
        table.id_of[f] = node_id
        table.child_ids[node_id] = kid_ids
        if kid_ids:
            table.height_of[node_id] = 1 + max(table.height_of[k] for k in kid_ids)
        else:
            table.height_of[node_id] = 1
        return node_id

    visit(root)
    parents: dict[int, set[int]] = {i: set() for i in range(1, len(table.nodes) + 1)}
    for pid, kids in table.child_ids.items():
        for kid in kids:
            parents[kid].add(pid)
    table.parent_ids = {i: frozenset(ps) for i, ps in parents.items()}
    return table
