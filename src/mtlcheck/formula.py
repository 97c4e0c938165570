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

import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, TypeVar

T = TypeVar("T")


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

    def __str__(self) -> str:
        if self.bounded and self.lower == self.upper:
            return f"={self.lower}"
        lb = "[" if self.lower_closed else "("
        if self.upper is None:
            return f"{lb}{self.lower},inf)"
        ub = "]" if self.upper_closed else ")"
        return f"{lb}{self.lower},{self.upper}{ub}"


def closed_bounds(interval: Interval) -> tuple[int, Optional[int]]:
    """An interval's integer members as closed bounds; upper None when
    unbounded (timestamps, hence distances, are integers)."""
    lo = interval.lower if interval.lower_closed else interval.lower + 1
    if interval.upper is None:
        return lo, None
    return lo, interval.upper if interval.upper_closed else interval.upper - 1


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

class _Interned(type):
    """Hash-consing (Filliâtre and Conchon, "Type-safe modular hash-consing",
    ML 2006): a node constructor returns the live node for its arguments
    when there is one, so structurally equal nodes are one object.  Nodes
    take positional arguments only, and the lookup is not locked: the
    package builds nodes from one thread."""

    def __call__(cls, *args):
        key = (cls, *args)
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = super().__call__(*args)
        return node


_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class Formula(metaclass=_Interned):
    """Base class for all formula nodes.  Nodes are immutable and interned,
    so node equality and hashing are identity: ``==`` is ``is``."""

    __slots__ = ("__weakref__",)

    def __str__(self) -> str:
        return to_text(self)


_node = dataclass(frozen=True, eq=False, slots=True)


@_node
class Atom(Formula):
    name: str


@_node
class Act(Formula):
    """Position-existence marker: true exactly where the trace has an element.

    Never produced by the parser; introduced by the lazy translation and
    consumed specially by the pipeline.
    """


@_node
class Not(Formula):
    child: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Until(Formula):
    interval: Interval
    left: Formula
    right: Formula


@_node
class Eventually(Formula):
    interval: Interval
    child: Formula


@_node
class Globally(Formula):
    interval: Interval
    child: Formula


@_node
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
    if isinstance(f, (Not, Eventually, Globally, ExactStep)):
        return (f.child,)
    if isinstance(f, (And, Or, Until)):
        return (f.left, f.right)
    if isinstance(f, (Atom, Act)):
        return ()
    raise TypeError(f"not a formula node: {f!r}")


Subformulas = Callable[[Formula], tuple[Formula, ...]]  # a node's children, as ``children`` gives


def node_interval(f: Formula) -> Optional[Interval]:
    """The timing interval carried by a node, if any (exact steps report [K,K])."""
    if isinstance(f, (Until, Eventually, Globally)):
        return f.interval
    if isinstance(f, ExactStep):
        return singleton(f.step)
    return None


# ---------------------------------------------------------------------------
# Tree walks: once per node, with an explicit stack, so neither the sharing
# (X's operand, operands between hops, any equal subtrees) nor the depth
# adds work.
# ---------------------------------------------------------------------------

def postorder(f: Formula, subformulas: Subformulas = children) -> list[Formula]:
    """Each node of ``f`` once, children before their parents and left
    before right.  ``subformulas`` gives a node's children; the pipeline
    passes ``transforms.operands``, which reads through position guards."""
    order: list[Formula] = []
    seen = {f}
    stack = [(f, iter(subformulas(f)))]
    while stack:
        node, kids = stack[-1]
        for kid in kids:
            if kid not in seen:
                seen.add(kid)
                stack.append((kid, iter(subformulas(kid))))
                break
        else:
            stack.pop()
            order.append(node)
    return order


def fold(f: Formula, rule: Callable[[Formula, tuple], T]) -> T:
    """The root's image, where ``rule(node, kid_images)`` gives a node's
    image, once, from the images of its children.  Each image is dropped
    once its last parent has read it, so the images held at any time are
    those still awaited, not every node's."""
    order = postorder(f)
    unread = Counter(kid for node in order for kid in children(node))
    image: dict[Formula, T] = {}
    for node in order:
        kids = children(node)
        image[node] = rule(node, tuple([image[kid] for kid in kids]))
        for kid in kids:
            unread[kid] -= 1
            if not unread[kid]:
                del image[kid]
    return image[f]


def lookahead(f: Formula) -> Optional[int]:
    """The largest sum of closed upper bounds (steps for exact steps) on a
    path from the root to a leaf: how far past the instant a verdict is
    read at the formula's value can depend on the trace.  None when an
    interval is unbounded.  Lazy translation adds no interval and
    decomposition keeps each window's extent, so a formula's rewritten
    plans have its lookahead."""

    def rule(node: Formula, kids: tuple) -> Optional[int]:
        interval = node_interval(node)
        up = 0 if interval is None else closed_bounds(interval)[1]
        if up is None or None in kids:
            return None
        return up + max(kids, default=0)

    return fold(f, rule)


def with_children(node: Formula, kids: tuple[Formula, ...]) -> Formula:
    """The node over new children; the node itself when they are its own."""
    if all(new is old for new, old in zip(kids, children(node))):
        return node
    if isinstance(node, (Until, Eventually, Globally)):
        return type(node)(node.interval, *kids)
    if isinstance(node, ExactStep):
        return ExactStep(node.step, *kids)
    return type(node)(*kids)


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

# binding strength and constructor of each binary operator, for parsing and
# printing; '|' and '&' group to the left, '->' and 'U' to the right
_BINARY = {
    "->": (1, lambda interval, a, b: Or(Not(a), b)),  # a -> b sugars to !a | b
    "|": (2, lambda interval, a, b: Or(a, b)),
    "&": (3, lambda interval, a, b: And(a, b)),
    "U": (4, Until),
}
_LEVEL_PREFIX = 5  # prefixes bind tighter than any binary operator
_LEVEL_ATOM = 6


def _wrap(kid: tuple[str, int], above: int) -> str:
    """A child's text, parenthesized unless it binds tighter than ``above``."""
    text, level = kid
    return text if level > above else "(" + text + ")"


def _render(f: Formula, kids: tuple[tuple[str, int], ...]) -> tuple[str, int]:
    """A node's text and binding level from its children's."""
    interval = node_interval(f)  # printed after the operator unless omitted
    suffix = "" if interval is None or interval == FULL else str(interval)
    if isinstance(f, (Atom, Act)):
        return f.name if isinstance(f, Atom) else "Act", _LEVEL_ATOM
    if isinstance(f, Not):
        return "!" + (kids[0][0] if isinstance(f.child, Not) else _wrap(kids[0], _LEVEL_PREFIX)), _LEVEL_PREFIX
    if isinstance(f, (Eventually, Globally, ExactStep)):  # an exact step prints as F=K
        op = "G" if isinstance(f, Globally) else "F"
        return op + suffix + " " + _wrap(kids[0], _LEVEL_PREFIX), _LEVEL_PREFIX
    if isinstance(f, Until):  # right associative
        own = _BINARY["U"][0]
        return f"{_wrap(kids[0], own)} U{suffix} {_wrap(kids[1], own - 1)}", own
    if isinstance(f, (And, Or)):  # left associative
        op = "&" if isinstance(f, And) else "|"
        own = _BINARY[op][0]
        return f"{_wrap(kids[0], own - 1)} {op} {_wrap(kids[1], own)}", own
    raise TypeError(f"not a formula node: {f!r}")


def to_text(f: Formula) -> str:
    """Render a formula in the input grammar (parseable unless it contains Act)."""
    return fold(f, _render)[0]


def node_texts(
    nodes: Iterable[Formula],
    subformulas: Subformulas = children,
    refs: Optional[dict[Formula, int]] = None,
    cap: Optional[int] = None,
) -> dict[Formula, str]:
    """The text of every node in ``nodes``, which lists each node after its
    children (as ``postorder`` and ``FormulaTable.nodes`` do, with the same
    ``subformulas``), in one pass that renders each node once from its
    children's texts.  Rendered over ``transforms.operands``, a key's text
    omits the position guards it reads through.  A ``to_text`` per node
    would fold its whole subtree again, so a chain of n nodes would copy on
    the order of n**3 characters instead of its texts' n**2.

    With ``refs`` and ``cap``, a node whose text is longer than ``cap``
    and that has a number in ``refs`` is written in its parents' texts as
    ``#`` and that number, so a chain's texts stay within about twice the
    cap each instead of growing with its depth; nodes with no number are
    written whole."""
    image: dict[Formula, tuple[str, int]] = {}
    texts: dict[Formula, str] = {}
    for node in nodes:
        text, level = _render(node, tuple([image[kid] for kid in subformulas(node)]))
        texts[node] = text
        if cap is not None and len(text) > cap and node in refs:
            text, level = f"#{refs[node]}", _LEVEL_ATOM
        image[node] = text, level
    return texts


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_RESERVED = {"F", "G", "U", "X", "Act", "inf"}
_DIGITS = frozenset("0123456789")  # str.isdigit also takes "²" and "٣"


class _Lexer:
    _PUNCT = ("->", "[", "]", "(", ")", ",", "=", "!", "&", "|")

    def __init__(self, text: str) -> None:
        self.text = text
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
            if ch in _DIGITS:
                j = i
                while j < n and text[j] in _DIGITS:
                    j += 1
                self.tokens.append(("num", text[i:j], i))
                i = j
                continue
            if ch == "-" and i + 1 < n and text[i + 1] in _DIGITS:
                j = i + 1
                while j < n and text[j] in _DIGITS:
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
        return singleton(int(lx.expect("num")))
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


_PREFIX = {
    "!": lambda interval, a: Not(a),
    "F": Eventually,
    "G": Globally,
    # X_I f == bottom U_{I without 0} f; bottom spelled from the operand
    "X": lambda interval, a: Until(without_zero(interval), And(a, Not(a)), a),
}


def _atom(tok: tuple[str, str, int]) -> Formula:
    if tok[0] == "ident":
        if tok[1] == "Act":
            raise FormulaError(f"'Act' is reserved and cannot appear in input (position {tok[2]})")
        if tok[1] in _RESERVED:
            raise FormulaError(f"unexpected keyword {tok[1]!r} at position {tok[2]}")
        return Atom(tok[1])
    raise FormulaError(
        f"expected a formula at position {tok[2]}, found {tok[1]!r}" if tok[1]
        else f"unexpected end of input at position {tok[2]}"
    )


def _reduce(operands: list[Formula], operators: list[tuple[str, Optional[Interval]]], above: int) -> None:
    """Combine the pending operators that bind tighter than ``above``, or
    as tightly when they group to the left."""
    while operators:
        op, interval = operators[-1]
        binding, build = _BINARY[op]
        if binding < above or binding == above and op in ("->", "U"):
            return
        operators.pop()
        right = operands.pop()
        operands[-1] = build(interval, operands[-1], right)


def _parse(lx: _Lexer) -> Formula:
    """Operator precedence over explicit stacks, with one group per open
    parenthesis, so neither prefix chains nor nesting recurse.  Prefixes
    bind tightest and apply innermost first."""
    groups: list[tuple[list, list, list]] = []  # the state each open group suspends
    operands: list[Formula] = []
    operators: list[tuple[str, Optional[Interval]]] = []
    prefixes: list[tuple[str, Optional[Interval]]] = []
    while True:
        tok = lx.next()
        if tok[1] in _PREFIX:
            prefixes.append((tok[1], None if tok[1] == "!" else _maybe_interval(lx)))
            continue
        if tok[1] == "(":
            groups.append((operands, operators, prefixes))
            operands, operators, prefixes = [], [], []
            continue
        node = _atom(tok)
        while True:
            for op, interval in reversed(prefixes):
                node = _PREFIX[op](interval, node)
            operands.append(node)
            tok = lx.peek()
            if tok[1] in _BINARY:
                lx.next()
                _reduce(operands, operators, _BINARY[tok[1]][0])
                operators.append((tok[1], _maybe_interval(lx) if tok[1] == "U" else None))
                prefixes = []
                break
            _reduce(operands, operators, 0)
            if not groups:
                return operands[0]
            lx.expect("punct", ")")
            node = operands[0]
            operands, operators, prefixes = groups.pop()


def parse_formula(text: str) -> Formula:
    """Parse formula text into an AST; raises FormulaError with a position."""
    lx = _Lexer(text)
    node = _parse(lx)
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

    Structurally equal subtrees are one interned node with one id, so the
    pipeline evaluates each distinct subformula once.  Ids are assigned
    children first, from 1, and ``child_ids``, ``parent_ids`` and
    ``height_of`` are lists indexed by id (slot 0 unused), so a key costs a
    list slot, not a dict entry.  Heights: atoms (and Act) are 1, every
    other node is one more than its tallest direct subformula.
    """

    root: Formula
    nodes: list[Formula] = field(default_factory=list)          # id -> node (ids from 1)
    id_of: dict[Formula, int] = field(default_factory=dict)
    child_ids: list[tuple[int, ...]] = field(default_factory=lambda: [()])
    parent_ids: list[tuple[int, ...]] = field(default_factory=lambda: [()])  # ascending
    height_of: list[int] = field(default_factory=lambda: [0])

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


def analyze(root: Formula, subformulas: Subformulas = children) -> FormulaTable:
    """Build the structural index used by evaluators and the pipeline, in
    one pass over the root's nodes, children first.  Nodes are interned,
    so each node of the root is a distinct subformula.  ``subformulas``
    gives a node's children: the pipeline indexes a guarded plan through
    ``transforms.operands``, so no position guard, nor ``Act``, is a key."""
    table = FormulaTable(root)
    parents: list[list[int]] = [[]]
    for f in postorder(root, subformulas):
        table.nodes.append(f)
        node_id = table.id_of[f] = len(table.nodes)
        kid_ids = tuple([table.id_of[kid] for kid in subformulas(f)])
        table.child_ids.append(kid_ids)
        table.height_of.append(1 + max([table.height_of[k] for k in kid_ids], default=0))
        parents.append([])
        for kid in set(kid_ids):  # once, if listed twice; ids ascend, so each list does too
            parents[kid].append(node_id)
    # one tuple per key: nearly every key has a single parent, and a
    # one-int tuple holds under half of what a one-int list does
    table.parent_ids = [tuple(ps) for ps in parents]
    return table
