"""Formula rewrites that prepare point-semantics queries for lazy checking.

Each rewrite is a rule over one bottom-up ``formula.fold``: it names only
the node kinds it changes and leaves the others to ``with_children``, a
shared node object is rewritten once, and nothing recurses.

``lazy_translation`` rewrites a plain formula so that its lazy value at a
position's timestamp matches its point value at that position: temporal
witnesses are required to coincide with trace positions by conjoining the
position marker onto witness subformulas.

``decompose`` splits every bounded window wider than ``k`` into a chain of
exact ``k``-step hops around windows of width at most ``k``, preserving the
lazy value at every instant.  The eventually case distinguishes three
shapes (window already narrow; window reachable by whole hops; window that
overhangs the last hop).  The globally case is the dual rewrite through
negation.  A decomposition of more than ``MAX_HOPS`` hops is refused
before anything is built.

The until case takes one hop at a time::

    l U<a,b> r  ==  l U<a,k] r                          (only if a <= k and <a,k] nonempty)
                    or ( all positions in (0,k] satisfy l
                         and after exactly k steps: l U T r )

where T = <a-k, b-k> when a > k (original brackets) and T = (0, b-k>
otherwise.  A witness at exactly k steps is matched by the first disjunct
(whose upper end is closed), so the tail only needs witnesses strictly
beyond the hop; that is why T's lower end is open when a <= k.  Hops
repeat on ``l U T r`` until T is at most k wide.  The "all positions"
conjunct is expressed as a globally window over ``position -> l`` so that
non-position instants cannot violate it.  The rewrite is validated
against the reference evaluators over randomized formulas and words.

The translation's guards stay in the plan the pipeline checks.
``operands`` reads a guard (``Act & r``, or ``!Act | r`` under an until
hop) as the ``r`` it guards, so the pipeline indexes the guarded plan with
no key for a guard or for ``Act``, and its reducers admit only position
records as witnesses where a guard stood (see ``engine``).  Each key is
thus the guarded node whose lazy value its stream is checked against.
"""

from __future__ import annotations

from .formula import (
    Act,
    And,
    Eventually,
    ExactStep,
    Formula,
    Globally,
    Interval,
    Not,
    Or,
    Until,
    children,
    fold,
    node_interval,
    postorder,
    with_children,
)

# The most hops a decomposition may take, ceil(upper / k) per window wider
# than k.  A hop adds at most three keys (an until hop's exact step, And and
# Or), so the hops' keys fit the engine's 21-bit key ids (CHILD_MASK).
MAX_HOPS = ((1 << 21) - 1) // 3


class TransformError(ValueError):
    """Raised when a rewrite's input precondition is violated."""


_ACT = Act()
_NOT_ACT = Not(_ACT)


def _guard(f: Formula) -> Formula:
    return And(_ACT, f)


def operands(node: Formula) -> tuple[Formula, ...]:
    """The node's children, each position guard (``Act & r`` or ``!Act |
    r``) read as the ``r`` it guards: the children the pipeline reduces a
    key from.  Nodes are interned, so a guard is recognized by identity."""
    return tuple([
        kid.right if isinstance(kid, And) and kid.left is _ACT
        or isinstance(kid, Or) and kid.left is _NOT_ACT else kid
        for kid in children(node)
    ])


def lazy_translation(f: Formula) -> Formula:
    """Rewrite so lazy evaluation at a position timestamp matches point
    evaluation at that position."""
    return fold(f, _translate)


def _translate(f: Formula, kids: tuple[Formula, ...]) -> Formula:
    if isinstance(f, (Act, ExactStep)):
        raise TransformError(
            "translation input must not contain position markers or exact-step nodes"
        )
    if isinstance(f, Until):
        return Until(f.interval, kids[0], _guard(kids[1]))
    if isinstance(f, Eventually):
        return Eventually(f.interval, _guard(kids[0]))
    if isinstance(f, Globally):
        # all t': ... == not exists t' failing; witnesses must be positions.
        return Not(Eventually(f.interval, _guard(Not(kids[0]))))
    return with_children(f, kids)


def _uppers(f: Formula) -> list[int]:
    """The finite window upper bounds of the formula's node objects."""
    intervals = (node_interval(node) for node in postorder(f))
    return [i.upper for i in intervals if i is not None and i.upper is not None]


def max_bounded_upper(f: Formula) -> int:
    """Largest finite window upper bound occurring anywhere in the formula."""
    return max(_uppers(f), default=0)


def split_zero_window(child: Formula, step: int, span: int, span_closed: bool) -> Formula:
    """Cover a window of the given span from the current instant with
    step-sized chunks chained by exact hops."""
    hops = max(span - 1, 0) // step
    chain: Formula = Eventually(Interval(0, span - hops * step, True, span_closed), child)
    head = Eventually(Interval(0, step, True, True), child)
    for _ in range(hops):
        chain = Or(head, ExactStep(step, chain))
    return chain


def _decompose_eventually(interval: Interval, child: Formula, k: int) -> Formula:
    """The window ``interval`` (bounded, wider than k) as exact k-step hops."""
    a, b = interval.lower, interval.upper
    hops = a // k
    remainder = a % k
    if b <= (hops + 1) * k:
        # the residue window is kept even when it degenerates to [0,0]:
        # window reducers are what hold operands to position instants, so
        # collapsing it would let the step chain read the operand at
        # arbitrary instants
        inner: Formula = Eventually(
            Interval(remainder, b - hops * k, interval.lower_closed, interval.upper_closed),
            child,
        )
    else:
        head = Eventually(Interval(remainder, k, interval.lower_closed, True), child)
        overhang = b - (hops + 1) * k
        inner = Or(head, ExactStep(k, split_zero_window(child, k, overhang, interval.upper_closed)))
    for _ in range(hops):
        inner = ExactStep(k, inner)
    return inner


def _decompose_until(interval: Interval, left: Formula, right: Formula, k: int) -> Formula:
    """The until window ``interval`` (bounded, wider than k) as k-step hops."""
    hops: list[Interval] = []
    while interval.upper > k:
        hops.append(interval)
        a, b = interval.lower, interval.upper
        if a > k:
            interval = Interval(a - k, b - k, interval.lower_closed, interval.upper_closed)
        else:
            interval = Interval(0, b - k, False, interval.upper_closed)
    chain: Formula = Until(interval, left, right)
    # all positions in (0,k] satisfy l; non-positions cannot violate it
    all_left = Globally(Interval(0, k, False, True), Or(_NOT_ACT, left))
    for hop in reversed(hops):
        chain = And(all_left, ExactStep(k, chain))
        if hop.lower < k or (hop.lower == k and hop.lower_closed):
            chain = Or(Until(Interval(hop.lower, k, hop.lower_closed, True), left, right), chain)
    return chain


def decompose(f: Formula, k: int) -> Formula:
    """Split every bounded window wider than k into exact k-step hops.

    The result's lazy value equals the input's at every integer instant.
    """
    if k < 1:
        raise TransformError("window budget must be at least 1")
    hops = sum(-(-upper // k) for upper in _uppers(f) if upper > k)  # ceil(upper / k)
    if hops > MAX_HOPS:
        raise TransformError(
            f"window decomposition needs {hops} hops at budget {k}, over the limit of {MAX_HOPS}"
        )

    def split(node: Formula, kids: tuple[Formula, ...]) -> Formula:
        interval = node_interval(node)
        if interval is not None and interval.upper is None:
            raise TransformError("window decomposition requires bounded intervals")
        if interval is None or interval.upper <= k:
            return with_children(node, kids)
        if isinstance(node, Until):
            return _decompose_until(interval, *kids, k)
        if isinstance(node, Globally):
            return Not(_decompose_eventually(interval, Not(kids[0]), k))
        return _decompose_eventually(interval, kids[0], k)  # Eventually, ExactStep

    return fold(f, split)


def pipeline_formula(f: Formula, k: int) -> Formula:
    """The plan the distributed checker runs for a window budget of k: the
    guarded translation, decomposed.  Index it through ``operands``."""
    return decompose(lazy_translation(f), k)
