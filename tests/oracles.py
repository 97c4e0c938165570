"""Independent brute-force oracles used to pin down expected values.

Everything here is deliberately written from the semantic definitions with
plain recursion and enumeration, sharing only the AST / word classes and
the packed record layout with the package (representation, not behavior),
plus the reducers' input order, ``shuffle_sort``.  Package evaluators,
rewrites, reducers and the pipeline's marker seeding are judged against
these.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from hypothesis import strategies as st

from mtlcheck.engine import (
    ACT_CHILD,
    CHILD_MASK,
    POSITION_FLAG,
    SANCTIONED_FLAG,
    TAU_SHIFT,
    TRUTH_FLAG,
    EngineError,
    pack_record,
    shuffle_sort,
)
from mtlcheck.formula import (
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
)
from mtlcheck.trace import TimedWord


# ---------------------------------------------------------------------------
# Interval sampling oracle
# ---------------------------------------------------------------------------

def interval_sample_points(iv: Interval, denominator: int = 2, slack: int = 2) -> list[Fraction]:
    """All rationals with the given denominator inside a bounded interval."""
    assert iv.upper is not None
    points = []
    x = Fraction(iv.lower * denominator - slack * denominator, denominator)
    stop = Fraction(iv.upper * denominator + slack * denominator, denominator)
    while x <= stop:
        if _contains_fraction(iv, x):
            points.append(x)
        x += Fraction(1, denominator)
    return points


def _contains_fraction(iv: Interval, x: Fraction) -> bool:
    if x < iv.lower or (x == iv.lower and not iv.lower_closed):
        return False
    if iv.upper is None:
        return True
    if x > iv.upper or (x == iv.upper and not iv.upper_closed):
        return False
    return True


def sum_set_contains(i: Interval, j: Interval, x: int, denominator: int = 2) -> bool:
    """Whether integer x is a sum of a point of i and a point of j.

    Enumerates half-integer grids; for integer-bounded intervals the grid
    is complete (a single-point intersection of i with x - j can only sit
    at integer coordinates).
    """
    for a in interval_sample_points(i, denominator):
        if _contains_fraction(j, x - a):
            return True
    return False


def union_contains(i: Interval, j: Interval, x: int) -> bool:
    return _contains_fraction(i, Fraction(x)) or _contains_fraction(j, Fraction(x))


def intervals_overlap(i: Interval, j: Interval, denominator: int = 2) -> bool:
    for a in interval_sample_points(i, denominator):
        if _contains_fraction(j, a):
            return True
    return False


def hull_with_zero_contains(i: Interval, x: int, denominator: int = 2) -> bool:
    """Whether integer x lies in the smallest interval holding {0} and i."""
    if x == 0:
        return True
    if x < 0:
        return False
    return any(x <= a for a in interval_sample_points(i, denominator))


# ---------------------------------------------------------------------------
# Naive semantics (integer instants)
# ---------------------------------------------------------------------------

def naive_point(w: TimedWord, i: int, f: Formula, _memo: Optional[dict] = None) -> bool:
    """Point semantics by direct recursion over positions."""
    if not 0 <= i < len(w):
        raise IndexError(f"position {i} out of range")
    memo = _memo if _memo is not None else {}
    key = (f, i)
    if key in memo:
        return memo[key]
    timestamps = w.timestamps
    if isinstance(f, Atom):
        value = f.name in w.atoms_at(i)
    elif isinstance(f, Act):
        value = True
    elif isinstance(f, Not):
        value = not naive_point(w, i, f.child, memo)
    elif isinstance(f, And):
        value = naive_point(w, i, f.left, memo) and naive_point(w, i, f.right, memo)
    elif isinstance(f, Or):
        value = naive_point(w, i, f.left, memo) or naive_point(w, i, f.right, memo)
    elif isinstance(f, Until):
        value = False
        for j in range(i, len(w)):
            if not f.interval.contains(timestamps[j] - timestamps[i]):
                continue
            if not naive_point(w, j, f.right, memo):
                continue
            if all(naive_point(w, k, f.left, memo) for k in range(i + 1, j)):
                value = True
                break
    elif isinstance(f, Eventually):
        value = any(
            f.interval.contains(timestamps[j] - timestamps[i]) and naive_point(w, j, f.child, memo)
            for j in range(i, len(w))
        )
    elif isinstance(f, Globally):
        value = all(
            naive_point(w, j, f.child, memo)
            for j in range(i, len(w))
            if f.interval.contains(timestamps[j] - timestamps[i])
        )
    elif isinstance(f, ExactStep):
        value = any(
            timestamps[j] - timestamps[i] == f.step and naive_point(w, j, f.child, memo)
            for j in range(i, len(w))
        )
    else:
        raise TypeError(f"unknown node {f!r}")
    memo[key] = value
    return value


def _integer_witness_range(t: int, iv: Interval) -> range:
    assert iv.upper is not None
    lo = iv.lower if iv.lower_closed else iv.lower + 1
    hi = iv.upper if iv.upper_closed else iv.upper - 1
    return range(t + lo, t + hi + 1)


def naive_lazy(w: TimedWord, t: int, f: Formula, _memo: Optional[dict] = None) -> bool:
    """Lazy semantics by direct recursion over integer instants.

    Atoms and the position marker hold only at instants carrying a trace
    element; temporal witnesses range over all integer instants in the
    shifted interval; until's continuity is checked at positions only.
    """
    memo = _memo if _memo is not None else {}
    key = (f, t)
    if key in memo:
        return memo[key]
    timestamps = w.timestamps
    if isinstance(f, Atom):
        value = any(ts == t and f.name in atoms for atoms, ts in w.elements)
    elif isinstance(f, Act):
        value = t in timestamps
    elif isinstance(f, Not):
        value = not naive_lazy(w, t, f.child, memo)
    elif isinstance(f, And):
        value = naive_lazy(w, t, f.left, memo) and naive_lazy(w, t, f.right, memo)
    elif isinstance(f, Or):
        value = naive_lazy(w, t, f.left, memo) or naive_lazy(w, t, f.right, memo)
    elif isinstance(f, Until):
        if f.interval.upper is None:
            raise ValueError("lazy evaluation requires bounded intervals")
        value = False
        for tp in _integer_witness_range(t, f.interval):
            if not naive_lazy(w, tp, f.right, memo):
                continue
            if all(
                naive_lazy(w, ts, f.left, memo)
                for ts in timestamps
                if t < ts < tp
            ):
                value = True
                break
    elif isinstance(f, Eventually):
        if f.interval.upper is None:
            raise ValueError("lazy evaluation requires bounded intervals")
        value = any(naive_lazy(w, tp, f.child, memo) for tp in _integer_witness_range(t, f.interval))
    elif isinstance(f, Globally):
        if f.interval.upper is None:
            raise ValueError("lazy evaluation requires bounded intervals")
        value = all(naive_lazy(w, tp, f.child, memo) for tp in _integer_witness_range(t, f.interval))
    elif isinstance(f, ExactStep):
        value = naive_lazy(w, t + f.step, f.child, memo)
    else:
        raise TypeError(f"unknown node {f!r}")
    memo[key] = value
    return value


def naive_lazy_rational(w: TimedWord, t: Fraction, f: Formula, denominator: int,
                        _memo: Optional[dict] = None) -> bool:
    """Lazy semantics with witnesses on a 1/denominator rational grid.

    Used to confirm that quantifying over integers only does not change
    verdicts for the formula populations the package relies on.
    """
    memo = _memo if _memo is not None else {}
    key = (f, t)
    if key in memo:
        return memo[key]
    timestamps = w.timestamps

    def witnesses(iv: Interval) -> Iterable[Fraction]:
        assert iv.upper is not None
        step = Fraction(1, denominator)
        x = t + iv.lower
        stop = t + iv.upper
        while x <= stop:
            if _contains_fraction(iv, x - t):
                yield x
            x += step

    if isinstance(f, Atom):
        value = any(ts == t and f.name in atoms for atoms, ts in w.elements)
    elif isinstance(f, Act):
        value = any(ts == t for ts in timestamps)
    elif isinstance(f, Not):
        value = not naive_lazy_rational(w, t, f.child, denominator, memo)
    elif isinstance(f, And):
        value = (naive_lazy_rational(w, t, f.left, denominator, memo)
                 and naive_lazy_rational(w, t, f.right, denominator, memo))
    elif isinstance(f, Or):
        value = (naive_lazy_rational(w, t, f.left, denominator, memo)
                 or naive_lazy_rational(w, t, f.right, denominator, memo))
    elif isinstance(f, Until):
        value = False
        for tp in witnesses(f.interval):
            if not naive_lazy_rational(w, tp, f.right, denominator, memo):
                continue
            if all(
                naive_lazy_rational(w, Fraction(ts), f.left, denominator, memo)
                for ts in timestamps
                if t < ts < tp
            ):
                value = True
                break
    elif isinstance(f, Eventually):
        value = any(naive_lazy_rational(w, tp, f.child, denominator, memo)
                    for tp in witnesses(f.interval))
    elif isinstance(f, Globally):
        value = all(naive_lazy_rational(w, tp, f.child, denominator, memo)
                    for tp in witnesses(f.interval))
    elif isinstance(f, ExactStep):
        value = naive_lazy_rational(w, t + f.step, f.child, denominator, memo)
    else:
        raise TypeError(f"unknown node {f!r}")
    memo[key] = value
    return value


# ---------------------------------------------------------------------------
# Record fields the pipeline reads with inline masks
# ---------------------------------------------------------------------------

def record_child(r: int) -> int:
    return (r >> 3) & CHILD_MASK


def record_position(r: int) -> bool:
    return bool(r & POSITION_FLAG)


def record_sanctioned(r: int) -> bool:
    return bool(r & SANCTIONED_FLAG)


# ---------------------------------------------------------------------------
# Mapper oracle: markers planted record by record
# ---------------------------------------------------------------------------

def map_step(
    key_id: int,
    record: int,
    table: FormulaTable,
    offsets: dict[int, frozenset[int]],
) -> list[tuple[int, int]]:
    """Map one record of one key to the records it contributes upstream.

    Every record is routed to each superformula key.  A position record
    additionally plants sanctioned markers at the parent's offset instants
    and, under a decomposition-made exact-step parent, an (unsanctioned)
    marker one step ahead.  The function is pure: output depends only on
    the record and the job's static tables.  The runner seeds the same
    sanctioned markers per key instead; the tests pin the two routes
    together.
    """
    outs: list[tuple[int, int]] = []
    tau = record >> TAU_SHIFT
    is_real = ((record >> 3) & CHILD_MASK) != ACT_CHILD
    flagged = bool(record & POSITION_FLAG)
    for parent_id in sorted(table.parent_ids[key_id]):
        outs.append((parent_id, record))
        if is_real and flagged:
            for off in sorted(offsets.get(parent_id, frozenset((0,)))):
                if off:
                    outs.append(
                        (parent_id, pack_record(tau + off, ACT_CHILD, False, False, True))
                    )
            parent = table.node(parent_id)
            if isinstance(parent, ExactStep):
                outs.append(
                    (parent_id, pack_record(tau + parent.step, ACT_CHILD, False, False, False))
                )
    return outs


# ---------------------------------------------------------------------------
# Reducer oracles: per-instant brute force over deduplicated streams
# ---------------------------------------------------------------------------

def check_dup(records: Sequence[int], key_text: str = "?") -> list[int]:
    """Collapse duplicates in a shuffled stream (idempotent).

    A marker colliding with a position record at the same instant is
    dropped (the position record already triggers emission there);
    otherwise one marker per instant is kept.  Markers routinely share an
    instant with unflagged value records — whenever a key and its operand
    carry the same offset the operand's off-position value lands exactly
    on the key's marker instant — so only position records suppress them.
    Identical real duplicates collapse; real duplicates that disagree on
    truth are an error.
    """
    out: list[int] = []
    i = 0
    n = len(records)
    while i < n:
        tau = records[i] >> TAU_SHIFT
        saw_position = False
        kept_marker = False
        prev_child = -1
        prev_truth = False
        while i < n:
            r = records[i]
            if (r >> TAU_SHIFT) != tau:
                break
            child = (r >> 3) & CHILD_MASK
            if child != ACT_CHILD:
                truth = bool(r & TRUTH_FLAG)
                if child == prev_child:
                    if truth != prev_truth:
                        raise EngineError(
                            f"conflicting duplicate records for {key_text} at instant {tau}"
                        )
                else:
                    out.append(r)
                    prev_child = child
                    prev_truth = truth
                if r & POSITION_FLAG:
                    saw_position = True
            elif not saw_position and not kept_marker:
                out.append(r)
                kept_marker = True
            i += 1
    return out


Group = list[tuple[int, bool, bool]]


def _instant_groups(records: Sequence[int], key_text: str) -> list[tuple[int, Group]]:
    """check_dup(shuffle_sort(records)) grouped by instant, latest first, as
    (child, truth, position) triples; a marker is (ACT_CHILD, sanctioned, False)."""
    groups: dict[int, Group] = {}
    for r in check_dup(shuffle_sort(list(records)), key_text):
        child = (r >> 3) & CHILD_MASK
        flag = bool(r & (SANCTIONED_FLAG if child == ACT_CHILD else TRUTH_FLAG))
        groups.setdefault(r >> TAU_SHIFT, []).append((child, flag, bool(r & POSITION_FLAG)))
    return list(groups.items())


def _emission(group: Group) -> tuple[bool, bool]:
    """Whether an instant is answered, and whether it is a position."""
    position = any(child != ACT_CHILD and pos for child, _, pos in group)
    sanctioned = any(child == ACT_CHILD and flag for child, flag, _ in group)
    return position or sanctioned, position


def _retained(buffered: list[int], iv: Interval) -> int:
    """Buffered instants within the window span (iv widened to zero) of the
    nearest one."""
    if not buffered:
        return 0
    nearest = min(buffered)
    span = Interval(0, iv.upper, True, iv.upper_closed)
    return sum(1 for t in buffered if _contains_fraction(span, Fraction(t - nearest)))


def naive_reduce_window(records, child_id, iv, out_key, *, admit_any=False,
                        buffer_truth=True, negate=False, key_text="?"):
    """(outputs, peak buffer) of a window key, by scanning every buffered
    instant at every emission instant."""
    buffered: list[int] = []
    outputs: list[int] = []
    peak = 0
    for tau, group in _instant_groups(records, key_text):
        buffered += [
            tau for child, truth, pos in group
            if child == child_id and truth == buffer_truth and (admit_any or pos)
        ]
        peak = max(peak, _retained(buffered, iv))
        emit, pos_out = _emission(group)
        if emit:
            held = any(_contains_fraction(iv, Fraction(t - tau)) for t in buffered)
            outputs.append(pack_record(tau, out_key, held != negate, pos_out, False))
    return outputs, peak


def naive_reduce_until(records, left_id, right_id, iv, out_key, *, key_text="?"):
    """(outputs, peak buffer) of an until key: a right witness at a position
    counts when no left failure at a position lies strictly between."""
    witnesses: list[int] = []
    failures: list[int] = []
    outputs: list[int] = []
    peak = 0
    for tau, group in _instant_groups(records, key_text):
        at_positions = [
            (child, truth) for child, truth, pos in group if child != ACT_CHILD and pos
        ]
        witnesses += [tau for child, truth in at_positions if child == right_id and truth]
        live = [w for w in witnesses if not any(tau < t < w for t in failures)]
        peak = max(peak, _retained(live, iv))
        emit, pos_out = _emission(group)
        if emit:
            held = any(_contains_fraction(iv, Fraction(w - tau)) for w in live)
            outputs.append(pack_record(tau, out_key, held, pos_out, False))
        failures += [tau for child, truth in at_positions if child == left_id and not truth]
    return outputs, peak


def naive_reduce_join(records, operand_ids, operand_is_leaf, op, out_key, key_text="?"):
    """(outputs, 0) of a boolean key, operand values looked up per instant."""
    outputs: list[int] = []
    for tau, group in _instant_groups(records, key_text):
        emit, pos_out = _emission(group)
        if not emit:
            continue
        values = {child: truth for child, truth, _ in group if child != ACT_CHILD}
        resolved = []
        for oid, leaf in zip(operand_ids, operand_is_leaf):
            if oid not in values and not leaf:
                raise EngineError(f"missing operand value for {key_text} at instant {tau}")
            resolved.append(values.get(oid, False))
        if op == "not":
            val = not resolved[0]
        elif op == "and":
            val = resolved[0] and resolved[1]
        else:
            val = resolved[0] or resolved[1]
        outputs.append(pack_record(tau, out_key, val, pos_out, False))
    return outputs, 0


# ---------------------------------------------------------------------------
# Random instances (plain RNG, used by the bulk acceptance loops)
# ---------------------------------------------------------------------------

DEFAULT_ATOMS = ("p", "q", "r")


def random_interval(rng: random.Random, max_bound: int, allow_unbounded: bool = False) -> Interval:
    if allow_unbounded and rng.random() < 0.15:
        return Interval(rng.randint(0, max_bound), None, rng.random() < 0.5, False)
    lower = rng.randint(0, max_bound)
    upper = rng.randint(lower, max_bound)
    if lower == upper:
        return Interval(lower, upper, True, True)
    return Interval(lower, upper, rng.random() < 0.5, rng.random() < 0.5)


def random_formula(
    rng: random.Random,
    max_depth: int,
    max_bound: int,
    atoms: Sequence[str] = DEFAULT_ATOMS,
    allow_unbounded: bool = False,
) -> Formula:
    if max_depth <= 1 or rng.random() < 0.25:
        return Atom(rng.choice(atoms))
    kind = rng.choice(("not", "and", "or", "until", "eventually", "globally"))
    if kind == "not":
        return Not(random_formula(rng, max_depth - 1, max_bound, atoms, allow_unbounded))
    if kind in ("and", "or"):
        left = random_formula(rng, max_depth - 1, max_bound, atoms, allow_unbounded)
        right = random_formula(rng, max_depth - 1, max_bound, atoms, allow_unbounded)
        return And(left, right) if kind == "and" else Or(left, right)
    iv = random_interval(rng, max_bound, allow_unbounded)
    if kind == "until":
        left = random_formula(rng, max_depth - 1, max_bound, atoms, allow_unbounded)
        right = random_formula(rng, max_depth - 1, max_bound, atoms, allow_unbounded)
        return Until(iv, left, right)
    child = random_formula(rng, max_depth - 1, max_bound, atoms, allow_unbounded)
    return Eventually(iv, child) if kind == "eventually" else Globally(iv, child)


def random_word(
    rng: random.Random,
    max_len: int,
    max_timestamp: int,
    atoms: Sequence[str] = DEFAULT_ATOMS,
) -> TimedWord:
    length = rng.randint(1, max_len)
    length = min(length, max_timestamp)
    stamps = sorted(rng.sample(range(1, max_timestamp + 1), length))
    elements = []
    for ts in stamps:
        atom_set = frozenset(a for a in atoms if rng.random() < 0.5)
        elements.append((atom_set, ts))
    return TimedWord(tuple(elements))


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

def intervals(max_bound: int = 50, allow_unbounded: bool = False) -> st.SearchStrategy[Interval]:
    def build(lower: int, width: int, lower_closed: bool, upper_closed: bool, unbounded: bool) -> Interval:
        if allow_unbounded and unbounded:
            return Interval(lower, None, lower_closed, False)
        upper = min(lower + width, max_bound) if lower + width <= max_bound else max_bound
        upper = max(upper, lower)
        if lower == upper:
            return Interval(lower, upper, True, True)
        return Interval(lower, upper, lower_closed, upper_closed)

    return st.builds(
        build,
        st.integers(min_value=0, max_value=max_bound),
        st.integers(min_value=0, max_value=max_bound),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )


def formulas(
    max_depth: int = 4,
    max_bound: int = 12,
    atoms: Sequence[str] = DEFAULT_ATOMS,
    allow_unbounded: bool = False,
) -> st.SearchStrategy[Formula]:
    leaves = st.sampled_from([Atom(a) for a in atoms])
    iv = intervals(max_bound=max_bound, allow_unbounded=allow_unbounded)

    def extend(children: st.SearchStrategy[Formula]) -> st.SearchStrategy[Formula]:
        return st.one_of(
            st.builds(Not, children),
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Until, iv, children, children),
            st.builds(Eventually, iv, children),
            st.builds(Globally, iv, children),
        )

    return st.recursive(leaves, extend, max_leaves=2 ** (max_depth - 1))


def words(
    max_len: int = 10,
    max_timestamp: int = 30,
    atoms: Sequence[str] = DEFAULT_ATOMS,
) -> st.SearchStrategy[TimedWord]:
    def build(stamps: list[int], picks: list[int]) -> TimedWord:
        chosen = sorted(set(stamps))[:max_len]
        elements = []
        for idx, ts in enumerate(chosen):
            mask = picks[idx % len(picks)] if picks else 0
            atom_set = frozenset(a for bit, a in enumerate(atoms) if mask >> bit & 1)
            elements.append((atom_set, ts))
        return TimedWord(tuple(elements))

    return st.builds(
        build,
        st.lists(st.integers(min_value=1, max_value=max_timestamp), min_size=1, max_size=max_len),
        st.lists(st.integers(min_value=0, max_value=2 ** len(atoms) - 1), min_size=1, max_size=max_len),
    )
