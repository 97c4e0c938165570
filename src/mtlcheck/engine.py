"""MapReduce-style pipeline for trace checking.

The pipeline evaluates one key per distinct subformula.  A read step turns
trace elements into atom records; each later iteration reduces all keys of
the next height, so a run takes as many iterations as the formula is tall.
Every key's output is routed to the keys of its superformulas, and each
key also receives sanctioned virtual-instant markers; reducers process one
key's records in descending timestamp order with a sliding window whose
retention span is the key's interval widened to zero.

Records are packed into single integers::

    (timestamp << 24) | (child_id << 3) | flags

with flag bits 1 = truth, 2 = position record, 4 = sanctioned marker.
Child id 0 is reserved for the position marker; formula node ids start
at 1.  A record's key is implicit in the per-key list holding it.

There are two reducers: ``reduce_window`` for eventually, globally,
exact-step and until keys, and ``reduce_join`` for boolean keys.  Each
takes its key's raw stream sorted by ``shuffle_sort`` and, in a single
pass, groups it by instant and deduplicates while it reduces.

- An instant emits output iff it holds a position record or a sanctioned
  marker.  Unsanctioned markers are consumed but never answered, since the
  instants they point at are not always instants the key's operands were
  evaluated at; repeated markers change nothing.
- Real records of one child at one instant are adjacent in sorted order:
  a repeat that agrees in truth is skipped, one that disagrees raises
  ``EngineError``.
- Eventually, globally and until keys admit only position records as
  witnesses, violations or cuts (this stands in for the stripped
  position-marker guards; see transforms), while exact-step keys admit
  any record.

Window buffers answer each probe in amortized O(1): a second head skips
entries beyond the interval's upper edge, which never come back in range
as instants decrease (the monotone-window idea of Lemire's streaming
min/max filter).

The runner keeps one inbox list per key and reduces the keys one at a
time, in order of height.  A key's sanctioned markers are planted from
the precomputed offset sets only when the key is reduced, and each key's
inbox is dropped as soon as it has been reduced, so the records alive at
any time are the current key's inputs plus the outputs already routed to
taller keys.  Planting markers per key instead of record by record
through a mapper changes no output: the mapper's sanctioned instants are
exactly the position set shifted by the key's offsets, and the markers it
would add beyond those (repeats, markers at position instants and
unsanctioned ones) are ones the reducers ignore.  The test suite pins
this against a record-by-record mapper oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

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
    convex_union_with_zero,
    node_interval,
    to_text,
)
from .semantics import ANCHOR_FIRST, ANCHOR_ZERO, LAZY, POINT
from .trace import TimedWord, parse_trace_lines
from .transforms import pipeline_formula

ACT_CHILD = 0
CHILD_BITS = 21
CHILD_MASK = (1 << CHILD_BITS) - 1
TAU_SHIFT = CHILD_BITS + 3
TRUTH_FLAG = 1
POSITION_FLAG = 2
SANCTIONED_FLAG = 4


class EngineError(RuntimeError):
    """Raised when pipeline configuration or invariants are violated."""


# ---------------------------------------------------------------------------
# Packed records
# ---------------------------------------------------------------------------

def pack_record(tau: int, child: int, truth: bool, position: bool, sanctioned: bool) -> int:
    flags = (TRUTH_FLAG if truth else 0) | (POSITION_FLAG if position else 0) | (
        SANCTIONED_FLAG if sanctioned else 0
    )
    return (tau << TAU_SHIFT) | (child << 3) | flags


def record_tau(r: int) -> int:
    return r >> TAU_SHIFT


def record_truth(r: int) -> bool:
    return bool(r & TRUTH_FLAG)


# ---------------------------------------------------------------------------
# Pipeline operators
# ---------------------------------------------------------------------------

def atom_records(word: TimedWord, table: FormulaTable) -> dict[int, list[int]]:
    """The read step: one position record per trace element and atom key."""
    per_atom: dict[int, list[int]] = {}
    for node in table.nodes:
        if isinstance(node, Atom):
            aid = table.id_of[node]
            held = pack_record(0, aid, True, True, False)
            absent = pack_record(0, aid, False, True, False)
            per_atom[aid] = [
                (tau << TAU_SHIFT) | (held if node.name in atoms else absent)
                for atoms, tau in word.elements
            ]
    return per_atom


def input_read(lines: Iterable[Union[str, bytes]]) -> tuple[TimedWord, int]:
    """Parse trace text in one pass; returns the word and its first
    timestamp, the instant a verdict is read at by default.  A parse
    failure raises ``TraceError`` naming the failing line."""
    word = parse_trace_lines(lines)
    return word, word.elements[0][1]


def compute_offsets(table: FormulaTable) -> dict[int, frozenset[int]]:
    """Virtual-instant offsets per key: the shifts (relative to position
    timestamps) at which each key's value is needed by its superformulas.

    Exact-step parents push their offsets forward by their step; boolean
    parents pass offsets through; window parents need only position
    instants from their operands.  Processing in decreasing height order
    is sound because every parent is strictly taller than its children.
    """
    working: dict[int, set[int]] = {i: {0} for i in range(1, table.size + 1)}
    order = sorted(range(1, table.size + 1), key=lambda i: -table.height_of[i])
    for node_id in order:
        node = table.node(node_id)
        if isinstance(node, ExactStep):
            contribution = {o + node.step for o in working[node_id]}
        elif isinstance(node, (Not, And, Or)):
            contribution = set(working[node_id])
        else:
            contribution = set()
        if contribution:
            for child in table.child_ids[node_id]:
                working[child] |= contribution
    return {i: frozenset(s) for i, s in working.items()}


def shuffle_sort(records: list[int]) -> list[int]:
    """Order one key's records for reduction: timestamps descending; within
    a timestamp real records first (higher child ids first), then sanctioned
    markers, then unsanctioned ones."""
    records.sort(reverse=True)
    return records


# ---------------------------------------------------------------------------
# Reducers
# ---------------------------------------------------------------------------

REAL_MASK = CHILD_MASK << 3  # nonzero exactly for real (non-marker) records
COMPACT_AFTER = 1024  # evicted slots a window buffer keeps before compacting


def _closed_bounds(interval) -> tuple[int, Optional[int]]:
    """An interval's integer members as closed bounds; upper None when
    unbounded (timestamps, hence distances, are integers)."""
    lo = interval.lower if interval.lower_closed else interval.lower + 1
    if interval.upper is None:
        return lo, None
    return lo, interval.upper if interval.upper_closed else interval.upper - 1


def _conflict(key_text: str, tau: int) -> EngineError:
    return EngineError(f"conflicting duplicate records for {key_text} at instant {tau}")


def reduce_window(
    records: Sequence[int],
    child_id: int,
    interval,
    out_key: int,
    *,
    admit_any: bool = False,
    buffer_truth: bool = True,
    negate: bool = False,
    cut_id: Optional[int] = None,
    key_text: str = "?",
) -> tuple[list[int], int]:
    """Sliding-window reducer for eventually / globally / exact-step / until
    keys.

    Buffers the child records of the sought polarity (witnesses for
    eventually and exact-step, violations for globally, right-operand
    witnesses for until), keeps the buffer within the zero-widened interval
    span, and answers each emission instant by probing the buffer against
    the shifted interval.  Until is eventually over its right operand
    (``F[I] r`` is ``true U[I] r``) except that a failing left operand cuts
    off older witnesses: with ``cut_id`` set, a position record of that
    child with truth false discards, after the instant is answered, every
    buffered witness later than the instant.

    The buffer ``win[head:]`` holds instants in descending order.  ``head``
    evicts entries whose spread from the newest entry exceeds the span (or
    that a cut discarded); ``far`` skips entries beyond the interval's
    upper edge, which never come back in range because instants only
    decrease.  A probe then reads the farthest live entry, ``win[far]``, so
    each is amortized O(1).  Evicted slots are dropped in bulk once they
    outnumber the live ones, so memory stays proportional to the window,
    not to the stream.

    Boolean keys keep their own loop in ``reduce_join``: folding the join
    in as well (operand values per instant instead of a buffer) measured
    17% slower on the decomposed benchmark workload and 20% slower on the
    sparse nested one.
    """
    lo, up = _closed_bounds(interval)
    span = _closed_bounds(convex_union_with_zero(interval))[1]
    sel_mask = REAL_MASK | TRUTH_FLAG | (0 if admit_any else POSITION_FLAG)
    sel_want = (child_id << 3) | (TRUTH_FLAG if buffer_truth else 0) | (
        0 if admit_any else POSITION_FLAG
    )
    # compared with the record under sel_mask, which keeps the position and
    # truth bits when admit_any is false, as it is for until; -1 matches none
    cut_want = -1 if cut_id is None else (cut_id << 3) | POSITION_FLAG
    out_bits = out_key << 3
    win: list[int] = []
    head = far = 0
    outputs: list[int] = []
    peak = 0
    i = 0
    n = len(records)
    while i < n:
        r = records[i]
        tau = r >> TAU_SHIFT
        emit = False
        pos_out = 0
        cut = False
        prev = 0
        while True:
            if r & REAL_MASK:
                dup = r ^ prev
                if dup < 8:  # same instant and child as the previous record
                    if dup & TRUTH_FLAG:
                        raise _conflict(key_text, tau)
                else:
                    prev = r
                    if r & POSITION_FLAG:
                        emit = True
                        pos_out = POSITION_FLAG
                    selected = r & sel_mask
                    if selected == sel_want:
                        win.append(tau)
                    elif selected == cut_want:
                        cut = True
            elif r & SANCTIONED_FLAG:
                emit = True
            i += 1
            if i >= n:
                break
            r = records[i]
            if (r >> TAU_SHIFT) != tau:
                break
        end = len(win)
        if head < end:
            if span is not None:
                nearest = win[-1]
                while win[head] - nearest > span:
                    head += 1
                if head > COMPACT_AFTER and head > end - head:
                    del win[:head]
                    far -= head
                    end -= head
                    head = 0
            if end - head > peak:
                peak = end - head
        if emit:
            if far < head:
                far = head
            if up is not None:
                while far < end and win[far] - tau > up:
                    far += 1
            val = far < end and win[far] - tau >= lo
            if negate:
                val = not val
            outputs.append((tau << TAU_SHIFT) | out_bits | pos_out | (TRUTH_FLAG if val else 0))
        if cut:
            # a failing left operand at this position cuts continuity for
            # every earlier instant toward witnesses strictly beyond it
            while head < end and win[head] > tau:
                head += 1
    return outputs, peak


def reduce_join(
    records: Sequence[int],
    operand_ids: tuple[int, ...],
    operand_is_leaf: tuple[bool, ...],
    op: str,
    out_key: int,
    key_text: str,
) -> tuple[list[int], int]:
    """Boolean reducer: joins operand values instant by instant.

    At an emission instant every composite operand must have produced a
    record (anything else is a pipeline defect); a missing atom operand
    simply reads false, since atoms only ever have records at positions.
    Instants without an emission trigger are skipped silently — shared
    operands may legitimately stream values at a superset of instants.
    A negation's single operand fills both operand slots.
    """
    left_bits = operand_ids[0] << 3
    right_bits = operand_ids[-1] << 3
    left_unset = 0 if operand_is_leaf[0] else None
    right_unset = 0 if operand_is_leaf[-1] else None
    negation = op == "not"
    conjunction = op == "and"
    out_bits = out_key << 3
    outputs: list[int] = []
    i = 0
    n = len(records)
    while i < n:
        r = records[i]
        tau = r >> TAU_SHIFT
        emit = False
        pos_out = 0
        left = left_unset
        right = right_unset
        prev = 0
        while True:
            if r & REAL_MASK:
                dup = r ^ prev
                if dup < 8:  # same instant and child as the previous record
                    if dup & TRUTH_FLAG:
                        raise _conflict(key_text, tau)
                else:
                    prev = r
                    if r & POSITION_FLAG:
                        emit = True
                        pos_out = POSITION_FLAG
                    child_bits = r & REAL_MASK
                    if child_bits == left_bits:
                        left = r & TRUTH_FLAG
                    if child_bits == right_bits:
                        right = r & TRUTH_FLAG
            elif r & SANCTIONED_FLAG:
                emit = True
            i += 1
            if i >= n:
                break
            r = records[i]
            if (r >> TAU_SHIFT) != tau:
                break
        if not emit:
            continue
        if left is None or right is None:
            raise EngineError(f"missing operand value for {key_text} at instant {tau}")
        if negation:
            val = not left
        elif conjunction:
            val = left and right
        else:
            val = left or right
        outputs.append((tau << TAU_SHIFT) | out_bits | pos_out | (TRUTH_FLAG if val else 0))
    return outputs, 0


# ---------------------------------------------------------------------------
# Job plan and runner
# ---------------------------------------------------------------------------

@dataclass
class ReducerStats:
    reducer_key: str
    peak_win: int
    records_in: int
    records_out: int
    iteration_ms: float

    def to_json_dict(self) -> dict:
        return {
            "reducer_key": self.reducer_key,
            "peak_win": self.peak_win,
            "records_in": self.records_in,
            "records_out": self.records_out,
            "iteration_ms": self.iteration_ms,
        }


@dataclass
class RunStats:
    verdict: bool
    iterations: int
    peak_win_records: int
    reducers: list[ReducerStats] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "iterations": self.iterations,
            "peak_win_records": self.peak_win_records,
            "reducers": [row.to_json_dict() for row in self.reducers],
        }


@dataclass
class PipelineResult:
    verdict: bool
    stats: RunStats
    table: FormulaTable
    guard_map: dict[Formula, Formula]
    offsets: dict[int, frozenset[int]]
    anchor_instant: int
    streams: Optional[dict[int, list[int]]] = None

    def stream_of(self, f: Formula) -> list[int]:
        if self.streams is None:
            raise EngineError("run was not asked to collect streams")
        return self.streams[self.table.id_of[f]]


def _reducer_spec(node: Formula, table: FormulaTable):
    node_id = table.id_of[node]
    kids = table.child_ids[node_id]
    if isinstance(node, Eventually):
        return ("window", kids[0], node.interval, dict(admit_any=False, buffer_truth=True, negate=False))
    if isinstance(node, ExactStep):
        return ("window", kids[0], node_interval(node), dict(admit_any=True, buffer_truth=True, negate=False))
    if isinstance(node, Globally):
        return ("window", kids[0], node.interval, dict(admit_any=False, buffer_truth=False, negate=True))
    if isinstance(node, Until):
        return ("window", kids[1], node.interval,
                dict(admit_any=False, buffer_truth=True, negate=False, cut_id=kids[0]))
    if isinstance(node, Not):
        ids = (kids[0],)
        leafs = (table.height_of[kids[0]] == 1,)
        return ("join", ids, leafs, "not")
    if isinstance(node, (And, Or)):
        left_id = table.id_of[node.left]
        right_id = table.id_of[node.right]
        ids = (left_id, right_id)
        leafs = tuple(table.height_of[i] == 1 for i in ids)
        return ("join", ids, leafs, "and" if isinstance(node, And) else "or")
    raise EngineError(f"no reducer for node {node!r}")


def _reduce_one(node_id: int, table: FormulaTable, spec, records: list[int]):
    start = time.perf_counter()
    records_in = len(records)
    shuffle_sort(records)
    key_text = to_text(table.node(node_id))
    if spec[0] == "window":
        outputs, peak = reduce_window(
            records, spec[1], spec[2], node_id, key_text=key_text, **spec[3]
        )
    else:
        outputs, peak = reduce_join(records, spec[1], spec[2], spec[3], node_id, key_text)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return outputs, peak, records_in, elapsed_ms


def _seed_instants(
    positions: Sequence[int],
    position_set: set[int],
    offs: Iterable[int],
    extra: Iterable[int],
) -> list[int]:
    """Instants to plant sanctioned markers at: every position shifted by
    each nonzero offset (minus instants that already are positions), plus
    any extra anchor instants."""
    first, last = positions[0], positions[-1]
    contiguous = len(positions) == last - first + 1
    inst: set[int] = set()
    for off in offs:
        if not off:
            continue
        if contiguous:
            start = max(first + off, last + 1)
            inst.update(range(start, last + off + 1))
        else:
            inst.update(t + off for t in positions if (t + off) not in position_set)
    inst.update(o for o in extra if o not in position_set)
    return sorted(inst)


def run_pipeline(
    word: TimedWord,
    formula: Formula,
    *,
    semantics: str = POINT,
    window_budget: Optional[int] = None,
    anchor: str = ANCHOR_FIRST,
    workers: int = 1,
    collect_streams: bool = False,
) -> PipelineResult:
    """Check a formula over a timed word with the MapReduce-style pipeline.

    Without a window budget the reducers interpret the formula directly in
    point semantics.  With a budget the formula is translated, decomposed
    so no window exceeds the budget, and checked in lazy semantics; with
    point semantics the verdict is still read at the first position's
    timestamp (the translation makes the two agree there).

    ``workers`` is accepted for callers that pass it and must be at least
    1; the keys are always reduced one at a time, so it does not change
    the run.
    """
    if semantics not in (POINT, LAZY):
        raise EngineError(f"unknown semantics {semantics!r}")
    if anchor not in (ANCHOR_FIRST, ANCHOR_ZERO):
        raise EngineError(f"unknown anchor {anchor!r}")
    if workers < 1:
        raise EngineError("worker count must be at least 1")
    if semantics == LAZY and window_budget is None:
        raise EngineError("lazy pipeline checking requires a window budget")
    if anchor == ANCHOR_ZERO and semantics != LAZY:
        raise EngineError("the zero anchor requires lazy semantics")

    if window_budget is not None:
        run_root, guard_map = pipeline_formula(formula, window_budget)
    else:
        run_root = formula
    table = analyze(run_root)
    lazy_mode = window_budget is not None
    if not lazy_mode:
        if any(isinstance(node, (ExactStep, Act)) for node in table.nodes):
            raise EngineError("point-mode input must not contain marker nodes")
        guard_map = {node: node for node in table.nodes}
    if table.size >= CHILD_MASK:
        raise EngineError("formula too large for the record encoding")
    offsets = (
        compute_offsets(table)
        if lazy_mode
        else {i: frozenset((0,)) for i in range(1, table.size + 1)}
    )
    positions = word.timestamps
    position_set = set(positions)
    anchor_instant = 0 if anchor == ANCHOR_ZERO else positions[0]
    inboxes: dict[int, list[int]] = {}
    streams: Optional[dict[int, list[int]]] = {} if collect_streams else None

    # Records move between keys only through these helpers, so no local
    # name keeps a consumed inbox or a routed output alive while the next
    # key is reduced.
    def route(key_id: int, records: list[int]) -> None:
        for parent_id in table.parent_ids[key_id]:
            inboxes.setdefault(parent_id, []).extend(records)
        if streams is not None:
            streams[key_id] = records

    def take(key_id: int) -> list[int]:
        """A key's inbox plus, in lazy mode, its sanctioned markers."""
        records = inboxes.pop(key_id, [])
        if lazy_mode:
            extra = offsets[key_id] if anchor == ANCHOR_ZERO else ()
            records += [
                (t << TAU_SHIFT) | SANCTIONED_FLAG
                for t in _seed_instants(positions, position_set, offsets[key_id], extra)
            ]
        return records

    # read step: atom records, routed to each atom's superformula keys
    per_atom = atom_records(word, table)
    while per_atom:
        route(*per_atom.popitem())

    specs = {
        table.id_of[node]: _reducer_spec(node, table)
        for node in table.nodes
        if not isinstance(node, (Atom, Act))
    }
    reducer_rows: list[ReducerStats] = []
    root_id = table.root_id
    root_outputs: Optional[list[int]] = None
    total_height = table.height

    def finish(kid: int, outputs: list[int], peak: int, records_in: int, elapsed_ms: float) -> None:
        nonlocal root_outputs
        reducer_rows.append(
            ReducerStats(
                reducer_key=to_text(table.node(kid)),
                peak_win=peak,
                records_in=records_in,
                records_out=len(outputs),
                iteration_ms=elapsed_ms,
            )
        )
        route(kid, outputs)
        if kid == root_id:
            root_outputs = outputs

    # one key at a time, shorter keys first: every parent is strictly
    # taller than its children, so each inbox is complete when taken
    for kid in sorted(specs, key=lambda i: (table.height_of[i], i)):
        finish(kid, *_reduce_one(kid, table, specs[kid], take(kid)))

    if total_height == 1:
        verdict_value = False
        root_atom = table.root
        assert isinstance(root_atom, Atom)
        for atoms, tau in word.elements:
            if tau == anchor_instant:
                verdict_value = root_atom.name in atoms
                break
    else:
        if root_outputs is None:
            raise EngineError("pipeline produced no stream for the root key")
        verdict_value = None
        for record in root_outputs:
            if (record >> TAU_SHIFT) == anchor_instant:
                verdict_value = bool(record & TRUTH_FLAG)
                break
        if verdict_value is None:
            raise EngineError(
                f"no verdict record at anchor instant {anchor_instant}"
            )

    peak_global = max((row.peak_win for row in reducer_rows), default=0)
    stats = RunStats(
        verdict=verdict_value,
        iterations=total_height,
        peak_win_records=peak_global,
        reducers=reducer_rows,
    )
    return PipelineResult(
        verdict=verdict_value,
        stats=stats,
        table=table,
        guard_map=guard_map,
        offsets=offsets,
        anchor_instant=anchor_instant,
        streams=streams,
    )
