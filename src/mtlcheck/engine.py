"""MapReduce-style pipeline for trace checking.

The pipeline evaluates one key per distinct subformula.  A read step turns
trace elements into atom records, one per element and atom key, read off
the word's timestamps and the atom's flag column (a verdict run reads each
*literal*, a negated atom, off its atom's column too; see below), for the
keys that some parent reads as records; each later iteration reduces all
keys of the next height, so a run takes as many iterations as the formula
is tall.  Every key's output is routed to the keys of its superformulas,
and each key also receives sanctioned virtual-instant markers; reducers
process one key's records in descending timestamp order with a sliding
window over the key's interval.  An eventually or globally key over an
atom or a literal, a *column-fed* key, reads its operand straight off the
column instead, and takes only its markers as records.

Records are packed into single integers::

    (timestamp << 24) | (child_id << 3) | flags

with flag bits 1 = truth, 2 = position record, 4 = sanctioned marker.
Child id 0 is reserved for markers, which carry no operand value; formula
node ids start at 1.  A record's key is implicit in the per-key list holding it.

Each step of the reducers is written once.  ``reduce_window`` (eventually,
globally, exact-step and until keys) and ``reduce_join`` (boolean keys)
take their key's raw stream sorted by ``shuffle_sort``, and one grouper
walks it an instant at a time, deduplicating as it goes.  ``reduce_join``
folds each instant's operand values.  ``reduce_window`` turns each instant
into a code (whether it pushes, answers, answers as a position and cuts)
for the window loop, and ``reduce_column``, for column-fed keys, turns the
block's flag bytes into the same codes, merges its markers in and runs the
same loop, so it gives what ``reduce_window`` gives over the same
operand's records.  Both stream their instants: no per-instant list is
built.

- An instant emits output iff it holds a position record or a sanctioned
  marker.  Unsanctioned markers are consumed but never answered, since the
  instants they point at are not always instants the key's operands were
  evaluated at; repeated markers change nothing.
- Real records of one child at one instant are adjacent in sorted order:
  a repeat that agrees in truth is skipped, one that disagrees raises
  ``EngineError``.
- Eventually, globally and until keys admit only position records as
  witnesses, violations or cuts, while exact-step keys admit any record.
  This enforces the position-marker guards of the plan, which the keys
  read through (``transforms.operands``), so no guard is a key.

Window buffers answer each instant in amortized O(1) with one cursor: at
every instant, the buffer's head evicts the entries beyond the interval's
upper edge, which never come back in range as instants decrease, and the
head left is the answer (the monotone-window idea of Lemire's streaming
min/max filter).

The runner walks the trace backward in blocks of ``BLOCK`` elements, the
last block first.  A block's instants are those after the previous
element's timestamp up to its last element's, and every record at them is
made within the block: its atom records come from a slice of the word,
its sanctioned markers are planted from the precomputed offset sets (once
per distinct set, shared by the keys that have it), and each key, reduced
in order of height, routes its outputs to its parents' block inboxes.
Instants later than the block reach it only through each window key's
buffer, which ``reduce_window`` carries from block to block, so the
outputs are those of one pass over each key's whole stream.  A block
inbox is dropped once its key has been reduced, and only the root's
outputs in the first block are kept, to read the verdict from.  The
records alive at any time are thus the window buffers plus at most one
block of each key's inputs and outputs, whatever the trace's length; a
key's ``--stats`` row sums its counts and times over the blocks, and
``iterations`` is still the formula's height.

A check reads one verdict, at the anchor instant, so each key is reduced
only over its read window, from its *floor* to its *reach*, the first and
the last instant any reader reads it at.  One pass (``compute_windows``)
visits every parent before its children.  The root's floor and reach are
the anchor.  A key reads each operand from its floor plus its lower bound
for that operand (0 for a boolean key and for until's left operand, which
until reads from its own instant on; the step for an exact step; the
closed lower bound for the operand of eventually and globally and for
until's right operand) up to its reach plus its upper bound (0 for a
boolean key, the step for an exact step; an unbounded interval reaches
the end), and a child's floor and reach are the earliest and the latest
instant its parents read it at.  An eventually, globally or until key
reads its operands only at positions, so under it both ends move inward
to the first and the last position in that range.  A key whose floor
passes its reach is read at no instant (one under a window that holds no
position or no integer), so it reads nothing and lowers no child's floor.
This is sound because a key's value at an instant t depends only on its
operands' values from t plus its lower bound to t plus its upper bound: a
window key buffers witnesses from that range, a boolean key joins its
operands at t, and an exact step reads its operand at t plus the step.  By
induction from the root, a key's outputs from its floor up to its reach
are what a run over the whole trace gives there, if each parent receives
its operands' records at the instants it reads them at.  So ``route``
cuts each parent's input, which is descending, to that window in one
slice, all its operands alike up to the last instant, so a boolean key
never misses an operand; the read step builds each atom's records only
for the elements from its floor up to its reach, so a block past every
atom's reach builds none; ``take`` gives each key only its sanctioned
markers from its floor up to its reach; and a key with nothing to take
in a block is not called.  A window key still reads its operands past its
reach, up to its reach plus its upper bound, but ``reduce_window``
answers no instant past the reach, where no reader would read it; it
buffers, evicts and cuts there as before, so its outputs and its peak up
to the reach are unchanged.  A boolean key gets no input or marker past
its reach, and no key gets any below its floor, so every output lies in
its key's window.  A key answers an instant only when a
position record or a sanctioned marker arrives there, and the cut takes
from an eventually, globally or exact-step key with a positive lower
bound the operand records that made it answer at the positions from its
floor up to its floor plus that bound, where its readers still read it
(an until's left operand still arrives there).  So ``take`` plants a
*position marker* at each of the block's positions in that range (up to
the key's reach): child 0 with the position and sanctioned flags, which
``reduce_window`` and ``reduce_column`` answer as a position, so the
output keeps its position flag.  ``--stats`` counts position markers in ``records_in`` but not in
``markers``.  Seeding is clipped as well: each offset set's walk covers
only the span from the lowest floor to the highest reach of the keys that
hold it, since no key takes a marker outside its own; whether a block has
a gap is still judged over the whole block.  No reach or read instant
passes the anchor plus the formula's lookahead (``formula.lookahead``,
the largest sum of upper bounds on a path from the root, which the
rewritten plans share; the walk reads the whole trace when an interval
is unbounded), and no element lies between the last one at or
before that instant and the instant itself, so a trace cut after that
element gives the same values in every window (what a step reads past
the last element is false either way; see below).  So the backward walk
starts at that element and reads the trace as if it ended there (its
offset horizon comes from that prefix); unlike the reaches, the walk's
end is not moved to a position.  ``--stats`` reports the elements the
walk covered as ``elements_reduced``: ``F[0,10] p`` reduces 11 elements
of a unit-spaced trace however long it is.  Since that end is at most
the first timestamp plus the lookahead, whichever the anchor, a check
parses the trace with that lookahead (``input_read``): the word keeps
only the elements up to there, and the lines past them are only
validated, so every error is still reported.  ``elements`` counts the
whole trace.  A run that collects streams reads every key whole, with
every floor at 0 and every reach at the end, so its streams are full and
start at the first element; its keys with a positive lower bound are
still cut below that bound and given position markers there, which
changes no output.  The slicing of time by both ends of a formula's
windows is that of Basin et al., "Scalable offline monitoring of temporal
specifications" (FMSD 2016).

A verdict run also slices inside a window.  Where only boolean keys and
exact steps read a window key, they read it at a few instants, its
*answer instants* (``compute_windows``): the hop heads of a decomposed
chain, ``F[0,1000] p`` under ``F[0,10000] p --k 1000``, are read at the
anchor and every 1,000 instants after it, not at the 9,001 instants of
their window.  ``reduce_window`` answers only those, and still buffers,
evicts and cuts at every instant, as past its reach.  A negated atom that
is not the root and that no exact step reads is a *literal*
(``leaf_keys``): the read step builds its records from its atom's flag
column, inverted, for the elements in the literal's own window, and
passes its atom no window, so an atom only literals read builds no
records.  A literal is not reduced and has no ``--stats`` row.  Its
records lie only at positions, which is all a window reader reads, and a
boolean reader reads it true at an instant where it has none, as the
negation of an atom, false off the positions, would read there.  A run
that collects streams reduces every negation and answers every instant,
so its streams are those above.

Markers go only to gaps between positions up to the last one, and no key
emits a record past the last element: the decomposition puts every exact
step over an eventually or until chain, which is false where no position
lies, and that is what a step reads when it finds no record.  Offsets
are clipped at a horizon past which none can land in a gap.  When the
walked prefix has a gap, that is the last element's distance from the
anchor, since a larger offset would only point past the last element; a
plan thousands of hops deep over a short trace thus keeps few offsets per
key.  When it has none, a shifted position is a position or lies past the
last element, so only anchor instants before the first element can be
gaps: the horizon is the distance from the anchor to the instant before
the first element, 0 for the first anchor, and such a trace builds no
offsets and plants no markers (bar zero-anchor instants before the
first).  ``--stats`` reports the markers planted for each key.  Planting
markers per key instead of record by record through a mapper changes no
output: the mapper's sanctioned instants are exactly the position set
shifted by the key's offsets, and the markers it would add beyond those
(repeats, markers at position instants and unsanctioned ones) are ones
the reducers ignore.  The test suite pins this against a
record-by-record mapper oracle.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field, fields
from operator import neg
from typing import BinaryIO, Container, Iterable, Iterator, Optional, Sequence, Union

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
    lookahead,
    node_interval,
    node_texts,
    postorder,
    singleton,
)
from .semantics import ANCHOR_FIRST, ANCHOR_ZERO, LAZY, POINT
from .trace import TIMESTAMP_MAX, TimedWord, parse_trace, parse_trace_lines
from .transforms import operands, pipeline_formula

ACT_CHILD = 0
CHILD_BITS = 21
CHILD_MASK = (1 << CHILD_BITS) - 1
TAU_SHIFT = CHILD_BITS + 3
TRUTH_FLAG = 1
POSITION_FLAG = 2
SANCTIONED_FLAG = 4
POSITION_MARKER = POSITION_FLAG | SANCTIONED_FLAG  # with child 0: answer here, as a position


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

Leaf = tuple[int, str, int]  # a read step key: its id, its atom's name, its truth bit flip


def leaf_keys(table: FormulaTable, literals: bool = False) -> list[Leaf]:
    """The keys the read step builds records for, as (key id, atom name,
    flip), where flip is the bit xored into the atom's truth bit: every
    atom (flip 0) and, with ``literals``, every literal (flip
    ``TRUTH_FLAG``).  A *literal* is the negation of an atom that is not
    the root (which is read for the verdict) and that no exact step reads
    (a step reads its operand at any instant, but a literal has records
    only at positions).  Flip is also what a boolean key reads the key as
    where it has no record (see ``reduce_join``)."""
    leaves: list[Leaf] = []
    for key_id in range(1, table.size + 1):
        height = table.height_of[key_id]
        if height == 1:
            leaves.append((key_id, table.node(key_id).name, 0))
        elif literals and height == 2 and key_id != table.root_id:
            node = table.node(key_id)
            if isinstance(node, Not) and not any(
                isinstance(table.node(p), ExactStep) for p in table.parent_ids[key_id]
            ):
                atom = table.node(table.child_ids[key_id][0])
                leaves.append((key_id, atom.name, TRUTH_FLAG))
    return leaves


def atom_records(
    word: TimedWord,
    leaves: Iterable[Leaf],
    start: int = 0,
    stop: Optional[int] = None,
    windows: Optional[tuple[Sequence[int], Sequence[int]]] = None,
) -> dict[int, list[int]]:
    """The read step: one position record per trace element and read step
    key (see ``leaf_keys``), for the elements ``start:stop`` (all of them
    by default), ascending; a literal's truth is its atom's, inverted.
    With ``windows``, the keys' floors and reaches (see
    ``compute_windows``), a key gets records only for the elements from
    its floor up to its reach, and a key with none there is left out."""
    positions = word.timestamps
    if stop is None:
        stop = len(positions)
    per_key: dict[int, list[int]] = {}
    for key_id, name, flip in leaves:
        i, j = start, stop
        if windows is not None:
            i = bisect_left(positions, windows[0][key_id], start, stop)
            j = bisect_right(positions, windows[1][key_id], i, stop)
            if i == j:
                continue
        by_flag = (  # indexed by the atom's flag byte at an element
            pack_record(0, key_id, bool(flip), True, False),
            pack_record(0, key_id, not flip, True, False),
        )
        per_key[key_id] = [
            (tau << TAU_SHIFT) | by_flag[flag]
            for tau, flag in zip(positions[i:j], word.column(name)[i:j])
        ]
    return per_key


def input_read(
    trace: Union[BinaryIO, Iterable[Union[str, bytes]]],
    atoms: Optional[Iterable[str]] = None,
    lookahead: Optional[int] = None,
) -> tuple[TimedWord, int]:
    """Parse a trace in one pass; returns the word and its first
    timestamp, the instant a verdict is read at by default.  ``trace`` is
    a binary stream, read by ``parse_trace`` in blocks of whole lines (the
    command line's route), or trace lines, read by ``parse_trace_lines``.
    With ``atoms`` (the formula's atoms) the word keeps only their flag
    columns, and with ``lookahead`` (the formula's) only the elements up to
    the first timestamp plus it, which is all a check reads (see
    ``run_pipeline``); every line is validated either way, and a parse
    failure raises ``TraceError`` naming the failing line."""
    parse = parse_trace if hasattr(trace, "read") else parse_trace_lines
    word = parse(trace, atoms, lookahead)
    return word, word.timestamps[0]


def compute_offsets(table: FormulaTable, horizon: int) -> list[frozenset[int]]:
    """Virtual-instant offsets per key, a list indexed by key id (slot 0
    unused): the shifts (relative to position timestamps) at which each
    key's value is needed by its superformulas, up to ``horizon``, the
    largest shift that can still land in a gap of the walked trace (see
    ``run_pipeline``).

    Exact-step parents push their offsets forward by their step; boolean
    parents pass offsets through; window parents need only position
    instants from their operands.  Ids are assigned children first, so
    decreasing ids visit every parent before its children.  Offsets only
    grow along a chain, so clipping each step clips the result, and a deep
    chain over a short trace keeps few offsets; with horizon 0 every key
    keeps ``{0}``.  Each set made passes through one intern table, so keys
    with equal offsets share one set object: a chain of thousands of hops
    over a short trace holds a few distinct sets, not one per key.
    """
    zero = frozenset({0})
    interned = {zero: zero}
    offsets = [zero] * (table.size + 1)
    for node_id in range(table.size, 0, -1):
        node = table.node(node_id)
        if isinstance(node, ExactStep):
            reach = horizon - node.step  # the largest offset that stays in the horizon
            contribution = frozenset([o + node.step for o in offsets[node_id] if o <= reach])
        elif isinstance(node, (Not, And, Or)):
            contribution = offsets[node_id]
        else:
            continue
        for child in table.child_ids[node_id]:
            if not contribution <= offsets[child]:
                merged = offsets[child] | contribution
                offsets[child] = interned.setdefault(merged, merged)
    return offsets


END = TIMESTAMP_MAX + 1  # a reach past every element: the whole trace is read


def compute_windows(
    table: FormulaTable,
    anchor: Optional[int],
    positions: Sequence[int],
    literals: Container[int] = (),
) -> tuple[list[int], list[int], list[int], list[int], list[int], dict[int, list[int]]]:
    """Five lists indexed by key id and a dict, from one pass that visits
    every parent before its children (ids are assigned children first):
    each key's floor and reach, the first and the last instant any reader
    reads it at; each key's operand read window, the first instants it
    reads its first and its last operand at and the last instant it reads
    them at; and the answer instants of some window keys.

    The root's floor and reach are ``anchor``.  A key reads its operands
    from its floor plus its lower bound (0 for boolean keys, the step for
    exact steps, the closed lower bound of the interval otherwise; until
    reads its left operand from its own instant on) up to its reach plus
    its upper bound (``END`` for an unbounded interval; capped at
    ``END``).  An eventually, globally or until key reads only at
    ``positions``, so its last read instant is the last position up to
    there (-1 if none), and a child's floor under it is the first position
    from its first read instant on.  A child's floor is the earliest and
    its reach the latest instant any parent reads it at, and no reach lies
    below ``anchor``.  A key whose floor passes its reach (one that such a
    parent reads where no position lies, or under an interval with no
    integer in it) is read at no instant: it reads from ``END`` on and
    lowers no child's floor.  A key in ``literals`` (see ``leaf_keys``)
    is read from its atom's flag column, so it passes no window to its
    atom.  With ``anchor`` None every floor is 0 and every reach ``END``:
    a run that collects streams reads every key whole.

    *Answer instants* are the instants a key is read at, when only
    boolean keys and exact steps read it: the root is read at ``anchor``,
    a boolean key reads its operands at its own instants and an exact
    step at its own plus its step, while a window or until reader, or a
    key read at more than one instant, leaves its operands none (they
    answer every instant up to their reach, as without answer instants).
    Such a key's floor and reach are its first and its last answer
    instant, so a key read at one instant answers only there anyway, and
    a boolean key read at several would also answer between them, where
    its operands must answer too.  The dict holds, for each window key
    with answer instants and a floor below its reach, the ones up to the
    last position (no key answers past the last element), descending."""
    size = table.size + 1
    floor = [0 if anchor is None else END] * size
    reach = [END if anchor is None else anchor] * size
    # each key's answer instants up to the last position while its parents
    # add them, or None once a parent leaves it none
    instants: dict[int, Optional[set[int]]] = {}
    if anchor is not None:
        floor[table.root_id] = anchor
        instants[table.root_id] = {anchor}
    answers: dict[int, list[int]] = {}
    final = positions[-1]
    left_from, right_from, reads = [END] * size, [END] * size, [END] * size
    for node_id in range(table.size, 0, -1):
        node = table.node(node_id)
        interval = node_interval(node)
        lo, up = (0, 0) if interval is None else closed_bounds(interval)
        at_positions = interval is not None and not isinstance(node, ExactStep)
        last = END if up is None else min(reach[node_id] + up, END)
        if at_positions:
            j = bisect_right(positions, last)
            last = positions[j - 1] if j else -1
        reads[node_id] = last
        mine = instants.pop(node_id, None)
        point = floor[node_id] == reach[node_id]
        if mine is not None and interval is not None and not point:
            answers[node_id] = sorted(mine, reverse=True)
        if node_id in literals:
            continue
        live = floor[node_id] <= reach[node_id]
        if live:
            right = right_from[node_id] = floor[node_id] + lo
            left = left_from[node_id] = floor[node_id] if isinstance(node, Until) else right
            # whether this key leaves its operands answer instants: its one
            # instant, shifted by its step (none past the last position)
            passes = mine is not None and point and not at_positions
        for i, child in enumerate(table.child_ids[node_id]):
            if reach[child] < last:
                reach[child] = last
            if not live:
                continue
            first = left if i == 0 else right
            if at_positions:
                j = bisect_left(positions, first)
                first = positions[j] if j < len(positions) else END
            if floor[child] > first:
                floor[child] = first
            if anchor is None:
                continue
            have = instants.setdefault(child, set())
            if not passes:
                instants[child] = None
            elif have is not None and right <= final:
                have.add(right)
    return floor, reach, left_from, right_from, reads, answers


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
# A window buffer compacts once its evicted slots pass COMPACT_AFTER and an
# eighth of its live ones, so it holds at most its live entries plus the
# larger of COMPACT_AFTER and an eighth of them, and each compaction's copy
# is paid for by the evictions since the last one.
COMPACT_AFTER = 32
# An instant's code in the window loop: its answer bits, as a marker's flags
# (SANCTIONED_FLAG to answer, plus POSITION_FLAG to answer as a position),
# plus PUSH to buffer the instant and CUT to apply until's cut once answered.
# Only an answered instant cuts, so a code answers iff it is at least
# SANCTIONED_FLAG and cuts iff it is at least CUT: comparisons, which cost
# less per instant than masks.
PUSH, CUT = 1, 8
# reduce_column's codes for an atom's flag bytes, indexed by the byte that pushes
COLUMN_CODES = (bytes.maketrans(b"\0\1", b"\7\6"), bytes.maketrans(b"\0\1", b"\6\7"))


@dataclass(slots=True)
class WindowState:
    """A window reducer's buffer between calls over consecutive blocks of
    one key's stream: ``win`` holds the buffered instants, ``win[head:]``
    the live ones, with ``head`` the buffer's one cursor, and ``peak`` is
    the most live entries seen.  The entries are instants, at most the last
    timestamp, so ``win`` holds them as 8-byte machine integers
    (``array('q')``), not as int objects."""

    win: array = field(default_factory=lambda: array("q"))
    head: int = 0
    peak: int = 0


def _conflict(key, tau: int) -> EngineError:
    return EngineError(f"conflicting duplicate records for {key} at instant {tau}")


def _instants(
    records: Sequence[int],
    operand_ids: Sequence[int],
    unset: Sequence[Optional[int]],
    key: object,
) -> Iterator[tuple[int, int, Optional[int], Optional[int]]]:
    """Walk one block of a key's records, sorted by ``shuffle_sort``, an
    instant at a time, yielding ``(tau, answer, first, last)``.  ``answer``
    is 0 where the instant is not answered, and else ``SANCTIONED_FLAG``,
    plus ``POSITION_FLAG`` where a position record or a position marker
    makes it a position.  ``first`` and ``last`` are the truth and position
    bits of the first and the last of ``operand_ids``' records there, or
    that operand's ``unset`` where it has none.  Real records of one child
    at one instant are adjacent: a repeat that agrees is skipped, one that
    disagrees raises ``EngineError`` (``key`` names the key; it is
    formatted only then), and unsanctioned markers are consumed."""
    first_bits, last_bits = operand_ids[0] << 3, operand_ids[-1] << 3
    i, n = 0, len(records)
    while i < n:
        r = records[i]
        tau = r >> TAU_SHIFT
        answer, first, last = 0, unset[0], unset[-1]
        prev = 0
        while True:
            if r & REAL_MASK:
                dup = r ^ prev
                if dup < 8:  # same instant and child as the previous record
                    if dup & TRUTH_FLAG:
                        raise _conflict(key, tau)
                else:
                    prev = r
                    if r & POSITION_FLAG:
                        answer = POSITION_MARKER
                    child = r & REAL_MASK
                    if child == first_bits:
                        first = r & 3
                    if child == last_bits:
                        last = r & 3
            elif r & SANCTIONED_FLAG:
                answer |= r & POSITION_MARKER
            i += 1
            if i >= n:
                break
            r = records[i]
            if (r >> TAU_SHIFT) != tau:
                break
        yield tau, answer, first, last


def _slide(
    events: Iterable[tuple[int, int]],
    top: int,
    interval,
    out_key: int,
    universal: bool,
    state: Optional[WindowState],
    reach: int,
    answers: Optional[Sequence[int]],
) -> tuple[list[int], int]:
    """The window loop of ``reduce_window`` and ``reduce_column``: their
    outputs and peak over one block's ``(instant, code)`` events (see
    ``PUSH``), descending from ``top``."""
    lo, up = closed_bounds(interval)
    if up is None:
        up = 1 << 64  # exceeded by no distance between instants
    if state is None:
        state = WindowState()
    win, head, peak = state.win, state.head, state.peak
    end = len(win)
    head_val = win[head] if head < end else 0  # win[head] while the buffer is not empty
    out_bits = out_key << 3
    outputs: list[int] = []
    # the next instant to answer: the reach, or the first answer instant
    # at or below the block's first instant (-1 when none is left)
    want = reach
    if answers is not None:
        at = bisect_left(answers, -top, key=neg)
        want = answers[at] if at < len(answers) else -1
    for tau, code in events:
        if code & PUSH:
            win.append(tau)
            if head == end:  # the buffer was empty: the new entry is its head
                head_val = tau
            end += 1
        limit = tau + up
        while head < end and head_val > limit:  # past the upper edge for good
            head += 1
            if head < end:
                head_val = win[head]
        if end - head > peak:
            peak = end - head
        if head > COMPACT_AFTER and head > (end - head) >> 3:
            del win[:head]
            end -= head
            head = 0
        if tau <= want and code >= SANCTIONED_FLAG:
            if answers is not None:
                while want > tau:  # move the cursor down to tau
                    at += 1
                    want = answers[at] if at < len(answers) else -1
            if want == tau or answers is None:
                # the head is the latest entry in range, so the window
                # holds an entry iff the head clears the lower edge
                val = (head_val - tau >= lo) != universal if head < end else universal
                outputs.append(
                    (tau << TAU_SHIFT) | out_bits | (code & POSITION_FLAG) | (TRUTH_FLAG if val else 0)
                )
        if code >= CUT:
            # a failing left operand at this position cuts continuity for
            # every earlier instant toward witnesses strictly beyond it
            while head < end and head_val > tau:
                head += 1
                if head < end:
                    head_val = win[head]
    state.head, state.peak = head, peak
    return outputs, peak


def reduce_window(
    records: Sequence[int],
    child_id: int,
    interval,
    out_key: int,
    *,
    admit_any: bool = False,
    universal: bool = False,
    cut_id: Optional[int] = None,
    key: object = "?",
    state: Optional[WindowState] = None,
    reach: int = END,
    answers: Optional[Sequence[int]] = None,
) -> tuple[list[int], int]:
    """Sliding-window reducer for eventually / globally / exact-step / until
    keys.

    Buffers the child records of the sought polarity (witnesses for
    eventually and exact-step, right-operand witnesses for until, and,
    with ``universal`` set, violations for globally, whose value is then
    true exactly when no violation is in range), keeps the buffer within
    the interval's upper edge, and answers each emission instant by reading
    the buffer's head against the shifted interval.  Until is eventually
    over its right operand (``F[I] r`` is ``true U[I] r``) except that a
    failing left operand cuts off older witnesses: with ``cut_id`` set, a
    position record of that child with truth false discards, after the
    instant is answered, every buffered witness later than the instant.

    The buffer ``win[head:]`` holds instants in descending order.  At every
    instant, ``head`` evicts the entries beyond the interval's upper edge,
    which never come back in range because instants only decrease, and a
    cut evicts the ones it discards.  The head is then
    the latest entry in range, and the answer is whether it clears the
    lower edge (the universal value when the buffer is empty), so each
    instant is amortized O(1).  Reading an entry of the array makes an int
    object, so the head entry's value is kept from the eviction that read
    it, and each entry is read at most once: when every instant pushes one
    entry and evicts one, as in a full window, an instant reads one entry.
    Evicted slots are dropped in bulk once they pass an eighth of the live
    ones (see ``COMPACT_AFTER``), so memory stays proportional to the
    window, not to the stream.  ``key`` names the key in errors; it is
    formatted only when one is raised.

    With ``state`` given, the buffer and its head are taken from it and
    left in it, so a key's stream can be reduced block by block, later
    instants first, with the same outputs as in one call; the peak
    returned is then the largest over every block so far.  An instant's
    records must all be in one block.

    ``reach`` is the last instant the key is read at (see
    ``compute_windows``).  No instant past it is answered, but every one
    still pushes its witnesses or violations, evicts, counts toward the
    peak and applies its until cut, since the instants up to the reach
    read the buffer those leave; an instant that only cuts is processed
    too.  So the outputs are those without a reach, up to it, and the peak
    is the same.  With ``answers``, the key's answer instants in
    descending order (see ``compute_windows``), only those instants are
    answered, found with a cursor that moves down them as the instants
    decrease; every other instant is processed as one past the reach.

    The records are grouped by instant as ``reduce_join``'s are, and each
    instant becomes a code for the window loop that ``reduce_column``
    shares.
    """
    # an operand record pushes when its truth is the sought one and, unless
    # admit_any, it lies at a position; an absent one reads 0 and pushes
    # nothing; a false left operand at a position cuts
    sel = TRUTH_FLAG | (0 if admit_any else POSITION_FLAG)
    want = (0 if universal else TRUTH_FLAG) | (sel & POSITION_FLAG)
    cut = -1 if cut_id is None else POSITION_FLAG
    instants = _instants(records, (child_id if cut_id is None else cut_id, child_id), (0, 0), key)
    events = ((tau, answer | (PUSH if last & sel == want else 0) | (CUT if first == cut else 0))
              for tau, answer, first, last in instants)
    top = records[0] >> TAU_SHIFT if records else -1
    return _slide(events, top, interval, out_key, universal, state, reach, answers)


def reduce_column(
    positions: Sequence[int],
    flags: bytes,
    markers: Sequence[int],
    flip: int,
    interval,
    out_key: int,
    *,
    universal: bool = False,
    state: Optional[WindowState] = None,
    reach: int = END,
    answers: Optional[Sequence[int]] = None,
) -> tuple[list[int], int]:
    """``reduce_window`` for a *column-fed* key: an eventually or globally
    key whose operand is a read step key (see ``leaf_keys``), reduced
    straight off that operand's atom's flag column instead of its packed
    records.  ``positions`` are one block's positions the key reads its
    operand at, ascending, and ``flags`` the atom's flag bytes at them;
    the operand holds at a position where its flag xored with ``flip``
    (the operand's) is 1.  ``markers`` are the key's sanctioned and
    position markers in the block (see ``run_pipeline``'s ``take``), in
    any order, none at one of ``positions``.  The keywords are
    ``reduce_window``'s.

    Each position answers as a position and pushes where its flag byte
    differs from the key's skip byte, 0 for eventually and 1 for globally,
    xored with ``flip``; a marker answers as its flags say and pushes
    nothing.  These codes, with the markers merged in, run through
    ``reduce_window``'s window loop, so the outputs and the peak are those
    of ``reduce_window`` over the operand's records at ``positions`` (as
    ``atom_records`` builds them) plus ``markers``, sorted by
    ``shuffle_sort``: one operand's stream has no duplicate to check and
    no cut to apply, so it needs no grouping by instant.
    """
    codes = flags.translate(COLUMN_CODES[(0 if universal else 1) ^ flip])
    if markers:
        events = [*zip(positions, codes), *[(m >> TAU_SHIFT, m & 7) for m in markers]]
        events.sort(reverse=True)
        top = events[0][0]
    else:
        events = zip(reversed(positions), reversed(codes))
        top = positions[-1] if positions else -1
    return _slide(events, top, interval, out_key, universal, state, reach, answers)


def reduce_join(
    records: Sequence[int],
    operand_ids: tuple[int, ...],
    operand_unset: tuple[Optional[int], ...],
    op: str,
    out_key: int,
    key: object,
) -> tuple[list[int], int]:
    """Boolean reducer: joins operand values instant by instant.

    ``operand_unset`` gives, per operand, the truth bit it reads at an
    instant where it has no record, or None.  Atoms and literals (see
    ``leaf_keys``) only ever have records at positions, so elsewhere an
    atom reads false (0) and a literal true (``TRUTH_FLAG``); at an
    emission instant every composite operand must have produced a record
    (anything else is a pipeline defect).  Instants without an emission
    trigger are skipped silently — shared operands may legitimately stream
    values at a superset of instants.  A negation's single operand fills
    both operand slots.  ``key`` names the key in errors, as for
    ``reduce_window``, whose grouping by instant this shares.
    """
    out_bits = out_key << 3
    outputs: list[int] = []
    for tau, answer, left, right in _instants(records, operand_ids, operand_unset, key):
        if not answer:
            continue
        if left is None or right is None:
            raise EngineError(f"missing operand value for {key} at instant {tau}")
        if op == "not":
            val = ~left & TRUTH_FLAG
        elif op == "and":
            val = left & right & TRUTH_FLAG
        else:
            val = (left | right) & TRUTH_FLAG
        outputs.append((tau << TAU_SHIFT) | out_bits | (answer & POSITION_FLAG) | val)
    return outputs, 0


# ---------------------------------------------------------------------------
# Job plan and runner
# ---------------------------------------------------------------------------

KEY_TEXT_CAP = 200  # characters of a key's text a ``--stats`` row writes in its parents' texts


@dataclass(slots=True)
class ReducerStats:
    reducer_key: Formula  # rendered as text only in the ``--stats`` envelope
    peak_win: int
    records_in: int
    markers: int
    records_out: int
    iteration_ms: float


@dataclass
class RunStats:
    verdict: bool
    iterations: int
    elements: int  # the trace's elements, kept by the parse or not
    elements_reduced: int  # the elements the backward walk covered
    peak_win_records: int
    reducers: list[ReducerStats] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        """The ``--stats`` envelope: the fields above, rows as dicts with
        their keys' texts.  The rows are in order of height, so the last
        is the root's, and every key's text comes from one shared pass
        over the root's nodes.  The keys read through position guards, and
        so do their texts.  A key with a row whose text is longer than
        ``KEY_TEXT_CAP`` is written in its parents' texts as ``#`` and its
        row's index, so the envelope grows linearly with a plan's depth;
        keys with no row (atoms, and literals in a verdict run) are
        written whole."""
        keys = postorder(self.reducers[-1].reducer_key, operands) if self.reducers else []
        refs = {row.reducer_key: index for index, row in enumerate(self.reducers)}
        texts = node_texts(keys, operands, refs, KEY_TEXT_CAP)
        # a slotted row has no vars(), and asdict would copy each key's subtree
        names = [f.name for f in fields(ReducerStats)]
        rows = [
            dict(zip(names, [getattr(row, n) for n in names]), reducer_key=texts[row.reducer_key])
            for row in self.reducers
        ]
        return dict(vars(self), reducers=rows)


@dataclass
class PipelineResult:
    verdict: bool
    stats: RunStats
    table: FormulaTable
    guard_map: Optional[dict[Formula, Formula]]  # None unless streams are collected
    streams: Optional[dict[int, list[int]]] = None

    def stream_of(self, f: Formula) -> list[int]:
        if self.streams is None:
            raise EngineError("run was not asked to collect streams")
        return self.streams[self.table.id_of[f]]


# Reducer kinds, by node class: the joins first, in the order of JOIN_OPS.
JOIN_OPS = ("not", "and", "or")
KIND_OF = {Not: 0, And: 1, Or: 2, Eventually: 3, Globally: 4, ExactStep: 5, Until: 6}
EVENTUALLY, GLOBALLY = KIND_OF[Eventually], KIND_OF[Globally]
EXACT, UNTIL = KIND_OF[ExactStep], KIND_OF[Until]
READ = len(KIND_OF)  # the kind of an atom, which the read step builds
COMPOSITE_OPERANDS = (None, None)  # the unset values of a join over no read step key


@dataclass(slots=True)
class KeyReducers:
    """What ``reduce_node`` needs of a run besides a block's records, fixed
    before the first block but the window states.  Each is a column
    indexed by key id or a dict holding only the keys it applies to, so
    the keys of a deep plan add a byte each."""

    table: FormulaTable
    kinds: bytes  # each key's reducer kind (see KIND_OF)
    unset: dict[int, tuple[Optional[int], ...]]  # joins over read step keys: operand_unset
    columns: dict[int, tuple[str, int]]  # column-fed keys: their operand's atom name and flip
    reach: Sequence[int]  # each key's reach (see compute_windows)
    answers: dict[int, list[int]]  # window keys with answer instants (see compute_windows)
    states: defaultdict[int, WindowState] = field(default_factory=lambda: defaultdict(WindowState))


def key_reducers(
    table: FormulaTable,
    leaves: Iterable[Leaf],
    reach: Sequence[int],
    answers: dict[int, list[int]],
) -> KeyReducers:
    """A run's ``KeyReducers``: the kind of every key, and over its read
    step keys ``leaves`` (see ``leaf_keys``) the unset values of the joins
    and the *column-fed* keys, every eventually and globally key over one
    (see ``reduce_column``)."""
    kinds = bytes([READ] + [KIND_OF.get(type(node), READ) for node in table.nodes])
    flips = {key_id: flip for key_id, _, flip in leaves}
    unset = {}
    columns = {}
    for key_id, name, flip in leaves:
        for parent in table.parent_ids[key_id]:
            if kinds[parent] < len(JOIN_OPS):
                unset[parent] = tuple([flips.get(kid) for kid in table.child_ids[parent]])
            elif kinds[parent] in (EVENTUALLY, GLOBALLY):
                columns[parent] = name, flip
    return KeyReducers(table, kinds, unset, columns, reach, answers)


def reduce_node(
    keys: KeyReducers,
    node_id: int,
    records: list[int],
    column: Optional[tuple[Sequence[int], Sequence[int]]] = None,
) -> tuple[list[int], int]:
    """Reduce one block of a key's records, sorted by ``shuffle_sort``, with
    the reducer of the key's kind, for a key the read step does not build;
    it returns the block's outputs and the key's peak buffer so far.
    Blocks come later ones first, and a window key's buffer is carried
    between them in ``keys.states``, which makes it at the key's first
    block.  A window key answers no instant past its reach, the last
    instant it is read at, and with answer instants only those; a boolean
    key's inputs and markers are already cut there.  With ``column``, the
    block's positions a column-fed key (see ``key_reducers``) reads its
    operand at and its atom's flags there, ``records`` are only the key's
    markers, in any order, and ``reduce_column`` reduces them.  The
    reducers are looked up by name at each call, so a wrapper put on the
    module sees them."""
    kind = keys.kinds[node_id]
    kids = keys.table.child_ids[node_id]
    node = keys.table.node(node_id)
    if column is not None:
        return reduce_column(
            *column, records, keys.columns[node_id][1], node.interval, node_id,
            universal=kind == GLOBALLY, state=keys.states[node_id],
            reach=keys.reach[node_id], answers=keys.answers.get(node_id),
        )
    if kind < len(JOIN_OPS):
        unset = keys.unset.get(node_id, COMPOSITE_OPERANDS)
        return reduce_join(records, kids, unset, JOIN_OPS[kind], node_id, node)
    return reduce_window(  # until is eventually over its right operand, cut by its left one
        records, kids[-1], singleton(node.step) if kind == EXACT else node.interval, node_id,
        admit_any=kind == EXACT, universal=kind == GLOBALLY,
        cut_id=kids[0] if kind == UNTIL else None, key=node, state=keys.states[node_id],
        reach=keys.reach[node_id], answers=keys.answers.get(node_id),
    )


def _seed_instants(
    positions: Sequence[int],
    start: int,
    stop: int,
    offs: Iterable[int],
    extra: Iterable[int],
    first: int,
    last: int,
) -> list[int]:
    """Instants to plant sanctioned markers at in the block of elements
    ``start:stop``, whose instants are ``(positions[start-1],
    positions[stop-1]]`` (from instant zero for the first block): the
    positions shifted by each nonzero offset, plus any extra anchor
    instants, that fall in the block's gaps and in ``[first, last]``, the
    span from the lowest floor to the highest reach of the keys that hold
    the offsets (no key takes a marker outside its own floor and reach).
    Over contiguous positions a shifted one is a position or lies past the
    last element, so the shifts are walked only in a block whose
    positions, from the one before it, have a gap; that test reads the
    whole block, not its clipped part.  Only anchor instants fall before
    the first element, and on a trace without gaps the runner's horizon
    keeps no offset past those."""
    lo = positions[start - 1] if start else -1
    hi = positions[stop - 1]
    low, high = max(lo, first - 1), min(hi, last)  # the clipped (low, high]
    if low >= high:
        return []
    inst: set[int] = set()
    if hi - (lo if start else positions[0] - 1) > stop - start:
        for off in offs:
            if off:
                i = bisect_right(positions, low - off)
                j = bisect_right(positions, high - off)
                inst.update(t + off for t in positions[i:j])
    inst.update(o for o in extra if low < o <= high)
    if inst:
        inst.difference_update(positions[start:stop])
    return sorted(inst)


BLOCK = 512  # trace elements per block of the runner's backward walk


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

    With ``collect_streams`` the result keeps every key's output stream,
    over the whole trace, and the guard map the streams are checked
    against; without it both are None and each key is reduced only from
    its floor up to its reach (see the module docstring).
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
        table = analyze(pipeline_formula(formula, window_budget), operands)
    else:
        table = analyze(formula)
        if any(isinstance(node, (ExactStep, Act)) for node in table.nodes):
            raise EngineError("point-mode input must not contain marker nodes")
    # each key is the node its stream is checked against; only stream
    # readers use the map
    guard_map = {node: node for node in table.nodes} if collect_streams else None
    if table.size >= CHILD_MASK:
        raise EngineError("formula too large for the record encoding")
    positions = word.timestamps
    anchor_instant = 0 if anchor == ANCHOR_ZERO else positions[0]
    # the keys the read step builds: every atom and, in a verdict run,
    # every literal; a run that collects streams reduces every negation
    leaves = leaf_keys(table, literals=not collect_streams)
    literals = {key_id for key_id, _, flip in leaves if flip}
    floor, reach, left_from, right_from, reads, answers = compute_windows(
        table, None if collect_streams else anchor_instant, positions, literals
    )
    # the walk covers the elements up to the anchor plus the formula's
    # lookahead (at least the first, whose block holds the anchor), and
    # reads the trace as if it ended there.  On a prefix without gaps a
    # shifted position is a position or lies past the last element, so only
    # anchor instants before the first element can be gaps there.
    ahead = None if collect_streams else lookahead(formula)
    end = len(positions) if ahead is None else bisect_right(positions, anchor_instant + ahead)
    walked = max(end, 1)
    first, last = positions[0], positions[walked - 1]
    gapped = walked <= last - first
    horizon = last - anchor_instant if gapped else max(first - 1 - anchor_instant, 0)
    offsets = compute_offsets(table, horizon)
    keys = key_reducers(table, leaves, reach, answers)
    # each read step key's parents that take its records: all but the
    # column-fed ones, which read its column; the read step builds records
    # only for the keys that have such a parent
    takers = {key_id: [p for p in table.parent_ids[key_id] if p not in keys.columns]
              for key_id, _, _ in leaves}
    routed = [leaf for leaf in leaves if takers[leaf[0]]]
    # every parent is strictly taller than its children, so in this order
    # (by height, then id: the sort is stable) each key's block inbox is
    # complete when taken
    order = [i for i in range(1, table.size + 1) if table.child_ids[i] and i not in literals]
    order.sort(key=table.height_of.__getitem__)
    rows = [ReducerStats(table.node(kid), 0, 0, 0, 0, 0.0) for kid in order]  # one per key of order
    streams: Optional[dict[int, list[int]]] = {} if collect_streams else None
    root_id = table.root_id
    root_outputs: list[int] = []
    # the current block's inboxes and its sanctioned marker records, the
    # latter by offset set, since keys share offset sets; each set's
    # markers are dropped once the last key in the order that has it took
    # them
    inboxes: dict[int, list[int]] = {}
    block_markers: dict[frozenset[int], list[int]] = {}
    last_taker = {offsets[kid]: kid for kid in order}
    # each set's seeding span: from the lowest floor to the highest reach
    # of the keys that hold it
    spans: dict[frozenset[int], tuple[int, int]] = {}
    for kid in order:
        low, high = spans.get(offsets[kid], (END, 0))
        spans[offsets[kid]] = min(low, floor[kid]), max(high, reach[kid])

    # Records move between keys only through these helpers, so no local
    # name keeps a consumed inbox or a routed output alive while the next
    # key is reduced.
    def route(key_id: int, records: list[int], parents: Iterable[int]) -> None:
        """Hand a key's block records, timestamps descending, to each of
        ``parents``, cut to the instants that parent reads this operand at."""
        for parent_id in parents:
            top = (reads[parent_id] + 1) << TAU_SHIFT  # above every record it reads
            starts = left_from if table.child_ids[parent_id][0] == key_id else right_from
            bottom = starts[parent_id] << TAU_SHIFT  # at or below every record it reads
            part = records
            if records and (records[0] >= top or records[-1] < bottom):
                part = records[bisect_right(records, -top, key=neg):
                               bisect_right(records, -bottom, key=neg)]
            inboxes.setdefault(parent_id, []).extend(part)

    def read(start: int, stop: int) -> None:
        """Route the read step's records of the elements ``start:stop``,
        each key's only from its floor up to its reach."""
        per_key = atom_records(word, routed, start, stop, (floor, reach))
        while per_key:
            key_id, records = per_key.popitem()
            records.reverse()  # descending, as every key's outputs are
            route(key_id, records, takers[key_id])

    def take(key_id: int, start: int, stop: int) -> tuple[list[int], int]:
        """A key's block inbox plus its markers in the block: its sanctioned
        markers (none in point mode, where every offset set is {0}) from its
        floor up to its reach, and their number; and, when its operands are
        read only from past its floor, a position marker at each of the
        block's positions from its floor up to that first read instant (or
        past its reach), which no operand record marks as a position any
        more."""
        records = inboxes.pop(key_id, [])
        offs = offsets[key_id]
        markers = block_markers.get(offs)
        if markers is None:
            extra = offs if anchor == ANCHOR_ZERO else ()
            instants = _seed_instants(positions, start, stop, offs, extra, *spans[offs])
            markers = block_markers[offs] = [(t << TAU_SHIFT) | SANCTIONED_FLAG for t in instants]
        if last_taker[offs] == key_id:
            del block_markers[offs]
        low, high = floor[key_id], reach[key_id] + 1
        bottom, top = low << TAU_SHIFT, high << TAU_SHIFT
        if markers and (markers[0] < bottom or markers[-1] >= top):  # ascending
            markers = markers[bisect_left(markers, bottom):bisect_left(markers, top)]
        records += markers
        if left_from[key_id] > low:  # positions that no operand record reaches
            i = bisect_left(positions, low, start, stop)
            j = bisect_left(positions, min(left_from[key_id], high), i, stop)
            records += [(t << TAU_SHIFT) | POSITION_MARKER for t in positions[i:j]]
        return records, len(markers)

    def reduce_key(kid: int, row: ReducerStats, start: int, stop: int) -> None:
        nonlocal root_outputs
        records, markers = take(kid, start, stop)
        count = len(records)
        column = None
        fed = keys.columns.get(kid)
        if fed is not None:  # the block's positions it reads its operand at
            i = bisect_left(positions, right_from[kid], start, stop)
            j = bisect_right(positions, reads[kid], i, stop)
            column = positions[i:j], word.column(fed[0])[i:j]
            count += j - i
        if not count:  # nothing at this key's instants in the block
            return
        row.records_in += count
        row.markers += markers
        began = time.perf_counter()
        if column is None:
            outputs, peak = reduce_node(keys, kid, shuffle_sort(records))
        else:
            outputs, peak = reduce_node(keys, kid, records, column)
        row.iteration_ms += (time.perf_counter() - began) * 1000.0
        del records, column  # the consumed inbox, dropped before the outputs are routed
        row.peak_win = max(row.peak_win, peak)
        row.records_out += len(outputs)
        route(kid, outputs, table.parent_ids[kid])
        if streams is not None:
            streams.setdefault(kid, []).extend(outputs)
        if kid == root_id and not start:  # the anchor lies in the first block
            root_outputs = outputs

    # Walk the trace backward in blocks of elements.  A block's instants
    # lie between its elements' timestamps and the previous element's, and
    # every record at them is made within the block; instants later than
    # the block reach it only through the window states.
    for stop in range(walked, 0, -BLOCK):
        start = max(stop - BLOCK, 0)
        read(start, stop)
        for kid, row in zip(order, rows):
            reduce_key(kid, row, start, stop)
    if streams is not None:
        streams.update(atom_records(word, leaves))

    total_height = table.height
    if total_height == 1:
        root_atom = table.root
        assert isinstance(root_atom, Atom)
        anchor_index = word.index_of(anchor_instant)
        verdict_value = (
            anchor_index is not None and word.column(root_atom.name)[anchor_index] == 1
        )
    else:
        verdict_value = None
        for record in root_outputs:
            if (record >> TAU_SHIFT) == anchor_instant:
                verdict_value = bool(record & TRUTH_FLAG)
                break
        if verdict_value is None:
            raise EngineError(
                f"no verdict record at anchor instant {anchor_instant}"
            )

    peak_global = max((row.peak_win for row in rows), default=0)
    stats = RunStats(
        verdict=verdict_value,
        iterations=total_height,
        elements=word.trace_length,
        elements_reduced=walked,
        peak_win_records=peak_global,
        reducers=rows,
    )
    return PipelineResult(
        verdict=verdict_value,
        stats=stats,
        table=table,
        guard_map=guard_map,
        streams=streams,
    )
