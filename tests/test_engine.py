"""Pipeline operators and the runner."""

import gc
import io
import random
import tracemalloc
from bisect import bisect_right
from collections import defaultdict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlcheck import engine
from mtlcheck.engine import (
    ACT_CHILD,
    EngineError,
    WindowState,
    atom_records,
    compute_offsets,
    compute_windows,
    input_read,
    key_reducers,
    leaf_keys,
    pack_record,
    record_tau,
    record_truth,
    reduce_column,
    reduce_join,
    reduce_node,
    reduce_window,
    run_pipeline,
    shuffle_sort,
)
from mtlcheck.formula import (
    Act,
    And,
    Atom,
    Eventually,
    ExactStep,
    Globally,
    Interval,
    Not,
    Or,
    Until,
    analyze,
    lookahead,
    node_texts,
    parse_formula,
    postorder,
    to_text,
)
from mtlcheck.semantics import (
    ANCHOR_FIRST,
    ANCHOR_ZERO,
    LAZY,
    POINT,
    _Evaluator,
    eval_lazy,
    eval_point,
)
from mtlcheck.trace import GeneratorConfig, TraceError, generate_trace, parse_trace_lines, word
from mtlcheck.transforms import decompose, lazy_translation, operands, pipeline_formula
from oracles import (
    ShownWord,
    check_dup,
    demand,
    formulas,
    intervals,
    map_step,
    naive_reduce_join,
    naive_reduce_until,
    naive_reduce_window,
    random_formula,
    read_at,
    record_child,
    record_position,
    record_sanctioned,
    words,
)

EXAMPLE_WORD = word(
    (("p",), 1), (("p",), 2), ((), 4), (("p",), 6),
    (("p",), 8), ((), 9), ((), 10),
)

EXAMPLE_LINES = ["1 p", "2 p", "4", "6 p", "8 p", "9", "10"]

T4_WORD = word((("p",), 1), (("q",), 2), (("p",), 3), (("p", "q"), 5))
UNIT_WORD = word(*(((("p",), ("q",), ("p", "q"), ())[t % 4], t) for t in range(1, 9)))


def truths(records):
    return [(record_tau(r), record_truth(r)) for r in sorted(records)]


class TestRecordPacking:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**38), st.integers(min_value=0, max_value=2**20),
           st.booleans(), st.booleans(), st.booleans())
    def test_round_trip(self, tau, child, truth, position, sanctioned):
        r = pack_record(tau, child, truth, position, sanctioned)
        assert record_tau(r) == tau
        assert record_child(r) == child
        assert record_truth(r) == truth
        assert record_position(r) == position
        assert record_sanctioned(r) == sanctioned


class TestInputRead:
    def test_atom_records_per_position(self):
        table = analyze(parse_formula("F[3,7] p"))
        w, first = input_read(EXAMPLE_LINES)
        assert w == EXAMPLE_WORD and first == 1
        per_atom = atom_records(w, leaf_keys(table))
        aid = table.id_of[Atom("p")]
        recs = per_atom[aid]
        assert len(recs) == len(EXAMPLE_WORD)
        assert truths(recs) == [
            (1, True), (2, True), (4, False), (6, True),
            (8, True), (9, False), (10, False),
        ]
        assert all(record_position(r) and not record_sanctioned(r) for r in recs)
        assert all(record_child(r) == aid for r in recs)

    def test_records_cover_every_atom_of_the_formula(self):
        table = analyze(parse_formula("p & q"))
        per_atom = atom_records(input_read(["1 p", "2 q"])[0], leaf_keys(table))
        assert set(per_atom) == {table.id_of[Atom("p")], table.id_of[Atom("q")]}

    def test_literals_read_their_atoms_inverted(self):
        # !q is a literal; !r under an exact step and !p at the root are not
        table = analyze(Or(Atom("p"), And(Not(Atom("q")), ExactStep(2, Not(Atom("r"))))))
        literal = table.id_of[Not(Atom("q"))]
        assert [key for key, _, flip in leaf_keys(table, literals=True) if flip] == [literal]
        assert all(not flip for _, _, flip in leaf_keys(table))
        assert all(not flip for _, _, flip in leaf_keys(analyze(Not(Atom("p"))), literals=True))
        per_key = atom_records(input_read(["1 p", "2 q", "4"])[0], leaf_keys(table, literals=True))
        assert truths(per_key[literal]) == [(1, True), (2, False), (4, True)]
        assert all(record_position(r) and record_child(r) == literal for r in per_key[literal])

    def test_formula_atoms_only(self):
        table = analyze(parse_formula("F[3,7] p"))
        w, first = input_read(["1 p q", "2 r", "4 p"], atoms={"p"})
        assert w.atoms == {"p"} and first == 1
        leaves = leaf_keys(table)
        assert atom_records(w, leaves) == atom_records(input_read(["1 p q", "2 r", "4 p"])[0], leaves)
        with pytest.raises(TraceError, match="line 3"):  # a line of other atoms is checked too
            input_read(["1 p", "2 q", "2 r"], atoms={"p"})

    def test_cross_block_ordering_still_checked(self):
        with pytest.raises(TraceError, match="line 2"):
            input_read(["5 p", "3 p"])

    def test_rejects_empty_traces(self):
        with pytest.raises(TraceError):
            input_read(["# nothing"])


HORIZON = 100  # beyond every offset the tables below reach


class TestOffsets:
    def test_point_style_tables_have_trivial_offsets(self):
        table = analyze(parse_formula("(p U[0,9] q) & F[2,5] p"))
        offsets = compute_offsets(table, HORIZON)
        assert all(offs == frozenset({0}) for offs in offsets[1:])

    def test_exact_steps_shift_their_operands(self):
        table = analyze(pipeline_formula(parse_formula("F[3,7] p"), 4), operands)
        offsets = compute_offsets(table, HORIZON)
        texts = node_texts(table.nodes, operands)
        by_text = {text: offsets[table.id_of[n]] for n, text in texts.items()}
        assert by_text["F[3,4] p | F=4 (F[0,3] p)"] == frozenset({0})
        assert by_text["F[3,4] p"] == frozenset({0})
        assert by_text["F=4 (F[0,3] p)"] == frozenset({0})
        assert by_text["F[0,3] p"] == frozenset({0, 4})
        assert by_text["p"] == frozenset({0})

    def test_stacked_steps_accumulate(self):
        f = ExactStep(3, ExactStep(5, Atom("p")))
        table = analyze(f)
        offsets = compute_offsets(table, HORIZON)
        assert offsets[table.id_of[f]] == frozenset({0})
        assert offsets[table.id_of[ExactStep(5, Atom("p"))]] == frozenset({0, 3})
        # the atom is shifted by the inner step from every instant the
        # inner node is evaluated at: {0,3} + 5
        assert offsets[table.id_of[Atom("p")]] == frozenset({0, 5, 8})

    def test_booleans_pass_offsets_through(self):
        f = ExactStep(4, parse_formula("p | q"))
        table = analyze(f)
        offsets = compute_offsets(table, HORIZON)
        assert offsets[table.id_of[Atom("p")]] == frozenset({0, 4})
        assert offsets[table.id_of[Atom("q")]] == frozenset({0, 4})

    def test_offsets_stop_at_the_horizon(self):
        f = ExactStep(3, ExactStep(5, Atom("p")))
        table = analyze(f)
        offsets = compute_offsets(table, 7)
        assert offsets[table.id_of[ExactStep(5, Atom("p"))]] == frozenset({0, 3})
        assert offsets[table.id_of[Atom("p")]] == frozenset({0, 5})

    @staticmethod
    def _built_offsets(w, anchor):
        """The offsets a budget run over ``w`` builds, and the run's result."""
        f = parse_formula("F[3,17] p")
        with mock.patch.object(engine, "compute_offsets", wraps=engine.compute_offsets) as spy:
            res = run_pipeline(w, f, semantics=LAZY, window_budget=2, anchor=anchor)
        instant = 0 if anchor == ANCHOR_ZERO else w.timestamps[0]
        assert res.verdict == eval_lazy(w, instant, lazy_translation(f))
        return compute_offsets(*spy.call_args.args)[1:], res

    def test_gap_free_first_anchor_run_builds_no_offset(self):
        # a shifted position lands on a position or past the last element
        w = word(*((("p",), t) for t in range(1, 41)))
        built, res = self._built_offsets(w, ANCHOR_FIRST)
        assert set(built) == {frozenset({0})}
        assert sum(row.markers for row in res.stats.reducers) == 0

    def test_gap_free_zero_anchor_run_offsets_reach_only_the_first_gap(self):
        # only the instants 0 to 4, before the first element, are gaps
        w = word(*((("p",), t) for t in range(5, 41)))
        built, _ = self._built_offsets(w, ANCHOR_ZERO)
        assert max(max(offs) for offs in built) == 4

    def test_equal_offsets_are_one_set_object(self):
        # 2,000 hops over a four-instant trace: every key's offsets are one
        # of a handful of values, each held once
        table = analyze(pipeline_formula(parse_formula("F[0,2000] p"), 1), operands)
        offsets = compute_offsets(table, 4)[1:]
        assert len(set(offsets)) < 10
        assert len({id(offs) for offs in offsets}) == len(set(offsets))


class TestMapStep:
    def test_routes_to_every_superformula(self):
        table = analyze(parse_formula("(a & b) | !a"))
        offsets = compute_offsets(table, HORIZON)
        aid = table.id_of[Atom("a")]
        rec = pack_record(42, aid, True, True, False)
        outs = map_step(aid, rec, table, offsets)
        want_parents = {table.id_of[parse_formula("a & b")], table.id_of[parse_formula("!a")]}
        assert len(outs) == 2
        assert {k for k, _ in outs} == want_parents
        assert all(r == rec for _, r in outs)

    def test_plants_a_marker_one_step_under_an_exact_parent(self):
        table = analyze(pipeline_formula(parse_formula("F[3,7] p"), 4), operands)
        offsets = compute_offsets(table, HORIZON)
        id_of = {text: table.id_of[n] for n, text in node_texts(table.nodes, operands).items()}
        kid = id_of["F[0,3] p"]
        parent = id_of["F=4 (F[0,3] p)"]
        rec = pack_record(1, kid, True, True, False)
        outs = map_step(kid, rec, table, offsets)
        assert (parent, rec) in outs
        markers = [r for k, r in outs if k == parent and record_child(r) == ACT_CHILD]
        assert len(markers) == 1
        assert record_tau(markers[0]) == 5
        assert not record_sanctioned(markers[0])
        assert not record_truth(markers[0])

    def test_plants_sanctioned_markers_at_parent_offsets(self):
        f = ExactStep(3, ExactStep(5, Atom("p")))
        table = analyze(f)
        offsets = compute_offsets(table, HORIZON)
        aid = table.id_of[Atom("p")]
        mid = table.id_of[ExactStep(5, Atom("p"))]
        rec = pack_record(10, aid, True, True, False)
        outs = map_step(aid, rec, table, offsets)
        sanctioned = sorted(
            record_tau(r) for k, r in outs
            if k == mid and record_child(r) == ACT_CHILD and record_sanctioned(r)
        )
        assert sanctioned == [13]  # the parent's nonzero offset

    def test_markers_only_from_position_records(self):
        f = ExactStep(3, ExactStep(5, Atom("p")))
        table = analyze(f)
        offsets = compute_offsets(table, HORIZON)
        aid = table.id_of[Atom("p")]
        unflagged = pack_record(10, aid, True, False, False)
        outs = map_step(aid, unflagged, table, offsets)
        assert all(record_child(r) != ACT_CHILD for _, r in outs)

    def test_pure_and_permutation_independent(self):
        table = analyze(parse_formula("F[3,7] p"))
        offsets = compute_offsets(table, HORIZON)
        aid = table.id_of[Atom("p")]
        recs = [pack_record(t, aid, t % 2 == 0, True, False) for t in (3, 9, 27)]
        split = [map_step(aid, r, table, offsets) for r in recs]
        again = [map_step(aid, r, table, offsets) for r in reversed(recs)]
        assert split == list(reversed(again))


class TestShuffleAndDedup:
    def test_descending_by_instant_with_reals_first(self):
        aid = 3
        real5 = pack_record(5, aid, True, True, False)
        marker5 = pack_record(5, ACT_CHILD, False, False, True)
        real7 = pack_record(7, aid, False, True, False)
        got = shuffle_sort([marker5, real7, real5])
        assert got == [real7, real5, marker5]

    def test_sanctioned_markers_sort_before_plain_ones(self):
        plain = pack_record(5, ACT_CHILD, False, False, False)
        sanctioned = pack_record(5, ACT_CHILD, False, False, True)
        assert shuffle_sort([plain, sanctioned]) == [sanctioned, plain]

    def test_lone_marker_is_kept(self):
        marker = pack_record(5, ACT_CHILD, False, False, True)
        assert check_dup([marker]) == [marker]

    def test_marker_dropped_against_a_position_record(self):
        real = pack_record(5, 3, True, True, False)
        marker = pack_record(5, ACT_CHILD, False, False, True)
        assert check_dup(shuffle_sort([marker, real])) == [real]

    def test_marker_kept_against_an_off_position_value(self):
        value = pack_record(5, 3, True, False, False)
        marker = pack_record(5, ACT_CHILD, False, False, True)
        assert check_dup(shuffle_sort([marker, value])) == [value, marker]

    def test_one_marker_per_instant(self):
        sanctioned = pack_record(5, ACT_CHILD, False, False, True)
        plain = pack_record(5, ACT_CHILD, False, False, False)
        assert check_dup(shuffle_sort([plain, sanctioned])) == [sanctioned]

    def test_identical_real_duplicates_collapse(self):
        rec = pack_record(5, 3, True, True, False)
        assert check_dup([rec, rec]) == [rec]

    def test_conflicting_real_duplicates_error(self):
        a = pack_record(5, 3, True, True, False)
        b = pack_record(5, 3, False, True, False)
        with pytest.raises(EngineError, match="conflicting"):
            check_dup(shuffle_sort([a, b]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=3),
        st.booleans(), st.booleans()), max_size=25))
    def test_idempotent(self, items):
        records = []
        for tau, child, truth, flag in items:
            if child == ACT_CHILD:
                records.append(pack_record(tau, ACT_CHILD, False, False, flag))
            else:
                records.append(pack_record(tau, child, truth, True, False))
        shuffle_sort(records)
        try:
            once = check_dup(records)
        except EngineError:
            return
        assert check_dup(once) == once


KEY, LEFT, RIGHT = 9, 3, 4

ENGINE, ORACLE = 0, 1


def _window(**kwargs):
    return (reduce_window, (LEFT,), kwargs), (naive_reduce_window, (LEFT,), kwargs)


def _until(left, right):
    """Until runs on the window reducer over its right operand, cut by the
    left one, and is judged by the until oracle."""
    folded = dict(admit_any=False, cut_id=left)
    return (reduce_window, (right,), folded), (naive_reduce_until, (left, right), {})


def _join(operands):
    return (reduce_join, (operands,), {}), (naive_reduce_join, (operands,), {})


# Reducer kind -> (engine, oracle), each as (reducer, positional args,
# keyword args).  Joins take their operands' unset truths from the test.
REDUCER_KINDS = {
    "eventually": _window(admit_any=False, universal=False),
    "globally": _window(admit_any=False, universal=True),
    "exact-step": _window(admit_any=True, universal=False),
    "until": _until(LEFT, RIGHT),
    "until-same": _until(LEFT, LEFT),
    "not": _join((LEFT,)),
    "and": _join((LEFT, RIGHT)),
    "or": _join((LEFT, RIGHT)),
}


def _run_reducer(side, records, kind, iv, unset, **extra):
    """The engine's or the oracle's (outputs, peak) for a reducer kind, or
    the EngineError text it raised; ``extra`` goes to the reducer as
    keywords (a window key's carried ``state``)."""
    fn, args, kwargs = REDUCER_KINDS[kind][side]
    kwargs = {**kwargs, **extra}
    try:
        if fn in (reduce_join, naive_reduce_join):  # each operand's unset truth (or None)
            return fn(records, args[0], unset[: len(args[0])], kind, KEY, "k")
        return fn(records, *args, iv, KEY, key="k", **kwargs)
    except EngineError as exc:
        return str(exc)


@st.composite
def raw_streams(draw, children, max_instant=16):
    """Unsorted, undeduplicated key streams: real records of the given
    children plus identical copies of some, and sanctioned and unsanctioned
    markers that repeat and land on position instants.  No two real records
    of one child at one instant disagree."""
    records = []
    for t in draw(st.lists(st.integers(min_value=0, max_value=max_instant), unique=True,
                           max_size=12)):
        position = draw(st.booleans())
        for c in children:
            if draw(st.integers(min_value=0, max_value=5)):  # operands mostly present
                records.append(pack_record(t, c, draw(st.booleans()), position, False))
    if records:
        records += draw(st.lists(st.sampled_from(records), max_size=8))
    markers = draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=max_instant), st.booleans()), max_size=20))
    if markers:
        markers += draw(st.lists(st.sampled_from(markers), max_size=8))
    records += [pack_record(t, ACT_CHILD, False, False, sanctioned) for t, sanctioned in markers]
    return draw(st.permutations(records))


def _probe_intervals(shape):
    bounds = (st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=30))
    if shape == "lower-bounded":
        return st.builds(lambda lo, w: Interval(lo + 1, lo + w), *bounds)
    if shape == "open-edged":
        return st.builds(
            lambda lo, w, closed: Interval(lo, lo + w, closed, not closed),
            *bounds, st.booleans(),
        ) | st.builds(lambda lo, w: Interval(lo, lo + w, False, False), *bounds)
    return st.builds(
        lambda lo, closed: Interval(lo, None, closed, False), bounds[0], st.booleans()
    )


class TestFusedReducers:
    """The reducers deduplicate their raw shuffled input themselves; each
    must answer like a per-instant brute force over check_dup's output."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_reducers_match_the_oracle_on_raw_streams(self, data):
        kind = data.draw(st.sampled_from(sorted(REDUCER_KINDS)))
        iv = data.draw(intervals(max_bound=12, allow_unbounded=True))
        # what a join reads an operand as where it has none: a composite
        # operand must have one (None), an atom reads false, a literal true
        unsets = st.sampled_from([None, 0, engine.TRUTH_FLAG])
        unset = (data.draw(unsets, label="left unset"), data.draw(unsets, label="right unset"))
        children = [LEFT] if kind in ("eventually", "globally", "exact-step", "not",
                                      "until-same") else [LEFT, RIGHT]
        records = data.draw(raw_streams(children))
        window = REDUCER_KINDS[kind][ENGINE][0] is reduce_window
        extra = {}
        if window:
            # a window key answers no instant past its reach, nor, with
            # answer instants, any other instant, and buffers, evicts,
            # cuts and counts its peak there as without them
            reach = data.draw(st.integers(min_value=0, max_value=17) | st.just(engine.END),
                              label="reach")
            extra = dict(reach=reach)
            if data.draw(st.booleans(), label="with answer instants"):
                answers = data.draw(st.lists(st.integers(min_value=0, max_value=17), unique=True),
                                    label="answers")
                extra["answers"] = sorted([t for t in answers if t <= reach], reverse=True)
        got = _run_reducer(ENGINE, shuffle_sort(list(records)), kind, iv, unset, **extra)
        want = _run_reducer(ORACLE, records, kind, iv, unset)
        if window and not isinstance(want, str):
            answered = extra.get("answers")
            want = [r for r in want[0] if record_tau(r) <= reach
                    and (answered is None or record_tau(r) in answered)], want[1]
        assert got == want
        if window:
            # the same stream in two blocks through one carried buffer,
            # split at an instant boundary: an instant's records are in one
            ordered = shuffle_sort(list(records))
            cut = data.draw(st.integers(min_value=0, max_value=17))
            split = sum(record_tau(r) >= cut for r in ordered)
            state = WindowState()
            first = _run_reducer(ENGINE, ordered[:split], kind, iv, unset, state=state, **extra)
            second = _run_reducer(ENGINE, ordered[split:], kind, iv, unset, state=state, **extra)
            if isinstance(want, str):
                assert want in (first, second)
            else:
                assert (first[0] + second[0], second[1]) == want

    @pytest.mark.parametrize("shape", ["lower-bounded", "open-edged", "unbounded"])
    @pytest.mark.parametrize("kind", ["eventually", "globally", "until"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_probe_matches_a_linear_scan(self, shape, kind, data):
        iv = data.draw(_probe_intervals(shape))
        instants = data.draw(st.lists(
            st.integers(min_value=1, max_value=400), min_size=1, max_size=150, unique=True))
        density = data.draw(st.floats(min_value=0.05, max_value=0.95))
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**16)))
        records = []
        for t in instants:
            records.append(pack_record(t, RIGHT if kind == "until" else LEFT,
                                       rng.random() < density, True, False))
            if kind == "until":
                records.append(pack_record(t, LEFT, rng.random() < 0.97, True, False))
            if rng.random() < 0.3:
                records.append(pack_record(t + rng.randint(1, 9), ACT_CHILD, False, False, True))
        compact_after = data.draw(st.sampled_from([1, 3, engine.COMPACT_AFTER]))
        with mock.patch.object(engine, "COMPACT_AFTER", compact_after):
            got = _run_reducer(ENGINE, shuffle_sort(list(records)), kind, iv, ())
        want = _run_reducer(ORACLE, records, kind, iv, ())
        assert got == want

    @pytest.mark.parametrize("kind", ["eventually", "until", "and"])
    def test_conflicting_duplicates_error(self, kind):
        child = RIGHT if kind == "until" else LEFT
        records = shuffle_sort([
            pack_record(7, child, True, True, False),
            pack_record(5, child, True, True, False),
            pack_record(5, child, False, True, False),
        ])
        got = _run_reducer(ENGINE, records, kind, Interval(0, 3), (0, 0))
        assert got == "conflicting duplicate records for k at instant 5"


class TestColumnLoop:
    """``reduce_column`` reads an eventually or globally key's operand off
    its atom's flag column; ``reduce_window`` over the operand's packed
    records (as the read step builds them) plus the same markers, sorted by
    ``shuffle_sort``, is its reference, and so is the window oracle, which
    shares no code with the engine's window loop."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_reduce_window_over_the_packed_records(self, data):
        draw = data.draw
        n = draw(st.integers(min_value=1, max_value=30), label="elements")
        gaps = st.integers(min_value=1, max_value=4) if draw(st.booleans(), label="gapped") \
            else st.just(1)
        stamps = [draw(st.integers(min_value=1, max_value=4), label="first")]
        for _ in range(n - 1):
            stamps.append(stamps[-1] + draw(gaps))
        flags = bytes(draw(st.lists(st.integers(min_value=0, max_value=1),
                                    min_size=n, max_size=n), label="flags"))
        w = ShownWord(stamps, {"p": bytearray(flags)})
        iv = draw(intervals(max_bound=12, allow_unbounded=True) | st.just(Interval(0, 0)),
                  label="interval")
        universal = draw(st.booleans(), label="globally")
        flip = draw(st.sampled_from([0, engine.TRUTH_FLAG]), label="literal flip")
        # the positions the key reads its operand at, stamps[i:j], and the
        # position markers below them, at stamps[low:i]
        i = draw(st.integers(min_value=0, max_value=n), label="right_from index")
        j = draw(st.integers(min_value=i, max_value=n), label="reads index")
        low = draw(st.integers(min_value=0, max_value=i), label="floor index")
        holes = sorted(set(range(stamps[-1] + 1)) - set(stamps))  # gaps and instants before the first
        sanctioned = draw(st.lists(st.sampled_from(holes), unique=True), label="sanctioned") \
            if holes else []
        markers = [(t << engine.TAU_SHIFT) | engine.SANCTIONED_FLAG for t in sanctioned]
        markers += [(t << engine.TAU_SHIFT) | engine.POSITION_MARKER for t in stamps[low:i]]
        reach = draw(st.integers(min_value=0, max_value=stamps[-1] + 1) | st.just(engine.END),
                     label="reach")
        keywords = dict(universal=universal, reach=reach)
        if draw(st.booleans(), label="with answer instants"):
            answers = draw(st.lists(st.integers(min_value=0, max_value=stamps[-1] + 1),
                                    unique=True), label="answers")
            keywords["answers"] = sorted([t for t in answers if t <= reach], reverse=True)

        leaf = [(LEFT, "p", flip)]
        operand = atom_records(w, leaf, i, j).get(LEFT, [])
        records = operand + markers
        want = reduce_window(shuffle_sort(records), LEFT, iv, KEY, **keywords)
        # the oracle answers a position marker as a record of another
        # operand at that position, which pushes nothing
        shown = operand + [pack_record(t, RIGHT, False, True, False) for t in stamps[low:i]]
        shown += [m for m in markers if m & 7 == engine.SANCTIONED_FLAG]
        naive, naive_peak = naive_reduce_window(shown, LEFT, iv, KEY, universal=universal)
        answered = keywords.get("answers")
        naive = [r for r in naive if record_tau(r) <= reach
                 and (answered is None or record_tau(r) in answered)]
        assert want == (naive, naive_peak)

        # the runner's blocks: elements [start, stop), the last block first,
        # each with its instants after the previous element's timestamp
        cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=n - 1)), label="cuts")
                      if n > 1 else set())
        bounds = list(zip([0] + cuts, cuts + [n]))[::-1]
        state = WindowState()
        outputs, peak = [], 0
        for start, stop in bounds:
            after = stamps[start - 1] if start else -1
            mine = [m for m in markers if after < m >> engine.TAU_SHIFT <= stamps[stop - 1]]
            mine = draw(st.permutations(mine), label="marker order")
            a, b = max(i, start), min(j, stop)
            got, peak = reduce_column(stamps[a:b], flags[a:b], mine, flip, iv, KEY,
                                      state=state, **keywords)
            outputs += got
        assert (outputs, peak) == want

    @pytest.mark.parametrize("universal", [False, True])
    def test_a_marker_evicts_past_the_upper_edge(self, universal):
        # F[0,2] p pushes a witness at 10 (G[0,2] p a violation); the
        # sanctioned marker at 7 must evict it before it answers
        flags = b"\x01\x00" if not universal else b"\x00\x01"
        markers = [(7 << engine.TAU_SHIFT) | engine.SANCTIONED_FLAG]
        outputs, peak = reduce_column([10, 11], flags, markers, 0, Interval(0, 2), KEY,
                                      universal=universal)
        assert [(record_tau(r), record_truth(r) != universal) for r in outputs] == [
            (11, False), (10, True), (7, False)]
        assert peak == 1


class TestWindowState:
    def test_blocks_resume_one_pass_with_bounded_slack(self):
        # one position record per instant under F[0,999], six in seven of
        # them witnesses: about 857 live entries once the window is full,
        # so the eighth of them outweighs COMPACT_AFTER
        records = [pack_record(t, LEFT, t % 7 != 0, True, False) for t in range(6000, 0, -1)]
        iv = Interval(0, 999)
        whole, whole_peak = reduce_window(records, LEFT, iv, KEY)
        state = engine.WindowState()
        outputs = []
        for i in range(0, len(records), 50):
            block, peak = reduce_window(records[i:i + 50], LEFT, iv, KEY, state=state)
            outputs += block
            live = len(state.win) - state.head
            assert len(state.win) <= live + max(engine.COMPACT_AFTER, peak // 8)
        assert (outputs, peak) == (whole, whole_peak)
        assert peak // 8 > engine.COMPACT_AFTER

    def test_answered_instants_evict_past_the_upper_edge(self):
        # under F[0,3], a witness at 100 is out of reach of every answer
        # from 50 down, so the first of them empties the buffer
        records = [pack_record(100, LEFT, True, True, False)]
        records += [pack_record(t, LEFT, False, True, False) for t in range(50, 44, -1)]
        state = engine.WindowState()
        outputs, peak = reduce_window(records, LEFT, Interval(0, 3), KEY, state=state)
        assert len(state.win) - state.head == 0
        assert [r & 1 for r in outputs] == [1, 0, 0, 0, 0, 0, 0]
        assert peak == 1

    @staticmethod
    def _assert_buffer_holds_at_most_12_bytes_per_record(reduce):
        state = engine.WindowState()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            outputs, peak = reduce(state)
            del outputs
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert peak == len(state.win) - state.head == 10_000
        assert grown <= 12 * peak, f"the buffer grew {grown / peak:.1f} B per record"

    def test_buffer_holds_at_most_12_bytes_per_record(self):
        # G[0,9999] over 10,000 violations buffers every one of them
        records = [pack_record(t, LEFT, False, True, False) for t in range(10_000, 0, -1)]
        self._assert_buffer_holds_at_most_12_bytes_per_record(
            lambda state: reduce_window(records, LEFT, Interval(0, 9_999), KEY,
                                        universal=True, state=state))

    def test_column_buffer_holds_at_most_12_bytes_per_record(self):
        # the same off a flag column: 10,000 positions where p is false
        positions, flags = list(range(1, 10_001)), bytes(10_000)
        self._assert_buffer_holds_at_most_12_bytes_per_record(
            lambda state: reduce_column(positions, flags, [], 0, Interval(0, 9_999), KEY,
                                        universal=True, state=state))


class TestReducers:
    def _window_run(self, formula_text, w):
        f = parse_formula(formula_text)
        res = run_pipeline(w, f, collect_streams=True)
        return truths(res.stream_of(res.table.root))

    def test_zero_anchored_window(self):
        got = self._window_run("F[0,3] p", EXAMPLE_WORD)
        assert got == [
            (1, True), (2, True), (4, True), (6, True),
            (8, True), (9, False), (10, False),
        ]

    def test_globally_window(self):
        w = word((("q",), 1), (("q",), 2), (("q",), 3), ((), 4))
        got = self._window_run("G[0,2] q", w)
        assert got == [(1, True), (2, False), (3, False), (4, False)]

    def test_boolean_joins(self):
        w = word((("a",), 5),)
        f = parse_formula("a & b")
        res = run_pipeline(w, f, collect_streams=True)
        assert truths(res.stream_of(res.table.root)) == [(5, False)]
        f = parse_formula("a | b")
        res = run_pipeline(w, f, collect_streams=True)
        assert truths(res.stream_of(res.table.root)) == [(5, True)]

    def test_or_window_rows(self):
        got = self._window_run("p | !p", EXAMPLE_WORD)
        assert all(v for _, v in got)

    def test_until_with_tautological_left_is_a_window(self):
        left_true = self._window_run("(p | !p) U[3,7] p", EXAMPLE_WORD)
        window = self._window_run("F[3,7] p", EXAMPLE_WORD)
        assert left_true == window

    def test_until_zero_width_is_the_right_operand(self):
        got = self._window_run("p U[0,0] p", EXAMPLE_WORD)
        plain = self._window_run("p", EXAMPLE_WORD)
        assert got == plain

    def test_until_kills_do_not_cancel_same_instant_witnesses(self):
        # the left operand fails exactly at the witness instant: continuity
        # is only required strictly between the anchor and the witness
        w = word((("a",), 1), (("a",), 2), (("b",), 3))
        got = self._window_run("a U[0,5] b", w)
        assert got == [(1, True), (2, True), (3, True)]

    def test_until_kills_cut_older_anchors(self):
        w = word((("a",), 1), ((), 2), (("b",), 3))
        got = self._window_run("a U[0,5] b", w)
        assert got == [(1, False), (2, True), (3, True)]


class TestRunPipeline:
    def test_worked_example_point_run(self):
        f = parse_formula("F[3,7] p")
        res = run_pipeline(EXAMPLE_WORD, f, collect_streams=True)
        assert res.verdict is True
        assert res.stats.iterations == 2
        root_records = sorted(res.stream_of(res.table.root), reverse=True)
        assert [(record_truth(r), record_tau(r)) for r in root_records] == [
            (False, 10), (False, 9), (False, 8), (False, 6),
            (True, 4), (True, 2), (True, 1),
        ]

    def test_worked_example_budget_run(self):
        f = parse_formula("F[3,7] p")
        res = run_pipeline(EXAMPLE_WORD, f, semantics=LAZY, window_budget=4)
        assert res.verdict is True
        assert res.stats.iterations == 4  # read plus three reduce waves
        assert res.stats.peak_win_records <= 5

    def test_guard_map_only_with_streams(self):
        f = parse_formula("F[3,7] p")
        for kwargs in ({}, dict(semantics=LAZY, window_budget=4)):
            assert run_pipeline(EXAMPLE_WORD, f, **kwargs).guard_map is None
            res = run_pipeline(EXAMPLE_WORD, f, collect_streams=True, **kwargs)
            assert res.guard_map == {node: node for node in res.table.nodes}
        # a budget run's keys are nodes of the guarded plan itself
        plan = decompose(lazy_translation(f), 4)
        assert set(res.table.nodes) <= set(postorder(plan))

    def test_atom_root_is_a_read_only_run(self):
        res = run_pipeline(EXAMPLE_WORD, Atom("p"))
        assert res.verdict is True
        assert res.stats.iterations == 1
        assert res.stats.reducers == []
        res = run_pipeline(EXAMPLE_WORD, Atom("q"))
        assert res.verdict is False

    def test_emission_instants_follow_positions_and_offsets(self):
        w = word((("p",), 7), (("p",), 12), (("p",), 13), (("p",), 15))
        res = run_pipeline(w, parse_formula("F[3,7] p"), semantics=LAZY,
                           window_budget=3, collect_streams=True)
        positions = set(w.timestamps)
        offsets = compute_offsets(res.table, 15 - 7)  # the horizon from the first element
        for node_id, stream in res.streams.items():
            offs = offsets[node_id]
            # no instant past the last element: every key is constant there
            want = positions | {t + o for t in positions for o in offs if o and t + o <= 15}
            assert {record_tau(r) for r in stream} == want
            flagged = {record_tau(r) for r in stream if record_position(r)}
            assert flagged == positions

    def test_verdict_extraction_anchors(self):
        # the pipeline reads the position-guarded translation: at the first
        # position's timestamp that equals the point verdict, at instant
        # zero it is the translation's value there
        w = word((("q",), 1), (("p",), 7))
        f = parse_formula("F=6 p")
        assert run_pipeline(w, f, semantics=LAZY, window_budget=6).verdict is True
        assert run_pipeline(w, f, semantics=LAZY, window_budget=6,
                            anchor=ANCHOR_ZERO).verdict is False
        f2 = parse_formula("F=3 (F=3 p)")
        for anchor in (None, ANCHOR_ZERO):
            kwargs = {"anchor": anchor} if anchor else {}
            res = run_pipeline(w, f2, semantics=LAZY, window_budget=3, **kwargs)
            instant = 0 if anchor == ANCHOR_ZERO else w.timestamps[0]
            assert res.verdict == eval_lazy(w, instant, lazy_translation(f2))
            assert res.verdict is False  # point reading: no position 3 apart
        # the raw lazy reading of f2 differs (virtual instants bridge the
        # gap); that reading belongs to the reference evaluator
        assert eval_lazy(w, w.timestamps[0], f2) is True

    def test_zero_anchor_atom_root(self):
        res = run_pipeline(EXAMPLE_WORD, Atom("p"), semantics=LAZY,
                           window_budget=2, anchor=ANCHOR_ZERO)
        assert res.verdict is False

    def test_config_errors(self):
        with pytest.raises(EngineError):
            run_pipeline(EXAMPLE_WORD, Atom("p"), semantics=LAZY)
        with pytest.raises(EngineError):
            run_pipeline(EXAMPLE_WORD, Atom("p"), anchor=ANCHOR_ZERO)
        with pytest.raises(EngineError):
            run_pipeline(EXAMPLE_WORD, Atom("p"), workers=0)
        with pytest.raises(EngineError):
            run_pipeline(EXAMPLE_WORD, ExactStep(3, Atom("p")))
        for nested in (Or(parse_formula("F[0,2] q"), ExactStep(2, Atom("p"))),
                       And(Atom("p"), Not(Act()))):
            with pytest.raises(EngineError, match="marker nodes"):
                run_pipeline(EXAMPLE_WORD, nested)
        with pytest.raises(EngineError):
            run_pipeline(EXAMPLE_WORD, Atom("p"), semantics="signal")

    def test_window_budget_caps_the_peak(self):
        w = word(*((("p",), t) for t in range(1, 201)))
        f = parse_formula("F[0,50] p")
        res = run_pipeline(w, f)
        assert res.stats.peak_win_records == 51
        res = run_pipeline(w, f, window_budget=10)
        assert res.stats.peak_win_records <= 11
        assert res.verdict is True

    def test_stats_envelope_shape(self):
        f = parse_formula("F[3,7] p")
        res = run_pipeline(EXAMPLE_WORD, f, semantics=LAZY, window_budget=4)
        payload = res.stats.to_json_dict()
        assert set(payload) == {
            "verdict", "iterations", "elements", "elements_reduced", "peak_win_records",
            "reducers",
        }
        assert payload["elements"] == len(EXAMPLE_WORD)
        heights = []
        texts = node_texts(res.table.nodes, operands)
        for row in payload["reducers"]:
            assert set(row) == {
                "reducer_key", "peak_win", "records_in", "markers", "records_out",
                "iteration_ms",
            }
            assert 0 <= row["markers"] <= row["records_in"]
            node = next(
                n for n in res.table.nodes if texts[n] == row["reducer_key"]
            )
            heights.append(res.table.height_of[res.table.id_of[node]])
        assert heights == sorted(heights)


def _mapper_route(w, formula, budget):
    """The record-by-record mapper route: markers planted per mapped record
    instead of seeded by the runner.  Used to pin the runner's seeding."""
    if budget is not None:
        table = analyze(pipeline_formula(formula, budget), operands)
    else:
        table = analyze(formula)
    first, last = w.timestamps[0], w.timestamps[-1]
    offsets = (
        compute_offsets(table, last - first)
        if budget is not None
        else [frozenset({0})] * (table.size + 1)
    )
    inbox = defaultdict(list)
    streams = {}
    leaves = leaf_keys(table)
    for aid, recs in atom_records(w, leaves).items():
        streams[aid] = list(recs)
        for rec in recs:
            for key, out in map_step(aid, rec, table, offsets, last):
                inbox[key].append(out)
    reducers = key_reducers(table, leaves, [engine.END] * (table.size + 1), {})
    keys = [i for i in range(1, table.size + 1) if table.child_ids[i]]
    for kid in sorted(keys, key=lambda i: table.height_of[i]):
        outputs, _ = reduce_node(reducers, kid, shuffle_sort(inbox.pop(kid, [])))
        streams[kid] = outputs
        for rec in outputs:
            for key, out in map_step(kid, rec, table, offsets, last):
                inbox[key].append(out)
    return table, streams


class TestSeedingMatchesTheMapperRoute:
    @settings(max_examples=120, deadline=None)
    @given(formulas(max_depth=3, max_bound=8), st.integers(min_value=1, max_value=5),
           words(max_len=7, max_timestamp=20))
    def test_budget_runs(self, f, k, w):
        table, streams = _mapper_route(w, f, k)
        res = run_pipeline(w, f, semantics=LAZY, window_budget=k, collect_streams=True)
        assert res.table.id_of == table.id_of
        assert res.streams == streams

    @settings(max_examples=80, deadline=None)
    @given(formulas(max_depth=3, max_bound=8, allow_unbounded=True), words())
    def test_point_runs(self, f, w):
        table, streams = _mapper_route(w, f, None)
        res = run_pipeline(w, f, collect_streams=True)
        assert res.streams == streams


class TestTail:
    """No key reads anything past the last element: an exact step whose
    step lands there reads no record and answers false, which is right
    because the decomposition puts every exact step over an operand that
    is false there."""

    @settings(max_examples=150, deadline=None)
    @given(formulas(max_depth=3, max_bound=8), st.integers(min_value=1, max_value=5),
           words(max_len=7, max_timestamp=20))
    def test_exact_step_operands_are_false_past_the_end(self, f, k, w):
        plan = pipeline_formula(f, k)
        last = w.timestamps[-1]
        for node in postorder(plan):
            if isinstance(node, ExactStep):
                for t in range(last + 1, last + 1 + node.step):
                    assert not eval_lazy(w, t, node.child), (to_text(node), t)

    @settings(max_examples=150, deadline=None)
    @given(formulas(max_depth=3, max_bound=8), st.integers(min_value=1, max_value=5),
           words(max_len=7, max_timestamp=20), st.sampled_from([ANCHOR_FIRST, ANCHOR_ZERO]))
    def test_no_record_past_the_last_element(self, f, k, w, anchor):
        res = run_pipeline(w, f, semantics=LAZY, window_budget=k, anchor=anchor,
                           collect_streams=True)
        last = w.timestamps[-1]
        for stream in res.streams.values():
            assert all(record_tau(r) <= last for r in stream)

    def test_zero_anchor_plants_no_instant_past_the_last_element(self):
        # the steps reach 6 on a trace that ends at 2, so offsets stop at
        # the horizon 2; only instant 0 is a gap
        w = word((("p",), 1), (("p",), 2))
        res = run_pipeline(w, parse_formula("F[3,7] p"), semantics=LAZY, window_budget=2,
                           anchor=ANCHOR_ZERO, collect_streams=True)
        assert max(max(offs) for offs in compute_offsets(res.table, 2)[1:]) == 2
        assert {record_tau(r) for s in res.streams.values() for r in s} == {0, 1, 2}
        assert res.verdict is False


class TestAgainstTheEvaluators:
    @settings(max_examples=150, deadline=None)
    @given(formulas(max_depth=4, max_bound=10, allow_unbounded=True), words())
    def test_point_streams_match_the_evaluator(self, f, w):
        res = run_pipeline(w, f, collect_streams=True)
        assert res.verdict == eval_point(w, 0, f)
        index_of = {t: i for i, t in enumerate(w.timestamps)}
        for node in res.table.nodes:
            stream = res.streams[res.table.id_of[node]]
            assert len(stream) == len(w)
            for r in stream:
                i = index_of[record_tau(r)]
                assert eval_point(w, i, node) == record_truth(r)

    @settings(max_examples=150, deadline=None)
    @given(formulas(max_depth=3, max_bound=8), st.integers(min_value=1, max_value=5),
           words(max_len=7, max_timestamp=20))
    def test_budget_streams_match_the_lazy_evaluator(self, f, k, w):
        res = run_pipeline(w, f, semantics=LAZY, window_budget=k, collect_streams=True)
        assert res.verdict == eval_point(w, 0, f)
        for node in res.table.nodes:
            if isinstance(node, Atom):
                continue
            for r in res.streams[res.table.id_of[node]]:
                want = eval_lazy(w, record_tau(r), res.guard_map[node])
                assert want == record_truth(r)

    @pytest.mark.parametrize("text", ["F[0,1000] r", "G[0,300] !r", "p U[0,300] q"])
    @pytest.mark.parametrize("w", [T4_WORD, UNIT_WORD], ids=["gapped", "unit-spaced"])
    def test_deep_plan_streams_match_the_lazy_evaluator(self, text, w):
        # plans hundreds of hops deep; one evaluator's memo serves every
        # record, as a fresh one per record would re-read the whole chain
        f = parse_formula(text)
        res = run_pipeline(w, f, semantics=LAZY, window_budget=1, collect_streams=True)
        assert res.table.height > 300
        assert res.verdict == eval_point(w, 0, f)
        evaluator = _Evaluator(w, lazy=True)
        for node in res.table.nodes:
            if isinstance(node, Atom):
                continue
            for r in res.streams[res.table.id_of[node]]:
                assert evaluator.eval(res.guard_map[node], record_tau(r)) == record_truth(r)


def floor_formulas(allow_unbounded=False):
    """Random formulas, hop chains (decomposed at a small budget) and windows
    whose lower bound is positive, over random operands: the shapes whose
    keys are read from a floor past the anchor."""
    n = st.integers(min_value=2, max_value=30)
    chains = st.one_of(
        st.builds(lambda n: parse_formula(f"F[0,{n}] r"), n),
        st.builds(lambda n: parse_formula(f"p U[0,{n}] q"), n),
        st.builds(lambda n: parse_formula(f"G[0,{n}] !r"), n),
    )
    kinds = [Eventually, Globally, lambda iv, f: Until(iv, Atom("p"), f)]
    lower_bounded = st.builds(
        lambda lo, width, closed, kind, f: kind(Interval(lo, lo + width, True, closed), f),
        st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=8),
        st.booleans(), st.sampled_from(kinds), formulas(max_depth=2, max_bound=5),
    )
    random_ones = formulas(max_depth=3, max_bound=8, allow_unbounded=allow_unbounded)
    return st.one_of(random_ones, chains, lower_bounded)


def _shown(res):
    """What a run shows: verdict, streams and stats without timings."""
    rows = [(row.reducer_key, row.peak_win, row.records_in, row.markers, row.records_out)
            for row in res.stats.reducers]
    return res.verdict, res.streams, res.stats.peak_win_records, res.stats.iterations, rows


class TestBlocks:
    """The runner walks the trace backward in blocks of ``engine.BLOCK``
    elements; the block size must change nothing a run shows."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_block_size_changes_nothing(self, data):
        mode = data.draw(st.sampled_from([POINT, ANCHOR_FIRST, ANCHOR_ZERO]))
        f = data.draw(floor_formulas(allow_unbounded=mode == POINT))
        w = data.draw(words(max_len=9, max_timestamp=24))
        if data.draw(st.booleans(), label="contiguous"):
            w = ShownWord(range(1, len(w) + 1), {a: w.column(a) for a in w.atoms})
        kwargs = {}
        if mode != POINT:
            k = data.draw(st.integers(min_value=1, max_value=5), label="k")
            kwargs = dict(semantics=LAZY, window_budget=k, anchor=mode)
        want = _shown(run_pipeline(w, f, collect_streams=True, **kwargs))
        block = data.draw(st.sampled_from([1, 2, 3]), label="block")
        with mock.patch.object(engine, "BLOCK", block):
            assert _shown(run_pipeline(w, f, collect_streams=True, **kwargs)) == want


# 40 elements, with gaps of 1 and 4
GAPPED_WORD = word(*(
    ((("p",), ("q",), ("p", "q"), ("r",))[i % 4], 3 * i + i % 3 + 1) for i in range(40)
))


class TestLookahead:
    """``formula.lookahead``, which sets the prefix of the trace a check
    keeps and walks, is that of the checked plan, and no key the plan
    reads reads its operands past the anchor plus it, in every mode."""

    def test_lookahead_bounds_the_plans_reads(self):
        rng = random.Random(22)
        modes = [  # point, point --k, lazy first anchor --k, lazy zero anchor --k
            {}, dict(semantics=POINT), dict(semantics=LAZY), dict(semantics=LAZY, anchor=ANCHOR_ZERO),
        ]
        positions = GAPPED_WORD.timestamps
        for i in range(2000):
            unbounded = i % 5 == 0
            f = random_formula(rng, 4, 12, allow_unbounded=unbounded)
            want = lookahead(f)
            for kwargs in modes[:1] if unbounded else modes:
                if kwargs:
                    kwargs = dict(kwargs, window_budget=rng.choice([1, 2, 3, 5]))
                table = run_pipeline(GAPPED_WORD, f, **kwargs).table
                assert lookahead(table.root) == want, (to_text(f), kwargs)
                anchor = 0 if kwargs.get("anchor") == ANCHOR_ZERO else positions[0]
                floor, reach, _, _, reads, _ = compute_windows(table, anchor, positions)
                bound = engine.END if want is None else anchor + want
                for k in range(1, table.size + 1):
                    if floor[k] <= reach[k]:
                        assert reads[k] <= bound, (to_text(f), kwargs, k)


def _reach_case(data):
    """A formula, a word whose span may exceed the formula's lookahead, and
    the run's keyword arguments, in point, first-anchor or zero-anchor
    mode; and the deepest instant the run reads, None when unbounded."""
    mode = data.draw(st.sampled_from([POINT, ANCHOR_FIRST, ANCHOR_ZERO]), label="mode")
    f = data.draw(floor_formulas(allow_unbounded=mode == POINT))
    w = data.draw(words(max_len=14, max_timestamp=60))
    if mode == POINT:
        kwargs, plan, anchor = {}, f, w.timestamps[0]
    else:
        k = data.draw(st.integers(min_value=1, max_value=5), label="k")
        kwargs = dict(semantics=LAZY, window_budget=k, anchor=mode)
        plan = pipeline_formula(f, k)
        anchor = 0 if mode == ANCHOR_ZERO else w.timestamps[0]
    ahead = lookahead(plan)
    return f, w, kwargs, None if ahead is None else anchor + ahead


def _prefix(w, n):
    """The word's first n elements."""
    return ShownWord(w.timestamps[:n], {a: w.column(a)[:n] for a in w.atoms})


class TestReach:
    """A run without streams reduces each key only from its floor up to
    the last instant its readers read it at, and walks the trace only up to
    the deepest such instant: the elements past it change nothing the run
    shows.  The drawn formulas include hop chains and windows with a
    positive lower bound, whose keys have floors past the anchor."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_verdicts_match_the_evaluators(self, data):
        f, w, kwargs, _ = _reach_case(data)
        if kwargs.get("anchor") == ANCHOR_ZERO:
            want = eval_lazy(w, 0, lazy_translation(f))
        else:
            want = eval_point(w, 0, f)
        assert run_pipeline(w, f, **kwargs).verdict == want

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_elements_past_the_deepest_reach_change_nothing(self, data):
        f, w, kwargs, deepest = _reach_case(data)
        n = len(w) if deepest is None else max(bisect_right(w.timestamps, deepest), 1)
        res = run_pipeline(w, f, **kwargs)
        cut = run_pipeline(_prefix(w, n), f, **kwargs)
        assert res.stats.elements_reduced == cut.stats.elements_reduced == n
        assert _shown(cut) == _shown(res)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_block_size_changes_nothing(self, data):
        f, w, kwargs, _ = _reach_case(data)
        res = run_pipeline(w, f, **kwargs)
        want = _shown(res), res.stats.elements_reduced
        block = data.draw(st.sampled_from([1, 2, 3]), label="block")
        with mock.patch.object(engine, "BLOCK", block):
            res = run_pipeline(w, f, **kwargs)
        assert (_shown(res), res.stats.elements_reduced) == want

    def test_outputs_lie_in_the_window_and_match_the_full_streams(self):
        # every reduced key's outputs are the full run's records there, and
        # a key with answer instants answers only where some reader reads it;
        # the spy sees the column-fed keys too, and the cases draw some
        column_fed = set()

        @settings(max_examples=200, deadline=None)
        @given(st.data())
        def check(data):
            f, w, kwargs, _ = _reach_case(data)
            outputs = defaultdict(list)
            reduce_node = engine.reduce_node

            def spy(keys, node_id, records, column=None):
                got = reduce_node(keys, node_id, records, column)
                outputs[node_id] += got[0]
                if column is not None:
                    column_fed.add(to_text(keys.table.node(node_id)))
                return got

            with mock.patch.object(engine, "reduce_node", spy):
                res = run_pipeline(w, f, **kwargs)
            full = run_pipeline(w, f, collect_streams=True, **kwargs)
            assert full.table.id_of == res.table.id_of
            anchor = 0 if kwargs.get("anchor") == ANCHOR_ZERO else w.timestamps[0]
            literals = {key for key, _, flip in leaf_keys(res.table, literals=True) if flip}
            assert not literals & set(outputs)  # read, not reduced
            floor, reach, _, _, _, answers = compute_windows(
                res.table, anchor, w.timestamps, literals)
            read = read_at(res.table, w.timestamps, anchor)
            for kid, records in outputs.items():
                at = {record_tau(r): r for r in full.streams[kid]}
                for r in records:
                    assert floor[kid] <= record_tau(r) <= reach[kid], (kid, r)
                    assert at.get(record_tau(r)) == r, (kid, r)
                if kid in answers:
                    assert {record_tau(r) for r in records} <= read[kid], kid

        check()
        assert column_fed

    @pytest.mark.parametrize("text", ["F[0,4] p | F[2,6] p", "F[0,4] r | F[2,6] r"])
    @pytest.mark.parametrize("anchor", [ANCHOR_FIRST, ANCHOR_ZERO])
    def test_a_key_read_at_two_instants_leaves_its_operands_none(self, text, anchor):
        # --k 1 reads the chain of F[0,4] at the anchor and, through
        # F[2,6]'s first step, two instants later: its first disjunction
        # answers every instant between, and reads its operands there
        f = parse_formula(text)
        res = run_pipeline(GAPPED_WORD, f, semantics=LAZY, window_budget=1, anchor=anchor)
        instant = 0 if anchor == ANCHOR_ZERO else GAPPED_WORD.timestamps[0]
        assert res.verdict == eval_lazy(GAPPED_WORD, instant, lazy_translation(f))

    def test_a_hop_head_answers_only_where_it_is_read(self):
        # G[0,100] q --k 10 reads its hop head F[0,10] !q at the anchor and
        # every 10 instants after it, and !q, a literal, is never reduced
        w = word(*(((("q",) if t % 7 else ()), t) for t in range(1, 201)))
        f = parse_formula("G[0,100] q")
        res = run_pipeline(w, f, semantics=LAZY, window_budget=10)
        assert res.verdict is False
        rows = {row.reducer_key: row for row in res.stats.reducers}
        assert parse_formula("!q") in res.table.id_of
        assert parse_formula("!q") not in rows
        head = next(key for key in rows if isinstance(key, Eventually))
        assert head.interval == Interval(0, 10)
        read = read_at(res.table, w.timestamps, w.timestamps[0])
        assert rows[head].records_out == len(read[res.table.id_of[head]]) == 10
        # only the literal reads q, so q has no window and builds no records
        literal = res.table.id_of[parse_formula("!q")]
        floor, reach, *_ = compute_windows(res.table, w.timestamps[0], w.timestamps, {literal})
        q = res.table.id_of[Atom("q")]
        assert floor[q] > reach[q] and floor[literal] <= reach[literal]

    @pytest.mark.parametrize("kwargs", [
        {}, dict(semantics=LAZY, window_budget=1),
        dict(semantics=LAZY, window_budget=1, anchor=ANCHOR_ZERO),
    ])
    def test_an_until_cut_past_the_reach_still_cuts(self, kwargs):
        # at 1, q's witness at 3 is cut by p failing at 2, an instant past
        # the key's reach, 1, where it answers nothing
        w = word((("q",), 1), (("q",), 2), (("q",), 3))
        f = parse_formula("p U[2,3) q")
        if kwargs.get("anchor") == ANCHOR_ZERO:
            want = eval_lazy(w, 0, lazy_translation(f))
        else:
            want = eval_point(w, 0, f)
        assert want is False
        assert run_pipeline(w, f, **kwargs).verdict is False

    def test_the_root_answers_only_at_the_anchor(self):
        w = word(*((("p",), t) for t in range(1, 201)))
        res = run_pipeline(w, parse_formula("F[0,100] p"))
        root = res.stats.reducers[-1]
        assert (res.verdict, root.records_out, root.peak_win) == (True, 1, 101)

    @pytest.mark.parametrize("budget", [None, 4])
    def test_work_does_not_grow_with_the_trace(self, budget):
        def records_in(n):
            text = io.BytesIO()
            generate_trace(GeneratorConfig(n=n, m=20, seed=1), text)
            w = parse_trace_lines(text.getvalue().splitlines())
            res = run_pipeline(w, parse_formula("F[0,10] p"), window_budget=budget)
            assert res.stats.elements_reduced == 11  # unit-spaced: instants first to first + 10
            return sum(row.records_in for row in res.stats.reducers)

        assert records_in(20 * engine.BLOCK) == records_in(2 * engine.BLOCK)


def _plan(w, f, kwargs):
    """The plan a run with these keyword arguments checks, indexed, and
    its anchor instant."""
    if "window_budget" in kwargs:
        plan = analyze(pipeline_formula(f, kwargs["window_budget"]), operands)
    else:
        plan = analyze(f)
    return plan, 0 if kwargs.get("anchor") == ANCHOR_ZERO else w.timestamps[0]


def _records_in_and_demand(w, f, kwargs):
    """A run's summed ``records_in``, the demand of its plan (see
    ``oracles.demand``), and its ``elements_reduced``."""
    plan, anchor = _plan(w, f, kwargs)
    res = run_pipeline(w, f, **kwargs)
    records_in = sum(row.records_in for row in res.stats.reducers)
    return records_in, demand(plan, w.timestamps, anchor), res.stats.elements_reduced


class TestFloor:
    """A run without streams reduces each key only from its floor, the
    first instant its readers read it at, up to its reach, so the records
    it takes in stay within a small multiple of the (key, instant) pairs
    its verdict reads, on hop chains too."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_records_in_stay_within_the_demand(self, data):
        f, w, kwargs, _ = _reach_case(data)
        records_in, wanted, walked = _records_in_and_demand(w, f, kwargs)
        assert records_in <= 3 * wanted + walked, (records_in, wanted, walked)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_read_instant_lies_in_its_keys_window(self, data):
        # the converse does not hold: a key may be live and read nowhere
        f, w, kwargs, _ = _reach_case(data)
        plan, anchor = _plan(w, f, kwargs)
        floor, reach, _, _, _, _ = compute_windows(plan, anchor, w.timestamps)
        for k, instants in enumerate(read_at(plan, w.timestamps, anchor)):
            assert all(floor[k] <= t <= reach[k] for t in instants), (
                k, sorted(instants), floor[k], reach[k])

    @pytest.mark.parametrize("text", ["F[0,100] r", "p U[0,100] q"])
    @pytest.mark.parametrize("anchor", [ANCHOR_FIRST, ANCHOR_ZERO])
    def test_hop_chains_stay_within_the_demand(self, text, anchor):
        kwargs = dict(semantics=LAZY, window_budget=1, anchor=anchor)
        f = parse_formula(text)
        records_in, wanted, walked = _records_in_and_demand(GAPPED_WORD, f, kwargs)
        assert records_in <= 3 * wanted + walked, (records_in, wanted, walked)

    @pytest.mark.parametrize("budget", [None, 1000])
    def test_lower_bounded_root_plants_no_marker(self, budget):
        # the root answers at the anchor from the operand's records at
        # 2,001 to 4,001: a position marker stands in for the operand's
        # record at the anchor, and is not counted as a marker
        w = word(*((("p",) if t % 7 else (), t) for t in range(1, 4101)))
        f = parse_formula("F[2000,4000] p")
        res = run_pipeline(w, f, window_budget=budget)
        assert res.verdict is True
        assert sum(row.markers for row in res.stats.reducers) == 0
        if budget is None:
            assert res.stats.reducers[-1].records_in == 2002


def _traced_peak(run):
    """The tracemalloc peak of ``run()`` above the memory held when it
    starts, and its result.  A full collection first empties the
    interpreter's free lists of tuples, lists and dicts, whose reuse would
    otherwise hide up to a few hundred KB of the run's blocks, by how much
    depending on what ran before."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        res = run()
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        if started:
            tracemalloc.stop()
    return peak, res


def _pipeline_peak(n, budget):
    """The tracemalloc peak of one run_pipeline call over an n-element
    unit-spaced trace (the word is made before, so it is excluded)."""
    text = io.BytesIO()
    generate_trace(GeneratorConfig(n=n, m=20, seed=1, force_p=True), text)
    w = parse_trace_lines(text.getvalue().splitlines())
    # its reach spans both traces, while its buffers stay bounded
    f = parse_formula(f"G[0,{20 * engine.BLOCK}] p")
    peak, res = _traced_peak(lambda: run_pipeline(w, f, window_budget=budget))
    assert res.verdict is True
    return peak


class TestMemory:
    @pytest.mark.parametrize("budget", [None, 250])
    def test_pipeline_peak_does_not_grow_with_the_trace(self, budget):
        # the smaller trace already spans two full blocks, so the larger
        # one adds only more blocks of the same shape
        small = _pipeline_peak(2 * engine.BLOCK, budget)
        large = _pipeline_peak(20 * engine.BLOCK, budget)
        assert large <= 1.25 * small, (small, large)

    def test_pipeline_peak_is_linear_in_the_hop_count(self):
        # a chain of exact steps one apart: doubling its hops over a short
        # trace may at most about double the peak (per-key tables that grow
        # with the square of the depth gave 4x)
        w = word((("p",), 1), (("q",), 2), (("p",), 3), (("p", "q"), 5))

        def peak(n):
            f = parse_formula(f"F[0,{n}] p")
            return _traced_peak(lambda: run_pipeline(w, f, window_budget=1))[0]

        short, deep = peak(500), peak(1000)
        assert deep <= 2.5 * short, (short, deep)
