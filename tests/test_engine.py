"""Pipeline operators and the runner."""

import random
from collections import defaultdict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlcheck import engine
from mtlcheck.engine import (
    ACT_CHILD,
    EngineError,
    _reduce_one,
    _reducer_spec,
    atom_records,
    compute_offsets,
    input_read,
    pack_record,
    record_tau,
    record_truth,
    reduce_join,
    reduce_window,
    run_pipeline,
    shuffle_sort,
)
from mtlcheck.formula import (
    Act,
    And,
    Atom,
    ExactStep,
    Interval,
    Not,
    Or,
    analyze,
    parse_formula,
    to_text,
)
from mtlcheck.semantics import ANCHOR_ZERO, LAZY, POINT, eval_lazy, eval_point
from mtlcheck.trace import TraceError, word
from mtlcheck.transforms import lazy_translation
from oracles import (
    check_dup,
    formulas,
    intervals,
    map_step,
    naive_reduce_join,
    naive_reduce_until,
    naive_reduce_window,
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
        per_atom = atom_records(w, table)
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
        per_atom = atom_records(input_read(["1 p", "2 q"])[0], table)
        assert set(per_atom) == {table.id_of[Atom("p")], table.id_of[Atom("q")]}

    def test_cross_block_ordering_still_checked(self):
        with pytest.raises(TraceError, match="line 2"):
            input_read(["5 p", "3 p"])

    def test_rejects_empty_traces(self):
        with pytest.raises(TraceError):
            input_read(["# nothing"])


class TestOffsets:
    def test_point_style_tables_have_trivial_offsets(self):
        table = analyze(parse_formula("(p U[0,9] q) & F[2,5] p"))
        offsets = compute_offsets(table)
        assert all(offs == frozenset({0}) for offs in offsets.values())

    def test_exact_steps_shift_their_operands(self):
        from mtlcheck.transforms import pipeline_formula

        stripped, _ = pipeline_formula(parse_formula("F[3,7] p"), 4)
        table = analyze(stripped)
        offsets = compute_offsets(table)
        by_text = {to_text(table.node(i)): offsets[i] for i in range(1, table.size + 1)}
        assert by_text["F[3,4] p | F=4 (F[0,3] p)"] == frozenset({0})
        assert by_text["F[3,4] p"] == frozenset({0})
        assert by_text["F=4 (F[0,3] p)"] == frozenset({0})
        assert by_text["F[0,3] p"] == frozenset({0, 4})
        assert by_text["p"] == frozenset({0})

    def test_stacked_steps_accumulate(self):
        f = ExactStep(3, ExactStep(5, Atom("p")))
        table = analyze(f)
        offsets = compute_offsets(table)
        assert offsets[table.id_of[f]] == frozenset({0})
        assert offsets[table.id_of[ExactStep(5, Atom("p"))]] == frozenset({0, 3})
        # the atom is shifted by the inner step from every instant the
        # inner node is evaluated at: {0,3} + 5
        assert offsets[table.id_of[Atom("p")]] == frozenset({0, 5, 8})

    def test_booleans_pass_offsets_through(self):
        f = ExactStep(4, parse_formula("p | q"))
        table = analyze(f)
        offsets = compute_offsets(table)
        assert offsets[table.id_of[Atom("p")]] == frozenset({0, 4})
        assert offsets[table.id_of[Atom("q")]] == frozenset({0, 4})


class TestMapStep:
    def test_routes_to_every_superformula(self):
        table = analyze(parse_formula("(a & b) | !a"))
        offsets = compute_offsets(table)
        aid = table.id_of[Atom("a")]
        rec = pack_record(42, aid, True, True, False)
        outs = map_step(aid, rec, table, offsets)
        want_parents = {table.id_of[parse_formula("a & b")], table.id_of[parse_formula("!a")]}
        assert len(outs) == 2
        assert {k for k, _ in outs} == want_parents
        assert all(r == rec for _, r in outs)

    def test_plants_a_marker_one_step_under_an_exact_parent(self):
        from mtlcheck.transforms import pipeline_formula

        stripped, _ = pipeline_formula(parse_formula("F[3,7] p"), 4)
        table = analyze(stripped)
        offsets = compute_offsets(table)
        inner = parse_formula("F[0,3] p")
        kid = table.id_of[inner]
        parent = table.id_of[ExactStep(4, inner)]
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
        offsets = compute_offsets(table)
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
        offsets = compute_offsets(table)
        aid = table.id_of[Atom("p")]
        unflagged = pack_record(10, aid, True, False, False)
        outs = map_step(aid, unflagged, table, offsets)
        assert all(record_child(r) != ACT_CHILD for _, r in outs)

    def test_pure_and_permutation_independent(self):
        table = analyze(parse_formula("F[3,7] p"))
        offsets = compute_offsets(table)
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
    folded = dict(admit_any=False, buffer_truth=True, negate=False, cut_id=left)
    return (reduce_window, (right,), folded), (naive_reduce_until, (left, right), {})


def _join(operands):
    return (reduce_join, (operands,), {}), (naive_reduce_join, (operands,), {})


# Reducer kind -> (engine, oracle), each as (reducer, positional args,
# keyword args).  Joins take their leaf flags from the test.
REDUCER_KINDS = {
    "eventually": _window(admit_any=False, buffer_truth=True, negate=False),
    "globally": _window(admit_any=False, buffer_truth=False, negate=True),
    "exact-step": _window(admit_any=True, buffer_truth=True, negate=False),
    "until": _until(LEFT, RIGHT),
    "until-same": _until(LEFT, LEFT),
    "not": _join((LEFT,)),
    "and": _join((LEFT, RIGHT)),
    "or": _join((LEFT, RIGHT)),
}


def _run_reducer(side, records, kind, iv, leafs):
    """The engine's or the oracle's (outputs, peak) for a reducer kind, or
    the EngineError text it raised."""
    fn, args, kwargs = REDUCER_KINDS[kind][side]
    try:
        if fn in (reduce_join, naive_reduce_join):
            return fn(records, args[0], leafs[: len(args[0])], kind, KEY, "k")
        return fn(records, *args, iv, KEY, key_text="k", **kwargs)
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
        leafs = (data.draw(st.booleans()), data.draw(st.booleans()))
        children = [LEFT] if kind in ("eventually", "globally", "exact-step", "not",
                                      "until-same") else [LEFT, RIGHT]
        records = data.draw(raw_streams(children))
        got = _run_reducer(ENGINE, shuffle_sort(list(records)), kind, iv, leafs)
        want = _run_reducer(ORACLE, records, kind, iv, leafs)
        assert got == want

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
        got = _run_reducer(ENGINE, records, kind, Interval(0, 3), (True, True))
        assert got == "conflicting duplicate records for k at instant 5"


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
        for node_id, stream in res.streams.items():
            offs = res.offsets[node_id]
            want = positions | {t + o for t in positions for o in offs if o}
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
        assert set(payload) == {"verdict", "iterations", "peak_win_records", "reducers"}
        heights = []
        for row in payload["reducers"]:
            assert set(row) == {
                "reducer_key", "peak_win", "records_in", "records_out", "iteration_ms",
            }
            node = next(
                n for n in res.table.nodes if to_text(n) == row["reducer_key"]
            )
            heights.append(res.table.height_of[res.table.id_of[node]])
        assert heights == sorted(heights)


def _mapper_route(w, formula, budget):
    """The record-by-record mapper route: markers planted per mapped record
    instead of seeded by the runner.  Used to pin the runner's seeding."""
    from mtlcheck.transforms import pipeline_formula

    if budget is not None:
        run_root, _ = pipeline_formula(formula, budget)
    else:
        run_root = formula
    table = analyze(run_root)
    offsets = (
        compute_offsets(table)
        if budget is not None
        else {i: frozenset({0}) for i in range(1, table.size + 1)}
    )
    inbox = defaultdict(list)
    streams = {}
    for aid, recs in atom_records(w, table).items():
        streams[aid] = list(recs)
        for rec in recs:
            for key, out in map_step(aid, rec, table, offsets):
                inbox[key].append(out)
    specs = {
        table.id_of[node]: _reducer_spec(node, table)
        for node in table.nodes
        if table.child_ids[table.id_of[node]]
    }
    for kid in sorted(specs, key=lambda i: table.height_of[i]):
        outputs, _, _, _ = _reduce_one(kid, table, specs[kid], inbox.pop(kid, []))
        streams[kid] = outputs
        for rec in outputs:
            for key, out in map_step(kid, rec, table, offsets):
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
