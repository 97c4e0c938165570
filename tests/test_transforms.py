"""Rewrites: lazy translation, window decomposition, guards read as operands."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlcheck.formula import (
    Act,
    And,
    Atom,
    Eventually,
    ExactStep,
    Formula,
    Globally,
    Interval,
    Not,
    Or,
    Until,
    analyze,
    children,
    fold,
    minkowski_sum,
    overlap_union,
    parse_formula,
    postorder,
    singleton,
    to_text,
)
from mtlcheck import engine, transforms
from mtlcheck.semantics import eval_lazy, eval_point
from mtlcheck.trace import word
from mtlcheck.transforms import (
    TransformError,
    decompose,
    lazy_translation,
    max_bounded_upper,
    operands,
    pipeline_formula,
    split_zero_window,
)
from oracles import formulas, naive_lazy, random_word, words

P = Atom("p")


def _all_nodes(f: Formula):
    yield f
    for c in children(f):
        yield from _all_nodes(c)


class TestLazyTranslation:
    def test_atoms_and_booleans_untouched(self):
        assert lazy_translation(P) == P
        f = parse_formula("!(a | b)")
        assert lazy_translation(f) == f

    def test_window_argument_gets_position_guard(self):
        got = lazy_translation(parse_formula("F[3,7] p"))
        assert to_text(got) == "F[3,7] (Act & p)"

    def test_until_guards_only_the_right_argument(self):
        got = lazy_translation(parse_formula("p U[0,9] q"))
        assert got == Until(Interval(0, 9), P, And(Act(), Atom("q")))

    def test_globally_becomes_negated_eventually(self):
        got = lazy_translation(parse_formula("G[2,4] c"))
        assert to_text(got) == "!(F[2,4] (Act & !c))"

    def test_rejects_marker_nodes_in_input(self):
        with pytest.raises(TransformError):
            lazy_translation(ExactStep(3, P))
        with pytest.raises(TransformError):
            lazy_translation(And(Act(), P))

    @settings(max_examples=200, deadline=None)
    @given(formulas(max_depth=4, max_bound=10, allow_unbounded=True), words())
    def test_point_reading_is_preserved(self, f, w):
        translated = lazy_translation(f)
        for i in range(len(w)):
            assert eval_point(w, i, translated) == eval_point(w, i, f)

    @settings(max_examples=200, deadline=None)
    @given(formulas(max_depth=3, max_bound=8), words(max_len=7, max_timestamp=20))
    def test_lazy_reading_at_positions_matches_point(self, f, w):
        translated = lazy_translation(f)
        for i, t in enumerate(w.timestamps):
            assert eval_lazy(w, t, translated) == eval_point(w, i, f)


class TestWindowIdentities:
    """The rewrite rules rest on three window identities; they are checked
    here against the evaluator over integer instants."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6),
        words(max_len=5, max_timestamp=25),
    )
    def test_closed_windows_stack_by_summing(self, a1, w1, a2, w2, w):
        i = Interval(a1, a1 + w1)
        j = Interval(a2, a2 + w2)
        nested = Eventually(i, Eventually(j, P))
        flat = Eventually(minkowski_sum(i, j), P)
        for t in (0, w.timestamps[0]):
            assert eval_lazy(w, t, nested) == eval_lazy(w, t, flat)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6),
        st.booleans(), st.booleans(), st.booleans(),
        words(max_len=5, max_timestamp=25),
    )
    def test_exact_steps_stack_with_any_window(self, c, a, width, lc, uc, inner_first, w):
        if width == 0:
            lc = uc = True
        i = Interval(a, a + width, lc, uc)
        step = singleton(c)
        if inner_first:
            nested = Eventually(step, Eventually(i, P))
        else:
            nested = Eventually(i, Eventually(step, P))
        flat = Eventually(minkowski_sum(i, step), P)
        for t in (0, w.timestamps[0]):
            assert eval_lazy(w, t, nested) == eval_lazy(w, t, flat)

    def test_open_brackets_can_break_stacking_over_integer_instants(self):
        w = word((("p",), 4))
        nested = Eventually(Interval(3, 5, False, True),
                            Eventually(Interval(0, 2, False, True), P))
        flat = Eventually(Interval(3, 7, False, True), P)
        assert eval_lazy(w, 0, flat) is True
        assert eval_lazy(w, 0, nested) is False

    def test_thin_open_windows_can_break_stacking_too(self):
        w = word((("p",), 2))
        nested = Eventually(Interval(1, 2, False, False),
                            Eventually(Interval(0, 1), P))
        flat = Eventually(Interval(1, 3, False, False), P)
        assert eval_lazy(w, 0, flat) is True
        assert eval_lazy(w, 0, nested) is False

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8),
        st.booleans(), st.booleans(), st.booleans(), st.booleans(),
        words(max_len=5, max_timestamp=25),
    )
    def test_overlapping_windows_merge_by_union(self, a1, w1, a2, w2, lc1, uc1, lc2, uc2, w):
        if w1 == 0:
            lc1 = uc1 = True
        if w2 == 0:
            lc2 = uc2 = True
        i = Interval(a1, a1 + w1, lc1, uc1)
        j = Interval(a2, a2 + w2, lc2, uc2)
        try:
            union = overlap_union(i, j)
        except Exception:
            return
        split = Or(Eventually(i, P), Eventually(j, P))
        merged = Eventually(union, P)
        for t in (0, w.timestamps[0]):
            assert eval_lazy(w, t, split) == eval_lazy(w, t, merged)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=5),
           words(max_len=5, max_timestamp=30))
    def test_exact_chains_collapse_to_one_step(self, k, n, w):
        chained: Formula = P
        for _ in range(n):
            chained = Eventually(singleton(k), chained)
        flat = Eventually(singleton(k * n), P)
        for t in (0, w.timestamps[0]):
            assert eval_lazy(w, t, chained) == eval_lazy(w, t, flat)


class TestSplitZeroWindow:
    def test_small_spans_stay_single_windows(self):
        assert split_zero_window(P, 4, 3, True) == Eventually(Interval(0, 3), P)
        assert split_zero_window(P, 4, 4, True) == Eventually(Interval(0, 4), P)
        assert split_zero_window(P, 4, 3, False) == Eventually(Interval(0, 3, True, False), P)

    def test_large_spans_peel_by_the_step(self):
        got = split_zero_window(P, 4, 7, True)
        assert to_text(got) == "F[0,4] p | F=4 (F[0,3] p)"

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=18),
           st.booleans(), words(max_len=5, max_timestamp=30))
    def test_split_preserves_lazy_meaning(self, k, span, closed, w):
        if span == 0:
            closed = True
        split = split_zero_window(P, k, span, closed)
        plain = Eventually(Interval(0, span, True, closed), P)
        for t in (0, w.timestamps[0]):
            assert eval_lazy(w, t, split) == eval_lazy(w, t, plain)
        assert max_bounded_upper(split) <= k


class TestDecompose:
    def test_head_and_tail_case(self):
        got = decompose(parse_formula("F[3,7] p"), 4)
        assert to_text(got) == "F[3,4] p | F=4 (F[0,3] p)"

    def test_pure_shift_case(self):
        got = decompose(parse_formula("F[5,7] p"), 4)
        assert to_text(got) == "F=4 (F[1,3] p)"

    def test_small_windows_untouched(self):
        f = parse_formula("F[3,7] p")
        assert decompose(f, 10) == f
        assert decompose(f, 7) == f

    def test_deep_chain_shape(self):
        got = decompose(parse_formula("F[5,9] p"), 2)
        assert to_text(got) == "F=2 (F=2 (F[1,2] p | F=2 (F[0,2] p | F=2 (F[0,1] p))))"

    def test_globally_is_dualized(self):
        got = decompose(parse_formula("G[0,7] q"), 4)
        assert to_text(got) == "!(F[0,4] (!q) | F=4 (F[0,3] (!q)))"
        small = parse_formula("G[0,3] q")
        assert decompose(small, 4) == small

    def test_exact_step_nodes_larger_than_budget_are_split(self):
        # the trailing zero-width window carries the position discipline
        # for the pipeline, which reads through the guards, so it is not
        # collapsed away
        got = decompose(ExactStep(6, P), 3)
        assert to_text(got) == "F=3 (F=3 (F=0 p))"

    def test_unbounded_windows_rejected(self):
        with pytest.raises(TransformError):
            decompose(parse_formula("F p"), 4)
        with pytest.raises(TransformError):
            decompose(parse_formula("G[2,inf) p"), 4)
        with pytest.raises(TransformError):
            decompose(parse_formula("p U q"), 4)

    def test_max_bounded_upper(self):
        assert max_bounded_upper(P) == 0
        assert max_bounded_upper(parse_formula("F[3,7] p")) == 7
        assert max_bounded_upper(decompose(parse_formula("F[3,7] p"), 4)) == 4

    @settings(max_examples=200, deadline=None)
    @given(formulas(max_depth=3, max_bound=12), st.integers(min_value=1, max_value=6),
           words(max_len=7, max_timestamp=24))
    def test_budget_rewrite_preserves_lazy_verdicts_and_caps_windows(self, f, k, w):
        translated = lazy_translation(f)
        rewritten = decompose(translated, k)
        assert max_bounded_upper(rewritten) <= k
        for t in {0, w.timestamps[0], *w.timestamps}:
            assert eval_lazy(w, t, rewritten) == eval_lazy(w, t, translated)

    @settings(max_examples=150, deadline=None)
    @given(formulas(max_depth=3, max_bound=10), st.integers(min_value=1, max_value=5),
           words(max_len=6, max_timestamp=20))
    def test_point_verdict_reachable_through_lazy_rewrite(self, f, k, w):
        rewritten = decompose(lazy_translation(f), k)
        assert eval_lazy(w, w.timestamps[0], rewritten) == eval_point(w, 0, f)

    @settings(max_examples=100, deadline=None)
    @given(formulas(max_depth=3, max_bound=6), st.integers(min_value=1, max_value=5))
    def test_structurally_idempotent(self, f, k):
        once = decompose(lazy_translation(f), k)
        assert decompose(once, k) == once

    def test_budget_one_reduces_every_window_to_steps(self):
        f = parse_formula("F[2,5] p & G[0,3] q")
        rewritten = decompose(lazy_translation(f), 1)
        assert max_bounded_upper(rewritten) == 1


class TestBoundedUntilExpansion:
    """Bounded Until windows wider than the budget are peeled by keeping a
    guarded continuity prefix and recursing one step ahead; the witness at
    exactly one step is carried by a closed-edge head window."""

    def _assert_equal_on_all_valuations(self, interval, k, stamps, instants):
        phi = Until(interval, Atom("a"), Atom("b"))
        translated = lazy_translation(phi)
        rewritten = decompose(translated, k)
        assert max_bounded_upper(rewritten) <= k
        for assignment in itertools.product(range(4), repeat=len(stamps)):
            pairs = []
            for mask, ts in zip(assignment, stamps):
                atoms = frozenset(
                    name for bit, name in enumerate(("a", "b")) if mask >> bit & 1
                )
                pairs.append((atoms, ts))
            w = word(*pairs)
            for t in instants:
                assert eval_lazy(w, t, rewritten) == eval_lazy(w, t, translated), (
                    to_text(rewritten), pairs, t
                )

    def test_lower_bound_at_the_budget_with_closed_edge(self):
        # the witness can sit exactly one budget-step ahead, where the left
        # operand no longer matters; a regression for the head window's edge
        self._assert_equal_on_all_valuations(Interval(4, 6), 4, (2, 4, 5), range(0, 7))

    def test_lower_bound_above_the_budget(self):
        self._assert_equal_on_all_valuations(Interval(5, 7), 3, (1, 3, 4), range(0, 6))

    def test_zero_anchored_wide_window(self):
        self._assert_equal_on_all_valuations(Interval(0, 5), 2, (1, 2, 4), range(0, 5))

    def test_open_lower_bracket(self):
        self._assert_equal_on_all_valuations(
            Interval(4, 6, False, True), 4, (2, 4, 6), range(0, 7)
        )

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8),
        st.booleans(), st.booleans(), st.integers(min_value=1, max_value=5),
        words(max_len=6, max_timestamp=20),
    )
    def test_random_until_windows(self, a, width, lc, uc, k, w):
        if width == 0:
            lc = uc = True
        phi = Until(Interval(a, a + width, lc, uc), Atom("p"), Atom("q"))
        translated = lazy_translation(phi)
        rewritten = decompose(translated, k)
        assert max_bounded_upper(rewritten) <= k
        for t in {0, *w.timestamps}:
            assert eval_lazy(w, t, rewritten) == eval_lazy(w, t, translated)


class TestGuardStripping:
    """A plan keeps its position guards; ``operands`` strips them as the
    pipeline walks the plan, reading each guard as the operand it guards."""

    def test_strips_conjunction_guards(self):
        guarded = Eventually(Interval(0, 3), And(Act(), P))
        assert operands(guarded) == (P,)
        assert analyze(guarded, operands).nodes == [P, guarded]

    def test_strips_disjunction_guards(self):
        guarded = Globally(Interval(0, 4, False, True), Or(Not(Act()), P))
        assert operands(guarded) == (P,)
        until = Until(Interval(0, 2), Or(Not(Act()), P), And(Act(), Atom("q")))
        assert operands(until) == (P, Atom("q"))

    def test_leaves_ordinary_structure_alone(self):
        f = parse_formula("!(a | b) & F[0,2] c")
        assert analyze(f, operands).nodes == postorder(f)
        # only Act on the left is a guard
        for node in (And(P, Act()), Or(Act(), P), And(Not(Act()), P), Or(Not(P), P)):
            assert operands(Not(node)) == (node,)

    @settings(max_examples=150, deadline=None)
    @given(formulas(max_depth=3, max_bound=10), st.integers(min_value=1, max_value=5))
    def test_budget_plan_keys_hold_no_marker(self, f, k):
        plan = pipeline_formula(f, k)
        assert plan == decompose(lazy_translation(f), k)
        table = analyze(plan, operands)
        assert table.root == plan
        assert not any(isinstance(node, Act) for node in table.nodes)
        # every key is a node of the plan; only guards, Act and !Act are not keys
        markers = (Act(), Not(Act()))
        assert set(table.nodes) <= set(postorder(plan))
        for node in set(postorder(plan)) - set(table.nodes):
            assert node in markers or isinstance(node, (And, Or)) and node.left in markers
        assert max_bounded_upper(plan) <= k


class TestFold:
    def test_rule_runs_once_per_node_object(self):
        f = parse_formula("X[0,5] (F[0,3] p)")  # the parser shares F[0,3] p three times
        calls = []

        def rule(node, kids):
            calls.append(node)
            return 1 + sum(kids)

        occurrences = fold(f, rule)
        assert occurrences == len(list(_all_nodes(f)))
        assert len(calls) == len(postorder(f)) < occurrences
        assert len({id(node) for node in calls}) == len(calls)

    @pytest.mark.parametrize("text", ["F[0,5000] p", "G[0,5000] q", "p U[0,5000] q"])
    def test_deep_decompositions_need_no_recursion(self, text):
        translated = lazy_translation(parse_formula(text))
        decomposed = decompose(translated, 1)
        assert max_bounded_upper(decomposed) == 1
        assert len(postorder(decomposed)) > 5000
        chain = split_zero_window(P, 1, 5000, True)
        assert max_bounded_upper(chain) == 1

    def test_until_hops_share_one_head(self):
        # every hop after the first has the head (0,1], one interned node
        plan = decompose(lazy_translation(parse_formula("p U[0,100] q")), 1)
        heads = [node for node in postorder(plan) if isinstance(node, Until)]
        assert sorted(to_text(h) for h in heads) == ["p U(0,1] (Act & q)", "p U[0,1] (Act & q)"]
        assert len(postorder(plan)) == 3 * 100 + 6  # an exact step, And and Or per hop


class TestHopLimit:
    def test_limit_fits_the_record_encoding(self):
        # an until hop adds three keys: its exact step, conjunction and disjunction
        assert 3 * transforms.MAX_HOPS <= engine.CHILD_MASK

    def test_far_over_the_limit_is_refused_before_building(self):
        started = time.perf_counter()
        with pytest.raises(TransformError, match=r"needs 100000000000 hops at budget 1"):
            decompose(lazy_translation(parse_formula("F[0,100000000000] p")), 1)
        assert time.perf_counter() - started < 1.0

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(transforms, "MAX_HOPS", 10)
        assert max_bounded_upper(decompose(parse_formula("F[0,10] p"), 1)) == 1
        assert max_bounded_upper(decompose(parse_formula("F[0,12] p & G[0,8] q"), 2)) == 2
        with pytest.raises(TransformError, match=r"needs 11 hops at budget 1, over the limit of 10"):
            decompose(parse_formula("F[0,11] p"), 1)
        with pytest.raises(TransformError, match=r"needs 11 hops at budget 3"):
            decompose(parse_formula("p U[0,15] q | F=18 r"), 3)
