"""Reference evaluators: point semantics, lazy semantics, tables, verdicts."""

import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from mtlcheck.formula import Act, Atom, Eventually, ExactStep, Interval, parse_formula
from mtlcheck.semantics import (
    ANCHOR_FIRST,
    ANCHOR_ZERO,
    LAZY,
    POINT,
    EvaluationError,
    eval_lazy,
    eval_point,
    eval_table,
    verdict,
)
from mtlcheck.trace import word
from mtlcheck.transforms import decompose, lazy_translation
from oracles import formulas, naive_lazy, naive_lazy_rational, naive_point, random_formula, random_word, words

EXAMPLE_WORD = word(
    (("p",), 1), (("p",), 2), ((), 4), (("p",), 6),
    (("p",), 8), ((), 9), ((), 10),
)

TWO_ELEMENT_WORD = word((("q",), 1), (("p",), 7))


class TestPointSemantics:
    def test_window_eventually_golden(self):
        phi = parse_formula("F[3,7] p")
        row = [eval_point(EXAMPLE_WORD, i, phi) for i in range(len(EXAMPLE_WORD))]
        assert row == [True, True, True, False, False, False, False]

    def test_position_marker_always_holds(self):
        for i in range(len(EXAMPLE_WORD)):
            assert eval_point(EXAMPLE_WORD, i, Act())

    def test_excluded_middle(self):
        phi = parse_formula("p | !p")
        assert all(eval_point(EXAMPLE_WORD, i, phi) for i in range(len(EXAMPLE_WORD)))

    def test_exact_window_skips_missing_positions(self):
        assert eval_point(TWO_ELEMENT_WORD, 0, parse_formula("F=6 p"))
        assert not eval_point(TWO_ELEMENT_WORD, 0, parse_formula("F=3 (F=3 p)"))

    def test_until_endpoints_are_not_constrained(self):
        # a true right operand at the start position wins outright
        assert eval_point(word((("q",), 1)), 0, parse_formula("p U q"))
        # the left operand is not consulted at the witness position itself
        w = word((("p",), 1), (("p",), 2), (("q",), 3))
        assert eval_point(w, 0, parse_formula("p U q"))
        # nor at the start position
        w = word(((), 1), (("p",), 2), (("q",), 3))
        assert eval_point(w, 0, parse_formula("p U q"))
        # but it is consulted strictly in between
        w = word((("p",), 1), ((), 2), (("q",), 3))
        assert not eval_point(w, 0, parse_formula("p U q"))

    def test_position_out_of_range(self):
        with pytest.raises(EvaluationError):
            eval_point(EXAMPLE_WORD, 7, Atom("p"))
        with pytest.raises(EvaluationError):
            eval_point(EXAMPLE_WORD, -1, Atom("p"))

    @settings(max_examples=300, deadline=None)
    @given(formulas(max_depth=4, max_bound=12, allow_unbounded=True), words())
    def test_matches_naive_recursion(self, f, w):
        for i in range(len(w)):
            assert eval_point(w, i, f) == naive_point(w, i, f)


class TestLazySemantics:
    def test_marker_true_exactly_at_positions(self):
        for t in range(0, 13):
            assert eval_lazy(EXAMPLE_WORD, t, Act()) == (t in EXAMPLE_WORD.timestamps)

    def test_atom_false_off_positions(self):
        assert not eval_lazy(EXAMPLE_WORD, 5, Atom("p"))
        assert eval_lazy(EXAMPLE_WORD, 6, Atom("p"))

    def test_windows_reach_virtual_instants(self):
        # the nested window is read at instant 5, which carries no element
        phi = parse_formula("F=4 (F[0,3] p)")
        assert eval_lazy(EXAMPLE_WORD, 1, phi)
        # two stacked exact windows bridge the missing instant 4
        assert eval_lazy(TWO_ELEMENT_WORD, 1, parse_formula("F=3 (F=3 p)"))
        assert eval_lazy(TWO_ELEMENT_WORD, 1, parse_formula("F=6 p"))

    def test_exact_step_node_reads_one_step_ahead(self):
        f = ExactStep(3, ExactStep(3, Atom("p")))
        assert eval_lazy(TWO_ELEMENT_WORD, 1, f)
        assert not eval_lazy(TWO_ELEMENT_WORD, 0, f)

    def test_unbounded_interval_rejected(self):
        with pytest.raises(EvaluationError):
            eval_lazy(EXAMPLE_WORD, 1, parse_formula("F p"))

    @settings(max_examples=200, deadline=None)
    @given(formulas(max_depth=3, max_bound=8), words(max_len=6, max_timestamp=18))
    def test_matches_naive_recursion(self, f, w):
        for t in (0, w.timestamps[0], w.timestamps[-1], w.timestamps[0] + 1):
            assert eval_lazy(w, t, f) == naive_lazy(w, t, f)


class TestDecomposedReadings:
    def test_point_reading_of_decomposition_differs(self):
        """Bounding windows without the translation changes point verdicts:
        the rewritten formula needs instants the trace does not carry."""
        phi = parse_formula("F[3,7] p")
        rewritten = decompose(phi, 4)
        point_row = [eval_point(EXAMPLE_WORD, i, phi) for i in range(len(EXAMPLE_WORD))]
        rewritten_row = [
            eval_point(EXAMPLE_WORD, i, rewritten) for i in range(len(EXAMPLE_WORD))
        ]
        assert point_row == [True, True, True, False, False, False, False]
        assert rewritten_row == [False, True, True, False, False, False, False]
        assert point_row != rewritten_row  # differs exactly at timestamp 1

    def test_lazy_reading_of_translated_decomposition_agrees(self):
        phi = parse_formula("F[3,7] p")
        target = decompose(lazy_translation(phi), 4)
        for i, t in enumerate(EXAMPLE_WORD.timestamps):
            assert eval_lazy(EXAMPLE_WORD, t, target) == eval_point(EXAMPLE_WORD, i, phi)


class TestEvalTable:
    def test_point_keys_are_positions(self):
        table = eval_table(EXAMPLE_WORD, parse_formula("F[3,7] p"), POINT)
        assert table.keys == tuple(range(len(EXAMPLE_WORD)))

    def test_lazy_keys_cover_the_horizon(self):
        table = eval_table(TWO_ELEMENT_WORD, parse_formula("F[0,3] p"), LAZY)
        assert table.keys == tuple(range(0, 11))

    def test_lazy_table_requires_bounded_windows(self):
        with pytest.raises(EvaluationError):
            eval_table(TWO_ELEMENT_WORD, parse_formula("G p"), LAZY)

    def test_single_atom_table(self):
        table = eval_table(word((("p",), 1)), Atom("p"), POINT)
        assert table.row(Atom("p")) == {0: True}

    def test_tsv_golden(self):
        w = word((("p",), 1), (("q",), 2))
        table = eval_table(w, parse_formula("p & q"), POINT)
        buf = io.StringIO()
        table.to_tsv(buf)
        assert buf.getvalue() == (
            "formula\t0\t1\n"
            "p\t⊤\t⊥\n"
            "q\t⊥\t⊤\n"
            "p & q\t⊥\t⊥\n"
        )

    def test_rows_match_pointwise_evaluation(self):
        phi = parse_formula("F[3,7] p | !q")
        table = eval_table(EXAMPLE_WORD, phi, POINT)
        for i in range(len(EXAMPLE_WORD)):
            assert table.row(phi)[i] == eval_point(EXAMPLE_WORD, i, phi)


class TestVerdict:
    def test_point_reads_the_first_position(self):
        assert verdict(EXAMPLE_WORD, parse_formula("F[3,7] p")) is True
        assert verdict(EXAMPLE_WORD, parse_formula("F[3,7] q")) is False

    def test_point_rejects_zero_anchor(self):
        with pytest.raises(EvaluationError):
            verdict(EXAMPLE_WORD, Atom("p"), POINT, ANCHOR_ZERO)

    def test_lazy_anchors(self):
        psi = parse_formula("F=6 p")
        assert verdict(TWO_ELEMENT_WORD, psi, LAZY, ANCHOR_FIRST) is True
        assert verdict(TWO_ELEMENT_WORD, psi, LAZY, ANCHOR_ZERO) is False
        psi2 = parse_formula("F=3 (F=3 p)")
        assert verdict(TWO_ELEMENT_WORD, psi2, LAZY, ANCHOR_FIRST) is True
        assert verdict(TWO_ELEMENT_WORD, psi2, LAZY, ANCHOR_ZERO) is False


class TestRationalInstantSampler:
    """Quantifying lazy witnesses over integers only is enough: on dense
    rational grids the verdicts of translated (and budget-rewritten)
    formulas do not change.  Checked by brute force on small instances."""

    @pytest.mark.parametrize("denominator", [2, 3, 4])
    def test_translated_formulas_integer_sufficiency(self, denominator):
        rng = random.Random(971 + denominator)
        for _ in range(60):
            f = lazy_translation(random_formula(rng, max_depth=2, max_bound=5))
            w = random_word(rng, max_len=4, max_timestamp=12)
            for t in (0, w.timestamps[0]):
                assert naive_lazy(w, t, f) == naive_lazy_rational(
                    w, Fraction(t), f, denominator
                )

    @pytest.mark.parametrize("denominator", [2, 3, 4])
    def test_decomposed_formulas_integer_sufficiency(self, denominator):
        rng = random.Random(1313 + denominator)
        for _ in range(40):
            k = rng.randint(1, 4)
            f = decompose(lazy_translation(random_formula(rng, max_depth=2, max_bound=5)), k)
            w = random_word(rng, max_len=4, max_timestamp=10)
            for t in (0, w.timestamps[0]):
                assert naive_lazy(w, t, f) == naive_lazy_rational(
                    w, Fraction(t), f, denominator
                )
