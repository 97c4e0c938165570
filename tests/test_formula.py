"""Formula AST, parser, printer, and the subformula table."""

import pytest
from hypothesis import given, settings

from mtlcheck.formula import (
    FULL,
    Act,
    And,
    Atom,
    Eventually,
    ExactStep,
    FormulaError,
    Globally,
    Interval,
    Not,
    Or,
    Until,
    analyze,
    children,
    node_interval,
    parse_formula,
    singleton,
    to_text,
)
from oracles import formulas


class TestParsing:
    def test_bounded_eventually(self):
        assert parse_formula("F[3,7] p") == Eventually(Interval(3, 7), Atom("p"))

    def test_mixed_operators_and_brackets(self):
        got = parse_formula("F[2,4](a & b) U (30,100) !c")
        want = Until(
            Interval(30, 100, False, False),
            Eventually(Interval(2, 4), And(Atom("a"), Atom("b"))),
            Not(Atom("c")),
        )
        assert got == want

    def test_missing_interval_means_unbounded(self):
        assert parse_formula("p U q") == Until(FULL, Atom("p"), Atom("q"))
        assert parse_formula("G p") == Globally(FULL, Atom("p"))

    def test_singleton_interval(self):
        assert parse_formula("F=4 p") == Eventually(singleton(4), Atom("p"))

    def test_next_desugars_to_until_without_zero(self):
        got = parse_formula("X[0,5] p")
        p = Atom("p")
        assert got == Until(Interval(0, 5, False, True), And(p, Not(p)), p)

    def test_implication_is_sugar(self):
        got = parse_formula("a -> b -> c")
        assert got == Or(Not(Atom("a")), Or(Not(Atom("b")), Atom("c")))

    def test_errors_are_reported(self):
        for bad in ("F[-1,3] p", "F[5,3] p", "Act", "p q", "F(3,2] p", "p &",
                    "", "F[2,] p", "(p", "p U[3,3) q"):
            with pytest.raises(FormulaError):
                parse_formula(bad)

    def test_error_mentions_position(self):
        with pytest.raises(FormulaError, match="position"):
            parse_formula("p q")


class TestPrinting:
    def test_canonical_texts(self):
        cases = [
            ("F[3,7] p", "F[3,7] p"),
            ("!!p", "!!p"),
            ("!(p & q)", "!(p & q)"),
            ("p & q & r", "p & q & r"),
            ("p & (q & r)", "p & (q & r)"),
            ("p | q & r", "p | q & r"),
            ("(p | q) & r", "(p | q) & r"),
            ("p U q", "p U q"),
            ("F[2,4](a & b) U (30,100) !c", "F[2,4] (a & b) U(30,100) !c"),
        ]
        for source, text in cases:
            assert to_text(parse_formula(source)) == text

    def test_exact_step_prints_like_a_singleton_window(self):
        assert to_text(ExactStep(4, Atom("p"))) == "F=4 p"
        assert to_text(Eventually(singleton(4), Atom("p"))) == "F=4 p"

    @settings(max_examples=300, deadline=None)
    @given(formulas(max_depth=5, max_bound=30, allow_unbounded=True))
    def test_print_parse_round_trip(self, f):
        assert parse_formula(to_text(f)) == f


class TestTable:
    def test_worked_example(self):
        g = parse_formula("F[2,4](a & b) U (30,100) !c")
        table = analyze(g)
        assert table.size == 7
        assert table.height == 4
        assert {n.name for n in table.nodes if isinstance(n, Atom)} == {"a", "b", "c"}
        assert {table.node(c) for c in table.child_ids[table.root_id]} == {
            parse_formula("F[2,4](a & b)"),
            parse_formula("!c"),
        }
        conj = frozenset({table.id_of[And(Atom("a"), Atom("b"))]})
        assert table.parent_ids[table.id_of[Atom("a")]] == conj
        assert table.parent_ids[table.id_of[Atom("b")]] == conj
        assert table.root_id == table.size  # the root is listed once, last

    def test_structural_sharing(self):
        assert analyze(And(Atom("p"), Atom("p"))).size == 2
        f = parse_formula("F[0,3] p | F[0,3] p")
        assert analyze(f).size == 3

    def test_ids_start_at_one_and_follow_heights(self):
        table = analyze(parse_formula("F[3,7] p & !q"))
        assert sorted(table.id_of.values()) == list(range(1, table.size + 1))
        for node_id in range(1, table.size + 1):
            node = table.node(node_id)
            kids = table.child_ids[node_id]
            if kids:
                assert table.height_of[node_id] == 1 + max(table.height_of[c] for c in kids)
            else:
                assert table.height_of[node_id] == 1
            assert all(c < node_id for c in kids)  # children are numbered first

    def test_parent_ids_invert_child_ids(self):
        table = analyze(parse_formula("(p U[0,9] q) & F[2,5] p"))
        for node_id in range(1, table.size + 1):
            for child in table.child_ids[node_id]:
                assert node_id in table.parent_ids[child]
        assert table.parent_ids[table.root_id] == frozenset()

    @settings(max_examples=200, deadline=None)
    @given(formulas(max_depth=4, max_bound=12, allow_unbounded=True))
    def test_heights_match_recursive_definition(self, f):
        table = analyze(f)

        def height(node):
            kids = children(node)
            return 1 if not kids else 1 + max(height(c) for c in kids)

        assert table.height == height(f)
        assert table.height_of[table.root_id] == height(f)

    def test_node_interval(self):
        assert node_interval(parse_formula("F[3,7] p")) == Interval(3, 7)
        assert node_interval(ExactStep(6, Atom("p"))) == singleton(6)
        assert node_interval(Atom("p")) is None
        assert node_interval(parse_formula("p & q")) is None
