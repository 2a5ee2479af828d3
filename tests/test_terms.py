"""Terms, sorts, substitution and equations."""


import pytest
from hypothesis import given, strategies as st

from catq import (
    App,
    Equation,
    FunctionSymbol,
    INT,
    STRING,
    Sort,
    SortMismatch,
    UnboundVariable,
    Var,
    ground_eq,
    int_literal,
    replace,
    string_literal,
)
from catq.terms import (
    ATTRIBUTE,
    ENTITY,
    FOREIGN_KEY,
    TYPE,
    free_vars,
    is_ground,
    render_term,
    substitute,
)

from conftest import N1, N2, ap, attr, fkey
from oracle import term_depth, term_key

f = fkey("f", N1, N2)
age = attr("age", N2, INT)
name = attr("name", N1, STRING)
x = Var("x", N1)


def test_application_is_sort_checked():
    with pytest.raises(SortMismatch):
        App(f, (Var("y", N2),))
    with pytest.raises(SortMismatch):
        App(f, ())


def test_replace_hashes_anew():
    # hashes are cached at construction; replace constructs, so it hashes the new fields
    g = replace(f, name="g")
    fresh = FunctionSymbol("g", f.arg_sorts, f.out_sort, f.flavor)
    assert hash(g) == hash(fresh) and g == fresh
    assert hash(replace(N1, name="N2")) == hash(N2) == hash(Sort("N2", N1.kind))
    t = App(age, (App(f, (x,)),))
    assert hash(t) == hash(App(age, (App(replace(g, name="f"), (x,)),)))


def test_free_vars_in_occurrence_order():
    t = App(age, (App(f, (x,)),))
    assert free_vars(t) == [x]
    assert not is_ground(t)
    assert is_ground(int_literal(3))


def test_substitute_checks_bindings():
    t = App(f, (x,))
    assert substitute(t, {"x": x}) == t
    with pytest.raises(UnboundVariable):
        substitute(t, {})
    with pytest.raises(SortMismatch):
        substitute(t, {"x": int_literal(1)})


def test_term_key_orders_constants_before_applications():
    deep = App(age, (App(f, (x,)),))
    assert term_key(int_literal(0)) < term_key(deep)
    assert term_depth(deep) == 3
    assert render_term(deep) == "age(f(x))"


def test_equation_requires_matching_sorts_and_quantifiers():
    with pytest.raises(SortMismatch):
        ground_eq(int_literal(1), string_literal("one"))
    with pytest.raises(UnboundVariable):
        Equation((), App(f, (x,)), App(f, (x,)))
    eq = Equation((x,), App(age, (App(f, (x,)),)), int_literal(30))
    from catq import generator
    g = generator("e", N1)
    b = {x.name: App(g)}
    inst = Equation((), substitute(eq.lhs, b), substitute(eq.rhs, b))
    assert inst.is_ground and inst.rhs == eq.rhs


def test_literals_round_trip():
    assert int_literal(-5).sym.name == "-5"
    assert string_literal("Alice").sort == STRING
    assert int_literal(7).sort == INT


@given(st.text(alphabet="ab", max_size=4), st.text(alphabet="ab", max_size=4))
def test_string_literals_equal_iff_text_equal(a, b):
    assert (string_literal(a) == string_literal(b)) == (a == b)


@given(st.integers(-50, 50))
def test_term_key_total_order_on_literals(n):
    k1, k2 = term_key(int_literal(n)), term_key(int_literal(n + 1))
    assert k1 != k2


def test_sorts_and_symbols_compare_by_value():
    # separately built equal values compare and hash equal
    a, b = Sort("N1", ENTITY), Sort("N1", ENTITY)
    assert a is not b and a == b and hash(a) == hash(b)
    f1 = FunctionSymbol("f", (a,), Sort("N2", ENTITY), FOREIGN_KEY)
    f2 = FunctionSymbol("f", (b,), Sort("N2", ENTITY), FOREIGN_KEY)
    assert f1 is not f2 and f1 == f2 and hash(f1) == hash(f2)
    # a differing kind or flavor makes them unequal
    assert a != Sort("N1", TYPE)
    assert f1 != FunctionSymbol("f", (a,), Sort("N2", ENTITY), ATTRIBUTE)
    assert f1 != FunctionSymbol("f", (Sort("N1", TYPE),), Sort("N2", ENTITY), FOREIGN_KEY)
    # equal hashes alone do not decide: the fields are compared
    forged = Sort("M", ENTITY)
    object.__setattr__(forged, "_hash", hash(a))
    assert forged != a and a != forged
    # other types are left to their own comparison
    assert a.__eq__("N1") is NotImplemented and f1.__eq__(a) is NotImplemented
    assert a != "N1" and f1 != a
