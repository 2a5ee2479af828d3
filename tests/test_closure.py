"""Closure without the engine: on a schema with no constraint, `saturate` seeds the engine and `_close` does the rest.

`reference_closure.saturate` runs every generation through the engine, as
saturation did before `_close`.  The two must agree on everything a model
shows and on when and how a limit stops them.
"""

import pytest
from hypothesis import given, settings, strategies as st

import catq.model as model_module
import reference_closure
from catq import (
    INT,
    STRING,
    App,
    Equation,
    ResourceLimit,
    Schema,
    Sort,
    Var,
    builtin_typeside,
    elaborate,
    generator,
    int_literal,
    parse,
    string_literal,
)
from catq.model import TermModel, _Engine, saturate
from catq.terms import ENTITY

from conftest import attr, count_calls, fkey, max_classes, max_rounds
from test_written_models import bench_gen


class _Counted(TermModel):
    """A model that keeps the node count it was frozen with."""

    def __init__(self, schema, name, tables, nodes, *args):
        super().__init__(schema, name, tables, nodes, *args)
        self.nodes = nodes


def saturated(*args, **kwargs):
    """`saturate`'s model and node count, or the `ResourceLimit` it raised."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_module, "TermModel", _Counted)
        try:
            m = saturate(*args, **kwargs)
        except ResourceLimit as e:
            return e
    return m, m.nodes


def referenced(*args, **kwargs):
    try:
        return reference_closure.saturate(*args, **kwargs)
    except ResourceLimit as e:
        return e


def assert_same(got, expected):
    assert type(got) is type(expected)
    if isinstance(expected, ResourceLimit):
        assert str(got) == str(expected)
        return
    (m, nodes), (r, r_nodes) = got, expected
    assert nodes == r_nodes
    # the same symbols in the same order, each with the same entries in the same order
    assert [(f, list(tab.items())) for f, tab in m.tables.items()] == \
        [(f, list(tab.items())) for f, tab in r.tables.items()]
    assert list(m.carriers.items()) == list(r.carriers.items())
    assert list(m._chosen.items()) == list(r._chosen.items())
    assert [m.class_of(g) for g in m.generators] == [r.class_of(g) for g in r.generators]


@st.composite
def free_schemas(draw):
    """A constraint-free schema, its foreign keys drawn between any two entities, cycles and loops included;
    generators; equations between chains of depth at most 2; and small class and round caps."""
    ents = [Sort(f"E{i}", ENTITY) for i in range(draw(st.integers(1, 3)))]
    pick = st.sampled_from(range(len(ents)))
    fks = [fkey(f"k{n}", ents[draw(pick)], ents[draw(pick)]) for n in range(draw(st.integers(0, 3)))]
    atts = [attr(f"a{n}", ents[draw(pick)], draw(st.sampled_from([INT, STRING])))
            for n in range(draw(st.integers(0, 3)))]
    sch = Schema("R", builtin_typeside(), ents, atts, fks)
    gens = [generator(f"g{n}", ents[draw(pick)]) for n in range(draw(st.integers(0, 4)))]
    terms = [(g,) for g in gens]
    for _ in range(2):
        terms += [t + (f,) for t in terms for f in fks + atts if f.arg_sorts[0] == t[-1].out_sort]
    terms += [(int_literal(n).sym,) for n in (1, 2)] + [(string_literal("p").sym,)]
    chains = []
    for _ in range(draw(st.integers(0, 4))):
        lhs = draw(st.sampled_from(terms))
        chains.append((lhs, draw(st.sampled_from([t for t in terms if t[-1].out_sort == lhs[-1].out_sort]))))
    return sch, gens, chains, draw(st.integers(1, 40)), draw(st.integers(1, 12))


@settings(max_examples=300, deadline=None)
@given(free_schemas())
def test_closure_agrees_with_the_engine_generations(case):
    sch, gens, chains, cap, rounds = case
    with max_rounds(rounds), max_classes(cap):
        assert_same(saturated(sch, "I", gens, chains), referenced(sch, "I", gens, chains))


def cyclic_schema():
    e = Sort("E", ENTITY)
    return Schema("C", builtin_typeside(), [e], [attr("v", e, INT)], [fkey("nxt", e, e)]), e


# each case is the class cap and the round cap
@pytest.mark.parametrize("limits", [(10000, 1000), (50, 1000), (3, 1000), (10000, 1), (10000, 2)])
def test_a_cyclic_schema_stops_where_the_engine_stops(limits):
    cap, rounds = limits
    sch, e = cyclic_schema()
    gens = [generator("a", e), generator("b", e)]
    chains = [((gens[0], sch.symbol_named("v")), (int_literal(3).sym,))]
    with max_rounds(rounds), max_classes(cap):
        got = saturated(sch, "I", gens, chains)
        assert isinstance(got, ResourceLimit)
        assert_same(got, referenced(sch, "I", gens, chains))


def test_of_two_sorts_over_the_limit_the_one_with_the_first_class_is_reported():
    # E1's symbols number Int before String, but E2's generator comes first, so String's first class does
    e1, e2 = Sort("E1", ENTITY), Sort("E2", ENTITY)
    sch = Schema("R", builtin_typeside(), [e1, e2],
                 [attr("a1", e1, INT), attr("b1", e1, INT), attr("a2", e2, STRING), attr("b2", e2, STRING)], [])
    gens = [generator("g2", e2), generator("g1", e1)]
    with max_classes(1):
        got = saturated(sch, "I", gens, [])
        assert str(got) == "carrier of String in I exceeded 1 classes (the term model may be infinite)"
        assert_same(got, referenced(sch, "I", gens, []))


def test_only_a_schema_with_constraints_runs_the_engine_generations(monkeypatch):
    sch, e = cyclic_schema()
    nxt, x = sch.symbol_named("nxt"), Var("x", e)
    # nxt(nxt(x)) = x: the constraint merges, so the engine's rounds decide the model
    constrained = Schema("C2", sch.typeside, sch.entities, sch.attributes, sch.foreign_keys,
                         [Equation((x,), App(nxt, (App(nxt, (x,)),)), x)])
    gens = [generator("a", e)]
    closes = count_calls(monkeypatch, model_module, "_close", lambda: saturate(constrained, "I", gens, []))
    assert closes == 0
    assert_same(saturated(constrained, "I", gens, []), referenced(constrained, "I", gens, []))
    assert len(saturate(constrained, "I", gens, []).carrier(e)) == 2
    free = Schema("A", sch.typeside, sch.entities, sch.attributes, [])
    assert count_calls(monkeypatch, model_module, "_close", lambda: saturate(free, "I", gens, [])) == 1
    with max_classes(5), pytest.raises(ResourceLimit, match="carrier of E in I exceeded 5 classes"):
        saturate(sch, "I", gens, [])


@pytest.mark.parametrize("length", [3, 12])
def test_the_engine_only_seeds_a_constraint_free_chain(monkeypatch, length):
    # 50 free generators at E0 of E0 -> ... -> E<length>: every node after them is a fresh application
    env, diags = elaborate(parse(bench_gen.deep(1, length, 50).text)[0])
    assert diags == []
    m = env.models["I"]
    seeded = len(m.schema.typeside.constants) + 50
    applied = count_calls(monkeypatch, _Engine, "apply", lambda: saturate(m.schema, "I", m.generators, m.chains))
    assert applied == seeded
    # the engine's generations apply once per node, so the work the engine no longer does grows with the chain
    _, nodes = reference_closure.saturate(m.schema, "I", m.generators, m.chains)
    referenced_applies = count_calls(monkeypatch, _Engine, "apply",
                                     lambda: reference_closure.saturate(m.schema, "I", m.generators, m.chains))
    assert nodes == 50 * (2 * length + 2) and referenced_applies == nodes


def diverging_schemas():
    """nxt : E -> E and f : E -> F, without a constraint and with f(nxt(x)) = f(x): E gains a class a round."""
    e, f_sort = Sort("E", ENTITY), Sort("F", ENTITY)
    nxt, f = fkey("nxt", e, e), fkey("f", e, f_sort)
    x = Var("x", e)
    free = Schema("L", builtin_typeside(), [e, f_sort], [], [nxt, f])
    constrained = Schema("L", builtin_typeside(), [e, f_sort], [], [nxt, f],
                         [Equation((x,), App(f, (App(nxt, (x,)),)), App(f, (x,)))])
    return [generator("a", e)], free, constrained


@pytest.mark.parametrize("loop", ["_close", "engine"])
@pytest.mark.parametrize("cap", [3, 10000])
def test_both_loops_stop_at_the_same_limit_in_the_same_round(monkeypatch, loop, cap):
    # E holds 1 + r classes after round r, so a cap of 3 classes is exceeded in round 3;
    # a round cap below that is reached first, after exactly that many rounds
    gens, free, constrained = diverging_schemas()
    sch = free if loop == "_close" else constrained
    with max_rounds(1):
        assert count_calls(monkeypatch, model_module, "_close", lambda: saturated(sch, "I", gens, [])) == \
            (loop == "_close")
    for rounds in range(1, 6):
        with max_rounds(rounds), max_classes(cap):
            got = saturated(sch, "I", gens, [])
            assert_same(got, referenced(sch, "I", gens, []))
        if cap == 3 and rounds >= 3:
            assert str(got) == "carrier of E in I exceeded 3 classes (the term model may be infinite)"
        else:
            assert str(got) == f"saturation of I exceeded {rounds} rounds"
