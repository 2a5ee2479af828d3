"""Saturation engine: carriers, labels, consistency, and oracle equivalence."""

import gc
import random
import weakref
from functools import partial

import pytest

from catq import (
    App,
    Collision,
    Equation,
    INT,
    InstancePresentation,
    ResourceLimit,
    STRING,
    Schema,
    Sort,
    SortMismatch,
    UnknownSymbol,
    Var,
    build_term_model,
    builtin_typeside,
    check_consistency,
    generator,
    ground_eq,
    int_literal,
    render_model,
    replace,
    string_literal,
)
from catq.model import _Engine, saturate
from catq.terms import ENTITY

from conftest import (
    N1,
    N2,
    ap,
    attr,
    count_calls,
    fkey,
    max_classes,
    max_rounds,
    merge_chain_instance,
    reversed_chain_instance,
)
from oracle import deductive_closure, oracle_equal, term_key, term_universe
from test_written_models import LITERAL_PROGRAMS, literal_models


def test_running_example_carriers(model_i, schema_s):
    assert [len(model_i.carrier(s)) for s in (N1, N2)] == [3, 3]
    assert len(model_i.carrier(STRING)) == 3
    # 100, 250, 300, 20, 30
    assert len(model_i.carrier(INT)) == 5
    assert check_consistency(model_i) is None


def test_decide_equal_on_running_example(model_i, schema_s, inst_i):
    age, f = schema_s.symbol_named("age"), schema_s.symbol_named("f")
    e1, e2 = inst_i.generators[0], inst_i.generators[1]
    assert model_i.decide_equal(ap(age, ap(f, e1)), int_literal(20))
    assert model_i.decide_equal(ap(age, ap(f, e1)), ap(age, ap(f, e2)))
    assert not model_i.decide_equal(App(e1), App(e2))
    assert not model_i.decide_equal(ap(f, e1), ap(f, e2))


def test_decide_equal_rejects_an_open_term(model_i, schema_s, inst_i):
    age, f = schema_s.symbol_named("age"), schema_s.symbol_named("f")
    with pytest.raises(UnknownSymbol, match="^unbound variable x$"):
        model_i.decide_equal(ap(age, ap(f, Var("x", N1))), ap(age, ap(f, inst_i.generators[0])))


def test_labels_are_ids_literals_or_null_terms(model_i, schema_s, inst_i):
    f = schema_s.symbol_named("f")
    e1 = inst_i.generators[0]
    ids = sorted(model_i.label(c) for c in model_i.carrier(N1))
    assert ids == ["1", "2", "3"]
    assert model_i.label(model_i.eval(ap(f, e1))) in {"1", "2", "3"}
    lits = {model_i.label(c) for c in model_i.carrier(STRING)}
    assert lits == {"Alice", "Bob", "Sue"}


def test_labeled_null_rendering(schema_s):
    # an employee with no asserted name: the cell shows the term itself
    g = generator("e", N1)
    inst = InstancePresentation("lonely", schema_s, [g], [])
    m = build_term_model(inst)
    name = schema_s.symbol_named("name")
    assert m.label(m.eval(ap(name, g))) == "name(1)"


def test_collision_detection(schema_s):
    g = generator("e", N1)
    age, f = schema_s.symbol_named("age"), schema_s.symbol_named("f")
    inst = InstancePresentation("bad", schema_s, [g], [
        ground_eq(App(age, (ap(f, g),)), int_literal(20)),
        ground_eq(App(age, (ap(f, g),)), int_literal(30)),
    ])
    m = build_term_model(inst)
    collision = check_consistency(m)
    assert isinstance(collision, Collision)
    assert {collision.lit1, collision.lit2} == {"20", "30"}
    assert str(collision) == "Collision(20, 30) at sort Int"


@pytest.mark.parametrize("order", [(30, 20, 25), (25, 30, 20)])
def test_three_colliding_literals_report_the_two_least(schema_s, order):
    # lit1 and lit2 are the least and next-least literal by name, whatever the declaration order
    g = generator("e", N1)
    age, f = schema_s.symbol_named("age"), schema_s.symbol_named("f")
    inst = InstancePresentation("bad", schema_s, [g], [
        ground_eq(App(age, (ap(f, g),)), int_literal(v)) for v in order])
    m = build_term_model(inst)
    assert str(check_consistency(m)) == "Collision(20, 25) at sort Int"
    assert [(k.lit1, k.lit2) for k in m.collisions] == [("20", "25"), ("20", "30")]


def test_resource_limit_on_infinite_model():
    ts = builtin_typeside()
    e = Sort("E", ENTITY)
    nxt = fkey("nxt", e, e)
    sch = Schema("L", ts, [e], [], [nxt])
    inst = InstancePresentation("W", sch, [generator("a", e)], [])
    with max_classes(40), pytest.raises(ResourceLimit):
        build_term_model(inst)


def chain_instance(k: int, gens: int) -> InstancePresentation:
    """E0 -> E1 -> ... -> Ek, one Int attribute per entity, free generators at E0."""
    ts = builtin_typeside()
    ents = [Sort(f"E{i}", ENTITY) for i in range(k + 1)]
    fks = [fkey(f"h{i + 1}", ents[i], ents[i + 1]) for i in range(k)]
    atts = [attr(f"a{i}", e, INT) for i, e in enumerate(ents)]
    sch = Schema("D", ts, ents, atts, fks)
    return InstancePresentation("I", sch, [generator(f"g{n}", ents[0]) for n in range(gens)], [])


def test_round_limit_counts_worklist_generations():
    # one round per chain link, one for the attributes of E10, one that finds nothing new
    inst = chain_instance(10, 2)
    with max_rounds(11), pytest.raises(ResourceLimit, match="exceeded 11 rounds"):
        build_term_model(inst)
    with max_rounds(12):
        m = build_term_model(inst)
    assert [len(m.carrier(e)) for e in inst.schema.entities] == [2] * 11
    assert len(m.carrier(INT)) == 22


def test_saturation_builds_no_terms(monkeypatch):
    # the freeze records symbols and child classes; canonical terms are built on first read
    inst = chain_instance(10, 50)
    models = []
    built = count_calls(monkeypatch, App, "__post_init__",
                        lambda: models.append(build_term_model(inst)))
    assert built == 0
    (m,) = models
    read = count_calls(monkeypatch, App, "__post_init__", lambda: m.canonical)
    assert read == len(m.all_classes()) > 0
    assert count_calls(monkeypatch, App, "__post_init__", lambda: m.canonical) == 0


def test_queries_never_write_the_model(schema_s):
    gens = [generator(f"e{i}", N1) for i in range(6)]
    eqs = [ground_eq(App(a), App(b)) for a, b in zip(gens, gens[1:])]
    m = build_term_model(InstancePresentation("chain", schema_s, gens, eqs))
    tables = {sym: dict(tab) for sym, tab in m.tables.items()}
    f, name = schema_s.symbol_named("f"), schema_s.symbol_named("name")
    for g in gens:
        c = m.class_of(g)
        assert m.label(c) == "1"
        assert m.label(m.op(name, c)) == "name(1)"
        assert m.eval(ap(name, g)) == m.op(name, c)
        assert m.decide_equal(ap(f, g), ap(f, gens[0]))
        assert m.walk((f,), None, c) == m.op(f, c)
    assert m.column(name) == {c: m.op(name, c) for c in m.carrier(N1)}
    assert m.image(m, {g: m.class_of(g) for g in gens}) == {c: c for c in m.all_classes()}
    render_model(m, "markdown")
    render_model(m, "json")
    assert m.tables == tables


def test_a_frozen_model_holds_no_engine(monkeypatch, schema_s):
    engines = []
    real_init = _Engine.__init__

    def init(self):
        real_init(self)
        engines.append(weakref.ref(self))

    monkeypatch.setattr(_Engine, "__init__", init)
    gens = [generator(f"e{i}", N1) for i in range(6)]
    eqs = [ground_eq(App(a), App(b)) for a, b in zip(gens, gens[1:])]
    m = build_term_model(InstancePresentation("chain", schema_s, gens, eqs))
    gc.collect()
    (eng,) = engines
    assert eng() is None
    assert m.carrier(N1)  # the model is still alive


def test_constraint_saturation_collapses_classes():
    # a constraint forcing nxt(nxt(x)) = x makes the chain a 2-cycle
    ts = builtin_typeside()
    e = Sort("E", ENTITY)
    nxt = fkey("nxt", e, e)
    x = Var("x", e)
    sch = Schema("C2", ts, [e], [], [nxt],
                 [Equation((x,), App(nxt, (App(nxt, (x,)),)), x)])
    inst = InstancePresentation("V", sch, [generator("a", e)], [])
    m = build_term_model(inst)
    assert len(m.carrier(e)) == 2


def test_typeside_constants_and_equations():
    from catq.terms import TYPESIDE
    from catq import FunctionSymbol
    zero = FunctionSymbol("zero", (), INT, TYPESIDE)
    ts = replace(builtin_typeside(), constants=[zero],
                 equations=[ground_eq(App(zero), int_literal(0))])
    e = Sort("E", ENTITY)
    sch = Schema("K", ts, [e], [attr("n", e, INT)], [])
    g = generator("a", e)
    inst = InstancePresentation("Z", sch, [g], [ground_eq(ap(sch.symbol_named("n"), g), App(zero))])
    m = build_term_model(inst)
    assert m.decide_equal(ap(sch.symbol_named("n"), g), int_literal(0))


# ---------------------------------------------------------------------------
# Oracle equivalence on randomized instances


def random_instance(seed: int) -> InstancePresentation:
    """A random acyclic schema and instance with a small term universe."""
    rng = random.Random(seed)
    ts = builtin_typeside()
    ents = [Sort(f"E{i}", ENTITY) for i in range(rng.randint(2, 4))]
    fks, atts = [], []
    for i, s in enumerate(ents):
        for j in range(i + 1, len(ents)):
            if rng.random() < 0.5:
                fks.append(fkey(f"k{i}{j}", s, ents[j]))
        if rng.random() < 0.7:
            atts.append(attr(f"a{i}", s, rng.choice([INT, STRING])))
    sch = Schema(f"R{seed}", ts, ents, atts, fks)
    gens = []
    for i, s in enumerate(ents):
        for n in range(rng.randint(1, 3)):
            gens.append(generator(f"g{i}_{n}", s))
    inst = InstancePresentation(f"I{seed}", sch, gens, [])
    # sample the universe and assert random same-sort equations over it
    universe = sorted(term_universe(inst), key=repr)
    by_sort = {}
    for t in universe:
        by_sort.setdefault(t.sort, []).append(t)
    eqs = []
    for _ in range(rng.randint(0, 6)):
        sort = rng.choice(list(by_sort))
        pool = by_sort[sort]
        lhs = rng.choice(pool)
        if sort.is_entity:
            rhs = rng.choice(pool)
        else:
            rhs = rng.choice(pool + [int_literal(rng.randint(0, 3)) if sort == INT
                                     else string_literal(rng.choice("pqr"))])
        eqs.append(ground_eq(lhs, rhs))
    return replace(inst, equations=eqs)


ORACLE_INPUTS = [
    *(pytest.param(partial(random_instance, seed), id=str(seed)) for seed in range(24)),
    *(pytest.param(partial(merge_chain_instance, m, seed), id=f"chain{m}-{seed}")
      for m, seed in ((6, 0), (12, 1), (20, 2), (25, 3))),
]


@pytest.mark.parametrize("make", ORACLE_INPUTS)
def test_engine_partition_matches_oracle(make):
    inst = make()
    universe = sorted(term_universe(inst), key=repr)
    assert len(universe) <= 120
    partition = deductive_closure(inst)
    m = build_term_model(inst)
    for i, t1 in enumerate(universe):
        for t2 in universe[i:]:
            if t1.sort != t2.sort:
                continue
            assert m.decide_equal(t1, t2) == oracle_equal(partition, t1, t2), (t1, t2)


def test_merge_chain_work_grows_linearly(monkeypatch):
    # a union re-keys only the uses of the class it absorbs
    calls = {}
    for m in (100, 400):
        inst = merge_chain_instance(m, 0)
        calls[m] = count_calls(monkeypatch, _Engine, "find", lambda: build_term_model(inst))
    # 4x the records: linear work grows 4x (4.9x here), re-keying both classes 15x
    assert calls[400] < 8 * calls[100]


def test_the_engine_resolves_a_sort_once_per_symbol(monkeypatch):
    # a node's sort index is its symbol's, read with the symbol's table;
    # the closure resolves each entity once, and each constraint its variable's
    for m in (100, 400):
        inst = merge_chain_instance(m, 0)
        calls = count_calls(monkeypatch, _Engine, "sort_id", lambda: build_term_model(inst))
        model = build_term_model(inst)
        assert calls == len(model.tables) + len(inst.schema.entities) + len(inst.schema.constraints)
        assert len(model.tables) == m + 5  # the generators, f, name, age and the literals "p" and 30


def test_reversed_merge_chain_work_grows_linearly(monkeypatch):
    # a union absorbs the class with fewer uses, so the order of the chain does not matter
    calls = {}
    for n in (100, 400):
        inst = reversed_chain_instance(n)
        calls[n] = count_calls(monkeypatch, _Engine, "find", lambda: build_term_model(inst))
    # 4x the records: 4.0x here; absorbing the larger class grew 15x
    assert calls[400] < 8 * calls[100]


# ---------------------------------------------------------------------------
# Classes are named by their least node, whichever root the unions keep


def _assert_named_by_least_node(monkeypatch, build):
    """Run build() and check, at every engine freeze, that each node's class is the least node of its root.

    Written models number their classes as saturation would; the written-model
    tests compare their tables with saturation's.
    """
    freezes = 0
    real = _Engine.class_tables

    def class_tables(self):
        nonlocal freezes
        freezes += 1
        least: dict[int, int] = {}  # union-find root -> the least node under it
        for n in range(len(self.parent)):
            r = self.find(n)
            assert self.least[r] == least.setdefault(r, n), n
        return real(self)

    with monkeypatch.context() as mp:
        mp.setattr(_Engine, "class_tables", class_tables)
        out = build()
    assert freezes
    return out


@pytest.mark.parametrize("name", LITERAL_PROGRAMS)
def test_every_class_is_named_by_its_least_node(monkeypatch, name):
    _assert_named_by_least_node(monkeypatch, lambda: literal_models(LITERAL_PROGRAMS[name]))


def test_fixture_classes_are_named_by_their_least_node(monkeypatch, inst_i, inst_i0, inst_j):
    for inst in (inst_i, inst_i0, inst_j):
        _assert_named_by_least_node(monkeypatch, lambda: build_term_model(inst))


def colliding_chain_instance(m):
    """m records with three names and two ages, declared equal in pairs.

    Every pair collides on both attributes: the names p0, p1 and p2 end up
    in one class, and so do the ages 30 and 31.
    """
    f, nm, age = fkey("f", N1, N2), attr("name", N1, STRING), attr("age", N2, INT)
    schema = Schema("C", builtin_typeside(), [N1, N2], [nm, age], [f])
    gens = [generator(f"r{k}", N1) for k in range(m)]
    eqs = []
    for k, g in enumerate(gens):
        eqs += [ground_eq(ap(nm, g), string_literal(f"p{k % 3}")),
                ground_eq(ap(age, ap(f, g)), int_literal(30 + k % 2))]
    eqs += [ground_eq(App(a), App(b)) for a, b in zip(gens[::2], gens[1::2])]
    return InstancePresentation(f"collide{m}", schema, gens, eqs)


def _observed(m):
    """Labels and literal names per carrier, and the collisions' literal pairs."""
    return ({s.name: [m.label(c) for c in cs] for s, cs in m.carriers.items()},
            {s.name: [m.literal_of[c].name for c in cs if c in m.literal_of]
             for s, cs in m.carriers.items()},
            sorted((k.lit1, k.lit2) for k in m.collisions))


@pytest.mark.parametrize("make, collisions", [
    (partial(merge_chain_instance, 12, 0), []),
    (partial(colliding_chain_instance, 12), [("30", "31"), ("p0", "p1"), ("p0", "p2")]),
], ids=["chain", "colliding"])
def test_equation_order_changes_no_observable(monkeypatch, make, collisions):
    inst = make()
    base = _observed(build_term_model(inst))
    assert base[2] == collisions
    universe = sorted(term_universe(inst), key=repr)
    partition = deductive_closure(inst)
    for seed in range(1, 21):
        eqs = list(inst.equations)
        random.Random(seed).shuffle(eqs)
        m = _assert_named_by_least_node(monkeypatch, lambda: build_term_model(replace(inst, equations=eqs)))
        assert _observed(m) == base, seed
        for i, t1 in enumerate(universe):
            for t2 in universe[i:]:
                if t1.sort == t2.sort:
                    assert m.decide_equal(t1, t2) == oracle_equal(partition, t1, t2), (seed, t1, t2)


def test_cross_sort_merge_names_the_older_class_first(schema_s):
    # the message lists the sort of the class with the least node first,
    # whichever class has more uses
    f, age = schema_s.symbol_named("f"), schema_s.symbol_named("age")
    a, b = generator("a", N1), generator("b", N2)
    cases = [([b, a], [((a, f), (a, f)), ((b,), (a,))], "N2 and N1"),
             ([b, a], [((a,), (b,))], "N2 and N1"),
             ([a, b], [((b, age), (b, age)), ((a,), (b,))], "N1 and N2"),
             ([a, b], [((b, age), (b, age)), ((b,), (a,))], "N1 and N2")]
    for gens, chains, sorts in cases:
        with pytest.raises(SortMismatch) as err:
            saturate(schema_s, "X", gens, chains)
        assert str(err.value) == f"cannot merge classes of sorts {sorts}"


def test_oracle_on_running_example(inst_i, model_i, schema_s):
    partition = deductive_closure(inst_i)
    universe = sorted(term_universe(inst_i), key=repr)
    for i, t1 in enumerate(universe):
        for t2 in universe[i:]:
            if t1.sort == t2.sort:
                assert model_i.decide_equal(t1, t2) == oracle_equal(partition, t1, t2)


def _class_minima(inst, m):
    """Per class, the term_key-least term of the oracle universe."""
    least: dict = {}
    for t in term_universe(inst):
        c = m.eval(t)
        if c not in least or term_key(t) < term_key(least[c]):
            least[c] = t
    return least


def _assert_canonical_terms_are_least(inst, m):
    least = _class_minima(inst, m)
    assert set(least) == set(m.all_classes())
    for c, t in least.items():
        assert m.canonical[c] == t, (c, m.canonical[c], t)
    for s, cs in m.carriers.items():
        keys = [term_key(m.canonical[c]) for c in cs]
        assert keys == sorted(keys), s


@pytest.mark.parametrize("seed", range(24))
def test_canonical_terms_match_brute_force(seed):
    inst = random_instance(seed)
    _assert_canonical_terms_are_least(inst, build_term_model(inst))


def test_canonical_terms_on_running_example(inst_i, model_i):
    _assert_canonical_terms_are_least(inst_i, model_i)


def test_column_classes_are_the_column_values(model_i):
    # the renderer reads a column's classes as a list; the dict stays for other readers
    for f in model_i.schema.symbols:
        assert model_i.column_classes(f) == list(model_i.column(f).values())
    first = model_i.carrier(N1)[0]
    for read in (model_i.column, model_i.column_classes):
        with pytest.raises(UnknownSymbol, match=f"^no stray application on class {first}$"):
            read(attr("stray", N1, INT))
