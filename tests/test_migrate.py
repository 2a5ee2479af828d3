"""Data migration functors, adjunctions, coproducts, and inversion."""

import gc
import random
from collections import Counter

import pytest

from catq import (
    App,
    INT,
    InstanceMorphism,
    InstancePresentation,
    InvariantViolation,
    InversionBounds,
    Mapping,
    NoMorphismExists,
    ReadOnlyError,
    ResourceLimit,
    STRING,
    Var,
    build_term_model,
    compose_mappings,
    coproduct,
    counit_pi,
    counit_sigma,
    delta,
    elaborate,
    empty_instance,
    enumerate_morphisms,
    enumerate_paths,
    generator,
    identity_mapping,
    int_literal,
    instances_isomorphic,
    invert_mapping,
    mappings_equal,
    parse,
    pi,
    replace,
    sigma,
    transpose_pi_down,
    transpose_pi_up,
    transpose_sigma_down,
    transpose_sigma_up,
    unit_pi,
    unit_sigma,
    validate_mapping,
)
from catq import migrate
from catq.model import SaturationLimits, TermModel, model_read_as, saturate
from catq.schema import Schema, builtin_typeside
from catq.terms import ENTITY, TYPESIDE, Equation, FunctionSymbol, Sort, ground_eq, render_term

from conftest import (
    N,
    N1,
    N2,
    ap,
    attr,
    count_calls,
    employees_instance,
    fkey,
    joined_instance,
    max_rounds,
    split_instance,
)
from test_cli import IDEMPOTENT


def row_labels(m, entity, cols):
    syms = [m.schema.symbol_named(c) for c in cols]
    return sorted(tuple(m.label(m.op(s, c)) for s in syms) for c in m.carrier(entity))


# ---------------------------------------------------------------------------
# Path enumeration


def test_enumerate_paths_includes_identity_and_composites(schema_s):
    from catq.terms import render_term
    ps = enumerate_paths(schema_s, N1, N2)
    assert [render_term(t) for t in ps.terms] == ["f(p)"]
    ent = enumerate_paths(schema_s, N1, N1)
    assert [render_term(t) for t in ent.terms] == ["p"]
    ints = enumerate_paths(schema_s, N1, INT)
    assert {render_term(t) for t in ints.terms} == {"salary(p)", "age(f(p))"}
    assert not ints.truncated


def test_enumerate_paths_compares_paths_of_one_sort():
    # the constraint makes the probe decide equality; paths of other sorts are skipped
    sch = elaborate(parse(IDEMPOTENT)[0])[0].schemas["S"]
    a, b = sch.entity_named("A"), sch.entity_named("B")
    assert [render_term(t) for t in enumerate_paths(sch, a, b).terms] == ["f(p)", "g(f(p))"]
    assert [render_term(t) for t in enumerate_paths(sch, b, b).terms] == ["p", "g(p)"]


def test_enumerate_paths_truncates_on_cycles():
    from catq import Schema, Sort, builtin_typeside
    from catq.terms import ENTITY
    from conftest import fkey
    e = Sort("E", ENTITY)
    sch = Schema("L", builtin_typeside(), [e], [], [fkey("nxt", e, e)])
    ps = enumerate_paths(sch, e, e, max_depth=3)
    assert ps.truncated and len(ps.terms) == 4


def test_enumerate_paths_dedups_modulo_constraints():
    from catq import Equation, Schema, Sort, builtin_typeside
    from catq.terms import ENTITY
    from conftest import fkey
    e = Sort("E", ENTITY)
    nxt = fkey("nxt", e, e)
    x = Var("x", e)
    sch = Schema("C2", builtin_typeside(), [e], [], [nxt],
                 [Equation((x,), App(nxt, (App(nxt, (x,)),)), x)])
    from catq.terms import render_term
    ps = enumerate_paths(sch, e, e, max_depth=6)
    assert [render_term(t) for t in ps.terms] == ["p", "nxt(p)"]
    assert not ps.truncated


def random_path_schema(rng: random.Random) -> Schema:
    """A small schema: foreign keys up a chain of entities, self-loops and attributes.

    Each self-loop is involutive, idempotent or free; a free one makes the
    paths infinite.  The typeside may carry the ground equation zero = 0.
    """
    ents = [Sort(f"E{i}", ENTITY) for i in range(rng.randint(1, 4))]
    fks, cons = [], []
    for k in range(rng.randint(0, 5) if len(ents) > 1 else 0):
        i = rng.randrange(len(ents) - 1)
        fks.append(fkey(f"f{k}", ents[i], ents[min(i + rng.randint(1, 2), len(ents) - 1)]))
    for k in range(rng.randint(0, 2)):
        e = rng.choice(ents)
        loop, y = fkey(f"s{k}", e, e), Var("y", e)
        fks.append(loop)
        kind = rng.choice(["involutive", "idempotent", "free"])
        if kind != "free":
            cons.append(Equation((y,), ap(loop, ap(loop, y)), y if kind == "involutive" else ap(loop, y)))
    atts = [attr(f"a{k}", rng.choice(ents), rng.choice([INT, STRING])) for k in range(rng.randint(0, 3))]
    ts = builtin_typeside()
    if rng.random() < 0.3:
        zero = FunctionSymbol("zero", (), INT, TYPESIDE)
        ts = replace(ts, constants=[zero], equations=[ground_eq(App(zero), int_literal(0))])
    return Schema("R", ts, ents, atts, fks, cons)


def path_outcome(enumerate_paths, *args):
    try:
        ps = enumerate_paths(*args)
    except ResourceLimit as exc:
        return str(exc)
    return ps.terms, ps.truncated


def test_enumerate_paths_matches_the_pairwise_reference():
    # keys in a set must keep what comparing each path with every kept one kept
    import reference_paths
    limits = SaturationLimits(max_classes_per_sort=100)
    shapes = Counter()
    with max_rounds(20):
        for seed in range(150):
            rng = random.Random(seed)
            sch = random_path_schema(rng)
            shapes[bool(sch.constraints), bool(sch.typeside.equations)] += 1
            max_depth, max_paths = rng.randint(1, 5), rng.choice([3, 40])
            for frm in sch.entities:
                for to in [*sch.entities, INT, STRING]:
                    args = (sch, frm, to, max_depth, max_paths, limits)
                    assert path_outcome(enumerate_paths, *args) == \
                        path_outcome(reference_paths.enumerate_paths, *args), (seed, frm, to)
    assert len(shapes) == 4  # with and without constraints, with and without the typeside equation


def test_enumerate_paths_keys_each_path_once(monkeypatch):
    # a star of n foreign keys into an idempotent loop: each path is one walk
    # of the probe, where comparing it with every kept path of its sort was
    # a number of walks quadratic in n
    a, b = Sort("A", ENTITY), Sort("B", ENTITY)
    g, y = fkey("g", b, b), Var("y", b)
    walks = {}
    for n in (8, 16):
        star = Schema(f"Star{n}", builtin_typeside(), [a, b], [],
                      [*(fkey(f"f{k}", a, b) for k in range(n)), g],
                      [Equation((y,), ap(g, ap(g, y)), ap(g, y))])
        walks[n] = count_calls(monkeypatch, TermModel, "walk", lambda: enumerate_paths(star, a, b))
        assert len(enumerate_paths(star, a, b).terms) == 2 * n
    assert walks[16] <= 2 * walks[8] + 1


# ---------------------------------------------------------------------------
# The three functors on the running examples


def test_sigma_joins_along_the_foreign_key(mapping_f, inst_i):
    res = sigma(mapping_f, inst_i)
    assert res.model.collisions == []
    assert row_labels(res.model, N, ["name", "salary", "age"]) == [
        ("Alice", "100", "20"), ("Bob", "250", "20"), ("Sue", "300", "30")]


def test_pi_joins_along_the_foreign_key(mapping_f, model_i):
    res = pi(mapping_f, model_i)
    assert row_labels(res.model, N, ["name", "salary", "age"]) == [
        ("Alice", "100", "20"), ("Bob", "250", "20"), ("Sue", "300", "30")]


def test_pi_and_saturation_leave_no_reference_cycles(mapping_f, model_i, model_j):
    # garbage that only the cyclic collector can free piles up between collections
    def units_counits_and_transposes():
        f, i, j = mapping_f, model_i, model_j
        sres, dres, pires = sigma(f, i.instance), delta(f, j), pi(f, i)
        unit_s, counit_s = unit_sigma(f, i), counit_sigma(f, j)
        unit_p, counit_p = unit_pi(f, j), counit_pi(f, i)
        transpose_sigma_up(f, unit_s, sres.model)
        transpose_sigma_down(f, dres.model, counit_s)
        transpose_pi_up(f, unit_p, dres.model)
        transpose_pi_down(f, pires.model, counit_p)

    for call in (lambda: pi(mapping_f, model_i), units_counits_and_transposes):
        call()  # warm the probe cache
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            call()
            gc.collect()
            cyclic = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert cyclic == []


def test_pi_invariant_failure_is_not_a_resource_limit(mapping_f, model_i,
                                                      pi_ignores_foreign_keys):
    with pytest.raises(InvariantViolation, match="attribute age is not well-defined"):
        pi(mapping_f, model_i)
    assert not issubclass(InvariantViolation, ResourceLimit)


def test_pi_index_miss_is_not_a_resource_limit(schema_s, model_i, paths_without_composites):
    with pytest.raises(InvariantViolation, match=r"path f\(p\) missing from the enumerated index"):
        pi(identity_mapping(schema_s), model_i)


def test_delta_projects_and_populates_the_foreign_key(mapping_f, model_j, model_i):
    res = delta(mapping_f, model_j)
    assert len(res.model.carrier(N1)) == 3 and len(res.model.carrier(N2)) == 3
    # joining the two projected tables through f recovers the original rows
    assert instances_isomorphic(res.model, model_i) is not None


def test_sigma_without_foreign_key_creates_nulls(mapping_f0, inst_i0):
    res = sigma(mapping_f0, inst_i0)
    m = res.model
    assert len(m.carrier(N)) == 6
    for col in ("name", "salary", "age"):
        cells = [m.label(m.op(m.schema.symbol_named(col), c)) for c in m.carrier(N)]
        nulls = [c for c in cells if "(" in c]
        assert len(nulls) == 3, (col, cells)
        assert all(c.startswith(f"{col}(") for c in nulls)


def test_pi_without_foreign_key_is_a_product(mapping_f0, model_i0):
    res = pi(mapping_f0, model_i0)
    m = res.model
    rows = row_labels(m, N, ["name", "age"])
    assert len(rows) == 9
    assert Counter(r[0] for r in rows) == Counter({"Alice": 3, "Bob": 3, "Sue": 3})
    assert Counter(r[1] for r in rows) == Counter({"20": 6, "30": 3})


def test_delta_without_foreign_key_projects_both_tables(mapping_f0, model_j):
    res = delta(mapping_f0, model_j)
    assert row_labels(res.model, N1, ["name", "salary"]) == [
        ("Alice", "100"), ("Bob", "250"), ("Sue", "300")]
    assert row_labels(res.model, N2, ["age"]) == [("20",), ("20",), ("30",)]


def test_identity_migrations_are_isomorphisms(schema_s, inst_i, model_i):
    ident = identity_mapping(schema_s)
    assert instances_isomorphic(sigma(ident, inst_i).model, model_i)
    assert instances_isomorphic(delta(ident, model_i).model, model_i)
    assert instances_isomorphic(pi(ident, model_i).model, model_i)


def test_migration_rejects_wrong_schema(mapping_f, model_j):
    from catq import SchemaMismatch
    with pytest.raises(SchemaMismatch):
        sigma(mapping_f, model_j.instance)
    with pytest.raises(SchemaMismatch):
        delta(mapping_f, build_term_model(empty_instance("E", mapping_f.source)))


# ---------------------------------------------------------------------------
# Adjunctions: units, counits, mates


def adjunction_corpus(schema_s, schema_t, schema_s2,
                      mapping_f, mapping_f0, mapping_r, schema_s0):
    """(mapping, source instance, target instance) triples, carriers <= 6."""
    def small_i(schema, n, who=("Ann", "Joe")):
        gens = [generator(f"s{k}", N1) for k in range(n)]
        from catq import ground_eq, string_literal
        nm = schema.symbol_named("name")
        eqs = [ground_eq(ap(nm, g), string_literal(w)) for g, w in zip(gens, who)]
        return InstancePresentation(f"i{n}", schema, gens, eqs)

    def small_j(schema, n):
        from catq import ground_eq, int_literal
        gens = [generator(f"t{k}", N) for k in range(n)]
        age = schema.symbol_named("age")
        eqs = [ground_eq(ap(age, g), int_literal(20 + 10 * k)) for k, g in enumerate(gens)]
        return InstancePresentation(f"j{n}", schema, gens, eqs)

    def small_s2(schema, n):
        from catq import ground_eq, int_literal
        m1 = schema.entity_named("M1")
        gens = [generator(f"u{k}", m1) for k in range(n)]
        pay = schema.symbol_named("pay")
        eqs = [ground_eq(ap(pay, g), int_literal(5 * (k + 1))) for k, g in enumerate(gens)]
        return InstancePresentation(f"k{n}", schema, gens, eqs)

    return [
        (mapping_f, employees_instance(schema_s), joined_instance(schema_t)),
        (mapping_f, small_i(schema_s, 1), small_j(schema_t, 2)),
        (mapping_f0, split_instance(schema_s0), joined_instance(schema_t)),
        (mapping_f0, small_i(schema_s0, 2), small_j(schema_t, 1)),
        (mapping_r, small_i(schema_s, 2), small_s2(schema_s2, 2)),
        (identity_mapping(schema_t), joined_instance(schema_t), small_j(schema_t, 2)),
    ]


@pytest.fixture(scope="module")
def corpus(schema_s, schema_t, schema_s2, mapping_f, mapping_f0, mapping_r, schema_s0):
    return adjunction_corpus(schema_s, schema_t, schema_s2,
                             mapping_f, mapping_f0, mapping_r, schema_s0)


def test_units_and_counits_verify(corpus):
    for f_map, inst, jinst in corpus:
        im, jm = build_term_model(inst), build_term_model(jinst)
        assert unit_sigma(f_map, im).violations() == []
        assert counit_sigma(f_map, jm).violations() == []
        assert unit_pi(f_map, jm).violations() == []
        assert counit_pi(f_map, im).violations() == []


def test_sigma_delta_hom_bijection(corpus):
    for f_map, inst, jinst in corpus:
        im, jm = build_term_model(inst), build_term_model(jinst)
        sres = sigma(f_map, inst)
        dres = delta(f_map, jm)
        up = enumerate_morphisms(sres.model, jm)
        down = enumerate_morphisms(im, dres.model)
        assert len(up) == len(down), (f_map.name, inst.name, jinst.name)
        assert {transpose_sigma_down(f_map, im, h) for h in up} == set(down)
        assert {transpose_sigma_up(f_map, hp, jm) for hp in down} == set(up)


def test_delta_pi_hom_bijection(corpus, monkeypatch):
    enumerations = {}
    for f_map, inst, jinst in corpus:
        im, jm = build_term_model(inst), build_term_model(jinst)
        dres = delta(f_map, jm)
        pires = pi(f_map, im)
        down = enumerate_morphisms(dres.model, im)
        up = enumerate_morphisms(jm, pires.model)
        assert len(down) == len(up), (f_map.name, inst.name, jinst.name)
        assert {transpose_pi_down(f_map, jm, h) for h in down} == set(up)
        assert {transpose_pi_up(f_map, g, im) for g in up} == set(down)
        for h in down:
            # the mate is built from its generators; class by class, each class of J
            # goes to the family of h's values along its entity's index paths
            cmap = {}
            for t in f_map.target.entities:
                paths = [(s.name, jm.table(t, chain)) for s, chain in pires.index[t.name]]
                for c in jm.carrier(t):
                    x = tuple(h.apply(dres.ent_class[(s_name, at[c])]) for s_name, at in paths)
                    cmap[c] = pires.fam_class[(t.name, x)]
            for tau in f_map.target.typeside.types:
                for c in jm.carrier(tau):
                    cmap[c] = pires.ty_class[h.apply(dres.ty_class[c])]
            assert transpose_pi_down(f_map, jm, h).cmap == cmap
        # one enumeration per distinct path set: pi on the running example used to make 8
        enumerations[f_map.name] = count_calls(monkeypatch, migrate, "enumerate_paths",
                                               lambda: pi(f_map, im, name="uncached"))
    assert enumerations["F"] == enumerations["F0"] == 5


def test_triangle_identities(corpus):
    for f_map, inst, jinst in corpus:
        im, jm = build_term_model(inst), build_term_model(jinst)
        sres = sigma(f_map, inst)
        # the mate of the unit is the identity on sigma(I)
        assert transpose_sigma_up(f_map, unit_sigma(f_map, im), sres.model).is_identity()
        # the mate of the counit is the identity on delta(J)
        dres = delta(f_map, jm)
        assert transpose_sigma_down(f_map, dres.model, counit_sigma(f_map, jm)).is_identity()
        # and dually for the pi adjunction
        assert transpose_pi_up(f_map, unit_pi(f_map, jm), dres.model).is_identity()
        pires = pi(f_map, im)
        assert transpose_pi_down(f_map, pires.model, counit_pi(f_map, im)).is_identity()


FRESH_NULL = """\
typeside Ty = literal { }
schema S = literal : Ty { entities A  attributes a : A -> Int }
schema T = literal : Ty { entities B  attributes b c : B -> Int }
mapping F = literal : S -> T { entities A -> B  attributes a -> lambda x:B. b(x) }
instance I = literal : S { generators r : A  equations a(r) = 1 }
"""


def test_counit_pi_has_no_mate_through_a_fresh_null():
    # c factors through no source attribute, so pi(I) holds a fresh null at
    # c(1): the identity on pi(I) has no mate, hence there is no counit
    env, diags = elaborate(parse(FRESH_NULL)[0])
    assert not diags
    f, im = env.mappings["F"], env.models["I"]
    pm = pi(f, im).model
    (row,) = pm.carrier(f.target.entity_named("B"))
    assert pm.label(pm.op(f.target.symbol_named("c"), row)) == "c(1)"
    with pytest.raises(NoMorphismExists, match="fresh null"):
        counit_pi(f, im)


# ---------------------------------------------------------------------------
# Shared migration results


@pytest.fixture()
def builds(monkeypatch):
    """Counts the term models constructed, saturated from a presentation or written, and per name."""
    from catq.model import TermModel
    count = Counter()
    real = TermModel.__init__

    def counting(self, schema, name, *args, **kwargs):
        count["builds"] += 1
        count[name] += 1
        return real(self, schema, name, *args, **kwargs)

    monkeypatch.setattr(TermModel, "__init__", counting)
    return count


def test_repeated_migration_returns_the_held_result(builds, mapping_f, model_i, model_j):
    dres = delta(mapping_f, model_j)
    assert builds["builds"] == 1
    assert delta(mapping_f, model_j) is dres
    assert pi(mapping_f, model_i) is pi(mapping_f, model_i)
    assert sigma(mapping_f, model_i.instance) is sigma(mapping_f, model_i.instance)
    assert builds["builds"] == 3
    # the name is part of what is computed
    named = delta(mapping_f, model_j, name="K")
    assert named is not dres and named.presentation.name == "K"
    assert dres.presentation.name == "delta_F_J"


def test_adjunction_laws_reuse_migration_results(builds, mapping_f, model_i, model_j):
    f, im, jm = mapping_f, model_i, model_j
    sres, dres, pires = sigma(f, im.instance), delta(f, jm), pi(f, im)
    up, down = enumerate_morphisms(sres.model, jm), enumerate_morphisms(im, dres.model)
    assert {transpose_sigma_down(f, im, h) for h in up} == set(down)
    down2, up2 = enumerate_morphisms(dres.model, im), enumerate_morphisms(jm, pires.model)
    assert {transpose_pi_down(f, jm, h) for h in down2} == set(up2)
    unit_s, counit_s = unit_sigma(f, im), counit_sigma(f, jm)
    unit_p, counit_p = unit_pi(f, jm), counit_pi(f, im)
    assert transpose_sigma_up(f, unit_s, sres.model).is_identity()
    assert transpose_sigma_down(f, dres.model, counit_s).is_identity()
    assert transpose_pi_up(f, unit_p, dres.model).is_identity()
    assert transpose_pi_down(f, pires.model, counit_p).is_identity()
    # seven distinct migrations: sigma I, delta J and pi I, and the four the
    # units and counits build (delta of sigma I, sigma of delta J, pi of
    # delta J, delta of pi I), which the transposes get again from the memo
    # while the morphisms built from them live (recomputing in every call
    # built 18 + 3 * len(up) models)
    assert builds["builds"] == 7


def test_units_and_counits_hold_what_their_triangle_identities_need(builds, mapping_f,
                                                                    model_i, model_j):
    # the caller holds no migration result: each unit or counit holds the
    # ones it was built from, so its triangle identity builds nothing
    f, im, jm = mapping_f, model_i, model_j
    triangles = [
        (lambda: unit_sigma(f, im), lambda u: transpose_sigma_up(f, u, sigma(f, im.instance).model)),
        (lambda: counit_sigma(f, jm), lambda c: transpose_sigma_down(f, delta(f, jm).model, c)),
        (lambda: unit_pi(f, jm), lambda u: transpose_pi_up(f, u, delta(f, jm).model)),
        (lambda: counit_pi(f, im), lambda c: transpose_pi_down(f, pi(f, im).model, c)),
    ]
    for make, mate in triangles:
        m = make()
        before = builds["builds"]
        assert mate(m).is_identity()
        assert builds["builds"] == before


def test_sigma_of_a_model_and_of_its_presentation_share_one_result(builds, mapping_f,
                                                                   inst_i, inst_j):
    # fresh models of fresh presentations, so that no other test has read them or holds
    # their results: the first live model to read a presentation stands for it
    f, im, jm = mapping_f, build_term_model(replace(inst_i)), build_term_model(replace(inst_j))
    sres = sigma(f, im.instance)
    assert sigma(f, im) is sres
    unit_s, counit_s = unit_sigma(f, im), counit_sigma(f, jm)
    assert transpose_sigma_up(f, unit_s, sres.model).is_identity()
    assert transpose_sigma_down(f, delta(f, jm).model, counit_s).is_identity()
    assert builds["sigma_F_I"] == 1
    # the sigma transposes read the chains of the written delta models, not their presentations
    before = builds["builds"]
    for res in (delta(f, jm), delta(f, sres.model)):
        assert "instance" not in vars(res.model)
    assert builds["builds"] == before


def test_a_presentation_stands_for_its_model_only_when_it_spells_the_chains(schema_s, inst_i):
    im = build_term_model(replace(inst_i))  # a presentation no other model has read
    assert model_read_as(im.instance) is im
    # a 0-ary symbol inside a chain discards the term so far: 7 = 7 does not spell (e, 7) = (7)
    e, seven = generator("e", N1), int_literal(7).sym
    m = saturate(schema_s, "X", [e], [((e, seven), (seven,))])
    assert [repr(eq) for eq in m.instance.equations] == ["7 = 7"]
    assert model_read_as(m.instance) is None


def test_the_first_live_reader_of_a_presentation_stands_for_it(mapping_f, inst_i):
    inst = replace(inst_i)  # a presentation no other model has read
    first, second = build_term_model(inst), build_term_model(inst)
    assert first.instance is second.instance is inst
    assert model_read_as(inst) is first
    del second
    gc.collect()
    assert model_read_as(inst) is first
    assert sigma(mapping_f, inst) is sigma(mapping_f, first)


def test_migration_inputs_cannot_change(mapping_f, model_i):
    # the memo serves a held result without comparing its inputs again,
    # which is sound because mappings and presentations cannot change
    inst = model_i.instance
    for obj in (inst.schema.typeside, inst.schema, inst, mapping_f):
        for name in obj._fields:
            with pytest.raises(ReadOnlyError):
                setattr(obj, name, getattr(obj, name))
            with pytest.raises(ReadOnlyError):
                delattr(obj, name)
            assert not isinstance(getattr(obj, name), (list, dict, set))
    f_sym = inst.schema.symbol_named("f")
    with pytest.raises(TypeError):
        mapping_f.entity_map[N1] = N
    with pytest.raises(TypeError):
        mapping_f.symbol_map[f_sym] = Var("x", N)
    with pytest.raises(TypeError):
        del mapping_f.entity_map[N1]
    # a mapping copies the dicts it is built from
    ent, sym = dict(mapping_f.entity_map), dict(mapping_f.symbol_map)
    g = Mapping("G", mapping_f.source, mapping_f.target, ent, sym)
    ent.clear()
    sym.clear()
    assert g.entity_map == mapping_f.entity_map and g.symbol_map == mapping_f.symbol_map


def test_mutated_mapping_is_migrated_again(builds, mapping_f, model_j, schema_t):
    # a mapping cannot change in place, so a mutation is a changed copy;
    # the memo builds that copy's result and keeps the original's
    g = Mapping("G", mapping_f.source, mapping_f.target,
                dict(mapping_f.entity_map), dict(mapping_f.symbol_map))
    first = delta(g, model_j)
    salary = g.source.symbol_named("salary")
    sym = dict(g.symbol_map)
    sym[salary] = ap(schema_t.symbol_named("age"), Var("x", N))
    g2 = Mapping("G", g.source, g.target, dict(g.entity_map), sym)
    second = delta(g2, model_j)
    assert second is not first and builds["builds"] == 2
    assert row_labels(first.model, N1, ["salary"]) == [("100",), ("250",), ("300",)]
    assert row_labels(second.model, N1, ["salary"]) == [("20",), ("20",), ("30",)]
    assert delta(g2, model_j) is second
    assert delta(g, model_j) is first and builds["builds"] == 2


def test_mutated_presentation_is_migrated_again(builds, mapping_f, schema_s):
    from catq import ground_eq
    inst = employees_instance(schema_s)
    first = sigma(mapping_f, inst)
    e1, e2 = inst.generators[:2]
    inst2 = replace(inst, equations=inst.equations + (ground_eq(App(e1), App(e2)),))
    second = sigma(mapping_f, inst2)
    assert second is not first and builds["builds"] == 2
    assert len(first.model.carrier(N)) == 3
    assert second.model.collisions  # Alice = Bob
    assert sigma(mapping_f, inst2) is second
    assert sigma(mapping_f, inst) is first and builds["builds"] == 2


# ---------------------------------------------------------------------------
# Functoriality and colimit preservation


@pytest.fixture(scope="module")
def rename_t(ty):
    """A renamed copy of the single-entity schema plus the renaming mapping."""
    from catq import Schema, Sort
    from catq.terms import ENTITY
    from conftest import attr
    P = Sort("P", ENTITY)
    sch = Schema("T2", ty, [P],
                 [attr("label", P, STRING), attr("pay2", P, INT), attr("years2", P, INT)], [])
    return sch


def g_rename(schema_t, rename_t):
    x = Var("x", rename_t.entity_named("P"))
    return Mapping("G", schema_t, rename_t, {N: rename_t.entity_named("P")}, {
        schema_t.symbol_named("name"): ap(rename_t.symbol_named("label"), x),
        schema_t.symbol_named("salary"): ap(rename_t.symbol_named("pay2"), x),
        schema_t.symbol_named("age"): ap(rename_t.symbol_named("years2"), x),
    })


def composable_pairs(schema_s, schema_t, schema_s2, rename_t,
                     mapping_f, mapping_f0, mapping_r):
    g = g_rename(schema_t, rename_t)
    # S2 -> T: collapse the renamed source the same way mapping_f does
    m1, m2 = schema_s2.entity_named("M1"), schema_s2.entity_named("M2")
    x = Var("x", N)
    collapse = Mapping("C", schema_s2, schema_t, {m1: N, m2: N}, {
        schema_s2.symbol_named("g"): x,
        schema_s2.symbol_named("who"): ap(schema_t.symbol_named("name"), x),
        schema_s2.symbol_named("pay"): ap(schema_t.symbol_named("salary"), x),
        schema_s2.symbol_named("years"): ap(schema_t.symbol_named("age"), x),
    })
    assert validate_mapping(collapse) == []
    return [(mapping_f, g), (mapping_f0, g), (mapping_r, collapse)]


def test_functoriality_isomorphisms(schema_s, schema_t, schema_s2, rename_t,
                                    mapping_f, mapping_f0, mapping_r,
                                    inst_i, inst_i0, model_i, model_i0):
    sources = {"S": (inst_i, model_i), "S0": (inst_i0, model_i0),
               "S2": None}
    for f_map, g_map in composable_pairs(schema_s, schema_t, schema_s2, rename_t,
                                         mapping_f, mapping_f0, mapping_r):
        gf = compose_mappings(f_map, g_map)
        inst, im = (inst_i, model_i) if f_map.source.name == "S" else (inst_i0, model_i0)
        # sigma composes covariantly
        one = sigma(gf, inst)
        two = sigma(g_map, sigma(f_map, inst).presentation)
        assert instances_isomorphic(one.model, two.model)
        # pi composes covariantly
        pone = pi(gf, im)
        ptwo = pi(g_map, pi(f_map, im).model)
        assert instances_isomorphic(pone.model, ptwo.model)
        # delta composes contravariantly
        k = build_term_model(empty_instance("K0", g_map.target))
        done = delta(gf, k)
        dtwo = delta(f_map, delta(g_map, k).model)
        assert instances_isomorphic(done.model, dtwo.model)
        # delta again on a populated target
        k2 = sigma(gf, inst).model
        done2 = delta(gf, k2)
        dtwo2 = delta(f_map, delta(g_map, k2).model)
        assert instances_isomorphic(done2.model, dtwo2.model)


def test_sigma_preserves_coproducts(mapping_f, schema_s, inst_i):
    other = employees_instance(schema_s, "I2")
    both = coproduct(inst_i, other)
    lhs = sigma(mapping_f, both).model
    rhs_pres = coproduct(sigma(mapping_f, inst_i).presentation,
                         sigma(mapping_f, other).presentation)
    assert instances_isomorphic(lhs, build_term_model(rhs_pres))


def test_coproduct_with_empty_is_identity(inst_i, model_i, schema_s):
    both = coproduct(inst_i, empty_instance("E", schema_s))
    assert instances_isomorphic(build_term_model(both), model_i)
    doubled = build_term_model(coproduct(inst_i, inst_i))
    assert len(doubled.carrier(N1)) == 6


# ---------------------------------------------------------------------------
# Isomorphism testing and inversion


def test_instances_isomorphic_rejects_different_sizes(model_i, schema_s):
    small = build_term_model(empty_instance("E", schema_s))
    assert instances_isomorphic(model_i, small) is None


def test_instances_isomorphic_respects_literals(schema_s):
    from catq import ground_eq, string_literal
    def one(name, who):
        g = generator("a", N1)
        return build_term_model(InstancePresentation(
            name, schema_s, [g],
            [ground_eq(ap(schema_s.symbol_named("name"), g), string_literal(who))]))
    assert instances_isomorphic(one("A", "Alice"), one("B", "Alice")) is not None
    assert instances_isomorphic(one("A", "Alice"), one("B", "Bob")) is None


def test_invert_renaming_mapping(mapping_r, schema_s, schema_s2):
    inv = invert_mapping(mapping_r)
    assert inv is not None
    assert mappings_equal(compose_mappings(mapping_r, inv), identity_mapping(schema_s))
    assert mappings_equal(compose_mappings(inv, mapping_r), identity_mapping(schema_s2))


def test_collapse_mapping_has_no_inverse(mapping_f):
    assert invert_mapping(mapping_f, InversionBounds(depth=3)) is None


def test_invert_tries_only_the_inverse_entity_map(mapping_r, schema_s, monkeypatch):
    # the entity map is forced, so R's inverse is the first candidate and a
    # cap of two candidates is not reached
    monkeypatch.setattr(migrate, "MAX_CANDIDATES", 2)
    inv = invert_mapping(mapping_r, InversionBounds(depth=3))
    assert inv is not None
    assert mappings_equal(compose_mappings(mapping_r, inv), identity_mapping(schema_s))


def test_non_bijective_mapping_has_no_inverse_without_search(mapping_f, monkeypatch):
    # F sends N1 and N2 to N; at depth 1 the old search over all entity
    # maps was truncated and could not conclude
    monkeypatch.setattr(migrate, "enumerate_paths", None)
    assert invert_mapping(mapping_f, InversionBounds(depth=1)) is None


def lossy_mapping(schema_s):
    """S -> S, the identity on entities, but salary goes to age(f(x)): no inverse exists."""
    ident = identity_mapping(schema_s)
    f, salary, age = (schema_s.symbol_named(n) for n in ("f", "salary", "age"))
    return Mapping("L", schema_s, schema_s, ident.entity_map,
                   {**ident.symbol_map, salary: ap(age, ap(f, Var("x", N1)))})


def test_invert_raises_when_truncated(schema_s, monkeypatch):
    lossy = lossy_mapping(schema_s)
    assert validate_mapping(lossy) == []
    assert invert_mapping(lossy) is None
    monkeypatch.setattr(migrate, "MAX_CANDIDATES", 1)
    with pytest.raises(ResourceLimit):
        invert_mapping(lossy, InversionBounds(depth=3))


def test_sigma_counit_and_transpose_verify_their_morphism_once(monkeypatch, mapping_f,
                                                              model_i, model_j):
    # one check on the source's equations per built morphism; the definitional
    # check (`violations`) runs only to name the fault of a failed one
    sm = sigma(mapping_f, model_i.instance).model
    unit = unit_sigma(mapping_f, model_i)
    for run in (lambda: counit_sigma(mapping_f, model_j),
                lambda: transpose_sigma_up(mapping_f, unit, sm),
                lambda: unit_pi(mapping_f, model_j),
                lambda: counit_pi(mapping_f, model_i)):
        faults = []
        checks = count_calls(monkeypatch, TermModel, "satisfied_by", lambda: faults.append(
            count_calls(monkeypatch, InstanceMorphism, "violations", run)))
        assert (checks, faults) == (1, [0])
