"""Schema mappings, composition, equality, and instance morphisms."""

from collections import Counter
from dataclasses import replace

import pytest

from catq import (
    App,
    Equation,
    INT,
    InstancePresentation,
    Mapping,
    Schema,
    SchemaMismatch,
    SortMismatch,
    Var,
    build_term_model,
    builtin_typeside,
    compose_mappings,
    enumerate_morphisms,
    generator,
    ground_eq,
    identity_mapping,
    identity_morphism,
    int_literal,
    mappings_equal,
    morphism_from_genmap,
    validate_mapping,
)
from catq.errors import NoMorphismExists
from catq.mappings import apply_mapping_term, open_terms_equal, render_open_term

from conftest import N, N1, N2, ap, attr, employees_instance, fkey


def test_valid_mapping_passes(mapping_f, mapping_r, mapping_f0):
    assert validate_mapping(mapping_f) == []
    assert validate_mapping(mapping_r) == []
    assert validate_mapping(mapping_f0) == []


def test_missing_and_ill_sorted_images(schema_s, schema_t):
    bad = Mapping("bad", schema_s, schema_t, {N1: N, N2: N}, {})
    assert {"MissingImage"} == {i.code for i in validate_mapping(bad)}
    x = Var("x", N)
    wrong = Mapping("wrong", schema_s, schema_t, {N1: N, N2: N}, {
        schema_s.symbol_named("f"): x,
        schema_s.symbol_named("name"): ap(schema_t.symbol_named("age"), x),  # Int, not String
        schema_s.symbol_named("salary"): ap(schema_t.symbol_named("salary"), x),
        schema_s.symbol_named("age"): ap(schema_t.symbol_named("age"), x),
    })
    assert "SortMismatch" in {i.code for i in validate_mapping(wrong)}


def test_constraint_preservation_is_checked(schema_s, schema_t):
    # source demands age(f(v)) = 30 for every v; the target proves no such law
    x_src = Var("v", N1)
    f, age = schema_s.symbol_named("f"), schema_s.symbol_named("age")
    constrained = Schema("Sc", schema_s.typeside, list(schema_s.entities),
                         list(schema_s.attributes), list(schema_s.foreign_keys),
                         [Equation((x_src,), App(age, (App(f, (x_src,)),)), int_literal(30))])
    x = Var("x", N)
    cand = Mapping("c", constrained, schema_t, {N1: N, N2: N}, {
        f: x,
        constrained.symbol_named("name"): ap(schema_t.symbol_named("name"), x),
        constrained.symbol_named("salary"): ap(schema_t.symbol_named("salary"), x),
        age: ap(schema_t.symbol_named("age"), x),
    })
    assert "EqualityNotPreserved" in {i.code for i in validate_mapping(cand)}


def test_open_terms_equal_uses_schema_constraints():
    ts = builtin_typeside()
    from catq.terms import ENTITY, Sort
    e = Sort("E", ENTITY)
    nxt = fkey("nxt", e, e)
    x = Var("x", e)
    involutive = Schema("C2", ts, [e], [], [nxt],
                        [Equation((x,), App(nxt, (App(nxt, (x,)),)), x)])
    assert open_terms_equal(involutive, e, App(nxt, (App(nxt, (x,)),)), x)
    assert not open_terms_equal(involutive, e, App(nxt, (x,)), x)


def test_open_terms_equal_without_constraints_builds_no_probe(monkeypatch):
    # with no constraints and no typeside equations only syntactic equality
    # is provable: the terms are compared up to their variable's name, and
    # path enumeration, validation and mapping equality read no probe either
    import catq.mappings
    from catq import PathCaps, enumerate_paths
    from catq.terms import ENTITY, Sort
    e = Sort("E", ENTITY)
    nxt = fkey("nxt", e, e)
    free = Schema("L", builtin_typeside(), [e], [attr("a", e, INT)], [nxt])
    x, p = Var("x", e), Var("p", e)
    monkeypatch.setattr(catq.mappings, "build_term_model", None)
    monkeypatch.setattr(catq.mappings, "probe_model", None)
    assert open_terms_equal(free, e, App(nxt, (x,)), App(nxt, (p,)))
    assert not open_terms_equal(free, e, App(nxt, (x,)), App(nxt, (App(nxt, (p,)),)))
    with pytest.raises(SortMismatch):
        open_terms_equal(free, e, App(nxt, (x,)), int_literal(1))
    with pytest.raises(SortMismatch, match="binding for x has sort E, expected F"):
        open_terms_equal(free, e, Var("x", Sort("F", ENTITY)), Var("y", Sort("F", ENTITY)))
    assert len(enumerate_paths(free, e, e, PathCaps(max_depth=3)).terms) == 4
    assert len(enumerate_paths(free, e, INT, PathCaps(max_depth=3)).terms) == 4
    ident = identity_mapping(free)
    twice = Mapping("twice", free, free, ident.entity_map,
                    {nxt: App(nxt, (App(nxt, (x,)),)), free.symbol_named("a"): ap(free.symbol_named("a"), x)})
    assert validate_mapping(ident) == [] and validate_mapping(twice) == []
    assert mappings_equal(ident, identity_mapping(free, "other"))
    assert not mappings_equal(ident, twice)


def test_probe_models_are_shared_by_equal_schemas(monkeypatch):
    # every elaboration makes a new but equal schema; they share one probe per entity
    import catq.mappings
    from catq import elaborate, parse
    from test_cli import IDEMPOTENT
    builds = Counter()
    real = catq.mappings.build_term_model

    def counting(inst, **kwargs):
        builds[inst.name] += 1
        return real(inst, **kwargs)

    catq.mappings.probe_model.cache_clear()
    monkeypatch.setattr(catq.mappings, "build_term_model", counting)
    for _ in range(20):
        env, diags = elaborate(parse(IDEMPOTENT)[0])
        assert not diags
    assert builds == {"_probe_S_A": 1, "_probe_S_B": 1}
    assert catq.mappings.probe_model.cache_info().currsize == 2


def test_compose_and_identity(mapping_f, mapping_r, schema_s):
    ident = identity_mapping(schema_s)
    assert mappings_equal(compose_mappings(ident, mapping_f), mapping_f)
    with pytest.raises(SchemaMismatch):
        compose_mappings(mapping_f, mapping_r)  # T does not match S


def test_composition_translates_images(mapping_r, mapping_f, schema_s, schema_s2, schema_t):
    # S2 -> S undoes the renaming; composing back yields the identity on S
    y1, y2 = Var("y", N1), Var("y", N2)
    back = Mapping("back", schema_s2, schema_s,
                   {schema_s2.entity_named("M1"): N1, schema_s2.entity_named("M2"): N2}, {
                       schema_s2.symbol_named("g"): ap(schema_s.symbol_named("f"), y1),
                       schema_s2.symbol_named("who"): ap(schema_s.symbol_named("name"), y1),
                       schema_s2.symbol_named("pay"): ap(schema_s.symbol_named("salary"), y1),
                       schema_s2.symbol_named("years"): ap(schema_s.symbol_named("age"), y2),
                   })
    assert validate_mapping(back) == []
    assert mappings_equal(compose_mappings(mapping_r, back), identity_mapping(schema_s))


def test_mappings_equal_modulo_provability(mapping_f, schema_s, schema_t):
    # a syntactically different but provably equal image is still equal
    same = Mapping("F2", mapping_f.source, mapping_f.target,
                   mapping_f.entity_map, mapping_f.symbol_map)
    assert mappings_equal(mapping_f, same)
    x = Var("z", N)
    renamed = replace(same, symbol_map={**same.symbol_map,
                                        schema_s.symbol_named("f"): x})  # alpha-renamed variable
    assert mappings_equal(mapping_f, renamed)


def test_apply_mapping_term(mapping_f, schema_s, schema_t):
    v = Var("v", N1)
    t = App(schema_s.symbol_named("age"), (App(schema_s.symbol_named("f"), (v,)),))
    out = apply_mapping_term(mapping_f, t)
    assert out == App(schema_t.symbol_named("age"), (Var("v", N),))
    assert render_open_term(out) == "lambda v:N. age(v)"


# ---------------------------------------------------------------------------
# Instance morphisms


def test_identity_morphism_and_violations(model_i):
    h = identity_morphism(model_i)
    assert h.violations() == []
    assert h.is_bijective() and h.is_identity()


def test_morphism_from_genmap_roundtrip(schema_s, model_i):
    other = build_term_model(employees_instance(schema_s, "I2"))
    genmap = {g2: model_i.class_of(g1)
              for g1, g2 in zip(model_i.instance.generators, other.instance.generators)}
    h = morphism_from_genmap(other, model_i, genmap)
    assert h.violations() == [] and h.is_bijective()


def test_morphism_must_fix_literals(schema_s):
    # sending the Alice row onto the Bob row would move literals: no morphism
    from catq import string_literal
    a = InstancePresentation("A", schema_s, [generator("a", N1)], [
        ground_eq(ap(schema_s.symbol_named("name"), generator("a", N1)),
                  string_literal("Alice"))])
    b = InstancePresentation("B", schema_s, [generator("b", N1)], [
        ground_eq(ap(schema_s.symbol_named("name"), generator("b", N1)),
                  string_literal("Bob"))])
    ma, mb = build_term_model(a), build_term_model(b)
    assert enumerate_morphisms(ma, mb) == []
    with pytest.raises(NoMorphismExists):
        morphism_from_genmap(ma, mb, {a.generators[0]: mb.class_of(b.generators[0])})


def test_morphism_from_genmap_rejects_assignment_breaking_equations(schema_s):
    # a = b in A, so sending a and b to distinct free rows of B is no morphism
    a, b = generator("a", N1), generator("b", N1)
    ma = build_term_model(InstancePresentation("A", schema_s, [a, b], [ground_eq(App(a), App(b))]))
    x, y = generator("x", N1), generator("y", N1)
    mb = build_term_model(InstancePresentation("B", schema_s, [x, y], []))
    with pytest.raises(NoMorphismExists):
        morphism_from_genmap(ma, mb, {a: mb.class_of(x), b: mb.class_of(y)})
    h = morphism_from_genmap(ma, mb, {a: mb.class_of(y), b: mb.class_of(y)})
    assert h.apply(ma.class_of(a)) == h.apply(ma.class_of(b)) == mb.class_of(y)


def test_enumerate_morphisms_counts(schema_s):
    # two free rows can each land on either of two free rows: 4 morphisms
    free2 = InstancePresentation("free2", schema_s,
                                 [generator("a", N1), generator("b", N1)], [])
    m = build_term_model(free2)
    homs = enumerate_morphisms(m, m)
    assert len(homs) == 4
    assert len(set(homs)) == 4
    assert sum(1 for h in homs if h.is_bijective()) == 2
