"""Acceptance gate: one test per criterion, one verdict line each under -v.

Criteria covered:
1. The worked join example round-trips through sigma, delta and pi.
2. The foreign-key-free variant yields the project/union-with-nulls/product trio.
3. Both adjunctions hold on a small corpus: hom-counts, transpose bijections,
   triangle identities.
4. The migration functors compose along composable mapping pairs.
5. Sigma preserves coproducts.
6. The schema matcher reproduces the worked mapping and it validates.
7. Mapping inversion finds exact inverses and reports honest failure.
8. The saturation engine agrees with an independent deductive-closure oracle.
9. Literal collisions are detected and surface as CLI exit code 3.
"""

from collections import Counter

from catq import (
    Collision,
    InversionBounds,
    Var,
    build_term_model,
    check_consistency,
    compose_mappings,
    coproduct,
    delta,
    elaborate,
    empty_instance,
    enumerate_morphisms,
    identity_mapping,
    instances_isomorphic,
    invert_mapping,
    mappings_equal,
    match_mapping,
    parse,
    pi,
    sigma,
    transpose_pi_down,
    transpose_pi_up,
    transpose_sigma_down,
    transpose_sigma_up,
    unit_pi,
    unit_sigma,
    counit_pi,
    counit_sigma,
    validate_mapping,
)

from conftest import N, N1, N2, employees_instance
from oracle import deductive_closure, oracle_equal, term_universe
from test_cli import COLLIDING
from test_dsl import EXAMPLE
from test_migrate import adjunction_corpus, composable_pairs, row_labels
from test_model import random_instance


def test_criterion_1_join_round_trip():
    prog, diags = parse(EXAMPLE)
    assert diags == []
    env, diags = elaborate(prog)
    assert diags == []
    f_map, inst_i = env.mappings["F"], env.instances["I"]
    model_i = env.models["I"]
    joined = sigma(f_map, inst_i)
    n = env.schemas["T"].entity_named("N")
    assert row_labels(joined.model, n, ["name", "salary", "age"]) == [
        ("Alice", "100", "20"), ("Bob", "250", "20"), ("Sue", "300", "30")]
    back = delta(f_map, joined.model)
    assert instances_isomorphic(back.model, model_i) is not None
    limit = pi(f_map, model_i)
    assert instances_isomorphic(limit.model, joined.model) is not None


def test_criterion_2_functor_trio_without_foreign_key(
        mapping_f0, inst_i0, model_i0, model_j, schema_s0):
    proj = delta(mapping_f0, model_j)
    assert row_labels(proj.model, N1, ["name", "salary"]) == [
        ("Alice", "100"), ("Bob", "250"), ("Sue", "300")]
    assert row_labels(proj.model, N2, ["age"]) == [("20",), ("20",), ("30",)]
    merged = sigma(mapping_f0, inst_i0).model
    assert len(merged.carrier(N)) == 6
    for col in ("name", "salary", "age"):
        sym = merged.schema.symbol_named(col)
        cells = [merged.label(merged.op(sym, c)) for c in merged.carrier(N)]
        assert sum(1 for c in cells if c.startswith(f"{col}(")) == 3
    product = pi(mapping_f0, model_i0).model
    rows = row_labels(product, N, ["name", "age"])
    assert len(rows) == 9
    assert Counter(r[0] for r in rows) == Counter({"Alice": 3, "Bob": 3, "Sue": 3})
    assert Counter(r[1] for r in rows) == Counter({"20": 6, "30": 3})


def test_criterion_3_adjunctions_on_corpus(
        schema_s, schema_t, schema_s2, mapping_f, mapping_f0, mapping_r, schema_s0):
    corpus = adjunction_corpus(schema_s, schema_t, schema_s2,
                               mapping_f, mapping_f0, mapping_r, schema_s0)
    assert len(corpus) >= 5
    for f_map, inst, jinst in corpus:
        im, jm = build_term_model(inst), build_term_model(jinst)
        for s in list(im.schema.entities) + list(jm.schema.entities):
            assert len(im.carrier(s) if s in im.schema.entities else jm.carrier(s)) <= 6
        sres, dres, pires = sigma(f_map, inst), delta(f_map, jm), pi(f_map, im)
        up = enumerate_morphisms(sres.model, jm)
        down = enumerate_morphisms(im, dres.model)
        assert len(up) == len(down)
        assert {transpose_sigma_down(f_map, im, h) for h in up} == set(down)
        down2 = enumerate_morphisms(dres.model, im)
        up2 = enumerate_morphisms(jm, pires.model)
        assert len(down2) == len(up2)
        assert {transpose_pi_down(f_map, jm, h) for h in down2} == set(up2)
        # triangle identities, both adjunctions
        assert unit_sigma(f_map, im).violations() == []
        assert counit_sigma(f_map, jm).violations() == []
        assert unit_pi(f_map, jm).violations() == []
        assert counit_pi(f_map, im).violations() == []
        assert transpose_sigma_up(f_map, unit_sigma(f_map, im), sres.model).is_identity()
        assert transpose_sigma_down(f_map, dres.model, counit_sigma(f_map, jm)).is_identity()
        assert transpose_pi_up(f_map, unit_pi(f_map, jm), dres.model).is_identity()
        assert transpose_pi_down(f_map, pires.model, counit_pi(f_map, im)).is_identity()


def test_criterion_4_functoriality(
        schema_s, schema_t, schema_s2, mapping_f, mapping_f0, mapping_r,
        inst_i, inst_i0, model_i, model_i0, ty):
    from test_migrate import g_rename
    from catq import Schema, Sort, STRING, INT
    from catq.terms import ENTITY
    from conftest import attr
    p = Sort("P", ENTITY)
    rename_t = Schema("T2", ty, [p],
                      [attr("label", p, STRING), attr("pay2", p, INT),
                       attr("years2", p, INT)], [])
    pairs = composable_pairs(schema_s, schema_t, schema_s2, rename_t,
                             mapping_f, mapping_f0, mapping_r)
    assert len(pairs) >= 3
    for f_map, g_map in pairs:
        gf = compose_mappings(f_map, g_map)
        inst, im = (inst_i, model_i) if f_map.source.name == "S" else (inst_i0, model_i0)
        assert instances_isomorphic(
            sigma(gf, inst).model,
            sigma(g_map, sigma(f_map, inst).presentation).model)
        assert instances_isomorphic(
            pi(gf, im).model, pi(g_map, pi(f_map, im).model).model)
        k = sigma(gf, inst).model
        assert instances_isomorphic(
            delta(gf, k).model, delta(f_map, delta(g_map, k).model).model)


def test_criterion_5_sigma_preserves_coproducts(mapping_f, schema_s, inst_i):
    other = employees_instance(schema_s, "I2")
    lhs = sigma(mapping_f, coproduct(inst_i, other)).model
    rhs = build_term_model(coproduct(sigma(mapping_f, inst_i).presentation,
                                     sigma(mapping_f, other).presentation))
    assert instances_isomorphic(lhs, rhs) is not None


def test_criterion_6_matcher_reproduces_the_worked_mapping(
        schema_s, schema_t, mapping_f):
    cand = match_mapping(schema_s, schema_t)
    assert cand.validated and validate_mapping(cand.mapping) == []
    assert cand.mapping.entity_map == {N1: N, N2: N}
    f = schema_s.symbol_named("f")
    assert cand.mapping.symbol_map[f] == (Var("p", N),)  # identity path for f
    for name in ("name", "salary", "age"):
        img = cand.mapping.symbol_map[schema_s.symbol_named(name)]
        assert img == (Var("x", N), schema_t.symbol_named(name))  # same-named attribute
    assert mappings_equal(cand.mapping, mapping_f)


def test_criterion_7_inversion(mapping_r, mapping_f, schema_s, schema_s2):
    inv = invert_mapping(mapping_r)
    assert inv is not None
    assert mappings_equal(compose_mappings(mapping_r, inv),
                          identity_mapping(schema_s))
    assert mappings_equal(compose_mappings(inv, mapping_r),
                          identity_mapping(schema_s2))
    assert invert_mapping(mapping_f, InversionBounds(depth=3)) is None


def test_criterion_8_oracle_equivalence():
    checked = 0
    for seed in range(20):
        inst = random_instance(seed)
        universe = sorted(term_universe(inst), key=repr)
        partition = deductive_closure(inst)
        m = build_term_model(inst)
        for i, t1 in enumerate(universe):
            for t2 in universe[i:]:
                if t1.sort == t2.sort:
                    assert m.decide_equal(t1, t2) == oracle_equal(partition, t1, t2)
        checked += 1
    assert checked == 20


def test_criterion_9_collision_detection_and_exit_code(tmp_path, capsys):
    prog, diags = parse(COLLIDING)
    assert diags == []
    env, diags = elaborate(prog)
    assert diags == []
    collision = check_consistency(env.models["B"])
    assert isinstance(collision, Collision)
    assert {collision.lit1, collision.lit2} == {"20", "30"}
    from catq.cli import main
    path = tmp_path / "colliding.catq"
    path.write_text(COLLIDING, encoding="utf-8")
    assert main(["check", str(path)]) == 3
