"""Differential test of the morphism search against brute force.

The reference tries every assignment of a's generators over b's carriers,
extends it term by term with `TermModel.eval`, and keeps it when it is a
verified morphism that sends each generator where it was assigned.  It
visits assignments in `itertools.product` order, which is the order
`enumerate_morphisms` promises, so the two lists must agree exactly.
"""

import itertools
import math
import random

import pytest

from catq import (
    App,
    ENTITY,
    INT,
    TYPESIDE,
    FunctionSymbol,
    InstanceMorphism,
    InstancePresentation,
    NoMorphismExists,
    Schema,
    Sort,
    TermModel,
    build_term_model,
    builtin_typeside,
    delta,
    elaborate,
    enumerate_morphisms,
    generator,
    ground_eq,
    instances_isomorphic,
    int_literal,
    morphism_from_genmap,
    parse,
    pi,
    replace,
    sigma,
    string_literal,
)

from conftest import N1, N2, ap, attr
from test_migrate import adjunction_corpus
from test_model import random_instance
from test_written_models import bench_gen

# the reference's work is the product of the generators' carrier sizes
MAX_ASSIGNMENTS = 1000


def assignments(a, b):
    """Every assignment of a's generators over b's carriers, in `itertools.product` order."""
    gens = a.instance.generators
    for images in itertools.product(*(b.carrier(g.out_sort) for g in gens)):
        yield dict(zip(gens, images))


def reference_morphism(a, b, genmap):
    """The morphism extending genmap, term by term, when it is a verified one; else None."""
    cmap = {c: b.eval(a.canonical[c], genmap) for c in a.all_classes()}
    if None in cmap.values():
        return None
    h = InstanceMorphism(a, b, cmap)
    if not h.violations() and all(h.apply(a.class_of(g)) == d for g, d in genmap.items()):
        return h
    return None


def reference_morphisms(a, b) -> list[InstanceMorphism]:
    return [h for genmap in assignments(a, b) if (h := reference_morphism(a, b, genmap)) is not None]


def first_fault(a, b, genmap):
    """The first fault the definitional check finds in genmap's extension, or None.

    A missing literal, then a generator sent elsewhere than assigned, then
    the first of `InstanceMorphism.violations`.
    """
    cmap = a.image(b, genmap)
    if cmap is None:
        return f"a literal of {a.name} does not denote in the target"
    h = InstanceMorphism(a, b, cmap)
    bad = [f"the assignment of {g.name} breaks an equation of {a.name}"
           for g, d in genmap.items() if h.apply(a.class_of(g)) != d] or h.violations()
    return bad[0] if bad else None


def quotient(inst, m, seed):
    """inst with one more equation, between two classes of one entity sort of m."""
    rng = random.Random(seed)
    sorts = [s for s in m.schema.entities if len(m.carrier(s)) > 1]
    if not sorts:
        return None
    c1, c2 = rng.sample(m.carrier(rng.choice(sorts)), 2)
    eq = ground_eq(m.canonical[c1], m.canonical[c2])
    return build_term_model(replace(inst, name=f"{inst.name}q", equations=inst.equations + (eq,)))


def small(a, b) -> bool:
    return math.prod(len(b.carrier(g.out_sort)) for g in a.instance.generators) <= MAX_ASSIGNMENTS


def random_pairs():
    for seed in range(24):
        inst = random_instance(seed)
        m = build_term_model(inst)
        q = quotient(inst, m, seed)
        for a, b in ((m, m), (m, q), (q, m)):
            if a is not None and b is not None and small(a, b):
                yield pytest.param(a, b, id=f"{seed}-{a.instance.name}-{b.instance.name}")


def assert_search_matches_brute_force(a, b):
    ref = reference_morphisms(a, b)
    found = enumerate_morphisms(a, b)
    assert [h.cmap for h in found] == [h.cmap for h in ref]
    iso = instances_isomorphic(a, b)
    assert (iso is not None) == any(h.is_bijective() for h in ref)
    if iso is not None:
        assert iso.is_bijective() and iso in ref


@pytest.mark.parametrize("a, b", random_pairs())
def test_search_matches_brute_force(a, b):
    assert_search_matches_brute_force(a, b)


def migration_pairs(corpus):
    """The four hom-set pairs of the adjunction laws for each (mapping, I, J) of a corpus.

    Their models carry labeled nulls.  I and J are presentations or, as
    the elaborator leaves them, models.
    """
    for f_map, i, j in corpus:
        im = i if isinstance(i, TermModel) else build_term_model(i)
        jm = j if isinstance(j, TermModel) else build_term_model(j)
        sm, dm, pm = sigma(f_map, i).model, delta(f_map, jm).model, pi(f_map, im).model
        yield from ((sm, jm), (im, dm), (dm, im), (jm, pm))


def test_search_matches_brute_force_on_migrations(
        schema_s, schema_t, schema_s2, mapping_f, mapping_f0, mapping_r, schema_s0):
    checked = 0
    for a, b in migration_pairs(adjunction_corpus(schema_s, schema_t, schema_s2,
                                                  mapping_f, mapping_f0, mapping_r, schema_s0)):
        if small(a, b):
            assert_search_matches_brute_force(a, b)
            checked += 1
    assert checked >= 20


def assert_check_agrees_with_the_definition(a, b) -> tuple[int, int]:
    """`morphism_from_genmap` on every assignment: (accepted, refused).

    It accepts exactly the assignments the reference accepts, with the
    same morphism, and refuses the others with the definitional check's
    first fault.
    """
    accepted = refused = 0
    for genmap in assignments(a, b):
        ref = reference_morphism(a, b, genmap)
        try:
            h = morphism_from_genmap(a, b, genmap)
        except NoMorphismExists as err:
            assert ref is None and str(err) == first_fault(a, b, genmap)
            refused += 1
        else:
            assert ref is not None and h.cmap == ref.cmap
            accepted += 1
    return accepted, refused


@pytest.mark.parametrize("a, b", random_pairs())
def test_check_agrees_with_the_definition(a, b):
    assert_check_agrees_with_the_definition(a, b)


def law_corpus(seed):
    """(mapping, I, J) for each case of a generated `laws` corpus, I and J as models."""
    text, cases = bench_gen.laws(seed, [("F", 3), ("F", 4), ("F0", 2)])
    env, diags = elaborate(parse(text)[0])
    assert diags == []
    return [(env.mappings[case.mapping], env.models[case.source], env.models[case.target])
            for case in cases]


def test_check_agrees_with_the_definition_on_migrations(
        schema_s, schema_t, schema_s2, mapping_f, mapping_f0, mapping_r, schema_s0):
    corpus = adjunction_corpus(schema_s, schema_t, schema_s2,
                               mapping_f, mapping_f0, mapping_r, schema_s0)
    corpus += [triple for seed in (1, 2, 3) for triple in law_corpus(seed)]
    counts = [assert_check_agrees_with_the_definition(a, b)
              for a, b in migration_pairs(corpus) if small(a, b)]
    assert len(counts) >= 50
    assert sum(n for n, _ in counts) >= 100 and sum(n for _, n in counts) >= 1000


def test_isomorphism_needs_an_injective_extension(schema_s):
    # the generators of A can go to distinct generators of B, and the
    # carriers have the same sizes, but B's f is not injective and A's is
    f = schema_s.symbol_named("f")
    g1, g2, h = generator("g1", N1), generator("g2", N1), generator("h", N2)
    ma = build_term_model(InstancePresentation("A", schema_s, [g1, g2, h], []))
    x1, x2 = generator("x1", N1), generator("x2", N1)
    mb = build_term_model(InstancePresentation("B", schema_s, [x1, x2, generator("y1", N2),
                                                               generator("y2", N2)],
                                               [ground_eq(ap(f, x1), ap(f, x2))]))
    assert all(len(ma.carrier(s)) == len(mb.carrier(s)) for s in ma.carriers)
    assert instances_isomorphic(ma, mb) is None
    assert_search_matches_brute_force(ma, mb)


def test_equations_without_generators_are_checked():
    # A proves zero = 0; B holds both but keeps them apart, so nothing maps
    zero = FunctionSymbol("zero", (), INT, TYPESIDE)
    e = Sort("E", ENTITY)
    sch = Schema("K", replace(builtin_typeside(), constants=[zero]), [e], [attr("n", e, INT)], [])
    g = generator("a", e)
    ma = build_term_model(InstancePresentation("A", sch, [g], [ground_eq(App(zero), int_literal(0))]))
    n_is_0 = ground_eq(ap(sch.symbol_named("n"), g), int_literal(0))
    mb = build_term_model(InstancePresentation("B", sch, [g], [n_is_0]))
    assert enumerate_morphisms(ma, mb) == []
    assert_search_matches_brute_force(ma, mb)


def test_literal_missing_from_target_leaves_no_morphism(schema_s):
    # delta and pi pin literals with equations `v = v`, which every target satisfies
    name, e = schema_s.symbol_named("name"), generator("e", N1)
    alice, zed = string_literal("Alice"), string_literal("Zed")
    ma = build_term_model(InstancePresentation("A", schema_s, [e], [ground_eq(ap(name, e), alice),
                                                                   ground_eq(zed, zed)]))
    mb = build_term_model(InstancePresentation("B", schema_s, [e], [ground_eq(ap(name, e), alice)]))
    assert enumerate_morphisms(ma, mb) == []
    assert_search_matches_brute_force(ma, mb)


def test_verifier_checks_every_literal_of_a_class(schema_s):
    # A proves "p" = "q" through name(e); B keeps them apart, so A's "q" has nowhere to go
    name, e = schema_s.symbol_named("name"), generator("e", N1)
    p, q = string_literal("p"), string_literal("q")
    ma = build_term_model(InstancePresentation("A", schema_s, [e], [ground_eq(ap(name, e), p),
                                                                   ground_eq(ap(name, e), q)]))
    mb = build_term_model(InstancePresentation("B", schema_s, [e], [ground_eq(ap(name, e), p),
                                                                   ground_eq(q, q)]))
    with pytest.raises(NoMorphismExists, match='does not fix literal q'):
        morphism_from_genmap(ma, mb, {e: mb.class_of(e)})
    assert enumerate_morphisms(ma, mb) == []
    assert_search_matches_brute_force(ma, mb)


def test_search_reads_chains_not_presentations_on_the_laws_corpus():
    text, cases = bench_gen.laws(1, [("F", 2), ("F", 4), ("F0", 3)])
    env, diags = elaborate(parse(text)[0])
    assert diags == []
    checked = 0
    for case in cases:
        f_map = env.mappings[case.mapping]
        im, jm = env.models[case.source], env.models[case.target]
        sm, dm, pm = sigma(f_map, im).model, delta(f_map, jm).model, pi(f_map, im).model
        pairs = ((sm, jm), (im, dm), (dm, im), (jm, pm))
        found = [enumerate_morphisms(a, b) for a, b in pairs]
        assert [len(homs) for homs in found] == [case.homs] * 4
        assert instances_isomorphic(dm, im) is not None
        assert all("instance" not in vars(m) for m in (im, jm, sm, dm, pm))
        # the reference reads the presentations
        for (a, b), homs in zip(pairs, found):
            if small(a, b):
                assert [h.cmap for h in homs] == \
                    [h.cmap for h in reference_morphisms(a, b)]
                checked += 1
    assert checked >= 10
