"""Mapping images and paths as chains, checked against the tree-level reference.

Random composable mappings A -F-> B -G-> C are built over small schemas
whose foreign keys may form cycles: each image is a random walk of foreign
keys in the target, so every mapping is valid by construction.  The
chain code must agree with `reference_images`, which substitutes into
folded image terms, and delta must respect composition.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from catq import (
    INT,
    STRING,
    InstancePresentation,
    Schema,
    builtin_typeside,
    compose_mappings,
    delta,
    generator,
    ground_eq,
    instances_isomorphic,
    literal,
    validate_mapping,
)
from catq import mappings, matcher, migrate
from catq.elaborate import _Elaborator
from catq.mappings import Mapping, identity_mapping, mapping_chain
from catq.model import build_term_model
from catq.terms import ENTITY, App, Sort, Var, fold_chain, term_chain

import reference_images
from conftest import attr, fkey
from test_written_models import bench_workloads

TS = builtin_typeside()


def walk(rng, schema, e, steps):
    """A random path of at most `steps` foreign keys from e: its symbols and its end."""
    syms = []
    for _ in range(steps):
        out = schema.symbols_on(e)
        fks = [f for f in out if f.out_sort.is_entity]
        if not fks:
            break
        f = rng.choice(fks)
        syms.append(f)
        e = f.out_sort
    return syms, e


def random_schema(rng, name):
    """1-3 entities, foreign keys between any two of them (self-loops and cycles too), 0-3 attributes."""
    ents = [Sort(f"{name}{i}", ENTITY) for i in range(rng.randint(1, 3))]
    fks = [fkey(f"{name.lower()}f{k}", rng.choice(ents), rng.choice(ents)) for k in range(rng.randint(0, 4))]
    atts = [attr(f"{name.lower()}a{k}", rng.choice(ents), rng.choice([INT, STRING]))
            for k in range(rng.randint(0, 3))]
    return Schema(name, TS, ents, atts, fks)


def random_mapping(rng, tgt, name):
    """A valid mapping into `tgt` from a new schema, each symbol's image a random walk in `tgt`."""
    ents = [Sort(f"{name}{i}", ENTITY) for i in range(rng.randint(1, 3))]
    ent = {e: rng.choice(tgt.entities) for e in ents}
    fks, atts, images = [], [], {}
    for k in range(rng.randint(0, 5)):
        e = rng.choice(ents)
        syms, end = walk(rng, tgt, ent[e], rng.randint(0, 3))
        if rng.random() < 0.5:
            ends = [e2 for e2 in ents if ent[e2] == end]
            if ends:
                f = fkey(f"{name.lower()}f{k}", e, rng.choice(ends))
                fks.append(f)
                images[f] = (Var(rng.choice("xyp"), ent[e]), *syms)
        else:
            there = [a for a in tgt.symbols_on(end) if not a.out_sort.is_entity]
            if there:
                a = rng.choice(there)
                f = attr(f"{name.lower()}a{k}", e, a.out_sort)
                atts.append(f)
                images[f] = (Var(rng.choice("xyp"), ent[e]), *syms, a)
    src = Schema(name, TS, ents, atts, fks)
    return Mapping(f"M{name}", src, tgt, ent, images)


def random_term(rng, schema):
    """A term over `schema`: a walk from a variable or a generator `g`, maybe then an attribute, or a literal."""
    e = rng.choice(schema.entities)
    leaf = Var("v", e) if rng.random() < 0.5 else generator("g", e)
    syms, end = walk(rng, schema, e, rng.randint(0, 4))
    there = [a for a in schema.symbols_on(end) if not a.out_sort.is_entity]
    if there and rng.random() < 0.5:
        syms.append(rng.choice(there))
    if rng.random() < 0.1:
        leaf, syms = literal(rng.choice(["0", "1"]), INT).sym, []
    return fold_chain((leaf, *syms))


def table_instance(rng, schema):
    """A finite instance: 1-2 rows per entity, each foreign key set on every row, each attribute on some."""
    gens = {e: [generator(f"{e.name}_{i}", e) for i in range(rng.randint(1, 2))] for e in schema.entities}
    eqs = []
    for e, rows in gens.items():
        for g in rows:
            for f in schema.symbols_on(e):
                if f.out_sort.is_entity:
                    eqs.append(ground_eq(App(f, (App(g),)), App(rng.choice(gens[f.out_sort]))))
                elif rng.random() < 0.7:
                    eqs.append(ground_eq(App(f, (App(g),)), literal(rng.choice(["0", "1"]), f.out_sort)))
    return InstancePresentation("J", schema, [g for rows in gens.values() for g in rows], eqs)


def composable(rng):
    c = random_schema(rng, "C")
    g_map = random_mapping(rng, c, "B")
    f_map = random_mapping(rng, g_map.source, "A")
    assert validate_mapping(f_map) == [] and validate_mapping(g_map) == []
    return f_map, g_map


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.randoms(use_true_random=False))
def test_composite_images_match_the_tree_reference(rng):
    f_map, g_map = composable(rng)
    gf = compose_mappings(f_map, g_map)
    assert {f: fold_chain(chain) for f, chain in gf.symbol_map.items()} == \
        reference_images.composite_images(f_map, g_map)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.randoms(use_true_random=False))
def test_mapping_chain_matches_the_tree_reference(rng):
    f_map, _ = composable(rng)
    genmap = {generator("g", e): generator("g", f_map.entity_image(e)) for e in f_map.source.entities}
    for _ in range(5):
        t = random_term(rng, f_map.source)
        assert fold_chain(mapping_chain(f_map, term_chain(t), genmap)) == \
            reference_images.extend(f_map, t, genmap)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.randoms(use_true_random=False))
def test_delta_of_a_composite_is_the_composite_of_deltas(rng):
    # delta_{G.F}(J) is isomorphic to delta_F(delta_G(J))
    f_map, g_map = composable(rng)
    j = build_term_model(table_instance(rng, g_map.target))
    once = delta(compose_mappings(f_map, g_map), j).model
    twice = delta(f_map, delta(g_map, j).model).model
    assert instances_isomorphic(once, twice) is not None


# the functions that read or build images and paths, by the owners their callers look them up in
CHAIN_ONLY = [(migrate, "enumerate_paths"), (matcher, "enumerate_paths"), (mappings, "compose_mappings"),
              (migrate, "compose_mappings"), (migrate, "invert_mapping"), (matcher, "match_mapping"),
              (matcher, "match_span"), (migrate, "sigma"), (migrate, "delta"), (migrate, "pi"),
              (_Elaborator, "do_mapping")]


def test_images_and_paths_construct_no_terms(monkeypatch, tmp_path):
    # over the laws corpus (seed 1): its elaboration, a cycle of its ops, a span,
    # and an inversion that composes, as App constructions while each function runs
    built, inside = Counter(), []
    real_init = App.__init__

    def counting_init(self, *args):
        if inside:
            built[inside[-1]] += 1
        real_init(self, *args)

    def watched(name, real):
        def run(*args, **kwargs):
            inside.append(name)
            try:
                return real(*args, **kwargs)
            finally:
                inside.pop()
        return run

    monkeypatch.setattr(App, "__init__", counting_init)
    for owner, name in CHAIN_ONLY:
        monkeypatch.setattr(owner, name, watched(name, getattr(owner, name)))
    state = bench_workloads.prepare_laws(1, tmp_path)
    for k in range(state.cycle):
        bench_workloads.run_laws(state, k)
    s, t = state.env.schemas["S"], state.env.schemas["T"]
    matcher.match_span(s, t)
    assert migrate.invert_mapping(identity_mapping(s), migrate.InversionBounds(depth=2)) is not None
    assert built == Counter()
