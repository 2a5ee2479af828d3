"""Data migration functors and the adjunction machinery around them.

delta projects a target model back along a mapping (model reduct),
sigma pushes an instance forward by translating its equations, and pi
builds the limit-style migration from families indexed by paths, each
a chain rooted at its variable, as a mapping image is.  The adjunctions
sigma -| delta -| pi are constructed explicitly as their hom-set
bijections (the transposes, or mates): each transpose assigns the
generators of its source and proves the assignment with
`morphism_from_genmap`, and each unit and counit is the mate of an
identity, which is what makes round-tripping checkable at desk scale.

No functor saturates a presentation of its output.  delta and pi compute
their output's operation tables, a row per class or family and each
symbol's value on it, and `model.write_model` freezes those tables into
the output model directly, running no saturation unless a typeside
equation or a schema constraint merges classes.  sigma translates each
input equation's chains through the chains of the mapping's symbol
images (`mapping_chain`) and saturates them.  Either way the model is
the one saturating the equivalent presentation gives, class ids
included.  That presentation is built the first time a result's
`presentation` (its model's `instance`) is read.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Optional

from . import model as _model
from .errors import InvariantViolation, NoMorphismExists, ResourceLimit, SchemaMismatch
from .mappings import (  # open_terms_equal stays a name of this module: bench/spans.py wraps it here
    InstanceMorphism,
    Mapping,
    compose_mappings,
    identity_mapping,
    identity_morphism,
    mapping_chain,
    mappings_equal,
    morphism_from_genmap,
    open_terms_equal,
    path_key,
    validate_mapping,
)
from .model import (  # build_term_model stays a name of this module: bench/spans.py wraps it here
    TermModel,
    build_term_model,
    model_read_as,
    saturate,
    write_model,
)
from .schema import InstancePresentation, Schema, generator
from .terms import Equation, FunctionSymbol, ReadOnly, Sort, Var, fold_chain, render_chain, term_chain

MAX_MORPHISMS = 100000  # morphisms one search finds before a ResourceLimit
MAX_CANDIDATES = 10 ** 6  # paths per symbol, and inverse mappings tried, before inversion gives up

# ---------------------------------------------------------------------------
# Path enumeration


class PathSet:
    """Paths from `source` to `target`, each the chain of a one-variable term rooted at `Var("p", source)`."""

    __slots__ = ("source", "target", "chains", "truncated")

    def __init__(self, source: Sort, target: Sort, chains: list[tuple], truncated: bool = False):
        self.source, self.target, self.chains, self.truncated = source, target, chains, truncated


def enumerate_paths(schema: Schema, frm: Sort, to: Sort, max_depth: int = 6, max_paths: int = 256) -> PathSet:
    """The chains of all one-variable terms from `frm` to `to`, one for each class of provably equal ones.

    Breadth-first over foreign keys, at most `max_depth` of them, optionally
    terminated by a single attribute when `to` is a type.  A path is kept
    when its `path_key` is new; the first path of a sort is keyed only when
    a second one arrives, so no probe is built unless two paths can meet.
    The truncated flag is set when the caps cut the search short: the depth,
    or more than `max_paths` entity paths kept or paths found.
    """
    if max_depth <= 0 or max_paths <= 0:
        raise ValueError("path caps must be strictly positive")
    key = path_key(schema, frm)
    seen: set = set()
    lone: dict[Sort, Optional[tuple]] = {frm: ()}  # sort -> its one path kept so far, None once keyed

    def new(chain: tuple, sort: Sort) -> bool:
        if sort not in lone:
            lone[sort] = chain
            return True
        if lone[sort] is not None:
            seen.add(key(lone[sort]))
            lone[sort] = None
        k = key(chain)
        fresh = k not in seen
        seen.add(k)
        return fresh

    reps: list[tuple[Sort, tuple]] = [(frm, ())]  # each kept entity path: its sort, its chain without variable
    frontier = reps[:]
    truncated = False
    depth = 0
    while frontier:
        if depth >= max_depth or len(reps) > max_paths:
            truncated = True
            break
        depth += 1
        fresh = []
        for sort, chain in frontier:
            for fk in schema.foreign_keys:
                if fk.arg_sorts == (sort,) and new(chain + (fk,), fk.out_sort):
                    fresh.append((fk.out_sort, chain + (fk,)))
        reps += fresh
        frontier = fresh

    p = Var("p", frm)
    if to.is_entity:
        chains = [(p, *chain) for sort, chain in reps if sort == to]
    else:
        chains = [(p, *chain, att) for sort, chain in reps for att in schema.attributes
                  if att.arg_sorts == (sort,) and att.out_sort == to and new(chain + (att,), to)]
    if len(chains) > max_paths:
        chains = chains[:max_paths]
        truncated = True
    return PathSet(frm, to, chains, truncated)


# ---------------------------------------------------------------------------
# Migration results


class MigrationResult:
    """What sigma, delta or pi computed.

    A repeated call with the same arguments may hand this same object to
    another caller, so it and its model are read-only.
    """

    def __init__(self, mapping: Mapping, input: InstancePresentation | TermModel, model: TermModel):
        self.mapping = mapping
        self.input = input  # held: its id is in the memo key
        self.model = model

    @property
    def presentation(self) -> InstancePresentation:
        """The output's presentation, built the first time it is read."""
        return self.model.instance


class DeltaResult(MigrationResult):
    def __init__(self, mapping, input, model, ent_class: dict[tuple[str, int], int],
                 ty_class: dict[int, int], to_target: dict[int, int]):
        super().__init__(mapping, input, model)
        self.ent_class = ent_class  # (source entity name, input class) -> output class
        self.ty_class = ty_class  # input type class -> output class
        self.to_target = to_target  # output class -> input class (total)


class SigmaResult(MigrationResult):
    def __init__(self, mapping, input, model, gen_map: dict[FunctionSymbol, FunctionSymbol]):
        super().__init__(mapping, input, model)
        self.gen_map = gen_map


class PiResult(MigrationResult):
    def __init__(self, mapping, input, model, index: dict[str, list[tuple[Sort, tuple]]],
                 families: dict[str, list[tuple[int, ...]]],
                 fam_class: dict[tuple[str, tuple[int, ...]], int],
                 fam_of: dict[int, tuple[str, tuple[int, ...]]],
                 ty_class: dict[int, int], ty_origin: dict[int, int]):
        super().__init__(mapping, input, model)
        # per target entity name: ordered index of (source entity, chain of a path to its image)
        self.index = index
        self.families = families  # per target entity name: ordered list of family tuples
        self.fam_class = fam_class  # (target entity name, family tuple) -> output class
        self.fam_of = fam_of  # output entity class -> (target entity name, family tuple)
        # input type class <-> output class
        self.ty_class = ty_class
        self.ty_origin = ty_origin


# Results of sigma, delta and pi by (functor, id(mapping), id(input), class
# cap, name), kept only while someone holds them.  A result holds its
# mapping and its input, so neither id is reused while its entry exists;
# mappings, presentations and term models are immutable, so a hit is
# always what the call would compute again.  sigma keys a presentation
# read from a model by that model, whose chains its equations spell.
_results: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _type_anchors(src: TermModel):
    """A 0-ary symbol anchoring every type class of `src` in a new instance.

    Literal and constant classes are anchored by their own symbols;
    every other class (a labeled null) gets a fresh generator named
    `<type>_null<k>`, with k counting from 1 and skipping every name a
    literal or constant of the type in `src` has.  The returned pins,
    pairs of symbols to equate, make every anchored literal present and
    each constant equal to its class's anchor.
    """
    gens: list[FunctionSymbol] = []
    pins: list[tuple[FunctionSymbol, FunctionSymbol]] = []
    anchor: dict[int, FunctionSymbol] = {}
    const_class: dict[int, FunctionSymbol] = {}
    for const in src.schema.typeside.constants:
        const_class.setdefault(src.class_of(const), const)
    for tau in src.schema.typeside.types:
        carrier = src.carrier(tau)
        taken = {src.literal_of[c].name for c in carrier if c in src.literal_of}
        taken.update(const.name for const in src.schema.typeside.constants if const.out_sort == tau)
        n = 0
        for c in carrier:
            if c in src.literal_of:
                sym = src.literal_of[c]
                pins.append((sym, sym))
            elif c in const_class:
                sym = const_class[c]
            else:
                n += 1
                while f"{tau.name}_null{n}" in taken:
                    n += 1
                sym = generator(f"{tau.name}_null{n}", tau)
                gens.append(sym)
            anchor[c] = sym
    for const in src.schema.typeside.constants:
        sym = anchor[src.class_of(const)]
        if sym != const:
            pins.append((const, sym))
    return anchor, gens, pins


# ---------------------------------------------------------------------------
# Delta


def delta(f_map: Mapping, j: TermModel, *, name: Optional[str] = None) -> DeltaResult:
    """Model reduct: project a target model back along the mapping."""
    if j.schema != f_map.target:
        raise SchemaMismatch(f"{j.name} is not an instance of {f_map.target.name}")
    if j.collisions:
        raise SchemaMismatch(f"input of delta is inconsistent: {j.collisions[0]}")
    name = name or f"delta_{f_map.name}_{j.name}"
    memo_key = ("delta", id(f_map), id(j), _model.MAX_CLASSES, name)
    hit = _results.get(memo_key)
    if hit is not None:
        return hit
    src = f_map.source
    ent_gen: dict[tuple[str, int], FunctionSymbol] = {}
    for e in src.entities:
        for c in j.carrier(f_map.entity_image(e)):
            ent_gen[(e.name, c)] = generator(f"{e.name}_{j.id_label[c]}", e)
    anchor, ty_gens, pins = _type_anchors(j)
    # q(row) = value: q's image in j at the row's class, as a generator or an anchor
    images = {q: j.table(f_map.sort_image(q.arg_sorts[0]), f_map.symbol_map[q][1:]) for q in src.symbols}
    rows = []
    for e in src.entities:
        qs = src.symbols_on(e)
        for c in j.carrier(f_map.entity_image(e)):
            g = ent_gen[(e.name, c)]
            for q in qs:
                img = images[q][c]
                rows.append((q, g, ent_gen[(q.out_sort.name, img)] if q.out_sort.is_entity else anchor[img]))
    model = write_model(src, name, [*ent_gen.values(), *ty_gens], pins, rows)
    ent_class = {key: model.class_of(g) for key, g in ent_gen.items()}
    ty_class = {c: model.class_of(sym) for c, sym in anchor.items()}
    to_target = {out: c for (_, c), out in ent_class.items()} | {out: c for c, out in ty_class.items()}
    res = _results[memo_key] = DeltaResult(f_map, j, model, ent_class, ty_class, to_target)
    return res


# ---------------------------------------------------------------------------
# Sigma


def sigma(f_map: Mapping, inst: InstancePresentation | TermModel, *, name: Optional[str] = None) -> SigmaResult:
    """Push an instance, given as a presentation or as its model, across a mapping.

    Each equation's chains are translated symbol by symbol
    (`mapping_chain`); from a model they are read as it keeps them, so
    its presentation is not built.  A presentation read from a model
    (`model_read_as`) is taken as that model, so both share one memo entry.
    """
    if inst.schema != f_map.source:
        raise SchemaMismatch(f"{inst.name} is not an instance of {f_map.source.name}")
    if isinstance(inst, InstancePresentation):
        inst = model_read_as(inst) or inst
    name = name or f"sigma_{f_map.name}_{inst.name}"
    memo_key = ("sigma", id(f_map), id(inst), _model.MAX_CLASSES, name)
    hit = _results.get(memo_key)
    if hit is not None:
        return hit
    gen_map = {g: generator(g.name, f_map.sort_image(g.out_sort)) for g in inst.generators}
    if isinstance(inst, TermModel):
        chains = inst.chains
    else:
        chains = [(term_chain(eq.lhs), term_chain(eq.rhs)) for eq in inst.equations]
    model = saturate(f_map.target, name, list(gen_map.values()),
                     [(mapping_chain(f_map, lhs, gen_map), mapping_chain(f_map, rhs, gen_map))
                      for lhs, rhs in chains])
    res = _results[memo_key] = SigmaResult(f_map, inst, model, gen_map)
    return res


# ---------------------------------------------------------------------------
# Constraint search


def _value(x: list[int], k: int, c: Optional[int], ops) -> int:
    v = x[k] if k >= 0 else c
    for op in ops:
        v = op[v]
    return v


def _search(domains: list[list[int]], checks: list[tuple], apart: list[list[int]] = ()):
    """Every tuple x with x[k] in domains[k] that passes `checks`, in lexicographic order.

    A check is a pair of chains (k, c, ops) that must agree: x[k], or the
    class c when k < 0, passed through the tables in ops, innermost first.
    It runs once the last position it names is bound.  One that equates
    position k alone with a chain over earlier positions is a functional
    dependency: x[k] is computed, not enumerated, so that chain's values
    must lie in domains[k].  x[k] differs from each x[j] with j in apart[k].
    """
    n = len(domains)
    derived: list[Optional[tuple]] = [None] * n
    by_last: list[list[tuple]] = [[] for _ in range(n + 1)]  # [-1]: checks naming no position
    for pair in checks:
        hi, lo = sorted(pair, key=lambda chain: -chain[0])
        if lo[0] < hi[0] and not hi[2] and derived[hi[0]] is None:
            derived[hi[0]] = lo
        else:
            by_last[hi[0]].append(pair)
    if any(_value([], *lhs) != _value([], *rhs) for lhs, rhs in by_last[-1]):
        return
    x: list[int] = []

    def choices(k: int):
        return iter(domains[k]) if derived[k] is None else iter((_value(x, *derived[k]),))

    stack = [choices(0)] if n else []
    if not n:
        yield ()
    while stack:
        k = len(stack) - 1
        del x[k:]
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            continue
        x.append(v)
        if apart and any(x[j] == v for j in apart[k]) or \
                any(_value(x, *lhs) != _value(x, *rhs) for lhs, rhs in by_last[k]):
            continue
        if k + 1 < n:
            stack.append(choices(k + 1))
        else:
            yield tuple(x)


# ---------------------------------------------------------------------------
# Pi


def _families(i_model: TermModel, t_ent: Sort, idx: list[tuple[Sort, tuple]],
              cons: list[tuple[int, FunctionSymbol, int]]) -> list[tuple[int, ...]]:
    """Every tuple x over the carriers of idx with x[j] == q(x[i]) for (i, q, j) in cons.

    In lexicographic order.  With i < j, x[j] is looked up in q's table,
    not enumerated: pi is a join, not a filtered product.
    """
    tables = {q: i_model.column(q) for q in dict.fromkeys(q for _, q, _ in cons)}
    found = _search([i_model.carrier(s) for s, _ in idx],
                    [((j, None, ()), (i, None, (tables[q],))) for i, q, j in cons])
    cap = _model.MAX_CLASSES
    out = list(itertools.islice(found, cap + 1))
    if len(out) > cap:
        raise ResourceLimit(f"family carrier at {t_ent.name} exceeded limits")
    return out


def pi(f_map: Mapping, i_model: TermModel, *, name: Optional[str] = None) -> PiResult:
    """Limit-style migration: families over the input model, indexed by paths read as chains."""
    if i_model.schema != f_map.source:
        raise SchemaMismatch(f"{i_model.name} is not an instance of {f_map.source.name}")
    if i_model.collisions:
        raise SchemaMismatch(f"input of pi is inconsistent: {i_model.collisions[0]}")
    name = name or f"pi_{f_map.name}_{i_model.name}"
    memo_key = ("pi", id(f_map), id(i_model), _model.MAX_CLASSES, name)
    hit = _results.get(memo_key)
    if hit is not None:
        return hit
    src, tgt = f_map.source, f_map.target
    enumerated: dict[tuple, list[tuple]] = {}  # (schema is src, from, to) -> the chains of its path set

    def paths(schema: Schema, frm: Sort, to: Sort, truncated: str) -> list[tuple]:
        # ResourceLimit, `truncated` formatted with the two sorts' names, when the caps cut the set
        k = (schema is src, frm, to)
        if k not in enumerated:
            ps = enumerate_paths(schema, frm, to)
            if ps.truncated:
                raise ResourceLimit(truncated.format(frm.name, to.name))
            enumerated[k] = [chain[1:] for chain in ps.chains]
        return enumerated[k]

    index: dict[str, list[tuple[Sort, tuple]]] = {}
    for t in tgt.entities:
        index[t.name] = [(s, chain) for s in src.entities for chain in paths(
            tgt, t, f_map.entity_image(s), "path set {} -> {} truncated; pi is undefined under truncation")]

    keys = {t: path_key(tgt, t) for t in tgt.entities}
    positions: dict[Sort, dict] = {}  # per target entity, (source entity, key) -> the first index position

    def position(t: Sort, s: Sort, chain: tuple) -> int:  # of the path `chain` from t to s's image
        at = positions.get(t)
        if at is None:  # built on first use: a probe model is read only where a path is looked up
            at = positions[t] = {}
            for i, (s2, chain2) in enumerate(index[t.name]):
                at.setdefault((s2, keys[t](chain2)), i)
        i = at.get((s, keys[t](chain)))
        if i is None:
            raise InvariantViolation(
                f"path {render_chain((Var('p', t), *chain))} missing from the enumerated index at {t.name}")
        return i

    # foreign-key naturality constraints: x[j] == q(x[i]) in the input model
    constraints: dict[str, list[tuple[int, FunctionSymbol, int]]] = {}
    for t in tgt.entities:
        constraints[t.name] = [(i, q, position(t, q.out_sort, chain + f_map.symbol_map[q][1:]))
                               for i, (s, chain) in enumerate(index[t.name])
                               for q in src.foreign_keys if q.arg_sorts == (s,)]

    families = {t.name: _families(i_model, t, index[t.name], constraints[t.name])
                for t in tgt.entities}

    # attribute factorizations through the mapping: (index position, source path) pairs
    fact: dict[tuple[str, str], list[tuple[int, tuple]]] = {}
    for t in tgt.entities:
        key = keys[t]
        for att in tgt.attributes:
            if att.arg_sorts != (t,):
                continue
            fact[(t.name, att.name)] = [
                (i, q) for i, (s, chain) in enumerate(index[t.name])
                for q in paths(src, s, att.out_sort, "source path set {} -> {} truncated")
                if key(chain + mapping_chain(f_map, q)) == key((att,))]

    fam_gen: dict[tuple[str, tuple[int, ...]], FunctionSymbol] = {}
    for t in tgt.entities:
        for k, x in enumerate(families[t.name]):
            fam_gen[(t.name, x)] = generator(f"{t.name}_{k + 1}", t)
    anchor, ty_gens, pins = _type_anchors(i_model)

    # h(family) = family and att(family) = value, as (symbol, row, value)
    rows = []
    for t in tgt.entities:
        for h in tgt.foreign_keys:
            if h.arg_sorts != (t,):
                continue
            t2 = h.out_sort
            posmap = [position(t, s, (h, *chain)) for s, chain in index[t2.name]]
            for x in families[t.name]:
                y = tuple(x[i] for i in posmap)
                if (t2.name, y) not in fam_gen:
                    raise InvariantViolation(
                        f"family image under {h.name} not natural; enumeration incomplete")
                rows.append((h, fam_gen[(t.name, x)], fam_gen[(t2.name, y)]))
        for att in tgt.attributes:
            if att.arg_sorts != (t,):
                continue
            cands = fact[(t.name, att.name)]
            if not cands:
                continue  # value is a fresh labeled null
            (i0, v0), *others = [(i, i_model.table(index[t.name][i][0], q)) for i, q in cands]
            for x in families[t.name]:
                val = v0[x[i0]]
                if any(v[x[i]] != val for i, v in others):
                    raise InvariantViolation(
                        f"attribute {att.name} is not well-defined across factorizations")
                rows.append((att, fam_gen[(t.name, x)], anchor[val]))

    model = write_model(tgt, name, [*fam_gen.values(), *ty_gens], pins, rows)
    fam_class = {key: model.class_of(g) for key, g in fam_gen.items()}
    fam_of = {cls: key for key, cls in fam_class.items()}
    ty_class = {c: model.class_of(sym) for c, sym in anchor.items()}
    ty_origin = {out: c for c, out in ty_class.items()}
    res = _results[memo_key] = PiResult(f_map, i_model, model, index, families,
                                        fam_class, fam_of, ty_class, ty_origin)
    return res


# ---------------------------------------------------------------------------
# Coproducts


def coproduct(i1: InstancePresentation, i2: InstancePresentation,
              name: Optional[str] = None) -> InstancePresentation:
    """Disjoint union of two presentations on the same schema."""
    if i1.schema != i2.schema:
        raise SchemaMismatch("coproduct requires instances on the same schema")
    gm1 = {g: generator(f"l_{g.name}", g.out_sort) for g in i1.generators}
    gm2 = {g: generator(f"r_{g.name}", g.out_sort) for g in i2.generators}
    # each side's generators renamed along its instance's map, inside the side's chain
    eqs = [Equation((), *(fold_chain([gm.get(x, x) for x in term_chain(side)]) for side in (eq.lhs, eq.rhs)))
           for inst, gm in ((i1, gm1), (i2, gm2)) for eq in inst.equations]
    return InstancePresentation(name or f"{i1.name}_plus_{i2.name}", i1.schema,
                                list(gm1.values()) + list(gm2.values()), eqs)


# ---------------------------------------------------------------------------
# Morphism enumeration and isomorphism


def _search_morphisms(a: TermModel, b: TermModel, injective: bool, first_only: bool) -> list[InstanceMorphism]:
    """Morphisms a -> b, by a `_search` over the generators of a.

    a is initial: an assignment under which b satisfies every equation of
    a extends to exactly one morphism (`TermModel.image`).  Each equation
    a was saturated from, read as its pair of chains, is a check; one like
    g2 = f(g1) computes g2's image.  With `injective`,
    generators of distinct classes take distinct images, as do all classes.
    """
    if a.schema != b.schema:
        raise SchemaMismatch("morphisms require a common schema")
    if any(b._lookup(lit) is None for lit in a.literal_of.values()):
        return []
    gens = a.generators
    position = {g: k for k, g in enumerate(gens)}
    tables: dict[FunctionSymbol, dict[int, int]] = {}

    def check_chain(chain) -> tuple[int, Optional[int], list[dict[int, int]]]:
        # the term's leaf (its last 0-ary symbol): its generator position or -1, else
        # its class in b; then the tables in b of the unary symbols after it
        for i in range(len(chain) - 1, -1, -1):
            if not chain[i].arg_sorts:
                break
        leaf, ops = chain[i], []
        for sym in chain[i + 1:]:
            if sym not in tables:
                tables[sym] = b.column(sym)
            ops.append(tables[sym])
        k = position.get(leaf, -1)
        return k, None if k >= 0 else b._lookup(leaf), ops

    equations = [(term_chain(eq.lhs), term_chain(eq.rhs)) for eq in a.schema.typeside.equations]
    checks = [(check_chain(lhs), check_chain(rhs)) for lhs, rhs in [*equations, *a.chains]]
    cls = [a.class_of(g) for g in gens] if injective else []
    apart = [[j for j in range(k) if cls[j] != cls[k]] for k in range(len(cls))]

    solutions: list[InstanceMorphism] = []
    for acc in _search([b.carrier(g.out_sort) for g in gens], checks, apart):
        cmap = a.image(b, dict(zip(gens, acc)))
        if not injective or len(set(cmap.values())) == len(cmap):
            solutions.append(InstanceMorphism(a, b, cmap))
            if len(solutions) > MAX_MORPHISMS:
                raise ResourceLimit(f"more than {MAX_MORPHISMS} morphisms")
            if first_only:
                break
    return solutions


def enumerate_morphisms(a: TermModel, b: TermModel) -> list[InstanceMorphism]:
    """All instance morphisms a -> b, one per generator assignment that b satisfies.

    The order is lexicographic in the generators' images, the generators
    taken in declaration order and each image by its position in b's
    carrier.
    """
    return _search_morphisms(a, b, injective=False, first_only=False)


def instances_isomorphic(a: TermModel, b: TermModel) -> Optional[InstanceMorphism]:
    """A bijective commuting morphism, or None."""
    if a.schema != b.schema:
        raise SchemaMismatch("isomorphism requires a common schema")
    for s in a.schema.entities + a.schema.typeside.types:
        if len(a.carrier(s)) != len(b.carrier(s)):
            return None
    if sorted(l.name for l in a.literal_of.values()) != \
            sorted(l.name for l in b.literal_of.values()):
        return None
    found = _search_morphisms(a, b, injective=True, first_only=True)
    return found[0] if found else None


# ---------------------------------------------------------------------------
# Units, counits, mates
#
# An adjunction is its hom-set bijection, the four transposes below, and
# its unit and counit are the transposes of identities (Mac Lane,
# "Categories for the Working Mathematician", IV.1).


def _held(m: InstanceMorphism, *built: MigrationResult) -> InstanceMorphism:
    """m, holding `built`: the migration results the transpose that made m used.

    While m lives the memo keeps those results, so a transpose of m (a
    triangle identity, say) gets them instead of rebuilding them.
    """
    m._built = built
    return m


def unit_sigma(f_map: Mapping, i_model: TermModel) -> InstanceMorphism:
    """I -> delta(sigma(I)): the mate of the identity on sigma(I)."""
    sres = sigma(f_map, i_model)
    return transpose_sigma_down(f_map, i_model, identity_morphism(sres.model))


def counit_sigma(f_map: Mapping, j_model: TermModel) -> InstanceMorphism:
    """sigma(delta(J)) -> J: the mate of the identity on delta(J)."""
    dres = delta(f_map, j_model)
    return transpose_sigma_up(f_map, identity_morphism(dres.model), j_model)


def unit_pi(f_map: Mapping, j_model: TermModel) -> InstanceMorphism:
    """J -> pi(delta(J)): the mate of the identity on delta(J)."""
    dres = delta(f_map, j_model)
    return transpose_pi_down(f_map, j_model, identity_morphism(dres.model))


def counit_pi(f_map: Mapping, i_model: TermModel) -> InstanceMorphism:
    """delta(pi(I)) -> I: the mate of the identity on pi(I)."""
    pires = pi(f_map, i_model)
    return transpose_pi_up(f_map, identity_morphism(pires.model), i_model)


def transpose_sigma_down(f_map: Mapping, i_model: TermModel, h: InstanceMorphism) -> InstanceMorphism:
    """Mate of h : sigma(I) -> J, namely I -> delta(J).

    h's source must be the model produced by sigma(f_map, i_model).
    Each generator of I goes to the copy, in delta(J), of where h sends
    the generator's image in sigma(I).
    """
    dres = delta(f_map, h.target)
    sres = sigma(f_map, i_model)
    genmap: dict[FunctionSymbol, int] = {}
    for g in i_model.generators:
        c = h.apply(h.source.class_of(sres.gen_map[g]))
        genmap[g] = dres.ent_class[(g.out_sort.name, c)] if g.out_sort.is_entity else dres.ty_class[c]
    return _held(morphism_from_genmap(i_model, dres.model, genmap), dres, sres)


def transpose_sigma_up(f_map: Mapping, hp: InstanceMorphism, j_model: TermModel) -> InstanceMorphism:
    """Mate of hp : I -> delta(J), namely sigma(I) -> J.

    hp's target must be the model produced by delta(f_map, j_model).
    """
    dres = delta(f_map, j_model)
    sres = sigma(f_map, hp.source)
    genmap = {sres.gen_map[g]: dres.to_target[hp.apply(hp.source.class_of(g))]
              for g in hp.source.generators}
    return _held(morphism_from_genmap(sres.model, j_model, genmap), dres, sres)


def transpose_pi_down(f_map: Mapping, j_model: TermModel, h: InstanceMorphism) -> InstanceMorphism:
    """Mate of h : delta(J) -> I, namely J -> pi(I).

    h's source must be the model produced by delta(f_map, j_model).  Each
    entity generator of J goes to the family, in pi(I), of where h sends
    its values along its entity's index chains; a type one to the copy of
    its image.
    """
    dres = delta(f_map, j_model)
    pires = pi(f_map, h.target)
    genmap: dict[FunctionSymbol, int] = {}
    for g in j_model.generators:
        c, t = j_model.class_of(g), g.out_sort
        if not t.is_entity:
            genmap[g] = pires.ty_class[h.apply(dres.ty_class[c])]
            continue
        key = (t.name, tuple(h.apply(dres.ent_class[(s.name, j_model.walk(chain, None, c))])
                             for s, chain in pires.index[t.name]))
        if key not in pires.fam_class:
            raise NoMorphismExists(f"image family at {t.name} is not natural")
        genmap[g] = pires.fam_class[key]
    return _held(morphism_from_genmap(j_model, pires.model, genmap), dres, pires)


def transpose_pi_up(f_map: Mapping, g: InstanceMorphism, i_model: TermModel) -> InstanceMorphism:
    """Mate of g : J -> pi(I), namely delta(J) -> I.

    g's target must be the model produced by pi(f_map, i_model).  Each
    generator of delta(J) goes where g sends its class of J: an entity one
    to its family's entry at its entity's identity path, a type one back to I.
    """
    dres = delta(f_map, g.source)
    pires = pi(f_map, i_model)
    ident = {s: pires.index[f_map.entity_image(s).name].index((s, ())) for s in f_map.source.entities}
    genmap: dict[FunctionSymbol, int] = {}
    for gen in dres.model.generators:
        img = g.apply(dres.to_target[dres.model.class_of(gen)])
        if gen.out_sort.is_entity:
            genmap[gen] = pires.fam_of[img][1][ident[gen.out_sort]]
        elif img in pires.ty_origin:
            genmap[gen] = pires.ty_origin[img]
        else:
            raise NoMorphismExists("image hits a fresh null of pi; no mate exists")
    return _held(morphism_from_genmap(dres.model, i_model, genmap), dres, pires)


# ---------------------------------------------------------------------------
# Mapping inversion


class InversionBounds(ReadOnly):
    __slots__ = ("depth",)

    def __init__(self, depth: int = 3):
        if depth <= 0:
            raise ValueError(f"depth must be a positive integer, got {depth}")
        object.__setattr__(self, "depth", depth)


def invert_mapping(f_map: Mapping, bounds: InversionBounds = InversionBounds()) -> Optional[Mapping]:
    """A two-sided inverse mapping, or None when there is none.

    `mappings_equal` compares entity maps exactly, so an inverse's entity
    map is forced: f_map's must be a bijection, and the inverse's is its
    inverse.  The symbol images are searched over paths up to the bounds;
    ResourceLimit when the bounds truncated that space, so absence cannot
    be concluded.
    """
    src, tgt = f_map.source, f_map.target
    back = {t: s for s, t in f_map.entity_map.items()}
    if len(back) != len(src.entities) or set(back) != set(tgt.entities):
        return None
    ent = {t: back[t] for t in tgt.entities}
    id_src, id_tgt = identity_mapping(src), identity_mapping(tgt)
    truncated = False
    candidates: list[list[tuple]] = []
    for f in tgt.symbols:
        frm, to = ent[f.arg_sorts[0]], ent.get(f.out_sort, f.out_sort)
        ps = enumerate_paths(src, frm, to, bounds.depth, MAX_CANDIDATES)
        truncated = truncated or ps.truncated
        if not ps.chains:
            break
        candidates.append(ps.chains)
    else:
        for count, combo in enumerate(itertools.product(*candidates), 1):
            if count > MAX_CANDIDATES:
                raise ResourceLimit("inversion search exceeded the candidate cap")
            g_map = Mapping(f"{f_map.name}_inv", tgt, src, ent, dict(zip(tgt.symbols, combo)))
            if validate_mapping(g_map):
                continue
            try:
                if mappings_equal(compose_mappings(f_map, g_map), id_src) and \
                        mappings_equal(compose_mappings(g_map, f_map), id_tgt):
                    return g_map
            except SchemaMismatch:
                continue
    if truncated:
        raise ResourceLimit("inversion search space truncated by depth bound")
    return None
