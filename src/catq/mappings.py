"""Schema mappings (derived signature morphisms) and instance morphisms.

A mapping F : S -> T sends each entity to an entity and each attribute
or foreign key f : s -> s' to an open term over T with one free
variable of sort F(s).  It must respect provable equality; that proof
obligation is decided by `open_terms_equal` for each translated
constraint, on a free one-generator probe instance of the target schema
when its theory has equations to apply.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Optional

from .errors import NoMorphismExists, SchemaMismatch, SortMismatch
from .model import DEFAULT_LIMITS, SaturationLimits, TermModel, build_term_model
from .schema import InstancePresentation, Issue, Schema, generator
from .terms import (
    GENERATOR,
    App,
    FunctionSymbol,
    Sort,
    Term,
    Var,
    free_vars,
    render_term,
    substitute,
)


@dataclass(frozen=True)
class Mapping:
    """A frozen value; `entity_map` and `symbol_map` are read-only copies of the dicts given."""

    name: str
    source: Schema
    target: Schema
    entity_map: MappingProxyType[Sort, Sort] = field(default_factory=dict)
    symbol_map: MappingProxyType[FunctionSymbol, Term] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "entity_map", MappingProxyType(dict(self.entity_map)))
        object.__setattr__(self, "symbol_map", MappingProxyType(dict(self.symbol_map)))

    def entity_image(self, e: Sort) -> Sort:
        return self.entity_map[e]

    def sort_image(self, s: Sort) -> Sort:
        return self.entity_map[s] if s.is_entity else s

    def __repr__(self) -> str:
        ents = ", ".join(f"{a.name}->{b.name}" for a, b in self.entity_map.items())
        return f"Mapping({self.name}: {self.source.name} -> {self.target.name}; {ents})"


def identity_mapping(s: Schema, name: Optional[str] = None) -> Mapping:
    ent = {e: e for e in s.entities}
    sym = {f: App(f, (Var("x", f.arg_sorts[0]),)) for f in s.symbols}
    return Mapping(name or f"id_{s.name}", s, s, ent, sym)


def mapping_chain(f_map: Mapping, t: Term,
                  genmap: Optional[dict[FunctionSymbol, FunctionSymbol]] = None
                  ) -> tuple[Term, list[Term]]:
    """The translated leaf of a term over the mapping's source, and its symbols' images.

    Variables are re-sorted along the entity map; generators are
    re-routed through `genmap` when translating instance terms.  Every
    symbol is unary, so a term is a chain; the images come outermost
    first, as the walk down the chain meets them.
    """
    images: list[Term] = []
    while isinstance(t, App) and t.args:
        image = f_map.symbol_map.get(t.sym)
        if image is None:
            raise SchemaMismatch(f"mapping {f_map.name} has no image for symbol {t.sym.name}")
        images.append(image)
        t = t.args[0]
    if isinstance(t, Var):
        return Var(t.name, f_map.sort_image(t.sort)), images
    if t.sym.flavor == GENERATOR:
        if genmap is None or t.sym not in genmap:
            raise SchemaMismatch(f"no translation for generator {t.sym.name}")
        return App(genmap[t.sym]), images
    return t, images  # a literal or a typeside constant


def apply_mapping_term(f_map: Mapping, t: Term,
                       genmap: Optional[dict[FunctionSymbol, FunctionSymbol]] = None) -> Term:
    """Homomorphic extension of a mapping to terms over its source.

    The translated leaf of `mapping_chain`, wrapped in the images of
    the symbols above it on the way back up.
    """
    out, images = mapping_chain(f_map, t, genmap)
    for image in reversed(images):
        (v,) = free_vars(image)
        out = substitute(image, {v.name: out})
    return out


@functools.cache
def probe_model(schema: Schema, entity: Sort,
                limits: SaturationLimits = DEFAULT_LIMITS) -> TermModel:
    """Term model of the free instance on one generator `_x` at `entity`.

    Two one-variable terms are provably equal iff they agree on it.
    Cached by value: schemas are frozen, so equal schemas share one probe.
    """
    probe = InstancePresentation(f"_probe_{schema.name}_{entity.name}", schema, [generator("_x", entity)])
    return build_term_model(probe, limits=limits)


def open_terms_equal(schema: Schema, entity: Sort, t1: Term, t2: Term,
                     limits: SaturationLimits = DEFAULT_LIMITS) -> bool:
    """Provable equality of two one-variable terms rooted at `entity`.

    Each term's variable, whatever its name, is replaced by the probe
    generator `_x`.  Such terms only reach the entities that foreign keys
    reach from `entity`.  With no typeside equations and no constraint on
    one of those entities, the theory proves only syntactic equalities
    between them, so the closed terms are compared as they are; otherwise
    they are compared on the probe model.
    """
    if t1.sort != t2.sort:
        raise SortMismatch(
            f"cannot compare {render_term(t1)} : {t1.sort.name} with {render_term(t2)} : {t2.sort.name}")
    g = App(generator("_x", entity))

    def close(t: Term) -> Term:
        vs = free_vars(t)
        return substitute(t, {vs[0].name: g}) if vs else t

    if schema.typeside.equations or (schema.constraints and _constrained_from(schema, entity)):
        return probe_model(schema, entity, limits).decide_equal(close(t1), close(t2))
    return close(t1) == close(t2)


def _constrained_from(schema: Schema, entity: Sort) -> bool:
    """Whether a constraint of `schema` is on an entity that foreign keys reach from `entity`."""
    reached, todo = {entity}, [entity]
    while todo:
        for f in schema.symbols_on(todo.pop()):
            if f.out_sort.is_entity and f.out_sort not in reached:
                reached.add(f.out_sort)
                todo.append(f.out_sort)
    return any(v.sort in reached for con in schema.constraints for v in con.free)


def validate_mapping(f_map: Mapping, limits: SaturationLimits = DEFAULT_LIMITS) -> list[Issue]:
    issues: list[Issue] = []
    src, tgt = f_map.source, f_map.target
    if src.typeside.name != tgt.typeside.name:
        issues.append(Issue("SchemaMismatch", "source and target typesides differ"))
        return issues
    for e in src.entities:
        img = f_map.entity_map.get(e)
        if img is None:
            issues.append(Issue("MissingImage", f"entity {e.name} has no image"))
        elif img not in tgt.entities:
            issues.append(Issue("UnknownSort", f"entity image {img.name} not in target schema"))
    for f in src.symbols:
        image = f_map.symbol_map.get(f)
        if image is None:
            issues.append(Issue("MissingImage", f"symbol {f.name} has no image"))
            continue
        vs = free_vars(image)
        if len(vs) != 1:
            issues.append(Issue("BadImage", f"image of {f.name} must have exactly one variable"))
            continue
        want_arg = f_map.sort_image(f.arg_sorts[0])
        want_out = f_map.sort_image(f.out_sort)
        if vs[0].sort != want_arg:
            issues.append(Issue(
                "SortMismatch",
                f"image of {f.name}: variable has sort {vs[0].sort.name}, expected {want_arg.name}"))
        if image.sort != want_out:
            issues.append(Issue(
                "SortMismatch",
                f"image of {f.name} has sort {image.sort.name}, expected {want_out.name}"))
    if issues:
        return issues
    for con in src.constraints:
        v = con.free[0]
        lhs = apply_mapping_term(f_map, con.lhs)
        rhs = apply_mapping_term(f_map, con.rhs)
        if not open_terms_equal(tgt, f_map.entity_image(v.sort), lhs, rhs, limits):
            issues.append(Issue(
                "EqualityNotPreserved",
                f"target does not prove the image of constraint {con}"))
    return issues


def compose_mappings(f_map: Mapping, g_map: Mapping,
                     limits: SaturationLimits = DEFAULT_LIMITS, *,
                     name: Optional[str] = None) -> Mapping:
    """First f, then g."""
    if f_map.target != g_map.source:
        raise SchemaMismatch(
            f"cannot compose {f_map.name} : ..->{f_map.target.name} with {g_map.name} : {g_map.source.name}->..")
    ent = {e: g_map.entity_map[t] for e, t in f_map.entity_map.items()}
    sym = {f: apply_mapping_term(g_map, t) for f, t in f_map.symbol_map.items()}
    out = Mapping(name or f"{g_map.name}.{f_map.name}", f_map.source, g_map.target, ent, sym)
    bad = validate_mapping(out, limits)
    if bad:
        raise SchemaMismatch(f"composite mapping invalid: {bad[0]}")
    return out


def mappings_equal(f_map: Mapping, g_map: Mapping,
                   limits: SaturationLimits = DEFAULT_LIMITS) -> bool:
    """Same entity assignment and provably equal symbol images."""
    if f_map.source != g_map.source or f_map.target != g_map.target:
        return False
    if f_map.entity_map != g_map.entity_map:
        return False
    return all(open_terms_equal(f_map.target, f_map.entity_image(f.arg_sorts[0]),
                                f_map.symbol_map[f], g_map.symbol_map[f], limits)
               for f in f_map.source.symbols)


def render_open_term(t: Term) -> str:
    vs = free_vars(t)
    if not vs:
        return render_term(t)
    v = vs[0]
    return f"lambda {v.name}:{v.sort.name}. {render_term(t)}"


# ---------------------------------------------------------------------------
# Instance morphisms


@dataclass
class InstanceMorphism:
    """A sort-indexed map between term-model carriers commuting with all ops."""

    source: TermModel
    target: TermModel
    cmap: dict[int, int]

    def apply(self, c: int) -> int:
        return self.target.find(self.cmap[self.source.find(c)])

    def normalized(self) -> dict[int, int]:
        return {self.source.find(k): self.target.find(v) for k, v in self.cmap.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, InstanceMorphism):
            return NotImplemented
        return self.normalized() == other.normalized()

    def __hash__(self):
        return hash(frozenset(self.normalized().items()))

    def violations(self) -> list[str]:
        out: list[str] = []
        src, tgt = self.source, self.target
        if src.schema != tgt.schema:
            return ["source and target live on different schemas"]
        for c in src.all_classes():
            if src.find(c) not in self.cmap:
                out.append(f"class {c} has no image")
        for s in src.schema.entities:
            for c in src.carrier(s):
                for f in src.schema.symbols_on(s):
                    if tgt.find(self.apply(src.op(f, c))) != tgt.find(tgt.op(f, self.apply(c))):
                        out.append(f"does not commute with {f.name} at class {c}")
        # every literal of a class: the least one, and the others it collides with
        lits = [(c, lit.sym) for c, lit in src.literal_of.items()]
        lits += [(k.class_id, replace(src.literal_of[k.class_id].sym, name=k.lit2))
                 for k in src.collisions]
        for c, sym in lits:
            img = tgt.eval(App(sym))
            if img is None or tgt.find(self.apply(c)) != tgt.find(img):
                out.append(f"does not fix literal {sym.name}")
        for const in src.schema.typeside.constants:
            if tgt.find(self.apply(src.class_of(const))) != tgt.find(tgt.class_of(const)):
                out.append(f"does not preserve constant {const.name}")
        return out

    def is_bijective(self) -> bool:
        imgs = {self.apply(c) for c in self.source.all_classes()}
        return len(imgs) == len(self.source.all_classes()) == len(self.target.all_classes())

    def is_identity(self) -> bool:
        return all(self.apply(c) == self.source.find(c) for c in self.source.all_classes())


def identity_morphism(m: TermModel) -> InstanceMorphism:
    return InstanceMorphism(m, m, {c: c for c in m.all_classes()})


def morphism_from_genmap(src: TermModel, tgt: TermModel,
                         genmap: dict[FunctionSymbol, int]) -> InstanceMorphism:
    """Homomorphic extension of a generator assignment, verified.

    NoMorphismExists when it sends a generator g elsewhere than genmap[g]:
    the assignment breaks an equation of src.
    """
    if src.schema != tgt.schema:
        raise SchemaMismatch("morphism endpoints must share a schema")
    cmap = src.image(tgt, genmap)
    if cmap is None:
        raise NoMorphismExists(f"a literal of {src.name} does not denote in the target")
    h = InstanceMorphism(src, tgt, cmap)
    bad = [f"the assignment of {g.name} breaks an equation of {src.name}"
           for g, d in genmap.items() if h.apply(src.class_of(g)) != tgt.find(d)] or h.violations()
    if bad:
        raise NoMorphismExists(bad[0])
    return h
