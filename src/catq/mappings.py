"""Schema mappings (derived signature morphisms) and instance morphisms.

A mapping F : S -> T sends each entity to an entity and each attribute
or foreign key f : s -> s' to an open term over T with one free
variable of sort F(s).  It must respect provable equality: the image of
each constraint must be provable in T.  A one-variable term is a path,
and `Mapping.symbol_map` holds each image as its chain (`terms.term_chain`:
the variable, then the symbols, innermost first); every decision of path
equality compares the `path_key`s of chains without their variable.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Callable, Hashable, Optional

from . import model as _model
from .errors import NoMorphismExists, SchemaMismatch, SortMismatch
from .model import TermModel, build_term_model
from .schema import InstancePresentation, Issue, Schema, generator
from .terms import (
    GENERATOR,
    LITERAL,
    FunctionSymbol,
    ReadOnly,
    Record,
    Sort,
    Term,
    Var,
    open_chain,
    render_chain,
    render_term,
    term_chain,
)


class Mapping(ReadOnly, Record):
    """A frozen value; `entity_map` and `symbol_map` (each symbol's image as a chain) are read-only copies."""

    _fields = ("name", "source", "target", "entity_map", "symbol_map")

    def __init__(self, name: str, source: Schema, target: Schema,
                 entity_map: Optional[dict[Sort, Sort]] = None,
                 symbol_map: Optional[dict[FunctionSymbol, tuple]] = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "entity_map", MappingProxyType(dict(entity_map or {})))
        object.__setattr__(self, "symbol_map", MappingProxyType(dict(symbol_map or {})))

    def __hash__(self) -> int:  # the maps as sets, so order does not count, as it does not for equality
        return hash((self.name, self.source, self.target, frozenset(self.entity_map.items()),
                     frozenset(self.symbol_map.items())))

    def __reduce__(self):
        """Copy and pickle by the constructor, the maps given as plain dicts."""
        return type(self), (self.name, self.source, self.target, dict(self.entity_map), dict(self.symbol_map))

    def entity_image(self, e: Sort) -> Sort:
        return self.entity_map[e]

    def sort_image(self, s: Sort) -> Sort:
        return self.entity_map[s] if s.is_entity else s

    def __repr__(self) -> str:
        ents = ", ".join(f"{a.name}->{b.name}" for a, b in self.entity_map.items())
        return f"Mapping({self.name}: {self.source.name} -> {self.target.name}; {ents})"


def identity_mapping(s: Schema, name: Optional[str] = None) -> Mapping:
    ent = {e: e for e in s.entities}
    sym = {f: (Var("x", f.arg_sorts[0]), f) for f in s.symbols}
    return Mapping(name or f"id_{s.name}", s, s, ent, sym)


def mapping_chain(f_map: Mapping, chain: tuple,
                  genmap: Optional[dict[FunctionSymbol, FunctionSymbol]] = None) -> tuple:
    """The chain of a term's translation along the mapping, from the term's chain.

    Each unary symbol becomes the chain of its image without the image's
    variable; a closed image keeps its own 0-ary leaf, which starts the
    term anew.  A variable is re-sorted along the entity map, a generator
    re-routed through `genmap`, and a literal or typeside constant kept.
    """
    out: list = []
    for x in chain:
        if isinstance(x, Var):
            out.append(Var(x.name, f_map.sort_image(x.sort)))
        elif x.arg_sorts:
            image = f_map.symbol_map.get(x)
            if image is None:
                raise SchemaMismatch(f"mapping {f_map.name} has no image for symbol {x.name}")
            out += image[1:] if isinstance(image[0], Var) else image
        elif x.flavor == GENERATOR:
            if genmap is None or x not in genmap:
                raise SchemaMismatch(f"no translation for generator {x.name}")
            out.append(genmap[x])
        else:
            out.append(x)  # a literal or a typeside constant
    return tuple(out)


def probe_model(schema: Schema, entity: Sort) -> TermModel:
    """Term model of the free instance on one generator `_x` at `entity`.

    Two one-variable terms are provably equal iff they agree on it.
    Cached by value and by the class cap `model.MAX_CLASSES` at the call:
    schemas are frozen, so equal schemas share one probe, and a probe
    built under one cap is never read under another.
    """
    return _probes(schema, entity, _model.MAX_CLASSES)


@functools.cache
def _probes(schema: Schema, entity: Sort, cap: int) -> TermModel:
    """`probe_model`'s cache: `cap` only keys it, since saturation reads the cap itself."""
    probe = InstancePresentation(f"_probe_{schema.name}_{entity.name}", schema, [generator("_x", entity)])
    return build_term_model(probe)


def path_key(schema: Schema, entity: Sort) -> Callable[[tuple], Hashable]:
    """A key for each chain rooted at `entity`: two keys are equal iff the theory proves the terms equal.

    A chain here has no variable (`terms.open_chain`).  With no typeside
    equation and no constraint on an entity that foreign keys reach from
    `entity`, the theory proves only syntactic equalities and the key is
    the chain itself.  Otherwise it is the chain's class in the probe
    model, the variable read as its generator `_x`, or the chain itself for
    a literal the probe has never seen; the probe is read at the first key
    asked for.
    """
    if not (schema.typeside.equations or (schema.constraints and _constrained_from(schema, entity))):
        return lambda chain: chain
    x = generator("_x", entity)

    def key(chain: tuple) -> Hashable:
        c = probe_model(schema, entity).walk((x, *chain))
        return chain if c is None else c

    return key


def open_terms_equal(schema: Schema, entity: Sort, t1: Term, t2: Term) -> bool:
    """Provable equality of two one-variable terms rooted at `entity`: their `path_key`s agree.

    Each term's variable, whatever its name, stands for the same element
    of `entity`.
    """
    if t1.sort != t2.sort:
        raise SortMismatch(
            f"cannot compare {render_term(t1)} : {t1.sort.name} with {render_term(t2)} : {t2.sort.name}")
    for t in (t1, t2):
        v = term_chain(t)[0]
        if isinstance(v, Var) and v.sort != entity:
            raise SortMismatch(f"binding for {v.name} has sort {entity.name}, expected {v.sort.name}")
    key = path_key(schema, entity)
    return key(open_chain(t1)) == key(open_chain(t2))


def _constrained_from(schema: Schema, entity: Sort) -> bool:
    """Whether a constraint of `schema` is on an entity that foreign keys reach from `entity`."""
    reached, todo = {entity}, [entity]
    while todo:
        for f in schema.symbols_on(todo.pop()):
            if f.out_sort.is_entity and f.out_sort not in reached:
                reached.add(f.out_sort)
                todo.append(f.out_sort)
    return any(v.sort in reached for con in schema.constraints for v in con.free)


def _path_sort(chain: tuple) -> Optional[Sort]:
    """The sort a chain from its variable reaches, or None unless each symbol takes the sort reached before it."""
    sort = chain[0].sort
    for sym in chain[1:]:
        if isinstance(sym, Var) or sym.arg_sorts != (sort,):
            return None
        sort = sym.out_sort
    return sort


def validate_mapping(f_map: Mapping) -> list[Issue]:
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
        v = image[0]
        if not isinstance(v, Var):
            issues.append(Issue("BadImage", f"image of {f.name} must have exactly one variable"))
            continue
        out = _path_sort(image)
        if out is None:
            issues.append(Issue("BadImage", f"image of {f.name} is not a path from its variable"))
            continue
        want_arg = f_map.sort_image(f.arg_sorts[0])
        want_out = f_map.sort_image(f.out_sort)
        if v.sort != want_arg:
            issues.append(Issue(
                "SortMismatch",
                f"image of {f.name}: variable has sort {v.sort.name}, expected {want_arg.name}"))
        if out != want_out:
            issues.append(Issue(
                "SortMismatch",
                f"image of {f.name} has sort {out.name}, expected {want_out.name}"))
    if issues:
        return issues
    for con in src.constraints:
        key = path_key(tgt, f_map.entity_image(con.free[0].sort))
        if key(mapping_chain(f_map, open_chain(con.lhs))) != key(mapping_chain(f_map, open_chain(con.rhs))):
            issues.append(Issue(
                "EqualityNotPreserved",
                f"target does not prove the image of constraint {con}"))
    return issues


def compose_mappings(f_map: Mapping, g_map: Mapping, *, name: Optional[str] = None) -> Mapping:
    """First f, then g."""
    if f_map.target != g_map.source:
        raise SchemaMismatch(
            f"cannot compose {f_map.name} : ..->{f_map.target.name} with {g_map.name} : {g_map.source.name}->..")
    ent = {e: g_map.entity_map[t] for e, t in f_map.entity_map.items()}
    sym = {f: mapping_chain(g_map, image) for f, image in f_map.symbol_map.items()}
    out = Mapping(name or f"{g_map.name}.{f_map.name}", f_map.source, g_map.target, ent, sym)
    bad = validate_mapping(out)
    if bad:
        raise SchemaMismatch(f"composite mapping invalid: {bad[0]}")
    return out


def mappings_equal(f_map: Mapping, g_map: Mapping) -> bool:
    """Same entity assignment and provably equal symbol images."""
    if f_map.source != g_map.source or f_map.target != g_map.target:
        return False
    if f_map.entity_map != g_map.entity_map:
        return False
    for f in f_map.source.symbols:
        key = path_key(f_map.target, f_map.entity_image(f.arg_sorts[0]))
        if key(f_map.symbol_map[f][1:]) != key(g_map.symbol_map[f][1:]):
            return False
    return True


def render_open_term(chain: tuple) -> str:
    """An image's chain as `lambda v:S. f(v)`, or as its term when it has no variable."""
    v, text = chain[0], render_chain(chain)
    return f"lambda {v.name}:{v.sort.name}. {text}" if isinstance(v, Var) else text


# ---------------------------------------------------------------------------
# Instance morphisms


class InstanceMorphism:
    """A sort-indexed map between term-model carriers commuting with all ops.

    `cmap` maps each class of the source to a class of the target.
    """

    def __init__(self, source: TermModel, target: TermModel, cmap: dict[int, int]):
        self.source, self.target, self.cmap = source, target, cmap

    def apply(self, c: int) -> int:
        return self.cmap[c]

    def __eq__(self, other) -> bool:
        if not isinstance(other, InstanceMorphism):
            return NotImplemented
        return self.cmap == other.cmap

    def __hash__(self):
        return hash(frozenset(self.cmap.items()))

    def violations(self) -> list[str]:
        out: list[str] = []
        src, tgt = self.source, self.target
        if src.schema != tgt.schema:
            return ["source and target live on different schemas"]
        for c in src.all_classes():
            if c not in self.cmap:
                out.append(f"class {c} has no image")
        if out:  # the rest applies the map to every class
            return out
        for s in src.schema.entities:
            cols = [(f, src.column(f), tgt.column(f)) for f in src.schema.symbols_on(s)]
            for c in src.carrier(s):
                for f, here, there in cols:
                    img = self.apply(here[c])
                    d = self.apply(c)
                    if img != (there[d] if d in there else tgt.op(f, d)):  # op raises off the column
                        out.append(f"does not commute with {f.name} at class {c}")
        # every literal of a class: the least one, and the others it collides with
        lits = list(src.literal_of.items())
        lits += [(k.class_id, FunctionSymbol(k.lit2, (), k.sort, LITERAL)) for k in src.collisions]
        for c, sym in lits:
            img = tgt._lookup(sym)
            if img is None or self.apply(c) != img:
                out.append(f"does not fix literal {sym.name}")
        for const in src.schema.typeside.constants:
            if self.apply(src.class_of(const)) != tgt.class_of(const):
                out.append(f"does not preserve constant {const.name}")
        return out

    def is_bijective(self) -> bool:
        imgs = {self.apply(c) for c in self.source.all_classes()}
        return len(imgs) == len(self.source.all_classes()) == len(self.target.all_classes())

    def is_identity(self) -> bool:
        return all(self.apply(c) == c for c in self.source.all_classes())


def identity_morphism(m: TermModel) -> InstanceMorphism:
    return InstanceMorphism(m, m, {c: c for c in m.all_classes()})


def morphism_from_genmap(src: TermModel, tgt: TermModel,
                         genmap: dict[FunctionSymbol, int]) -> InstanceMorphism:
    """Homomorphic extension of a generator assignment, verified once.

    genmap sends each generator of src to a class of tgt, and the
    morphism sends each class of src to a class of tgt.  src is initial,
    so the extension is a morphism exactly when tgt satisfies the
    equations src was saturated from under the assignment
    (`TermModel.satisfied_by`).  When it does not, NoMorphismExists gives
    the first fault of the definitional check: a generator sent elsewhere
    than genmap[g] (the assignment breaks an equation of src), else the
    first of `InstanceMorphism.violations`.
    """
    if src.schema != tgt.schema:
        raise SchemaMismatch("morphism endpoints must share a schema")
    cmap = src.image(tgt, genmap)
    if cmap is None:
        raise NoMorphismExists(f"a literal of {src.name} does not denote in the target")
    h = InstanceMorphism(src, tgt, cmap)
    if not src.satisfied_by(tgt, genmap):
        bad = [f"the assignment of {g.name} breaks an equation of {src.name}"
               for g, d in genmap.items() if h.apply(src.class_of(g)) != d] or h.violations()
        if bad:
            raise NoMorphismExists(bad[0])
    return h
