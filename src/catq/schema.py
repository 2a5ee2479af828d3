"""The three theory layers: typesides, schemas, and instance presentations.

Each layer extends the previous one with new symbols.  All three are
frozen values: their list fields are stored as tuples, and name lookups
are built once per object, on first use.  Validation returns a list of
issues (empty list = ok) so callers can report every problem at once;
the DSL elaborator attaches source spans to these issues.
"""

from __future__ import annotations

from functools import cached_property
from typing import AbstractSet, Iterable, Optional

from .terms import (
    ENTITY,
    GENERATOR,
    INT,
    LITERAL,
    STRING,
    TYPE,
    TYPESIDE,
    App,
    Equation,
    FunctionSymbol,
    ReadOnly,
    Record,
    Sort,
    Term,
    render_term,
)


class Issue(ReadOnly):
    __slots__ = ("code", "message")

    def __init__(self, code: str, message: str):
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "message", message)

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


def _tuples(obj, **fields: Iterable) -> None:
    """Store the given fields of a read-only value, each as a tuple."""
    for n, items in fields.items():
        object.__setattr__(obj, n, tuple(items))


def _by_name(items) -> dict:
    """Name -> item, keeping the first item of each name."""
    return {x.name: x for x in reversed(items)}


class Typeside(ReadOnly, Record):
    _fields = ("name", "types", "constants", "equations")

    def __init__(self, name: str, types: Iterable[Sort] = (STRING, INT),
                 constants: Iterable[FunctionSymbol] = (), equations: Iterable[Equation] = ()):
        object.__setattr__(self, "name", name)
        _tuples(self, types=types, constants=constants, equations=equations)

    @cached_property
    def _types(self) -> dict[str, Sort]:
        return _by_name(self.types)

    @cached_property
    def _constants(self) -> dict[str, FunctionSymbol]:
        return _by_name(self.constants)

    def has_type(self, sort: Sort) -> bool:
        return sort in self.types

    def type_named(self, name: str) -> Optional[Sort]:
        return self._types.get(name)

    def constant_named(self, name: str) -> Optional[FunctionSymbol]:
        return self._constants.get(name)


def builtin_typeside(name: str = "Ty") -> Typeside:
    """The default typeside: built-in String and Int with literal syntax."""
    return Typeside(name)


def validate_typeside(ts: Typeside) -> list[Issue]:
    issues: list[Issue] = []
    seen: set[str] = set()
    for t in ts.types:
        if t.kind != TYPE:
            issues.append(Issue("UnknownSort", f"{t.name} declared on a typeside but is not a type"))
        if t.name in seen:
            issues.append(Issue("DuplicateName", f"duplicate type {t.name}"))
        seen.add(t.name)
    for c in ts.constants:
        if c.arity != 0:
            issues.append(Issue("BadConstant", f"constant {c.name} must be 0-ary"))
        if not ts.has_type(c.out_sort):
            issues.append(Issue("UnknownSort", f"constant {c.name} has unknown type {c.out_sort.name}"))
        if c.name in seen:
            issues.append(Issue("DuplicateName", f"duplicate name {c.name}"))
        seen.add(c.name)
    for eq in ts.equations:
        if not eq.is_ground:
            issues.append(Issue("NonGroundTypesideEquation", f"typeside equation must be ground: {eq}"))
    return issues


class Schema(ReadOnly, Record):
    _fields = ("name", "typeside", "entities", "attributes", "foreign_keys", "constraints")

    def __init__(self, name: str, typeside: Typeside, entities: Iterable[Sort] = (),
                 attributes: Iterable[FunctionSymbol] = (), foreign_keys: Iterable[FunctionSymbol] = (),
                 constraints: Iterable[Equation] = ()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "typeside", typeside)
        _tuples(self, entities=entities, attributes=attributes, foreign_keys=foreign_keys,
                constraints=constraints)

    @cached_property
    def symbols(self) -> tuple[FunctionSymbol, ...]:
        return self.foreign_keys + self.attributes

    @cached_property
    def _entities(self) -> dict[str, Sort]:
        return _by_name(self.entities)

    @cached_property
    def _symbols(self) -> dict[str, FunctionSymbol]:
        return _by_name(self.symbols)

    @cached_property
    def _symbol_set(self) -> frozenset[FunctionSymbol]:
        return frozenset(self.symbols)

    @cached_property
    def _symbols_on(self) -> dict[tuple[Sort, ...], tuple[FunctionSymbol, ...]]:
        on: dict[tuple[Sort, ...], list[FunctionSymbol]] = {}
        for f in self.symbols:
            on.setdefault(f.arg_sorts, []).append(f)
        return {args: tuple(fs) for args, fs in on.items()}

    def entity_named(self, name: str) -> Optional[Sort]:
        return self._entities.get(name)

    def sort_named(self, name: str) -> Optional[Sort]:
        return self.entity_named(name) or self.typeside.type_named(name)

    def symbol_named(self, name: str) -> Optional[FunctionSymbol]:
        return self._symbols.get(name)

    def symbols_on(self, sort: Sort) -> tuple[FunctionSymbol, ...]:
        """Foreign keys then attributes applicable to an entity, in declaration order."""
        return self._symbols_on.get((sort,), ())

    def owns_symbol(self, sym: FunctionSymbol) -> bool:
        if sym.flavor == LITERAL:
            return self.typeside.has_type(sym.out_sort)
        if sym.flavor == TYPESIDE:
            return sym in self.typeside.constants
        return sym in self._symbol_set


def validate_schema(s: Schema) -> list[Issue]:
    issues = validate_typeside(s.typeside)
    seen = {t.name for t in s.typeside.types} | {c.name for c in s.typeside.constants}
    for e in s.entities:
        if e.kind != ENTITY:
            issues.append(Issue("UnknownSort", f"{e.name} declared as entity but has kind {e.kind}"))
        if e.name in seen:
            issues.append(Issue("DuplicateName", f"duplicate name {e.name}"))
        seen.add(e.name)
    sym_seen: set[str] = set()
    for f in s.foreign_keys:
        if len(f.arg_sorts) != 1 or not f.arg_sorts[0].is_entity or f.arg_sorts[0] not in s.entities:
            issues.append(Issue("TypeToEntityFunction", f"foreign key {f.name} must go from an entity"))
        if not f.out_sort.is_entity or f.out_sort not in s.entities:
            issues.append(Issue("UnknownSort", f"foreign key {f.name} must land in an entity"))
        if f.name in sym_seen:
            issues.append(Issue("DuplicateName", f"duplicate symbol {f.name}"))
        sym_seen.add(f.name)
    for a in s.attributes:
        if len(a.arg_sorts) != 1 or not a.arg_sorts[0].is_entity or a.arg_sorts[0] not in s.entities:
            issues.append(Issue("TypeToEntityFunction", f"attribute {a.name} must go from an entity"))
        if a.out_sort.is_entity or not s.typeside.has_type(a.out_sort):
            issues.append(Issue("UnknownSort", f"attribute {a.name} must land in a type"))
        if a.name in sym_seen:
            issues.append(Issue("DuplicateName", f"duplicate symbol {a.name}"))
        sym_seen.add(a.name)
    for eq in s.constraints:
        if len(eq.free) != 1 or not eq.free[0].sort.is_entity:
            issues.append(Issue(
                "BadConstraintShape",
                f"constraint must have exactly one entity-sorted variable: {eq}"))
        elif eq.free[0].sort not in s.entities:
            issues.append(Issue("UnknownSort", f"constraint variable has unknown entity {eq.free[0].sort.name}"))
        issues.extend(_check_symbols(s, frozenset(), eq.lhs))
        issues.extend(_check_symbols(s, frozenset(), eq.rhs))
    return issues


class InstancePresentation(ReadOnly, Record):
    """A schema extended with 0-ary generators and ground equations."""

    _fields = ("name", "schema", "generators", "equations")

    def __init__(self, name: str, schema: Schema, generators: Iterable[FunctionSymbol] = (),
                 equations: Iterable[Equation] = ()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "schema", schema)
        _tuples(self, generators=generators, equations=equations)


def generator(name: str, sort: Sort) -> FunctionSymbol:
    return FunctionSymbol(name, (), sort, GENERATOR)


def _check_symbols(s: Schema, gens: AbstractSet[FunctionSymbol], t: Term) -> list[Issue]:
    """Issues for the symbols of t that neither the schema nor `gens` declares.

    The subterms are visited in pre-order, left to right: the loop follows
    each first argument down, and a stack holds the later arguments.
    """
    issues: list[Issue] = []
    stack = [t]
    while stack:
        t = stack.pop()
        while isinstance(t, App):
            sym = t.sym
            if not (s.owns_symbol(sym) or sym in gens):
                issues.append(Issue("UnknownSymbol", f"unknown symbol {sym.name} in {render_term(t)}"))
            if not t.args:
                break
            stack += t.args[:0:-1]
            t = t.args[0]
    return issues


def validate_instance(i: InstancePresentation) -> list[Issue]:
    """The issues of i's schema, then those of its own generators and equations."""
    return validate_schema(i.schema) + instance_issues(i)


def instance_issues(i: InstancePresentation) -> list[Issue]:
    """The issues of i's generators and equations, its schema taken as valid."""
    issues: list[Issue] = []
    names = {e.name for e in i.schema.entities} | {f.name for f in i.schema.symbols} \
        | {c.name for c in i.schema.typeside.constants}
    for g in i.generators:
        if g.arity != 0:
            issues.append(Issue("BadGenerator", f"generator {g.name} must be 0-ary"))
        if i.schema.sort_named(g.out_sort.name) != g.out_sort:
            issues.append(Issue("UnknownSort", f"generator {g.name} has unknown sort {g.out_sort.name}"))
        if g.name in names:
            issues.append(Issue("DuplicateName", f"generator {g.name} shadows another declaration"))
        names.add(g.name)
    gens = set(i.generators)
    for eq in i.equations:
        if not eq.is_ground:
            issues.append(Issue("NonGroundEquation", f"instance equation must be ground: {eq}"))
        issues.extend(_check_symbols(i.schema, gens, eq.lhs))
        issues.extend(_check_symbols(i.schema, gens, eq.rhs))
    return issues


def empty_instance(name: str, schema: Schema) -> InstancePresentation:
    return InstancePresentation(name, schema)

