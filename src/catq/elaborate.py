"""Name resolution and evaluation of parsed .catq programs.

Declarations are validated in order; instance declarations are
saturated into term models immediately, and derived declarations
(sigma/delta/pi/coproduct/compose/identity) are evaluated with the
migration engine.  Terms resolve to chains (`resolve_chain`): the leaf,
then the unary symbols innermost first.  A side of a scanned equation
(`RawEquation.chains`) resolves from its token texts (`resolve_scanned`),
without its tree; both join `resolve_path`, which resolves the leaf, once
per distinct leaf of a declaration, and checks the sorts.  A literal
instance's equations go into saturation as those chains and a mapping
keeps its images as chains, so elaborating either builds no term
objects.  The environment keeps each instance's term model;
`Environment.instances` reads the presentations from the models, so the
presentation of any instance is built only if something reads it (a
later coproduct of it does; a later sigma reads the model's chains).
Directives are resolved but not executed here; the CLI runs them against
the returned environment.
"""

from __future__ import annotations

from collections import abc
from typing import Optional

from .errors import CatqError, ResourceLimit
from .mappings import Mapping, compose_mappings, identity_mapping, validate_mapping
from .matcher import SimilarityConfig
from .migrate import InversionBounds, coproduct, delta, pi, sigma
from .model import TermModel, build_term_model
from .parser import (
    Diagnostic,
    Directive,
    DerivedDecl,
    InstanceDecl,
    MappingDecl,
    Program,
    RawEquation,
    RawImage,
    RawTerm,
    SchemaDecl,
    SourceSpan,
    TypesideDecl,
)
from .schema import (
    InstancePresentation,
    Schema,
    Typeside,
    generator,
    instance_issues as validate_instance,  # an instance's own checks, under the name `bench/spans.py` times
    validate_schema,
    validate_typeside,
)
from .terms import (
    ATTRIBUTE,
    ENTITY,
    FOREIGN_KEY,
    INT,
    STRING,
    TYPE,
    TYPESIDE,
    Equation,
    FunctionSymbol,
    Sort,
    Var,
    fold_chain,
    literal_symbol,
    parse_int_literal,
)


class _Presentations(abc.Mapping):
    """Instance name -> presentation, read from each model when it is looked up."""

    def __init__(self, models: dict[str, TermModel]):
        self._models = models

    def __getitem__(self, name: str) -> InstancePresentation:
        return self._models[name].instance

    def __contains__(self, name) -> bool:  # without building the presentation, as Mapping's would
        return name in self._models

    def __iter__(self):
        return iter(self._models)

    def __len__(self) -> int:
        return len(self._models)


class Environment:
    __slots__ = ("typesides", "schemas", "models", "mappings", "order", "directives")

    def __init__(self, typesides: Optional[dict[str, Typeside]] = None,
                 schemas: Optional[dict[str, Schema]] = None,
                 models: Optional[dict[str, TermModel]] = None,
                 mappings: Optional[dict[str, Mapping]] = None,
                 order: Optional[list[tuple[str, str]]] = None,
                 directives: Optional[list[Directive]] = None):
        self.typesides = {} if typesides is None else typesides
        self.schemas = {} if schemas is None else schemas
        self.models = {} if models is None else models
        self.mappings = {} if mappings is None else mappings
        self.order = [] if order is None else order  # (kind, name)
        self.directives = [] if directives is None else directives

    @property
    def instances(self) -> abc.Mapping[str, InstancePresentation]:
        """The presentation of every instance; a derived one is built when first read."""
        return _Presentations(self.models)

    def defined(self, name: str) -> bool:
        return any(name in d for d in (self.typesides, self.schemas,
                                       self.models, self.mappings))


def _node_span(nodes, k: int) -> SourceSpan:
    """The span of the k-th node from the outside of a chain, its leaf last.

    `nodes` is a tree's list of nodes, or a scanned side's (parser, first token, leaf token).
    """
    if type(nodes) is list:
        return nodes[k].span
    p, first, leaf = nodes
    return p.chain_span(first, leaf, k)


class _Elaborator:
    def __init__(self):
        self.env = Environment()
        self.diags: list[Diagnostic] = []
        self.literals: dict[tuple[str, Sort], FunctionSymbol] = {}

    def error(self, code: str, message: str, span: Optional[SourceSpan] = None):
        self.diags.append(Diagnostic("error", code, message, span))

    def issues_to_diags(self, issues, decl):
        for issue in issues:
            self.error(issue.code, issue.message, decl.span)
        return bool(issues)

    # -- term resolution -------------------------------------------------

    def resolve_chain(self, raw: RawTerm, schema: Schema,
                      gens: dict[str, FunctionSymbol],
                      bound: dict[str, Sort],
                      expected: Optional[Sort],
                      leaves: Optional[dict] = None) -> Optional[tuple[tuple, Sort]]:
        """Resolve a raw application tree against a schema context to its chain and sort.

        Every symbol is unary, so an application is a chain: walk down it,
        looking up each symbol, to the leaf; `resolve_path` does the rest.
        A resolution error is reported with the span of the raw term at fault.
        """
        nodes: list[RawTerm] = []
        syms: list[FunctionSymbol] = []
        while raw.args:
            sym = schema.symbol_named(raw.name)
            if sym is None:
                self.error("UnknownSymbol", f"unknown symbol {raw.name}", raw.span)
                return None
            if len(raw.args) != 1:
                self.error("SortMismatch", f"{raw.name} takes one argument", raw.span)
                return None
            nodes.append(raw)
            syms.append(sym)
            raw = raw.args[0]
        nodes.append(raw)
        return self.resolve_path(syms, raw.name, raw.quoted, schema, gens, bound, expected,
                                 leaves, nodes)

    def resolve_scanned(self, p, first: int, leaf: int, schema: Schema,
                        gens: dict[str, FunctionSymbol],
                        bound: dict[str, Sort],
                        expected: Optional[Sort],
                        leaves: Optional[dict]) -> Optional[tuple[tuple, Sort]]:
        """`resolve_chain` of a scanned side, tokens `first` to `leaf` of parser `p`, from their texts.

        The side's symbols are the texts of every other token from its first
        up to its leaf.
        """
        texts = p.texts
        syms: list[FunctionSymbol] = []
        if first != leaf:
            for j in range(first, leaf, 2):
                sym = schema.symbol_named(texts[j])
                if sym is None:
                    self.error("UnknownSymbol", f"unknown symbol {texts[j]}",
                               p.chain_span(first, leaf, (j - first) >> 1))
                    return None
                syms.append(sym)
        return self.resolve_path(syms, texts[leaf], leaf in p.strings, schema, gens, bound,
                                 expected, leaves, (p, first, leaf))

    def resolve_path(self, syms: list[FunctionSymbol], name: str, quoted: bool, schema: Schema,
                     gens: dict[str, FunctionSymbol],
                     bound: dict[str, Sort],
                     expected: Optional[Sort],
                     leaves: Optional[dict], nodes) -> Optional[tuple[tuple, Sort]]:
        """The chain and sort of the leaf `name` under the unary symbols `syms`, outermost first.

        The leaf is resolved at the innermost symbol's argument sort (or at
        `expected` when there is no symbol) by `resolve_leaf`.  `leaves`, if
        given, keeps what each (name, quoted, sort) resolved to, for one
        context of generators and bound variables; it is keyed by the sort's
        identity, as hashing a sort is a Python call, and the sorts of a
        context outlive it.  Then each symbol's argument sort is checked on
        the way back up.  The chain lists the leaf, then the symbols innermost
        first (`terms.fold_chain`).  `nodes` locates the chain's nodes to
        report an error (`_node_span`).
        """
        if syms:
            expected = syms[-1].arg_sorts[0]
        known = None
        if leaves is not None:
            key = (name, quoted, id(expected))
            known = leaves.get(key)
        if known is None:
            leaf = self.resolve_leaf(name, quoted, schema, gens, bound, expected, nodes, len(syms))
            if leaf is None:
                return None
            known = leaf, leaf.sort if type(leaf) is Var else leaf.out_sort
            if leaves is not None:
                leaves[key] = known
        if not syms:
            return (known[0],), known[1]
        leaf, sort = known
        for k in range(len(syms) - 1, -1, -1):
            sym = syms[k]
            arg = sym.arg_sorts[0]
            if sort is not arg and sort != arg:
                self.error("SortMismatch",
                           f"argument of {sym.name} has sort {sort.name}, "
                           f"expected {arg.name}", _node_span(nodes, k))
                return None
            sort = sym.out_sort
        return (leaf, *syms[::-1]), sort

    def resolve_leaf(self, name: str, quoted: bool, schema: Schema,
                     gens: dict[str, FunctionSymbol],
                     bound: dict[str, Sort],
                     expected: Optional[Sort], nodes, k: int) -> Var | FunctionSymbol | None:
        """What a leaf resolves to: in order, a bound variable, a generator of `gens` (by
        name), a typeside constant, and finally a literal of the expected built-in type.

        The leaf is node k of `nodes`, whose span an error is reported at.
        """
        if not quoted:
            if name in bound:
                return Var(name, bound[name])
            g = gens.get(name)
            if g is not None:
                return g
            const = schema.typeside.constant_named(name)
            if const is not None:
                return const
        if expected is not None and not expected.is_entity and schema.typeside.has_type(expected):
            if expected == INT:
                if parse_int_literal(name) is None:
                    self.error("SortMismatch", f"{name!r} is not an Int literal", _node_span(nodes, k))
                    return None
                return self.literal(name, INT)
            if expected == STRING:
                return self.literal(name, STRING)
        if not quoted and parse_int_literal(name) is not None and schema.typeside.has_type(INT):
            return self.literal(name, INT)
        if quoted and schema.typeside.has_type(STRING):
            return self.literal(name, STRING)
        self.error("NameResolution", f"cannot resolve {name!r}"
                   + (f" at sort {expected.name}" if expected else ""), _node_span(nodes, k))
        return None

    def literal(self, text: str, sort: Sort) -> FunctionSymbol:
        """The literal symbol of `text` at `sort`, made once per (text, sort)."""
        sym = self.literals.get((text, sort))
        if sym is None:
            sym = self.literals[(text, sort)] = literal_symbol(text, sort)
        return sym

    def resolve_sides(self, raw: RawEquation, schema: Schema,
                      gens: dict[str, FunctionSymbol],
                      bound: dict[str, Sort],
                      leaves: Optional[dict] = None) -> Optional[tuple[tuple, tuple]]:
        """The chains of an equation's sides, or None after reporting why they do not resolve.

        A scanned equation is resolved from its tokens, without building its trees.
        """
        chains = raw.chains
        if chains is None:
            lhs = self.resolve_chain(raw.lhs, schema, gens, bound, None, leaves)
        else:
            p, lhs_first, lhs_leaf, rhs_first, rhs_leaf = chains
            lhs = self.resolve_scanned(p, lhs_first, lhs_leaf, schema, gens, bound, None, leaves)
        if lhs is None:
            return None
        if chains is None:
            rhs = self.resolve_chain(raw.rhs, schema, gens, bound, lhs[1], leaves)
        else:
            rhs = self.resolve_scanned(p, rhs_first, rhs_leaf, schema, gens, bound, lhs[1], leaves)
        if rhs is None:
            return None
        if lhs[1] is not rhs[1] and lhs[1] != rhs[1]:
            self.error("SortMismatch",
                       f"equation sides have sorts {lhs[1].name} and {rhs[1].name}", raw.span)
            return None
        return lhs[0], rhs[0]

    def resolve_equation(self, raw: RawEquation, schema: Schema,
                         bound: dict[str, Sort], leaves: Optional[dict] = None) -> Optional[Equation]:
        sides = self.resolve_sides(raw, schema, {}, bound, leaves)
        if sides is None:
            return None
        free = tuple(Var(n, s) for n, s in bound.items())
        return Equation(free, fold_chain(sides[0]), fold_chain(sides[1]))

    # -- declarations ------------------------------------------------------

    def check_fresh(self, d) -> bool:
        if self.env.defined(d.name):
            self.error("NameResolution", f"duplicate declaration of {d.name}", d.span)
            return False
        return True

    def do_typeside(self, d: TypesideDecl):
        types = [STRING, INT] + [Sort(t, TYPE) for t in d.types if t not in ("String", "Int")]
        type_named = {t.name: t for t in reversed(types)}
        constants: list[FunctionSymbol] = []
        for names, sort_name in d.constants:
            sort = type_named.get(sort_name)
            if sort is None:
                self.error("UnknownSort", f"unknown type {sort_name}", d.span)
                continue
            constants.extend(FunctionSymbol(n, (), sort, TYPESIDE) for n in names)
        # typeside equations are resolved against a symbol-free schema shell
        shell = Schema(f"_{d.name}", Typeside(d.name, types, constants))
        leaves: dict = {}
        eqs = [self.resolve_equation(raw, shell, {}, leaves) for raw in d.equations]
        ts = Typeside(d.name, types, constants, [eq for eq in eqs if eq is not None])
        if not self.issues_to_diags(validate_typeside(ts), d):
            self.env.typesides[d.name] = ts
            self.env.order.append(("typeside", d.name))

    def do_schema(self, d: SchemaDecl):
        ts = self.env.typesides.get(d.typeside_ref)
        if ts is None:
            self.error("NameResolution", f"unknown typeside {d.typeside_ref}", d.span)
            return
        entities = [Sort(e, ENTITY) for e in d.entities]
        entity_named = {e.name: e for e in reversed(entities)}
        fks: list[FunctionSymbol] = []
        for names, frm, to in d.foreign_keys:
            a, b = entity_named.get(frm), entity_named.get(to)
            if a is None or b is None:
                self.error("UnknownSort", f"foreign key endpoints {frm} -> {to} must be entities", d.span)
                continue
            fks.extend(FunctionSymbol(n, (a,), b, FOREIGN_KEY) for n in names)
        atts: list[FunctionSymbol] = []
        for names, frm, to in d.attributes:
            a, b = entity_named.get(frm), ts.type_named(to)
            if a is None or b is None:
                self.error("UnknownSort", f"attribute must map an entity to a type: {frm} -> {to}", d.span)
                continue
            atts.extend(FunctionSymbol(n, (a,), b, ATTRIBUTE) for n in names)
        # constraints are resolved against the schema without them
        shell = Schema(d.name, ts, entities, atts, fks)
        constraints: list[Equation] = []
        for raw in d.equations:
            if raw.var is None:
                self.error("BadConstraintShape",
                           "schema equations must be quantified: forall x:E. ...", raw.span)
                continue
            if raw.var_sort is None:
                self.error("BadConstraintShape",
                           f"quantified variable {raw.var} needs a sort annotation", raw.span)
                continue
            vs = entity_named.get(raw.var_sort)
            if vs is None:
                self.error("UnknownSort", f"unknown entity {raw.var_sort}", raw.span)
                continue
            eq = self.resolve_equation(raw, shell, {raw.var: vs})
            if eq is not None:
                constraints.append(eq)
        sch = Schema(d.name, ts, entities, atts, fks, constraints)
        if not self.issues_to_diags(validate_schema(sch), d):
            self.env.schemas[d.name] = sch
            self.env.order.append(("schema", d.name))

    def register_instance(self, name: str, model: TermModel) -> None:
        self.env.models[name] = model
        self.env.order.append(("instance", name))

    def do_instance(self, d: InstanceDecl):
        sch = self.env.schemas.get(d.schema_ref)
        if sch is None:
            self.error("NameResolution", f"unknown schema {d.schema_ref}", d.span)
            return
        generators: list[FunctionSymbol] = []
        for names, sort_name in d.generators:
            sort = sch.sort_named(sort_name)
            if sort is None:
                self.error("UnknownSort", f"unknown sort {sort_name}", d.span)
                continue
            generators.extend(generator(n, sort) for n in names)
        gens = {g.name: g for g in reversed(generators)}  # the first declaration wins
        leaves: dict = {}
        sides = [self.resolve_sides(raw, sch, gens, {}, leaves) for raw in d.equations]
        # the equations resolve to symbols of the schema and generators only, so
        # validating the generators checks all that the equations could break;
        # the schema was validated when it was declared, so only the instance's
        # own checks run here
        pres = InstancePresentation(d.name, sch, generators)
        if self.issues_to_diags(validate_instance(pres), d):
            return
        try:
            model = build_term_model(pres, [s for s in sides if s is not None])
        except ResourceLimit as e:
            self.error("ResourceLimit", str(e), d.span)
            return
        self.register_instance(d.name, model)

    def resolve_image(self, img: RawImage, tgt: Schema, arg_sort: Sort) -> Optional[tuple]:
        """Resolve a mapping image over `tgt`, in lambda or shorthand form, to its chain.

        The bound variable has sort `arg_sort`.  In shorthand form a bare
        target symbol `g` stands for `g(x)`; any other body is a term whose
        single unresolved leaf is taken to be the bound variable.
        """
        body = img.body
        if img.var is not None:
            if img.var_sort is not None and img.var_sort != arg_sort.name:
                self.error("SortMismatch",
                           f"lambda variable must have sort {arg_sort.name}", img.span)
                return None
            bound = {img.var: arg_sort}
        elif not body.args and not body.quoted and tgt.symbol_named(body.name) is not None:
            body = RawTerm(body.name, body._span, [RawTerm("x", body._span)])
            bound = {"x": arg_sort}
        else:
            # shorthand: find the variable leaf (the one unknown identifier)
            leaves: set[str] = set()

            def scan(r: RawTerm):
                if r.args:
                    for a in r.args:
                        scan(a)
                elif not r.quoted and tgt.typeside.constant_named(r.name) is None \
                        and parse_int_literal(r.name) is None:
                    leaves.add(r.name)

            scan(body)
            if len(leaves) > 1:
                self.error("NameResolution",
                           f"mapping image has several candidate variables: {sorted(leaves)}", img.span)
                return None
            bound = {name: arg_sort for name in leaves}
        resolved = self.resolve_chain(body, tgt, {}, bound, None)
        return None if resolved is None else resolved[0]

    def do_mapping(self, d: MappingDecl):
        src = self.env.schemas.get(d.source_ref)
        tgt = self.env.schemas.get(d.target_ref)
        if src is None or tgt is None:
            self.error("NameResolution",
                       f"unknown schema in mapping header: {d.source_ref} -> {d.target_ref}", d.span)
            return
        ent: dict[Sort, Sort] = {}
        for a, b in d.entities:
            ea, eb = src.entity_named(a), tgt.entity_named(b)
            if ea is None or eb is None:
                self.error("UnknownSort", f"unknown entity in {a} -> {b}", d.span)
                continue
            ent[ea] = eb
        syms: dict[FunctionSymbol, tuple] = {}
        for fname, img in d.foreign_keys + d.attributes:
            sym = src.symbol_named(fname)
            if sym is None:
                self.error("UnknownSymbol", f"unknown source symbol {fname}", img.span)
                continue
            if sym.arg_sorts[0] not in ent:
                self.error("NameResolution",
                           f"entity {sym.arg_sorts[0].name} has no image yet (declare it first)",
                           img.span)
                continue
            chain = self.resolve_image(img, tgt, ent[sym.arg_sorts[0]])
            if chain is not None:
                syms[sym] = chain
        f_map = Mapping(d.name, src, tgt, ent, syms)
        try:
            issues = validate_mapping(f_map)
        except ResourceLimit as e:
            self.error("ResourceLimit", str(e), d.span)
            return
        if self.issues_to_diags(issues, d):
            return
        self.env.mappings[d.name] = f_map
        self.env.order.append(("mapping", d.name))

    def do_derived(self, d: DerivedDecl):
        try:
            if d.op in ("sigma", "delta", "pi"):
                f_map = self.env.mappings.get(d.args[0])
                inst_name = d.args[1]
                if f_map is None:
                    self.error("NameResolution", f"unknown mapping {d.args[0]}", d.span)
                    return
                if inst_name not in self.env.models:
                    self.error("NameResolution", f"unknown instance {inst_name}", d.span)
                    return
                if d.op == "sigma":
                    res = sigma(f_map, self.env.models[inst_name], name=d.name)
                elif d.op == "delta":
                    res = delta(f_map, self.env.models[inst_name], name=d.name)
                else:
                    res = pi(f_map, self.env.models[inst_name], name=d.name)
                self.register_instance(d.name, res.model)
            elif d.op == "coproduct":
                parts = []
                for a in d.args:
                    if a not in self.env.models:
                        self.error("NameResolution", f"unknown instance {a}", d.span)
                        return
                    parts.append(self.env.models[a].instance)
                pres = coproduct(parts[0], parts[1], name=d.name)
                self.register_instance(d.name, build_term_model(pres))
            elif d.op == "compose":
                # `compose F G` is the pipeline: first F, then G
                maps = [self.env.mappings.get(a) for a in d.args]
                if any(m is None for m in maps):
                    self.error("NameResolution", f"unknown mapping among {d.args}", d.span)
                    return
                h = compose_mappings(maps[0], maps[1], name=d.name)
                self.env.mappings[d.name] = h
                self.env.order.append(("mapping", d.name))
            elif d.op == "identity":
                sch = self.env.schemas.get(d.args[0])
                if sch is None:
                    self.error("NameResolution", f"unknown schema {d.args[0]}", d.span)
                    return
                h = identity_mapping(sch, name=d.name)
                self.env.mappings[d.name] = h
                self.env.order.append(("mapping", d.name))
        except ResourceLimit as e:
            self.error("ResourceLimit", str(e), d.span)
        except CatqError as e:
            self.error(type(e).__name__, str(e), d.span)

    def do_directive(self, d: Directive):
        if d.op == "check":
            if d.args[0] not in self.env.models:
                self.error("NameResolution", f"unknown instance {d.args[0]}", d.span)
                return
        elif d.op == "invert":
            if d.args[0] not in self.env.mappings:
                self.error("NameResolution", f"unknown mapping {d.args[0]}", d.span)
                return
            if not self.option_in_range(InversionBounds, d.depth, d):
                return
        elif d.op == "match":
            for a in d.args:
                if a not in self.env.schemas:
                    self.error("NameResolution", f"unknown schema {a}", d.span)
                    return
            if d.cutoff is not None and not d.span_match:
                self.error("BadOption", "match takes a cutoff only with span", d.span)
                return
            if not self.option_in_range(SimilarityConfig, d.cutoff, d):
                return
        self.env.directives.append(d)

    def option_in_range(self, config, value, d: Directive) -> bool:
        """Whether a directive's search option is not given or is one that `config` accepts."""
        if value is not None:
            try:
                config(value)
            except ValueError as e:
                self.error("BadOption", str(e), d.span)
                return False
        return True

    def run(self, prog: Program) -> Environment:
        for d in prog.decls:
            if isinstance(d, TypesideDecl):
                if self.check_fresh(d):
                    self.do_typeside(d)
            elif isinstance(d, SchemaDecl):
                if self.check_fresh(d):
                    self.do_schema(d)
            elif isinstance(d, InstanceDecl):
                if self.check_fresh(d):
                    self.do_instance(d)
            elif isinstance(d, MappingDecl):
                if self.check_fresh(d):
                    self.do_mapping(d)
            elif isinstance(d, DerivedDecl):
                if self.check_fresh(d):
                    self.do_derived(d)
            elif isinstance(d, Directive):
                self.do_directive(d)
        return self.env


def elaborate(prog: Program) -> tuple[Environment, list[Diagnostic]]:
    """Resolve, validate and evaluate a parsed program in order."""
    elab = _Elaborator()
    env = elab.run(prog)
    return env, elab.diags
