"""Saturation of instance presentations into term models (initial algebras).

The engine is a union-find over nodes with congruence repair.  Every
symbol is unary or 0-ary, so a node is a symbol over one child class, or
over none, and each symbol has its own table from the root of a child
class to the node that applies the symbol to it; together the tables
hash-cons the nodes.  A ground term is a chain: a tuple of symbols folded
left, in which a 0-ary symbol starts a term and a unary symbol applies to
the term so far (`terms.fold_chain`), and a ground equation is a pair of
chains.  Saturation seeds the engine with the typeside constants, the
generators, the sides of every typeside equation and each pair of chains,
both sides added and then merged, in order.  It then runs worklist
generations.  A generation takes the nodes created by the previous one
(the seeding counts as generation zero) and, for each of them that is
still the least node of its class, (a) applies every attribute and
foreign key on its sort and (b) instantiates every schema constraint of
its sort.  Nothing else needs revisiting: congruence carries both the
closure and the constraint instances of a class across a merge.  One
generation is one round for `SaturationLimits.max_rounds`, and per-sort
class counts are kept as nodes are added and merged.  Finiteness of the
term model is undecidable in general, so the limits turn potential
divergence into an explicit ResourceLimit error.

A union absorbs the class with fewer uses (the nodes over it), so a node
changes its table key at most logarithmically often, whatever order the
merges come in (Nelson and Oppen, "Fast Decision Procedures Based on
Congruence Closure", JACM 1980; Downey, Sethi and Tarjan, JACM 1980).
Which root survives never shows: each root keeps the least node id of its
class, and that id names the class once frozen.

`saturate` is the one constructor of term models: chains, generations,
freeze.  `build_term_model` is `saturate` on the chains of a
presentation's equations; the elaborator passes the chains it resolves a
literal instance to, and the migration functors the chains of the tables
they compute (`catq.migrate`).  A model keeps its generators and chains,
so the morphism search reads them directly, and builds its presentation
from them the first time `TermModel.instance` is read, unless it was
saturated from one.

Freezing turns the saturated engine into a `TermModel`.  It records, for
every node, its class (the least node id) and its engine root, which keys
the symbol tables.  It then resolves classes level by level in the depth
of their least term: a node becomes a candidate when its child class is
resolved, each class takes its least candidate under (symbol name, child
rank), and the classes of a level get integer ranks in that order.  Ranks
order classes as their canonical terms are ordered by depth, then symbol
name, then arguments (the order `term_key` in the tests' oracle spells
out), which fixes the carrier order and the entity ids.  The freeze
records only the symbol and child class of each class's canonical term;
`TermModel.canonical` builds the terms themselves the first time it is
read, and the labels are built once, on first use, from the same record.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .errors import ResourceLimit, SortMismatch, UnknownSymbol
from .schema import InstancePresentation, Schema
from .terms import (
    LITERAL,
    App,
    FunctionSymbol,
    Sort,
    Term,
    Var,
    fold_chain,
    ground_eq,
    open_chain,
    render_term,
    term_chain,
)

# a chain is a tuple of symbols folded left (`terms.fold_chain`); an equation is a pair of them
Chain = tuple[FunctionSymbol, ...]
_NO_NODES: dict[int, int] = {}  # the table of a symbol the model never applied


@dataclass(frozen=True)
class SaturationLimits:
    max_classes_per_sort: int = 10000
    max_rounds: int = 1000

    def __post_init__(self):
        if self.max_classes_per_sort <= 0 or self.max_rounds <= 0:
            raise ValueError("saturation limits must be strictly positive")


DEFAULT_LIMITS = SaturationLimits()


@dataclass(frozen=True)
class Collision:
    """Two distinct literals proved equal: the instance is inconsistent."""

    sort: Sort
    lit1: str
    lit2: str
    class_id: int

    def __str__(self) -> str:
        return f"Collision({self.lit1}, {self.lit2}) at sort {self.sort.name}"


class _Engine:
    """Union-find over unary and 0-ary nodes, with one table per symbol and congruence repair.

    Node n applies `node_sym[n]` to the class of node `node_child[n]`, or
    to nothing when that is -1.  `tables[sym]` maps the root of a child
    class (-1 for none) to the node applying sym to it, and `node_table[n]`
    is node n's table, so repair never hashes a symbol.  `uses[r]` holds
    every node over the class of root r.  A union makes the root with the
    shorter use list a child of the other and re-keys that list's nodes:
    only their keys change.  `least[r]` is the least node id of root r's
    class.  `sort_of[n]` is the index in `sorts` of node n's sort, so no
    node hashes a `Sort`.
    """

    def __init__(self):
        self.parent: list[int] = []
        self.least: list[int] = []
        self.node_sym: list[FunctionSymbol] = []
        self.node_child: list[int] = []
        self.node_table: list[dict[int, int]] = []
        self.sort_of: list[int] = []
        self.sorts: list[Sort] = []  # each sort once, in the order first seen
        self.sort_at: dict[int, int] = {}  # id() of each Sort object seen -> its sort's index
        self.tables: dict[FunctionSymbol, dict[int, int]] = {}
        self.uses: dict[int, list[int]] = {}
        self.class_count: dict[int, int] = {}  # sort index -> classes, in the order of the sorts' first nodes
        self.created: list[int] = []  # nodes added since the worklist last took them

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def sort_id(self, s: Sort) -> int:
        """The index of s in `sorts`; each sort seen is held by a symbol or the schema, so its id is its own."""
        i = self.sort_at.get(id(s))
        if i is None:
            if s not in self.sorts:
                self.sorts.append(s)
            i = self.sort_at[id(s)] = self.sorts.index(s)
        return i

    def table(self, sym: FunctionSymbol) -> dict[int, int]:
        tab = self.tables.get(sym)
        if tab is None:
            tab = self.tables[sym] = {}
        return tab

    def add(self, sym: FunctionSymbol, c: int = -1) -> int:
        """Class of sym applied to the class of c (-1: sym is 0-ary), adding the node if it is new."""
        return self.apply(self.table(sym), sym, self.find(c) if c >= 0 else -1)

    def apply(self, tab: dict[int, int], sym: FunctionSymbol, r: int) -> int:
        """`add` with sym's table `tab` resolved and the child class given by its root r (or -1)."""
        hit = tab.get(r)
        if hit is not None:
            return self.find(hit)
        n = len(self.parent)
        self.parent.append(n)
        self.least.append(n)
        self.node_sym.append(sym)
        self.node_child.append(r)
        self.node_table.append(tab)
        s = self.sort_id(sym.out_sort)
        self.sort_of.append(s)
        tab[r] = n
        if r >= 0:
            uses = self.uses.get(r)
            if uses is None:
                self.uses[r] = [n]
            else:
                uses.append(n)
        self.class_count[s] = self.class_count.get(s, 0) + 1
        self.created.append(n)
        return n

    def add_chain(self, chain: Chain, c: int = -1) -> int:
        """Class of the term a chain spells, adding its missing nodes in chain order.

        A chain that starts with a unary symbol applies it to the class of
        c, and an empty one is that class.
        """
        for sym in chain:
            c = self.add(sym, c if sym.arg_sorts else -1)
        return c

    def merge(self, a: int, b: int) -> None:
        """Union the classes of a and b and repair congruence.

        The root with fewer uses is absorbed.  Only the nodes over the
        absorbed class change their table key, and its use list holds every
        one of them: `apply` files each node under the root of its child,
        and every union concatenates the absorbed class's uses onto the
        survivor's.  So each union costs the size of the shorter use list,
        and a node is re-keyed only when its list at least doubles.
        """
        parent, least, uses = self.parent, self.least, self.uses
        work = [(a, b)]
        while work:
            x, y = work.pop()
            rx, ry = self.find(x), self.find(y)
            if rx == ry:
                continue
            sx, sy = self.sort_of[rx], self.sort_of[ry]
            if sx != sy:
                if least[ry] < least[rx]:
                    sx, sy = sy, sx
                raise SortMismatch(
                    f"cannot merge classes of sorts {self.sorts[sx].name} and {self.sorts[sy].name}")
            ux, uy = uses.get(rx), uses.get(ry)
            if uy is not None and (ux is None or len(ux) < len(uy)):
                rx, ry, ux, uy = ry, rx, uy, ux
            parent[ry] = rx
            if least[ry] < least[rx]:
                least[rx] = least[ry]
            self.class_count[sx] -= 1
            if uy is None:
                continue
            del uses[ry]
            for p in uy:  # p's child class was ry's and is rx's now
                tab = self.node_table[p]
                q = tab.get(rx)
                if q is None:
                    tab[rx] = p
                elif self.find(q) != self.find(p):
                    work.append((p, q))
            if ux is None:
                uses[rx] = uy
            else:
                ux.extend(uy)


# presentation id -> the first live model that read it as its `instance`, while that model lives
_read_from: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def model_read_as(inst: InstancePresentation) -> Optional["TermModel"]:
    """A live model that read `inst` as its `instance` and whose chains are its equations' chains, or None.

    Saturating the one or the other gives the same model, so a cache may
    key a computation on either by the model.  The first model to read
    `inst` stands for it while that model lives; once it dies, the next
    model to read `inst` does.
    """
    return _read_from.get(id(inst))


class TermModel:
    """The computed initial algebra of an instance presentation.

    Immutable after construction; safe to share across threads.  A class
    is named by the least id among its nodes.  Queries read two arrays
    frozen at construction, the class of each node and the engine root
    that keys the symbol tables, and never write to the engine.
    `canonical`, `instance` and the labels are computed on first read and
    cached; two threads reading one first at once build equal values.
    `generators` and `chains` are what the model was saturated from.
    """

    def __init__(self, schema: Schema, name: str, engine: _Engine,
                 generators: tuple[FunctionSymbol, ...], chains: Sequence[tuple[Chain, Chain]],
                 presentation: Optional[InstancePresentation] = None):
        self.schema = schema
        self.name = name
        self.generators = generators
        self.chains = chains
        self._presentation = presentation
        self._eng = engine
        self._cls: list[int] = []  # node -> its class
        self._key: list[int] = []  # node -> the engine root of its class, its key in the tables
        # per class, children first: the symbol and child class (or -1) of its canonical term
        self._chosen: dict[int, tuple[FunctionSymbol, int]] = {}
        self.carriers: dict[Sort, list[int]] = {}
        self.id_label: dict[int, int] = {}
        self.literal_of: dict[int, FunctionSymbol] = {}  # class -> its least literal
        self.collisions: list[Collision] = []
        self._freeze()

    # -- construction -------------------------------------------------

    def _freeze(self) -> None:
        eng = self._eng
        key = self._key = list(map(eng.find, range(len(eng.parent))))
        least = eng.least
        cls = self._cls = [least[r] for r in key]
        syms, child, uses = eng.node_sym, eng.node_child, eng.uses
        leaves = [n for n, k in enumerate(child) if k < 0]

        # level d resolves the classes whose least term has depth d; the
        # candidates of level d are the nodes whose child resolved at d - 1
        rank = [0] * len(cls)  # class -> rank, 0 until resolved
        chosen = self._chosen
        level = leaves
        next_rank = 0
        while level:
            best: dict[int, tuple[tuple[str, int], int]] = {}
            for n in level:
                c = cls[n]
                if rank[c]:
                    continue
                k = child[n]
                order = (syms[n].name, rank[cls[k]] if k >= 0 else 0)
                b = best.get(c)
                if b is None or order < b[0]:
                    best[c] = (order, n)
            level = []
            prev = None
            for c, (order, n) in sorted(best.items(), key=lambda kv: kv[1][0]):
                if order != prev:
                    next_rank += 1
                    prev = order
                rank[c] = next_rank
                k = child[n]
                chosen[c] = (syms[n], cls[k] if k >= 0 else -1)
                level += uses.get(key[c], ())  # the nodes over c

        by_sort: dict[int, list[int]] = {}
        for n, c in enumerate(cls):
            if n == c:
                by_sort.setdefault(eng.sort_of[c], []).append(c)
        for s in self.schema.entities + self.schema.typeside.types:
            cs = sorted(by_sort.get(eng.sort_id(s), []), key=rank.__getitem__)
            self.carriers[s] = cs
            if s.is_entity:
                for i, c in enumerate(cs):
                    self.id_label[c] = i + 1
        # a literal is one node (hash-consed), so a class's literal nodes are its distinct literals
        lits: dict[int, list[FunctionSymbol]] = {}
        for n in leaves:
            sym = syms[n]
            if sym.flavor == LITERAL:
                lits.setdefault(cls[n], []).append(sym)
        for c, group in sorted(lits.items()):
            first, *others = sorted(group, key=lambda sym: sym.name)
            self.literal_of[c] = first
            for other in others:
                self.collisions.append(Collision(eng.sorts[eng.sort_of[c]], first.name, other.name, c))

    @cached_property
    def instance(self) -> InstancePresentation:
        """The presentation this is the term model of: the one given, or one built from the chains."""
        inst = self._presentation
        if inst is None:
            inst = InstancePresentation(self.name, self.schema, self.generators,
                                        [ground_eq(fold_chain(l), fold_chain(r)) for l, r in self.chains])
        # a 0-ary symbol inside a chain discards the term so far, which the equation does not spell
        if all(sym.arg_sorts for pair in self.chains for side in pair for sym in side[1:]):
            _read_from.setdefault(id(inst), self)
        return inst

    @cached_property
    def canonical(self) -> dict[int, Term]:
        """Class -> its canonical term, the least term of the class."""
        out: dict[int, Term] = {}
        for c, (sym, k) in self._chosen.items():
            out[c] = App(sym, (out[k],)) if k >= 0 else App(sym)
        return out

    @cached_property
    def _labels(self) -> dict[int, str]:
        """Class -> `label`, built children first."""
        shown: dict[int, str] = {}  # the canonical term, with entity subterms shown as ids
        ids = self.id_label
        for c, (sym, k) in self._chosen.items():
            i = ids.get(c)
            if i is not None:
                shown[c] = str(i)
            elif k < 0:
                shown[c] = sym.name
            else:
                shown[c] = f"{sym.name}({shown[k]})"
        for c, lit in self.literal_of.items():
            shown[c] = lit.name
        return shown

    # -- queries -------------------------------------------------------

    def find(self, c: int) -> int:
        return self._cls[c]

    def carrier(self, sort: Sort) -> list[int]:
        return self.carriers.get(sort, [])

    def all_classes(self) -> list[int]:
        out: list[int] = []
        for s in self.schema.entities + self.schema.typeside.types:
            out.extend(self.carriers.get(s, []))
        return out

    def sort_of(self, c: int) -> Sort:
        return self._eng.sorts[self._eng.sort_of[c]]

    def _lookup(self, sym: FunctionSymbol, c: int = -1) -> Optional[int]:
        """Class of sym applied to class c (-1: sym is 0-ary), or None when the model has no such term."""
        return self.walk((sym,), None, c)

    def op(self, sym: FunctionSymbol, c: int) -> int:
        """Apply a unary symbol's operation table to a class."""
        hit = self._lookup(sym, c)
        if hit is None:
            raise UnknownSymbol(f"no {sym.name} application on class {c}")
        return hit

    def column(self, sym: FunctionSymbol) -> dict[int, int]:
        """Class c -> `op(sym, c)`, for c in the carrier of sym's argument sort, in carrier order."""
        tab, key, cls = self._eng.tables.get(sym, {}), self._key, self._cls
        carrier = self.carrier(sym.arg_sorts[0])
        try:
            return {c: cls[tab[key[c]]] for c in carrier}
        except KeyError:
            c = next(c for c in carrier if key[c] not in tab)
            raise UnknownSymbol(f"no {sym.name} application on class {c}") from None

    def table(self, sort: Sort, chain: Chain) -> dict[int, int]:
        """Class c -> the class the chain walks to from c, for c in the carrier of `sort`.

        The chain is unary symbols rooted at `sort` (`terms.open_chain`), such
        as a symbol image of a mapping or a path; it is read one column per symbol.
        """
        out = {c: c for c in self.carrier(sort)}
        for sym in chain:
            col = self.column(sym)
            out = {c: col[v] for c, v in out.items()}
        return out

    def walk(self, chain: Chain, genmap: Optional[Mapping[FunctionSymbol, int]] = None,
             start: int = -1) -> Optional[int]:
        """Class of the term a chain spells, one table lookup per symbol, or None if the model lacks one.

        A chain that starts with a unary symbol applies it to class `start`,
        and an empty one is `start`.  `genmap` re-routes generators to classes.
        """
        tables, key, cls = self._eng.tables, self._key, self._cls
        c = start
        for sym in chain:
            if sym.arg_sorts:
                hit = tables.get(sym, _NO_NODES).get(key[c])
            else:
                d = genmap.get(sym) if genmap else None
                if d is not None:
                    c = cls[d]
                    continue
                hit = tables.get(sym, _NO_NODES).get(-1)
            if hit is None:
                return None
            c = cls[hit]
        return c

    def eval(self, t: Term, genmap: Optional[Mapping[FunctionSymbol, int]] = None,
             varmap: Optional[Mapping[str, int]] = None) -> Optional[int]:
        """Class denoted by a ground term, or None for a never-seen literal.

        `genmap` re-routes generator symbols to existing classes (used
        when extending morphisms homomorphically); `varmap` binds
        variables of open terms to classes.
        """
        chain, c, lead = term_chain(t), -1, 0
        if isinstance(chain[0], Var):
            v = chain[0]
            if varmap is None or v.name not in varmap:
                raise UnknownSymbol(f"unbound variable {v.name}")
            c, lead = self.find(varmap[v.name]), 1
        for i in range(lead, len(chain)):  # a step at a time, to name the application the model lacks
            c = self.walk(chain[i:i + 1], genmap, c)
            if c is None:
                if chain[i].flavor == LITERAL:
                    return None
                raise UnknownSymbol(f"term {render_term(fold_chain(chain[:i + 1]))} does not denote in this model")
        return c

    def image(self, tgt: "TermModel",
              genmap: Mapping[FunctionSymbol, int]) -> Optional[dict[int, int]]:
        """Class -> `tgt.eval(self.canonical[class], genmap)`, or None if tgt lacks a literal.

        One pass in the order the freeze resolved the classes: children
        first, so each class costs one lookup in tgt.
        """
        out: dict[int, int] = {}
        tables, key, cls = tgt._eng.tables, tgt._key, tgt._cls
        for c, (sym, k) in self._chosen.items():
            if k < 0 and sym in genmap:
                out[c] = cls[genmap[sym]]
                continue
            tab = tables.get(sym)
            hit = None if tab is None else tab.get(key[out[k]] if k >= 0 else -1)
            if hit is None:
                if sym.flavor == LITERAL:
                    return None
                raise UnknownSymbol(
                    f"term {render_term(self.canonical[c])} does not denote in {tgt.name}")
            out[c] = cls[hit]
        return out

    def satisfied_by(self, tgt: "TermModel", genmap: Mapping[FunctionSymbol, int]) -> bool:
        """Whether tgt satisfies every pair of `chains`, each generator g read as genmap[g].

        tgt satisfies the typeside equations and the schema constraints, so
        these pairs are all that can fail: this model is initial, and the
        assignment extends to a morphism into tgt exactly when this holds.
        Each chain is walked through tgt's symbol tables; a symbol tgt lacks
        (a literal) fails the check.
        """
        for lhs, rhs in self.chains:
            c = tgt.walk(lhs, genmap)
            if c is None or c != tgt.walk(rhs, genmap):
                return False
        return True

    def decide_equal(self, t1: Term, t2: Term) -> bool:
        """True iff the instance theory proves t1 = t2."""
        if t1.sort != t2.sort:
            raise SortMismatch(
                f"cannot compare {render_term(t1)} : {t1.sort.name} with {render_term(t2)} : {t2.sort.name}")
        c1, c2 = self.eval(t1), self.eval(t2)
        return (t1 if c1 is None else c1) == (t2 if c2 is None else c2)  # a term is no class

    def class_of(self, sym: FunctionSymbol) -> int:
        """Class of a 0-ary symbol (generator, constant, literal)."""
        c = self._lookup(sym)
        if c is None:
            raise UnknownSymbol(f"{sym.name} does not denote in this model")
        return c

    def label(self, c: int) -> str:
        """Display string: entity id, literal value, or labeled-null term (entity subterms as ids)."""
        return self._labels[self._cls[c]]

    def __repr__(self) -> str:
        sizes = ", ".join(f"{s.name}:{len(cs)}" for s, cs in self.carriers.items() if cs)
        return f"TermModel({self.name}; {sizes})"


def saturate(schema: Schema, name: str, generators: Sequence[FunctionSymbol],
             chains: Sequence[tuple[Chain, Chain]],
             presentation: Optional[InstancePresentation] = None, *,
             limits: SaturationLimits = DEFAULT_LIMITS) -> TermModel:
    """The term model on `generators` of the equations l = r for (l, r) in `chains`.

    The typeside constants, the generators and the sides of the typeside
    equations go in first; then each pair's sides are added and merged, in
    order.  `presentation`, when given, is the model's `instance`, and its
    equations must spell `chains`; otherwise the presentation is built
    from the generators and chains on first read.
    """
    eng = _Engine()
    for c in schema.typeside.constants:
        eng.add(c)
    for g in generators:
        eng.add(g)
    add = eng.add_chain
    for eq in schema.typeside.equations:
        eng.merge(add(term_chain(eq.lhs)), add(term_chain(eq.rhs)))
    for lhs, rhs in chains:
        eng.merge(add(lhs), add(rhs))

    # per entity, its symbols with their tables; per constraint, its sort and
    # the chains of its sides, a variable leaf left out (`add_chain` starts them at its class)
    closure = {eng.sort_id(s): [(eng.table(f), f) for f in schema.symbols_on(s)] for s in schema.entities}
    constraints = [(eng.sort_id(con.free[0].sort), open_chain(con.lhs), open_chain(con.rhs))
                   for con in schema.constraints]
    find, least, sort_of, apply = eng.find, eng.least, eng.sort_of, eng.apply
    rounds = 0
    while True:
        rounds += 1
        if rounds > limits.max_rounds:
            raise ResourceLimit(
                f"saturation of {name} exceeded {limits.max_rounds} rounds")
        # the nodes the previous generation created, in creation order
        frontier, eng.created = eng.created, []
        for n in frontier:
            r = find(n)
            if least[r] != n:
                continue
            for tab, f in closure.get(sort_of[r], ()):
                apply(tab, f, r)
        merged = False
        for s, lhs, rhs in constraints:
            for n in frontier:
                r = find(n)
                if least[r] != n or sort_of[r] != s:
                    continue
                a, b = add(lhs, r), add(rhs, r)
                if find(a) != find(b):
                    eng.merge(a, b)
                    merged = True
        for s, k in eng.class_count.items():
            if k > limits.max_classes_per_sort:
                raise ResourceLimit(
                    f"carrier of {eng.sorts[s].name} in {name} exceeded {limits.max_classes_per_sort} classes"
                    " (the term model may be infinite)")
        if not (eng.created or merged):
            break
    return TermModel(schema, name, eng, tuple(generators), chains, presentation)


def build_term_model(inst: InstancePresentation,
                     chains: Sequence[tuple[Chain, Chain]] = (), *,
                     limits: SaturationLimits = DEFAULT_LIMITS) -> TermModel:
    """Saturate an instance presentation, with `chains` as further equations, into its term model.

    Without further equations the model's `instance` is `inst` itself.
    """
    eqs = [(term_chain(eq.lhs), term_chain(eq.rhs)) for eq in inst.equations]
    eqs += chains
    return saturate(inst.schema, inst.name, inst.generators, eqs,
                    None if chains else inst, limits=limits)


def check_consistency(m: TermModel) -> Optional[Collision]:
    """None when no class holds two distinct literals, else one witness."""
    return m.collisions[0] if m.collisions else None
