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
generation is one round for `MAX_ROUNDS`, and per-sort class counts are
kept as nodes are added and merged; `_over` checks both limits at the end
of each round.  With no schema constraint nothing merges after the
seeding, so `_close` runs the generations on the class tables instead.
Finiteness of the term model is undecidable in general, so the limits
turn potential divergence into an explicit ResourceLimit error.

A union absorbs the class with fewer uses (the nodes over it), so a node
changes its table key at most logarithmically often, whatever order the
merges come in (Nelson and Oppen, "Fast Decision Procedures Based on
Congruence Closure", JACM 1980; Downey, Sethi and Tarjan, JACM 1980).
Which root survives never shows: each root keeps the least node id of its
class, and that id names the class once frozen.

A `TermModel` is its operation tables over classes: `tables[sym]` maps
the class sym applies to (-1 for a 0-ary symbol) to the class of the
application.  Every id a model hands out is a class; nodes stay in the
engine, which is not kept.  Two functions fill the tables.  `saturate`
takes chains and hands over its tables, keyed by class, and the node
count.  `build_term_model` is `saturate` on the chains of a
presentation's equations; the elaborator passes the chains it resolves a
literal instance to, and sigma the chains it translates (`catq.migrate`).
`write_model` takes the operation tables delta and pi compute: it numbers
the nodes as `saturate` would, joins the classes its pins equate, and
closes the tables with `_close`, which adds the labeled nulls: the
tables `saturate` gives on them, class ids included.  It leaves to
`saturate` the inputs where merges decide the model: a typeside with
equations, and a schema constraint whose two sides walk to different
classes.  A model keeps its generators and chains, so the morphism search
reads them directly, and builds its presentation from them the first time
`TermModel.instance` is read, unless it was saturated from one.

Both kinds of model go through one freeze, in the `TermModel`
constructor.  It resolves classes level by level in the depth of their
least term.  Level 0 is the classes of 0-ary symbols.  The candidates of
level d + 1 are every attribute and foreign key on the sort of a class
resolved at level d, read from its table: both functions apply every
such symbol to every entity class.  Each class takes its least candidate
under (symbol name, child rank), and the classes of a level get integer
ranks in that order.  Ranks order classes as their canonical terms are
ordered by depth, then symbol name, then arguments (the order `term_key`
in the tests' oracle spells out), which fixes the carrier order and the
entity ids.  The freeze records only the symbol and child class of each
class's canonical term; `TermModel.canonical` builds the terms themselves
the first time it is read, and the labels are built once, on first use,
from the same record.
"""

from __future__ import annotations

import itertools
import weakref
from collections import Counter
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ResourceLimit, SortMismatch, UnknownSymbol
from .schema import InstancePresentation, Schema
from .terms import (
    LITERAL,
    App,
    FunctionSymbol,
    ReadOnly,
    Record,
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
_name = attrgetter("name")
MAX_ROUNDS = 1000  # saturation generations before a ResourceLimit


class SaturationLimits(ReadOnly, Record):
    _fields = ("max_classes_per_sort",)

    def __init__(self, max_classes_per_sort: int = 10000):
        if max_classes_per_sort <= 0:
            raise ValueError("saturation limits must be strictly positive")
        object.__setattr__(self, "max_classes_per_sort", max_classes_per_sort)


DEFAULT_LIMITS = SaturationLimits()


class Collision(ReadOnly):
    """Two distinct literals proved equal: the instance is inconsistent."""

    __slots__ = ("sort", "lit1", "lit2", "class_id")

    def __init__(self, sort: Sort, lit1: str, lit2: str, class_id: int):
        object.__setattr__(self, "sort", sort)
        object.__setattr__(self, "lit1", lit1)
        object.__setattr__(self, "lit2", lit2)
        object.__setattr__(self, "class_id", class_id)

    def __str__(self) -> str:
        return f"Collision({self.lit1}, {self.lit2}) at sort {self.sort.name}"


class _Engine:
    """Union-find over unary and 0-ary nodes, with one table per symbol and congruence repair.

    Each node applies one symbol to one child class, or to none.
    `tables[sym]` is sym's table, which maps the root of a child class (-1
    for none) to the node applying sym to it, with the index in `sorts` of
    sym's output sort, resolved once per symbol.  `node_table[n]` is node
    n's table, so repair never hashes a symbol.  `uses[r]` holds every
    node over the class of root r.  A union makes the root with the
    shorter use list a child of the other and re-keys that list's nodes:
    only their keys change.
    `least[r]` is the least node id of root r's class.  `sort_of[n]` is the
    index in `sorts` of node n's sort, so no node hashes a `Sort`.
    """

    def __init__(self):
        self.parent: list[int] = []
        self.least: list[int] = []
        self.node_table: list[dict[int, int]] = []
        self.sort_of: list[int] = []
        self.sorts: list[Sort] = []  # each sort once, in the order first seen
        self.sort_at: dict[int, int] = {}  # id() of each Sort object seen -> its sort's index
        self.tables: dict[FunctionSymbol, tuple[dict[int, int], int]] = {}
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

    def table(self, sym: FunctionSymbol) -> tuple[dict[int, int], int]:
        """sym's table and the index of its output sort."""
        entry = self.tables.get(sym)
        if entry is None:
            entry = self.tables[sym] = ({}, self.sort_id(sym.out_sort))
        return entry

    def add(self, sym: FunctionSymbol, c: int = -1) -> int:
        """Class of sym applied to the class of c (-1: sym is 0-ary), adding the node if it is new."""
        tab, s = self.table(sym)
        return self.apply(tab, s, self.find(c) if c >= 0 else -1)

    def apply(self, tab: dict[int, int], s: int, r: int) -> int:
        """`add` with a symbol's table `tab` and sort index s resolved, and the child class's root r (or -1)."""
        hit = tab.get(r)
        if hit is not None:
            return self.find(hit)
        n = len(self.parent)
        self.parent.append(n)
        self.least.append(n)
        self.node_table.append(tab)
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
            ux.extend(uy)  # after the swap, ux is None only when uy is

    def class_tables(self) -> tuple[dict[FunctionSymbol, dict[int, int]], list[int]]:
        """The symbol tables keyed and valued by class (the least node id), and each node's class.

        An absorbed root's keys are stale, so only a root's entry is kept.
        """
        root = list(map(self.find, range(len(self.parent))))
        cls = list(map(self.least.__getitem__, root))
        tables = {sym: {cls[k]: cls[n] for k, n in tab.items() if root[k] == k} if sym.arg_sorts
                  else {-1: cls[tab[-1]]} for sym, (tab, _) in self.tables.items()}
        return tables, cls


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
    """The computed initial algebra of an instance presentation: its operation tables over classes.

    Immutable after construction; safe to share across threads.  A class
    is named by the least id among its nodes, which is less than `nodes`,
    the node count; classes are the only ids a model takes or hands out.
    `tables[sym]` maps the class sym applies to (-1 for a 0-ary symbol) to
    the class of the application; queries only read them.  `canonical`,
    `instance` and the labels are computed on first read and cached; two
    threads reading one first at once build equal values.  `generators` and `chains` are what the model was
    saturated or written from.
    """

    def __init__(self, schema: Schema, name: str, tables: dict[FunctionSymbol, dict[int, int]], nodes: int,
                 generators: tuple[FunctionSymbol, ...], chains: Sequence[tuple[Chain, Chain]],
                 presentation: Optional[InstancePresentation] = None):
        self.schema = schema
        self.name = name
        self.generators = generators
        self.chains = chains
        self._presentation = presentation
        self.tables = tables
        # per class, children first: the symbol and child class (or -1) of its canonical term
        self._chosen: dict[int, tuple[FunctionSymbol, int]] = {}
        self.id_label: dict[int, int] = {}
        self.literal_of: dict[int, FunctionSymbol] = {}  # class -> its least literal
        self.collisions: list[Collision] = []

        # level 0: each class of 0-ary symbols takes its least-named one, the first on ties
        least: dict[int, FunctionSymbol] = {}
        literals: dict[int, list[FunctionSymbol]] = {}  # class -> its literals, in table order
        for sym, tab in tables.items():
            if sym.arg_sorts:
                continue
            c = tab[-1]
            b = least.get(c)
            if b is None or sym.name < b.name:
                least[c] = sym
            if sym.flavor == LITERAL:
                literals.setdefault(c, []).append(sym)
        level = [(sym.name, 0, c, sym, -1) for c, sym in least.items()]

        # level d + 1: the unresolved classes that a symbol on the sort of a class
        # resolved at level d reaches, each by its least (name, child rank) candidate
        rank = [0] * nodes  # class -> rank, 0 until resolved
        chosen = self._chosen
        self.carriers = carriers = {s: [] for s in schema.entities + schema.typeside.types}  # by rank, then by class
        on: dict[int, tuple] = {}  # id() of a sort -> its carrier, and its symbols with their tables
        next_rank, prev_name, prev_r = 0, None, 0
        while level:
            level.sort()  # by (name, child rank), then by class: no two entries tie
            here: dict[int, list[int]] = {}  # id() of a sort -> its classes in this level
            for name, r, c, sym, k in level:
                if name != prev_name or r != prev_r:
                    next_rank += 1
                    prev_name, prev_r = name, r
                rank[c] = next_rank
                chosen[c] = (sym, k)
                i = id(sym.out_sort)  # a sort hashes with a Python call, its id() does not
                cs = here.get(i)
                if cs is None:
                    cs = here[i] = []
                    if i not in on:
                        s = sym.out_sort
                        on[i] = carriers.get(s, []), [(f, tables[f]) for f in schema.symbols_on(s)]
                cs.append(c)
            best: dict[int, tuple] = {}
            for i, cs in here.items():
                carrier, symbols = on[i]
                carrier += cs
                for f, tab in symbols:
                    ds = list(map(tab.__getitem__, cs))
                    if all(map(rank.__getitem__, ds)):  # as for most of delta's and pi's rows
                        continue
                    name = f.name
                    for c, d in zip(cs, ds):
                        if not rank[d]:
                            r = rank[c]
                            b = best.get(d)
                            if b is None or (name, r) < b[:2]:
                                best[d] = (name, r, d, f, c)
            level = list(best.values())

        for s in schema.entities:
            self.id_label.update(zip(self.carriers[s], itertools.count(1)))
        for c in sorted(literals):
            first, *others = group = literals[c]
            if others:
                first, *others = sorted(group, key=_name)
            self.literal_of[c] = first
            for other in others:
                self.collisions.append(Collision(first.out_sort, first.name, other.name, c))

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

    def carrier(self, sort: Sort) -> list[int]:
        return self.carriers.get(sort, [])

    def all_classes(self) -> list[int]:
        out: list[int] = []
        for s in self.schema.entities + self.schema.typeside.types:
            out.extend(self.carriers.get(s, []))
        return out

    def _lookup(self, sym: FunctionSymbol, c: int = -1) -> Optional[int]:
        """Class of sym applied to class c (-1: sym is 0-ary), or None when the model has no such term."""
        return self.tables.get(sym, _NO_NODES).get(c if sym.arg_sorts else -1)

    def op(self, sym: FunctionSymbol, c: int) -> int:
        """Apply a unary symbol's operation table to a class."""
        hit = self._lookup(sym, c)
        if hit is None:
            raise UnknownSymbol(f"no {sym.name} application on class {c}")
        return hit

    def column(self, sym: FunctionSymbol) -> dict[int, int]:
        """Class c -> `op(sym, c)`, for c in the carrier of sym's argument sort, in carrier order."""
        tab = self.tables.get(sym, _NO_NODES)
        carrier = self.carrier(sym.arg_sorts[0])
        try:
            return {c: tab[c] for c in carrier}
        except KeyError:
            raise self._unapplied(sym, carrier, tab) from None

    def column_classes(self, sym: FunctionSymbol) -> list[int]:
        """The values of `column(sym)`, read with C-level maps and no dict."""
        tab = self.tables.get(sym, _NO_NODES)
        carrier = self.carrier(sym.arg_sorts[0])
        try:
            return list(map(tab.__getitem__, carrier))
        except KeyError:
            raise self._unapplied(sym, carrier, tab) from None

    def _unapplied(self, sym: FunctionSymbol, carrier: list[int], tab: dict[int, int]) -> UnknownSymbol:
        """The error for the first class of `carrier` that `sym`'s table does not hold."""
        c = next(c for c in carrier if c not in tab)
        return UnknownSymbol(f"no {sym.name} application on class {c}")

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
        tables = self.tables
        c = start
        for sym in chain:
            if sym.arg_sorts:
                c = tables.get(sym, _NO_NODES).get(c)
            else:
                d = genmap.get(sym) if genmap else None
                c = d if d is not None else tables.get(sym, _NO_NODES).get(-1)
            if c is None:
                return None
        return c

    def eval(self, t: Term, genmap: Optional[Mapping[FunctionSymbol, int]] = None) -> Optional[int]:
        """Class denoted by a ground term, or None for a never-seen literal.

        `genmap` re-routes generator symbols to existing classes (used
        when extending morphisms homomorphically).
        """
        chain, c = term_chain(t), -1
        if isinstance(chain[0], Var):
            raise UnknownSymbol(f"unbound variable {chain[0].name}")
        for i in range(len(chain)):  # a step at a time, to name the application the model lacks
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
        tables = tgt.tables
        for c, (sym, k) in self._chosen.items():
            if k < 0 and sym in genmap:
                out[c] = genmap[sym]
                continue
            hit = tables.get(sym, _NO_NODES).get(out[k] if k >= 0 else -1)
            if hit is None:
                if sym.flavor == LITERAL:
                    return None
                raise UnknownSymbol(
                    f"term {render_term(self.canonical[c])} does not denote in {tgt.name}")
            out[c] = hit
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
        return self._labels[c]

    def labels(self, classes: Iterable[int]) -> list[str]:
        """The `label` of each of `classes`, in order, read with no Python call per class."""
        return list(map(self._labels.__getitem__, classes))

    def __repr__(self) -> str:
        sizes = ", ".join(f"{s.name}:{len(cs)}" for s, cs in self.carriers.items() if cs)
        return f"TermModel({self.name}; {sizes})"


def _over(name: str, rounds: int, more: bool, count: Mapping[int, int], sorts: Sequence[Sort],
          limits: SaturationLimits) -> Optional[ResourceLimit]:
    """The limit that round `rounds` of saturating `name` ends over, or None.

    The first sort of `count` (index into `sorts` -> classes) over the class cap, else MAX_ROUNDS if `more` are due.
    """
    cap = limits.max_classes_per_sort
    for s, k in count.items():
        if k > cap:
            return ResourceLimit(f"carrier of {sorts[s].name} in {name} exceeded {cap} classes"
                                 " (the term model may be infinite)")
    if more and rounds >= MAX_ROUNDS:
        return ResourceLimit(f"saturation of {name} exceeded {MAX_ROUNDS} rounds")
    return None


def _close(schema: Schema, name: str, tables: dict[FunctionSymbol, dict[int, int]], classes: Sequence[tuple[int, int]],
           nodes: int, ids: _Engine, limits: SaturationLimits) -> tuple[int, Optional[ResourceLimit]]:
    """Saturation's generations where nothing merges, written straight into the class-keyed `tables`.

    `classes` are the classes so far in node order, each with its sort's index as `ids` numbers the sorts.
    With no schema constraint a fresh f(c) can equal only the f-node over c that f's table holds, so an
    application is a membership test and a store.  Nodes, rounds and classes count as in the engine's
    generations; returns the node count and the limit hit, or None.
    """
    on = {ids.sort_id(s): [(tables.setdefault(f, {}), ids.table(f)[1]) for f in schema.symbols_on(s)]
          for s in schema.entities}
    count = Counter(map(itemgetter(1), classes))  # in the order of the sorts' first classes, as the engine counts
    for rounds in itertools.count(1):
        start, fresh = nodes, []  # the sort of each node this generation creates, numbered from start
        for c, s in classes:
            for tab, t in on.get(s, ()):
                if c not in tab:
                    tab[c] = nodes
                    nodes += 1
                    fresh.append(t)
        count.update(fresh)
        over = _over(name, rounds, bool(fresh), count, ids.sorts, limits)
        if over or not fresh:
            return nodes, over
        classes = zip(range(start, nodes), fresh)


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

    if not schema.constraints:  # nothing merges after the seeding, so `_close` closes the class tables
        tables, cls = eng.class_tables()
        classes = [(n, s) for n, (c, s) in enumerate(zip(cls, eng.sort_of)) if c == n]
        nodes, over = _close(schema, name, tables, classes, len(cls), eng, limits)
        if over:
            raise over
        return TermModel(schema, name, tables, nodes, tuple(generators), chains, presentation)

    # per entity, the tables and sort indices of its symbols; per constraint, its sort and
    # the chains of its sides, a variable leaf left out (`add_chain` starts them at its class)
    closure = {eng.sort_id(s): [eng.table(f) for f in schema.symbols_on(s)] for s in schema.entities}
    constraints = [(eng.sort_id(con.free[0].sort), open_chain(con.lhs), open_chain(con.rhs))
                   for con in schema.constraints]
    find, least, sort_of, apply = eng.find, eng.least, eng.sort_of, eng.apply
    for rounds in itertools.count(1):
        # the nodes the previous generation created, in creation order
        frontier, eng.created = eng.created, []
        for n in frontier:
            r = find(n)
            if least[r] != n:
                continue
            for tab, s in closure.get(sort_of[r], ()):
                apply(tab, s, r)
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
        more = merged or bool(eng.created)
        over = _over(name, rounds, more, eng.class_count, eng.sorts, limits)
        if over:
            raise over
        if not more:
            break
    tables, cls = eng.class_tables()
    return TermModel(schema, name, tables, len(cls), tuple(generators), chains, presentation)


def write_model(schema: Schema, name: str, generators: Sequence[FunctionSymbol],
                pins: Sequence[tuple[FunctionSymbol, FunctionSymbol]],
                rows: Sequence[tuple[FunctionSymbol, FunctionSymbol, FunctionSymbol]], *,
                limits: SaturationLimits = DEFAULT_LIMITS) -> TermModel:
    """The model `saturate` gives on `generators`, a = b for (a, b) in pins, then q(g) = v for (q, g, v) in rows.

    The equations are operation tables, as delta and pi compute them: a
    pin equates two 0-ary symbols, a row gives symbol q's value v at g,
    where g is a generator and v a generator or a symbol of a pin; no two
    rows apply one symbol to one class, and every foreign key has a row
    at every generator of its sort.  So the classes are those of the pins'
    and generators' symbols, and `_close` adds only the fresh labeled
    nulls: att(g) for each entity class g and attribute att with no row.
    The model and its `chains` (pins, then rows) are those `saturate`
    gives, class ids included.  Two cases go to `saturate` itself, since
    merges decide them: a typeside with equations, and a schema constraint
    whose sides walk to different classes, or off the tables, from some
    entity class.
    """
    chains = [((a,), (b,)) for a, b in pins]
    chains += [((g, q), (v,)) for q, g, v in rows]
    if schema.typeside.equations:
        return saturate(schema, name, generators, chains, limits=limits)
    leaves: dict[FunctionSymbol, int] = {}  # node ids in the order `saturate` adds the 0-ary symbols
    for sym in schema.typeside.constants:
        leaves.setdefault(sym, len(leaves))
    for sym in generators:
        leaves.setdefault(sym, len(leaves))
    merged = []
    for a, b in pins:
        na = leaves.setdefault(a, len(leaves))
        nb = na if b is a else leaves.setdefault(b, len(leaves))
        if na != nb:
            merged.append((na, nb))
    cls = list(range(len(leaves)))  # node -> its class; a pin's union keeps the least node as the root
    if merged:
        def root(n: int) -> int:
            while cls[n] != n:
                n = cls[n]
            return n

        for na, nb in merged:
            ra, rb = root(na), root(nb)
            if ra != rb:
                cls[max(ra, rb)] = min(ra, rb)
        cls = list(map(root, cls))
    tables: dict[FunctionSymbol, dict[int, int]] = {sym: {-1: cls[n]} for sym, n in leaves.items()}
    for q, g, v in rows:
        tab = tables.get(q)
        if tab is None:
            tab = tables[q] = {}
        tab[cls[leaves[g]]] = cls[leaves[v]]
    nodes = len(leaves) + len(rows)  # saturate adds a node per row, which the row's value absorbs
    ids = _Engine()  # numbers the sorts as saturation does
    classes = [(n, ids.sort_id(sym.out_sort)) for sym, n in leaves.items() if cls[n] == n]
    nodes, over = _close(schema, name, tables, classes, nodes, ids, limits)

    model = TermModel(schema, name, tables, nodes, tuple(generators), chains)
    for con in schema.constraints:
        lhs, rhs = open_chain(con.lhs), open_chain(con.rhs)
        for c in model.carrier(con.free[0].sort):
            d = model.walk(lhs, None, c)
            if d is None or d != model.walk(rhs, None, c):
                return saturate(schema, name, generators, chains, limits=limits)
    if over:  # reported only once no fallback to `saturate` can report its own
        raise over
    return model


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
