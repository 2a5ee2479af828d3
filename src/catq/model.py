"""Saturation of instance presentations into term models (initial algebras).

The engine maintains a union-find over ground terms with hash-consing and
congruence propagation.  Every symbol is unary or 0-ary, so a ground term
is a chain: a tuple of symbols folded left, in which a 0-ary symbol starts
a term and a unary symbol applies to the term so far (`terms.fold_chain`),
and a ground equation is a pair of chains.  Saturation seeds the engine
with the typeside constants, the generators, the sides of every typeside
equation and each pair of chains, both sides added and then merged, in
order.  It then runs worklist generations.  A generation takes the nodes
created by the previous one (the seeding counts as generation zero) and,
for each of them that is still the root of its class, (a) applies every
attribute and foreign key on its sort and (b) instantiates every schema
constraint of its sort.  Nothing else needs revisiting: congruence carries
both the closure and the constraint instances of a class across a merge.
One generation is one round for `SaturationLimits.max_rounds`, and
per-sort class counts are kept as nodes are added and merged.  Finiteness
of the term model is undecidable in general, so the limits turn potential
divergence into an explicit ResourceLimit error.

`saturate` is the one constructor of term models: chains, generations,
freeze.  `build_term_model` is `saturate` on the chains of a
presentation's equations; the elaborator passes the chains it resolves a
literal instance to, and the migration functors the chains of the tables
they compute (`catq.migrate`).  A model keeps its generators and chains,
so the morphism search reads them directly, and builds its presentation
from them the first time `TermModel.instance` is read, unless it was
saturated from one.

Freezing turns the saturated engine into a `TermModel`.  It flattens the
union-find into a root table once, then resolves classes level by level
in the depth of their least term: a node becomes a candidate when the
last of its child classes is resolved, each class takes its least
candidate under (symbol name, child ranks), and the classes of a level
get integer ranks in that order.  Ranks order classes as their canonical
terms are ordered by depth, then symbol name, then arguments (the order
`term_key` in the tests' oracle spells out), which fixes the carrier
order and the entity ids.  The freeze records only the symbol and child
classes of each class's canonical term; `TermModel.canonical` builds the
terms themselves the first time it is read.  Rendering, labels, `eval`
and `image` work from the recorded symbols and never read it.
"""

from __future__ import annotations

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
    render_term,
    term_chain,
)

# a chain is a tuple of symbols folded left (`terms.fold_chain`); an equation is a pair of them
Chain = tuple[FunctionSymbol, ...]


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
    """Union-find with hash-consing and congruence propagation.

    The root of a class is always its least node id, so `parent[x] <= x`
    holds for every node.
    """

    def __init__(self):
        self.parent: list[int] = []
        self.node_sym: list[FunctionSymbol] = []
        self.node_children: list[tuple[int, ...]] = []
        self.sort_of: list[Sort] = []
        self.hashcons: dict[tuple, int] = {}
        self.class_uses: dict[int, list[int]] = {}
        self.class_count: dict[Sort, int] = {}
        self.created: list[int] = []  # nodes added since the worklist last took them

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def add(self, sym: FunctionSymbol, children: tuple[int, ...]) -> int:
        """Class of sym(children), adding the node (filed in `created`) if it is new."""
        kids = tuple(map(self.find, children))
        key = (sym, kids)
        hit = self.hashcons.get(key)
        if hit is not None:
            return self.find(hit)
        n = len(self.parent)
        self.parent.append(n)
        self.node_sym.append(sym)
        self.node_children.append(kids)
        self.sort_of.append(sym.out_sort)
        self.hashcons[key] = n
        for c in kids:
            self.class_uses.setdefault(c, []).append(n)
        self.class_count[sym.out_sort] = self.class_count.get(sym.out_sort, 0) + 1
        self.created.append(n)
        return n

    def add_chain(self, chain: Chain) -> int:
        """Class of the term a chain spells, adding its missing nodes in chain order."""
        c = None
        for sym in chain:
            c = self.add(sym, (c,) if sym.arg_sorts else ())
        return c

    def add_term(self, t: Term, var_cls: Optional[int] = None) -> int:
        """Class of t, adding its missing subterms; a variable denotes var_cls.

        Subterms are added left to right, children before parents, from an
        explicit stack of (application, classes of the arguments done so far).
        """
        if isinstance(t, Var):
            assert var_cls is not None
            return var_cls
        stack: list[tuple[App, list[int]]] = [(t, [])]
        while True:
            app, done = stack[-1]
            if len(done) < len(app.args):
                a = app.args[len(done)]
                if isinstance(a, Var):
                    assert var_cls is not None
                    done.append(var_cls)
                else:
                    stack.append((a, []))
                continue
            stack.pop()
            c = self.add(app.sym, tuple(done))
            if not stack:
                return c
            stack[-1][1].append(c)

    def merge(self, a: int, b: int) -> None:
        """Union the classes of a and b and repair congruence.

        The root with the larger id is absorbed.  Only applications over
        the absorbed class change their hashcons key, and `class_uses[ry]`
        already holds every one of them: `add` files each node under the
        roots of its children, and every union concatenates the absorbed
        class's uses onto the survivor's.  The survivor's own uses keep
        their key, so each union costs the size of the absorbed use list.
        """
        work = [(a, b)]
        while work:
            x, y = work.pop()
            rx, ry = self.find(x), self.find(y)
            if rx == ry:
                continue
            if ry < rx:
                rx, ry = ry, rx
            if self.sort_of[rx] != self.sort_of[ry]:
                raise SortMismatch(
                    f"cannot merge classes of sorts {self.sort_of[rx].name} and {self.sort_of[ry].name}")
            self.parent[ry] = rx
            self.class_count[self.sort_of[rx]] -= 1
            uses = self.class_uses.pop(ry, [])
            for p in uses:
                key = (self.node_sym[p], tuple(map(self.find, self.node_children[p])))
                q = self.hashcons.get(key)
                if q is None:
                    self.hashcons[key] = p
                elif self.find(q) != self.find(p):
                    work.append((p, q))
            self.class_uses.setdefault(rx, []).extend(uses)


class TermModel:
    """The computed initial algebra of an instance presentation.

    Immutable after construction; safe to share across threads.  Queries
    read the root table flattened at freeze time and never write to the
    engine.  `canonical` and `instance` are computed on first read and
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
        self._root: list[int] = []
        # per class, children first: the symbol and child classes of its canonical term
        self._chosen: dict[int, tuple[FunctionSymbol, tuple[int, ...]]] = {}
        self.carriers: dict[Sort, list[int]] = {}
        self.id_label: dict[int, int] = {}
        self.literal_of: dict[int, FunctionSymbol] = {}  # class -> its least literal
        self.collisions: list[Collision] = []
        self._freeze()

    # -- construction -------------------------------------------------

    def _freeze(self) -> None:
        eng = self._eng
        # flatten the union-find in one pass: parent[i] <= i, so its root is known
        root = self._root = list(eng.parent)
        for i in range(len(root)):
            root[i] = root[root[i]]
        syms = eng.node_sym
        kids = [tuple([root[c] for c in ch]) for ch in eng.node_children]
        pending = [len(ch) for ch in kids]

        # level d resolves the classes whose least term has depth d; the
        # candidates of level d are the nodes whose last child resolved at d - 1
        rank: dict[int, int] = {}
        level = [n for n, ch in enumerate(kids) if not ch]
        next_rank = 0
        while level:
            best: dict[int, tuple[tuple, int]] = {}
            for n in level:
                r = root[n]
                if r in rank:
                    continue
                key = (syms[n].name, tuple([rank[c] for c in kids[n]]))
                b = best.get(r)
                if b is None or key < b[0]:
                    best[r] = (key, n)
            level = []
            prev = None
            for r, (key, n) in sorted(best.items(), key=lambda kv: kv[1][0]):
                if key != prev:
                    next_rank += 1
                    prev = key
                rank[r] = next_rank
                self._chosen[r] = (syms[n], kids[n])
                for u in eng.class_uses.get(r, ()):  # the nodes over r, once per child
                    pending[u] -= 1
                    if not pending[u]:
                        level.append(u)

        roots = [i for i, r in enumerate(root) if i == r]
        by_sort: dict[Sort, list[int]] = {}
        for r in roots:
            by_sort.setdefault(eng.sort_of[r], []).append(r)
        sorts = self.schema.entities + self.schema.typeside.types
        for s in sorts:
            cs = sorted(by_sort.get(s, []), key=rank.__getitem__)
            self.carriers[s] = cs
            if s.is_entity:
                for i, r in enumerate(cs):
                    self.id_label[r] = i + 1
        # a literal is one node (hash-consed), so a class's literal nodes are its distinct literals
        lits: dict[int, list[FunctionSymbol]] = {}
        for n, sym in enumerate(syms):
            if sym.flavor == LITERAL:
                lits.setdefault(root[n], []).append(sym)
        for r, group in sorted(lits.items()):
            least, *others = sorted(group, key=lambda sym: sym.name)
            self.literal_of[r] = least
            for other in others:
                self.collisions.append(Collision(eng.sort_of[r], least.name, other.name, r))

    @cached_property
    def instance(self) -> InstancePresentation:
        """The presentation this is the term model of: the one given, or one built from the chains."""
        if self._presentation is not None:
            return self._presentation
        return InstancePresentation(self.name, self.schema, self.generators,
                                    [ground_eq(fold_chain(l), fold_chain(r)) for l, r in self.chains])

    @cached_property
    def canonical(self) -> dict[int, Term]:
        """Class -> its canonical term, the least term of the class."""
        out: dict[int, Term] = {}
        for c, (sym, kids) in self._chosen.items():
            out[c] = App(sym, tuple([out[k] for k in kids]))
        return out

    # -- queries -------------------------------------------------------

    def find(self, c: int) -> int:
        return self._root[c]

    def carrier(self, sort: Sort) -> list[int]:
        return self.carriers.get(sort, [])

    def all_classes(self) -> list[int]:
        out: list[int] = []
        for s in self.schema.entities + self.schema.typeside.types:
            out.extend(self.carriers.get(s, []))
        return out

    def sort_of(self, c: int) -> Sort:
        return self._eng.sort_of[c]

    def _lookup(self, sym: FunctionSymbol, children: tuple[int, ...]) -> Optional[int]:
        hit = self._eng.hashcons.get((sym, children))
        return None if hit is None else self._root[hit]

    def op(self, sym: FunctionSymbol, c: int) -> int:
        """Apply a unary symbol's operation table to a class."""
        hit = self._lookup(sym, (self._root[c],))
        if hit is None:
            raise UnknownSymbol(f"no {sym.name} application on class {c}")
        return hit

    def table(self, t: Term) -> dict[int, int]:
        """Class c -> the class of t with its variable at c, for c in the variable's carrier.

        t is a chain of unary symbols over one variable, such as a symbol
        image of a mapping or a path; it is walked once, not once per class.
        """
        syms: list[FunctionSymbol] = []
        while isinstance(t, App):
            syms.append(t.sym)
            t = t.args[0]
        syms.reverse()
        out: dict[int, int] = {}
        for c in self.carrier(t.sort):
            v = c
            for sym in syms:
                v = self.op(sym, v)
            out[c] = v
        return out

    def eval(self, t: Term, genmap: Optional[Mapping[FunctionSymbol, int]] = None,
             varmap: Optional[Mapping[str, int]] = None) -> Optional[int]:
        """Class denoted by a ground term, or None for a never-seen literal.

        `genmap` re-routes generator symbols to existing classes (used
        when extending morphisms homomorphically); `varmap` binds
        variables of open terms to classes.
        """
        # every symbol is unary or 0-ary: walk down the chain to a variable,
        # a re-routed generator or a leaf, then look each application up
        chain: list[App] = []
        while True:
            if isinstance(t, Var):
                if varmap is None or t.name not in varmap:
                    raise UnknownSymbol(f"unbound variable {t.name}")
                c = self.find(varmap[t.name])
                break
            if genmap is not None and t.sym in genmap:
                c = self.find(genmap[t.sym])
                break
            chain.append(t)
            if not t.args:
                break
            t = t.args[0]
        for u in reversed(chain):
            c = self._lookup(u.sym, (c,) if u.args else ())
            if c is None:
                if u.sym.flavor == LITERAL:
                    return None
                raise UnknownSymbol(f"term {render_term(u)} does not denote in this model")
        return c

    def image(self, tgt: "TermModel",
              genmap: Mapping[FunctionSymbol, int]) -> Optional[dict[int, int]]:
        """Class -> `tgt.eval(self.canonical[class], genmap)`, or None if tgt lacks a literal.

        One pass in the order the freeze resolved the classes: children
        first, so each class costs one lookup in tgt.
        """
        out: dict[int, int] = {}
        root, hashcons = tgt._root, tgt._eng.hashcons
        for c, (sym, kids) in self._chosen.items():
            if not kids and sym in genmap:
                out[c] = root[genmap[sym]]
                continue
            hit = hashcons.get((sym, tuple([out[k] for k in kids])))
            if hit is None:
                if sym.flavor == LITERAL:
                    return None
                raise UnknownSymbol(
                    f"term {render_term(self.canonical[c])} does not denote in {tgt.name}")
            out[c] = root[hit]
        return out

    def decide_equal(self, t1: Term, t2: Term) -> bool:
        """True iff the instance theory proves t1 = t2."""
        if t1.sort != t2.sort:
            raise SortMismatch(
                f"cannot compare {render_term(t1)} : {t1.sort.name} with {render_term(t2)} : {t2.sort.name}")
        c1, c2 = self.eval(t1), self.eval(t2)
        if c1 is None and c2 is None:
            return t1 == t2
        if c1 is None or c2 is None:
            return False
        return c1 == c2

    def class_of(self, sym: FunctionSymbol) -> int:
        """Class of a 0-ary symbol (generator, constant, literal)."""
        c = self._lookup(sym, ())
        if c is None:
            raise UnknownSymbol(f"{sym.name} does not denote in this model")
        return c

    def label(self, c: int) -> str:
        """Display string: entity id, literal value, or labeled-null term."""
        c = self._root[c]
        if c in self.literal_of:
            return self.literal_of[c].name
        return self._render(c)

    def _render(self, c: int) -> str:
        """The canonical term of a class, with entity subterms shown as ids."""
        if self._eng.sort_of[c].is_entity:
            return str(self.id_label[c])
        sym, kids = self._chosen[c]
        if not kids:
            return sym.name
        return f"{sym.name}({', '.join(self._render(k) for k in kids)})"

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
    order.  `presentation`, when given, is the model's `instance`;
    otherwise that is built from the generators and chains on first read.
    """
    eng = _Engine()
    for c in schema.typeside.constants:
        eng.add(c, ())
    for g in generators:
        eng.add(g, ())
    for eq in schema.typeside.equations:
        eng.merge(eng.add_term(eq.lhs), eng.add_term(eq.rhs))
    add = eng.add_chain
    for lhs, rhs in chains:
        eng.merge(add(lhs), add(rhs))

    closure = {s: schema.symbols_on(s) for s in schema.entities}
    rounds = 0
    while True:
        rounds += 1
        if rounds > limits.max_rounds:
            raise ResourceLimit(
                f"saturation of {name} exceeded {limits.max_rounds} rounds")
        # the nodes the previous generation created, in creation order
        frontier, eng.created = eng.created, []
        for r in frontier:
            if eng.find(r) != r:
                continue
            for f in closure.get(eng.sort_of[r], ()):
                eng.add(f, (r,))
        merged = False
        for con in schema.constraints:
            s = con.free[0].sort
            for r in frontier:
                if eng.find(r) != r or eng.sort_of[r] != s:
                    continue
                lhs = eng.add_term(con.lhs, r)
                rhs = eng.add_term(con.rhs, r)
                if eng.find(lhs) != eng.find(rhs):
                    eng.merge(lhs, rhs)
                    merged = True
        for s, n in eng.class_count.items():
            if n > limits.max_classes_per_sort:
                raise ResourceLimit(
                    f"carrier of {s.name} in {name} exceeded {limits.max_classes_per_sort} classes"
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
