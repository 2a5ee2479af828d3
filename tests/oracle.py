"""Independent brute-force oracle for provable equality of ground terms.

Deliberately shares no code with the engine: the term universe is an
explicit set of ground terms, the partition is a list of frozensets,
and closure is naive fixpoint iteration over (a) asserted equations,
(b) congruence for unary applications, and (c) constraint instances.
Only usable on instances whose closed-term universe is finite (acyclic
foreign keys).
"""

from __future__ import annotations

from catq import App, InstancePresentation, Term, Var
from catq.terms import is_ground, substitute, subterms


def term_depth(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    if not t.args:
        return 1
    return 1 + max(term_depth(a) for a in t.args)


def term_key(t: Term):
    """Total order on terms: depth first, then symbol name, then arguments.

    Constants (generators, literals) therefore come before applications.
    The term model's canonical terms are the least of their classes in
    this order.
    """
    if isinstance(t, Var):
        return (1, 0, t.name, ())
    return (term_depth(t), 1, t.sym.name, tuple(term_key(a) for a in t.args))


def term_universe(inst: InstancePresentation) -> set[Term]:
    """All closed terms of the instance: generators and constants closed
    under unary symbol application, plus every equation subterm."""
    universe: set[Term] = set()
    frontier: list[Term] = [App(g) for g in inst.generators]
    frontier += [App(c) for c in inst.schema.typeside.constants]
    for eq in list(inst.equations) + list(inst.schema.typeside.equations):
        for side in (eq.lhs, eq.rhs):
            frontier.extend(subterms(side))
    for con in inst.schema.constraints:
        for side in (con.lhs, con.rhs):
            frontier.extend(t for t in subterms(side) if is_ground(t))
    while frontier:
        t = frontier.pop()
        if t in universe or not is_ground(t):
            continue
        universe.add(t)
        for sym in inst.schema.symbols:
            if sym.arg_sorts == (t.sort,):
                frontier.append(App(sym, (t,)))
    return universe


def deductive_closure(inst: InstancePresentation) -> list[frozenset]:
    """Partition of the term universe under provable equality."""
    universe = term_universe(inst)
    classes: list[set[Term]] = [{t} for t in universe]

    def class_of(t: Term) -> set[Term]:
        for c in classes:
            if t in c:
                return c
        raise AssertionError(f"{t} escaped the universe")

    def merge(a: Term, b: Term) -> bool:
        ca, cb = class_of(a), class_of(b)
        if ca is cb:
            return False
        classes.remove(cb)
        ca |= cb
        return True

    ground_eqs = [(eq.lhs, eq.rhs)
                  for eq in list(inst.equations) + list(inst.schema.typeside.equations)]
    changed = True
    while changed:
        changed = False
        for lhs, rhs in ground_eqs:
            changed |= merge(lhs, rhs)
        # congruence for unary applications
        for t in universe:
            if isinstance(t, App) and t.args:
                for u in universe:
                    if isinstance(u, App) and u.args and u.sym == t.sym and u is not t:
                        if class_of(t.args[0]) is class_of(u.args[0]):
                            changed |= merge(t, u)
        # schema constraints at every entity term
        for con in inst.schema.constraints:
            v = con.free[0]
            for t in universe:
                if t.sort == v.sort:
                    lhs = substitute(con.lhs, {v.name: t})
                    rhs = substitute(con.rhs, {v.name: t})
                    if lhs in universe and rhs in universe:
                        changed |= merge(lhs, rhs)
    return [frozenset(c) for c in classes]


def oracle_equal(partition: list[frozenset], t1: Term, t2: Term) -> bool:
    for c in partition:
        if t1 in c:
            return t2 in c
    raise AssertionError(f"{t1} not in the universe")
