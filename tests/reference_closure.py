"""The engine's generation loop that `catq.model._close` replaced on constraint-free schemas, kept as a test reference.

Saturation seeds an `_Engine` and then runs every generation through it:
each fresh node that is the least of its class gets every attribute and
foreign key on its sort applied with `_Engine.apply`, and every schema
constraint of its sort instantiated.  `test_closure.py` checks that
`saturate` gives the same tables, in the same order, the same node count
and the same `ResourceLimit` message.
"""

from typing import Optional, Sequence

from catq.errors import ResourceLimit
from catq import model
from catq.model import Chain, TermModel, _Engine
from catq.schema import InstancePresentation, Schema
from catq.terms import FunctionSymbol, open_chain, term_chain


def saturate(schema: Schema, name: str, generators: Sequence[FunctionSymbol],
             chains: Sequence[tuple[Chain, Chain]],
             presentation: Optional[InstancePresentation] = None) -> tuple[TermModel, int]:
    """The term model of the equations l = r for (l, r) in `chains`, and its node count."""
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

    closure = {eng.sort_id(s): [eng.table(f) for f in schema.symbols_on(s)] for s in schema.entities}
    constraints = [(eng.sort_id(con.free[0].sort), open_chain(con.lhs), open_chain(con.rhs))
                   for con in schema.constraints]
    find, least, sort_of, apply = eng.find, eng.least, eng.sort_of, eng.apply
    rounds = 0
    while True:
        rounds += 1
        if rounds > model.MAX_ROUNDS:
            raise ResourceLimit(
                f"saturation of {name} exceeded {model.MAX_ROUNDS} rounds")
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
        for s, k in eng.class_count.items():
            if k > model.MAX_CLASSES:
                raise ResourceLimit(
                    f"carrier of {eng.sorts[s].name} in {name} exceeded {model.MAX_CLASSES} classes"
                    " (the term model may be infinite)")
        if not (eng.created or merged):
            break
    tables, cls = eng.class_tables()
    return TermModel(schema, name, tables, len(cls), tuple(generators), chains, presentation), len(cls)
