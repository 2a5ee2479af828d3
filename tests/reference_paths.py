"""The pairwise path enumeration that `catq.migrate.enumerate_paths` replaced, kept as a test reference.

Each new path is compared with every kept path of its sort, and two paths
are compared by closing both over the probe generator `_x` and deciding
the equation on the probe model.  `test_migrate.py` checks that the
keyed enumeration returns the same paths, in the same order, with the
same truncated flag.
"""

from catq.mappings import _constrained_from, probe_model
from catq.migrate import PathSet
from catq.schema import Schema, generator
from catq.terms import App, Sort, Term, Var, free_vars, substitute, term_chain


def open_terms_equal(schema: Schema, entity: Sort, t1: Term, t2: Term) -> bool:
    g = App(generator("_x", entity))

    def close(t: Term) -> Term:
        vs = free_vars(t)
        return substitute(t, {vs[0].name: g}) if vs else t

    if schema.typeside.equations or (schema.constraints and _constrained_from(schema, entity)):
        return probe_model(schema, entity).decide_equal(close(t1), close(t2))
    return close(t1) == close(t2)


def enumerate_paths(schema: Schema, frm: Sort, to: Sort, max_depth: int = 6, max_paths: int = 256) -> PathSet:
    start: Term = Var("p", frm)
    entity_reps: list[Term] = [start]
    frontier: list[Term] = [start]
    truncated = False
    depth = 0
    while frontier:
        if depth >= max_depth or len(entity_reps) > max_paths:
            truncated = True
            break
        depth += 1
        fresh: list[Term] = []
        for u in frontier:
            for fk in schema.foreign_keys:
                if fk.arg_sorts != (u.sort,):
                    continue
                w = App(fk, (u,))
                if not any(r.sort == w.sort and open_terms_equal(schema, frm, w, r)
                           for r in entity_reps):
                    entity_reps.append(w)
                    fresh.append(w)
        frontier = fresh

    if to.is_entity:
        terms = [r for r in entity_reps if r.sort == to]
    else:
        terms = []
        for u in entity_reps:
            for att in schema.attributes:
                if att.arg_sorts == (u.sort,) and att.out_sort == to:
                    w = App(att, (u,))
                    if not any(open_terms_equal(schema, frm, w, r) for r in terms):
                        terms.append(w)
    if len(terms) > max_paths:
        terms = terms[:max_paths]
        truncated = True
    return PathSet(frm, to, [term_chain(t) for t in terms], truncated)
