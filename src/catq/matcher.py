"""Name-based schema matching.

Two techniques: inferring a candidate mapping S -> T directly, and
building a span A -> S, A -> T whose apex pairs up similarly named
elements.  Similarity is normalized Levenshtein distance over names,
case-insensitive.  Only the span takes a cutoff.
"""

from __future__ import annotations

from typing import Optional, Union

from .errors import NoPathForSymbol
from .mappings import Mapping, validate_mapping
from .migrate import enumerate_paths
from .schema import Issue, Schema
from .terms import ATTRIBUTE, ENTITY, FOREIGN_KEY, App, FunctionSymbol, ReadOnly, Sort, Term, Var


class SimilarityConfig(ReadOnly):
    __slots__ = ("cutoff",)

    def __init__(self, cutoff: float = 0.5):
        if not 0.0 <= cutoff <= 1.0:
            raise ValueError(f"cutoff must lie in [0, 1], got {cutoff}")
        object.__setattr__(self, "cutoff", cutoff)


DEFAULT_SIMILARITY = SimilarityConfig()


def _edit_distance(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def similarity(a: str, b: str) -> float:
    """1 - editDistance(a, b) / max(|a|, |b|) over the lower-cased names; two empty strings score 1."""
    a, b = a.lower(), b.lower()
    if not a and not b:
        return 1.0
    return 1.0 - _edit_distance(a, b) / max(len(a), len(b))


class CandidateMapping:
    kind = "mapping"
    __slots__ = ("mapping", "scores", "validated", "issues")

    def __init__(self, mapping: Mapping, scores: dict[str, float], validated: bool,
                 issues: Optional[list[Issue]] = None):
        self.mapping, self.scores, self.validated = mapping, scores, validated
        self.issues = [] if issues is None else issues


class SpanMatch:
    kind = "span"
    __slots__ = ("apex", "left", "right", "scores")

    def __init__(self, apex: Schema, left: Mapping, right: Mapping, scores: dict[str, float]):
        self.apex = apex
        self.left = left  # apex -> S
        self.right = right  # apex -> T
        self.scores = scores

    @property
    def empty(self) -> bool:
        return not self.apex.entities


MatchResult = Union[CandidateMapping, SpanMatch]


def _argmax(candidates, score):
    best, best_s = None, -1.0
    for c in candidates:
        s = score(c)
        if s > best_s:
            best, best_s = c, s
    return best, best_s


def match_mapping(src: Schema, tgt: Schema) -> CandidateMapping:
    """Infer a candidate mapping by name similarity.

    Entities go to their most similar target entity.  A symbol goes to
    the most similar target symbol between the image entities when one
    exists, otherwise to a shortest path (possibly the identity); with
    no path at all, the match fails.  The result is only a candidate:
    the validated flag records whether it respects provable equality.
    """
    scores: dict[str, float] = {}
    ent_map: dict[Sort, Sort] = {}
    for s in src.entities:
        t, sc = _argmax(tgt.entities, lambda t: similarity(s.name, t.name))
        if t is None:
            raise NoPathForSymbol(f"target schema {tgt.name} has no entities")
        ent_map[s] = t
        scores[s.name] = sc
    sym_map: dict[FunctionSymbol, Term] = {}
    for f in src.symbols:
        frm = ent_map[f.arg_sorts[0]]
        to = ent_map[f.out_sort] if f.out_sort.is_entity else f.out_sort
        var = Var("x", frm)
        xs = [g for g in tgt.symbols if g.arg_sorts == (frm,) and g.out_sort == to]
        if xs:
            g, sc = _argmax(xs, lambda g: similarity(f.name, g.name))
            sym_map[f] = App(g, (var,))
            scores[f.name] = sc
        else:
            ps = enumerate_paths(tgt, frm, to)
            if not ps.terms:
                raise NoPathForSymbol(
                    f"no symbol or path from {frm.name} to {to.name} for {f.name}")
            sym_map[f] = ps.terms[0]
            scores[f.name] = 0.0
    cand = Mapping(f"match_{src.name}_{tgt.name}", src, tgt, ent_map, sym_map)
    issues = validate_mapping(cand)
    return CandidateMapping(cand, scores, validated=not issues, issues=issues)


def match_span(src: Schema, tgt: Schema,
               cfg: SimilarityConfig = DEFAULT_SIMILARITY) -> SpanMatch:
    """Pair up similarly named elements into an apex schema with projections.

    Entities of the apex are pairs (s, t) with similarity strictly
    above the cutoff; symbols pair a source and a target symbol whose
    endpoints are both paired and, for attributes, whose types agree.
    """
    if src.typeside.name != tgt.typeside.name:
        raise ValueError("span matching requires a shared typeside")
    scores: dict[str, float] = {}
    pairs: dict[tuple[Sort, Sort], Sort] = {}
    for s in src.entities:
        for t in tgt.entities:
            sc = similarity(s.name, t.name)
            if sc > cfg.cutoff:
                e = Sort(f"{s.name}_{t.name}", ENTITY)
                pairs[(s, t)] = e
                scores[e.name] = sc
    ent_l = {e: s for (s, t), e in pairs.items()}
    ent_r = {e: t for (s, t), e in pairs.items()}
    fks: list[FunctionSymbol] = []
    atts: list[FunctionSymbol] = []
    sym_l: dict[FunctionSymbol, Term] = {}
    sym_r: dict[FunctionSymbol, Term] = {}
    for f in src.symbols:
        for g in tgt.symbols:
            if f.flavor != g.flavor:
                continue
            frm = pairs.get((f.arg_sorts[0], g.arg_sorts[0]))
            if frm is None:
                continue
            if f.flavor == FOREIGN_KEY:
                to = pairs.get((f.out_sort, g.out_sort))
                if to is None:
                    continue
                out: Sort = to
            else:
                if f.out_sort != g.out_sort:
                    continue
                out = f.out_sort
            sc = similarity(f.name, g.name)
            if sc <= cfg.cutoff:
                continue
            h = FunctionSymbol(f"{f.name}_{g.name}", (frm,), out,
                               FOREIGN_KEY if f.flavor == FOREIGN_KEY else ATTRIBUTE)
            (fks if f.flavor == FOREIGN_KEY else atts).append(h)
            sym_l[h] = App(f, (Var("x", f.arg_sorts[0]),))
            sym_r[h] = App(g, (Var("x", g.arg_sorts[0]),))
            scores[h.name] = sc
    apex = Schema(f"span_{src.name}_{tgt.name}", src.typeside, list(pairs.values()), atts, fks)
    # projection images must be typed over the apex variable's image sort
    left = Mapping(f"{apex.name}_left", apex, src, ent_l,
                   {h: App(t.sym, (Var("x", ent_l[h.arg_sorts[0]]),)) for h, t in sym_l.items()})
    right = Mapping(f"{apex.name}_right", apex, tgt, ent_r,
                    {h: App(t.sym, (Var("x", ent_r[h.arg_sorts[0]]),)) for h, t in sym_r.items()})
    return SpanMatch(apex, left, right, scores)
