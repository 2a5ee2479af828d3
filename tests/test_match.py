"""Schema matching: string similarity, best-guess mappings, and spans."""

import pytest
from hypothesis import given, strategies as st

from catq import (
    NoPathForSymbol,
    SimilarityConfig,
    match_mapping,
    match_span,
    similarity,
    validate_mapping,
)


# ---------------------------------------------------------------------------
# Similarity


def test_similarity_examples():
    assert similarity("name", "name") == 1.0
    assert similarity("N1", "N") == 0.5
    assert similarity("name", "age") == 0.5
    assert similarity("salary", "pay") == pytest.approx(1 - 4 / 6)
    assert similarity("age", "years") == pytest.approx(1 - 4 / 5)
    assert similarity("Name", "name") == 1.0  # case-insensitive
    assert similarity("", "") == 1.0
    assert similarity("", "abc") == 0.0


@given(st.text(max_size=8), st.text(max_size=8))
def test_similarity_symmetric_and_bounded(a, b):
    s = similarity(a, b)
    assert s == similarity(b, a)
    assert 0.0 <= s <= 1.0


@given(st.text(max_size=8))
def test_similarity_reflexive(a):
    assert similarity(a, a) == 1.0


# ---------------------------------------------------------------------------
# Technique 1: best-guess mapping


def test_match_recovers_the_renaming(schema_s, schema_s2, mapping_r):
    cand = match_mapping(schema_s2, schema_s)
    assert cand.validated and validate_mapping(cand.mapping) == []
    inv_entity = {v: k for k, v in mapping_r.entity_map.items()}
    assert cand.mapping.entity_map == inv_entity
    # who -> name, pay -> salary, years -> age, g -> f
    images = {f.name: chain[-1].name if len(chain) > 1 else "id"
              for f, chain in cand.mapping.symbol_map.items()}
    assert images == {"who": "name", "pay": "salary", "years": "age", "g": "f"}


def test_match_self_is_identity(schema_s):
    cand = match_mapping(schema_s, schema_s)
    assert cand.validated
    assert all(s.name == cand.mapping.entity_map[s].name for s in schema_s.entities)
    assert all(score == 1.0 for score in cand.scores.values())


def test_match_falls_back_to_shortest_path(schema_s, schema_t):
    # S has two entities, T has one; f must map to the identity path on N
    cand = match_mapping(schema_s, schema_t)
    from catq import Var
    from conftest import N
    f = schema_s.symbol_named("f")
    assert cand.mapping.symbol_map[f] == (Var("p", N),)
    assert cand.scores["f"] == 0.0
    assert cand.validated


def test_match_reports_missing_paths(schema_t):
    from catq import Schema, Sort, builtin_typeside
    from catq.terms import ENTITY
    from conftest import attr
    from catq import INT
    q = Sort("Q", ENTITY)
    src = Schema("Q1", builtin_typeside(), [q], [attr("zz", q, INT)], [])
    # a target with no Int-valued symbol reachable from its only entity
    e = Sort("E", ENTITY)
    from catq import STRING
    tgt = Schema("Q2", builtin_typeside(), [e], [attr("nm", e, STRING)], [])
    with pytest.raises(NoPathForSymbol):
        match_mapping(src, tgt)


# ---------------------------------------------------------------------------
# Technique 2: spans


def test_span_at_moderate_cutoff(schema_s, schema_s2):
    span = match_span(schema_s, schema_s2, SimilarityConfig(cutoff=0.4))
    assert not span.empty
    names = {s.name for s in span.apex.entities}
    # entity names barely overlap, but both entity pairs survive at 0.4? no:
    # N1/M1 and N2/M2 share half their letters -> sigma = 0.5 >= cutoff
    assert names == {"N1_M1", "N2_M2"}
    sym_names = {f.name for f in span.apex.symbols}
    assert "salary_pay" not in sym_names  # sigma = 1/6 < 0.4
    assert validate_mapping(span.left) == [] and validate_mapping(span.right) == []
    assert span.left.source is span.apex and span.right.source is span.apex


def test_span_shrinks_as_cutoff_rises(schema_s, schema_s2):
    sizes = []
    for c in (0.3, 0.6, 0.99):
        span = match_span(schema_s, schema_s2, SimilarityConfig(cutoff=c))
        sizes.append(len(span.apex.entities) + len(span.apex.symbols))
    assert sizes == sorted(sizes, reverse=True)
    assert match_span(schema_s, schema_s2, SimilarityConfig(cutoff=0.99)).empty


def test_span_of_schema_with_itself_is_full(schema_s):
    span = match_span(schema_s, schema_s, SimilarityConfig(cutoff=0.99))
    assert len(span.apex.entities) == len(schema_s.entities)
    assert len(span.apex.symbols) == len(schema_s.symbols)
    assert all(v == 1.0 for v in span.scores.values())
