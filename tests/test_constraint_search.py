"""The one constraint search behind pi's families and the morphism search.

pi's families are checked against a brute-force filter of the full
product, list for list, so the join keeps the product's order.  The
work-bound test counts the chain evaluations of pi's search (`_value`),
which grow linearly once foreign keys are followed instead of filtered.
"""

import itertools
import math
import random

import pytest

from catq import (
    InstancePresentation,
    ResourceLimit,
    build_term_model,
    enumerate_morphisms,
    generator,
    ground_eq,
    identity_mapping,
    int_literal,
    pi,
    string_literal,
)
from catq import migrate

from conftest import N1, ap, count_calls, max_classes
from test_model import random_instance

# the reference's work is the size of the product it filters
MAX_PRODUCT = 20000


def reference_families(m, idx, cons):
    return [x for x in itertools.product(*(m.carrier(s) for s, _ in idx))
            if all(x[j] == m.op(q, x[i]) for i, q, j in cons)]


def families_args(monkeypatch, f_map, model):
    """The (target entity, index, constraints) of every `_families` call pi makes."""
    calls = []
    real = migrate._families

    def recording(m, t, idx, cons):
        calls.append((t, idx, cons))
        return real(m, t, idx, cons)

    with monkeypatch.context() as mp:
        mp.setattr(migrate, "_families", recording)
        pi(f_map, model)
    return calls


def permuted(idx, cons, rng):
    """The same constraint problem over shuffled positions: some determiners now come later."""
    perm = list(range(len(idx)))
    rng.shuffle(perm)
    new_idx = [None] * len(idx)
    for k, entry in enumerate(idx):
        new_idx[perm[k]] = entry
    return new_idx, [(perm[i], q, perm[j]) for i, q, j in cons]


def assert_families_match(m, t, idx, cons):
    if math.prod(len(m.carrier(s)) for s, _ in idx) > MAX_PRODUCT:
        return False
    assert migrate._families(m, t, idx, cons) == reference_families(m, idx, cons)
    return True


# pi rejects inconsistent inputs
CONSISTENT_SEEDS = [seed for seed in range(24) if not build_term_model(random_instance(seed)).collisions]


@pytest.mark.parametrize("seed", CONSISTENT_SEEDS)
def test_families_match_the_filtered_product(monkeypatch, seed):
    m = build_term_model(random_instance(seed))
    rng = random.Random(seed)
    checked = 0
    for t, idx, cons in families_args(monkeypatch, identity_mapping(m.schema), m):
        checked += assert_families_match(m, t, idx, cons)
        checked += assert_families_match(m, t, *permuted(idx, cons, rng))
    assert checked


def test_families_match_on_the_running_example(monkeypatch, mapping_f, model_i,
                                               mapping_f0, model_i0, mapping_r):
    for f_map, m in ((mapping_f, model_i), (mapping_f0, model_i0), (mapping_r, model_i)):
        for t, idx, cons in families_args(monkeypatch, f_map, m):
            assert assert_families_match(m, t, idx, cons)
            assert assert_families_match(m, t, *permuted(idx, cons, random.Random(0)))
    # criterion 2: with no foreign key, pi is the full N1 x N2 product
    ((t, idx, cons),) = families_args(monkeypatch, mapping_f0, model_i0)
    assert cons == [] and len(migrate._families(model_i0, t, idx, cons)) == 9


def wide_model(schema_s, n):
    """n employees over S, ten distinct ages reached through f, as in the `wide` workload."""
    name, salary, age, f = (schema_s.symbol_named(s) for s in ("name", "salary", "age", "f"))
    gens = [generator(f"e{k}", N1) for k in range(n)]
    eqs = []
    for k, g in enumerate(gens):
        eqs += [ground_eq(ap(name, g), string_literal(f"P{k}")),
                ground_eq(ap(salary, g), int_literal(1000 + k)),
                ground_eq(ap(age, ap(f, g)), int_literal(18 + k % 10))]
    return build_term_model(InstancePresentation(f"W{n}", schema_s, gens, eqs))


def test_pi_work_grows_linearly(monkeypatch, schema_s, mapping_f):
    # following f as a functional dependency evaluates one chain per employee;
    # filtering N1 x N2 evaluates two per pair, 16x from 80 to 320 rows
    steps = {}
    for n in (80, 320):
        m = wide_model(schema_s, n)
        steps[n] = count_calls(monkeypatch, migrate, "_value", lambda: pi(mapping_f, m))
        assert len(pi(mapping_f, m).families["N"]) == n
    assert steps[320] < 8 * steps[80]


def test_pi_family_carrier_is_bounded(mapping_f0, model_i0):
    # nine families in N1 x N2; eight is the most the output may hold
    with max_classes(8), pytest.raises(ResourceLimit, match="family carrier at N exceeded limits"):
        pi(mapping_f0, model_i0)
    with max_classes(9):
        assert len(pi(mapping_f0, model_i0).families["N"]) == 9


def test_morphism_enumeration_is_capped(schema_s, model_i, monkeypatch):
    # two free employees into three: nine morphisms
    free = build_term_model(InstancePresentation(
        "Free2", schema_s, [generator("a", N1), generator("b", N1)], []))
    monkeypatch.setattr(migrate, "MAX_MORPHISMS", 9)
    assert len(enumerate_morphisms(free, model_i)) == 9
    monkeypatch.setattr(migrate, "MAX_MORPHISMS", 8)
    with pytest.raises(ResourceLimit, match="more than 8 morphisms"):
        enumerate_morphisms(free, model_i)
