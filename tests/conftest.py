"""Shared fixtures: the employees/join running example and variants.

Source schema S: N1 --f--> N2 with name/salary on N1 and age on N2.
Target schema T: a single entity N carrying all three attributes.
The mapping F collapses N1 and N2 onto N, sending f to the identity.
S0/F0 are the foreign-key-free variants; S2/R is a pure renaming.
"""

import contextlib
import random

import pytest

from catq import (
    ATTRIBUTE,
    ENTITY,
    FOREIGN_KEY,
    App,
    FunctionSymbol,
    INT,
    InstancePresentation,
    Mapping,
    STRING,
    Schema,
    Sort,
    Var,
    build_term_model,
    builtin_typeside,
    generator,
    ground_eq,
    int_literal,
    string_literal,
)
from catq import migrate, model
from catq.mappings import probe_model

N1 = Sort("N1", ENTITY)
N2 = Sort("N2", ENTITY)
N = Sort("N", ENTITY)


def attr(name, frm, to):
    return FunctionSymbol(name, (frm,), to, ATTRIBUTE)


def fkey(name, frm, to):
    return FunctionSymbol(name, (frm,), to, FOREIGN_KEY)


def ap(sym, term):
    if isinstance(term, FunctionSymbol):
        term = App(term)
    return App(sym, (term,))


@pytest.fixture(scope="session")
def ty():
    return builtin_typeside()


@pytest.fixture(scope="session")
def schema_s(ty):
    f = fkey("f", N1, N2)
    return Schema("S", ty, [N1, N2],
                  [attr("name", N1, STRING), attr("salary", N1, INT), attr("age", N2, INT)],
                  [f])


@pytest.fixture(scope="session")
def schema_t(ty):
    return Schema("T", ty, [N],
                  [attr("name", N, STRING), attr("salary", N, INT), attr("age", N, INT)],
                  [])


@pytest.fixture(scope="session")
def schema_s0(ty):
    """The same two entities with no foreign key between them."""
    return Schema("S0", ty, [N1, N2],
                  [attr("name", N1, STRING), attr("salary", N1, INT), attr("age", N2, INT)],
                  [])


def _sym(schema, name):
    out = schema.symbol_named(name)
    assert out is not None
    return out


@pytest.fixture(scope="session")
def mapping_f(schema_s, schema_t):
    x = Var("x", N)
    return Mapping("F", schema_s, schema_t, {N1: N, N2: N}, {
        _sym(schema_s, "f"): x,
        _sym(schema_s, "name"): ap(_sym(schema_t, "name"), x),
        _sym(schema_s, "salary"): ap(_sym(schema_t, "salary"), x),
        _sym(schema_s, "age"): ap(_sym(schema_t, "age"), x),
    })


@pytest.fixture(scope="session")
def mapping_f0(schema_s0, schema_t):
    x = Var("x", N)
    return Mapping("F0", schema_s0, schema_t, {N1: N, N2: N}, {
        _sym(schema_s0, "name"): ap(_sym(schema_t, "name"), x),
        _sym(schema_s0, "salary"): ap(_sym(schema_t, "salary"), x),
        _sym(schema_s0, "age"): ap(_sym(schema_t, "age"), x),
    })


def employees_instance(schema, name="I"):
    """Three employees with ages reached through the foreign key."""
    g1, g2, g3 = (generator(n, N1) for n in ("e1", "e2", "e3"))
    nm, sal, age, f = (_sym(schema, s) for s in ("name", "salary", "age", "f"))
    eqs = []
    for g, who, pay, yrs in ((g1, "Alice", 100, 20), (g2, "Bob", 250, 20), (g3, "Sue", 300, 30)):
        eqs += [ground_eq(ap(nm, g), string_literal(who)),
                ground_eq(ap(sal, g), int_literal(pay)),
                ground_eq(ap(age, ap(f, g)), int_literal(yrs))]
    return InstancePresentation(name, schema, [g1, g2, g3], eqs)


def split_instance(schema, name="I0"):
    """Three employees and three separate age rows (no foreign key)."""
    g1, g2, g3 = (generator(n, N1) for n in ("e1", "e2", "e3"))
    a1, a2, a3 = (generator(n, N2) for n in ("r1", "r2", "r3"))
    nm, sal, age = (_sym(schema, s) for s in ("name", "salary", "age"))
    eqs = []
    for g, who, pay in ((g1, "Alice", 100), (g2, "Bob", 250), (g3, "Sue", 300)):
        eqs += [ground_eq(ap(nm, g), string_literal(who)),
                ground_eq(ap(sal, g), int_literal(pay))]
    for a, yrs in ((a1, 20), (a2, 20), (a3, 30)):
        eqs.append(ground_eq(ap(age, a), int_literal(yrs)))
    return InstancePresentation(name, schema, [g1, g2, g3, a1, a2, a3], eqs)


def joined_instance(schema, name="J"):
    """The three joined rows over the single-entity schema."""
    u, v, w = (generator(n, N) for n in ("u", "v", "w"))
    nm, sal, age = (_sym(schema, s) for s in ("name", "salary", "age"))
    eqs = []
    for g, who, pay, yrs in ((u, "Alice", 100, 20), (v, "Bob", 250, 20), (w, "Sue", 300, 30)):
        eqs += [ground_eq(ap(nm, g), string_literal(who)),
                ground_eq(ap(sal, g), int_literal(pay)),
                ground_eq(ap(age, g), int_literal(yrs))]
    return InstancePresentation(name, schema, [u, v, w], eqs)


def merge_chain_instance(m, seed):
    """m records of N1 with equal attributes, declared equal along a shuffled chain.

    The attribute equations come first, so every union of the chain repairs
    congruence over existing applications; the shuffle makes the absorbed
    class (the one with the larger root) sometimes the larger class.
    """
    rng = random.Random(seed)
    f, nm, age = fkey("f", N1, N2), attr("name", N1, STRING), attr("age", N2, INT)
    schema = Schema("C", builtin_typeside(), [N1, N2], [nm, age], [f])
    gens = [generator(f"r{k}", N1) for k in range(m)]
    eqs = []
    for g in gens:
        eqs += [ground_eq(ap(nm, g), string_literal("p")),
                ground_eq(ap(age, ap(f, g)), int_literal(30))]
    chain = gens[:]
    rng.shuffle(chain)
    eqs += [ground_eq(App(a), App(b)) for a, b in zip(chain, chain[1:])]
    return InstancePresentation(f"chain{m}", schema, gens, eqs)


def reversed_chain_instance(n):
    """n records with v(r_i) = 7, then r_i = r_(i+1) for every i, last pair first.

    Each union but the first joins one record to the class of all the
    records after it, so a union that absorbed the larger class would
    re-key every earlier record's v.
    """
    e = Sort("E", ENTITY)
    v = attr("v", e, INT)
    schema = Schema("R", builtin_typeside(), [e], [v], [])
    gens = [generator(f"r{i}", e) for i in range(n)]
    eqs = [ground_eq(ap(v, g), int_literal(7)) for g in gens]
    eqs += [ground_eq(App(a), App(b)) for a, b in reversed(list(zip(gens, gens[1:])))]
    return InstancePresentation(f"rchain{n}", schema, gens, eqs)


def count_calls(monkeypatch, owner, name, run):
    """Run `run()` and return how often it called `owner.name`."""
    calls = 0
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(owner, name, counting)
        run()
    return calls


@contextlib.contextmanager
def max_rounds(n):
    """Saturation stops after `n` rounds while the block runs.

    The probe cache is keyed by the limits, which do not hold the round
    cap, so it is cleared on the way in and on the way out.
    """
    probe_model.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "MAX_ROUNDS", n)
            yield
    finally:
        probe_model.cache_clear()


@pytest.fixture()
def pi_ignores_foreign_keys(monkeypatch):
    """Make pi enumerate families as if no foreign key constrained them.

    On the running example such families disagree on age through N1 and
    through N2, which trips pi's well-definedness invariant.
    """
    real = migrate._families
    monkeypatch.setattr(migrate, "_families",
                        lambda m, t, idx, cons, limits: real(m, t, idx, [], limits))


@pytest.fixture()
def paths_without_composites(monkeypatch):
    """Make every path enumeration keep only the identity path, if any, untruncated.

    Along the identity mapping of S, pi then finds no position for f(p) in
    N1's index, which only an incomplete enumeration can cause.
    """
    real = migrate.enumerate_paths

    def identity_only(schema, frm, to, *args, **kwargs):
        ps = real(schema, frm, to, *args, **kwargs)
        return migrate.PathSet(frm, to, [t for t in ps.terms if isinstance(t, Var)])

    monkeypatch.setattr(migrate, "enumerate_paths", identity_only)


@pytest.fixture(scope="session")
def inst_i(schema_s):
    return employees_instance(schema_s)


@pytest.fixture(scope="session")
def model_i(inst_i):
    return build_term_model(inst_i)


@pytest.fixture(scope="session")
def inst_i0(schema_s0):
    return split_instance(schema_s0)


@pytest.fixture(scope="session")
def model_i0(inst_i0):
    return build_term_model(inst_i0)


@pytest.fixture(scope="session")
def inst_j(schema_t):
    return joined_instance(schema_t)


@pytest.fixture(scope="session")
def model_j(inst_j):
    return build_term_model(inst_j)


# -- a pure renaming of S ---------------------------------------------------

M1 = Sort("M1", ENTITY)
M2 = Sort("M2", ENTITY)


@pytest.fixture(scope="session")
def schema_s2(ty):
    return Schema("S2", ty, [M1, M2],
                  [attr("who", M1, STRING), attr("pay", M1, INT), attr("years", M2, INT)],
                  [fkey("g", M1, M2)])


@pytest.fixture(scope="session")
def mapping_r(schema_s, schema_s2):
    """Renaming mapping S -> S2 (bijective on everything)."""
    y1, y2 = Var("y", M1), Var("y", M2)
    return Mapping("R", schema_s, schema_s2, {N1: M1, N2: M2}, {
        _sym(schema_s, "f"): ap(_sym(schema_s2, "g"), y1),
        _sym(schema_s, "name"): ap(_sym(schema_s2, "who"), y1),
        _sym(schema_s, "salary"): ap(_sym(schema_s2, "pay"), y1),
        _sym(schema_s, "age"): ap(_sym(schema_s2, "years"), y2),
    })
