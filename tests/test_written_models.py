"""Term models written into the engine directly: by sigma, delta and pi, and from literal instances.

Each written model must be the model that saturating its presentation
gives, down to class ids; the presentation itself is built only when
`presentation` (the model's `instance`) is first read.  A literal
instance's equations go in as the chains they resolve to, with the same
diagnostics as before.
"""

import importlib
import importlib.util
import inspect
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from catq import (
    Equation,
    FunctionSymbol,
    InstancePresentation,
    ResourceLimit,
    Sort,
    TermModel,
    UnknownSymbol,
    build_term_model,
    delta,
    elaborate,
    generator,
    ground_eq,
    identity_mapping,
    int_literal,
    parse,
    pi,
    render_model,
    sigma,
    string_literal,
)
from catq import cli
from catq.parser import InstanceDecl
from catq.terms import App

from conftest import max_classes, max_rounds
from reference_images import extend
from test_cli import CHAIN, COLLIDING, CYCLIC, IDEMPOTENT, write
from test_dsl import EXAMPLE

SCHEMAS = """\
typeside Ty = literal { }
schema S = literal : Ty {
    entities N1 N2
    foreign_keys f : N1 -> N2
    attributes name : N1 -> String  salary : N1 -> Int  age : N2 -> Int
}
schema S0 = literal : Ty {
    entities N1 N2
    attributes name : N1 -> String  salary : N1 -> Int  age : N2 -> Int
}
schema T = literal : Ty {
    entities N
    attributes name : N -> String  salary : N -> Int  age : N -> Int
}
mapping F = literal : S -> T {
    entities N1 -> N  N2 -> N
    foreign_keys f -> lambda x:N. x
    attributes name -> lambda x:N. name(x)  salary -> lambda x:N. salary(x)  age -> lambda x:N. age(x)
}
mapping F0 = literal : S0 -> T {
    entities N1 -> N  N2 -> N
    attributes name -> lambda x:N. name(x)  salary -> lambda x:N. salary(x)  age -> lambda x:N. age(x)
}
"""


def wide_program(seed, n):
    """n employees over S with ten distinct ages, migrated by sigma, delta and pi."""
    rng = random.Random(seed)
    ages = rng.sample(range(18, 80), 10)
    eqs = [f"name(e{k}) = P{rng.randrange(10 ** 6)}  salary(e{k}) = {rng.randrange(1000, 100000)}"
           f"  age(f(e{k})) = {ages[k % 10]}" for k in range(n)]
    return (SCHEMAS + "instance I = literal : S {\n    generators "
            + " ".join(f"e{k}" for k in range(n)) + " : N1\n    equations\n        "
            + "\n        ".join(eqs) + "\n}\n"
            + "instance J = sigma F I\ninstance K = delta F J\ninstance P = pi F I\n")


def laws_program(seed, rows):
    """Rows i and i+2 equal, over S for F and over S0 for F0, and the joined rows over T."""
    rng = random.Random(seed)
    vals = [(f"w{rng.randrange(10 ** 6)}", rng.randrange(1000, 100000), rng.randrange(18, 80))
            for _ in range(2)]
    vals = [vals[i % 2] for i in range(rows)]
    s = [f"s{i}" for i in range(rows)]
    i_eqs = " ".join(f"name({g}) = {w}  salary({g}) = {p}  age(f({g})) = {a}"
                     for g, (w, p, a) in zip(s, vals))
    i0_eqs = " ".join(f"name({g}) = {w}  salary({g}) = {p}  age(t{k}) = {a}"
                      for k, (g, (w, p, a)) in enumerate(zip(s, vals)))
    j_eqs = " ".join(f"name(u{k}) = {w}  salary(u{k}) = {p}  age(u{k}) = {a}"
                     for k, (w, p, a) in enumerate(vals))
    return SCHEMAS + f"""\
instance I = literal : S {{ generators {' '.join(s)} : N1 equations {i_eqs} }}
instance I0 = literal : S0 {{
    generators {' '.join(s)} : N1  {' '.join(f't{k}' for k in range(rows))} : N2
    equations {i0_eqs}
}}
instance J = literal : T {{ generators {' '.join(f'u{k}' for k in range(rows))} : N equations {j_eqs} }}
instance SI = sigma F I
instance DJ = delta F J
instance PI = pi F I
instance DSI = delta F SI
instance SDJ = sigma F DJ
instance PDJ = pi F DJ
instance DPI = delta F PI
instance SI0 = sigma F0 I0
instance DJ0 = delta F0 J
instance PI0 = pi F0 I0
instance DPI0 = delta F0 PI0
"""


# typeside constants and a target attribute that no source path factors
# through, so pi's output holds labeled nulls beside pinned constants
NULLS = """\
typeside Ty = literal { types Color constants red blue : Color }
schema S = literal : Ty {
    entities N1 N2
    foreign_keys f : N1 -> N2
    attributes c : N1 -> Color  d : N2 -> Color  n : N1 -> Int
}
schema T = literal : Ty {
    entities N
    attributes c : N -> Color  d : N -> Color  n : N -> Int  z : N -> String
}
mapping F = literal : S -> T {
    entities N1 -> N  N2 -> N
    foreign_keys f -> lambda x:N. x
    attributes c -> lambda x:N. c(x)  d -> lambda x:N. d(x)  n -> lambda x:N. n(x)
}
instance I = literal : S {
    generators e1 e2 : N1  r : N2
    equations c(e1) = red  d(f(e1)) = red  c(e2) = blue  n(e1) = 4
}
instance J = sigma F I
instance K = delta F J
instance P = pi F I
instance Q = delta F P
"""

# sigma equates a(e1) = 1 with b(f(e1)) = 2 through v
SIGMA_COLLIDES = """\
typeside Ty = literal { }
schema S = literal : Ty {
    entities N1 N2
    foreign_keys f : N1 -> N2
    attributes a : N1 -> Int  b : N2 -> Int
}
schema T = literal : Ty { entities N attributes v : N -> Int }
mapping F = literal : S -> T {
    entities N1 -> N  N2 -> N
    foreign_keys f -> lambda x:N. x
    attributes a -> lambda x:N. v(x)  b -> lambda x:N. v(x)
}
instance I = literal : S {
    generators e1 e2 e3 : N1
    equations a(e1) = 1  b(f(e1)) = 2  a(e2) = 5  b(f(e2)) = 5  a(e3) = 3  b(f(e3)) = 4
}
instance J = sigma F I
"""

# a target constraint that equates pi's fresh nulls: a(N_1), a(N_2) and b(M_1) are one class
CONSTRAINED_NULLS = """\
typeside Ty = literal { }
schema S = literal : Ty { entities E }
schema T = literal : Ty {
    entities N M
    foreign_keys h : N -> M
    attributes a : N -> Int  b : M -> Int
    equations forall x:N. a(x) = b(h(x))
}
mapping F = literal : S -> T { entities E -> N }
instance I = literal : S { generators e1 e2 : E }
instance P = pi F I
"""

# ground typeside equations, between two constants and between a constant and a literal
TYPESIDE_EQUATIONS = """\
typeside Ty = literal {
    types Color
    constants red crimson blue : Color  zero : Int
    equations crimson = red  zero = 0
}
schema S = literal : Ty {
    entities E
    attributes c : E -> Color  n : E -> Int  s : E -> String
}
instance I = literal : S {
    generators e1 e2 e3 : E
    equations c(e1) = crimson  c(e2) = blue  n(e1) = zero  n(e2) = 5  s(e1) = x
}
mapping Id = identity S
instance K = delta Id I
instance P = pi Id I
"""

# constants equated with each other and with literals in the inputs, so that delta and pi pin
# them to their class's anchor; pi leaves four attributes with no factorization, three on N;
# J holds a String literal named like the first String null that delta makes of J
PINNED = """\
typeside Ty = literal { types Color constants red blue green : Color  zero one : Int }
schema S = literal : Ty {
    entities E
    attributes c : E -> Color  n : E -> Int
}
schema T = literal : Ty {
    entities N M
    foreign_keys h : N -> M
    attributes c : N -> Color  n : N -> Int  note : N -> String  rank : N -> Int  size : M -> Int
}
mapping F = literal : S -> T {
    entities E -> N
    attributes c -> lambda x:N. c(x)  n -> lambda x:N. n(x)
}
instance I = literal : S {
    generators e1 e2 e3 : E
    equations c(e1) = red  c(e1) = blue  c(e2) = green  n(e1) = zero  n(e1) = 0  n(e2) = one  n(e3) = 7
}
instance J = literal : T {
    generators u1 u2 u3 : N  m : M
    equations
        h(u1) = m  c(u1) = blue  c(u1) = green  c(u2) = red  n(u1) = 0  n(u1) = zero  n(u2) = one
        size(m) = 4  note(u2) = hi  rank(u3) = 4  note(u3) = String_null1
}
instance P = pi F I
instance K = delta F J
instance Q = delta F P
instance R = pi F K
"""

# the module, which the package's attribute `elaborate` (the function) hides
elaborate_module = importlib.import_module("catq.elaborate")

CYCLIC_FINITE = CYCLIC.replace(
    "generators a : E }", "generators a b : E equations nxt(nxt(nxt(a))) = a  nxt(b) = nxt(a) }")

IDENTITIES = {
    "CHAIN": CHAIN + "mapping Id = identity D\n"
                     "instance S = sigma Id I\ninstance Dl = delta Id I\ninstance P = pi Id I\n",
    "CYCLIC": CYCLIC_FINITE + "mapping Id = identity L\n"
                              "instance S = sigma Id W\ninstance Dl = delta Id W\n"
                              "instance DS = delta Id S\n",
    # pi along the identity of a schema with a constraint
    "IDEMPOTENT": IDEMPOTENT + "instance Dl = delta Id P\ninstance Sg = sigma Id P\n",
}

PROGRAMS = {
    "EXAMPLE": EXAMPLE,
    **{f"wide-{seed}": wide_program(seed, 12) for seed in (1, 2, 3)},
    **{f"laws-{seed}-{rows}": laws_program(seed, rows) for seed in (1, 2, 3) for rows in (2, 3)},
    "NULLS": NULLS,
    "SIGMA_COLLIDES": SIGMA_COLLIDES,
    "CONSTRAINED_NULLS": CONSTRAINED_NULLS,
    "TYPESIDE_EQUATIONS": TYPESIDE_EQUATIONS,
    "PINNED": PINNED,
    **IDENTITIES,
}


def translated(f_map, inst, name):
    """The presentation of sigma(f_map, inst), built eagerly by substitution."""
    gen_map = {g: generator(g.name, f_map.sort_image(g.out_sort)) for g in inst.generators}
    eqs = [Equation((), extend(f_map, eq.lhs, gen_map), extend(f_map, eq.rhs, gen_map))
           for eq in inst.equations]
    return InstancePresentation(name, f_map.target, list(gen_map.values()), eqs)


def assert_agrees(written, built):
    """Every observable of a written model equals that of the saturated one."""
    assert written.carriers == built.carriers
    assert [written.label(c) for c in written.all_classes()] == \
        [built.label(c) for c in built.all_classes()]
    assert written.literal_of == built.literal_of
    assert [(k.lit1, k.lit2, k.class_id) for k in written.collisions] == \
        [(k.lit1, k.lit2, k.class_id) for k in built.collisions]
    assert written.canonical == built.canonical
    for fmt in ("markdown", "csv", "json"):
        assert render_model(written, fmt) == render_model(built, fmt)


def derived(text):
    """The environment of a program and the names of its sigma, delta and pi instances."""
    prog, diags = parse(text)
    assert diags == []
    env, diags = elaborate(prog)
    assert diags == []
    names = [d.name for d in prog.decls if getattr(d, "op", None) in ("sigma", "delta", "pi")]
    assert names
    return env, names


@pytest.mark.parametrize("name", PROGRAMS)
def test_written_models_agree_with_their_saturated_presentations(name):
    env, names = derived(PROGRAMS[name])
    for n in names:
        assert_agrees(env.models[n], build_term_model(env.instances[n]))


def test_written_fixture_migrations_agree(mapping_f, mapping_f0, mapping_r, inst_i, inst_i0,
                                          model_i, model_i0, model_j):
    for res in (sigma(mapping_f, inst_i), delta(mapping_f, model_j), pi(mapping_f, model_i),
                sigma(mapping_f0, inst_i0), delta(mapping_f0, model_j), pi(mapping_f0, model_i0),
                sigma(mapping_r, inst_i), pi(mapping_r, model_i)):
        assert_agrees(res.model, build_term_model(res.presentation))


def test_written_sigma_keeps_the_collisions_of_its_presentation():
    env, _ = derived(SIGMA_COLLIDES)
    assert [str(k) for k in env.models["J"].collisions] == ["Collision(1, 2) at sort Int",
                                                            "Collision(3, 4) at sort Int"]


def test_written_sigma_hits_the_limit_of_its_presentation():
    # W is infinite; sigma along the identity stops where saturating its presentation does
    sch = elaborate(parse(CYCLIC)[0])[0].schemas["L"]
    inst = InstancePresentation("W", sch, [generator("a", sch.entity_named("E"))])
    ident = identity_mapping(sch, "Id")
    with max_rounds(5), pytest.raises(ResourceLimit) as written:
        sigma(ident, inst)
    with max_rounds(5), pytest.raises(ResourceLimit) as built:
        build_term_model(translated(ident, inst, "sigma_Id_W"))
    assert str(written.value) == str(built.value) == "saturation of sigma_Id_W exceeded 5 rounds"


# ---------------------------------------------------------------------------
# Presentations are built on first read


@pytest.fixture()
def equations_in_migrations(monkeypatch):
    """Counts the equations constructed while sigma, delta or pi runs in the elaborator."""
    count = {"inside": 0, "equations": 0}
    real_init = Equation.__init__

    def counting(self, *args, **kwargs):
        count["equations"] += bool(count["inside"])
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Equation, "__init__", counting)
    for op in ("sigma", "delta", "pi"):
        real = getattr(elaborate_module, op)

        def traced(*args, _real=real, **kwargs):
            count["inside"] += 1
            try:
                return _real(*args, **kwargs)
            finally:
                count["inside"] -= 1

        monkeypatch.setattr(elaborate_module, op, traced)
    return count


def test_migrations_build_no_equation_until_the_presentation_is_read(equations_in_migrations):
    env, names = derived(wide_program(4, 20))
    assert names == ["J", "K", "P"]
    assert equations_in_migrations["equations"] == 0
    assert all(n in env.instances and "instance" not in vars(env.models[n]) for n in names)
    # reading one presentation builds that one alone
    k = env.instances["K"]
    assert "instance" in vars(env.models["K"])
    assert all("instance" not in vars(env.models[n]) for n in ("J", "P"))
    assert env.instances["K"] is k and env.models["K"].instance is k
    assert env.instances["J"] == translated(env.mappings["F"], env.instances["I"], "J")


def _shown(pres):
    return (pres.name, [f"{g.name}:{g.out_sort.name}" for g in pres.generators],
            [repr(eq) for eq in pres.equations])


def test_delta_presentation_lists_pins_then_rows(mapping_f, model_j):
    assert _shown(delta(mapping_f, model_j).presentation) == (
        "delta_F_J",
        ["N1_1:N1", "N1_2:N1", "N1_3:N1", "N2_1:N2", "N2_2:N2", "N2_3:N2"],
        ["Alice = Alice", "Bob = Bob", "Sue = Sue",
         "100 = 100", "20 = 20", "250 = 250", "30 = 30", "300 = 300",
         "f(N1_1) = N2_1", "name(N1_1) = Alice", "salary(N1_1) = 100",
         "f(N1_2) = N2_2", "name(N1_2) = Bob", "salary(N1_2) = 250",
         "f(N1_3) = N2_3", "name(N1_3) = Sue", "salary(N1_3) = 300",
         "age(N2_1) = 20", "age(N2_2) = 20", "age(N2_3) = 30"])


def test_pi_presentation_lists_pins_then_rows(mapping_f, model_i):
    assert _shown(pi(mapping_f, model_i).presentation) == (
        "pi_F_I",
        ["N_1:N", "N_2:N", "N_3:N"],
        ["Alice = Alice", "Bob = Bob", "Sue = Sue",
         "100 = 100", "20 = 20", "250 = 250", "30 = 30", "300 = 300",
         "name(N_1) = Alice", "name(N_2) = Bob", "name(N_3) = Sue",
         "salary(N_1) = 100", "salary(N_2) = 250", "salary(N_3) = 300",
         "age(N_1) = 20", "age(N_2) = 20", "age(N_3) = 30"])


# ---------------------------------------------------------------------------
# Literal instances go into saturation as chains

ROOT = Path(__file__).resolve().parent.parent
# the benchmark's program generators, loaded from their file (bench/ is not a package)
_spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
bench_gen = sys.modules["bench_gen"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gen)

LITERAL_PROGRAMS = {
    **PROGRAMS,
    "CHAIN": CHAIN,
    "COLLIDING": COLLIDING,
    **{f"gen-wide-{seed}": bench_gen.wide(seed, 80).text for seed in (1, 2, 3)},
    **{f"gen-deep-{seed}": bench_gen.deep(seed, 10).text for seed in (1, 2, 3)},
    **{f"gen-dedup-{seed}": bench_gen.dedup(seed, 200, 25).text for seed in (1, 2, 3)},
}


def literal_models(text):
    """The environment of a program and the names of its literal instances."""
    prog, diags = parse(text)
    assert diags == []
    env, diags = elaborate(prog)
    assert diags == []
    names = [d.name for d in prog.decls if isinstance(d, InstanceDecl)]
    assert names
    return env, names


@pytest.mark.parametrize("name", LITERAL_PROGRAMS)
def test_literal_models_agree_with_their_saturated_presentations(name):
    env, names = literal_models(LITERAL_PROGRAMS[name])
    for n in names:
        assert_agrees(env.models[n], build_term_model(env.models[n].instance))


def test_colliding_literal_instance_keeps_its_collision():
    env, _ = literal_models(COLLIDING)
    assert [str(k) for k in env.models["B"].collisions] == ["Collision(20, 30) at sort Int"]


def test_literal_instances_build_no_term(monkeypatch):
    count = {"inside": 0, "terms": 0}
    for cls in (App, Equation):
        real_init = cls.__init__

        def counting(self, *args, _real=real_init, **kwargs):
            count["terms"] += bool(count["inside"])
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    real_do_instance = elaborate_module._Elaborator.do_instance

    def traced(self, d):
        count["inside"] += 1
        try:
            return real_do_instance(self, d)
        finally:
            count["inside"] -= 1

    monkeypatch.setattr(elaborate_module._Elaborator, "do_instance", traced)
    for text in (EXAMPLE, bench_gen.wide(1, 20).text, bench_gen.dedup(1, 24, 4).text):
        env, names = literal_models(text)
        assert count["inside"] == count["terms"] == 0
        assert all("instance" not in vars(env.models[n]) for n in names)


def test_literal_presentation_equals_the_eager_one():
    env, _ = literal_models(EXAMPLE.replace("salary(e2) = 250", "salary(e2) = 0250"))
    sch = env.schemas["S"]
    name, salary, age, f = (sch.symbol_named(s) for s in ("name", "salary", "age", "f"))
    n1 = sch.entity_named("N1")
    eqs = []
    for k, (who, pay, years) in enumerate([("Alice", 100, 20), ("Bob", 250, 20), ("Sue", 300, 30)]):
        e = App(generator(f"e{k + 1}", n1))
        eqs += [ground_eq(App(name, (e,)), string_literal(who)),
                ground_eq(App(salary, (e,)), int_literal(pay)),
                ground_eq(App(age, (App(f, (e,)),)), int_literal(years))]
    eager = InstancePresentation("I", sch, [generator(f"e{k}", n1) for k in (1, 2, 3)], eqs)
    assert env.instances["I"] == eager
    assert _shown(env.instances["I"]) == (
        "I", ["e1:N1", "e2:N1", "e3:N1"],
        ["name(e1) = Alice", "salary(e1) = 100", "age(f(e1)) = 20",
         "name(e2) = Bob", "salary(e2) = 250", "age(f(e2)) = 20",
         "name(e3) = Sue", "salary(e3) = 300", "age(f(e3)) = 30"])
    # sigma read I's chains, not its presentation; its own is built from its chains
    assert env.instances["J"] == translated(env.mappings["F"], eager, "J")
    assert _shown(env.instances["J"])[2] == [
        "name(e1) = Alice", "salary(e1) = 100", "age(e1) = 20",
        "name(e2) = Bob", "salary(e2) = 250", "age(e2) = 20",
        "name(e3) = Sue", "salary(e3) = 300", "age(e3) = 30"]


# ---------------------------------------------------------------------------
# Resolution errors: each is reported once, with its span, and the
# equations that resolve still make the model

DIAGNOSED = """\
typeside Ty = literal { types Color constants red blue : Color }
schema S = literal : Ty {
    entities N1 N2
    foreign_keys f : N1 -> N2
    attributes name : N1 -> String  salary : N1 -> Int  age : N2 -> Int  c : N1 -> Color
}
instance I = literal : S {
    generators e1 e2 : N1  t : N2
    equations
        name(e1) = Alice
        %s
        c(e2) = blue
}
"""

RESOLUTION_ERRORS = {
    "unknown symbol": ("nm(e1) = Bob", "UnknownSymbol", "unknown symbol nm", (11, 9, 11, 15)),
    "wrong arity": ("name(e1, e2) = Bob", "SortMismatch", "name takes one argument",
                    (11, 9, 11, 21)),
    "bad Int literal": ("salary(e1) = x12", "SortMismatch", "'x12' is not an Int literal",
                        (11, 22, 11, 25)),
    "argument sort": ("age(f(f(e1))) = 5", "SortMismatch",
                      "argument of f has sort N2, expected N1", (11, 13, 11, 21)),
    "side sorts": ("name(e1) = salary(e2)", "SortMismatch",
                   "equation sides have sorts String and Int", (11, 9, 11, 30)),
    "unresolvable name": ("e1 = zz", "NameResolution", "cannot resolve 'zz' at sort N1",
                          (11, 14, 11, 16)),
    "unresolvable leaf": ("zz = e1", "NameResolution", "cannot resolve 'zz'", (11, 9, 11, 11)),
}


@pytest.mark.parametrize("case", RESOLUTION_ERRORS)
def test_resolution_errors_are_pinned_and_the_rest_is_saturated(case):
    bad, code, message, span = RESOLUTION_ERRORS[case]
    prog, diags = parse(DIAGNOSED % f"{bad}  f(e1) = t  salary(e2) = 007")
    assert diags == []
    env, diags = elaborate(prog)
    assert [(d.code, d.message, tuple(d.span)[1:]) for d in diags] == [(code, message, span)]
    m = env.models["I"]
    assert _shown(m.instance)[2] == ["name(e1) = Alice", "f(e1) = t", "salary(e2) = 7",
                                     "c(e2) = blue"]
    assert_agrees(m, build_term_model(m.instance))


# ---------------------------------------------------------------------------
# delta and pi write their models with no saturation: the direct build
# against `saturate` on the same pins and rows

model_module = importlib.import_module("catq.model")
migrate_module = importlib.import_module("catq.migrate")
_spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
sys.modules.setdefault("gen", bench_gen)  # the name bench/workloads.py imports its generators by
bench_workloads = sys.modules["bench_workloads"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_workloads)


def _column(m, f):
    try:
        return m.column(f)
    except UnknownSymbol as e:
        return str(e)


def assert_same_model(direct, saturated):
    """Two term models agree in every piece: operation tables, canonical terms and their order, facts."""
    # saturating keeps a table, empty, for a symbol on a sort with no classes
    assert direct.tables == {f: tab for f, tab in saturated.tables.items() if tab or f in direct.tables}
    assert list(direct._chosen.items()) == list(saturated._chosen.items())
    assert list(direct.carriers.items()) == list(saturated.carriers.items())
    assert list(direct.id_label.items()) == list(saturated.id_label.items())
    assert list(direct.literal_of.items()) == list(saturated.literal_of.items())
    assert [(k.sort, k.lit1, k.lit2, k.class_id) for k in direct.collisions] == \
        [(k.sort, k.lit1, k.lit2, k.class_id) for k in saturated.collisions]
    for f in direct.schema.symbols:
        assert _column(direct, f) == _column(saturated, f)
    assert direct.labels(direct.all_classes()) == saturated.labels(saturated.all_classes())
    assert [direct.class_of(g) for g in direct.generators] == [saturated.class_of(g) for g in saturated.generators]
    assert direct.generators == saturated.generators
    assert direct.chains == saturated.chains
    assert direct.instance == saturated.instance


@pytest.fixture()
def differential(monkeypatch):
    """Checks every model delta and pi write against `saturate` on the same pins and rows.

    Counts `written` models and the `saturated` ones among them: the
    `saturate` calls made inside `write_model`, its fallbacks.  A
    `ResourceLimit` must be the one `saturate` raises.  The memo of
    migration results is emptied first, so every call writes its model.
    """
    count = Counter()
    real_write, real_saturate = model_module.write_model, model_module.saturate
    inside = []

    def saturate(*args, **kwargs):
        count["saturated"] += bool(inside)
        return real_saturate(*args, **kwargs)

    def write_model(schema, name, generators, pins, rows):
        chains = [((a,), (b,)) for a, b in pins] + [((g, q), (v,)) for q, g, v in rows]
        try:
            expected = real_saturate(schema, name, generators, chains)
        except ResourceLimit as e:
            expected = e
        inside.append(name)
        try:
            got = real_write(schema, name, generators, pins, rows)
        except ResourceLimit as e:
            got = e
        finally:
            inside.pop()
        count["written"] += 1
        assert type(got) is type(expected)
        if isinstance(got, ResourceLimit):
            assert str(got) == str(expected)
            raise got
        assert_same_model(got, expected)
        return got

    monkeypatch.setattr(model_module, "saturate", saturate)
    monkeypatch.setattr(migrate_module, "write_model", write_model)
    migrate_module._results.clear()
    return count


def test_direct_builds_of_the_fixture_migrations(differential, mapping_f, mapping_f0, mapping_r,
                                                 model_i, model_i0, model_j):
    for res in (delta(mapping_f, model_j), pi(mapping_f, model_i), delta(mapping_f0, model_j),
                pi(mapping_f0, model_i0), pi(mapping_r, model_i)):
        assert_agrees(res.model, build_term_model(res.presentation))
    assert differential == Counter(written=5)


def test_direct_builds_of_the_acceptance_corpus(differential, request):
    import test_acceptance
    for criterion in (test_acceptance.test_criterion_1_join_round_trip,
                      test_acceptance.test_criterion_2_functor_trio_without_foreign_key,
                      test_acceptance.test_criterion_3_adjunctions_on_corpus,
                      test_acceptance.test_criterion_4_functoriality):
        criterion(**{arg: request.getfixturevalue(arg) for arg in inspect.signature(criterion).parameters})
    assert differential["written"] > 30 and differential["saturated"] == 0


@pytest.mark.parametrize("name", ["CONSTRAINED_NULLS", "TYPESIDE_EQUATIONS", "PINNED", "NULLS", "IDEMPOTENT",
                                  "CHAIN", "CYCLIC", *(f"laws-{seed}-3" for seed in (1, 2, 3))])
def test_direct_builds_of_the_programs(differential, name):
    derived(PROGRAMS[name])
    assert differential["written"] > 0
    # merges decide the first two: a constraint that equates pi's nulls, and typeside equations
    assert differential["saturated"] == {"CONSTRAINED_NULLS": 1, "TYPESIDE_EQUATIONS": 2}.get(name, 0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_wide_runs_no_saturation_in_delta_and_pi(differential, seed):
    derived(bench_gen.wide(seed, 80).text)
    assert differential == Counter(written=2)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_laws_runs_no_saturation_in_delta_and_pi(differential, tmp_path, seed):
    state = bench_workloads.prepare_laws(seed, tmp_path)
    for k in range(state.cycle):
        bench_workloads.run_laws(state, k)
    assert differential["written"] >= 4 * state.cycle and differential["saturated"] == 0


@pytest.mark.parametrize("seed", range(12))
def test_direct_builds_along_identities_of_random_schemas(differential, seed):
    from test_model import random_instance  # test_model imports this module
    inst = random_instance(seed)
    m = build_term_model(inst)
    if m.collisions:
        return
    ident = identity_mapping(inst.schema, "Id")
    delta(ident, m)
    pi(ident, m)
    assert differential == Counter(written=2)


# TX is T with two more attributes, which no attribute of S factors through
SCHEMA_ENV = elaborate(parse(SCHEMAS + """\
schema TX = literal : Ty {
    entities N
    attributes name : N -> String  salary : N -> Int  age : N -> Int  note : N -> String  rank : N -> Int
}
mapping FX = literal : S -> TX {
    entities N1 -> N  N2 -> N
    foreign_keys f -> lambda x:N. x
    attributes name -> lambda x:N. name(x)  salary -> lambda x:N. salary(x)  age -> lambda x:N. age(x)
}
""")[0])[0]
# the mappings each schema is pushed along: (functor, mapping name or None for its identity)
PUSHED = {"S": [(pi, "F"), (pi, "FX"), (delta, None), (pi, None)],
          "S0": [(pi, "F0"), (delta, None), (pi, None)],
          "T": [(delta, "F"), (delta, "F0"), (delta, None), (pi, None)],
          "TX": [(delta, "FX"), (delta, None), (pi, None)]}


@st.composite
def small_instances(draw):
    """A small instance on S, S0 or T: a few generators and equations between their terms and literals."""
    sch = SCHEMA_ENV.schemas[draw(st.sampled_from(sorted(PUSHED)))]
    gens = [generator(f"{e.name.lower()}{k}", e) for e in sch.entities for k in range(draw(st.integers(0, 3)))]
    terms = [App(g) for g in gens]
    for fk in sch.foreign_keys:
        terms += [App(fk, (t,)) for t in terms if t.sort == fk.arg_sorts[0]]
    terms += [App(att, (t,)) for att in sch.attributes for t in terms if t.sort == att.arg_sorts[0]]
    terms += [string_literal(w) for w in ("A", "B")] + [int_literal(n) for n in (1, 2, 3)]
    eqs = []
    for _ in range(draw(st.integers(0, 6))):
        lhs = draw(st.sampled_from(terms))
        eqs.append(ground_eq(lhs, draw(st.sampled_from([t for t in terms if t.sort == lhs.sort]))))
    return InstancePresentation("H", sch, gens, eqs)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(small_instances())
def test_direct_builds_of_generated_instances(differential, inst):
    m = build_term_model(inst)
    if m.collisions:
        return
    migrate_module._results.clear()
    before = differential["written"]
    for functor, name in PUSHED[inst.schema.name]:
        f_map = SCHEMA_ENV.mappings[name] if name else identity_mapping(inst.schema, "Id")
        functor(f_map, m)
    assert differential["written"] - before == len(PUSHED[inst.schema.name])
    assert differential["saturated"] == 0


def test_fallback_output_is_pinned(tmp_path, capsys, monkeypatch):
    # saturation merges pi's three fresh nulls through the constraint; the direct build leaves that to it
    count = Counter()
    real = model_module.saturate

    def counting(schema, name, *args, **kwargs):
        count[name] += 1
        return real(schema, name, *args, **kwargs)

    monkeypatch.setattr(model_module, "saturate", counting)
    assert cli.main(["eval", write(tmp_path, CONSTRAINED_NULLS)]) == 0
    assert capsys.readouterr() == ("""\
# instance I
## E
| ID |
|---|
| 1 |
| 2 |

# instance P
## N
| ID | a | h |
|---|---|---|
| 1 | a(1) | 1 |
| 2 | a(1) | 1 |

## M
| ID | b |
|---|---|
| 1 | a(1) |

""", "")
    assert count == {"I": 1, "P": 1}
    count.clear()
    assert cli.main(["eval", write(tmp_path, TYPESIDE_EQUATIONS)]) == 0
    assert capsys.readouterr() == ("""\
# instance I
## E
| ID | c | n | s |
|---|---|---|---|
| 1 | crimson | 0 | x |
| 2 | blue | 5 | s(2) |
| 3 | c(3) | n(3) | s(3) |

# instance K
## E
| ID | c | n | s |
|---|---|---|---|
| 1 | crimson | 0 | x |
| 2 | blue | 5 | String_null1 |
| 3 | Color_null1 | Int_null1 | String_null2 |

# instance P
## E
| ID | c | n | s |
|---|---|---|---|
| 1 | crimson | 0 | x |
| 2 | blue | 5 | String_null1 |
| 3 | Color_null1 | Int_null1 | String_null2 |

""", "")
    assert count == {"I": 1, "K": 1, "P": 1}


LIMITED = {  # (program, functor, its mapping and input, class cap, round cap) -> the message saturating the tables gave
    ("EXAMPLE", "delta F J", 2, 1000):
        "carrier of N1 in X exceeded 2 classes (the term model may be infinite)",
    ("EXAMPLE", "delta F J", 3, 1000):
        "carrier of Int in X exceeded 3 classes (the term model may be infinite)",
    ("EXAMPLE", "pi F I", 2, 1000): "family carrier at N exceeded limits",
    ("EXAMPLE", "pi F I", 4, 1000):
        "carrier of Int in X exceeded 4 classes (the term model may be infinite)",
    ("NULLS", "delta F J", 1, 1000):
        "carrier of Color in X exceeded 1 classes (the term model may be infinite)",
    ("NULLS", "pi F I", 2, 1000):
        "carrier of Color in X exceeded 2 classes (the term model may be infinite)",
    # pi's nulls are made in the first round, so saturating them takes a second
    ("NULLS", "pi F I", 10000, 1): "saturation of X exceeded 1 rounds",
    # the fallbacks: saturate's first round merges the nulls, so a second must run; typeside equations
    ("CONSTRAINED_NULLS", "pi F I", 10000, 1): "saturation of X exceeded 1 rounds",
    ("TYPESIDE_EQUATIONS", "delta Id I", 2, 1000):
        "carrier of Color in X exceeded 2 classes (the term model may be infinite)",
}


@pytest.mark.parametrize("case", LIMITED, ids=lambda case: "-".join(map(str, case)).replace(" ", "-"))
def test_delta_and_pi_raise_the_limits_of_saturation(differential, case):
    program, call, cap, rounds = case
    functor, mapping, arg = call.split()
    env, _ = derived(PROGRAMS[program])
    with max_rounds(rounds), max_classes(cap), pytest.raises(ResourceLimit) as err:
        {"delta": delta, "pi": pi}[functor](env.mappings[mapping], env.models[arg], name="X")
    assert str(err.value) == LIMITED[case]


def test_a_fallback_to_saturate_comes_before_the_written_closures_limit(differential):
    # the written tables hold three Int nulls, over the limit; a(x) = b(h(x)) merges them into one, within it
    env, _ = derived(PROGRAMS["CONSTRAINED_NULLS"])
    differential.clear()
    with max_classes(2):
        p = pi(env.mappings["F"], env.models["I"], name="X").model
    assert len(p.carrier(p.schema.symbol_named("a").out_sort)) == 1
    assert differential == {"written": 1, "saturated": 1}


# ---------------------------------------------------------------------------
# The freeze, delta and write_model key their per-sort state by id(): `Sort.__hash__` is a Python call


@pytest.mark.parametrize("workload", ["wide", "deep"])
def test_the_freeze_hashes_sorts_a_number_of_times_bounded_by_the_sorts(monkeypatch, workload):
    hashes: Counter = Counter()  # model name -> Sort.__hash__ calls inside its freeze
    inside: list[str] = []
    real_hash, real_init = Sort.__hash__, TermModel.__init__

    def counting_hash(self):
        if inside:
            hashes[inside[-1]] += 1
        return real_hash(self)

    def freeze(self, schema, name, *args, **kwargs):
        inside.append(name)
        try:
            real_init(self, schema, name, *args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(Sort, "__hash__", counting_hash)
    monkeypatch.setattr(TermModel, "__init__", freeze)
    text = bench_gen.wide(1, 80).text if workload == "wide" else bench_gen.deep(1, 10).text
    env, diags = elaborate(parse(text)[0])
    assert diags == []
    for m in env.models.values():
        sorts = len(m.schema.entities) + len(m.schema.typeside.types)
        assert 0 < hashes[m.name] <= 4 * sorts < len(m.all_classes()), m.name


def _sort_hashes(monkeypatch, run) -> int:
    """`Sort.__hash__` calls made by run(), less those made constructing a `FunctionSymbol` (one per generator)."""
    calls, building = 0, []
    real_hash, real_init = Sort.__hash__, FunctionSymbol.__init__

    def counting_hash(self):
        nonlocal calls
        calls += not building
        return real_hash(self)

    def init(self, *args, **kwargs):
        building.append(self)
        try:
            real_init(self, *args, **kwargs)
        finally:
            building.pop()

    with monkeypatch.context() as mp:
        mp.setattr(Sort, "__hash__", counting_hash)
        mp.setattr(FunctionSymbol, "__init__", init)
        run()
    return calls


def test_delta_and_pi_hash_sorts_as_often_at_any_size(monkeypatch):
    counts = {}
    for n in (80, 320):
        env, _ = derived(bench_gen.wide(1, n).text)
        f_map, i, j = env.mappings["F"], env.models["I"], env.models["J"]
        counts[n] = (_sort_hashes(monkeypatch, lambda: delta(f_map, j)),
                     _sort_hashes(monkeypatch, lambda: pi(f_map, i)))
    assert all(counts[80]) and counts[80] == counts[320]
