"""Term models that sigma, delta and pi write into the engine directly.

Each written model must be the model that saturating its presentation
gives, down to class ids; the presentation itself is built only when
`presentation` (the model's `instance`) is first read.
"""

import importlib
import random

import pytest

from catq import (
    Equation,
    InstancePresentation,
    ResourceLimit,
    SaturationLimits,
    build_term_model,
    delta,
    elaborate,
    generator,
    identity_mapping,
    parse,
    pi,
    render_model,
    sigma,
)
from catq.migrate import translate_presentation

from test_cli import CHAIN, CYCLIC, IDEMPOTENT
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
    **IDENTITIES,
}


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
    ident, limits = identity_mapping(sch, "Id"), SaturationLimits(max_rounds=5)
    with pytest.raises(ResourceLimit) as written:
        sigma(ident, inst, limits)
    with pytest.raises(ResourceLimit) as built:
        build_term_model(translate_presentation(ident, inst)[0], limits=limits)
    assert str(written.value) == str(built.value) == "saturation of sigma_Id_W exceeded 5 rounds"


# ---------------------------------------------------------------------------
# Presentations are built on first read


@pytest.fixture()
def equations_in_migrations(monkeypatch):
    """Counts the equations constructed while sigma, delta or pi runs in the elaborator."""
    count = {"inside": 0, "equations": 0}
    real_post_init = Equation.__post_init__

    def counting(self):
        count["equations"] += bool(count["inside"])
        real_post_init(self)

    monkeypatch.setattr(Equation, "__post_init__", counting)
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
    sigma_pres, _ = translate_presentation(env.mappings["F"], env.instances["I"], "J")
    assert env.instances["J"] == sigma_pres


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
