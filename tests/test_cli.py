"""End-to-end runs of the catq command line."""

import gc
import json

import pytest

import catq.model
from catq import InvariantViolation, cli, elaborate, parse, pretty_print
from catq.cli import main
from catq.terms import render_term

from test_dsl import EXAMPLE

COLLIDING = """\
typeside Ty = literal { }
schema C = literal : Ty {
    entities E
    attributes age : E -> Int
}
instance B = literal : C {
    generators a : E
    equations age(a) = 20  age(a) = 30
}
"""

CYCLIC = """\
typeside Ty = literal { }
schema L = literal : Ty {
    entities E
    foreign_keys nxt : E -> E
}
instance W = literal : L { generators a : E }
"""

IDEMPOTENT = """\
typeside Ty = literal { }
schema S = literal : Ty {
    entities A B
    foreign_keys f : A -> B  g : B -> B
    equations forall x:B. g(g(x)) = g(x)
}
instance I = literal : S { generators a : A }
mapping Id = identity S
instance P = pi Id I
"""

CHAIN = """\
typeside Ty = literal { }
schema D = literal : Ty {
    entities
        E0 E1 E2
    foreign_keys
        h1 : E0 -> E1
        h2 : E1 -> E2
    attributes
        a0 : E0 -> Int
        a1 : E1 -> Int
        a2 : E2 -> Int
}
instance I = literal : D {
    generators
        y x : E0
}
"""

CHAIN_MARKDOWN = """\
# instance I
## E0
| ID | a0 | h1 |
|---|---|---|
| 1 | a0(1) | 1 |
| 2 | a0(2) | 2 |

## E1
| ID | a1 | h2 |
|---|---|---|
| 1 | a1(1) | 1 |
| 2 | a1(2) | 2 |

## E2
| ID | a2 |
|---|---|
| 1 | a2(1) |
| 2 | a2(2) |

"""


@pytest.fixture()
def example_file(tmp_path):
    p = tmp_path / "example.catq"
    p.write_text(EXAMPLE, encoding="utf-8")
    return str(p)


def write(tmp_path, text, name="prog.catq"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------------------
# Exit codes


def test_check_success(example_file, capsys):
    assert main(["check", example_file]) == 0


def test_check_empty_file_succeeds(tmp_path):
    assert main(["check", write(tmp_path, "")]) == 0


def test_syntax_error_exits_1(tmp_path, capsys):
    path = write(tmp_path, "mapping F = literal : S -> T { entities N1 -> }")
    assert main(["check", path]) == 1
    assert "error" in capsys.readouterr().err


def test_option_of_another_directive_exits_1(tmp_path, capsys):
    path = write(tmp_path, EXAMPLE + "check I depth -5 cutoff 9\n")
    assert main(["check", path]) == 1
    assert capsys.readouterr().err == f"{path}:52:9: error: SyntaxError: check takes no 'depth' option\n"


def test_missing_file_exits_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["check", str(tmp_path / "nope.catq")])
    assert e.value.code == 1


def test_a_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    path = tmp_path / "latin1.catq"
    path.write_bytes(b"\xff typeside Ty = literal { }\n")
    with pytest.raises(SystemExit) as e:
        main(["check", str(path)])
    assert e.value.code == 1
    assert capsys.readouterr() == (
        "", f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n")


def test_export_onto_an_existing_file_exits_1(example_file, capsys):
    assert main(["export", example_file, "--out", example_file]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot write {example_file}: ") and "Traceback" not in err


def test_resource_limit_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CATQ_MAX_CLASSES", "50")
    assert main(["check", write(tmp_path, CYCLIC)]) == 2


def test_bad_env_var_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CATQ_MAX_CLASSES", "lots")
    with pytest.raises(SystemExit) as e:
        main(["check", write(tmp_path, CYCLIC)])
    assert e.value.code == 1


def test_pi_invariant_violation_exits_1(tmp_path, capsys, pi_ignores_foreign_keys):
    assert main(["eval", write(tmp_path, EXAMPLE + "instance P = pi F I\n")]) == 1
    assert "InvariantViolation: attribute age is not well-defined" in capsys.readouterr().err


def test_pi_index_miss_exits_1(tmp_path, capsys, paths_without_composites):
    program = EXAMPLE + "mapping Id = identity S\ninstance P = pi Id I\n"
    assert main(["eval", write(tmp_path, program)]) == 1
    assert "InvariantViolation: path f(p) missing from the enumerated index at N1" in \
        capsys.readouterr().err


def test_invariant_violation_escaping_a_command_exits_1(tmp_path, capsys, monkeypatch):
    def broken(path):
        raise InvariantViolation("enumeration incomplete")

    monkeypatch.setattr(cli, "_load", broken)
    assert main(["check", write(tmp_path, "")]) == 1
    assert capsys.readouterr().err == "error: enumeration incomplete\n"


def test_inconsistent_instance_exits_3(tmp_path, capsys):
    assert main(["check", write(tmp_path, COLLIDING)]) == 3
    assert "Collision(20, 30) at sort Int" in capsys.readouterr().err


# a generator named like a typeside constant; once it labelled two Color classes "red"
SHADOWING = """\
typeside Ty = literal { types Color constants red blue : Color }
schema S = literal : Ty { entities E attributes c : E -> Color }
instance I = literal : S { generators x : E  red : Color equations c(x) = red }
"""


def test_generator_shadowing_a_typeside_constant_exits_1(tmp_path, capsys):
    path = write(tmp_path, SHADOWING)
    assert main(["eval", path]) == 1
    assert capsys.readouterr().err == \
        f"{path}:3:1: error: DuplicateName: generator red shadows another declaration\n"


# a literal or a typeside constant already named like the first fresh null of its type
NAMED_LIKE_A_NULL = {
    "literal": ("typeside Ty = literal { }\n", "s : E -> String", "String_null"),
    "constant": ("typeside Ty = literal { types Color constants Color_null1 : Color }\n", "s : E -> Color",
                 "Color_null"),
}


@pytest.mark.parametrize("case", NAMED_LIKE_A_NULL)
def test_a_fresh_null_takes_a_name_no_literal_or_constant_has(tmp_path, capsys, case):
    typeside, attribute, null = NAMED_LIKE_A_NULL[case]
    path = write(tmp_path, typeside + (
        f"schema S = literal : Ty {{ entities E attributes {attribute} }}\n"
        f"instance J = literal : S {{ generators u1 u2 : E equations s(u1) = {null}1 }}\n"
        "mapping Id = identity S\n"
        "instance K = delta Id J\n"
        "instance P = pi Id J\n"))
    assert main(["eval", path, "--format", "csv"]) == 0
    assert capsys.readouterr().out == "".join(
        f"# instance {name}\n# E\nID,s\n1,{null}1\n2,{second}\n\n"
        for name, second in (("J", "s(2)"), ("K", f"{null}2"), ("P", f"{null}2")))


# an Int literal is what `int` reads: `٣` (an Arabic-Indic digit) is 3, `²1` is no number
SUPERSCRIPT = """\
typeside Ty = literal { }
schema S = literal : Ty { entities F  attributes x : F -> Int }
instance I = literal : S { generators b : F  equations x(b) = ²1 }
mapping M = identity S
"""


@pytest.mark.parametrize("args", [["check"], ["eval"], ["invert", "--mapping", "M"],
                                  ["match", "--source", "S", "--target", "S"]])
def test_a_superscript_digit_is_not_an_int_literal(tmp_path, capsys, args):
    path = write(tmp_path, SUPERSCRIPT)
    assert main([args[0], path, *args[1:]]) == 1
    assert capsys.readouterr().err == f"{path}:3:63: error: SortMismatch: '²1' is not an Int literal\n"


def test_a_decimal_digit_of_any_script_is_an_int_literal(tmp_path, capsys):
    assert main(["eval", write(tmp_path, SUPERSCRIPT.replace("²1", "٣"))]) == 0
    assert "| 1 | 3 |" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# eval


def test_eval_renders_the_join(example_file, capsys):
    assert main(["eval", example_file, "--show", "J"]) == 0
    out = capsys.readouterr().out
    assert "# instance J" in out
    assert "| ID | name | salary | age |" in out
    for who, pay, age in (("Alice", "100", "20"), ("Bob", "250", "20"),
                          ("Sue", "300", "30")):
        assert f"| {who} | {pay} | {age} |" in out
    # directives run as part of eval
    assert "check I: consistent" in out
    assert "invert F: no inverse exists within the search bounds" in out
    assert "match S T (validated: True):" in out


def test_eval_unknown_instance(example_file, capsys):
    assert main(["eval", example_file, "--show", "Zed"]) == 1


def test_eval_json_format(example_file, capsys):
    assert main(["eval", example_file, "--show", "J", "--format", "json"]) == 0
    out = capsys.readouterr().out
    payload = out.split("# instance J\n", 1)[1].rsplit("check I", 1)[0]
    blob = json.loads(payload)
    assert {r["age"] for r in blob["entities"]["N"]} == {"20", "30"}


def test_eval_pi_along_the_identity_of_a_constrained_schema(tmp_path, capsys):
    # pi's paths from A reach B, where g(g(x)) = g(x) holds: each new path
    # is compared with the kept paths of its own sort only
    assert main(["eval", write(tmp_path, IDEMPOTENT), "--show", "P", "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out.split("# instance P\n", 1)[1])
    assert [len(blob["entities"][e]) for e in ("A", "B")] == [1, 2]


def test_eval_renders_labeled_nulls(tmp_path, capsys):
    assert main(["eval", write(tmp_path, CHAIN), "--format", "markdown"]) == 0
    assert capsys.readouterr().out == CHAIN_MARKDOWN


def test_eval_is_deterministic(example_file, capsys):
    main(["eval", example_file])
    first = capsys.readouterr().out
    main(["eval", example_file])
    assert capsys.readouterr().out == first


def test_derived_instances_keep_their_own_names(tmp_path, capsys):
    program = EXAMPLE + "instance J1 = sigma F I\ninstance J2 = sigma F I\ncheck J1\ncheck J2\n"
    assert main(["eval", write(tmp_path, program)]) == 0
    out = capsys.readouterr().out
    first = out.split("# instance J1\n", 1)[1].split("# instance J2\n", 1)[0]
    second = out.split("# instance J2\n", 1)[1][:len(first)]
    assert "| Alice | 100 | 20 |" in first and first == second
    assert "check J1: consistent" in out and "check J2: consistent" in out
    env, diags = elaborate(parse(program)[0])
    assert diags == []
    assert [env.instances[n].name for n in ("J", "J1", "J2")] == ["J", "J1", "J2"]
    assert [env.models[n].instance.name for n in ("J", "J1", "J2")] == ["J", "J1", "J2"]


def nested_equation_program(depth):
    term = "a"
    for _ in range(depth):
        term = f"nxt({term})"
    return CYCLIC.replace("{ generators a : E }",
                          f"{{ generators a : E equations {term} = a }}")


def test_deeply_nested_terms_check_and_eval(tmp_path, capsys):
    # resolution, symbol checks and saturation each walk the 1500-deep term
    path = write(tmp_path, nested_equation_program(1500))
    assert main(["check", path]) == 0
    assert main(["eval", path]) == 0
    out = capsys.readouterr().out
    assert out.count("\n| ") == 1501  # the header and one row per class


def test_deeply_nested_terms_render():
    # terms are rendered from an explicit stack, parsed and elaborated alike
    term = "nxt(" * 1500 + "a" + ")" * 1500
    prog = parse(nested_equation_program(1500))[0]
    assert f"{term} = a" in pretty_print(prog)
    env, diags = elaborate(prog)
    assert not diags
    (eq,) = env.instances["W"].equations
    assert render_term(eq.lhs) == term


def test_deeply_nested_terms_hash_and_compare():
    # hashes are cached at construction and equality walks an explicit stack
    (eq,) = elaborate(parse(nested_equation_program(1500))[0])[0].instances["W"].equations
    (again,) = elaborate(parse(nested_equation_program(1500))[0])[0].instances["W"].equations
    assert hash(eq.lhs) == hash(again.lhs)
    assert eq.lhs is not again.lhs and eq.lhs == again.lhs
    assert (eq.lhs == eq.lhs.args[0]) is False
    assert {eq.lhs: 1}[again.lhs] == 1


def test_deeply_nested_terms_evaluate_and_substitute():
    # evaluation and substitution walk the 1500-deep chain without recursion
    from catq.terms import substitute
    env, diags = elaborate(parse(nested_equation_program(1500))[0])
    assert not diags
    (eq,) = env.instances["W"].equations
    (a,) = env.instances["W"].generators
    m = env.models["W"]
    assert m.eval(eq.lhs) == m.class_of(a)
    assert m.eval(eq.lhs.args[0]) != m.class_of(a)
    assert substitute(eq.lhs, {}) == eq.lhs


def test_deeply_nested_terms_migrate(tmp_path, capsys):
    # sigma translates the 1500-deep equation along the mapping, delta projects it back
    path = write(tmp_path, nested_equation_program(1500) + (
        "mapping Id = identity L\n"
        "instance J = sigma Id W\n"
        "instance K = delta Id J\n"))
    assert main(["check", path]) == 0
    assert main(["eval", path]) == 0
    out = capsys.readouterr().out
    assert out.count("\n| ") == 3 * 1501  # W, J and K each have 1500 classes


def test_eval_leaves_no_cyclic_garbage(example_file, capsys):
    # the first call builds the argument parser, whose objects are cyclic
    main(["eval", example_file, "--format", "csv"])
    gc.collect()
    gc.disable()
    try:
        assert main(["eval", example_file, "--format", "csv"]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# match / invert / export


def test_match_command(example_file, capsys):
    assert main(["match", example_file, "--source", "S", "--target", "T"]) == 0
    out = capsys.readouterr().out
    assert "mapping" in out and "entity N1 -> N" in out


def test_match_span_command(example_file, capsys):
    assert main(["match", example_file, "--source", "S", "--target", "T",
                 "--span", "--cutoff", "0.4"]) == 0
    out = capsys.readouterr().out
    assert "match span S T" in out


def test_match_unknown_schema(example_file, capsys):
    assert main(["match", example_file, "--source", "S", "--target", "Zed"]) == 1


def test_a_resource_limit_escaping_a_command_exits_2(tmp_path, capsys):
    # validating the match of L with itself probes E, whose term model is infinite: nxt never stops
    path = write(tmp_path, """\
typeside Ty = literal { }
schema L = literal : Ty {
    entities E F
    foreign_keys nxt : E -> E  f : E -> F
    equations forall x:E. f(nxt(x)) = f(x)
}
""")
    assert main(["match", path, "--source", "L", "--target", "L"]) == 2
    assert capsys.readouterr() == ("", "error: saturation of _probe_L_E exceeded 1000 rounds\n")


# nxt^3 = nxt: the probe at E holds three classes, x, nxt(x) and nxt(nxt(x))
STUTTER = """\
typeside Ty = literal { }
schema S = literal : Ty {
    entities E
    foreign_keys nxt : E -> E
    equations forall x:E. nxt(nxt(nxt(x))) = nxt(x)
}
schema T = literal : Ty {
    entities E
    foreign_keys nxt : E -> E
    equations forall x:E. nxt(nxt(nxt(x))) = nxt(x)
}
"""

STUTTER_MAPPING = STUTTER + """\
mapping F = literal : S -> T {
    entities E -> E
    foreign_keys nxt -> lambda x:E. nxt(x)
}
"""


def test_match_validates_its_candidate_under_the_class_cap(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, STUTTER)
    assert main(["match", path, "--source", "S", "--target", "T"]) == 0
    assert "(validated: True)" in capsys.readouterr().out
    monkeypatch.setenv("CATQ_MAX_CLASSES", "2")
    assert main(["match", path, "--source", "S", "--target", "T"]) == 2
    assert capsys.readouterr() == (
        "", "error: carrier of E in _probe_T_E exceeded 2 classes (the term model may be infinite)\n")


def test_in_process_runs_act_like_fresh_processes(tmp_path, capsys, monkeypatch):
    # the cap a run sets from CATQ_MAX_CLASSES ends with the run, and no cached probe outlives its cap
    path = write(tmp_path, STUTTER_MAPPING)
    for cap, code in ((None, 0), ("2", 2), (None, 0)):
        if cap is None:
            monkeypatch.delenv("CATQ_MAX_CLASSES", raising=False)
        else:
            monkeypatch.setenv("CATQ_MAX_CLASSES", cap)
        assert main(["check", path]) == code
        assert catq.model.MAX_CLASSES == 10000
    assert capsys.readouterr() == ("", f"{path}:12:1: error: ResourceLimit: carrier of E in _probe_T_E"
                                       " exceeded 2 classes (the term model may be infinite)\n")


def test_match_span_reports_an_empty_apex(tmp_path, capsys):
    path = write(tmp_path, """\
typeside Ty = literal { }
schema S = literal : Ty { entities Abc }
schema T = literal : Ty { entities Xyz }
""")
    assert main(["match", path, "--source", "S", "--target", "T", "--span"]) == 0
    assert capsys.readouterr() == ("match span S T: apex with 0 entities, 0 symbols\n  (empty apex)\n", "")


def test_invert_on_a_program_with_a_diagnostic_exits_1(tmp_path, capsys):
    path = write(tmp_path, """\
typeside Ty = literal { }
schema S = literal : Ty { entities E }
mapping Id = identity S
instance I = literal : Nope { }
""")
    assert main(["invert", path, "--mapping", "Id"]) == 1
    assert capsys.readouterr() == ("", f"{path}:4:1: error: NameResolution: unknown schema Nope\n")


def test_invert_finds_renaming_inverse(tmp_path, capsys):
    text = EXAMPLE + """
schema S2 = literal : Ty {
    entities
        M1 M2
    foreign_keys
        g : M1 -> M2
    attributes
        who : M1 -> String
        pay : M1 -> Int
        years : M2 -> Int
}

mapping R = literal : S -> S2 {
    entities
        N1 -> M1
        N2 -> M2
    foreign_keys
        f -> lambda x:M1. g(x)
    attributes
        name -> lambda x:M1. who(x)
        salary -> lambda x:M1. pay(x)
        age -> lambda x:M2. years(x)
}
"""
    path = write(tmp_path, text)
    assert main(["invert", path, "--mapping", "R"]) == 0
    out = capsys.readouterr().out
    assert "invert R:" in out and "entity M1 -> N1" in out
    assert main(["invert", path, "--mapping", "F", "--depth", "2"]) == 0
    assert "no inverse exists" in capsys.readouterr().out


def test_invert_finds_the_identity_its_own_inverse_on_a_cyclic_schema(tmp_path, capsys):
    # L has no constraints, so images are compared as terms, up to their
    # variable's name, and no (infinite) probe model of L is built
    path = write(tmp_path, nested_equation_program(2) + "mapping Id = identity L\n")
    assert main(["invert", path, "--mapping", "Id"]) == 0
    out = capsys.readouterr().out
    assert "invert Id:\nmapping Id_inv : L -> L" in out
    assert "nxt -> lambda p:E. nxt(p)" in out


@pytest.mark.parametrize("argv,message", [
    (["invert", "--mapping", "F", "--depth", "-1"], "depth must be a positive integer, got -1"),
    (["invert", "--mapping", "F", "--depth", "0"], "depth must be a positive integer, got 0"),
    (["match", "--source", "S", "--target", "T", "--span", "--cutoff", "2"], "cutoff must lie in [0, 1], got 2.0"),
])
def test_out_of_range_search_flags_exit_1(example_file, capsys, argv, message):
    with pytest.raises(SystemExit) as e:
        main([argv[0], example_file, *argv[1:]])
    assert e.value.code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_out_of_range_search_directives_are_diagnostics(tmp_path, capsys):
    path = write(tmp_path, EXAMPLE + "invert F depth -2\nmatch span S T cutoff 1.5\n")
    assert main(["check", path]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"{path}:52:1: error: BadOption: depth must be a positive integer, got -2",
        f"{path}:53:1: error: BadOption: cutoff must lie in [0, 1], got 1.5"]


def test_cutoff_applies_only_with_span(example_file, tmp_path, capsys):
    # only a span reads the cutoff: without one it is refused, in range or not
    for cutoff in ("0.9", "2"):
        assert main(["match", example_file, "--source", "S", "--target", "T", "--cutoff", cutoff]) == 1
        assert capsys.readouterr() == ("", "error: --cutoff applies only with --span\n")
    path = write(tmp_path, EXAMPLE + "match S T cutoff 0.9\nmatch span S T cutoff 0.9\n")
    assert main(["check", path]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"{path}:52:1: error: BadOption: match takes a cutoff only with span"]


def test_invert_ignores_constraints_that_its_symbols_cannot_reach(tmp_path, capsys):
    # the constraint on F proves nothing about paths from E, so the infinite
    # probe model at E is never built
    path = write(tmp_path, """\
typeside Ty = literal { }
schema L = literal : Ty {
    entities E F
    foreign_keys nxt : E -> E  k : F -> F
    equations forall x:F. k(k(x)) = x
}
mapping Id = identity L
""")
    assert main(["invert", path, "--mapping", "Id"]) == 0
    out = capsys.readouterr().out
    assert "nxt -> lambda p:E. nxt(p)" in out and "k -> lambda p:F. k(p)" in out


# nxt is its own image and a is the image of both a and b, so no inverse sends b anywhere
SWAP = """\
typeside Ty = literal { }
schema L = literal : Ty {
    entities E
    foreign_keys nxt : E -> E
    attributes a b : E -> Int
}
mapping Swap = literal : L -> L {
    entities E -> E
    foreign_keys nxt -> lambda x:E. nxt(x)
    attributes a -> lambda x:E. a(x)  b -> lambda x:E. a(x)
}
"""

UNMATCHED = """\
typeside Ty = literal { }
schema A = literal : Ty { entities X attributes s : X -> String }
schema B = literal : Ty { entities F attributes n : F -> Int }
"""


TWO_TYPESIDES = """\
typeside Ty = literal { }
typeside Uy = literal { }
schema S = literal : Ty { entities E }
schema T = literal : Uy { entities E }
"""


@pytest.mark.parametrize("text, argv, code, err", [
    (SWAP, ["invert", "--mapping", "Swap", "--depth", "1"], 2,
     "invert Swap: inversion search space truncated by depth bound\n"),
    (SWAP, ["invert", "--mapping", "Nope"], 1, "error: no mapping named Nope\n"),
    (UNMATCHED, ["match", "--source", "A", "--target", "B"], 1,
     "match A B: failed: no symbol or path from F to String for s\n"),
    (COLLIDING + "check B\n", ["eval"], 3,
     "check B: inconsistent: Collision(20, 30) at sort Int\nB: inconsistent: Collision(20, 30) at sort Int\n"),
    (TWO_TYPESIDES, ["match", "--source", "S", "--target", "T", "--span"], 1,
     "match span S T: failed: span matching requires a shared typeside\n"),
    (TWO_TYPESIDES + "match span S T\n", ["eval"], 1,
     "match span S T: failed: span matching requires a shared typeside\n"),
], ids=["invert-truncated", "invert-unknown-mapping", "match-failed", "eval-check-inconsistent",
        "match-span-two-typesides", "eval-match-span-two-typesides"])
def test_failing_commands_exit_with_their_code(tmp_path, capsys, text, argv, code, err):
    assert main([argv[0], write(tmp_path, text), *argv[1:]]) == code
    assert capsys.readouterr().err == err


def test_export_writes_files(example_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["export", example_file, "--format", "csv",
                 "--out", str(out_dir)]) == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["I.csv", "J.csv", "K.csv"]
    assert "Alice,100,20" in (out_dir / "J.csv").read_text(encoding="utf-8")
