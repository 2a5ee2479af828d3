"""The .catq frontend: lexer, parser, elaborator, and renderers."""

import textwrap

import pytest
from hypothesis import example, given, settings, strategies as st

from catq import (
    build_term_model,
    elaborate,
    parse,
    pretty_print,
    render_mapping,
    render_model,
)
from catq.parser import (
    DECL_KEYWORDS,
    DIRECTIVE_KEYWORDS,
    EXPR_KEYWORDS,
    SECTION_KEYWORDS,
    DerivedDecl,
    Directive,
    InstanceDecl,
    MappingDecl,
    Program,
    RawEquation,
    RawImage,
    RawTerm,
    SchemaDecl,
    SourceSpan,
    TypesideDecl,
    _Parser,
    lex,
)

from conftest import N, N1, count_calls


EXAMPLE = textwrap.dedent("""\
    // running example
    typeside Ty = literal {
    }

    schema S = literal : Ty {
        entities
            N1 N2
        foreign_keys
            f : N1 -> N2
        attributes
            name : N1 -> String
            salary : N1 -> Int
            age : N2 -> Int
    }

    schema T = literal : Ty {
        entities
            N
        attributes
            name : N -> String
            salary : N -> Int
            age : N -> Int
    }

    instance I = literal : S {
        generators
            e1 e2 e3 : N1
        equations
            name(e1) = Alice  salary(e1) = 100  age(f(e1)) = 20
            name(e2) = Bob    salary(e2) = 250  age(f(e2)) = 20
            name(e3) = Sue    salary(e3) = 300  age(f(e3)) = 30
    }

    mapping F = literal : S -> T {
        entities
            N1 -> N
            N2 -> N
        foreign_keys
            f -> lambda x:N. x
        attributes
            name -> lambda x:N. name(x)
            salary -> lambda x:N. salary(x)
            age -> lambda x:N. age(x)
    }

    instance J = sigma F I
    instance K = delta F J

    check I
    match S T
    invert F depth 2
    """)


def parse_ok(text):
    prog, diags = parse(text)
    assert diags == [], diags
    return prog


# ---------------------------------------------------------------------------
# Generated well-formed programs, as ASTs


NOWHERE = SourceSpan("<generated>", 1, 1, 1, 1)
RESERVED = (DECL_KEYWORDS | DIRECTIVE_KEYWORDS | EXPR_KEYWORDS | SECTION_KEYWORDS
            | {"forall", "lambda", "span", "cutoff", "depth"})

idents = st.builds(str.__add__, st.sampled_from("Aaz_é"),
                   st.text("az09_é²", max_size=4)).filter(lambda s: s not in RESERVED)
numbers = st.builds(str.__add__, st.sampled_from(["", "-"]),
                    st.from_regex(r"[0-9]+(\.[0-9]+)?", fullmatch=True))
names = st.one_of(idents, numbers)
name_lists = st.lists(names, min_size=1, max_size=2)


terms = st.recursive(
    st.one_of(st.builds(lambda n: RawTerm(n, NOWHERE), names),
              st.builds(lambda n: RawTerm(n, NOWHERE, quoted=True),
                        st.text(st.characters(blacklist_characters='"\n'), max_size=4))),
    lambda inner: st.builds(lambda n, args: RawTerm(n, NOWHERE, args), names,
                            st.lists(inner, min_size=1, max_size=3)),
    max_leaves=4)
binders = st.tuples(names, st.one_of(st.none(), names))  # (variable, optional sort)
no_binder = st.just((None, None))


def small(elements):
    return st.lists(elements, max_size=2)


def equations(binder):
    return small(st.builds(lambda lhs, rhs, v: RawEquation(lhs, rhs, NOWHERE, *v),
                           terms, terms, binder))


name_groups = small(st.tuples(name_lists, names))
arrow_groups = small(st.tuples(name_lists, names, names))
assignments = small(st.tuples(names, st.builds(lambda body, v: RawImage(body, NOWHERE, *v),
                                               terms, st.one_of(no_binder, binders))))
decls = st.one_of(
    st.builds(lambda n, ty, cs, eqs: TypesideDecl(n, NOWHERE, ty, cs, eqs),
              names, small(names), name_groups, equations(no_binder)),
    st.builds(lambda n, ts, es, fks, atts, eqs: SchemaDecl(n, NOWHERE, ts, es, fks, atts, eqs),
              names, names, small(names), arrow_groups, arrow_groups,
              equations(st.one_of(no_binder, binders))),
    st.builds(lambda n, sch, gens, eqs: InstanceDecl(n, NOWHERE, sch, gens, eqs),
              names, names, name_groups, equations(no_binder)),
    st.builds(lambda n, src, tgt, ents, fks, atts: MappingDecl(n, NOWHERE, src, tgt, ents, fks, atts),
              names, names, names, small(st.tuples(names, names)), assignments, assignments),
    st.builds(lambda kind, n, op, args: DerivedDecl(kind, n, NOWHERE, op,
                                                    args[:1] if op == "identity" else args),
              st.sampled_from(["instance", "mapping"]), names,
              st.sampled_from(sorted(EXPR_KEYWORDS - {"literal"})), st.lists(names, min_size=2, max_size=2)),
    # only match takes a cutoff, and only invert a depth
    st.builds(lambda op, span, args, cutoff, depth: Directive(
                  op, NOWHERE, args if op == "match" else args[:1], span and op == "match",
                  cutoff if op == "match" else None, depth if op == "invert" else None),
              st.sampled_from(sorted(DIRECTIVE_KEYWORDS)), st.booleans(),
              st.lists(names, min_size=2, max_size=2),
              st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
              st.one_of(st.none(), st.integers(-1000, 1000))))
programs = st.builds(Program, st.lists(decls, max_size=3))


def damaged(text):
    """`text` with up to 8 characters at some place replaced by up to 3 others."""
    return st.builds(lambda at, cut, new: text[:at] + new + text[at + cut:],
                     st.integers(0, len(text)), st.integers(0, 8), st.text(max_size=3))


# ---------------------------------------------------------------------------
# Parsing


def test_parse_example_program_shape():
    prog = parse_ok(EXAMPLE)
    kinds = [type(d).__name__ for d in prog.decls]
    assert kinds == ["TypesideDecl", "SchemaDecl", "SchemaDecl", "InstanceDecl",
                     "MappingDecl", "DerivedDecl", "DerivedDecl",
                     "Directive", "Directive", "Directive"]
    sch = prog.decls[1]
    assert sch.name == "S" and sch.entities == ["N1", "N2"]
    assert list(sch.foreign_keys) == [(["f"], "N1", "N2")]
    inst = prog.decls[3]
    assert inst.schema_ref == "S" and len(inst.equations) == 9
    mp = prog.decls[4]
    assert mp.source_ref == "S" and mp.target_ref == "T"
    der = prog.decls[5]
    assert der.op == "sigma" and der.args == ["F", "I"]
    inv = prog.decls[9]
    assert inv.op == "invert" and inv.args == ["F"] and inv.depth == 2


def test_parse_recovers_with_spans():
    bad = "mapping F = literal : S -> T { entities N1 -> }\nschema Q = literal : Ty { }"
    prog, diags = parse(bad)
    assert diags, "expected a diagnostic for the dangling arrow"
    d = diags[0]
    assert d.span is not None and d.span.line == 1
    # recovery still yields the following declaration
    assert any(isinstance(x, SchemaDecl) and x.name == "Q" for x in prog.decls)


# A bad item skips the rest of its section; an unknown section is reported
# and skipped.  Either way the sections after it are still read.  Each case
# is (text, [(code, message, (line, col, end_line, end_col))], printed AST).
RECOVERY = [
    ("typeside Ty = literal { types a ( b constants c : a }",
     [("SyntaxError", "unknown typeside section '('", (1, 33, 1, 34))],
     "typeside Ty = literal {\n    types\n        a\n    constants\n        c : a\n}\n"),
    ("typeside Ty = literal { constants a b Int equations x = y }",
     [("SyntaxError", "expected ':', found 'equations'", (1, 43, 1, 52))],
     "typeside Ty = literal {\n    equations\n        x = y\n}\n"),
    # a section keyword ends the item that would read it as a name
    ("typeside Ty = literal { equations a = types b }",
     [("SyntaxError", "expected a term, found 'types'", (1, 39, 1, 44))],
     "typeside Ty = literal {\n    types\n        b\n}\n"),
    ("typeside Ty = literal { foreign_keys f : A -> B types a }",
     [("SyntaxError", "unknown typeside section 'foreign_keys'", (1, 25, 1, 37))],
     "typeside Ty = literal {\n    types\n        a\n}\n"),
    ('typeside Ty = literal { java_constants x = "y" types T }',
     [("UnsupportedFeature",
       "java_constants: external bindings unsupported; use builtin String/Int", (1, 25, 1, 39))],
     "typeside Ty = literal {\n    types\n        T\n}\n"),
    ("typeside Ty = literal { types a",
     [("SyntaxError", "expected '}', found ''", (1, 32, 1, 32))],
     "typeside Ty = literal {\n    types\n        a\n}\n"),
    ("schema S = literal : Ty { entities A , B foreign_keys f : A -> B }",
     [("SyntaxError", "unknown schema section ','", (1, 38, 1, 39))],
     "schema S = literal : Ty {\n    entities\n        A\n    foreign_keys\n        f : A -> B\n}\n"),
    ("schema S = literal : Ty { foreign_keys f : A B attributes a : A -> Int }",
     [("SyntaxError", "expected '->', found 'B'", (1, 46, 1, 47))],
     "schema S = literal : Ty {\n    attributes\n        a : A -> Int\n}\n"),
    ("schema S = literal : Ty { attributes a : A -> entities A }",
     [("SyntaxError", "expected sort, found 'entities'", (1, 47, 1, 55))],
     "schema S = literal : Ty {\n    entities\n        A\n}\n"),
    ("schema S = literal : Ty { equations forall x:A k(x) = x entities A }",
     [("SyntaxError", "expected '.', found 'k'", (1, 48, 1, 49))],
     "schema S = literal : Ty {\n    entities\n        A\n}\n"),
    ("schema S = literal : Ty { equations forall . x = y entities A }",
     [("SyntaxError", "expected variable, found '.'", (1, 44, 1, 45))],
     "schema S = literal : Ty {\n    entities\n        A\n}\n"),
    ("schema S = literal : Ty { equations forall x: . x = y entities A }",
     [("SyntaxError", "expected sort, found '.'", (1, 47, 1, 48))],
     "schema S = literal : Ty {\n    entities\n        A\n}\n"),
    ("schema S = literal : Ty { generators a : A entities A }",
     [("SyntaxError", "unknown schema section 'generators'", (1, 27, 1, 37))],
     "schema S = literal : Ty {\n    entities\n        A\n}\n"),
    ("instance I = literal : S { generators : A equations a = b }",
     [("SyntaxError", "expected at least one name", (1, 39, 1, 40))],
     "instance I = literal : S {\n    equations\n        a = b\n}\n"),
    ("instance I = literal : S { equations f(a) a generators a : A }",
     [("SyntaxError", "expected '=', found 'a'", (1, 43, 1, 44))],
     "instance I = literal : S {\n    generators\n        a : A\n}\n"),
    ("instance I = literal : S { entities A generators a : A }",
     [("SyntaxError", "unknown instance section 'entities'", (1, 28, 1, 36))],
     "instance I = literal : S {\n    generators\n        a : A\n}\n"),
    ("mapping F = literal : S -> T { entities A B foreign_keys f -> g }",
     [("SyntaxError", "expected '->', found 'B'", (1, 43, 1, 44))],
     "mapping F = literal : S -> T {\n    foreign_keys\n        f -> g\n}\n"),
    ("mapping F = literal : S -> T { entities A -> , foreign_keys f -> g }",
     [("SyntaxError", "expected entity, found ','", (1, 46, 1, 47))],
     "mapping F = literal : S -> T {\n    foreign_keys\n        f -> g\n}\n"),
    ("mapping F = literal : S -> T { entities A -> attributes a -> b }",
     [("SyntaxError", "expected entity, found 'attributes'", (1, 46, 1, 56))],
     "mapping F = literal : S -> T {\n    attributes\n        a -> b\n}\n"),
    ("mapping M = literal : S -> S { entities A -> foreign_keys }",
     [("SyntaxError", "expected entity, found 'foreign_keys'", (1, 46, 1, 58))],
     "mapping M = literal : S -> S {\n}\n"),
    ("mapping F = literal : S -> T { foreign_keys -> x entities A -> B }",
     [("SyntaxError", "expected symbol, found '->'", (1, 45, 1, 47))],
     "mapping F = literal : S -> T {\n    entities\n        A -> B\n}\n"),
    ("mapping F = literal : S -> T { foreign_keys f x attributes a -> b }",
     [("SyntaxError", "expected '->', found 'x'", (1, 47, 1, 48))],
     "mapping F = literal : S -> T {\n    attributes\n        a -> b\n}\n"),
    ("mapping F = literal : S -> T { attributes a -> lambda . x entities A -> B }",
     [("SyntaxError", "expected variable, found '.'", (1, 55, 1, 56))],
     "mapping F = literal : S -> T {\n    entities\n        A -> B\n}\n"),
    ("mapping F = literal : S -> T { attributes a -> lambda x: . y entities A -> B }",
     [("SyntaxError", "expected sort, found '.'", (1, 58, 1, 59))],
     "mapping F = literal : S -> T {\n    entities\n        A -> B\n}\n"),
    ("mapping F = literal : S -> T { attributes a -> lambda x:B x foreign_keys f -> g }",
     [("SyntaxError", "expected '.', found 'x'", (1, 59, 1, 60))],
     "mapping F = literal : S -> T {\n    foreign_keys\n        f -> g\n}\n"),
    ("mapping F = literal : S -> T { attributes a -> , entities A -> B }",
     [("SyntaxError", "expected a term, found ','", (1, 48, 1, 49))],
     "mapping F = literal : S -> T {\n    entities\n        A -> B\n}\n"),
    ("mapping F = literal : S -> T { equations x = y entities A -> B }",
     [("SyntaxError", "unknown mapping section 'equations'", (1, 32, 1, 41))],
     "mapping F = literal : S -> T {\n    entities\n        A -> B\n}\n"),
]


@pytest.mark.parametrize("text,expected,printed", RECOVERY)
def test_parse_recovers_within_a_declaration(text, expected, printed):
    prog, diags = parse(text)
    assert [(d.code, d.message, tuple(d.span)[1:]) for d in diags] == expected
    assert all(d.span.file == "<input>" for d in diags)
    assert pretty_print(prog) == printed


@pytest.mark.parametrize("text,message,span", [
    ("check I depth -5 cutoff 9", "check takes no 'depth' option", (1, 9, 1, 14)),
    ("check I cutoff 0.5", "check takes no 'cutoff' option", (1, 9, 1, 15)),
    ("invert F cutoff 0.5", "invert takes no 'cutoff' option", (1, 10, 1, 16)),
    ("match S T depth 2", "match takes no 'depth' option", (1, 11, 1, 16)),
])
def test_directive_options_belong_to_their_directive(text, message, span):
    prog, diags = parse(text)
    assert [(d.code, d.message, tuple(d.span)[1:]) for d in diags] == [("SyntaxError", message, span)]
    assert prog.decls == []


def test_lex_counts_the_newline_that_ends_an_unterminated_string():
    tokens, diags = lex('"abc\nfoo')
    assert [d.message for d in diags] == ["unterminated string literal"]
    assert [(t.text, t.span.line, t.span.col) for t in tokens] == [
        ("abc", 1, 1), ("foo", 2, 1), ("", 2, 4)]


def test_parse_rejects_external_bindings():
    text = 'typeside Ty = literal { java_types s = "java.lang.String" }'
    prog, diags = parse(text)
    assert any("external bindings unsupported; use builtin String/Int" in d.message
               for d in diags)


def test_parse_empty_blocks_and_comments():
    prog = parse_ok("// nothing\ntypeside Ty = literal { }\nschema S = literal : Ty { }\n")
    assert len(prog.decls) == 2
    assert prog.decls[1].entities == []


@settings(max_examples=50)
@given(programs.map(pretty_print))
@example(EXAMPLE)
@example("match S T cutoff 0.00001\n")
@example('mapping A = literal : A -> A {\n    attributes\n        A -> lambda 0 . ""\n}\n')
def test_pretty_print_round_trip(text):
    prog = parse_ok(text)
    once = pretty_print(prog)
    prog2, diags = parse(once)
    assert diags == []
    assert pretty_print(prog2) == once  # fixed point
    if text != EXAMPLE:
        assert once == text  # a generated program is printed already


@settings(max_examples=50)
@given(st.one_of(st.text(), programs.map(pretty_print).flatmap(damaged)))
@example("match A B cutoff 1.2.3")
@example("invert F depth 1.5")
@example("match A B cutoff ²")
@example("instance I = literal : S { equations " + "f(" * 1500 + "x" + ")" * 1500 + " = y }")
def test_parse_is_total(text):
    prog, diags = parse(text)
    assert isinstance(prog, Program)
    assert all(d.span is not None for d in diags)


# tabs, CRLF and LF line ends, comments (the last with no newline after it),
# non-ASCII names and numbers, terms split across lines, an unterminated
# string and a stray character
SPANNED = (
    "// leading comment\r\n"
    "typeside Ty = literal {\r\n"
    "\ttypes\tColor\r\n"
    "\tconstants red : Color\r\n"
    "}\r\n"
    "schema S = literal : Ty {\n"
    "    entities E F @\n"
    "    foreign_keys f : E -> F\n"
    "    attributes é : E -> String  x² : F -> Int\n"
    "    equations forall v:E. x²(f(v)) =\n"
    "        x²(f(\n"
    "  v))\n"
    "}\n"
    "instance I = literal : S {\n"
    "  generators a b : E  一 : F\n"
    "  equations é(a) = \"unterminated\n"
    "    f(a) = 一   // a comment\n"
    "    x²(\t一) = ²1  é(b) = \"ok\"\n"
    "}\n"
    "mapping M = literal : S -> S {\n"
    "  entities E -> E  F -> F\n"
    "  foreign_keys f -> lambda y:E. f(y)\n"
    "  attributes é -> é  x² -> lambda z. x²(\n"
    " z)\n"
    "}\n"
    "instance J = sigma M I\n"
    "match S S cutoff 0.5\n"
    "// a final comment, with no newline after it"
)


def spans_of(text):
    """(what, span) of every declaration, equation, term (nested ones too) and image, then every diagnostic."""
    prog, diags = parse(text, "pins.catq")
    out = []

    def term(t):
        out.append((t.name, tuple(t.span)))
        for a in t.args:
            term(a)

    for d in prog.decls:
        out.append((type(d).__name__, tuple(d.span)))
        for eq in getattr(d, "equations", ()):
            out.append(("equation", tuple(eq.span)))
            term(eq.lhs)
            term(eq.rhs)
        if isinstance(d, MappingDecl):
            for _, img in d.foreign_keys + d.attributes:
                out.append(("image", tuple(img.span)))
                term(img.body)
    return out + [(d.message, tuple(d.span)) for d in diags]


def test_spans_of_nodes_and_diagnostics():
    # the spans that a lexer making every token's span up front gave
    assert spans_of(SPANNED) == [
        ('TypesideDecl', ('pins.catq', 2, 1, 2, 9)),
        ('SchemaDecl', ('pins.catq', 6, 1, 6, 7)),
        ('equation', ('pins.catq', 10, 15, 12, 6)),
        ('x²', ('pins.catq', 10, 27, 10, 35)),
        ('f', ('pins.catq', 10, 30, 10, 34)),
        ('v', ('pins.catq', 10, 32, 10, 33)),
        ('x²', ('pins.catq', 11, 9, 12, 6)),
        ('f', ('pins.catq', 11, 12, 12, 5)),
        ('v', ('pins.catq', 12, 3, 12, 4)),
        ('InstanceDecl', ('pins.catq', 14, 1, 14, 9)),
        ('equation', ('pins.catq', 16, 13, 16, 33)),
        ('é', ('pins.catq', 16, 13, 16, 17)),
        ('a', ('pins.catq', 16, 15, 16, 16)),
        ('unterminated', ('pins.catq', 16, 20, 16, 33)),
        ('equation', ('pins.catq', 17, 5, 17, 13)),
        ('f', ('pins.catq', 17, 5, 17, 9)),
        ('a', ('pins.catq', 17, 7, 17, 8)),
        ('一', ('pins.catq', 17, 12, 17, 13)),
        ('equation', ('pins.catq', 18, 5, 18, 16)),
        ('x²', ('pins.catq', 18, 5, 18, 11)),
        ('一', ('pins.catq', 18, 9, 18, 10)),
        ('²1', ('pins.catq', 18, 14, 18, 16)),
        ('equation', ('pins.catq', 18, 18, 18, 29)),
        ('é', ('pins.catq', 18, 18, 18, 22)),
        ('b', ('pins.catq', 18, 20, 18, 21)),
        ('ok', ('pins.catq', 18, 25, 18, 29)),
        ('MappingDecl', ('pins.catq', 20, 1, 20, 8)),
        ('image', ('pins.catq', 22, 21, 22, 37)),
        ('f', ('pins.catq', 22, 33, 22, 37)),
        ('y', ('pins.catq', 22, 35, 22, 36)),
        ('image', ('pins.catq', 23, 19, 23, 20)),
        ('é', ('pins.catq', 23, 19, 23, 20)),
        ('image', ('pins.catq', 23, 28, 24, 4)),
        ('x²', ('pins.catq', 23, 38, 24, 4)),
        ('z', ('pins.catq', 24, 2, 24, 3)),
        ('DerivedDecl', ('pins.catq', 26, 1, 26, 23)),
        ('Directive', ('pins.catq', 27, 1, 27, 6)),
        ("unexpected character '@'", ('pins.catq', 7, 18, 7, 19)),
        ('unterminated string literal', ('pins.catq', 16, 20, 16, 33)),
    ]
    # EOF after a final comment sits at the comment's start
    assert spans_of("schema S = literal : Ty { entities E\r\n\t// unclosed") == [
        ('SchemaDecl', ('pins.catq', 1, 1, 1, 7)),
        ("expected '}', found ''", ('pins.catq', 2, 2, 2, 2)),
    ]


def test_an_error_free_program_is_parsed_and_elaborated_without_spans(monkeypatch):
    # `_Parser.span` makes every span of a text; an error-free program reads none
    from test_written_models import bench_gen  # which imports this module
    text = bench_gen.dedup(1, 200, 25).text
    seen = {}

    def run():
        prog, diags = parse(text)
        env, more = elaborate(prog)
        seen.update(decls=len(prog.decls), diags=diags + more)

    built = count_calls(monkeypatch, _Parser, "span", run)
    assert seen["diags"] == [] and built <= seen["decls"]


def test_shorthand_mapping_images_are_elaborated_without_spans(monkeypatch):
    # a bare target symbol stands for its application; the rebuilt image
    # keeps the lazy span of the symbol it was written as
    text = ("typeside Ty = literal { }\n"
            "schema L = literal : Ty { entities E  foreign_keys nxt : E -> E  k : E -> E"
            "  attributes a : E -> Int }\n"
            "mapping M = literal : L -> L { entities E -> E foreign_keys nxt -> nxt  k -> k"
            " attributes a -> a }\n")
    seen = {}

    def run():
        env, diags = elaborate(parse_ok(text))
        seen.update(env=env, diags=diags)

    assert count_calls(monkeypatch, _Parser, "span", run) == 0
    assert seen["diags"] == [] and "M" in seen["env"].mappings


# ---------------------------------------------------------------------------
# Elaboration


@pytest.fixture(scope="module")
def example_env():
    env, diags = elaborate(parse_ok(EXAMPLE))
    assert diags == [], diags
    return env


def test_elaborate_builds_environment(example_env):
    env = example_env
    assert set(env.schemas) == {"S", "T"}
    assert set(env.instances) == {"I", "J", "K"}
    assert set(env.mappings) == {"F"}
    assert [d.op for d in env.directives] == ["check", "match", "invert"]


def test_elaborated_literals_and_generators(example_env):
    from catq import App, string_literal
    m = example_env.models["I"]
    sch = example_env.schemas["S"]
    assert len(m.carrier(sch.entity_named("N1"))) == 3
    (g,) = [g for g in example_env.instances["I"].generators if g.name == "e1"]
    assert m.decide_equal(App(sch.symbol_named("name"), (App(g),)),
                          string_literal("Alice"))


def test_derived_instances_match_library_calls(example_env):
    mj = example_env.models["J"]
    sch_t = example_env.schemas["T"]
    n = sch_t.entity_named("N")
    rows = sorted(
        tuple(mj.label(mj.op(sch_t.symbol_named(c), cls)) for c in ("name", "salary", "age"))
        for cls in mj.carrier(n))
    assert rows == [("Alice", "100", "20"), ("Bob", "250", "20"), ("Sue", "300", "30")]
    mk = example_env.models["K"]
    sch_s = example_env.schemas["S"]
    assert len(mk.carrier(sch_s.entity_named("N1"))) == 3


def test_elaborate_coproduct_and_compose():
    from catq.mappings import mappings_equal
    env, diags = elaborate(parse_ok(EXAMPLE + textwrap.dedent("""
        instance C = coproduct I K
        instance C2 = coproduct I Nope
        instance C3 = coproduct I J
        mapping IdT = identity T
        mapping H = compose F IdT
        mapping H2 = compose F Nope
        mapping H3 = compose F F
        """)))
    assert [(d.code, d.message, d.span.line) for d in diags] == [
        ("NameResolution", "unknown instance Nope", 54),
        ("SchemaMismatch", "coproduct requires instances on the same schema", 55),
        ("NameResolution", "unknown mapping among ['F', 'Nope']", 58),
        ("SchemaMismatch", "cannot compose F : ..->T with F : S->..", 59)]
    assert env.order[-3:] == [("instance", "C"), ("mapping", "IdT"), ("mapping", "H")]
    m, s = env.models["C"], env.schemas["S"]
    assert [len(m.carrier(e)) for e in s.entities] == [6, 6]
    assert [g.name for g in env.instances["C"].generators][:4] == ["l_e1", "l_e2", "l_e3", "r_N1_1"]
    assert env.mappings["H"].name == "H" and mappings_equal(env.mappings["H"], env.mappings["F"])


def test_elaborate_shorthand_images():
    # a bare target symbol g stands for g(x); another lone unknown name is the variable
    from catq.mappings import mappings_equal
    env, diags = elaborate(parse_ok(EXAMPLE + textwrap.dedent("""
        mapping G = literal : S -> T {
            entities N1 -> N  N2 -> N
            foreign_keys f -> x
            attributes name -> name  salary -> salary(y)  age -> age
        }
        schema L = literal : Ty {
            entities E F
            foreign_keys nxt : E -> E  k : F -> F
        }
        mapping M = literal : L -> L {
            entities E -> E  F -> F
            foreign_keys nxt -> nxt  k -> nxt
        }
        """)))
    assert [(d.code, d.message, d.span.line) for d in diags] == [
        ("SortMismatch", "argument of nxt has sort F, expected E", 64),
        ("MissingImage", "symbol k has no image", 62)]
    assert mappings_equal(env.mappings["G"], env.mappings["F"])
    assert render_mapping(env.mappings["G"]).splitlines()[3:] == [
        "  f -> lambda x:N. x", "  name -> lambda x:N. name(x)",
        "  salary -> lambda y:N. salary(y)", "  age -> lambda x:N. age(x)"]
    nxt = elaborate(parse_ok(
        "typeside Ty = literal { }\n"
        "schema L = literal : Ty { entities E  foreign_keys nxt : E -> E }\n"
        "mapping M = literal : L -> L { entities E -> E  foreign_keys nxt -> nxt }\n"))[0]
    assert render_mapping(nxt.mappings["M"]).splitlines()[2:] == ["  nxt -> lambda x:E. nxt(x)"]


def test_elaborate_reports_name_resolution():
    env, diags = elaborate(parse_ok(
        "typeside Ty = literal { }\n"
        "schema S = literal : Ty { entities E }\n"
        "instance I = literal : Missing { }\n"
        "instance J = sigma Nope I\n"))
    codes = {d.code for d in diags}
    assert "NameResolution" in codes


def test_elaborate_flags_unannotated_constraint_variables():
    env, diags = elaborate(parse_ok(
        "typeside Ty = literal { }\n"
        "schema S = literal : Ty {\n"
        "  entities E\n  foreign_keys k : E -> E\n"
        "  equations forall x. k(k(x)) = x\n}\n"))
    assert diags, "expected a diagnostic for the missing sort annotation"


def test_elaborate_resource_limit_is_a_diagnostic():
    from catq import SaturationLimits
    env, diags = elaborate(parse_ok(
        "typeside Ty = literal { }\n"
        "schema L = literal : Ty { entities E  foreign_keys nxt : E -> E }\n"
        "instance W = literal : L { generators a : E }\n"),
        limits=SaturationLimits(max_classes_per_sort=20))
    assert any(d.code == "ResourceLimit" for d in diags)


# ---------------------------------------------------------------------------
# Rendering


def test_render_markdown_table(example_env):
    out = render_model(example_env.models["J"], "markdown")
    assert "## N" in out
    assert "| ID | name | salary | age |" in out
    assert "| Alice | 100 | 20 |" in out.replace("| 1 ", "| ")


def test_render_shows_labeled_nulls(schema_s):
    from catq import InstancePresentation, generator
    inst = InstancePresentation("lonely", schema_s, [generator("e", N1)], [])
    out = render_model(build_term_model(inst), "markdown")
    assert "name(1)" in out and "salary(1)" in out


def test_render_csv_and_json(example_env):
    csv = render_model(example_env.models["J"], "csv")
    assert csv.startswith("# N\nID,name,salary,age\n")
    assert "Alice,100,20" in csv
    import json
    blob = json.loads(render_model(example_env.models["J"], "json"))
    assert blob["schema"] == "T"
    assert {r["name"] for r in blob["entities"]["N"]} == {"Alice", "Bob", "Sue"}
    assert all(set(r) == {"id", "name", "salary", "age"} for r in blob["entities"]["N"])


def test_render_mapping(example_env):
    txt = render_mapping(example_env.mappings["F"])
    assert txt.splitlines()[0] == "mapping F : S -> T"
    assert "  entity N1 -> N" in txt
    assert "  name -> lambda x:N. name(x)" in txt
