"""Equation sections read as scanned chains, against the tree path they replaced.

`catq.parser` scans each `lhs = rhs` item whose sides are chains of
one-argument applications, and `catq.elaborate` resolves such a side from
its tokens; `reference_equations.py` keeps the path that read every item
into trees and resolved the trees.  On generated equation sections, whole
or damaged, the two must print the same program, give every node the same
span, and report the same diagnostics and chains.
"""

from hypothesis import example, given, settings, strategies as st

from catq import elaborate, parse, pretty_print
from catq.parser import RawTerm

import reference_equations as reference
from conftest import count_calls
from test_written_models import bench_gen

# typeside constants red blue : Color; schema S with N1 -f-> N2 -g-> N3 and attributes
# name : N1 -> String, age : N2 -> Int, hue : N3 -> Color; generators a b : N1, c : N2.
# S has no cycle, so every instance on it saturates and its chains can be compared.
PROGRAM = """\
typeside Ty = literal {
    types Color
    constants red blue : Color
    equations %s
}
schema S = literal : Ty {
    entities N1 N2 N3
    foreign_keys f : N1 -> N2  g : N2 -> N3
    attributes name : N1 -> String  age : N2 -> Int  hue : N3 -> Color
}
instance I = literal : S {
    generators a b : N1  c : N2
    equations %s
}
check I
"""

SYMBOLS = ["f", "g", "name", "age", "hue", "zz", "red"]
LEAVES = ["a", "b", "c", "red", "blue", "w", "1", "-2", "1.5", "²1", "07",
          '"s"', '"x|y"', '"a"', '"red"', '"}"', '"equations"', '"("', '")"', '"="']
# what may stand anywhere in a damaged section: punctuation, keywords and braces,
# each bare and quoted
DAMAGE = ["(", ")", ",", "=", "()", "{", "}", "types", "equations", "generators",
          '"("', '")"', '","', '"="', '"}"', '"types"', '"equations"', '"generators"',
          "constants", "forall", "lambda", "schema", "literal", "->", ":", ".", '"', "//"]


def chain(symbols: list[str], leaf: str) -> str:
    return "".join(f"{s}(" for s in symbols) + leaf + ")" * len(symbols)


chains = st.builds(chain, st.lists(st.sampled_from(SYMBOLS), max_size=4), st.sampled_from(LEAVES))
# applications that are no chains: several arguments, or none
others = st.one_of(
    st.builds(lambda s, args: f"{s}({', '.join(args)})", st.sampled_from(SYMBOLS),
              st.lists(chains, min_size=2, max_size=3)),
    st.builds(lambda s: f"{s}()", st.sampled_from(SYMBOLS)))
terms = st.one_of(chains, chains, chains, others)
equations_ = st.builds(lambda l, r: f"{l} = {r}", terms, terms)
# an equation missing its `=`, or with one `)` too few
broken = st.one_of(st.builds(lambda l, r: f"{l} {r}", terms, terms),
                   st.builds(lambda eq: eq.replace(")", "", 1), equations_))
items = st.one_of(equations_, equations_, equations_, broken, st.sampled_from(DAMAGE))
layouts = st.sampled_from([" ", "  ", "\n        ", "\t"])


@st.composite
def sections(draw):
    layout = draw(layouts)
    return layout.join(draw(st.lists(items, max_size=6)))


@st.composite
def programs(draw):
    """PROGRAM with a generated instance section and, at times, a generated typeside section;
    at times cut in the middle of the instance section, so that it ends the text."""
    typeside = draw(st.one_of(st.just("red = red"), sections()))
    section = draw(sections())
    text = PROGRAM % (typeside, section)
    if draw(st.booleans()) and section:
        start = text.index(section)
        text = text[:start + draw(st.integers(0, len(section)))]
    return text


def spans(prog) -> list:
    """(what, span) of every declaration, equation and term node, nested ones too."""
    out = []

    def term(t):
        out.append((t.name, t.quoted, len(t.args), tuple(t.span)))
        for a in t.args:
            term(a)

    for d in prog.decls:
        out.append((type(d).__name__, tuple(d.span)))
        for eq in getattr(d, "equations", ()):
            out.append(("equation", tuple(eq.span)))
            term(eq.lhs)
            term(eq.rhs)
    return out


def shown(diags) -> list:
    return [(d.severity, d.code, d.message, tuple(d.span) if d.span else None) for d in diags]


def elaborated(env) -> dict:
    return {"instances": {n: m.chains for n, m in env.models.items()},
            "typesides": {n: ts.equations for n, ts in env.typesides.items()},
            "order": env.order}


def assert_same_as_the_tree_path(text):
    prog, diags = parse(text, "scan.catq")
    ref, ref_diags = reference.parse(text, "scan.catq")
    assert shown(diags) == shown(ref_diags)
    assert pretty_print(prog) == pretty_print(ref)
    assert spans(prog) == spans(ref)
    # elaborated from a fresh parse, whose scanned sides have built no trees
    env, more = elaborate(parse(text, "scan.catq")[0])
    ref_env, ref_more = reference.elaborate(ref)
    assert shown(more) == shown(ref_more)
    assert elaborated(env) == elaborated(ref_env)


@settings(max_examples=300, deadline=None)
@given(programs())
@example(PROGRAM % ("red = red", "name(a) = \"s\"  age(f(a)) = 1  a = b  hue(g(f(b))) = blue"))
@example(PROGRAM % ("red = blue", "g(f(a)) = g(c)  hue(g(f(b))) = red  name(g(c)) = name(b)"))
def test_equation_sections_read_as_the_tree_path_reads_them(text):
    assert_same_as_the_tree_path(text)


# damaged equation sections, each one read by the tree path from its first bad item
DAMAGED = {
    "comma": "name(a, b) = \"s\"  a = b",
    "empty application": "name() = \"s\"  a = b",
    "keyword leaf": "name(types) = \"s\"  a = b",
    "quoted keyword leaf": "name(\"types\") = \"s\"  a = b",
    "quoted brace leaf": "name(a) = \"}\"  a = b",
    "quoted brace item": "a = b \"}\" name(a) = \"s\"",
    "quoted keyword item": "a = b \"equations\" name(a) = \"s\"",
    "missing parenthesis": "age(f(c) = 1  a = b",
    "missing equals": "name(a) \"s\"  a = b",
    "extra parenthesis": "name(a)) = \"s\"",
    "quoted parenthesis": "name(a\")\" = \"s\"",
    "quoted open parenthesis": "name\"(\"a) = \"s\"",
    "quoted equals": "name(a) \"=\" \"s\"",
    "unknown symbol": "zz(a) = \"s\"  name(zz(b)) = \"t\"",
    "sort mismatch": "age(a) = 1  name(f(a)) = \"s\"  a = c  hue(g(c)) = 2",
    "unresolved leaf": "w = a  name(a) = w2  age(c) = x",
    # the text ends right after these two
    "eof in an application": "name(a) = \"s\"  age(f(",
    "eof after equals": "a = b  name(a) =",
}


def damaged(name: str) -> str:
    section = DAMAGED[name]
    text = PROGRAM % ("red = red", section)
    return text[:text.index(section) + len(section)] if name.startswith("eof") else text


DAMAGED_TEXTS = {f"DAMAGED-{name}": damaged(name) for name in DAMAGED}


def test_damaged_sections_read_as_the_tree_path_reads_them():
    for text in DAMAGED_TEXTS.values():
        assert_same_as_the_tree_path(text)
    # in a typeside too
    for section in DAMAGED.values():
        assert_same_as_the_tree_path(PROGRAM % (section, "a = b"))


def test_an_instance_section_of_chains_builds_no_trees(monkeypatch):
    # the dedup program's 792 equations are 1,584 chains, 2,384 tree nodes when
    # read as trees; scanned, its elaboration reads no tree
    text = bench_gen.dedup(1, 200, 25).text
    seen = {}

    def run():
        prog, diags = parse(text)
        env, more = elaborate(prog)
        seen.update(diags=diags + more, equations=len(prog.decls[-1].equations))

    assert count_calls(monkeypatch, RawTerm, "__init__", run) == 0
    assert seen == {"diags": [], "equations": 792}
    assert count_calls(monkeypatch, RawTerm, "__init__", lambda: reference.parse(text)) == 2384


def test_a_scanned_equation_reads_as_its_tree():
    prog, _ = parse(PROGRAM % ("red = red", "age(f(a)) = 1"))
    eq = prog.decls[-2].equations[0]
    assert eq.chains is not None
    ref = reference.parse(PROGRAM % ("red = red", "age(f(a)) = 1"))[0].decls[-2].equations[0]
    assert eq == ref and repr(eq) == repr(ref)
    assert eq.lhs.render() == "age(f(a))" and eq.rhs.render() == "1"
