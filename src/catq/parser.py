"""Lexer, AST and recursive-descent parser for .catq programs.

The body of every literal declaration, `{ section items ... }`, is
described once, in `BODIES`: the parser reads it and the pretty printer
writes it from that table.

Parsing is total: syntax errors become diagnostics with source spans
and the parser resynchronizes at the next section or declaration, so a
single bad token never hides the rest of the file.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .terms import render_tree

# token kinds
IDENT = "ident"
NUMBER = "number"
STRING = "string"
PUNCT = "punct"
EOF = "eof"

PUNCTUATION = ("->", "{", "}", "(", ")", ":", ",", "=", ".")

# item kinds of a declaration body's sections
NAMES = "names"  # a b c
NAME_GROUP = "name group"  # a b : S
ARROW_GROUP = "arrow group"  # f g : A -> B
EQUATION = "equation"  # lhs = rhs
QUANTIFIED = "quantified equation"  # forall x:E. lhs = rhs
ENTITY_PAIR = "entity pair"  # A -> B
SYMBOL_IMAGE = "symbol image"  # f -> lambda x:B. g(x)

# Each declaration kind's section keywords, in printing order, with the kind
# of item each holds.  A section keyword is also the name of the
# declaration's field that collects its items.
BODIES = {
    "typeside": {"types": NAMES, "constants": NAME_GROUP, "equations": EQUATION},
    "schema": {"entities": NAMES, "foreign_keys": ARROW_GROUP, "attributes": ARROW_GROUP,
               "equations": QUANTIFIED},
    "instance": {"generators": NAME_GROUP, "equations": EQUATION},
    "mapping": {"entities": ENTITY_PAIR, "foreign_keys": SYMBOL_IMAGE, "attributes": SYMBOL_IMAGE},
}
JAVA_SECTIONS = ("java_types", "java_constants")  # recognised in typesides only, to be rejected

DECL_KEYWORDS = set(BODIES)
DIRECTIVE_KEYWORDS = {"check", "invert", "match"}
DIRECTIVE_OPTIONS = {"invert": "depth", "match": "cutoff"}  # the one option each takes, if any
EXPR_KEYWORDS = {"literal", "sigma", "delta", "pi", "coproduct", "compose", "identity"}
SECTION_KEYWORDS = {kw for sections in BODIES.values() for kw in sections} | set(JAVA_SECTIONS)


class SourceSpan(NamedTuple):
    """1-based line and column of a lexeme's first character and of the column after it."""

    file: str
    line: int
    col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"

    def to(self, other: "SourceSpan") -> "SourceSpan":
        return SourceSpan(self.file, self.line, self.col, other.end_line, other.end_col)


class Token(NamedTuple):
    kind: str
    text: str
    span: SourceSpan


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str
    span: Optional[SourceSpan] = None

    def __str__(self) -> str:
        where = f"{self.span}: " if self.span else ""
        return f"{where}{self.severity}: {self.code}: {self.message}"


# Non-ASCII word characters.  `\d` and `\w` test `str.isdecimal` and
# `str.isalnum`, but a number starts at a `str.isdigit` character and an
# identifier at a `str.isalpha` one; they differ on characters such as
# `²` (a digit, not decimal) and `½` (alphanumeric, not a letter), so the
# token pattern of a text names those of its characters explicitly.
_NON_ASCII_WORD = re.compile(r"[^\W\x00-\x7f]")

# NamedTuple's generated __new__ is a Python function; the lexer builds its
# thousands of tokens and spans with tuple.__new__ directly, fields in order
_tuple = tuple.__new__


def _token_pattern(text: str) -> re.Pattern:
    """Blanks, then one alternative per lexeme, tried in order; `re` caches the compiled pattern."""
    odd = set() if text.isascii() else set(_NON_ASCII_WORD.findall(text))
    digit = r"\d" + re.escape("".join(sorted(c for c in odd if c.isdigit())))
    non_letter = re.escape("".join(sorted(c for c in odd if not c.isalpha())))
    punct = "|".join(map(re.escape, PUNCTUATION))
    # blanks at the end of the text match nothing, which leaves them out as well
    return re.compile(
        r"[ \t\r]*(?:(?P<newline>\n)|(?P<comment>//[^\n]*)"
        rf'|(?P<{STRING}>"[^"\n]*"?)'
        rf"|(?P<{NUMBER}>-?[{digit}][{digit}.]*)"
        rf"|(?P<{IDENT}>[^\W\d{non_letter}]\w*)"
        rf"|(?P<{PUNCT}>{punct})|(?P<bad>[^ \t\r]))")


def lex(text: str, filename: str = "<input>") -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line, line_start = 1, 0  # line_start: offset of the current line's first character
    comment = -1  # offset of the last comment
    for m in _token_pattern(text).finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        if kind == "comment":
            comment = m.start(kind)
            continue
        word = m.group(kind)
        col = m.start(kind) - line_start + 1
        span = _tuple(SourceSpan, (filename, line, col, line, col + len(word)))
        if kind == STRING:
            if len(word) > 1 and word[-1] == '"':
                word = word[1:-1]
            else:
                diags.append(Diagnostic("error", "SyntaxError", "unterminated string literal", span))
                word = word[1:]
        elif kind == "bad":
            diags.append(Diagnostic("error", "SyntaxError", f"unexpected character {word!r}", span))
            continue
        tokens.append(_tuple(Token, (kind, word, span)))
    # a comment does not advance the column, so EOF after a final comment sits at its start
    end = comment if comment >= line_start else len(text)
    col = end - line_start + 1
    tokens.append(Token(EOF, "", SourceSpan(filename, line, col, line, col)))
    return tokens, diags


# ---------------------------------------------------------------------------
# AST


@dataclass
class RawTerm:
    """An unresolved application tree; a leaf has no arguments."""

    name: str
    span: SourceSpan
    args: list["RawTerm"] = field(default_factory=list)
    quoted: bool = False  # came from a double-quoted string

    def render(self) -> str:
        return render_tree(self, lambda u: (f'"{u.name}"' if u.quoted else u.name, u.args))


@dataclass
class RawEquation:
    lhs: RawTerm
    rhs: RawTerm
    span: SourceSpan
    var: Optional[str] = None  # quantified variable, schema constraints only
    var_sort: Optional[str] = None


@dataclass
class RawImage:
    """The right-hand side of a mapping assignment."""

    body: RawTerm
    span: SourceSpan
    var: Optional[str] = None  # explicit lambda binder, if given
    var_sort: Optional[str] = None

    def render(self) -> str:
        if self.var is None:
            return self.body.render()
        return f"lambda {_binder(self.var, self.var_sort)} {self.body.render()}"


def _binder(var: str, sort: Optional[str]) -> str:
    """`var.` or `var:sort.`, with a space before the dot after a number, which would absorb it."""
    last = sort or var
    dot = "." if last[0].isalpha() or last[0] == "_" else " ."
    return f"{var}:{sort}{dot}" if sort else f"{var}{dot}"


@dataclass
class TypesideDecl:
    kind = "typeside"
    name: str
    span: SourceSpan
    types: list[str] = field(default_factory=list)
    constants: list[tuple[list[str], str]] = field(default_factory=list)
    equations: list[RawEquation] = field(default_factory=list)


@dataclass
class SchemaDecl:
    kind = "schema"
    name: str
    span: SourceSpan
    typeside_ref: str = ""
    entities: list[str] = field(default_factory=list)
    foreign_keys: list[tuple[list[str], str, str]] = field(default_factory=list)
    attributes: list[tuple[list[str], str, str]] = field(default_factory=list)
    equations: list[RawEquation] = field(default_factory=list)


@dataclass
class InstanceDecl:
    kind = "instance"
    name: str
    span: SourceSpan
    schema_ref: str = ""
    generators: list[tuple[list[str], str]] = field(default_factory=list)
    equations: list[RawEquation] = field(default_factory=list)


@dataclass
class MappingDecl:
    kind = "mapping"
    name: str
    span: SourceSpan
    source_ref: str = ""
    target_ref: str = ""
    entities: list[tuple[str, str]] = field(default_factory=list)
    foreign_keys: list[tuple[str, RawImage]] = field(default_factory=list)
    attributes: list[tuple[str, RawImage]] = field(default_factory=list)


@dataclass
class DerivedDecl:
    """instance J = sigma F I / mapping H = compose F G, and friends."""

    kind: str  # "instance" | "mapping"
    name: str
    span: SourceSpan
    op: str = ""  # sigma | delta | pi | coproduct | compose | identity
    args: list[str] = field(default_factory=list)


@dataclass
class Directive:
    kind = "directive"
    op: str  # check | invert | match
    span: SourceSpan
    args: list[str] = field(default_factory=list)
    span_match: bool = False
    cutoff: Optional[float] = None
    depth: Optional[int] = None


Decl = object  # union of the above


@dataclass
class Program:
    decls: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[Token], diags: list[Diagnostic]):
        self.toks = tokens
        self.pos = 0
        self.diags = diags

    # -- primitives ----------------------------------------------------

    # `next` never moves past the EOF token that ends `toks`, so `pos` is always a valid index

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != EOF:
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        t = self.toks[self.pos]
        return t.text == text and (t.kind == PUNCT or t.kind == IDENT)

    def error(self, message: str, span: Optional[SourceSpan] = None):
        self.diags.append(Diagnostic("error", "SyntaxError", message,
                                     span or self.peek().span))

    def expect(self, text: str) -> Optional[Token]:
        if self.at(text):
            return self.next()
        self.error(f"expected {text!r}, found {self.peek().text!r}")
        return None

    def expect_name(self, what: str = "name") -> Optional[Token]:
        t = self.peek()
        if t.kind in (IDENT, NUMBER):
            return self.next()
        self.error(f"expected {what}, found {t.text!r}")
        return None

    def expect_item_name(self, what: str) -> Optional[Token]:
        """`expect_name` inside a declaration body, where a section keyword ends the item."""
        if self.at_boundary():
            self.error(f"expected {what}, found {self.peek().text!r}")
            return None
        return self.expect_name(what)

    def sync_top(self):
        """Skip to the next top-level declaration keyword."""
        depth = 0
        while self.peek().kind != EOF:
            t = self.peek()
            if depth == 0 and t.text in (DECL_KEYWORDS | DIRECTIVE_KEYWORDS):
                return
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                depth = max(0, depth - 1)
                self.next()
                if depth == 0:
                    return
                continue
            self.next()

    def at_boundary(self) -> bool:
        t = self.peek()
        return (t.kind == EOF or t.text == "}" or
                (t.kind == IDENT and t.text in SECTION_KEYWORDS))

    # -- terms -----------------------------------------------------------

    def parse_term(self) -> Optional[RawTerm]:
        # open applications sit on an explicit stack, so nesting depth is not
        # bounded by Python's recursion limit
        apps: list[RawTerm] = []
        while True:
            t = self.peek()
            if t.kind == STRING:
                self.next()
                node = RawTerm(t.text, t.span, quoted=True)
            elif t.kind == NUMBER or (t.kind == IDENT and t.text not in SECTION_KEYWORDS):
                self.next()
                node = RawTerm(t.text, t.span)
                if self.at("("):
                    self.next()
                    apps.append(node)
                    if not self.at(")") and self.peek().kind != EOF:
                        continue  # read the first argument
                    node = None
            else:
                self.error(f"expected a term, found {t.text!r}")
                node = None
            # `node` is a finished argument, or None after an error or an empty
            # argument list; either way the innermost open application may close
            while apps:
                if node is not None:
                    apps[-1].args.append(node)
                    if self.at(","):
                        self.next()
                        if not self.at(")") and self.peek().kind != EOF:
                            break  # read the next argument
                node = apps.pop()
                close = self.expect(")")
                if close:
                    node.span = node.span.to(close.span)
            else:
                return node

    def parse_binder(self, keyword: str) -> Optional[tuple[Optional[str], Optional[str]]]:
        """`keyword var.` or `keyword var:sort.` as (var, sort or None), if at `keyword`.

        (None, None) when not at `keyword`; None after a syntax error.
        """
        if not self.at(keyword):
            return None, None
        self.next()
        v = self.expect_item_name("variable")
        if v is None:
            return None
        sort = None
        if self.at(":"):
            self.next()
            s = self.expect_item_name("sort")
            if s is None:
                return None
            sort = s.text
        return None if self.expect(".") is None else (v.text, sort)

    def parse_equation(self, quantified: bool = False) -> Optional[RawEquation]:
        start = self.peek().span
        binder = self.parse_binder("forall") if quantified else (None, None)
        if binder is None:
            return None
        lhs = self.parse_term()
        if lhs is None or self.expect("=") is None:
            return None
        rhs = self.parse_term()
        if rhs is None:
            return None
        return RawEquation(lhs, rhs, start.to(rhs.span), *binder)

    # -- section items -----------------------------------------------------

    def parse_name_group(self) -> Optional[tuple[list[str], str]]:
        """`a b c : X` — names up to a colon, then the sort."""
        names: list[str] = []
        while self.peek().kind in (IDENT, NUMBER) and not self.at_boundary():
            names.append(self.next().text)
            if self.at(":"):
                break
        if not names:
            self.error("expected at least one name")
            return None
        if self.expect(":") is None:
            return None
        sort = self.expect_item_name("sort")
        return None if sort is None else (names, sort.text)

    def parse_arrow_group(self) -> Optional[tuple[list[str], str, str]]:
        """`f g : A -> B`."""
        grp = self.parse_name_group()
        if grp is None or self.expect("->") is None:
            return None
        to = self.expect_item_name("sort")
        return None if to is None else (*grp, to.text)

    def parse_entity_pair(self) -> Optional[tuple[str, str]]:
        """`A -> B`."""
        a = self.expect_item_name("entity")
        if a is None or self.expect("->") is None:
            return None
        b = self.expect_item_name("entity")
        return None if b is None else (a.text, b.text)

    def parse_symbol_image(self) -> Optional[tuple[str, RawImage]]:
        """`f -> image`."""
        f = self.expect_item_name("symbol")
        if f is None or self.expect("->") is None:
            return None
        img = self.parse_image()
        return None if img is None else (f.text, img)

    def parse_image(self) -> Optional[RawImage]:
        start = self.peek().span
        binder = self.parse_binder("lambda")
        if binder is None:
            return None
        body = self.parse_term()
        if body is None:
            return None
        return RawImage(body, start.to(body.span), *binder)

    def skip_section(self):
        while not self.at_boundary():
            self.next()

    # -- declarations ------------------------------------------------------

    def parse_program(self) -> Program:
        prog = Program()
        while self.peek().kind != EOF:
            t = self.peek()
            if t.text in DECL_KEYWORDS or t.text in DIRECTIVE_KEYWORDS:
                d = self.parse_decl() if t.text in DECL_KEYWORDS else self.parse_directive()
                if d is not None:
                    prog.decls.append(d)
                else:
                    self.sync_top()
            else:
                self.error(f"expected a declaration, found {t.text!r}")
                self.next()
                self.sync_top()
        return prog

    def parse_decl(self):
        kw = self.next()
        name = self.expect_name(f"{kw.text} name")
        if name is None or self.expect("=") is None:
            return None
        head = self.peek()
        if head.text == "literal":
            self.next()
            if kw.text == "typeside":
                return self.parse_body(TypesideDecl(name.text, kw.span))
            if kw.text == "mapping":
                return self.parse_mapping_header(name.text, kw.span)
            ref = self.parse_header_ref()
            if ref is None:
                return None
            cls = SchemaDecl if kw.text == "schema" else InstanceDecl
            return self.parse_body(cls(name.text, kw.span, ref))
        if head.text in EXPR_KEYWORDS:
            self.next()
            nargs = 1 if head.text == "identity" else 2
            args = []
            for _ in range(nargs):
                a = self.expect_name("reference")
                if a is None:
                    return None
                args.append(a.text)
            if kw.text not in ("instance", "mapping"):
                self.error(f"{head.text} expression cannot define a {kw.text}", head.span)
                return None
            return DerivedDecl(kw.text, name.text, kw.span.to(self.toks[self.pos - 1].span),
                               head.text, args)
        self.error(f"expected 'literal' or a derived expression, found {head.text!r}")
        return None

    def parse_header_ref(self) -> Optional[str]:
        if self.expect(":") is None:
            return None
        r = self.expect_name("reference")
        return None if r is None else r.text

    def parse_mapping_header(self, name: str, start: SourceSpan):
        if self.expect(":") is None:
            return None
        src = self.expect_name("source schema")
        if src is None or self.expect("->") is None:
            return None
        tgt = self.expect_name("target schema")
        if tgt is None:
            return None
        return self.parse_body(MappingDecl(name, start, src.text, tgt.text))

    def parse_body(self, decl):
        """`{ section items ... }`, each item appended to the section's field of `decl`.

        A bad item ends its section, which is skipped; so is an unknown one.
        """
        if self.expect("{") is None:
            return None
        sections = BODIES[decl.kind]
        while not self.at("}") and self.peek().kind != EOF:
            section = self.next()
            kind = sections.get(section.text)
            if kind is None:
                if decl.kind == "typeside" and section.text in JAVA_SECTIONS:
                    self.diags.append(Diagnostic(
                        "error", "UnsupportedFeature",
                        f"{section.text}: external bindings unsupported; use builtin String/Int",
                        section.span))
                else:
                    self.error(f"unknown {decl.kind} section {section.text!r}", section.span)
                self.skip_section()
                continue
            items = getattr(decl, section.text)
            if kind == NAMES:  # a run of names, which ends at anything else
                while self.peek().kind in (IDENT, NUMBER) and not self.at_boundary():
                    items.append(self.next().text)
                continue
            read = _READERS[kind]
            while not self.at_boundary():
                item = read(self)
                if item is None:
                    self.skip_section()
                    break
                items.append(item)
        self.expect("}")
        return decl

    def parse_directive(self) -> Optional[Directive]:
        kw = self.next()
        d = Directive(kw.text, kw.span)
        if kw.text == "match" and self.at("span"):
            self.next()
            d.span_match = True
        nargs = 2 if kw.text == "match" else 1
        for _ in range(nargs):
            a = self.expect_name("reference")
            if a is None:
                return None
            d.args.append(a.text)
        while self.peek().kind == IDENT and self.peek().text in ("cutoff", "depth"):
            opt = self.next()
            if opt.text != DIRECTIVE_OPTIONS.get(kw.text):
                self.error(f"{kw.text} takes no {opt.text!r} option", opt.span)
                return None
            val = self.peek()
            try:
                # a number token may still be malformed, such as 1.2.3 or ²
                value = float(val.text) if opt.text == "cutoff" else int(val.text)
            except ValueError:
                value = None
            if val.kind != NUMBER or value is None:
                self.error(f"expected a number after {opt.text!r}")
                return None
            self.next()
            if opt.text == "cutoff":
                d.cutoff = value
            else:
                d.depth = value
        return d


# the reader of one item of each kind but NAMES; None after a syntax error
_READERS = {
    NAME_GROUP: _Parser.parse_name_group,
    ARROW_GROUP: _Parser.parse_arrow_group,
    EQUATION: _Parser.parse_equation,
    QUANTIFIED: functools.partial(_Parser.parse_equation, quantified=True),
    ENTITY_PAIR: _Parser.parse_entity_pair,
    SYMBOL_IMAGE: _Parser.parse_symbol_image,
}


def parse(text: str, filename: str = "<input>") -> tuple[Program, list[Diagnostic]]:
    """Parse a .catq program; always returns an AST plus diagnostics."""
    tokens, diags = lex(text, filename)
    parser = _Parser(tokens, diags)
    prog = parser.parse_program()
    return prog, diags


# ---------------------------------------------------------------------------
# Pretty printer (inverse of parse up to layout)


def _pp_equation(eq: RawEquation) -> str:
    q = "" if eq.var is None else f"forall {_binder(eq.var, eq.var_sort)} "
    return f"{q}{eq.lhs.render()} = {eq.rhs.render()}"


# the printer of one item of each kind but NAMES, which share one line
_PRINTERS = {
    NAME_GROUP: lambda g: f"{' '.join(g[0])} : {g[1]}",
    ARROW_GROUP: lambda g: f"{' '.join(g[0])} : {g[1]} -> {g[2]}",
    EQUATION: _pp_equation,
    QUANTIFIED: _pp_equation,
    ENTITY_PAIR: lambda p: f"{p[0]} -> {p[1]}",
    SYMBOL_IMAGE: lambda p: f"{p[0]} -> {p[1].render()}",
}

# each literal declaration's header between `literal` and `{`, from its fields
_HEADERS = {"typeside": "", "schema": ": {typeside_ref} ", "instance": ": {schema_ref} ",
            "mapping": ": {source_ref} -> {target_ref} "}


def _positional(x: float) -> str:
    """`x` as the `g` format prints it, but with no exponent, which would not lex as one number."""
    text = f"{x:g}"
    mantissa, _, exp = text.partition("e")
    if not exp:
        return text
    return f"{x:.{max(len(mantissa.partition('.')[2]) - int(exp), 0)}f}"


def pretty_print(prog: Program) -> str:
    out: list[str] = []
    for d in prog.decls:
        if isinstance(d, DerivedDecl):
            out.append(f"{d.kind} {d.name} = {d.op} {' '.join(d.args)}")
        elif isinstance(d, Directive):
            parts = [d.op]
            if d.span_match:
                parts.append("span")
            parts.extend(d.args)
            if d.cutoff is not None:
                parts.extend(["cutoff", _positional(d.cutoff)])
            if d.depth is not None:
                parts.extend(["depth", str(d.depth)])
            out.append(" ".join(parts))
        else:
            lines = [f"{d.kind} {d.name} = literal {_HEADERS[d.kind].format_map(vars(d))}{{"]
            for section, kind in BODIES[d.kind].items():
                items = getattr(d, section)
                if not items:
                    continue
                lines.append(f"    {section}")
                if kind == NAMES:
                    lines.append(f"        {' '.join(items)}")
                else:
                    show = _PRINTERS[kind]
                    lines.extend(f"        {show(item)}" for item in items)
            lines.append("}")
            out.append("\n".join(lines))
    return "\n\n".join(out) + ("\n" if out else "")
