"""Lexer, AST and recursive-descent parser for .catq programs.

Parsing is total: syntax errors become diagnostics with source spans
and the parser resynchronizes at the next section or declaration, so a
single bad token never hides the rest of the file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

# token kinds
IDENT = "ident"
NUMBER = "number"
STRING = "string"
PUNCT = "punct"
EOF = "eof"

PUNCTUATION = ("->", "{", "}", "(", ")", ":", ",", "=", ".")

DECL_KEYWORDS = {"typeside", "schema", "instance", "mapping"}
DIRECTIVE_KEYWORDS = {"check", "invert", "match"}
EXPR_KEYWORDS = {"literal", "sigma", "delta", "pi", "coproduct", "compose", "identity"}
SECTION_KEYWORDS = {"types", "constants", "entities", "foreign_keys", "attributes",
                    "equations", "generators", "java_types", "java_constants"}


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"

    def to(self, other: "SourceSpan") -> "SourceSpan":
        return SourceSpan(self.file, self.line, self.col, other.end_line, other.end_col)


@dataclass(frozen=True)
class Token:
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


def lex(text: str, filename: str = "<input>") -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line, col, i = 1, 1, 0
    n = len(text)

    def span(l, c, l2, c2):
        return SourceSpan(filename, l, c, l2, c2)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_l, start_c = line, col
        if ch == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"' and text[j] != "\n":
                buf.append(text[j])
                j += 1
            closed = j < n and text[j] == '"'
            if not closed:
                diags.append(Diagnostic("error", "SyntaxError", "unterminated string literal",
                                        span(start_l, start_c, line, col + (j - i))))
            # an unterminated literal stops before the newline, which the main loop counts
            width = j - i + 1 if closed else j - i
            tokens.append(Token(STRING, "".join(buf), span(start_l, start_c, line, start_c + width)))
            col += width
            i += width
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            word = text[i:j]
            tokens.append(Token(NUMBER, word, span(start_l, start_c, line, start_c + len(word))))
            col += len(word)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(Token(IDENT, word, span(start_l, start_c, line, start_c + len(word))))
            col += len(word)
            i = j
            continue
        matched = None
        for p in PUNCTUATION:
            if text.startswith(p, i):
                matched = p
                break
        if matched:
            tokens.append(Token(PUNCT, matched, span(start_l, start_c, line, start_c + len(matched))))
            col += len(matched)
            i += len(matched)
            continue
        diags.append(Diagnostic("error", "SyntaxError", f"unexpected character {ch!r}",
                                span(start_l, start_c, line, start_c + 1)))
        i += 1
        col += 1
    tokens.append(Token(EOF, "", span(line, col, line, col)))
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
        head = f'"{self.name}"' if self.quoted else self.name
        if not self.args:
            return head
        return f"{head}({', '.join(a.render() for a in self.args)})"


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
        ann = f":{self.var_sort}" if self.var_sort else ""
        return f"lambda {self.var}{ann}. {self.body.render()}"


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

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.peek()
        if t.kind != EOF:
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind in (PUNCT, IDENT)

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
        t = self.peek()
        if t.kind == STRING:
            self.next()
            return RawTerm(t.text, t.span, quoted=True)
        if t.kind not in (IDENT, NUMBER):
            self.error(f"expected a term, found {t.text!r}")
            return None
        self.next()
        node = RawTerm(t.text, t.span)
        if self.at("("):
            self.next()
            while not self.at(")") and self.peek().kind != EOF:
                arg = self.parse_term()
                if arg is None:
                    break
                node.args.append(arg)
                if self.at(","):
                    self.next()
                else:
                    break
            close = self.expect(")")
            if close:
                node.span = node.span.to(close.span)
        return node

    def parse_equation(self, quantified: bool = False) -> Optional[RawEquation]:
        var = var_sort = None
        start = self.peek().span
        if quantified and self.at("forall"):
            self.next()
            v = self.expect_name("variable")
            if v is None:
                return None
            var = v.text
            if self.at(":"):
                self.next()
                s = self.expect_name("sort")
                if s is None:
                    return None
                var_sort = s.text
            if self.expect(".") is None:
                return None
        lhs = self.parse_term()
        if lhs is None or self.expect("=") is None:
            return None
        rhs = self.parse_term()
        if rhs is None:
            return None
        return RawEquation(lhs, rhs, start.to(rhs.span), var, var_sort)

    # -- sections --------------------------------------------------------

    def parse_name_group(self) -> Optional[tuple[list[str], Token]]:
        """`a b c : X` — names up to a colon, then the sort token."""
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
        sort = self.expect_name("sort")
        if sort is None:
            return None
        return names, sort

    def skip_section(self):
        while not self.at_boundary() and self.peek().kind != EOF:
            self.next()

    # -- declarations ------------------------------------------------------

    def parse_program(self) -> Program:
        prog = Program()
        while self.peek().kind != EOF:
            t = self.peek()
            if t.text in DECL_KEYWORDS:
                d = self.parse_decl()
                if d is not None:
                    prog.decls.append(d)
                else:
                    self.sync_top()
            elif t.text in DIRECTIVE_KEYWORDS:
                d = self.parse_directive()
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
                return self.parse_typeside_body(name.text, kw.span)
            if kw.text == "schema":
                return self.parse_schema_body(name.text, kw.span)
            if kw.text == "instance":
                return self.parse_instance_body(name.text, kw.span)
            if kw.text == "mapping":
                return self.parse_mapping_body(name.text, kw.span)
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
            return DerivedDecl(kw.text, name.text, kw.span.to(self.peek(-1).span if self.pos else kw.span),
                               head.text, args)
        self.error(f"expected 'literal' or a derived expression, found {head.text!r}")
        return None

    def parse_header_ref(self) -> Optional[str]:
        if self.expect(":") is None:
            return None
        r = self.expect_name("reference")
        return None if r is None else r.text

    def reject_java_section(self, section: Token):
        self.diags.append(Diagnostic(
            "error", "UnsupportedFeature",
            f"{section.text}: external bindings unsupported; use builtin String/Int",
            section.span))
        self.skip_section()

    def parse_typeside_body(self, name: str, start: SourceSpan):
        decl = TypesideDecl(name, start)
        if self.expect("{") is None:
            return None
        while not self.at("}") and self.peek().kind != EOF:
            section = self.next()
            if section.text in ("java_types", "java_constants"):
                self.reject_java_section(section)
            elif section.text == "types":
                while self.peek().kind in (IDENT, NUMBER) and not self.at_boundary():
                    decl.types.append(self.next().text)
            elif section.text == "constants":
                while not self.at_boundary():
                    grp = self.parse_name_group()
                    if grp is None:
                        self.skip_section()
                        break
                    decl.constants.append((grp[0], grp[1].text))
            elif section.text == "equations":
                while not self.at_boundary():
                    eq = self.parse_equation()
                    if eq is None:
                        self.skip_section()
                        break
                    decl.equations.append(eq)
            else:
                self.error(f"unknown typeside section {section.text!r}", section.span)
                self.skip_section()
        self.expect("}")
        return decl

    def parse_arrow_group(self) -> Optional[tuple[list[str], str, str]]:
        """`f g : A -> B`."""
        grp = self.parse_name_group()
        if grp is None:
            return None
        names, frm = grp
        if self.expect("->") is None:
            return None
        to = self.expect_name("sort")
        if to is None:
            return None
        return names, frm.text, to.text

    def parse_schema_body(self, name: str, start: SourceSpan):
        decl = SchemaDecl(name, start)
        ref = self.parse_header_ref()
        if ref is None:
            return None
        decl.typeside_ref = ref
        if self.expect("{") is None:
            return None
        while not self.at("}") and self.peek().kind != EOF:
            section = self.next()
            if section.text == "entities":
                while self.peek().kind in (IDENT, NUMBER) and not self.at_boundary():
                    decl.entities.append(self.next().text)
            elif section.text == "foreign_keys":
                while not self.at_boundary():
                    grp = self.parse_arrow_group()
                    if grp is None:
                        self.skip_section()
                        break
                    decl.foreign_keys.append(grp)
            elif section.text == "attributes":
                while not self.at_boundary():
                    grp = self.parse_arrow_group()
                    if grp is None:
                        self.skip_section()
                        break
                    decl.attributes.append(grp)
            elif section.text == "equations":
                while not self.at_boundary():
                    eq = self.parse_equation(quantified=True)
                    if eq is None:
                        self.skip_section()
                        break
                    decl.equations.append(eq)
            else:
                self.error(f"unknown schema section {section.text!r}", section.span)
                self.skip_section()
        self.expect("}")
        return decl

    def parse_instance_body(self, name: str, start: SourceSpan):
        decl = InstanceDecl(name, start)
        ref = self.parse_header_ref()
        if ref is None:
            return None
        decl.schema_ref = ref
        if self.expect("{") is None:
            return None
        while not self.at("}") and self.peek().kind != EOF:
            section = self.next()
            if section.text == "generators":
                while not self.at_boundary():
                    grp = self.parse_name_group()
                    if grp is None:
                        self.skip_section()
                        break
                    decl.generators.append((grp[0], grp[1].text))
            elif section.text == "equations":
                while not self.at_boundary():
                    eq = self.parse_equation()
                    if eq is None:
                        self.skip_section()
                        break
                    decl.equations.append(eq)
            else:
                self.error(f"unknown instance section {section.text!r}", section.span)
                self.skip_section()
        self.expect("}")
        return decl

    def parse_image(self) -> Optional[RawImage]:
        start = self.peek().span
        if self.at("lambda"):
            self.next()
            v = self.expect_name("variable")
            if v is None:
                return None
            var_sort = None
            if self.at(":"):
                self.next()
                s = self.expect_name("sort")
                if s is None:
                    return None
                var_sort = s.text
            if self.expect(".") is None:
                return None
            body = self.parse_term()
            if body is None:
                return None
            return RawImage(body, start.to(body.span), v.text, var_sort)
        body = self.parse_term()
        if body is None:
            return None
        return RawImage(body, start.to(body.span))

    def parse_mapping_body(self, name: str, start: SourceSpan):
        decl = MappingDecl(name, start)
        if self.expect(":") is None:
            return None
        src = self.expect_name("source schema")
        if src is None or self.expect("->") is None:
            return None
        tgt = self.expect_name("target schema")
        if tgt is None:
            return None
        decl.source_ref, decl.target_ref = src.text, tgt.text
        if self.expect("{") is None:
            return None
        while not self.at("}") and self.peek().kind != EOF:
            section = self.next()
            if section.text == "entities":
                while not self.at_boundary():
                    a = self.expect_name("entity")
                    if a is None or self.expect("->") is None:
                        self.skip_section()
                        break
                    b = self.expect_name("entity")
                    if b is None:
                        self.skip_section()
                        break
                    decl.entities.append((a.text, b.text))
            elif section.text in ("foreign_keys", "attributes"):
                bucket = decl.foreign_keys if section.text == "foreign_keys" else decl.attributes
                while not self.at_boundary():
                    f = self.expect_name("symbol")
                    if f is None or self.expect("->") is None:
                        self.skip_section()
                        break
                    img = self.parse_image()
                    if img is None:
                        self.skip_section()
                        break
                    bucket.append((f.text, img))
            else:
                self.error(f"unknown mapping section {section.text!r}", section.span)
                self.skip_section()
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
            val = self.peek()
            if val.kind != NUMBER:
                self.error(f"expected a number after {opt.text!r}")
                return None
            self.next()
            if opt.text == "cutoff":
                d.cutoff = float(val.text)
            else:
                d.depth = int(val.text)
        return d


def parse(text: str, filename: str = "<input>") -> tuple[Program, list[Diagnostic]]:
    """Parse a .catq program; always returns an AST plus diagnostics."""
    tokens, diags = lex(text, filename)
    parser = _Parser(tokens, diags)
    prog = parser.parse_program()
    return prog, diags


# ---------------------------------------------------------------------------
# Pretty printer (inverse of parse up to layout)


def _pp_groups(lines: list[str], section: str, groups, arrow: bool):
    if not groups:
        return
    lines.append(f"    {section}")
    for g in groups:
        if arrow:
            names, frm, to = g
            lines.append(f"        {' '.join(names)} : {frm} -> {to}")
        else:
            names, sort = g
            lines.append(f"        {' '.join(names)} : {sort}")


def _pp_equations(lines: list[str], eqs: list[RawEquation]):
    if not eqs:
        return
    lines.append("    equations")
    for eq in eqs:
        q = ""
        if eq.var is not None:
            ann = f":{eq.var_sort}" if eq.var_sort else ""
            q = f"forall {eq.var}{ann}. "
        lines.append(f"        {q}{eq.lhs.render()} = {eq.rhs.render()}")


def pretty_print(prog: Program) -> str:
    out: list[str] = []
    for d in prog.decls:
        if isinstance(d, TypesideDecl):
            lines = [f"typeside {d.name} = literal {{"]
            if d.types:
                lines.append("    types")
                lines.append(f"        {' '.join(d.types)}")
            _pp_groups(lines, "constants", d.constants, arrow=False)
            _pp_equations(lines, d.equations)
            lines.append("}")
            out.append("\n".join(lines))
        elif isinstance(d, SchemaDecl):
            lines = [f"schema {d.name} = literal : {d.typeside_ref} {{"]
            if d.entities:
                lines.append("    entities")
                lines.append(f"        {' '.join(d.entities)}")
            _pp_groups(lines, "foreign_keys", d.foreign_keys, arrow=True)
            _pp_groups(lines, "attributes", d.attributes, arrow=True)
            _pp_equations(lines, d.equations)
            lines.append("}")
            out.append("\n".join(lines))
        elif isinstance(d, InstanceDecl):
            lines = [f"instance {d.name} = literal : {d.schema_ref} {{"]
            _pp_groups(lines, "generators", d.generators, arrow=False)
            _pp_equations(lines, d.equations)
            lines.append("}")
            out.append("\n".join(lines))
        elif isinstance(d, MappingDecl):
            lines = [f"mapping {d.name} = literal : {d.source_ref} -> {d.target_ref} {{"]
            if d.entities:
                lines.append("    entities")
                for a, b in d.entities:
                    lines.append(f"        {a} -> {b}")
            for sec, items in (("foreign_keys", d.foreign_keys), ("attributes", d.attributes)):
                if items:
                    lines.append(f"    {sec}")
                    for f, img in items:
                        lines.append(f"        {f} -> {img.render()}")
            lines.append("}")
            out.append("\n".join(lines))
        elif isinstance(d, DerivedDecl):
            out.append(f"{d.kind} {d.name} = {d.op} {' '.join(d.args)}")
        elif isinstance(d, Directive):
            parts = [d.op]
            if d.span_match:
                parts.append("span")
            parts.extend(d.args)
            if d.cutoff is not None:
                parts.extend(["cutoff", f"{d.cutoff:g}"])
            if d.depth is not None:
                parts.extend(["depth", str(d.depth)])
            out.append(" ".join(parts))
    return "\n\n".join(out) + ("\n" if out else "")
