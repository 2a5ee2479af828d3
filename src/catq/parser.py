"""Lexer, AST and recursive-descent parser for .catq programs.

The text is scanned by one regular-expression split, which keeps each
token's text and offsets.  A `SourceSpan` is computed only when it is read,
by a diagnostic or from a node's `span`: its line by bisecting the text's
line starts, its columns counting code points, a tab as one.

An `equations` section of ground equations (instances and typesides) is
scanned by `_Parser.scan_equations`: an item whose sides are chains of
one-argument applications keeps only its token indices, and its sides'
trees are parsed from them when read.  The elaborator resolves such a
side from its token texts, so reading instance data builds no tree.

The header and the body of every literal declaration, `{ section items
... }`, are described once, in `HEADERS` and `BODIES`: the parser reads
them and the pretty printer writes them from those tables.

Parsing is total: syntax errors become diagnostics with source spans
and the parser resynchronizes at the next section or declaration, so a
single bad token never hides the rest of the file.
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple, Optional

from .terms import ReadOnly, Record, render_tree

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
# each literal declaration's header, between `literal` and `{`: (separator, what follows, its field)
HEADERS = {"typeside": (), "schema": ((":", "reference", "typeside_ref"),),
           "instance": ((":", "reference", "schema_ref"),),
           "mapping": ((":", "source schema", "source_ref"), ("->", "target schema", "target_ref"))}

DECL_KEYWORDS = set(BODIES)
DIRECTIVE_KEYWORDS = {"check", "invert", "match"}
TOP_KEYWORDS = DECL_KEYWORDS | DIRECTIVE_KEYWORDS  # what starts a top-level item
DIRECTIVE_OPTIONS = {"invert": "depth", "match": "cutoff"}  # the one option each takes, if any
EXPR_KEYWORDS = {"literal", "sigma", "delta", "pi", "coproduct", "compose", "identity"}
SECTION_KEYWORDS = {kw for sections in BODIES.values() for kw in sections} | set(JAVA_SECTIONS)

_NOT_NAMES = {"", *PUNCTUATION}  # texts of tokens that are no name, unless strings; "" is EOF's
_NO_TERM = _NOT_NAMES | SECTION_KEYWORDS  # texts of tokens that start no term, unless strings


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


class Diagnostic(ReadOnly):
    __slots__ = ("severity", "code", "message", "span")

    def __init__(self, severity: str, code: str, message: str, span: Optional[SourceSpan] = None):
        object.__setattr__(self, "severity", severity)  # "error" | "warning"
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "message", message)
        object.__setattr__(self, "span", span)

    def __str__(self) -> str:
        where = f"{self.span}: " if self.span else ""
        return f"{where}{self.severity}: {self.code}: {self.message}"


# Non-ASCII word characters.  `\d` and `\w` test `str.isdecimal` and
# `str.isalnum`, but a number starts at a `str.isdigit` character and an
# identifier at a `str.isalpha` one; they differ on characters such as
# `²` (a digit, not decimal) and `½` (alphanumeric, not a letter), so the
# token pattern of a text names those of its characters explicitly.
_NON_ASCII_WORD = re.compile(r"[^\W\x00-\x7f]")


def _token_pattern(text: str) -> re.Pattern:
    """One group of one alternative per lexeme, commonest first (no two start alike); `re` caches it."""
    odd = set() if text.isascii() else set(_NON_ASCII_WORD.findall(text))
    digit = r"\d" + re.escape("".join(sorted(c for c in odd if c.isdigit())))
    non_letter = re.escape("".join(sorted(c for c in odd if not c.isalpha())))
    punct = "|".join(map(re.escape, PUNCTUATION))
    return re.compile(rf'([^\W\d{non_letter}]\w*|{punct}|-?[{digit}][{digit}.]*|"[^"\n]*"?|//[^\n]*)')


def lex(text: str, filename: str = "<input>") -> tuple[list[Token], list[Diagnostic]]:
    p = _Parser(text, filename)
    return [Token(p.kind(i), t, p.tokens_span(i, i)) for i, t in enumerate(p.texts)], p.diags


# ---------------------------------------------------------------------------
# AST


def _span(node) -> SourceSpan:
    """A node's span, which the parser sets to (parser, first token, last token) until it is read."""
    if type(node._span) is tuple:
        p, first, last = node._span
        node._span = p.tokens_span(first, last)
    return node._span


class RawTerm(Record):
    """An unresolved application tree; a leaf has no arguments.  Mutable, so unhashable."""

    _fields = ("name", "span", "args", "quoted")
    __hash__ = None

    def __init__(self, name: str, span: SourceSpan, args: Optional[list["RawTerm"]] = None,
                 quoted: bool = False):
        self.name, self._span = name, span
        self.args = [] if args is None else args
        self.quoted = quoted  # came from a double-quoted string

    def render(self) -> str:
        return render_tree(self, lambda u: (f'"{u.name}"' if u.quoted else u.name, u.args))


class RawEquation:
    """`lhs = rhs`, with the quantified variable of a schema constraint.

    A scanned equation has `chains`: (parser, lhs first token, lhs leaf
    token, rhs first token, rhs leaf token), each side a chain `f ( g (
    leaf ) )` of one-argument applications; the parser gives it no sides,
    and a side's tree is parsed from its tokens when first read.  Slots and
    a plain constructor keep making one cheap, as an instance holds many.
    """

    __slots__ = ("_lhs", "_rhs", "_span", "var", "var_sort", "chains")

    def __init__(self, lhs: Optional[RawTerm], rhs: Optional[RawTerm], span,
                 var: Optional[str] = None, var_sort: Optional[str] = None,
                 chains: Optional[tuple] = None):
        self._lhs, self._rhs, self._span = lhs, rhs, span
        self.var = var  # quantified variable, schema constraints only
        self.var_sort = var_sort
        self.chains = chains

    @property
    def lhs(self) -> RawTerm:
        if self._lhs is None and self.chains is not None:
            self._lhs = self.chains[0].term_at(self.chains[1])
        return self._lhs

    @lhs.setter
    def lhs(self, term: RawTerm):
        self._lhs = term

    @property
    def rhs(self) -> RawTerm:
        if self._rhs is None and self.chains is not None:
            self._rhs = self.chains[0].term_at(self.chains[3])
        return self._rhs

    @rhs.setter
    def rhs(self, term: RawTerm):
        self._rhs = term

    def _fields(self) -> tuple:
        return self.lhs, self.rhs, self.span, self.var, self.var_sort

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is RawEquation else NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return "RawEquation(lhs={!r}, rhs={!r}, span={!r}, var={!r}, var_sort={!r})".format(*self._fields())


class RawImage:
    """The right-hand side of a mapping assignment."""

    __slots__ = ("body", "_span", "var", "var_sort")

    def __init__(self, body: RawTerm, span: SourceSpan, var: Optional[str] = None,
                 var_sort: Optional[str] = None):
        self.body, self._span = body, span
        self.var = var  # explicit lambda binder, if given
        self.var_sort = var_sort

    def render(self) -> str:
        if self.var is None:
            return self.body.render()
        return f"lambda {_binder(self.var, self.var_sort)} {self.body.render()}"


def _binder(var: str, sort: Optional[str]) -> str:
    """`var.` or `var:sort.`, with a space before the dot after a number, which would absorb it."""
    last = sort or var
    dot = "." if last[0].isalpha() or last[0] == "_" else " ."
    return f"{var}:{sort}{dot}" if sort else f"{var}{dot}"


class TypesideDecl:
    kind = "typeside"
    __slots__ = ("name", "_span", "types", "constants", "equations")

    def __init__(self, name: str, span: SourceSpan, types: Optional[list[str]] = None,
                 constants: Optional[list[tuple[list[str], str]]] = None,
                 equations: Optional[list[RawEquation]] = None):
        self.name, self._span = name, span
        self.types = [] if types is None else types
        self.constants = [] if constants is None else constants
        self.equations = [] if equations is None else equations


class SchemaDecl:
    kind = "schema"
    __slots__ = ("name", "_span", "typeside_ref", "entities", "foreign_keys", "attributes", "equations")

    def __init__(self, name: str, span: SourceSpan, typeside_ref: str = "",
                 entities: Optional[list[str]] = None,
                 foreign_keys: Optional[list[tuple[list[str], str, str]]] = None,
                 attributes: Optional[list[tuple[list[str], str, str]]] = None,
                 equations: Optional[list[RawEquation]] = None):
        self.name, self._span, self.typeside_ref = name, span, typeside_ref
        self.entities = [] if entities is None else entities
        self.foreign_keys = [] if foreign_keys is None else foreign_keys
        self.attributes = [] if attributes is None else attributes
        self.equations = [] if equations is None else equations


class InstanceDecl:
    kind = "instance"
    __slots__ = ("name", "_span", "schema_ref", "generators", "equations")

    def __init__(self, name: str, span: SourceSpan, schema_ref: str = "",
                 generators: Optional[list[tuple[list[str], str]]] = None,
                 equations: Optional[list[RawEquation]] = None):
        self.name, self._span, self.schema_ref = name, span, schema_ref
        self.generators = [] if generators is None else generators
        self.equations = [] if equations is None else equations


class MappingDecl:
    kind = "mapping"
    __slots__ = ("name", "_span", "source_ref", "target_ref", "entities", "foreign_keys", "attributes")

    def __init__(self, name: str, span: SourceSpan, source_ref: str = "", target_ref: str = "",
                 entities: Optional[list[tuple[str, str]]] = None,
                 foreign_keys: Optional[list[tuple[str, RawImage]]] = None,
                 attributes: Optional[list[tuple[str, RawImage]]] = None):
        self.name, self._span = name, span
        self.source_ref, self.target_ref = source_ref, target_ref
        self.entities = [] if entities is None else entities
        self.foreign_keys = [] if foreign_keys is None else foreign_keys
        self.attributes = [] if attributes is None else attributes


class DerivedDecl:
    """instance J = sigma F I / mapping H = compose F G, and friends."""

    __slots__ = ("kind", "name", "_span", "op", "args")

    def __init__(self, kind: str, name: str, span: SourceSpan, op: str = "",
                 args: Optional[list[str]] = None):
        self.kind = kind  # "instance" | "mapping"
        self.name, self._span = name, span
        self.op = op  # sigma | delta | pi | coproduct | compose | identity
        self.args = [] if args is None else args


class Directive:
    kind = "directive"
    __slots__ = ("op", "_span", "args", "span_match", "cutoff", "depth")

    def __init__(self, op: str, span: SourceSpan, args: Optional[list[str]] = None,
                 span_match: bool = False, cutoff: Optional[float] = None,
                 depth: Optional[int] = None):
        self.op, self._span = op, span  # check | invert | match
        self.args = [] if args is None else args
        self.span_match = span_match
        self.cutoff = cutoff
        self.depth = depth


for _node in (RawTerm, RawEquation, RawImage, TypesideDecl, SchemaDecl, InstanceDecl,
              MappingDecl, DerivedDecl, Directive):
    _node.span = property(_span, lambda node, span: setattr(node, "_span", span))


class Program:
    __slots__ = ("decls",)

    def __init__(self, decls: Optional[list] = None):
        self.decls = [] if decls is None else decls


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    """Scans a text on construction: `texts[i]` is token i's text, at offsets `starts[i]:stops[i]`.

    A string's text is unquoted and i is in `strings`; comments are left out; EOF's text "" ends the list.
    """

    def __init__(self, text: str, filename: str):
        self.text, self.filename, self.pos = text, filename, 0
        self.strings: set[int] = set()
        self.diags: list[Diagnostic] = []  # lexical errors first, in text order
        parts = _token_pattern(text).split(text)  # gap, lexeme, ..., gap (blanks, line ends, strays)
        ends = list(accumulate(map(len, parts)))
        if '"' in text or "//" in text or "".join(parts[::2]).strip(" \t\r\n"):
            texts, starts, stops = self.mend(parts, ends)
        else:
            texts, starts, stops = parts[1::2], ends[:-1:2], ends[1::2]
        # a comment does not advance the column, so EOF after a final comment sits at its start
        eof = ends[-3] if len(parts) > 1 and not parts[-1] and parts[-2][:2] == "//" else len(text)
        self.eof = len(texts)  # the index of the EOF token
        self.texts, self.starts, self.stops = texts + [""], starts + [eof], stops + [eof]

    def mend(self, parts: list[str], ends: list[int]) -> tuple[list[str], list[int], list[int]]:
        """The tokens but comments, strings unquoted; reports stray characters and unterminated strings."""
        texts, starts, stops = [], [], []
        for k, part in enumerate(parts):
            start = ends[k] - len(part)
            if k % 2 == 0:  # between lexemes
                for i, c in enumerate(part if part.strip(" \t\r\n") else "", start):
                    if c not in " \t\r\n":
                        self.error(f"unexpected character {c!r}", self.span(i, i + 1))
            elif part[:2] != "//":
                if part[0] == '"':
                    self.strings.add(len(texts))
                    closed = len(part) > 1 and part[-1] == '"'
                    if not closed:
                        self.error("unterminated string literal", self.span(start, ends[k]))
                    part = part[1:-1] if closed else part[1:]
                texts.append(part)
                starts.append(start)
                stops.append(ends[k])
        return texts, starts, stops

    def kind(self, i: int) -> str:
        t = self.texts[i]
        return (STRING if i in self.strings else EOF if i == self.eof else PUNCT if t in PUNCTUATION
                else NUMBER if t[0] == "-" or t[0].isdigit() else IDENT)

    @functools.cached_property
    def line_starts(self) -> list[int]:
        return [0, *(m.end() for m in re.finditer("\n", self.text))]

    def span(self, start: int, stop: int) -> SourceSpan:
        """The span of the characters `start:stop`; every span of the text is made here."""
        lines = self.line_starts
        line, end_line = bisect_right(lines, start), bisect_right(lines, stop)
        return SourceSpan(self.filename, line, start - lines[line - 1] + 1,
                          end_line, stop - lines[end_line - 1] + 1)

    def tokens_span(self, first: int, last: int) -> SourceSpan:
        return self.span(self.starts[first], self.stops[last])

    def chain_span(self, first: int, leaf: int, k: int) -> SourceSpan:
        """The span of the k-th application from the outside of the chain `f ( g ( leaf ) )`
        from token `first` to token `leaf`: k = 0 is the whole chain, k = its depth the leaf."""
        return self.tokens_span(first + 2 * k, leaf + ((leaf - first) >> 1) - k)

    # `next` never moves past the EOF token that ends `texts`, so `pos` is always a valid index

    def next(self) -> int:
        i = self.pos
        if i != self.eof:
            self.pos = i + 1
        return i

    def at(self, text: str) -> bool:
        return self.texts[self.pos] == text and self.pos not in self.strings

    def at_name(self) -> bool:
        return self.texts[self.pos] not in _NOT_NAMES and self.pos not in self.strings

    def error(self, message: str, span: Optional[SourceSpan] = None):
        self.diags.append(Diagnostic("error", "SyntaxError", message,
                                     span or self.tokens_span(self.pos, self.pos)))

    def expect(self, text: str) -> Optional[int]:
        if self.at(text):
            return self.next()
        self.error(f"expected {text!r}, found {self.texts[self.pos]!r}")
        return None

    def expect_name(self, what: str = "name") -> Optional[str]:
        if self.at_name():
            return self.texts[self.next()]
        self.error(f"expected {what}, found {self.texts[self.pos]!r}")
        return None

    def expect_item_name(self, what: str) -> Optional[str]:
        """`expect_name` inside a declaration body, where a section keyword ends the item."""
        if self.at_boundary():
            self.error(f"expected {what}, found {self.texts[self.pos]!r}")
            return None
        return self.expect_name(what)

    def sync_top(self):
        """Skip to the next top-level declaration keyword."""
        depth = 0
        while self.pos != self.eof:
            t = self.texts[self.pos]
            if depth == 0 and t in TOP_KEYWORDS:
                return
            if t == "{":
                depth += 1
            elif t == "}":
                depth = max(0, depth - 1)
                self.next()
                if depth == 0:
                    return
                continue
            self.next()

    def at_boundary(self) -> bool:
        t = self.texts[self.pos]
        return (self.pos == self.eof or t == "}" or
                (t in SECTION_KEYWORDS and self.pos not in self.strings))

    # -- terms -----------------------------------------------------------

    def parse_term(self) -> Optional[RawTerm]:
        # open applications sit on an explicit stack, so nesting depth is not
        # bounded by Python's recursion limit
        apps: list[RawTerm] = []
        while True:
            i = self.pos
            t = self.texts[i]
            if i in self.strings:
                self.next()
                node = RawTerm(t, (self, i, i), quoted=True)
            elif t not in _NO_TERM:
                self.next()
                node = RawTerm(t, (self, i, i))
                if self.at("("):
                    self.next()
                    apps.append(node)
                    if not self.at(")") and self.pos != self.eof:
                        continue  # read the first argument
                    node = None
            else:
                self.error(f"expected a term, found {t!r}")
                node = None
            # `node` is a finished argument, or None after an error or an empty
            # argument list; either way the innermost open application may close
            while apps:
                if node is not None:
                    apps[-1].args.append(node)
                    if self.at(","):
                        self.next()
                        if not self.at(")") and self.pos != self.eof:
                            break  # read the next argument
                node = apps.pop()
                close = self.expect(")")
                if close is not None:
                    node._span = (self, node._span[1], close)
            else:
                return node

    def term_at(self, first: int) -> Optional[RawTerm]:
        """The term that starts at token `first`, read without moving the parser."""
        pos, self.pos = self.pos, first
        try:
            return self.parse_term()
        finally:
            self.pos = pos

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
            sort = self.expect_item_name("sort")
            if sort is None:
                return None
        return None if self.expect(".") is None else (v, sort)

    def parse_equation(self, quantified: bool = False) -> Optional[RawEquation]:
        start = self.pos
        binder = self.parse_binder("forall") if quantified else (None, None)
        if binder is None:
            return None
        lhs = self.parse_term()
        if lhs is None or self.expect("=") is None:
            return None
        rhs = self.parse_term()
        if rhs is None:
            return None
        return RawEquation(lhs, rhs, (self, start, rhs._span[2]), *binder)

    def scan_equations(self, items: list) -> bool:
        """Read `lhs = rhs` items up to the section's end into `items`; False after a syntax error.

        An item whose sides are chains of one-argument applications, `f ( g (
        leaf ) )` with a name or string leaf, is scanned here and keeps each
        side as its first and leaf token; `parse_term` builds a side's tree
        when it is read.  The scan accepts exactly the items that `parse_term`
        reads as such chains with no diagnostic, so any other item (a `,`, an
        empty `()`, a keyword, a missing `)` or `=`, the end of the text) is
        read from its first token by `parse_equation`, which reports it.
        """
        texts, strings, eof = self.texts, self.strings, self.eof
        i = self.pos
        while not (i == eof or texts[i] == "}" or (texts[i] in SECTION_KEYWORDS and i not in strings)):
            j, lhs = i, None  # lhs: its first and leaf token, once read
            while True:  # one side per pass
                first = j
                while j not in strings:  # down the chain to its leaf
                    if texts[j] in _NO_TERM:
                        j = -1  # no term starts here
                        break
                    if texts[j + 1] != "(" or j + 1 in strings:
                        break  # a name leaf
                    j += 2
                if j < 0:
                    break
                leaf, depth = j, (j - first) >> 1
                j += 1
                if depth:  # the chain's closing parentheses
                    if texts[j:j + depth] != [")"] * depth or (
                            strings and not strings.isdisjoint(range(j, j + depth))):
                        j = -1
                        break
                    j += depth
                if lhs is not None:
                    break
                lhs = first, leaf
                if texts[j] != "=" or j in strings:
                    j = -1
                    break
                j += 1
            if j >= 0:
                items.append(RawEquation(None, None, (self, i, j - 1), None, None,
                                         (self, *lhs, first, leaf)))
                i = j
                continue
            self.pos = i
            eq = self.parse_equation()
            if eq is None:
                return False
            items.append(eq)
            i = self.pos
        self.pos = i
        return True

    # -- section items -----------------------------------------------------

    def parse_name_group(self) -> Optional[tuple[list[str], str]]:
        """`a b c : X` — names up to a colon, then the sort."""
        names: list[str] = []
        while self.at_name() and not self.at_boundary():
            names.append(self.texts[self.next()])
            if self.at(":"):
                break
        if not names:
            self.error("expected at least one name")
            return None
        if self.expect(":") is None:
            return None
        sort = self.expect_item_name("sort")
        return None if sort is None else (names, sort)

    def parse_arrow_group(self) -> Optional[tuple[list[str], str, str]]:
        """`f g : A -> B`."""
        grp = self.parse_name_group()
        if grp is None or self.expect("->") is None:
            return None
        to = self.expect_item_name("sort")
        return None if to is None else (*grp, to)

    def parse_entity_pair(self) -> Optional[tuple[str, str]]:
        """`A -> B`."""
        a = self.expect_item_name("entity")
        if a is None or self.expect("->") is None:
            return None
        b = self.expect_item_name("entity")
        return None if b is None else (a, b)

    def parse_symbol_image(self) -> Optional[tuple[str, RawImage]]:
        """`f -> image`."""
        f = self.expect_item_name("symbol")
        if f is None or self.expect("->") is None:
            return None
        img = self.parse_image()
        return None if img is None else (f, img)

    def parse_image(self) -> Optional[RawImage]:
        start = self.pos
        binder = self.parse_binder("lambda")
        if binder is None:
            return None
        body = self.parse_term()
        if body is None:
            return None
        return RawImage(body, (self, start, body._span[2]), *binder)

    def skip_section(self):
        while not self.at_boundary():
            self.next()

    # -- declarations ------------------------------------------------------

    def parse_program(self) -> Program:
        prog = Program()
        while self.pos != self.eof:
            t = self.texts[self.pos]
            if t in TOP_KEYWORDS:
                d = self.parse_decl() if t in DECL_KEYWORDS else self.parse_directive()
                if d is not None:
                    prog.decls.append(d)
                else:
                    self.sync_top()
            else:
                self.error(f"expected a declaration, found {t!r}")
                self.next()
                self.sync_top()
        return prog

    def parse_decl(self):
        kw = self.next()
        kind = self.texts[kw]
        name = self.expect_name(f"{kind} name")
        if name is None or self.expect("=") is None:
            return None
        head = self.pos
        op = self.texts[head]
        if op == "literal":
            self.next()
            refs = []
            for sep, what, _ in HEADERS[kind]:
                refs.append(None if self.expect(sep) is None else self.expect_name(what))
                if refs[-1] is None:
                    return None
            return self.parse_body(_LITERALS[kind](name, (self, kw, kw), *refs))
        if op in EXPR_KEYWORDS:
            self.next()
            nargs = 1 if op == "identity" else 2
            args = []
            for _ in range(nargs):
                a = self.expect_name("reference")
                if a is None:
                    return None
                args.append(a)
            if kind not in ("instance", "mapping"):
                self.error(f"{op} expression cannot define a {kind}", self.tokens_span(head, head))
                return None
            return DerivedDecl(kind, name, (self, kw, self.pos - 1), op, args)
        self.error(f"expected 'literal' or a derived expression, found {op!r}")
        return None

    def parse_body(self, decl):
        """`{ section items ... }`, each item appended to the section's field of `decl`.

        A bad item ends its section, which is skipped; so is an unknown one.
        """
        if self.expect("{") is None:
            return None
        sections = BODIES[decl.kind]
        while not self.at("}") and self.pos != self.eof:
            section = self.next()
            title = self.texts[section]
            kind = sections.get(title)
            if kind is None:
                if decl.kind == "typeside" and title in JAVA_SECTIONS:
                    self.diags.append(Diagnostic(
                        "error", "UnsupportedFeature",
                        f"{title}: external bindings unsupported; use builtin String/Int",
                        self.tokens_span(section, section)))
                else:
                    self.error(f"unknown {decl.kind} section {title!r}", self.tokens_span(section, section))
                self.skip_section()
                continue
            items = getattr(decl, title)
            if kind == NAMES:  # a run of names, which ends at anything else
                while self.at_name() and not self.at_boundary():
                    items.append(self.texts[self.next()])
                continue
            if kind == EQUATION:
                if not self.scan_equations(items):
                    self.skip_section()
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
        op = self.texts[kw]
        d = Directive(op, (self, kw, kw))
        if op == "match" and self.at("span"):
            self.next()
            d.span_match = True
        nargs = 2 if op == "match" else 1
        for _ in range(nargs):
            a = self.expect_name("reference")
            if a is None:
                return None
            d.args.append(a)
        while self.texts[self.pos] in ("cutoff", "depth") and self.pos not in self.strings:
            opt = self.next()
            option = self.texts[opt]
            if option != DIRECTIVE_OPTIONS.get(op):
                self.error(f"{op} takes no {option!r} option", self.tokens_span(opt, opt))
                return None
            val = self.texts[self.pos]
            try:
                # a number token may still be malformed, such as 1.2.3 or ²
                value = float(val) if option == "cutoff" else int(val)
            except ValueError:
                value = None
            if self.kind(self.pos) != NUMBER or value is None:
                self.error(f"expected a number after {option!r}")
                return None
            self.next()
            if option == "cutoff":
                d.cutoff = value
            else:
                d.depth = value
        return d


_LITERALS = {cls.kind: cls for cls in (TypesideDecl, SchemaDecl, InstanceDecl, MappingDecl)}

# the reader of one item of each kind but NAMES and EQUATION; None after a syntax error
_READERS = {
    NAME_GROUP: _Parser.parse_name_group,
    ARROW_GROUP: _Parser.parse_arrow_group,
    QUANTIFIED: functools.partial(_Parser.parse_equation, quantified=True),
    ENTITY_PAIR: _Parser.parse_entity_pair,
    SYMBOL_IMAGE: _Parser.parse_symbol_image,
}


def parse(text: str, filename: str = "<input>") -> tuple[Program, list[Diagnostic]]:
    """Parse a .catq program; always returns an AST plus diagnostics."""
    parser = _Parser(text, filename)
    return parser.parse_program(), parser.diags


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
            header = "".join(f"{sep} {getattr(d, field)} " for sep, _, field in HEADERS[d.kind])
            lines = [f"{d.kind} {d.name} = literal {header}{{"]
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
