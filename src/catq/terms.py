"""Sorts, function symbols, terms, equations and substitution.

Terms are immutable and hashable.  Sorts, symbols and applications
compute their hash once, at construction, so hashing a symbol or a term
of any depth takes constant time; `replace` (or `copy.replace`) on a
sort or a symbol constructs anew and so hashes anew.  Equality is
decided at once on identity or on unequal hashes, and compares fields
only otherwise; equality of applications walks an explicit stack.
All schema-level symbols are unary (attributes, foreign keys) or 0-ary
(generators, literals, typeside constants), so most code in this
package only ever builds chains of unary applications over constants.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Mapping, Optional, Union

from .errors import ReadOnlyError, SortMismatch, UnboundVariable

TYPE = "type"
ENTITY = "entity"

# symbol flavors
LITERAL = "literal"
GENERATOR = "generator"
ATTRIBUTE = "attribute"
FOREIGN_KEY = "foreign_key"
TYPESIDE = "typeside"


class ReadOnly:
    """A value whose attributes its constructor sets once, with `object.__setattr__`.

    The plain classes of this package that are values share this guard:
    assigning or deleting an attribute raises `ReadOnlyError`, an
    `AttributeError`.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise ReadOnlyError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise ReadOnlyError(f"cannot delete field {name!r}")

    def __reduce__(self):
        """Copy and pickle by the constructor, from its parameters (`_fields`, else the slots), hash included."""
        return type(self), tuple(getattr(self, n) for n in getattr(self, "_fields", self.__slots__))


class Record:
    """Equality, hash, repr and `__replace__` over the fields a class names in `_fields`.

    `_fields` names the constructor's parameters in order, each stored
    under its own name.  Two records are equal when they are of one class
    and their fields are equal; the hash is that of the tuple of fields.
    `__replace__` is the protocol of `copy.replace` (Python 3.13), and
    `replace` below calls it on any Python.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)  # a plain callable on the class: call it with the record
        # the tuple of fields; `attrgetter` of one name gives the bare value, so a lone field is wrapped
        cls._values = get if len(cls._fields) > 1 else staticmethod(lambda record: (get(record),))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __replace__(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values(self)), **changes))


def replace(obj, /, **changes):
    """A copy of obj built by its constructor, with the named fields changed: `copy.replace` before Python 3.13."""
    func = getattr(type(obj), "__replace__", None)
    if func is None:
        raise TypeError(f"replace() does not support {type(obj).__name__} objects")
    return func(obj, **changes)


class Sort(ReadOnly, Record):
    _fields = ("name", "kind")

    def __init__(self, name: str, kind: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", kind)  # TYPE or ENTITY
        object.__setattr__(self, "_hash", hash((name, kind)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Sort):
            return NotImplemented
        return self._hash == other._hash and self.name == other.name and self.kind == other.kind

    @property
    def is_entity(self) -> bool:
        return self.kind == ENTITY

    def __repr__(self) -> str:
        return f"Sort({self.name!r}, {self.kind})"


class FunctionSymbol(ReadOnly, Record):
    _fields = ("name", "arg_sorts", "out_sort", "flavor")

    def __init__(self, name: str, arg_sorts: tuple[Sort, ...], out_sort: Sort, flavor: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arg_sorts", arg_sorts)
        object.__setattr__(self, "out_sort", out_sort)
        object.__setattr__(self, "flavor", flavor)
        object.__setattr__(self, "_hash", hash((name, arg_sorts, out_sort, flavor)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FunctionSymbol):
            return NotImplemented
        return self._hash == other._hash and self.name == other.name and \
            self.arg_sorts == other.arg_sorts and self.out_sort == other.out_sort and \
            self.flavor == other.flavor

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)

    def __repr__(self) -> str:
        args = ",".join(s.name for s in self.arg_sorts)
        return f"{self.name}:{args}->{self.out_sort.name}"


class Var(ReadOnly, Record):
    _fields = ("name", "sort")

    def __init__(self, name: str, sort: Sort):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "sort", sort)

    def __repr__(self) -> str:
        return f"?{self.name}:{self.sort.name}"


class App(ReadOnly):
    __slots__ = ("sym", "args", "_hash")
    _fields = ("sym", "args")

    def __init__(self, sym: FunctionSymbol, args: tuple["Term", ...] = ()):
        object.__setattr__(self, "sym", sym)
        object.__setattr__(self, "args", args)
        self.__post_init__()

    def __post_init__(self):
        """Check the arguments' sorts and hash; every construction calls it once."""
        if len(self.args) != self.sym.arity:
            raise SortMismatch(f"{self.sym.name} expects {self.sym.arity} args, got {len(self.args)}")
        for a, s in zip(self.args, self.sym.arg_sorts):
            if term_sort(a) != s:
                raise SortMismatch(f"argument of {self.sym.name} has sort {term_sort(a).name}, expected {s.name}")
        object.__setattr__(self, "_hash", hash((self.sym, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        """Structural equality from an explicit stack; unequal hashes decide at once."""
        if not isinstance(other, App):
            return NotImplemented
        stack: list[tuple[Term, Term]] = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if not (isinstance(a, App) and isinstance(b, App)):
                if a != b:
                    return False
            elif a._hash != b._hash or a.sym != b.sym:
                return False
            else:
                stack.extend(zip(a.args, b.args))
        return True

    @property
    def sort(self) -> Sort:
        return self.sym.out_sort

    def __repr__(self) -> str:
        return render_term(self)


Term = Union[Var, App]


def term_sort(t: Term) -> Sort:
    return t.sort


def free_vars(t: Term) -> list[Var]:
    """Variables of t in left-to-right occurrence order, deduplicated."""
    out: list[Var] = []
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            if u not in out:
                out.append(u)
        else:
            stack.extend(reversed(u.args))
    return out


def is_ground(t: Term) -> bool:
    return not free_vars(t)


def substitute(t: Term, binding: Mapping[str, Term]) -> Term:
    """Replace every variable of t by its binding.

    Every free variable must be bound, and each binding must match the
    variable's sort.  Every symbol is unary or 0-ary, so a term is a
    chain: walk down it to the leaf, replace the leaf if it is a
    variable, then rebuild the chain on the way back up.
    """
    root = t
    syms: list[FunctionSymbol] = []
    while isinstance(t, App) and t.args:
        syms.append(t.sym)
        t = t.args[0]
    if not isinstance(t, Var):
        return root  # closed
    if t.name not in binding:
        raise UnboundVariable(f"variable {t.name} has no binding")
    out = binding[t.name]
    if term_sort(out) != t.sort:
        raise SortMismatch(
            f"binding for {t.name} has sort {term_sort(out).name}, expected {t.sort.name}")
    for sym in reversed(syms):
        out = App(sym, (out,))
    return out


def term_chain(t: Term) -> tuple:
    """The chain of t: its leaf (a 0-ary symbol or a variable), then its unary symbols, innermost first."""
    chain = []
    while isinstance(t, App) and t.args:
        chain.append(t.sym)
        t = t.args[0]
    chain.append(t if isinstance(t, Var) else t.sym)
    chain.reverse()
    return tuple(chain)


def open_chain(t: Term) -> tuple:
    """The chain of t without its variable, if any: then it starts with a unary symbol, or is empty."""
    chain = term_chain(t)
    return chain[1:] if isinstance(chain[0], Var) else chain


def fold_chain(chain) -> Term:
    """The term a chain spells, folded left.

    A variable or a 0-ary symbol starts a term, and a unary symbol applies
    to the term so far; `term_chain` is its inverse.
    """
    t = None
    for x in chain:
        if isinstance(x, Var):
            t = x
        else:
            t = App(x, (t,)) if x.arg_sorts else App(x)
    return t


def render_tree(root, split) -> str:
    """`head(kid, ...)`, or `head` for a leaf, where split(node) = (head, kids); no recursion."""
    out: list[str] = []
    stack = [root]
    while stack:
        n = stack.pop()
        head, kids = (n, ()) if isinstance(n, str) else split(n)  # a str is punctuation
        out.append(f"{head}(" if kids else head)
        if kids:
            stack.append(")")
            for i, kid in enumerate(reversed(kids)):
                stack += (", ", kid) if i else (kid,)
    return "".join(out)


def render_term(t: Term) -> str:
    return render_tree(t, lambda u: (u.name, ()) if isinstance(u, Var) else (u.sym.name, u.args))


def subterms(t: Term) -> Iterable[Term]:
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from subterms(a)


class Equation(ReadOnly, Record):
    """lhs = rhs with at most one universally quantified variable."""

    _fields = ("free", "lhs", "rhs")

    def __init__(self, free: tuple[Var, ...], lhs: Term, rhs: Term):
        if term_sort(lhs) != term_sort(rhs):
            raise SortMismatch(
                f"equation sides have different sorts: {render_term(lhs)} = {render_term(rhs)}")
        declared = set(free)
        for side in (lhs, rhs):
            for v in free_vars(side):
                if v not in declared:
                    raise UnboundVariable(f"variable {v.name} not quantified in equation")
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    @property
    def is_ground(self) -> bool:
        return not self.free

    def __repr__(self) -> str:
        q = ""
        if self.free:
            q = "forall " + ", ".join(f"{v.name}:{v.sort.name}" for v in self.free) + ". "
        return f"{q}{render_term(self.lhs)} = {render_term(self.rhs)}"


def ground_eq(lhs: Term, rhs: Term) -> Equation:
    return Equation((), lhs, rhs)


# ---------------------------------------------------------------------------
# Built-in literal types

STRING = Sort("String", TYPE)
INT = Sort("Int", TYPE)


def literal_symbol(value, sort: Sort) -> FunctionSymbol:
    """The 0-ary symbol of a literal; an Int literal is named by its canonical decimal."""
    return FunctionSymbol(str(int(value)) if sort == INT else str(value), (), sort, LITERAL)


def int_literal(value: int) -> App:
    return App(literal_symbol(value, INT))


def string_literal(value: str) -> App:
    return App(literal_symbol(value, STRING))


def literal(value, sort: Sort) -> App:
    return App(literal_symbol(value, sort))


def parse_int_literal(text: str) -> Optional[int]:
    """Optionally-signed decimal integer, else None."""
    s = text[1:] if text[:1] == "-" else text
    if s.isdecimal():  # the digits `int` reads, in any script; `isdigit` also takes `²`
        return int(text)
    return None
