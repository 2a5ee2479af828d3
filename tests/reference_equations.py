"""The tree path that reading equations as scanned chains replaced, kept as a test reference.

Every `lhs = rhs` item is read by `_Parser.parse_equation` into `RawTerm`
trees, and every side is resolved by walking its tree down to the leaf
and back up, as `catq.elaborate` did before it read scanned sides from
their tokens. `test_equation_scan.py` checks that the scanning parser and
elaborator give the same printed program, node spans, diagnostics and
chains.
"""

from typing import Optional

from catq.elaborate import _Elaborator
from catq.model import DEFAULT_LIMITS
from catq.parser import RawEquation, RawTerm, _Parser
from catq.schema import Schema
from catq.terms import INT, STRING, FunctionSymbol, Sort, Var, parse_int_literal


class TreeParser(_Parser):
    """Reads each item of an `equations` section with `parse_equation`."""

    def scan_equations(self, items: list) -> bool:
        while not self.at_boundary():
            item = self.parse_equation()
            if item is None:
                return False
            items.append(item)
        return True


def parse(text: str, filename: str = "<input>"):
    parser = TreeParser(text, filename)
    return parser.parse_program(), parser.diags


class TreeElaborator(_Elaborator):
    """Resolves every equation side by walking its tree."""

    def resolve_chain(self, raw: RawTerm, schema: Schema,
                      gens: dict[str, FunctionSymbol],
                      bound: dict[str, Sort],
                      expected: Optional[Sort],
                      leaves=None) -> Optional[tuple[list, Sort]]:
        above: list[tuple[RawTerm, FunctionSymbol]] = []
        while raw.args:
            sym = schema.symbol_named(raw.name)
            if sym is None:
                self.error("UnknownSymbol", f"unknown symbol {raw.name}", raw.span)
                return None
            if len(raw.args) != 1:
                self.error("SortMismatch", f"{raw.name} takes one argument", raw.span)
                return None
            above.append((raw, sym))
            expected = sym.arg_sorts[0]
            raw = raw.args[0]
        leaf = self.tree_leaf(raw, schema, gens, bound, expected)
        if leaf is None:
            return None
        chain: list = [leaf]
        sort = leaf.sort if isinstance(leaf, Var) else leaf.out_sort
        for raw, sym in reversed(above):
            if sort != sym.arg_sorts[0]:
                self.error("SortMismatch",
                           f"argument of {raw.name} has sort {sort.name}, "
                           f"expected {sym.arg_sorts[0].name}", raw.span)
                return None
            chain.append(sym)
            sort = sym.out_sort
        return chain, sort

    def tree_leaf(self, raw: RawTerm, schema: Schema,
                  gens: dict[str, FunctionSymbol],
                  bound: dict[str, Sort],
                  expected: Optional[Sort]) -> Var | FunctionSymbol | None:
        name = raw.name
        if not raw.quoted:
            if name in bound:
                return Var(name, bound[name])
            g = gens.get(name)
            if g is not None:
                return g
            const = schema.typeside.constant_named(name)
            if const is not None:
                return const
        if expected is not None and not expected.is_entity and schema.typeside.has_type(expected):
            if expected == INT:
                if parse_int_literal(name) is None:
                    self.error("SortMismatch", f"{name!r} is not an Int literal", raw.span)
                    return None
                return self.literal(name, INT)
            if expected == STRING:
                return self.literal(name, STRING)
        if not raw.quoted and parse_int_literal(name) is not None and schema.typeside.has_type(INT):
            return self.literal(name, INT)
        if raw.quoted and schema.typeside.has_type(STRING):
            return self.literal(name, STRING)
        self.error("NameResolution", f"cannot resolve {name!r}"
                   + (f" at sort {expected.name}" if expected else ""), raw.span)
        return None

    def resolve_sides(self, raw: RawEquation, schema: Schema,
                      gens: dict[str, FunctionSymbol],
                      bound: dict[str, Sort],
                      leaves=None) -> Optional[tuple[tuple, tuple]]:
        lhs = self.resolve_chain(raw.lhs, schema, gens, bound, None)
        if lhs is None:
            return None
        rhs = self.resolve_chain(raw.rhs, schema, gens, bound, lhs[1])
        if rhs is None:
            return None
        if lhs[1] != rhs[1]:
            self.error("SortMismatch",
                       f"equation sides have sorts {lhs[1].name} and {rhs[1].name}", raw.span)
            return None
        return tuple(lhs[0]), tuple(rhs[0])


def elaborate(prog, limits=DEFAULT_LIMITS):
    elab = TreeElaborator(limits)
    return elab.run(prog), elab.diags
