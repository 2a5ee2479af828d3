"""Table renderers for term models, plus display helpers for mappings.

A model renders as one table per entity: an ID column of canonical
labels, then one column per attribute and foreign key in declaration
order.  Labeled nulls render as their canonical terms, e.g. "age(1)".
"""

from __future__ import annotations

import json

from .mappings import Mapping, render_open_term
from .model import TermModel
from .schema import Schema
from .terms import FunctionSymbol, Sort


def _columns(schema: Schema, entity: Sort) -> list[FunctionSymbol]:
    atts = [f for f in schema.attributes if f.arg_sorts == (entity,)]
    fks = [f for f in schema.foreign_keys if f.arg_sorts == (entity,)]
    return atts + fks


def _rows(m: TermModel, entity: Sort) -> list[list[str]]:
    cols = [m.column(f).values() for f in _columns(m.schema, entity)]
    label = m.label
    return [[label(c), *map(label, cells)] for c, *cells in zip(m.carrier(entity), *cols)]


def render_model(m: TermModel, fmt: str = "markdown") -> str:
    if fmt == "markdown":
        return _render_markdown(m)
    if fmt == "csv":
        return _render_csv(m)
    if fmt == "json":
        return _render_json(m)
    raise ValueError(f"unknown format {fmt!r}; expected markdown, csv or json")


def _render_markdown(m: TermModel) -> str:
    blocks = []
    for e in m.schema.entities:
        header = ["ID"] + [f.name for f in _columns(m.schema, e)]
        lines = [f"## {e.name}",
                 "| " + " | ".join(header) + " |",
                 "|" + "|".join("---" for _ in header) + "|"]
        for row in _rows(m, e):
            lines.append("| " + " | ".join(row) + " |")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _csv_cell(s: str) -> str:
    if any(ch in s for ch in ',"\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def _render_csv(m: TermModel) -> str:
    blocks = []
    for e in m.schema.entities:
        header = ["ID"] + [f.name for f in _columns(m.schema, e)]
        lines = [f"# {e.name}", ",".join(header)]
        for row in _rows(m, e):
            lines.append(",".join(_csv_cell(c) for c in row))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _render_json(m: TermModel) -> str:
    entities = {}
    for e in m.schema.entities:
        cols = _columns(m.schema, e)
        rows = []
        for row in _rows(m, e):
            cells = {"id": row[0]}
            cells.update({f.name: v for f, v in zip(cols, row[1:])})
            rows.append(cells)
        entities[e.name] = rows
    return json.dumps({"schema": m.schema.name, "entities": entities},
                      indent=2, sort_keys=False) + "\n"


def render_mapping(f_map: Mapping) -> str:
    lines = [f"mapping {f_map.name} : {f_map.source.name} -> {f_map.target.name}"]
    for e, t in f_map.entity_map.items():
        lines.append(f"  entity {e.name} -> {t.name}")
    for f, img in f_map.symbol_map.items():
        lines.append(f"  {f.name} -> {render_open_term(img)}")
    return "\n".join(lines) + "\n"
