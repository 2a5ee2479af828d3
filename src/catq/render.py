"""Table renderers for term models, plus display helpers for mappings.

A model renders as one table per entity: an ID column of canonical
labels, then one column per attribute and foreign key in declaration
order.  Labeled nulls render as their canonical terms, e.g. "age(1)".
Tables are read column by column, each column's labels in one call, and
rows are put together from those lists.
"""

from __future__ import annotations

try:  # the C encoder, imported from its extension module so that no catq process loads `json`
    from _json import encode_basestring_ascii as _json_string
except ImportError:  # an interpreter built without `_json`: the pure-Python encoder
    from json.encoder import encode_basestring_ascii as _json_string

from .mappings import Mapping, render_open_term
from .model import TermModel
from .schema import Schema
from .terms import FunctionSymbol, Sort


def _columns(schema: Schema, entity: Sort) -> list[FunctionSymbol]:
    """Attributes, then foreign keys, each in declaration order (`symbols_on` lists foreign keys first)."""
    on = schema.symbols_on(entity)
    return [f for f in on if not f.out_sort.is_entity] + [f for f in on if f.out_sort.is_entity]


def _table(m: TermModel, entity: Sort) -> tuple[list[str], list[list[str]]]:
    """An entity's header, then its labels column by column: IDs, then each attribute and foreign key."""
    cols = _columns(m.schema, entity)
    return (["ID"] + [f.name for f in cols],
            [m.labels(m.carrier(entity))] + [m.labels(m.column_classes(f)) for f in cols])


def render_model(m: TermModel, fmt: str = "markdown") -> str:
    if fmt == "markdown":
        return _render_markdown(m)
    if fmt == "csv":
        return _render_csv(m)
    if fmt == "json":
        return _render_json(m)
    raise ValueError(f"unknown format {fmt!r}; expected markdown, csv or json")


def _markdown_cells(labels: list[str]) -> list[str]:
    """Labels as table cells: a `|` would end its cell, so it is escaped."""
    if "|" not in "".join(labels):
        return labels
    return [s.replace("|", "\\|") for s in labels]


def _render_markdown(m: TermModel) -> str:
    blocks = []
    for e in m.schema.entities:
        header, columns = _table(m, e)
        lines = [f"## {e.name}",
                 "| " + " | ".join(header) + " |",
                 "|" + "|".join("---" for _ in header) + "|"]
        rows = list(map(" | ".join, zip(*map(_markdown_cells, columns))))
        if rows:
            lines.append("| " + " |\n| ".join(rows) + " |")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _csv_cells(labels: list[str]) -> list[str]:
    """Labels as CSV fields: one holding a comma, a quote or a line end is quoted."""
    joined = "".join(labels)
    if "," not in joined and '"' not in joined and "\n" not in joined:
        return labels
    return ['"' + s.replace('"', '""') + '"' if any(ch in s for ch in ',"\n') else s for s in labels]


def _render_csv(m: TermModel) -> str:
    blocks = []
    for e in m.schema.entities:
        header, columns = _table(m, e)
        lines = [f"# {e.name}", ",".join(header)]
        lines += map(",".join, zip(*map(_csv_cells, columns)))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _render_json(m: TermModel) -> str:
    """The bytes of `json.dumps(obj, indent=2)` on {"schema": ..., "entities": {entity: [row, ...]}}.

    A row is {"id": ..., column: label, ...}, so a column named like an
    earlier key takes that key's place, as a dict update would.  `indent`
    sends `json.dumps` to its pure-Python encoder; here each row is one
    `%` of a per-entity template over strings from the C string encoder.
    """
    entities = []
    for e in m.schema.entities:
        header, columns = _table(m, e)
        place = {name: j for j, name in enumerate(["id"] + header[1:])}  # a later column wins
        template = "      {\n" + ",\n".join(
            f"        {_json_string(name).replace('%', '%%')}: %s" for name in place) + "\n      }"
        rows = list(map(template.__mod__,
                        zip(*(map(_json_string, columns[j]) for j in place.values()))))
        entities.append(f"    {_json_string(e.name)}: "
                        + ("[\n" + ",\n".join(rows) + "\n    ]" if rows else "[]"))
    body = "{\n" + ",\n".join(entities) + "\n  }" if entities else "{}"
    return f'{{\n  "schema": {_json_string(m.schema.name)},\n  "entities": {body}\n}}\n'


def render_mapping(f_map: Mapping) -> str:
    lines = [f"mapping {f_map.name} : {f_map.source.name} -> {f_map.target.name}"]
    for e, t in f_map.entity_map.items():
        lines.append(f"  entity {e.name} -> {t.name}")
    for f, img in f_map.symbol_map.items():
        lines.append(f"  {f.name} -> {render_open_term(img)}")
    return "\n".join(lines) + "\n"
