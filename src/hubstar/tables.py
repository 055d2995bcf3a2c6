"""Physical table layouts derived from model definitions.

Column order is part of the contract: metadata first, then keys, then
descriptive payload, matching what the loaders emit and what a rebuilt
warehouse must reproduce byte for byte.
"""

from __future__ import annotations

from .errors import HubStarError
from .model import (
    CollectionColumn,
    ColumnRef,
    GoldViewDef,
    HubDef,
    ModelSpec,
    SourceDef,
    StarDef,
)
from .storage import ColumnSpec, ForeignKeySpec, TableManifest


def bronze_manifest(spec: ModelSpec, source: SourceDef) -> TableManifest:
    columns = [
        ColumnSpec("capture_timestamp", "timestamp", nullable=False),
        ColumnSpec("load_timestamp", "timestamp", nullable=False),
        ColumnSpec("extract_path", "string", nullable=False),
    ]
    if source.delete_flag_column is not None:
        columns.append(ColumnSpec("delete_flag", "integer", nullable=False))
    for col in source.columns:
        if isinstance(col, CollectionColumn):
            columns.append(ColumnSpec(col.name, "collection",
                                      fields=tuple((f.name, f.type) for f in col.fields)))
        else:
            columns.append(ColumnSpec(col.name, col.type))
    return TableManifest(schema=spec.schema_names["bronze"], table=source.name,
                         columns=tuple(columns))


def _silver_manifest(spec: ModelSpec, element: HubDef | StarDef,
                     references: list[tuple[str, str]], primary_key: tuple[str, ...],
                     unique: tuple[tuple[str, ...], ...] = ()) -> TableManifest:
    """The element's own column layout plus a foreign key for each
    (column, referenced hub) pair."""
    silver = spec.schema_names["silver"]
    foreign_keys = []
    for column, hub_name in references:
        target = spec.hub(hub_name)
        foreign_keys.append(ForeignKeySpec(
            (column,), silver, target.table_name, (target.key_column,)))
    return TableManifest(
        schema=silver,
        table=element.table_name,
        columns=tuple(ColumnSpec(name, ctype, nullable=nullable)
                      for name, ctype, nullable in element.columns),
        primary_key=primary_key,
        unique=unique,
        foreign_keys=tuple(foreign_keys),
    )


def _descriptive_references(element: HubDef | StarDef) -> list[tuple[str, str]]:
    return [(d.name, d.fk_hub) for d in element.descriptives if d.fk_hub is not None]


def hub_manifest(spec: ModelSpec, hub: HubDef) -> TableManifest:
    bk_unique = hub.business_key_names
    if hub.bk_scope == "local":
        bk_unique = ("load_source",) + bk_unique
    return _silver_manifest(spec, hub, _descriptive_references(hub),
                            (hub.key_column,), (bk_unique,))


def star_manifest(spec: ModelSpec, star: StarDef) -> TableManifest:
    references = [(p.column, p.hub) for p in star.hub_participants]
    return _silver_manifest(spec, star, references + _descriptive_references(star),
                            tuple(star.key_columns))


ColumnTypes = dict[str, tuple[str, bool]]  # column -> (type, nullable)


def view_tables(spec: ModelSpec, view: GoldViewDef) -> dict[str, ColumnTypes]:
    """Column types of every table the view reads, in `read_tables` order.
    A left-joined table has every column nullable; the base and inner hub
    joins keep their declared nullability."""
    tables: dict[str, ColumnTypes] = {}
    for kind, name, left in view.read_tables:
        if kind == "gold":
            columns = [(c.name, c.type, c.nullable)
                       for c in gold_manifest(spec, spec.view(name)).columns]
        else:
            columns = (spec.hub(name) if kind == "hub" else spec.star(name)).columns
        tables[name] = {column: (ctype, nullable or left)
                        for column, ctype, nullable in columns}
    return tables


def ref_table(tables: dict[str, ColumnTypes], ref: ColumnRef) -> str | None:
    """The table a column reference reads: the one it names, or else the
    first table in view order that has the column."""
    if ref.table is not None:
        return ref.table
    return next((name for name, types in tables.items() if ref.column in types), None)


def gold_manifest(spec: ModelSpec, view: GoldViewDef) -> TableManifest:
    tables = view_tables(spec, view)
    columns = []
    for out in view.outputs:
        if out.ref is None:
            ctype, nullable = "string", False  # the concatenated scd2 key
        else:
            types = tables.get(ref_table(tables, out.ref), {})
            if out.ref.column not in types:
                raise HubStarError(f"view {view.name}: cannot resolve output {out.name!r}")
            ctype, nullable = types[out.ref.column]
        if view.kind == "scd2_dim" and out.name == "valid_to":
            nullable = True  # the open current version
        columns.append(ColumnSpec(out.name, ctype, nullable=nullable))
    return TableManifest(schema=spec.schema_names["gold"], table=view.table_name,
                         columns=tuple(columns))
