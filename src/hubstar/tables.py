"""Physical table layouts derived from model definitions.

Column order is part of the contract: metadata first, then keys, then
descriptive payload, matching what the loaders emit and what a rebuilt
warehouse must reproduce byte for byte.
"""

from __future__ import annotations

from .errors import StorageError
from .model import (
    BRONZE_METADATA,
    ColumnSpec,
    GoldViewDef,
    HubDef,
    ModelSpec,
    SourceDef,
    StarDef,
    metadata_columns,
    output_types,
    view_tables,
)
from .storage import ForeignKeySpec, TableManifest, Warehouse


def bronze_manifest(spec: ModelSpec, source: SourceDef) -> TableManifest:
    columns = metadata_columns(BRONZE_METADATA, source.delete_flag_column is not None)
    return TableManifest(schema=spec.schema_names["bronze"], table=source.name,
                         columns=columns + source.columns)


def _silver_manifest(spec: ModelSpec, element: HubDef | StarDef, primary_key: tuple[str, ...],
                     unique: tuple[tuple[str, ...], ...] = ()) -> TableManifest:
    """The element's own column layout plus a foreign key for each of its
    reference columns."""
    silver = spec.schema_names["silver"]
    foreign_keys = []
    for column, hub_name in element.references.items():
        target = spec.hub(hub_name)
        foreign_keys.append(ForeignKeySpec(
            (column,), silver, target.table_name, (target.key_column,)))
    return TableManifest(
        schema=silver,
        table=element.table_name,
        columns=element.columns,
        primary_key=primary_key,
        unique=unique,
        foreign_keys=tuple(foreign_keys),
    )


def hub_manifest(spec: ModelSpec, hub: HubDef) -> TableManifest:
    return _silver_manifest(spec, hub, (hub.key_column,), (hub.business_identity,))


def star_manifest(spec: ModelSpec, star: StarDef) -> TableManifest:
    return _silver_manifest(spec, star, tuple(star.key_columns))


def gold_manifest(spec: ModelSpec, view: GoldViewDef) -> TableManifest:
    """The view's outputs, in order; `gold.build_view` refuses a view with an
    output that does not resolve before it asks for this."""
    types = output_types(view, view_tables(spec, view))
    return TableManifest(schema=spec.schema_names["gold"], table=view.table_name,
                         columns=tuple(ColumnSpec(out.name, *types[out.name])
                                       for out in view.outputs))


def _show(column: ColumnSpec | None) -> str:
    if column is None:
        return "absent"
    fields = f"({', '.join(f'{n} {t}' for n, t in column.fields)})" if column.fields else ""
    return f"{column.type}{fields}{'' if column.nullable else ' not null'}"


def check_stored_manifest(warehouse: Warehouse, manifest: TableManifest) -> bool:
    """Whether the table exists. When it does, its stored manifest must be
    the model's `manifest`: a table written under another layout would lose
    or misread columns, so a difference raises StorageError naming the table
    and the first column, in model order, that differs (or else what does)."""
    try:
        stored = warehouse.manifest(manifest.schema, manifest.table)
    except StorageError:  # no such table
        return False
    if stored == manifest:
        return True
    where = f"{manifest.schema}.{manifest.table}: the stored manifest differs from the model's"
    modelled = {column.name: column for column in manifest.columns}
    kept = {column.name: column for column in stored.columns}
    for name in {**modelled, **kept}:
        if modelled.get(name) != kept.get(name):
            raise StorageError(f"{where}: column {name} is {_show(modelled.get(name))} "
                               f"in the model, {_show(kept.get(name))} in storage")
    for part, label in (("columns", "column order"), ("primary_key", "primary key"),
                        ("unique", "unique sets"), ("foreign_keys", "foreign keys")):
        if getattr(stored, part) != getattr(manifest, part):
            raise StorageError(f"{where} in its {label}")
    raise StorageError(where)
