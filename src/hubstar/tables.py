"""Physical table layouts derived from model definitions.

Column order is part of the contract: metadata first, then keys, then
descriptive payload, matching what the loaders emit and what a rebuilt
warehouse must reproduce byte for byte.
"""

from __future__ import annotations

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
from .storage import ForeignKeySpec, TableManifest


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
