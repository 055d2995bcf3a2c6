"""Gold materialization: SCD Type 1 and Type 2 dimensions and fact tables.

Every build overwrites its target table from current silver content, so
`build-gold` doubles as refresh; building twice over unchanged silver
leaves the files byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

from .errors import GoldBuildError
from .model import GoldViewDef, HubJoin, ModelSpec, StarJoin
from .storage import Record, Warehouse
from .tables import gold_manifest, ref_table, view_tables
from .values import key_part, row_key, top_per_partition, value_to_string

SCD2_DELIMITER = "#"


@dataclass(frozen=True)
class GoldBuildResult:
    view_name: str
    rows: int
    built_at: datetime


def current_rows(rows: list[Record], partition: tuple[str, ...],
                 order: tuple[tuple[str, str], ...]) -> list[Record]:
    """Rank, then filter: the top row per partition, dropped entirely when
    that top row is flagged deleted — a deleted latest version removes the
    partition rather than exposing an older one."""
    return [row for row in top_per_partition(rows, lambda row: row_key(row, partition), order)
            if not row.get("delete_flag")]


class _ViewContext:
    """Resolves column references across the tables a view reads."""

    def __init__(self, spec: ModelSpec, view: GoldViewDef):
        self.view = view
        self.tables = view_tables(spec, view)

    def resolve(self, ctx: dict[str, Record | None], ref) -> object:
        name = ref_table(self.tables, ref)
        if name is None:
            raise GoldBuildError(f"{self.view.name}: no table exposes column {ref.column!r}")
        row = ctx.get(name)
        return None if row is None else row.get(ref.column)


def _silver_rows(warehouse: Warehouse, spec: ModelSpec, table: str) -> list[Record]:
    silver = spec.schema_names["silver"]
    if not warehouse.table_exists(silver, table):
        raise GoldBuildError(f"silver table {silver}.{table} is missing; "
                             "run init and load-silver first")
    return warehouse.read_rows(silver, table)


def _index(rows: list[Record], column: str) -> dict[object, list[Record]]:
    """Rows by the key part of one column, in row order; null keys never match."""
    index: dict[object, list[Record]] = {}
    for row in rows:
        if row.get(column) is not None:
            index.setdefault(key_part(row[column]), []).append(row)
    return index


def _fan_out(contexts: list[dict[str, Record | None]], name: str, matches_of,
             inner: bool = False) -> list[dict[str, Record | None]]:
    """Join one table into the contexts under `name`: a context repeats once
    per row of `matches_of(ctx)`, in that order. With no match (None or
    empty) it keeps a null `name`, or is dropped when the join is inner."""
    joined = []
    for ctx in contexts:
        matches = matches_of(ctx)
        if not matches:
            if inner:
                continue
            matches = (None,)
        for match in matches:
            fanned = dict(ctx)
            fanned[name] = match
            joined.append(fanned)
    return joined


def _first_value(ctx: dict[str, Record | None], column: str):
    for row in ctx.values():
        if row is not None and column in row:
            return row[column]
    return None


def _apply_joins(warehouse: Warehouse, spec: ModelSpec, view: GoldViewDef,
                 contexts: list[dict[str, Record | None]]) -> list[dict[str, Record | None]]:
    for join in view.joins:
        if isinstance(join, HubJoin):
            hub = spec.hub(join.hub)
            index = _index(_silver_rows(warehouse, spec, hub.table_name), hub.key_column)
            contexts = _fan_out(
                contexts, join.hub,
                lambda ctx: index.get(key_part(_first_value(ctx, join.on_column))),
                inner=join.how == "inner")
        else:
            contexts = _join_current(warehouse, spec, view, join, contexts)
    return contexts


def _join_current(warehouse: Warehouse, spec: ModelSpec, view: GoldViewDef,
                  join: StarJoin,
                  contexts: list[dict[str, Record | None]]) -> list[dict[str, Record | None]]:
    """Left join the current rows of a star to a hub base."""
    if view.base_kind != "hub":
        raise GoldBuildError(f"{view.name}: join_current requires a hub base")
    star = spec.star(join.star)
    rows = current_rows(_silver_rows(warehouse, spec, star.table_name),
                        join.partition_by, join.order_by)
    index = _index(rows, join.on_column)
    base_key = spec.hub(view.base).key_column
    return _fan_out(contexts, join.star,
                    lambda ctx: index.get(key_part(_first_value(ctx, base_key))))


def _temporal_join(warehouse: Warehouse, spec: ModelSpec, view: GoldViewDef,
                   vc: _ViewContext, contexts):
    """Left join an scd2 dimension: the rows of the fact's hub key whose
    [valid_from, valid_to] interval holds the fact's time, in dimension order.
    A null valid_to is open-ended; a null valid_from never matches."""
    temporal = view.temporal
    dim = spec.view(temporal.dim)
    gold_schema = spec.schema_names["gold"]
    if not warehouse.table_exists(gold_schema, dim.table_name):
        raise GoldBuildError(f"{view.name}: referenced dimension {dim.name} "
                             "is not built yet")
    index = _index(warehouse.read_rows(gold_schema, dim.table_name),
                   spec.hub(dim.base).key_column)

    def matches(ctx):
        versions = index.get(key_part(vc.resolve(ctx, temporal.key_ref)))
        at = vc.resolve(ctx, temporal.time_ref)
        if versions is None or at is None:
            return None
        return [row for row in versions
                if row.get("valid_from") is not None and row["valid_from"] <= at
                and (row.get("valid_to") is None or at <= row["valid_to"])]

    return _fan_out(contexts, dim.name, matches)


def _project(vc: _ViewContext, view: GoldViewDef,
             contexts: list[dict[str, Record | None]]) -> list[Record]:
    out = []
    for ctx in contexts:
        row: Record = {}
        for output in view.outputs:
            if output.ref is None:
                parts = []
                for component in view.scd2_key:
                    value = vc.resolve(ctx, component)
                    if value is not None:
                        parts.append(value_to_string(value))
                row[output.name] = SCD2_DELIMITER.join(parts)
            else:
                row[output.name] = vc.resolve(ctx, output.ref)
        out.append(row)
    return out


def build_view(warehouse: Warehouse, spec: ModelSpec, view: GoldViewDef,
               now: datetime) -> GoldBuildResult:
    """One pipeline for every kind: base rows, joins, versions, the temporal
    join, then projection; each step runs when the view declares it."""
    vc = _ViewContext(spec, view)
    base = spec.hub(view.base) if view.base_kind == "hub" else spec.star(view.base)
    contexts: list[dict[str, Record | None]] = [
        {view.base: row} for row in _silver_rows(warehouse, spec, base.table_name)]
    contexts = _apply_joins(warehouse, spec, view, contexts)
    if view.versions is not None:
        contexts = _join_current(warehouse, spec, view, view.versions, contexts)
    if view.temporal is not None:
        contexts = _temporal_join(warehouse, spec, view, vc, contexts)
    rows = _project(vc, view, contexts)
    warehouse.replace_table(gold_manifest(spec, view), rows)
    return GoldBuildResult(view.name, len(rows), now)


def build_all(warehouse: Warehouse, spec: ModelSpec, now: datetime,
              only: str | None = None) -> list[GoldBuildResult]:
    """Build every view, dimensions before the facts that reference them."""
    ordered = [v for v in spec.gold_views if v.kind != "fact"]
    ordered += [v for v in spec.gold_views if v.kind == "fact"]
    results = []
    for view in ordered:
        if only is not None and view.name != only:
            continue
        results.append(build_view(warehouse, spec, view, now))
    return results
