"""Gold materialization: SCD Type 1 and Type 2 dimensions and fact tables.

Every build overwrites its target table from current silver content, so
`build-gold` doubles as refresh; building twice over unchanged silver
leaves the files byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

from .errors import GoldBuildError
from .model import (ColumnRef, GoldViewDef, HubJoin, ModelSpec, StarJoin, TemporalJoin, ref_table,
                    view_tables)
from .storage import Record, Warehouse
from .tables import gold_manifest
from .values import key_part, row_key, top_per_partition, value_to_string

SCD2_DELIMITER = "#"

Resolved = tuple[str, str]  # the (table, column) a column reference reads

# A joined table's row where no row matched; never mutated.
_NO_ROW: Record = {}


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


def _fan_out(contexts: list[dict[str, Record]], name: str, matches_of,
             inner: bool = False) -> list[dict[str, Record]]:
    """Join one table into the contexts under `name`: a context repeats once
    per row of `matches_of(ctx)`, in that order. With no match (None or
    empty) it keeps `name` empty, or is dropped when the join is inner."""
    joined = []
    for ctx in contexts:
        matches = matches_of(ctx)
        if not matches:
            if inner:
                continue
            matches = (_NO_ROW,)
        for match in matches:
            fanned = dict(ctx)
            fanned[name] = match
            joined.append(fanned)
    return joined


def _join_hub(warehouse: Warehouse, spec: ModelSpec, view: GoldViewDef, join: HubJoin,
              on: Resolved, contexts: list[dict[str, Record]]) -> list[dict[str, Record]]:
    """Join a hub's rows whose key equals the `on` column."""
    hub = spec.hub(join.hub)
    index = _index(_silver_rows(warehouse, spec, hub.table_name), hub.key_column)
    table, column = on
    return _fan_out(contexts, join.hub, lambda ctx: index.get(key_part(ctx[table].get(column))),
                    inner=join.how == "inner")


def _join_current(warehouse: Warehouse, spec: ModelSpec, view: GoldViewDef, join: StarJoin,
                  base_key: Resolved | None,
                  contexts: list[dict[str, Record]]) -> list[dict[str, Record]]:
    """Left join the current rows of a star to a hub base."""
    if base_key is None:
        raise GoldBuildError(f"{view.name}: join_current requires a hub base")
    star = spec.star(join.star)
    rows = current_rows(_silver_rows(warehouse, spec, star.table_name),
                        join.partition_by, join.order_by)
    index = _index(rows, join.on_column)
    table, column = base_key
    return _fan_out(contexts, join.star, lambda ctx: index.get(key_part(ctx[table].get(column))))


def _temporal_join(warehouse: Warehouse, spec: ModelSpec, view: GoldViewDef,
                   temporal: TemporalJoin, key_and_time: tuple[Resolved, Resolved],
                   contexts: list[dict[str, Record]]) -> list[dict[str, Record]]:
    """Left join an scd2 dimension: the rows of the fact's hub key whose
    [valid_from, valid_to] interval holds the fact's time, in dimension order.
    A null valid_to is open-ended; a null valid_from never matches."""
    dim = spec.view(temporal.dim)
    gold_schema = spec.schema_names["gold"]
    if not warehouse.table_exists(gold_schema, dim.table_name):
        raise GoldBuildError(f"{view.name}: referenced dimension {dim.name} "
                             "is not built yet")
    index = _index(warehouse.read_rows(gold_schema, dim.table_name),
                   spec.hub(dim.base).key_column)
    (key_table, key_column), (time_table, time_column) = key_and_time

    def matches(ctx):
        versions = index.get(key_part(ctx[key_table].get(key_column)))
        at = ctx[time_table].get(time_column)
        if versions is None or at is None:
            return None
        return [row for row in versions
                if row.get("valid_from") is not None and row["valid_from"] <= at
                and (row.get("valid_to") is None or at <= row["valid_to"])]

    return _fan_out(contexts, dim.name, matches)


def _project(outputs: list[tuple[str, str | None, str | None]], scd2_key: list[Resolved],
             contexts: list[dict[str, Record]]) -> list[Record]:
    """One row per context: each (output, table, column) reads its column,
    and an output with no table is the scd2 key, its non-null parts joined."""
    out = []
    for ctx in contexts:
        row: Record = {}
        for name, table, column in outputs:
            if table is None:
                parts = (ctx[t].get(c) for t, c in scd2_key)
                row[name] = SCD2_DELIMITER.join(
                    value_to_string(part) for part in parts if part is not None)
            else:
                row[name] = ctx[table].get(column)
        out.append(row)
    return out


def build_view(warehouse: Warehouse, spec: ModelSpec, view: GoldViewDef,
               now: datetime) -> GoldBuildResult:
    """One pipeline for every kind: base rows, joins, versions, the temporal
    join, then projection; each step runs when the view declares it. Every
    column reference is resolved to its (table, column) before a row is read,
    and each context holds a row, empty when none matched, for every table,
    so a step reads a column as `ctx[table].get(column)`."""
    tables = view_tables(spec, view)

    def resolve(ref: ColumnRef) -> Resolved:
        table = ref_table(tables, ref)
        if table is None:
            raise GoldBuildError(f"{view.name}: no table exposes column {str(ref)!r}")
        return table, ref.column

    outputs = [(out.name, *(resolve(out.ref) if out.ref else (None, None)))
               for out in view.outputs]
    scd2_key = [resolve(part) for part in view.scd2_key]
    base = spec.hub(view.base) if view.base_kind == "hub" else spec.star(view.base)
    base_key = resolve(ColumnRef(view.base, base.key_column)) if view.base_kind == "hub" else None
    steps = [(_join_hub, join, resolve(ColumnRef(None, join.on_column)))
             if isinstance(join, HubJoin) else (_join_current, join, base_key)
             for join in view.joins]
    if view.versions is not None:
        steps.append((_join_current, view.versions, base_key))
    if view.temporal is not None:
        steps.append((_temporal_join, view.temporal,
                      (resolve(view.temporal.key_ref), resolve(view.temporal.time_ref))))

    empty = dict.fromkeys(tables, _NO_ROW)
    contexts = [{**empty, view.base: row}
                for row in _silver_rows(warehouse, spec, base.table_name)]
    for join_rows, join, key in steps:
        contexts = join_rows(warehouse, spec, view, join, key, contexts)
    rows = _project(outputs, scd2_key, contexts)
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
