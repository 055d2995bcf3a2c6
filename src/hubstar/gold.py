"""Gold materialization: SCD Type 1 and Type 2 dimensions and fact tables.

A view is a pure function of the model, the hubstar version and the tables
it reads, so each build records a verifying trace of those inputs beside
its table (Mokhov, Mitchell and Peyton Jones, "Build Systems a la Carte",
ICFP 2018). A build whose trace still holds reads no row and writes
nothing; any other build overwrites its target table from current silver
content, so `build-gold` doubles as refresh. Either way, building twice
over unchanged silver leaves the files byte-identical. Each build digests
and reads the tables it joins from their files; no build hands rows or
digests to another.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

from . import __version__
from .dsl import render_model
from .errors import GoldBuildError
from .model import ColumnRef, GoldViewDef, HubJoin, ModelSpec, ref_table, view_tables
from .storage import Record, Warehouse, digest, manifest_bytes
from .tables import check_stored_manifest, gold_manifest, silver_manifest
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


def _join(contexts: list[dict[str, Record]], name: str, rows: list[Record], column: str,
          probe: Resolved, inner: bool = False, keep=None) -> list[dict[str, Record]]:
    """Join `rows` into the contexts under `name` where their `column`
    equals the context's `probe` column, under one key normalisation; null
    keys never match. A context repeats once per matching row that
    `keep(ctx, row)` accepts (every one without `keep`), in row order. With
    no such row it keeps `name` empty, or is dropped when the join is inner."""
    index: dict[object, list[Record]] = {}
    for row in rows:
        if row.get(column) is not None:
            index.setdefault(key_part(row[column]), []).append(row)
    table, probe_column = probe
    joined = []
    for ctx in contexts:
        matches = index.get(key_part(ctx[table].get(probe_column)), ())
        if keep is not None:
            matches = [row for row in matches if keep(ctx, row)]
        if not matches:
            if inner:
                continue
            matches = (_NO_ROW,)
        for match in matches:
            fanned = dict(ctx)
            fanned[name] = match
            joined.append(fanned)
    return joined


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


def _model_parts(spec: ModelSpec) -> tuple[bytes, bytes]:
    """The parts of every view's input digest that the model and hubstar
    give: the canonical model text and the hubstar version."""
    return render_model(spec).encode("utf-8"), __version__.encode("utf-8")


def build_view(warehouse: Warehouse, spec: ModelSpec, view: GoldViewDef,
               now: datetime, model: tuple[bytes, bytes]) -> GoldBuildResult:
    """One pipeline for every kind: base rows, joins, versions, the temporal
    join, then projection; each step runs when the view declares it, and
    each join is one `_join`. Every column reference is resolved to its
    (table, column) before a row is read, and each context holds a row,
    empty when none matched, for every table, so a step reads a column as
    `ctx[table].get(column)`.

    `build_all` has checked every table it reads. The view's inputs are
    digested: `model`, the canonical model text and the hubstar version
    (`_model_parts`, which `build_all` computes once for all its views),
    the manifest it writes and the `table_digest` of each table it reads.
    When the table's trace records that digest and still matches the
    table's files, the build returns the recorded row count without
    reading a row; otherwise it reads each of those tables once, builds,
    writes the table, then the trace, whose output digest comes from the
    write."""
    tables = view_tables(spec, view)

    def resolve(ref: ColumnRef) -> Resolved:
        table = ref_table(tables, ref)
        if table is None:
            raise GoldBuildError(f"{view.name}: no table exposes column {str(ref)!r}")
        return table, ref.column

    outputs = [(out.name, *(resolve(out.ref) if out.ref else (None, None)))
               for out in view.outputs]
    scd2_key = [resolve(part) for part in view.scd2_key]
    base = spec.element(view.base_kind, view.base)
    base_key = resolve(ColumnRef(view.base, base.key_column)) if view.base_kind == "hub" else None
    joins = [(join, resolve(ColumnRef(None, join.on_column)) if isinstance(join, HubJoin)
              else base_key) for join in view.joins + (view.versions,) if join is not None]
    if any(probe is None for _, probe in joins):
        raise GoldBuildError(f"{view.name}: join_current requires a hub base")
    temporal = view.temporal
    if temporal is not None:
        key_ref, (time_table, time_column) = resolve(temporal.key_ref), resolve(temporal.time_ref)

    read = {name: (spec.schema_names["gold"], spec.view(name).table_name) if kind == "gold"
            else (spec.schema_names["silver"], spec.element(kind, name).table_name)
            for kind, name, _left in view.read_tables}
    manifest = gold_manifest(spec, view)
    inputs = digest([*model, manifest_bytes(manifest),
                     *(warehouse.table_digest(*key).encode("ascii") for key in read.values())])
    traced = warehouse.traced_rows(manifest, inputs)
    if traced is not None:
        return GoldBuildResult(view.name, traced, now)

    def read_rows(name: str) -> list[Record]:
        return warehouse.read_rows(*read[name])

    empty = dict.fromkeys(tables, _NO_ROW)
    contexts = [{**empty, view.base: row} for row in read_rows(view.base)]
    for join, probe in joins:
        if isinstance(join, HubJoin):
            contexts = _join(contexts, join.hub, read_rows(join.hub),
                             spec.hub(join.hub).key_column, probe, inner=join.how == "inner")
        else:  # the current rows of a star, left joined to the hub base
            rows = current_rows(read_rows(join.star), join.partition_by, join.order_by)
            contexts = _join(contexts, join.star, rows, join.on_column, probe)
    if temporal is not None:
        dim = spec.view(temporal.dim)

        def valid_at(ctx: dict[str, Record], version: Record) -> bool:
            """The fact's time lies in the version's [valid_from, valid_to]:
            a null valid_to is open-ended; a null time or valid_from never
            matches."""
            at = ctx[time_table].get(time_column)
            return (at is not None and version.get("valid_from") is not None
                    and version["valid_from"] <= at
                    and (version.get("valid_to") is None or at <= version["valid_to"]))

        contexts = _join(contexts, dim.name, read_rows(dim.name),
                         spec.hub(dim.base).key_column, key_ref, keep=valid_at)
    rows = _project(outputs, scd2_key, contexts)
    warehouse.write_trace(manifest, inputs, len(rows), warehouse.replace_table(manifest, rows))
    return GoldBuildResult(view.name, len(rows), now)


def build_all(warehouse: Warehouse, spec: ModelSpec, now: datetime,
              only: str | None = None) -> list[GoldBuildResult]:
    """Build every view, dimensions before the facts that reference them,
    or only the view named `only`. Every table the views read is checked
    once, before the first build, so a refused build writes nothing: a
    silver table must exist and its stored manifest must be the model's
    (`check_stored_manifest`), and a gold dimension must come earlier in
    this call's order or already exist."""
    ordered = [v for v in spec.gold_views if v.kind != "fact"]
    ordered += [v for v in spec.gold_views if v.kind == "fact"]
    if only is not None:
        ordered = [v for v in ordered if v.name == only]
        if not ordered:
            raise GoldBuildError(f"no gold view named {only!r}")
    silver = dict.fromkeys((kind, name) for view in ordered
                           for kind, name, _left in view.read_tables if kind != "gold")
    for kind, name in silver:
        manifest = silver_manifest(spec, spec.element(kind, name))
        if not check_stored_manifest(warehouse, manifest):
            raise GoldBuildError(f"silver table {manifest.schema}.{manifest.table} is missing; "
                                 "run init and load-silver first")
    built = set()
    for view in ordered:
        for kind, name, _left in view.read_tables:
            if kind == "gold" and name not in built and not warehouse.table_exists(
                    spec.schema_names["gold"], spec.view(name).table_name):
                raise GoldBuildError(f"{view.name}: referenced dimension {name} "
                                     "is not built yet")
        built.add(view.name)
    model = _model_parts(spec)
    return [build_view(warehouse, spec, view, now, model=model) for view in ordered]
