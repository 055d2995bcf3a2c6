"""Silver loads: default rows, incremental hub merges, and star loading.

The merge semantics: select bronze rows above the table's capture high-water
mark, rank candidate versions per business key, then insert new keys and
update changed descriptives under null-safe comparison — unchanged
re-deliveries touch nothing, which keeps repeated loads byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from decimal import Decimal

from . import expr as ex
from .errors import LoadError
from .keygen import compute_hub_key, next_system_key, sha256_hex
from .model import (
    DEFAULT_HUB_KEY,
    SYSTEM_LOAD_SOURCE,
    FkResolution,
    HubDef,
    HubMapping,
    ItemKeyRule,
    ModelSpec,
    StarDef,
    StarMapping,
    resolve_load_order,
)
from .storage import Record, Warehouse, high_water_mark
from .tables import bronze_manifest, hub_manifest, star_manifest
from .values import (
    EPOCH,
    coerce_scalar,
    key_part,
    row_key,
    show_key,
    top_per_partition,
    value_to_string,
    values_equal,
)


@dataclass(frozen=True)
class LoadResult:
    table: str
    source: str
    scanned: int
    inserted: int
    updated: int
    unchanged_skipped: int
    new_hwm: datetime


def type_neutral(ctype: str):
    """Definition-2 stand-in for a value that must not be null."""
    if ctype == "string":
        return "null"
    if ctype == "integer":
        return -1
    if ctype == "decimal":
        return Decimal(-1)
    if ctype == "boolean":
        return False
    return EPOCH  # timestamp


def default_row(spec: ModelSpec, hub: HubDef) -> Record:
    """The hub's `-1` row: the system load source, live, its own key and
    every reference column `-1`, other columns null or, where they may not
    be, a type-neutral stand-in (the epoch for load metadata)."""
    row: Record = {}
    for name, ctype, nullable in hub.columns:
        if name == hub.key_column or name in hub.references:
            row[name] = DEFAULT_HUB_KEY
        elif name == "load_source":
            row[name] = SYSTEM_LOAD_SOURCE
        elif name == "delete_flag":
            row[name] = 0
        else:
            row[name] = None if nullable else type_neutral(ctype)
    return row


def init_hub(warehouse: Warehouse, spec: ModelSpec, hub: HubDef):
    """Seed the hub with its default row; refuses to run twice."""
    silver = spec.schema_names["silver"]
    for row in warehouse.read_rows(silver, hub.table_name):
        if row.get(hub.key_column) == DEFAULT_HUB_KEY:
            raise LoadError(f"{hub.table_name}: default row already present")
    warehouse.append_rows(silver, hub.table_name, [default_row(spec, hub)])


def init_warehouse(warehouse: Warehouse, spec: ModelSpec) -> list[str]:
    """Create every bronze and silver table and seed hub default rows.

    Returns the qualified names of the tables created.
    """
    created = []
    for source in spec.sources:
        manifest = bronze_manifest(spec, source)
        if not warehouse.table_exists(manifest.schema, manifest.table):
            warehouse.create_table(manifest)
            created.append(f"{manifest.schema}.{manifest.table}")
    for hub in spec.hubs:
        manifest = hub_manifest(spec, hub)
        warehouse.create_table(manifest)
        init_hub(warehouse, spec, hub)
        created.append(f"{manifest.schema}.{manifest.table}")
    for star in spec.stars:
        manifest = star_manifest(spec, star)
        warehouse.create_table(manifest)
        created.append(f"{manifest.schema}.{manifest.table}")
    return created


# -- mapping evaluation (shared with the conformance oracle) -------------------


def hub_key_lookup(warehouse: Warehouse | None, spec: ModelSpec):
    """`find(hub, business keys, load source)` -> the key of the first row,
    in file order, of a system-generated-key hub with those business keys
    (and that load source, for a `local` hub), or "-1". Such keys cannot be
    recomputed, so each hub is read once, on its first lookup."""
    indexes: dict[str, dict[tuple, str]] = {}

    def find(target: HubDef, bk_record: Record, load_source: int) -> str:
        local = target.bk_scope == "local"
        index = indexes.get(target.name)
        if index is None:
            if warehouse is None:
                raise LoadError(f"fk to {target.name}: system-generated keys need warehouse access")
            index = indexes[target.name] = {}
            for row in warehouse.read_rows(spec.schema_names["silver"], target.table_name):
                scope = row.get("load_source") if local else None
                index.setdefault((scope, *row_key(row, target.business_key_names)),
                                 row[target.key_column])
        scope = load_source if local else None
        return index.get((scope, *row_key(bk_record, target.business_key_names)),
                         DEFAULT_HUB_KEY)
    return find


def resolve_fk(find_key, spec: ModelSpec, res: FkResolution, record: Record,
               load_source: int, item: dict | None = None, item_key=None) -> str:
    """Foreign-key column value: the referenced hub's key computed from
    source-side business-key expressions, or "-1" when any of them is null.
    A system-generated key is looked up with `find_key` (`hub_key_lookup`)."""
    target = spec.hub(res.hub)
    ctx = ex.EvalContext(record=record, load_source=load_source,
                         item=item, item_key=item_key)
    values = [ex.evaluate(arg, ctx) for arg in res.args]
    if any(v is None for v in values):
        return DEFAULT_HUB_KEY
    bk_record = {}
    for bk, value in zip(target.business_keys, values):
        try:
            bk_record[bk.name] = coerce_scalar(value, bk.type)
        except ValueError as exc:
            raise LoadError(f"fk to {res.hub}: {exc}") from exc
    effective_source = res.source_override if res.source_override is not None else load_source
    if target.key_type == "computed":
        return compute_hub_key(target.key_formula, bk_record, effective_source)
    return find_key(target, bk_record, effective_source)


def mapping_collection(star: StarDef, mapping: StarMapping) -> ItemKeyRule | None:
    """The item rule with the mapping's collection column filled in."""
    item = star.item_participant
    if item is None or mapping.explode_column is None:
        return None
    rule = item.rule
    return ItemKeyRule(rule.mode, mapping.explode_column, rule.sequence_field,
                       rule.attributes, rule.hashed)


def explode_collection(parent: Record, rule: ItemKeyRule) -> list[tuple[dict, object]]:
    """(item, item key) pairs for one parent row; empty array yields nothing."""
    items = parent.get(rule.collection_column) or []
    out: list[tuple[dict, object]] = []
    if rule.mode == "positional":
        for i, item in enumerate(items):
            out.append((item, i + 1))
        return out
    if rule.mode == "explicit_sequence":
        seen = set()
        for item in items:
            seq = item.get(rule.sequence_field)
            if seq is None:
                raise LoadError(f"item sequence field {rule.sequence_field} is null")
            if seq in seen:
                raise LoadError(f"duplicate item sequence {seq!r} within one parent")
            seen.add(seq)
            out.append((item, seq))
        return out
    for item in items:  # concat_of_attributes
        parts = [value_to_string(item[a]) for a in rule.attributes if item.get(a) is not None]
        key = "#".join(parts)
        if rule.hashed:
            key = sha256_hex(key)
        out.append((item, key))
    return out


def evaluate_mapping(find_key, spec: ModelSpec, element: HubDef | StarDef,
                     mapping: HubMapping | StarMapping, bronze_row: Record) -> list[Record]:
    """The payloads one bronze row yields: one for a hub, one per exploded
    item for a star. A payload holds every mapped column, plus the delete
    flag when the element has one. A reference column holds the key the
    mapping resolves, or `-1` when it resolves none; the item column holds
    the item key; any other column its `map` expression, or null. `find_key`
    (`hub_key_lookup`) finds references into system-generated-key hubs."""
    load_source = spec.source(mapping.source).load_source_id
    rule = mapping_collection(element, mapping) if isinstance(element, StarDef) else None
    pairs = explode_collection(bronze_row, rule) if rule is not None else [(None, None)]
    item_column = element.item_participant.column if rule is not None else None
    references, exprs = element.references, mapping.column_exprs
    out: list[Record] = []
    for item, item_key in pairs:
        ctx = ex.EvalContext(bronze_row, load_source, item, item_key)
        payload: Record = {}
        for name, ctype, _nullable in element.mapped_columns:
            if name in references:
                res = mapping.fk_resolutions.get(name)
                payload[name] = DEFAULT_HUB_KEY if res is None else resolve_fk(
                    find_key, spec, res, bronze_row, load_source, item, item_key)
            elif name == item_column:
                payload[name] = _coerce_mapped(item_key, ctype, name)
            elif name in exprs:
                payload[name] = _coerce_mapped(ex.evaluate(exprs[name], ctx), ctype, name)
            else:
                payload[name] = None
        if element.has_delete_flag:
            payload["delete_flag"] = bronze_row.get("delete_flag") or 0
        out.append(payload)
    return out


def _coerce_mapped(value, ctype: str, column: str):
    if value is None:
        return None
    try:
        return coerce_scalar(value, ctype)
    except ValueError as exc:
        raise LoadError(f"column {column}: {exc}") from exc


def _new_bronze_rows(warehouse: Warehouse, spec: ModelSpec, source: str,
                     hwm: datetime) -> list[Record]:
    """Bronze rows of one source captured strictly above the high-water mark."""
    bronze = spec.schema_names["bronze"]
    if not warehouse.table_exists(bronze, source):
        return []
    return [r for r in warehouse.read_rows(bronze, source) if r["capture_timestamp"] > hwm]


def _merge(warehouse: Warehouse, schema: str, table: str, rows: list[Record],
           key_columns: tuple[str, ...], candidates: list[tuple[tuple, Record, Record]],
           identity: tuple[str, ...], load_source: int, now: datetime, hwm: datetime,
           new_row) -> tuple[int, int, int, datetime]:
    """Merge (key, bronze row, payload) candidates into `rows`, the silver
    table as read, in file order, and return the (inserted, updated,
    unchanged) counts and the new high-water mark: the latest of `hwm` and
    the capture times written.

    A candidate matches the row whose `key_columns` give its key. With no
    match it inserts the load metadata plus `new_row(key, bronze row,
    payload)`, which runs only on insert, so system keys are minted for new
    rows alone; the row goes on the end. A match is rewritten in place only
    when some payload column outside `identity` (the columns the key comes
    from) differs under null-safe equality. Two writes to one key fail the
    load before anything is written; otherwise a load that writes replaces
    the table once, and one that does not leaves it alone.
    """
    index = {row_key(row, key_columns): i for i, row in enumerate(rows)}
    inserted = updated = unchanged = 0
    writes: dict[tuple, Record] = {}
    for key, bronze_row, payload in candidates:
        position = index.get(key)
        changes = {c: v for c, v in payload.items() if c not in identity}
        if position is None:
            row: Record = {
                "load_source": load_source,
                "capture_timestamp": bronze_row["capture_timestamp"],
                "load_timestamp": now,
            }
            row.update(new_row(key, bronze_row, payload))
            inserted += 1
        elif any(not values_equal(rows[position].get(c), v) for c, v in changes.items()):
            row = {**rows[position], **changes}
            row["capture_timestamp"] = bronze_row["capture_timestamp"]
            row["load_timestamp"] = now
            updated += 1
        else:
            unchanged += 1
            continue
        if key in writes:
            raise LoadError(f"duplicate primary key within one batch for "
                            f"{schema}.{table}: {show_key(key)}")
        writes[key] = row
    for key, row in writes.items():
        position = index.get(key)
        if position is None:
            rows.append(row)
        else:
            rows[position] = row
    if writes:
        warehouse.replace_table(warehouse.manifest(schema, table), rows)
    return inserted, updated, unchanged, high_water_mark(writes.values(), f"{schema}.{table}", hwm)


def load_hub(warehouse: Warehouse, spec: ModelSpec, hub: HubDef,
             mapping: HubMapping, now: datetime) -> LoadResult:
    silver = spec.schema_names["silver"]
    load_source = spec.source(mapping.source).load_source_id
    rows = warehouse.read_rows(silver, hub.table_name)
    hwm = high_water_mark(rows, f"{silver}.{hub.table_name}")
    bronze_rows = _new_bronze_rows(warehouse, spec, mapping.source, hwm)
    find_key = hub_key_lookup(warehouse, spec)
    staged = [(i, row, payload) for i, row in enumerate(bronze_rows)
              for payload in evaluate_mapping(find_key, spec, hub, mapping, row)]

    # rn = 1 per business key: dedup terms, then latest capture, then the
    # earliest bronze row; the survivors go back into bronze order.
    survivors = top_per_partition(staged, lambda e: row_key(e[2], hub.business_key_names),
                                  mapping.dedup_order + (("capture_timestamp", "desc"),),
                                  fields=lambda e: e[1])
    survivors.sort(key=lambda e: e[0])

    computed = hub.key_type == "computed"
    candidates = []
    for _i, bronze_row, payload in survivors:
        for name in hub.business_key_names:
            if payload[name] is None:
                raise LoadError(f"{hub.table_name}: business key {name} is null "
                                f"in {mapping.source} row")
        if computed:
            key = (compute_hub_key(hub.key_formula, payload, load_source),)
        else:
            key = row_key(payload, hub.business_key_names)
        candidates.append((key, bronze_row, payload))

    def new_row(key, bronze_row: Record, payload: Record) -> Record:
        key = key[0] if computed else next_system_key(warehouse.counter_path(silver, hub.table_name))
        return {"initial_capture_timestamp": bronze_row["capture_timestamp"],
                hub.key_column: key, **payload}

    inserted, updated, unchanged, new_hwm = _merge(
        warehouse, silver, hub.table_name, rows,
        (hub.key_column,) if computed else hub.business_key_names, candidates,
        hub.business_key_names, load_source, now, hwm, new_row)
    return LoadResult(table=f"{silver}.{hub.table_name}", source=mapping.source,
                      scanned=len(bronze_rows), inserted=inserted, updated=updated,
                      unchanged_skipped=unchanged, new_hwm=new_hwm)


# -- stars ---------------------------------------------------------------------


def load_star(warehouse: Warehouse, spec: ModelSpec, star: StarDef,
              mapping: StarMapping, now: datetime) -> LoadResult:
    silver = spec.schema_names["silver"]
    rows = warehouse.read_rows(silver, star.table_name)
    # Stars have no default rows: an empty star means load everything.
    hwm = high_water_mark(rows, f"{silver}.{star.table_name}", EPOCH)
    bronze_rows = _new_bronze_rows(warehouse, spec, mapping.source, hwm)
    find_key = hub_key_lookup(warehouse, spec)
    staged = [(bronze_row, payload) for bronze_row in bronze_rows
              for payload in evaluate_mapping(find_key, spec, star, mapping, bronze_row)]

    def composite_key(bronze_row: Record, payload: Record) -> tuple:
        parts = []
        for name in star.key_columns:
            value = bronze_row["capture_timestamp"] if name == "capture_timestamp" \
                else payload.get(name)
            if value is None:
                raise LoadError(f"{star.table_name}: composite key column {name} is null")
            parts.append(key_part(value))
        return tuple(parts)

    # In-batch duplicates of a full composite key: last by bronze order wins.
    latest: dict[tuple, tuple[Record, Record]] = {}
    for bronze_row, payload in staged:
        latest[composite_key(bronze_row, payload)] = (bronze_row, payload)

    inserted, updated, unchanged, new_hwm = _merge(
        warehouse, silver, star.table_name, rows, star.key_columns,
        [(key, bronze_row, payload) for key, (bronze_row, payload) in latest.items()],
        star.key_columns, spec.source(mapping.source).load_source_id, now, hwm,
        lambda _key, _bronze_row, payload: payload)
    return LoadResult(table=f"{silver}.{star.table_name}", source=mapping.source,
                      scanned=len(staged), inserted=inserted, updated=updated,
                      unchanged_skipped=unchanged, new_hwm=new_hwm)


def load_all(warehouse: Warehouse, spec: ModelSpec, now: datetime,
             only: str | None = None) -> list[LoadResult]:
    """Load every hub and star in dependency order (or one, by model or
    table name)."""
    results = []
    for name in resolve_load_order(spec):
        hub = spec.hub(name)
        star = spec.star(name)
        element = hub if hub is not None else star
        if only is not None and only not in (name, element.table_name):
            continue
        if hub is not None:
            for mapping in hub.source_mappings:
                results.append(load_hub(warehouse, spec, hub, mapping, now))
        else:
            for mapping in star.source_mappings:
                results.append(load_star(warehouse, spec, star, mapping, now))
    return results
