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
    HubParticipant,
    ItemKeyRule,
    ItemParticipant,
    ModelSpec,
    StarDef,
    StarMapping,
    TimeParticipant,
    resolve_load_order,
)
from .storage import Record, Warehouse
from .tables import bronze_manifest, hub_manifest, item_key_type, star_manifest
from .values import (
    EPOCH,
    coerce_scalar,
    key_part,
    row_key,
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
    row: Record = {
        "load_source": SYSTEM_LOAD_SOURCE,
        "capture_timestamp": EPOCH,
        "load_timestamp": EPOCH,
        "initial_capture_timestamp": EPOCH,
    }
    if hub.has_delete_flag:
        row["delete_flag"] = 0
    row[hub.key_column] = DEFAULT_HUB_KEY
    for bk in hub.business_keys:
        row[bk.name] = type_neutral(bk.type)
    for desc in hub.descriptives:
        if desc.fk_hub is not None:
            row[desc.name] = DEFAULT_HUB_KEY
        elif desc.nullable:
            row[desc.name] = None
        else:
            row[desc.name] = type_neutral(desc.type)
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


def resolve_fk(warehouse: Warehouse | None, spec: ModelSpec, res: FkResolution,
               record: Record, load_source: int,
               item: dict | None = None, item_key=None) -> str:
    """Foreign-key column value: the referenced hub's key computed from
    source-side business-key expressions, or "-1" when any of them is null."""
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
    # System-generated keys cannot be recomputed; find the row by business key.
    if warehouse is None:
        raise LoadError(f"fk to {res.hub}: system-generated keys need warehouse access")
    silver = spec.schema_names["silver"]
    for row in warehouse.read_rows(silver, target.table_name):
        if all(values_equal(row.get(bk.name), bk_record[bk.name])
               for bk in target.business_keys):
            if target.bk_scope == "local" and row.get("load_source") != effective_source:
                continue
            return row[target.key_column]
    return DEFAULT_HUB_KEY


def evaluate_hub_mapping(warehouse: Warehouse | None, spec: ModelSpec, hub: HubDef,
                         mapping: HubMapping, bronze_row: Record) -> Record:
    """Business keys plus descriptives (FKs resolved) for one bronze row."""
    source = spec.source(mapping.source)
    load_source = source.load_source_id
    ctx = ex.EvalContext(record=bronze_row, load_source=load_source)
    payload: Record = {}
    for bk in hub.business_keys:
        value = ex.evaluate(mapping.column_exprs[bk.name], ctx)
        payload[bk.name] = _coerce_mapped(value, bk.type, bk.name)
    for desc in hub.descriptives:
        if desc.fk_hub is not None:
            payload[desc.name] = resolve_fk(warehouse, spec, mapping.fk_resolutions[desc.name],
                                            bronze_row, load_source)
        elif desc.name in mapping.column_exprs:
            value = ex.evaluate(mapping.column_exprs[desc.name], ctx)
            payload[desc.name] = _coerce_mapped(value, desc.type, desc.name)
        else:
            payload[desc.name] = None
    if hub.has_delete_flag:
        payload["delete_flag"] = bronze_row.get("delete_flag") or 0
    return payload


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


def _merge(warehouse: Warehouse, schema: str, table: str,
           existing: dict[object, Record], candidates: list[tuple[object, Record, Record]],
           compare_columns: list[str], load_source: int, now: datetime,
           new_row) -> tuple[int, int, int]:
    """Merge (key, bronze row, payload) candidates into a silver table and
    return the (inserted, updated, unchanged) counts.

    A key missing from `existing` inserts the load metadata plus
    `new_row(key, bronze row, payload)`, which runs only on insert, so system
    keys are minted for new rows alone. A present key is rewritten only when
    some compare column differs under null-safe equality.
    """
    inserted = updated = unchanged = 0
    writes: list[Record] = []
    for key, bronze_row, payload in candidates:
        target = existing.get(key)
        if target is None:
            row: Record = {
                "load_source": load_source,
                "capture_timestamp": bronze_row["capture_timestamp"],
                "load_timestamp": now,
            }
            row.update(new_row(key, bronze_row, payload))
            writes.append(row)
            inserted += 1
        elif any(not values_equal(target.get(c), payload[c]) for c in compare_columns):
            row = dict(target)
            for c in compare_columns:
                row[c] = payload[c]
            row["capture_timestamp"] = bronze_row["capture_timestamp"]
            row["load_timestamp"] = now
            writes.append(row)
            updated += 1
        else:
            unchanged += 1
    warehouse.upsert_rows(schema, table, writes)
    return inserted, updated, unchanged


def load_hub(warehouse: Warehouse, spec: ModelSpec, hub: HubDef,
             mapping: HubMapping, now: datetime) -> LoadResult:
    silver = spec.schema_names["silver"]
    load_source = spec.source(mapping.source).load_source_id
    hwm = warehouse.max_capture_timestamp(silver, hub.table_name)
    bronze_rows = _new_bronze_rows(warehouse, spec, mapping.source, hwm)
    staged = [(i, row, evaluate_hub_mapping(warehouse, spec, hub, mapping, row))
              for i, row in enumerate(bronze_rows)]

    # rn = 1 per business key: dedup terms, then latest capture, then the
    # earliest bronze row; the survivors go back into bronze order.
    survivors = top_per_partition(staged, lambda e: row_key(e[2], hub.business_key_names),
                                  mapping.dedup_order + (("capture_timestamp", "desc"),),
                                  fields=lambda e: e[1])
    survivors.sort(key=lambda e: e[0])

    existing = warehouse.read_rows(silver, hub.table_name)
    if hub.key_type == "computed":
        index = {row[hub.key_column]: row for row in existing}
    else:
        index = {row_key(row, hub.business_key_names): row for row in existing}

    candidates = []
    for _i, bronze_row, payload in survivors:
        for name in hub.business_key_names:
            if payload[name] is None:
                raise LoadError(f"{hub.table_name}: business key {name} is null "
                                f"in {mapping.source} row")
        if hub.key_type == "computed":
            key = compute_hub_key(hub.key_formula, payload, load_source)
        else:
            key = row_key(payload, hub.business_key_names)
        candidates.append((key, bronze_row, payload))

    def new_row(key, bronze_row: Record, payload: Record) -> Record:
        if hub.key_type != "computed":
            key = next_system_key(warehouse.counter_path(silver, hub.table_name))
        return {"initial_capture_timestamp": bronze_row["capture_timestamp"],
                hub.key_column: key, **payload}

    compare_columns = [d.name for d in hub.descriptives]
    if hub.has_delete_flag:
        compare_columns.append("delete_flag")
    inserted, updated, unchanged = _merge(warehouse, silver, hub.table_name, index, candidates,
                                          compare_columns, load_source, now, new_row)
    new_hwm = warehouse.max_capture_timestamp(silver, hub.table_name)
    return LoadResult(table=f"{silver}.{hub.table_name}", source=mapping.source,
                      scanned=len(bronze_rows), inserted=inserted, updated=updated,
                      unchanged_skipped=unchanged, new_hwm=new_hwm)


# -- stars ---------------------------------------------------------------------


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


def evaluate_star_mapping(warehouse: Warehouse | None, spec: ModelSpec, star: StarDef,
                          mapping: StarMapping, bronze_row: Record) -> list[Record]:
    """All star-row payloads one bronze row produces (several when exploding)."""
    source = spec.source(mapping.source)
    load_source = source.load_source_id
    rule = mapping_collection(star, mapping)
    if rule is not None:
        pairs = explode_collection(bronze_row, rule)
    else:
        pairs = [(None, None)]

    out: list[Record] = []
    for item, item_key in pairs:
        ctx = ex.EvalContext(record=bronze_row, load_source=load_source,
                             item=item, item_key=item_key)
        payload: Record = {}
        for p in star.participants:
            if isinstance(p, HubParticipant):
                payload[p.column] = resolve_fk(warehouse, spec, mapping.fk_resolutions[p.column],
                                               bronze_row, load_source, item, item_key)
            elif isinstance(p, TimeParticipant):
                value = ex.evaluate(mapping.column_exprs[p.column], ctx)
                payload[p.column] = _coerce_mapped(value, "timestamp", p.column)
            elif isinstance(p, ItemParticipant):
                payload[p.column] = _coerce_mapped(item_key, item_key_type(p.rule), p.column)
        for desc in star.descriptives:
            if desc.fk_hub is not None:
                payload[desc.name] = resolve_fk(warehouse, spec, mapping.fk_resolutions[desc.name],
                                                bronze_row, load_source, item, item_key)
            elif desc.name in mapping.column_exprs:
                value = ex.evaluate(mapping.column_exprs[desc.name], ctx)
                payload[desc.name] = _coerce_mapped(value, desc.type, desc.name)
            else:
                payload[desc.name] = None
        if star.has_delete_flag:
            payload["delete_flag"] = bronze_row.get("delete_flag") or 0
        out.append(payload)
    return out


def star_hwm(warehouse: Warehouse, spec: ModelSpec, star: StarDef) -> datetime:
    """Stars have no default rows: an empty star means load everything."""
    rows = warehouse.read_rows(spec.schema_names["silver"], star.table_name)
    return max((r["capture_timestamp"] for r in rows), default=EPOCH)


def load_star(warehouse: Warehouse, spec: ModelSpec, star: StarDef,
              mapping: StarMapping, now: datetime) -> LoadResult:
    silver = spec.schema_names["silver"]
    bronze_rows = _new_bronze_rows(warehouse, spec, mapping.source,
                                   star_hwm(warehouse, spec, star))
    staged = [(bronze_row, payload) for bronze_row in bronze_rows
              for payload in evaluate_star_mapping(warehouse, spec, star, mapping, bronze_row)]

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

    existing = {row_key(row, star.key_columns): row
                for row in warehouse.read_rows(silver, star.table_name)}
    compare_columns = [c for c in star.participant_columns if c not in star.key_columns]
    compare_columns += [d.name for d in star.descriptives]
    if star.has_delete_flag:
        compare_columns.append("delete_flag")
    inserted, updated, unchanged = _merge(
        warehouse, silver, star.table_name, existing,
        [(key, bronze_row, payload) for key, (bronze_row, payload) in latest.items()],
        compare_columns, spec.source(mapping.source).load_source_id, now,
        lambda _key, _bronze_row, payload: payload)
    new_hwm = star_hwm(warehouse, spec, star)
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
