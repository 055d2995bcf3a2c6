"""Silver loads: default rows, incremental hub merges, and star loading.

The merge semantics: select bronze rows above the table's capture high-water
mark, keep the top-ranked candidate version per business key (hubs) or
composite key (stars), match it to a stored row by the element's identity,
then insert new rows and update changed columns under null-safe comparison —
unchanged re-deliveries touch nothing, which keeps repeated loads
byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from decimal import Decimal
from itertools import count

from . import expr as ex
from .errors import LoadError
from .keygen import compute_hub_key, sha256_hex
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


def hub_key_lookup(warehouse: Warehouse, spec: ModelSpec):
    """`find(hub, business keys, load source)` -> the key of the first
    member, in file order, of a system-generated-key hub whose identity those
    values give, or "-1". Such keys cannot be recomputed, so each hub is read
    once, on its first lookup."""
    indexes: dict[str, dict[tuple, str]] = {}

    def find(target: HubDef, bk_record: Record, load_source: int) -> str:
        index = indexes.get(target.name)
        if index is None:
            index = indexes[target.name] = {}
            rows = warehouse.read_rows(spec.schema_names["silver"], target.table_name)
            for _position, row in _members(target, rows):
                index.setdefault(row_key(row, target.identity), row[target.key_column])
        return index.get(row_key({**bk_record, "load_source": load_source}, target.identity),
                         DEFAULT_HUB_KEY)
    return find


def resolve_fk(find_key, spec: ModelSpec, res: FkResolution, ctx: ex.EvalContext) -> str:
    """Foreign-key column value: the referenced hub's key computed from
    source-side business-key expressions in `ctx`, or "-1" when any of them
    is null. A system-generated key is looked up with `find_key` (`hub_key_lookup`)."""
    target = spec.hub(res.hub)
    values = [ex.evaluate(arg, ctx) for arg in res.args]
    if any(v is None for v in values):
        return DEFAULT_HUB_KEY
    bk_record = {}
    for bk, value in zip(target.business_keys, values):
        try:
            bk_record[bk.name] = coerce_scalar(value, bk.type)
        except ValueError as exc:
            raise LoadError(f"fk to {res.hub}: {exc}") from exc
    effective_source = res.source_override if res.source_override is not None else ctx.load_source
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
                    find_key, spec, res, ctx)
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


def _stage(warehouse: Warehouse, spec: ModelSpec, element: HubDef | StarDef,
           mapping: HubMapping | StarMapping, hwm: datetime,
           nonnull: tuple[str, ...], what: str) -> tuple[int, list[tuple[int, Record, Record]]]:
    """The number of bronze rows of the mapping's source captured strictly
    above the high-water mark, and their staged entries in bronze order:
    (position, bronze row, candidate), one per payload, where the candidate
    is the payload plus its load source and capture time. A null in any
    `nonnull` column of a candidate fails the load, naming it as `what`."""
    bronze = spec.schema_names["bronze"]
    if not warehouse.table_exists(bronze, mapping.source):
        return 0, []
    bronze_rows = warehouse.read_rows(bronze, mapping.source, captured_after=hwm)
    find_key = hub_key_lookup(warehouse, spec)
    load_source = spec.source(mapping.source).load_source_id
    staged = []
    for bronze_row in bronze_rows:
        for payload in evaluate_mapping(find_key, spec, element, mapping, bronze_row):
            candidate = {"load_source": load_source,
                         "capture_timestamp": bronze_row["capture_timestamp"], **payload}
            for name in nonnull:
                if candidate[name] is None:
                    raise LoadError(f"{element.table_name}: {what} {name} is null "
                                    f"in {mapping.source} row")
            staged.append((len(staged), bronze_row, candidate))
    return len(bronze_rows), staged


def _top(staged: list[tuple[int, Record, Record]], partition: tuple[str, ...],
         order: tuple[tuple[str, str], ...]) -> list[Record]:
    """The candidate ranked first per value of its `partition` columns, by
    `order` on the bronze row, in staged order. Ties go to the entry that
    comes first in `staged`."""
    survivors = top_per_partition(staged, lambda e: row_key(e[2], partition), order,
                                  fields=lambda e: e[1])
    return [candidate for _n, _bronze_row, candidate in sorted(survivors, key=lambda e: e[0])]


_LATEST_CAPTURE = (("capture_timestamp", "desc"),)


def is_default_row(element: HubDef | StarDef, row: Record) -> bool:
    """Whether `row` is a hub's `-1` default row, which no source row
    matches: its business keys are stand-ins, which a member may share. A
    row with no key (the oracle's system-keyed members) is a member."""
    return isinstance(element, HubDef) and row.get(element.key_column) == DEFAULT_HUB_KEY


def _members(element: HubDef | StarDef, rows: list[Record]):
    """(position, row) for every row of `rows` but a hub's default row."""
    return [(position, row) for position, row in enumerate(rows)
            if not is_default_row(element, row)]


def _merge(warehouse: Warehouse, schema: str, element: HubDef | StarDef, rows: list[Record],
           candidates: list[Record], now: datetime, hwm: datetime,
           new_row=lambda candidate: {}) -> tuple[int, int, int, datetime]:
    """Merge candidate rows into `rows`, the silver table as read, in file
    order, and return the (inserted, updated, unchanged) counts and the new
    high-water mark: the latest of `hwm` and the capture times written.

    A candidate matches the member (any row but a hub's default row) with
    the same `element.identity`. With no match it inserts the candidate, its
    load time and `new_row(candidate)`, which runs only on insert, so system
    keys are minted for new rows alone; the row goes on the end. A match is
    rewritten in place, keeping its load source, only when some
    `element.tracked_columns` value differs under null-safe equality. Two
    writes to one row fail the load before anything is written; otherwise a
    load that writes encodes only the rows it writes, in one append that
    splices its updates in place, and one that does not leaves the table
    alone.
    """
    identity, tracked = element.identity, element.tracked_columns
    index = {row_key(row, identity): i for i, row in _members(element, rows)}
    inserted = updated = unchanged = 0
    writes: dict[tuple, Record] = {}
    for candidate in candidates:
        key = row_key(candidate, identity)
        position = index.get(key)
        if position is None:
            row = {**candidate, "load_timestamp": now, **new_row(candidate)}
            inserted += 1
        elif any(not values_equal(rows[position].get(c), candidate[c]) for c in tracked):
            row = {**rows[position], **{c: candidate[c] for c in tracked},
                   "capture_timestamp": candidate["capture_timestamp"], "load_timestamp": now}
            updated += 1
        else:
            unchanged += 1
            continue
        if key in writes:
            raise LoadError(f"duplicate primary key within one batch for "
                            f"{schema}.{element.table_name}: {show_key(key)}")
        writes[key] = row
    if writes:
        warehouse.append_rows(schema, element.table_name,
                              [row for key, row in writes.items() if key not in index],
                              replace={index[key]: row for key, row in writes.items()
                                       if key in index},
                              lines=len(rows))
    return (inserted, updated, unchanged,
            high_water_mark(writes.values(), f"{schema}.{element.table_name}", hwm))


def load_hub(warehouse: Warehouse, spec: ModelSpec, hub: HubDef,
             mapping: HubMapping, now: datetime) -> LoadResult:
    silver = spec.schema_names["silver"]
    rows = warehouse.read_rows(silver, hub.table_name)
    hwm = high_water_mark(rows, f"{silver}.{hub.table_name}")
    scanned, staged = _stage(warehouse, spec, hub, mapping, hwm,
                             hub.business_key_names, "business key")
    # rn = 1 per business key: dedup terms, then latest capture, then the
    # earliest bronze row.
    candidates = _top(staged, hub.business_key_names, mapping.dedup_order + _LATEST_CAPTURE)
    if hub.key_type == "computed":
        for candidate in candidates:
            key = compute_hub_key(hub.key_formula, candidate, candidate["load_source"])
            if key == DEFAULT_HUB_KEY:
                raise LoadError(f"{hub.table_name}: key formula gives the default row's key "
                                f"{key} for {show_key(row_key(candidate, hub.business_key_names))}"
                                f" in {mapping.source}")
            candidate[hub.key_column] = key
    else:  # mint from the largest key held, the default row's -1 counting as 0
        minted = count(1 + max([0, *(int(row[hub.key_column]) for row in rows)]))

    def new_row(candidate: Record) -> Record:
        key = candidate[hub.key_column] if hub.key_type == "computed" else str(next(minted))
        return {"initial_capture_timestamp": candidate["capture_timestamp"], hub.key_column: key}

    inserted, updated, unchanged, new_hwm = _merge(
        warehouse, silver, hub, rows, candidates, now, hwm, new_row)
    return LoadResult(table=f"{silver}.{hub.table_name}", source=mapping.source,
                      scanned=scanned, inserted=inserted, updated=updated,
                      unchanged_skipped=unchanged, new_hwm=new_hwm)


# -- stars ---------------------------------------------------------------------


def load_star(warehouse: Warehouse, spec: ModelSpec, star: StarDef,
              mapping: StarMapping, now: datetime) -> LoadResult:
    silver = spec.schema_names["silver"]
    rows = warehouse.read_rows(silver, star.table_name)
    # Stars have no default rows: an empty star means load everything.
    hwm = high_water_mark(rows, f"{silver}.{star.table_name}", EPOCH)
    _scanned, staged = _stage(warehouse, spec, star, mapping, hwm,
                              star.identity, "composite key column")
    # rn = 1 per composite key: latest capture, then the last bronze row.
    inserted, updated, unchanged, new_hwm = _merge(
        warehouse, silver, star, rows, _top(staged[::-1], star.identity, _LATEST_CAPTURE),
        now, hwm)
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
