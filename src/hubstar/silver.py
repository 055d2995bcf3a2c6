"""Silver loads: default rows, and one incremental merge for hubs and stars.

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
from .errors import LoadError, StorageError
from .model import (
    DEFAULT_HUB_KEY,
    SYSTEM_LOAD_SOURCE,
    FkResolution,
    HubDef,
    ItemKeyRule,
    ModelSpec,
    SourceMapping,
    StarDef,
    resolve_load_order,
)
from .storage import Record, Warehouse
from .tables import bronze_manifest, check_stored_manifest, silver_manifest
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
    for name, ctype, nullable, _fields in hub.columns:
        if name == hub.key_column or name in hub.references:
            row[name] = DEFAULT_HUB_KEY
        elif name == "load_source":
            row[name] = SYSTEM_LOAD_SOURCE
        elif name == "delete_flag":
            row[name] = 0
        else:
            row[name] = None if nullable else type_neutral(ctype)
    return row


def init_warehouse(warehouse: Warehouse, spec: ModelSpec) -> list[str]:
    """Create every bronze and silver table, seeding each hub's default row,
    and return their qualified names. Every table is checked first, so a
    refused init writes nothing: a bronze table that exists is kept when
    its stored manifest is the model's; a hub or star that exists is refused."""
    bronze = [bronze_manifest(spec, source) for source in spec.sources]
    new_bronze = [(manifest, None) for manifest in bronze
                  if not check_stored_manifest(warehouse, manifest)]
    silver = [(silver_manifest(spec, hub), default_row(spec, hub)) for hub in spec.hubs]
    silver += [(silver_manifest(spec, star), None) for star in spec.stars]
    for manifest, _seed in silver:
        if warehouse.table_exists(manifest.schema, manifest.table):
            raise StorageError(f"table {manifest.schema}.{manifest.table} already exists")
    created = []
    for manifest, seed in new_bronze + silver:
        warehouse.create_table(manifest)
        if seed is not None:
            warehouse.append_rows(manifest.schema, manifest.table, [seed])
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
        return target.key_formula.key(bk_record, effective_source)
    return find_key(target, bk_record, effective_source)


def explode_collection(items, rule: ItemKeyRule) -> list[tuple[dict, object]]:
    """(item, item key) pairs for one parent row's collection value; null or
    an empty array yields nothing. A null sequence field fails the load, and
    so does an item key met twice in one parent, which would otherwise let
    the later item replace the earlier."""
    out: list[tuple[dict, object]] = []
    seen = set()
    for position, item in enumerate(items or (), start=1):
        if rule.mode == "positional":
            key = position
        elif rule.mode == "explicit":
            key = item.get(rule.sequence_field)
            if key is None:
                raise LoadError(f"item sequence field {rule.sequence_field} is null")
        else:  # concat
            key = "#".join(value_to_string(item[a]) for a in rule.attributes
                           if item.get(a) is not None)
            if rule.hashed:
                key = ex.sha256_hex(key)
        if key in seen:
            raise LoadError(f"duplicate item sequence {key!r} within one parent")
        seen.add(key)
        out.append((item, key))
    return out


def evaluate_mapping(find_key, spec: ModelSpec, element: HubDef | StarDef,
                     mapping: SourceMapping, bronze_row: Record) -> list[Record]:
    """The payloads one bronze row yields: one for a hub, one per exploded
    item for a star. A payload holds every mapped column, plus the delete
    flag when the element has one. A reference column holds the key the
    mapping resolves, or `-1` when it resolves none; the item column holds
    the item key; any other column its `map` expression, or null. `find_key`
    (`hub_key_lookup`) finds references into system-generated-key hubs."""
    load_source = spec.source(mapping.source).load_source_id
    participant = element.item_participant if mapping.explode_column is not None else None
    pairs = (explode_collection(bronze_row.get(mapping.explode_column), participant.rule)
             if participant is not None else [(None, None)])
    item_column = participant.column if participant is not None else None
    references, exprs = element.references, mapping.column_exprs
    out: list[Record] = []
    for item, item_key in pairs:
        ctx = ex.EvalContext(bronze_row, load_source, item, item_key)
        payload: Record = {}
        for name, ctype, _nullable, _fields in element.mapped_columns:
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


def _load(warehouse: Warehouse, spec: ModelSpec, element: HubDef | StarDef,
          mapping: SourceMapping, now: datetime) -> LoadResult:
    """One load of a hub or star from one mapping, written in one splice.

    `load_all` has checked the stored manifests it reads. The mark is the
    latest capture among the table's members (every row but a hub's default
    row); with no member, all of the bronze is read. A hub with no row at
    all was never initialized, and its load fails. A candidate (a payload
    with its load source and capture time) with a null partition column (a
    hub's business keys, a star's composite key) fails the load. One
    survives per partition: a hub's by the mapping's `dedup_by` terms,
    latest capture, then the earliest bronze row; a star's by latest
    capture, then the last bronze row. A survivor matches the member with
    the same `element.identity`: with none it goes on the end (a hub row
    with its first capture time and a computed or minted key), and a match
    is rewritten in place, keeping its load source, only when some
    `element.tracked_columns` value differs under null-safe equality. Two
    writes to one row fail the load before anything is written. The new
    mark is the latest of the old one and the captures written, or the
    epoch for a table still without members."""
    silver, bronze = spec.schema_names["silver"], spec.schema_names["bronze"]
    table = f"{silver}.{element.table_name}"
    hub = element if isinstance(element, HubDef) else None
    rows = warehouse.read_rows(silver, element.table_name)
    if hub is not None and not rows:
        raise StorageError(f"{table}: no high-water mark; initialize default rows first")
    members = _members(element, rows)
    mark = max((row["capture_timestamp"] for _position, row in members), default=None)

    bronze_rows = (warehouse.read_rows(bronze, mapping.source, captured_after=mark)
                   if warehouse.table_exists(bronze, mapping.source) else [])
    find_key = hub_key_lookup(warehouse, spec)
    load_source = spec.source(mapping.source).load_source_id
    partition = hub.business_key_names if hub is not None else element.identity
    what = "business key" if hub is not None else "composite key column"
    staged = []  # (position, bronze row, candidate), in bronze order
    for bronze_row in bronze_rows:
        for payload in evaluate_mapping(find_key, spec, element, mapping, bronze_row):
            candidate = {"load_source": load_source,
                         "capture_timestamp": bronze_row["capture_timestamp"], **payload}
            for name in partition:
                if candidate[name] is None:
                    raise LoadError(f"{element.table_name}: {what} {name} is null "
                                    f"in {mapping.source} row")
            staged.append((len(staged), bronze_row, candidate))

    # rn = 1 per partition; ties go to the entry met first, so a star ranks
    # its entries in reverse to keep the last bronze row. Survivors go back
    # into bronze order.
    order, entries = ((mapping.dedup_order, staged) if hub is not None
                      else ((), staged[::-1]))
    survivors = top_per_partition(entries, lambda e: row_key(e[2], partition),
                                  order + _LATEST_CAPTURE, fields=lambda e: e[1])
    candidates = [entry[2] for entry in sorted(survivors, key=lambda e: e[0])]
    if hub is not None and hub.key_type == "computed":
        for candidate in candidates:
            key = hub.key_formula.key(candidate, candidate["load_source"])
            if key == DEFAULT_HUB_KEY:
                raise LoadError(f"{hub.table_name}: key formula gives the default row's key "
                                f"{key} for {show_key(row_key(candidate, partition))}"
                                f" in {mapping.source}")
            candidate[hub.key_column] = key
    elif hub is not None:
        minted = count(1 + max([0, *(int(row[hub.key_column]) for row in rows)]))

    identity, tracked = element.identity, element.tracked_columns
    index = {row_key(row, identity): position for position, row in members}
    inserted = updated = unchanged = 0
    writes: dict[tuple, Record] = {}
    for candidate in candidates:
        key = row_key(candidate, identity)
        position = index.get(key)
        if position is None:
            row = {**candidate, "load_timestamp": now}
            if hub is not None:
                row["initial_capture_timestamp"] = candidate["capture_timestamp"]
                if hub.key_type != "computed":
                    row[hub.key_column] = str(next(minted))
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
                            f"{table}: {show_key(key)}")
        writes[key] = row
    if writes:
        warehouse.append_rows(silver, element.table_name,
                              [row for key, row in writes.items() if key not in index],
                              replace={index[key]: row for key, row in writes.items()
                                       if key in index},
                              lines=len(rows))
    new_mark = max((row["capture_timestamp"] for row in writes.values()),
                   default=mark or EPOCH)
    return LoadResult(table=table, source=mapping.source, scanned=len(staged),
                      inserted=inserted, updated=updated, unchanged_skipped=unchanged,
                      new_hwm=new_mark)


# The steps of `load_all`, one per kind, which trust its check of the stored
# manifests. They are kept so that the benchmark's tracer (bench/spans.py)
# can time each table through them; they are not entry points.


def load_hub(warehouse: Warehouse, spec: ModelSpec, hub: HubDef,
             mapping: SourceMapping, now: datetime) -> LoadResult:
    return _load(warehouse, spec, hub, mapping, now)


def load_star(warehouse: Warehouse, spec: ModelSpec, star: StarDef,
              mapping: SourceMapping, now: datetime) -> LoadResult:
    return _load(warehouse, spec, star, mapping, now)


def load_all(warehouse: Warehouse, spec: ModelSpec, now: datetime,
             only: str | None = None) -> list[LoadResult]:
    """Load every hub and star in dependency order (or one, by model or
    table name). The stored manifest of each target and each source is
    checked against the model once, before the first load, so a mismatch
    writes nothing."""
    elements = [spec.hub(name) or spec.star(name) for name in resolve_load_order(spec)]
    if only is not None:
        elements = [e for e in elements if only in (e.name, e.table_name)]
        if not elements:
            raise LoadError(f"no hub or star named {only!r}")
    layouts = []
    for element in elements:
        layouts.append(silver_manifest(spec, element))
        layouts += [bronze_manifest(spec, spec.source(mapping.source))
                    for mapping in element.source_mappings]
    for manifest in dict.fromkeys(layouts):
        check_stored_manifest(warehouse, manifest)
    results = []
    for element in elements:
        load = load_hub if isinstance(element, HubDef) else load_star
        for mapping in element.source_mappings:
            results.append(load(warehouse, spec, element, mapping, now))
    return results
