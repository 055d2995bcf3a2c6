"""Silver loads: default rows, and one incremental merge for hubs and stars.

The merge semantics: stage bronze rows above the table's capture high-water
mark (`stage`, which the oracle shares), keep the top-ranked candidate
version per business key (hubs) or composite key (stars), match it to a
stored row by the element's identity, then insert new rows and update
changed columns under null-safe comparison — unchanged re-deliveries touch
nothing, which keeps repeated loads byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from decimal import Decimal
from itertools import count

from . import expr as ex
from .errors import EvalError, LoadError, StorageError
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


# -- bronze staging (shared with the conformance oracle) -----------------------


def hub_key_lookup(warehouse: Warehouse, spec: ModelSpec):
    """`find(hub, business keys, load source)` -> the key of the first
    member, in file order, of a system-generated-key hub whose identity those
    values give, or "-1". Such keys cannot be recomputed, so each hub is read
    once, on its first lookup, and the lookup holds it from then on."""
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


class Reads:
    """What the stagings of one command share: each bronze source's read,
    as `stage` holds it, and one `hub_key_lookup`. A loading command may
    share the lookup because `resolve_load_order` loads a hub before any
    element that references it, so no load writes a hub after its first
    lookup."""

    def __init__(self, warehouse: Warehouse, spec: ModelSpec):
        self.bronze: dict[str, tuple[datetime | None, list[Record]]] = {}
        self.find_key = hub_key_lookup(warehouse, spec)


def _fk_resolver(find_key, spec: ModelSpec, res: FkResolution) -> ex.Evaluator:
    """A foreign-key column's value in a context: the referenced hub's key
    computed from source-side business-key expressions, or "-1" when any of
    them is null, before or after coercion to its business key's type. A
    system-generated key is looked up with `find_key` (`hub_key_lookup`)."""
    target = spec.hub(res.hub)
    args = res.compiled_args
    key_types = [(bk.name, bk.type) for bk in target.business_keys]
    computed = target.key_type == "computed"

    def resolve(ctx: ex.EvalContext) -> str:
        values = [arg(ctx) for arg in args]
        if None in values:
            return DEFAULT_HUB_KEY
        bk_record = {}
        for (name, ctype), value in zip(key_types, values):
            try:
                bk_record[name] = coerce_scalar(value, ctype)
            except ValueError as exc:
                raise LoadError(f"fk to {res.hub}: {exc}") from exc
        if None in bk_record.values():
            return DEFAULT_HUB_KEY
        source = res.source_override if res.source_override is not None else ctx.load_source
        if computed:
            return target.key_formula.key(bk_record, source)
        return find_key(target, bk_record, source)
    return resolve


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


def compile_mapping(find_key, spec: ModelSpec, element: HubDef | StarDef,
                    mapping: SourceMapping):
    """The mapping's payload builder: a function from one bronze row to the
    payloads it yields, one for a hub, one per exploded item for a star.
    Each column is planned once, here. A payload holds every mapped column,
    plus the delete flag when the element has one. A reference column holds
    the key the mapping resolves, or `-1` when it resolves none; the item
    column holds the item key; any other column its `map` expression, or
    null. `find_key` (`hub_key_lookup`) finds references into
    system-generated-key hubs."""
    load_source = spec.source(mapping.source).load_source_id
    participant = element.item_participant if mapping.explode_column is not None else None
    item_column = participant.column if participant is not None else None
    plan: list[tuple[str, ex.Evaluator]] = []
    for name, ctype, _nullable, _fields in element.mapped_columns:
        if name in element.references:
            res = mapping.fk_resolutions.get(name)
            fill = (_constant(DEFAULT_HUB_KEY) if res is None
                    else _fk_resolver(find_key, spec, res))
        elif name == item_column:
            fill = _coerced(_item_key, ctype, name)
        elif name in mapping.column_exprs:
            fill = _coerced(mapping.compiled_exprs[name], ctype, name)
        else:
            fill = _constant(None)
        plan.append((name, fill))
    has_delete_flag = element.has_delete_flag

    def payloads(bronze_row: Record) -> list[Record]:
        pairs = (explode_collection(bronze_row.get(mapping.explode_column), participant.rule)
                 if participant is not None else _NO_ITEM)
        out: list[Record] = []
        for item, item_key in pairs:
            ctx = ex.EvalContext(bronze_row, load_source, item, item_key)
            payload: Record = {name: fill(ctx) for name, fill in plan}
            if has_delete_flag:
                payload["delete_flag"] = bronze_row.get("delete_flag") or 0
            out.append(payload)
        return out
    return payloads


# The (item, item key) pairs of a bronze row of a mapping that explodes nothing.
_NO_ITEM = ((None, None),)


def _item_key(ctx: ex.EvalContext):
    return ctx.item_key


def _constant(value) -> ex.Evaluator:
    return lambda ctx: value


def _coerced(evaluate: ex.Evaluator, ctype: str, column: str) -> ex.Evaluator:
    """`evaluate`'s value as the column's type; a failure names the column."""
    def coerced(ctx: ex.EvalContext):
        value = evaluate(ctx)
        if value is None:
            return None
        try:
            return coerce_scalar(value, ctype)
        except ValueError as exc:
            raise LoadError(f"column {column}: {exc}") from exc
    return coerced


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


def stage(warehouse: Warehouse, spec: ModelSpec, element: HubDef | StarDef,
          mapping: SourceMapping, mark: datetime | None = None,
          reads: Reads | None = None) -> list[tuple[Record, Record]]:
    """(bronze row, candidate) pairs in bronze order, from the loads and the
    oracle alike: the mapping's bronze captured after `mark` (all of it
    with none; none without a bronze table), each payload stamped with its
    load source, capture time and a computed hub's key. A null capture
    time or partition column (a hub's business keys, a star's composite
    key) fails, and so does the default row's key; a LoadError or EvalError
    names the silver table and the bronze source.

    `reads` holds one command's read of each bronze source as (mark, rows),
    so that the mappings of a source share one decode: a mark equal to or
    above the one held takes the rows held captured after it, and any other
    mark reads again and is held in its place. Bronze does not change
    within a load or an oracle run; the caller drops a source's read after
    its last mapping. Its `find_key` resolves references into
    system-generated-key hubs. Without `reads`, the staging shares
    nothing."""
    silver, bronze = spec.schema_names["silver"], spec.schema_names["bronze"]
    if not warehouse.table_exists(bronze, mapping.source):
        return []
    if reads is None:
        reads = Reads(warehouse, spec)
    held = reads.bronze.get(mapping.source)
    if held is not None and (held[0] is None or mark is not None and held[0] <= mark):
        bronze_rows = held[1] if mark == held[0] else [
            row for row in held[1] if row["capture_timestamp"] > mark]
    else:
        bronze_rows = warehouse.read_rows(bronze, mapping.source, captured_after=mark)
        reads.bronze[mapping.source] = (mark, bronze_rows)
    payloads = compile_mapping(reads.find_key, spec, element, mapping)
    load_source = spec.source(mapping.source).load_source_id
    hub = isinstance(element, HubDef)
    partition, what = ((element.business_key_names, "business key") if hub
                       else (element.identity, "composite key column"))
    formula = element.key_formula if hub and element.key_type == "computed" else None
    staged = []
    try:
        for number, bronze_row in enumerate(bronze_rows, start=1):
            capture = bronze_row["capture_timestamp"]
            # A read after a mark refuses a null capture time itself; a read
            # without one returns the row of every line, so `number` is its
            # line, and rows held from it hold none (this raised on the first).
            if capture is None:
                raise StorageError(f"{bronze}.{mapping.source}: line {number}: "
                                   "column capture_timestamp is null")
            for payload in payloads(bronze_row):
                candidate = {"load_source": load_source, "capture_timestamp": capture,
                             **payload}
                for name in partition:
                    if candidate[name] is None:
                        raise LoadError(f"{what} {name} is null")
                if formula is not None:
                    key = candidate[element.key_column] = formula.key(candidate, load_source)
                    if key == DEFAULT_HUB_KEY:
                        raise LoadError(f"key formula gives the default row's key {key} "
                                        f"for {show_key(row_key(candidate, partition))}")
                staged.append((bronze_row, candidate))
    except (LoadError, EvalError) as exc:
        raise type(exc)(f"{silver}.{element.table_name} <- {bronze}.{mapping.source}: "
                        f"{exc}") from exc
    return staged


def _load(warehouse: Warehouse, spec: ModelSpec, element: HubDef | StarDef,
          mapping: SourceMapping, now: datetime, reads: Reads | None) -> LoadResult:
    """One load of a hub or star from one mapping, written in one splice.

    `load_all` has checked the stored manifests it reads. The mark is the
    latest capture among the table's members (every row but a hub's default
    row), read from the text of each line (`max_capture_timestamp`); `stage`
    gives the candidates above it, a computed hub's with their keys. A hub
    with no row at all was never initialized, and its load fails. Only a
    load with candidates decodes the table's rows, from the read the mark
    came from. One candidate survives per partition: a hub's by the mapping's
    `dedup_by` terms, latest capture, then the earliest bronze row; a star's
    by latest capture, then the last bronze row. A survivor matches the
    member with the same `element.identity`: with none it goes on the end (a
    hub row with its first capture time, and a minted key in a system-keyed
    hub), and a match is rewritten in place, keeping its load source, only
    when some `element.tracked_columns` value differs under null-safe
    equality. Two writes to one row fail the load before anything is
    written. The new mark is the latest of the old one and the captures
    written, or the epoch for a table still without members."""
    silver = spec.schema_names["silver"]
    table = f"{silver}.{element.table_name}"
    hub = element if isinstance(element, HubDef) else None
    read = warehouse.max_capture_timestamp(silver, element.table_name,
                                           hub.key_column if hub is not None else None)
    if hub is not None and not read.lines:
        raise StorageError(f"{table}: no high-water mark; initialize default rows first")
    mark = read.mark
    staged = stage(warehouse, spec, element, mapping, mark, reads)
    # Without candidates there is nothing to merge, so no row is decoded.
    rows = warehouse.read_rows(silver, element.table_name, snapshot=read) if staged else []
    members = _members(element, rows)
    partition = hub.business_key_names if hub is not None else element.identity

    # rn = 1 per partition, over positions in `staged`; ties go to the
    # position met first, so a star ranks them in reverse to keep the last
    # bronze row. Survivors go back into bronze order.
    order, positions = ((mapping.dedup_order, range(len(staged))) if hub is not None
                        else ((), range(len(staged))[::-1]))
    survivors = top_per_partition(positions, lambda i: row_key(staged[i][1], partition),
                                  order + _LATEST_CAPTURE, fields=lambda i: staged[i][0])
    candidates = [staged[i][1] for i in sorted(survivors)]
    if hub is not None and hub.key_type != "computed":
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
             mapping: SourceMapping, now: datetime, reads: Reads | None = None) -> LoadResult:
    return _load(warehouse, spec, hub, mapping, now, reads)


def load_star(warehouse: Warehouse, spec: ModelSpec, star: StarDef,
              mapping: SourceMapping, now: datetime, reads: Reads | None = None) -> LoadResult:
    return _load(warehouse, spec, star, mapping, now, reads)


def load_all(warehouse: Warehouse, spec: ModelSpec, now: datetime,
             only: str | None = None) -> list[LoadResult]:
    """Load every hub and star in dependency order (or one, by model or
    table name). The stored manifest of each target and each source is
    checked against the model once, before the first load, so a mismatch
    writes nothing. The mappings of one bronze source share its reads
    (`stage`), which are dropped after the source's last mapping, and
    every mapping shares one `hub_key_lookup` (`Reads`)."""
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
    steps = [(element, mapping) for element in elements for mapping in element.source_mappings]
    last = {mapping.source: step for step, (_element, mapping) in enumerate(steps)}
    reads = Reads(warehouse, spec)
    results = []
    for step, (element, mapping) in enumerate(steps):
        load = load_hub if isinstance(element, HubDef) else load_star
        results.append(load(warehouse, spec, element, mapping, now, reads))
        if last[mapping.source] == step:
            reads.bronze.pop(mapping.source, None)
    return results
