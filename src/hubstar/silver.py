"""Silver loads: default rows, and one incremental merge for hubs and stars.

The merge semantics: stage the bronze rows past the position the table's
state record holds for each mapping (`stage`, which the oracle shares), keep
the top-ranked candidate version per business key (hubs) or composite key
(stars), match it to a stored row by the element's identity, then insert
new rows and update changed columns of a match its capture time lets
replace, under null-safe comparison — unchanged re-deliveries touch
nothing, which keeps repeated loads byte-stable. The steps of one command
share one `Reads`: each bronze source's one read and decode, each table's
state record, and each silver table a load or a key lookup reads, with its
one identity index, held until the command returns. `load_all` reads all of
them before its first write, so a command that a record, a bronze file or a
silver table refuses writes nothing.

Deviation from the paper, whose loads take bronze above a capture-time
watermark: a load takes its source's bronze past the byte offset it last
consumed, whatever its capture time, and the mark is only reported. A
watermark loses another mapping's earlier captures, new rows captured at
it and late bronze; an offset loses none (docs/storage.md, "Silver state
records"). The record is the one fact a load trusts, and only while the
length it holds is its data file's size: without one that holds, a table
replays from offset 0, and a load that reads its table takes the mark
from its rows, so a re-run after a crash writes what a clean load would.
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
from .storage import Position, Record, TableState, Warehouse
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


class Reads:
    """What the steps of one command (`load_all`, `check_against_oracle`)
    share, held until it returns: each bronze source's read, each silver
    table's state record (`load_all` reads them all first; a load moves
    its own), and each silver table a load or a key lookup reads, with its
    identity index (`table`), which a load keeps equal to its file. Bronze
    does not change within a command, and `resolve_load_order` loads a hub
    before any element that references it, so a lookup finds the hub as
    its loads left it."""

    def __init__(self, warehouse: Warehouse, spec: ModelSpec):
        self.warehouse, self.spec = warehouse, spec
        # Each bronze source's positions and rows, and each silver table's
        # rows and index, read on the first ask.
        self._bronze: dict[str, tuple[list[Position], list[Record]]] = {}
        self._tables: dict[str, tuple[list[Record], dict[tuple, int]]] = {}
        # Each silver table's state record as read, or as a load moved it.
        self.states: dict[str, TableState | None] = {}

    def bronze(self, source: str, start: Position) -> tuple[list[Record], Position]:
        """The source's bronze rows past `start`, in file order, and the
        position past the last of them. The first ask reads the source's
        data file from `start` (`Warehouse.tail`) and decodes it; every ask
        shares that read, so the mappings of a source share one decode. A
        `start` must be a position the read passed, offset and line count
        alike, so none may ask below the first: `load_all` asks every
        position lowest first, and the oracle only from the first line. Any
        other `start` (the file was cut or rewritten) and a line that does
        not decode raise StorageError."""
        bronze = self.spec.schema_names["bronze"]
        if source not in self._bronze:
            tail = self.warehouse.tail(bronze, source, start)
            rows = self.warehouse.read_rows(bronze, source, snapshot=tail)
            self._bronze[source] = tail.positions, rows
        positions, rows = self._bronze[source]
        try:
            skipped = positions.index(start)
        except ValueError:
            raise StorageError(f"{bronze}.{source}: no line ends at byte {start.offset}, where "
                               f"{start.lines} lines were consumed; the data file was cut or "
                               "rewritten") from None
        return rows[skipped:], positions[-1]

    def table(self, element: HubDef | StarDef) -> tuple[list[Record], dict[tuple, int]]:
        """The element's silver rows, and the position of the first member
        (every row but a hub's default row) of each `element.identity`, from
        one read on the first ask; a load puts what it writes into both. A
        hub with no row at all was never initialized, and a member with a
        null capture time cannot be ranked: either raises StorageError."""
        name = element.table_name
        if name not in self._tables:
            silver = self.spec.schema_names["silver"]
            rows, index = self.warehouse.read_rows(silver, name), {}
            if isinstance(element, HubDef) and not rows:
                raise StorageError(f"{silver}.{name}: holds no row; initialize default rows first")
            for position, row in _members(rows):
                if row["capture_timestamp"] is None:
                    raise StorageError(f"{silver}.{name}: line {position + 1}: column "
                                       "capture_timestamp is null")
                index.setdefault(row_key(row, element.identity), position)
            self._tables[name] = rows, index
        return self._tables[name]

    def hub_key(self, hub: HubDef, bk_record: Record, load_source: int) -> str:
        """The key of the first member, in file order, of a
        system-generated-key hub whose identity these business keys and
        load source give, or "-1": such keys cannot be recomputed, so they
        are looked up in the hub's `table`."""
        rows, index = self.table(hub)
        position = index.get(row_key({**bk_record, "load_source": load_source}, hub.identity))
        return DEFAULT_HUB_KEY if position is None else rows[position][hub.key_column]


def _fk_resolver(find_key, spec: ModelSpec, res: FkResolution) -> ex.Evaluator:
    """A foreign-key column's value in a context: the referenced hub's key
    computed from source-side business-key expressions, or "-1" when any of
    them is null, before or after coercion to its business key's type. A
    value already of that type is taken as it is (`_EXACT`). A
    system-generated key is looked up with `find_key` (`Reads.hub_key`)."""
    target = spec.hub(res.hub)
    args = res.compiled_args
    key_types = [(bk.name, bk.type, _EXACT.get(bk.type)) for bk in target.business_keys]
    computed = target.key_type == "computed"

    def resolve(ctx: ex.EvalContext) -> str:
        values = [arg(ctx) for arg in args]
        if None in values:
            return DEFAULT_HUB_KEY
        bk_record = {}
        for (name, ctype, exact), value in zip(key_types, values):
            if type(value) is exact:
                bk_record[name] = value
                continue
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
    """The mapping's plan: a function from one bronze row to the candidates
    it yields, one for a hub, one per exploded item for a star. Each column
    is planned once, here. A candidate holds its load source and capture
    time, every mapped column, and the delete flag when the element has one.
    A reference column holds the key the mapping resolves, or `-1` when it
    resolves none; the item column holds the item key; any other column its
    `map` expression, or null. `find_key` (`Reads.hub_key`) finds references
    into system-generated-key hubs.

    A column that reads no item (no `item.` field, no `item_seq()`, not the
    item column) has one value per bronze row, so it is evaluated once per
    row that yields an item: with the first item, in column order among the
    item's own columns, so the first column to fail is the one it would be
    if every column were evaluated per item. Later items copy the first
    item's candidate and evaluate only the columns that read the item."""
    load_source = spec.source(mapping.source).load_source_id
    participant = element.item_participant if mapping.explode_column is not None else None
    item_column = participant.column if participant is not None else None
    plan: list[tuple[str, ex.Evaluator]] = []
    per_item: list[tuple[str, ex.Evaluator]] = []
    for name, ctype, _nullable, _fields in element.mapped_columns:
        if name in element.references:
            res = mapping.fk_resolutions.get(name)
            fill = (_constant(DEFAULT_HUB_KEY) if res is None
                    else _fk_resolver(find_key, spec, res))
            reads_item = res is not None and any(map(_reads_item, res.args))
        elif name == item_column:
            fill, reads_item = _coerced(_item_key, ctype, name), True
        elif name in mapping.column_exprs:
            fill = _coerced(mapping.compiled_exprs[name], ctype, name)
            reads_item = _reads_item(mapping.column_exprs[name])
        else:
            fill, reads_item = _constant(None), False
        plan.append((name, fill))
        if reads_item:
            per_item.append((name, fill))
    has_delete_flag = element.has_delete_flag

    def candidates(bronze_row: Record) -> list[Record]:
        pairs = (explode_collection(bronze_row.get(mapping.explode_column), participant.rule)
                 if participant is not None else _NO_ITEM)
        if not pairs:
            return []
        ctx = ex.EvalContext(bronze_row, load_source, *pairs[0])
        first = {"load_source": load_source, "capture_timestamp": bronze_row["capture_timestamp"]}
        for name, fill in plan:
            first[name] = fill(ctx)
        if has_delete_flag:
            first["delete_flag"] = bronze_row.get("delete_flag") or 0
        out = [first]
        for item, item_key in pairs[1:]:
            ctx.item, ctx.item_key = item, item_key
            candidate = first.copy()
            for name, fill in per_item:
                candidate[name] = fill(ctx)
            out.append(candidate)
        return out
    return candidates


# The (item, item key) pairs of a bronze row of a mapping that explodes nothing.
_NO_ITEM = ((None, None),)


def _reads_item(expression: ex.Expr) -> bool:
    """Whether the expression's value depends on the item being staged."""
    return bool(ex.item_field_refs(expression)) or ex.uses_function(expression, "item_seq")


def _item_key(ctx: ex.EvalContext):
    return ctx.item_key


def _constant(value) -> ex.Evaluator:
    return lambda ctx: value


# Column types whose coercion returns a value of exactly this Python type
# unchanged, so such a value skips it. A `bool` is no `int` here:
# `coerce_scalar` turns it into 1 or 0.
_EXACT = {"string": str, "integer": int, "boolean": bool}


def _coerced(evaluate: ex.Evaluator, ctype: str, column: str) -> ex.Evaluator:
    """`evaluate`'s value as the column's type; a failure names the column.
    A value already of that type (`_EXACT`) is taken as it is."""
    exact = _EXACT.get(ctype)

    def coerced(ctx: ex.EvalContext):
        value = evaluate(ctx)
        if value is None or type(value) is exact:
            return value
        try:
            return coerce_scalar(value, ctype)
        except ValueError as exc:
            raise LoadError(f"column {column}: {exc}") from exc
    return coerced


_LATEST_CAPTURE = (("capture_timestamp", "desc"),)


def is_default_row(row: Record) -> bool:
    """Whether `row` is a hub's `-1` default row: the one row no source
    loaded, as its load source is the system's (`stage` refuses a source
    that declares it). No source row matches it, as its business keys are
    stand-ins, which a member may share."""
    return row["load_source"] == SYSTEM_LOAD_SOURCE


def _members(rows: list[Record]):
    """(position, row) for every row of `rows` but a hub's default row."""
    return [(position, row) for position, row in enumerate(rows) if not is_default_row(row)]


def record_key(element: HubDef | StarDef, mapping: SourceMapping) -> str:
    """The key of the mapping's position in its table's state record: its
    source, followed by `#<n>` for the n-th mapping of that source past the
    first, so that two mappings of one source each keep their own."""
    same = [other for other in element.source_mappings if other.source == mapping.source]
    n = next(n for n, other in enumerate(same, start=1) if other is mapping)
    return mapping.source if n == 1 else f"{mapping.source}#{n}"


def stage(spec: ModelSpec, element: HubDef | StarDef, mapping: SourceMapping,
          start: Position, reads: Reads) -> list[tuple[Record, Record]]:
    """(bronze row, candidate) pairs in bronze order, from the loads and the
    oracle alike: the mapping's bronze past `start` (all of it from the
    first position), as `reads` gives it, built by the mapping's one plan
    (`compile_mapping`: a column that reads no item is evaluated once per
    bronze row, with its first item) and given a computed hub's key. A
    source that declares the system's load source, which marks the default
    row, fails; so does a null capture time or partition column (a hub's
    business keys, a star's composite key), and the default row's key. Each
    error names the silver table, the bronze source and, but for the
    reserved load source, the bronze line: its number among the file's
    non-blank lines, `start.lines` plus its place past `start`."""
    silver, bronze = spec.schema_names["silver"], spec.schema_names["bronze"]
    where = f"{silver}.{element.table_name} <- {bronze}.{mapping.source}"
    load_source = spec.source(mapping.source).load_source_id
    if load_source == SYSTEM_LOAD_SOURCE:
        raise LoadError(f"{where}: load_source {load_source} is reserved for the system's "
                        "default rows")
    bronze_rows, _stop = reads.bronze(mapping.source, start)
    candidates = compile_mapping(reads.hub_key, spec, element, mapping)
    hub = isinstance(element, HubDef)
    partition, what = ((element.business_key_names, "business key") if hub
                       else (element.identity, "composite key column"))
    formula = element.key_formula if hub and element.key_type == "computed" else None
    staged = []
    try:
        for number, bronze_row in enumerate(bronze_rows, start=start.lines + 1):
            if bronze_row["capture_timestamp"] is None:
                raise StorageError(f"{where}: line {number}: column capture_timestamp is null")
            for candidate in candidates(bronze_row):
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
        raise type(exc)(f"{where}: line {number}: {exc}") from exc
    return staged


def _load(warehouse: Warehouse, spec: ModelSpec, element: HubDef | StarDef,
          mapping: SourceMapping, now: datetime, reads: Reads) -> LoadResult:
    """One load of a hub or star from one mapping, written in one splice.

    `load_all` has checked the stored manifests it reads, and has read the
    bronze past every offset its loads start from and every table they
    read. The table's state record (`Reads.states`) gives the position the
    mapping consumed its source to (under `record_key`), and the mark: the
    latest capture among the table's members (every row but a hub's
    default row). A table without a record starts every mapping at its
    source's first line. With a record and nothing past the position, the
    load returns the record's mark without reading the table. Otherwise
    `stage` gives the candidates past it, a computed hub's with their keys,
    and the mark becomes the latest member capture of `Reads.table`. One
    candidate survives per partition: a hub's by the mapping's `dedup_by` terms, latest capture,
    then the earliest bronze row; a star's by latest capture, then the last
    bronze row. A survivor matches the first member with the same
    `element.identity`: with none it goes on the end (a hub row with its
    first capture time, and a minted key in a system-keyed hub); a match is
    rewritten in place, keeping its load source, when captured after it (a
    hub's, whose earlier bronze row wins a tie) or not before it (a star's,
    whose later row does), and only when some `element.tracked_columns`
    value differs under null-safe equality. Two writes to one row fail the
    load before anything is written, and what is written goes into
    `Reads.table` too. Then the record moves the mapping's position past the
    rows read and the mark to the latest of the mark and the captures
    written, and is written when its bytes change; the load reports the
    mark, or the epoch for a table still without members."""
    silver = spec.schema_names["silver"]
    table = f"{silver}.{element.table_name}"
    hub = element if isinstance(element, HubDef) else None
    state = reads.states[element.table_name]
    mark, sources = (state.mark, state.sources) if state else (None, {})
    slot = record_key(element, mapping)
    start = sources.get(slot, Position())
    bronze_rows, stop = reads.bronze(mapping.source, start)
    if not bronze_rows and state is not None:
        return LoadResult(table=table, source=mapping.source, scanned=0, inserted=0,
                          updated=0, unchanged_skipped=0, new_hwm=mark or EPOCH)
    staged = stage(spec, element, mapping, start, reads)
    rows, index = reads.table(element)
    mark = max((row["capture_timestamp"] for _position, row in _members(rows)), default=None)
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
        else:
            stored, captured = rows[position], candidate["capture_timestamp"]
            if not ((captured > stored["capture_timestamp"]) if hub is not None
                    else (captured >= stored["capture_timestamp"])) or all(
                        values_equal(stored.get(c), candidate[c]) for c in tracked):
                unchanged += 1
                continue
            row = {**stored, **{c: candidate[c] for c in tracked},
                   "capture_timestamp": captured, "load_timestamp": now}
            updated += 1
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
        for key, row in writes.items():
            if key in index:
                rows[index[key]] = row
            else:
                index[key] = len(rows)
                rows.append(row)
    # The latest of the mark, if any, and the captures written.
    mark = max(filter(None, (mark, *(row["capture_timestamp"] for row in writes.values()))),
               default=None)
    reads.states[element.table_name] = moved = TableState(mark, {**sources, slot: stop})
    warehouse.write_state(silver, element.table_name, moved)
    return LoadResult(table=table, source=mapping.source, scanned=len(staged),
                      inserted=inserted, updated=updated, unchanged_skipped=unchanged,
                      new_hwm=mark or EPOCH)


# The steps of `load_all`, one name per kind, which trust its checks. The
# two names let the benchmark's tracer (bench/spans.py) time each table;
# they are not entry points.
load_hub = load_star = _load


def load_all(warehouse: Warehouse, spec: ModelSpec, now: datetime,
             only: str | None = None) -> list[LoadResult]:
    """Load every hub and star in dependency order (or one, by model or
    table name). The stored manifest of each target and each source is
    checked against the model once, before the first load. Then every
    target's state record is read, every source is read and decoded from
    the lowest position a load starts from, each position checked against
    that read, and every target with bronze past a position or without a
    record is read (`Reads.table`), so a mismatch, a missing table, a cut,
    rewritten or undecodable bronze file, or a silver table that a load
    refuses writes nothing. Every load shares one `Reads`."""
    elements = [spec.hub(name) or spec.star(name) for name in resolve_load_order(spec)]
    if only is not None:
        elements = [e for e in elements if only in (e.name, e.table_name)]
        if not elements:
            raise LoadError(f"no hub or star named {only!r}")
    layouts = []  # (manifest, whether it is a source's)
    for element in elements:
        layouts.append((silver_manifest(spec, element), False))
        layouts += [(bronze_manifest(spec, spec.source(mapping.source)), True)
                    for mapping in element.source_mappings]
    for manifest, source in dict.fromkeys(layouts):
        if not check_stored_manifest(warehouse, manifest):
            layer, remedy = ("bronze", "init or ingest") if source else ("silver", "init")
            raise LoadError(f"{layer} table {manifest.schema}.{manifest.table} is missing; "
                            f"run {remedy} first")
    # Every position a load starts from is asked of `Reads.bronze` lowest
    # first, so each source is read and decoded once.
    reads, silver = Reads(warehouse, spec), spec.schema_names["silver"]
    starts = []
    for element in elements:
        table = element.table_name
        state = reads.states[table] = warehouse.read_state(silver, table)
        starts += [(state.sources.get(record_key(element, mapping), Position()) if state
                    else Position(), mapping.source, table)
                   for mapping in element.source_mappings]
    fed = set()  # the tables with bronze past a position
    for start, source, table in sorted(starts):
        try:
            if reads.bronze(source, start)[0]:
                fed.add(table)
        except StorageError as exc:
            raise StorageError(f"{silver}.{table} <- {exc}; nothing written") from exc
    for element in elements:
        if element.table_name in fed or reads.states[element.table_name] is None:
            reads.table(element)
    results = []
    for element in elements:
        load = load_hub if isinstance(element, HubDef) else load_star
        results += [load(warehouse, spec, element, mapping, now, reads)
                    for mapping in element.source_mappings]
    return results
