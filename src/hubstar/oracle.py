"""Brute-force recomputation of expected silver state, and a state differ.

The engine loads incrementally — high-water marks, per-batch ranking,
conditional updates. The oracle ignores all of that and derives the final
state straight from the complete bronze history, so agreement between the
two is evidence the incremental machinery is faithful.

Expression evaluation and key formulas are shared with the engine (they
define the mapping language); everything about batching, ranking, matching,
and merging is recomputed here from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HubStarError
from .keygen import compute_hub_key
from .model import HubDef, HubMapping, ModelSpec, StarDef, StarMapping
from .silver import default_row, evaluate_mapping, hub_key_lookup
from .storage import Record, Warehouse
from .values import EPOCH, row_key, show_key, values_equal


@dataclass(frozen=True)
class StateDiff:
    missing_rows: tuple[tuple, ...]      # keys present in expected, absent in actual
    extra_rows: tuple[tuple, ...]        # keys present in actual, absent in expected
    mismatched_rows: tuple[tuple[tuple, str, object, object], ...]  # key, column, actual, expected

    @property
    def empty(self) -> bool:
        return not (self.missing_rows or self.extra_rows or self.mismatched_rows)


def diff_states(actual: list[Record], expected: list[Record],
                key_columns: tuple[str, ...],
                compare_columns: tuple[str, ...]) -> StateDiff:
    actual_by_key = {row_key(r, key_columns): r for r in actual}
    expected_by_key = {row_key(r, key_columns): r for r in expected}
    missing = tuple(sorted(k for k in expected_by_key if k not in actual_by_key))
    extra = tuple(sorted(k for k in actual_by_key if k not in expected_by_key))
    mismatched = []
    for key in sorted(k for k in expected_by_key if k in actual_by_key):
        a, e = actual_by_key[key], expected_by_key[key]
        for column in compare_columns:
            if not values_equal(a.get(column), e.get(column)):
                mismatched.append((key, column, a.get(column), e.get(column)))
    return StateDiff(missing, extra, tuple(mismatched))


def expected_hub_state(bronze_history: list[Record], spec: ModelSpec, hub: HubDef,
                       mapping: HubMapping, warehouse: Warehouse | None = None) -> list[Record]:
    """Final hub rows implied by the full history: latest version per
    business key, default row prepended. No batching, no HWM."""
    source = spec.source(mapping.source)
    find_key = hub_key_lookup(warehouse, spec)
    groups: dict[tuple, list[tuple[int, Record, Record]]] = {}
    for position, bronze_row in enumerate(bronze_history):
        for payload in evaluate_mapping(find_key, spec, hub, mapping, bronze_row):
            bk = row_key(payload, hub.business_key_names)
            groups.setdefault(bk, []).append((position, bronze_row, payload))

    rows = [default_row(spec, hub)]
    for bk in sorted(groups, key=lambda k: groups[k][0][0]):  # first-appearance order
        entries = groups[bk]
        top = min(entries, key=lambda t: _hub_rank_key(t, mapping.dedup_order))
        position, bronze_row, payload = top
        first_capture = min(e[1]["capture_timestamp"] for e in entries)
        row: Record = {
            "load_source": source.load_source_id,
            "capture_timestamp": bronze_row["capture_timestamp"],
            "load_timestamp": EPOCH,
            "initial_capture_timestamp": first_capture,
        }
        if hub.key_type != "computed":
            raise HubStarError("oracle covers computed-key hubs only")
        row[hub.key_column] = compute_hub_key(hub.key_formula, payload,
                                              source.load_source_id)
        row.update(payload)
        rows.append(row)
    return rows


def _hub_rank_key(entry: tuple[int, Record, Record],
                  dedup_order: tuple[tuple[str, str], ...]):
    """Comparable ranking key: smaller sorts first, i.e. wins."""
    position, bronze_row, _payload = entry
    parts = []
    for column, direction in dedup_order:
        value = bronze_row.get(column)
        parts.append(_Ranked(value, descending=direction == "desc"))
    parts.append(_Ranked(bronze_row["capture_timestamp"], descending=True))
    parts.append(position)
    return tuple(parts)


class _Ranked:
    """Wraps one ORDER BY term so min() picks the row the ordering ranks
    first. Ascending puts nulls first, descending puts them last, matching
    the engine's sort."""

    __slots__ = ("value", "descending")

    def __init__(self, value, descending: bool):
        self.value = value
        self.descending = descending

    def __eq__(self, other):
        return not self < other and not other < self

    def __lt__(self, other):
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if self.descending:
            if a is None or b is None:
                return b is None  # nulls rank last under desc
            return b < a  # larger value ranks first
        if a is None or b is None:
            return a is None  # nulls rank first under asc
        return a < b


def expected_star_state(bronze_history: list[Record], spec: ModelSpec, star: StarDef,
                        mapping: StarMapping, warehouse: Warehouse | None = None) -> list[Record]:
    """Explode and map every bronze row; last write per composite key wins."""
    source = spec.source(mapping.source)
    find_key = hub_key_lookup(warehouse, spec)
    latest: dict[tuple, Record] = {}
    for bronze_row in bronze_history:
        for payload in evaluate_mapping(find_key, spec, star, mapping, bronze_row):
            row: Record = {
                "load_source": source.load_source_id,
                "capture_timestamp": bronze_row["capture_timestamp"],
                "load_timestamp": EPOCH,
            }
            row.update(payload)
            latest[row_key(row, star.key_columns)] = row
    return list(latest.values())


def hub_compare_columns(hub: HubDef, include_volatile: bool = False) -> tuple[str, ...]:
    """Columns the oracle can vouch for. capture/initial_capture depend on
    batching (unchanged re-deliveries do not advance them), so they are
    compared only when the caller knows the history was loaded in one batch."""
    columns = ["load_source"] + [name for name, _type, _nullable in hub.mapped_columns]
    if hub.has_delete_flag:
        columns.append("delete_flag")
    if include_volatile:
        columns += ["capture_timestamp", "initial_capture_timestamp"]
    return tuple(columns)


def star_compare_columns(star: StarDef, include_volatile: bool = False) -> tuple[str, ...]:
    columns = ["load_source"] + [name for name, _type, _nullable in star.mapped_columns
                                 if name not in star.key_columns]
    if star.has_delete_flag:
        columns.append("delete_flag")
    if include_volatile and "capture_timestamp" not in star.key_columns:
        columns.append("capture_timestamp")
    return tuple(columns)


def skip_reason(element: HubDef | StarDef) -> str | None:
    """Why the oracle leaves an element unchecked, or None when it checks
    it. It replays exactly one source mapping, and it cannot recompute the
    keys a system-generated hub mints."""
    if len(element.source_mappings) > 1:
        return "has several source mappings"
    if not element.source_mappings:
        return "has no source mapping"
    if isinstance(element, HubDef) and element.key_type != "computed":
        return "has a system-generated key"
    return None


def check_against_oracle(warehouse: Warehouse, spec: ModelSpec,
                         include_volatile: bool = False) -> list[str]:
    """Compare the whole silver layer to the oracle. Returns human-readable
    difference lines, empty when everything agrees. Elements with a
    `skip_reason` are outside the oracle's remit; the CLI reports them as
    skipped, not here."""
    silver = spec.schema_names["silver"]
    bronze = spec.schema_names["bronze"]
    problems: list[str] = []

    def history(source_name: str) -> list[Record]:
        if not warehouse.table_exists(bronze, source_name):
            return []
        return warehouse.read_rows(bronze, source_name)

    for hub in spec.hubs:
        if skip_reason(hub) is not None:
            continue
        mapping = hub.source_mappings[0]
        expected = expected_hub_state(history(mapping.source), spec, hub, mapping, warehouse)
        actual = warehouse.read_rows(silver, hub.table_name)
        diff = diff_states(actual, expected, (hub.key_column,),
                           hub_compare_columns(hub, include_volatile))
        problems.extend(_describe(hub.table_name, diff))
    for star in spec.stars:
        if skip_reason(star) is not None:
            continue
        mapping = star.source_mappings[0]
        expected = expected_star_state(history(mapping.source), spec, star, mapping, warehouse)
        actual = warehouse.read_rows(silver, star.table_name)
        diff = diff_states(actual, expected, star.key_columns,
                           star_compare_columns(star, include_volatile))
        problems.extend(_describe(star.table_name, diff))
    return problems


def _describe(table: str, diff: StateDiff) -> list[str]:
    lines = []
    for key in diff.missing_rows:
        lines.append(f"{table}: missing row {show_key(key)}")
    for key in diff.extra_rows:
        lines.append(f"{table}: unexpected row {show_key(key)}")
    for key, column, actual, expected in diff.mismatched_rows:
        lines.append(f"{table}: {show_key(key)} column {column}: "
                     f"engine={actual!r} oracle={expected!r}")
    return lines

