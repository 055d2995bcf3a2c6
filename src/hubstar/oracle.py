"""Brute-force recomputation of expected silver state, and a row differ.

The engine loads incrementally — bronze offsets, per-batch ranking,
conditional updates. The oracle ignores all of that and derives the final
state straight from the complete bronze history, so agreement between the
two is evidence the incremental machinery is faithful.

Staging is shared with the engine: `silver.stage` reads the bronze through
one `silver.Reads` for the whole check, evaluates the compiled mapping, makes
a computed hub's key and refuses what a load refuses, so the oracle expects
no row that no load could write. Batching, ranking, matching and merging are
recomputed here from scratch.
"""

from __future__ import annotations

from .model import HubDef, ModelSpec, StarDef
from .silver import Reads, default_row, is_default_row, stage
from .storage import Position, Record, Warehouse
from .values import row_key, show_key, values_equal


def expected_state(spec: ModelSpec, element: HubDef | StarDef, reads: Reads) -> list[Record]:
    """Final rows implied by the full bronze history of the element's one
    source mapping, if it has one: a hub's default row, then the top version
    of each identity in first-appearance order. No batching, no offsets. A hub
    version ranks by its `dedup_by` terms, then latest capture, then the
    earliest payload in bronze order; a star version by latest capture, then
    the last payload; an identity with one version takes it unranked.
    `reads` gives the bronze (`stage`, through the mapping's one plan)."""
    hub = isinstance(element, HubDef)
    rows = [default_row(spec, element)] if hub else []
    if not element.source_mappings:
        return rows
    mapping = element.source_mappings[0]
    groups: dict[tuple, list[tuple[int, Record, Record]]] = {}
    for position, (bronze_row, row) in enumerate(
            stage(spec, element, mapping, Position(), reads)):
        groups.setdefault(row_key(row, element.identity), []).append((position, bronze_row, row))

    dedup_order = mapping.dedup_order if hub else ()
    for entries in groups.values():  # dicts keep first-appearance order
        _position, _bronze_row, row = entries[0] if len(entries) == 1 else min(
            entries, key=lambda entry: _rank_key(entry, dedup_order, last_wins=not hub))
        if hub:
            row["initial_capture_timestamp"] = min(e[1]["capture_timestamp"] for e in entries)
        rows.append(row)
    return rows


def _rank_key(entry: tuple[int, Record, Record], dedup_order: tuple[tuple[str, str], ...],
              last_wins: bool):
    """Comparable ranking key: smaller sorts first, i.e. wins."""
    position, bronze_row, _row = entry
    parts = []
    for column, direction in dedup_order:
        value = bronze_row.get(column)
        parts.append(_Ranked(value, descending=direction == "desc"))
    parts.append(_Ranked(bronze_row["capture_timestamp"], descending=True))
    parts.append(-position if last_wins else position)
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


def compare_columns(element: HubDef | StarDef, include_volatile: bool = False) -> tuple[str, ...]:
    """Columns the oracle can vouch for: the load source and the columns a
    load may change. The capture times depend on batching (unchanged
    re-deliveries do not advance them), so they are compared only when the
    caller knows the history was loaded in one batch."""
    columns = ("load_source",) + element.tracked_columns
    if include_volatile:
        present = {c.name for c in element.columns}
        columns += tuple(c for c in ("capture_timestamp", "initial_capture_timestamp")
                         if c in present and c not in element.identity)
    return columns


def skip_reason(element: HubDef | StarDef) -> str | None:
    """Why the oracle leaves an element unchecked, or None when it checks
    it: it replays at most one source mapping."""
    if len(element.source_mappings) > 1:
        return "has several source mappings"
    return None


def check_against_oracle(warehouse: Warehouse, spec: ModelSpec,
                         include_volatile: bool = False) -> list[str]:
    """Compare the whole silver layer to the oracle. Returns human-readable
    difference lines, empty when everything agrees. Elements with a
    `skip_reason` are outside the oracle's remit; the CLI reports them as
    skipped, not here. Each bronze source, and each system-generated-key
    hub that a mapping references, is read once (`Reads`)."""
    silver = spec.schema_names["silver"]
    reads = Reads(warehouse, spec)
    problems: list[str] = []
    for element in [e for e in spec.hubs + spec.stars if skip_reason(e) is None]:
        expected = expected_state(spec, element, reads)
        actual = warehouse.read_rows(silver, element.table_name)
        for (key_columns, actual_part), (_, expected_part) in zip(
                _parts(element, actual), _parts(element, expected)):
            problems += diff_rows(element.table_name, actual_part, expected_part,
                                  key_columns, compare_columns(element, include_volatile))
    return problems


def _parts(element: HubDef | StarDef, rows: list[Record]) -> list[tuple[tuple, list[Record]]]:
    """(key columns, rows) to diff `rows` by, as the loads match them: a
    hub's default row by its key, as a member may share its business keys,
    and every other row by the element's identity."""
    if not isinstance(element, HubDef):
        return [(element.identity, rows)]
    defaults, members = [], []
    for row in rows:
        (defaults if is_default_row(row) else members).append(row)
    return [((element.key_column,), defaults), (element.identity, members)]


def diff_rows(table: str, actual: list[Record], expected: list[Record],
              key_columns: tuple[str, ...], compare: tuple[str, ...]) -> list[str]:
    """Lines naming how `actual` differs from `expected`, rows matched by
    `key_columns`: missing rows, then unexpected rows, then each differing
    `compare` column, with keys sorted in each group. A matched pair whose
    `compare` values are equal and of equal types agrees under
    `values_equal`, so it is passed in one comparison; only the other pairs
    are compared column by column, and only their keys are sorted."""
    actual_by_key = {row_key(r, key_columns): r for r in actual}
    expected_by_key = {row_key(r, key_columns): r for r in expected}
    missing = sorted(k for k in expected_by_key if k not in actual_by_key)
    extra = sorted(k for k in actual_by_key if k not in expected_by_key)
    lines = [f"{table}: missing row {show_key(k)}" for k in missing]
    lines += [f"{table}: unexpected row {show_key(k)}" for k in extra]
    differing = []
    for key, e in expected_by_key.items():
        a = actual_by_key.get(key)
        if a is None:
            continue
        values, wanted = list(map(a.get, compare)), list(map(e.get, compare))
        if values != wanted or list(map(type, values)) != list(map(type, wanted)):
            differing.append(key)
    for key in sorted(differing):
        a, e = actual_by_key[key], expected_by_key[key]
        for column in compare:
            if not values_equal(a.get(column), e.get(column)):
                lines.append(f"{table}: {show_key(key)} column {column}: "
                             f"engine={a.get(column)!r} oracle={e.get(column)!r}")
    return lines
