"""File-backed warehouse: schemas are directories, tables are a manifest
plus a JSON-lines data file (and, for a gold view, a trace of what it was
built from), and every write is a whole-file atomic rename.
Stored lines are canonical, so writes splice encoded lines into a file's
bytes, and a read, one pass over a file's lines, skips a bronze line by the
capture time in its prefix without decoding it; `max_capture_timestamp`
reads a silver table's mark from the same kind of prefix, and hands its
read to `read_rows` for a load that goes on to merge. A Warehouse parses a
manifest once per content and remembers the rows of a table it splices by
line, those it wrote (a copy of the caller's row when it is exactly what
decoding its line gives) and those it read, so a later read of that table
decodes only the lines it has neither written nor seen. A manifest's codec
formats and parses each distinct timestamp once.

Constraints declared in a manifest are never enforced on the write path;
`check_constraints` audits them after the fact, mirroring how analytical
stores treat PRIMARY KEY / FOREIGN KEY as documentation plus tooling.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from decimal import Decimal
from functools import cached_property
from hashlib import sha256
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from .errors import StorageError
from .model import BRONZE_METADATA, DEFAULT_HUB_KEY, ColumnSpec
from .values import format_timestamp, parse_stored_timestamp, row_key, show_key, values_equal

Record = dict[str, Any]
TableKey = tuple[str, str]  # (schema, table)

MANIFEST_FILE = "manifest"
DATA_FILE = "data"
TRACE_FILE = "trace"
# The bytes every canonical bronze line begins with: BRONZE_METADATA puts
# the capture time first, and it is never null.
CAPTURE_PREFIX = ("{" + json.dumps(BRONZE_METADATA[0]) + ':"').encode()
# How every canonical silver line begins (model.HUB_METADATA and
# STAR_METADATA): its load source, an integer, then its capture time, whose
# text the group holds, or nothing where it is null.
SILVER_HEAD = re.compile(rb'\{"load_source":\d+,"capture_timestamp":(?:"([^"\\]*)"|null)(?=[,}])')


def digest(parts: Iterable[bytes]) -> str:
    """Hex sha256 of `parts`, each preceded by its length, so two different
    lists of parts never hash the same bytes."""
    hasher = sha256()
    for part in parts:
        hasher.update(b"%d:" % len(part))
        hasher.update(part)
    return hasher.hexdigest()


def _column_to_json(column: ColumnSpec) -> dict:
    doc: dict[str, Any] = {"name": column.name, "type": column.type,
                           "nullable": column.nullable}
    if column.type == "collection":
        doc["fields"] = [{"name": n, "type": t} for n, t in column.fields]
    return doc


def _column_from_json(doc: Mapping) -> ColumnSpec:
    fields = tuple((f["name"], f["type"]) for f in doc.get("fields", ()))
    return ColumnSpec(doc["name"], doc["type"], bool(doc.get("nullable", True)), fields)


@dataclass(frozen=True)
class ForeignKeySpec:
    columns: tuple[str, ...]
    ref_schema: str
    ref_table: str
    ref_columns: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "columns": list(self.columns),
            "references": {
                "schema": self.ref_schema,
                "table": self.ref_table,
                "columns": list(self.ref_columns),
            },
        }

    @staticmethod
    def from_json(doc: Mapping) -> "ForeignKeySpec":
        ref = doc["references"]
        return ForeignKeySpec(tuple(doc["columns"]), ref["schema"], ref["table"],
                              tuple(ref["columns"]))


@dataclass(frozen=True)
class TableManifest:
    schema: str
    table: str
    columns: tuple[ColumnSpec, ...]
    primary_key: tuple[str, ...] = ()
    unique: tuple[tuple[str, ...], ...] = ()
    foreign_keys: tuple[ForeignKeySpec, ...] = field(default_factory=tuple)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    # The row codec of this layout, compiled once per manifest object. Each
    # direction keeps its own memo of the timestamps it met: encoding each
    # value's text, decoding (through `read_timestamp`, which also reads the
    # capture prefix of a bronze line) each stored text's value.
    read_timestamp = cached_property(lambda self: _timestamp_value({}))
    codec = cached_property(lambda self: _compile(self.columns, _timestamp_text({}),
                                                  self.read_timestamp))

    def to_json(self) -> dict:
        return {
            "schema": self.schema,
            "table": self.table,
            "columns": [_column_to_json(c) for c in self.columns],
            "primary_key": list(self.primary_key),
            "unique": [list(u) for u in self.unique],
            "foreign_keys": [fk.to_json() for fk in self.foreign_keys],
        }

    @staticmethod
    def from_json(doc: Mapping) -> "TableManifest":
        return TableManifest(
            schema=doc["schema"],
            table=doc["table"],
            columns=tuple(_column_from_json(c) for c in doc["columns"]),
            primary_key=tuple(doc.get("primary_key", ())),
            unique=tuple(tuple(u) for u in doc.get("unique", ())),
            foreign_keys=tuple(ForeignKeySpec.from_json(fk)
                               for fk in doc.get("foreign_keys", ())),
        )


def manifest_bytes(manifest: TableManifest) -> bytes:
    """The bytes of the manifest file that holds `manifest`."""
    return (json.dumps(manifest.to_json(), indent=2) + "\n").encode("utf-8")


def _encode_scalar(value: Any) -> str:
    if isinstance(value, str):  # json.dumps(value, ensure_ascii=False) without its dispatch
        return encode_basestring(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, Decimal)):  # unquoted, so the numeric type survives
        return "0" if (text := str(value)) == "-0" else text  # "-0" reads back as 0
    if isinstance(value, datetime):
        return '"' + format_timestamp(value) + '"'  # the canonical form holds nothing to escape
    raise StorageError(f"cannot persist value of type {type(value).__name__}")


def _timestamp_text(texts: dict[datetime, str]) -> Callable[[Any], str]:
    """`_encode_scalar` for a timestamp column, which keeps in `texts` the
    text of each datetime it encodes. Equal aware datetimes are one instant,
    which has one text; but two values of one zone that differ only in
    `fold` compare equal, so only a value with a fixed offset (a `timezone`)
    is kept. Any other value takes `_encode_scalar` every time."""
    def encode(value: Any) -> str:
        if type(value) is not datetime:
            return _encode_scalar(value)
        text = texts.get(value)
        if text is None:
            text = _encode_scalar(value)
            if type(value.tzinfo) is timezone:
                texts[value] = text
        return text
    return encode


def _timestamp_value(values: dict[str, datetime]) -> Callable[[str], datetime]:
    """`parse_stored_timestamp`, which keeps in `values` the value of each
    text it parsed. A text that does not parse is not kept, so it raises on
    every read. Datetimes are immutable, so the rows that hold one text can
    share its value."""
    def parse(text: str) -> datetime:
        value = values.get(text)
        if value is None:
            value = values[text] = parse_stored_timestamp(text)
        return value
    return parse


class Codec(NamedTuple):
    """The compiled row codec of some columns."""
    encode: Callable[[Mapping[str, Any]], str]  # a record as its stored JSON line
    record: Callable[[Mapping[str, Any]], Record]  # a decoded JSON object as a record
    encoders: dict[str, Callable[[Any], str]]  # each column's value as JSON text
    # A copy of a record that equals, in type and repr, what decoding its
    # stored line gives, or None when the decode would differ.
    exact: Callable[[Mapping[str, Any]], Record | None]


# What a column's exact test gives for a value whose stored text decodes
# to another value.
_INEXACT = object()
# The types of the values each kind of column may hold exactly: JSON gives
# a string, an integer or a boolean back as it is.
_PLAIN = frozenset({str, int, bool, type(None)})
_TIMESTAMP = frozenset({datetime, type(None)})
_DECIMAL = frozenset({Decimal, type(None)})
_COLLECTION = frozenset({list, type(None)})


def _exact_timestamp(value: datetime) -> Any:
    """A stored timestamp reads back in UTC as `timezone.utc`, with fold 0."""
    return value if value.tzinfo is timezone.utc and not value.fold else _INEXACT


def _exact_decimal(value: Decimal) -> Any:
    """A stored decimal reads back as a `Decimal` of its text, but `-0` is
    stored as `0`; so any negative zero counts as inexact."""
    return value if value.is_finite() and not (value.is_zero() and value.is_signed()) \
        else _INEXACT


def _compile(columns: tuple[ColumnSpec, ...], encode_timestamp: Callable[[Any], str],
             read_timestamp: Callable[[str], datetime]) -> Codec:
    """The codec of these columns, from one plan that holds each column's
    `"name":` prefix, its value encoder, how a non-null stored value
    becomes its value, and which values decoding gives back exactly (the
    types it may hold, and a test of a non-null value that returns the
    value to keep): a timestamp through `encode_timestamp` and
    `read_timestamp`, exact when a UTC `datetime`; a decimal through
    `Decimal`, exact when a finite `Decimal` other than a negative zero; a
    collection's items through the codec of its fields, exact when a list
    of exact items, kept as copies. Any other value is encoded by its type
    and kept as JSON gives it, exact when a `str`, `int` or `bool`."""
    def column(col: ColumnSpec) -> tuple[Callable[[Any], str], Callable[[Any], Any] | None,
                                         frozenset[type], Callable[[Any], Any] | None]:
        if col.type == "timestamp":
            return encode_timestamp, read_timestamp, _TIMESTAMP, _exact_timestamp
        if col.type == "decimal":
            return _encode_scalar, lambda raw: (raw if isinstance(raw, Decimal)
                                                else Decimal(str(raw))), _DECIMAL, _exact_decimal
        if col.type == "collection":
            encode_item, item, _, exact_item = _compile(
                tuple(ColumnSpec(*field) for field in col.fields), encode_timestamp,
                read_timestamp)

            def exact_items(items: list) -> Any:
                copies = list(map(exact_item, items))
                return _INEXACT if None in copies else copies
            return (lambda items: "null" if items is None
                    else "[" + ",".join(map(encode_item, items)) + "]",
                    lambda items: list(map(item, items)), _COLLECTION, exact_items)
        return _encode_scalar, None, _PLAIN, None

    plan = [(col.name, json.dumps(col.name) + ":", *column(col)) for col in columns]
    names = tuple(col.name for col in columns)
    converted = [(name, convert) for name, _, _, convert, _, _ in plan if convert is not None]
    types = [exact_types for _, _, _, _, exact_types, _ in plan]
    tested = [(name, test) for name, _, _, _, _, test in plan if test is not None]

    def encode(record: Mapping[str, Any]) -> str:
        get = record.get
        return "{" + ",".join([prefix + encode_value(get(name))
                               for name, prefix, encode_value, _, _, _ in plan]) + "}"

    def record(doc: Mapping[str, Any]) -> Record:
        get = doc.get
        out = {name: get(name) for name in names}
        for name, convert in converted:
            raw = out[name]
            if raw is not None:
                out[name] = convert(raw)
        return out

    def exact(source: Mapping[str, Any]) -> Record | None:
        # A dict of every column and no other, as decoding gives.
        if type(source) is not dict or len(source) != len(names):
            return None
        try:
            out = {name: source[name] for name in names}
        except KeyError:
            return None
        if not all(map(frozenset.__contains__, types, map(type, out.values()))):
            return None
        for name, test in tested:
            value = out[name]
            if value is not None:
                value = out[name] = test(value)  # a collection's items are copies
                if value is _INEXACT:
                    return None
        return out
    return Codec(encode, record,
                 {name: encode_value for name, _, encode_value, _, _, _ in plan}, exact)


def encode_row(manifest: TableManifest, record: Mapping[str, Any]) -> str:
    """One record as a single JSON line, keys in manifest column order.
    Every row storage writes is encoded through this name."""
    return manifest.codec.encode(record)


def _encode_rows(manifest: TableManifest, rows: Iterable[Record]) -> bytes:
    return "".join(encode_row(manifest, r) + "\n" for r in rows).encode("utf-8")


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def json_decoder(object_pairs_hook: Callable[[list], Any] | None = None) -> json.JSONDecoder:
    """A JSON decoder that reads a number with a fraction or exponent as
    `Decimal` and refuses the bare `NaN`, `Infinity` and `-Infinity` that
    Python's own decoder accepts; `object_pairs_hook` as `json` takes it."""
    return json.JSONDecoder(parse_float=Decimal, parse_constant=_refuse_constant,
                            object_pairs_hook=object_pairs_hook)


_JSON_DECODER = json_decoder()


def decode_json(text: str, decoder: json.JSONDecoder = _JSON_DECODER) -> Any:
    """The JSON value of `text` through `decoder`, by default one built once
    by `json_decoder` (`json.loads` with an argument builds one per call);
    one value with nothing around it, as a stripped stored line is, through
    `raw_decode` alone, which skips the two whitespace matches of `decode`.
    It raises ValueError for what is not JSON, and for a leading byte-order
    mark, which `json.loads` alone refuses by name."""
    try:
        value, end = decoder.raw_decode(text)
        if end == len(text):
            return value
    except ValueError:  # `decode` gives the error, or the value inside whitespace
        pass
    return (json.loads if text.startswith("\ufeff") else decoder.decode)(text)


def decode_row(manifest: TableManifest, line: str) -> Record:
    """One stored line as a record of the manifest's columns. Every row
    storage reads is decoded through this name."""
    return manifest.codec.record(decode_json(line))


# What decoding a stored line that is not a row of its manifest can raise:
# not JSON, not UTF-8, not an object, or a value not of its column's type.
_UNDECODABLE = (ValueError, ArithmeticError, AttributeError, TypeError)


def _atomic_write(path: Path, content: bytes, current: bytes | None = None):
    """Replace the file with `content` by a rename, unless it holds them
    already (`current`, if the caller has read it); then it is left alone."""
    if current is None and path.exists():
        current = path.read_bytes()
    if current != content:
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(content)
        os.replace(tmp, path)


class Snapshot(NamedTuple):
    """One read of a table (`Warehouse.max_capture_timestamp`): its
    manifest, its data file's non-blank lines, stripped, and the latest
    capture time read from them."""
    manifest: TableManifest
    lines: list[bytes]
    mark: datetime | None


class Warehouse:
    """All tables under one root directory: `<root>/<schema>/<table>/`."""

    def __init__(self, root: Path | str):
        self.root = Path(root)
        # Each manifest file's bytes and what they parse to.
        self._manifests: dict[bytes, TableManifest] = {}
        # Each table this object spliced (append_rows with `lines`): a
        # manifest and, under it, the row of each line its last whole read
        # returned or a splice since wrote.
        self._memo: dict[TableKey, tuple[TableManifest, dict[bytes, Record]]] = {}

    def table_dir(self, schema: str, table: str) -> Path:
        return self.root / schema / table

    def table_exists(self, schema: str, table: str) -> bool:
        return (self.table_dir(schema, table) / MANIFEST_FILE).is_file()

    def list_tables(self, schema: str) -> list[str]:
        schema_dir = self.root / schema
        if not schema_dir.is_dir():
            return []
        return sorted(p.name for p in schema_dir.iterdir()
                      if (p / MANIFEST_FILE).is_file())

    def _write_manifest(self, manifest: TableManifest) -> bytes:
        """Write the manifest file and return its bytes."""
        table_dir = self.table_dir(manifest.schema, manifest.table)
        table_dir.mkdir(parents=True, exist_ok=True)
        content = manifest_bytes(manifest)
        _atomic_write(table_dir / MANIFEST_FILE, content)
        return content

    def create_table(self, manifest: TableManifest):
        """Write a new table's manifest and an empty data file; refuses to
        clobber an existing table."""
        if self.table_exists(manifest.schema, manifest.table):
            raise StorageError(f"table {manifest.schema}.{manifest.table} already exists")
        self._write_manifest(manifest)
        data = self.table_dir(manifest.schema, manifest.table) / DATA_FILE
        if not data.exists():
            _atomic_write(data, b"")

    def replace_table(self, manifest: TableManifest, rows: list[Record]) -> str:
        """Create-or-overwrite a table with exactly these rows (gold builds),
        and return the `table_digest` of what it wrote, computed from the
        bytes in memory. Rebuilding identical content leaves the files
        untouched (`_atomic_write`)."""
        content, data = self._write_manifest(manifest), _encode_rows(manifest, rows)
        _atomic_write(self.table_dir(manifest.schema, manifest.table) / DATA_FILE, data)
        return digest([content, data])

    def table_digest(self, schema: str, table: str) -> str:
        """The `digest` of the table's manifest and data bytes; a missing
        data file hashes apart from an empty one."""
        table_dir = self.table_dir(schema, table)
        manifest = table_dir / MANIFEST_FILE
        if not manifest.is_file():
            raise StorageError(f"no such table {schema}.{table}")
        data = table_dir / DATA_FILE
        return digest([manifest.read_bytes()] + ([data.read_bytes()] if data.is_file() else []))

    def write_trace(self, manifest: TableManifest, inputs: str, rows: int, output: str):
        """Record that the table now holds `rows` rows built from `inputs`,
        a digest its builder computes: a canonical JSON object of `inputs`,
        `output`, the table's own `table_digest` as `replace_table` returned
        it, and `rows`. Called after the data is written, so a crash in
        between leaves the previous trace, whose inputs or output no longer
        match."""
        trace = {"inputs": inputs, "output": output, "rows": rows}
        _atomic_write(self.table_dir(manifest.schema, manifest.table) / TRACE_FILE,
                      (json.dumps(trace, sort_keys=True) + "\n").encode("utf-8"))

    def traced_rows(self, manifest: TableManifest, inputs: str) -> int | None:
        """The rows the table's trace records, when the trace still holds:
        it records `inputs`, and its `output` is the digest of the table's
        files as they are now. None when it does not hold, or the table or
        its trace is missing or unreadable."""
        if not self.table_exists(manifest.schema, manifest.table):
            return None
        try:
            trace = json.loads((self.table_dir(manifest.schema, manifest.table)
                                / TRACE_FILE).read_bytes())
        except (FileNotFoundError, ValueError):  # no trace, or not JSON in UTF-8
            return None
        if (not isinstance(trace, dict) or trace.get("inputs") != inputs
                or type(trace.get("rows")) is not int
                or trace.get("output") != self.table_digest(manifest.schema, manifest.table)):
            return None
        return trace["rows"]

    def manifest(self, schema: str, table: str) -> TableManifest:
        """The table's manifest, parsed once for each content it has."""
        try:
            content = (self.table_dir(schema, table) / MANIFEST_FILE).read_bytes()
        except (FileNotFoundError, NotADirectoryError):
            raise StorageError(f"no such table {schema}.{table}") from None
        if content not in self._manifests:
            self._manifests[content] = TableManifest.from_json(json.loads(content.decode("utf-8")))
        return self._manifests[content]

    def read_rows(self, schema: str, table: str, captured_after: datetime | None = None,
                  snapshot: Snapshot | None = None) -> list[Record]:
        """The table's rows in file order, in a new list, from one pass over
        the file's non-blank lines, or over those of `snapshot` under its
        manifest without reading the files again. Rows may be shared with
        other reads through this object, as is the row of a line held twice,
        so callers must not mutate them. With `captured_after`, a line that
        begins with CAPTURE_PREFIX is skipped undecoded unless that capture
        time is strictly later, and any other row is returned only when
        captured strictly later. A row comes from this read, from the memo of
        a table this object splices (under an equal manifest), which holds
        the rows of the lines its splices wrote and its last read returned,
        or from decoding; a read without `captured_after` keeps the rows of
        the lines it returned.
        A line that does not decode, or whose tested capture time is null,
        raises StorageError naming its number among the non-blank lines."""
        if snapshot is not None:
            return self._read(schema, table, snapshot.manifest, snapshot.lines, captured_after)
        manifest = self.manifest(schema, table)
        data = self.table_dir(schema, table) / DATA_FILE
        if not data.is_file():
            return []
        with data.open("rb") as fh:
            return self._read(schema, table, manifest, filter(None, map(bytes.strip, fh)),
                              captured_after)

    def _read(self, schema: str, table: str, manifest: TableManifest,
              lines: Iterable[bytes], captured_after: datetime | None) -> list[Record]:
        """`read_rows` over these non-blank lines, stripped."""
        memo, kept = self._kept(schema, table, manifest)
        read: dict[bytes, Record] = {}  # each line of this read and its row
        rows, start = [], len(CAPTURE_PREFIX)
        try:
            for number, line in enumerate(lines, start=1):
                prefixed = captured_after is not None and line.startswith(CAPTURE_PREFIX)
                if prefixed and manifest.read_timestamp(
                        line[start:line.index(b'"', start)].decode()) <= captured_after:
                    continue
                row = read.get(line)
                if row is None:
                    row = kept.get(line)
                    if row is None:
                        row = decode_row(manifest, line.decode())
                    read[line] = row
                if captured_after is not None and not prefixed:
                    if row["capture_timestamp"] is None:
                        raise StorageError(f"{schema}.{table}: line {number}: "
                                           "column capture_timestamp is null")
                    if row["capture_timestamp"] <= captured_after:
                        continue
                rows.append(row)
        except _UNDECODABLE as exc:
            raise StorageError(f"{schema}.{table}: line {number} does not decode: {exc}") from exc
        if memo is not None and captured_after is None:
            self._memo[schema, table] = (manifest, read)
        return rows

    def _kept(self, schema: str, table: str, manifest: TableManifest):
        """The table's memo, if this object splices it, and the rows it
        keeps by line under `manifest` (none under another manifest)."""
        memo = self._memo.get((schema, table))
        return memo, memo[1] if memo is not None and memo[0] == manifest else {}

    def append_rows(self, schema: str, table: str, rows: list[Record],
                    replace: Mapping[int, Record] | None = None, lines: int | None = None):
        """Put each row of `replace` in place of the line at its position,
        counted from 0 as `read_rows` returns them, and add `rows` after the
        last line, in one write. Lines not replaced are kept as bytes and never
        decoded: the file holds canonical lines, so this equals encoding every
        row. A last line without its newline is ended before `rows`. `lines`
        is the number of lines the caller read; a file that holds another
        number raises StorageError and is left as it is.

        With `lines`, this object keeps the table's rows: the row of each
        line it writes here, and from its next `read_rows` on the row of
        every line that read returns, so each later read decodes only the
        lines that neither wrote nor returned. The row kept for a written
        line is a copy of the caller's row when the codec's `exact` says
        decoding that line gives it back, and otherwise the line's decode."""
        replace = replace or {}
        if not rows and not replace:
            return
        manifest = self.manifest(schema, table)
        data = self.table_dir(schema, table) / DATA_FILE
        existing = content = data.read_bytes() if data.is_file() else b""
        written: list[tuple[bytes, Record]] = []  # (line, row) for each row of this write
        if replace or lines is not None:
            kept = [line for line in existing.split(b"\n") if line.strip()]
            if lines is not None and len(kept) != lines:
                raise StorageError(f"{schema}.{table}: data holds {len(kept)} rows, "
                                   f"not the {lines} read; nothing written")
            for position, row in replace.items():
                if not 0 <= position < len(kept):
                    raise StorageError(f"{schema}.{table}: no row at position {position}")
                kept[position] = encode_row(manifest, row).encode("utf-8")
                written.append((kept[position], row))
            content = b"".join(line + b"\n" for line in kept)
        elif content and not content.endswith(b"\n"):
            content += b"\n"
        added = _encode_rows(manifest, rows)
        _atomic_write(data, content + added, existing)
        if lines is not None:  # no stored line holds a newline, so each row gives one
            self._keep((schema, table), manifest, written + list(zip(added.split(b"\n"), rows)))

    def _keep(self, key: TableKey, manifest: TableManifest,
              written: list[tuple[bytes, Record]]):
        """Add to the table's memo the row of each (line, row) written, as
        `append_rows` says; a line that does not decode is left for the read
        to refuse."""
        held = self._memo.get(key)
        memo = held[1] if held is not None and held[0] == manifest else {}
        exact = manifest.codec.exact
        for line, row in written:
            if line not in memo:
                kept = exact(row)
                if kept is None:
                    try:
                        kept = decode_row(manifest, line.decode())
                    except _UNDECODABLE:
                        continue
                memo[line] = kept
        self._memo[key] = (manifest, memo)

    # Nothing in hubstar calls upsert_rows or scan; they stay because the
    # benchmark's tracer (bench/spans.py) wraps them.

    def upsert_rows(self, schema: str, table: str, rows: list[Record]):
        """Replace rows whose primary key already exists (keeping their
        position), append the rest, in one splice. The incoming batch must not
        repeat a key."""
        manifest = self.manifest(schema, table)
        if not manifest.primary_key:
            raise StorageError(f"{schema}.{table} has no primary key; use append_rows")
        existing = self.read_rows(schema, table)
        index = {row_key(r, manifest.primary_key): i for i, r in enumerate(existing)}
        seen: set[tuple] = set()
        replace: dict[int, Record] = {}
        appended: list[Record] = []
        for record in rows:
            key = row_key(record, manifest.primary_key)
            if key in seen:
                raise StorageError(f"duplicate primary key within one batch for "
                                   f"{schema}.{table}: {show_key(key)}")
            seen.add(key)
            if key in index:
                replace[index[key]] = record
            else:
                appended.append(record)
        self.append_rows(schema, table, appended, replace=replace, lines=len(existing))

    def scan(self, schema: str, table: str,
             where: Mapping[str, Any] | None = None) -> list[Record]:
        rows = self.read_rows(schema, table)
        if not where:
            return rows
        return [r for r in rows
                if all(values_equal(r.get(col), want) for col, want in where.items())]

    def max_capture_timestamp(self, schema: str, table: str,
                              default_key: str | None = None) -> Snapshot:
        """The latest capture time among the table's rows, leaving out a
        hub's default row (one whose `default_key` column holds
        DEFAULT_HUB_KEY), or None when no row is left; with the one read of
        the files it was taken from, for `read_rows` to decode. A line takes
        its row from the memo of a table this object splices, as in
        `read_rows`. Otherwise a line that begins as SILVER_HEAD says is not
        decoded: its capture time is read from that text, and it is a
        default row when its first `,"<default_key>":` holds `"-1"`, which
        is its own column wherever no collection column comes before it, as
        in every hub. Any other line is decoded. A capture time left in that
        is null, or whose text does not read, raises StorageError naming
        its line."""
        manifest = self.manifest(schema, table)
        data = self.table_dir(schema, table) / DATA_FILE
        lines = list(filter(None, map(bytes.strip, data.read_bytes().split(b"\n")))) \
            if data.is_file() else []
        _memo, kept = self._kept(schema, table, manifest)
        key = None if default_key is None else ("," + json.dumps(default_key) + ":").encode()
        default = encode_basestring(DEFAULT_HUB_KEY).encode()
        mark = None
        for number, line in enumerate(lines, start=1):
            row = kept.get(line)
            if row is None:
                try:
                    head = SILVER_HEAD.match(line)
                    if head is None:
                        row = decode_row(manifest, line.decode())
                    elif key is not None and 0 <= (at := line.find(key)) \
                            and line.startswith(default, at + len(key)):
                        continue
                    else:
                        text = head[1]
                        capture = None if text is None else manifest.read_timestamp(
                            text.decode())
                except _UNDECODABLE as exc:
                    raise StorageError(f"{schema}.{table}: line {number} does not decode: "
                                       f"{exc}") from exc
            if row is not None:
                if default_key is not None and row.get(default_key) == DEFAULT_HUB_KEY:
                    continue
                capture = row.get("capture_timestamp")
            if capture is None:
                raise StorageError(f"{schema}.{table}: line {number}: "
                                   "column capture_timestamp is null")
            if mark is None or capture > mark:
                mark = capture
        return Snapshot(manifest, lines, mark)

    def check_constraints(self, schema: str, table: str) -> list[str]:
        """Audit one table against its declared constraints; returns
        human-readable violation lines, empty when clean."""
        return self._audit(schema, [table])

    def check_all(self, schema: str) -> list[str]:
        return self._audit(schema, self.list_tables(schema))

    def _audit(self, schema: str, tables: list[str]) -> list[str]:
        """The violation lines of some tables of one schema, table by table.
        The first loop reads each table once and checks its non-null columns,
        primary key and unique sets; it keeps the key sets that foreign keys
        match against and each foreign key's non-null keys. The second checks
        those keys, reading a referenced table only if the first did not."""
        manifests = {table: self.manifest(schema, table) for table in tables}
        wanted: dict[TableKey, set[tuple[str, ...]]] = {}
        for manifest in manifests.values():
            for fk in manifest.foreign_keys:
                wanted.setdefault((fk.ref_schema, fk.ref_table), set()).add(fk.ref_columns)
        key_sets: dict[tuple[str, str, tuple[str, ...]], set[tuple]] = {}

        def keep_key_sets(ref_schema: str, ref_table: str, rows: list[Record]):
            for columns in wanted.get((ref_schema, ref_table), ()):
                key_sets[ref_schema, ref_table, columns] = {row_key(r, columns) for r in rows}

        found: dict[str, list[str]] = {}
        pending: list[tuple[str, ForeignKeySpec, list[tuple]]] = []
        for table, manifest in manifests.items():
            rows = self.read_rows(schema, table)
            keep_key_sets(schema, table, rows)
            problems = found[table] = []
            for col in manifest.columns:
                nulls = 0 if col.nullable else sum(1 for r in rows if r.get(col.name) is None)
                if nulls:
                    problems.append(f"{schema}.{table}: column {col.name} is not nullable "
                                    f"but holds {nulls} null(s)")
            if manifest.primary_key:
                for key in _duplicates(rows, manifest.primary_key):
                    problems.append(f"{schema}.{table}: duplicate primary key {show_key(key)}")
            for unique_cols in manifest.unique:
                # A hub's `-1` default row holds stand-ins for its business
                # keys, which a member may share, so it is left out.
                members = [r for r in rows
                           if tuple(map(r.get, manifest.primary_key)) != (DEFAULT_HUB_KEY,)]
                for key in _duplicates(members, unique_cols):
                    problems.append(f"{schema}.{table}: duplicate value {show_key(key)} "
                                    f"for unique ({', '.join(unique_cols)})")
            for fk in manifest.foreign_keys:
                keys = [key for key in (row_key(r, fk.columns) for r in rows) if None not in key]
                pending.append((table, fk, keys))
        for table, fk, keys in pending:
            ref = (fk.ref_schema, fk.ref_table)
            if not self.table_exists(*ref):
                found[table].append(f"{schema}.{table}: foreign key references missing table "
                                    f"{fk.ref_schema}.{fk.ref_table}")
                continue
            if (*ref, fk.ref_columns) not in key_sets:
                keep_key_sets(*ref, self.read_rows(*ref))
            known = key_sets[(*ref, fk.ref_columns)]
            found[table].extend(f"{schema}.{table}: ({', '.join(fk.columns)}) = {show_key(key)} "
                                f"not found in {fk.ref_schema}.{fk.ref_table}"
                                for key in keys if key not in known)
        return [line for table in tables for line in found[table]]


def _duplicates(rows: list[Record], columns: tuple[str, ...]) -> list[tuple]:
    seen: dict[tuple, int] = {}
    for r in rows:
        key = row_key(r, columns)
        seen[key] = seen.get(key, 0) + 1
    return sorted(k for k, n in seen.items() if n > 1)
