"""File-backed warehouse: schemas are directories, tables are a manifest
plus a JSON-lines data file (and, for a gold view, a trace of what it was
built from; for a silver table, a state record of the bronze it consumed).
A write that only adds rows (every bronze ingest, a silver load that only
inserts) appends them in place; every other write renames a new file into
place. A write that fails and returns leaves the old bytes either way.
Stored lines are canonical, so writes splice encoded lines into a file's
bytes, and refuse, before touching a file, a value no read would give
back. Every read starts from one snapshot of a table's files and makes
one pass over its lines: the whole data file, or (`tail`) its complete
lines past a `Position` a state record holds, read from that byte on, so a
load reads no bronze it consumed before. A state record also holds its
data file's byte length as written, and a record whose length is not the
file's size reads as none. A Warehouse holds only its root and the
manifests it parsed, once per content; a manifest object
keeps the rows of a table the Warehouse splices by line, those it wrote (a
copy of the caller's row when it is exactly what decoding its line gives)
and those it read, so a later read of that table decodes only the lines it
has neither written nor seen. A manifest's codec formats and parses each
distinct timestamp once.

Constraints declared in a manifest are never enforced on the write path;
`check_constraints` audits them after the fact, mirroring how analytical
stores treat PRIMARY KEY / FOREIGN KEY as documentation plus tooling.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from decimal import Decimal
from functools import cached_property
from hashlib import sha256
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from .errors import StorageError
from .model import SYSTEM_LOAD_SOURCE, ColumnSpec
from .values import format_timestamp, parse_stored_timestamp, row_key, show_key, values_equal

Record = dict[str, Any]
TableKey = tuple[str, str]  # (schema, table)

MANIFEST_FILE = "manifest"
DATA_FILE = "data"
TRACE_FILE = "trace"
STATE_FILE = "state"


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
    # value's text, decoding each stored text's value.
    codec = cached_property(lambda self: _compile(self.columns, _timestamp_text({}),
                                                  _timestamp_value({})))
    # The row of each line that a `Warehouse` keeps for a table it splices
    # (`append_rows` with `lines`), under this manifest object: a line's row
    # depends only on the line and the layout, so a manifest that changes
    # is a new object and keeps nothing.
    kept = cached_property(lambda self: {})

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
        if isinstance(value, Decimal) and not value.is_finite():  # JSON has no such number
            raise StorageError(f"cannot persist non-finite decimal {value}")
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


# The types of the values each kind of column may hold exactly: JSON gives
# a string, an integer or a boolean back as it is.
_PLAIN = frozenset({str, int, bool, type(None)})
_TIMESTAMP = frozenset({datetime, type(None)})
_DECIMAL = frozenset({Decimal, type(None)})
# A collection counts as exact only when null: the loads, whose splices keep
# rows, write silver, and no silver column is a collection.
_NULL = frozenset({type(None)})


def _exact_timestamp(value: datetime) -> bool:
    """A stored timestamp reads back in UTC as `timezone.utc`, with fold 0."""
    return value.tzinfo is timezone.utc and not value.fold


def _exact_decimal(value: Decimal) -> bool:
    """A stored decimal reads back as a `Decimal` of its text, but `-0` is
    stored as `0`; so any negative zero counts as inexact. (A non-finite
    decimal is never stored: `_encode_scalar` refuses it.)"""
    return not (value.is_zero() and value.is_signed())


def _compile(columns: tuple[ColumnSpec, ...], encode_timestamp: Callable[[Any], str],
             read_timestamp: Callable[[str], datetime]) -> Codec:
    """The codec of these columns, from one plan that holds each column's
    `"name":` prefix, its value encoder, how a non-null stored value
    becomes its value, and which values decoding gives back exactly (the
    types it may hold, and a test of a non-null value): a timestamp
    through `encode_timestamp` and `read_timestamp`, exact when a UTC
    `datetime`; a decimal through `Decimal`, exact when a finite `Decimal`
    other than a negative zero; a collection's items through the codec of
    its fields, exact only when null. Any other value is encoded by its
    type and kept as JSON gives it, exact when a `str`, `int` or `bool`."""
    def column(col: ColumnSpec) -> tuple[Callable[[Any], str], Callable[[Any], Any] | None,
                                         frozenset[type], Callable[[Any], bool] | None]:
        if col.type == "timestamp":
            return encode_timestamp, read_timestamp, _TIMESTAMP, _exact_timestamp
        if col.type == "decimal":
            return _encode_scalar, lambda raw: (raw if isinstance(raw, Decimal)
                                                else Decimal(str(raw))), _DECIMAL, _exact_decimal
        if col.type == "collection":
            encode_item, item, _, _ = _compile(
                tuple(ColumnSpec(*field) for field in col.fields), encode_timestamp,
                read_timestamp)
            return (lambda items: "null" if items is None
                    else "[" + ",".join(map(encode_item, items)) + "]",
                    lambda items: list(map(item, items)), _NULL, None)
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
            if value is not None and not test(value):
                return None
        return out
    return Codec(encode, record,
                 {name: encode_value for name, _, encode_value, _, _, _ in plan}, exact)


def encode_row(manifest: TableManifest, record: Mapping[str, Any]) -> str:
    """One record as a single JSON line, keys in manifest column order.
    Every row storage writes is encoded through this name."""
    return manifest.codec.encode(record)


def _encode_rows(manifest: TableManifest, rows: Iterable[Record]) -> bytes:
    """The stored lines of `rows`, each ended. A value no read would give
    back (a non-finite decimal, a string holding a lone surrogate, which
    UTF-8 cannot hold, or a type the codec has no text for) raises
    StorageError naming the table, so a write refuses it before it touches
    a file."""
    try:
        return "".join(encode_row(manifest, r) + "\n" for r in rows).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise StorageError(f"{manifest.schema}.{manifest.table}: cannot persist a string "
                           f"holding the lone surrogate {exc.object[exc.start]!r}") from exc
    except StorageError as exc:
        raise StorageError(f"{manifest.schema}.{manifest.table}: {exc}") from exc


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
    already (`current`, if the caller has read it); then it is left alone.
    A temp write or rename that raises deletes the temp file and leaves the
    old file as it was."""
    if current is None and path.exists():
        current = path.read_bytes()
    if current != content:
        tmp = path.with_name(path.name + ".tmp")
        try:
            tmp.write_bytes(content)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def _append(path: Path, content: bytes):
    """Add `content` at the end of the file, made empty if missing, in one
    `os.write` on an `O_APPEND` descriptor; a non-empty file whose last byte
    is not a newline has one written first, in the same write. A write that
    raises or returns short truncates the file back to its old size before
    it raises, so a failure that returns leaves the old bytes."""
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            content = b"\n" + content
        try:
            if os.write(fd, content) != len(content):
                raise OSError(f"{path}: short write")
        except BaseException:
            os.ftruncate(fd, size)
            raise
    finally:
        os.close(fd)


class Position(NamedTuple):
    """A place in a data file where a line starts: its byte offset, and the
    non-blank lines before it."""
    offset: int = 0
    lines: int = 0


class Snapshot(NamedTuple):
    """One read of a table's files: its manifest and its data file's
    non-blank lines, stripped. A `Warehouse.tail` lists the positions it
    passed: its start, then the position past each of its lines; a read of
    the whole file lists none."""
    manifest: TableManifest
    lines: list[bytes]
    positions: list[Position]


class TableState(NamedTuple):
    """A silver table's state record: the latest capture among its members
    (None while it has none), and for each of its mappings, keyed by its
    source (`silver.record_key`), the `Position` past the last line of that
    source it consumed."""
    mark: datetime | None
    sources: Mapping[str, Position]


class Warehouse:
    """All tables under one root directory: `<root>/<schema>/<table>/`."""

    def __init__(self, root: Path | str):
        self.root = Path(root)
        # Each manifest file's bytes and what they parse to.
        self._manifests: dict[bytes, TableManifest] = {}

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
        data = _encode_rows(manifest, rows)
        content = self._write_manifest(manifest)
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

    def tail(self, schema: str, table: str, start: Position) -> Snapshot:
        """The table's manifest and the non-blank lines, stripped, of its
        data file's complete lines past `start`, from one read that begins
        at the byte before `start` (none without a data file), with the
        positions the read passed: `start`, then the position past each of
        those lines. A last line without its newline is not yet complete,
        so it is left for a later read. When no line ends at `start` (the
        file is shorter, or was rewritten) the tail holds no line and no
        position."""
        manifest = self.manifest(schema, table)
        offset, before = start.offset, max(start.offset - 1, 0)
        try:
            with (self.table_dir(schema, table) / DATA_FILE).open("rb") as data:
                data.seek(before)
                content = data.read()
        except FileNotFoundError:
            content = b""
        if offset and content[:1] != b"\n":
            return Snapshot(manifest, [], [])
        lines, positions = [], [start]
        for piece in content[offset - before:content.rfind(b"\n") + 1].split(b"\n")[:-1]:
            offset += len(piece) + 1
            if line := piece.strip():
                lines.append(line)
                positions.append(Position(offset, start.lines + len(lines)))
        return Snapshot(manifest, lines, positions)

    def read_rows(self, schema: str, table: str,
                  snapshot: Snapshot | None = None) -> list[Record]:
        """The table's rows in file order, in a new list, from one pass over
        the non-blank lines of one read of its files, or of `snapshot`
        without reading them again. Rows may be shared with other reads
        through this object, as is the row of a line held twice, so callers
        must not mutate them. A row comes from this read, from the rows its
        manifest keeps for a table this object splices (`append_rows`), or
        from decoding; a read of a spliced table keeps the rows of the lines
        it returned, and only those. A line that does not decode raises
        StorageError naming its number among the non-blank lines of the
        file (a `tail`'s count from its start)."""
        if snapshot is None:
            manifest = self.manifest(schema, table)
            data = self.table_dir(schema, table) / DATA_FILE
            pieces = data.read_bytes().split(b"\n") if data.is_file() else []
            snapshot = Snapshot(manifest, list(filter(None, map(bytes.strip, pieces))), [])
        manifest, lines, positions = snapshot
        kept = manifest.kept
        read: dict[bytes, Record] = {}  # each line of this read and its row
        rows = []
        try:
            for number, line in enumerate(lines, start=positions[0].lines + 1 if positions else 1):
                row = read.get(line)
                if row is None:
                    row = kept.get(line)
                    if row is None:
                        row = decode_row(manifest, line.decode())
                    read[line] = row
                rows.append(row)
        except _UNDECODABLE as exc:
            raise StorageError(f"{schema}.{table}: line {number} does not decode: {exc}") from exc
        if kept:
            kept.clear()
            kept.update(read)
        return rows

    def read_state(self, schema: str, table: str) -> TableState | None:
        """The table's state record, or None without one, and None when its
        `length` is not the data file's size in bytes, or is missing (an
        older hubstar wrote no length): the data file was written after the
        record, or edited by hand. A record that does not parse, or holds a
        position that is not two counts, raises StorageError."""
        table_dir = self.table_dir(schema, table)
        try:
            content = (table_dir / STATE_FILE).read_bytes()
            size = (table_dir / DATA_FILE).stat().st_size
        except FileNotFoundError:
            return None
        try:
            doc = json.loads(content)
            sources = {source: Position(at["offset"], at["lines"])
                       for source, at in doc["sources"].items()}
            for source, position in sources.items():
                if not all(type(count) is int and count >= 0 for count in position):
                    raise ValueError(f"source {source} holds no position")
            mark = doc["mark"]
            state = TableState(None if mark is None else _timestamp_value({})(mark), sources)
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            raise StorageError(f"{schema}.{table}: the state record does not parse: "
                               f"{exc}") from exc
        return state if doc.get("length") == size else None

    def write_state(self, schema: str, table: str, state: TableState):
        """Write the table's state record, one line of JSON with sorted
        keys, by a rename (`_atomic_write`), with the data
        file's size in bytes as its `length`. A load calls it after the data
        file's write, so a crash in between leaves the previous record,
        whose length no longer holds (`read_state`) when that write changed
        the file's size, or else whose bronze the next load merges again."""
        table_dir = self.table_dir(schema, table)
        sources = {source: at._asdict() for source, at in state.sources.items()}
        text = ('{"length": %d, "mark": ' % (table_dir / DATA_FILE).stat().st_size
                + _encode_scalar(state.mark) + ', "sources": '
                + json.dumps(sources, sort_keys=True) + "}\n")
        _atomic_write(table_dir / STATE_FILE, text.encode("utf-8"))

    def append_rows(self, schema: str, table: str, rows: list[Record],
                    replace: Mapping[int, Record] | None = None, lines: int | None = None):
        """Put each row of `replace` in place of the line at its position,
        counted from 0 as `read_rows` returns them, and add `rows` after the
        last line, in one write. Lines not replaced are kept as bytes and never
        decoded: the file holds canonical lines, so this equals encoding every
        row. A last line without its newline is ended before `rows`. `lines`
        is the number of lines the caller read; a file that holds another
        number raises StorageError and is left as it is. Every row is encoded
        before the file is touched. Without `replace` the write appends in
        place (`_append`), reading no byte of the file but its last when
        `lines` is None; a splice renames a new file into place
        (`_atomic_write`). A write that fails leaves the old bytes either way.

        With `lines`, the table's manifest keeps its rows (`kept`): the row
        of each line written here, and from the next `read_rows` on the row
        of every line that read returns, so each later read decodes only the
        lines that neither wrote nor returned. The row kept for a written
        line is a copy of the caller's row when the codec's `exact` says
        decoding that line gives it back, and otherwise the line's decode; a
        line that does not decode keeps none, and the read refuses it."""
        replace = replace or {}
        if not rows and not replace:
            return
        manifest = self.manifest(schema, table)
        data = self.table_dir(schema, table) / DATA_FILE
        written: list[tuple[bytes, Record]] = []  # (line, row) for each row of this write
        if replace or lines is not None:
            existing = data.read_bytes() if data.is_file() else b""
            stored = [line for line in existing.split(b"\n") if line.strip()]
            if lines is not None and len(stored) != lines:
                raise StorageError(f"{schema}.{table}: data holds {len(stored)} rows, "
                                   f"not the {lines} read; nothing written")
            for position, row in replace.items():
                if not 0 <= position < len(stored):
                    raise StorageError(f"{schema}.{table}: no row at position {position}")
                stored[position] = _encode_rows(manifest, [row])[:-1]
                written.append((stored[position], row))
        added = _encode_rows(manifest, rows)
        if replace:
            _atomic_write(data, b"".join(line + b"\n" for line in stored) + added, existing)
        else:
            _append(data, added)
        if lines is None:
            return
        kept, exact = manifest.kept, manifest.codec.exact
        # No stored line holds a newline, so each added row gives one.
        for line, row in written + list(zip(added.split(b"\n"), rows)):
            if line not in kept:
                copy = exact(row)
                if copy is None:
                    try:
                        copy = decode_row(manifest, line.decode())
                    except _UNDECODABLE:
                        continue
                kept[line] = copy

    # Nothing in hubstar calls the three methods below; they stay because
    # the benchmark's tracer (bench/spans.py) wraps them.

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

    def max_capture_timestamp(self, schema: str, table: str) -> datetime | None:
        """The latest capture time among the table's rows but a hub's
        default row, the one whose load source is SYSTEM_LOAD_SOURCE, or
        None when no other row holds one."""
        return max(filter(None, (row["capture_timestamp"] for row in self.read_rows(schema, table)
                                 if row["load_source"] != SYSTEM_LOAD_SOURCE)), default=None)

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
                # A hub's default row, the one no source loaded, holds
                # stand-ins for its business keys, which a member may share,
                # so it is left out.
                members = [r for r in rows if r.get("load_source") != SYSTEM_LOAD_SOURCE]
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
