"""File-backed warehouse: schemas are directories, tables are a manifest
plus a JSON-lines data file (and, for a gold view, a trace of what it was
built from), and every write is a whole-file atomic rename.
Stored lines are canonical, so writes splice encoded lines into a file's
bytes and reads can take a bronze line's capture time from its prefix
without decoding the rest. A Warehouse decodes each byte string at most
once while it holds it: a manifest once per content, and a line of a table
it splices once per manifest, so a later read of that table decodes only
the lines it has not seen.

Constraints declared in a manifest are never enforced on the write path;
`check_constraints` audits them after the fact, mirroring how analytical
stores treat PRIMARY KEY / FOREIGN KEY as documentation plus tooling.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from datetime import datetime
from decimal import Decimal
from hashlib import sha256
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from .errors import StorageError
from .model import BRONZE_METADATA, DEFAULT_HUB_KEY, ColumnSpec
from .values import format_timestamp, parse_stored_timestamp, row_key, show_key, values_equal

Record = dict[str, Any]
TableKey = tuple[str, str]  # (schema, table)

MANIFEST_FILE = "manifest"
DATA_FILE = "data"
TRACE_FILE = "trace"
# How every canonical bronze line begins: BRONZE_METADATA puts the capture
# time first, and it is never null.
CAPTURE_PREFIX = "{" + json.dumps(BRONZE_METADATA[0]) + ':"'


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
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, datetime):
        return json.dumps(format_timestamp(value))
    if isinstance(value, Decimal):
        return str(value)  # unquoted so the numeric type survives the round trip
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    raise StorageError(f"cannot persist value of type {type(value).__name__}")


def encode_collection(items: Any, fields: tuple[tuple[str, str], ...]) -> str:
    if items is None:
        return "null"
    parts = []
    for item in items:
        inner = ",".join(f"{json.dumps(name)}:{_encode_scalar(item.get(name))}"
                         for name, _ftype in fields)
        parts.append("{" + inner + "}")
    return "[" + ",".join(parts) + "]"


def encode_row(manifest: TableManifest, record: Mapping[str, Any]) -> str:
    """One record as a single JSON line, keys in manifest column order."""
    parts = []
    for col in manifest.columns:
        value = record.get(col.name)
        if col.type == "collection":
            encoded = encode_collection(value, col.fields)
        else:
            encoded = _encode_scalar(value)
        parts.append(f"{json.dumps(col.name)}:{encoded}")
    return "{" + ",".join(parts) + "}"


def _decode_scalar(raw: Any, ctype: str) -> Any:
    if raw is None:
        return None
    if ctype == "timestamp":
        return parse_stored_timestamp(raw)
    if ctype == "decimal" and not isinstance(raw, Decimal):
        return Decimal(str(raw))
    return raw


def _encode_rows(manifest: TableManifest, rows: Iterable[Record]) -> bytes:
    return "".join(encode_row(manifest, r) + "\n" for r in rows).encode("utf-8")


_JSON_DECODER = json.JSONDecoder(parse_float=Decimal)


def decode_json(text: str) -> Any:
    """`json.loads(text, parse_float=Decimal)` through one decoder built
    once: `json.loads` with an argument builds a decoder per call. A leading
    byte-order mark goes to `json.loads`, which alone refuses it by name."""
    if text.startswith("\ufeff"):
        return json.loads(text, parse_float=Decimal)
    return _JSON_DECODER.decode(text)


def decode_row(manifest: TableManifest, line: str) -> Record:
    doc = decode_json(line)
    record: Record = {}
    for col in manifest.columns:
        raw = doc.get(col.name)
        if col.type == "collection":
            if raw is None:
                record[col.name] = None
            else:
                record[col.name] = [
                    {name: _decode_scalar(item.get(name), ftype) for name, ftype in col.fields}
                    for item in raw
                ]
        else:
            record[col.name] = _decode_scalar(raw, col.type)
    return record


# What decoding a stored line that is not a row of its manifest can raise:
# not JSON, not UTF-8, not an object, or a value not of its column's type.
_UNDECODABLE = (ValueError, ArithmeticError, AttributeError, TypeError)


def _lines(text: Iterable[str]) -> Iterator[str]:
    """The non-blank lines of a data file read in text mode, stripped: the
    lines that rows are decoded from and that row positions count."""
    return filter(None, map(str.strip, text))


def _atomic_write(path: Path, content: bytes):
    if path.exists() and path.read_bytes() == content:
        return  # byte-identical; leave the file (and its mtime) alone
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(content)
    os.replace(tmp, path)


class Warehouse:
    """All tables under one root directory: `<root>/<schema>/<table>/`."""

    def __init__(self, root: Path | str):
        self.root = Path(root)
        # Each manifest file's bytes and what they parse to.
        self._manifests: dict[bytes, TableManifest] = {}
        # Each table this object spliced (append_rows with `lines`): the
        # manifest of its last read and the row of each line that read
        # returned, empty before the first.
        self._memo: dict[TableKey, tuple[TableManifest, dict[str, Record]]] = {}

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

    def _write_manifest(self, manifest: TableManifest):
        table_dir = self.table_dir(manifest.schema, manifest.table)
        table_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write(table_dir / MANIFEST_FILE, manifest_bytes(manifest))

    def create_table(self, manifest: TableManifest):
        """Write a new table's manifest and an empty data file; refuses to
        clobber an existing table."""
        if self.table_exists(manifest.schema, manifest.table):
            raise StorageError(f"table {manifest.schema}.{manifest.table} already exists")
        self._write_manifest(manifest)
        data = self.table_dir(manifest.schema, manifest.table) / DATA_FILE
        if not data.exists():
            _atomic_write(data, b"")

    def replace_table(self, manifest: TableManifest, rows: list[Record]):
        """Create-or-overwrite a table with exactly these rows (gold builds).

        Writes go through the byte-comparison in _atomic_write, so rebuilding
        identical content leaves the files untouched.
        """
        self._write_manifest(manifest)
        _atomic_write(self.table_dir(manifest.schema, manifest.table) / DATA_FILE,
                      _encode_rows(manifest, rows))

    def table_digest(self, schema: str, table: str) -> str:
        """The `digest` of the table's manifest and data bytes; a missing
        data file hashes apart from an empty one."""
        table_dir = self.table_dir(schema, table)
        manifest = table_dir / MANIFEST_FILE
        if not manifest.is_file():
            raise StorageError(f"no such table {schema}.{table}")
        data = table_dir / DATA_FILE
        return digest([manifest.read_bytes()] + ([data.read_bytes()] if data.is_file() else []))

    def write_trace(self, manifest: TableManifest, inputs: str, rows: int):
        """Record that the table now holds `rows` rows built from `inputs`,
        a digest its builder computes: a canonical JSON object of `inputs`,
        the table's own `table_digest` as `output`, and `rows`. Called after
        the data is written, so a crash in between leaves the previous
        trace, whose inputs or output no longer match."""
        trace = {"inputs": inputs, "output": self.table_digest(manifest.schema, manifest.table),
                 "rows": rows}
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

    def read_rows(self, schema: str, table: str,
                  captured_after: datetime | None = None) -> list[Record]:
        """The table's rows in file order, in a new list. The rows themselves
        may be shared with other reads through this object, so callers must
        not mutate them.

        A table this object spliced (`append_rows` with `lines`) decodes
        only the lines its last read here did not return under the same
        manifest, and keeps the rows of exactly the lines this read returns.
        A row is a function of its manifest and its line, so this holds
        whoever wrote the file since. Any other table is decoded whole. With
        `captured_after`, only rows whose capture_timestamp is strictly later
        are returned; a line that begins with CAPTURE_PREFIX is decoded only
        when its capture time passes."""
        manifest = self.manifest(schema, table)
        data = self.table_dir(schema, table) / DATA_FILE
        if not data.is_file():
            return []
        try:
            if captured_after is None:
                with data.open(encoding="utf-8") as fh:
                    lines = list(_lines(fh))
                memo = self._memo.get((schema, table))
                if memo is None:
                    return [decode_row(manifest, line) for line in lines]
                seen = memo[1] if memo[0] == manifest else {}
                rows = list(map(seen.get, lines))
                if None in rows:
                    for position, line in enumerate(lines):
                        if rows[position] is None:
                            if line not in seen:  # a repeated line is decoded once
                                seen[line] = decode_row(manifest, line)
                            rows[position] = seen[line]
                self._memo[schema, table] = (manifest, dict(zip(lines, rows)))
                return rows
            rows = []
            start = len(CAPTURE_PREFIX)
            with data.open(encoding="utf-8") as fh:
                for line in _lines(fh):
                    if line.startswith(CAPTURE_PREFIX):
                        captured = parse_stored_timestamp(line[start:line.index('"', start)])
                        if captured > captured_after:
                            rows.append(decode_row(manifest, line))
                    else:  # not canonical: decode to find the capture time
                        row = decode_row(manifest, line)
                        if row["capture_timestamp"] > captured_after:
                            rows.append(row)
            return rows
        except _UNDECODABLE:  # name the first line of the file that does not decode
            for number, line in enumerate(data.read_bytes().split(b"\n"), start=1):
                try:
                    if line.strip():
                        decode_row(manifest, line.decode("utf-8").strip())
                except _UNDECODABLE as exc:
                    raise StorageError(f"{schema}.{table}: line {number} does not decode: "
                                       f"{exc}") from exc
            raise

    def append_rows(self, schema: str, table: str, rows: list[Record],
                    replace: Mapping[int, Record] | None = None, lines: int | None = None):
        """Put each row of `replace` in place of the line at its position,
        counted from 0 as `read_rows` returns them, and add `rows` after the
        last line, in one write. Lines not replaced are kept as bytes and never
        decoded: the file holds canonical lines, so this equals encoding every
        row. `lines` is the number of lines the caller read; a file that holds
        another number raises StorageError and is left as it is.

        With `lines`, this object keeps the table's rows from its next
        `read_rows` on, so each later read decodes only the lines the read
        before it did not return."""
        replace = replace or {}
        if not rows and not replace:
            return
        manifest = self.manifest(schema, table)
        data = self.table_dir(schema, table) / DATA_FILE
        existing = data.read_bytes() if data.is_file() else b""
        if replace or lines is not None:
            kept = [line for line in existing.splitlines() if line.strip()]
            if lines is not None and len(kept) != lines:
                raise StorageError(f"{schema}.{table}: data holds {len(kept)} rows, "
                                   f"not the {lines} read; nothing written")
            for position, row in replace.items():
                if not 0 <= position < len(kept):
                    raise StorageError(f"{schema}.{table}: no row at position {position}")
                kept[position] = encode_row(manifest, row).encode("utf-8")
            existing = b"".join(line + b"\n" for line in kept)
        _atomic_write(data, existing + _encode_rows(manifest, rows))
        if lines is not None:
            self._memo.setdefault((schema, table), (manifest, {}))

    # Nothing in hubstar calls upsert_rows, scan or max_capture_timestamp;
    # they stay because the benchmark's tracer (bench/spans.py) wraps them.

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

    def max_capture_timestamp(self, schema: str, table: str) -> datetime:
        """The latest non-null capture_timestamp of the table; with none it
        raises."""
        mark = max((r["capture_timestamp"] for r in self.read_rows(schema, table)
                    if r.get("capture_timestamp") is not None), default=None)
        if mark is None:
            raise StorageError(f"{schema}.{table}: no high-water mark; "
                               "initialize default rows first")
        return mark

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
