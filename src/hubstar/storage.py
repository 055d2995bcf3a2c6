"""File-backed warehouse: schemas are directories, tables are a manifest
plus a JSON-lines data file, and every write is a whole-file atomic rename.

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
from pathlib import Path
from typing import Any, Iterable, Mapping

from .errors import StorageError
from .values import format_timestamp, parse_timestamp, row_key, show_key, values_equal

Record = dict[str, Any]

MANIFEST_FILE = "manifest"
DATA_FILE = "data"
COUNTER_FILE = "_counter"


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    type: str
    nullable: bool = True
    fields: tuple[tuple[str, str], ...] = ()  # collection element fields

    def to_json(self) -> dict:
        doc: dict[str, Any] = {"name": self.name, "type": self.type, "nullable": self.nullable}
        if self.type == "collection":
            doc["fields"] = [{"name": n, "type": t} for n, t in self.fields]
        return doc

    @staticmethod
    def from_json(doc: Mapping) -> "ColumnSpec":
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

    def column(self, name: str) -> ColumnSpec | None:
        return next((c for c in self.columns if c.name == name), None)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def to_json(self) -> dict:
        return {
            "schema": self.schema,
            "table": self.table,
            "columns": [c.to_json() for c in self.columns],
            "primary_key": list(self.primary_key),
            "unique": [list(u) for u in self.unique],
            "foreign_keys": [fk.to_json() for fk in self.foreign_keys],
        }

    @staticmethod
    def from_json(doc: Mapping) -> "TableManifest":
        return TableManifest(
            schema=doc["schema"],
            table=doc["table"],
            columns=tuple(ColumnSpec.from_json(c) for c in doc["columns"]),
            primary_key=tuple(doc.get("primary_key", ())),
            unique=tuple(tuple(u) for u in doc.get("unique", ())),
            foreign_keys=tuple(ForeignKeySpec.from_json(fk)
                               for fk in doc.get("foreign_keys", ())),
        )


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


def _encode_collection(items: Any, fields: tuple[tuple[str, str], ...]) -> str:
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
            encoded = _encode_collection(value, col.fields)
        else:
            encoded = _encode_scalar(value)
        parts.append(f"{json.dumps(col.name)}:{encoded}")
    return "{" + ",".join(parts) + "}"


def _decode_scalar(raw: Any, ctype: str) -> Any:
    if raw is None:
        return None
    if ctype == "timestamp":
        return parse_timestamp(raw)
    if ctype == "decimal" and not isinstance(raw, Decimal):
        return Decimal(str(raw))
    return raw


def _encode_rows(manifest: TableManifest, rows: Iterable[Record]) -> bytes:
    return "".join(encode_row(manifest, r) + "\n" for r in rows).encode("utf-8")


def decode_row(manifest: TableManifest, line: str) -> Record:
    doc = json.loads(line, parse_float=Decimal)
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


def high_water_mark(rows: Iterable[Record], table: str,
                    empty: datetime | None = None) -> datetime:
    """The latest non-null capture_timestamp among `rows`. With none, the
    mark is `empty`; when that is None too (a hub, which always holds its
    default row), the table was never initialized and this raises."""
    mark = max((r["capture_timestamp"] for r in rows if r.get("capture_timestamp") is not None),
               default=empty)
    if mark is None:
        raise StorageError(f"{table}: no high-water mark; initialize default rows first")
    return mark


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

    def table_dir(self, schema: str, table: str) -> Path:
        return self.root / schema / table

    def counter_path(self, schema: str, table: str) -> Path:
        return self.table_dir(schema, table) / COUNTER_FILE

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
        body = json.dumps(manifest.to_json(), indent=2) + "\n"
        _atomic_write(table_dir / MANIFEST_FILE, body.encode("utf-8"))

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
        """Create-or-overwrite a table with exactly these rows (silver loads
        that write, gold builds).

        Writes go through the byte-comparison in _atomic_write, so rebuilding
        identical content leaves the files untouched.
        """
        self._write_manifest(manifest)
        self._write_all(manifest, rows)

    def manifest(self, schema: str, table: str) -> TableManifest:
        path = self.table_dir(schema, table) / MANIFEST_FILE
        if not path.is_file():
            raise StorageError(f"no such table {schema}.{table}")
        return TableManifest.from_json(json.loads(path.read_text(encoding="utf-8")))

    def read_rows(self, schema: str, table: str) -> list[Record]:
        manifest = self.manifest(schema, table)
        data = self.table_dir(schema, table) / DATA_FILE
        if not data.is_file():
            return []
        rows = []
        with data.open(encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append(decode_row(manifest, line))
        return rows

    def _write_all(self, manifest: TableManifest, rows: Iterable[Record]):
        _atomic_write(self.table_dir(manifest.schema, manifest.table) / DATA_FILE,
                      _encode_rows(manifest, rows))

    def append_rows(self, schema: str, table: str, rows: list[Record]):
        """Join the encoded rows onto the data file's bytes, which are never
        decoded: the file holds canonical lines, so this equals encoding
        every row in one write."""
        if not rows:
            return
        data = self.table_dir(schema, table) / DATA_FILE
        existing = data.read_bytes() if data.is_file() else b""
        _atomic_write(data, existing + _encode_rows(self.manifest(schema, table), rows))

    # Nothing in hubstar calls upsert_rows, scan or max_capture_timestamp;
    # they stay because the benchmark's tracer (bench/spans.py) wraps them.

    def upsert_rows(self, schema: str, table: str, rows: list[Record]):
        """Replace rows whose primary key already exists (keeping their
        position), append the rest. The incoming batch must not repeat a key."""
        manifest = self.manifest(schema, table)
        if not manifest.primary_key:
            raise StorageError(f"{schema}.{table} has no primary key; use append_rows")
        if not rows:
            return

        seen: set[tuple] = set()
        for record in rows:
            key = row_key(record, manifest.primary_key)
            if key in seen:
                raise StorageError(f"duplicate primary key within one batch for "
                                   f"{schema}.{table}: {show_key(key)}")
            seen.add(key)

        existing = self.read_rows(schema, table)
        index = {row_key(r, manifest.primary_key): i for i, r in enumerate(existing)}
        appended: list[Record] = []
        for record in rows:
            pos = index.get(row_key(record, manifest.primary_key))
            if pos is None:
                appended.append(record)
            else:
                existing[pos] = record
        self._write_all(manifest, existing + appended)

    def scan(self, schema: str, table: str,
             where: Mapping[str, Any] | None = None) -> list[Record]:
        rows = self.read_rows(schema, table)
        if not where:
            return rows
        return [r for r in rows
                if all(values_equal(r.get(col), want) for col, want in where.items())]

    def max_capture_timestamp(self, schema: str, table: str) -> datetime:
        return high_water_mark(self.read_rows(schema, table), f"{schema}.{table}")

    def check_constraints(self, schema: str, table: str) -> list[str]:
        """Audit one table against its declared constraints; returns
        human-readable violation lines, empty when clean."""
        manifest = self.manifest(schema, table)
        rows = self.read_rows(schema, table)
        problems: list[str] = []
        qualified = f"{schema}.{table}"

        for col in manifest.columns:
            if col.nullable:
                continue
            nulls = sum(1 for r in rows if r.get(col.name) is None)
            if nulls:
                problems.append(f"{qualified}: column {col.name} is not nullable "
                                f"but holds {nulls} null(s)")

        def dupes(columns: tuple[str, ...]) -> list[tuple]:
            seen: dict[tuple, int] = {}
            for r in rows:
                key = row_key(r, columns)
                seen[key] = seen.get(key, 0) + 1
            return sorted(k for k, n in seen.items() if n > 1)

        if manifest.primary_key:
            for key in dupes(manifest.primary_key):
                problems.append(f"{qualified}: duplicate primary key {show_key(key)}")
        for unique_cols in manifest.unique:
            for key in dupes(unique_cols):
                problems.append(f"{qualified}: duplicate value {show_key(key)} "
                                f"for unique ({', '.join(unique_cols)})")
        for fk in manifest.foreign_keys:
            if not self.table_exists(fk.ref_schema, fk.ref_table):
                problems.append(f"{qualified}: foreign key references missing table "
                                f"{fk.ref_schema}.{fk.ref_table}")
                continue
            targets = {row_key(r, fk.ref_columns)
                       for r in self.read_rows(fk.ref_schema, fk.ref_table)}
            for r in rows:
                key = row_key(r, fk.columns)
                if any(part is None for part in key):
                    continue
                if key not in targets:
                    problems.append(
                        f"{qualified}: ({', '.join(fk.columns)}) = {show_key(key)} "
                        f"not found in {fk.ref_schema}.{fk.ref_table}")
        return problems

    def check_all(self, schema: str) -> list[str]:
        problems = []
        for table in self.list_tables(schema):
            problems.extend(self.check_constraints(schema, table))
        return problems

