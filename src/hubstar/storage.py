"""File-backed warehouse: schemas are directories, tables are a manifest
plus a JSON-lines data file, and every write is a whole-file atomic rename.
Stored lines are canonical, so writes splice encoded lines into a file's
bytes and reads can take a bronze line's capture time from its prefix
without decoding the rest. A Warehouse remembers the decoded rows of the
tables it splices, so a later read of one decodes only the lines written
since, as long as the file still holds the bytes it wrote.

Constraints declared in a manifest are never enforced on the write path;
`check_constraints` audits them after the fact, mirroring how analytical
stores treat PRIMARY KEY / FOREIGN KEY as documentation plus tooling.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field
from datetime import datetime
from decimal import Decimal
from hashlib import sha256
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from .errors import StorageError
from .model import DEFAULT_HUB_KEY
from .values import format_timestamp, parse_stored_timestamp, row_key, show_key, values_equal

Record = dict[str, Any]
TableKey = tuple[str, str]  # (schema, table)

MANIFEST_FILE = "manifest"
DATA_FILE = "data"
# How every canonical bronze line begins: `tables.bronze_manifest` puts the
# capture time first, and it is never null.
CAPTURE_PREFIX = '{"capture_timestamp":"'


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
        # Each manifest as last read: its bytes and what they parse to.
        self._manifests: dict[TableKey, tuple[bytes, TableManifest]] = {}
        # Each table this object spliced (append_rows with `lines`): its
        # manifest, the sha256 of the bytes written and the row of each line,
        # None until a read decodes it.
        self._spliced: dict[TableKey, tuple[TableManifest, bytes, list[Record | None]]] = {}

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
        """Create-or-overwrite a table with exactly these rows (gold builds).

        Writes go through the byte-comparison in _atomic_write, so rebuilding
        identical content leaves the files untouched.
        """
        self._write_manifest(manifest)
        _atomic_write(self.table_dir(manifest.schema, manifest.table) / DATA_FILE,
                      _encode_rows(manifest, rows))

    def manifest(self, schema: str, table: str) -> TableManifest:
        """The table's manifest, parsed once for each content it has."""
        path = self.table_dir(schema, table) / MANIFEST_FILE
        if not path.is_file():
            raise StorageError(f"no such table {schema}.{table}")
        content = path.read_bytes()
        known = self._manifests.get((schema, table))
        if known is None or known[0] != content:
            parsed = TableManifest.from_json(json.loads(content.decode("utf-8")))
            known = self._manifests[schema, table] = (content, parsed)
        return known[1]

    def read_rows(self, schema: str, table: str,
                  captured_after: datetime | None = None) -> list[Record]:
        """The table's rows in file order, in a new list. The rows themselves
        may be shared with other reads through this object, so callers must
        not mutate them.

        A table this object spliced decodes only the lines that no read
        through this object has decoded since the splice, while its manifest
        and data file hold what the object wrote; any other file is decoded
        whole. With `captured_after`, only rows whose capture_timestamp is
        strictly later are returned; a line that begins with CAPTURE_PREFIX
        is decoded only when its capture time passes."""
        manifest = self.manifest(schema, table)
        data = self.table_dir(schema, table) / DATA_FILE
        if not data.is_file():
            return []
        if captured_after is None:
            key = (schema, table)
            content = data.read_bytes()
            lines = _lines(io.TextIOWrapper(io.BytesIO(content), encoding="utf-8"))
            spliced = self._spliced.get(key)
            if spliced is None or spliced[:2] != (manifest, sha256(content).digest()):
                self._spliced.pop(key, None)
                return [decode_row(manifest, line) for line in lines]
            rows = spliced[2]
            if None in rows:
                for position, line in enumerate(lines):
                    if rows[position] is None:
                        rows[position] = decode_row(manifest, line)
            return list(rows)
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

    def append_rows(self, schema: str, table: str, rows: list[Record],
                    replace: Mapping[int, Record] | None = None, lines: int | None = None):
        """Put each row of `replace` in place of the line at its position,
        counted from 0 as `read_rows` returns them, and add `rows` after the
        last line, in one write. Lines not replaced are kept as bytes and never
        decoded: the file holds canonical lines, so this equals encoding every
        row. `lines` is the number of lines the caller read; a file that holds
        another number raises StorageError and is left as it is.

        With `lines`, the next `read_rows` of the table through this object
        decodes only the lines this call wrote, provided this object spliced
        the bytes it splices and kept their rows; otherwise it decodes every
        line once."""
        replace = replace or {}
        if not rows and not replace:
            return
        key = (schema, table)
        spliced = self._spliced.pop(key, None)
        manifest = self.manifest(schema, table)
        data = self.table_dir(schema, table) / DATA_FILE
        before = data.read_bytes() if data.is_file() else b""
        existing = before
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
        content = existing + _encode_rows(manifest, rows)
        _atomic_write(data, content)
        if lines is None:
            return
        if spliced is not None and spliced[:2] == (manifest, sha256(before).digest()):
            known = spliced[2]
        else:
            known = [None] * lines
        for position in replace:
            known[position] = None
        self._spliced[key] = (manifest, sha256(content).digest(), known + [None] * len(rows))

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
        return _Audit(self, schema, [table]).problems()

    def check_all(self, schema: str) -> list[str]:
        return _Audit(self, schema, self.list_tables(schema)).problems()


class _Audit:
    """The constraint checks of some tables of one schema, reading every
    table once. The rows read to check a table give the key sets that
    foreign keys into it match against, so a table that one of them
    references before its turn is checked then."""

    def __init__(self, warehouse: Warehouse, schema: str, tables: list[str]):
        self.warehouse = warehouse
        self.schema = schema
        self.tables = tables
        self.wanted: dict[TableKey, set[tuple[str, ...]]] = {}
        for table in tables:
            for fk in warehouse.manifest(schema, table).foreign_keys:
                self.wanted.setdefault((fk.ref_schema, fk.ref_table), set()).add(fk.ref_columns)
        self.key_sets: dict[tuple[str, str, tuple[str, ...]], set[tuple]] = {}
        self.found: dict[str, list[str]] = {}

    def problems(self) -> list[str]:
        for table in self.tables:
            if table not in self.found:
                self.check(table)
        return [line for table in self.tables for line in self.found[table]]

    def read(self, schema: str, table: str) -> list[Record]:
        rows = self.warehouse.read_rows(schema, table)
        for columns in self.wanted.get((schema, table), ()):
            self.key_sets[schema, table, columns] = {row_key(r, columns) for r in rows}
        return rows

    def check(self, table: str):
        manifest = self.warehouse.manifest(self.schema, table)
        rows = self.read(self.schema, table)
        problems = self.found[table] = []
        qualified = f"{self.schema}.{table}"
        for col in manifest.columns:
            if col.nullable:
                continue
            nulls = sum(1 for r in rows if r.get(col.name) is None)
            if nulls:
                problems.append(f"{qualified}: column {col.name} is not nullable "
                                f"but holds {nulls} null(s)")
        if manifest.primary_key:
            for key in _duplicates(rows, manifest.primary_key):
                problems.append(f"{qualified}: duplicate primary key {show_key(key)}")
        for unique_cols in manifest.unique:
            # A hub's `-1` default row holds stand-ins for its business keys,
            # which a member may share, so it is left out.
            members = [r for r in rows
                       if tuple(map(r.get, manifest.primary_key)) != (DEFAULT_HUB_KEY,)]
            for key in _duplicates(members, unique_cols):
                problems.append(f"{qualified}: duplicate value {show_key(key)} "
                                f"for unique ({', '.join(unique_cols)})")
        for fk in manifest.foreign_keys:
            if not self.warehouse.table_exists(fk.ref_schema, fk.ref_table):
                problems.append(f"{qualified}: foreign key references missing table "
                                f"{fk.ref_schema}.{fk.ref_table}")
                continue
            ref = (fk.ref_schema, fk.ref_table, fk.ref_columns)
            if ref not in self.key_sets:
                if fk.ref_schema == self.schema and fk.ref_table in self.tables:
                    self.check(fk.ref_table)
                else:
                    self.read(fk.ref_schema, fk.ref_table)
            for r in rows:
                key = row_key(r, fk.columns)
                if any(part is None for part in key):
                    continue
                if key not in self.key_sets[ref]:
                    problems.append(
                        f"{qualified}: ({', '.join(fk.columns)}) = {show_key(key)} "
                        f"not found in {fk.ref_schema}.{fk.ref_table}")


def _duplicates(rows: list[Record], columns: tuple[str, ...]) -> list[tuple]:
    seen: dict[tuple, int] = {}
    for r in rows:
        key = row_key(r, columns)
        seen[key] = seen.get(key, 0) + 1
    return sorted(k for k, n in seen.items() if n > 1)
