"""Bronze ingestion: parse source files, enrich with metadata, append.

Bronze is append-only; re-ingesting a file appends the same records again
and deduplication is deferred to the silver loads.
"""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime, timezone
from pathlib import Path

from .errors import IngestError
from .model import ColumnSpec, ModelSpec, SourceDef
from .silver import LoadResult
from .storage import Warehouse, decode_json
from .tables import bronze_manifest, check_stored_manifest
from .values import EPOCH, coerce_scalar

TRUTHY_DELETE = {1, "1", True, "true"}


def coerce_delete_flag(raw) -> int:
    return 1 if raw in TRUTHY_DELETE else 0


def parse_source_file(source: SourceDef, text: str) -> list[dict]:
    """Raw records in file order, coerced to the declared column types."""
    if source.input_format == "csv":
        return _parse_csv(source, text)
    return _parse_ndjson(source, text)


def _parse_csv(source: SourceDef, text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    declared = {c.name for c in source.columns}
    for name in reader.fieldnames or []:
        if name not in declared:
            raise IngestError(f"{source.name}: unknown column {name!r} in header")
    for col in source.columns:
        if col.type == "collection":
            raise IngestError(f"{source.name}: collection column {col.name!r} "
                              "cannot be read from csv")
    return [_coerce_record(source, row, lineno) for lineno, row in enumerate(reader, start=2)]


def _parse_ndjson(source: SourceDef, text: str) -> list[dict]:
    declared = {c.name for c in source.columns}
    records = []
    # Only "\n" ends a line: JSON strings may hold U+2028, U+2029 and U+0085.
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = decode_json(line)
        except json.JSONDecodeError as exc:
            raise IngestError(f"{source.name} line {lineno}: {exc}") from exc
        if not isinstance(doc, dict):
            raise IngestError(f"{source.name} line {lineno}: record is not an object")
        for key in doc:
            if key not in declared:
                raise IngestError(f"{source.name} line {lineno}: unknown column {key!r}")
        records.append(_coerce_record(source, doc, lineno))
    return records


def _coerce_record(source: SourceDef, raw: dict, lineno: int) -> dict:
    """One source row coerced to the declared column types; a value that
    does not coerce is reported with its line and column."""
    record = {}
    for col in source.columns:
        value = raw.get(col.name)
        try:
            if col.type == "collection":
                record[col.name] = _coerce_collection(col, value)
            else:
                record[col.name] = coerce_scalar(value, col.type)
        except ValueError as exc:
            raise IngestError(f"{source.name} line {lineno}, "
                              f"column {col.name}: {exc}") from exc
    return record


def _coerce_collection(col: ColumnSpec, raw):
    if raw is None:
        return None
    if not isinstance(raw, list):
        raise ValueError(f"{col.name} must be an array")
    field_names = {name for name, _type in col.fields}
    items = []
    for item in raw:
        if not isinstance(item, dict):
            raise ValueError(f"{col.name} items must be objects")
        for key in item:
            if key not in field_names:
                raise ValueError(f"unknown item field {key!r} in {col.name}")
        items.append({name: coerce_scalar(item.get(name), ftype) for name, ftype in col.fields})
    return items


def resolve_capture_timestamp(record: dict, source: SourceDef,
                              file_mtime: datetime, now: datetime) -> datetime:
    """First applicable rule wins: CDC column, last-modified column, file
    modification time, pipeline clock."""
    for rule in source.capture_rule:
        if rule.kind in ("cdc_column", "last_modified"):
            value = record.get(rule.column)
            if value is not None:
                return value
        elif rule.kind == "file_mtime":
            return file_mtime
        else:
            return now
    return now


def ingest_file(warehouse: Warehouse, spec: ModelSpec, source_name: str,
                input_path: Path | str, now: datetime,
                mtime: datetime | None = None) -> LoadResult:
    source = spec.source(source_name)
    if source is None:
        raise IngestError(f"unknown source {source_name!r}")
    input_path = Path(input_path)
    text = input_path.read_text(encoding="utf-8")
    if mtime is None:
        mtime = datetime.fromtimestamp(input_path.stat().st_mtime, timezone.utc)

    records = parse_source_file(source, text)
    rows = []
    for record in records:
        capture = resolve_capture_timestamp(record, source, mtime, now)
        if capture > now:
            raise IngestError(f"{source.name}: capture_timestamp {capture.isoformat()} "
                              "is after the load time; check --now/--mtime")
        row = {
            "capture_timestamp": capture,
            "load_timestamp": now,
            "extract_path": str(input_path),
        }
        if source.delete_flag_column is not None:
            row["delete_flag"] = coerce_delete_flag(record.get(source.delete_flag_column))
        row.update(record)
        rows.append(row)
    bronze = spec.schema_names["bronze"]
    manifest = bronze_manifest(spec, source)
    if not check_stored_manifest(warehouse, manifest):
        warehouse.create_table(manifest)
    warehouse.append_rows(bronze, source.name, rows)
    new_hwm = max((r["capture_timestamp"] for r in rows), default=EPOCH)
    return LoadResult(table=f"{bronze}.{source.name}", source=source.name,
                      scanned=len(records), inserted=len(rows), updated=0,
                      unchanged_skipped=0, new_hwm=new_hwm)
