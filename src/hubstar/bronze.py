"""Bronze ingestion: parse source files, enrich with metadata, append.

Bronze is append-only; re-ingesting a file appends the same records again
and deduplication is deferred to the silver loads.
"""

from __future__ import annotations

import csv
import io
import re
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from .errors import IngestError
from .model import ColumnSpec, ModelSpec, SourceDef
from .silver import LoadResult
from .storage import Warehouse, decode_json, json_decoder
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
    """Records of a CSV file, each stored whole or refused: a header naming
    a column twice fails, and so does a row with more or fewer fields than
    the header. Errors name the physical line where the row ends."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    declared = {c.name for c in source.columns}
    for position, name in enumerate(header):
        if name not in declared:
            raise IngestError(f"{source.name}: unknown column {name!r} in header")
        if name in header[:position]:
            raise IngestError(f"{source.name} line {reader.line_num}: "
                              f"column {name!r} appears twice in the header")
    for col in source.columns:
        if col.type == "collection":
            raise IngestError(f"{source.name}: collection column {col.name!r} "
                              "cannot be read from csv")
    records = []
    for fields in filter(None, reader):  # a blank line holds no row
        if len(fields) != len(header):
            raise IngestError(f"{source.name} line {reader.line_num}: the header has "
                              f"{len(header)} fields, the row {len(fields)}")
        records.append(_coerce_record(source, dict(zip(header, fields)), reader.line_num))
    return records


def _refuse_repeated_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """The object of these pairs; a key given twice raises ValueError, where
    a dict would keep its last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen: set[str] = set()
        for key, _value in pairs:
            if key in seen:
                raise ValueError(f"key {key!r} appears twice")
            seen.add(key)
    return doc


# Source lines, unlike stored ones, may repeat a key in an object.
_SOURCE_JSON = json_decoder(object_pairs_hook=_refuse_repeated_keys)
# The JSON escape of a UTF-16 surrogate, `\ud800` to `\udfff`: the only way a
# source string can hold one, since files are read as strict UTF-8.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _parse_ndjson(source: SourceDef, text: str) -> list[dict]:
    declared = {c.name for c in source.columns}
    records = []
    # Only "\n" ends a line: JSON strings may hold U+2028, U+2029 and U+0085.
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = decode_json(line, _SOURCE_JSON)
        except ValueError as exc:  # not JSON, or an object repeats a key
            raise IngestError(f"{source.name} line {lineno}: {exc}") from exc
        if not isinstance(doc, dict):
            raise IngestError(f"{source.name} line {lineno}: record is not an object")
        for key in doc:
            if key not in declared:
                raise IngestError(f"{source.name} line {lineno}: unknown column {key!r}")
        record = _coerce_record(source, doc, lineno)
        if _SURROGATE_ESCAPE.search(line):
            _refuse_lone_surrogates(source, record, lineno)
        records.append(record)
    return records


def _refuse_lone_surrogates(source: SourceDef, record: dict, lineno: int):
    """Refuse a record with a string, a collection item's included, that
    holds a surrogate not paired with another: UTF-8, and so no stored line,
    can hold it, so the ingest would fail on its write."""
    for name, value in record.items():
        texts = ([text for item in value for text in item.values()]
                 if isinstance(value, list) else [value])
        for text in texts:
            try:
                if isinstance(text, str):
                    text.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise IngestError(f"{source.name} line {lineno}, column {name}: string holds "
                                  f"a lone surrogate {text[exc.start]!r} at character "
                                  f"{exc.start + 1}") from None


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
