"""Command-line entry point: the whole lifecycle from model validation to
gold builds, with injectable clock and file-mtime for reproducible runs.

Exit codes: 0 success, 1 validation/check findings, 2 operational errors.
Findings and data go to stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from .bronze import ingest_file
from .dsl import load_model
from .errors import HubStarError, ParseError
from .gold import build_all
from .model import ModelSpec, validate_model
from .oracle import check_against_oracle, skip_reason
from .silver import LoadResult, init_warehouse, load_all
from .storage import Warehouse, encode_collection, encode_row
from .values import parse_timestamp, value_to_string


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except HubStarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hubstar",
        description="Compile a hub/star model and run its medallion pipeline "
                    "over a file-backed warehouse.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, model=True, now=False):
        p.add_argument("--root", help="warehouse root directory "
                                      "(default: $HUBSTAR_ROOT)")
        if model:
            p.add_argument("--model", required=True, help="model file (.hsm)")
        if now:
            p.add_argument("--now", help="override the pipeline clock (ISO-8601); "
                                         "defaults to the current UTC time")

    p = sub.add_parser("init", help="create all tables and hub default rows")
    common(p)
    p.set_defaults(handler=_cmd_init)

    p = sub.add_parser("validate", help="parse a model and report violations")
    p.add_argument("model", help="model file (.hsm)")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("ingest", help="append one source file to bronze")
    common(p, now=True)
    p.add_argument("--source", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--mtime", help="override the file modification time (ISO-8601)")
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("load-silver", help="incremental hub/star loads")
    common(p, now=True)
    p.add_argument("--table", help="load only this hub or star")
    p.set_defaults(handler=_cmd_load_silver)

    p = sub.add_parser("build-gold", help="materialize dimensional views")
    common(p, now=True)
    p.add_argument("--view", help="build only this view")
    p.set_defaults(handler=_cmd_build_gold)

    p = sub.add_parser("check", help="audit constraints (and optionally the oracle)")
    common(p)
    p.add_argument("--against-oracle", action="store_true",
                   help="also recompute expected silver state from full "
                        "bronze history and diff")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("export", help="write one table to a file")
    common(p, model=False)
    p.add_argument("--table", required=True, help="qualified name: <schema>.<table>")
    p.add_argument("--format", required=True, choices=("csv", "ndjson"))
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_export)

    p = sub.add_parser("show", help="print rows of one table")
    common(p, model=False)
    p.add_argument("--table", required=True, help="qualified name: <schema>.<table>")
    p.add_argument("--limit", type=int, default=20)
    p.set_defaults(handler=_cmd_show)

    return parser


def _warehouse(args) -> Warehouse:
    root = args.root or os.environ.get("HUBSTAR_ROOT")
    if not root:
        raise HubStarError("no warehouse root: pass --root or set HUBSTAR_ROOT")
    return Warehouse(Path(root))


def _load_spec(path: str) -> ModelSpec:
    spec = load_model(path).spec
    report = validate_model(spec)
    if not report.ok:
        raise HubStarError(
            f"model has {len(report.violations)} validation violation(s); "
            f"run `hubstar validate {path}` for the report")
    return spec


def _timestamp(flag: str, text: str) -> datetime:
    try:
        return parse_timestamp(text)
    except ValueError as exc:
        raise HubStarError(f"{flag} {text!r}: {exc}") from None


def _now(args) -> datetime:
    if getattr(args, "now", None):
        return _timestamp("--now", args.now)
    return datetime.now(timezone.utc)


def _split_qualified(name: str) -> tuple[str, str]:
    if "." not in name:
        raise HubStarError(f"table must be qualified as <schema>.<table>, got {name!r}")
    schema, _, table = name.partition(".")
    return schema, table


def _print_load(result: LoadResult):
    print(f"{result.table} <- {result.source}: scanned={result.scanned} "
          f"inserted={result.inserted} updated={result.updated} "
          f"unchanged={result.unchanged_skipped} "
          f"hwm={value_to_string(result.new_hwm)}")


def _cmd_init(args) -> int:
    spec = _load_spec(args.model)
    warehouse = _warehouse(args)
    for table in init_warehouse(warehouse, spec):
        print(f"created {table}")
    return 0


def _cmd_validate(args) -> int:
    try:
        spec = load_model(args.model).spec
    except ParseError as exc:
        print(f"parse error: {exc}")
        return 1
    report = validate_model(spec)
    if report.ok:
        print("0 violations")
        return 0
    for v in report.violations:
        print(f"{v.rule}: {v.location}: {v.message}")
    print(f"{len(report.violations)} violation(s)")
    return 1


def _cmd_ingest(args) -> int:
    spec = _load_spec(args.model)
    warehouse = _warehouse(args)
    mtime = _timestamp("--mtime", args.mtime) if args.mtime else None
    result = ingest_file(warehouse, spec, args.source, args.input, _now(args), mtime)
    _print_load(result)
    return 0


def _cmd_load_silver(args) -> int:
    spec = _load_spec(args.model)
    warehouse = _warehouse(args)
    for result in load_all(warehouse, spec, _now(args), only=args.table):
        _print_load(result)
    return 0


def _cmd_build_gold(args) -> int:
    spec = _load_spec(args.model)
    warehouse = _warehouse(args)
    for result in build_all(warehouse, spec, _now(args), only=args.view):
        print(f"{result.view_name}: rows={result.rows}")
    return 0


def _cmd_check(args) -> int:
    spec = _load_spec(args.model)
    warehouse = _warehouse(args)
    silver = spec.schema_names["silver"]
    problems = warehouse.check_all(silver)
    if args.against_oracle:
        for element in spec.hubs + spec.stars:
            reason = skip_reason(element)
            if reason is not None:
                print(f"note: {element.name} {reason}; oracle comparison skipped",
                      file=sys.stderr)
        problems += check_against_oracle(warehouse, spec)
    for line in sorted(problems):
        print(line)
    if problems:
        print(f"{len(problems)} finding(s)")
        return 1
    print("ok")
    return 0


def _cmd_export(args) -> int:
    warehouse = _warehouse(args)
    schema, table = _split_qualified(args.table)
    manifest = warehouse.manifest(schema, table)
    rows = warehouse.read_rows(schema, table)
    out = Path(args.out)
    if args.format == "ndjson":
        body = "".join(encode_row(manifest, r) + "\n" for r in rows)
        out.write_text(body, encoding="utf-8")
    else:
        with out.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(manifest.column_names)
            for row in rows:
                writer.writerow([_csv_cell(row.get(c.name), c) for c in manifest.columns])
    print(f"wrote {len(rows)} row(s) to {out}", file=sys.stderr)
    return 0


def _csv_cell(value, column) -> str:
    if value is None:
        return ""
    if column.type == "collection":
        return encode_collection(value, column.fields)
    return value_to_string(value)


def _cmd_show(args) -> int:
    if args.limit < 0:
        raise HubStarError(f"--limit must not be negative, got {args.limit}")
    warehouse = _warehouse(args)
    schema, table = _split_qualified(args.table)
    manifest = warehouse.manifest(schema, table)
    for row in warehouse.read_rows(schema, table)[: args.limit]:
        print(encode_row(manifest, row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
