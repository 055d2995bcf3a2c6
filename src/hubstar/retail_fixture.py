"""Deterministic synthetic retail dataset shaped for the shipped model.

Everything derives from one seed: ~50 customers with 2-4 address versions,
~200 sales orders with 0-5 line items, 40 products (a few revised later),
4 loyalty segments, plus one fully scripted customer whose address history
(three moves, one delete and reactivation) the tests assert row by row.

The data is arranged so incremental loading is order-insensitive: capture
timestamps increase strictly within each source file, and each customer's
address validity intervals are disjoint (valid_to = next valid_from - 1s).
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path

from .values import format_timestamp

SEED = 8253
CUSTOMER_COUNT = 50
ORDER_COUNT = 200
PRODUCT_COUNT = 40

#: customers whose dataset index gets an extra delete row after the last
#: address version (their latest version is withdrawn).
DELETED_CUSTOMER_INDEXES = (17, 33)
#: products that receive a revised second version later in the feed.
REVISED_PRODUCT_INDEXES = (2, 6, 12, 20, 33)
#: orders shipped with an empty item array.
EMPTY_ORDER_INDEXES = (40, 90, 150)

SCRIPTED_CUSTOMER_ID = 9001
SCRIPTED_ADDRESSES = ("12 Pine St", "99 Oak Ave", "7 Birch Rd", "501 Maple Ct")


def _utc(year, month, day, hour=0, minute=0, second=0) -> datetime:
    return datetime(year, month, day, hour, minute, second, tzinfo=timezone.utc)


SCRIPTED_VALID_FROMS = (
    _utc(2023, 2, 1),
    _utc(2023, 5, 1),
    _utc(2023, 9, 1),
    _utc(2024, 2, 1),
)
#: five orders placed by the scripted customer; the first predates every
#: address version, the rest land inside versions 1-4 respectively.
SCRIPTED_ORDER_DATETIMES = (
    _utc(2022, 11, 1, 8, 0),
    _utc(2023, 3, 15, 10, 0),
    _utc(2023, 6, 10, 9, 30),
    _utc(2023, 10, 5, 14, 0),
    _utc(2024, 3, 20, 16, 45),
)

#: file modification time of the full sales_orders drop; batch k of a split
#: run uses DEFAULT_MTIME + k days.
DEFAULT_MTIME = _utc(2024, 9, 1)
#: a pipeline clock safely after every capture timestamp in the dataset.
DEFAULT_NOW = _utc(2025, 1, 1)

CSV_COLUMNS = {
    "customers": ("customer_id", "customer_name", "loyalty_segment_id",
                  "ship_to_address", "valid_from", "valid_to", "_change_ts",
                  "_deleted"),
    "products": ("product_id", "product_name", "product_category",
                 "product_unit", "updated_at"),
    "loyalty_segments": ("loyalty_segment_id", "segment_name", "updated_at"),
}

_FIRST_NAMES = ("Alex", "Bea", "Casey", "Dana", "Eli", "Flor", "Gil", "Hana",
                "Iris", "Jo", "Kai", "Lena", "Milo", "Nora", "Omar", "Pia",
                "Ravi", "Sam", "Tess", "Uma", "Vik", "Wren", "Yara", "Zane")
_LAST_NAMES = ("Alvarez", "Brook", "Castell", "Duarte", "Eng", "Farrow",
               "Grieg", "Holt", "Ibarra", "Jensen", "Kovacs", "Lindqvist",
               "Moreau", "Novak", "Okafor", "Petrov", "Quist", "Reyes",
               "Sato", "Tran")
_STREETS = ("Alder", "Aspen", "Cedar", "Dogwood", "Elm", "Fir", "Hazel",
            "Juniper", "Laurel", "Linden", "Magnolia", "Poplar", "Rowan",
            "Spruce", "Walnut", "Willow")
_STREET_KINDS = ("St", "Ave", "Rd", "Ln")
_SEGMENT_NAMES = ("Standard", "Silver", "Gold", "Platinum")
_CATEGORIES = ("Pantry", "Beverages", "Dairy", "Bakery", "Household", "Garden")
_UNITS = ("each", "pack", "kg", "litre")
_PRODUCT_NOUNS = ("Rice", "Coffee", "Tea", "Flour", "Sugar", "Olive Oil",
                  "Pasta", "Honey", "Cocoa", "Oats", "Butter", "Yeast",
                  "Salt", "Pepper", "Basil", "Vinegar", "Soap", "Candles",
                  "Compost", "Twine")
_PRODUCT_ADJECTIVES = ("Organic", "Classic", "Premium", "Stoneground", "Wild",
                       "Smoked", "Golden", "Rustic", "Alpine", "Coastal")
_CURRENCIES = ("EUR", "USD", "GBP")


@dataclass(frozen=True)
class RetailFixture:
    """Source rows in bronze ingestion order, with native Python values."""

    customers: tuple[dict, ...]
    sales_orders: tuple[dict, ...]
    products: tuple[dict, ...]
    loyalty_segments: tuple[dict, ...]

    def rows(self, source: str) -> tuple[dict, ...]:
        return getattr(self, source)


@dataclass(frozen=True)
class IngestJob:
    source: str
    path: Path
    mtime: datetime


def generate(seed: int = SEED) -> RetailFixture:
    rng = random.Random(seed)
    segments = _make_segments()
    customers, timelines = _make_customers(rng)
    products = _make_products(rng)
    orders = _make_orders(rng, timelines)
    return RetailFixture(
        customers=tuple(customers),
        sales_orders=tuple(orders),
        products=tuple(products),
        loyalty_segments=tuple(segments),
    )


def _make_segments() -> list[dict]:
    base = _utc(2024, 1, 2)
    return [
        {"loyalty_segment_id": i + 1, "segment_name": name,
         "updated_at": base + timedelta(minutes=i)}
        for i, name in enumerate(_SEGMENT_NAMES)
    ]


def _address(rng: random.Random) -> str:
    return (f"{rng.randint(1, 999)} {rng.choice(_STREETS)} "
            f"{rng.choice(_STREET_KINDS)}")


def _make_customers(rng: random.Random) -> tuple[list[dict], dict[int, list[tuple[datetime, datetime | None]]]]:
    """CSV rows plus, per customer id, the address validity windows that the
    order generator places purchases into."""
    rows: list[dict] = []
    timelines: dict[int, list[tuple[datetime, datetime | None]]] = {}
    change_ts = _utc(2024, 3, 1)

    def emit(cid, name, segment, address, valid_from, valid_to, deleted=0):
        nonlocal change_ts
        change_ts += timedelta(minutes=10)
        rows.append({
            "customer_id": cid, "customer_name": name,
            "loyalty_segment_id": segment, "ship_to_address": address,
            "valid_from": valid_from, "valid_to": valid_to,
            "_change_ts": change_ts, "_deleted": deleted,
        })

    for i in range(CUSTOMER_COUNT):
        cid = 1001 + i
        name = f"{rng.choice(_FIRST_NAMES)} {rng.choice(_LAST_NAMES)}"
        segment = None if i % 13 == 5 else rng.randint(1, 4)
        versions = rng.randint(2, 4)
        offset = rng.randint(0, 25)
        froms = [_utc(2023, 1, 1) + timedelta(days=90 * k + offset)
                 for k in range(versions)]
        windows = []
        for k, valid_from in enumerate(froms):
            last = k == versions - 1
            valid_to = None if last else froms[k + 1] - timedelta(seconds=1)
            if last and segment is not None and rng.random() < 0.15:
                segment = rng.randint(1, 4)
            shown_name = f"{name} Jr." if last and rng.random() < 0.2 else name
            emit(cid, shown_name, segment, _address(rng), valid_from, valid_to)
            windows.append((valid_from, valid_to))
        if i in DELETED_CUSTOMER_INDEXES:
            last_row = rows[-1]
            emit(cid, last_row["customer_name"], segment,
                 last_row["ship_to_address"], last_row["valid_from"],
                 last_row["valid_to"], deleted=1)
        timelines[cid] = windows

    # The scripted customer: three moves, then a delete and a reactivation
    # of the final address. Tests assert this history verbatim.
    vf = SCRIPTED_VALID_FROMS
    a1, a2, a3, a4 = SCRIPTED_ADDRESSES
    cid = SCRIPTED_CUSTOMER_ID
    emit(cid, "Avery Quinn", 1, a1, vf[0], None)
    emit(cid, "Avery Quinn", 1, a1, vf[0], vf[1] - timedelta(seconds=1))
    emit(cid, "Avery Quinn", 1, a2, vf[1], vf[2] - timedelta(seconds=1))
    emit(cid, "Avery Quinn-Lee", 3, a3, vf[2], vf[3] - timedelta(seconds=1))
    emit(cid, "Avery Quinn-Lee", 3, a4, vf[3], None)
    emit(cid, "Avery Quinn-Lee", 3, a4, vf[3], None, deleted=1)
    emit(cid, "Avery Quinn-Lee", 3, a4, vf[3], None)
    timelines[cid] = list(zip(vf, [v - timedelta(seconds=1) for v in vf[1:]] + [None]))
    return rows, timelines


def _make_products(rng: random.Random) -> list[dict]:
    rows: list[dict] = []
    updated = _utc(2024, 2, 1)
    names = []
    for i in range(PRODUCT_COUNT):
        updated += timedelta(minutes=7)
        name = f"{rng.choice(_PRODUCT_ADJECTIVES)} {rng.choice(_PRODUCT_NOUNS)}"
        names.append(name)
        rows.append({
            "product_id": f"P{i + 1:03d}", "product_name": name,
            "product_category": rng.choice(_CATEGORIES),
            "product_unit": rng.choice(_UNITS), "updated_at": updated,
        })
    for i in REVISED_PRODUCT_INDEXES:
        updated += timedelta(minutes=7)
        rows.append({
            "product_id": f"P{i + 1:03d}",
            "product_name": f"{names[i]} Reserve",
            "product_category": rng.choice(_CATEGORIES),
            "product_unit": rows[i]["product_unit"], "updated_at": updated,
        })
    return rows


def _epoch(ts: datetime) -> int:
    return int(ts.timestamp())


def _pick_order_time(rng: random.Random,
                     windows: list[tuple[datetime, datetime | None]],
                     before_first: bool) -> int:
    if before_first:
        start = _epoch(_utc(2022, 6, 1))
        end = _epoch(windows[0][0] - timedelta(days=1))
        return rng.randint(start, end)
    valid_from, valid_to = rng.choice(windows)
    start = _epoch(valid_from)
    end = _epoch(valid_to) if valid_to is not None else _epoch(_utc(2024, 8, 1))
    return rng.randint(start, max(start, end))


def _make_orders(rng: random.Random,
                 timelines: dict[int, list[tuple[datetime, datetime | None]]]) -> list[dict]:
    product_ids = [f"P{i + 1:03d}" for i in range(PRODUCT_COUNT)]
    customer_ids = sorted(cid for cid in timelines if cid != SCRIPTED_CUSTOMER_ID)
    rows: list[dict] = []

    def items(count: int) -> list[dict]:
        out = []
        for _ in range(count):
            pid = None if rng.random() < 0.008 else rng.choice(product_ids)
            price = Decimal(f"{rng.randint(1, 99)}.{rng.randint(0, 99):02d}")
            out.append({"id": pid, "price": price,
                        "curr": rng.choice(_CURRENCIES),
                        "qty": rng.randint(1, 9)})
        return out

    generic = ORDER_COUNT - len(SCRIPTED_ORDER_DATETIMES)
    for j in range(generic):
        if j % 31 == 7:
            cid = None
            when = rng.randint(_epoch(_utc(2023, 1, 1)), _epoch(_utc(2024, 8, 1)))
        else:
            cid = rng.choice(customer_ids)
            when = _pick_order_time(rng, timelines[cid], before_first=j % 23 == 11)
        rows.append({
            "order_number": f"SO-{j + 1:05d}", "customer_id": cid,
            "order_datetime": when,
            "ordered_products": [] if j in EMPTY_ORDER_INDEXES
            else items(rng.randint(1, 5)),
        })
    for k, when in enumerate(SCRIPTED_ORDER_DATETIMES):
        rows.append({
            "order_number": f"SO-{generic + k + 1:05d}",
            "customer_id": SCRIPTED_CUSTOMER_ID,
            "order_datetime": _epoch(when),
            "ordered_products": items(2),
        })
    # Guarantee at least one unresolvable product reference.
    rows[55]["ordered_products"][0]["id"] = None
    return rows


# -- serialization --------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, datetime):
        return format_timestamp(value)
    return str(value)


def source_text(fixture: RetailFixture, source: str) -> str:
    """The full file body for one source, ready to ingest."""
    return _rows_text(source, fixture.rows(source))


def _rows_text(source: str, rows) -> str:
    if source == "sales_orders":
        return "".join(_order_line(row) for row in rows)
    columns = CSV_COLUMNS[source]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row[c]) for c in columns])
    return buffer.getvalue()


def _order_line(row: dict) -> str:
    doc = dict(row)
    doc["ordered_products"] = [
        {k: str(v) if isinstance(v, Decimal) else v for k, v in item.items()}
        for item in row["ordered_products"]
    ]
    return json.dumps(doc) + "\n"


def _extension(source: str) -> str:
    return "ndjson" if source == "sales_orders" else "csv"


def write_source_files(fixture: RetailFixture, directory: Path | str) -> dict[str, Path]:
    """One complete file per source, each with mtime DEFAULT_MTIME; returns
    {source: path}."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    stamp = DEFAULT_MTIME.timestamp()
    for source in ("customers", "sales_orders", "products", "loyalty_segments"):
        path = directory / f"{source}.{_extension(source)}"
        path.write_text(source_text(fixture, source), encoding="utf-8")
        os.utime(path, (stamp, stamp))
        paths[source] = path
    return paths


def split_rows(rows, batches: int, rng: random.Random) -> list[list]:
    """Consecutive, possibly empty slices; order within the source is kept."""
    if batches <= 1:
        return [list(rows)]
    cuts = sorted(rng.randint(0, len(rows)) for _ in range(batches - 1))
    bounds = [0] + cuts + [len(rows)]
    return [list(rows[a:b]) for a, b in zip(bounds, bounds[1:])]


def write_batches(fixture: RetailFixture, directory: Path | str, batches: int,
                  rng: random.Random | None = None) -> list[list[IngestJob]]:
    """Split every source into `batches` consecutive chunks and write one
    file per non-empty chunk. Batch k's files get mtime DEFAULT_MTIME + k
    days, so capture timestamps keep increasing across batches."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = rng or random.Random(SEED)
    chunked = {source: split_rows(fixture.rows(source), batches, rng)
               for source in ("customers", "sales_orders", "products",
                              "loyalty_segments")}
    out: list[list[IngestJob]] = []
    for k in range(batches):
        mtime = DEFAULT_MTIME + timedelta(days=k)
        jobs = []
        for source, chunks in chunked.items():
            if not chunks[k]:
                continue
            path = directory / f"{source}_b{k + 1}.{_extension(source)}"
            path.write_text(_rows_text(source, chunks[k]), encoding="utf-8")
            jobs.append(IngestJob(source, path, mtime))
        out.append(jobs)
    return out
