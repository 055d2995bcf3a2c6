from __future__ import annotations

import gc
import json
import os
import random
import re
import tempfile
from collections import Counter
from copy import deepcopy
from datetime import datetime, timedelta, timezone, tzinfo
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubstar import (
    build_all,
    check_against_oracle,
    ingest_file,
    init_warehouse,
    load_all,
    parse_model,
)
from hubstar import retail_fixture as rf
from hubstar import storage
from hubstar.errors import StorageError
from hubstar.model import SYSTEM_LOAD_SOURCE
from hubstar.storage import (
    ColumnSpec,
    ForeignKeySpec,
    TableManifest,
    Position,
    Warehouse,
    decode_row,
    encode_row,
)
from hubstar.tables import bronze_manifest, check_stored_manifest, silver_manifest
from hubstar.values import format_timestamp

from conftest import file_bytes, run_pipeline
from randmodels import random_model_text


def manifest(**overrides) -> TableManifest:
    base = dict(
        schema="lab",
        table="samples",
        columns=(
            ColumnSpec("sample_id", "string", nullable=False),
            ColumnSpec("count", "integer"),
            ColumnSpec("price", "decimal"),
            ColumnSpec("fresh", "boolean"),
            ColumnSpec("taken_at", "timestamp"),
        ),
        primary_key=("sample_id",),
    )
    base.update(overrides)
    return TableManifest(**base)


@pytest.fixture
def wh(tmp_path) -> Warehouse:
    warehouse = Warehouse(tmp_path)
    warehouse.create_table(manifest())
    return warehouse


ROW = {
    "sample_id": "s-1",
    "count": 3,
    "price": Decimal("1.50"),
    "fresh": True,
    "taken_at": datetime(2024, 5, 1, 12, 30, tzinfo=timezone.utc),
}


def test_round_trip_preserves_types(wh):
    wh.append_rows("lab", "samples", [ROW, {"sample_id": "s-2", "count": None},
                                      {"sample_id": "s-3", "price": Decimal("5")},
                                      {"sample_id": "s-4", "price": Decimal("-12")}])
    rows = wh.read_rows("lab", "samples")
    assert rows[0] == ROW
    assert isinstance(rows[0]["price"], Decimal)
    assert str(rows[0]["price"]) == "1.50"  # trailing zero survives
    assert rows[0]["taken_at"].tzinfo is not None
    second = rows[1]
    assert second["count"] is None
    assert second["price"] is None
    # An integral decimal is stored as a bare integer and read back a Decimal.
    assert [(type(r["price"]), str(r["price"])) for r in rows[2:]] == [
        (Decimal, "5"), (Decimal, "-12")]


def test_unicode_strings_round_trip(wh):
    wh.append_rows("lab", "samples", [{"sample_id": "søk/№5", "count": 1}])
    assert wh.read_rows("lab", "samples")[0]["sample_id"] == "søk/№5"


def test_collection_columns_round_trip(tmp_path):
    warehouse = Warehouse(tmp_path)
    warehouse.create_table(TableManifest(
        schema="raw", table="orders",
        columns=(
            ColumnSpec("order_id", "string"),
            ColumnSpec("lines", "collection",
                       fields=(("sku", "string"), ("qty", "integer"))),
        ),
    ))
    items = [{"sku": "A", "qty": 2}, {"sku": None, "qty": 1}]
    warehouse.append_rows("raw", "orders", [
        {"order_id": "o1", "lines": items},
        {"order_id": "o2", "lines": []},
        {"order_id": "o3", "lines": None},
    ])
    rows = warehouse.read_rows("raw", "orders")
    assert rows[0]["lines"] == items
    assert rows[1]["lines"] == []
    assert rows[2]["lines"] is None


def reference_encode_row(manifest: TableManifest, record) -> str:
    """A reference row encoder, interpreted per cell: a `json.dumps` for
    every column name and for every string or timestamp value."""
    def scalar(value) -> str:
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, datetime):
            return json.dumps(format_timestamp(value))
        if isinstance(value, Decimal):
            return "0" if str(value) == "-0" else str(value)  # "-0" reads back as 0
        if isinstance(value, int):
            return str(value)
        if isinstance(value, str):
            return json.dumps(value, ensure_ascii=False)
        raise StorageError(f"cannot persist value of type {type(value).__name__}")

    def collection(items, fields) -> str:
        if items is None:
            return "null"
        return "[" + ",".join("{" + ",".join(f"{json.dumps(name)}:{scalar(item.get(name))}"
                                             for name, _ftype in fields) + "}"
                              for item in items) + "]"

    def value(col: ColumnSpec) -> str:
        if col.type == "collection":
            return collection(record.get(col.name), col.fields)
        return scalar(record.get(col.name))

    return "{" + ",".join(f"{json.dumps(col.name)}:{value(col)}"
                          for col in manifest.columns) + "}"


def random_manifests(seed: int) -> list[TableManifest]:
    """The bronze layouts of a `randmodels` sample's sources and the silver
    layouts of its hubs and stars."""
    spec = parse_model(random_model_text(random.Random(seed))).spec
    return ([bronze_manifest(spec, source) for source in spec.sources]
            + [silver_manifest(spec, element) for element in spec.hubs + spec.stars])


AWKWARD_TEXT = st.text() | st.sampled_from(
    ["", '"', "\\", '\\"', "\u2028", "\u2029", "\x00\x1f\x7f", "line\nbreak\r", "søk/№5"])
# Aware datetimes only: a stored timestamp reads back in UTC, which equals
# any aware value of the same instant and no naive one.
OFFSETS = st.builds(timezone, st.timedeltas(min_value=timedelta(hours=-23, minutes=-59),
                                            max_value=timedelta(hours=23, minutes=59)))
VALUES = {
    "string": AWKWARD_TEXT,
    "integer": st.integers() | st.booleans(),
    "boolean": st.booleans(),
    "decimal": st.decimals(allow_nan=False, allow_infinity=False) | st.sampled_from(
        [Decimal("1E+3"), Decimal("-0"), Decimal("1.50"), Decimal("-12"), Decimal("1E-7")]),
    "timestamp": st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30),
                              timezones=OFFSETS),
}


def column_values(column: ColumnSpec, values=VALUES):
    if column.type != "collection":
        return st.none() | values[column.type]
    item = st.fixed_dictionaries({name: st.none() | values[ftype]
                                  for name, ftype in column.fields})
    return st.none() | st.lists(item, max_size=3)


# UTC instants that stay within years 1-9999 under any offset of OFFSETS.
INSTANTS = st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30),
                        timezones=st.just(timezone.utc))


def shared_timestamps(pool: list[datetime]):
    """Instants of `pool`, each under any offset of OFFSETS."""
    return st.builds(datetime.astimezone, st.sampled_from(pool), OFFSETS)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_the_compiled_codec_equals_the_reference_encoder_and_round_trips(seed, data):
    manifest = data.draw(st.sampled_from(random_manifests(seed)))
    # The rows of one draw share a few instants, each under several offsets,
    # so the codec's memos meet one instant under different tzinfo.
    pool = data.draw(st.lists(INSTANTS, min_size=1, max_size=3))
    values = dict(VALUES, timestamp=shared_timestamps(pool))
    for row in data.draw(st.lists(st.fixed_dictionaries(
            {col.name: column_values(col, values) for col in manifest.columns}), max_size=6)):
        line = encode_row(manifest, row)
        assert line == reference_encode_row(manifest, row)
        assert decode_row(manifest, line) == row
        assert encode_row(manifest, decode_row(manifest, line)) == line  # byte-stable


@pytest.mark.parametrize("value, stored", [
    (Decimal("-0"), "0"), (Decimal("-0E-0"), "0"), (Decimal("-0.00"), "-0.00"),
    (Decimal("-0E+2"), "-0E+2"), (Decimal("0"), "0")])
def test_a_zero_decimal_keeps_its_bytes_through_a_round_trip(value, stored):
    priced = manifest(columns=(ColumnSpec("price", "decimal"),))
    line = encode_row(priced, {"price": value})
    assert line == '{"price":%s}' % stored
    assert decode_row(priced, line) == {"price": value}
    assert encode_row(priced, decode_row(priced, line)) == line


def test_every_row_storage_reads_or_writes_goes_through_the_counted_names(
        loaded, retail_spec, decoded, rows_encoded, tmp_path):
    silver = retail_spec.schema_names["silver"]
    lines = _lines_of(loaded.table_dir(silver, "hub_customer") / "data")
    rows = Warehouse(loaded.root).read_rows(silver, "hub_customer")
    assert decoded == {(silver, "hub_customer"): len(lines)} and len(rows) == len(lines)
    copy = Warehouse(tmp_path / "wh")
    copy.replace_table(loaded.manifest(silver, "hub_customer"), rows)
    assert rows_encoded == {silver: len(rows)}
    assert _lines_of(copy.table_dir(silver, "hub_customer") / "data") == lines


def test_create_table_refuses_to_clobber(wh):
    wh.append_rows("lab", "samples", [ROW])
    with pytest.raises(StorageError, match="already exists"):
        wh.create_table(manifest())
    assert wh.read_rows("lab", "samples") == [ROW]


def test_missing_table_raises(wh):
    with pytest.raises(StorageError, match="no such table"):
        wh.read_rows("lab", "nothing")
    with pytest.raises(StorageError, match="no such table"):
        wh.append_rows("lab", "nothing", [ROW])


def test_the_digest_of_a_missing_table_is_refused(wh):
    with pytest.raises(StorageError, match=r"^no such table lab\.nothing$"):
        wh.table_digest("lab", "nothing")


def test_a_table_without_a_data_file_reads_no_rows(wh):
    (wh.table_dir("lab", "samples") / "data").unlink()
    assert wh.read_rows("lab", "samples") == []


def test_an_append_refuses_to_replace_a_row_past_the_end(wh):
    wh.append_rows("lab", "samples", [ROW])
    data = wh.table_dir("lab", "samples") / "data"
    before = data.read_bytes()
    with pytest.raises(StorageError, match=r"^lab\.samples: no row at position 1$"):
        wh.append_rows("lab", "samples", [{"sample_id": "s-2"}], replace={1: ROW})
    assert data.read_bytes() == before


def test_list_tables(wh):
    assert wh.list_tables("lab") == ["samples"]
    assert wh.list_tables("void") == []


def test_appends_hold_the_bytes_of_one_write(wh, tmp_path):
    rows = [ROW, {"sample_id": "s-2", "price": Decimal("-0.10")},
            {"sample_id": "s-3", "taken_at": datetime(2024, 5, 2, tzinfo=timezone.utc)},
            {"sample_id": "søk", "fresh": False}]
    for chunk in (rows[:1], [], rows[1:3], rows[3:]):
        wh.append_rows("lab", "samples", chunk)
    once = Warehouse(tmp_path / "once")
    once.replace_table(manifest(), rows)
    data = ("lab", "samples", "data")
    assert wh.root.joinpath(*data).read_bytes() == once.root.joinpath(*data).read_bytes()


def test_appends_that_replace_lines_hold_the_bytes_of_one_write(wh, tmp_path):
    rows = [ROW, {"sample_id": "s-2", "count": 2}, {"sample_id": "s-3", "fresh": False}]
    wh.append_rows("lab", "samples", rows)
    merged = [rows[0], {"sample_id": "s-2", "count": 5, "price": Decimal("0.10")},
              {"sample_id": "s-3"}, {"sample_id": "s-4", "taken_at": ROW["taken_at"]}]
    wh.append_rows("lab", "samples", merged[3:], replace={1: merged[1], 2: merged[2]},
                   lines=3)
    once = Warehouse(tmp_path / "once")
    once.replace_table(manifest(), merged)
    data = ("lab", "samples", "data")
    assert wh.root.joinpath(*data).read_bytes() == once.root.joinpath(*data).read_bytes()
    assert wh.read_rows("lab", "samples") == once.read_rows("lab", "samples")


def test_an_append_ends_a_last_line_that_lost_its_newline(tmp_path):
    wh = Warehouse(tmp_path)
    wh.create_table(TableManifest("lab", "one", (ColumnSpec("a", "integer"),)))
    data = wh.table_dir("lab", "one") / "data"
    data.write_bytes(b'{"a":1}')
    wh.append_rows("lab", "one", [{"a": 2}])
    assert data.read_bytes() == b'{"a":1}\n{"a":2}\n'
    assert wh.read_rows("lab", "one") == [{"a": 1}, {"a": 2}]


@pytest.mark.parametrize("grown", [True, False], ids=["grown", "shrunk"])
def test_appends_refuse_a_file_whose_line_count_changed(wh, grown):
    wh.append_rows("lab", "samples", [ROW, {"sample_id": "s-2"}])
    read = len(wh.read_rows("lab", "samples"))
    if grown:  # another writer appended
        wh.append_rows("lab", "samples", [{"sample_id": "s-3"}])
    else:
        wh.replace_table(manifest(), [ROW])
    data = wh.table_dir("lab", "samples") / "data"
    before, inode = data.read_bytes(), data.stat().st_ino
    with pytest.raises(StorageError, match=r"lab\.samples: data holds \d rows, not the 2 read"):
        wh.append_rows("lab", "samples", [{"sample_id": "s-9"}],
                       replace={0: {"sample_id": "s-1", "count": 9}}, lines=read)
    with pytest.raises(StorageError, match="not the 2 read"):  # an insert alone too
        wh.append_rows("lab", "samples", [{"sample_id": "s-9"}], lines=read)
    assert (data.read_bytes(), data.stat().st_ino) == (before, inode)


def test_an_append_reads_its_data_file_once(wh, monkeypatch):
    wh.append_rows("lab", "samples", [ROW, {"sample_id": "s-2"}])
    data = wh.table_dir("lab", "samples") / "data"
    opened: list[tuple[Path, str]] = []
    open_file = Path.open

    def recorded(self, mode="r", *args, **kwargs):
        opened.append((self, mode))
        return open_file(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", recorded)
    for rows, replace, rewritten in (([], {0: ROW}, False),  # the same bytes: left alone
                                     ([], {1: {"sample_id": "s-2", "count": 2}}, True),
                                     ([{"sample_id": "s-3"}], {}, True)):
        before = data.stat().st_ino
        opened.clear()
        wh.append_rows("lab", "samples", rows, replace=replace, lines=2)
        assert [mode for path, mode in opened if path == data] == ["rb"]
        assert (data.stat().st_ino != before) == rewritten


def test_a_tail_read_decodes_only_the_complete_lines_past_its_start(tmp_path, decoded):
    warehouse = Warehouse(tmp_path)
    warehouse.create_table(TableManifest(
        schema="raw", table="events",
        columns=(ColumnSpec("capture_timestamp", "timestamp", nullable=False),
                 ColumnSpec("label", "string"))))
    at = datetime(2024, 5, 1, 12, tzinfo=timezone.utc)
    warehouse.append_rows("raw", "events", [
        {"capture_timestamp": at, "label": str(n)} for n in range(3)])
    data = warehouse.table_dir("raw", "events") / "data"
    ends = [n + 1 for n, byte in enumerate(data.read_bytes()) if byte == ord("\n")]
    # A blank line, a hand-written line, and a last line without its newline.
    with data.open("a", encoding="utf-8") as fh:
        fh.write(' \n{"label": "3", "capture_timestamp": "2024-05-01T13:00:00Z"}\n'
                 '{"label": "4"')
    decoded.clear()
    tail = warehouse.tail("raw", "events", Position(ends[0], 1))
    assert tail.start == Position(ends[0], 1)
    assert tail.ends == (ends[1], ends[2], len(data.read_bytes()) - len('{"label": "4"'))
    rows = warehouse.read_rows("raw", "events", snapshot=tail)
    assert [r["label"] for r in rows] == ["1", "2", "3"]
    assert len(decoded.lines) == 3  # the lines past the start, and only those
    assert warehouse.tail("raw", "events", Position(tail.ends[-1], 4)).lines == []
    # Counting past a start: each line end, with the lines before it.
    assert [tail.skipped("raw.events", Position(end, lines))
            for end, lines in zip((ends[0], *tail.ends), range(1, 5))] == [0, 1, 2, 3]
    # A start that no line ends at, or past the end, reads no line and is
    # refused, as is a count that does not match an offset.
    for start in (Position(ends[0] - 1, 1), Position(len(data.read_bytes()) + 1, 1)):
        refused = warehouse.tail("raw", "events", start)
        assert (refused.start, refused.lines) == (None, [])
        with pytest.raises(StorageError, match=rf"^raw\.events: no line ends at byte "
                                               rf"{start.offset}, where 1 lines were consumed; "
                                               "the data file was cut or rewritten$"):
            refused.skipped("raw.events", start)
    for start in (Position(ends[1], 1), Position(ends[1] + 1, 2)):
        with pytest.raises(StorageError, match="no line ends at byte"):
            tail.skipped("raw.events", start)


def test_a_manifest_is_parsed_once_for_each_content(wh, monkeypatch):
    parsed = []
    from_json = TableManifest.from_json
    monkeypatch.setattr(TableManifest, "from_json",
                        staticmethod(lambda doc: parsed.append(doc) or from_json(doc)))
    for _ in range(3):
        wh.read_rows("lab", "samples")
    assert len(parsed) == 1
    Warehouse(wh.root).replace_table(manifest(unique=(("count",),)), [])  # another writer
    assert wh.manifest("lab", "samples").unique == (("count",),)
    assert len(parsed) == 2


def full(**values) -> dict:
    """A row of `manifest()` that holds every column: ROW with `values`."""
    return {**ROW, **values}


def test_a_read_after_a_splice_decodes_only_the_lines_it_wrote(wh, decoded):
    wh.append_rows("lab", "samples", [ROW, full(sample_id="s-2")])
    rows = wh.read_rows("lab", "samples")
    decoded.clear()
    # A splice keeps a copy of each row it writes; the read after the first
    # decodes only the lines written before it, which no read kept.
    wh.append_rows("lab", "samples", [full(sample_id="s-3")], lines=len(rows))
    rows = wh.read_rows("lab", "samples")
    assert [line[:len('{"sample_id":"s-1"')] for line in decoded.lines] == [
        '{"sample_id":"s-1"', '{"sample_id":"s-2"']
    decoded.clear()
    replacement = full(sample_id="s-2", count=2)
    wh.append_rows("lab", "samples", [full(sample_id="s-4")], replace={1: replacement},
                   lines=len(rows))
    replacement["count"] = 5  # the caller's row is not the one kept
    after = wh.read_rows("lab", "samples")
    assert decoded.lines == []
    # The manifest keeps the rows of the lines the read returned, and only
    # those: not the line the splice replaced.
    data = wh.table_dir("lab", "samples") / "data"
    assert list(wh.manifest("lab", "samples").kept) == data.read_bytes().split(b"\n")[:-1]
    assert after == Warehouse(wh.root).read_rows("lab", "samples")
    assert after[1]["count"] == 2
    assert after[0] is rows[0] and after[2] is rows[2]  # shared, so never to be mutated
    assert after is not wh.read_rows("lab", "samples")
    assert len(decoded.lines) == 4  # the fresh Warehouse decoded every line


def exactly(a, b) -> bool:
    """Whether `a` and `b` are equal value for value, with equal types and
    reprs, recursing into lists and dicts (whose keys must come in one
    order): `==` alone lets `Decimal("2")` pass for `2`."""
    if type(a) is not type(b) or repr(a) != repr(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(exactly(a[key], b[key]) for key in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(exactly, a, b))
    return a == b


def test_an_object_that_only_reads_keeps_no_rows(wh, decoded):
    wh.append_rows("lab", "samples", [ROW, {"sample_id": "s-2"}])
    decoded.clear()
    rows = wh.read_rows("lab", "samples")
    assert gc.get_referrers(*rows) == [rows]  # only the caller's list holds them
    assert wh.check_all("lab") == []
    assert wh.read_rows("lab", "samples") == rows
    assert len(decoded.lines) == 2 * 3  # every read decodes every line


def test_a_spliced_table_whose_manifest_changed_is_decoded_again(wh):
    wh.append_rows("lab", "samples", [ROW])
    rows = wh.read_rows("lab", "samples")
    wh.append_rows("lab", "samples", [{"sample_id": "s-2"}], lines=len(rows))
    wider = manifest(columns=manifest().columns + (ColumnSpec("note", "string"),))
    # Another writer widens the manifest and leaves the data bytes as they are.
    (wh.table_dir("lab", "samples") / "manifest").write_text(
        json.dumps(wider.to_json(), indent=2) + "\n", encoding="utf-8")
    assert [row["note"] for row in wh.read_rows("lab", "samples")] == [None, None]


def test_rows_read_through_one_warehouse_equal_a_fresh_read(
        tmp_path, monkeypatch, retail_spec, retail_data):
    read: set = set()
    read_rows = Warehouse.read_rows

    def recorded(self, schema, table, **kwargs):
        read.add((schema, table))
        return read_rows(self, schema, table, **kwargs)

    monkeypatch.setattr(Warehouse, "read_rows", recorded)
    warehouse = run_pipeline(tmp_path / "wh", retail_spec, retail_data, batches=4)
    assert check_against_oracle(warehouse, retail_spec) == []
    for schema in retail_spec.schema_names.values():
        assert warehouse.check_all(schema) == []
    silver = retail_spec.schema_names["silver"]
    assert {(silver, e.table_name) for e in retail_spec.hubs + retail_spec.stars} <= read
    for schema, table in sorted(read):
        assert read_rows(warehouse, schema, table) == \
            read_rows(Warehouse(warehouse.root), schema, table), f"{schema}.{table}"


@pytest.mark.parametrize("writer", ["warehouse", "hand"])
def test_a_spliced_table_changed_by_another_writer_is_read_from_its_bytes(
        tmp_path, retail_spec, retail_data, writer):
    root = tmp_path / "wh"
    warehouse = Warehouse(root)
    init_warehouse(warehouse, retail_spec)
    silver = retail_spec.schema_names["silver"]

    def load(through, jobs):
        for job in jobs:
            ingest_file(through, retail_spec, job.source, job.path,
                        now=rf.DEFAULT_NOW, mtime=job.mtime)
        load_all(through, retail_spec, now=rf.DEFAULT_NOW)

    first, second, third = rf.write_batches(retail_data, tmp_path / "inbox", 3)
    load(warehouse, first)
    assert warehouse.read_rows(silver, "hub_customer")[1]["load_timestamp"] == rf.DEFAULT_NOW
    if writer == "warehouse":
        load(Warehouse(root), second)
    else:  # same length, same mtime: only the bytes tell
        data = warehouse.table_dir(silver, "hub_customer") / "data"
        before = data.stat()
        field = b'"load_timestamp":"'
        stamp, earlier = (format_timestamp(at).encode() for at in
                          (rf.DEFAULT_NOW, rf.DEFAULT_NOW - timedelta(days=1)))
        lines = data.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(field + stamp, field + earlier)
        data.write_bytes(b"\n".join(lines))
        os.utime(data, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = data.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert warehouse.read_rows(silver, "hub_customer")[1]["load_timestamp"] == \
            rf.DEFAULT_NOW - timedelta(days=1)
        load(warehouse, second)
    load(warehouse, third)
    assert check_against_oracle(warehouse, retail_spec) == []
    for element in retail_spec.hubs + retail_spec.stars:
        assert warehouse.read_rows(silver, element.table_name) == \
            Warehouse(root).read_rows(silver, element.table_name)


@pytest.mark.parametrize("model, difference", [
    (manifest(columns=manifest().columns[:4]),
     ": column taken_at is absent in the model, timestamp in storage"),
    (manifest(columns=(ColumnSpec("sample_id", "integer", nullable=False),
                       *manifest().columns[1:])),
     ": column sample_id is integer not null in the model, string not null in storage"),
    (manifest(columns=manifest().columns[::-1]), " in its column order"),
    (manifest(primary_key=("count",)), " in its primary key"),
])
def test_a_stored_manifest_unlike_the_model_is_refused_by_its_first_difference(
        wh, model, difference):
    with pytest.raises(StorageError, match=re.escape(
            "lab.samples: the stored manifest differs from the model's" + difference)):
        check_stored_manifest(wh, model)
    assert check_stored_manifest(wh, manifest()) is True
    assert check_stored_manifest(wh, manifest(table="absent")) is False


def test_a_stored_manifest_that_names_another_table_is_refused(wh):
    copy = wh.table_dir("lab", "copy")
    copy.mkdir()
    (copy / "manifest").write_bytes((wh.table_dir("lab", "samples") / "manifest").read_bytes())
    with pytest.raises(StorageError) as info:
        check_stored_manifest(wh, manifest(table="copy"))
    assert str(info.value) == "lab.copy: the stored manifest differs from the model's"


def test_a_stored_line_that_does_not_decode_is_refused_by_table_and_line(tmp_path):
    stamped = manifest(columns=(ColumnSpec("capture_timestamp", "timestamp", nullable=False),
                                *manifest().columns))
    wh = Warehouse(tmp_path)
    wh.create_table(stamped)
    day = {n: datetime(2024, 1, n, tzinfo=timezone.utc) for n in (1, 2, 3)}
    wh.append_rows("lab", "samples", [{**ROW, "sample_id": f"s-{n}", "capture_timestamp": day[n]}
                                      for n in (1, 2, 3)], lines=0)
    assert len(wh.read_rows("lab", "samples")) == 3  # the memo now holds every line
    data = tmp_path / "lab" / "samples" / "data"
    lines = data.read_bytes().split(b"\n")
    lines[1] = lines[1].replace(b'"price":1.50', b'"price":sNaN')
    data.write_bytes(b"\n".join(lines))
    ends = [n + 1 for n, byte in enumerate(data.read_bytes()) if byte == ord("\n")]
    for read in (lambda: wh.read_rows("lab", "samples"),  # through the memo
                 lambda: Warehouse(tmp_path).read_rows("lab", "samples"),
                 lambda: wh.read_rows("lab", "samples",
                                      snapshot=wh.tail("lab", "samples", Position(ends[0], 1)))):
        with pytest.raises(StorageError, match=r"^lab\.samples: line 2 does not decode: "):
            read()
    # A tail read past the line never decodes it.
    assert [r["sample_id"] for r in wh.read_rows(
        "lab", "samples", snapshot=wh.tail("lab", "samples", Position(ends[1], 2)))] == ["s-3"]
    # With lines 1 and 3 bad, a read names the line it failed on.
    lines[1], lines[0] = lines[0], lines[1]
    lines[2] = lines[2].replace(b'"price":1.50', b'"price":sNaN')
    data.write_bytes(b"\n".join(lines))
    with pytest.raises(StorageError, match=r"^lab\.samples: line 1 does not decode: "):
        Warehouse(tmp_path).read_rows("lab", "samples")
    with pytest.raises(StorageError, match=r"^lab\.samples: line 3 does not decode: "):
        fresh = Warehouse(tmp_path)
        fresh.read_rows("lab", "samples", snapshot=fresh.tail("lab", "samples", Position(ends[1], 2)))
    # A byte that is not UTF-8 is found by its line too.
    data.write_bytes(b"\n".join([lines[1], lines[1].replace(b"s-1", b"s-\xff"), b""]))
    with pytest.raises(StorageError, match=r"^lab\.samples: line 2 does not decode: 'utf-8'"):
        Warehouse(tmp_path).read_rows("lab", "samples")


@pytest.fixture()
def timestamp_calls(monkeypatch) -> Counter:
    """Counts storage's calls of `format_timestamp` and
    `parse_stored_timestamp` from here on, by name."""
    calls: Counter = Counter()
    for name in ("format_timestamp", "parse_stored_timestamp"):
        def counted(value, name=name, original=getattr(storage, name)):
            calls[name] += 1
            return original(value)
        monkeypatch.setattr(storage, name, counted)
    return calls


def stamped() -> TableManifest:
    """`manifest()` led by a capture time, so its lines carry the capture
    prefix a read after a mark tests."""
    return manifest(columns=(ColumnSpec("capture_timestamp", "timestamp", nullable=False),
                             *manifest().columns))


def test_each_distinct_timestamp_crosses_the_codec_once(tmp_path, timestamp_calls):
    day = [datetime(2024, 1, n, tzinfo=timezone.utc) for n in (1, 2, 3)]
    wh = Warehouse(tmp_path)
    wh.create_table(stamped())
    # 50 rows, 100 timestamps, 3 instants: each also under another offset.
    wh.append_rows("lab", "samples", [
        {"sample_id": f"s-{n}", "capture_timestamp": day[n % 3],
         "taken_at": day[n % 3].astimezone(timezone(timedelta(hours=n % 5 - 2)))}
        for n in range(50)])
    assert timestamp_calls == {"format_timestamp": 3}
    timestamp_calls.clear()
    rows = wh.read_rows("lab", "samples")
    assert [(r["capture_timestamp"], r["taken_at"]) for r in rows] == [
        (day[n % 3], day[n % 3]) for n in range(50)]
    assert timestamp_calls == {"parse_stored_timestamp": 3}
    timestamp_calls.clear()
    assert wh.read_rows("lab", "samples") == rows
    assert wh.read_rows("lab", "samples", snapshot=wh.tail("lab", "samples", Position())) == rows
    assert timestamp_calls == {}


class RepeatedHour(tzinfo):
    """A zone whose wall clock runs 01:00-02:00 twice: at UTC-4, then, with
    `fold` set, at UTC-5."""

    def utcoffset(self, dt):
        return timedelta(hours=-5 if dt.fold else -4)

    def dst(self, dt):
        return None


def test_equal_datetimes_of_one_zone_that_differ_in_fold_keep_their_own_texts():
    first = datetime(2024, 11, 3, 1, 30, tzinfo=RepeatedHour())
    second = first.replace(fold=1)
    assert first == second  # one wall time, compared without fold: two instants
    timed = manifest(columns=(ColumnSpec("taken_at", "timestamp"),))
    assert [encode_row(timed, {"taken_at": at}) for at in (first, second, first)] == [
        '{"taken_at":"2024-11-03T05:30:00Z"}', '{"taken_at":"2024-11-03T06:30:00Z"}',
        '{"taken_at":"2024-11-03T05:30:00Z"}']


def test_a_timestamp_that_does_not_parse_fails_every_read_through_one_object(tmp_path):
    wh = Warehouse(tmp_path)
    wh.create_table(stamped())
    day = datetime(2024, 1, 1, tzinfo=timezone.utc)
    wh.append_rows("lab", "samples", [{"sample_id": f"s-{n}", "capture_timestamp": day,
                                       "taken_at": day} for n in (1, 2, 3)])
    data = tmp_path / "lab" / "samples" / "data"
    lines = data.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b"T00:", b"T25:")
    data.write_bytes(b"\n".join(lines))
    for _ in range(2):
        for read in (lambda: wh.read_rows("lab", "samples"),
                     lambda: wh.read_rows("lab", "samples",
                                          snapshot=wh.tail("lab", "samples", Position()))):
            with pytest.raises(StorageError, match=r"^lab\.samples: line 3 does not decode: "):
                read()


def test_a_null_capture_time_is_read_back_by_every_read(tmp_path):
    # Storage does not judge a capture time: staging refuses a null one, by
    # its line (test_silver's shared-read test).
    stamped = manifest(columns=(ColumnSpec("capture_timestamp", "timestamp", nullable=False),
                                *manifest().columns))
    wh = Warehouse(tmp_path)
    wh.replace_table(stamped, [{**ROW, "sample_id": f"s-{n}", "capture_timestamp": at}
                               for n, at in enumerate([ROW["taken_at"], None], start=1)])
    for snapshot in (None, wh.tail("lab", "samples", Position())):
        assert [r["capture_timestamp"] for r in wh.read_rows("lab", "samples",
                                                             snapshot=snapshot)] == [
            ROW["taken_at"], None]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("column, stored", [("price", '"price":1.50'), ("count", '"count":3')],
                         ids=["decimal", "integer"])
def test_a_bare_non_finite_token_in_a_stored_line_does_not_decode(wh, tmp_path, token,
                                                                   column, stored):
    # Python's own JSON decoder reads these tokens, as Decimal('NaN') or inf.
    wh.append_rows("lab", "samples", [ROW, {**ROW, "sample_id": "s-2"}], lines=0)
    data = tmp_path / "lab" / "samples" / "data"
    lines = data.read_text(encoding="utf-8").split("\n")
    assert stored in lines[1]
    lines[1] = lines[1].replace(stored, f'"{column}":{token}')
    data.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(StorageError, match=rf"^lab\.samples: line 2 does not decode: "
                                           rf"{re.escape(token)} is not a JSON number$"):
        Warehouse(tmp_path).read_rows("lab", "samples")


@pytest.mark.parametrize("column, value, refusal", [
    ("price", Decimal("NaN"), "non-finite decimal NaN"),
    ("price", Decimal("Infinity"), "non-finite decimal Infinity"),
    ("count", Decimal("-Infinity"), "non-finite decimal -Infinity"),
    ("price", Decimal("sNaN"), "non-finite decimal sNaN"),
    ("sample_id", "a\ud800b", "a string holding the lone surrogate '\\ud800'"),
    ("price", 1.5, "value of type float"),
], ids=["nan", "infinity", "minus-infinity", "signalling-nan", "lone-surrogate", "float"])
def test_a_value_no_read_would_give_back_is_refused_before_a_byte_is_written(
        tmp_path, column, value, refusal):
    warehouse = Warehouse(tmp_path)
    warehouse.create_table(manifest())
    warehouse.append_rows("lab", "samples", [ROW, {**ROW, "sample_id": "s-2"}])
    bad = {**ROW, "sample_id": "s-3", column: value}
    calls = [
        ("samples", lambda: warehouse.append_rows("lab", "samples", [bad])),
        ("samples", lambda: warehouse.append_rows("lab", "samples", [bad], lines=2)),
        ("samples", lambda: warehouse.append_rows("lab", "samples", [], replace={1: bad},
                                                  lines=2)),
        ("samples", lambda: warehouse.upsert_rows("lab", "samples", [bad])),
        ("samples", lambda: warehouse.replace_table(manifest(), [ROW, bad])),
        ("fresh", lambda: warehouse.replace_table(manifest(table="fresh"), [bad])),
    ]
    before = file_bytes(tmp_path)
    for table, call in calls:
        with pytest.raises(StorageError,
                           match=rf"^lab\.{table}: cannot persist {re.escape(refusal)}$"):
            call()
        assert file_bytes(tmp_path) == before
    assert not warehouse.table_exists("lab", "fresh")
    assert Warehouse(tmp_path).read_rows("lab", "samples") == [ROW, {**ROW, "sample_id": "s-2"}]


def test_a_spliced_line_that_does_not_decode_keeps_no_row_and_the_next_read_names_it(
        wh, decoded):
    # Constraints are not enforced on the write path, so a string in a
    # timestamp column is written; it cannot be read back as a timestamp.
    wh.append_rows("lab", "samples", [ROW, {**ROW, "sample_id": "s-2", "taken_at": "soon"}],
                   lines=0)
    manifest_object = wh.manifest("lab", "samples")
    assert [row["sample_id"] for row in manifest_object.kept.values()] == ["s-1"]
    with pytest.raises(StorageError, match=r"^lab\.samples: line 2 does not decode: "):
        wh.read_rows("lab", "samples")
    assert decoded.lines == [encode_row(manifest_object, {**ROW, "sample_id": "s-2",
                                                          "taken_at": "soon"})] * 2


def _ingest_and_load(through: Warehouse, spec, jobs):
    for job in jobs:
        ingest_file(through, spec, job.source, job.path, now=rf.DEFAULT_NOW, mtime=job.mtime)
    load_all(through, spec, now=rf.DEFAULT_NOW)


def _lines_of(path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").split("\n") if line]


def test_a_spliced_table_another_writer_loaded_decodes_only_the_changed_lines(
        tmp_path, retail_spec, retail_data, decoded):
    root = tmp_path / "wh"
    warehouse = Warehouse(root)
    init_warehouse(warehouse, retail_spec)
    silver = retail_spec.schema_names["silver"]
    data = warehouse.table_dir(silver, "hub_customer") / "data"
    first, second = rf.write_batches(retail_data, tmp_path / "inbox", 2)
    _ingest_and_load(warehouse, retail_spec, first)
    warehouse.read_rows(silver, "hub_customer")
    read = set(_lines_of(data))
    _ingest_and_load(Warehouse(root), retail_spec, second)  # another writer
    changed = [line for line in _lines_of(data) if line not in read]
    assert 0 < len(changed) < len(_lines_of(data))
    decoded.clear()
    rows = warehouse.read_rows(silver, "hub_customer")
    assert decoded.lines == changed
    assert rows == Warehouse(root).read_rows(silver, "hub_customer")


EVENTS = TableManifest(schema="raw", table="events", columns=(
    ColumnSpec("capture_timestamp", "timestamp", nullable=False),
    ColumnSpec("label", "string"), ColumnSpec("price", "decimal")))
# Captures before 1970 and after, two a microsecond apart, and each drawn
# often enough to repeat.
CAPTURES = [datetime(1969, 12, 31, 23, 59, 59, tzinfo=timezone.utc),
            datetime(1970, 1, 1, tzinfo=timezone.utc),
            datetime(2024, 5, 1, 12, tzinfo=timezone.utc),
            datetime(2024, 5, 1, 12, 0, 0, 1, tzinfo=timezone.utc)]
EVENT = st.fixed_dictionaries({"capture_timestamp": st.sampled_from(CAPTURES),
                               "label": st.none() | st.sampled_from(["a", "b", "søk"]),
                               "price": st.none() | st.sampled_from([Decimal("1.50"),
                                                                      Decimal("-0.00")])})
EVENT_LINE = st.one_of(
    EVENT.map(lambda row: encode_row(EVENTS, row)),
    # By hand: keys out of order, a capture time with an offset, no price.
    EVENT.map(lambda row: json.dumps({"label": row["label"], "capture_timestamp": (
        row["capture_timestamp"].astimezone(timezone(timedelta(hours=-3))).isoformat())})),
    # By hand after the canonical prefix: a capture time not in canonical form.
    EVENT.map(lambda row: '{"capture_timestamp":"%s","label":%s}' % (
        row["capture_timestamp"].isoformat(sep=" "), json.dumps(row["label"]))))


def _decoded_lines(path: Path, offset: int = 0) -> list[dict]:
    """The reference read: every complete non-blank line past `offset`
    decoded, in order."""
    return [decode_row(EVENTS, line.strip().decode())
            for line in path.read_bytes()[offset:].split(b"\n")[:-1] if line.strip()]


def _starts(path: Path) -> list[Position]:
    """The position of each line of the file, and of its end."""
    starts = [Position()]
    for line in path.read_bytes().split(b"\n")[:-1]:
        starts.append(Position(starts[-1].offset + len(line) + 1,
                               starts[-1].lines + bool(line.strip())))
    return starts


@settings(max_examples=60, deadline=None)
@given(draw=st.data())
def test_every_way_of_reading_equals_decoding_every_line(draw):
    lines = draw.draw(st.lists(EVENT_LINE, min_size=1, max_size=4), label="distinct lines")
    text = draw.draw(st.lists(st.sampled_from(lines + ["", "  "]), max_size=10), label="file")
    picks = draw.draw(st.lists(st.none() | st.integers(0, 20), min_size=1, max_size=4),
                      label="starts")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        Warehouse(root).create_table(EVENTS)
        data = root / "raw" / "events" / "data"
        data.write_text("".join(line + "\n" for line in text), encoding="utf-8")
        one = Warehouse(root)

        def read_every_way():
            starts = _starts(data)
            for pick in picks:
                start = None if pick is None else starts[pick % len(starts)]
                for through in (one, Warehouse(root)):
                    rows = through.read_rows("raw", "events", snapshot=None if start is None
                                             else through.tail("raw", "events", start))
                    assert exactly(rows, _decoded_lines(data, start.offset if start else 0))
                    if start is None:  # a line held twice gives one row
                        held = [line.strip() for line in data.read_text(encoding="utf-8")
                                .split("\n") if line.strip()]
                        assert all(rows[i] is rows[held.index(line)]
                                   for i, line in enumerate(held))

        read_every_way()  # an object that keeps no rows
        one.append_rows("raw", "events", [draw.draw(EVENT, label="spliced")],
                        lines=len(one.read_rows("raw", "events")))
        read_every_way()  # the object now keeps the rows of what it splices
        read = len(one.read_rows("raw", "events"))
        Warehouse(root).append_rows(  # another writer splices
            "raw", "events", [draw.draw(EVENT, label="appended")],
            replace={draw.draw(st.integers(0, read - 1), label="position"):
                     draw.draw(EVENT, label="replacement")}, lines=read)
        read_every_way()


class Text(str):
    """A string that is not a `str`: its stored line reads back as one."""


_DAYS = dict(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30))
# Values of each scalar column type that decoding their stored text gives
# back exactly, and values it does not, or that are not of the column's
# type: an `int`, a negative zero or an exponent in a decimal column, a
# naive datetime or one at another offset, a `bool` in an integer column,
# an `int` in a boolean one, a `str` subclass.
EXACT = {
    "string": st.text(max_size=4),
    "integer": st.integers(),
    "boolean": st.booleans(),
    "decimal": st.decimals(allow_nan=False, allow_infinity=False, places=2),
    "timestamp": st.datetimes(timezones=st.just(timezone.utc), **_DAYS),
}
OTHER = {
    "string": st.text(max_size=4).map(Text),
    "integer": st.booleans(),
    "boolean": st.integers(0, 1),
    "decimal": st.integers(-10**6, 10**6) | st.sampled_from(
        [Decimal("-0"), Decimal("-0.00"), Decimal("1E+2"), Decimal("0E-7")]),
    "timestamp": st.datetimes(timezones=st.none() | st.sampled_from(
        [timezone(timedelta(hours=-3)), timezone(timedelta(hours=5, minutes=30))]), **_DAYS),
}
COLUMN_TYPES = st.sampled_from(sorted(EXACT)) | st.lists(
    st.sampled_from(sorted(EXACT)), min_size=1, max_size=3).map(tuple)


def _columns(types) -> tuple[ColumnSpec, ...]:
    """Columns c0, c1, … of these types; a tuple of types is a collection
    whose fields f0, f1, … have them."""
    return tuple(ColumnSpec(f"c{n}", "collection", True,
                            tuple((f"f{k}", field) for k, field in enumerate(ctype)))
                 if isinstance(ctype, tuple) else ColumnSpec(f"c{n}", ctype)
                 for n, ctype in enumerate(types))


def _record(values: dict[str, st.SearchStrategy]) -> st.SearchStrategy:
    """A record of these columns' values: whole, with an extra key, or
    without one of its keys."""
    whole = st.fixed_dictionaries(values)
    return st.one_of(whole, whole.map(lambda record: {**record, "extra": 1}),
                     whole.flatmap(lambda record: st.sampled_from(sorted(record)).map(
                         lambda key: {name: record[name] for name in record if name != key})))


def _value(ctype: str) -> st.SearchStrategy:
    return st.one_of(EXACT[ctype], st.none(), OTHER[ctype])


def _row(columns) -> st.SearchStrategy:
    return _record({col.name: _value(col.type) if col.type != "collection" else st.one_of(
        st.lists(_record({name: _value(ftype) for name, ftype in col.fields}), max_size=2),
        st.none()) for col in columns})


@settings(max_examples=150, deadline=None)
@given(types=st.lists(COLUMN_TYPES, min_size=1, max_size=4), draw=st.data())
def test_rows_a_splice_keeps_read_as_decoding_their_lines_gives(types, draw):
    table = TableManifest(schema="lab", table="drawn", columns=_columns(types))
    row = _row(table.columns)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        Warehouse(root).create_table(table)
        one = Warehouse(root)
        one.append_rows("lab", "drawn", draw.draw(st.lists(row, min_size=1, max_size=3)),
                        lines=0)
        read = one.read_rows("lab", "drawn")
        assert exactly(read, Warehouse(root).read_rows("lab", "drawn"))
        replace = draw.draw(st.dictionaries(st.integers(0, len(read) - 1), row, max_size=2))
        appended = draw.draw(st.lists(row, max_size=2))
        one.append_rows("lab", "drawn", appended, replace=replace, lines=len(read))
        for record in appended + list(replace.values()):  # changing them changes nothing kept
            for value in record.values():
                if isinstance(value, list):
                    for item in value:
                        item.clear()
                    value.clear()
            record.clear()
        assert exactly(one.read_rows("lab", "drawn"), Warehouse(root).read_rows("lab", "drawn"))


BASKETS = TableManifest(schema="lab", table="baskets", columns=(
    ColumnSpec("basket_id", "string"),
    ColumnSpec("items", "collection", True, (("sku", "string"), ("price", "decimal")))))
ITEM = {"sku": "a", "price": Decimal("1.50")}


@pytest.mark.parametrize("table, row, kept", [
    (manifest(), ROW, True),
    (manifest(), full(count=True, fresh=1, price=Decimal("1E+2")), True),
    (manifest(), {"sample_id": "s-1"}, False),  # the missing columns read back as null
    (manifest(), full(note="x"), False),  # a column the manifest lacks is not stored
    # as many keys as columns, but one renamed: that column reads back as null
    (manifest(), {**{k: v for k, v in ROW.items() if k != "count"}, "counts": 3}, False),
    (manifest(), full(price=2), False),  # an int in a decimal column reads back a Decimal
    (manifest(), full(price=Decimal("-0")), False),  # stored as 0
    (manifest(), full(taken_at=datetime(2024, 5, 1, 12, 30)), False),  # naive
    (manifest(), full(taken_at=ROW["taken_at"].astimezone(timezone(timedelta(hours=-3)))),
     False),
    (manifest(), full(sample_id=Text("s-1")), False),
    # No silver column is a collection, so a list never counts as exact.
    (BASKETS, {"basket_id": "b", "items": [ITEM, {**ITEM, "price": None}]}, False),
    (BASKETS, {"basket_id": "b", "items": (ITEM,)}, False),  # a tuple reads back a list
    (BASKETS, {"basket_id": "b", "items": [{"sku": "a"}]}, False),
    (BASKETS, {"basket_id": "b", "items": [{**ITEM, "price": 2}]}, False),
], ids=["exact", "exact plain values", "missing", "extra", "renamed", "int decimal",
        "negative zero", "naive", "offset", "str subclass", "items", "tuple", "missing field",
        "int field"])
def test_a_splice_keeps_a_copy_of_a_row_only_when_it_reads_back_exactly(
        tmp_path, decoded, table, row, kept):
    row = deepcopy(row)  # the test changes it
    one = Warehouse(tmp_path)
    one.create_table(table)
    one.append_rows(table.schema, table.table, [row], lines=0)
    assert len(decoded.lines) == (0 if kept else 1)  # otherwise its line's decode is kept
    for value in row.values():  # a change to the caller's row does not reach the kept one
        if isinstance(value, list):
            value.append(ITEM)
            value[0]["sku"] = "changed"
    decoded.clear()
    read = one.read_rows(table.schema, table.table)
    assert decoded.lines == []
    assert exactly(read, Warehouse(tmp_path).read_rows(table.schema, table.table))


@settings(max_examples=8, deadline=None)
@given(batches=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), draw=st.data())
def test_reads_through_a_long_lived_object_equal_fresh_reads_whoever_wrote(
        retail_spec, retail_data, batches, seed, draw):
    silver = retail_spec.schema_names["silver"]
    tables = [element.table_name for element in retail_spec.hubs + retail_spec.stars]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        schedule = rf.write_batches(retail_data, root / "inbox", batches, random.Random(seed))
        one = Warehouse(root / "one")
        init_warehouse(one, retail_spec)
        for jobs in schedule:
            _ingest_and_load(one, retail_spec, jobs)
        build_all(one, retail_spec, now=rf.DEFAULT_NOW)

        long_lived = Warehouse(root / "drawn")
        init_warehouse(long_lived, retail_spec)

        def through() -> Warehouse:
            return long_lived if draw.draw(st.booleans()) else Warehouse(long_lived.root)

        for jobs in schedule:
            for job in jobs:
                ingest_file(through(), retail_spec, job.source, job.path,
                            now=rf.DEFAULT_NOW, mtime=job.mtime)
            load_all(through(), retail_spec, now=rf.DEFAULT_NOW)
            for table in tables:
                assert long_lived.read_rows(silver, table) == \
                    Warehouse(long_lived.root).read_rows(silver, table), table
        build_all(long_lived, retail_spec, now=rf.DEFAULT_NOW)
        assert file_bytes(long_lived.root) == file_bytes(one.root)


def test_upsert_replaces_in_place_and_appends(wh):
    wh.append_rows("lab", "samples", [
        {"sample_id": "a", "count": 1},
        {"sample_id": "b", "count": 1},
    ])
    wh.upsert_rows("lab", "samples", [
        {"sample_id": "a", "count": 99},
        {"sample_id": "c", "count": 1},
    ])
    rows = wh.read_rows("lab", "samples")
    assert [r["sample_id"] for r in rows] == ["a", "b", "c"]  # order kept
    assert rows[0]["count"] == 99


def test_upsert_rejects_batch_duplicates_and_keyless_tables(wh, tmp_path):
    with pytest.raises(StorageError, match="duplicate primary key"):
        wh.upsert_rows("lab", "samples", [
            {"sample_id": "x"}, {"sample_id": "x"},
        ])
    keyless = Warehouse(tmp_path / "k")
    keyless.create_table(manifest(primary_key=()))
    with pytest.raises(StorageError, match="no primary key"):
        keyless.upsert_rows("lab", "samples", [{"sample_id": "x"}])


def test_replace_table_skips_identical_content(wh):
    wh.append_rows("lab", "samples", [ROW])
    data = wh.table_dir("lab", "samples") / "data"
    before = os.stat(data).st_ino
    wh.replace_table(manifest(), [ROW])
    assert os.stat(data).st_ino == before  # untouched, not rewritten
    wh.replace_table(manifest(), [ROW, {"sample_id": "s-2"}])
    assert os.stat(data).st_ino != before
    assert len(wh.read_rows("lab", "samples")) == 2


def test_scan_filters_with_value_semantics(wh):
    wh.append_rows("lab", "samples", [
        {"sample_id": "a", "price": Decimal("2.0")},
        {"sample_id": "b", "price": Decimal("3.5")},
    ])
    assert [r["sample_id"] for r in wh.scan("lab", "samples", {"price": 2})] == ["a"]
    assert wh.scan("lab", "samples", {"price": None}) == []


def test_max_capture_timestamp(tmp_path):
    # The default row, the one whose load source is the system's, is left
    # out; the latest other capture is returned, or None without one; a line
    # that does not decode is refused.
    manifest = TableManifest(schema="hs", table="hub", columns=(
        ColumnSpec("load_source", "integer"), ColumnSpec("capture_timestamp", "timestamp"),
        ColumnSpec("k", "string")))
    march = datetime(2024, 3, 1, tzinfo=timezone.utc)
    warehouse = Warehouse(tmp_path)
    warehouse.create_table(manifest)
    warehouse.append_rows("hs", "hub", [
        {"load_source": SYSTEM_LOAD_SOURCE, "k": "-1", "capture_timestamp": march}])
    assert warehouse.max_capture_timestamp("hs", "hub") is None
    warehouse.append_rows("hs", "hub", [
        {"load_source": 1, "k": "a", "capture_timestamp": datetime(2024, 1, 1, tzinfo=timezone.utc)},
        {"load_source": 2, "k": "b", "capture_timestamp": datetime(2024, 2, 1, tzinfo=timezone.utc)},
    ])
    assert warehouse.max_capture_timestamp("hs", "hub") == datetime(2024, 2, 1,
                                                                    tzinfo=timezone.utc)
    data = warehouse.table_dir("hs", "hub") / "data"
    data.write_bytes(data.read_bytes().replace(b"2024-02-01T00:00:00Z", b"2024-13-01"))
    with pytest.raises(StorageError, match=r"^hs\.hub: line 3 does not decode: "):
        warehouse.max_capture_timestamp("hs", "hub")


def test_check_constraints_reports_each_kind(tmp_path):
    warehouse = Warehouse(tmp_path)
    warehouse.create_table(TableManifest(
        schema="hs", table="parents",
        columns=(ColumnSpec("pk", "string", nullable=False),),
        primary_key=("pk",),
    ))
    warehouse.create_table(TableManifest(
        schema="hs", table="children",
        columns=(
            ColumnSpec("ck", "string", nullable=False),
            ColumnSpec("parent", "string"),
            ColumnSpec("code", "integer"),
        ),
        primary_key=("ck",),
        unique=(("code",),),
        foreign_keys=(ForeignKeySpec(("parent",), "hs", "parents", ("pk",)),),
    ))
    warehouse.append_rows("hs", "parents", [{"pk": "p1"}])
    warehouse.append_rows("hs", "children", [
        {"ck": "c1", "parent": "p1", "code": 7},
        {"ck": "c1", "parent": "ghost", "code": 7},
        {"ck": None, "parent": None, "code": 8},
    ])
    problems = warehouse.check_constraints("hs", "children")
    text = "\n".join(problems)
    assert "not nullable" in text
    assert "duplicate primary key" in text
    assert "unique (code)" in text
    assert "not found in hs.parents" in text
    # null foreign keys are not violations; the audit of the clean table is empty
    assert warehouse.check_constraints("hs", "parents") == []
    assert warehouse.check_all("hs") == problems
    # a foreign key into a table that does not exist
    warehouse.create_table(TableManifest(
        schema="hs", table="orphans", columns=(ColumnSpec("parent", "string"),),
        foreign_keys=(ForeignKeySpec(("parent",), "hs", "ghosts", ("pk",)),),
    ))
    missing = ["hs.orphans: foreign key references missing table hs.ghosts"]
    assert warehouse.check_constraints("hs", "orphans") == missing
    assert warehouse.check_all("hs") == problems + missing


def test_check_all_reads_each_table_once(loaded, retail_spec, monkeypatch):
    reads: Counter = Counter()
    read_rows = Warehouse.read_rows

    def counted(self, schema, table, **kwargs):
        reads[schema, table] += 1
        return read_rows(self, schema, table, **kwargs)

    monkeypatch.setattr(Warehouse, "read_rows", counted)
    for schema in retail_spec.schema_names.values():
        reads.clear()
        assert Warehouse(loaded.root).check_all(schema) == []
        assert reads == {(schema, table): 1 for table in loaded.list_tables(schema)}
