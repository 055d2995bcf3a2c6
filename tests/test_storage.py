from __future__ import annotations

import gc
import json
import os
import random
import re
import tempfile
from collections import Counter
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubstar import build_all, check_against_oracle, ingest_file, init_warehouse, load_all
from hubstar import retail_fixture as rf
from hubstar.errors import StorageError
from hubstar.storage import ColumnSpec, ForeignKeySpec, TableManifest, Warehouse
from hubstar.tables import check_stored_manifest
from hubstar.values import format_timestamp

from conftest import file_bytes, run_pipeline


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


def test_reads_above_a_capture_time_decode_only_those_lines(tmp_path, decoded):
    warehouse = Warehouse(tmp_path)
    warehouse.create_table(TableManifest(
        schema="raw", table="events",
        columns=(ColumnSpec("capture_timestamp", "timestamp", nullable=False),
                 ColumnSpec("label", "string"))))
    times = [datetime(2024, 5, 1, 12, 0, 0, micro, tzinfo=timezone.utc)
             for micro in (0, 500000, 0, 250000)]
    times[2] = times[2].replace(second=1)
    warehouse.append_rows("raw", "events", [
        {"capture_timestamp": at, "label": str(n)} for n, at in enumerate(times)])
    with (warehouse.table_dir("raw", "events") / "data").open("a", encoding="utf-8") as fh:
        fh.write('{"label": "4", "capture_timestamp": "2024-05-01T13:00:00Z"}\n')
    decoded.clear()
    after = warehouse.read_rows("raw", "events", captured_after=times[1])
    assert [r["label"] for r in after] == ["2", "4"]  # strictly above: "1" is not
    # Line 2, and line 4, hand-written, whose capture time is not its prefix.
    assert len(decoded.lines) == 2
    # "…:00Z" sorts after "…:00.5Z" as text; the comparison is by instant.
    assert [r["label"] for r in warehouse.read_rows(
        "raw", "events", captured_after=times[0])] == ["1", "2", "3", "4"]


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


def test_a_read_after_a_splice_decodes_only_the_lines_it_wrote(wh, decoded):
    wh.append_rows("lab", "samples", [ROW, {"sample_id": "s-2"}])
    rows = wh.read_rows("lab", "samples")
    decoded.clear()
    # A first splice keeps no rows: the read after it decodes every line once.
    wh.append_rows("lab", "samples", [{"sample_id": "s-3"}], lines=len(rows))
    rows = wh.read_rows("lab", "samples")
    assert len(decoded.lines) == 3
    decoded.clear()
    wh.append_rows("lab", "samples", [{"sample_id": "s-4"}],
                   replace={1: {"sample_id": "s-2", "count": 2}}, lines=len(rows))
    after = wh.read_rows("lab", "samples")
    assert [line[:len('{"sample_id":"s-2"')] for line in decoded.lines] == [
        '{"sample_id":"s-2"', '{"sample_id":"s-4"']
    assert after == Warehouse(wh.root).read_rows("lab", "samples")
    assert after[0] is rows[0] and after[2] is rows[2]  # shared, so never to be mutated
    assert after is not wh.read_rows("lab", "samples")
    assert len(decoded.lines) == 2 + 4  # the fresh Warehouse decoded every line


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
    for read in (lambda: wh.read_rows("lab", "samples"),  # through the memo
                 lambda: Warehouse(tmp_path).read_rows("lab", "samples"),
                 lambda: wh.read_rows("lab", "samples", captured_after=day[1])):
        with pytest.raises(StorageError, match=r"^lab\.samples: line 2 does not decode: "):
            read()
    # A read that skips the line by its capture time never decodes it.
    assert [r["sample_id"] for r in wh.read_rows("lab", "samples", captured_after=day[2])] == [
        "s-3"]


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
    warehouse = Warehouse(tmp_path)
    warehouse.create_table(TableManifest(
        schema="hs", table="t",
        columns=(ColumnSpec("k", "string"), ColumnSpec("capture_timestamp", "timestamp")),
    ))
    with pytest.raises(StorageError, match="high-water mark"):
        warehouse.max_capture_timestamp("hs", "t")
    warehouse.append_rows("hs", "t", [
        {"k": "a", "capture_timestamp": datetime(2024, 1, 1, tzinfo=timezone.utc)},
        {"k": "b", "capture_timestamp": datetime(2024, 3, 1, tzinfo=timezone.utc)},
        {"k": "c", "capture_timestamp": None},
    ])
    assert warehouse.max_capture_timestamp("hs", "t") == \
        datetime(2024, 3, 1, tzinfo=timezone.utc)


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
