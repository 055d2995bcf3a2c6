"""Merge semantics for the silver layer: bronze offsets, version ranking,
null-safe change detection, default rows, and collection explosion."""

from __future__ import annotations

import builtins
import json
import os
import re
import shutil
from collections import Counter
from datetime import datetime, timezone
from decimal import Decimal
from pathlib import Path
from typing import Any, Callable

import pytest

from hubstar import (
    Warehouse,
    build_all,
    check_against_oracle,
    ingest_file,
    init_warehouse,
    load_all,
    parse_model,
    render_model,
)
from hubstar import gold, silver, storage, tables
from hubstar import retail_fixture as rf
from hubstar.cli import main
from hubstar.errors import EvalError, HubStarError, LoadError, StorageError
from hubstar.expr import sha256_hex
from hubstar.model import SYSTEM_LOAD_SOURCE, ItemKeyRule, KeyFormula, validate_model
from hubstar.silver import (
    default_row,
    explode_collection,
    type_neutral,
)
from hubstar.storage import Position
from hubstar.tables import silver_manifest
from hubstar.values import EPOCH, coerce_scalar, row_key, top_per_partition

from conftest import (
    FIXTURE_MODEL,
    SHIP_TO,
    edited_retail,
    file_bytes,
    run_pipeline,
    storage_os,
)

MODEL = parse_model('''product mergetest

source people {
  load_source 1
  format csv
  column person_id integer
  column full_name string
  column city string
  column device_code string
  column seen_at timestamp
  column gone integer
  capture cdc_column seen_at
  delete_flag_column gone
}

source visits {
  load_source 2
  format ndjson
  column person_id integer
  column visit_day timestamp
  column note string
  column gone integer
  column captured_at timestamp
  capture cdc_column captured_at
  delete_flag_column gone
}

source trips {
  load_source 3
  format ndjson
  column person_id integer
  column started_at timestamp
  column stops array(place string, leg integer)
  capture cdc_column started_at
}

hub device {
  key system_generated
  business_key global (device_code string)
  source_mapping people {
    map device_code = device_code
  }
}

hub person {
  key computed sha256(cast(person_id as string))
  business_key global (person_id integer)
  descriptive full_name string required
  descriptive city string
  descriptive gone_mark integer
  descriptive device_key references device
  delete_flag
  source_mapping people {
    map person_id = person_id
    map full_name = full_name
    map city = city
    map gone_mark = gone
    fk device_key = device(device_code)
  }
}

star person_visit {
  participant person
  participant time visit_day
  key (person_key, visit_day)
  descriptive note string
  delete_flag
  source_mapping visits {
    key person_key = person(person_id)
    map visit_day = visit_day
    map note = note
  }
}

star trip_stop {
  participant person
  participant time started_at
  participant item stop_no positional
  key (person_key, started_at, stop_no)
  descriptive place string
  source_mapping trips {
    explode stops
    key person_key = person(person_id)
    map started_at = started_at
    map place = item.place
  }
}
''').spec

SILVER = MODEL.schema_names["silver"]
NOW = datetime(2025, 2, 1, tzinfo=timezone.utc)
PERSON = MODEL.hub("person")
DEVICE = MODEL.hub("device")


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


def person_key(person_id: int) -> str:
    return sha256_hex(str(person_id))


@pytest.fixture()
def wh(tmp_path):
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, MODEL)
    return warehouse


class Feeder:
    """Writes numbered extract files and ingests them."""

    def __init__(self, warehouse, directory):
        self.warehouse = warehouse
        self.directory = directory
        self.n = 0

    def __call__(self, source: str, text: str, now=NOW):
        self.n += 1
        suffix = MODEL.source(source).input_format
        path = self.directory / f"{source}_{self.n}.{suffix}"
        path.write_text(text, encoding="utf-8")
        return ingest_file(self.warehouse, MODEL, source, path, now=now)


@pytest.fixture()
def feed(wh, tmp_path):
    return Feeder(wh, tmp_path)


PEOPLE_HEADER = "person_id,full_name,city,device_code,seen_at,gone\n"


def people_rows(wh):
    rows = wh.read_rows(SILVER, "hub_person")
    return {r["person_key"]: r for r in rows if r["person_key"] != "-1"}


def result_for(results, table: str):
    matches = [r for r in results if r.table == f"{SILVER}.{table}"]
    assert len(matches) == 1
    return matches[0]


def test_model_is_valid():
    assert validate_model(MODEL).ok


# -- default rows ---------------------------------------------------------------


def test_type_neutral_values():
    assert type_neutral("string") == "null"
    assert type_neutral("integer") == -1
    assert type_neutral("decimal") == Decimal(-1)
    assert type_neutral("boolean") is False
    assert type_neutral("timestamp") == EPOCH


def test_default_row_shape():
    row = default_row(MODEL, PERSON)
    assert row["person_key"] == "-1"
    assert row["load_source"] == 0
    assert row["capture_timestamp"] == EPOCH
    assert row["load_timestamp"] == EPOCH
    assert row["initial_capture_timestamp"] == EPOCH
    assert row["delete_flag"] == 0
    assert row["person_id"] == -1  # business keys get type-neutral stand-ins
    assert row["full_name"] == "null"  # required -> non-null stand-in
    assert row["city"] is None  # nullable -> plain null
    assert row["device_key"] == "-1"  # FKs point at the default row


def test_init_seeds_one_default_row_per_hub_and_none_for_stars(wh):
    hub_rows = wh.read_rows(SILVER, "hub_person")
    assert [r["person_key"] for r in hub_rows] == ["-1"]
    assert wh.read_rows(SILVER, "star_person_visit") == []


# -- hub merge ------------------------------------------------------------------


def test_initial_load_inserts_rows_with_capture_metadata(wh, feed):
    feed("people", PEOPLE_HEADER
         + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n"
         + "2,Bo,Rio,D2,2024-03-01T09:00:00Z,0\n")
    results = load_all(wh, MODEL, now=NOW)
    person = result_for(results, "hub_person")
    assert (person.scanned, person.inserted, person.updated) == (2, 2, 0)
    assert person.new_hwm == utc(2024, 3, 1, 9)

    rows = people_rows(wh)
    ana = rows[person_key(1)]
    assert ana["full_name"] == "Ana"
    assert ana["load_source"] == 1
    assert ana["capture_timestamp"] == utc(2024, 3, 1, 8)
    assert ana["initial_capture_timestamp"] == utc(2024, 3, 1, 8)
    assert ana["load_timestamp"] == NOW


def test_hwm_filter_is_strictly_greater_than(wh, feed):
    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n")
    load_all(wh, MODEL, now=NOW)
    # Re-deliver the same capture timestamp alongside one newer row: both
    # are past the offset, so both are scanned, but a hub member is replaced
    # only by a capture strictly later than its own (the earlier bronze row
    # wins a tie, as in the oracle), so the re-delivery changes nothing.
    feed("people", PEOPLE_HEADER
         + "1,Ana,Bergen,D1,2024-03-01T08:00:00Z,0\n"
         + "2,Bo,Rio,D2,2024-03-01T10:00:00Z,0\n")
    person = result_for(load_all(wh, MODEL, now=NOW), "hub_person")
    assert (person.scanned, person.inserted, person.updated, person.unchanged_skipped) == \
        (2, 1, 0, 1)
    rows = people_rows(wh)
    assert rows[person_key(1)]["city"] == "Oslo"  # stale redelivery ignored
    feed("people", PEOPLE_HEADER + "1,Ana,Bergen,D1,2024-03-01T08:00:01Z,0\n")
    person = result_for(load_all(wh, MODEL, now=NOW), "hub_person")
    assert (person.scanned, person.updated) == (1, 1)
    assert people_rows(wh)[person_key(1)]["city"] == "Bergen"
    assert check_against_oracle(wh, MODEL) == []


def test_a_capture_before_1970_is_loaded_into_a_table_without_members(wh, feed):
    # The mark is the latest capture among members, so neither the default
    # row's epoch capture nor an empty star hides an older bronze row.
    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,0099-01-01,0\n")
    results = load_all(wh, MODEL, now=NOW)
    for table in ("hub_person", "hub_device"):
        loaded = result_for(results, table)
        assert (loaded.scanned, loaded.inserted) == (1, 1), table
        assert loaded.new_hwm == utc(99, 1, 1), table
    assert result_for(results, "star_person_visit").new_hwm == EPOCH  # still no member
    assert check_against_oracle(wh, MODEL) == []
    assert [r.scanned for r in load_all(wh, MODEL, now=NOW)] == [0] * len(results)


def test_the_mark_is_the_latest_member_capture_through_a_fresh_object(wh, feed):
    # Each load goes through a new Warehouse, which reads the mark from the
    # text of the table's lines. A hub holding only its default row, and an
    # empty star, have no mark, so a 1960 capture loads; members all
    # captured in 1960 then let a 1965 capture through.
    tables = ("hub_person", "hub_device", "star_person_visit")
    for year, person_id in ((1960, 1), (1965, 2)):
        captured = f"{year}-01-01T00:00:00Z"
        feed("people", PEOPLE_HEADER + f"{person_id},P,Oslo,D{person_id},{captured},0\n")
        feed("visits", visit(person_id, captured, "seen", captured))
        results = load_all(Warehouse(wh.root), MODEL, now=NOW)
        for table in tables:
            loaded = result_for(results, table)
            assert (loaded.scanned, loaded.inserted, loaded.new_hwm) == \
                (1, 1, utc(year, 1, 1)), (year, table)
    fresh = load_all(Warehouse(wh.root), MODEL, now=NOW)
    assert [r.scanned for r in fresh] == [0] * len(fresh)
    assert {table: result_for(fresh, table).new_hwm for table in tables} == \
        dict.fromkeys(tables, utc(1965, 1, 1))
    assert check_against_oracle(wh, MODEL) == []


def test_a_no_op_load_through_a_fresh_object_returns_what_the_loading_object_does(
        tmp_path, retail_spec, retail_data):
    warehouse = run_pipeline(tmp_path / "wh", retail_spec, retail_data, batches=2, gold=False)
    fresh = load_all(Warehouse(warehouse.root), retail_spec, now=rf.DEFAULT_NOW)
    assert fresh == load_all(warehouse, retail_spec, now=rf.DEFAULT_NOW)
    assert [(r.scanned, r.inserted, r.updated, r.unchanged_skipped) for r in fresh] == \
        [(0, 0, 0, 0)] * len(fresh)
    assert all(r.new_hwm > EPOCH for r in fresh)


def test_a_no_op_load_and_build_through_a_fresh_object_decode_and_write_nothing(
        tmp_path, monkeypatch, decoded, retail_spec, retail_data):
    warehouse = run_pipeline(tmp_path / "wh", retail_spec, retail_data, batches=2)
    before = file_bytes(warehouse.root)
    written: list = []
    monkeypatch.setattr(storage.os, "replace", lambda *args: written.append(args))
    decoded.clear()
    fresh = Warehouse(warehouse.root)
    load_all(fresh, retail_spec, now=rf.DEFAULT_NOW)
    build_all(fresh, retail_spec, now=rf.DEFAULT_NOW)
    assert sum(decoded.values()) == 0
    assert written == []
    assert file_bytes(warehouse.root) == before


def test_a_new_member_captured_exactly_at_the_mark_reaches_silver(wh, feed):
    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n")
    load_all(wh, MODEL, now=NOW)
    feed("people", PEOPLE_HEADER + "2,Bo,Rio,D2,2024-03-01T08:00:00Z,0\n")
    person = result_for(load_all(wh, MODEL, now=NOW), "hub_person")
    assert (person.scanned, person.inserted, person.new_hwm) == (1, 1, utc(2024, 3, 1, 8))
    assert sorted(people_rows(wh)) == sorted([person_key(1), person_key(2)])
    assert check_against_oracle(wh, MODEL) == []


def test_a_capture_before_1970_that_arrives_after_members_exist_reaches_silver(wh, feed):
    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n")
    load_all(wh, MODEL, now=NOW)
    feed("people", PEOPLE_HEADER + "2,Bo,Rio,D2,1960-01-01T00:00:00Z,0\n"
         + "1,Ana,Bergen,D1,1960-01-01T00:00:00Z,0\n")
    person = result_for(load_all(wh, MODEL, now=NOW), "hub_person")
    # The new member goes in; the older version of a member changes nothing,
    # and the mark stays the latest capture among the members.
    assert (person.scanned, person.inserted, person.updated, person.unchanged_skipped,
            person.new_hwm) == (2, 1, 0, 1, utc(2024, 3, 1, 8))
    rows = people_rows(wh)
    assert rows[person_key(2)]["initial_capture_timestamp"] == utc(1960, 1, 1)
    assert rows[person_key(1)]["city"] == "Oslo"
    # Not with `include_volatile`: a member's first capture is that of the
    # version that first reached silver (ROADMAP A2).
    assert check_against_oracle(wh, MODEL) == []


def test_a_state_record_holds_each_sources_position_and_the_mark(wh, feed):
    # One line of JSON with sorted keys, written after the data file and
    # only when its bytes change, with the data file's length.
    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n")
    load_all(wh, MODEL, now=NOW)
    people = wh.table_dir(MODEL.schema_names["bronze"], "people") / "data"
    state = wh.table_dir(SILVER, "hub_person") / "state"
    size = len(people.read_bytes())
    length = len((wh.table_dir(SILVER, "hub_person") / "data").read_bytes())
    assert state.read_bytes() == (b'{"length": %d, "mark": "2024-03-01T08:00:00Z", "sources": '
                                  b'{"people": {"lines": 1, "offset": %d}}}\n' % (length, size))
    # A star without members records no mark; a source not yet delivered
    # is consumed to its start.
    assert (wh.table_dir(SILVER, "star_trip_stop") / "state").read_bytes() == \
        b'{"length": 0, "mark": null, "sources": {"trips": {"lines": 0, "offset": 0}}}\n'
    inode = state.stat().st_ino
    load_all(Warehouse(wh.root), MODEL, now=NOW)
    assert state.stat().st_ino == inode


@pytest.mark.parametrize("record", [
    b"", b"{}\n", b'{"mark": null, "sources": {"people": {"lines": -1, "offset": 0}}}\n',
    b'{"mark": "soon", "sources": {}}\n'], ids=["empty", "no fields", "negative", "bad mark"])
def test_a_state_record_that_does_not_parse_fails_the_load_before_a_write(wh, feed, record):
    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n")
    (wh.table_dir(SILVER, "hub_person") / "state").write_bytes(record)
    before = file_bytes(wh.root)
    with pytest.raises(StorageError, match=rf"^{SILVER}\.hub_person: the state record does "
                                           "not parse: "):
        load_all(wh, MODEL, now=NOW)
    assert file_bytes(wh.root) == before


@pytest.mark.parametrize("damage", ["cut", "rewritten", "deleted"])
def test_a_cut_or_rewritten_bronze_file_is_refused_and_nothing_written(wh, feed, damage):
    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n"
         + "2,Bo,Rio,D2,2024-03-01T09:00:00Z,0\n")
    load_all(wh, MODEL, now=NOW)
    feed("people", PEOPLE_HEADER + "3,Cy,Lima,D3,2024-03-01T10:00:00Z,0\n")
    people = wh.table_dir(MODEL.schema_names["bronze"], "people") / "data"
    lines = people.read_bytes().split(b"\n")
    if damage == "cut":  # the second line goes, so the file ends before the offset
        people.write_bytes(b"\n".join(lines[:1] + lines[2:]))
    elif damage == "deleted":  # read as empty, so it too ends before the offset
        people.unlink()
    else:  # the first line grows by a byte, so no line ends at the offset
        people.write_bytes(b"\n".join([lines[0].replace(b"Oslo", b"Oslo!")] + lines[1:]))
    before = file_bytes(wh.root)
    for through in (wh, Warehouse(wh.root)):
        with pytest.raises(StorageError, match=rf"^{SILVER}\.hub_device <- "
                                               rf"{MODEL.schema_names['bronze']}\.people: no "
                                               r"line ends at byte \d+, where 2 lines were "
                                               "consumed; the data file was cut or rewritten; "
                                               "nothing written$"):
            load_all(through, MODEL, now=NOW)
        assert file_bytes(wh.root) == before


def test_a_shared_bronze_read_gives_rows_only_from_a_position_it_passed(wh, feed):
    bronze = MODEL.schema_names["bronze"]
    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n"
         + "2,Bo,Rio,D2,2024-03-01T09:00:00Z,0\n")
    people = wh.table_dir(bronze, "people") / "data"
    ends = [n + 1 for n, byte in enumerate(people.read_bytes()) if byte == ord("\n")]
    reads = silver.Reads(wh, MODEL)
    rows, stop = reads.bronze("people", Position(ends[0], 1))
    assert ([row["person_id"] for row in rows], stop) == ([2], Position(ends[1], 2))
    assert reads.bronze("people", stop) == ([], stop)
    # A wrong line count, a start within a line or past the end, and a start
    # below the first ask's are no position the read passed.
    for start in (Position(ends[1], 1), Position(ends[0] + 1, 1), Position(ends[1] + 1, 2),
                  Position()):
        with pytest.raises(StorageError, match=rf"^{bronze}\.people: no line ends at byte "
                                               rf"{start.offset}, where {start.lines} lines "
                                               "were consumed; the data file was cut or "
                                               "rewritten$"):
            reads.bronze("people", start)
    with pytest.raises(StorageError, match="no line ends at byte"):
        silver.Reads(wh, MODEL).bronze("people", Position(ends[1] + 1, 2))


def test_an_undecodable_bronze_line_past_an_offset_is_refused_before_any_load_writes(
        wh, feed):
    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n")
    feed("visits", '{"person_id": 1, "visit_day": "2024-03-02T00:00:00Z", "note": "a", '
         '"gone": 0, "captured_at": "2024-03-02T08:00:00Z"}\n')
    load_all(wh, MODEL, now=NOW)
    # The hubs' source has a new row, and the star's a line that does not decode.
    feed("people", PEOPLE_HEADER + "2,Bo,Rio,D2,2024-03-01T09:00:00Z,0\n")
    feed("visits", '{"person_id": 1, "visit_day": "2024-03-03T00:00:00Z", "note": "b", '
         '"gone": 0, "captured_at": "2024-03-03T08:00:00Z"}\n')
    visits = wh.table_dir(MODEL.schema_names["bronze"], "visits") / "data"
    lines = visits.read_bytes().split(b"\n")
    assert lines[1].count(b'"note":"b"') == 1
    lines[1] = lines[1].replace(b'"note":"b"', b'"note":sNaN')
    visits.write_bytes(b"\n".join(lines))
    before = file_bytes(wh.root)
    for through in (wh, Warehouse(wh.root)):
        with pytest.raises(StorageError, match=rf"^{SILVER}\.star_person_visit <- "
                                               rf"{MODEL.schema_names['bronze']}\.visits: line 2 "
                                               r"does not decode: .*; nothing written$"):
            load_all(through, MODEL, now=NOW)
        assert file_bytes(wh.root) == before


@pytest.mark.parametrize("damage", ["undecodable", "null capture"])
def test_a_silver_table_a_load_refuses_is_refused_before_any_load_writes(wh, feed, damage):
    # Every table a load will read is read before the first load writes.
    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n")
    feed("visits", '{"person_id": 1, "visit_day": "2024-03-02T00:00:00Z", "note": "a", '
         '"gone": 0, "captured_at": "2024-03-02T08:00:00Z"}\n')
    load_all(wh, MODEL, now=NOW)
    # Both sources have a new row, so the hubs' loads would write first.
    feed("people", PEOPLE_HEADER + "2,Bo,Rio,D2,2024-03-01T09:00:00Z,0\n")
    feed("visits", '{"person_id": 1, "visit_day": "2024-03-03T00:00:00Z", "note": "b", '
         '"gone": 0, "captured_at": "2024-03-03T08:00:00Z"}\n')
    if damage == "undecodable":
        data = wh.table_dir(SILVER, "star_person_visit") / "data"
        assert data.read_bytes().count(b'"note":"a"') == 1
        data.write_bytes(data.read_bytes().replace(b'"note":"a"', b'"note":sNaN'))
        table, error = "star_person_visit", "line 1 does not decode: .*"
    else:
        rows = [dict(row) for row in wh.read_rows(SILVER, "hub_person")]
        rows[1]["capture_timestamp"] = None
        wh.replace_table(wh.manifest(SILVER, "hub_person"), rows)
        table, error = "hub_person", "line 2: column capture_timestamp is null"
    before = file_bytes(wh.root)
    for through in (wh, Warehouse(wh.root)):
        with pytest.raises(StorageError, match=rf"^{SILVER}\.{table}: {error}$"):
            load_all(through, MODEL, now=NOW)
        assert file_bytes(wh.root) == before


def test_a_deleted_bronze_file_reads_as_empty_from_the_first_line(wh, feed):
    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n")
    (wh.table_dir(MODEL.schema_names["bronze"], "people") / "data").unlink()
    results = load_all(wh, MODEL, now=NOW)
    assert [(r.table, r.scanned) for r in results] == [(r.table, 0) for r in results]
    assert people_rows(wh) == {}


# A buyer and a seller from one orders feed: two mappings of one source.
TWICE = parse_model('''product twice

source orders {
  load_source 1
  format csv
  column order_id integer
  column buyer string
  column seller string
  column at timestamp
  capture cdc_column at
}

hub party {
  key system_generated
  business_key global (party string)
  source_mapping orders {
    map party = buyer
  }
  source_mapping orders {
    map party = seller
  }
}
''').spec


def feed_orders(warehouse: Warehouse, directory: Path, batch: int, text: str):
    path = directory / f"orders{batch}.csv"
    path.write_text("order_id,buyer,seller,at\n" + text, encoding="utf-8")
    ingest_file(warehouse, TWICE, "orders", path, now=NOW)


def test_two_mappings_of_one_source_each_keep_their_own_position(tmp_path):
    # Each mapping's position is its own in the record, so the second
    # mapping does not start where the first one stopped, and every party
    # reaches silver in every load.
    assert validate_model(TWICE).ok
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, TWICE)
    silver_schema = TWICE.schema_names["silver"]
    for batch, text in enumerate(["1,ana,bo,2024-01-01T00:00:00Z\n",
                                  "2,cy,dan,2023-01-01T00:00:00Z\n"]):
        feed_orders(warehouse, tmp_path, batch, text)
        results = load_all(warehouse, TWICE, now=NOW)
        assert [(r.scanned, r.inserted) for r in results] == [(1, 1), (1, 1)]
    assert [r["party"] for r in warehouse.read_rows(silver_schema, "hub_party")][1:] == [
        "ana", "bo", "cy", "dan"]
    size = len((warehouse.table_dir(TWICE.schema_names["bronze"], "orders") / "data").read_bytes())
    length = len((warehouse.table_dir(silver_schema, "hub_party") / "data").read_bytes())
    assert (warehouse.table_dir(silver_schema, "hub_party") / "state").read_bytes() == (
        b'{"length": %d, "mark": "2024-01-01T00:00:00Z", "sources": {"orders": {"lines": 2, '
        b'"offset": %d}, "orders#2": {"lines": 2, "offset": %d}}}\n' % (length, size, size))
    assert [r.scanned for r in load_all(Warehouse(warehouse.root), TWICE, now=NOW)] == [0, 0]


def test_the_mappings_of_one_table_share_one_read_of_it(tmp_path, decoded):
    # The second mapping merges against the rows the first one read and
    # wrote, so a fresh object decodes each stored row once.
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, TWICE)
    feed_orders(warehouse, tmp_path, 0, "1,ana,bo,2024-01-01T00:00:00Z\n"
                "2,cy,dan,2024-01-02T00:00:00Z\n")
    load_all(warehouse, TWICE, now=NOW)
    feed_orders(warehouse, tmp_path, 1, "3,eve,ana,2024-01-03T00:00:00Z\n")
    decoded.clear()
    results = load_all(Warehouse(warehouse.root), TWICE, now=NOW)
    assert [(r.inserted, r.updated) for r in results] == [(1, 0), (0, 0)]
    assert decoded[TWICE.schema_names["silver"], "hub_party"] == 5


def test_reloading_retail_without_its_state_records_gives_identical_files(
        tmp_path, retail_spec, retail_data):
    # A table without a record starts each source at its first line and
    # takes its mark from its members: a replay that merges nothing new. A
    # record without a length, as an older hubstar wrote it, counts as none.
    warehouse = run_pipeline(tmp_path / "wh", retail_spec, retail_data, batches=5, gold=False)
    before = file_bytes(warehouse.root)
    states = sorted(warehouse.root.glob(f"{retail_spec.schema_names['silver']}/*/state"))
    assert len(states) == len(retail_spec.hubs + retail_spec.stars)
    for damage in (Path.unlink, lambda state: state.write_bytes(
            re.sub(rb'"length": \d+, ', b"", state.read_bytes(), count=1))):
        for state in states:
            damage(state)
        results = load_all(Warehouse(warehouse.root), retail_spec, now=rf.DEFAULT_NOW)
        assert all(r.scanned for r in results)
        assert [(r.inserted, r.updated) for r in results] == [(0, 0)] * len(results)
        assert file_bytes(warehouse.root) == before


def crash_points_that_differ(base: Path, command: Callable[[Warehouse], Any],
                             monkeypatch) -> tuple[list[str], list[int], dict[int, dict]]:
    """The writes `command` makes on a copy of the warehouse at `base`, in
    order, each a "rename" (`os.replace`) or an "append" (`os.write`); each
    k at which, on another copy, its k-th write fails and running the
    command again through a fresh `Warehouse` leaves some file, state
    records included, other than the clean run's; and by k, the files the
    failed run left. A failing rename raises; a failing append writes half
    its bytes and then raises, so the append has to take them back."""
    clean, writes = shutil.copytree(base, base.with_name("clean")), []
    with monkeypatch.context() as patch:
        patch.setattr(storage, "os", storage_os(
            replace=lambda *args: (writes.append("rename"), os.replace(*args))[1],
            write=lambda fd, content: (writes.append("append"), os.write(fd, content))[1]))
        command(Warehouse(clean))
    want, differ, left = file_bytes(clean), [], {}
    for k in range(1, len(writes) + 1):
        root, calls = shutil.copytree(base, base.with_name(f"crash{k}")), []

        def replace(*args):
            calls.append(args)
            if len(calls) == k:
                raise OSError("crash")
            os.replace(*args)

        def write(fd, content):
            calls.append(fd)
            if len(calls) == k:
                os.write(fd, content[:len(content) // 2])
                raise OSError("crash")
            return os.write(fd, content)

        with monkeypatch.context() as patch:
            patch.setattr(storage, "os", storage_os(replace=replace, write=write))
            with pytest.raises(OSError, match="^crash$"):
                command(Warehouse(root))
        left[k] = file_bytes(root)
        command(Warehouse(root))
        if file_bytes(root) != want:
            differ.append(k)
    return writes, differ, left


def test_a_load_that_crashes_at_any_write_gives_a_clean_loads_files_when_run_again(
        tmp_path, monkeypatch, retail_spec, retail_data):
    # A crash between a table's data write and its record write leaves a
    # record whose length no longer holds, or whose bronze is merged again:
    # either way the re-run reads the table, and its rows give the mark.
    base = tmp_path / "base"
    warehouse = Warehouse(base)
    init_warehouse(warehouse, retail_spec)
    for n, jobs in enumerate(rf.write_batches(retail_data, tmp_path / "inbox", 5)):
        for job in jobs:
            ingest_file(warehouse, retail_spec, job.source, job.path,
                        now=rf.DEFAULT_NOW, mtime=job.mtime)
        if n < 4:
            load_all(warehouse, retail_spec, now=rf.DEFAULT_NOW)
    writes, differ, left = crash_points_that_differ(
        base, lambda warehouse: load_all(warehouse, retail_spec, now=rf.DEFAULT_NOW),
        monkeypatch)
    assert len(writes) >= 12 and "append" in writes and differ == []
    assert not [path for files in left.values() for path in files if path.endswith(".tmp")]


def test_a_two_mapping_load_that_crashes_at_any_write_gives_a_clean_loads_files(
        tmp_path, monkeypatch):
    # A crash after the second mapping's data write leaves the record the
    # first mapping wrote, whose length no longer holds: the table replays
    # from its sources' first lines.
    base = tmp_path / "base"
    warehouse = Warehouse(base)
    init_warehouse(warehouse, TWICE)
    for batch, text in enumerate(["1,ana,bo,2024-01-01T00:00:00Z\n",
                                  "2,cy,dan,2023-01-01T00:00:00Z\n3,bo,eve,2024-02-01T00:00:00Z\n",
                                  "4,eve,ana,2024-03-01T00:00:00Z\n5,fay,cy,2022-01-01T00:00:00Z\n"]):
        feed_orders(warehouse, tmp_path, batch, text)
        if batch < 2:
            load_all(warehouse, TWICE, now=NOW)
    writes, differ, _ = crash_points_that_differ(
        base, lambda warehouse: load_all(warehouse, TWICE, now=NOW), monkeypatch)
    assert len(writes) >= 3 and "append" in writes and differ == []


@pytest.mark.parametrize("exists", [True, False], ids=["existing", "new"])
def test_an_ingest_that_crashes_at_any_write_leaves_its_bronze_and_reruns_clean(
        tmp_path, monkeypatch, exists):
    # Into an existing table an ingest only appends; into a new one it
    # renames the manifest and an empty data file into place first.
    base = tmp_path / "base"
    base.mkdir()
    if exists:
        feed_orders(Warehouse(base), tmp_path, 0, "1,ana,bo,2024-01-01T00:00:00Z\n")
    path = tmp_path / "orders1.csv"
    path.write_text("order_id,buyer,seller,at\n2,cy,dan,2023-01-01T00:00:00Z\n"
                    "3,bo,eve,2024-02-01T00:00:00Z\n", encoding="utf-8")
    writes, differ, left = crash_points_that_differ(
        base, lambda warehouse: ingest_file(warehouse, TWICE, "orders", path, now=NOW),
        monkeypatch)
    assert writes == (["append"] if exists else ["rename", "rename", "append"])
    assert differ == []
    data = f"{TWICE.schema_names['bronze']}/orders/data"
    before = file_bytes(base)
    for files in left.values():
        assert files.get(data, b"") == before.get(data, b"")
        assert not [path for path in files if path.endswith(".tmp")]


def test_an_ingest_or_an_insert_only_load_renames_no_data_file(
        tmp_path, monkeypatch, retail_spec, retail_data):
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, retail_spec)
    renamed: list[Path] = []
    replace = os.replace
    monkeypatch.setattr(storage, "os", storage_os(replace=lambda *args: (
        renamed.append(Path(args[1])), replace(*args))[1]))
    silver, inserts_only = retail_spec.schema_names["silver"], 0
    for jobs in rf.write_batches(retail_data, tmp_path / "inbox", 5):
        for job in jobs:
            ingest_file(warehouse, retail_spec, job.source, job.path,
                        now=rf.DEFAULT_NOW, mtime=job.mtime)
        assert renamed == []
        updated: Counter = Counter()
        for result in load_all(warehouse, retail_spec, now=rf.DEFAULT_NOW):
            updated[result.table] += result.updated
        for table, n in updated.items():
            data = warehouse.root / silver / table.split(".")[1] / "data"
            assert (data in renamed) == bool(n), table
            inserts_only += not n
        assert {path.name for path in renamed} <= {"data", "state"}
        renamed.clear()
    assert inserts_only


def test_a_no_op_load_through_a_fresh_object_opens_no_silver_data_file(
        tmp_path, monkeypatch, retail_spec, retail_data):
    warehouse = run_pipeline(tmp_path / "wh", retail_spec, retail_data, batches=2, gold=False)
    silver_dir = warehouse.root / retail_spec.schema_names["silver"]
    opened = []
    path_open, builtin_open = Path.open, builtins.open
    monkeypatch.setattr(Path, "open", lambda self, *args, **kwargs: (
        opened.append(Path(self)), path_open(self, *args, **kwargs))[1])
    monkeypatch.setattr(builtins, "open", lambda file, *args, **kwargs: (
        opened.append(Path(file)), builtin_open(file, *args, **kwargs))[1])
    results = load_all(Warehouse(warehouse.root), retail_spec, now=rf.DEFAULT_NOW)
    monkeypatch.undo()
    assert [r.scanned for r in results] == [0] * len(results)
    assert [path for path in opened if path.is_relative_to(silver_dir)
            and path.name == "data"] == []
    # Each table's state record and each source's tail are read instead.
    assert {path.name for path in opened if path.is_relative_to(silver_dir)} == {
        "manifest", "state"}


def test_loading_a_hub_whose_table_holds_no_row_fails(wh, feed):
    wh.replace_table(silver_manifest(MODEL, PERSON), [])  # the default row is gone
    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n")
    data = wh.table_dir(SILVER, "hub_person") / "data"
    with pytest.raises(StorageError, match="initialize default rows first"):
        load_all(wh, MODEL, now=NOW, only="hub_person")
    assert data.read_bytes() == b""


def test_load_all_only_takes_a_model_or_table_name_and_refuses_others(wh, feed):
    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n")
    before = {table: (wh.table_dir(SILVER, table) / "data").read_bytes()
              for table in wh.list_tables(SILVER)}
    with pytest.raises(LoadError, match="no hub or star named 'no_such_table'"):
        load_all(wh, MODEL, now=NOW, only="no_such_table")
    assert before == {table: (wh.table_dir(SILVER, table) / "data").read_bytes()
                      for table in wh.list_tables(SILVER)}
    assert [r.table for r in load_all(wh, MODEL, now=NOW, only="person")] == \
        [f"{SILVER}.hub_person"]
    assert [r.table for r in load_all(wh, MODEL, now=NOW, only="hub_person")] == \
        [f"{SILVER}.hub_person"]


def test_update_overwrites_descriptives_but_not_first_seen_metadata(wh, feed):
    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n")
    load_all(wh, MODEL, now=NOW)
    feed("people", PEOPLE_HEADER + "1,Ana,Bergen,D1,2024-03-02T08:00:00Z,0\n")
    later = datetime(2025, 2, 2, tzinfo=timezone.utc)
    person = result_for(load_all(wh, MODEL, now=later), "hub_person")
    assert (person.inserted, person.updated, person.unchanged_skipped) == (0, 1, 0)

    ana = people_rows(wh)[person_key(1)]
    assert ana["city"] == "Bergen"
    assert ana["capture_timestamp"] == utc(2024, 3, 2, 8)
    assert ana["load_timestamp"] == later
    # Write-once columns survive the update untouched.
    assert ana["initial_capture_timestamp"] == utc(2024, 3, 1, 8)
    assert ana["load_source"] == 1


def test_unchanged_redelivery_touches_nothing(wh, feed):
    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n")
    load_all(wh, MODEL, now=NOW)
    before = wh.read_rows(SILVER, "hub_person")
    # Same payload, newer capture: detected as unchanged, so not rewritten
    # and the row keeps its original capture timestamp.
    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-05T08:00:00Z,0\n")
    person = result_for(load_all(wh, MODEL, now=NOW), "hub_person")
    assert (person.inserted, person.updated, person.unchanged_skipped) == (0, 0, 1)
    assert wh.read_rows(SILVER, "hub_person") == before


def test_update_keeps_its_file_position_and_insert_appends(wh, feed):
    feed("people", PEOPLE_HEADER
         + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n"
         + "2,Bo,Rio,D2,2024-03-01T09:00:00Z,0\n")
    load_all(wh, MODEL, now=NOW)
    feed("people", PEOPLE_HEADER
         + "3,Cy,Ume,D3,2024-03-02T08:00:00Z,0\n"
         + "1,Ana,Bergen,D1,2024-03-02T09:00:00Z,0\n")
    person = result_for(load_all(wh, MODEL, now=NOW), "hub_person")
    assert (person.inserted, person.updated) == (1, 1)
    rows = people_rows(wh)
    assert list(rows) == [person_key(1), person_key(2), person_key(3)]
    assert rows[person_key(1)]["city"] == "Bergen"


def test_null_transitions_count_as_changes_in_both_directions(wh, feed):
    # A blank integer cell lands as null (blank strings stay empty strings).
    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,\n")
    load_all(wh, MODEL, now=NOW)
    assert people_rows(wh)[person_key(1)]["gone_mark"] is None

    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-02T08:00:00Z,0\n")
    person = result_for(load_all(wh, MODEL, now=NOW), "hub_person")
    assert person.updated == 1  # null -> value

    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-03T08:00:00Z,\n")
    person = result_for(load_all(wh, MODEL, now=NOW), "hub_person")
    assert person.updated == 1  # value -> null
    assert people_rows(wh)[person_key(1)]["gone_mark"] is None


def test_batch_with_several_versions_keeps_only_the_latest(wh, feed):
    feed("people", PEOPLE_HEADER
         + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n"
         + "1,Ana,Bergen,D1,2024-03-01T09:00:00Z,0\n"
         + "1,Ana,Tromso,D1,2024-03-01T07:00:00Z,0\n")
    person = result_for(load_all(wh, MODEL, now=NOW), "hub_person")
    assert (person.scanned, person.inserted) == (3, 1)
    assert people_rows(wh)[person_key(1)]["city"] == "Bergen"


def test_delete_flag_roundtrip_is_two_updates(wh, feed):
    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n")
    load_all(wh, MODEL, now=NOW)
    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-02T08:00:00Z,1\n")
    person = result_for(load_all(wh, MODEL, now=NOW), "hub_person")
    assert person.updated == 1
    assert people_rows(wh)[person_key(1)]["delete_flag"] == 1

    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-03T08:00:00Z,0\n")
    person = result_for(load_all(wh, MODEL, now=NOW), "hub_person")
    assert person.updated == 1
    assert people_rows(wh)[person_key(1)]["delete_flag"] == 0


def test_null_business_key_is_a_load_error(wh, feed):
    feed("people", PEOPLE_HEADER + ",Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n")
    with pytest.raises(LoadError, match="business key person_id is null"):
        load_all(wh, MODEL, now=NOW)


# A key formula that leaves out a business key: two business keys, one hub key.
NARROW_KEY = parse_model('''product narrow

source regs {
  load_source 1
  format csv
  column region string
  column code string
  column at timestamp
  capture cdc_column at
}

hub reg {
  key computed region
  business_key global (region string, code string)
  source_mapping regs {
    map region = region
    map code = code
  }
}
''').spec


def test_two_writes_to_one_key_fail_the_load_and_leave_the_table(tmp_path):
    assert validate_model(NARROW_KEY).ok
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, NARROW_KEY)
    path = tmp_path / "regs.csv"
    path.write_text("region,code,at\nnorth,a,2024-01-01T00:00:00Z\n"
                    "north,b,2024-01-02T00:00:00Z\n", encoding="utf-8")
    ingest_file(warehouse, NARROW_KEY, "regs", path, now=NOW)
    data = warehouse.table_dir(NARROW_KEY.schema_names["silver"], "hub_reg") / "data"
    before = data.read_bytes()
    with pytest.raises(HubStarError, match=r"duplicate primary key within one batch .*'north'"):
        load_all(warehouse, NARROW_KEY, now=NOW)
    assert data.read_bytes() == before


# -- system-generated keys ------------------------------------------------------


def test_system_generated_keys_are_minted_once_and_reused(wh, feed):
    feed("people", PEOPLE_HEADER
         + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n"
         + "2,Bo,Rio,D2,2024-03-01T09:00:00Z,0\n")
    load_all(wh, MODEL, now=NOW)
    devices = {r["device_code"]: r["device_key"]
               for r in wh.read_rows(SILVER, "hub_device")
               if r["device_key"] != "-1"}
    assert devices == {"D1": "1", "D2": "2"}

    # A re-encounter of D1 keeps its surrogate; D3 gets the next one.
    feed("people", PEOPLE_HEADER
         + "1,Ana,Oslo,D1,2024-03-02T08:00:00Z,0\n"
         + "3,Cy,Ume,D3,2024-03-02T09:00:00Z,0\n")
    load_all(wh, MODEL, now=NOW)
    devices = {r["device_code"]: r["device_key"]
               for r in wh.read_rows(SILVER, "hub_device")
               if r["device_key"] != "-1"}
    assert devices == {"D1": "1", "D2": "2", "D3": "3"}


def test_fk_to_system_generated_hub_resolves_by_business_key_lookup(wh, feed):
    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D2,2024-03-01T08:00:00Z,0\n"
         + "2,Bo,Rio,D1,2024-03-01T09:00:00Z,0\n")
    load_all(wh, MODEL, now=NOW)
    rows = people_rows(wh)
    devices = {r["device_code"]: r["device_key"]
               for r in wh.read_rows(SILVER, "hub_device")}
    assert rows[person_key(1)]["device_key"] == devices["D2"]
    assert rows[person_key(2)]["device_key"] == devices["D1"]


def test_a_load_updates_the_first_member_of_an_identity_as_a_lookup_resolves_it(wh, feed):
    # A duplicate made by hand: a load matches the member a key lookup
    # finds, the first in file order, and `check` still reports both.
    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n")
    load_all(wh, MODEL, now=NOW)
    [member] = [row for row in wh.read_rows(SILVER, "hub_person") if row["person_key"] != "-1"]
    wh.append_rows(SILVER, "hub_person", [{**member, "city": "Bergen"}])
    feed("people", PEOPLE_HEADER + "1,Ana,Rome,D1,2024-03-02T08:00:00Z,0\n")
    load_all(Warehouse(wh.root), MODEL, now=NOW)
    assert [row["city"] for row in wh.read_rows(SILVER, "hub_person")][1:] == ["Rome", "Bergen"]
    assert wh.check_constraints(SILVER, "hub_person") == [
        f"{SILVER}.hub_person: duplicate primary key ({person_key(1)!r})",
        f"{SILVER}.hub_person: duplicate value (1) for unique (person_id)"]


def test_references_into_a_system_keyed_hub_read_it_once_per_mapping(wh, feed, table_reads):
    feed("people", PEOPLE_HEADER + "".join(
        f"{i},P{i},Oslo,D{i % 2},2024-03-01T08:00:0{i}Z,0\n" for i in range(1, 6)))
    load_all(wh, MODEL, now=NOW)
    # The device load and the person load's lookups share one read of the
    # hub, which holds what the device load wrote.
    assert table_reads[SILVER, "hub_device"] == 1
    table_reads.clear()
    assert check_against_oracle(wh, MODEL) == []
    # The oracle's device element, then its person element's one index.
    assert table_reads[SILVER, "hub_device"] == 2


# Two hubs whose mappings both reference the system-keyed hub device.
DEVICES = parse_model('''product devices

source people {
  load_source 1
  format csv
  column person_id integer
  column device_code string
  column seen_at timestamp
  capture cdc_column seen_at
}

hub device {
  key system_generated
  business_key global (device_code string)
  source_mapping people {
    map device_code = device_code
  }
}

hub person {
  key computed sha256(cast(person_id as string))
  business_key global (person_id integer)
  descriptive device_key references device
  source_mapping people {
    map person_id = person_id
    fk device_key = device(device_code)
  }
}

hub badge {
  key computed cast(person_id as string)
  business_key global (person_id integer)
  descriptive device_key references device
  source_mapping people {
    map person_id = person_id
    fk device_key = device(device_code)
  }
}
''').spec


def test_references_into_a_system_keyed_hub_read_it_once_per_command(tmp_path, table_reads):
    assert validate_model(DEVICES).ok
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, DEVICES)
    path = tmp_path / "people.csv"
    path.write_text("person_id,device_code,seen_at\n" + "".join(
        f"{i},D{i % 2},2024-03-01T08:00:0{i}Z\n" for i in range(1, 6)), encoding="utf-8")
    ingest_file(warehouse, DEVICES, "people", path, now=NOW)
    silver = DEVICES.schema_names["silver"]
    load_all(warehouse, DEVICES, now=NOW)
    # One read serves the device load and the lookups of both the person
    # and the badge mapping.
    assert table_reads[silver, "hub_device"] == 1
    devices = {row["device_code"]: row["device_key"]
               for row in warehouse.read_rows(silver, "hub_device")}
    for table in ("hub_person", "hub_badge"):
        assert sorted(row["device_key"] for row in warehouse.read_rows(silver, table)) == \
            sorted(["-1"] + [devices[f"D{i % 2}"] for i in range(1, 6)]), table
    table_reads.clear()
    assert check_against_oracle(warehouse, DEVICES) == []
    # The oracle's device element, then one index for the other two.
    assert table_reads[silver, "hub_device"] == 2
    table_reads.clear()
    load_all(Warehouse(warehouse.root), DEVICES, now=NOW)
    # A load with nothing to stage decodes no silver row, so it reads none.
    assert not any(schema == silver for schema, _table in table_reads)


# A system-keyed hub whose business key is local to its source, fed by two.
LOCAL_CODES = parse_model('''product localcodes

source a {
  load_source 1
  format csv
  column code string
  column label string
  column at timestamp
  capture cdc_column at
}

source b {
  load_source 2
  format csv
  column code string
  column label string
  column at timestamp
  capture cdc_column at
}

hub item {
  key system_generated
  business_key local (code string)
  descriptive label string
  source_mapping a {
    map code = code
    map label = label
  }
  source_mapping b {
    map code = code
    map label = label
  }
}
''').spec


def test_local_system_keyed_hub_keeps_one_row_per_source_and_code(tmp_path):
    assert validate_model(LOCAL_CODES).ok
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, LOCAL_CODES)
    # b captures later: the hub's one high-water mark would hide an older b row.
    for source, day in (("a", 1), ("b", 2)):
        path = tmp_path / f"{source}.csv"
        path.write_text(f"code,label,at\nx,from-{source},2024-01-0{day}T00:00:00Z\n",
                        encoding="utf-8")
        ingest_file(warehouse, LOCAL_CODES, source, path, now=NOW)
    load_all(warehouse, LOCAL_CODES, now=NOW)
    load_all(warehouse, LOCAL_CODES, now=NOW)  # a reload changes nothing

    silver = LOCAL_CODES.schema_names["silver"]
    rows = warehouse.read_rows(silver, "hub_item")
    assert [(r["item_key"], r["load_source"], r["code"], r["label"]) for r in rows] == [
        ("-1", 0, "null", None), ("1", 1, "x", "from-a"), ("2", 2, "x", "from-b")]
    assert warehouse.check_all(silver) == []
    assert check_against_oracle(warehouse, LOCAL_CODES) == []


def one_hub_model(key: str, key_type: str, load_source: int = 1):
    return parse_model(f'''product defaults

source s {{
  load_source {load_source}
  format csv
  column code {key_type}
  column label string
  column at timestamp
  capture cdc_column at
}}

hub item {{
  key {key}
  business_key global (code {key_type})
  descriptive label string
  source_mapping s {{
    map code = code
    map label = label
  }}
}}
''').spec


def load_codes(tmp_path, spec, *codes):
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, spec)
    path = tmp_path / "s.csv"
    path.write_text("code,label,at\n" + "".join(
        f"{code},hello,2024-01-01T00:00:00Z\n" for code in codes), encoding="utf-8")
    ingest_file(warehouse, spec, "s", path, now=NOW)
    return warehouse, load_all(warehouse, spec, now=NOW)


def test_business_keys_equal_to_the_default_rows_stand_ins_mint_a_member(tmp_path):
    spec = one_hub_model("system_generated", "string")
    assert validate_model(spec).ok
    warehouse, (item,) = load_codes(tmp_path, spec, "abc", "null")
    assert (item.inserted, item.updated) == (2, 0)
    silver = spec.schema_names["silver"]
    data = warehouse.table_dir(silver, "hub_item") / "data"
    default_line = storage.encode_row(warehouse.manifest(silver, "hub_item"),
                                      default_row(spec, spec.hub("item")))
    assert data.read_text(encoding="utf-8").splitlines()[0] == default_line
    assert check_against_oracle(warehouse, spec) == []


def test_a_member_sharing_the_default_rows_business_keys_is_no_duplicate(tmp_path):
    spec = one_hub_model("system_generated", "string")
    warehouse, _results = load_codes(tmp_path, spec, "abc", "null")
    silver = spec.schema_names["silver"]
    assert warehouse.check_all(silver) == []

    # Two members with one business key are still a duplicate.
    member = next(r for r in warehouse.read_rows(silver, "hub_item") if r["code"] == "abc")
    warehouse.append_rows(silver, "hub_item", [{**member, "item_key": "3"}])
    assert warehouse.check_all(silver) == [
        "hs_defaults.hub_item: duplicate value ('abc') for unique (code)"]


def test_the_oracle_compares_the_default_row_beside_a_member_with_its_business_keys(tmp_path):
    spec = one_hub_model("system_generated", "string")
    warehouse, _results = load_codes(tmp_path, spec, "abc", "null")
    silver = spec.schema_names["silver"]
    rows = warehouse.read_rows(silver, "hub_item")
    warehouse.append_rows(silver, "hub_item", [], replace={0: {**rows[0], "label": "stray"}},
                          lines=len(rows))
    assert check_against_oracle(warehouse, spec) == [
        "hub_item: ('-1') column label: engine='stray' oracle=None"]


def test_a_computed_key_equal_to_the_default_rows_fails_the_load(tmp_path):
    spec = one_hub_model("computed cast(code as string)", "integer")
    assert validate_model(spec).ok
    with pytest.raises(LoadError, match="key formula gives the default row's key -1 for "
                                        r"\(-1\)") as load_error:
        load_codes(tmp_path, spec, 7, -1)
    # The oracle stages under the same rule, so it refuses the row too.
    with pytest.raises(LoadError) as oracle_error:
        check_against_oracle(Warehouse(tmp_path / "wh"), spec)
    assert str(oracle_error.value) == str(load_error.value) == (
        "hs_defaults.hub_item <- raw_defaults.s: line 2: "
        "key formula gives the default row's key -1 for (-1)")


def test_a_source_that_declares_the_systems_load_source_is_refused(tmp_path):
    # The default row is the one row whose load source is the system's, so
    # staging refuses a source that declares it, as the validator does.
    spec = one_hub_model("system_generated", "string", load_source=SYSTEM_LOAD_SOURCE)
    assert [v.rule for v in validate_model(spec).violations] == ["source_load_source_id"]
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, spec)
    path = tmp_path / "s.csv"
    path.write_text("code,label,at\nabc,hello,2024-01-01T00:00:00Z\n", encoding="utf-8")
    ingest_file(warehouse, spec, "s", path, now=NOW)
    before = file_bytes(warehouse.root)
    refusal = ("hs_defaults.hub_item <- raw_defaults.s: "
               "load_source 0 is reserved for the system's default rows")
    with pytest.raises(LoadError) as load_error:
        load_all(warehouse, spec, now=NOW)
    with pytest.raises(LoadError) as oracle_error:
        check_against_oracle(Warehouse(warehouse.root), spec)
    assert str(load_error.value) == str(oracle_error.value) == refusal
    assert file_bytes(warehouse.root) == before


def test_a_mapping_whose_source_has_no_bronze_table_is_refused(wh, feed, tmp_path, capsys):
    # `init` creates every source's bronze table, so a missing one was
    # removed; the load refuses it before its first write, and the oracle
    # names it where it used to expect no row.
    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n")
    bronze = MODEL.schema_names["bronze"]
    shutil.rmtree(wh.table_dir(bronze, "visits"))
    before = file_bytes(wh.root)
    refusal = f"bronze table {bronze}.visits is missing; run init or ingest first"
    with pytest.raises(LoadError, match=f"^{refusal}$"):
        load_all(wh, MODEL, now=NOW)
    assert file_bytes(wh.root) == before
    with pytest.raises(StorageError, match=rf"^no such table {bronze}\.visits$"):
        check_against_oracle(wh, MODEL)
    model = tmp_path / "mergetest.hsm"
    model.write_text(render_model(MODEL), encoding="utf-8")
    capsys.readouterr()
    for command in (["load-silver"], ["check", "--against-oracle"]):
        assert main([*command, "--model", str(model), "--root", str(wh.root)]) == 2, command
        assert f"{bronze}.visits" in capsys.readouterr().err, command
    assert file_bytes(wh.root) == before


def file_states(root) -> dict[str, tuple[bytes, int]]:
    """Every file under `root` by relative path: its bytes and its inode."""
    return {str(p.relative_to(root)): (p.read_bytes(), p.stat().st_ino)
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_a_missing_silver_table_is_refused_before_the_first_write(
        tmp_path, retail_spec, retail_data, capsys):
    # The star is the last table loaded, so a load that refused it only when
    # it got there would already have rewritten the hubs before it.
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, retail_spec)
    for jobs in rf.write_batches(retail_data, tmp_path / "inbox", 1):
        for job in jobs:
            ingest_file(warehouse, retail_spec, job.source, job.path,
                        now=rf.DEFAULT_NOW, mtime=job.mtime)
    silver = retail_spec.schema_names["silver"]
    shutil.rmtree(warehouse.table_dir(silver, "star_sales_order_item"))
    before = file_states(warehouse.root)
    refusal = f"silver table {silver}.star_sales_order_item is missing; run init first"
    with pytest.raises(LoadError, match=f"^{refusal}$"):
        load_all(warehouse, retail_spec, now=NOW)
    assert file_states(warehouse.root) == before
    capsys.readouterr()
    assert main(["load-silver", "--model", str(FIXTURE_MODEL),
                 "--root", str(warehouse.root)]) == 2
    assert capsys.readouterr().err == f"error: {refusal}\n"
    assert file_states(warehouse.root) == before


def test_fk_with_null_argument_points_at_default_row(wh, feed):
    # An empty string is still a value, so it earns a device of its own; only
    # a true null defaults. The star FK below sees a null person_id.
    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,,2024-03-01T08:00:00Z,0\n")
    load_all(wh, MODEL, now=NOW)
    codes = {r["device_code"] for r in wh.read_rows(SILVER, "hub_device")}
    assert "" in codes
    assert people_rows(wh)[person_key(1)]["device_key"] != "-1"

    feed("visits", visit(None, "2024-04-01T00:00:00Z", "stray", "2024-04-01T12:00:00Z"))
    load_all(wh, MODEL, now=NOW)
    rows = wh.read_rows(SILVER, "star_person_visit")
    assert [r["person_key"] for r in rows] == ["-1"]


# A reference whose source-side argument is a string, coerced to the
# referenced hub's integer business key.
OWNED = parse_model('''product fk

source items {
  load_source 1
  format csv
  column code string
  column owner string
  column at timestamp
  capture cdc_column at
}

hub owner {
  key computed cast(num as string)
  business_key global (num integer)
}

hub item {
  key computed code
  business_key global (code string)
  descriptive owner_key references owner
  source_mapping items {
    map code = code
    fk owner_key = owner(owner)
  }
}
''').spec


def test_a_reference_argument_null_after_coercion_points_at_the_default_row(tmp_path):
    assert validate_model(OWNED).ok
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, OWNED)
    path = tmp_path / "items.csv"
    path.write_text('code,owner,at\nquoted,"",2024-01-01T00:00:00Z\n'
                    "empty,,2024-01-01T00:00:00Z\nset,7,2024-01-01T00:00:00Z\n",
                    encoding="utf-8")
    ingest_file(warehouse, OWNED, "items", path, now=NOW)
    load_all(warehouse, OWNED, now=NOW)
    rows = warehouse.read_rows(OWNED.schema_names["silver"], "hub_item")
    assert {r["code"]: r["owner_key"] for r in rows} == {
        "null": "-1", "quoted": "-1", "empty": "-1", "set": "7"}
    assert check_against_oracle(warehouse, OWNED) == []


# A hub `references` descriptive its mapping leaves unresolved, and a star
# `references` descriptive resolved with `key`.
REFERENCES = parse_model('''product refs

source custs {
  load_source 1
  format csv
  column cust_id integer
  column seg string
  column at timestamp
  capture cdc_column at
}

hub seg {
  key computed seg
  business_key global (seg string)
  source_mapping custs {
    map seg = seg
  }
}

hub cust {
  key computed cast(cust_id as string)
  business_key global (cust_id integer)
  descriptive seg_key references seg
  source_mapping custs {
    map cust_id = cust_id
  }
}

star cust_seg {
  participant cust
  key (cust_key)
  descriptive seg_key references seg
  source_mapping custs {
    key cust_key = cust(cust_id)
    key seg_key = seg(seg)
  }
}
''').spec


@pytest.fixture()
def references_wh(tmp_path):
    assert validate_model(REFERENCES).ok
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, REFERENCES)
    path = tmp_path / "custs.csv"
    path.write_text("cust_id,seg,at\n1,gold,2024-01-01T00:00:00Z\n"
                    "2,silver,2024-01-02T00:00:00Z\n", encoding="utf-8")
    ingest_file(warehouse, REFERENCES, "custs", path, now=NOW)
    load_all(warehouse, REFERENCES, now=NOW)
    return warehouse


def test_unresolved_hub_reference_points_at_the_default_row(references_wh):
    silver = REFERENCES.schema_names["silver"]
    rows = references_wh.read_rows(silver, "hub_cust")
    assert {r["cust_key"]: r["seg_key"] for r in rows} == {"-1": "-1", "1": "-1", "2": "-1"}
    assert check_against_oracle(references_wh, REFERENCES) == []
    assert references_wh.check_all(silver) == []


def test_star_reference_descriptive_resolves_with_key(references_wh):
    silver = REFERENCES.schema_names["silver"]
    rows = references_wh.read_rows(silver, "star_cust_seg")
    assert {r["cust_key"]: r["seg_key"] for r in rows} == {"1": "gold", "2": "silver"}
    assert check_against_oracle(references_wh, REFERENCES) == []
    assert references_wh.check_all(silver) == []


# A descriptive its mapping leaves out, and `map` and `fk` values that must
# be coerced to an integer.
COERCED = parse_model('''product coerce

source s {
  load_source 1
  format csv
  column code string
  column at timestamp
  capture cdc_column at
}

hub num {
  key computed cast(n as string)
  business_key global (n integer)
}

hub sized {
  key computed code
  business_key global (code string)
  descriptive size integer
  descriptive label string
  source_mapping s {
    map code = code
    map size = code
  }
}

hub linked {
  key computed code
  business_key global (code string)
  descriptive num_key references num
  source_mapping s {
    map code = code
    fk num_key = num(code)
  }
}

hub cast {
  key computed code
  business_key global (code string)
  descriptive size integer
  source_mapping s {
    map code = code
    map size = cast(code as integer)
  }
}
''').spec


def coerced_wh(tmp_path, codes: str) -> Warehouse:
    assert validate_model(COERCED).ok
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, COERCED)
    path = tmp_path / "s.csv"
    path.write_text(f"code,at\n{codes},2024-01-01T00:00:00Z\n", encoding="utf-8")
    ingest_file(warehouse, COERCED, "s", path, now=NOW)
    return warehouse


def test_a_mapped_column_without_a_map_loads_null(tmp_path):
    warehouse = coerced_wh(tmp_path, "7")
    load_all(warehouse, COERCED, now=NOW)
    silver = COERCED.schema_names["silver"]
    (row,) = [r for r in warehouse.read_rows(silver, "hub_sized") if r["sized_key"] == "7"]
    assert (row["size"], row["label"]) == (7, None)
    assert {r["linked_key"]: r["num_key"] for r in warehouse.read_rows(silver, "hub_linked")} == \
        {"-1": "-1", "7": "7"}
    assert check_against_oracle(warehouse, COERCED) == []


@pytest.mark.parametrize("hub,error,message", [
    ("sized", LoadError, "column size: invalid literal"),
    ("linked", LoadError, "fk to num: invalid literal"),
    ("cast", EvalError, "cast failed: invalid literal")], ids=["map", "fk", "expression"])
def test_a_value_that_does_not_coerce_to_its_column_type_fails_the_load(
        tmp_path, hub, error, message):
    warehouse = coerced_wh(tmp_path, "x")
    silver, bronze = COERCED.schema_names["silver"], COERCED.schema_names["bronze"]
    before = warehouse.read_rows(silver, f"hub_{hub}")
    # The error names the silver table, and the bronze source and line it
    # was staging.
    with pytest.raises(error, match=f"^{silver}.hub_{hub} <- {bronze}.s: line 1: {message}"):
        load_all(warehouse, COERCED, now=NOW, only=hub)
    assert warehouse.read_rows(silver, f"hub_{hub}") == before


# A boolean mapped into a string descriptive.
STRINGS_TEXT = '''product strings

source s {
  load_source 1
  format ndjson
  column code string
  column flag boolean
  column parts array(part string)
  column at timestamp
  capture cdc_column at
}

hub flagged {
  key computed code
  business_key global (code string)
  descriptive flag_text string
  source_mapping s {
    map code = code
    map flag_text = flag
  }
}
'''
STRINGS = parse_model(STRINGS_TEXT).spec
# A collection mapped into a string descriptive, which `validate` refuses.
JOINED = parse_model(STRINGS_TEXT + '''
hub joined {
  key computed code
  business_key global (code string)
  descriptive label string
  source_mapping s {
    map code = code
    map label = concat("-", parts)
  }
}
''').spec


def strings_wh(tmp_path, spec, *rows: dict) -> Warehouse:
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, spec)
    path = tmp_path / "s.ndjson"
    path.write_text("".join(json.dumps({"at": "2024-01-01T00:00:00Z", **row}) + "\n"
                            for row in rows), encoding="utf-8")
    ingest_file(warehouse, spec, "s", path, now=NOW)
    return warehouse


def test_a_boolean_mapped_into_a_string_column_loads_as_true_or_false(tmp_path):
    assert validate_model(STRINGS).ok
    warehouse = strings_wh(tmp_path, STRINGS, {"code": "a", "flag": True},
                           {"code": "b", "flag": False})
    load_all(warehouse, STRINGS, now=NOW)
    rows = warehouse.read_rows(STRINGS.schema_names["silver"], "hub_flagged")
    assert {r["flagged_key"]: r["flag_text"] for r in rows if r["flagged_key"] != "-1"} == \
        {"a": "true", "b": "false"}
    assert check_against_oracle(warehouse, STRINGS) == []


def test_a_concat_over_a_collection_fails_the_load_by_line(tmp_path):
    # `validate` refuses the mapping by its column; a load under a model it
    # was not asked about refuses the row.
    assert [(v.rule, v.location, v.message) for v in validate_model(JOINED).violations] == [
        ("mapping_collection_column", "hub joined mapping s",
         "expression reads collection column 'parts', which holds no scalar")]
    warehouse = strings_wh(tmp_path, JOINED, {"code": "a", "parts": [{"part": "x"}]})
    silver_schema, bronze = JOINED.schema_names["silver"], JOINED.schema_names["bronze"]
    before = file_bytes(warehouse.root)
    with pytest.raises(EvalError) as error:
        load_all(warehouse, JOINED, now=NOW, only="joined")
    assert str(error.value) == \
        f"{silver_schema}.hub_joined <- {bronze}.s: line 1: cannot stringify list"
    assert file_bytes(warehouse.root) == before


# -- version ranking ------------------------------------------------------------


def staged(*rows):
    """Synthetic (bronze index, bronze row, payload) triples. Ranking reads
    capture_timestamp and dedup columns from the bronze row, partitioning
    reads the payload; one dict plays both parts here."""
    return [(i, row, row) for i, row in enumerate(rows)]


def rank(rows, dedup_order):
    """Silver's ranking call: dedup terms, then capture_timestamp desc, over
    entries in bronze order, so ties fall to the earlier bronze row."""
    return top_per_partition(rows, lambda e: row_key(e[2], ("k",)),
                             dedup_order + (("capture_timestamp", "desc"),),
                             fields=lambda e: e[1])


def test_rank_orders_by_capture_desc_then_bronze_position(wh):
    rows = staged(
        {"k": "a", "capture_timestamp": utc(2024, 1, 1), "v": "old"},
        {"k": "a", "capture_timestamp": utc(2024, 1, 3), "v": "first"},
        {"k": "a", "capture_timestamp": utc(2024, 1, 3), "v": "second"},
    )
    survivors = rank(rows, ())
    # Equal captures tie-break on bronze position, earliest first.
    assert [e[2]["v"] for e in survivors] == ["first"]


def test_dedup_terms_outrank_the_capture_timestamp(wh):
    rows = staged(
        {"k": "a", "capture_timestamp": utc(2024, 1, 9), "rank": 1, "v": "late"},
        {"k": "a", "capture_timestamp": utc(2024, 1, 1), "rank": 5, "v": "high"},
    )
    survivors = rank(rows, (("rank", "desc"),))
    assert [e[2]["v"] for e in survivors] == ["high"]


def test_dedup_sorts_nulls_low_in_both_directions(wh):
    rows = staged(
        {"k": "a", "capture_timestamp": utc(2024, 1, 1), "rank": None, "v": "null"},
        {"k": "a", "capture_timestamp": utc(2024, 1, 1), "rank": 2, "v": "two"},
    )
    top_desc = rank(rows, (("rank", "desc"),))
    assert top_desc[0][2]["v"] == "two"
    top_asc = rank(rows, (("rank", "asc"),))
    assert top_asc[0][2]["v"] == "null"


def test_survivors_come_back_in_bronze_order(wh, feed):
    # Ranking puts person 2 first (later capture); the hub still appends in
    # bronze order, which keeps file order independent of the ranking.
    feed("people", PEOPLE_HEADER
         + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n"
         + "2,Bo,Rome,D2,2024-03-01T09:00:00Z,0\n")
    load_all(wh, MODEL, now=NOW)
    assert list(people_rows(wh)) == [person_key(1), person_key(2)]


# -- star loading ---------------------------------------------------------------


def visit(person_id, day, note, captured, gone=0):
    import json

    return json.dumps({"person_id": person_id, "visit_day": day, "note": note,
                       "captured_at": captured, "gone": gone}) + "\n"


def seed_person(wh, feed, person_id=1):
    feed("people", PEOPLE_HEADER
         + f"{person_id},Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n")


def test_a_timestamp_before_year_1000_survives_ingest_and_load(wh, feed):
    seed_person(wh, feed)
    feed("visits", visit(1, "0099-01-01", "early", "2024-04-01T12:00:00Z"))
    bronze = (wh.table_dir(MODEL.schema_names["bronze"], "visits") / "data").read_text("utf-8")
    assert '"visit_day":"0099-01-01T00:00:00Z"' in bronze
    load_all(wh, MODEL, now=NOW)
    assert [r["visit_day"] for r in wh.read_rows(SILVER, "star_person_visit")] == [utc(99, 1, 1)]
    assert check_against_oracle(wh, MODEL) == []


def test_star_rows_version_on_their_composite_key(wh, feed):
    seed_person(wh, feed)
    feed("visits", visit(1, "2024-04-01T00:00:00Z", "checkup", "2024-04-01T12:00:00Z")
         + visit(1, "2024-04-02T00:00:00Z", "walk-in", "2024-04-02T12:00:00Z"))
    results = load_all(wh, MODEL, now=NOW)
    star = result_for(results, "star_person_visit")
    assert (star.scanned, star.inserted) == (2, 2)

    rows = wh.read_rows(SILVER, "star_person_visit")
    assert all(r["person_key"] == person_key(1) for r in rows)
    assert all("initial_capture_timestamp" not in r for r in rows)
    first = rows[0]
    assert first["capture_timestamp"] == utc(2024, 4, 1, 12)
    assert first["load_source"] == 2
    assert first["load_timestamp"] == NOW

    # Same (person, day): an update in place. New day: a fresh row.
    feed("visits", visit(1, "2024-04-01T00:00:00Z", "checkup-amended", "2024-04-03T12:00:00Z"))
    star = result_for(load_all(wh, MODEL, now=NOW), "star_person_visit")
    assert (star.inserted, star.updated) == (0, 1)
    notes = {(r["visit_day"], r["note"]) for r in wh.read_rows(SILVER, "star_person_visit")}
    assert notes == {(utc(2024, 4, 1), "checkup-amended"), (utc(2024, 4, 2), "walk-in")}


def test_star_unchanged_redelivery_is_skipped(wh, feed):
    seed_person(wh, feed)
    feed("visits", visit(1, "2024-04-01T00:00:00Z", "checkup", "2024-04-01T12:00:00Z"))
    load_all(wh, MODEL, now=NOW)
    feed("visits", visit(1, "2024-04-01T00:00:00Z", "checkup", "2024-04-09T12:00:00Z"))
    star = result_for(load_all(wh, MODEL, now=NOW), "star_person_visit")
    assert (star.inserted, star.updated, star.unchanged_skipped) == (0, 0, 1)


def test_in_batch_duplicate_composite_keys_collapse_to_the_last_row(wh, feed):
    seed_person(wh, feed)
    feed("visits", visit(1, "2024-04-01T00:00:00Z", "draft", "2024-04-01T12:00:00Z")
         + visit(1, "2024-04-01T00:00:00Z", "final", "2024-04-01T13:00:00Z"))
    star = result_for(load_all(wh, MODEL, now=NOW), "star_person_visit")
    assert (star.scanned, star.inserted) == (2, 1)
    rows = wh.read_rows(SILVER, "star_person_visit")
    assert [r["note"] for r in rows] == ["final"]


def test_star_delete_flag_comes_from_the_bronze_row(wh, feed):
    seed_person(wh, feed)
    feed("visits", visit(1, "2024-04-01T00:00:00Z", "checkup", "2024-04-01T12:00:00Z", gone=1))
    load_all(wh, MODEL, now=NOW)
    rows = wh.read_rows(SILVER, "star_person_visit")
    assert [r["delete_flag"] for r in rows] == [1]


def test_null_composite_key_part_is_a_load_error(wh, feed):
    seed_person(wh, feed)
    feed("visits", visit(1, None, "checkup", "2024-04-01T12:00:00Z"))
    with pytest.raises(LoadError, match="composite key column visit_day is null"):
        load_all(wh, MODEL, now=NOW)


def test_star_hwm_starts_at_epoch_and_filters_redeliveries(wh, feed):
    seed_person(wh, feed)
    feed("visits", visit(1, "2024-04-01T00:00:00Z", "checkup", "2024-04-01T12:00:00Z"))
    load_all(wh, MODEL, now=NOW)
    # A star row is replaced by a capture no earlier than its own: at an
    # equal capture the later bronze row wins, as in the oracle.
    feed("visits", visit(1, "2024-04-01T00:00:00Z", "rewrite", "2024-04-01T12:00:00Z"))
    star = result_for(load_all(wh, MODEL, now=NOW), "star_person_visit")
    assert (star.scanned, star.updated) == (1, 1)
    assert [r["note"] for r in wh.read_rows(SILVER, "star_person_visit")] == ["rewrite"]
    assert check_against_oracle(wh, MODEL) == []
    # An earlier capture is filtered: it is scanned, and changes nothing.
    feed("visits", visit(1, "2024-04-01T00:00:00Z", "stale", "2024-04-01T11:00:00Z"))
    star = result_for(load_all(wh, MODEL, now=NOW), "star_person_visit")
    assert (star.scanned, star.updated, star.unchanged_skipped) == (1, 0, 1)
    assert [r["note"] for r in wh.read_rows(SILVER, "star_person_visit")] == ["rewrite"]


# -- collection explosion -------------------------------------------------------


def test_positional_explosion_numbers_items_from_one(wh, feed):
    import json

    seed_person(wh, feed)
    trip = {"person_id": 1, "started_at": "2024-05-01T07:00:00Z",
            "stops": [{"place": "dock", "leg": 9}, {"place": "yard", "leg": 9}]}
    feed("trips", json.dumps(trip) + "\n")
    star = result_for(load_all(wh, MODEL, now=NOW), "star_trip_stop")
    assert (star.scanned, star.inserted) == (2, 2)
    rows = wh.read_rows(SILVER, "star_trip_stop")
    assert [(r["stop_no"], r["place"]) for r in rows] == [(1, "dock"), (2, "yard")]


def test_empty_collection_yields_no_star_rows(wh, feed):
    import json

    seed_person(wh, feed)
    trip = {"person_id": 1, "started_at": "2024-05-01T07:00:00Z", "stops": []}
    feed("trips", json.dumps(trip) + "\n")
    star = result_for(load_all(wh, MODEL, now=NOW), "star_trip_stop")
    assert (star.scanned, star.inserted) == (0, 0)


def test_a_repeated_concat_item_key_fails_the_load_and_leaves_the_star_as_it_was(tmp_path):
    import json

    spec = parse_model(render_model(MODEL).replace(
        "participant item stop_no positional", "participant item stop_no concat(place)")).spec
    assert validate_model(spec).ok
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, spec)
    paths = iter(tmp_path / f"extract_{n}" for n in range(9))

    def feed(source, text):
        path = next(paths)
        path.write_text(text, encoding="utf-8")
        ingest_file(warehouse, spec, source, path, now=NOW)

    def trip(started_at, *places):
        return json.dumps({"person_id": 1, "started_at": started_at,
                           "stops": [{"place": p, "leg": 1} for p in places]}) + "\n"

    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n")
    feed("trips", trip("2024-05-01T07:00:00Z", "Oslo", "Bergen"))
    load_all(warehouse, spec, now=NOW)
    data = warehouse.table_dir(SILVER, "star_trip_stop") / "data"
    before = data.read_bytes()
    assert [r["stop_no"] for r in warehouse.read_rows(SILVER, "star_trip_stop")] == [
        "Oslo", "Bergen"]

    feed("trips", trip("2024-05-02T07:00:00Z", "Oslo", "Bergen", "Oslo"))
    with pytest.raises(LoadError, match=f"^{SILVER}.star_trip_stop <- {spec.schema_names['bronze']}"
                                        ".trips: line 2: duplicate item sequence 'Oslo' within one "
                                        "parent"):
        load_all(warehouse, spec, now=NOW)
    assert data.read_bytes() == before


def test_explicit_sequence_explosion_and_its_failure_modes():
    rule = ItemKeyRule("explicit", sequence_field="seq")
    items = [{"seq": 7, "v": "a"}, {"seq": 2, "v": "b"}]
    assert [(k, i["v"]) for i, k in explode_collection(items, rule)] == [(7, "a"), (2, "b")]

    with pytest.raises(LoadError, match="sequence field seq is null"):
        explode_collection([{"seq": None}], rule)
    with pytest.raises(LoadError, match="duplicate item sequence 7"):
        explode_collection([{"seq": 7}, {"seq": 7}], rule)


def test_concat_explosion_skips_nulls_and_optionally_hashes():
    rule = ItemKeyRule("concat", attributes=("a", "b"))
    items = [{"a": "x", "b": "y"}, {"a": "x", "b": None}]
    assert [k for _i, k in explode_collection(items, rule)] == ["x#y", "x"]

    hashed = ItemKeyRule("concat", attributes=("a", "b"), hashed=True)
    assert [k for _i, k in explode_collection(items, hashed)] == [
        sha256_hex("x#y"), sha256_hex("x")]

    # A repeated key would let the later item replace the earlier one.
    repeated = items + [{"a": "x", "b": "y"}]
    with pytest.raises(LoadError, match="duplicate item sequence 'x#y' within one parent"):
        explode_collection(repeated, rule)
    with pytest.raises(LoadError, match=f"duplicate item sequence '{sha256_hex('x#y')}'"):
        explode_collection(repeated, hashed)


def test_missing_collection_column_explodes_to_nothing():
    rule = ItemKeyRule("positional")
    assert explode_collection(None, rule) == []
    assert explode_collection([], rule) == []


# -- the mapping plan -----------------------------------------------------------

# Columns that read no item next to columns that do, in both orders, and
# values of every type a mapped column may already have.
PLANNED = parse_model('''product plan

source orders {
  load_source 1
  format ndjson
  column code string
  column flag boolean
  column n integer
  column amount decimal
  column at timestamp
  column lines array(qty string, note string)
  capture cdc_column at
}

hub order {
  key computed code
  business_key global (code string)
  descriptive flag_num integer
  descriptive n_text string
  descriptive amount decimal
  descriptive seen timestamp
  source_mapping orders {
    map code = code
    map flag_num = flag
    map n_text = n
    map amount = amount
    map seen = at
  }
}

star item_first {
  participant order
  participant item line_no positional
  key (order_key, line_no)
  descriptive qty integer
  descriptive label integer
  source_mapping orders {
    explode lines
    key order_key = order(code)
    map qty = item.qty
    map label = code
  }
}

star row_first {
  participant order
  participant item line_no positional
  key (order_key, line_no)
  descriptive label integer
  descriptive qty integer
  source_mapping orders {
    explode lines
    key order_key = order(code)
    map label = code
    map qty = item.qty
  }
}
''').spec


def planned_wh(tmp_path, *orders: dict) -> Warehouse:
    assert validate_model(PLANNED).ok
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, PLANNED)
    path = tmp_path / "orders.ndjson"
    path.write_text("".join(json.dumps({"at": "2024-01-01T00:00:00Z", **order}) + "\n"
                            for order in orders), encoding="utf-8")
    ingest_file(warehouse, PLANNED, "orders", path, now=NOW)
    return warehouse


def staged_candidates(warehouse, spec, name: str) -> list[dict]:
    element = spec.hub(name) or spec.star(name)
    return [candidate for _bronze_row, candidate in silver.stage(
        spec, element, element.source_mappings[0], Position(), silver.Reads(warehouse, spec))]


def test_a_column_that_reads_no_item_is_evaluated_once_per_bronze_row(
        tmp_path, monkeypatch, retail_spec):
    # 2x retail, as the benchmark draws it from input seed 3.
    for name in ("CUSTOMER_COUNT", "ORDER_COUNT", "PRODUCT_COUNT"):
        monkeypatch.setattr(rf, name, 2 * getattr(rf, name))
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, retail_spec)
    for jobs in rf.write_batches(rf.generate(3), tmp_path / "inbox", 1):
        for job in jobs:
            ingest_file(warehouse, retail_spec, job.source, job.path,
                        now=rf.DEFAULT_NOW, mtime=job.mtime)
    calls: Counter = Counter()
    key = KeyFormula.key

    def counted(formula, record, load_source):
        calls[formula] += 1
        return key(formula, record, load_source)

    monkeypatch.setattr(KeyFormula, "key", counted)
    staged = staged_candidates(warehouse, retail_spec, "sales_order_item")
    orders = warehouse.read_rows(retail_spec.schema_names["bronze"], "sales_orders")
    with_items = [row for row in orders if row["ordered_products"]]
    items = [item for row in with_items for item in row["ordered_products"]]
    # The order's reference is one per bronze row; the product's, which
    # reads `item.id`, one per item with an id.
    assert calls[retail_spec.hub("sales_order").key_formula] == len(with_items) == 397
    assert calls[retail_spec.hub("product").key_formula] == \
        sum(item["id"] is not None for item in items) == 1210
    assert len(staged) == len(items)


@pytest.mark.parametrize("star,message", [
    ("item_first", "column qty: invalid literal for int() with base 10: 'x'"),
    ("row_first", "column label: invalid literal for int() with base 10: 'abc'")])
def test_the_first_column_to_fail_in_mapped_order_names_the_error(tmp_path, star, message):
    # Both columns fail with the first item: the one mapped first is named,
    # whether or not it reads the item.
    warehouse = planned_wh(tmp_path, {"code": "abc", "lines": [{"qty": "x"}, {"qty": "2"}]})
    silver_schema, bronze = PLANNED.schema_names["silver"], PLANNED.schema_names["bronze"]
    with pytest.raises(LoadError) as error:
        load_all(warehouse, PLANNED, now=NOW, only=star)
    assert str(error.value) == \
        f"{silver_schema}.star_{star} <- {bronze}.orders: line 1: {message}"


def test_a_row_without_items_evaluates_none_of_its_columns(tmp_path):
    # `label` cannot hold "abc", but no item is staged to hold it.
    warehouse = planned_wh(tmp_path, {"code": "abc", "lines": []}, {"code": "abd"},
                           {"code": "7", "lines": [{"qty": "1"}, {"qty": "2"}]})
    inserted = {result.table: result.inserted for result in load_all(warehouse, PLANNED, now=NOW)}
    silver_schema = PLANNED.schema_names["silver"]
    for star in ("item_first", "row_first"):
        assert inserted[f"{silver_schema}.star_{star}"] == 2
        rows = warehouse.read_rows(silver_schema, f"star_{star}")
        assert [(r["line_no"], r["qty"], r["label"]) for r in rows] == [(1, 1, 7), (2, 2, 7)]
    assert check_against_oracle(warehouse, PLANNED) == []


def test_a_value_already_of_its_column_type_is_the_only_one_not_coerced(tmp_path, monkeypatch):
    warehouse = planned_wh(tmp_path, {"code": "a", "flag": True, "n": 7, "amount": "1.50"})
    coerced = []

    def recorded(value, ctype):
        coerced.append((value, ctype))
        return coerce_scalar(value, ctype)

    monkeypatch.setattr(silver, "coerce_scalar", recorded)
    (candidate,) = staged_candidates(warehouse, PLANNED, "order")
    # A boolean is an int to Python, yet it coerces to 1; an int coerces to
    # its text; a decimal and a timestamp always go through the coercion.
    assert [(value, type(value)) for value in (candidate["flag_num"], candidate["n_text"])] \
        == [(1, int), ("7", str)]
    assert coerced == [(True, "integer"), (7, "string"), (Decimal("1.50"), "decimal"),
                       (datetime(2024, 1, 1, tzinfo=timezone.utc), "timestamp")]
    monkeypatch.undo()
    load_all(warehouse, PLANNED, now=NOW)
    (row,) = [r for r in warehouse.read_rows(PLANNED.schema_names["silver"], "hub_order")
              if r["code"] == "a"]
    assert (row["flag_num"], row["n_text"], row["amount"]) == (1, "7", Decimal("1.50"))


# -- table reads ----------------------------------------------------------------


@pytest.fixture()
def table_reads(monkeypatch):
    """Counts `Warehouse.read_rows` calls by (schema, table)."""
    reads: Counter = Counter()
    read_rows = storage.Warehouse.read_rows

    def counted(self, schema, table, **kwargs):
        reads[schema, table] += 1
        return read_rows(self, schema, table, **kwargs)

    monkeypatch.setattr(storage.Warehouse, "read_rows", counted)
    return reads


@pytest.mark.parametrize("writes", [False, True], ids=["noop", "writes"])
def test_a_load_reads_each_silver_table_once_per_mapping(
        tmp_path, monkeypatch, table_reads, decoded, rows_encoded, retail_spec, retail_data,
        writes):
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, retail_spec)
    for n, jobs in enumerate(rf.write_batches(retail_data, tmp_path / "inbox", 2)):
        for job in jobs:
            ingest_file(warehouse, retail_spec, job.source, job.path,
                        now=rf.DEFAULT_NOW, mtime=job.mtime)
        if n == 0 or not writes:
            load_all(warehouse, retail_spec, now=rf.DEFAULT_NOW)

    silver = retail_spec.schema_names["silver"]
    written: list = []
    atomic_write = storage._atomic_write

    def recorded(path, content, *current):
        written.append(path)
        atomic_write(path, content, *current)

    monkeypatch.setattr(storage, "_atomic_write", recorded)
    marks: Counter = Counter()
    max_capture_timestamp = storage.Warehouse.max_capture_timestamp

    def counted(self, schema, table, *args):
        marks[table] += 1
        return max_capture_timestamp(self, schema, table, *args)

    monkeypatch.setattr(storage.Warehouse, "max_capture_timestamp", counted)
    table_reads.clear()
    decoded.clear()
    rows_encoded.clear()
    results = load_all(warehouse, retail_spec, now=rf.DEFAULT_NOW)

    assert any(r.scanned for r in results) == writes
    assert bool(written) == writes
    elements = retail_spec.hubs + retail_spec.stars
    per_mapping = {e.table_name: len(e.source_mappings) for e in elements}
    # Each load starts from its table's state record, so no load reads its
    # table's lines for a mark; only a load with candidates reads and
    # decodes the table, once.
    assert marks == {}
    assert {table: n for (schema, table), n in table_reads.items() if schema == silver} == \
        (per_mapping if writes else {})
    # Bronze before each offset is never decoded, and only the silver rows
    # a load writes are encoded.
    assert bool(decoded.in_schema(retail_spec.schema_names["bronze"])) == writes
    assert rows_encoded[silver] == sum(r.inserted + r.updated for r in results)


def test_a_load_decodes_only_the_silver_rows_written_since_the_last_read(
        tmp_path, decoded, rows_encoded, retail_spec, retail_data):
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, retail_spec)
    silver = retail_spec.schema_names["silver"]
    written = []
    for jobs in rf.write_batches(retail_data, tmp_path / "inbox", 3):
        for job in jobs:
            ingest_file(warehouse, retail_spec, job.source, job.path,
                        now=rf.DEFAULT_NOW, mtime=job.mtime)
        decoded.clear()
        results = load_all(warehouse, retail_spec, now=rf.DEFAULT_NOW)
        written.append((decoded.in_schema(silver),
                        sum(r.inserted + r.updated for r in results),
                        [r.table for r in results if r.scanned]))
    (_, first_written, _), (second_decoded, second_written, second_staged), \
        (third_decoded, third_written, _) = written
    assert first_written and second_written and third_written
    # A splice keeps the rows it writes, so a load decodes no row a load
    # through the same object wrote, and a load without candidates decodes
    # none. The second decodes only the default row of each hub with
    # candidates (hub_loyalty_segment has none), which it held before the
    # first splice and no read through the object has kept; the third
    # nothing.
    hubs = [f"{silver}.{hub.table_name}" for hub in retail_spec.hubs]
    assert second_decoded == len(set(hubs) & set(second_staged)) == 3
    assert third_decoded == 0

    decoded.clear()
    results = load_all(warehouse, retail_spec, now=rf.DEFAULT_NOW)
    assert not any(r.inserted or r.updated for r in results)
    assert decoded.in_schema(silver) == 0
    decoded.clear()
    rows_encoded.clear()
    load_all(warehouse, retail_spec, now=rf.DEFAULT_NOW)
    assert sum(decoded.values()) + sum(rows_encoded.values()) == 0


def test_the_first_load_and_the_oracle_decode_each_bronze_row_once_per_source(
        tmp_path, decoded, retail_spec, retail_data):
    """Decode counts of the 1x retail fixture in one batch. `customers` and
    `sales_orders` each feed two mappings, which share one read of their
    rows, in the loads and in the oracle alike."""
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, retail_spec)
    for jobs in rf.write_batches(retail_data, tmp_path / "inbox", 1):
        for job in jobs:
            ingest_file(warehouse, retail_spec, job.source, job.path,
                        now=rf.DEFAULT_NOW, mtime=job.mtime)
    bronze = retail_spec.schema_names["bronze"]
    counts = []
    for run in (lambda: load_all(warehouse, retail_spec, now=rf.DEFAULT_NOW),
                lambda: check_against_oracle(Warehouse(warehouse.root), retail_spec)):
        decoded.clear()
        run()
        counts.append((sum(decoded.values()), decoded[bronze, "customers"],
                       decoded[bronze, "sales_orders"]))
    assert counts == [(411, 158, 200), (1_441, 158, 200)]


def test_a_first_build_after_a_load_through_one_object_decodes_the_default_rows_and_a_dimension(
        tmp_path, decoded, retail_spec, retail_data):
    # The load kept every silver row it wrote; only the hubs' default rows,
    # which init wrote and the load read before it kept rows, and the
    # dimension the fact joins, which the build wrote, are decoded.
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, retail_spec)
    for jobs in rf.write_batches(retail_data, tmp_path / "inbox", 1):
        for job in jobs:
            ingest_file(warehouse, retail_spec, job.source, job.path,
                        now=rf.DEFAULT_NOW, mtime=job.mtime)
    load_all(warehouse, retail_spec, now=rf.DEFAULT_NOW)
    decoded.clear()
    build_all(warehouse, retail_spec, now=rf.DEFAULT_NOW)
    counts, lines = Counter(decoded), decoded.lines[:len(retail_spec.hubs)]
    silver, gold_schema = retail_spec.schema_names["silver"], retail_spec.schema_names["gold"]
    dimension = retail_spec.view("dim_customer2").table_name
    assert counts == {**{(silver, hub.table_name): 1 for hub in retail_spec.hubs},
                      (gold_schema, dimension): len(warehouse.read_rows(gold_schema, dimension))}
    assert [json.loads(line)["load_source"] for line in lines] == \
        [SYSTEM_LOAD_SOURCE] * len(retail_spec.hubs)


def test_a_first_build_through_a_fresh_object_decodes_each_table_once_per_view_reading_it(
        tmp_path, decoded, retail_spec, retail_data):
    root = run_pipeline(tmp_path / "wh", retail_spec, retail_data, gold=False).root
    decoded.clear()
    build_all(Warehouse(root), retail_spec, now=rf.DEFAULT_NOW)
    counts, schemas, fresh = Counter(decoded), retail_spec.schema_names, Warehouse(root)
    expected = Counter()
    for view in retail_spec.gold_views:
        for kind, name, _left in view.read_tables:
            key = ((schemas["gold"], retail_spec.view(name).table_name) if kind == "gold"
                   else (schemas["silver"], retail_spec.element(kind, name).table_name))
            expected[key] += len(fresh.read_rows(*key))
    assert (schemas["gold"], retail_spec.view("dim_customer2").table_name) in expected
    assert counts == expected


# One source feeding a hub and a star. The capture time is the file's, so a
# re-delivery that leaves one of them unchanged leaves its mark behind.
SIGHTINGS = parse_model('''product sightings

source people {
  load_source 1
  format csv
  column person_id integer
  column full_name string
  column city string
  column seen_at timestamp
  capture file_mtime
}

hub person {
  key computed sha256(cast(person_id as string))
  business_key global (person_id integer)
  descriptive full_name string
  source_mapping people {
    map person_id = person_id
    map full_name = full_name
  }
}

star sighting {
  participant person
  participant time seen_at
  key (person_key, seen_at)
  descriptive city string
  source_mapping people {
    key person_key = person(person_id)
    map seen_at = seen_at
    map city = city
  }
}
''').spec
# (people rows, capture) per batch. A re-delivery leaves the hub's mark
# behind the star's, then a new name leaves the star's behind the hub's.
SIGHTING_BATCHES = [
    ("1,Ann,Oslo,2023-01-02\n2,Bob,Rome,2023-01-02\n", utc(2024, 1, 1)),
    ("1,Ann,Oslo,2023-01-03\n", utc(2024, 2, 1)),
    ("1,Anna,Oslo,2023-01-03\n", utc(2024, 3, 1)),
    ("2,Bob,Paris,2023-01-02\n3,Cy,Oslo,2023-01-04\n", utc(2024, 4, 1)),
]


def _sightings(root, batches, load, decoded):
    """Bronze decodes per load when each batch is ingested into a new
    warehouse at `root`, then loaded by `load(warehouse)`."""
    warehouse = Warehouse(root)
    init_warehouse(warehouse, SIGHTINGS)
    counts = []
    for n, (rows, capture) in enumerate(batches):
        path = root.parent / f"{root.name}_{n}.csv"
        path.write_text("person_id,full_name,city,seen_at\n" + rows, encoding="utf-8")
        ingest_file(warehouse, SIGHTINGS, "people", path, now=NOW, mtime=capture)
        decoded.clear()
        load(warehouse)
        counts.append(decoded.in_schema(SIGHTINGS.schema_names["bronze"]))
    return warehouse, counts


def test_the_mappings_of_a_source_share_its_read_and_load_as_apart(tmp_path, decoded):
    assert validate_model(SIGHTINGS).ok
    silver = SIGHTINGS.schema_names["silver"]
    marks, results = [], {"together": [], "apart": []}

    def together(warehouse):
        results["together"] += load_all(warehouse, SIGHTINGS, now=NOW)
        marks.append([max(row["capture_timestamp"] for row in warehouse.read_rows(silver, table)
                          if row.get("person_key") != "-1")
                      for table in ("hub_person", "star_sighting")])

    def apart(warehouse):
        for element in ("person", "sighting"):
            results["apart"] += load_all(warehouse, SIGHTINGS, now=NOW, only=element)

    shared, shared_decodes = _sightings(tmp_path / "shared", SIGHTING_BATCHES, together,
                                        decoded)
    alone, alone_decodes = _sightings(tmp_path / "alone", SIGHTING_BATCHES, apart, decoded)
    # The (hub, star) marks after each load: each later load starts from them.
    assert marks == [[utc(2024, 1, 1)] * 2, [utc(2024, 1, 1), utc(2024, 2, 1)],
                     [utc(2024, 3, 1), utc(2024, 2, 1)], [utc(2024, 4, 1)] * 2]
    # Data files only: a state record holds bronze offsets, and each
    # warehouse's bronze holds the paths of its own extracts.
    silver_files = [{path: data for path, data in file_bytes(warehouse.root).items()
                     if path.startswith(silver) and path.endswith("/data")}
                    for warehouse in (shared, alone)]
    assert silver_files[0] == silver_files[1]
    assert results["together"] == results["apart"]  # each scanned the same bronze rows
    assert check_against_oracle(shared, SIGHTINGS) == []
    # One read for both mappings, from the offset both consumed to,
    # whatever their marks; one per command when loaded apart.
    assert shared_decodes == [2, 1, 1, 2]
    assert alone_decodes == [2 * 2, 2 * 1, 2 * 1, 2 * 2]


@pytest.mark.parametrize("marked", [False, True], ids=["first load", "after a mark"])
def test_a_null_capture_time_in_a_shared_read_fails_the_load_by_line(tmp_path, decoded,
                                                                      marked):
    batches = SIGHTING_BATCHES[:2] if marked else SIGHTING_BATCHES[:1]
    warehouse, _ = _sightings(tmp_path / "wh", batches[:-1], lambda wh: load_all(
        wh, SIGHTINGS, now=NOW), decoded)
    rows, capture = batches[-1]
    path = tmp_path / "last.csv"
    path.write_text("person_id,full_name,city,seen_at\n" + rows, encoding="utf-8")
    ingest_file(warehouse, SIGHTINGS, "people", path, now=NOW, mtime=capture)
    bronze = SIGHTINGS.schema_names["bronze"]
    stored = [dict(row) for row in warehouse.read_rows(bronze, "people")]
    stored[-1]["capture_timestamp"] = None
    warehouse.replace_table(warehouse.manifest(bronze, "people"), stored)
    before = file_bytes(warehouse.root)
    silver = SIGHTINGS.schema_names["silver"]
    with pytest.raises(StorageError, match=rf"^{silver}\.hub_person <- {bronze}\.people: "
                                           rf"line {len(stored)}: column capture_timestamp "
                                           "is null$"):
        load_all(warehouse, SIGHTINGS, now=NOW)
    assert file_bytes(warehouse.root) == before


# -- model edits against a stored layout ----------------------------------------


def _first_of_two_batches(root, spec, data):
    """A warehouse loaded with the first of two retail batches, and the
    second batch's jobs."""
    warehouse = Warehouse(root)
    init_warehouse(warehouse, spec)
    first, second = rf.write_batches(data, root.parent / "inbox", 2)
    for job in first:
        ingest_file(warehouse, spec, job.source, job.path, now=rf.DEFAULT_NOW, mtime=job.mtime)
    load_all(warehouse, spec, now=rf.DEFAULT_NOW)
    build_all(warehouse, spec, now=rf.DEFAULT_NOW)
    return warehouse, second


def test_a_mapped_column_the_stored_manifest_lacks_is_refused_and_nothing_written(
        tmp_path, retail_spec, retail_data):
    warehouse, second = _first_of_two_batches(tmp_path / "wh", retail_spec, retail_data)
    edited = parse_model(edited_retail(*SHIP_TO)).spec
    assert validate_model(edited).ok
    for job in second:  # the bronze layout is unchanged, so ingest goes on
        ingest_file(warehouse, edited, job.source, job.path, now=rf.DEFAULT_NOW,
                    mtime=job.mtime)
    before = file_bytes(warehouse.root)
    message = (r"hs_retail\.hub_customer: the stored manifest differs from the model's: "
               r"column ship_to is string in the model, absent in storage")
    for through in (warehouse, Warehouse(warehouse.root)):
        with pytest.raises(StorageError, match=message):
            load_all(through, edited, now=rf.DEFAULT_NOW)
        with pytest.raises(StorageError, match=message):
            build_all(through, edited, now=rf.DEFAULT_NOW, only="dim_customer")
        # dim_product, built first, reads no changed table, but the edit
        # changes its trace's inputs: the build is refused before it.
        with pytest.raises(StorageError, match=message):
            build_all(through, edited, now=rf.DEFAULT_NOW)
    assert file_bytes(warehouse.root) == before
    load_all(warehouse, retail_spec, now=rf.DEFAULT_NOW)  # the stored model still loads
    assert check_against_oracle(warehouse, retail_spec) == []


# Model edits: a bronze column the stored manifest lacks, and a new source.
REGION = ("  column _deleted integer\n", "  column _deleted integer\n  column region string\n")
RETURNS = ("source products {\n",
           "source returns {\n  load_source 5\n  format csv\n  column return_id integer\n"
           "  capture pipeline_now\n}\n\nsource products {\n")


def test_a_source_column_the_stored_manifest_lacks_fails_ingest(
        tmp_path, retail_spec, retail_data):
    warehouse, second = _first_of_two_batches(tmp_path / "wh", retail_spec, retail_data)
    edited = parse_model(edited_retail(REGION)).spec
    assert validate_model(edited).ok
    before = file_bytes(warehouse.root)
    job = next(job for job in second if job.source == "customers")
    with pytest.raises(StorageError, match=r"raw_retail\.customers: .*: column region is "
                                           r"string in the model, absent in storage"):
        ingest_file(warehouse, edited, job.source, job.path, now=rf.DEFAULT_NOW,
                    mtime=job.mtime)
    with pytest.raises(StorageError, match=r"raw_retail\.customers: .*: column region "):
        load_all(warehouse, edited, now=rf.DEFAULT_NOW)
    assert file_bytes(warehouse.root) == before


def test_init_over_an_initialized_warehouse_is_refused_and_creates_nothing(
        tmp_path, retail_spec, capsys):
    root = tmp_path / "wh"
    init_warehouse(Warehouse(root), retail_spec)
    before = file_bytes(root)
    with_returns = edited_retail(RETURNS)
    for text, message in ((with_returns, r"^table hs_retail\.hub_customer already exists$"),
                          (edited_retail(REGION), r"^raw_retail\.customers: .*: column region ")):
        edited = parse_model(text).spec
        assert validate_model(edited).ok
        with pytest.raises(StorageError, match=message):
            init_warehouse(Warehouse(root), edited)
    model = tmp_path / "returns.hsm"
    model.write_text(with_returns, encoding="utf-8")
    capsys.readouterr()
    assert main(["init", "--model", str(model), "--root", str(root)]) == 2
    assert capsys.readouterr().err == "error: table hs_retail.hub_customer already exists\n"
    assert file_bytes(root) == before


def test_each_command_checks_each_stored_layout_once(
        tmp_path, retail_spec, retail_data, monkeypatch):
    warehouse, second = _first_of_two_batches(tmp_path / "wh", retail_spec, retail_data)
    for job in second:
        ingest_file(warehouse, retail_spec, job.source, job.path, now=rf.DEFAULT_NOW,
                    mtime=job.mtime)
    checks = Counter()
    check = tables.check_stored_manifest

    def counted(through, manifest):
        checks[f"{manifest.schema}.{manifest.table}"] += 1
        return check(through, manifest)

    for module in (silver, gold):
        monkeypatch.setattr(module, "check_stored_manifest", counted)
    names = retail_spec.schema_names
    elements = [f"{names['silver']}.{e.table_name}" for e in retail_spec.hubs + retail_spec.stars]
    load_all(warehouse, retail_spec, now=rf.DEFAULT_NOW)
    assert checks == Counter(elements + [f"{names['bronze']}.{s.name}"
                                         for s in retail_spec.sources])
    checks.clear()
    build_all(warehouse, retail_spec, now=rf.DEFAULT_NOW)
    assert checks == Counter(elements)  # the views read every hub and star


def test_a_model_equal_to_the_stored_one_loads_as_before(tmp_path, retail_spec, retail_data):
    runs = {}
    for name, spec in (("stored", retail_spec), ("reparsed", parse_model(render_model(retail_spec)).spec)):
        warehouse, second = _first_of_two_batches(tmp_path / name / "wh", retail_spec, retail_data)
        for job in second:
            ingest_file(warehouse, spec, job.source, job.path, now=rf.DEFAULT_NOW,
                        mtime=job.mtime)
        load_all(warehouse, spec, now=rf.DEFAULT_NOW)
        build_all(warehouse, spec, now=rf.DEFAULT_NOW)
        assert check_against_oracle(warehouse, spec) == []
        runs[name] = {path: data for path, data in file_bytes(warehouse.root).items()
                      if path.endswith("data") and not path.startswith("raw_retail")}
    assert runs["reparsed"] == runs["stored"]
