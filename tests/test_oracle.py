"""The conformance oracle: recomputed expected state vs. loaded state."""

from __future__ import annotations

from datetime import datetime, timezone

import pytest

from hubstar import (
    Warehouse,
    check_against_oracle,
    ingest_file,
    init_warehouse,
    load_all,
    parse_model,
)
from hubstar.keygen import sha256_hex
from hubstar.model import validate_model
from hubstar.oracle import StateDiff, diff_states
from hubstar.tables import hub_manifest

MODEL = parse_model('''product oracletest

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
  column captured_at timestamp
  capture cdc_column captured_at
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
  descriptive full_name string
  descriptive city string
  delete_flag
  source_mapping people {
    map person_id = person_id
    map full_name = full_name
    map city = city
  }
}

hub traveler {
  key computed concat("#", load_source(), cast(person_id as string))
  business_key local (person_id integer)
  source_mapping people {
    map person_id = person_id
  }
  source_mapping visits {
    map person_id = person_id
  }
}

star person_visit {
  participant person
  participant time visit_day
  key (person_key, visit_day)
  descriptive note string
  source_mapping visits {
    key person_key = person(person_id)
    map visit_day = visit_day
    map note = note
  }
}
''').spec

SILVER = MODEL.schema_names["silver"]
NOW = datetime(2025, 4, 1, tzinfo=timezone.utc)
PK1 = sha256_hex("1")

PEOPLE_HEADER = "person_id,full_name,city,device_code,seen_at,gone\n"


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


@pytest.fixture()
def wh(tmp_path):
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, MODEL)
    return warehouse


class Feeder:
    def __init__(self, warehouse, directory):
        self.warehouse = warehouse
        self.directory = directory
        self.n = 0

    def __call__(self, source: str, text: str):
        self.n += 1
        path = self.directory / f"{source}_{self.n}.{MODEL.source(source).input_format}"
        path.write_text(text, encoding="utf-8")
        ingest_file(self.warehouse, MODEL, source, path, now=NOW)


@pytest.fixture()
def feed(wh, tmp_path):
    return Feeder(wh, tmp_path)


def load_sample(wh, feed):
    feed("people", PEOPLE_HEADER
         + "1,Ana,Oslo,D1,2024-03-01T08:00:00Z,0\n"
         + "2,Bo,Rio,D2,2024-03-01T09:00:00Z,0\n")
    feed("visits", '{"person_id": 1, "visit_day": "2024-04-01T00:00:00Z",'
                   ' "note": "draft", "captured_at": "2024-04-01T10:00:00Z"}\n'
                   '{"person_id": 1, "visit_day": "2024-04-01T00:00:00Z",'
                   ' "note": "final", "captured_at": "2024-04-01T11:00:00Z"}\n')
    load_all(wh, MODEL, now=NOW)


def test_model_is_valid():
    assert validate_model(MODEL).ok


def test_diff_states_reports_missing_extra_and_mismatched():
    actual = [{"k": "a", "v": 1}, {"k": "b", "v": 2}]
    expected = [{"k": "a", "v": 9}, {"k": "c", "v": 3}]
    diff = diff_states(actual, expected, ("k",), ("v",))
    assert not diff.empty
    assert len(diff.missing_rows) == 1 and len(diff.extra_rows) == 1
    assert diff.mismatched_rows[0][1:] == ("v", 1, 9)

    same = diff_states(actual, actual, ("k",), ("v",))
    assert same == StateDiff((), (), ())
    assert same.empty


def test_diff_states_compares_null_safe():
    diff = diff_states([{"k": "a", "v": None}], [{"k": "a", "v": None}], ("k",), ("v",))
    assert diff.empty
    diff = diff_states([{"k": "a", "v": None}], [{"k": "a", "v": 1}], ("k",), ("v",))
    assert diff.mismatched_rows


def test_fresh_warehouse_agrees_with_the_oracle(wh):
    assert check_against_oracle(wh, MODEL) == []
    assert check_against_oracle(wh, MODEL, include_volatile=True) == []


def test_single_batch_load_agrees_including_volatile_columns(wh, feed):
    load_sample(wh, feed)
    assert check_against_oracle(wh, MODEL, include_volatile=True) == []


def test_unchanged_redeliveries_disturb_only_the_capture_timestamp(wh, feed):
    load_sample(wh, feed)
    # Same payload again with a newer capture: the engine deliberately leaves
    # the row untouched, while the full-history recomputation takes the latest
    # capture. Descriptive content still agrees.
    feed("people", PEOPLE_HEADER + "1,Ana,Oslo,D1,2024-03-02T08:00:00Z,0\n")
    load_all(wh, MODEL, now=NOW)
    assert check_against_oracle(wh, MODEL) == []

    problems = check_against_oracle(wh, MODEL, include_volatile=True)
    assert len(problems) == 1
    assert "hub_person" in problems[0]
    assert "column capture_timestamp" in problems[0]


def test_tampered_descriptive_is_reported_with_both_values(wh, feed):
    load_sample(wh, feed)
    rows = wh.read_rows(SILVER, "hub_person")
    next(r for r in rows if r["person_key"] == PK1)["city"] = "Narnia"
    wh.replace_table(wh.manifest(SILVER, "hub_person"), rows)

    problems = check_against_oracle(wh, MODEL)
    assert len(problems) == 1
    assert "hub_person" in problems[0]
    assert "column city" in problems[0]
    assert "engine='Narnia'" in problems[0]
    assert "oracle='Oslo'" in problems[0]


def test_removed_row_is_reported_missing(wh, feed):
    load_sample(wh, feed)
    person = MODEL.hub("person")
    kept = [r for r in wh.read_rows(SILVER, "hub_person") if r["person_key"] != PK1]
    wh.replace_table(hub_manifest(MODEL, person), kept)

    problems = check_against_oracle(wh, MODEL)
    assert problems == [f"hub_person: missing row ({PK1!r})"]


def test_foreign_row_is_reported_unexpected(wh, feed):
    load_sample(wh, feed)
    wh.append_rows(SILVER, "hub_person", [{
        "load_source": 1,
        "capture_timestamp": utc(2024, 3, 1),
        "load_timestamp": NOW,
        "initial_capture_timestamp": utc(2024, 3, 1),
        "delete_flag": 0,
        "person_key": "intruder",
        "person_id": 99,
        "full_name": "Zed",
        "city": None,
    }])
    problems = check_against_oracle(wh, MODEL)
    assert problems == ["hub_person: unexpected row ('intruder')"]


def test_star_state_is_checked_with_last_write_wins(wh, feed):
    load_sample(wh, feed)
    rows = wh.read_rows(SILVER, "star_person_visit")
    assert [r["note"] for r in rows] == ["final"]

    rows[0]["note"] = "draft"
    wh.replace_table(wh.manifest(SILVER, "star_person_visit"), rows)
    problems = check_against_oracle(wh, MODEL)
    assert len(problems) == 1
    assert problems[0].startswith("star_person_visit: ")
    assert "engine='draft' oracle='final'" in problems[0]


def test_multi_mapping_and_system_keyed_elements_are_outside_the_remit(wh, feed):
    load_sample(wh, feed)
    # Vandalize both: neither is the oracle's to judge.
    for table in ("hub_device", "hub_traveler"):
        rows = wh.read_rows(SILVER, table)
        rows[-1]["load_source"] = 77
        wh.replace_table(wh.manifest(SILVER, table), rows)
    assert check_against_oracle(wh, MODEL) == []
