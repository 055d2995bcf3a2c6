"""Gold builds: SCD1/SCD2 dimensions, fact tables, and the temporal join."""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
from dataclasses import replace
from datetime import datetime, timezone
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubstar import (
    Warehouse,
    build_all,
    ingest_file,
    init_warehouse,
    load_all,
    parse_model,
)
from hubstar import gold, storage
from hubstar import retail_fixture as rf
from hubstar.errors import GoldBuildError
from hubstar.gold import GoldBuildResult, build_view, current_rows
from hubstar.expr import sha256_hex
from hubstar.model import HubJoin, validate_model
from conftest import FIXTURE_MODEL, file_bytes, run_pipeline
from hubstar.values import row_key, top_per_partition

MODEL = parse_model('''product goldtest

source tiers {
  load_source 1
  format csv
  column tier_id integer
  column tier_name string
  column updated_at timestamp
  capture last_modified updated_at
}

source people {
  load_source 2
  format csv
  column person_id integer
  column full_name string
  column tier_id integer
  column seen_at timestamp
  column gone integer
  capture cdc_column seen_at
  delete_flag_column gone
}

source addresses {
  load_source 3
  format ndjson
  column person_id integer
  column valid_from timestamp
  column valid_to timestamp
  column address string
  column gone integer
  column captured_at timestamp
  capture cdc_column captured_at
  delete_flag_column gone
}

source orders {
  load_source 4
  format ndjson
  column order_id string
  column person_id integer
  column placed_at timestamp
  column amount decimal
  capture cdc_column placed_at
}

hub tier {
  key computed cast(tier_id as string)
  business_key global (tier_id integer)
  descriptive tier_name string
  source_mapping tiers {
    map tier_id = tier_id
    map tier_name = tier_name
  }
}

hub person {
  key computed sha256(cast(person_id as string))
  business_key global (person_id integer)
  descriptive full_name string
  descriptive tier_key references tier
  delete_flag
  source_mapping people {
    map person_id = person_id
    map full_name = full_name
    fk tier_key = tier(tier_id)
  }
}

star person_address {
  participant person
  participant time valid_from
  key (person_key, valid_from, capture_timestamp)
  descriptive address string
  descriptive valid_to timestamp
  delete_flag
  source_mapping addresses {
    key person_key = person(person_id)
    map valid_from = valid_from
    map address = address
    map valid_to = valid_to
  }
}

star person_order {
  participant person
  participant time placed_at
  key (person_key, placed_at)
  descriptive order_id string
  descriptive amount decimal
  source_mapping orders {
    key person_key = person(person_id)
    map placed_at = placed_at
    map order_id = order_id
    map amount = amount
  }
}

gold dim_person {
  kind scd1_dim
  base hub person
  join hub tier on tier_key inner
  join_current star person_address on person_key partition_by (person_key) order_by (valid_from desc, capture_timestamp desc)
  output person_key
  output person_id
  output full_name
  output tier_name
  output address = person_address.address
}

gold dim_person2 {
  kind scd2_dim
  base hub person
  versions star person_address on person_key partition_by (person_key, valid_from) order_by (capture_timestamp desc)
  scd2_key (person_key, person_address.valid_from)
  output person_version_key = scd2_key
  output person_key
  output full_name
  output address = person_address.address
  output valid_from = person_address.valid_from
  output valid_to = person_address.valid_to
}

gold fact_orders {
  kind fact
  base star person_order
  temporal_join dim_person2 key person_key time placed_at
  output order_id
  output person_key
  output placed_at
  output amount
  output person_version_key = dim_person2.person_version_key
  output address = dim_person2.address
}

gold fact_orders_strict {
  kind fact
  base star person_order
  join hub person on person_key inner
  output order_id
  output full_name = person.full_name
}

gold fact_orders_loose {
  kind fact
  base star person_order
  join hub person on person_key left
  output order_id
  output full_name = person.full_name
}
''').spec

SILVER = MODEL.schema_names["silver"]
GOLD = MODEL.schema_names["gold"]
NOW = datetime(2025, 3, 1, tzinfo=timezone.utc)

PK1, PK2, PK3 = (sha256_hex(str(n)) for n in (1, 2, 3))


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


def feed(wh, directory, source: str, name: str, text: str):
    path = directory / name
    path.write_text(text, encoding="utf-8")
    ingest_file(wh, MODEL, source, path, now=NOW)


ADDRESS_LINES = """\
{"person_id": 1, "valid_from": "2024-01-01T00:00:00Z", "valid_to": "2024-05-31T23:59:59Z", "address": "1 Elm", "gone": 0, "captured_at": "2024-01-03T00:00:00Z"}
{"person_id": 1, "valid_from": "2024-01-01T00:00:00Z", "valid_to": "2024-05-31T23:59:59Z", "address": "1 Elm Street", "gone": 0, "captured_at": "2024-01-04T00:00:00Z"}
{"person_id": 1, "valid_from": "2024-06-01T00:00:00Z", "valid_to": null, "address": "9 Oak", "gone": 0, "captured_at": "2024-01-05T00:00:00Z"}
{"person_id": 2, "valid_from": "2024-02-01T00:00:00Z", "valid_to": null, "address": "5 Pine", "gone": 0, "captured_at": "2024-01-06T00:00:00Z"}
{"person_id": 2, "valid_from": "2024-02-01T00:00:00Z", "valid_to": null, "address": "5 Pine", "gone": 1, "captured_at": "2024-01-07T00:00:00Z"}
"""

ORDER_LINES = """\
{"order_id": "o1", "person_id": 1, "placed_at": "2024-02-15T00:00:00Z", "amount": 12.50}
{"order_id": "o2", "person_id": 1, "placed_at": "2024-07-01T00:00:00Z", "amount": 20.00}
{"order_id": "o3", "person_id": 1, "placed_at": "2023-12-01T00:00:00Z", "amount": 7.25}
{"order_id": "o4", "person_id": 2, "placed_at": "2024-03-01T00:00:00Z", "amount": 9.00}
{"order_id": "o5", "person_id": null, "placed_at": "2024-02-15T00:00:00Z", "amount": 1.00}
"""


@pytest.fixture(scope="module")
def gw(tmp_path_factory):
    """A loaded and fully built warehouse, shared read-only by this module."""
    root = tmp_path_factory.mktemp("gold_wh")
    wh = Warehouse(root / "wh")
    init_warehouse(wh, MODEL)
    feed(wh, root, "tiers", "tiers.csv",
         "tier_id,tier_name,updated_at\n"
         "1,Gold,2024-01-01T00:00:00Z\n"
         "2,Silver,2024-01-01T01:00:00Z\n")
    feed(wh, root, "people", "people.csv",
         "person_id,full_name,tier_id,seen_at,gone\n"
         "1,Ana,1,2024-01-02T00:00:00Z,0\n"
         "2,Bo,2,2024-01-02T01:00:00Z,0\n"
         "3,Cy,,2024-01-02T02:00:00Z,0\n")
    feed(wh, root, "addresses", "addresses.ndjson", ADDRESS_LINES)
    feed(wh, root, "orders", "orders.ndjson", ORDER_LINES)
    load_all(wh, MODEL, now=NOW)
    build_all(wh, MODEL, now=NOW)
    return wh


def rows_by(wh, table: str, column: str):
    return {r[column]: r for r in wh.read_rows(GOLD, table)}


def test_model_is_valid():
    assert validate_model(MODEL).ok


# -- ranking helpers ------------------------------------------------------------


def by_k(row):
    return row_key(row, ("k",))


def test_top_per_partition_orders_and_keeps_one_row_each():
    rows = [
        {"k": "a", "rank": 1, "v": "low"},
        {"k": "a", "rank": 3, "v": "high"},
        {"k": "b", "rank": 2, "v": "only"},
    ]
    top = top_per_partition(rows, by_k, (("rank", "desc"),))
    assert [(r["k"], r["v"]) for r in top] == [("a", "high"), ("b", "only")]
    bottom = top_per_partition(rows, by_k, (("rank", "asc"),))
    assert [(r["k"], r["v"]) for r in bottom] == [("a", "low"), ("b", "only")]


def test_top_per_partition_sorts_nulls_low():
    rows = [
        {"k": "a", "rank": None, "v": "null"},
        {"k": "a", "rank": 1, "v": "one"},
    ]
    top = top_per_partition(rows, by_k, (("rank", "desc"),))
    assert top[0]["v"] == "one"


def test_current_rows_drops_a_partition_whose_latest_version_is_deleted():
    rows = [
        {"k": "a", "rank": 1, "delete_flag": 0},
        {"k": "a", "rank": 2, "delete_flag": 1},
        {"k": "b", "rank": 1, "delete_flag": 0},
    ]
    current = current_rows(rows, ("k",), (("rank", "desc"),))
    assert [r["k"] for r in current] == ["b"]


# -- scd1 dimension -------------------------------------------------------------


def test_scd1_dim_has_one_row_per_hub_member_including_the_default(gw):
    dim = rows_by(gw, "dim_person", "person_key")
    assert set(dim) == {"-1", PK1, PK2, PK3}
    assert dim["-1"]["person_id"] == -1


def test_scd1_dim_picks_the_current_address_per_person(gw):
    dim = rows_by(gw, "dim_person", "person_key")
    assert dim[PK1]["address"] == "9 Oak"  # latest interval, latest capture
    assert dim[PK2]["address"] is None  # tombstoned interval drops out
    assert dim[PK3]["address"] is None  # never had one


def test_scd1_dim_inner_join_lands_on_the_tier_default_row_for_null_fks(gw):
    dim = rows_by(gw, "dim_person", "person_key")
    assert dim[PK1]["tier_name"] == "Gold"
    assert dim[PK2]["tier_name"] == "Silver"
    assert dim[PK3]["tier_name"] is None  # tier_key "-1" -> default tier row


# -- scd2 dimension -------------------------------------------------------------


def test_scd2_dim_emits_one_row_per_current_interval(gw):
    dim = gw.read_rows(GOLD, "dim_person2")
    keys = sorted(r["person_version_key"] for r in dim)
    assert keys == sorted([
        "-1",
        f"{PK1}#2024-01-01T00:00:00Z",
        f"{PK1}#2024-06-01T00:00:00Z",
        PK2,
        PK3,
    ])


def test_scd2_dim_versions_pick_the_latest_capture_per_interval(gw):
    dim = rows_by(gw, "dim_person2", "person_version_key")
    first = dim[f"{PK1}#2024-01-01T00:00:00Z"]
    assert first["address"] == "1 Elm Street"  # the corrected redelivery
    assert first["valid_from"] == utc(2024, 1, 1)
    assert first["valid_to"] == utc(2024, 5, 31, 23, 59, 59)
    second = dim[f"{PK1}#2024-06-01T00:00:00Z"]
    assert second["address"] == "9 Oak"
    assert second["valid_to"] is None


def test_scd2_key_concatenation_skips_null_components(gw):
    dim = rows_by(gw, "dim_person2", "person_version_key")
    # No surviving interval: the version key degenerates to the hub key alone.
    assert dim[PK2]["valid_from"] is None
    assert dim[PK2]["address"] is None
    assert dim["-1"]["person_key"] == "-1"


# -- facts and the temporal join ------------------------------------------------


def test_fact_keeps_every_base_row(gw):
    facts = rows_by(gw, "fact_orders", "order_id")
    assert set(facts) == {"o1", "o2", "o3", "o4", "o5"}
    assert facts["o1"]["amount"] == Decimal("12.50")
    assert facts["o5"]["person_key"] == "-1"


def test_temporal_join_matches_the_interval_containing_the_event(gw):
    facts = rows_by(gw, "fact_orders", "order_id")
    assert facts["o1"]["person_version_key"] == f"{PK1}#2024-01-01T00:00:00Z"
    assert facts["o1"]["address"] == "1 Elm Street"
    assert facts["o2"]["person_version_key"] == f"{PK1}#2024-06-01T00:00:00Z"
    assert facts["o2"]["address"] == "9 Oak"


def test_temporal_join_misses_produce_null_version_columns(gw):
    facts = rows_by(gw, "fact_orders", "order_id")
    assert facts["o3"]["person_version_key"] is None  # before any interval
    assert facts["o4"]["person_version_key"] is None  # intervals all tombstoned
    assert facts["o5"]["person_version_key"] is None  # default member, no history


def test_a_fact_with_a_null_time_gets_no_dimension_version(tmp_path):
    wh = Warehouse(tmp_path / "wh")
    init_warehouse(wh, MODEL)
    feed(wh, tmp_path, "people", "people.csv",
         "person_id,full_name,tier_id,seen_at,gone\n1,Ana,1,2024-01-02T00:00:00Z,0\n")
    feed(wh, tmp_path, "addresses", "addresses.ndjson", ADDRESS_LINES)
    load_all(wh, MODEL, now=NOW)
    # A fact row without a time, written behind the loader's back.
    wh.append_rows(SILVER, "star_person_order", [{
        "load_source": 4, "capture_timestamp": utc(2024, 1, 1), "load_timestamp": NOW,
        "person_key": PK1, "placed_at": None, "order_id": "o0", "amount": Decimal("1.00"),
    }])
    build_all(wh, MODEL, now=NOW)
    assert [r["person_key"] for r in wh.read_rows(GOLD, "dim_person2")].count(PK1) == 2
    assert wh.read_rows(GOLD, "fact_orders") == [{
        "order_id": "o0", "person_key": PK1, "placed_at": None, "amount": Decimal("1.00"),
        "person_version_key": None, "address": None}]


def test_open_ended_intervals_match_arbitrarily_late_events(gw):
    facts = rows_by(gw, "fact_orders", "order_id")
    assert facts["o2"]["placed_at"] == utc(2024, 7, 1)
    assert facts["o2"]["person_version_key"] == f"{PK1}#2024-06-01T00:00:00Z"


# -- build orchestration --------------------------------------------------------


def test_build_all_runs_dimensions_before_facts_and_is_idempotent(gw):
    def gold_bytes():
        return {v.name: (gw.table_dir(GOLD, v.table_name) / "data").read_bytes()
                for v in MODEL.gold_views}

    before = gold_bytes()
    results = build_all(gw, MODEL, now=NOW)
    assert [r.view_name for r in results] == [
        "dim_person", "dim_person2",
        "fact_orders", "fact_orders_strict", "fact_orders_loose"]
    assert gold_bytes() == before


def test_build_results_carry_row_counts(gw):
    results = {r.view_name: r for r in build_all(gw, MODEL, now=NOW)}
    assert results["dim_person"] == GoldBuildResult("dim_person", 4, NOW)
    assert results["dim_person2"].rows == 5
    assert results["fact_orders"].rows == 5


def test_build_all_only_filter(gw):
    results = build_all(gw, MODEL, now=NOW, only="dim_person")
    assert [r.view_name for r in results] == ["dim_person"]
    with pytest.raises(GoldBuildError, match="no gold view named 'no_such_view'"):
        build_all(gw, MODEL, now=NOW, only="no_such_view")


def test_inner_join_drops_orphans_and_left_join_keeps_them(tmp_path):
    wh = Warehouse(tmp_path / "wh")
    init_warehouse(wh, MODEL)
    # An orphaned star row, written behind the loader's back.
    wh.append_rows(SILVER, "star_person_order", [{
        "load_source": 4,
        "capture_timestamp": utc(2024, 1, 1),
        "load_timestamp": NOW,
        "person_key": "ghost",
        "placed_at": utc(2024, 1, 1),
        "order_id": "gx",
        "amount": Decimal("1.00"),
    }])
    build_all(wh, MODEL, now=NOW, only="fact_orders_strict")
    build_all(wh, MODEL, now=NOW, only="fact_orders_loose")
    assert wh.read_rows(GOLD, "fact_orders_strict") == []
    assert wh.read_rows(GOLD, "fact_orders_loose") == [
        {"order_id": "gx", "full_name": None}]


def test_building_over_a_missing_silver_table_is_an_error(tmp_path):
    wh = Warehouse(tmp_path / "wh")  # never initialized
    with pytest.raises(GoldBuildError, match="run init and load-silver first"):
        build_all(wh, MODEL, now=NOW)


def test_fact_refuses_to_build_before_its_dimension(tmp_path):
    wh = Warehouse(tmp_path / "wh")
    init_warehouse(wh, MODEL)
    before = file_bytes(wh.root)
    with pytest.raises(GoldBuildError, match="dim_person2 is not built yet"):
        build_all(wh, MODEL, now=NOW, only="fact_orders")
    assert file_bytes(wh.root) == before


def test_join_on_a_column_no_table_exposes_is_an_error(gw):
    # Raises before anything is written, so the shared warehouse stays as built.
    view = MODEL.view("fact_orders_loose")
    broken = replace(view, joins=(HubJoin("person", "no_such_key", "left"),))
    with pytest.raises(GoldBuildError, match="no table exposes column 'no_such_key'"):
        build_view(gw, MODEL, broken, now=NOW, model=gold._model_parts(MODEL))


def test_join_current_over_a_star_base_is_an_error(gw):
    # The validator refuses such a view; an unvalidated one fails its build
    # before anything is written.
    star_join = next(join for join in MODEL.view("dim_person").joins
                     if not isinstance(join, HubJoin))
    loose = MODEL.view("fact_orders_loose")
    broken = replace(loose, joins=(star_join,), outputs=loose.outputs[:1])
    before = file_bytes(gw.root)
    with pytest.raises(GoldBuildError,
                       match=r"^fact_orders_loose: join_current requires a hub base$"):
        build_view(gw, MODEL, broken, now=NOW, model=gold._model_parts(MODEL))
    assert file_bytes(gw.root) == before


def test_a_build_resolves_each_reference_once_whatever_the_row_count(gw, tmp_path, monkeypatch):
    resolved = []
    ref_table = gold.ref_table
    monkeypatch.setattr(gold, "ref_table",
                        lambda tables, ref: resolved.append(ref) or ref_table(tables, ref))
    empty = Warehouse(tmp_path / "wh")
    init_warehouse(empty, MODEL)
    build_all(empty, MODEL, now=NOW)
    over_no_rows, resolved[:] = resolved[:], []
    build_all(gw, MODEL, now=NOW)
    assert sum(len(gw.read_rows(GOLD, view.name)) for view in MODEL.gold_views) > 0
    assert resolved == over_no_rows


# -- verifying traces: a build over unchanged inputs reads and writes nothing ---


def gold_files(root: Path, spec) -> dict[str, bytes]:
    """Every file of the gold schema, by path under it."""
    gold_dir = root / spec.schema_names["gold"]
    return {str(path.relative_to(gold_dir)): path.read_bytes()
            for path in sorted(gold_dir.glob("*/*"))}


@pytest.fixture()
def retail_copy(loaded, tmp_path) -> Warehouse:
    """A copy of the loaded retail warehouse, gold built, to change freely."""
    return Warehouse(shutil.copytree(loaded.root, tmp_path / "wh"))


@pytest.fixture()
def rebuilt(monkeypatch) -> list[str]:
    """The gold tables written through `replace_table`, in call order."""
    tables: list[str] = []
    replace_table = storage.Warehouse.replace_table

    def recorded(self, manifest, rows):
        tables.append(manifest.table)
        return replace_table(self, manifest, rows)

    monkeypatch.setattr(storage.Warehouse, "replace_table", recorded)
    return tables


def test_a_first_build_digests_each_table_a_view_reads_once_and_traces_its_write(
        tmp_path, retail_spec, retail_data, monkeypatch):
    """A view digests each table it reads from its files, the dimension a
    fact joins included, once, and its trace's output is the digest of its
    own files."""
    root = run_pipeline(tmp_path / "wh", retail_spec, retail_data, gold=False).root
    digests: list[tuple[str, str, str]] = []  # (view, schema, table)
    build_view, table_digest = gold.build_view, storage.Warehouse.table_digest
    building = []

    def built(warehouse, spec, view, now, **kwargs):
        building.append(view.name)
        return build_view(warehouse, spec, view, now, **kwargs)

    def digested(self, schema, table):
        digests.append((building[-1], schema, table))
        return table_digest(self, schema, table)

    monkeypatch.setattr(gold, "build_view", built)
    monkeypatch.setattr(storage.Warehouse, "table_digest", digested)
    build_all(Warehouse(root), retail_spec, now=rf.DEFAULT_NOW)
    monkeypatch.undo()

    schemas = retail_spec.schema_names
    assert sorted(digests) == sorted(
        (view.name, schemas["gold"], retail_spec.view(name).table_name) if kind == "gold"
        else (view.name, schemas["silver"], retail_spec.element(kind, name).table_name)
        for view in retail_spec.gold_views for kind, name, _left in view.read_tables)
    warehouse = Warehouse(root)
    for view in retail_spec.gold_views:
        trace = json.loads((warehouse.table_dir(schemas["gold"], view.table_name) / "trace")
                           .read_text(encoding="utf-8"))
        assert trace["output"] == warehouse.table_digest(schemas["gold"], view.table_name)


def test_a_build_renders_the_model_once_for_all_its_views(retail_copy, retail_spec,
                                                          monkeypatch):
    rendered = []
    render_model = gold.render_model
    monkeypatch.setattr(gold, "render_model", lambda spec: (
        rendered.append(spec), render_model(spec))[1])
    stats = {path: path.stat().st_ino
             for path in (retail_copy.root / retail_spec.schema_names["gold"]).glob("*/*")}
    results = build_all(Warehouse(retail_copy.root), retail_spec, now=rf.DEFAULT_NOW)
    assert len(results) == len(retail_spec.gold_views) > 1
    assert rendered == [retail_spec]
    # The digests it feeds are those each view's trace records: nothing is rebuilt.
    assert {path: path.stat().st_ino for path in stats} == stats


def test_a_noop_build_decodes_no_row_and_touches_no_file(retail_copy, retail_spec, decoded):
    gold_dir = retail_copy.root / retail_spec.schema_names["gold"]
    stats = {path: (path.stat().st_ino, path.stat().st_mtime_ns)
             for path in gold_dir.glob("*/*")}
    counts = {view.name: len(retail_copy.read_rows(gold_dir.name, view.table_name))
              for view in retail_spec.gold_views}
    decoded.clear()
    results = build_all(Warehouse(retail_copy.root), retail_spec, now=rf.DEFAULT_NOW)
    assert sum(decoded.values()) == 0
    assert {r.view_name: r.rows for r in results} == counts
    assert {path: (path.stat().st_ino, path.stat().st_mtime_ns)
            for path in gold_dir.glob("*/*")} == stats
    assert {path.name for path in stats} == {"manifest", "data", "trace"}


def change_last_row(warehouse: Warehouse, spec, table: str, column: str):
    """Append " (edited)" to `column` of the table's last silver row."""
    silver = spec.schema_names["silver"]
    rows = warehouse.read_rows(silver, table)
    changed = {**rows[-1], column: rows[-1][column] + " (edited)"}
    warehouse.append_rows(silver, table, [], replace={len(rows) - 1: changed}, lines=len(rows))


@pytest.mark.parametrize("table, column, views", [pytest.param(*case, id=case[0]) for case in (
    ("hub_customer", "customer_name", ["dim_customer", "dim_customer2", "fact_order_item"]),
    ("hub_sales_order", "order_number", ["fact_order_item"]),
    ("hub_product", "product_name", ["dim_product"]),
    ("hub_loyalty_segment", "segment_name", ["dim_customer"]),
    ("star_customer_address", "ship_to_address",
     ["dim_customer", "dim_customer2", "fact_order_item"]),
    ("star_sales_order_item", "currency", ["fact_order_item"]))])
def test_a_changed_silver_row_rebuilds_the_views_that_read_it(
        retail_copy, retail_spec, rebuilt, table, column, views):
    """The fact reads no customer table; it is rebuilt when dim_customer2,
    which it reads, changes."""
    change_last_row(retail_copy, retail_spec, table, column)
    build_all(Warehouse(retail_copy.root), retail_spec, now=rf.DEFAULT_NOW)
    assert rebuilt == views
    rebuilt.clear()
    build_all(Warehouse(retail_copy.root), retail_spec, now=rf.DEFAULT_NOW)
    assert rebuilt == []


def edit_in_place(path: Path):
    """Change one byte of the file, keeping its size and times."""
    stat = path.stat()
    content = bytearray(path.read_bytes())
    content[-2] = ord("0") if content[-2] != ord("0") else ord("1")
    path.write_bytes(bytes(content))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))


@pytest.mark.parametrize("damage", [edit_in_place, Path.unlink], ids=["edited", "deleted"])
@pytest.mark.parametrize("name", ["data", "trace", "manifest"])
def test_a_damaged_gold_table_is_rebuilt_to_the_canonical_bytes(
        retail_copy, retail_spec, rebuilt, damage, name):
    before = gold_files(retail_copy.root, retail_spec)
    damage(retail_copy.table_dir(retail_spec.schema_names["gold"], "dim_customer2") / name)
    build_all(Warehouse(retail_copy.root), retail_spec, now=rf.DEFAULT_NOW)
    assert gold_files(retail_copy.root, retail_spec) == before
    assert rebuilt == ["dim_customer2"]  # the fact reads the same bytes as before


def test_a_model_edit_that_changes_a_view_rebuilds_it(retail_copy, retail_spec, loaded):
    """Ranking addresses oldest first changes dim_customer's rows but not
    its manifest."""
    edited = parse_model(FIXTURE_MODEL.read_text(encoding="utf-8").replace(
        "order_by (valid_from desc, capture_timestamp desc)",
        "order_by (valid_from asc, capture_timestamp desc)")).spec
    assert edited != retail_spec
    build_all(Warehouse(retail_copy.root), edited, now=rf.DEFAULT_NOW)
    traced, before = gold_files(retail_copy.root, edited), gold_files(loaded.root, retail_spec)
    assert traced["dim_customer/data"] != before["dim_customer/data"]
    assert traced["dim_customer/manifest"] == before["dim_customer/manifest"]
    for trace in (retail_copy.root / edited.schema_names["gold"]).glob("*/trace"):
        trace.unlink()
    build_all(Warehouse(retail_copy.root), edited, now=rf.DEFAULT_NOW)
    assert gold_files(retail_copy.root, edited) == traced


def test_a_missing_input_still_raises_with_a_trace_present(retail_copy, retail_spec):
    """The copy holds every view's trace: a build checks that the tables
    its views read exist before any trace."""
    gold_schema, silver = retail_spec.schema_names["gold"], retail_spec.schema_names["silver"]
    shutil.rmtree(retail_copy.table_dir(gold_schema, "dim_customer2"))
    with pytest.raises(GoldBuildError, match="dim_customer2 is not built yet"):
        build_all(Warehouse(retail_copy.root), retail_spec, now=rf.DEFAULT_NOW,
                  only="fact_order_item")
    shutil.rmtree(retail_copy.table_dir(silver, "hub_product"))
    with pytest.raises(GoldBuildError, match=f"silver table {silver}.hub_product is missing"):
        build_all(Warehouse(retail_copy.root), retail_spec, now=rf.DEFAULT_NOW)


def test_a_build_cut_before_its_trace_is_redone_then_skipped(
        retail_copy, retail_spec, monkeypatch, decoded):
    """A crash between a view's data write and its trace write leaves the
    trace of the view's previous build."""
    change_last_row(retail_copy, retail_spec, "hub_customer", "customer_name")
    write_trace = storage.Warehouse.write_trace

    def cut(self, manifest, *args):
        if manifest.table == "dim_customer2":
            raise OSError("cut before the trace")
        write_trace(self, manifest, *args)

    monkeypatch.setattr(storage.Warehouse, "write_trace", cut)
    with pytest.raises(OSError, match="cut before the trace"):
        build_all(Warehouse(retail_copy.root), retail_spec, now=rf.DEFAULT_NOW)
    monkeypatch.setattr(storage.Warehouse, "write_trace", write_trace)
    build_all(Warehouse(retail_copy.root), retail_spec, now=rf.DEFAULT_NOW)
    redone = gold_files(retail_copy.root, retail_spec)
    decoded.clear()
    build_all(Warehouse(retail_copy.root), retail_spec, now=rf.DEFAULT_NOW)
    assert sum(decoded.values()) == 0
    shutil.rmtree(retail_copy.root / retail_spec.schema_names["gold"])
    build_all(Warehouse(retail_copy.root), retail_spec, now=rf.DEFAULT_NOW)
    assert gold_files(retail_copy.root, retail_spec) == redone


@settings(max_examples=8, deadline=None)
@given(batches=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_traced_builds_equal_full_builds_over_batch_splits(retail_spec, retail_data,
                                                            batches, seed):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        warehouse = Warehouse(root / "wh")
        init_warehouse(warehouse, retail_spec)
        for jobs in rf.write_batches(retail_data, root / "inbox", batches,
                                     random.Random(seed)):
            for job in jobs:
                ingest_file(warehouse, retail_spec, job.source, job.path,
                            now=rf.DEFAULT_NOW, mtime=job.mtime)
            load_all(warehouse, retail_spec, now=rf.DEFAULT_NOW)
            build_all(warehouse, retail_spec, now=rf.DEFAULT_NOW)
            traced = gold_files(warehouse.root, retail_spec)
            for trace in (warehouse.root / retail_spec.schema_names["gold"]).glob("*/trace"):
                trace.unlink()
            build_all(Warehouse(warehouse.root), retail_spec, now=rf.DEFAULT_NOW)
            assert gold_files(warehouse.root, retail_spec) == traced
