from __future__ import annotations

import json
from datetime import datetime, timezone
from decimal import Decimal

import pytest

from hubstar import (Warehouse, ingest_file, init_warehouse, load_all, parse_model,
                     render_model)
from hubstar.bronze import coerce_delete_flag, parse_source_file, resolve_capture_timestamp
from hubstar.cli import main
from hubstar.errors import IngestError
from hubstar.model import DEFAULT_HUB_KEY, validate_model

from conftest import file_bytes

MODEL = parse_model('''product demo

source events {
  load_source 1
  format csv
  column event_id integer
  column label string
  column changed_at timestamp
  column removed integer
  capture cdc_column changed_at
  delete_flag_column removed
}

source orders {
  load_source 2
  format ndjson
  column order_id string
  column amount decimal
  column lines array(sku string, qty integer)
  capture file_mtime
}

source notes {
  load_source 3
  format csv
  column note_id integer
  capture pipeline_now
}
''').spec

NOW = datetime(2025, 1, 1, tzinfo=timezone.utc)
MTIME = datetime(2024, 6, 1, tzinfo=timezone.utc)


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


def source(name: str):
    return MODEL.source(name)


def test_delete_flag_coercion_is_strictly_truthy():
    assert coerce_delete_flag(1) == 1
    assert coerce_delete_flag("1") == 1
    assert coerce_delete_flag(True) == 1
    assert coerce_delete_flag("true") == 1
    for falsy in (0, "0", "", None, "yes", 2, "TRUE"):
        assert coerce_delete_flag(falsy) == 0


def test_csv_parsing_coerces_types_and_maps_blanks_to_null():
    rows = parse_source_file(source("events"),
                             "event_id,label,changed_at,removed\n"
                             "1,hello,2024-03-01T08:00:00Z,0\n"
                             "2,,,1\n")
    assert rows[0] == {"event_id": 1, "label": "hello",
                       "changed_at": utc(2024, 3, 1, 8), "removed": 0}
    assert rows[1]["label"] == ""
    assert rows[1]["changed_at"] is None


def test_csv_unknown_header_is_rejected():
    with pytest.raises(IngestError, match="unknown column 'surprise'"):
        parse_source_file(source("events"), "event_id,surprise\n1,x\n")


def test_csv_bad_cell_reports_line_and_column():
    with pytest.raises(IngestError, match="line 3, column event_id"):
        parse_source_file(source("events"),
                          "event_id,label,changed_at,removed\n1,a,,0\nnope,b,,0\n")


@pytest.mark.parametrize("text,message", [
    ("event_id,label\n1,x,EXTRA\n", "line 2: the header has 2 fields, the row 3"),
    ("event_id,label\n1\n", "line 2: the header has 2 fields, the row 1"),
    ("event_id,event_id\n1,2\n", "line 1: column 'event_id' appears twice in the header"),
], ids=["long row", "short row", "repeated header name"])
def test_csv_refuses_a_row_it_cannot_store_whole(text, message):
    with pytest.raises(IngestError, match=f"^events {message}$"):
        parse_source_file(source("events"), text)


def test_csv_errors_name_the_physical_line_after_a_quoted_line_break():
    text = 'event_id,label,changed_at,removed\n1,"two\nlines",,0\n2,b,,0\nzz,c,,0\n'
    with pytest.raises(IngestError, match="^events line 5, column event_id: "):
        parse_source_file(source("events"), text)


def test_ndjson_parsing_keeps_decimals_and_collections():
    rows = parse_source_file(source("orders"), '\n'.join([
        '{"order_id": "o1", "amount": 9.90, "lines": [{"sku": "A", "qty": 2}]}',
        '',
        '{"order_id": "o2", "amount": null, "lines": []}',
    ]))
    assert rows[0]["amount"] == Decimal("9.90")
    assert isinstance(rows[0]["amount"], Decimal)
    assert rows[0]["lines"] == [{"sku": "A", "qty": 2}]
    assert rows[1]["lines"] == []


@pytest.mark.parametrize("line,message", [
    ('not json', "line 1"),
    ('[1, 2]', "not an object"),
    ('{"order_id": "o", "extra": 1}', "unknown column 'extra'"),
    ('{"order_id": "o", "lines": [{"sku": "A", "mystery": 1}]}', "unknown item field"),
    ('{"order_id": "o", "lines": [7]}', "items must be objects"),
    ('{"order_id": "o", "lines": {"sku": "A"}}', "must be an array"),
])
def test_ndjson_rejections(line, message):
    with pytest.raises(IngestError, match=message):
        parse_source_file(source("orders"), line)


@pytest.mark.parametrize("line, key", [
    ('{"order_id": "o1", "amount": 1, "order_id": "o2"}', "order_id"),
    ('{"order_id": "o1", "lines": [{"sku": "x", "qty": 1, "sku": "y"}]}', "sku"),
], ids=["top_level", "collection_item"])
def test_ndjson_refuses_a_key_repeated_in_one_object(line, key):
    with pytest.raises(IngestError, match=f"^orders line 2: key '{key}' appears twice$"):
        parse_source_file(source("orders"), '{"order_id": "o0"}\n' + line)


@pytest.mark.parametrize("line", ['not json', '{"order_id": }', '{"order_id": "o"} x',
                                  '\ufeff{"order_id": "o"}'],
                         ids=["not_json", "missing_value", "extra_data", "byte_order_mark"])
def test_ndjson_syntax_errors_read_as_json_loads_reports_them(line):
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(line, parse_float=Decimal)
    with pytest.raises(IngestError) as got:
        parse_source_file(source("orders"), line)
    assert str(got.value) == f"orders line 1: {expected.value}"


def test_capture_priority_cdc_then_fallback():
    src = source("events")
    assert resolve_capture_timestamp({"changed_at": utc(2024, 2, 2)}, src, MTIME, NOW) == \
        utc(2024, 2, 2)
    # a null CDC value falls through; with no later rule, the clock wins
    assert resolve_capture_timestamp({"changed_at": None}, src, MTIME, NOW) == NOW
    assert resolve_capture_timestamp({}, source("orders"), MTIME, NOW) == MTIME
    assert resolve_capture_timestamp({}, source("notes"), MTIME, NOW) == NOW


@pytest.fixture
def wh(tmp_path):
    return Warehouse(tmp_path / "wh")


def write(tmp_path, name: str, text: str):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_ingest_creates_bronze_table_with_metadata(wh, tmp_path):
    path = write(tmp_path, "events.csv",
                 "event_id,label,changed_at,removed\n"
                 "1,a,2024-03-01T08:00:00Z,0\n"
                 "2,b,2024-03-01T09:00:00Z,1\n")
    result = ingest_file(wh, MODEL, "events", path, now=NOW, mtime=MTIME)
    assert (result.scanned, result.inserted) == (2, 2)
    assert result.new_hwm == utc(2024, 3, 1, 9)

    rows = wh.read_rows("raw_demo", "events")
    assert [r["event_id"] for r in rows] == [1, 2]
    first = rows[0]
    assert first["capture_timestamp"] == utc(2024, 3, 1, 8)
    assert first["load_timestamp"] == NOW
    assert first["extract_path"].endswith("events.csv")
    assert first["delete_flag"] == 0
    assert rows[1]["delete_flag"] == 1
    # the raw delete column is preserved alongside the coerced flag
    assert rows[1]["removed"] == 1


def test_ingest_is_append_only(wh, tmp_path):
    path = write(tmp_path, "events.csv",
                 "event_id,label,changed_at,removed\n1,a,2024-03-01,0\n")
    ingest_file(wh, MODEL, "events", path, now=NOW, mtime=MTIME)
    ingest_file(wh, MODEL, "events", path, now=NOW, mtime=MTIME)
    assert len(wh.read_rows("raw_demo", "events")) == 2


def test_ingest_decodes_no_bronze_rows(wh, tmp_path, monkeypatch):
    path = write(tmp_path, "events.csv",
                 "event_id,label,changed_at,removed\n1,a,2024-03-01,0\n")
    ingest_file(wh, MODEL, "events", path, now=NOW, mtime=MTIME)
    reads = []
    read_rows = Warehouse.read_rows

    def counted(self, schema, table):
        reads.append(f"{schema}.{table}")
        return read_rows(self, schema, table)

    monkeypatch.setattr(Warehouse, "read_rows", counted)
    ingest_file(wh, MODEL, "events", path, now=NOW, mtime=MTIME)
    assert reads == []
    assert len(wh.read_rows("raw_demo", "events")) == 2


def test_ingest_rejects_future_captures(wh, tmp_path):
    path = write(tmp_path, "events.csv",
                 "event_id,label,changed_at,removed\n1,a,2030-01-01,0\n")
    with pytest.raises(IngestError, match="after the load time"):
        ingest_file(wh, MODEL, "events", path, now=NOW, mtime=MTIME)
    assert not wh.table_exists("raw_demo", "events")  # refused before its first write


def test_ingest_refuses_a_csv_source_with_a_collection_column(wh, tmp_path):
    # The validator refuses this model; ingest refuses it without one.
    spec = parse_model("product demo\nsource orders {\n  load_source 1\n  format csv\n"
                       "  column lines array(sku string)\n  capture file_mtime\n}\n").spec
    path = write(tmp_path, "orders.csv", "lines\n[]\n")
    with pytest.raises(IngestError,
                       match="^orders: collection column 'lines' cannot be read from csv$"):
        ingest_file(wh, spec, "orders", path, now=NOW, mtime=MTIME)
    assert not wh.table_exists("raw_demo", "orders")


def test_ingest_unknown_source(wh, tmp_path):
    path = write(tmp_path, "x.csv", "a\n1\n")
    with pytest.raises(IngestError, match="unknown source"):
        ingest_file(wh, MODEL, "mystery", path, now=NOW)


def test_ingest_defaults_mtime_from_the_file(wh, tmp_path):
    import os
    path = write(tmp_path, "orders.ndjson", '{"order_id": "o1"}\n')
    stamp = utc(2024, 6, 15, 12).timestamp()
    os.utime(path, (stamp, stamp))
    ingest_file(wh, MODEL, "orders", path, now=NOW)
    (row,) = wh.read_rows("raw_demo", "orders")
    assert row["capture_timestamp"] == utc(2024, 6, 15, 12)


MEMOS = parse_model('''product demo

source memos {
  load_source 1
  format ndjson
  column memo_id integer
  column note string
  capture pipeline_now
}

hub memo {
  key computed sha256(cast(memo_id as string))
  business_key global (memo_id integer)
  descriptive note string
  source_mapping memos {
    map memo_id = memo_id
    map note = note
  }
}
''').spec


def test_ndjson_lines_end_only_at_a_line_feed(tmp_path):
    # JSON strings may hold these unescaped; str.splitlines breaks at them.
    notes = [f"l1{char}l2" for char in ("\u2028", "\u2029", "\u0085")]
    text = "".join(json.dumps({"memo_id": i, "note": note}, ensure_ascii=False) + "\n"
                    for i, note in enumerate(notes))
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, MEMOS)
    ingest_file(warehouse, MEMOS, "memos", write(tmp_path, "memos.ndjson", text), now=NOW)
    load_all(warehouse, MEMOS, now=NOW)
    members = [r for r in warehouse.read_rows("hs_demo", "hub_memo")
               if r["memo_key"] != DEFAULT_HUB_KEY]
    assert sorted((r["memo_id"], r["note"]) for r in members) == list(enumerate(notes))
    assert warehouse.check_all("hs_demo") == []
    with pytest.raises(IngestError, match="^memos line 4: "):
        parse_source_file(MEMOS.source("memos"), text + "not json\n")


PRICES_TEXT = '''product demo

source items {
  load_source 1
  format csv
  column item_id string
  column price decimal
  capture pipeline_now
}

source offers {
  load_source 2
  format ndjson
  column item_id string
  column price decimal
  capture pipeline_now
}

hub item {
  key computed sha256(item_id)
  business_key global (item_id string)
  descriptive price decimal
  source_mapping items {
    map item_id = item_id
    map price = price
  }
}
'''
PRICES = parse_model(PRICES_TEXT).spec


@pytest.mark.parametrize("literal", ["sNaN", "NaN", "Infinity"])
@pytest.mark.parametrize("name, text, line", [
    ("items", "item_id,price\nA,1.50\nB,{}\n", 3),
    ("offers", '{{"item_id": "A", "price": 1.50}}\n{{"item_id": "B", "price": "{}"}}\n', 2),
], ids=["csv", "ndjson"])
def test_a_decimal_that_is_not_finite_fails_ingest_and_writes_nothing(
        tmp_path, literal, name, text, line):
    # Stored as a bare token it would not be JSON, and no later read could decode it.
    assert validate_model(PRICES).ok
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, PRICES)
    before = file_bytes(warehouse.root)
    path = write(tmp_path, name, text.format(literal))
    with pytest.raises(IngestError, match=f"^{name} line {line}, column price: "
                                          f"decimal '{literal}' is not finite$"):
        ingest_file(warehouse, PRICES, name, path, now=NOW)
    assert file_bytes(warehouse.root) == before


def _load_after_editing_a_stored_price(tmp_path, capsys, token: str) -> str:
    """What `load-silver` prints to stderr after the stored price of a
    bronze line is replaced by `token`. The load must exit 2 and write
    nothing."""
    model = write(tmp_path, "prices.hsm", PRICES_TEXT)
    items = write(tmp_path, "items.csv", "item_id,price\nA,1.50\nB,2.25\n")
    args = ["--model", str(model), "--root", str(tmp_path / "wh")]
    now = ["--now", NOW.isoformat()]
    assert main(["init", *args]) == 0
    assert main(["ingest", *args, *now, "--source", "items", "--input", str(items)]) == 0
    data = tmp_path / "wh" / "raw_demo" / "items" / "data"
    lines = data.read_text(encoding="utf-8").splitlines(keepends=True)
    assert '"price":2.25' in lines[1]
    data.write_text(lines[0] + lines[1].replace('"price":2.25', f'"price":{token}'),
                    encoding="utf-8")
    before = file_bytes(tmp_path / "wh")
    capsys.readouterr()
    assert main(["load-silver", *args, *now]) == 2
    assert file_bytes(tmp_path / "wh") == before
    return capsys.readouterr().err


def test_a_stored_line_that_does_not_decode_fails_the_load_by_table_and_line(
        tmp_path, capsys):
    assert _load_after_editing_a_stored_price(tmp_path, capsys, "sNaN").startswith(
        "error: raw_demo.items: line 2 does not decode: Expecting value")


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_a_bare_non_finite_token_in_a_stored_line_fails_the_load(tmp_path, capsys, token):
    assert _load_after_editing_a_stored_price(tmp_path, capsys, token) == (
        f"error: raw_demo.items: line 2 does not decode: {token} is not a JSON number\n")


@pytest.mark.parametrize("line, column, character", [
    (r'{"order_id": "a\ud800b"}', "order_id", 2),
    (r'{"order_id": "o", "lines": [{"sku": "x"}, {"sku": "\udc00", "qty": 1}]}', "lines", 1),
], ids=["string", "collection item"])
def test_a_lone_surrogate_fails_ndjson_ingest_by_line_and_column(tmp_path, capsys, line,
                                                                   column, character):
    # JSON text may escape a lone surrogate, but UTF-8, and so no stored line, can hold it.
    model = write(tmp_path, "demo.hsm", render_model(MODEL))
    args = ["--model", str(model), "--root", str(tmp_path / "wh"), "--now", NOW.isoformat(),
            "--mtime", MTIME.isoformat(), "--source", "orders"]
    assert main(["init", *args[:4]]) == 0
    assert main(["ingest", *args, "--input",
                 str(write(tmp_path, "first.ndjson", '{"order_id": "o"}\n'))]) == 0
    before = file_bytes(tmp_path / "wh")
    capsys.readouterr()
    bad = write(tmp_path, "second.ndjson", '{"order_id": "p"}\n' + line + "\n")
    assert main(["ingest", *args, "--input", str(bad)]) == 2
    surrogate = json.loads(line)["order_id"] if column == "order_id" else "\udc00"
    assert capsys.readouterr().err == (
        f"error: orders line 2, column {column}: string holds a lone surrogate "
        f"{surrogate[character - 1]!r} at character {character}\n")
    assert file_bytes(tmp_path / "wh") == before


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_a_bare_non_finite_token_fails_ndjson_ingest_by_line(tmp_path, token):
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, PRICES)
    before = file_bytes(warehouse.root)
    path = write(tmp_path, "offers", '{"item_id": "A", "price": 1.50}\n'
                                     f'{{"item_id": "B", "price": {token}}}\n')
    with pytest.raises(IngestError, match=f"^offers line 2: {token} is not a JSON number$"):
        ingest_file(warehouse, PRICES, "offers", path, now=NOW)
    assert file_bytes(warehouse.root) == before
