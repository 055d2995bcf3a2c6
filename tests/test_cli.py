"""The command-line surface: exit codes, output formats, and the lifecycle."""

from __future__ import annotations

import csv
import errno
import json
import os
import re
import shlex

import pytest

from conftest import FIXTURE_MODEL, SHIP_TO, edited_retail, file_bytes
from hubstar import retail_fixture as rf
from hubstar import storage
from hubstar.cli import main
from hubstar.storage import Warehouse
from hubstar.values import value_to_string

MODEL = str(FIXTURE_MODEL)

BROKEN = '''product broken

source things {
  load_source 1
  format csv
  column thing_id integer
  column updated_at timestamp
  capture last_modified updated_at
}

hub thing {
  key computed sha256(cast(thing_nombre as string))
  business_key global (thing_id integer)
  source_mapping things {
    map thing_id = thing_id
  }
}
'''

LOAD_LINE = re.compile(r"^\S+ <- \S+: scanned=\d+ inserted=\d+ updated=\d+ "
                       r"unchanged=\d+ hwm=\S+$")


@pytest.fixture(autouse=True)
def no_ambient_root(monkeypatch):
    monkeypatch.delenv("HUBSTAR_ROOT", raising=False)


@pytest.fixture(scope="module")
def cli_wh(tmp_path_factory, retail_data):
    """A warehouse driven entirely through the CLI, shared read-only."""
    base = tmp_path_factory.mktemp("cli_wh")
    root = str(base / "wh")
    now = value_to_string(rf.DEFAULT_NOW)
    assert main(["init", "--model", MODEL, "--root", root]) == 0
    for jobs in rf.write_batches(retail_data, base / "inbox", 1):
        for job in jobs:
            rc = main(["ingest", "--model", MODEL, "--root", root,
                       "--source", job.source, "--input", str(job.path),
                       "--mtime", value_to_string(job.mtime), "--now", now])
            assert rc == 0
    assert main(["load-silver", "--model", MODEL, "--root", root, "--now", now]) == 0
    assert main(["build-gold", "--model", MODEL, "--root", root, "--now", now]) == 0
    return root


# -- validate ---------------------------------------------------------------


def test_validate_reports_zero_violations_for_the_demo_model(capsys):
    assert main(["validate", MODEL]) == 0
    assert capsys.readouterr().out == "0 violations\n"


def test_validate_prints_one_line_per_violation_and_a_total(tmp_path, capsys):
    path = tmp_path / "broken.hsm"
    path.write_text(BROKEN, encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "1 violation(s)"
    rule, location, message = out[0].split(": ", 2)
    assert rule == "key_formula_unknown_column"
    assert location == "hub thing"
    assert "thing_nombre" in message


def test_validate_reports_parse_errors(tmp_path, capsys):
    path = tmp_path / "bad.hsm"
    path.write_text("product demo\nwibble {}\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out.startswith("parse error: ")


def test_validate_reports_a_character_the_lexer_refuses(tmp_path, capsys):
    # "²" is a digit to str.isdigit, but not one int() reads
    path = tmp_path / "digit.hsm"
    path.write_text("product p\n\nsource s {\n  load_source \u00b2\n}\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == "parse error: 4:15: unexpected character '\u00b2'\n"


# -- root resolution ----------------------------------------------------------


def test_missing_root_is_an_operational_error(capsys):
    assert main(["init", "--model", MODEL]) == 2
    err = capsys.readouterr().err
    assert err == "error: no warehouse root: pass --root or set HUBSTAR_ROOT\n"


def test_a_root_that_is_a_file_is_an_operational_error(tmp_path, capsys):
    root = tmp_path / "wh"
    root.write_text("not a directory\n", encoding="utf-8")
    assert main(["init", "--model", MODEL, "--root", str(root)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: ")
    assert root.read_text(encoding="utf-8") == "not a directory\n"


def test_root_can_come_from_the_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HUBSTAR_ROOT", str(tmp_path / "wh"))
    assert main(["init", "--model", MODEL]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 10  # 4 sources + 4 hubs + 2 stars
    assert all(line.startswith("created ") for line in out)
    assert "created raw_retail.customers" in out
    assert "created hs_retail.hub_customer" in out


def test_invalid_models_are_refused_before_touching_the_warehouse(tmp_path, capsys):
    path = tmp_path / "broken.hsm"
    path.write_text(BROKEN, encoding="utf-8")
    rc = main(["init", "--model", str(path), "--root", str(tmp_path / "wh")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "1 validation violation(s)" in err
    assert not (tmp_path / "wh").exists()


def test_an_out_of_range_now_is_an_operational_error(tmp_path, capsys):
    rc = main(["load-silver", "--model", MODEL, "--root", str(tmp_path / "wh"),
               "--now", "0001-01-01T00:00:00+05:00"])
    assert rc == 2
    assert capsys.readouterr().err == ("error: --now '0001-01-01T00:00:00+05:00': "
                                       "timestamp '0001-01-01T00:00:00+05:00' is out of range\n")


def test_an_out_of_range_timestamp_fails_ingest_by_line_and_column(tmp_path, capsys):
    root = str(tmp_path / "wh")
    assert main(["init", "--model", MODEL, "--root", root]) == 0
    path = tmp_path / "customers.csv"
    path.write_text("customer_id,_change_ts\n1,0001-01-01T00:00:00+05:00\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["ingest", "--model", MODEL, "--root", root, "--source", "customers",
               "--input", str(path), "--now", "2024-03-02T00:00:00Z"])
    assert rc == 2
    assert capsys.readouterr().err == ("error: customers line 2, column _change_ts: "
                                       "timestamp '0001-01-01T00:00:00+05:00' is out of range\n")


# -- the pipeline commands ------------------------------------------------------


def test_ingest_prints_one_bronze_summary_line(cli_wh, tmp_path, capsys):
    # Re-ingesting is append-only, so use a scratch warehouse.
    root = str(tmp_path / "wh")
    assert main(["init", "--model", MODEL, "--root", root]) == 0
    path = tmp_path / "segments.csv"
    path.write_text("loyalty_segment_id,segment_name,updated_at\n"
                    "9,Jade,2024-03-01T00:00:00Z\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["ingest", "--model", MODEL, "--root", root,
               "--source", "loyalty_segments", "--input", str(path),
               "--now", "2024-03-02T00:00:00Z"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["raw_retail.loyalty_segments <- loyalty_segments: scanned=1 "
                   "inserted=1 updated=0 unchanged=0 hwm=2024-03-01T00:00:00Z"]


def test_load_silver_prints_one_line_per_mapping_in_dependency_order(cli_wh, capsys):
    now = value_to_string(rf.DEFAULT_NOW)
    assert main(["load-silver", "--model", MODEL, "--root", cli_wh, "--now", now]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 6  # four hubs and two stars, one mapping each
    assert all(LOAD_LINE.match(line) for line in out)
    order = [line.split(" <- ")[0] for line in out]
    assert order.index("hs_retail.hub_loyalty_segment") < order.index("hs_retail.hub_customer")
    assert order.index("hs_retail.hub_customer") < order.index("hs_retail.star_customer_address")


def test_a_no_op_load_silver_decodes_no_silver_row(cli_wh, capsys, decoded):
    now = value_to_string(rf.DEFAULT_NOW)
    assert main(["load-silver", "--model", MODEL, "--root", cli_wh, "--now", now]) == 0
    assert all(" scanned=0 " in line for line in capsys.readouterr().out.splitlines())
    assert decoded.in_schema("hs_retail") == 0


def test_load_silver_can_target_a_single_table(cli_wh, capsys):
    now = value_to_string(rf.DEFAULT_NOW)
    rc = main(["load-silver", "--model", MODEL, "--root", cli_wh,
               "--now", now, "--table", "hub_product"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    assert out[0].startswith("hs_retail.hub_product <- products: ")


def test_build_gold_prints_row_counts_per_view(cli_wh, capsys):
    now = value_to_string(rf.DEFAULT_NOW)
    assert main(["build-gold", "--model", MODEL, "--root", cli_wh, "--now", now]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == [
        "dim_product", "dim_customer", "dim_customer2", "fact_order_item"]
    assert all(re.match(r"^\w+: rows=\d+$", line) for line in out)


def test_build_gold_can_target_a_single_view(cli_wh, capsys):
    now = value_to_string(rf.DEFAULT_NOW)
    rc = main(["build-gold", "--model", MODEL, "--root", cli_wh,
               "--now", now, "--view", "dim_product"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("dim_product: rows=")


@pytest.mark.parametrize("command, flag, name", [
    ("load-silver", "--table", "no_such_table"),
    ("build-gold", "--view", "no_such_view"),
])
def test_an_unknown_table_or_view_is_an_operational_error(cli_wh, capsys, command, flag, name):
    rc = main([command, "--model", MODEL, "--root", cli_wh,
               "--now", value_to_string(rf.DEFAULT_NOW), flag, name])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and repr(name) in captured.err


@pytest.mark.parametrize("command, flag", [("load-silver", "--now"), ("ingest", "--mtime")])
def test_a_malformed_timestamp_flag_is_an_operational_error(tmp_path, capsys, command, flag):
    path = tmp_path / "segments.csv"
    path.write_text("loyalty_segment_id,segment_name,updated_at\n", encoding="utf-8")
    extra = ["--source", "loyalty_segments", "--input", str(path)] if command == "ingest" else []
    rc = main([command, "--model", MODEL, "--root", str(tmp_path / "wh"), *extra,
               flag, "yesterday"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} 'yesterday': ")
    assert captured.err.count("\n") == 1  # one line, no traceback
    assert not (tmp_path / "wh").exists()


def test_a_model_unlike_the_stored_manifests_is_an_operational_error(
        tmp_path, capsys, retail_data):
    root = str(tmp_path / "wh")
    now = value_to_string(rf.DEFAULT_NOW)
    assert main(["init", "--model", MODEL, "--root", root]) == 0
    first, _second = rf.write_batches(retail_data, tmp_path / "inbox", 2)
    for job in first:
        assert main(["ingest", "--model", MODEL, "--root", root, "--source", job.source,
                     "--input", str(job.path), "--mtime", value_to_string(job.mtime),
                     "--now", now]) == 0
    edited = tmp_path / "edited.hsm"
    edited.write_text(edited_retail(*SHIP_TO), encoding="utf-8")
    before = file_bytes(tmp_path / "wh")
    capsys.readouterr()
    assert main(["load-silver", "--model", str(edited), "--root", root, "--now", now]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: hs_retail.hub_customer: the stored manifest differs from "
                            "the model's: column ship_to is string in the model, absent in "
                            "storage\n")
    assert file_bytes(tmp_path / "wh") == before


@pytest.mark.parametrize("marked", [False, True], ids=["first load", "after a mark"])
def test_a_null_bronze_capture_time_fails_a_load_naming_its_table_and_line(
        tmp_path, capsys, retail_data, marked):
    root = str(tmp_path / "wh")
    now = value_to_string(rf.DEFAULT_NOW)
    assert main(["init", "--model", MODEL, "--root", root]) == 0
    for n, jobs in enumerate(rf.write_batches(retail_data, tmp_path / "inbox", 2)):
        for job in jobs:
            assert main(["ingest", "--model", MODEL, "--root", root, "--source", job.source,
                         "--input", str(job.path), "--mtime", value_to_string(job.mtime),
                         "--now", now]) == 0
        if n == 0:
            if marked:
                assert main(["load-silver", "--model", MODEL, "--root", root,
                             "--now", now]) == 0
            warehouse = Warehouse(root)
            rows = [dict(row) for row in warehouse.read_rows("raw_retail", "customers")]
            rows[2]["capture_timestamp"] = None
            warehouse.replace_table(warehouse.manifest("raw_retail", "customers"), rows)
    capsys.readouterr()
    before = file_bytes(tmp_path / "wh")
    assert main(["load-silver", "--model", MODEL, "--root", root, "--now", now]) == 2
    captured = capsys.readouterr()
    if marked:
        # Line 3 lies before the offset the first load recorded, and its
        # rewrite moved the lines after it, so no line ends there any more:
        # the load refuses the bronze file before it writes.
        assert re.fullmatch(r"error: hs_retail\.hub_customer <- raw_retail\.customers: no line "
                            r"ends at byte \d+, where \d+ lines were consumed; the data file "
                            r"was cut or rewritten; nothing written\n", captured.err)
        assert file_bytes(tmp_path / "wh") == before
    else:
        assert captured.err == ("error: hs_retail.hub_customer <- raw_retail.customers: "
                                "line 3: column capture_timestamp is null\n")


def test_a_null_member_capture_time_fails_a_load_naming_its_table_and_line(
        tmp_path, capsys, retail_data):
    # With new bronze, and on a no-op: the hand edit changes the data file's
    # length, so the state record no longer holds and the table is read.
    for fed in (True, False):
        home = tmp_path / ("fed" if fed else "no-op")
        root = str(home)
        now = value_to_string(rf.DEFAULT_NOW)
        assert main(["init", "--model", MODEL, "--root", root]) == 0
        for n, jobs in enumerate(rf.write_batches(retail_data, tmp_path / "inbox", 2)):
            if n and not fed:
                break
            for job in jobs:
                assert main(["ingest", "--model", MODEL, "--root", root, "--source", job.source,
                             "--input", str(job.path), "--mtime", value_to_string(job.mtime),
                             "--now", now]) == 0
            if n == 0:
                assert main(["load-silver", "--model", MODEL, "--root", root,
                             "--now", now]) == 0
                warehouse = Warehouse(root)
                rows = [dict(row) for row in warehouse.read_rows("hs_retail", "hub_customer")]
                rows[2]["capture_timestamp"] = None
                warehouse.replace_table(warehouse.manifest("hs_retail", "hub_customer"), rows)
        capsys.readouterr()
        before = file_bytes(home)
        assert main(["load-silver", "--model", MODEL, "--root", root, "--now", now]) == 2
        assert capsys.readouterr().err == ("error: hs_retail.hub_customer: line 3: "
                                           "column capture_timestamp is null\n")
        after = file_bytes(home)
        assert after["hs_retail/hub_customer/data"] == before["hs_retail/hub_customer/data"]
        if not fed:  # the tables loaded before hub_customer have nothing to write either
            assert after == before


def test_check_passes_on_a_clean_warehouse(cli_wh, capsys):
    assert main(["check", "--model", MODEL, "--root", cli_wh]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_check_against_oracle_passes_on_a_clean_warehouse(cli_wh, capsys):
    rc = main(["check", "--model", MODEL, "--root", cli_wh, "--against-oracle"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == "ok\n"
    assert captured.err == ""  # every element is single-mapping: no skip notes


SKIPPED = '''product skipped

source people {
  load_source 1
  format csv
  column person_id integer
  column device_code string
  column seen_at timestamp
  capture cdc_column seen_at
}

source visits {
  load_source 2
  format csv
  column person_id integer
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
  source_mapping people {
    map person_id = person_id
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
'''


def test_check_against_oracle_notes_every_element_it_skips(tmp_path, capsys):
    model = tmp_path / "skipped.hsm"
    model.write_text(SKIPPED, encoding="utf-8")
    root = str(tmp_path / "wh")
    assert main(["init", "--model", str(model), "--root", root]) == 0
    capsys.readouterr()
    rc = main(["check", "--model", str(model), "--root", root, "--against-oracle"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.out == "ok\n"
    # The system-keyed device hub is checked by its business key.
    assert captured.err.splitlines() == [
        "note: traveler has several source mappings; oracle comparison skipped",
    ]


def test_check_reports_findings_and_exits_nonzero(cli_wh, tmp_path, capsys):
    # A warehouse that was initialized but never loaded has empty bronze and
    # just the default rows: that is clean too, so vandalize a table copy.
    # Every schema is audited, bronze and gold as well as silver.
    import shutil

    from hubstar import Warehouse

    cases = {
        "silver": [("hs_retail", "hub_product", "product_name")],  # declared required
        "bronze_and_gold": [("ss_retail", "dim_product", "product_key"),
                            ("raw_retail", "products", "load_timestamp")],
    }
    for case, nulls in cases.items():
        root = tmp_path / case
        shutil.copytree(cli_wh, root)
        wh = Warehouse(root)
        for schema, table, column in nulls:
            rows = wh.read_rows(schema, table)
            rows[-1][column] = None
            wh.replace_table(wh.manifest(schema, table), rows)
        capsys.readouterr()

        assert main(["check", "--model", MODEL, "--root", str(root)]) == 1, case
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == f"{len(nulls)} finding(s)", case
        assert sorted(f"{schema}.{table}: column {column}"
                      for schema, table, column in nulls) == \
            [line.split(" is not")[0] for line in out[:-1]], case


# -- export and show --------------------------------------------------------------


def test_export_csv_round_trips_column_headers(cli_wh, tmp_path, capsys):
    out_path = tmp_path / "segments.csv"
    rc = main(["export", "--root", cli_wh, "--table", "hs_retail.hub_loyalty_segment",
               "--format", "csv", "--out", str(out_path)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.match(r"^wrote \d+ row\(s\) to ", captured.err)

    with out_path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["load_source", "capture_timestamp"]
    assert "loyalty_segment_key" in rows[0]
    n = int(captured.err.split()[1])
    assert len(rows) == n + 1


def test_export_csv_writes_a_collection_as_its_json_array(cli_wh, tmp_path):
    paths = {fmt: tmp_path / f"orders.{fmt}" for fmt in ("csv", "ndjson")}
    for fmt, path in paths.items():
        assert main(["export", "--root", cli_wh, "--table", "raw_retail.sales_orders",
                     "--format", fmt, "--out", str(path)]) == 0
    with paths["csv"].open(encoding="utf-8", newline="") as fh:
        cells = [row["ordered_products"] for row in csv.DictReader(fh)]
    expected = [json.loads(line)["ordered_products"]
                for line in paths["ndjson"].read_text(encoding="utf-8").splitlines()]
    assert expected and set(expected[0][0]) == {"id", "price", "curr", "qty"}
    assert [json.loads(cell) for cell in cells] == expected


def test_export_csv_compiles_no_codec_per_row(cli_wh, tmp_path, monkeypatch):
    compiles = []
    compile_codec = storage._compile

    def counted(columns, *memos):
        compiles.append(tuple(column.name for column in columns))
        return compile_codec(columns, *memos)

    monkeypatch.setattr(storage, "_compile", counted)
    path = tmp_path / "orders.csv"
    assert main(["export", "--root", cli_wh, "--table", "raw_retail.sales_orders",
                 "--format", "csv", "--out", str(path)]) == 0
    with path.open(encoding="utf-8", newline="") as fh:
        rows = len(list(csv.DictReader(fh)))
    manifest = Warehouse(cli_wh).manifest("raw_retail", "sales_orders")
    collections = sum(column.type == "collection" for column in manifest.columns)
    assert collections == 1 and rows > 2
    assert len(compiles) <= 1 + collections  # one per manifest and per collection column


def test_export_ndjson_emits_one_json_object_per_row(cli_wh, tmp_path, capsys):
    out_path = tmp_path / "segments.ndjson"
    rc = main(["export", "--root", cli_wh, "--table", "hs_retail.hub_loyalty_segment",
               "--format", "ndjson", "--out", str(out_path)])
    assert rc == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    parsed = [json.loads(line) for line in lines]
    assert any(r["loyalty_segment_key"] == "-1" for r in parsed)


def test_export_requires_a_qualified_table_name(cli_wh, capsys):
    rc = main(["export", "--root", cli_wh, "--table", "hub_product",
               "--format", "csv", "--out", "/tmp/never-written.csv"])
    assert rc == 2
    assert "qualified as <schema>.<table>" in capsys.readouterr().err


def test_export_unknown_table_is_an_operational_error(cli_wh, capsys):
    rc = main(["export", "--root", cli_wh, "--table", "hs_retail.hub_unicorn",
               "--format", "csv", "--out", "/tmp/never-written.csv"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_show_honors_the_limit(cli_wh, capsys):
    rc = main(["show", "--root", cli_wh, "--table", "raw_retail.customers",
               "--limit", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert all(json.loads(line) for line in lines)


def test_show_refuses_a_negative_limit(cli_wh, capsys):
    rc = main(["show", "--root", cli_wh, "--table", "raw_retail.customers",
               "--limit", "-2"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--limit must not be negative" in captured.err


# -- the README quick start -------------------------------------------------------

README = FIXTURE_MODEL.parent.parent / "README.md"


def quick_start_steps() -> list[tuple[str, list[str]]]:
    """(command, output lines) for each `$` line of the README's quick-start
    block, with `\\` continuations joined."""
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    block = section.split("```console\n", 1)[1].split("```", 1)[0]
    lines = iter(block.splitlines())
    steps: list[tuple[str, list[str]]] = []
    for line in lines:
        if line.startswith("$ "):
            command = line[2:]
            while command.endswith("\\"):
                command = command[:-1] + next(lines).strip()
            steps.append((command, []))
        elif line:
            steps[-1][1].append(line)
    return steps


def matches_transcript(output: list[str], expected: list[str]) -> bool:
    """`...` in the README stands for any run of lines."""
    if "..." not in expected:
        return output == expected
    cut = expected.index("...")
    head, tail = expected[:cut], expected[cut + 1:]
    return (len(output) >= len(head) + len(tail) and output[:len(head)] == head
            and output[len(output) - len(tail):] == tail)


def test_readme_quick_start_prints_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    (tmp_path / "fixtures").mkdir()
    (tmp_path / "fixtures" / "retail.hsm").write_bytes(FIXTURE_MODEL.read_bytes())
    monkeypatch.chdir(tmp_path)
    steps = quick_start_steps()
    assert sum(command.startswith("hubstar ") for command, _ in steps) >= 7
    ingest: list[str] = []
    for command, expected in steps:
        words = shlex.split(command)
        if words[0] == "pip":
            continue
        if words[0] == "export":
            name, _, _value = words[1].partition("=")
            monkeypatch.setenv(name, str(tmp_path / "wh"))  # not the README's /tmp path
        elif words[:2] == ["python3", "-c"]:
            exec(words[2], {})
        elif words[0] == "#":  # "ingest the other three sources the same way"
            for path in sorted(tmp_path.glob("extracts/*")):
                if path.stem != ingest[ingest.index("--source") + 1]:
                    argv = list(ingest)
                    argv[argv.index("--source") + 1] = path.stem
                    argv[argv.index("--input") + 1] = f"extracts/{path.name}"
                    assert main(argv) == 0, argv
        else:
            assert words[0] == "hubstar", command
            capsys.readouterr()
            assert main(words[1:]) == 0, command
            captured = capsys.readouterr()
            output = (captured.out + captured.err).splitlines()
            assert matches_transcript(output, expected), (command, output)
            if words[1] == "ingest":
                ingest = words[1:]
        if words[0] != "hubstar":
            assert expected == [], command
