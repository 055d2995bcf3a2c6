"""The command-line surface: exit codes, output formats, and the lifecycle."""

from __future__ import annotations

import csv
import json
import re

import pytest

from conftest import FIXTURE_MODEL
from hubstar import retail_fixture as rf
from hubstar.cli import main
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


# -- root resolution ----------------------------------------------------------


def test_missing_root_is_an_operational_error(capsys):
    assert main(["init", "--model", MODEL]) == 2
    err = capsys.readouterr().err
    assert err == "error: no warehouse root: pass --root or set HUBSTAR_ROOT\n"


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
    assert captured.err.splitlines() == [
        "note: device has a system-generated key; oracle comparison skipped",
        "note: traveler has several source mappings; oracle comparison skipped",
    ]


def test_check_reports_findings_and_exits_nonzero(cli_wh, tmp_path, capsys):
    # A warehouse that was initialized but never loaded has empty bronze and
    # just the default rows: that is clean too, so vandalize a table copy.
    import shutil

    root = tmp_path / "wh"
    shutil.copytree(cli_wh, root)
    from hubstar import Warehouse

    wh = Warehouse(root)
    rows = wh.read_rows("hs_retail", "hub_product")
    rows[-1]["product_name"] = None  # declared required
    wh.replace_table(wh.manifest("hs_retail", "hub_product"), rows)
    capsys.readouterr()

    assert main(["check", "--model", MODEL, "--root", str(root)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "1 finding(s)"
    assert "product_name" in out[0]


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
