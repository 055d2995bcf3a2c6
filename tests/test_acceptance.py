"""End-to-end acceptance checks for the hub/star pipeline.

Each test covers one release criterion and prints a `[criterion NN]`
PASS/FAIL line straight to the terminal, so a full run reads as a
checklist. Expected values are pinned against the deterministic retail
fixture (seed 8253); digests were verified once with coreutils
`sha256sum` before being frozen here.
"""
from __future__ import annotations

import random
import shutil
import time
from contextlib import contextmanager
from datetime import datetime, timezone

import pytest

from hubstar import (
    Warehouse,
    build_all,
    check_against_oracle,
    ingest_file,
    init_warehouse,
    load_all,
    load_model,
    parse_model,
    render_model,
    validate_model,
)
from hubstar import retail_fixture as rf
from hubstar.expr import sha256_hex
from hubstar.values import format_timestamp

from conftest import FIXTURE_MODEL, run_pipeline
from randmodels import random_model_text

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)

SHA_42 = "73475cb40a568e8da8a045ced110137e159f890ac4da883b6b17dc651b3a8049"
SHA_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# sha256("9001") — the scripted customer's hub key
SCRIPTED_KEY = "13b7994fae9387c2e1b598524ba1204ae404d02fa67016ed86c74183ab1aafca"


@contextmanager
def criterion(capsys, number: int, title: str):
    t0 = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - t0
        verdict = "FAIL" if failed else "PASS"
        with capsys.disabled():
            print(f"[criterion {number:02d}] {verdict} ({elapsed:.2f}s) {title}")


def silver_bytes(warehouse: Warehouse, spec) -> dict[str, bytes]:
    schema = spec.schema_names["silver"]
    return {t: (warehouse.table_dir(schema, t) / "data").read_bytes()
            for t in warehouse.list_tables(schema)}


def gold_bytes(warehouse: Warehouse, spec) -> dict[str, bytes]:
    schema = spec.schema_names["gold"]
    return {t: (warehouse.table_dir(schema, t) / "data").read_bytes()
            for t in warehouse.list_tables(schema)}


# --- criterion 1: model validation ------------------------------------------

_BASE_HEAD = '''product demo

schemas {
  bronze "raw_demo"
  silver "hs_demo"
  gold "ss_demo"
}

source things {
  load_source 1
  format csv
  column thing_id integer
  column thing_name string
  column updated_at timestamp
  capture last_modified updated_at
}
'''

_GOOD_HUB = '''
hub thing {
  key computed sha256(cast(thing_id as string))
  business_key global (thing_id integer)
  descriptive thing_name string
  source_mapping things {
    map thing_id = thing_id
    map thing_name = thing_name
  }
}
'''



def _thing_keyed(formula: str) -> str:
    """A model whose one hub keys `things` by `formula` over all three of its
    columns."""
    return _BASE_HEAD + f'''
hub thing {{
  key computed {formula}
  business_key global (thing_id integer, thing_name string, updated_at timestamp)
  source_mapping things {{
    map thing_id = thing_id
    map thing_name = thing_name
    map updated_at = updated_at
  }}
}}
'''


# Deliberately broken models, one or more per structural rule; every model
# must trip exactly its own rule and nothing else.
BROKEN_MODELS = {
    "hub_missing_business_key": _BASE_HEAD + '''
hub thing {
  key computed concat("#", load_source())
}
''',
    "key_formula_unknown_column": _BASE_HEAD + '''
hub thing {
  key computed sha256(cast(thing_nombre as string))
  business_key global (thing_id integer)
  source_mapping things {
    map thing_id = thing_id
  }
}
''',
    "key_formula_local_needs_source": _BASE_HEAD + '''
hub thing {
  key computed sha256(cast(thing_id as string))
  business_key local (thing_id integer)
  source_mapping things {
    map thing_id = thing_id
  }
}
''',
    "key_formula_delimiter": (_BASE_HEAD + '''
hub thing {
  key computed concat("", cast(thing_id as string))
  business_key global (thing_id integer)
  source_mapping things {
    map thing_id = thing_id
  }
}
''', *map(_thing_keyed, (
        'concat("#", thing_id, concat("", thing_name, updated_at))',
        # A nested concat whose delimiter holds its parent's collides on every row.
        'concat("#", thing_id, concat("#", thing_name, updated_at))',
        'concat("#", thing_id, concat("##", thing_name, updated_at))',
        'concat("#", thing_id, cast(concat("#", thing_name, updated_at) as string))',
        'concat("#", thing_id, coalesce(concat("#", thing_name, updated_at), thing_name))',
        # A literal operand that holds the delimiter collides on every row.
        'concat("#", thing_id, "a#b", thing_name, updated_at)',
        'concat("#", thing_id, cast("a#b" as string), thing_name, updated_at)',
        'concat("#", thing_id, coalesce(thing_name, "a#b"), updated_at)'))),
    "fk_unknown_hub": _BASE_HEAD + '''
hub thing {
  key computed sha256(cast(thing_id as string))
  business_key global (thing_id integer)
  descriptive ghost_key references phantom
  source_mapping things {
    map thing_id = thing_id
  }
}
''',
    "mapping_bk_coverage": _BASE_HEAD + '''
hub thing {
  key computed sha256(cast(thing_id as string))
  business_key global (thing_id integer)
  descriptive thing_name string
  source_mapping things {
    map thing_name = thing_name
  }
}
''',
    "dedup_unknown_column": _BASE_HEAD + '''
hub thing {
  key computed sha256(cast(thing_id as string))
  business_key global (thing_id integer)
  source_mapping things {
    map thing_id = thing_id
    dedup_by row_rank desc
  }
}
''',
    "star_no_participants": _BASE_HEAD + _GOOD_HUB + '''
star lonely {
  key (capture_timestamp)
  descriptive note string
}
''',
    "star_multiple_items": _BASE_HEAD + _GOOD_HUB + '''
star doubled {
  participant item seq_a positional
  participant item seq_b positional
  key (seq_a)
}
''',
    "star_key_not_participant": _BASE_HEAD + _GOOD_HUB + '''
star addr {
  participant thing
  key (thing_key, note)
  descriptive note string
}
''',
}


def test_criterion_01_model_validation(capsys):
    with criterion(capsys, 1, "model validation"):
        t0 = time.perf_counter()
        report = validate_model(load_model(FIXTURE_MODEL).spec)
        assert report.ok, [f"{v.rule}: {v.message}" for v in report.violations]
        assert len(BROKEN_MODELS) == 10
        for expected_rule, texts in BROKEN_MODELS.items():
            for text in (texts,) if isinstance(texts, str) else texts:
                rules = [v.rule for v in validate_model(parse_model(text).spec).violations]
                assert rules == [expected_rule], (
                    f"model for {expected_rule!r} produced {rules}")
        assert time.perf_counter() - t0 < 1.0


UPDATED = format_timestamp(datetime(2024, 3, 1, 8, tzinfo=timezone.utc))


def _keys_of_one_thing(tmp_path, formula: str) -> list[str]:
    """The member keys of `_thing_keyed(formula)`, validated clean, after
    loading one thing: 7, lamp, updated at UPDATED."""
    spec = parse_model(_thing_keyed(formula)).spec
    assert validate_model(spec).ok
    extract = tmp_path / "things.csv"
    extract.write_text("thing_id,thing_name,updated_at\n7,lamp,2024-03-01T08:00:00Z\n",
                       encoding="utf-8")
    warehouse = Warehouse(tmp_path / "wh")
    init_warehouse(warehouse, spec)
    ingest_file(warehouse, spec, "things", extract, now=rf.DEFAULT_NOW)
    load_all(warehouse, spec, now=rf.DEFAULT_NOW)
    return [row["thing_key"] for row in warehouse.read_rows("hs_demo", "hub_thing")][1:]


def test_a_hashed_nested_concat_is_clean_and_loads(tmp_path):
    keys = _keys_of_one_thing(
        tmp_path, 'concat("#", thing_id, sha256(concat("#", thing_name, updated_at)))')
    assert keys == [f"7#{sha256_hex('lamp#' + UPDATED)}"]


def test_a_literal_without_the_delimiter_is_clean_and_loads(tmp_path):
    keys = _keys_of_one_thing(
        tmp_path, 'concat("#", thing_id, cast("tail" as string), thing_name, updated_at)')
    assert keys == [f"7#tail#lamp#{UPDATED}"]


# --- criteria 2-3: determinism and idempotency --------------------------------


def test_criterion_02_reload_determinism(capsys, tmp_path, retail_spec, retail_data):
    with criterion(capsys, 2, "same keys on reload"):
        warehouse = run_pipeline(tmp_path / "wh", retail_spec, retail_data, gold=False)
        silver = retail_spec.schema_names["silver"]
        first_keys = {
            hub.table_name: sorted(
                row[hub.key_column]
                for row in warehouse.read_rows(silver, hub.table_name))
            for hub in retail_spec.hubs if hub.key_type == "computed"
        }
        first_bytes = silver_bytes(warehouse, retail_spec)

        shutil.rmtree(warehouse.root / silver)
        init_warehouse(warehouse, retail_spec)
        load_all(warehouse, retail_spec, now=rf.DEFAULT_NOW)

        for hub in retail_spec.hubs:
            if hub.key_type != "computed":
                continue
            again = sorted(row[hub.key_column]
                           for row in warehouse.read_rows(silver, hub.table_name))
            assert again == first_keys[hub.table_name], hub.table_name
        assert silver_bytes(warehouse, retail_spec) == first_bytes


def test_criterion_03_idempotent_reload(capsys, tmp_path, retail_spec, retail_data):
    with criterion(capsys, 3, "repeat load is a no-op"):
        warehouse = run_pipeline(tmp_path / "wh", retail_spec, retail_data, gold=False)
        before = silver_bytes(warehouse, retail_spec)
        results = load_all(warehouse, retail_spec, now=rf.DEFAULT_NOW)
        assert results, "expected one result per table mapping"
        for result in results:
            assert result.inserted == 0, result
            assert result.updated == 0, result
        assert silver_bytes(warehouse, retail_spec) == before


# --- criterion 4: oracle equivalence across batch splits ----------------------


def test_criterion_04_oracle_equivalence(capsys, tmp_path, retail_spec, retail_data):
    with criterion(capsys, 4, "batch splits match the full-history oracle"):
        t0 = time.perf_counter()
        for batches, seed in ((1, 0), (2, 101), (7, 202)):
            warehouse = run_pipeline(tmp_path / f"split{batches}", retail_spec,
                                     retail_data, batches=batches,
                                     rng=random.Random(seed), gold=False)
            problems = check_against_oracle(warehouse, retail_spec)
            assert problems == [], f"{batches} batch(es): {problems[:5]}"
        assert time.perf_counter() - t0 < 10.0


# --- criteria 5-7: silver invariants ------------------------------------------


def test_criterion_05_constraint_audit(capsys, loaded, retail_spec):
    with criterion(capsys, 5, "no constraint violations after a clean run"):
        findings = loaded.check_all(retail_spec.schema_names["silver"])
        assert findings == []


def test_criterion_06_default_rows(capsys, loaded, retail_spec):
    with criterion(capsys, 6, "default rows and null-key repair"):
        silver = retail_spec.schema_names["silver"]
        for hub in retail_spec.hubs:
            rows = loaded.read_rows(silver, hub.table_name)
            defaults = [r for r in rows if r[hub.key_column] == "-1"]
            assert len(defaults) == 1, hub.table_name
            d = defaults[0]
            assert d["load_source"] == 0
            for column in ("capture_timestamp", "load_timestamp",
                           "initial_capture_timestamp"):
                assert d[column] == EPOCH, (hub.table_name, column)

        # null business keys in the source land on the default row's key
        orders = loaded.read_rows(silver, "hub_sales_order")
        fk_defaulted = [r for r in orders
                        if r["sales_order_key"] != "-1" and r["customer_key"] == "-1"]
        assert len(fk_defaulted) == 7
        items = loaded.read_rows(silver, "star_sales_order_item")
        assert sum(1 for r in items if r["product_key"] == "-1") == 5

        # and no foreign-key column anywhere in silver is ever null
        for hub in retail_spec.hubs:
            fk_columns = [de.name for de in hub.descriptives if de.fk_hub]
            for r in loaded.read_rows(silver, hub.table_name):
                assert all(r[c] is not None for c in fk_columns), hub.table_name
        for star in retail_spec.stars:
            fk_columns = [p.column for p in star.hub_participants]
            for r in loaded.read_rows(silver, star.table_name):
                assert all(r[c] is not None for c in fk_columns), star.table_name


def test_criterion_07_item_explosion(capsys, loaded, retail_spec):
    with criterion(capsys, 7, "one star row per collection element"):
        bronze = retail_spec.schema_names["bronze"]
        silver = retail_spec.schema_names["silver"]
        lengths = [len(r["ordered_products"] or [])
                   for r in loaded.read_rows(bronze, "sales_orders")]
        items = loaded.read_rows(silver, "star_sales_order_item")
        assert len(items) == sum(lengths) == 577

        by_order: dict[str, list[int]] = {}
        for row in items:
            by_order.setdefault(row["sales_order_key"], []).append(
                row["sales_order_item_seq"])
        for key, seqs in by_order.items():
            assert sorted(seqs) == list(range(1, len(seqs) + 1)), key
        assert sorted(len(s) for s in by_order.values()) == sorted(
            n for n in lengths if n > 0)


# --- criteria 8-9: version history in gold -------------------------------------

_SCRIPTED_VALID_TO = (
    datetime(2023, 4, 30, 23, 59, 59, tzinfo=timezone.utc),
    datetime(2023, 8, 31, 23, 59, 59, tzinfo=timezone.utc),
    datetime(2024, 1, 31, 23, 59, 59, tzinfo=timezone.utc),
    None,
)
_SCRIPTED_VERSION_KEYS = tuple(
    f"{SCRIPTED_KEY}#{iso}"
    for iso in ("2023-02-01T00:00:00Z", "2023-05-01T00:00:00Z",
                "2023-09-01T00:00:00Z", "2024-02-01T00:00:00Z"))


def test_criterion_08_version_history(capsys, loaded, retail_spec):
    with criterion(capsys, 8, "address history across delete and reactivation"):
        assert sha256_hex(str(rf.SCRIPTED_CUSTOMER_ID)) == SCRIPTED_KEY
        silver = retail_spec.schema_names["silver"]
        gold = retail_spec.schema_names["gold"]

        versions = [r for r in loaded.read_rows(silver, "star_customer_address")
                    if r["customer_key"] == SCRIPTED_KEY]
        assert len(versions) == 7  # 4 versions + close-out, delete, reactivation
        assert sorted({r["valid_from"] for r in versions}) == list(rf.SCRIPTED_VALID_FROMS)
        assert {r["ship_to_address"] for r in versions} == set(rf.SCRIPTED_ADDRESSES)
        assert sum(1 for r in versions if r["delete_flag"]) == 1

        current = [r for r in loaded.read_rows(gold, "dim_customer")
                   if r["customer_key"] == SCRIPTED_KEY]
        assert len(current) == 1
        assert current[0]["customer_name"] == "Avery Quinn-Lee"
        assert current[0]["ship_to_address"] == "501 Maple Ct"
        assert current[0]["segment_name"] == "Gold"

        history = sorted((r for r in loaded.read_rows(gold, "dim_customer2")
                          if r["customer_key"] == SCRIPTED_KEY),
                         key=lambda r: r["valid_from"])
        assert [r["customer_version_key"] for r in history] == list(_SCRIPTED_VERSION_KEYS)
        assert [r["ship_to_address"] for r in history] == list(rf.SCRIPTED_ADDRESSES)
        assert [r["valid_to"] for r in history] == list(_SCRIPTED_VALID_TO)


def test_criterion_09_temporal_fact_join(capsys, loaded, retail_spec):
    with criterion(capsys, 9, "facts join the dimension version in force"):
        gold = retail_spec.schema_names["gold"]
        facts = loaded.read_rows(gold, "fact_order_item")
        dims = loaded.read_rows(gold, "dim_customer2")
        by_version = {r["customer_version_key"]: r for r in dims}
        by_customer: dict[str, list[dict]] = {}
        for r in dims:
            by_customer.setdefault(r["customer_key"], []).append(r)

        assert len(facts) == 577
        matched = 0
        for fact in facts:
            when = fact["order_datetime"]
            candidates = [
                v for v in by_customer.get(fact["customer_key"], ())
                if v["valid_from"] is not None and v["valid_from"] <= when
                and (v["valid_to"] is None or when <= v["valid_to"])
            ]
            assert len(candidates) <= 1, fact
            version_key = fact["customer_version_key"]
            if version_key is None:
                assert candidates == [], fact
                continue
            matched += 1
            version = by_version[version_key]
            assert version["valid_from"] <= when
            assert version["valid_to"] is None or when <= version["valid_to"]
            assert candidates == [version]
        assert matched == 517


# --- criteria 10-12: rebuilds, hashing, round-trips ----------------------------


def test_criterion_10_gold_rebuild_determinism(capsys, tmp_path, retail_spec, retail_data):
    with criterion(capsys, 10, "rebuilding gold changes nothing"):
        warehouse = run_pipeline(tmp_path / "wh", retail_spec, retail_data)
        first = gold_bytes(warehouse, retail_spec)
        assert len(first) == 4
        build_all(warehouse, retail_spec, now=rf.DEFAULT_NOW)
        assert gold_bytes(warehouse, retail_spec) == first


def test_criterion_11_hash_conformance(capsys):
    with criterion(capsys, 11, "sha256 digests match the reference values"):
        assert sha256_hex("42") == SHA_42
        assert sha256_hex("") == SHA_EMPTY


def test_criterion_12_dsl_round_trip(capsys):
    with criterion(capsys, 12, "random models survive parse/render/parse"):
        t0 = time.perf_counter()
        rng = random.Random(20240819)
        for i in range(100):
            text = random_model_text(rng)
            spec = parse_model(text).spec
            canon = render_model(spec)
            assert parse_model(canon).spec == spec, f"model {i}"
            assert render_model(parse_model(canon).spec) == canon, f"model {i}"
        assert time.perf_counter() - t0 < 5.0
