"""Byte identity of the silver and gold layers against recorded digests.

The retail fixture runs at 1x in a few incremental batches, with fixed `now`
and file mtimes, through init, ingest, `load_all` and `build_all`. The sha256
of every silver and gold `data` file must match `golden_retail.json`, which
was recorded from an earlier version of the engine. The determinism criteria
in test_acceptance compare two runs of the same code; this test compares the
code with its past, so a refactor that changes any stored byte fails here.
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from hubstar import retail_fixture as rf

from conftest import run_pipeline

GOLDEN = Path(__file__).resolve().parent / "golden_retail.json"
BATCHES = 4


def retail_digests(root: Path, spec, fixture) -> dict[str, str]:
    """`<schema>.<table>` -> sha256 of its data file, silver and gold only."""
    warehouse = run_pipeline(root, spec, fixture, batches=BATCHES,
                             rng=random.Random(rf.SEED))
    digests = {}
    for layer in ("silver", "gold"):
        schema = spec.schema_names[layer]
        for table in warehouse.list_tables(schema):
            data = (warehouse.table_dir(schema, table) / "data").read_bytes()
            digests[f"{schema}.{table}"] = hashlib.sha256(data).hexdigest()
    return digests


def test_silver_and_gold_bytes_match_recorded_digests(tmp_path, retail_spec, retail_data):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert retail_digests(tmp_path, retail_spec, retail_data) == expected
