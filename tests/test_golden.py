"""Byte identity of the warehouse against recorded digests.

The retail fixture runs at 1x in a few incremental batches, with fixed `now`
and file mtimes, through init, ingest, `load_all` and `build_all`. The sha256
of every silver and gold `data` file and of every bronze, silver and gold
`manifest` must match `golden_retail.json`, which was recorded from an
earlier version of the engine. Data entries are keyed `<schema>.<table>`,
manifest entries `<schema>.<table>/manifest`. The determinism criteria in
test_acceptance compare two runs of the same code; this test compares the
code with its past, so a refactor that changes any stored byte fails here.
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from hubstar import retail_fixture as rf

from conftest import run_pipeline

GOLDEN = Path(__file__).resolve().parent / "golden_retail.json"
BATCHES = 4
MANIFEST_SUFFIX = "/manifest"


@pytest.fixture(scope="module")
def digests(tmp_path_factory, retail_spec, retail_data) -> dict[str, str]:
    """sha256 of every silver and gold data file and every manifest."""
    warehouse = run_pipeline(tmp_path_factory.mktemp("golden"), retail_spec, retail_data,
                             batches=BATCHES, rng=random.Random(rf.SEED))
    out = {}
    for layer in ("bronze", "silver", "gold"):
        schema = retail_spec.schema_names[layer]
        for table in warehouse.list_tables(schema):
            table_dir = warehouse.table_dir(schema, table)
            if layer != "bronze":
                out[f"{schema}.{table}"] = hashlib.sha256(
                    (table_dir / "data").read_bytes()).hexdigest()
            out[f"{schema}.{table}{MANIFEST_SUFFIX}"] = hashlib.sha256(
                (table_dir / "manifest").read_bytes()).hexdigest()
    return out


def _select(entries: dict[str, str], manifests: bool) -> dict[str, str]:
    return {k: v for k, v in entries.items() if k.endswith(MANIFEST_SUFFIX) == manifests}


def _recorded() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_silver_and_gold_bytes_match_recorded_digests(digests):
    assert _select(digests, manifests=False) == _select(_recorded(), manifests=False)


def test_every_manifest_matches_recorded_digests(digests):
    assert _select(digests, manifests=True) == _select(_recorded(), manifests=True)
