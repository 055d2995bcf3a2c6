"""Smoke test of the benchmark at 1x with a few batches.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

HUBSTAR = run.import_hubstar()
import spans  # noqa: E402  (imports hubstar, so it comes after import_hubstar)

SMALL = {
    "full_load": run.Workload(scale=1, batches=1),
    "incremental": run.Workload(scale=1, batches=3),
}
CONTRACT = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def small_run(name: str, traced: bool) -> dict:
    return run.run(HUBSTAR, name, SMALL[name], seed=7, seconds=0, traced=traced)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_run_is_correct_and_reports_every_metric(name, traced):
    result = small_run(name, traced)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = CONTRACT["per_layer" if traced else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not traced:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_contract_names_the_workloads_and_metrics():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in CONTRACT["end_to_end"]} == set(run.END_TO_END)
    assert {m["name"] for m in CONTRACT["per_layer"]} == set(run.PER_LAYER)


@pytest.mark.parametrize("recorded", [
    {SMALL["full_load"].config: {"7": {"hs_retail/hub_customer": "0" * 64}}},
    {},  # nothing recorded for the workload and seed
])
def test_digest_mismatch_fails_the_run(tmp_path, monkeypatch, recorded):
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps(recorded))
    monkeypatch.setattr(run, "DIGESTS_PATH", digests)
    result = small_run("full_load", traced=False)
    assert not result["correct"] and result["failed"] > 0


def test_absent_wrapped_name_is_reported(monkeypatch):
    silver = HUBSTAR.silver
    monkeypatch.setattr(spans, "WRAPPED", spans.WRAPPED + (
        (silver, "no_such_loader", "silver.no_such_loader", None, None),))
    original = silver.load_hub
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["hubstar.silver.no_such_loader"]
        assert silver.load_hub is not original
    finally:
        tracer.uninstall()
    assert silver.load_hub is original


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark's own files cannot pass."""
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "full_load",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
