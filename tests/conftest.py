from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

import pytest

from hubstar import (
    Warehouse,
    build_all,
    ingest_file,
    init_warehouse,
    load_all,
    load_model,
    validate_model,
)
from hubstar import retail_fixture as rf
from hubstar import storage

FIXTURE_MODEL = Path(__file__).resolve().parent.parent / "fixtures" / "retail.hsm"


@pytest.fixture(scope="session")
def retail_spec():
    """The retail demo model, parsed and validated once per session."""
    doc = load_model(FIXTURE_MODEL)
    report = validate_model(doc.spec)
    assert report.ok, [f"{v.rule}: {v.location}: {v.message}" for v in report.violations]
    return doc.spec


@pytest.fixture(scope="session")
def retail_data():
    return rf.generate()


def run_pipeline(root: Path, spec, fixture, batches: int = 1,
                 rng: random.Random | None = None, gold: bool = True) -> Warehouse:
    """End-to-end run: ingest the fixture in `batches` consecutive chunks,
    loading silver incrementally after each chunk, then build gold."""
    warehouse = Warehouse(root)
    init_warehouse(warehouse, spec)
    for jobs in rf.write_batches(fixture, root / "inbox", batches, rng):
        for job in jobs:
            ingest_file(warehouse, spec, job.source, job.path,
                        now=rf.DEFAULT_NOW, mtime=job.mtime)
        load_all(warehouse, spec, now=rf.DEFAULT_NOW)
    if gold:
        build_all(warehouse, spec, now=rf.DEFAULT_NOW)
    return warehouse


@pytest.fixture(scope="session")
def loaded(tmp_path_factory, retail_spec, retail_data):
    """A fully loaded warehouse (single batch, gold built). Read-only: tests
    that mutate tables must build their own root."""
    root = tmp_path_factory.mktemp("retail_wh")
    return run_pipeline(root, retail_spec, retail_data)


class Decodes(Counter):
    """`storage.decode_row` calls by (schema, table), and in `lines` each
    decoded line in call order."""

    def __init__(self):
        super().__init__()
        self.lines: list[str] = []

    def clear(self):
        super().clear()
        self.lines.clear()

    def in_schema(self, schema: str) -> int:
        return sum(n for (s, _table), n in self.items() if s == schema)


@pytest.fixture()
def decoded(monkeypatch) -> Decodes:
    """Counts the rows storage decodes from here on (see `Decodes`)."""
    decodes = Decodes()
    decode_row = storage.decode_row

    def counted(manifest, line):
        decodes[manifest.schema, manifest.table] += 1
        decodes.lines.append(line)
        return decode_row(manifest, line)

    monkeypatch.setattr(storage, "decode_row", counted)
    return decodes
