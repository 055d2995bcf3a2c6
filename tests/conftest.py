from __future__ import annotations

import os
import random
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

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


# A model edit that gives hub customer a mapped column its stored manifest
# lacks: loading under it must be refused, not drop the values.
SHIP_TO = (("  descriptive customer_name string required\n",
            "  descriptive customer_name string required\n  descriptive ship_to string\n"),
           ("    map customer_name = customer_name\n",
            "    map customer_name = customer_name\n    map ship_to = ship_to_address\n"))


def edited_retail(*edits: tuple[str, str]) -> str:
    """The retail model's text with each (old, new) of `edits` applied to
    the one place `old` occurs."""
    text = FIXTURE_MODEL.read_text(encoding="utf-8")
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return text


def file_bytes(root: Path) -> dict[str, bytes]:
    """Every file under `root`, by relative path."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def storage_os(**calls) -> SimpleNamespace:
    """The `os` module as `storage` calls it, with `calls` in place of some
    of its functions: patched in as `storage.os`, they reach storage's
    calls and no other code's."""
    return SimpleNamespace(**{**vars(os), **calls})


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


@pytest.fixture()
def rows_encoded(monkeypatch) -> Counter:
    """Counts the rows storage encodes from here on, by schema."""
    calls: Counter = Counter()
    encode_row = storage.encode_row

    def counted(manifest, row):
        calls[manifest.schema] += 1
        return encode_row(manifest, row)

    monkeypatch.setattr(storage, "encode_row", counted)
    return calls
