"""Byte identity of the warehouse against recorded digests.

The retail fixture runs at 1x in a few incremental batches, with fixed `now`
and file mtimes, through init, ingest, `load_all` and `build_all`. The sha256
of every silver and gold `data` file and of every bronze, silver and gold
`manifest` must match `golden_retail.json`, which was recorded from an
earlier version of the engine. Data entries are keyed `<schema>.<table>`,
manifest entries `<schema>.<table>/manifest`. The determinism criteria in
test_acceptance compare two runs of the same code; this test compares the
code with its past, so a refactor that changes any stored byte fails here.

The front end is pinned the same way: `golden_dsl.json` holds, for each of
1,000 seeded mutations of the retail model text, its `ParseError` string
(position included) or the sha256 of `render_model` of what it parses to,
as an earlier version of the front end gave them. `golden_validate.json`
pins the validator: for each of 1,000 `randmodels` samples at a fixed seed,
the sha256 of the JSON form of its in-order (rule, location) list.
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from hubstar import parse_model, render_model, validate_model
from hubstar import retail_fixture as rf
from hubstar.errors import ParseError

from conftest import FIXTURE_MODEL, run_pipeline
from randmodels import random_model_text

GOLDEN = Path(__file__).resolve().parent / "golden_retail.json"
BATCHES = 4
MANIFEST_SUFFIX = "/manifest"
FRONT_END_GOLDEN = GOLDEN.with_name("golden_dsl.json")
MUTANTS = 1000
VALIDATOR_GOLDEN = GOLDEN.with_name("golden_validate.json")
MODELS = 1000
VALIDATOR_SEED = 13
# inserted characters: every token class, an accented letter and its capital
INSERTS = '{}(),=."\\#-_ \t\n\r09azAZ%\u00e9\u00c9'


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


def _mutants(text: str, count: int, seed: int = 6):
    """`count` copies of `text`, each with one to three random edits: a line
    duplicated, dropped or truncated, or a character inserted or deleted."""
    rng = random.Random(seed)
    for _ in range(count):
        mutant = text
        for _ in range(rng.randint(1, 3)):
            lines = mutant.splitlines(keepends=True)
            i = rng.randrange(len(lines))
            at = rng.randrange(len(mutant))
            edit = rng.randrange(5)
            if edit == 0:
                lines.insert(i, lines[i])
            elif edit == 1:
                del lines[i]
            elif edit == 2:
                lines[i] = lines[i][:rng.randrange(len(lines[i]))]
            mutant = "".join(lines)
            if edit == 3:
                mutant = mutant[:at] + rng.choice(INSERTS) + mutant[at:]
            elif edit == 4:
                mutant = mutant[:at] + mutant[at + 1:]
        yield mutant


def _front_end_outcomes() -> list[str]:
    outcomes = []
    for text in _mutants(FIXTURE_MODEL.read_text(encoding="utf-8"), MUTANTS):
        try:
            rendered = render_model(parse_model(text).spec)
        except ParseError as err:
            outcomes.append(str(err))
        else:
            outcomes.append(hashlib.sha256(rendered.encode("utf-8")).hexdigest())
    return outcomes


def test_front_end_matches_recorded_outcomes():
    recorded = json.loads(FRONT_END_GOLDEN.read_text(encoding="utf-8"))
    for i, (got, want) in enumerate(zip(_front_end_outcomes(), recorded, strict=True)):
        assert got == want, f"mutant {i}"


def _validator_outcomes() -> list[list[tuple[str, str]]]:
    """The in-order (rule, location) list of `validate_model` for each of
    1,000 `randmodels` samples at a fixed seed."""
    rng = random.Random(VALIDATOR_SEED)
    return [[(v.rule, v.location) for v in validate_model(parse_model(
                random_model_text(rng)).spec).violations]
            for _ in range(MODELS)]


def _digest(violations: list[tuple[str, str]]) -> str:
    return hashlib.sha256(json.dumps(violations).encode("utf-8")).hexdigest()


def test_validator_matches_recorded_outcomes():
    recorded = json.loads(VALIDATOR_GOLDEN.read_text(encoding="utf-8"))
    outcomes = _validator_outcomes()
    differ = [f"model {i}: {violations}"
              for i, (violations, want) in enumerate(zip(outcomes, recorded, strict=True))
              if _digest(violations) != want]
    assert not differ, "\n".join(differ)
