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

`golden_audit.json` pins the constraint audit: for each of 50 seeded
corruptions of the warehouse above (one to three of: a null in a
non-nullable column, a duplicated line, two hub members with one business
identity, a foreign key to a missing key, a null foreign key, a missing
referenced table), the sha256 of the in-order lines of `check_all` for each
schema and of `check_constraints` for each silver table.
`golden_oracle.json` pins the oracle over the same 50 corruptions: the
sha256 of the in-order lines of `check_against_oracle`, once without and
once with the volatile columns, or the class name of what it raised.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
import shutil
from pathlib import Path
from typing import NamedTuple

import pytest

from hubstar import (
    Warehouse,
    check_against_oracle,
    parse_model,
    render_model,
    validate_model,
)
from hubstar import retail_fixture as rf
from hubstar.cli import main
from hubstar.errors import ParseError, StorageError
from hubstar.model import DEFAULT_HUB_KEY, LAYERS
from hubstar.storage import decode_row, encode_row

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
AUDIT_GOLDEN = GOLDEN.with_name("golden_audit.json")
CORRUPTIONS = 50
AUDIT_SEED = 17
ORACLE_GOLDEN = GOLDEN.with_name("golden_oracle.json")
# inserted characters: every token class, an accented letter and its capital
INSERTS = '{}(),=."\\#-_ \t\n\r09azAZ%\u00e9\u00c9'


@pytest.fixture(scope="module")
def golden_wh(tmp_path_factory, retail_spec, retail_data) -> Warehouse:
    """The retail fixture at 1x in BATCHES batches, gold built. Read-only."""
    return run_pipeline(tmp_path_factory.mktemp("golden"), retail_spec, retail_data,
                        batches=BATCHES, rng=random.Random(rf.SEED))


@pytest.fixture(scope="module")
def digests(golden_wh, retail_spec) -> dict[str, str]:
    """sha256 of every silver and gold data file and every manifest."""
    out = {}
    for layer in LAYERS:
        schema = retail_spec.schema_names[layer]
        for table in golden_wh.list_tables(schema):
            table_dir = golden_wh.table_dir(schema, table)
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


def _digest(violations: list) -> str:
    return hashlib.sha256(json.dumps(violations).encode("utf-8")).hexdigest()


def test_validator_matches_recorded_outcomes():
    recorded = json.loads(VALIDATOR_GOLDEN.read_text(encoding="utf-8"))
    outcomes = _validator_outcomes()
    differ = [f"model {i}: {violations}"
              for i, (violations, want) in enumerate(zip(outcomes, recorded, strict=True))
              if _digest(violations) != want]
    assert not differ, "\n".join(differ)


def _edit_rows(warehouse: Warehouse, schema: str, table: str, edit):
    """Rewrite a table's data file with `edit` applied to its list of rows."""
    manifest = warehouse.manifest(schema, table)
    data = warehouse.table_dir(schema, table) / "data"
    rows = [decode_row(manifest, line)
            for line in data.read_text(encoding="utf-8").split("\n") if line]
    edit(rows)
    data.write_text("".join(encode_row(manifest, r) + "\n" for r in rows), encoding="utf-8")


class _Targets(NamedTuple):
    """What the corruptions of one warehouse draw from, listed once."""

    not_null: list[tuple[str, str, str]]  # (schema, table, non-nullable column)
    tables: list[tuple[str, str]]  # every table that holds rows
    hubs: list  # HubDef
    foreign_keys: list[tuple[str, str, str]]  # (schema, table, foreign-key column)


def _targets(warehouse: Warehouse, spec) -> _Targets:
    tables = [(spec.schema_names[layer], table) for layer in LAYERS
              for table in warehouse.list_tables(spec.schema_names[layer])
              if warehouse.read_rows(spec.schema_names[layer], table)]
    manifests = [warehouse.manifest(*t) for t in tables]
    return _Targets(
        [(m.schema, m.table, c.name) for m in manifests for c in m.columns if not c.nullable],
        tables, list(spec.hubs),
        [(m.schema, m.table, fk.columns[0]) for m in manifests for fk in m.foreign_keys])


def _corrupt(warehouse: Warehouse, spec, rng: random.Random, targets: _Targets):
    """One seeded corruption of the warehouse's files; none when what it
    draws is a table an earlier one removed."""
    silver = spec.schema_names["silver"]
    kind = rng.randrange(6)
    hub = rng.choice(targets.hubs)
    if kind == 0:  # a null in a non-nullable column
        schema, table, column = rng.choice(targets.not_null)
    elif kind == 1:  # a duplicated line
        schema, table = rng.choice(targets.tables)
    elif kind == 2:  # two hub members with one business identity
        schema, table = silver, hub.table_name
    elif kind in (3, 4):  # a foreign key to a missing key, or a null one
        schema, table, column = rng.choice(targets.foreign_keys)
    else:  # a missing referenced table
        schema, table = silver, hub.table_name
    if not warehouse.table_exists(schema, table):
        return
    if kind == 5:
        shutil.rmtree(warehouse.table_dir(schema, table))
        return

    def edit(rows):
        if kind == 1:
            rows.insert(rng.randrange(len(rows) + 1), dict(rng.choice(rows)))
        elif kind == 2:
            members = [r for r in rows if r[hub.key_column] != DEFAULT_HUB_KEY]
            source, target = rng.sample(members, 2)
            target.update({c: source[c] for c in hub.business_identity})
        else:  # one to three rows; missing keys may repeat
            for row in rng.sample(rows, min(len(rows), rng.randint(1, 3))):
                row[column] = f"missing-{rng.randrange(3)}" if kind == 3 else None
    _edit_rows(warehouse, schema, table, edit)


def _corruptions(root: Path, spec):
    """Each of the seeded corruptions of a copy of the warehouse at `root`,
    as a fresh `Warehouse` over the copy; the copy goes once the caller has
    read it."""
    rng = random.Random(AUDIT_SEED)
    targets = _targets(Warehouse(root), spec)
    for case in range(CORRUPTIONS):
        copy = root.with_name(f"{root.name}-corrupt-{case}")
        shutil.copytree(root, copy)
        warehouse = Warehouse(copy)
        for _ in range(rng.randint(1, 3)):
            _corrupt(warehouse, spec, rng, targets)
        yield warehouse
        shutil.rmtree(copy)


def _audit_outcomes(root: Path, spec) -> list[dict[str, list[str]]]:
    """For each seeded corruption of a copy of the warehouse at `root`, the
    in-order lines of `check_all` for each schema and of `check_constraints`
    for each silver table."""
    silver = spec.schema_names["silver"]
    outcomes = []
    for warehouse in _corruptions(root, spec):
        lines = {f"check_all {spec.schema_names[layer]}":
                 warehouse.check_all(spec.schema_names[layer]) for layer in LAYERS}
        for table in warehouse.list_tables(silver):
            lines[f"check_constraints {silver}.{table}"] = \
                warehouse.check_constraints(silver, table)
        outcomes.append(lines)
    return outcomes


def test_audit_matches_recorded_outcomes(golden_wh, retail_spec):
    recorded = json.loads(AUDIT_GOLDEN.read_text(encoding="utf-8"))
    outcomes = _audit_outcomes(golden_wh.root, retail_spec)
    differ = [f"corruption {i}, {call}: {lines}"
              for i, (audit, want) in enumerate(zip(outcomes, recorded, strict=True))
              for call, lines in audit.items()
              if want.get(call) != _digest(lines)]
    differ += [f"corruption {i}: calls {sorted(set(audit) ^ set(want))} differ"
               for i, (audit, want) in enumerate(zip(outcomes, recorded))
               if set(audit) != set(want)]
    assert not differ, "\n".join(differ)


def _oracle_outcomes(root: Path, spec) -> list[dict[str, str]]:
    """For each seeded corruption, by `include_volatile`: the digest of the
    in-order lines of `check_against_oracle`, or the class name of what it
    raised."""
    outcomes = []
    for warehouse in _corruptions(root, spec):
        outcome = {}
        for volatile in (False, True):
            try:
                outcome[f"include_volatile={volatile}"] = _digest(
                    check_against_oracle(warehouse, spec, include_volatile=volatile))
            except StorageError as err:  # a removed table; a null capture time
                outcome[f"include_volatile={volatile}"] = type(err).__name__
        outcomes.append(outcome)
    return outcomes


def test_oracle_matches_recorded_outcomes(golden_wh, retail_spec):
    recorded = json.loads(ORACLE_GOLDEN.read_text(encoding="utf-8"))
    outcomes = _oracle_outcomes(golden_wh.root, retail_spec)
    differ = [f"corruption {i}: {got} != {want}"
              for i, (got, want) in enumerate(zip(outcomes, recorded, strict=True))
              if got != want]
    assert not differ, "\n".join(differ)


def test_check_prints_the_audit_findings_before_an_oracle_error(golden_wh, retail_spec,
                                                                capsys):
    """Corruption 2 removes `hub_sales_order`, so the oracle raises: `hubstar
    check --against-oracle` prints every audit finding, then the error, and
    exits 2."""
    corruptions = _corruptions(golden_wh.root, retail_spec)
    warehouse = next(itertools.islice(corruptions, 2, None))
    try:
        findings = sorted(line for schema in retail_spec.schema_names.values()
                          for line in warehouse.check_all(schema))
        rc = main(["check", "--model", str(FIXTURE_MODEL), "--root", str(warehouse.root),
                   "--against-oracle"])
    finally:
        corruptions.close()
        shutil.rmtree(warehouse.root)
    out, err = capsys.readouterr()
    assert rc == 2
    assert any("missing table hs_retail.hub_sales_order" in line for line in findings)
    assert out.splitlines() == findings
    assert err.splitlines()[-1] == "error: no such table hs_retail.hub_sales_order"


def test_check_prints_the_audit_findings_before_an_oracle_load_error(golden_wh, retail_spec,
                                                                     tmp_path, capsys):
    """A null `load_timestamp` in silver is an audit finding; a null business
    key in bronze makes the oracle refuse what no load could stage. `check
    --against-oracle` prints the finding, then the oracle's error, and
    exits 2."""
    root = tmp_path / "wh"
    shutil.copytree(golden_wh.root, root)
    warehouse = Warehouse(root)
    bronze, silver = retail_spec.schema_names["bronze"], retail_spec.schema_names["silver"]
    _edit_rows(warehouse, silver, "hub_product", lambda rows: rows[1].update(load_timestamp=None))
    _edit_rows(warehouse, bronze, "customers", lambda rows: rows[0].update(customer_id=None))
    rc = main(["check", "--model", str(FIXTURE_MODEL), "--root", str(root), "--against-oracle"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out.splitlines() == [f"{silver}.hub_product: column load_timestamp is not nullable "
                                "but holds 1 null(s)"]
    assert err.splitlines()[-1] == (f"error: {silver}.hub_customer <- {bronze}.customers: "
                                    "line 1: business key customer_id is null")
