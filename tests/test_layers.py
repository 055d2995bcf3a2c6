"""The import graph keeps the oracle and storage apart from what they must
not borrow.

The oracle is a reference the loads are checked against: it may share
their staging (`silver.stage`, and `silver.Reads`, the one object a
command's stagings share: its bronze reads and the silver tables its key
lookups read) and the default row, but it ranks, matches and merges on its
own, so it imports nothing else of `silver` and nothing of the engine's
ranking. Staging also makes a computed hub's own key: in `silver` only
`stage` and the reference resolver read a key formula, and the oracle
reads none. Bronze is read past an offset only through `Reads`, where the
mappings of one source share the read, and a silver table only through
`Reads.table`, once per command and only for a table with bronze past a
position or without a state record; its loads and key lookups share that
read. The package imports nothing outside the standard library. Storage
sits below every layer and imports none, tells a hub's default row only by
its load source and keeps no state per table in a `Warehouse`; a timestamp
crosses its row codec only through the codec's memos, and one compiler
branches on a column's type for both directions of the codec.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hubstar"
LAYERS = {"bronze", "silver", "gold", "oracle", "cli", "dsl"}


def tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def imports(module: str) -> dict[str, set[str]]:
    """The package modules a module imports from, each with the names it
    takes; `from . import x` takes all of x, written `*`."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(tree(module)):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = ".".join(filter(None, ["hubstar" if node.level else None, node.module]))
        if source == "hubstar":
            for alias in node.names:
                found.setdefault(alias.name, set()).add("*")
        elif source.startswith("hubstar."):
            found.setdefault(source.removeprefix("hubstar."), set()).update(
                alias.name for alias in node.names)
    return found


def test_the_oracle_shares_only_staging_and_the_default_row_with_silver():
    assert imports("oracle").get("silver", set()) <= {
        "Reads", "default_row", "is_default_row", "stage"}


def test_the_oracle_does_not_borrow_the_engines_ranking():
    names = set()
    for node in ast.walk(tree("oracle")):
        names.update([getattr(node, "id", None), getattr(node, "attr", None),
                      getattr(node, "name", None)])
    assert "top_per_partition" not in names


def readers(module: str, attribute: str) -> set[str]:
    """The top-level definitions of a module that read `attribute` of
    something."""
    return {getattr(node, "name", "<module>") for node in tree(module).body
            for inner in ast.walk(node)
            if isinstance(inner, ast.Attribute) and inner.attr == attribute}


def test_a_computed_hubs_key_is_made_only_while_staging():
    assert readers("silver", "key_formula") == {"stage", "_fk_resolver"}
    assert readers("oracle", "key_formula") == set()


def test_the_package_imports_only_the_standard_library():
    # hubstar is standard-library Python: it installs with no dependency.
    imported = set()  # (file, module) for each absolute import
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(tree(path.stem)):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add((path.name, node.module))
    assert {(file, module) for file, module in imported
            if module.partition(".")[0] not in sys.stdlib_module_names} == set()


def test_storage_imports_no_layer():
    assert LAYERS.isdisjoint(imports("storage"))


def namers(module: str, name: str) -> set[str]:
    """The top-level definitions of a module that name `name`."""
    return {getattr(node, "name", "<module>") for node in tree(module).body
            for inner in ast.walk(node)
            if isinstance(inner, ast.Name) and inner.id == name}


def test_storage_tells_a_default_row_by_its_load_source_not_its_key():
    # One rule: the default row is the one no source loaded.
    assert "DEFAULT_HUB_KEY" not in imports("storage").get("model", set())
    assert namers("storage", "DEFAULT_HUB_KEY") == set()


def test_in_silver_only_the_default_row_and_its_rule_name_the_system_load_source():
    # The default row, its predicate, and staging's refusal of a source that
    # declares the system's load source.
    assert namers("silver", "SYSTEM_LOAD_SOURCE") == {"default_row", "is_default_row", "stage"}


def test_a_warehouse_holds_no_state_per_table():
    # The rows it keeps for a table it splices live on the table's manifest
    # object, so a changed manifest keeps none.
    warehouse = next(node for node in tree("storage").body
                     if getattr(node, "name", None) == "Warehouse")
    init = next(node for node in warehouse.body if getattr(node, "name", None) == "__init__")
    assert {target.attr for node in ast.walk(init)
            for target in getattr(node, "targets", [getattr(node, "target", None)])
            if isinstance(target, ast.Attribute)} == {"root", "_manifests"}


def test_timestamps_cross_storage_only_through_the_codecs_memos():
    # A direct call elsewhere would format or parse past the memo.
    assert namers("storage", "parse_stored_timestamp") == {"_timestamp_value"}
    assert namers("storage", "format_timestamp") == {"_encode_scalar"}


def test_storage_branches_on_a_columns_type_only_in_its_codec_compiler():
    # A second branch would be a second copy of the codec's type rules.
    assert readers("storage", "type") == {"_compile", "_column_to_json"}


def test_bronze_is_read_after_a_mark_only_while_staging():
    # Only `Reads` reads a data file past an offset (`Warehouse.tail`):
    # another such read would decode a source again, past the read `Reads`
    # shares between the mappings of one command.
    calls = {(path.stem, getattr(node, "name", "<module>"))
             for path in sorted(PACKAGE.glob("*.py")) for node in tree(path.stem).body
             for inner in ast.walk(node)
             if isinstance(inner, ast.Call) and getattr(inner.func, "attr", None) == "tail"}
    assert calls == {("silver", "Reads")}


def calls(nodes, name: str) -> list[ast.Call]:
    """The calls of a function or method `name` within `nodes`."""
    return [inner for node in nodes for inner in ast.walk(node)
            if isinstance(inner, ast.Call)
            and name in (getattr(inner.func, "attr", None), getattr(inner.func, "id", None))]


def test_only_reads_table_reads_a_silver_table_and_only_for_a_table_with_new_bronze():
    # A load without new bronze would otherwise decode every row of its
    # table to merge nothing; a second reader would decode a table that a
    # load, a later mapping of its table or a key lookup has read already.
    body = {getattr(node, "name", None): node for node in tree("silver").body}
    reads = {node.name: node for node in body["Reads"].body if isinstance(node, ast.FunctionDef)}
    assert {name for name, node in reads.items() if calls([node], "read_rows")} == {
        "bronze", "table"}
    [bronze] = calls([reads["bronze"]], "read_rows")
    assert [keyword.arg for keyword in bronze.keywords] == ["snapshot"]  # a tail's
    assert calls([node for name, node in body.items() if name != "Reads"], "read_rows") == []
    # `load_all` reads a table before any load writes, when a load will.
    guarded = [call for node in ast.walk(body["load_all"]) if isinstance(node, ast.If)
               and ast.unparse(node.test) == ("element.table_name in fed or "
                                              "reads.states[element.table_name] is None")
               for call in calls(node.body, "table")]
    assert len(guarded) == 1 and calls([body["load_all"]], "table") == guarded
    # A load takes the table only past its return for a record with no new bronze.
    load = body["_load"]
    [early] = [node for node in load.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "not bronze_rows and state is not None"]
    assert isinstance(early.body[-1], ast.Return)
    [table] = calls([load], "table")
    assert early.lineno < table.lineno
    assert calls([load], "max_capture_timestamp") == []
