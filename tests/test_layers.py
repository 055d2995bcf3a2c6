"""The import graph keeps the oracle and storage apart from what they must
not borrow.

The oracle is a reference the loads are checked against: it may share
their staging (`silver.stage`, and `silver.Reads`, what one command's
stagings share) and the default row, but it ranks, matches and merges on
its own, so it imports nothing else of `silver` and nothing of the engine's
ranking. Staging also makes a computed hub's own key: in
`silver` only `stage` and the reference resolver read a key formula, and
the oracle reads none. Bronze is read after a mark only while staging,
where the mappings of one source share the read, and a load decodes its
own table only when staging gives it candidates. Storage sits below every
layer and imports none,
a timestamp crosses its row codec only through the codec's memos, and one
compiler branches on a column's type for both directions of the codec.
"""

from __future__ import annotations

import ast
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


def test_storage_imports_no_layer():
    assert LAYERS.isdisjoint(imports("storage"))


def namers(module: str, name: str) -> set[str]:
    """The top-level definitions of a module that name `name`."""
    return {getattr(node, "name", "<module>") for node in tree(module).body
            for inner in ast.walk(node)
            if isinstance(inner, ast.Name) and inner.id == name}


def test_timestamps_cross_storage_only_through_the_codecs_memos():
    # A direct call elsewhere would format or parse past the memo.
    assert namers("storage", "parse_stored_timestamp") == {"_timestamp_value"}
    assert namers("storage", "format_timestamp") == {"_encode_scalar"}


def test_storage_branches_on_a_columns_type_only_in_its_codec_compiler():
    # A second branch would be a second copy of the codec's type rules.
    assert readers("storage", "type") == {"_compile", "_column_to_json"}


def test_bronze_is_read_after_a_mark_only_while_staging():
    # Another such read would decode a source again, past the read `stage`
    # shares between the mappings of one command.
    calls = {(path.stem, getattr(node, "name", "<module>"))
             for path in sorted(PACKAGE.glob("*.py")) for node in tree(path.stem).body
             for inner in ast.walk(node)
             if isinstance(inner, ast.Call) and getattr(inner.func, "attr", None) == "read_rows"
             and any(keyword.arg == "captured_after" for keyword in inner.keywords)}
    assert calls == {("silver", "stage")}


def test_a_load_decodes_its_table_only_after_staging_gives_candidates():
    # A load without candidates would otherwise decode every row of its
    # table to merge nothing: its mark comes from the text of the lines.
    load = next(node for node in tree("silver").body if getattr(node, "name", None) == "_load")

    def calls(nodes, name: str) -> list[ast.Call]:
        return [inner for node in nodes for inner in ast.walk(node)
                if isinstance(inner, ast.Call)
                and name in (getattr(inner.func, "attr", None), getattr(inner.func, "id", None))]

    [staging] = [node for node in ast.walk(load) if isinstance(node, ast.Assign)
                 and [getattr(target, "id", None) for target in node.targets] == ["staged"]
                 and calls([node.value], "stage")]
    guarded = [call for node in ast.walk(load)
               if isinstance(node, (ast.If, ast.IfExp)) and getattr(node.test, "id", None) == "staged"
               for call in calls(node.body if isinstance(node.body, list) else [node.body],
                                 "read_rows")]
    assert len(guarded) == 1 and calls([load], "read_rows") == guarded
    assert staging.lineno < guarded[0].lineno
