"""No dead code: every private function, method and class of the package
is used somewhere in the package outside its own definition, every
public top-level function and class is named somewhere outside it, and
every module-level import is named by its module.

Private references are matched by name (a bare name or an attribute), so a
private name defined twice passes when either definition is used. A public
name counts as named when it appears as a word in the package, the
benchmark, the docs or README.md: the benchmark's tracer wraps some that
the package never calls, and the README documents others.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hubstar"


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_every_private_definition_is_referenced_outside_itself():
    definitions = []  # (module, name, first line, last line)
    references: dict[str, list[tuple[str, int]]] = {}  # name -> (module, line)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if is_private(node.name):
                    definitions.append((path.name, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                references.setdefault(node.id, []).append((path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.setdefault(node.attr, []).append((path.name, node.lineno))
    assert definitions, "no private definitions found; is PACKAGE right?"
    unused = [f"{module}:{first} {name}" for module, name, first, last in definitions
              if all(where == module and first <= line <= last
                     for where, line in references.get(name, []))]
    assert unused == []


def test_every_public_top_level_definition_is_named_outside_itself():
    texts = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "bench").rglob("*.py")),
             *sorted((ROOT / "docs").rglob("*.md")), ROOT / "README.md"]
    mentions: dict[str, list[tuple[Path, int]]] = {}  # word -> (file, line)
    for path in texts:
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            for word in set(re.findall(r"\w+", line)):
                mentions.setdefault(word, []).append((path, number))
    definitions = []  # (file, name, first line, last line)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                definitions.append((path, node.name, node.lineno, node.end_lineno))
    assert definitions, "no public definitions found; is PACKAGE right?"
    unnamed = [f"{path.name}:{first} {name}" for path, name, first, last in definitions
               if all(where == path and first <= line <= last
                      for where, line in mentions.get(name, []))]
    assert unnamed == []


def test_no_module_imports_another_modules_private_name():
    """A private name is its module's own: a module that needs another's
    makes it public first."""
    imported = [f"{path.name}:{node.lineno} {alias.name}"
                for path in sorted(PACKAGE.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names if is_private(alias.name)]
    assert imported == []


def test_every_module_level_import_is_used():
    """A module-level import that no code of its module names is dead. A
    re-export listed in the module's `__all__` counts as used, and
    `from __future__` imports are skipped."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                named |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in named]
    assert unused == []
