"""No dead private code: every private function, method and class of the
package is used somewhere in the package outside its own definition.

References are matched by name (a bare name or an attribute), so a private
name defined twice passes when either definition is used. Public names are
out of scope: the benchmark's tracer wraps some that the package never calls.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hubstar"


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
