"""Hub key computation and the persisted counter behind system-generated keys."""

from __future__ import annotations

from pathlib import Path

from .errors import EvalError
from .expr import EvalContext, column_refs, evaluate, format_ts_compact, sha256_hex
from .model import KeyFormula

__all__ = ["KeyFormula", "compute_hub_key", "format_ts_compact", "next_system_key", "sha256_hex"]


def compute_hub_key(formula: KeyFormula, record, load_source: int) -> str:
    """Evaluate a key formula over one record's business-key values.

    Every referenced business key must be present: a hub row cannot be
    identified by a partial key, so nulls are an error here rather than
    the skip-the-operand behaviour concat has elsewhere.
    """
    for name in sorted(column_refs(formula.expression)):
        if record.get(name) is None:
            raise EvalError(f"business key must have value: {name!r} is null")
    ctx = EvalContext(record=record, load_source=load_source, key_mode=True)
    key = evaluate(formula.expression, ctx)
    if not isinstance(key, str) or not key:
        raise EvalError(f"key formula produced {key!r}, expected a non-empty string")
    return key


def next_system_key(counter_path: Path) -> str:
    """Allocate the next surrogate from a one-number text file.

    The counter survives process restarts; a missing file starts at 1.
    Write goes through a temp file + rename so a crash never leaves a
    half-written number behind.
    """
    current = 0
    if counter_path.exists():
        text = counter_path.read_text(encoding="utf-8").strip()
        if text:
            current = int(text)
    value = current + 1
    tmp = counter_path.with_name(counter_path.name + ".tmp")
    tmp.write_text(f"{value}\n", encoding="utf-8")
    tmp.replace(counter_path)
    return str(value)
