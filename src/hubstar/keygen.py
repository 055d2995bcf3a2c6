"""Hub key computation from key formulas."""

from __future__ import annotations

from .errors import EvalError
from .expr import EvalContext, evaluate, format_ts_compact, sha256_hex
from .model import KeyFormula

__all__ = ["KeyFormula", "compute_hub_key", "format_ts_compact", "sha256_hex"]


def compute_hub_key(formula: KeyFormula, record, load_source: int) -> str:
    """Evaluate a key formula over one record's business-key values.

    Every referenced business key must be present: a hub row cannot be
    identified by a partial key, so nulls are an error here rather than
    the skip-the-operand behaviour concat has elsewhere.
    """
    for name in formula.columns:
        if record.get(name) is None:
            raise EvalError(f"business key must have value: {name!r} is null")
    ctx = EvalContext(record=record, load_source=load_source, key_mode=True)
    key = evaluate(formula.expression, ctx)
    if not isinstance(key, str) or not key:
        raise EvalError(f"key formula produced {key!r}, expected a non-empty string")
    return key

