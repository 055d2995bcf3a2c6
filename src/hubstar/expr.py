"""Expression mini-language: AST, parser, evaluator, canonical renderer.

The same expression grammar serves hub key formulas and source mappings;
mappings additionally get epoch conversion, coalesce, and item accessors.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import datetime, timezone
from decimal import Decimal

from .errors import EvalError, ParseError
from .lexer import IDENT, INT, STRING, SYMBOL, TokenStream
from .values import SCALAR_TYPES, coerce_scalar, value_to_string


@dataclass(frozen=True)
class Col:
    name: str


@dataclass(frozen=True)
class ItemField:
    name: str


@dataclass(frozen=True)
class Lit:
    value: int | str


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


@dataclass(frozen=True)
class Cast:
    operand: object
    target: str


Expr = Col | ItemField | Lit | Call | Cast

# function name -> (min args, max args or None)
FUNCTIONS = {
    "sha256": (1, 1),
    "concat": (2, None),
    "format_ts_compact": (1, 1),
    "load_source": (0, 0),
    "epoch_seconds_to_timestamp": (1, 1),
    "coalesce": (2, None),
    "item_seq": (0, 0),
}


def sha256_hex(text: str) -> str:
    """64-char lowercase hex SHA-256 digest of the UTF-8 bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def format_ts_compact(ts: datetime) -> str:
    """Fully padded yyyyMMddHHmmss rendering in UTC.

    Zero-padding keeps lexicographic order aligned with time order.
    """
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    else:
        ts = ts.astimezone(timezone.utc)
    return (
        f"{ts.year:04d}{ts.month:02d}{ts.day:02d}"
        f"{ts.hour:02d}{ts.minute:02d}{ts.second:02d}"
    )


def parse_expr(stream: TokenStream) -> Expr:
    """Parse one expression from the stream (single-line grammar)."""
    tok = stream.peek()
    if tok.kind == INT:
        stream.next()
        return Lit(int(tok.text))
    if tok.kind == STRING:
        stream.next()
        return Lit(tok.text)
    if tok.kind == IDENT:
        name = stream.next().text
        if name == "cast":
            stream.expect(SYMBOL, "(")
            inner = parse_expr(stream)
            stream.expect(IDENT, "as")
            ttok = stream.expect(IDENT)
            if ttok.text not in SCALAR_TYPES:
                raise ParseError(f"unknown cast target {ttok.text!r}", ttok.line, ttok.column)
            stream.expect(SYMBOL, ")")
            return Cast(inner, ttok.text)
        if stream.at(SYMBOL, "("):
            if name not in FUNCTIONS:
                raise ParseError(f"unknown function {name!r}", tok.line, tok.column)
            stream.next()
            args: list[Expr] = []
            if not stream.at(SYMBOL, ")"):
                args.append(parse_expr(stream))
                while stream.at(SYMBOL, ","):
                    stream.next()
                    args.append(parse_expr(stream))
            stream.expect(SYMBOL, ")")
            lo, hi = FUNCTIONS[name]
            if len(args) < lo or (hi is not None and len(args) > hi):
                raise ParseError(f"{name} takes {lo}{'' if hi == lo else '+'} argument(s)", tok.line, tok.column)
            if name == "concat" and not (isinstance(args[0], Lit) and isinstance(args[0].value, str)):
                raise ParseError("concat delimiter must be a string literal", tok.line, tok.column)
            return Call(name, tuple(args))
        if stream.at(SYMBOL, "."):
            if name != "item":
                raise ParseError("only item.<field> references may be dotted", tok.line, tok.column)
            stream.next()
            field = stream.expect(IDENT)
            return ItemField(field.text)
        if name == "item":
            raise ParseError("bare 'item' is not a value; use item.<field>", tok.line, tok.column)
        return Col(name)
    raise ParseError(f"expected expression, found {tok.text!r}", tok.line, tok.column)


def render_expr(expr: Expr) -> str:
    """Canonical text form; parse(render(e)) == e."""
    if isinstance(expr, Col):
        return expr.name
    if isinstance(expr, ItemField):
        return f"item.{expr.name}"
    if isinstance(expr, Lit):
        if isinstance(expr.value, int):
            return str(expr.value)
        escaped = expr.value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    if isinstance(expr, Cast):
        return f"cast({render_expr(expr.operand)} as {expr.target})"
    if isinstance(expr, Call):
        return f"{expr.func}({', '.join(render_expr(a) for a in expr.args)})"
    raise TypeError(f"not an expression: {expr!r}")


@dataclass
class EvalContext:
    """Bindings an expression is evaluated against.

    key_mode turns on the delimiter-collision guard used for hub keys.
    """

    record: dict
    load_source: int
    item: dict | None = None
    item_key: object = None
    key_mode: bool = False


def evaluate(expr: Expr, ctx: EvalContext):
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Col):
        if expr.name not in ctx.record:
            raise EvalError(f"unknown column {expr.name!r}")
        return ctx.record[expr.name]
    if isinstance(expr, ItemField):
        if ctx.item is None:
            raise EvalError("item reference outside a collection mapping")
        if expr.name not in ctx.item:
            raise EvalError(f"unknown item field {expr.name!r}")
        return ctx.item[expr.name]
    if isinstance(expr, Cast):
        value = evaluate(expr.operand, ctx)
        if value is None:
            return None
        if expr.target == "string":
            return value_to_string(value)
        try:
            return coerce_scalar(value, expr.target)
        except ValueError as exc:
            raise EvalError(f"cast failed: {exc}") from exc
    if isinstance(expr, Call):
        return _apply(expr, ctx)
    raise EvalError(f"not an expression: {expr!r}")


def _apply(call: Call, ctx: EvalContext):
    name = call.func
    if name == "load_source":
        return ctx.load_source
    if name == "item_seq":
        if ctx.item_key is None:
            raise EvalError("item_seq() outside a collection mapping")
        return ctx.item_key
    if name == "coalesce":
        for arg in call.args:
            value = evaluate(arg, ctx)
            if value is not None:
                return value
        return None
    if name == "concat":
        delimiter = call.args[0].value
        parts = []
        for arg in call.args[1:]:
            value = evaluate(arg, ctx)
            if value is None:
                continue
            text = value_to_string(value)
            if ctx.key_mode and delimiter and delimiter in text:
                raise EvalError(
                    f"delimiter collision: operand {text!r} contains {delimiter!r}"
                )
            parts.append(text)
        return delimiter.join(parts)
    # remaining functions are unary
    value = evaluate(call.args[0], ctx)
    if value is None:
        return None
    if name == "sha256":
        return sha256_hex(value_to_string(value))
    if name == "format_ts_compact":
        if not isinstance(value, datetime):
            raise EvalError("format_ts_compact expects a timestamp")
        return format_ts_compact(value)
    if name == "epoch_seconds_to_timestamp":
        if isinstance(value, bool) or not isinstance(value, (int, Decimal)):
            raise EvalError("epoch_seconds_to_timestamp expects an integer")
        return datetime.fromtimestamp(int(value), timezone.utc)
    raise EvalError(f"unknown function {name!r}")


def nodes(expr: Expr):
    """Every node of the expression, in pre-order (a node before its operands)."""
    yield expr
    if isinstance(expr, Cast):
        yield from nodes(expr.operand)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from nodes(arg)


def column_refs(expr: Expr) -> set[str]:
    """All bronze/business-key column names the expression reads."""
    return {node.name for node in nodes(expr) if isinstance(node, Col)}


def item_field_refs(expr: Expr) -> set[str]:
    return {node.name for node in nodes(expr) if isinstance(node, ItemField)}


def uses_function(expr: Expr, name: str) -> bool:
    return any(isinstance(node, Call) and node.func == name for node in nodes(expr))

