"""Expression mini-language: AST, parser, compiler, canonical renderer.

The same expression grammar serves hub key formulas and source mappings;
mappings additionally get epoch conversion, coalesce, and item accessors.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import datetime, timezone
from decimal import Decimal
from functools import partial
from typing import Callable

from .errors import EvalError, ParseError
from .lexer import IDENT, INT, STRING, SYMBOL, TokenStream
from .values import SCALAR_TYPES, as_utc, coerce_scalar, value_to_string


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
    if not isinstance(ts, datetime):
        raise EvalError("format_ts_compact expects a timestamp")
    ts = as_utc(ts)
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


@dataclass(slots=True)
class EvalContext:
    """Bindings an expression is evaluated against."""

    record: dict
    load_source: int
    item: dict | None = None
    item_key: object = None


Evaluator = Callable[[EvalContext], object]


def compile(expr: Expr, key_mode: bool = False) -> Evaluator:
    """The expression as a closure tree (Feeley and Lapalme, "Using
    closures for code generation", Computer Languages 1987): each node is
    dispatched once, here, and its closure evaluates it against a context.
    `key_mode` turns on the delimiter-collision guard used for hub keys."""
    if isinstance(expr, Lit):
        value = expr.value
        return lambda ctx: value
    if isinstance(expr, Col):
        name = expr.name

        def column(ctx: EvalContext):
            try:
                return ctx.record[name]
            except KeyError:
                raise EvalError(f"unknown column {name!r}") from None
        return column
    if isinstance(expr, ItemField):
        name = expr.name

        def item_field(ctx: EvalContext):
            if ctx.item is None:
                raise EvalError("item reference outside a collection mapping")
            try:
                return ctx.item[name]
            except KeyError:
                raise EvalError(f"unknown item field {name!r}") from None
        return item_field
    if isinstance(expr, Cast):
        operand = compile(expr.operand, key_mode)
        convert = (value_to_string if expr.target == "string"
                   else partial(coerce_scalar, ctype=expr.target))

        def cast(ctx: EvalContext):
            value = operand(ctx)
            try:
                return None if value is None else convert(value)
            except ValueError as exc:
                raise EvalError(f"cast failed: {exc}") from exc
        return cast
    if not isinstance(expr, Call):
        raise EvalError(f"not an expression: {expr!r}")
    name = expr.func
    if name == "load_source":
        return lambda ctx: ctx.load_source
    if name == "item_seq":
        def item_seq(ctx: EvalContext):
            if ctx.item_key is None:
                raise EvalError("item_seq() outside a collection mapping")
            return ctx.item_key
        return item_seq
    args = [compile(arg, key_mode) for arg in expr.args]
    if name == "concat":
        delimiter, operands = expr.args[0].value, args[1:]
        guard = key_mode and bool(delimiter)

        def concat(ctx: EvalContext):
            parts = []
            for arg in operands:
                value = arg(ctx)
                if value is None:
                    continue
                text = value_to_string(value)
                if guard and delimiter in text:
                    raise EvalError(
                        f"delimiter collision: operand {text!r} contains {delimiter!r}"
                    )
                parts.append(text)
            return delimiter.join(parts)
        return concat
    if name == "coalesce":
        def coalesce(ctx: EvalContext):
            for arg in args:
                value = arg(ctx)
                if value is not None:
                    return value
            return None
        return coalesce
    if name not in _UNARY:
        raise EvalError(f"unknown function {name!r}")
    function, operand = _UNARY[name], args[0]

    def apply(ctx: EvalContext):
        value = operand(ctx)
        return None if value is None else function(value)
    return apply


def _epoch_seconds_to_timestamp(value):
    if isinstance(value, bool) or not isinstance(value, (int, Decimal)):
        raise EvalError("epoch_seconds_to_timestamp expects an integer")
    return datetime.fromtimestamp(int(value), timezone.utc)


# The functions of one argument, each applied to a non-null value: a null
# argument gives null.
_UNARY: dict[str, Callable] = {
    "sha256": lambda value: sha256_hex(value_to_string(value)),
    "format_ts_compact": format_ts_compact,
    "epoch_seconds_to_timestamp": _epoch_seconds_to_timestamp,
}


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

