from __future__ import annotations

from datetime import datetime, timezone
from decimal import Decimal

import pytest

from hubstar.errors import EvalError, ParseError
from hubstar.expr import (
    EvalContext,
    column_refs,
    compile,
    format_ts_compact,
    item_field_refs,
    parse_expr,
    render_expr,
    uses_function,
)
from hubstar.lexer import TokenStream, tokenize


def pe(text: str):
    return parse_expr(TokenStream(tokenize(text)))


def ev(text: str, record=None, load_source=1, item=None, item_key=None, key_mode=False):
    ctx = EvalContext(record=record or {}, load_source=load_source,
                      item=item, item_key=item_key)
    return compile(pe(text), key_mode)(ctx)


def test_literals_and_columns():
    assert ev("42") == 42
    assert ev('"hi there"') == "hi there"
    assert ev("amount", {"amount": Decimal("9.5")}) == Decimal("9.5")
    with pytest.raises(EvalError, match="unknown column"):
        ev("missing", {"amount": 1})


def test_item_references():
    assert ev("item.qty", item={"qty": 3}) == 3
    with pytest.raises(EvalError, match="outside a collection"):
        ev("item.qty")
    with pytest.raises(EvalError, match="unknown item field"):
        ev("item.qty", item={"id": "a"})
    assert ev("item_seq()", item={"qty": 3}, item_key=2) == 2
    with pytest.raises(EvalError):
        ev("item_seq()")


def test_cast():
    assert ev('cast(count as string)', {"count": 17}) == "17"
    assert ev('cast(raw as integer)', {"raw": "250"}) == 250
    assert ev('cast(raw as timestamp)', {"raw": "2024-01-02"}) == \
        datetime(2024, 1, 2, tzinfo=timezone.utc)
    assert ev('cast(raw as integer)', {"raw": None}) is None
    with pytest.raises(EvalError, match="cast failed"):
        ev('cast(raw as integer)', {"raw": "nope"})
    for raw in ("NaN", "sNaN", "Infinity"):
        with pytest.raises(EvalError, match="cast failed: decimal .* is not finite"):
            ev('cast(raw as decimal)', {"raw": raw})


def test_coalesce_and_concat():
    assert ev("coalesce(a, b)", {"a": None, "b": 5}) == 5
    assert ev("coalesce(a, b)", {"a": None, "b": None}) is None
    assert ev('concat("#", a, b)', {"a": "x", "b": 7}) == "x#7"
    # nulls vanish instead of poisoning the key
    assert ev('concat("#", a, b)', {"a": None, "b": 7}) == "7"


def test_concat_key_mode_guards_against_delimiter_collisions():
    assert ev('concat("#", a)', {"a": "plain"}, key_mode=True) == "plain"
    with pytest.raises(EvalError, match="delimiter collision"):
        ev('concat("#", a)', {"a": "has#inside"}, key_mode=True)
    # outside key mode the same value passes through
    assert ev('concat("#", a)', {"a": "has#inside"}) == "has#inside"


def test_builtin_functions():
    assert ev("load_source()", load_source=3) == 3
    assert ev("sha256(word)", {"word": "42"}) == \
        "73475cb40a568e8da8a045ced110137e159f890ac4da883b6b17dc651b3a8049"
    assert ev("sha256(word)", {"word": None}) is None
    assert ev("epoch_seconds_to_timestamp(t)", {"t": 1_700_000_000}) == \
        datetime(2023, 11, 14, 22, 13, 20, tzinfo=timezone.utc)
    with pytest.raises(EvalError):
        ev("epoch_seconds_to_timestamp(t)", {"t": "soon"})
    assert ev("format_ts_compact(t)",
              {"t": datetime(2024, 3, 1, 8, 0, 5, tzinfo=timezone.utc)}) == "20240301080005"
    with pytest.raises(EvalError):
        ev("format_ts_compact(t)", {"t": 12})


def test_format_ts_compact_pads_every_field():
    assert format_ts_compact(datetime(999, 1, 2, 3, 4, 5, tzinfo=timezone.utc)) == \
        "09990102030405"


@pytest.mark.parametrize("bad,message", [
    ("unknown_fn(a)", "unknown function"),
    ("item", "bare 'item'"),
    ("other.field", "only item"),
    ("cast(a as blob)", "unknown cast target"),
    ("concat(a, b)", "delimiter must be a string literal"),
    ("sha256()", "argument"),
    ("load_source(a)", "argument"),
])
def test_parse_rejections(bad, message):
    with pytest.raises(ParseError, match=message):
        pe(bad)


def test_reference_walkers():
    expr = pe('concat("#", cast(a as string), item.f, coalesce(b, 1))')
    assert column_refs(expr) == {"a", "b"}
    assert item_field_refs(expr) == {"f"}
    assert uses_function(expr, "coalesce")
    assert not uses_function(expr, "sha256")


@pytest.mark.parametrize("text", [
    "a",
    "item.qty",
    "-7",
    '"two words"',
    '"esc \\"q\\" and \\\\ and \\n"',
    "cast(a as decimal)",
    'concat("|", a, cast(b as string), 5)',
    "sha256(coalesce(a, b))",
    "load_source()",
    "epoch_seconds_to_timestamp(format_ts_compact(t))",
])
def test_render_parse_round_trip(text):
    expr = pe(text)
    assert pe(render_expr(expr)) == expr
