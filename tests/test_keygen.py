from __future__ import annotations

from datetime import datetime, timezone

import pytest

from hubstar.errors import EvalError
from hubstar.expr import parse_expr, sha256_hex
from hubstar.lexer import TokenStream, tokenize
from hubstar.model import KeyFormula


def formula(text: str) -> KeyFormula:
    return KeyFormula(parse_expr(TokenStream(tokenize(text))))


def test_sha256_hex_reference_digests():
    # verified against coreutils sha256sum before pinning
    assert sha256_hex("42") == \
        "73475cb40a568e8da8a045ced110137e159f890ac4da883b6b17dc651b3a8049"
    assert sha256_hex("") == \
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_hashed_key_is_deterministic_over_the_stringified_key():
    f = formula("sha256(cast(customer_id as string))")
    key = f.key({"customer_id": 42}, load_source=1)
    assert key == sha256_hex("42")
    assert f.key({"customer_id": 42}, load_source=9) == key


def test_concat_key_joins_with_the_declared_delimiter():
    f = formula('concat("#", order_number, format_ts_compact(placed_at))')
    key = f.key({"order_number": "SO-1",
            "placed_at": datetime(2024, 3, 1, 8, 0, 5, tzinfo=timezone.utc)},
        load_source=2)
    assert key == "SO-1#20240301080005"


def test_local_keys_disambiguate_by_load_source():
    f = formula('concat("#", load_source(), product_id)')
    a = f.key({"product_id": "P1"}, load_source=3)
    b = f.key({"product_id": "P1"}, load_source=4)
    assert a == "3#P1"
    assert b == "4#P1"
    assert a != b


def test_null_business_key_is_an_error_not_a_key():
    f = formula("sha256(cast(customer_id as string))")
    with pytest.raises(EvalError, match="customer_id"):
        f.key({"customer_id": None}, load_source=1)


def test_delimiter_collision_is_rejected():
    f = formula('concat("#", order_number, line)')
    with pytest.raises(EvalError, match="delimiter collision"):
        f.key({"order_number": "A#B", "line": "1"}, load_source=1)

