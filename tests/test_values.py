from __future__ import annotations

from datetime import datetime, timedelta, timezone
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hubstar.errors import EvalError
from hubstar.values import (
    EPOCH,
    coerce_scalar,
    format_timestamp,
    key_part,
    parse_stored_timestamp,
    parse_timestamp,
    row_key,
    show_key,
    top_per_partition,
    value_to_string,
    values_equal,
)


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


def test_parse_timestamp_accepts_common_iso_shapes():
    assert parse_timestamp("1970-01-01") == EPOCH
    assert parse_timestamp("2024-03-01T08:30:00Z") == utc(2024, 3, 1, 8, 30)
    assert parse_timestamp("2024-03-01 08:30") == utc(2024, 3, 1, 8, 30)
    assert parse_timestamp("2024-03-01T08:30:00.25Z") == utc(2024, 3, 1, 8, 30, 0, 250000)


def test_parse_timestamp_converts_offsets_to_utc():
    assert parse_timestamp("2024-06-01T12:00:00+02:00") == utc(2024, 6, 1, 10)
    assert parse_timestamp("2024-06-01T12:00:00-05:30") == utc(2024, 6, 1, 17, 30)


@pytest.mark.parametrize("bad", ["", "not a date", "2024-13-01", "20240301", "2024-03-01TT08"])
def test_parse_timestamp_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_timestamp(bad)


def test_format_timestamp_is_canonical_and_round_trips():
    ts = utc(2024, 3, 1, 8, 30, 15)
    assert format_timestamp(ts) == "2024-03-01T08:30:15Z"
    assert parse_timestamp(format_timestamp(ts)) == ts
    # sub-second digits only when nonzero, trailing zeros trimmed
    assert format_timestamp(utc(2024, 3, 1, 0, 0, 0, 250000)) == "2024-03-01T00:00:00.25Z"
    # naive datetimes are treated as UTC
    assert format_timestamp(datetime(2024, 3, 1)) == "2024-03-01T00:00:00Z"
    # the year is padded to four digits, so early years read back
    for year in (1, 99, 999, 1000):
        ts = utc(year, 1, 2, 3, 4, 5)
        assert format_timestamp(ts) == f"{year:04d}-01-02T03:04:05Z"
        assert parse_stored_timestamp(format_timestamp(ts)) == ts


def _outcome(parse, text):
    try:
        value = parse(text)
    except ValueError as exc:
        return ("error", str(exc))
    return ("value", value, value.tzinfo is timezone.utc)


offsets = st.builds(lambda minutes: timezone(timedelta(minutes=minutes)),
                    st.integers(-23 * 60 - 59, 23 * 60 + 59))


@given(st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30),
                    timezones=st.just(timezone.utc) | offsets))
def test_stored_timestamps_read_as_parse_timestamp_reads_them(dt):
    text = format_timestamp(dt)
    assert _outcome(parse_stored_timestamp, text) == _outcome(parse_timestamp, text)
    if dt.year >= 1000:  # earlier years format with fewer than four digits
        assert _outcome(parse_stored_timestamp, text) == ("value", dt, True)


# Strings `datetime.fromisoformat` reads (or reads differently) that the
# canonical form excludes: each must give parse_timestamp's result or error.
@pytest.mark.parametrize("text", [
    "2024-01-01T00:00:00,5Z",  # comma fraction
    "2024-W01-1T00:00:00Z",  # week date
    "20240101T000000Z",  # basic format
    "2024-01-01T000000.5Z",  # basic time
    "2024-01-01",  # date only
    "2024-01-01T00:00:00+05:30",  # offset
    "2024-01-01 00:00:00Z",  # space separator
    "2024-01-01T00:00:00.1234567Z",  # seven fraction digits
    "2024-01-01T00:00:00.500000Z",  # trailing zeros
    "2024-01-01T24:00:00Z",  # out of range
    "2024-02-30T00:00:00Z",
    "\u0662\u0660\u0662\u0664-01-01T00:00:00Z",  # non-ASCII digits
])
def test_non_canonical_timestamps_keep_parse_timestamps_outcome(text):
    assert _outcome(parse_stored_timestamp, text) == _outcome(parse_timestamp, text)


def test_coerce_scalar_nulls():
    assert coerce_scalar(None, "integer") is None
    assert coerce_scalar("", "integer") is None
    assert coerce_scalar("", "timestamp") is None
    # empty string *is* a string value, not a null
    assert coerce_scalar("", "string") == ""


def test_coerce_scalar_happy_paths():
    assert coerce_scalar(" 42 ", "integer") == 42
    assert coerce_scalar(Decimal("7"), "integer") == 7
    assert coerce_scalar("1.50", "decimal") == Decimal("1.50")
    assert coerce_scalar(3, "decimal") == Decimal(3)
    assert coerce_scalar("true", "boolean") is True
    assert coerce_scalar("0", "boolean") is False
    assert coerce_scalar(1, "boolean") is True
    assert coerce_scalar("2024-01-02", "timestamp") == utc(2024, 1, 2)
    assert coerce_scalar(42, "string") == "42"


@pytest.mark.parametrize("raw,ctype", [
    ("1.5", "integer"),
    (Decimal("1.5"), "integer"),
    ("yes", "boolean"),
    (2, "boolean"),
    ("soon", "timestamp"),
    (object(), "string"),
    (True, "decimal"),
])
def test_coerce_scalar_rejects_lossy_conversions(raw, ctype):
    with pytest.raises(ValueError):
        coerce_scalar(raw, ctype)


@pytest.mark.parametrize("raw", ["NaN", "sNaN", "Infinity", "-Infinity", " nan ",
                                 Decimal("NaN"), Decimal("-Infinity")])
def test_coerce_scalar_refuses_a_decimal_that_is_not_finite(raw):
    # No JSON number holds one, so storage could not write it as JSON.
    with pytest.raises(ValueError, match="is not finite"):
        coerce_scalar(raw, "decimal")


def test_value_to_string_forms():
    assert value_to_string(42) == "42"
    assert value_to_string(Decimal("1.50")) == "1.50"
    assert value_to_string(True) == "true"
    assert value_to_string(utc(2024, 3, 1, 8, 0)) == "2024-03-01T08:00:00Z"
    assert value_to_string("abc") == "abc"
    with pytest.raises(EvalError):
        value_to_string(None)


def test_values_equal_is_null_safe_and_numeric():
    assert values_equal(None, None)
    assert not values_equal(None, 0)
    assert not values_equal("", None)
    assert values_equal(1, Decimal("1.0"))
    assert not values_equal(1, Decimal("1.01"))
    assert values_equal("a", "a")
    assert not values_equal(True, "true")


# -- the key rule ---------------------------------------------------------------

_ZONES = (timezone.utc, timezone(timedelta(hours=2)), timezone(timedelta(hours=-5, minutes=-30)))
_INSTANTS = (utc(2024, 3, 1, 8, 0), utc(2024, 3, 1, 8, 0, 0, 500), utc(1970, 1, 1))

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.integers(),
    st.sampled_from([Decimal("-0"), Decimal("0"), Decimal("0.00"), Decimal("-0.0"),
                     Decimal("1"), Decimal("1.0"), Decimal("1.00"), Decimal("-1.0"),
                     Decimal("2.50"), Decimal("2.5"), Decimal("1E+2"), Decimal("100.0")]),
    st.decimals(allow_nan=False, allow_infinity=False),
    st.sampled_from(["", "0", "1", "true", "a"]),
    st.text(max_size=3),
    st.builds(lambda instant, zone: instant.astimezone(zone),
              st.sampled_from(_INSTANTS), st.sampled_from(_ZONES)),
    st.datetimes(timezones=st.sampled_from(_ZONES)),
)


def _kind(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, Decimal)):
        return "number"
    return type(value).__name__


def _same_key(a, b) -> bool:
    """The documented rule, stated independently of key_part: same kind, and
    numbers compare by value, timestamps by instant, the rest strictly."""
    if _kind(a) != _kind(b):
        return False
    if _kind(a) == "number":
        return Decimal(a) == Decimal(b)
    return a == b


@given(scalars, scalars)
def test_values_equal_agrees_with_key_part(a, b):
    same = _same_key(a, b)
    assert values_equal(a, b) == same
    assert (key_part(a) == key_part(b)) == same
    if same:  # equal keys must land in the same dict slot
        assert hash(key_part(a)) == hash(key_part(b))


@pytest.mark.parametrize("a,b,same", [
    (True, 1, False),
    (False, 0, False),
    (Decimal("-0"), 0, True),
    (Decimal("-0.00"), Decimal("0E+3"), True),
    (Decimal("1.0"), Decimal("1.00"), True),
    (10**30 + 1, Decimal(10**30), False),
    (utc(2024, 1, 1, 12), datetime(2024, 1, 1, 14, tzinfo=timezone(timedelta(hours=2))), True),
    ("1", 1, False),
    (None, "", False),
])
def test_key_rule_edge_cases(a, b, same):
    assert values_equal(a, b) == same
    assert (row_key({"c": a}, ("c",)) == row_key({"c": b}, ("c",))) == same


def test_show_key_renders_numbers_and_timestamps_bare():
    key = row_key({"n": Decimal("1.50"), "t": utc(2024, 3, 1), "s": "x", "z": None},
                  ("n", "t", "s", "z"))
    assert show_key(key) == "(1.50, 2024-03-01T00:00:00Z, 'x', None)"


def test_top_per_partition_groups_decimals_by_value():
    rows = [{"k": Decimal("1.0"), "rank": 1}, {"k": Decimal("1.00"), "rank": 2}]
    top = top_per_partition(rows, lambda r: row_key(r, ("k",)), (("rank", "desc"),))
    assert top == [rows[1]]
