from __future__ import annotations

import random

import pytest

from hubstar import load_model, parse_model, render_model
from hubstar.errors import ParseError
from hubstar.lexer import EOF, NEWLINE, tokenize

from conftest import FIXTURE_MODEL
from randmodels import random_model_text


def test_shipped_model_is_in_canonical_form():
    text = FIXTURE_MODEL.read_text(encoding="utf-8")
    assert render_model(parse_model(text).spec) == text


def test_load_model_reads_from_disk(tmp_path):
    path = tmp_path / "m.hsm"
    path.write_text("product tiny\n", encoding="utf-8")
    assert load_model(path).spec.product_name == "tiny"


def test_schemas_default_from_the_product_name():
    spec = parse_model("product shop\n").spec
    assert spec.schema_names == {"bronze": "raw_shop", "silver": "hs_shop",
                                 "gold": "ss_shop"}
    # defaults render explicitly, and the rendered form is stable
    canon = render_model(spec)
    assert 'bronze "raw_shop"' in canon
    assert parse_model(canon).spec == spec


def test_comments_and_blank_lines_are_ignored():
    spec = parse_model('''
# heading comment
product shop   # trailing comment


source s {    # commented brace line
  load_source 1

  format csv
  column a integer
  capture file_mtime
}
''').spec
    assert [s.name for s in spec.sources] == ["s"]


@pytest.mark.parametrize("text", [
    "", "\n\n", "# only a comment", "  # comment\n\n# another\r\n",
    "\r\n\r\nproduct p\r\n\r\n", "product p  # no final newline",
    "\n# heading\n\nproduct p\n\n\nsource s {\r\n\n  load_source 1\n  # aside\n\n}",
    FIXTURE_MODEL.read_text(encoding="utf-8"),
])
def test_tokens_hold_one_newline_between_lines_and_one_before_eof(text):
    # The parser relies on this: it never skips a line end, and `end_line`
    # always finds one before EOF.
    kinds = [token.kind for token in tokenize(text)]
    assert kinds[0] != NEWLINE
    assert all(not (a == b == NEWLINE) for a, b in zip(kinds, kinds[1:]))
    assert kinds == [EOF] or kinds[-2:] == [NEWLINE, EOF]


def test_output_shorthand_round_trips():
    text = ('product p\n\nhub h {\n  key system_generated\n'
            '  business_key global (x integer)\n}\n\n'
            'gold d {\n  kind scd1_dim\n  base hub h\n'
            '  output h_key\n  output renamed = h.x\n}\n')
    spec = parse_model(text).spec
    out = render_model(spec)
    assert "  output h_key\n" in out
    assert "  output renamed = h.x\n" in out
    assert parse_model(out).spec == spec


@pytest.mark.parametrize("snippet,message", [
    ("", "must declare a product"),
    ("product a\nproduct b\n", "duplicate product"),
    ("widget spam\n", "unknown top-level keyword"),
    ("product p\nsource s {\n  format csv\n  capture file_mtime\n}\n",
     "must declare load_source"),
    ("product p\nsource s {\n  load_source 1\n  capture file_mtime\n}\n",
     "must declare a format"),
    ("product p\nsource s {\n  load_source 1\n  format parquet\n}\n",
     "unknown format"),
    ("product p\nschemas {\n  bronze \"b\"\n  silver \"s\"\n}\n",
     "missing the gold layer"),
    ("product p\nschemas {\n  copper \"c\"\n}\n", "unknown layer"),
    ("product p\nhub h {\n  business_key global (x integer)\n}\n",
     "must declare a key"),
    ("product p\nhub h {\n  key computed cast(x as string)\n"
     "  key system_generated\n}\n", "duplicate key"),
    ("product p\nhub h {\n  key guessed\n}\n", "unknown key kind"),
    ("product p\nhub h {\n  key system_generated\n"
     "  business_key everywhere (x integer)\n}\n", "scope must be global or local"),
    ("product p\nhub h {\n  key system_generated\n"
     "  business_key global (x integer)\n"
     "  source_mapping s {\n    map a = 1\n    map a = 2\n  }\n}\n",
     "mapped twice"),
    ("product p\nstar s {\n  participant item i sorted\n}\n",
     "unknown item key mode"),
    ("product p\nstar s {\n  key (a) \n  key (b)\n}\n", "duplicate key"),
    ('product p\nhub h {\n  key computed concat("#, x)\n}\n',
     "unterminated string"),
    ("product p\ngold v {\n  kind snapshot\n}\n", "unknown view kind"),
    ("product p\ngold v {\n  kind fact\n  base table t\n}\n",
     "base must name a hub or a star"),
    ("product p\ngold v {\n  kind fact\n}\n", "must declare a base"),
    ("product p\nhub dup {\n  key system_generated\n}\n"
     "star dup {\n  key (a)\n}\n", "duplicate name"),
])
def test_parse_errors(snippet, message):
    with pytest.raises(ParseError, match=message):
        parse_model(snippet)


def test_parse_errors_carry_position():
    try:
        parse_model("product p\nhub h {\n  key guessed\n}\n")
    except ParseError as err:
        assert err.line == 3
        assert err.column == 7
        assert str(err).startswith("3:7:")
    else:
        pytest.fail("expected a ParseError")


def test_randomized_models_round_trip():
    rng = random.Random(7)
    for i in range(30):
        text = random_model_text(rng)
        spec = parse_model(text).spec
        canon = render_model(spec)
        assert parse_model(canon).spec == spec, f"sample {i}"
        assert render_model(parse_model(canon).spec) == canon, f"sample {i}"


# Opening lines that put the next line inside a block of each kind.
SOURCE = "product p\nsource s {\n  load_source 1\n  format csv\n"
HUB = "product p\nhub h {\n  key system_generated\n  business_key global (x integer)\n"
STAR = "product p\nstar s {\n  participant h\n  key (h_key)\n"
GOLD = "product p\ngold v {\n  kind fact\n  base star s\n"
STAR_JOIN = "star s on h_key partition_by (a) order_by (b asc)"


PARSE_ERRORS = [
    # lexer
    ("lowercase_identifier", "product p\nHub h {\n}\n", "2:1: identifiers are lowercase: 'Hub'"),
    ("unknown_escape", 'product p\nhub h {\n  key computed concat("\\t", x)\n}\n',
     "3:24: unknown escape \\t"),
    ("dangling_escape", 'product p\nhub h {\n  key computed concat("\\', "3:24: dangling escape"),
    ("unexpected_character", 'product p\nhub h {\n  key computed concat("#", x) ;\n}\n',
     "3:31: unexpected character ';'"),
    # a digit int() cannot read is no part of a word, wherever it stands
    ("undecimal_digit", SOURCE + "  column \u00b2 integer\n}\n",
     "5:10: unexpected character '\u00b2'"),
    # unknown keyword, one case per block
    ("source_keyword", SOURCE + "  colour red\n}\n",
     "5:3: unknown keyword 'colour' in source block"),
    ("hub_keyword", HUB + "  colour red\n}\n", "5:3: unknown keyword 'colour' in hub block"),
    ("hub_mapping_keyword", HUB + "  source_mapping s {\n    colour red\n  }\n}\n",
     "6:5: unknown keyword 'colour' in mapping block"),
    ("star_keyword", STAR + "  colour red\n}\n", "5:3: unknown keyword 'colour' in star block"),
    ("star_mapping_keyword", STAR + "  source_mapping s {\n    colour red\n  }\n}\n",
     "6:5: unknown keyword 'colour' in mapping block"),
    ("gold_keyword", GOLD + "  colour red\n}\n", "5:3: unknown keyword 'colour' in gold block"),
    # duplicate, one case per once-only clause
    ("dup_load_source", SOURCE + "  load_source 2\n}\n", "5:3: duplicate load_source"),
    ("dup_format", SOURCE + "  format ndjson\n}\n", "5:3: duplicate format"),
    ("dup_delete_flag_column", SOURCE + "  delete_flag_column a\n  delete_flag_column b\n}\n",
     "6:3: duplicate delete_flag_column"),
    ("dup_hub_key", HUB + "  key system_generated\n}\n", "5:3: duplicate key"),
    ("dup_business_key", HUB + "  business_key local (y integer)\n}\n",
     "5:3: duplicate business_key"),
    ("dup_dedup_by",
     HUB + "  source_mapping s {\n    dedup_by a asc\n    dedup_by b desc\n  }\n}\n",
     "7:5: duplicate dedup_by"),
    ("dup_star_key", STAR + "  key (h_key)\n}\n", "5:3: duplicate key"),
    ("dup_explode", STAR + "  source_mapping s {\n    explode a\n    explode b\n  }\n}\n",
     "7:5: duplicate explode"),
    ("dup_kind", GOLD + "  kind fact\n}\n", "5:3: duplicate kind"),
    ("dup_base", GOLD + "  base star s\n}\n", "5:3: duplicate base"),
    ("dup_versions", GOLD + f"  versions {STAR_JOIN}\n  versions {STAR_JOIN}\n}}\n",
     "6:3: duplicate versions"),
    ("dup_temporal_join",
     GOLD + "  temporal_join d key s.k time s.t\n  temporal_join d key s.k time s.t\n}\n",
     "6:3: duplicate temporal_join"),
    ("dup_scd2_key", GOLD + "  scd2_key (a)\n  scd2_key (b)\n}\n", "6:3: duplicate scd2_key"),
    ("dup_layer", 'product p\nschemas {\n  bronze "b"\n  bronze "c"\n}\n',
     "4:3: duplicate layer 'bronze'"),
    ("dup_schemas",
     'product p\nschemas {\n  bronze "b"\n  silver "s"\n  gold "g"\n}\nschemas {\n}\n',
     "7:1: duplicate schemas block"),
    # a column assigned twice by one keyword, refused before the rest of its line
    ("dup_map", HUB + "  source_mapping s {\n    map a = 1\n    map a = )\n  }\n}\n",
     "7:9: column 'a' mapped twice"),
    ("dup_fk", HUB + "  source_mapping s {\n    fk a = g(x)\n    fk a = g(y)\n  }\n}\n",
     "7:8: column 'a' mapped twice"),
    ("dup_star_mapping_key",
     STAR + "  source_mapping s {\n    key h_key = h(x)\n    key h_key = h(y)\n  }\n}\n",
     "7:9: column 'h_key' mapped twice"),
    ("string_column", HUB + '  source_mapping s {\n    map a = 1\n    map "a" = 2\n  }\n}\n',
     "7:9: expected target column, found 'a'"),
    # clause values
    ("capture_rule", SOURCE + "  capture whenever\n}\n", "5:11: unknown capture rule 'whenever'"),
    ("column_type", SOURCE + "  column a text\n}\n", "5:12: unknown type 'text'"),
    ("field_type", SOURCE + "  column a array(b text)\n}\n", "5:20: unknown type 'text'"),
    ("descriptive_type", HUB + "  descriptive d text\n}\n", "5:17: unknown type 'text'"),
    ("dedup_direction", HUB + "  source_mapping s {\n    dedup_by a up\n  }\n}\n",
     "6:16: expected asc or desc, found 'up'"),
    ("order_direction",
     GOLD + "  join_current star s on k partition_by (a) order_by (b sideways)\n}\n",
     "5:57: expected asc or desc, found 'sideways'"),
    ("join_mode", GOLD + "  join hub h on h_key outer\n}\n",
     "5:23: join mode must be inner or left, got 'outer'"),
    ("source_override", HUB + "  source_mapping s {\n    fk a = g(x) source \"1\"\n  }\n}\n",
     "6:24: expected 'int', found '1'"),
    ("missing_expression", "product p\nhub h {\n  key computed \n}\n",
     "3:16: expected expression, found '\\n'"),
    # line structure
    ("trailing_after_directive", "product p q\n", "1:11: unexpected trailing 'q'"),
    ("trailing_after_brace", SOURCE + "} extra\n", "5:3: unexpected trailing 'extra'"),
    ("trailing_after_clause", HUB + "  delete_flag now\n}\n", "5:15: unexpected trailing 'now'"),
    ("unclosed_list", "product p\nstar s {\n  key (a\n}\n", "3:9: expected ')', found '\\n'"),
    ("brace_not_last", "product p\nsource s { x\n", "2:12: expected 'newline', found 'x'"),
    ("unclosed_block", "product p\nsource s {\n", "3:1: expected a keyword, found ''"),
]


@pytest.mark.parametrize("text,error", [c[1:] for c in PARSE_ERRORS],
                         ids=[c[0] for c in PARSE_ERRORS])
def test_parse_error_messages_and_positions(text, error):
    with pytest.raises(ParseError) as info:
        parse_model(text)
    assert str(info.value) == error
