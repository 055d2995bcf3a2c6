"""Validator coverage beyond the ten broken models in the acceptance run,
plus dependency-ordered loading."""
from __future__ import annotations

import random
from dataclasses import replace

import pytest

from hubstar import parse_model, validate_model
from hubstar.errors import HubStarError
from hubstar.model import ValidationReport, resolve_load_order
from hubstar.storage import ColumnSpec
from hubstar.tables import gold_manifest

from randmodels import random_model_text

MINI = '''product demo

schemas {
  bronze "raw_demo"
  silver "hs_demo"
  gold "ss_demo"
}

source things {
  load_source 1
  format csv
  column thing_id integer
  column thing_name string
  column updated_at timestamp
  capture last_modified updated_at
}

hub thing {
  key computed sha256(cast(thing_id as string))
  business_key global (thing_id integer)
  descriptive thing_name string
  source_mapping things {
    map thing_id = thing_id
    map thing_name = thing_name
  }
}
'''

# a second source plus a versioned star and a clean SCD2 view over it
GOLD_BASE = MINI + '''
source moves {
  load_source 2
  format csv
  column thing_id integer
  column addr string
  column valid_from timestamp
  column valid_to timestamp
  capture last_modified valid_from
}

star thing_move {
  participant thing
  participant time valid_from
  key (thing_key, valid_from)
  descriptive addr string
  descriptive valid_to timestamp
  source_mapping moves {
    key thing_key = thing(thing_id)
    map valid_from = valid_from
    map addr = addr
    map valid_to = valid_to
  }
}
'''

GOOD_SCD2 = '''
gold dim_thing2 {
  kind scd2_dim
  base hub thing
  versions star thing_move on thing_key partition_by (thing_key, valid_from) order_by (capture_timestamp desc)
  scd2_key (thing_key, thing_move.valid_from)
  output thing_version_key = scd2_key
  output thing_key
  output valid_from = thing_move.valid_from
  output valid_to = thing_move.valid_to
}
'''

# MINI's source as ndjson with a collection column to explode
WITH_PARTS = MINI.replace("format csv", "format ndjson").replace(
    "column updated_at timestamp",
    "column updated_at timestamp\n  column parts array(label string)")


def check(text: str) -> list[str]:
    return [v.rule for v in validate_model(parse_model(text).spec).violations]


def test_minimal_model_is_clean():
    assert check(MINI) == []
    assert check(GOLD_BASE + GOOD_SCD2) == []


def test_report_carries_rule_location_and_message():
    report = validate_model(parse_model(MINI + '''
star addr {
  participant thing
  descriptive note string
}
''').spec)
    assert not report.ok
    (violation,) = report.violations
    assert violation.rule == "star_key_empty"
    assert violation.location == "star addr"
    assert "key" in violation.message


# --- source rules -------------------------------------------------------------


def test_load_source_zero_is_reserved():
    assert check(MINI.replace("load_source 1", "load_source 0")) == ["source_load_source_id"]


def test_duplicate_source_column():
    text = MINI.replace("column thing_name string",
                        "column thing_name string\n  column thing_name decimal")
    assert check(text) == ["source_dup_column"]


def test_reserved_metadata_names_are_refused():
    text = MINI.replace("column thing_name string",
                        "column thing_name string\n  column capture_timestamp timestamp")
    assert check(text) == ["reserved_column"]


def test_capture_rule_required():
    assert check(MINI.replace("  capture last_modified updated_at\n", "")) == \
        ["capture_rule_empty"]


def test_capture_rule_must_name_a_timestamp_column():
    assert check(MINI.replace("capture last_modified updated_at",
                              "capture cdc_column nope")) == ["capture_rule_column"]
    assert check(MINI.replace("capture last_modified updated_at",
                              "capture last_modified thing_id")) == ["capture_rule_column"]


def test_delete_flag_column_must_exist():
    text = MINI.replace("capture last_modified updated_at",
                        "capture last_modified updated_at\n  delete_flag_column gone")
    assert check(text) == ["delete_flag_column_unknown"]


def test_collections_require_ndjson():
    text = MINI.replace("column updated_at timestamp",
                        "column updated_at timestamp\n  column parts array(id string)")
    assert check(text) == ["csv_collection"]


# --- hub rules ------------------------------------------------------------------


def test_hub_duplicate_column():
    text = MINI.replace("descriptive thing_name string",
                        "descriptive thing_id integer")
    rules = check(text)
    assert "hub_dup_column" in rules  # thing_id doubles as business key


def test_hub_reserved_column():
    text = MINI.replace("descriptive thing_name string\n",
                        "descriptive load_timestamp timestamp\n")
    assert check(text.replace("    map thing_name = thing_name\n", "")) == ["reserved_column"]
    star = GOLD_BASE.replace("descriptive addr string",
                             "descriptive addr string\n  descriptive load_timestamp timestamp")
    assert check(star) == ["reserved_column"]


def test_key_formula_missing_and_unexpected_are_caught_on_built_specs():
    # neither state is reachable through the DSL, only by assembling specs
    spec = parse_model(MINI).spec
    hub = spec.hubs[0]
    without = replace(spec, hubs=(replace(hub, key_formula=None),))
    assert [v.rule for v in validate_model(without).violations] == ["hub_key_formula_missing"]
    system = replace(spec, hubs=(replace(hub, key_type="system_generated"),))
    assert [v.rule for v in validate_model(system).violations] == ["hub_key_formula_unexpected"]


def test_a_hub_mapping_that_explodes_is_caught_on_built_specs():
    # a load would fail staging it, as a hub has no item participant
    spec = parse_model(WITH_PARTS).spec
    hub = spec.hubs[0]
    exploding = replace(hub.source_mappings[0], explode_column="parts")
    built = replace(spec, hubs=(replace(hub, source_mappings=(exploding,)),))
    (violation,) = validate_model(built).violations
    assert (violation.rule, violation.location) == ("hub_mapping_explode",
                                                    "hub thing mapping things")


def test_a_star_mapping_that_dedups_is_caught_on_built_specs():
    # the loads and the oracle rank a star's versions by capture time alone
    spec = parse_model(GOLD_BASE).spec
    star = spec.stars[0]
    dedup = replace(star.source_mappings[0], dedup_order=(("addr", "asc"),))
    built = replace(spec, stars=(replace(star, source_mappings=(dedup,)),))
    (violation,) = validate_model(built).violations
    assert (violation.rule, violation.location) == ("star_mapping_dedup",
                                                    "star thing_move mapping moves")


def test_duplicate_names_are_caught_on_built_specs():
    spec = parse_model(MINI).spec
    doubled = replace(spec, hubs=spec.hubs + spec.hubs)
    assert [v.rule for v in validate_model(doubled).violations] == ["dup_name"]


def test_schema_layers_must_be_complete():
    spec = parse_model(MINI).spec
    broken = replace(spec, schema_names={"bronze": "raw_demo"})
    assert "schema_layers" in [v.rule for v in validate_model(broken).violations]


def test_fk_to_unresolvable_hub():
    text = MINI + '''
hub widget {
  key system_generated
  business_key local (w_id string)
}

hub holder {
  key computed cast(h_id as string)
  business_key global (h_id integer)
  descriptive widget_key references widget
}
'''
    assert check(text) == ["fk_unresolvable_target"]


def test_fk_cycles_are_rejected():
    text = MINI + '''
hub alpha {
  key computed cast(a_id as string)
  business_key global (a_id integer)
  descriptive beta_key references beta
}

hub beta {
  key computed cast(b_id as string)
  business_key global (b_id integer)
  descriptive alpha_key references alpha
}
'''
    assert check(text) == ["hub_fk_cycle"]


def test_cycle_messages_walk_declaration_order_and_name_order():
    spec = parse_model(MINI + '''
hub beta {
  key computed cast(b_id as string)
  business_key global (b_id integer)
  descriptive alpha_key references alpha
}

hub alpha {
  key computed cast(a_id as string)
  business_key global (a_id integer)
  descriptive beta_key references beta
}
''').spec
    cycles = [v for v in validate_model(spec).violations if v.rule == "hub_fk_cycle"]
    assert [(v.location, v.message) for v in cycles] == [
        ("hub beta", "cyclic foreign-key chain: beta -> alpha -> beta")]
    with pytest.raises(HubStarError, match="^cyclic hub dependencies: alpha -> beta -> alpha$"):
        resolve_load_order(spec)


# --- mapping rules -----------------------------------------------------------------


def test_mapping_expression_columns_must_exist():
    assert check(MINI.replace("map thing_name = thing_name",
                              "map thing_name = cast(nope as string)")) == \
        ["mapping_unknown_column"]
    assert check(WITH_PARTS + '''
star lines {
  participant thing
  participant item seq positional
  key (thing_key, seq)
  descriptive note string
  source_mapping things {
    explode parts
    key thing_key = thing(thing_id)
    map note = item.colour
  }
}
''') == ["mapping_unknown_column"]


def test_item_references_need_an_exploded_collection():
    assert check(MINI.replace("map thing_name = thing_name",
                              "map thing_name = item.label")) == \
        ["item_ref_outside_collection"]
    item_seq = "cast(item_seq() as string)"
    assert check(MINI.replace("map thing_name = thing_name",
                              f"map thing_name = {item_seq}")) == \
        ["item_ref_outside_collection"]
    assert check(GOLD_BASE.replace("map addr = addr", f"map addr = {item_seq}")) == \
        ["item_ref_outside_collection"]


@pytest.mark.parametrize("formula", ["sha256(cast(item.thing_id as string))",
                                     "sha256(cast(item_seq() as string))"],
                         ids=["item_field", "item_seq"])
def test_key_formulas_take_no_item_references(formula):
    assert check(MINI.replace("sha256(cast(thing_id as string))", formula)) == \
        ["key_formula_unknown_column"]


def test_mapping_unknown_source():
    text = MINI.replace("source_mapping things {", "source_mapping ghosts {")
    assert check(text) == ["mapping_unknown_source"]
    star = GOLD_BASE.replace("source_mapping moves {", "source_mapping ghosts {")
    assert check(star) == ["mapping_unknown_source"]


def test_mapping_unknown_target():
    assert check(MINI.replace("map thing_name = thing_name",
                              "map thing_label = thing_name")) == ["mapping_unknown_target"]


SECOND_HUB = '''
hub second {
  key computed cast(s_id as string)
  business_key global (s_id integer)
}
'''


def test_fk_descriptives_are_mapped_with_fk_not_map():
    text = (MINI + SECOND_HUB).replace(
        "descriptive thing_name string",
        "descriptive thing_name string\n  descriptive second_key references second")
    text = text.replace("map thing_name = thing_name",
                        "map thing_name = thing_name\n    map second_key = thing_name")
    assert check(text) == ["mapping_unknown_target"]


STAR_REFERENCE = MINI + SECOND_HUB + '''
star tagged {
  participant thing
  key (thing_key)
  descriptive second_key references second
  source_mapping things {
    key thing_key = thing(thing_id)
    key second_key = second(thing_id)
  }
}
'''


def test_star_reference_descriptives_are_resolved_with_key_not_map():
    assert check(STAR_REFERENCE) == []
    assert check(STAR_REFERENCE.replace("key second_key = second(thing_id)",
                                        "map second_key = thing_id")) == \
        ["mapping_unknown_target"]
    # key against a column that holds no hub key
    assert check(STAR_REFERENCE.replace("  key (thing_key)",
                                        "  key (thing_key)\n  descriptive note string")
                 .replace("key second_key = second(thing_id)",
                          "key second_key = second(thing_id)\n    key note = second(thing_id)")) == \
        ["mapping_fk_target"]


def test_fk_resolution_target_checks():
    # fk against a plain descriptive
    assert check(MINI.replace("map thing_name = thing_name",
                              "fk thing_name = thing(thing_id)")) == ["mapping_fk_target"]
    # argument count must match the target's business keys
    text = (MINI + SECOND_HUB).replace(
        "descriptive thing_name string",
        "descriptive thing_name string\n  descriptive second_key references second")
    text = text.replace("map thing_name = thing_name",
                        "map thing_name = thing_name\n    fk second_key = second(thing_id, thing_id)")
    assert check(text) == ["mapping_fk_target"]


def test_fk_resolution_must_agree_with_declaration():
    text = MINI + SECOND_HUB
    text = text.replace(
        "descriptive thing_name string",
        "descriptive thing_name string\n  descriptive second_key references second")
    text = text.replace("map thing_name = thing_name",
                        "map thing_name = thing_name\n    fk second_key = thing(thing_id)")
    assert check(text) == ["mapping_fk_target"]


# --- star rules ----------------------------------------------------------------------


def test_star_unknown_hub():
    assert check(MINI + '''
star orphan {
  participant phantom
  key (phantom_key)
}
''') == ["star_unknown_hub"]


def test_star_duplicate_participant_column():
    rules = check(MINI + '''
star twice {
  participant thing
  participant thing
  key (thing_key)
}
''')
    assert sorted(rules) == ["star_dup_column", "star_dup_participant_column"]


def test_star_key_empty():
    assert check(MINI + '''
star addr {
  participant thing
  descriptive note string
}
''') == ["star_key_empty"]


def test_star_descriptive_shadowing_participant():
    assert check(MINI + '''
star addr {
  participant thing
  key (thing_key)
  descriptive thing_key string
}
''') == ["star_dup_column"]


def test_explode_needs_collection_and_item_participant():
    ndjson = MINI.replace("format csv", "format ndjson")
    # explode target is a scalar column
    assert check(ndjson + '''
star lines {
  participant thing
  participant item seq positional
  key (thing_key, seq)
  source_mapping things {
    explode thing_name
    key thing_key = thing(thing_id)
  }
}
''') == ["star_mapping_explode"]
    # explode without an item participant
    withcol = ndjson.replace("column updated_at timestamp",
                             "column updated_at timestamp\n  column parts array(label string)")
    assert check(withcol + '''
star lines {
  participant thing
  key (thing_key)
  source_mapping things {
    explode parts
    key thing_key = thing(thing_id)
  }
}
''') == ["star_mapping_explode"]
    # item participant without an explode
    assert check(ndjson + '''
star lines {
  participant thing
  participant item seq positional
  key (thing_key, seq)
  source_mapping things {
    key thing_key = thing(thing_id)
  }
}
''') == ["star_mapping_explode"]


def test_item_column_is_filled_by_the_explosion_not_by_map():
    withcol = MINI.replace("format csv", "format ndjson").replace(
        "column updated_at timestamp",
        "column updated_at timestamp\n  column parts array(label string)")
    star = '''
star lines {
  participant thing
  participant item seq positional
  key (thing_key, seq)
  source_mapping things {
    explode parts
    key thing_key = thing(thing_id)
  }
}
'''
    assert check(withcol + star) == []
    assert check(withcol + star.replace("key thing_key = thing(thing_id)",
                                        "key thing_key = thing(thing_id)\n    map seq = 99")) == \
        ["mapping_unknown_target"]


def test_star_mapping_must_cover_key_columns():
    assert check(MINI + '''
star addr {
  participant thing
  participant time noted_at
  key (thing_key, noted_at)
  source_mapping things {
    key thing_key = thing(thing_id)
  }
}
''') == ["star_mapping_key_coverage"]


def test_item_rule_fields_must_exist_in_the_collection():
    for rule in ("explicit(position)", "concat(label, colour)"):
        assert check(WITH_PARTS + f'''
star lines {{
  participant thing
  participant item seq {rule}
  key (thing_key, seq)
  source_mapping things {{
    explode parts
    key thing_key = thing(thing_id)
  }}
}}
''') == ["item_rule_field"]


# --- gold rules -----------------------------------------------------------------------


def test_gold_base_kind_matches_view_kind():
    assert check(GOLD_BASE + '''
gold f {
  kind fact
  base hub thing
  output thing_key
}
''') == ["gold_base_kind"]
    assert check(GOLD_BASE + '''
gold d {
  kind scd1_dim
  base star thing_move
  output thing_key
}
''') == ["gold_base_kind"]


def test_gold_unknown_base_and_join():
    assert check(GOLD_BASE + '''
gold d {
  kind scd1_dim
  base hub phantom
  output thing_key
}
''') == ["gold_unknown_base", "gold_output_unknown_ref"]
    assert check(GOLD_BASE + '''
gold d {
  kind scd1_dim
  base hub thing
  join hub phantom on thing_key inner
  output thing_key
}
''') == ["gold_join_unknown"]
    assert check(GOLD_BASE + '''
gold d {
  kind scd1_dim
  base hub thing
  join_current star phantom on thing_key partition_by (thing_key) order_by (valid_from desc)
  output thing_key
}
''') == ["gold_join_unknown"]
    # the outputs that read the unknown star are reported too
    phantom = GOOD_SCD2.replace("versions star thing_move", "versions star phantom")
    assert check(GOLD_BASE + phantom) == ["gold_join_unknown"] + ["gold_output_unknown_ref"] * 3


def test_join_current_requires_a_hub_base():
    assert check(GOLD_BASE + '''
gold f {
  kind fact
  base star thing_move
  join_current star thing_move on thing_key partition_by (thing_key) order_by (valid_from desc)
  output thing_key
}
''') == ["gold_current_join_base", "gold_duplicate_table"]  # the base is the joined star


SALES = MINI + '''
source sales {
  load_source 2
  format csv
  column sale_id string
  column buyer_id integer
  column seller_id integer
  column sold_at timestamp
  capture last_modified sold_at
}

star sale {
  participant thing as buyer_key
  participant thing as seller_key
  participant time sold_at
  key (buyer_key, seller_key, sold_at)
  source_mapping sales {
    key buyer_key = thing(buyer_id)
    key seller_key = thing(seller_id)
    map sold_at = sold_at
  }
}
'''


def test_a_view_reads_each_table_once():
    # Both joins would land in one context slot, so every fact row would
    # carry the seller's name and the buyer's could not be referenced.
    assert check(SALES + '''
gold fact_sale {
  kind fact
  base star sale
  join hub thing on buyer_key inner
  join hub thing on seller_key inner
  output sold_at
  output thing_name
}
''') == ["gold_duplicate_table"]
    assert check(SALES + '''
gold fact_sale {
  kind fact
  base star sale
  join hub thing on buyer_key inner
  output sold_at
  output buyer_name = thing.thing_name
}
''') == []


def test_scd2_requires_versions_key_and_validity_outputs():
    assert check(GOLD_BASE + '''
gold d2 {
  kind scd2_dim
  base hub thing
  output thing_key
}
''') == ["gold_scd2_requires_versions", "gold_scd2_requires_key", "gold_scd2_validity"]


def test_scd2_clauses_do_not_belong_on_other_kinds():
    assert check(GOLD_BASE + '''
gold d {
  kind scd1_dim
  base hub thing
  versions star thing_move on thing_key partition_by (thing_key) order_by (valid_from desc)
  scd2_key (thing_key)
  output thing_key
}
''') == ["gold_versions_kind", "gold_scd2_key_kind"]


def test_temporal_join_only_on_facts_and_only_to_scd2():
    assert check(GOLD_BASE + GOOD_SCD2 + '''
gold d {
  kind scd1_dim
  base hub thing
  temporal_join dim_thing2 key thing_key time capture_timestamp
  output thing_key
}
''') == ["gold_temporal_kind"]
    assert check(GOLD_BASE + '''
gold d {
  kind scd1_dim
  base hub thing
  output thing_key
}

gold f {
  kind fact
  base star thing_move
  temporal_join d key thing_key time valid_from
  output thing_key
}
''') == ["gold_fact_temporal_target"]


@pytest.mark.parametrize("target", ["f", "d"], ids=["its-own-view", "an-scd1-view"])
def test_a_temporal_join_to_a_view_that_is_no_scd2_dim_neither_recurses_nor_raises(target):
    spec = parse_model(GOLD_BASE + f'''
gold d {{
  kind scd1_dim
  base hub thing
  output thing_key
}}

gold f {{
  kind fact
  base star thing_move
  temporal_join {target} key thing_key time valid_from
  output addr
}}
''').spec
    assert [v.rule for v in validate_model(spec).violations] == ["gold_fact_temporal_target"]
    assert gold_manifest(spec, spec.view("f")).columns == (ColumnSpec("addr", "string"),)


def test_the_validator_reports_on_random_models_without_raising():
    rng = random.Random(11)
    for _ in range(1000):
        assert isinstance(validate_model(parse_model(random_model_text(rng)).spec),
                          ValidationReport)


def test_temporal_join_needs_key_and_validity_in_the_dim_output():
    # dim is a valid scd2 view but does not expose the hub key column
    stripped = GOOD_SCD2.replace("  output thing_key\n", "")
    assert check(GOLD_BASE + stripped + '''
gold f {
  kind fact
  base star thing_move
  temporal_join dim_thing2 key thing_key time valid_from
  output thing_key
}
''') == ["gold_temporal_requires"]


def test_gold_output_references_must_resolve():
    assert check(GOLD_BASE + '''
gold d {
  kind scd1_dim
  base hub thing
  output a = phantom.thing_key
  output b = thing.nope
  output nowhere
}
''') == ["gold_output_unknown_ref"] * 3


def test_gold_hub_join_column_must_resolve():
    view = '''
gold d {
  kind scd1_dim
  base hub thing
  join hub second on second_key left
  output thing_key
}
'''
    text = (GOLD_BASE + SECOND_HUB).replace(
        "descriptive thing_name string",
        "descriptive thing_name string\n  descriptive second_key references second")
    assert check(text + view) == []
    assert check(text + view.replace("on second_key", "on second_kye")) == \
        ["gold_output_unknown_ref"]


GOOD_SCD1 = '''
gold dim_thing {
  kind scd1_dim
  base hub thing
  join_current star thing_move on thing_key partition_by (thing_key) order_by (valid_from desc)
  output thing_key
  output addr
}
'''


@pytest.mark.parametrize("view,column", [
    (GOOD_SCD1, "on thing_key"),
    (GOOD_SCD1, "partition_by (thing_key"),
    (GOOD_SCD1, "order_by (valid_from"),
    (GOOD_SCD2, "on thing_key"),
    (GOOD_SCD2, "partition_by (thing_key"),
    (GOOD_SCD2, "order_by (capture_timestamp"),
], ids=[f"{join}-{kind}" for join in ("join_current", "versions")
        for kind in ("on", "partition_by", "order_by")])
def test_star_join_columns_must_be_columns_of_the_joined_star(view, column):
    assert check(GOLD_BASE + view) == []
    assert check(GOLD_BASE + view.replace(column, column + "_typo")) == \
        ["gold_output_unknown_ref"]


def test_gold_outputs_required_and_unique():
    assert check(GOLD_BASE + '''
gold d {
  kind scd1_dim
  base hub thing
}
''') == ["gold_no_outputs"]
    assert check(GOLD_BASE + '''
gold d {
  kind scd1_dim
  base hub thing
  output thing_key
  output thing_key = thing_name
}
''') == ["gold_dup_output"]


# --- load ordering ------------------------------------------------------------------


def test_load_order_respects_fk_dependencies(retail_spec):
    order = resolve_load_order(retail_spec)
    assert sorted(order) == sorted(
        [h.name for h in retail_spec.hubs] + [s.name for s in retail_spec.stars])
    assert order.index("loyalty_segment") < order.index("customer")
    assert order.index("customer") < order.index("sales_order")
    for star in retail_spec.stars:
        for hub in {p.hub for p in star.hub_participants}:
            assert order.index(hub) < order.index(star.name)
