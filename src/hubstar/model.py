"""In-memory model of sources, hubs, stars, and gold views, plus the
structural validator and the dependency-ordered load plan.

All definition objects are immutable after construction and safe to share
across concurrent readers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from . import expr as ex
from .errors import EvalError, HubStarError

HUB_METADATA = ("load_source", "capture_timestamp", "load_timestamp", "initial_capture_timestamp")
STAR_METADATA = ("load_source", "capture_timestamp", "load_timestamp")
BRONZE_METADATA = ("capture_timestamp", "load_timestamp", "extract_path")
RESERVED_COLUMNS = frozenset(HUB_METADATA) | {"delete_flag", "extract_path"}

DEFAULT_HUB_KEY = "-1"
SYSTEM_LOAD_SOURCE = 0

LAYERS = ("bronze", "silver", "gold")
# The capture rules a source may list, as the language names them.
CAPTURE_KINDS = ("cdc_column", "last_modified", "file_mtime", "pipeline_now")


class ColumnSpec(NamedTuple):
    """One column, wherever the model or a manifest declares it: a source
    column, a business key, a silver or gold column. A collection column
    (type `collection`) holds arrays of items with the (name, type) fields
    it lists."""

    name: str
    type: str
    nullable: bool = True
    fields: tuple[tuple[str, str], ...] = ()


def metadata_columns(names: tuple[str, ...], has_delete_flag: bool) -> tuple[ColumnSpec, ...]:
    """The non-nullable metadata columns `names`, then the delete flag when
    there is one: the head of every bronze and silver layout."""
    types = {"load_source": "integer", "extract_path": "string"}
    columns = tuple(ColumnSpec(n, types.get(n, "timestamp"), False) for n in names)
    return columns + ((ColumnSpec("delete_flag", "integer", False),) if has_delete_flag else ())


class ModelError(HubStarError):
    """Unsatisfiable model-level request (e.g. cyclic load order)."""


@dataclass(frozen=True)
class CaptureSource:
    kind: str  # one of CAPTURE_KINDS
    column: str | None = None


@dataclass(frozen=True)
class SourceDef:
    name: str
    load_source_id: int
    input_format: str  # csv | ndjson
    columns: tuple[ColumnSpec, ...]
    capture_rule: tuple[CaptureSource, ...]
    delete_flag_column: str | None = None

    def column(self, name: str):
        for col in self.columns:
            if col.name == name:
                return col
        return None


@dataclass(frozen=True)
class KeyFormula:
    """Recipe for a computed hub key."""

    expression: ex.Expr

    @cached_property
    def columns(self) -> tuple[str, ...]:
        """The business keys the formula reads, sorted by name."""
        return tuple(sorted(ex.column_refs(self.expression)))

    @cached_property
    def _evaluate(self) -> ex.Evaluator:
        return ex.compile(self.expression, key_mode=True)

    def key(self, record, load_source: int) -> str:
        """The formula over one record's business-key values.

        Every referenced business key must be present: a hub row cannot be
        identified by a partial key, so nulls are an error here rather than
        the skip-the-operand behaviour concat has elsewhere.
        """
        for name in self.columns:
            if record.get(name) is None:
                raise EvalError(f"business key must have value: {name!r} is null")
        key = self._evaluate(ex.EvalContext(record, load_source))
        if not isinstance(key, str) or not key:
            raise EvalError(f"key formula produced {key!r}, expected a non-empty string")
        return key


@dataclass(frozen=True)
class FkResolution:
    """How a referencing column obtains a hub key: the target hub's formula
    applied to source-side business-key expressions.

    source_override pins load_source() during formula evaluation for
    local-scope targets fed by a different source than the referencing one.
    """

    hub: str
    args: tuple[ex.Expr, ...]
    source_override: int | None = None

    @cached_property
    def compiled_args(self) -> tuple[ex.Evaluator, ...]:
        return tuple(map(ex.compile, self.args))


@dataclass(frozen=True)
class DescriptiveDef:
    name: str
    type: str = "string"
    nullable: bool = True
    fk_hub: str | None = None

    @property
    def column(self) -> ColumnSpec:
        """A foreign key holds the referenced hub's key, never null."""
        if self.fk_hub is not None:
            return ColumnSpec(self.name, "string", False)
        return ColumnSpec(self.name, self.type, self.nullable)


@dataclass(frozen=True)
class SourceMapping:
    """How one source fills a hub or a star: `map` expressions, reference
    columns resolved to hub keys, a hub's `dedup_by` terms and the
    collection a star's mapping explodes."""

    source: str
    column_exprs: dict[str, ex.Expr] = field(default_factory=dict)
    fk_resolutions: dict[str, FkResolution] = field(default_factory=dict)
    dedup_order: tuple[tuple[str, str], ...] = ()  # (bronze column, asc|desc)
    explode_column: str | None = None

    @cached_property
    def compiled_exprs(self) -> dict[str, ex.Evaluator]:
        """`column_exprs`, each compiled once."""
        return {name: ex.compile(expr) for name, expr in self.column_exprs.items()}


class _Element:
    """What hubs and stars share: how a silver row is identified, and which
    of its columns a load may change."""

    @cached_property
    def tracked_columns(self) -> tuple[str, ...]:
        """The columns an update may change: the mapped columns outside the
        identity, then the delete flag."""
        mapped = tuple(c.name for c in self.mapped_columns if c.name not in self.identity)
        return mapped + (("delete_flag",) if self.has_delete_flag else ())


@dataclass(frozen=True)
class HubDef(_Element):
    name: str
    business_keys: tuple[ColumnSpec, ...]  # never null
    bk_scope: str  # global | local
    key_type: str  # computed | system_generated
    key_formula: KeyFormula | None = None
    descriptives: tuple[DescriptiveDef, ...] = ()
    has_delete_flag: bool = False
    source_mappings: tuple[SourceMapping, ...] = ()

    @property
    def key_column(self) -> str:
        return f"{self.name}_key"

    @property
    def table_name(self) -> str:
        return f"hub_{self.name}"

    @property
    def business_key_names(self) -> tuple[str, ...]:
        return tuple(bk.name for bk in self.business_keys)

    @cached_property
    def business_identity(self) -> tuple[str, ...]:
        """The columns that tell members apart by source values: the
        business keys, after `load_source` under `local` scope."""
        return (("load_source",) if self.bk_scope == "local" else ()) + self.business_key_names

    @cached_property
    def identity(self) -> tuple[str, ...]:
        """The columns that match a silver row: the key column of a computed
        hub, the business identity of a system-keyed one, whose keys cannot
        be recomputed."""
        return (self.key_column,) if self.key_type == "computed" else self.business_identity

    @cached_property
    def mapped_columns(self) -> tuple[ColumnSpec, ...]:
        """The columns a source mapping fills: business keys, then
        descriptives."""
        return self.business_keys + tuple(d.column for d in self.descriptives)

    @cached_property
    def columns(self) -> tuple[ColumnSpec, ...]:
        """Silver columns in file order: metadata, delete flag, key, then
        the mapped columns."""
        return (metadata_columns(HUB_METADATA, self.has_delete_flag)
                + (ColumnSpec(self.key_column, "string", False),) + self.mapped_columns)

    @cached_property
    def references(self) -> dict[str, str]:
        """Column -> hub for every column that holds a hub's key."""
        return {d.name: d.fk_hub for d in self.descriptives if d.fk_hub is not None}


@dataclass(frozen=True)
class ItemKeyRule:
    mode: str  # positional | explicit | concat
    sequence_field: str | None = None
    attributes: tuple[str, ...] = ()
    hashed: bool = False


def item_key_type(rule: ItemKeyRule) -> str:
    return "string" if rule.mode == "concat" else "integer"


@dataclass(frozen=True)
class HubParticipant:
    hub: str
    column: str  # key column inside the star (role name)


@dataclass(frozen=True)
class TimeParticipant:
    column: str


@dataclass(frozen=True)
class ItemParticipant:
    column: str
    rule: ItemKeyRule


Participant = HubParticipant | TimeParticipant | ItemParticipant


@dataclass(frozen=True)
class StarDef(_Element):
    name: str
    participants: tuple[Participant, ...]
    key_columns: tuple[str, ...]
    descriptives: tuple[DescriptiveDef, ...] = ()
    has_delete_flag: bool = False
    source_mappings: tuple[SourceMapping, ...] = ()

    @property
    def table_name(self) -> str:
        return f"star_{self.name}"

    @property
    def identity(self) -> tuple[str, ...]:
        """The columns that match a silver row: the composite key."""
        return self.key_columns

    @property
    def participant_columns(self) -> tuple[str, ...]:
        return tuple(p.column for p in self.participants)

    @cached_property
    def hub_participants(self) -> tuple[HubParticipant, ...]:
        return tuple(p for p in self.participants if isinstance(p, HubParticipant))

    @cached_property
    def item_participant(self) -> ItemParticipant | None:
        for p in self.participants:
            if isinstance(p, ItemParticipant):
                return p
        return None

    @cached_property
    def mapped_columns(self) -> tuple[ColumnSpec, ...]:
        """The columns a source mapping fills: participant keys, then
        descriptives. A time participant outside the composite key may be
        null."""
        participants = []
        for p in self.participants:
            if isinstance(p, HubParticipant):
                participants.append(ColumnSpec(p.column, "string", False))
            elif isinstance(p, TimeParticipant):
                participants.append(ColumnSpec(p.column, "timestamp",
                                               p.column not in self.key_columns))
            else:
                participants.append(ColumnSpec(p.column, item_key_type(p.rule), False))
        return tuple(participants) + tuple(d.column for d in self.descriptives)

    @cached_property
    def columns(self) -> tuple[ColumnSpec, ...]:
        """Silver columns in file order: metadata, delete flag, then the
        mapped columns."""
        return metadata_columns(STAR_METADATA, self.has_delete_flag) + self.mapped_columns

    @cached_property
    def references(self) -> dict[str, str]:
        """Column -> hub for every column that holds a hub's key: hub
        participants, then `references` descriptives."""
        hubs = [(p.column, p.hub) for p in self.hub_participants]
        return dict(hubs + [(d.name, d.fk_hub) for d in self.descriptives if d.fk_hub is not None])


@dataclass(frozen=True)
class ColumnRef:
    table: str | None  # model element name, or None for "resolve in order"
    column: str

    def __str__(self) -> str:
        """The reference as the model language writes it."""
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class OutputColumn:
    name: str
    ref: ColumnRef | None = None  # None means the concatenated scd2 key


@dataclass(frozen=True)
class HubJoin:
    hub: str
    on_column: str  # base-side FK column equated to the hub's key column
    how: str = "inner"  # inner | left


@dataclass(frozen=True)
class StarJoin:
    """Left join to the rn=1, delete_flag=0 rows of a star: an SCD1 source
    in `GoldViewDef.joins`, the SCD2 versions in `GoldViewDef.versions`."""

    star: str
    on_column: str
    partition_by: tuple[str, ...]
    order_by: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class TemporalJoin:
    """Left join a fact to an SCD2 dim: equal key and timestamp inside the
    version's validity interval (null valid_to open-ended)."""

    dim: str
    key_ref: ColumnRef
    time_ref: ColumnRef


@dataclass(frozen=True)
class GoldViewDef:
    name: str
    kind: str  # scd1_dim | scd2_dim | fact
    base_kind: str  # hub | star
    base: str
    joins: tuple[HubJoin | StarJoin, ...] = ()
    versions: StarJoin | None = None
    temporal: TemporalJoin | None = None
    scd2_key: tuple[ColumnRef, ...] = ()
    outputs: tuple[OutputColumn, ...] = ()

    @property
    def table_name(self) -> str:
        return self.name

    @property
    def read_tables(self) -> tuple[tuple[str, str, bool], ...]:
        """(kind, name, left-joined) of every table the view reads, in the
        order bare column references resolve: base, joins, versions, then
        the temporal dimension. Kind is hub, star or gold."""
        tables = [(self.base_kind, self.base, False)]
        for join in self.joins:
            if isinstance(join, HubJoin):
                tables.append(("hub", join.hub, join.how == "left"))
            else:
                tables.append(("star", join.star, True))
        if self.versions is not None:
            tables.append(("star", self.versions.star, True))
        if self.temporal is not None:
            tables.append(("gold", self.temporal.dim, True))
        return tuple(tables)


@dataclass(frozen=True)
class ModelSpec:
    product_name: str
    schema_names: dict[str, str]
    sources: tuple[SourceDef, ...] = ()
    hubs: tuple[HubDef, ...] = ()
    stars: tuple[StarDef, ...] = ()
    gold_views: tuple[GoldViewDef, ...] = ()

    @cached_property
    def _named(self) -> dict[tuple[str, str], SourceDef | HubDef | StarDef | GoldViewDef]:
        """The first definition of each kind and name. Loads look sources
        and hubs up once per bronze row, so a scan would cost per row."""
        named = {}
        for kind, defs in (("source", self.sources), ("hub", self.hubs),
                           ("star", self.stars), ("view", self.gold_views)):
            for d in defs:
                named.setdefault((kind, d.name), d)
        return named

    def source(self, name: str) -> SourceDef | None:
        return self._named.get(("source", name))

    def hub(self, name: str) -> HubDef | None:
        return self._named.get(("hub", name))

    def star(self, name: str) -> StarDef | None:
        return self._named.get(("star", name))

    def view(self, name: str) -> GoldViewDef | None:
        return self._named.get(("view", name))

    def element(self, kind: str, name: str) -> HubDef | StarDef | None:
        """The hub or star `name` when `kind` is "hub" or "star"; None for
        any other kind."""
        return self._named.get((kind, name)) if kind in ("hub", "star") else None


def _hub_star_tables(spec: ModelSpec, view: GoldViewDef) -> dict[str, dict[str, tuple[str, bool]]]:
    """The hubs and stars among the view's `read_tables` that the model
    defines, by name in that order, each as column -> (type, nullable). A
    left-joined table's columns are nullable."""
    tables = {}
    for kind, name, left in view.read_tables:
        element = spec.element(kind, name)
        if element is not None:
            tables[name] = {c.name: (c.type, c.nullable or left) for c in element.columns}
    return tables


def view_tables(spec: ModelSpec, view: GoldViewDef) -> dict[str, dict[str, tuple[str, bool]]]:
    """Every table the view reads that the model defines, by name in
    `read_tables` order, each as column -> (type, nullable): its hubs and
    stars, then the dimension of its temporal join, whose columns are that
    dimension's outputs, all nullable.

    The dimension's outputs are typed over its own hubs and stars. A valid
    dimension reads nothing else, and an invalid temporal join, naming its
    own view or another fact, cannot recurse."""
    tables = _hub_star_tables(spec, view)
    dim = None if view.temporal is None else spec.view(view.temporal.dim)
    if dim is not None:
        tables[dim.name] = {column: (ctype, True) for column, (ctype, _nullable)
                            in output_types(dim, _hub_star_tables(spec, dim)).items()}
    return tables


def ref_table(tables: dict[str, dict[str, tuple[str, bool]]], ref: ColumnRef) -> str | None:
    """The table of `tables` a column reference reads, or None when it has
    no such column: a qualified reference reads the table it names, and a
    bare one the first table that has the column."""
    names = tables if ref.table is None else (ref.table,)
    return next((name for name in names if ref.column in tables.get(name, ())), None)


def output_types(view: GoldViewDef,
                 tables: dict[str, dict[str, tuple[str, bool]]]) -> dict[str, tuple[str, bool]]:
    """(type, nullable) of each output of the view that `tables` resolve,
    by output name. The scd2 key is a string that is never null; an scd2
    dimension's valid_to is null for the open current version."""
    types = {}
    for out in view.outputs:
        if out.ref is None:
            types[out.name] = ("string", False)
        elif (table := ref_table(tables, out.ref)) is not None:
            ctype, nullable = tables[table][out.ref.column]
            open_ended = view.kind == "scd2_dim" and out.name == "valid_to"
            types[out.name] = (ctype, nullable or open_ended)
    return types


def default_schema_names(product_name: str) -> dict[str, str]:
    return {
        "bronze": f"raw_{product_name}",
        "silver": f"hs_{product_name}",
        "gold": f"ss_{product_name}",
    }


@dataclass(frozen=True)
class Violation:
    rule: str
    location: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class _Checker:
    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.violations: list[Violation] = []

    def add(self, rule: str, location: str, message: str):
        self.violations.append(Violation(rule, location, message))


def validate_model(spec: ModelSpec) -> ValidationReport:
    """Audit a model against the structural rules. Violations are data,
    not exceptions; an empty report means the model is well-formed."""
    ck = _Checker(spec)
    _check_names(ck)
    _check_schemas(ck)
    for source in spec.sources:
        _check_source(ck, source)
    for hub in spec.hubs:
        _check_hub(ck, hub)
    _check_fk_cycles(ck)
    for star in spec.stars:
        _check_star(ck, star)
    for view in spec.gold_views:
        _check_gold(ck, view)
    return ValidationReport(tuple(ck.violations))


def _repeated(names: list[str]) -> list[str]:
    """The names that occur more than once in `names`, sorted."""
    return sorted({name for name in names if names.count(name) > 1})


def _check_names(ck: _Checker):
    seen: dict[str, str] = {}
    groups = (
        ("source", ck.spec.sources),
        ("hub", ck.spec.hubs),
        ("star", ck.spec.stars),
        ("gold", ck.spec.gold_views),
    )
    for kind, defs in groups:
        for d in defs:
            if d.name in seen:
                ck.add("dup_name", f"{kind} {d.name}",
                       f"name {d.name!r} already used by {seen[d.name]}")
            else:
                seen[d.name] = f"{kind} {d.name}"


def _check_schemas(ck: _Checker):
    if set(ck.spec.schema_names) != set(LAYERS):
        ck.add("schema_layers", "schemas",
               f"schema_names must cover exactly {LAYERS}, got {sorted(ck.spec.schema_names)}")


def _check_source(ck: _Checker, source: SourceDef):
    loc = f"source {source.name}"
    if source.load_source_id < 1:
        ck.add("source_load_source_id", loc,
               "load_source must be >= 1 (0 is reserved for the system)")
    names = [c.name for c in source.columns]
    for name in _repeated(names):
        ck.add("source_dup_column", loc, f"duplicate column {name!r}")
    reserved = set(BRONZE_METADATA) | {"delete_flag"}
    for name in names:
        if name in reserved:
            ck.add("reserved_column", loc, f"column name {name!r} is reserved for metadata")
    if not source.capture_rule:
        ck.add("capture_rule_empty", loc, "at least one capture_timestamp rule required")
    for entry in source.capture_rule:
        if entry.kind in ("cdc_column", "last_modified"):
            col = source.column(entry.column or "")
            if col is None:
                ck.add("capture_rule_column", loc,
                       f"capture rule names unknown column {entry.column!r}")
            elif col.type != "timestamp":
                ck.add("capture_rule_column", loc,
                       f"capture column {entry.column!r} must be a timestamp")
    if source.delete_flag_column and source.column(source.delete_flag_column) is None:
        ck.add("delete_flag_column_unknown", loc,
               f"delete_flag_column {source.delete_flag_column!r} is not a declared column")
    if source.input_format == "csv":
        for col in source.columns:
            if col.type == "collection":
                ck.add("csv_collection", loc,
                       f"collection column {col.name!r} requires the ndjson format")


def _check_hub(ck: _Checker, hub: HubDef):
    loc = f"hub {hub.name}"
    if not hub.business_keys:
        ck.add("hub_missing_business_key", loc, "hub requires business key")
    own = [hub.key_column] + list(hub.business_key_names) + [d.name for d in hub.descriptives]
    for name in _repeated(own):
        ck.add("hub_dup_column", loc, f"duplicate column {name!r}")
    for name in own:
        if name in RESERVED_COLUMNS:
            ck.add("reserved_column", loc, f"column name {name!r} is reserved for metadata")
    if hub.key_type == "computed":
        if hub.key_formula is None:
            ck.add("hub_key_formula_missing", loc, "computed key requires a formula")
        else:
            _check_key_formula(ck, hub, loc)
    elif hub.key_formula is not None:
        ck.add("hub_key_formula_unexpected", loc,
               "system_generated hubs do not take a key formula")
    _check_references(ck, loc, hub)
    for mapping in hub.source_mappings:
        _check_hub_mapping(ck, hub, mapping)


def _check_key_formula(ck: _Checker, hub: HubDef, loc: str):
    formula = hub.key_formula
    unknown = ex.column_refs(formula.expression) - set(hub.business_key_names)
    for name in sorted(unknown):
        ck.add("key_formula_unknown_column", loc,
               f"key formula references {name!r}, not a business key")
    for name in sorted(ex.item_field_refs(formula.expression)):
        ck.add("key_formula_unknown_column", loc,
               f"key formula references item.{name}, not a business key")
    if ex.uses_function(formula.expression, "item_seq"):
        ck.add("key_formula_unknown_column", loc,
               "key formula calls item_seq(), not a business key")
    if hub.bk_scope == "local" and not ex.uses_function(formula.expression, "load_source"):
        ck.add("key_formula_local_needs_source", loc,
               "local business keys require load_source() in the key formula")
    concats = [node for node in ex.nodes(formula.expression)
               if isinstance(node, ex.Call) and node.func == "concat"]
    if any(not node.args[0].value for node in concats):
        ck.add("key_formula_delimiter", loc, "every concat in a key formula needs a delimiter")
    if any(outer.args[0].value and outer.args[0].value in text
           for outer in concats for operand in outer.args[1:] for text in _fixed_text(operand)):
        ck.add("key_formula_delimiter", loc, "a literal operand or a nested concat's "
               "delimiter may not contain its parent's delimiter")


def _fixed_text(expr):
    """Text that a value of `expr` can hold whole: the text of a literal and
    the delimiter of a concat of two or more operands, each `expr` itself or
    inside a cast or coalesce. A concat that takes `expr` as an operand
    fails on every row where such text holds its delimiter."""
    if isinstance(expr, ex.Cast):
        yield from _fixed_text(expr.operand)
    elif isinstance(expr, ex.Call) and expr.func == "coalesce":
        for arg in expr.args:
            yield from _fixed_text(arg)
    elif isinstance(expr, ex.Call) and expr.func == "concat" and len(expr.args) > 2:
        yield expr.args[0].value
    elif isinstance(expr, ex.Lit):
        yield str(expr.value)


def _check_references(ck: _Checker, loc: str, element: HubDef | StarDef):
    """Every reference column names a known hub whose keys can be resolved
    from source values. A star participant naming an unknown hub reports
    `star_unknown_hub`."""
    participants = element.participant_columns if isinstance(element, StarDef) else ()
    for column, hub_name in element.references.items():
        target = ck.spec.hub(hub_name)
        if target is None and column in participants:
            ck.add("star_unknown_hub", loc, f"participant references unknown hub {hub_name!r}")
        elif target is None:
            ck.add("fk_unknown_hub", loc, f"{column!r} references unknown hub {hub_name!r}")
        elif target.key_type == "system_generated" and target.bk_scope == "local":
            ck.add("fk_unresolvable_target", loc,
                   f"{column!r} references {hub_name!r}: system-generated keys with local "
                   "business keys cannot be resolved from source values")


def _check_expr_columns(ck: _Checker, loc: str, source: SourceDef | None,
                        expression: ex.Expr, exploding: bool, collection: ColumnSpec | None):
    if source is None:
        return
    declared = {c.name: c.type for c in source.columns}
    for name in sorted(ex.column_refs(expression)):
        if name not in declared:
            ck.add("mapping_unknown_column", loc, f"expression references unknown column {name!r}")
        elif declared[name] == "collection":  # its items are read through `explode`
            ck.add("mapping_collection_column", loc,
                   f"expression reads collection column {name!r}, which holds no scalar")
    if not exploding and ex.uses_function(expression, "item_seq"):
        ck.add("item_ref_outside_collection", loc, "item_seq() requires an exploded collection")
    item_fields = ex.item_field_refs(expression)
    if item_fields and not exploding:
        ck.add("item_ref_outside_collection", loc,
               "item.<field> references require an exploded collection")
    elif collection is not None:
        fields = {name for name, _type in collection.fields}
        for name in sorted(item_fields - fields):
            ck.add("mapping_unknown_column", loc, f"unknown item field {name!r}")


def _check_hub_mapping(ck: _Checker, hub: HubDef, mapping: SourceMapping):
    loc = f"hub {hub.name} mapping {mapping.source}"
    source = ck.spec.source(mapping.source)
    if source is None:
        ck.add("mapping_unknown_source", loc, f"unknown source {mapping.source!r}")
    if mapping.explode_column is not None:
        ck.add("hub_mapping_explode", loc, "a hub mapping explodes no collection")
    _check_mapping_columns(ck, loc, hub, mapping, source, False, None)
    missing = set(hub.business_key_names) - set(mapping.column_exprs)
    for name in sorted(missing):
        ck.add("mapping_bk_coverage", loc, f"business key {name!r} is not mapped")
    if source is not None:
        declared = {c.name for c in source.columns}
        for column, _direction in mapping.dedup_order:
            if column not in declared:
                ck.add("dedup_unknown_column", loc, f"dedup column {column!r} not in source")


def _check_mapping_columns(ck: _Checker, loc: str, element: HubDef | StarDef,
                           mapping: SourceMapping, source: SourceDef | None,
                           exploding: bool, collection: ColumnSpec | None):
    """`map` fills a mapped column that holds no hub key and no item key; a
    hub's `fk` or a star's `key` resolves one that holds a hub key, with the
    business keys of the hub it references."""
    kind, clause = ("hub", "fk") if isinstance(element, HubDef) else ("star", "key")
    targets = {c.name for c in element.mapped_columns}
    item = element.item_participant if isinstance(element, StarDef) else None
    for column, expression in mapping.column_exprs.items():
        if column in element.references:
            ck.add("mapping_unknown_target", loc,
                   f"{column!r} holds a hub key; resolve it with {clause}")
        elif item is not None and column == item.column:
            ck.add("mapping_unknown_target", loc,
                   f"{column!r} holds the item key; the explosion fills it")
        elif column not in targets:
            ck.add("mapping_unknown_target", loc, f"mapped column {column!r} is not a {kind} column")
        _check_expr_columns(ck, loc, source, expression, exploding, collection)
    for column, res in mapping.fk_resolutions.items():
        hub_name = element.references.get(column)
        if hub_name is None:
            ck.add("mapping_fk_target", loc, f"{column!r} holds no hub key")
        elif hub_name != res.hub:
            ck.add("mapping_fk_target", loc,
                   f"{column!r} references hub {hub_name!r}, mapping says {res.hub!r}")
        target = ck.spec.hub(res.hub)
        if target is not None and len(res.args) != len(target.business_keys):
            ck.add("mapping_fk_target", loc,
                   f"hub {res.hub!r} takes {len(target.business_keys)} business key(s), "
                   f"got {len(res.args)}")
        for arg in res.args:
            _check_expr_columns(ck, loc, source, arg, exploding, collection)


def _check_fk_cycles(ck: _Checker):
    cycle = _find_cycle({
        hub.name: sorted({h for h in hub.references.values() if ck.spec.hub(h) is not None})
        for hub in ck.spec.hubs
    })
    if cycle:
        ck.add("hub_fk_cycle", f"hub {cycle[0]}",
               "cyclic foreign-key chain: " + " -> ".join(cycle))


def _check_star(ck: _Checker, star: StarDef):
    loc = f"star {star.name}"
    if not star.participants:
        ck.add("star_no_participants", loc, "star requires at least one participant")
    cols = list(star.participant_columns)
    for name in _repeated(cols):
        ck.add("star_dup_participant_column", loc, f"duplicate participant column {name!r}")
    item_count = sum(1 for p in star.participants if isinstance(p, ItemParticipant))
    if item_count > 1:
        ck.add("star_multiple_items", loc, "at most one item participant per star")
    _check_references(ck, loc, star)
    if not star.key_columns:
        ck.add("star_key_empty", loc, "composite key must not be empty")
    allowed = set(star.participant_columns) | {"capture_timestamp"}
    for name in star.key_columns:
        if name not in allowed:
            ck.add("star_key_not_participant", loc,
                   f"key column {name!r} is not a participant key column")
    own = cols + [d.name for d in star.descriptives]
    for name in _repeated(own):
        ck.add("star_dup_column", loc, f"duplicate column {name!r}")
    for name in own:
        if name in RESERVED_COLUMNS:
            ck.add("reserved_column", loc, f"column name {name!r} is reserved for metadata")
    for mapping in star.source_mappings:
        _check_star_mapping(ck, star, mapping)


def _check_star_mapping(ck: _Checker, star: StarDef, mapping: SourceMapping):
    loc = f"star {star.name} mapping {mapping.source}"
    source = ck.spec.source(mapping.source)
    if source is None:
        ck.add("mapping_unknown_source", loc, f"unknown source {mapping.source!r}")
    item = star.item_participant
    collection = None
    if mapping.explode_column is not None:
        if item is None:
            ck.add("star_mapping_explode", loc, "explode requires an item participant")
        if source is not None:
            col = source.column(mapping.explode_column)
            if col is None or col.type != "collection":
                ck.add("star_mapping_explode", loc,
                       f"explode column {mapping.explode_column!r} is not a collection column")
            else:
                collection = col
    elif item is not None:
        ck.add("star_mapping_explode", loc,
               "star has an item participant; the mapping must explode a collection")
    if mapping.dedup_order:
        ck.add("star_mapping_dedup", loc,
               "dedup_by ranks only a hub's versions; a star's rank by capture time")
    exploding = mapping.explode_column is not None
    if item is not None and collection is not None:
        _check_item_rule(ck, loc, item.rule, collection)

    _check_mapping_columns(ck, loc, star, mapping, source, exploding, collection)
    mapped = set(mapping.column_exprs) | set(mapping.fk_resolutions)
    if item is not None:
        mapped.add(item.column)  # filled by the explosion
    for name in star.key_columns:
        if name == "capture_timestamp":
            continue  # metadata, stamped by the loader
        if name not in mapped:
            ck.add("star_mapping_key_coverage", loc, f"key column {name!r} is not mapped")


def _check_item_rule(ck: _Checker, loc: str, rule: ItemKeyRule, collection: ColumnSpec):
    fields = {name for name, _type in collection.fields}
    if rule.mode == "explicit":
        if rule.sequence_field not in fields:
            ck.add("item_rule_field", loc,
                   f"sequence field {rule.sequence_field!r} not in collection {collection.name!r}")
    elif rule.mode == "concat":
        for name in rule.attributes:
            if name not in fields:
                ck.add("item_rule_field", loc,
                       f"item attribute {name!r} not in collection {collection.name!r}")


def _check_gold(ck: _Checker, view: GoldViewDef):
    loc = f"gold {view.name}"
    spec = ck.spec
    if view.kind in ("scd1_dim", "scd2_dim") and view.base_kind != "hub":
        ck.add("gold_base_kind", loc, f"{view.kind} views are based on a hub")
    if view.kind == "fact" and view.base_kind != "star":
        ck.add("gold_base_kind", loc, "fact views are based on a star")
    if spec.element(view.base_kind, view.base) is None:
        ck.add("gold_unknown_base", loc, f"unknown base {view.base_kind} {view.base!r}")
    for join in view.joins:
        if isinstance(join, HubJoin):
            if spec.hub(join.hub) is None:
                ck.add("gold_join_unknown", loc, f"join references unknown hub {join.hub!r}")
        else:
            if spec.star(join.star) is None:
                ck.add("gold_join_unknown", loc, f"join references unknown star {join.star!r}")
            if view.base_kind != "hub":
                ck.add("gold_current_join_base", loc,
                       "join_current requires a hub base (it keys off the base hub key)")
    if view.kind == "scd2_dim":
        if view.versions is None:
            ck.add("gold_scd2_requires_versions", loc, "scd2_dim requires a versions join")
        elif spec.star(view.versions.star) is None:
            ck.add("gold_join_unknown", loc,
                   f"versions references unknown star {view.versions.star!r}")
        if not view.scd2_key:
            ck.add("gold_scd2_requires_key", loc, "scd2_dim requires scd2_key components")
        names = {o.name for o in view.outputs}
        if not {"valid_from", "valid_to"} <= names:
            ck.add("gold_scd2_validity", loc,
                   "scd2_dim output must include the valid_from/valid_to pair")
    else:
        if view.versions is not None:
            ck.add("gold_versions_kind", loc, "versions joins are only for scd2_dim views")
        if view.scd2_key:
            ck.add("gold_scd2_key_kind", loc, "scd2_key is only for scd2_dim views")
    if view.temporal is not None:
        if view.kind != "fact":
            ck.add("gold_temporal_kind", loc, "temporal joins are only for fact views")
        else:
            dim = spec.view(view.temporal.dim)
            if dim is None or dim.kind != "scd2_dim":
                ck.add("gold_fact_temporal_target", loc,
                       f"temporal join target {view.temporal.dim!r} is not an scd2_dim in this model")
            else:
                base_hub = spec.hub(dim.base)
                needed = {"valid_from", "valid_to"}
                if base_hub is not None:
                    needed.add(base_hub.key_column)
                outputs = {o.name for o in dim.outputs}
                for name in sorted(needed - outputs):
                    ck.add("gold_temporal_requires", loc,
                           f"temporal join needs column {name!r} in {dim.name}'s output")
    read = [name for _kind, name, _left in view.read_tables]
    for name in _repeated(read):
        ck.add("gold_duplicate_table", loc,
               f"{name!r} is read more than once; a view reads each table once")
    tables = view_tables(spec, view)
    refs: list[tuple[str, ColumnRef]] = []
    for out in view.outputs:
        if out.ref is not None:
            refs.append((f"output {out.name}", out.ref))
    refs.extend((f"scd2_key component {r.column}", r) for r in view.scd2_key)
    if view.temporal is not None:
        refs.append(("temporal key", view.temporal.key_ref))
        refs.append(("temporal time", view.temporal.time_ref))
    refs.extend((f"join {join.hub} on", ColumnRef(None, join.on_column))
                for join in view.joins if isinstance(join, HubJoin))
    star_joins = [("join_current", j) for j in view.joins if isinstance(j, StarJoin)]
    if view.versions is not None:
        star_joins.append(("versions", view.versions))
    for clause, join in star_joins:
        if spec.star(join.star) is None:
            continue  # reported as gold_join_unknown
        columns = ([("on", join.on_column)] + [("partition_by", c) for c in join.partition_by]
                   + [("order_by", c) for c, _direction in join.order_by])
        refs.extend((f"{clause} {join.star} {part}", ColumnRef(join.star, column))
                    for part, column in columns)
    for what, ref in refs:
        if ref_table(tables, ref) is None:
            ck.add("gold_output_unknown_ref", loc, f"{what}: no table of the view has {str(ref)!r}")
    names = [o.name for o in view.outputs]
    for name in _repeated(names):
        ck.add("gold_dup_output", loc, f"duplicate output column {name!r}")
    if not view.outputs:
        ck.add("gold_no_outputs", loc, "view must project at least one column")


def resolve_load_order(spec: ModelSpec) -> list[str]:
    """Topological load plan over hubs and stars (model element names).

    A hub precedes every hub and star with a column that references it;
    ties fall back to declaration order, hubs before stars.
    """
    elements = spec.hubs + spec.stars
    order_index = {e.name: i for i, e in enumerate(elements)}
    deps = {e.name: {h for h in e.references.values() if spec.hub(h) is not None and h != e.name}
            for e in elements}

    result: list[str] = []
    done: set[str] = set()
    remaining = set(deps)
    while remaining:
        ready = sorted((n for n in remaining if deps[n] <= done),
                       key=lambda n: order_index[n])
        if not ready:
            cycle = _find_cycle({n: sorted(deps[n] & remaining) for n in sorted(remaining)})
            raise ModelError("cyclic hub dependencies: " + " -> ".join(cycle))
        node = ready[0]
        result.append(node)
        done.add(node)
        remaining.remove(node)
    return result


def _find_cycle(graph: dict[str, list[str]]) -> list[str] | None:
    """The first cycle a depth-first search meets, walking nodes and their
    dependencies in the order given, as a path that repeats its first node."""
    state: dict[str, int] = {}
    stack: list[str] = []

    def visit(node: str) -> list[str] | None:
        state[node] = 1
        stack.append(node)
        for dep in graph.get(node, ()):
            if state.get(dep) == 1:
                return stack[stack.index(dep):] + [dep]
            if state.get(dep, 0) == 0:
                found = visit(dep)
                if found:
                    return found
        stack.pop()
        state[node] = 2
        return None

    for name in graph:
        if state.get(name, 0) == 0:
            found = visit(name)
            if found:
                return found
    return None
