"""Parser and canonical renderer for the model language.

`parse_model` turns text into a ModelSpec plus source positions for each
top-level definition; `render_model` is its inverse and acts as the
canonical formatter: render(parse(render(s))) == render(s).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import expr as ex
from .errors import ParseError
from .lexer import IDENT, INT, NEWLINE, STRING, SYMBOL, Token, TokenStream, tokenize
from .model import (
    CaptureSource,
    ColumnRef,
    ColumnSpec,
    DescriptiveDef,
    FkResolution,
    GoldViewDef,
    HubDef,
    HubJoin,
    HubParticipant,
    ItemKeyRule,
    ItemParticipant,
    KeyFormula,
    ModelSpec,
    OutputColumn,
    SourceDef,
    SourceMapping,
    StarDef,
    StarJoin,
    TemporalJoin,
    TimeParticipant,
    CAPTURE_KINDS,
    LAYERS,
    default_schema_names,
)
from .values import SCALAR_TYPES

@dataclass(frozen=True)
class ModelDocument:
    spec: ModelSpec


def parse_model(text: str) -> ModelDocument:
    return _Parser(TokenStream(tokenize(text))).parse()


def load_model(path: Path | str) -> ModelDocument:
    return parse_model(Path(path).read_text(encoding="utf-8"))


class _Parser:
    def __init__(self, stream: TokenStream):
        self.s = stream
        self.names: dict[str, Token] = {}

    # -- plumbing ---------------------------------------------------------

    def fail(self, message: str, tok: Token):
        raise ParseError(message, tok.line, tok.column)

    def keyword(self) -> Token:
        return self.ident("a keyword")

    def ident(self, what: str) -> Token:
        tok = self.s.next()
        if tok.kind != IDENT:
            self.fail(f"expected {what}, found {tok.text!r}", tok)
        return tok

    def choice(self, what: str, options, refusal: str) -> str:
        """An identifier among `options`; any other is `<refusal> '<word>'`."""
        tok = self.ident(what)
        if tok.text not in options:
            self.fail(f"{refusal} {tok.text!r}", tok)
        return tok.text

    def accept(self, kind: str, text: str) -> bool:
        """Consume the next token if it is `text`; say whether it was."""
        tok = self.s.peek()
        if tok.kind != kind or tok.text != text:
            return False
        self.s.next()
        return True

    def open_block(self):
        self.s.expect(SYMBOL, "{")
        self.s.expect(NEWLINE)

    def block(self, what: str, clauses: dict, once: tuple[str, ...] = (),
              keyed: tuple[str, ...] = ()) -> dict:
        """`{`, one clause per line, `}`. The line end after `}` is left to the
        caller: the loop of the enclosing block, or a definition that checks
        its clauses once its line is complete.

        `clauses` maps each keyword to the parser of the rest of its line.
        The result maps a keyword in `once`, which may appear once, to its
        value; a keyword in `keyed`, whose parser returns `(column, value)`
        and whose column may appear once per keyword, to a column -> value
        dict; and every other keyword that appeared to its values in order.
        Clauses whose values must interleave across keywords append to a
        list their parsers share instead.
        """
        self.open_block()
        found: dict = {}
        while not self.s.at(SYMBOL, "}"):
            tok = self.keyword()
            key = tok.text
            if key not in clauses:
                self.fail(f"unknown keyword {key!r} in {what} block", tok)
            if key in once:
                if key in found:
                    self.fail(f"duplicate {key}", tok)
                found[key] = clauses[key]()
            elif key in keyed:
                values = found.setdefault(key, {})
                col_tok = self.s.peek()
                if col_tok.kind == IDENT and col_tok.text in values:
                    self.fail(f"column {col_tok.text!r} mapped twice", col_tok)
                column, value = clauses[key]()
                values[column] = value
            else:
                found.setdefault(key, []).append(clauses[key]())
            self.s.end_line()
        self.s.expect(SYMBOL, "}")
        return found

    def claim_name(self, what: str) -> Token:
        tok = self.ident(f"{what} name")
        if tok.text in self.names:
            prev = self.names[tok.text]
            self.fail(f"duplicate name {tok.text!r} (first used at line {prev.line})", tok)
        self.names[tok.text] = tok
        return tok

    def comma_list(self, parse_item, parenthesised: bool = True) -> tuple:
        """One or more items separated by commas, in parentheses or bare."""
        if parenthesised:
            self.s.expect(SYMBOL, "(")
        items = [parse_item()]
        while self.accept(SYMBOL, ","):
            items.append(parse_item())
        if parenthesised:
            self.s.expect(SYMBOL, ")")
        return tuple(items)

    def assignment(self, what: str, parse_value) -> tuple:
        """`<column> = <value>` as a `(column, value)` pair."""
        column = self.ident(what).text
        self.s.expect(SYMBOL, "=")
        return column, parse_value()

    def expression(self) -> ex.Expr:
        return ex.parse_expr(self.s)

    def column_name(self) -> str:
        return self.ident("column name").text

    # -- top level --------------------------------------------------------

    def parse(self) -> ModelDocument:
        product = schemas = None
        parsers = {"source": self.parse_source, "hub": self.parse_hub,
                   "star": self.parse_star, "gold": self.parse_gold}
        definitions: dict[str, list] = {kind: [] for kind in parsers}
        while not self.s.at("eof"):
            tok = self.keyword()
            if tok.text == "product":
                if product is not None:
                    self.fail("duplicate product", tok)
                product = self.ident("product name").text
                self.s.end_line()
            elif tok.text == "schemas":
                if schemas is not None:
                    self.fail("duplicate schemas block", tok)
                schemas = self.parse_schemas()
            elif tok.text in parsers:
                definitions[tok.text].append(parsers[tok.text]())
            else:
                self.fail(f"unknown top-level keyword {tok.text!r}", tok)
        if product is None:
            raise ParseError("model must declare a product", 1, 1)
        spec = ModelSpec(
            product_name=product,
            schema_names=schemas or default_schema_names(product),
            sources=tuple(definitions["source"]),
            hubs=tuple(definitions["hub"]),
            stars=tuple(definitions["star"]),
            gold_views=tuple(definitions["gold"]),
        )
        return ModelDocument(spec)

    def parse_schemas(self) -> dict[str, str]:
        self.open_block()
        names: dict[str, str] = {}
        while not self.s.at(SYMBOL, "}"):
            tok = self.keyword()
            if tok.text not in LAYERS:
                self.fail(f"unknown layer {tok.text!r}", tok)
            if tok.text in names:
                self.fail(f"duplicate layer {tok.text!r}", tok)
            names[tok.text] = self.s.expect(STRING).text
            self.s.end_line()
        self.s.expect(SYMBOL, "}")
        self.s.end_line()
        for layer in LAYERS:
            if layer not in names:
                raise ParseError(f"schemas block missing the {layer} layer", 1, 1)
        return names

    # -- source -----------------------------------------------------------

    def parse_source(self) -> SourceDef:
        name_tok = self.claim_name("source")
        found = self.block("source", {
            "load_source": lambda: self.s.expect(INT).value,
            "format": lambda: self.choice("format", ("csv", "ndjson"), "unknown format"),
            "column": self.parse_source_column,
            "capture": self.parse_capture,
            "delete_flag_column": self.column_name,
        }, once=("load_source", "format", "delete_flag_column"))
        self.s.end_line()
        if "load_source" not in found:
            self.fail("source must declare load_source", name_tok)
        if "format" not in found:
            self.fail("source must declare a format", name_tok)
        return SourceDef(name_tok.text, found["load_source"], found["format"],
                         tuple(found.get("column", ())), tuple(found.get("capture", ())),
                         found.get("delete_flag_column"))

    def parse_source_column(self) -> ColumnSpec:
        name = self.column_name()
        type_ = self.choice("column type", ("array",) + SCALAR_TYPES, "unknown type")
        if type_ == "array":
            return ColumnSpec(name, "collection",
                              fields=self.comma_list(lambda: self.parse_typed_name("field")))
        return ColumnSpec(name, type_)

    def parse_typed_name(self, what: str) -> tuple[str, str]:
        name = self.ident(f"{what} name").text
        return name, self.choice(f"{what} type", SCALAR_TYPES, "unknown type")

    def parse_capture(self) -> CaptureSource:
        kind = self.choice("capture rule", CAPTURE_KINDS, "unknown capture rule")
        if kind in ("cdc_column", "last_modified"):
            return CaptureSource(kind, self.ident("capture column").text)
        return CaptureSource(kind, None)

    # -- hub ----------------------------------------------------------------

    def parse_hub(self) -> HubDef:
        name_tok = self.claim_name("hub")
        found = self.block("hub", {
            "key": self.parse_hub_key,
            "business_key": self.parse_business_key,
            "descriptive": self.parse_descriptive,
            "delete_flag": lambda: True,
            "source_mapping": self.parse_hub_mapping,
        }, once=("key", "business_key"))
        self.s.end_line()
        if "key" not in found:
            self.fail("hub must declare a key", name_tok)
        key_type, formula = found["key"]
        bk_scope, business_keys = found.get("business_key", ("global", ()))
        return HubDef(
            name=name_tok.text,
            business_keys=business_keys,
            bk_scope=bk_scope,
            key_type=key_type,
            key_formula=formula,
            descriptives=tuple(found.get("descriptive", ())),
            has_delete_flag="delete_flag" in found,
            source_mappings=tuple(found.get("source_mapping", ())),
        )

    def parse_hub_key(self) -> tuple[str, KeyFormula | None]:
        kind = self.choice("key kind", ("computed", "system_generated"), "unknown key kind")
        if kind == "computed":
            return kind, KeyFormula(self.expression())
        return kind, None

    def parse_business_key(self) -> tuple[str, tuple[ColumnSpec, ...]]:
        scope = self.choice("scope", ("global", "local"),
                            "business_key scope must be global or local, got")
        return scope, self.comma_list(
            lambda: ColumnSpec(*self.parse_typed_name("column"), nullable=False))

    def parse_descriptive(self) -> DescriptiveDef:
        name = self.ident("descriptive name").text
        type_ = self.choice("type or 'references'", ("references",) + SCALAR_TYPES,
                            "unknown type")
        if type_ == "references":
            return DescriptiveDef(name, "string", nullable=False,
                                  fk_hub=self.ident("hub name").text)
        return DescriptiveDef(name, type_, nullable=not self.accept(IDENT, "required"))

    def parse_hub_mapping(self) -> SourceMapping:
        source = self.ident("source name").text
        found = self.block("mapping", {
            "map": lambda: self.assignment("target column", self.expression),
            "fk": lambda: self.assignment("target column", self.parse_fk_resolution),
            "dedup_by": lambda: self.comma_list(self.parse_order_term, parenthesised=False),
        }, once=("dedup_by",), keyed=("map", "fk"))
        return SourceMapping(source, found.get("map", {}), found.get("fk", {}),
                             dedup_order=found.get("dedup_by", ()))

    def parse_fk_resolution(self) -> FkResolution:
        hub = self.ident("hub name").text
        args = self.comma_list(self.expression)
        override = self.s.expect(INT).value if self.accept(IDENT, "source") else None
        return FkResolution(hub, args, override)

    def parse_order_term(self) -> tuple[str, str]:
        col = self.column_name()
        return col, self.choice("asc or desc", ("asc", "desc"), "expected asc or desc, found")

    # -- star ---------------------------------------------------------------

    def parse_star(self) -> StarDef:
        name_tok = self.claim_name("star")
        found = self.block("star", {
            "participant": self.parse_participant,
            "key": lambda: self.comma_list(self.column_name),
            "descriptive": self.parse_descriptive,
            "delete_flag": lambda: True,
            "source_mapping": self.parse_star_mapping,
        }, once=("key",))
        self.s.end_line()
        return StarDef(
            name=name_tok.text,
            participants=tuple(found.get("participant", ())),
            key_columns=found.get("key", ()),
            descriptives=tuple(found.get("descriptive", ())),
            has_delete_flag="delete_flag" in found,
            source_mappings=tuple(found.get("source_mapping", ())),
        )

    def parse_participant(self):
        tok = self.ident("participant")
        if tok.text == "time":
            return TimeParticipant(self.column_name())
        if tok.text == "item":
            column = self.column_name()
            return ItemParticipant(column, self.parse_item_rule())
        column = self.column_name() if self.accept(IDENT, "as") else f"{tok.text}_key"
        return HubParticipant(tok.text, column)

    def parse_item_rule(self) -> ItemKeyRule:
        tok = self.ident("item key mode")
        if tok.text == "positional":
            return ItemKeyRule("positional")
        if tok.text == "explicit":
            self.s.expect(SYMBOL, "(")
            field = self.ident("sequence field").text
            self.s.expect(SYMBOL, ")")
            return ItemKeyRule("explicit", sequence_field=field)
        if tok.text == "concat":
            attrs = self.comma_list(lambda: self.ident("item attribute").text)
            return ItemKeyRule("concat", attributes=attrs,
                               hashed=self.accept(IDENT, "hashed"))
        self.fail(f"unknown item key mode {tok.text!r}", tok)

    def parse_star_mapping(self) -> SourceMapping:
        source = self.ident("source name").text
        found = self.block("mapping", {
            "explode": lambda: self.ident("collection column").text,
            "key": lambda: self.assignment("participant column", self.parse_fk_resolution),
            "map": lambda: self.assignment("target column", self.expression),
        }, once=("explode",), keyed=("key", "map"))
        return SourceMapping(source, found.get("map", {}), found.get("key", {}),
                             explode_column=found.get("explode"))

    # -- gold -----------------------------------------------------------------

    def parse_gold(self) -> GoldViewDef:
        name_tok = self.claim_name("view")
        joins: list[HubJoin | StarJoin] = []
        found = self.block("gold", {
            "kind": lambda: self.choice("view kind", ("scd1_dim", "scd2_dim", "fact"),
                                        "unknown view kind"),
            "base": self.parse_base,
            "join": lambda: joins.append(self.parse_hub_join()),
            "join_current": lambda: joins.append(self.parse_star_join()),
            "versions": self.parse_star_join,
            "temporal_join": self.parse_temporal_join,
            "scd2_key": lambda: self.comma_list(self.parse_column_ref),
            "output": self.parse_output,
        }, once=("kind", "base", "versions", "temporal_join", "scd2_key"))
        self.s.end_line()
        if "kind" not in found:
            self.fail("gold view must declare a kind", name_tok)
        if "base" not in found:
            self.fail("gold view must declare a base", name_tok)
        base_kind, base = found["base"]
        return GoldViewDef(
            name=name_tok.text,
            kind=found["kind"],
            base_kind=base_kind,
            base=base,
            joins=tuple(joins),
            versions=found.get("versions"),
            temporal=found.get("temporal_join"),
            scd2_key=found.get("scd2_key", ()),
            outputs=tuple(found.get("output", ())),
        )

    def parse_base(self) -> tuple[str, str]:
        tok = self.ident("hub or star")
        if tok.text not in ("hub", "star"):
            self.fail("base must name a hub or a star", tok)
        return tok.text, self.ident("base name").text

    def parse_hub_join(self) -> HubJoin:
        self.s.expect(IDENT, "hub")
        hub = self.ident("hub name").text
        self.s.expect(IDENT, "on")
        on = self.ident("column").text
        how = self.choice("inner or left", ("inner", "left"),
                          "join mode must be inner or left, got")
        return HubJoin(hub, on, how)

    def parse_star_join(self) -> StarJoin:
        self.s.expect(IDENT, "star")
        star = self.ident("star name").text
        self.s.expect(IDENT, "on")
        on = self.ident("column").text
        self.s.expect(IDENT, "partition_by")
        partition = self.comma_list(self.column_name)
        self.s.expect(IDENT, "order_by")
        return StarJoin(star, on, partition, self.comma_list(self.parse_order_term))

    def parse_temporal_join(self) -> TemporalJoin:
        dim = self.ident("dim view name").text
        self.s.expect(IDENT, "key")
        key_ref = self.parse_column_ref()
        self.s.expect(IDENT, "time")
        return TemporalJoin(dim, key_ref, self.parse_column_ref())

    def parse_output(self) -> OutputColumn:
        name = self.ident("output name").text
        if not self.accept(SYMBOL, "="):
            return OutputColumn(name, ColumnRef(None, name))
        if self.accept(IDENT, "scd2_key"):
            return OutputColumn(name, None)
        return OutputColumn(name, self.parse_column_ref())

    def parse_column_ref(self) -> ColumnRef:
        first = self.ident("column reference").text
        if self.accept(SYMBOL, "."):
            return ColumnRef(first, self.column_name())
        return ColumnRef(None, first)

# -- rendering ----------------------------------------------------------------


def render_model(spec: ModelSpec) -> str:
    """The canonical text form of a model: fixed attribute order, two-space
    indents, one blank line between top-level blocks."""
    blocks = [f"product {spec.product_name}", _render_schemas(spec)]
    blocks.extend(_render_source(s) for s in spec.sources)
    blocks.extend(_render_hub(h) for h in spec.hubs)
    blocks.extend(_render_star(s) for s in spec.stars)
    blocks.extend(_render_gold(v) for v in spec.gold_views)
    return "\n\n".join(blocks) + "\n"


def _render_schemas(spec: ModelSpec) -> str:
    lines = ["schemas {"]
    for layer in LAYERS:
        lines.append(f'  {layer} "{spec.schema_names[layer]}"')
    lines.append("}")
    return "\n".join(lines)


def _render_source(source: SourceDef) -> str:
    lines = [f"source {source.name} {{",
             f"  load_source {source.load_source_id}",
             f"  format {source.input_format}"]
    for col in source.columns:
        if col.type == "collection":
            fields = ", ".join(f"{name} {ftype}" for name, ftype in col.fields)
            lines.append(f"  column {col.name} array({fields})")
        else:
            lines.append(f"  column {col.name} {col.type}")
    for rule in source.capture_rule:
        suffix = f" {rule.column}" if rule.column else ""
        lines.append(f"  capture {rule.kind}{suffix}")
    if source.delete_flag_column:
        lines.append(f"  delete_flag_column {source.delete_flag_column}")
    lines.append("}")
    return "\n".join(lines)


def _render_descriptive(desc: DescriptiveDef) -> str:
    if desc.fk_hub is not None:
        return f"  descriptive {desc.name} references {desc.fk_hub}"
    required = " required" if not desc.nullable else ""
    return f"  descriptive {desc.name} {desc.type}{required}"


def _render_fk(res: FkResolution) -> str:
    args = ", ".join(ex.render_expr(a) for a in res.args)
    suffix = f" source {res.source_override}" if res.source_override is not None else ""
    return f"{res.hub}({args}){suffix}"


def _render_hub(hub: HubDef) -> str:
    lines = [f"hub {hub.name} {{"]
    if hub.key_type == "computed":
        lines.append(f"  key computed {ex.render_expr(hub.key_formula.expression)}")
    else:
        lines.append("  key system_generated")
    bks = ", ".join(f"{bk.name} {bk.type}" for bk in hub.business_keys)
    lines.append(f"  business_key {hub.bk_scope} ({bks})")
    lines.extend(_render_descriptive(d) for d in hub.descriptives)
    if hub.has_delete_flag:
        lines.append("  delete_flag")
    for mapping in hub.source_mappings:
        lines.append(f"  source_mapping {mapping.source} {{")
        for column, expression in mapping.column_exprs.items():
            lines.append(f"    map {column} = {ex.render_expr(expression)}")
        for column, res in mapping.fk_resolutions.items():
            lines.append(f"    fk {column} = {_render_fk(res)}")
        if mapping.dedup_order:
            terms = ", ".join(f"{c} {d}" for c, d in mapping.dedup_order)
            lines.append(f"    dedup_by {terms}")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def _render_participant(p) -> str:
    if isinstance(p, TimeParticipant):
        return f"  participant time {p.column}"
    if isinstance(p, ItemParticipant):
        rule = p.rule
        if rule.mode == "positional":
            tail = "positional"
        elif rule.mode == "explicit":
            tail = f"explicit({rule.sequence_field})"
        else:
            tail = f"concat({', '.join(rule.attributes)})"
            if rule.hashed:
                tail += " hashed"
        return f"  participant item {p.column} {tail}"
    if p.column != f"{p.hub}_key":
        return f"  participant {p.hub} as {p.column}"
    return f"  participant {p.hub}"


def _render_star(star: StarDef) -> str:
    lines = [f"star {star.name} {{"]
    lines.extend(_render_participant(p) for p in star.participants)
    lines.append(f"  key ({', '.join(star.key_columns)})")
    lines.extend(_render_descriptive(d) for d in star.descriptives)
    if star.has_delete_flag:
        lines.append("  delete_flag")
    for mapping in star.source_mappings:
        lines.append(f"  source_mapping {mapping.source} {{")
        if mapping.explode_column:
            lines.append(f"    explode {mapping.explode_column}")
        for column, res in mapping.fk_resolutions.items():
            lines.append(f"    key {column} = {_render_fk(res)}")
        for column, expression in mapping.column_exprs.items():
            lines.append(f"    map {column} = {ex.render_expr(expression)}")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def _render_gold(view: GoldViewDef) -> str:
    lines = [f"gold {view.name} {{",
             f"  kind {view.kind}",
             f"  base {view.base_kind} {view.base}"]
    for join in view.joins:
        if isinstance(join, HubJoin):
            lines.append(f"  join hub {join.hub} on {join.on_column} {join.how}")
        else:
            lines.append("  join_current " + _render_star_join_tail(join))
    if view.versions is not None:
        lines.append("  versions " + _render_star_join_tail(view.versions))
    if view.temporal is not None:
        lines.append(f"  temporal_join {view.temporal.dim} "
                     f"key {view.temporal.key_ref} "
                     f"time {view.temporal.time_ref}")
    if view.scd2_key:
        lines.append(f"  scd2_key ({', '.join(map(str, view.scd2_key))})")
    for out in view.outputs:
        if out.ref is None:
            lines.append(f"  output {out.name} = scd2_key")
        elif out.ref.table is None and out.ref.column == out.name:
            lines.append(f"  output {out.name}")
        else:
            lines.append(f"  output {out.name} = {out.ref}")
    lines.append("}")
    return "\n".join(lines)


def _render_star_join_tail(join: StarJoin) -> str:
    order = ", ".join(f"{c} {d}" for c, d in join.order_by)
    return (f"star {join.star} on {join.on_column} "
            f"partition_by ({', '.join(join.partition_by)}) "
            f"order_by ({order})")
