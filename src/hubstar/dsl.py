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
    CollectionColumn,
    ColumnDef,
    ColumnRef,
    DescriptiveDef,
    FkResolution,
    GoldViewDef,
    HubDef,
    HubJoin,
    HubMapping,
    HubParticipant,
    ItemKeyRule,
    ItemParticipant,
    KeyFormula,
    ModelSpec,
    OutputColumn,
    SourceDef,
    StarDef,
    StarJoin,
    StarMapping,
    TemporalJoin,
    TimeParticipant,
    default_schema_names,
)
from .values import SCALAR_TYPES

_CAPTURE_WORDS = {
    "cdc_column": "cdc_column",
    "last_modified": "last_modified_column",
    "file_mtime": "file_modification_time",
    "pipeline_now": "pipeline_now",
}
_CAPTURE_RENDER = {v: k for k, v in _CAPTURE_WORDS.items()}


@dataclass(frozen=True)
class ModelDocument:
    spec: ModelSpec
    spans: dict[tuple[str, str], tuple[int, int]]


def parse_model(text: str) -> ModelDocument:
    return _Parser(TokenStream(tokenize(text))).parse()


def load_model(path: Path | str) -> ModelDocument:
    return parse_model(Path(path).read_text(encoding="utf-8"))


class _Parser:
    def __init__(self, stream: TokenStream):
        self.s = stream
        self.product: str | None = None
        self.schemas: dict[str, str] | None = None
        self.sources: list[SourceDef] = []
        self.hubs: list[HubDef] = []
        self.stars: list[StarDef] = []
        self.gold: list[GoldViewDef] = []
        self.spans: dict[tuple[str, str], tuple[int, int]] = {}
        self.names: dict[str, Token] = {}

    # -- plumbing ---------------------------------------------------------

    def fail(self, message: str, tok: Token):
        raise ParseError(message, tok.line, tok.column)

    def keyword(self) -> Token:
        return self.ident("a keyword")

    def ident(self, what: str) -> Token:
        tok = self.s.peek()
        if tok.kind != IDENT:
            self.fail(f"expected {what}, found {tok.text!r}", tok)
        return self.s.next()

    def open_block(self):
        self.s.expect(SYMBOL, "{")
        self.s.expect(NEWLINE)
        self.s.skip_newlines()

    def at_block_end(self) -> bool:
        self.s.skip_newlines()
        return self.s.at(SYMBOL, "}")

    def close_block(self):
        self.s.expect(SYMBOL, "}")
        self.s.end_line()

    def claim_name(self, kind: str, tok: Token):
        if tok.text in self.names:
            prev = self.names[tok.text]
            self.fail(f"duplicate name {tok.text!r} (first used at line {prev.line})", tok)
        self.names[tok.text] = tok
        self.spans[(kind, tok.text)] = (tok.line, tok.column)

    def once(self, slot, tok: Token, what: str):
        if slot is not None:
            self.fail(f"duplicate {what}", tok)

    def comma_list(self, parse_item, parenthesised: bool = True) -> tuple:
        """One or more items separated by commas, in parentheses or bare."""
        if parenthesised:
            self.s.expect(SYMBOL, "(")
        items = [parse_item()]
        while self.s.at(SYMBOL, ","):
            self.s.next()
            items.append(parse_item())
        if parenthesised:
            self.s.expect(SYMBOL, ")")
        return tuple(items)

    def assignment(self, into: dict, what: str, parse_value):
        """`<column> = <value>` into `into`; a column may be assigned once."""
        col_tok = self.ident(what)
        if col_tok.text in into:
            self.fail(f"column {col_tok.text!r} mapped twice", col_tok)
        self.s.expect(SYMBOL, "=")
        into[col_tok.text] = parse_value()

    # -- top level --------------------------------------------------------

    def parse(self) -> ModelDocument:
        self.s.skip_newlines()
        while not self.s.at("eof"):
            tok = self.keyword()
            if tok.text == "product":
                self.once(self.product, tok, "product")
                self.product = self.ident("product name").text
                self.s.end_line()
            elif tok.text == "schemas":
                self.once(self.schemas, tok, "schemas block")
                self.schemas = self.parse_schemas()
            elif tok.text == "source":
                self.sources.append(self.parse_source())
            elif tok.text == "hub":
                self.hubs.append(self.parse_hub())
            elif tok.text == "star":
                self.stars.append(self.parse_star())
            elif tok.text == "gold":
                self.gold.append(self.parse_gold())
            else:
                self.fail(f"unknown top-level keyword {tok.text!r}", tok)
            self.s.skip_newlines()
        if self.product is None:
            raise ParseError("model must declare a product", 1, 1)
        schemas = self.schemas or default_schema_names(self.product)
        spec = ModelSpec(
            product_name=self.product,
            schema_names=schemas,
            sources=tuple(self.sources),
            hubs=tuple(self.hubs),
            stars=tuple(self.stars),
            gold_views=tuple(self.gold),
        )
        return ModelDocument(spec, self.spans)

    def parse_schemas(self) -> dict[str, str]:
        self.open_block()
        names: dict[str, str] = {}
        while not self.at_block_end():
            tok = self.keyword()
            if tok.text not in ("bronze", "silver", "gold"):
                self.fail(f"unknown layer {tok.text!r}", tok)
            if tok.text in names:
                self.fail(f"duplicate layer {tok.text!r}", tok)
            names[tok.text] = self.s.expect(STRING).text
            self.s.end_line()
        self.close_block()
        for layer in ("bronze", "silver", "gold"):
            if layer not in names:
                raise ParseError(f"schemas block missing the {layer} layer", 1, 1)
        return names

    # -- source -----------------------------------------------------------

    def parse_source(self) -> SourceDef:
        name_tok = self.ident("source name")
        self.claim_name("source", name_tok)
        self.open_block()
        load_source = None
        fmt = None
        columns: list[ColumnDef | CollectionColumn] = []
        capture: list[CaptureSource] = []
        delete_col = None
        while not self.at_block_end():
            tok = self.keyword()
            if tok.text == "load_source":
                self.once(load_source, tok, "load_source")
                load_source = self.s.expect(INT).value
            elif tok.text == "format":
                self.once(fmt, tok, "format")
                ftok = self.ident("format")
                if ftok.text not in ("csv", "ndjson"):
                    self.fail(f"unknown format {ftok.text!r}", ftok)
                fmt = ftok.text
            elif tok.text == "column":
                columns.append(self.parse_source_column())
            elif tok.text == "capture":
                ktok = self.ident("capture rule")
                kind = _CAPTURE_WORDS.get(ktok.text)
                if kind is None:
                    self.fail(f"unknown capture rule {ktok.text!r}", ktok)
                column = None
                if kind in ("cdc_column", "last_modified_column"):
                    column = self.ident("capture column").text
                capture.append(CaptureSource(kind, column))
            elif tok.text == "delete_flag_column":
                self.once(delete_col, tok, "delete_flag_column")
                delete_col = self.column_name()
            else:
                self.fail(f"unknown keyword {tok.text!r} in source block", tok)
            self.s.end_line()
        self.close_block()
        if load_source is None:
            self.fail("source must declare load_source", name_tok)
        if fmt is None:
            self.fail("source must declare a format", name_tok)
        return SourceDef(name_tok.text, load_source, fmt, tuple(columns),
                         tuple(capture), delete_col)

    def parse_source_column(self) -> ColumnDef | CollectionColumn:
        name = self.column_name()
        ttok = self.ident("column type")
        if ttok.text == "array":
            return CollectionColumn(name, self.comma_list(lambda: self.parse_typed_name("field")))
        if ttok.text not in SCALAR_TYPES:
            self.fail(f"unknown type {ttok.text!r}", ttok)
        return ColumnDef(name, ttok.text)

    def parse_typed_name(self, what: str) -> ColumnDef:
        name = self.ident(f"{what} name").text
        ttok = self.ident(f"{what} type")
        if ttok.text not in SCALAR_TYPES:
            self.fail(f"unknown type {ttok.text!r}", ttok)
        return ColumnDef(name, ttok.text)

    # -- hub ----------------------------------------------------------------

    def parse_hub(self) -> HubDef:
        name_tok = self.ident("hub name")
        self.claim_name("hub", name_tok)
        self.open_block()
        key_type = None
        formula = None
        bk_scope = None
        business_keys: tuple[ColumnDef, ...] = ()
        descriptives: list[DescriptiveDef] = []
        delete_flag = False
        mappings: list[HubMapping] = []
        while not self.at_block_end():
            tok = self.keyword()
            if tok.text == "key":
                self.once(key_type, tok, "key")
                ktok = self.ident("key kind")
                if ktok.text == "computed":
                    key_type = "computed"
                    formula = KeyFormula.from_expression(ex.parse_expr(self.s))
                elif ktok.text == "system_generated":
                    key_type = "system_generated"
                else:
                    self.fail(f"unknown key kind {ktok.text!r}", ktok)
            elif tok.text == "business_key":
                if business_keys:
                    self.fail("duplicate business_key", tok)
                stok = self.ident("scope")
                if stok.text not in ("global", "local"):
                    self.fail(f"business_key scope must be global or local, got {stok.text!r}", stok)
                bk_scope = stok.text
                business_keys = self.comma_list(lambda: self.parse_typed_name("column"))
            elif tok.text == "descriptive":
                descriptives.append(self.parse_descriptive())
            elif tok.text == "delete_flag":
                delete_flag = True
            elif tok.text == "source_mapping":
                mappings.append(self.parse_hub_mapping())
                continue  # block consumed its trailing newline
            else:
                self.fail(f"unknown keyword {tok.text!r} in hub block", tok)
            self.s.end_line()
        self.close_block()
        if key_type is None:
            self.fail("hub must declare a key", name_tok)
        return HubDef(
            name=name_tok.text,
            business_keys=business_keys,
            bk_scope=bk_scope or "global",
            key_type=key_type,
            key_formula=formula,
            descriptives=tuple(descriptives),
            has_delete_flag=delete_flag,
            source_mappings=tuple(mappings),
        )

    def parse_descriptive(self) -> DescriptiveDef:
        name = self.ident("descriptive name").text
        tok = self.ident("type or 'references'")
        if tok.text == "references":
            hub = self.ident("hub name").text
            return DescriptiveDef(name, "string", nullable=False, fk_hub=hub)
        if tok.text not in SCALAR_TYPES:
            self.fail(f"unknown type {tok.text!r}", tok)
        required = False
        if self.s.at(IDENT, "required"):
            self.s.next()
            required = True
        return DescriptiveDef(name, tok.text, nullable=not required)

    def parse_hub_mapping(self) -> HubMapping:
        source = self.ident("source name").text
        self.open_block()
        column_exprs: dict[str, ex.Expr] = {}
        fks: dict[str, FkResolution] = {}
        dedup: tuple[tuple[str, str], ...] = ()
        while not self.at_block_end():
            tok = self.keyword()
            if tok.text == "map":
                self.assignment(column_exprs, "target column", lambda: ex.parse_expr(self.s))
            elif tok.text == "fk":
                self.assignment(fks, "target column", self.parse_fk_resolution)
            elif tok.text == "dedup_by":
                if dedup:
                    self.fail("duplicate dedup_by", tok)
                dedup = self.comma_list(self.parse_order_term, parenthesised=False)
            else:
                self.fail(f"unknown keyword {tok.text!r} in mapping block", tok)
            self.s.end_line()
        self.close_block()
        return HubMapping(source, column_exprs, fks, dedup)

    def parse_fk_resolution(self) -> FkResolution:
        hub = self.ident("hub name").text
        args = self.comma_list(lambda: ex.parse_expr(self.s))
        override = None
        if self.s.at(IDENT, "source"):
            self.s.next()
            override = self.s.expect(INT).value
        return FkResolution(hub, args, override)

    def parse_order_term(self) -> tuple[str, str]:
        col = self.column_name()
        dtok = self.ident("asc or desc")
        if dtok.text not in ("asc", "desc"):
            self.fail(f"expected asc or desc, found {dtok.text!r}", dtok)
        return col, dtok.text

    def column_name(self) -> str:
        return self.ident("column name").text

    # -- star ---------------------------------------------------------------

    def parse_star(self) -> StarDef:
        name_tok = self.ident("star name")
        self.claim_name("star", name_tok)
        self.open_block()
        participants: list = []
        key_columns: tuple[str, ...] = ()
        descriptives: list[DescriptiveDef] = []
        delete_flag = False
        mappings: list[StarMapping] = []
        while not self.at_block_end():
            tok = self.keyword()
            if tok.text == "participant":
                participants.append(self.parse_participant())
            elif tok.text == "key":
                if key_columns:
                    self.fail("duplicate key", tok)
                key_columns = self.comma_list(self.column_name)
            elif tok.text == "descriptive":
                descriptives.append(self.parse_descriptive())
            elif tok.text == "delete_flag":
                delete_flag = True
            elif tok.text == "source_mapping":
                mappings.append(self.parse_star_mapping())
                continue
            else:
                self.fail(f"unknown keyword {tok.text!r} in star block", tok)
            self.s.end_line()
        self.close_block()
        return StarDef(
            name=name_tok.text,
            participants=tuple(participants),
            key_columns=key_columns,
            descriptives=tuple(descriptives),
            has_delete_flag=delete_flag,
            source_mappings=tuple(mappings),
        )

    def parse_participant(self):
        tok = self.ident("participant")
        if tok.text == "time":
            return TimeParticipant(self.column_name())
        if tok.text == "item":
            column = self.column_name()
            return ItemParticipant(column, self.parse_item_rule())
        column = f"{tok.text}_key"
        if self.s.at(IDENT, "as"):
            self.s.next()
            column = self.column_name()
        return HubParticipant(tok.text, column)

    def parse_item_rule(self) -> ItemKeyRule:
        tok = self.ident("item key mode")
        if tok.text == "positional":
            return ItemKeyRule("positional")
        if tok.text == "explicit":
            self.s.expect(SYMBOL, "(")
            field = self.ident("sequence field").text
            self.s.expect(SYMBOL, ")")
            return ItemKeyRule("explicit_sequence", sequence_field=field)
        if tok.text == "concat":
            attrs = self.comma_list(lambda: self.ident("item attribute").text)
            hashed = False
            if self.s.at(IDENT, "hashed"):
                self.s.next()
                hashed = True
            return ItemKeyRule("concat_of_attributes", attributes=attrs, hashed=hashed)
        self.fail(f"unknown item key mode {tok.text!r}", tok)

    def parse_star_mapping(self) -> StarMapping:
        source = self.ident("source name").text
        self.open_block()
        explode = None
        column_exprs: dict[str, ex.Expr] = {}
        fks: dict[str, FkResolution] = {}
        while not self.at_block_end():
            tok = self.keyword()
            if tok.text == "explode":
                self.once(explode, tok, "explode")
                explode = self.ident("collection column").text
            elif tok.text == "key":
                self.assignment(fks, "participant column", self.parse_fk_resolution)
            elif tok.text == "map":
                self.assignment(column_exprs, "target column", lambda: ex.parse_expr(self.s))
            else:
                self.fail(f"unknown keyword {tok.text!r} in mapping block", tok)
            self.s.end_line()
        self.close_block()
        return StarMapping(source, explode, column_exprs, fks)

    # -- gold -----------------------------------------------------------------

    def parse_gold(self) -> GoldViewDef:
        name_tok = self.ident("view name")
        self.claim_name("gold", name_tok)
        self.open_block()
        kind = None
        base = None
        joins: list = []
        versions = None
        temporal = None
        scd2_key: tuple[ColumnRef, ...] = ()
        outputs: list[OutputColumn] = []
        while not self.at_block_end():
            tok = self.keyword()
            if tok.text == "kind":
                self.once(kind, tok, "kind")
                ktok = self.ident("view kind")
                if ktok.text not in ("scd1_dim", "scd2_dim", "fact"):
                    self.fail(f"unknown view kind {ktok.text!r}", ktok)
                kind = ktok.text
            elif tok.text == "base":
                self.once(base, tok, "base")
                btok = self.ident("hub or star")
                if btok.text not in ("hub", "star"):
                    self.fail("base must name a hub or a star", btok)
                base = (btok.text, self.ident("base name").text)
            elif tok.text == "join":
                self.s.expect(IDENT, "hub")
                hub = self.ident("hub name").text
                self.s.expect(IDENT, "on")
                on = self.ident("column").text
                htok = self.ident("inner or left")
                if htok.text not in ("inner", "left"):
                    self.fail(f"join mode must be inner or left, got {htok.text!r}", htok)
                joins.append(HubJoin(hub, on, htok.text))
            elif tok.text == "join_current":
                joins.append(StarJoin(*self.parse_star_join_tail()))
            elif tok.text == "versions":
                self.once(versions, tok, "versions")
                versions = StarJoin(*self.parse_star_join_tail())
            elif tok.text == "temporal_join":
                self.once(temporal, tok, "temporal_join")
                dim = self.ident("dim view name").text
                self.s.expect(IDENT, "key")
                key_ref = self.parse_column_ref()
                self.s.expect(IDENT, "time")
                time_ref = self.parse_column_ref()
                temporal = TemporalJoin(dim, key_ref, time_ref)
            elif tok.text == "scd2_key":
                if scd2_key:
                    self.fail("duplicate scd2_key", tok)
                scd2_key = self.comma_list(self.parse_column_ref)
            elif tok.text == "output":
                out_name = self.ident("output name").text
                if self.s.at(SYMBOL, "="):
                    self.s.next()
                    if self.s.at(IDENT, "scd2_key"):
                        self.s.next()
                        outputs.append(OutputColumn(out_name, None))
                    else:
                        outputs.append(OutputColumn(out_name, self.parse_column_ref()))
                else:
                    outputs.append(OutputColumn(out_name, ColumnRef(None, out_name)))
            else:
                self.fail(f"unknown keyword {tok.text!r} in gold block", tok)
            self.s.end_line()
        self.close_block()
        if kind is None:
            self.fail("gold view must declare a kind", name_tok)
        if base is None:
            self.fail("gold view must declare a base", name_tok)
        return GoldViewDef(
            name=name_tok.text,
            kind=kind,
            base_kind=base[0],
            base=base[1],
            joins=tuple(joins),
            versions=versions,
            temporal=temporal,
            scd2_key=scd2_key,
            outputs=tuple(outputs),
        )

    def parse_star_join_tail(self):
        self.s.expect(IDENT, "star")
        star = self.ident("star name").text
        self.s.expect(IDENT, "on")
        on = self.ident("column").text
        self.s.expect(IDENT, "partition_by")
        partition = self.comma_list(self.column_name)
        self.s.expect(IDENT, "order_by")
        order = self.comma_list(self.parse_order_term)
        return star, on, partition, order

    def parse_column_ref(self) -> ColumnRef:
        first = self.ident("column reference").text
        if self.s.at(SYMBOL, "."):
            self.s.next()
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
    for layer in ("bronze", "silver", "gold"):
        lines.append(f'  {layer} "{spec.schema_names[layer]}"')
    lines.append("}")
    return "\n".join(lines)


def _render_source(source: SourceDef) -> str:
    lines = [f"source {source.name} {{",
             f"  load_source {source.load_source_id}",
             f"  format {source.input_format}"]
    for col in source.columns:
        if isinstance(col, CollectionColumn):
            fields = ", ".join(f"{f.name} {f.type}" for f in col.fields)
            lines.append(f"  column {col.name} array({fields})")
        else:
            lines.append(f"  column {col.name} {col.type}")
    for rule in source.capture_rule:
        word = _CAPTURE_RENDER[rule.kind]
        suffix = f" {rule.column}" if rule.column else ""
        lines.append(f"  capture {word}{suffix}")
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
        elif rule.mode == "explicit_sequence":
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


def _render_ref(ref: ColumnRef) -> str:
    return f"{ref.table}.{ref.column}" if ref.table else ref.column


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
                     f"key {_render_ref(view.temporal.key_ref)} "
                     f"time {_render_ref(view.temporal.time_ref)}")
    if view.scd2_key:
        lines.append(f"  scd2_key ({', '.join(_render_ref(r) for r in view.scd2_key)})")
    for out in view.outputs:
        if out.ref is None:
            lines.append(f"  output {out.name} = scd2_key")
        elif out.ref.table is None and out.ref.column == out.name:
            lines.append(f"  output {out.name}")
        else:
            lines.append(f"  output {out.name} = {_render_ref(out.ref)}")
    lines.append("}")
    return "\n".join(lines)


def _render_star_join_tail(join: StarJoin) -> str:
    order = ", ".join(f"{c} {d}" for c, d in join.order_by)
    return (f"star {join.star} on {join.on_column} "
            f"partition_by ({', '.join(join.partition_by)}) "
            f"order_by ({order})")
