"""Deterministic random model texts for grammar round-trip tests.

The sampler emits *well-formed* models: they always parse, cover every
block and clause the grammar knows, and use messy-but-legal formatting
(ragged indentation, comments, blank lines) so canonicalisation has
something to chew on. Semantic validity is not a goal here.
"""
from __future__ import annotations

import random

_STEMS = (
    "acct", "batch", "cargo", "depot", "eagle", "fleet", "grain", "hotel",
    "joint", "kiosk", "lemon", "motor", "night", "offer", "plant", "quota",
    "radio", "stone", "tiger", "union", "vault", "wagon", "xenon", "zebra",
)

_SCALARS = ("integer", "string", "decimal", "timestamp")

# exercise the escaping rules: quotes, backslashes, hashes, newlines
_STRING_POOL = ('plain', 'two words', 'v#2', 'a"b', 'back\\slash', 'line\nbreak', '')


class ModelSampler:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.counter = 0
        self.sources: list[dict] = []   # {"name", "columns", "collections"}
        self.hubs: list[dict] = []      # {"name", "bks", "descriptives", "fks"}
        self.stars: list[dict] = []     # {"name", "columns"}
        self.scd2_views: list[str] = []

    # -- identifiers --------------------------------------------------------

    def name(self, tag: str = "") -> str:
        self.counter += 1
        stem = self.rng.choice(_STEMS)
        return f"{stem}_{tag}{self.counter}" if tag else f"{stem}{self.counter}"

    def string(self) -> str:
        raw = self.rng.choice(_STRING_POOL)
        escaped = raw.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'

    def pad(self) -> str:
        return " " * self.rng.choice((0, 1, 2, 2, 4, 6))

    # -- expressions ---------------------------------------------------------

    def expr(self, columns: list[str], depth: int = 2, item_fields: tuple[str, ...] = ()) -> str:
        rng = self.rng
        if depth == 0 or rng.random() < 0.45:
            leaves = []
            if columns:
                leaves += [rng.choice(columns)] * 3
            if item_fields:
                leaves += [f"item.{rng.choice(item_fields)}"] * 3
            leaves += [str(rng.randint(-5, 9999)), self.string(), "load_source()"]
            if item_fields:
                leaves.append("item_seq()")
            return rng.choice(leaves)
        sub = lambda: self.expr(columns, depth - 1, item_fields)  # noqa: E731
        form = rng.randrange(6)
        if form == 0:
            return f"cast({sub()} as {rng.choice(_SCALARS)})"
        if form == 1:
            return f"sha256({sub()})"
        if form == 2:
            args = ", ".join(sub() for _ in range(rng.randint(2, 3)))
            return f"concat({self.string()}, {args})"
        if form == 3:
            return f"coalesce({sub()}, {sub()})"
        if form == 4:
            return f"epoch_seconds_to_timestamp({sub()})"
        return f"format_ts_compact({sub()})"

    # -- blocks ---------------------------------------------------------------

    def source_block(self) -> list[str]:
        rng = self.rng
        name = self.name("src")
        fmt = rng.choice(("csv", "ndjson"))
        columns = [(self.name("c"), rng.choice(_SCALARS))
                   for _ in range(rng.randint(2, 5))]
        collections = []
        if fmt == "ndjson" and rng.random() < 0.6:
            fields = [(self.name("f"), rng.choice(_SCALARS))
                      for _ in range(rng.randint(1, 3))]
            collections.append((self.name("arr"), fields))
        lines = [f"source {name} {{"]
        lines.append(f"{self.pad()}load_source {rng.randint(1, 9)}")
        lines.append(f"{self.pad()}format {fmt}")
        for cname, ctype in columns:
            lines.append(f"{self.pad()}column {cname} {ctype}")
        for aname, fields in collections:
            spec = ", ".join(f"{fn} {ft}" for fn, ft in fields)
            lines.append(f"{self.pad()}column {aname} array({spec})")
        for _ in range(rng.randint(1, 2)):
            kind = rng.choice(("cdc_column", "last_modified", "file_mtime", "pipeline_now"))
            if kind in ("cdc_column", "last_modified"):
                lines.append(f"{self.pad()}capture {kind} {rng.choice(columns)[0]}")
            else:
                lines.append(f"{self.pad()}capture {kind}")
        if rng.random() < 0.3:
            lines.append(f"{self.pad()}delete_flag_column {rng.choice(columns)[0]}")
        lines.append("}")
        self.sources.append({"name": name,
                             "columns": [c for c, _ in columns],
                             "collections": collections})
        return lines

    def hub_block(self) -> list[str]:
        rng = self.rng
        name = self.name("hub")
        bks = [(self.name("bk"), rng.choice(_SCALARS))
               for _ in range(rng.randint(1, 2))]
        bk_names = [n for n, _ in bks]
        scope = rng.choice(("global", "global", "local"))
        lines = [f"hub {name} {{"]
        if rng.random() < 0.25:
            lines.append(f"{self.pad()}key system_generated")
        else:
            lines.append(f"{self.pad()}key computed {self.key_formula(bk_names, scope)}")
        typed = ", ".join(f"{n} {t}" for n, t in bks)
        lines.append(f"{self.pad()}business_key {scope} ({typed})")
        descriptives, fks = [], []
        for _ in range(rng.randint(0, 3)):
            dname = self.name("d")
            if self.hubs and rng.random() < 0.35:
                target = rng.choice(self.hubs)["name"]
                lines.append(f"{self.pad()}descriptive {dname} references {target}")
                fks.append((dname, target))
            else:
                req = " required" if rng.random() < 0.4 else ""
                lines.append(f"{self.pad()}descriptive {dname} {rng.choice(_SCALARS)}{req}")
                descriptives.append(dname)
        if rng.random() < 0.3:
            lines.append(f"{self.pad()}delete_flag")
        if self.sources and rng.random() < 0.8:
            lines += self.hub_mapping(bk_names, descriptives, fks)
        lines.append("}")
        self.hubs.append({"name": name, "bks": bk_names,
                          "descriptives": descriptives, "fks": fks})
        return lines

    def key_formula(self, bk_names: list[str], scope: str) -> str:
        rng = self.rng
        if scope == "local":
            return f'concat("#", load_source(), {", ".join(bk_names)})'
        pick = rng.randrange(4)
        if pick == 0:
            return f"sha256(cast({bk_names[0]} as string))"
        if pick == 1:
            return f'concat("|", {", ".join(bk_names)})'
        if pick == 2:
            return f"cast({bk_names[0]} as string)"
        return f'sha256(concat("#", {bk_names[0]}, "tail"))'

    def hub_mapping(self, bk_names, descriptives, fks) -> list[str]:
        rng = self.rng
        src = rng.choice(self.sources)
        cols = src["columns"]
        lines = [f"{self.pad()}source_mapping {src['name']} {{"]
        for bk in bk_names:
            lines.append(f"{self.pad()}map {bk} = {self.expr(cols)}")
        for dname in descriptives:
            if rng.random() < 0.7:
                lines.append(f"{self.pad()}map {dname} = {self.expr(cols)}")
        for dname, target in fks:
            args = ", ".join(self.expr(cols, depth=1) for _ in range(rng.randint(1, 2)))
            override = f" source {rng.randint(1, 9)}" if rng.random() < 0.3 else ""
            lines.append(f"{self.pad()}fk {dname} = {target}({args}){override}")
        if cols and rng.random() < 0.4:
            terms = ", ".join(f"{rng.choice(cols)} {rng.choice(('asc', 'desc'))}"
                              for _ in range(rng.randint(1, 2)))
            lines.append(f"{self.pad()}dedup_by {terms}")
        lines.append(f"{self.pad()}}}")
        return lines

    def star_block(self) -> list[str]:
        rng = self.rng
        name = self.name("star")
        lines = [f"star {name} {{"]
        participant_cols: list[str] = []
        hub_parts: list[tuple[str, str]] = []
        for _ in range(rng.randint(1, 2)):
            hub = rng.choice(self.hubs)["name"] if self.hubs else self.name("ghost")
            col = f"{hub}_key"
            if rng.random() < 0.3 or col in participant_cols:
                col = self.name("pk")
                lines.append(f"{self.pad()}participant {hub} as {col}")
            else:
                lines.append(f"{self.pad()}participant {hub}")
            participant_cols.append(col)
            hub_parts.append((hub, col))
        if rng.random() < 0.5:
            tcol = self.name("at")
            lines.append(f"{self.pad()}participant time {tcol}")
            participant_cols.append(tcol)
        item_col = None
        if rng.random() < 0.4:
            item_col = self.name("seq")
            mode = rng.randrange(3)
            if mode == 0:
                rule = "positional"
            elif mode == 1:
                rule = f"explicit({self.name('fseq')})"
            else:
                attrs = ", ".join(self.name("fa") for _ in range(rng.randint(1, 2)))
                rule = f"concat({attrs})" + (" hashed" if rng.random() < 0.5 else "")
            lines.append(f"{self.pad()}participant item {item_col} {rule}")
            participant_cols.append(item_col)
        key = rng.sample(participant_cols, rng.randint(1, len(participant_cols)))
        if rng.random() < 0.3:
            key.append("capture_timestamp")
        lines.append(f"{self.pad()}key ({', '.join(key)})")
        descriptives = []
        for _ in range(rng.randint(0, 3)):
            dname = self.name("d")
            if self.hubs and rng.random() < 0.25:
                # a reference column, resolved with `key` like a participant
                target = rng.choice(self.hubs)["name"]
                lines.append(f"{self.pad()}descriptive {dname} references {target}")
                hub_parts.append((target, dname))
            else:
                req = " required" if rng.random() < 0.3 else ""
                lines.append(f"{self.pad()}descriptive {dname} {rng.choice(_SCALARS)}{req}")
                descriptives.append(dname)
        if rng.random() < 0.3:
            lines.append(f"{self.pad()}delete_flag")
        if self.sources and rng.random() < 0.7:
            lines += self.star_mapping(hub_parts, descriptives, item_col)
        lines.append("}")
        self.stars.append({"name": name, "columns": participant_cols + descriptives})
        return lines

    def star_mapping(self, hub_parts, descriptives, item_col) -> list[str]:
        rng = self.rng
        src = rng.choice(self.sources)
        cols = src["columns"]
        item_fields: tuple[str, ...] = ()
        lines = [f"{self.pad()}source_mapping {src['name']} {{"]
        if item_col is not None and src["collections"]:
            aname, fields = rng.choice(src["collections"])
            item_fields = tuple(fn for fn, _ in fields)
            lines.append(f"{self.pad()}explode {aname}")
        for hub, col in hub_parts:
            args = ", ".join(self.expr(cols, depth=1, item_fields=item_fields)
                             for _ in range(rng.randint(1, 2)))
            override = f" source {rng.randint(1, 9)}" if rng.random() < 0.2 else ""
            lines.append(f"{self.pad()}key {col} = {hub}({args}){override}")
        for dname in descriptives:
            lines.append(f"{self.pad()}map {dname} = {self.expr(cols, item_fields=item_fields)}")
        lines.append(f"{self.pad()}}}")
        return lines

    def gold_block(self) -> list[str]:
        rng = self.rng
        name = self.name("view")
        kind = rng.choice(("scd1_dim", "scd2_dim", "fact"))
        lines = [f"gold {name} {{", f"{self.pad()}kind {kind}"]
        if kind == "fact" and self.stars:
            base_kind, base = "star", rng.choice(self.stars)["name"]
        elif self.hubs and (kind != "fact" or not self.stars):
            base_kind, base = "hub", rng.choice(self.hubs)["name"]
        else:
            base_kind, base = "star", self.name("ghost")
        lines.append(f"{self.pad()}base {base_kind} {base}")
        tables = [base]
        for _ in range(rng.randint(0, 2)):
            hub = rng.choice(self.hubs)["name"] if self.hubs else self.name("ghost")
            mode = rng.choice(("inner", "left"))
            lines.append(f"{self.pad()}join hub {hub} on {self.name('on')} {mode}")
            tables.append(hub)
        if kind == "scd1_dim" and self.stars and rng.random() < 0.5:
            lines.append(self.star_join_tail("join_current"))
            tables.append(self._last_star)
        if kind == "scd2_dim":
            lines.append(self.star_join_tail("versions"))
            tables.append(self._last_star)
            refs = ", ".join(self.ref(tables) for _ in range(rng.randint(1, 2)))
            lines.append(f"{self.pad()}scd2_key ({refs})")
            self.scd2_views.append(name)
        if kind == "fact" and self.scd2_views and rng.random() < 0.6:
            dim = rng.choice(self.scd2_views)
            lines.append(f"{self.pad()}temporal_join {dim} key {self.ref(tables)} "
                         f"time {self.ref(tables)}")
        for _ in range(rng.randint(1, 4)):
            oname = self.name("o")
            style = rng.randrange(3 if kind != "scd2_dim" else 4)
            if style == 0:
                lines.append(f"{self.pad()}output {oname}")
            elif style == 1:
                lines.append(f"{self.pad()}output {oname} = {self.name('bare')}")
            elif style == 2:
                lines.append(f"{self.pad()}output {oname} = {self.ref(tables)}")
            else:
                lines.append(f"{self.pad()}output {oname} = scd2_key")
        lines.append("}")
        return lines

    def star_join_tail(self, keyword: str) -> str:
        rng = self.rng
        star = rng.choice(self.stars)["name"] if self.stars else self.name("ghost")
        self._last_star = star
        parts = ", ".join(self.name("p") for _ in range(rng.randint(1, 2)))
        order = ", ".join(f"{self.name('ord')} {rng.choice(('asc', 'desc'))}"
                          for _ in range(rng.randint(1, 2)))
        return (f"{self.pad()}{keyword} star {star} on {self.name('on')} "
                f"partition_by ({parts}) order_by ({order})")

    def ref(self, tables: list[str]) -> str:
        if self.rng.random() < 0.5:
            return f"{self.rng.choice(tables)}.{self.name('rc')}"
        return self.name("rc")

    # -- whole documents --------------------------------------------------------

    def model_text(self) -> str:
        rng = self.rng
        lines = [f"product {self.name('prod')}"]
        if rng.random() < 0.6:
            lines += ["schemas {",
                      f'{self.pad()}bronze "{self.name("zone")}"',
                      f'{self.pad()}silver "{self.name("zone")}"',
                      f'{self.pad()}gold "{self.name("zone")}"',
                      "}"]
        for _ in range(rng.randint(1, 3)):
            lines += self.source_block()
        for _ in range(rng.randint(1, 3)):
            lines += self.hub_block()
        for _ in range(rng.randint(0, 2)):
            lines += self.star_block()
        for _ in range(rng.randint(0, 2)):
            lines += self.gold_block()
        # roughen the surface: comments and stray blank lines are legal
        out = []
        for line in lines:
            if rng.random() < 0.08:
                out.append(f"{self.pad()}# {self.name('note')}")
            out.append(line)
            if rng.random() < 0.08:
                out.append("")
        return "\n".join(out) + "\n"


def random_model_text(rng: random.Random) -> str:
    return ModelSampler(rng).model_text()
