"""Spans around hubstar's layer calls, recorded from outside the program.

`Tracer.install` replaces public layer functions and `Warehouse` methods with
wrappers that record a span per call; `uninstall` puts the originals back.
Nothing inside `hubstar` is instrumented: a span covers exactly one call
into a layer, and calls a layer makes through another wrapped name become
child spans. Spans stay in memory until `write` dumps them once.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

from hubstar import bronze, dsl, gold, model, oracle, silver, storage


@dataclass
class Span:
    id: int
    parent: int | None
    trace: str  # shared by every span of one pass (or set-up repetition)
    root: str  # name of the outermost open span when this one started
    name: str
    detail: str | None  # table or view the call works on, when it has one
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


def _table_of(position: int) -> Callable:
    """Label a call by the `table_name` of its positional argument."""
    def label(args) -> str | None:
        return getattr(args[position], "table_name", None) if len(args) > position else None
    return label


def _qualified(args) -> str | None:
    return f"{args[1]}.{args[2]}" if len(args) > 2 else None


def _load_counts(result) -> dict[str, int]:
    return {"scanned": result.scanned, "written": result.inserted + result.updated}


# (owner, attribute, span name, label of the call, counts from its result).
# Each name is the layer's public entry point or a Warehouse read/write method.
WRAPPED = (
    (dsl, "load_model", "dsl.load_model", None, None),
    (model, "validate_model", "dsl.validate_model", None, None),
    (bronze, "ingest_file", "bronze.ingest_file", None,
     lambda r: {"rows": r.inserted}),
    (silver, "load_all", "silver.load_all", None, None),
    (silver, "load_hub", "silver.load_hub", _table_of(2), _load_counts),
    (silver, "load_star", "silver.load_star", _table_of(2), _load_counts),
    (gold, "build_all", "gold.build_all", None, None),
    (gold, "build_view", "gold.build_view", _table_of(2), None),
    (oracle, "check_against_oracle", "oracle.check_against_oracle", None, None),
    (storage.Warehouse, "read_rows", "storage.read_rows", _qualified,
     lambda rows: {"rows": len(rows)}),
    (storage.Warehouse, "scan", "storage.read", _qualified, None),
    (storage.Warehouse, "manifest", "storage.read", _qualified, None),
    (storage.Warehouse, "max_capture_timestamp", "storage.read", _qualified, None),
    (storage.Warehouse, "create_table", "storage.write", None, None),
    (storage.Warehouse, "replace_table", "storage.write", None, None),
    (storage.Warehouse, "append_rows", "storage.write", _qualified, None),
    (storage.Warehouse, "upsert_rows", "storage.write", _qualified, None),
    (storage.Warehouse, "check_all", "storage.check", None, None),
    (storage.Warehouse, "check_constraints", "storage.check", _qualified, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.trace = "-"
        self._stack: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def open(self, name: str, detail: str | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(id=len(self.spans), parent=parent.id if parent else None,
                    trace=self.trace, root=self._stack[0].name if self._stack else name,
                    name=name, detail=detail, start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name, label, counter):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(name, label(args) if label else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                span.counts = counter(result)
            return result
        return traced

    def install(self):
        """Wrap every name in WRAPPED that exists; names that no longer exist
        are listed in `absent` instead of failing the run."""
        self.absent = []
        for owner, attr, name, label, counter in WRAPPED:
            original = owner.__dict__.get(attr)
            if original is None:
                self.absent.append(f"{owner.__name__}.{attr}")
                continue
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, label, counter))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- reporting -------------------------------------------------------------

    def self_times(self) -> dict[str, list[tuple[Span, float]]]:
        """Each span with its duration minus its children's, by trace."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        by_trace: dict[str, list[tuple[Span, float]]] = defaultdict(list)
        for s in self.spans:
            by_trace[s.trace].append((s, s.end - s.start - child_time[s.id]))
        return by_trace

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"absent": self.absent,
                                    "spans": [asdict(s) for s in self.spans]}),
                        encoding="utf-8")
