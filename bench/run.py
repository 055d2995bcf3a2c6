"""Retail pipeline benchmark for hubstar.

Drives the shipped model `fixtures/retail.hsm` through hubstar's public API
in one process with no extra threads, on extracts made from `--seed`, and
audits every pass. The last line of standard output is one JSON object:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
bench/README.md says what each metric measures.

    python3 bench/run.py --workload full_load --seed 1 --seconds 40 --trace 0

It imports hubstar from the `src/` directory of the checkout it sits in and
keeps its files under `.bench_work/` there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MODEL_PATH = ROOT / "fixtures" / "retail.hsm"
WORK = ROOT / ".bench_work"
DIGESTS_PATH = BENCH_DIR / "digests.json"

SEED_POOL = 16  # --seed picks input seed (seed mod SEED_POOL); digests.json covers each
SETUP_SHARE = 0.1  # set-up repetitions after each pass take this share of its time
NOOP_SHARE = 0.2  # of a pass's pipeline time spent repeating its no-op reload and audit
CALIBRATION_REPEATS = 3  # calibration_work() calls on each side of a timed step
# Fastest time of calibration_work() on a shared 2-vCPU virtual machine with
# Python 3.11.7: timings are reported at the host speed this stands for.
CALIBRATION_S = 0.0017


@dataclass(frozen=True)
class Workload:
    scale: int
    batches: int

    @property
    def config(self) -> str:
        return f"{self.scale}x{self.batches}"


WORKLOADS = {
    # The bulk path: ~800 bronze rows in one batch. Gold, nearly all of it
    # the fact's temporal join, takes about half the time; silver runs once,
    # so watermarks cost little. 2x, not the 10x first planned: a pass holds
    # few, long calls, and at 5x a 40-s run held eight passes, too few for
    # steady medians.
    "full_load": Workload(scale=2, batches=1),
    # ~410 bronze rows in 25 batches with silver after each and gold once
    # at the end: per-batch cost follows the history in bronze and silver.
    # 1x in 25 batches, not 2x in 100: a 2x pass took 20 s and a 1x one in
    # 100 batches 10 s, so a run held two or three passes.
    "incremental": Workload(scale=1, batches=25),
}

END_TO_END = {
    "setup_s": "s", "pipeline_s": "s", "bronze_rows_per_s": "1/s",
    "batch_p50_s": "s", "batch_p90_s": "s", "batch_growth": "ratio",
    "noop_reload_s": "s", "audit_s": "s", "peak_rss_mib": "MiB",
    "write_amplification": "ratio", "space_amplification": "ratio",
}
SILVER_TABLES = ("hub_customer", "hub_sales_order", "hub_product",
                 "hub_loyalty_segment", "star_customer_address",
                 "star_sales_order_item")
GOLD_VIEWS = ("dim_product", "dim_customer", "dim_customer2", "fact_order_item")
PER_LAYER = {
    "gold.build_s": "s",
    **{f"gold.build_s.{v}": "s" for v in GOLD_VIEWS},
    "silver.load_s": "s",
    **{f"silver.load_s.{t}": "s" for t in SILVER_TABLES},
    "silver.rows_scanned": "count", "silver.rows_written": "count",
    "silver.useful_ratio": "ratio",
    "bronze.ingest_s": "s", "bronze.rows": "count",
    "storage.read_s": "s", "storage.rows_decoded": "count",
    "storage.decode_ratio": "ratio",
    "storage.write_s": "s", "storage.bytes_written": "bytes",
    "storage.writes_skipped": "count",
    "storage.audit_read_s": "s", "storage.check_s": "s", "oracle.check_s": "s",
    "dsl.load_model_s": "s",
    "trace.overhead": "ratio",
}

# Span name -> per-layer time metric, by the root span the call ran under.
LAYER_TIMES = {
    "pipeline": {
        "bronze.ingest_file": "bronze.ingest_s",
        "silver.load_all": "silver.load_s", "silver.load_hub": "silver.load_s",
        "silver.load_star": "silver.load_s",
        "gold.build_all": "gold.build_s", "gold.build_view": "gold.build_s",
        "storage.read_rows": "storage.read_s", "storage.read": "storage.read_s",
        "storage.write": "storage.write_s",
    },
    "audit": {
        "oracle.check_against_oracle": "oracle.check_s",
        "storage.check": "storage.check_s",
        "storage.read_rows": "storage.audit_read_s",
        "storage.read": "storage.audit_read_s",
    },
}
PER_TABLE_SPANS = ("silver.load_hub", "silver.load_star", "gold.build_view")
SETUP_SPANS = ("dsl.load_model", "dsl.validate_model")


class PassFailed(Exception):
    """A layer call raised; the rest of the pass would measure nothing."""


@dataclass
class Pass:
    """Timings of one pass in seconds at the host's calibrated speed (see
    Bench.timed), apart from measured_s."""
    batch_s: list[float]  # ingest + load-silver per batch, in order
    gold_s: float  # build-gold after the last batch
    reload_load_s: float  # load-silver of the first no-op reload
    again_load_s: float | None  # one batch only: a second no-op load-silver
    noop_s: list[float]  # load-silver + build-gold with no new extracts
    measured_s: float  # the pipeline's layer calls as measured
    bronze_rows: int
    bytes_written: int  # by the pipeline and the no-op reload
    writes_skipped: int
    warehouse_bytes: int
    rows_stored: int
    audit_s: list[float] = field(default_factory=list)

    @property
    def pipeline_s(self) -> float:
        """First ingest to last gold write."""
        return sum(self.batch_s) + self.gold_s


# -- the host's speed ------------------------------------------------------------

_CALIBRATION_ROWS = [
    {"id": i, "name": f"n{rng.random():.6f}", "value": rng.randint(0, 10**6),
     "tags": ["a", str(i)]}
    for rng in [random.Random(0)] for i in range(300)
]


def calibration_work() -> dict:
    """Fixed pure-Python work of the kinds hubstar does (JSON lines, sorting,
    dicts, strings) that uses nothing of hubstar, so no change to the program
    can change its cost."""
    text = "\n".join(json.dumps(row, sort_keys=True) for row in _CALIBRATION_ROWS)
    rows = [json.loads(line) for line in text.split("\n")]
    rows.sort(key=lambda row: (row["name"], row["value"]))
    return {row["id"]: f"{row['name']}|{row['value']}" for row in rows}


# -- the warehouse seen from outside ------------------------------------------


def snapshot(root: Path) -> dict[str, tuple[int, int, int]]:
    """(inode, mtime, size) of every file under `root`. Every hubstar write
    renames a fresh file into place, so a rewritten file has a new inode."""
    files = {}
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            st = os.stat(path)
            files[path] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return files


def data_digests(root: Path, schemas) -> dict[str, str]:
    """sha256 of each table's data file. Storage is canonical, so equal
    logical state gives equal digests."""
    return {f"{schema}/{data.parent.name}": hashlib.sha256(data.read_bytes()).hexdigest()
            for schema in schemas for data in sorted((root / schema).glob("*/data"))}


def count_rows(data_files) -> int:
    return sum(data.read_bytes().count(b"\n") for data in data_files)


# -- one benchmark run --------------------------------------------------------


class Bench:
    def __init__(self, hubstar, work: Path, reference: dict[str, str] | None):
        self.h = hubstar
        self.root = work / "warehouse"
        self.work = work
        self.reference = reference  # expected data-file digests
        self.spec = None
        self.tracer = None  # set while traced passes run
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.calibration_s: list[float] = []
        self._elapsed = 0.0  # time of every layer call and set-up so far
        self._mark: float | None = None  # see mark()
        self._files: dict[str, tuple[int, int, int]] = {}
        self._written = 0
        self._skipped = 0

    def fail(self, message: str):
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr)

    @contextmanager
    def phase(self, name: str):
        """A root span for the calls of one phase of a traced pass."""
        if self.tracer is None:
            yield
            return
        span = self.tracer.open(name)
        try:
            yield
        finally:
            self.tracer.close(span)

    @property
    def now(self):
        return self.h.retail_fixture.DEFAULT_NOW

    def schema_dir(self, layer: str) -> Path:
        return self.root / self.spec.schema_names[layer]

    def call(self, target: Path, fn, *args, **kwargs):
        """Make one call into a layer and add its time to the time of all
        calls (see timed). Then diff the warehouse's files: bytes
        of every file the call replaced count as written, and each data file
        under `target` that it left alone counts as a skipped write."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.fail(f"{getattr(fn, '__qualname__', fn)} raised")
            traceback.print_exc()
            raise PassFailed from None
        seconds = time.perf_counter() - start
        files = snapshot(self.root)
        for path, stat in files.items():
            if self._files.get(path) != stat:
                self._written += stat[2]
            elif path.endswith(os.sep + "data") and path.startswith(str(target) + os.sep):
                self._skipped += 1
        self._files = files
        self._elapsed += seconds
        return result

    def mark(self) -> float:
        """Mean time of CALIBRATION_REPEATS calls of calibration_work() now.
        It stays the mark until the next one, for the step that follows."""
        times = []
        for _ in range(CALIBRATION_REPEATS):
            start = time.perf_counter()
            calibration_work()
            times.append(time.perf_counter() - start)
        self.calibration_s += times
        self._mark = statistics.fmean(times)
        return self._mark

    def timed(self, step) -> float:
        """Run `step`, which makes layer calls or sets up, and return their
        time scaled to the host speed that CALIBRATION_S stands for:
        measured time x CALIBRATION_S / the mean time of calibration_work()
        just before and just after the step.

        Other tenants of a shared host slow every call, by up to 2x, and the
        share of time they do so moved from run to run. Calibration right
        next to a step is slowed by the same amount. Over five runs minutes
        apart, the median no-op reload ranged over 13% of its value as
        measured, and over 2.5% scaled."""
        before = self._mark if self._mark is not None else self.mark()
        start = self._elapsed
        step()
        return (self._elapsed - start) * 2 * CALIBRATION_S / (before + self.mark())

    # -- set-up -----------------------------------------------------------------

    def set_up(self, seconds: float):
        """Parse and validate the model, at least once and again until
        `seconds` have gone, each time timed like a step of the pipeline.

        `measure` repeats set-up after each pass for a fixed share of its
        time, so its samples span the whole run. On a shared 2-vCPU virtual
        machine, speed drifted by up to 1.7x over tens of seconds, and a
        block of set-ups at the start of a run measured only those seconds.
        Creating the empty warehouse is left to each pass, untimed: it is
        bound by the disk, whose speed there varied six-fold, and would
        swamp the model's 3 ms."""
        h, tracer = self.h, self.tracer
        trace = tracer.trace if tracer else None
        specs = []

        def set_up_once():
            if tracer:
                tracer.trace = f"setup{len(self.setup_s)}"
            start = time.perf_counter()
            spec = h.dsl.load_model(MODEL_PATH).spec
            report = h.model.validate_model(spec)
            self._elapsed += time.perf_counter() - start
            if not report.ok:
                raise RuntimeError(f"{MODEL_PATH} does not validate: {report.violations}")
            specs.append(spec)

        begin = time.perf_counter()
        while not specs or time.perf_counter() - begin < seconds:
            self.setup_s.append(self.timed(set_up_once))
        if tracer:
            tracer.trace = trace
        self.spec = self.spec or specs[0]  # the passes keep using the first one

    # -- the pipeline -----------------------------------------------------------

    def ingest_batch(self, warehouse, batch):
        for job in batch:
            # Bronze stores the extract's path: a relative one keeps the bytes
            # the same wherever the checkout lives.
            self.call(self.schema_dir("bronze") / job.source, self.h.bronze.ingest_file,
                      warehouse, self.spec, job.source, os.path.relpath(job.path),
                      now=self.now, mtime=job.mtime)
        self.load_silver(warehouse)

    def load_silver(self, warehouse):
        self.call(self.schema_dir("silver"), self.h.silver.load_all,
                  warehouse, self.spec, now=self.now)

    def build_gold(self, warehouse):
        self.call(self.schema_dir("gold"), self.h.gold.build_all,
                  warehouse, self.spec, now=self.now)

    def load(self, jobs) -> tuple[list[float], float]:
        """Ingest every batch into a fresh warehouse, loading silver after
        each batch, then build gold. Returns the batch times and gold's."""
        shutil.rmtree(self.root, ignore_errors=True)
        warehouse = self.h.storage.Warehouse(self.root)
        self.h.silver.init_warehouse(warehouse, self.spec)
        self._files = snapshot(self.root)
        batch_s = [self.timed(lambda: self.ingest_batch(warehouse, batch)) for batch in jobs]
        return batch_s, self.timed(lambda: self.build_gold(warehouse))

    def reload(self) -> tuple[float, float]:
        """Load silver and build gold again with no new extracts. Returns
        the load-silver time and the total."""
        warehouse = self.h.storage.Warehouse(self.root)
        load_s = self.timed(lambda: self.load_silver(warehouse))
        return load_s, load_s + self.timed(lambda: self.build_gold(warehouse))

    def audit(self) -> float:
        """check_all on every schema and the oracle, timed; then the silver
        and gold data files against the digests recorded for this workload
        and input seed. A mismatch prints the observed digests."""
        h, spec = self.h, self.spec
        warehouse = h.storage.Warehouse(self.root)

        def check():
            for schema in spec.schema_names.values():
                problems = self.call(self.root, warehouse.check_all, schema)
                if problems:
                    self.fail(f"check_all {schema}: {problems[:3]}")
            problems = self.call(self.root, h.oracle.check_against_oracle, warehouse, spec)
            if problems:
                self.fail(f"oracle: {problems[:3]}")

        seconds = self.timed(check)
        digests = data_digests(self.root, (spec.schema_names["silver"],
                                           spec.schema_names["gold"]))
        self.attempted += 1
        reference = self.reference or {}
        if digests != reference:
            differing = sorted(k for k in reference.keys() | digests.keys()
                               if reference.get(k) != digests.get(k))
            self.fail(f"data files differ from the digests recorded for this workload "
                      f"and input seed: {differing}; observed: "
                      f"{json.dumps(digests, sort_keys=True)}")
        return seconds

    def one_pass(self, jobs) -> Pass:
        """Load the batches into a fresh warehouse, then reload it with no
        new extracts and audit it: once, and again while these took less
        than NOOP_SHARE of the pipeline's time."""
        self._written = self._skipped = 0
        start = self._elapsed
        with self.phase("pipeline"):
            batch_s, gold_s = self.load(jobs)
            measured_s = self._elapsed - start
            load_s, noop_s = self.reload()
        p = Pass(batch_s=batch_s, gold_s=gold_s, reload_load_s=load_s,
                 again_load_s=None, noop_s=[noop_s], measured_s=measured_s,
                 bronze_rows=count_rows(self.schema_dir("bronze").glob("*/data")),
                 bytes_written=self._written, writes_skipped=self._skipped,
                 warehouse_bytes=sum(stat[2] for stat in self._files.values()),
                 rows_stored=count_rows(self.root.glob("*/*/data")))
        if len(batch_s) == 1:
            # One batch has no history to grow with. Measure instead whether a
            # no-op load leaves anything behind that the next no-op load pays
            # for: 1 when it does not. Not counted in the pass's other metrics.
            warehouse = self.h.storage.Warehouse(self.root)
            p.again_load_s = self.timed(lambda: self.load_silver(warehouse))
        with self.phase("audit"):
            p.audit_s = [self.audit()]
        # More samples of the reload and the audit, spread over the run with
        # the passes. Outside the phases, so the per-layer metrics skip them.
        while sum(p.noop_s) + sum(p.audit_s) < NOOP_SHARE * p.pipeline_s:
            p.noop_s.append(self.reload()[1])
            p.audit_s.append(self.audit())
        return p

    def measure(self, jobs, seconds: float, tracer=None) -> list[Pass]:
        """Passes until `seconds` have gone, at least one, each followed by
        set-ups. A failing pass ends the measurement with the passes that
        completed."""
        passes: list[Pass] = []
        if tracer:
            tracer.install()
            self.tracer = tracer
        try:
            deadline = time.perf_counter() + seconds
            while not passes or time.perf_counter() < deadline:
                if tracer:
                    tracer.trace = f"pass{len(passes)}"
                start = time.perf_counter()
                passes.append(self.one_pass(jobs))
                self.set_up(SETUP_SHARE * (time.perf_counter() - start))
        except PassFailed:
            pass
        finally:
            if tracer:
                tracer.uninstall()
                self.tracer = None
        return passes


# -- metrics ------------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def describe(values: list[float]) -> str:
    """Sample count, median, and the highest percentile with at least ten
    samples beyond it."""
    text = f"n={len(values)} p50={statistics.median(values):.6g}"
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            return text + f" p{q}={percentile(values, q):.6g}"
    return text


def growth(batch_s: list[float]) -> float:
    """Mean of the last ten batches of one warehouse (the last half when
    there are fewer than twenty) over the mean of all of them: 1 when batch
    cost does not grow with history.

    Not over the first ten: those hold a few rows each and take 10-50 ms,
    where file-system and scheduling noise make that ratio vary by a third
    between seeds; the mean of all batches is steady to a tenth."""
    k = min(10, len(batch_s) // 2)
    return statistics.fmean(batch_s[-k:]) / statistics.fmean(batch_s)


def end_to_end(setup_s: list[float], passes: list[Pass], extract_bytes: int) -> dict:
    """Medians; timings at the calibrated host speed (see Bench.timed)."""
    median = statistics.median
    batches = [b for p in passes for b in p.batch_s]
    if len(passes[0].batch_s) > 1:
        batch_growth = median(growth(p.batch_s) for p in passes)
    else:
        batch_growth = median(p.again_load_s / p.reload_load_s for p in passes)
    return {
        "setup_s": median(setup_s),
        "pipeline_s": median(p.pipeline_s for p in passes),
        "bronze_rows_per_s": median(p.bronze_rows / p.pipeline_s for p in passes),
        "batch_p50_s": percentile(batches, 50),
        "batch_p90_s": percentile(batches, 90),
        "batch_growth": batch_growth,
        "noop_reload_s": median(s for p in passes for s in p.noop_s),
        "audit_s": median(s for p in passes for s in p.audit_s),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "write_amplification": median(p.bytes_written / extract_bytes for p in passes),
        "space_amplification": median(p.warehouse_bytes / extract_bytes for p in passes),
    }


def per_layer(tracer, traced: list[Pass], untraced: list[Pass]) -> dict:
    """Medians over the traced passes of each layer's self time and counts."""
    samples: dict[str, list[float]] = defaultdict(list)
    self_times = tracer.self_times()
    for k, p in enumerate(traced):
        m = dict.fromkeys(PER_LAYER, 0)
        for span, self_s in self_times[f"pass{k}"]:
            metric = LAYER_TIMES.get(span.root, {}).get(span.name)
            if metric is None:
                continue
            m[metric] += self_s
            if span.name in PER_TABLE_SPANS:
                m[f"{metric}.{span.detail}"] = m.get(f"{metric}.{span.detail}", 0) + self_s
            if span.root == "pipeline":
                rows = span.counts.get("rows", 0)
                m["bronze.rows"] += rows if span.name == "bronze.ingest_file" else 0
                m["storage.rows_decoded"] += rows if span.name == "storage.read_rows" else 0
                m["silver.rows_scanned"] += span.counts.get("scanned", 0)
                m["silver.rows_written"] += span.counts.get("written", 0)
        m["silver.useful_ratio"] = (m["silver.rows_written"] / m["silver.rows_scanned"]
                                    if m["silver.rows_scanned"] else 0.0)
        m["storage.decode_ratio"] = m["storage.rows_decoded"] / p.rows_stored
        m["storage.bytes_written"] = p.bytes_written
        m["storage.writes_skipped"] = p.writes_skipped
        for name, value in m.items():
            samples[name].append(value)
    for trace, spans in self_times.items():
        if trace.startswith("setup"):
            samples["dsl.load_model_s"].append(sum(
                self_s for span, self_s in spans if span.name in SETUP_SPANS))
    metrics = {name: statistics.median(samples[name]) for name in PER_LAYER
               if name != "trace.overhead"}
    metrics["trace.overhead"] = (statistics.median(p.pipeline_s for p in traced)
                                 / statistics.median(p.pipeline_s for p in untraced) - 1)
    return metrics


# -- entry point --------------------------------------------------------------


def run(h, name: str, workload: Workload, seed: int, seconds: float,
        traced: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    import inputs  # both import hubstar, so they come after import_hubstar()
    import spans

    work = WORK / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    input_seed = seed % SEED_POOL
    recorded = json.loads(DIGESTS_PATH.read_text())
    bench = Bench(h, work, recorded.get(workload.config, {}).get(str(input_seed)))
    tracer = spans.Tracer() if traced else None
    try:
        bench.set_up(0)
        jobs, source_rows = inputs.write_inputs(workload.scale, input_seed,
                                                workload.batches, work / "extracts")
        extract_bytes = sum(job.path.stat().st_size for batch in jobs for job in batch)
        # A traced run splits its time: untraced passes first, then traced
        # ones, so the two medians give the tracing overhead.
        passes = bench.measure(jobs, seconds / 2 if traced else seconds)
        traced_passes: list[Pass] = []
        if traced and not bench.failed:
            traced_passes = bench.measure(jobs, seconds / 2, tracer)

        print(f"{name} seed={seed} (input seed {input_seed}): {source_rows} source rows, "
              f"{extract_bytes} extract bytes, scale {workload.scale}x, "
              f"{workload.batches} batch(es)")
        for label, group in (("untraced", passes), ("traced", traced_passes)):
            if group:
                print(f"  {label} passes: pipeline_s as measured "
                      f"{describe([p.measured_s for p in group])}, calibrated "
                      f"{describe([p.pipeline_s for p in group])}; batch_s calibrated "
                      f"{describe([b for p in group for b in p.batch_s])}")
        print(f"  calibration_work s {describe(bench.calibration_s)}, "
              f"{CALIBRATION_S} s at the calibrated host speed")
        print(f"  failed_ops_ratio {bench.failed / max(bench.attempted, 1):.6g} "
              f"({bench.failed} of {bench.attempted} layer calls and audits failed)")
        metrics, units = {}, PER_LAYER if traced else END_TO_END
        if traced:
            for absent in tracer.absent:
                print(f"  absent: {absent} (not traced)")
            tracer.write(WORK / f"spans-{name}-seed{seed}.json")
            if traced_passes:
                metrics = per_layer(tracer, traced_passes, passes)
        elif passes:
            metrics = end_to_end(bench.setup_s, passes, extract_bytes)
        for metric, value in metrics.items():
            print(f"  {metric:<36} {value:.6g} {units[metric]}")

        correct = bench.failed == 0 and bool(metrics)
        return {"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
                "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def import_hubstar():
    """The hubstar package of this checkout, or None when it is missing."""
    if not (SRC / "hubstar" / "__init__.py").is_file() or not MODEL_PATH.is_file():
        print(f"error: {ROOT} holds no src/hubstar or no fixtures/retail.hsm",
              file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import hubstar
    import hubstar.retail_fixture
    if Path(hubstar.__file__).resolve().parent != SRC / "hubstar":
        print(f"error: imported hubstar from {hubstar.__file__}, not from {SRC}",
              file=sys.stderr)
        return None
    return hubstar


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="hubstar retail pipeline benchmark")
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help=f"inputs are drawn from seed mod {SEED_POOL}")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="run passes until this much time has gone (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    hubstar = import_hubstar()
    if hubstar is None:
        return 2
    result = run(hubstar, args.workload, WORKLOADS[args.workload], args.seed,
                 args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
