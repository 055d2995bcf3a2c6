"""Scaled retail extracts for the benchmark, made from a seed.

The shipped generator `hubstar.retail_fixture` fixes its customer, order and
product counts as module constants. `scaled_fixture` multiplies them for one
call of `generate` and restores them afterwards, so the program's own code
is reused unchanged and the same (scale, seed) always gives the same rows.

Limits of these inputs:

* Scale must stay below 160: generated customers take ids 1001, 1002, ...
  and from 160x on they reach the scripted customer's id 9001.
* The fixture's capture timestamps strictly increase within each source and
  across batches, and each hub and star has one source mapping. The silver
  watermark defects that need equal timestamps or several mappings per table
  therefore never occur here; the benchmark makes no claim about them.
"""

from __future__ import annotations

from pathlib import Path

from hubstar import retail_fixture as rf

MAX_SCALE = 159
SOURCES = ("customers", "sales_orders", "products", "loyalty_segments")


def scaled_fixture(scale: int, seed: int) -> rf.RetailFixture:
    """The retail fixture with `scale` times its customers, orders and products."""
    if not 1 <= scale <= MAX_SCALE:
        raise ValueError(f"scale must be between 1 and {MAX_SCALE}, got {scale}")
    counts = (rf.CUSTOMER_COUNT, rf.ORDER_COUNT, rf.PRODUCT_COUNT)
    rf.CUSTOMER_COUNT, rf.ORDER_COUNT, rf.PRODUCT_COUNT = (n * scale for n in counts)
    try:
        return rf.generate(seed)
    finally:
        rf.CUSTOMER_COUNT, rf.ORDER_COUNT, rf.PRODUCT_COUNT = counts


def write_inputs(scale: int, seed: int, batches: int,
                 directory: Path) -> tuple[list[list[rf.IngestJob]], int]:
    """Extract files split into `batches` consecutive batches, and the
    number of source rows they hold.

    The seed draws the rows. The batch boundaries come from the fixture's
    own seed, which `write_batches` uses by default. With boundaries drawn
    from the seed too, the rows that land in the first and last ten of 100
    batches vary by about a third between seeds, and per-batch timings would
    mostly measure that."""
    fixture = scaled_fixture(scale, seed)
    jobs = rf.write_batches(fixture, directory, batches)
    return jobs, sum(len(fixture.rows(s)) for s in SOURCES)

