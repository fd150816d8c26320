"""Crawl-frontier politeness scheduling.

A fetch frontier must bound per-host concurrency (robots politeness /
crawl-delay): at most ``per_round`` URLs of any host are fetched in the
same round. The deterministic assignment — per-host FIFO rank r by a
stable order column, fetch_round = r // per_round, slot = r % per_round —
is a pure function of the input, so two cluster sizes produce identical
schedules (the same parallelism-invariance bar the dedup pipeline meets).

Shape: ONE host-keyed hash-partitioned exchange; the per-partition rank is
a sort + run-boundary subtraction (no per-host Python). Output size ==
input size; at 10^12 URLs the schedule streams straight back out to
partitioned Parquet, one file per fetch_round range if desired.
"""

from __future__ import annotations

import pyarrow as pa


def crawl_schedule(ds, host_col: str = "host", order_col: str = "doc_id",
                   per_round: int = 4, n_parts: int = 32):
    """Dataset with (host, order) -> adds (fetch_round, slot) per row."""
    from pcompress_ray.functions.ops import exchange, run_ranks, run_starts

    def assign(part: pa.Table) -> pa.Table:
        part = part.sort_by([(host_col, "ascending"), (order_col, "ascending")])
        rank = run_ranks(run_starts(part[host_col]))
        return part.append_column("fetch_round", pa.array(rank // per_round)) \
            .append_column("slot", pa.array(rank % per_round))

    return exchange([ds], [[host_col]], assign, n_parts=n_parts)
