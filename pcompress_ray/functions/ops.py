"""Generic distributed relational operators built on Ray Data primitives.

The reference's only join-like operator is the in-memory hash index probe
(rabin/global/index.c:485-558; J1/J2 in SURVEY §2.4), serialized by a
semaphore ring. Here every keyed operator is one data-parallel exchange,
and ``exchange`` is the package's only keyed shuffle: no Ray Data
``groupby``/``aggregate`` runs anywhere. A keyed aggregate is an
``exchange`` whose ``fn`` is Arrow's
``t.group_by(keys, use_threads=False).aggregate(...)`` over the whole
partition (single-threaded, so float sums add in one fixed order); an
ungrouped reduction (sum, min, max) is ``block_rounds`` partials reduced
in the driver.

- ``exchange``: the hash-exchange primitive. It takes several Datasets,
  with key columns per input; all rows whose keys hash to the same
  partition reach one ``fn`` call, as one Arrow table per input. Its raw
  slicer and reducer tasks are the only exchange path. Their number
  follows the input bytes, one partition per ``_PART_BYTES`` up to the
  caller's ``n_parts``; their in-flight input bytes are bounded by a share
  of the object store, so inputs larger than the store exchange through
  spill. ``fn`` takes and returns ``pa.Table``: per-key logic is Arrow
  (``sort_by``, ``group_by(..., use_threads=False).aggregate``, ``take``,
  ``pc.is_in``) or numpy over the partition's column buffers, with
  ``run_starts``/``run_ranks`` for the runs of a sorted partition.
- ``hash_join``, ``asof_join``, ``band_join_count``: two-input exchanges;
  the join itself (an Arrow/Acero hash join, a forward-fill scan, a
  per-bucket range count) runs inside ``fn``.
- ``broadcast_join`` / ``semi_join_filter``: small side materialized once,
  ``ray.put`` once, probed inside ``map_batches`` per big-side batch — no
  shuffle (SURVEY guide: broadcast-small-side).
- ``zip_with_rank``: global ordering key via sort + per-block offsets from
  the sorted blocks' metadata (no driver materialization).
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pandas as pd
import pyarrow as pa

from pcompress_ray.hashing import splitmix64

_SALT = np.uint64(0xA5A5A5A55A5A5A5A)
# slicer tasks per exchange: the driver holds at most this many × (P + 1)
# object refs, whatever the input block count
_MAX_SLICERS = 64
# input bytes per exchange partition, per slicer task and per BSP
# partition. A 2,000-page dedup op's exchanges move 0.15-1.3 MB each; at
# 64 partitions apiece they spent most of their wall launching tasks for
# tiny blocks. On 4 CPUs, 64 KiB-16 MiB measured alike at 2,000 pages and
# 1 MiB beat 256 KiB and 4 MiB by 3-5% at 20,000 (sweep in CHANGES.md).
_PART_BYTES = 1 << 20


def part_count(nbytes: int, cap: int) -> int:
    """Partitions for ``nbytes`` of input: one per ``_PART_BYTES``, at
    least 1 and at most ``cap``."""
    return min(cap, max(1, -(-int(nbytes) // _PART_BYTES)))


def _col_hash_u64(col) -> np.ndarray:
    """uint64 hash of an arrow column (ints passed through splitmix, strings
    via pandas hash_array)."""
    v = col.to_numpy(zero_copy_only=False)
    if v.dtype.kind in "iu":
        return splitmix64(v.astype(np.uint64) ^ _SALT)
    return pd.util.hash_array(np.asarray(v, dtype=object)).astype(np.uint64)


def _partition_ids(cols: list, n_parts: int) -> np.ndarray:
    """The exchange's partition of every row, from its key columns. Integer
    keys of any width hash alike, so inputs whose key types differ still
    co-locate."""
    h = np.zeros(len(cols[0]), dtype=np.uint64)
    for c in cols:
        h = splitmix64(h ^ _col_hash_u64(c))
    return (h % np.uint64(n_parts)).astype(np.int64)


def partition_bucket_u64(v: np.ndarray, n_parts: int) -> np.ndarray:
    """The partition that an ``exchange`` running ``n_parts`` partitions
    assigns a single uint64 key column — the bucket function of on-disk
    layouts (the archive chunk store's ``bucket=`` dirs)."""
    return _partition_ids([pa.array(v.astype(np.uint64))],
                          n_parts).astype(np.int32)


def _arrow(block) -> pa.Table:
    t = block if isinstance(block, pa.Table) else \
        pa.Table.from_pandas(block, preserve_index=False)
    return t.replace_schema_metadata(None)


def _inflight_cap() -> int:
    """Input bytes that a ``bounded_submit`` loop's submitted, unfinished
    tasks may hold at once: 20% of the cluster object store, read once per
    loop (an RPC of well under a millisecond, so nothing is cached)."""
    import ray

    return int(ray.cluster_resources()["object_store_memory"] * 0.2)


def bounded_submit():
    """A ``submit(nbytes, task, *args)`` that returns ``task.remote(*args)``
    and keeps the input bytes of its submitted, unfinished tasks under
    ``_inflight_cap()``: before each launch, while those bytes plus the new
    task's ``nbytes`` exceed the cap, the oldest unfinished task is waited
    for (a task larger than the cap runs alone). A task has finished once
    its last return is ready. ``exchange`` and the signature scan submit
    every task through one of these."""
    import ray

    cap = _inflight_cap()
    flight, held = deque(), 0

    def submit(nbytes: int, task, *args):
        nonlocal held
        while flight and held + nbytes > cap:
            ref, b = flight.popleft()
            ray.wait([ref], fetch_local=False)
            held -= b
        out = task.remote(*args)
        flight.append((out[-1] if isinstance(out, list) else out, nbytes))
        held += nbytes
        return out

    return submit


def exchange(inputs: list, keys: list[list[str]], fn, n_parts: int = 64):
    """Hash-partition several Datasets on their own key columns; call
    ``fn(*tables)`` once per partition, one Arrow table per input.

    ``keys[i]`` names input i's key columns (names may differ between
    inputs; integer keys of any width hash alike). All rows of any key
    value, from every input, reach exactly one ``fn`` call; an input with
    no rows in that partition arrives as an empty table of its own schema.
    ``fn`` returns a pa.Table; the result is a Dataset of those outputs.
    When no input has a row, ``fn`` runs once on the empty tables, so the
    result still carries its typed schema
    (unless an input has no schema at all, e.g. an empty Dataset that Ray
    repartitioned or filtered to nothing: then the result has no schema
    either). An input with no schema next to another input's rows raises
    ``ValueError``, since ``fn`` could not be handed its columns.

    ``n_parts`` is an upper bound: the exchange runs P =
    ``part_count(input bytes, n_parts)`` partitions, one per
    ``_PART_BYTES`` of input (the bytes come from the block metadata), so
    a small input is not scattered over many tiny blocks. Each input's
    blocks are split into ``part_count(its bytes, 64 // len(inputs))``
    slicer tasks (hash keys → slice their blocks into P sub-tables,
    zero-copy plasma reads), then one reducer task runs per non-empty
    partition (concat + ``fn``). It reads each input's own block
    refs — no union, no sort machinery, whose fixed cost (executor launch,
    sampling, a sort task per block) dominates exchanges of many small
    blocks (the 3-way edge union at 40k docs: ~4.3 s of pure overhead for
    250k rows, vs ~0.5 s here).

    Backpressure: tasks are submitted in order, slicers then reducers,
    through one ``bounded_submit`` loop, so the input bytes of the tasks
    submitted but not yet finished stay within 20% of the cluster object
    store. A slicer's bytes come from its blocks' metadata, a reducer's
    from the per-partition slice bytes the slicers return.
    Without it, eager dispatch of every task outran spill (``OutOfDiskError``
    in a slicer at 1.44M docs on a 14 GB corpus against a 37.6 GiB store,
    BENCH_LOCAL.md round 5); with it, inputs several times the store size
    exchange through spill.
    """
    import ray
    import ray.data as rd

    bundles = [list(ds.materialize().iter_internal_ref_bundles())
               for ds in inputs]
    blocks = [[b for bu in bs for b in bu.blocks] for bs in bundles]
    n_rows = [sum(md.num_rows or 0 for _, md in bl) for bl in blocks]
    n_bytes = [sum(md.size_bytes or 0 for _, md in bl) for bl in blocks]
    P = part_count(sum(n_bytes), n_parts)
    for i, bs in enumerate(bundles):
        if sum(n_rows) > n_rows[i] and not any(
                getattr(bu.schema, "names", None) for bu in bs):
            raise ValueError(
                f"exchange input {i} is empty and has no schema (Ray Data "
                "drops it when it repartitions or filters away every row), "
                "but another input has rows, so fn cannot be handed its "
                "columns")

    def slicer(key_cols, *blocks):
        tabs = [_arrow(b) for b in blocks]
        empty = next((t.slice(0, 0) for t in tabs if t.num_columns),
                     pa.table({}))
        counts = np.zeros(P, dtype=np.int64)
        parts: list[list] = [[] for _ in range(P)]
        for t in tabs:
            if not len(t):
                continue
            p = _partition_ids([t[c] for c in key_cols], P)
            order = np.argsort(p, kind="stable")
            bounds = np.searchsorted(p[order], np.arange(P + 1))
            for pid in np.flatnonzero(np.diff(bounds)):
                parts[pid].append(t.take(order[bounds[pid]:bounds[pid + 1]]))
            counts += np.diff(bounds)
        out = [pa.concat_tables(ps, promote_options="permissive") if ps
               else empty for ps in parts]
        return (*out, np.stack([counts, [t.nbytes for t in out]]))

    def reducer(sizes, *slices):
        tables, i = [], 0
        for n in sizes:
            mine, i = slices[i:i + n], i + n
            rows = [t for t in mine if len(t)]
            tables.append(
                pa.concat_tables(rows, promote_options="permissive") if rows
                else next((t for t in mine if t.num_columns), pa.table({})))
        if not any(map(len, tables)) and not all(t.num_columns for t in tables):
            return pa.table({})  # no rows, and no schema to hand fn
        return fn(*tables).replace_schema_metadata(None)

    submit = bounded_submit()
    rem = ray.remote(slicer).options(num_returns=P + 1)
    per_input = max(1, _MAX_SLICERS // len(inputs))
    slices = []
    for bl, nb, key_cols in zip(blocks, n_bytes, keys):
        groups = np.array_split(np.arange(len(bl)), min(
            len(bl), part_count(nb, per_input))) if bl else []
        slices.append([submit(sum(bl[i][1].size_bytes for i in g), rem,
                              key_cols, *[bl[i][0] for i in g])
                       for g in groups])
    stats = np.zeros((2, P), dtype=np.int64)  # rows, bytes
    for s in ray.get([s[P] for ss in slices for s in ss]):
        stats += s
    counts, part_bytes = stats
    sizes = [len(ss) for ss in slices]
    red = ray.remote(reducer)
    return rd.from_arrow_refs([
        submit(int(part_bytes[p]), red, sizes,
               *[s[p] for ss in slices for s in ss])
        for p in (np.flatnonzero(counts) if counts.any() else [0])])


# kept only as perfbench's probe targets: nothing in the package calls them
def fast_grouped_partitions(ds, key_cols: list[str], fn, n_parts: int = 64):
    """``exchange`` of one Dataset, handing ``fn`` one pandas DataFrame per
    partition; a pandas return is converted to Arrow."""
    def apply(t: pa.Table) -> pa.Table:
        r = fn(t.to_pandas())
        return r if isinstance(r, pa.Table) else \
            pa.Table.from_pandas(r, preserve_index=False)

    return exchange([ds], [key_cols], apply, n_parts)


grouped_partitions = fast_grouped_partitions  # its original name


def group_boundaries(sorted_keys: np.ndarray):
    """(first_mask, group_id, group_sizes) of a SORTED key array."""
    n = sorted_keys.shape[0]
    if n == 0:
        return (np.zeros(0, bool), np.zeros(0, np.int64), np.zeros(0, np.int64))
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    gid = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    sizes = np.diff(np.append(starts, n))
    return first, gid, sizes


def run_starts(col) -> np.ndarray:
    """True at the first row of each run of equal values of a sorted Arrow
    column (row 0 included); OR two columns' masks for a run of pairs."""
    import pyarrow.compute as pc

    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    first = np.ones(len(col), dtype=bool)
    first[1:] = pc.not_equal(col[1:], col[:-1]).fill_null(True) \
        .to_numpy(zero_copy_only=False)
    return first


def run_ranks(first: np.ndarray) -> np.ndarray:
    """Every row's 0-based position within its run, given ``run_starts``'
    mask (the per-group row number of a sorted partition)."""
    idx = np.arange(first.size)
    return idx - np.maximum.accumulate(np.where(first, idx, 0))


def hash_join(left, right, left_on: str, right_on: str, n_buckets: int = 32,
              how: str = "inner", suffix: str = "_r"):
    """Partitioned hash join of two Datasets on a single key column.

    One ``exchange`` of both inputs into ``n_buckets`` partitions; an Arrow
    (Acero) hash join runs per partition. Right columns colliding with left
    names get ``suffix``; the output is the left columns, then the right
    ones (pandas-merge column semantics: the right key is kept, null on
    unmatched rows of a left join).

    The per-bucket join is pure Arrow — int64/uint64 keys and payloads keep
    their exact types (no pandas float64 round-trip, so 64-bit hash columns
    survive bit-exactly). Output row order within a bucket is whatever the
    join emits; downstream consumers sort/aggregate.
    """
    join_type = "left outer" if how == "left" else "inner"

    def merge(lt: pa.Table, rt: pa.Table) -> pa.Table:
        rk = right_on + suffix if right_on in lt.column_names else right_on
        rnames = [n + suffix if n in lt.column_names else n
                  for n in rt.column_names]
        rt = rt.rename_columns(rnames)
        # Acero drops/coalesces the right key; carry a copy
        rt = rt.append_column("__rk", rt[rk])
        out = lt.join(rt, keys=[left_on], right_keys=[rk],
                      join_type=join_type)
        cols = {c: out[c] for c in out.column_names if c != "__rk"}
        cols[rk] = out["__rk"]
        return pa.table(cols).select(lt.column_names + rnames)

    return exchange([left, right], [[left_on], [right_on]], merge,
                    n_parts=n_buckets)


def broadcast_join(big, small_df: pd.DataFrame, big_on: str, small_on: str,
                   how: str = "inner", suffix: str = "_r"):
    """Join a Dataset against a small pandas frame without a shuffle.

    The frame is put in the object store ONCE; every task reads it zero-copy
    (ray.put once / ray.get per task — not re-shipped per batch).
    """
    import ray

    ref = ray.put(small_df)

    # stateless tasks, NOT an actor pool: a pool with min-actors can reserve
    # every CPU and starve the upstream read (deadlock on small clusters).
    # ray.get(ref) per task is a zero-copy local plasma read after the first.
    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        small = ray.get(ref)
        return batch.merge(small, left_on=big_on, right_on=small_on,
                           how=("left" if how == "left" else "inner"),
                           suffixes=("", suffix))

    return big.map_batches(probe, batch_format="pandas")


def semi_join_filter(big, keys, on: str, negate: bool = False,
                     approx: bool = False):
    """Semi/anti join: broadcast the key set once, filter inside map_batches.

    Exact mode broadcasts a sorted int64 array and filters by vectorized
    searchsorted (8 B/key). ``approx=True`` broadcasts a Bloom filter
    instead (~10 bits/key, ~80× smaller) — keeps ~1% false positives, never
    drops a true match; use as a prefilter when a later stage re-verifies
    (anti-join with approx is NOT sound and is rejected).
    """
    import ray

    arr = np.sort(np.fromiter((int(k) for k in keys), dtype=np.int64)) \
        if isinstance(keys, set) else np.sort(np.asarray(keys, dtype=np.int64))
    if approx:
        if negate:
            raise ValueError("approx anti-join would drop rows on Bloom "
                             "false positives — not sound")
        from pcompress_ray.functions.bloom import BloomFilter

        ref = ray.put(BloomFilter.build(arr))

        def filt(t: pa.Table) -> pa.Table:
            t = t.replace_schema_metadata(None)
            bf = ray.get(ref)
            col = t[on].to_numpy(zero_copy_only=False).astype(np.int64)
            return t.filter(pa.array(bf.contains(col)))
    else:
        ref = ray.put(arr)

        def filt(t: pa.Table) -> pa.Table:
            t = t.replace_schema_metadata(None)
            ks = ray.get(ref)
            col = t[on].to_numpy(zero_copy_only=False).astype(np.int64)
            if ks.size == 0:
                mask = np.zeros(col.size, dtype=bool)
            else:
                idx = np.minimum(np.searchsorted(ks, col), ks.size - 1)
                mask = ks[idx] == col
            if negate:
                mask = ~mask
            return t.filter(pa.array(mask))

    return big.map_batches(filt, batch_format="pyarrow")


def asof_join(left, right, by: str, on: str, right_val: str,
              out_col: str = "matched", missing: int = -1,
              n_parts: int = 64):
    """As-of join: for each left row, the ``right_val`` of the LATEST right
    row with the same ``by`` key and ``on`` <= left's ``on`` (inclusive).

    Ray Data has no asof primitive; this composes one from one ``exchange``
    of both inputs on ``by`` + a vectorized forward-fill scan per
    partition (no per-key Python). Partitioning assumption: all rows of a
    ``by`` key fit one partition — the standard asof-join contract (same as
    DuckDB's ASOF JOIN hash partitioning).

    ``on`` and ``right_val`` must be integer-valued (cast timestamps to
    epoch micros first). Ties on (by, on) within the right side resolve to
    the greatest ``right_val`` — deterministic. Unmatched rows get
    ``missing``.
    """
    def ints(t: pa.Table, c: str) -> np.ndarray:
        return t[c].to_numpy(zero_copy_only=False).astype(np.int64)

    def scan(lt: pa.Table, rt: pa.Table) -> pa.Table:
        nl, nr = len(lt), len(rt)
        byv = np.concatenate([ints(rt, by), ints(lt, by)])
        onv = np.concatenate([ints(rt, on), ints(lt, on)])
        side = np.repeat(np.int8([0, 1]), [nr, nl])
        rv = np.concatenate([ints(rt, right_val),
                             np.full(nl, missing, np.int64)])
        lrow = np.concatenate([np.full(nr, -1), np.arange(nl)])
        # right (side=0) sorts before left at equal (by, on) -> inclusive
        # match; rv last in the right run -> max right_val wins ties
        order = np.lexsort((rv, side, onv, byv))
        byv, onv, side, rv = byv[order], onv[order], side[order], rv[order]
        idx = np.arange(byv.size)
        last_r = np.maximum.accumulate(np.where(side == 0, idx, -1))
        new_by, gid, _ = group_boundaries(byv)
        grp_start = idx[new_by][gid]  # first idx of my key
        valid = last_r >= grp_start
        matched = np.where(valid, rv[np.maximum(last_r, 0)], missing)
        lmask = side == 1
        carried = lt.take(lrow[order][lmask])
        out = {by: byv[lmask], on: onv[lmask]}
        for c in lt.column_names:
            if c not in (by, on):
                out[c] = carried[c]
        out[out_col] = matched[lmask]
        return pa.table(out)

    return exchange([left, right], [[by], [by]], scan, n_parts=n_parts)


def band_join_count(left, right, left_key: str, left_val: str,
                    right_val: str, lo_mul: float, hi_mul: float,
                    width: float, n_parts: int = 32):
    """Range (band) join, aggregated: for each left row, COUNT right rows
    with ``right_val`` in [left_val*lo_mul, left_val*hi_mul] (inclusive).

    All-pairs range joins don't shuffle-partition directly; this quantizes
    the value axis into buckets of ``width``: every right row lands in
    exactly one bucket, every left row is REPLICATED to the (few) buckets
    its band overlaps, and a vectorized searchsorted counts matches per
    bucket. Partial counts then sum per left key — left rows with zero
    matches survive (count 0). Pick ``width`` ≈ the typical band span so
    replication stays 1-3×; the pair set itself is never materialized.
    """
    def right_rows(t: pa.Table) -> pa.Table:
        v = t[right_val].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({"__bkt": pa.array(np.floor(v / width).astype(np.int64)),
                         "__v": pa.array(v)})

    def left_rows(t: pa.Table) -> pa.Table:
        v = t[left_val].to_numpy(zero_copy_only=False).astype(np.float64)
        key = t[left_key].to_numpy(zero_copy_only=False).astype(np.int64)
        lo, hi = v * lo_mul, v * hi_mul
        b0 = np.floor(lo / width).astype(np.int64)
        b1 = np.floor(hi / width).astype(np.int64)
        reps = (b1 - b0 + 1).astype(np.int64)
        ridx = np.repeat(np.arange(v.size), reps)
        # bucket offset within each row's replication run
        off = np.arange(reps.sum()) - np.repeat(
            np.concatenate([[0], np.cumsum(reps)[:-1]]), reps)
        return pa.table({"__bkt": pa.array(b0[ridx] + off),
                         "__lo": pa.array(lo[ridx]),
                         "__hi": pa.array(hi[ridx]),
                         "__key": pa.array(key[ridx])})

    def count_part(lt: pa.Table, rt: pa.Table) -> pa.Table:
        rb = rt["__bkt"].to_numpy().astype(np.int64)
        rv = rt["__v"].to_numpy().astype(np.float64)
        ro = np.lexsort((rv, rb))
        rb, rv = rb[ro], rv[ro]
        lb = lt["__bkt"].to_numpy().astype(np.int64)
        lo = lt["__lo"].to_numpy().astype(np.float64)
        hi = lt["__hi"].to_numpy().astype(np.float64)
        cnt = np.zeros(lb.size, dtype=np.int64)
        # few buckets per partition; vectorized searchsorted within each
        for b in np.unique(lb):
            r0, r1 = np.searchsorted(rb, [b, b + 1])
            sel = lb == b
            if r1 > r0:
                sub = rv[r0:r1]
                cnt[sel] = (np.searchsorted(sub, hi[sel], side="right")
                            - np.searchsorted(sub, lo[sel], side="left"))
        return pa.table({left_key: lt["__key"], "__n": pa.array(cnt)}) \
            .group_by(left_key, use_threads=False) \
            .aggregate([("__n", "sum")]).rename_columns([left_key, "__n"])

    parts = exchange([left.map_batches(left_rows, batch_format="pyarrow"),
                      right.map_batches(right_rows, batch_format="pyarrow")],
                     [["__bkt"], ["__bkt"]], count_part, n_parts=n_parts)

    def sum_part(p: pa.Table) -> pa.Table:
        return p.group_by(left_key, use_threads=False) \
            .aggregate([("__n", "sum")]).rename_columns([left_key, "n_matches"])

    return exchange([parts], [[left_key]], sum_part, n_parts=16)


def materialized_block_refs(ds) -> list:
    """Object refs of a Dataset's blocks. When they exist already (a
    materialized Dataset, or one built from refs such as ``exchange``'s
    output) this is metadata-only; on a lazy one it triggers (one)
    execution."""
    # iterating a Dataset built from refs launches an executor, since its
    # plan has no computed output; ``materialize`` returns its blocks
    # without one (and costs ~3 ms, so it is skipped when not needed)
    if not ds._plan.has_computed_output():
        ds = ds.materialize()
    return [r for bundle in ds.iter_internal_ref_bundles()
            for r in bundle.block_refs]


def block_rounds(ds, fn) -> list:
    """Run ``fn(block: pa.Table) -> small picklable`` once per block as raw
    Ray tasks and return the results.

    For small reduction passes (counters, id collection) over an
    already-materialized Dataset this skips the streaming-executor launch
    (~0.5-1 s fixed latency per execution in this sandbox) that a
    ``map_batches(...).take_all()`` would pay; blocks are read zero-copy
    from plasma. Pandas blocks are converted per task.
    """
    import ray

    def run(block):
        if len(block) == 0:
            return None  # empty partitions may carry no schema at all
        t = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
        return fn(t)

    rem = ray.remote(run)
    out = ray.get([rem.remote(b) for b in materialized_block_refs(ds)])
    return [r for r in out if r is not None]


def zip_with_rank(ds, sort_key: str, rank_col: str = "rank"):
    """Dense global rank by sort_key: sort, then add each block's offset.

    The offsets are cumulative row counts from the sorted blocks' metadata,
    so only the rank-adding pass runs tasks. The ordering key replaces the
    reference's stream-offset ordering (T5).
    """
    import ray
    import ray.data as rd

    blocks = [b for bu in ds.sort(sort_key).materialize()
              .iter_internal_ref_bundles() for b in bu.blocks]

    @ray.remote
    def add_rank(block, off):
        t = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
        t = t.replace_schema_metadata(None)
        return t.append_column(rank_col,
                               pa.array(np.arange(off, off + len(t), dtype=np.int64)))

    offsets = np.cumsum([0] + [md.num_rows for _, md in blocks[:-1]])
    return rd.from_arrow_refs([add_rank.remote(r, int(o))
                               for (r, _), o in zip(blocks, offsets)])


def skew_report(ds, key_col: str, n_buckets: int = 64, n_parts: int = 32):
    """Pre-shuffle skew diagnostic: per hash-bucket row/key statistics.

    Before committing a 100-TB groupby/exchange on ``key_col``, run this to
    see how the keys would land across ``n_buckets`` reducers: per bucket
    (= key % n_buckets for integer keys) it reports total rows, distinct
    keys, the hottest key and its row count. max(n_rows)/mean(n_rows) >> 1
    means a salted-window or combiner strategy is needed (the same signal
    stages/candidates.py acts on with salted buckets).

    One bucket-keyed exchange; per-partition stats are sort+reduceat
    vectorized (no per-key Python). Output: (bucket, n_rows, n_keys,
    max_key_rows, top_key) — top_key is the smallest key among the
    hottest (deterministic tie-break).
    """

    def add_bucket(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        k = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "bucket": pa.array((k % n_buckets).astype(np.int64)),
            "key": pa.array(k),
        })

    def stats(part: pa.Table) -> pa.Table:
        b = part["bucket"].to_numpy()
        k = part["key"].to_numpy()
        order = np.lexsort((k, b))
        b, k = b[order], k[order]
        new_pair = group_boundaries(b)[0]
        new_pair[1:] |= k[1:] != k[:-1]
        pair_starts = np.flatnonzero(new_pair)
        pair_rows = np.diff(np.append(pair_starts, b.size))
        pair_bucket = b[pair_starts]
        pair_key = k[pair_starts]
        # per-bucket over the (already bucket-sorted) pair table
        pb_first, seg_id, n_keys = group_boundaries(pair_bucket)
        bstarts = np.flatnonzero(pb_first)
        n_rows = np.add.reduceat(pair_rows, bstarts)
        max_rows = np.maximum.reduceat(pair_rows, bstarts)
        # smallest key among the hottest: keys are sorted within bucket,
        # so the FIRST pair hitting the bucket max wins
        is_max = pair_rows == max_rows[seg_id]
        idx = np.arange(pair_starts.size)
        cand = np.where(is_max, idx, np.iinfo(np.int64).max)
        first_max_idx = np.minimum.reduceat(cand, bstarts)
        top_key = pair_key[first_max_idx]
        return pa.table({
            "bucket": pair_bucket[bstarts],
            "n_rows": n_rows.astype(np.int64),
            "n_keys": n_keys.astype(np.int64),
            "max_key_rows": max_rows.astype(np.int64),
            "top_key": top_key.astype(np.int64)})

    return exchange([ds.map_batches(add_bucket, batch_format="pyarrow")],
                    [["bucket"]], stats, n_parts=n_parts)
