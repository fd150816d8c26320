"""Generic distributed relational operators built on Ray Data primitives.

The reference's only join-like operator is the in-memory hash index probe
(rabin/global/index.c:485-558; J1/J2 in SURVEY §2.4), serialized by a
semaphore ring. Here joins are explicit data-parallel exchanges:

- ``hash_join``: partitioned hash join — both sides get a bucket column
  (hash(key) % B), one groupby co-locates matching buckets, a pandas merge
  runs per bucket. Scales as an all-to-all of both inputs; B chosen so a
  bucket fits a worker's heap.
- ``broadcast_join``: small side materialized once, ``ray.put`` once, probed
  inside ``map_batches`` per big-side batch — no shuffle (SURVEY guide:
  broadcast-small-side).
- ``zip_with_rank``: global ordering key via sort + per-block offsets (two
  passes, no driver materialization).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from pcompress_ray.hashing import splitmix64

_SALT = np.uint64(0xA5A5A5A55A5A5A5A)


def _null_array(n: int, typ) -> pa.Array:
    """All-null array with REAL buffers.

    ``pa.nulls(n, type)`` builds buffer-less arrays that segfault Arrow's
    table validation in this environment; materializing through a python
    list allocates proper validity+data buffers.
    """
    return pa.array([None] * n, type=typ)


def _bucket_of(values: np.ndarray, n_buckets: int) -> np.ndarray:
    v = np.asarray(values)
    if v.dtype.kind in "iu":
        h = splitmix64(v.astype(np.uint64) ^ _SALT)
    else:
        h = pd.util.hash_array(np.asarray(v, dtype=object)).astype(np.uint64)
    return (h % np.uint64(n_buckets)).astype(np.int32)


def _col_hash_u64(col) -> np.ndarray:
    """uint64 hash of an arrow column (ints passed through splitmix, strings
    via pandas hash_array)."""
    v = col.to_numpy(zero_copy_only=False)
    if v.dtype.kind in "iu":
        return splitmix64(v.astype(np.uint64) ^ _SALT)
    return pd.util.hash_array(np.asarray(v, dtype=object)).astype(np.uint64)


def partition_bucket_u64(v: np.ndarray, n_parts: int) -> np.ndarray:
    """The exact ``__part`` value grouped_partitions assigns a single
    uint64 key column — exposed so on-disk layouts (the archive chunk
    store's ``bucket=`` dirs) can align with the exchange's partitioning.
    KEEP IN SYNC with add_part/_col_hash_u64 below."""
    return (splitmix64(splitmix64(v.astype(np.uint64) ^ _SALT))
            % np.uint64(n_parts)).astype(np.int32)


def grouped_partitions(ds, key_cols: list[str], fn, n_parts: int = 64):
    """Hash-partition by key_cols; apply ``fn`` once per PARTITION.

    The groupby().map_groups() API calls the UDF once per GROUP — ~100 µs of
    Python overhead per call, catastrophic for millions of tiny groups (the
    chunk-hash / band-hash shuffles). This helper shuffles by
    hash(keys) % n_parts instead, so ``fn`` receives a whole partition (all
    rows of every key that hashed there, possibly many keys) as ONE pandas
    DataFrame and does its own vectorized per-key logic. All rows of any
    given key land in exactly one partition — same co-location guarantee as
    a per-key groupby.

    Dispatch: small-block inputs (the overwhelmingly common case for the
    intermediate exchanges) route through ``fast_grouped_partitions`` — a
    raw-Ray two-round hash shuffle that skips the Dataset sort machinery's
    fixed cost; inputs with more blocks than its guard fall back to the
    sort-based exchange below, where that cost amortizes.
    """
    return fast_grouped_partitions(ds, key_cols, fn, n_parts=n_parts)


def _sort_grouped_partitions(ds, key_cols: list[str], fn, n_parts: int = 64):
    """Sort-machinery exchange (groupby on a bucket column + map_groups) —
    the amortized path for many-block inputs; see grouped_partitions."""

    def add_part(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        h = np.zeros(len(t), dtype=np.uint64)
        for c in key_cols:
            h = splitmix64(h ^ _col_hash_u64(t[c]))
        return t.append_column(
            "__part", pa.array((h % np.uint64(n_parts)).astype(np.int32)))

    def run(g: pd.DataFrame) -> pd.DataFrame:
        return fn(g.drop(columns=["__part"]))

    return (ds.map_batches(add_part, batch_format="pyarrow")
            .groupby("__part").map_groups(run, batch_format="pandas"))


_EXCHANGE_BUDGET: dict = {}   # {driver node id: bytes | None}, one entry


def _default_exchange_budget():
    """20% of the cluster object store, cached per running cluster —
    cluster_resources() is an RPC and this runs once per exchange call
    otherwise. The key is the driver's node id, which every ray.init()
    makes anew, so a re-init with another store size is re-read."""
    import ray

    if not ray.is_initialized():
        return None
    key = ray.get_runtime_context().get_node_id()
    if key not in _EXCHANGE_BUDGET:
        store = ray.cluster_resources().get("object_store_memory")
        _EXCHANGE_BUDGET.clear()
        _EXCHANGE_BUDGET[key] = int(store * 0.2) if store else None
    return _EXCHANGE_BUDGET[key]


def fast_grouped_partitions(ds, key_cols: list[str], fn, n_parts: int = 64,
                            max_blocks: int = 4096, max_slicers: int = 64,
                            byte_budget: int | None = None):
    """``grouped_partitions`` as a raw-Ray two-round hash exchange.

    Same co-location contract (all rows of any key reach exactly one
    ``fn`` call, as one pandas DataFrame), but implemented as G slicer
    tasks (hash keys → slice each block into n_parts sub-tables, zero-copy
    plasma reads) + one reducer task per NON-EMPTY partition (concat +
    ``fn``). This skips the Dataset sort machinery, whose fixed cost —
    executor launch, sampling, a sort task per block — dominates exchanges
    whose input is many small blocks (the 3-way edge union at 40k docs:
    ~4.3 s of pure overhead for 250k rows, vs ~0.5 s here).

    Requirements vs grouped_partitions: ``fn`` must return a pa.Table (the
    reducer outputs feed ``from_arrow_refs``; a pandas return is converted,
    accepting pandas→arrow dtype mapping). The input is materialized first.

    Scale guards (either one routes to the sort-based Dataset exchange,
    where the fixed cost amortizes and the streaming executor applies
    backpressure and graceful spill):
    - block count: the driver holds G × (n_parts+1) small object refs;
      past ``max_blocks`` blocks that bookkeeping stops being "small".
    - byte budget: the raw-task exchange holds input blocks + their
      slices + reducer concats in the object store SIMULTANEOUSLY, with
      no streaming backpressure (~3× input bytes in flight). Past
      ``byte_budget`` (default 20% of the cluster's object store, so the
      3× transient stays under ~60%), eager dispatch can outrun spill —
      observed as ``OutOfDiskError`` in a slicer at 1.44M docs on a
      14 GB corpus against a 37.6 GiB store (BENCH_LOCAL.md round 5) —
      so big inputs take the streaming path instead.
    """
    import ray
    import ray.data as rd

    mat = ds.materialize()
    refs = materialized_block_refs(mat)
    if len(refs) > max_blocks:
        return _sort_grouped_partitions(mat, key_cols, fn, n_parts=n_parts)
    if not refs:
        return _sort_grouped_partitions(mat, key_cols, fn, n_parts=n_parts)
    if byte_budget is None:
        byte_budget = _default_exchange_budget()
    if byte_budget is not None and mat.size_bytes() > byte_budget:
        return _sort_grouped_partitions(mat, key_cols, fn, n_parts=n_parts)

    def slicer(*blocks):
        tabs = [b if isinstance(b, pa.Table) else
                pa.Table.from_pandas(b, preserve_index=False)
                for b in blocks if len(b)]
        counts = np.zeros(n_parts, dtype=np.int64)
        parts: list[list] = [[] for _ in range(n_parts)]
        for t in tabs:
            t = t.replace_schema_metadata(None)
            h = np.zeros(len(t), dtype=np.uint64)
            for c in key_cols:
                h = splitmix64(h ^ _col_hash_u64(t[c]))
            p = (h % np.uint64(n_parts)).astype(np.int64)
            order = np.argsort(p, kind="stable")
            bounds = np.searchsorted(p[order], np.arange(n_parts + 1))
            for pid in np.flatnonzero(np.diff(bounds)):
                parts[pid].append(t.take(order[bounds[pid]:bounds[pid + 1]]))
            counts += np.diff(bounds)
        schema = tabs[0].schema if tabs else None
        out = []
        for pid in range(n_parts):
            if parts[pid]:
                out.append(pa.concat_tables(parts[pid], promote_options="permissive"))
            else:
                out.append(pa.table({f.name: _null_array(0, f.type)
                                     for f in schema} if schema else {}))
        return (*out, counts)

    n_slice = min(len(refs), max_slicers)
    groups = np.array_split(np.arange(len(refs)), n_slice)
    rem = ray.remote(slicer)
    slice_out = [rem.options(num_returns=n_parts + 1)
                 .remote(*[refs[i] for i in g]) for g in groups]
    counts = np.sum(ray.get([s[n_parts] for s in slice_out]), axis=0)

    def reducer(*tables):
        tabs = [t for t in tables if len(t)]
        df = pa.concat_tables(tabs, promote_options="permissive").to_pandas()
        r = fn(df)
        if isinstance(r, pd.DataFrame):
            r = pa.Table.from_pandas(r, preserve_index=False)
        return r.replace_schema_metadata(None)

    red = ray.remote(reducer)
    out_refs = [red.remote(*[s[p] for s in slice_out])
                for p in range(n_parts) if counts[p] > 0]
    if not out_refs:
        return _sort_grouped_partitions(mat, key_cols, fn, n_parts=n_parts)
    return rd.from_arrow_refs(out_refs)


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


def hash_join(left, right, left_on: str, right_on: str, n_buckets: int = 32,
              how: str = "inner", suffix: str = "_r"):
    """Partitioned hash join of two Datasets on a single key column.

    Both sides are padded to ONE combined schema (missing columns = typed
    nulls; right columns colliding with left names get ``suffix``), tagged
    with ``__bucket`` = hash(key) % B and ``__side``, unioned, and one
    groupby("__bucket") co-locates buckets; an Arrow (Acero) hash join runs
    inside ``map_groups``. One shuffle of each side total.

    The per-bucket join is pure Arrow — int64/uint64 keys and payloads keep
    their exact types (no pandas float64 round-trip, so 64-bit hash columns
    survive bit-exactly). Output row order within a bucket is whatever the
    join emits; downstream consumers sort/aggregate.
    """
    def _pa_type(t):
        if isinstance(t, pa.DataType):
            return t
        try:
            return pa.from_numpy_dtype(np.dtype(t))
        except Exception:
            return pa.string()  # pandas object columns: assume string

    lsch = left.schema()
    rsch = right.schema()
    lnames = list(lsch.names)
    rmap = {n: (n + suffix if n in lnames else n) for n in rsch.names}
    rnames_out = [rmap[n] for n in rsch.names]
    rtypes = {n: _pa_type(t) for n, t in zip(rsch.names, rsch.types)}
    ltypes = {n: _pa_type(t) for n, t in zip(lsch.names, lsch.types)}
    right_on_out = rmap[right_on]

    def tag_left(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        n = len(t)
        cols = {c: t[c] for c in lnames}
        for rn, ro in rmap.items():
            cols[ro] = _null_array(n, rtypes[rn])
        cols["__bucket"] = pa.array(
            _bucket_of(t[left_on].to_numpy(zero_copy_only=False), n_buckets),
            pa.int32())
        cols["__side"] = pa.array(np.zeros(n, np.int8))
        return pa.table(cols)

    def tag_right(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        n = len(t)
        cols = {c: _null_array(n, ltypes[c]) for c in lnames}
        for rn, ro in rmap.items():
            cols[ro] = t[rn]
        cols["__bucket"] = pa.array(
            _bucket_of(t[right_on].to_numpy(zero_copy_only=False), n_buckets),
            pa.int32())
        cols["__side"] = pa.array(np.ones(n, np.int8))
        return pa.table(cols)

    lt = left.map_batches(tag_left, batch_format="pyarrow")
    rt = right.map_batches(tag_right, batch_format="pyarrow")
    out_cols = lnames + rnames_out
    join_type = "left outer" if how == "left" else "inner"

    def merge(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        g = g.replace_schema_metadata(None)
        lg = g.filter(pc.equal(g["__side"], 0)).select(lnames)
        rg = g.filter(pc.equal(g["__side"], 1)).select(rnames_out)
        # Acero drops/coalesces the right key; carry a copy so the output
        # keeps pandas-merge column semantics (right key null on unmatched
        # left rows of a left join)
        rg = rg.append_column("__rk", rg[right_on_out])
        out = lg.join(rg, keys=[left_on], right_keys=[right_on_out],
                      join_type=join_type)
        cols = {c: out[c] for c in out.column_names if c != "__rk"}
        cols[right_on_out] = out["__rk"]
        return pa.table(cols).select(out_cols)

    return lt.union(rt).groupby("__bucket").map_groups(
        merge, batch_format="pyarrow")


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

    Ray Data has no asof primitive; this composes one from a tagged union +
    one hash shuffle on ``by`` + a vectorized forward-fill scan per
    partition (no per-key Python). Partitioning assumption: all rows of a
    ``by`` key fit one partition — the standard asof-join contract (same as
    DuckDB's ASOF JOIN hash partitioning).

    ``on`` and ``right_val`` must be integer-valued (cast timestamps to
    epoch micros first). Ties on (by, on) within the right side resolve to
    the greatest ``right_val`` — deterministic. Unmatched rows get
    ``missing``.
    """
    lsch = left.schema()
    lnames = [n for n in lsch.names]
    ltypes = {n: t for n, t in zip(lsch.names, lsch.types)}
    carry = [n for n in lnames if n not in (by, on)]

    def tag_left(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        cols = {by: t[by].cast(pa.int64()), on: t[on].cast(pa.int64())}
        for c in carry:
            cols[c] = t[c]
        cols["__rv"] = _null_array(len(t), pa.int64())
        cols["__side"] = pa.array(np.ones(len(t), np.int8))
        return pa.table(cols)

    def tag_right(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        n = len(t)
        cols = {by: t[by].cast(pa.int64()), on: t[on].cast(pa.int64())}
        for c in carry:
            cols[c] = _null_array(n, ltypes[c])
        cols["__rv"] = t[right_val].cast(pa.int64())
        cols["__side"] = pa.array(np.zeros(n, np.int8))
        return pa.table(cols)

    lt = left.map_batches(tag_left, batch_format="pyarrow")
    rt = right.map_batches(tag_right, batch_format="pyarrow")

    def scan(part: pd.DataFrame) -> pd.DataFrame:
        empty = {by: pd.Series(dtype=np.int64), on: pd.Series(dtype=np.int64)}
        for c in carry:
            empty[c] = pd.Series(dtype=part[c].dtype if len(part) else object)
        empty[out_col] = pd.Series(dtype=np.int64)
        if len(part) == 0:
            return pd.DataFrame(empty)
        byv = part[by].to_numpy(dtype=np.int64)
        onv = part[on].to_numpy(dtype=np.int64)
        side = part["__side"].to_numpy(dtype=np.int8)
        rv = part["__rv"].fillna(missing).to_numpy(dtype=np.int64)
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
        out = {by: byv[lmask], on: onv[lmask]}
        carried = part.iloc[order[lmask]]
        for c in carry:
            out[c] = carried[c].to_numpy()
        out[out_col] = matched[lmask]
        return pd.DataFrame(out)

    return grouped_partitions(lt.union(rt), [by], scan, n_parts=n_parts)


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
    def tag_right(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        v = t[right_val].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "__bkt": pa.array(np.floor(v / width).astype(np.int64)),
            "__v": pa.array(v),
            "__lo": pa.array(np.full(v.size, np.nan)),
            "__hi": pa.array(np.full(v.size, np.nan)),
            "__key": pa.array(np.full(v.size, -1, dtype=np.int64)),
            "__side": pa.array(np.zeros(v.size, np.int8)),
        })

    def tag_left(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
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
        return pa.table({
            "__bkt": pa.array(b0[ridx] + off),
            "__v": pa.array(np.full(ridx.size, np.nan)),
            "__lo": pa.array(lo[ridx]),
            "__hi": pa.array(hi[ridx]),
            "__key": pa.array(key[ridx]),
            "__side": pa.array(np.ones(ridx.size, np.int8)),
        })

    lt = left.map_batches(tag_left, batch_format="pyarrow")
    rt = right.map_batches(tag_right, batch_format="pyarrow")

    def count_part(part: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({left_key: pd.Series(dtype=np.int64),
                              "__n": pd.Series(dtype=np.int64)})
        if len(part) == 0:
            return empty
        side = part["__side"].to_numpy(dtype=np.int8)
        bkt = part["__bkt"].to_numpy(dtype=np.int64)
        rmask = side == 0
        rb, rv = bkt[rmask], part["__v"].to_numpy(np.float64)[rmask]
        ro = np.lexsort((rv, rb))
        rb, rv = rb[ro], rv[ro]
        lmask = ~rmask
        lb = bkt[lmask]
        lo = part["__lo"].to_numpy(np.float64)[lmask]
        hi = part["__hi"].to_numpy(np.float64)[lmask]
        key = part["__key"].to_numpy(np.int64)[lmask]
        cnt = np.zeros(lb.size, dtype=np.int64)
        # few buckets per partition; vectorized searchsorted within each
        for b in np.unique(lb):
            r0, r1 = np.searchsorted(rb, [b, b + 1])
            sel = lb == b
            if r1 > r0:
                sub = rv[r0:r1]
                cnt[sel] = (np.searchsorted(sub, hi[sel], side="right")
                            - np.searchsorted(sub, lo[sel], side="left"))
        df = pd.DataFrame({left_key: key, "__n": cnt})
        return df.groupby(left_key, as_index=False)["__n"].sum()

    parts = grouped_partitions(lt.union(rt), ["__bkt"], count_part,
                               n_parts=n_parts)

    # final per-key sum via grouped_partitions, NOT Ray groupby().aggregate:
    # the latter runs per-key Python (~0.1-0.25 ms/key) — tens of seconds
    # at 20k+ left keys (measured 36.7s -> ~5s for this stage at sf0.1)
    def sum_part(p: pd.DataFrame) -> pd.DataFrame:
        if len(p) == 0:
            return pd.DataFrame({left_key: pd.Series(dtype=np.int64),
                                 "n_matches": pd.Series(dtype=np.int64)})
        g = p.groupby(left_key, as_index=False)["__n"].sum()
        return pd.DataFrame({left_key: g[left_key].to_numpy(np.int64),
                             "n_matches": g["__n"].to_numpy(np.int64)})

    return grouped_partitions(parts, [left_key], sum_part, n_parts=16)


def materialized_block_refs(ds) -> list:
    """Object refs of a Dataset's blocks. On a materialized Dataset this is
    metadata-only; on a lazy one it triggers (one) execution."""
    refs = []
    for bundle in ds.iter_internal_ref_bundles():
        refs.extend(bundle.block_refs)
    return refs


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
    """Dense global rank by sort_key: sort, then two-pass block-offset scan.

    Pass 1 collects per-block counts (tiny); pass 2 adds cumulative offsets.
    The ordering key replaces the reference's stream-offset ordering (T5).
    """
    import ray
    import ray.data as rd

    block_refs = materialized_block_refs(ds.sort(sort_key).materialize())

    @ray.remote
    def count_rows(block):
        return len(block)

    @ray.remote
    def add_rank(block, off):
        t = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
        t = t.replace_schema_metadata(None)
        return t.append_column(rank_col,
                               pa.array(np.arange(off, off + len(t), dtype=np.int64)))

    counts = ray.get([count_rows.remote(r) for r in block_refs])
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]) if counts else []
    new_blocks = [add_rank.remote(r, int(o)) for r, o in zip(block_refs, offsets)]
    return rd.from_arrow_refs(new_blocks)


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

    def stats(part: pd.DataFrame) -> pd.DataFrame:
        if not len(part):
            return pd.DataFrame({
                "bucket": pd.Series([], dtype=np.int64),
                "n_rows": pd.Series([], dtype=np.int64),
                "n_keys": pd.Series([], dtype=np.int64),
                "max_key_rows": pd.Series([], dtype=np.int64),
                "top_key": pd.Series([], dtype=np.int64)})
        b = part["bucket"].to_numpy(np.int64)
        k = part["key"].to_numpy(np.int64)
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
        return pd.DataFrame({
            "bucket": pair_bucket[bstarts],
            "n_rows": n_rows.astype(np.int64),
            "n_keys": n_keys.astype(np.int64),
            "max_key_rows": max_rows.astype(np.int64),
            "top_key": top_key.astype(np.int64)})

    return grouped_partitions(ds.map_batches(add_bucket,
                                             batch_format="pyarrow"),
                              ["bucket"], stats, n_parts=n_parts)
