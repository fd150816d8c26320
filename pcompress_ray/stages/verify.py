"""Candidate-pair verification.

Analog of the reference's match confirmation: exact matches require
hash+length+memcmp (rabin/rabin_dedup.c:1347-1366), similarity matches
require sketch equality plus constraints (rabin/rabin_dedup.c:1368-1396).
Here a candidate pair (a,b) from LSH is verified by computing Jaccard from
the docs' bottom-k (KMV) shingle sketches — EXACT when both shingle sets fit
within k (the common case for web pages with k=1024), a bottom-k estimate
otherwise. This avoids the MinHash-signature estimator's ±1/√P noise at the
decision threshold, which would cost recall on borderline pairs.

Scale shape: the participating docs' sketches are extracted by PARALLEL Ray
tasks (one per materialized signature block, zero-copy plasma input); each
task's value payload stays in the object store — only (rank, len) index
arrays (16 B/doc) reach the driver, which builds a sorted lookup index and
broadcasts it once. Verification is then a single map_batches with two
binary-search lookups per pair. No per-pair sketch duplication, no shuffle,
no driver byte-streaming. Falls back to two partitioned hash joins when the
participating-sketch payload exceeds ``cfg.verify_broadcast_bytes``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from pcompress_ray.config import PipelineConfig
from pcompress_ray.functions.ops import hash_join


def kmv_jaccard(a: np.ndarray, b: np.ndarray, k: int) -> float:
    """Jaccard from two bottom-k sketches of sorted-unique shingle hashes.

    If both sketches are complete sets (size < k) → exact Jaccard.
    Else: bottom-k of the union, J ≈ |{x in bottom-k(A∪B)} ∩ A ∩ B| / k'.
    """
    if a.size == 0 and b.size == 0:
        return 1.0
    if a.size == 0 or b.size == 0:
        return 0.0
    if a.size < k and b.size < k:
        inter = np.intersect1d(a, b, assume_unique=True).size
        return inter / (a.size + b.size - inter)
    union = np.union1d(a, b)[:k]
    inter = np.intersect1d(np.intersect1d(union, a, assume_unique=True), b,
                           assume_unique=True).size
    return inter / union.size


def _ramp(lens: np.ndarray) -> np.ndarray:
    """0..l0-1, 0..l1-1, ... for ragged gather/scatter index math."""
    total = int(lens.sum())
    return np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(lens) - lens, lens)


def kmv_jaccard_many(va_cat: np.ndarray, a_lens: np.ndarray,
                     vb_cat: np.ndarray, b_lens: np.ndarray,
                     k: int) -> np.ndarray:
    """Vectorized ``kmv_jaccard`` over N pairs.

    ``va_cat``/``vb_cat`` are the pairs' sorted-unique uint64 sketches
    concatenated in pair order; ``a_lens``/``b_lens`` the per-pair sizes.
    The exact case (both sketches complete, size < k — the common web-page
    case) is ONE batched pass: values are ranked against the batch's unique
    set, packed with the pair id into one uint64 key, and both sides
    intersected with a single sorted-array intersection — no per-pair
    Python. Bottom-k-estimate pairs (either side saturated at k) fall back
    to the scalar kernel, pair by pair (rare by construction).
    """
    n = int(a_lens.size)
    jac = np.zeros(n, dtype=np.float64)
    if n == 0:
        return jac
    a_lens = a_lens.astype(np.int64)
    b_lens = b_lens.astype(np.int64)
    a_off = np.concatenate([[0], np.cumsum(a_lens)])
    b_off = np.concatenate([[0], np.cumsum(b_lens)])
    est = (a_lens >= k) | (b_lens >= k)
    jac[(a_lens == 0) & (b_lens == 0)] = 1.0
    exact = ~est & (a_lens > 0) & (b_lens > 0)

    sel = np.flatnonzero(exact)
    if sel.size:
        la, lb = a_lens[sel], b_lens[sel]
        src_a = np.repeat(a_off[sel], la) + _ramp(la)
        src_b = np.repeat(b_off[sel], lb) + _ramp(lb)
        vals_a, vals_b = va_cat[src_a], vb_cat[src_b]
        u = np.unique(np.concatenate([vals_a, vals_b]))
        # pid < 2^32 (batch-sized) and rank(u) < 2^32 by construction
        ka = (np.repeat(np.arange(sel.size, dtype=np.uint64), la) << np.uint64(32)) \
            | np.searchsorted(u, vals_a).astype(np.uint64)
        kb = (np.repeat(np.arange(sel.size, dtype=np.uint64), lb) << np.uint64(32)) \
            | np.searchsorted(u, vals_b).astype(np.uint64)
        inter = np.intersect1d(ka, kb, assume_unique=True)
        cnt = np.bincount((inter >> np.uint64(32)).astype(np.int64),
                          minlength=sel.size)
        jac[sel] = cnt / (la + lb - cnt)

    for i in np.flatnonzero(est):
        jac[i] = kmv_jaccard(va_cat[a_off[i]:a_off[i + 1]],
                             vb_cat[b_off[i]:b_off[i + 1]], k)
    return jac


def _participating_ids(cand_ds) -> np.ndarray:
    """Distinct doc ranks appearing in any candidate pair.

    Per-block np.unique in parallel Ray tasks (no executor launch — the
    candidate Dataset is materialized), then a driver-side merge of the
    already-deduplicated per-block arrays — the driver sees
    O(distinct ids × blocks) int64s, never the raw pair list.
    """
    from pcompress_ray.functions.ops import block_rounds

    def uniq(t: pa.Table) -> np.ndarray:
        return np.unique(np.concatenate([
            t["a"].to_numpy(zero_copy_only=False).astype(np.int64),
            t["b"].to_numpy(zero_copy_only=False).astype(np.int64)]))

    parts = [p for p in block_rounds(cand_ds, uniq) if p.size]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(parts))


def _extract_sketch_block(block, sorted_ids: np.ndarray):
    """One signature block → (ranks, lens, values) for participating docs.

    Runs as a Ray task: ``block`` is a zero-copy plasma read; the uint64
    value payload is returned as its own object so it stays in the object
    store (the driver only ever touches ranks+lens).
    """
    if len(block) == 0:
        # empty partitions (e.g. from an upstream filter) may carry no
        # schema at all — Ray propagates them without calling any UDF
        return (np.empty(0, np.int64), np.empty(0, np.int64)), \
            np.empty(0, np.uint64)
    t = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
    r = t["rank"].to_numpy(zero_copy_only=False).astype(np.int64)
    if sorted_ids.size:
        idx = np.minimum(np.searchsorted(sorted_ids, r), sorted_ids.size - 1)
        keep = sorted_ids[idx] == r
    else:
        keep = np.zeros(r.size, dtype=bool)
    t = t.filter(pa.array(keep))
    if len(t) == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64)), \
            np.empty(0, np.uint64)
    arr = t["kmv"].combine_chunks()
    off_dtype = np.int64 if pa.types.is_large_binary(arr.type) else np.int32
    voff = np.frombuffer(arr.buffers()[1], dtype=off_dtype)[
        arr.offset : arr.offset + len(arr) + 1].astype(np.int64)
    buf = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    ranks = t["rank"].to_numpy(zero_copy_only=False).astype(np.int64)
    lens = np.diff(voff) // 8
    values = buf[voff[0] : voff[-1]].view(np.uint64)
    return (ranks, lens), values


def build_sketch_store(sig_ds, ids: np.ndarray):
    """Parallel CSR-ish sketch store over the participating docs.

    Returns (index_ref, values_refs):
      index = (sorted_ranks, block_of_row, start_in_block, len) — built on
      the driver from per-block (ranks, lens) only; values_refs = one uint64
      array per source block, resident in plasma, fetched zero-copy by each
      verify task.
    """
    import ray

    from pcompress_ray.functions.ops import materialized_block_refs

    ids_ref = ray.put(ids)
    extract = ray.remote(num_returns=2)(_extract_sketch_block)

    # sig_ds is materialized by the pipeline: its block refs are free, and
    # each extract task reads its block zero-copy from plasma (untouched
    # columns are never deserialized) — no extra projection execution.
    pairs = [extract.remote(b, ids_ref) for b in materialized_block_refs(sig_ds)]
    meta = ray.get([p[0] for p in pairs])
    values_refs = [p[1] for p in pairs]

    ranks_parts, blk_parts, start_parts, len_parts = [], [], [], []
    keep_refs = []
    for bi, (ranks, lens) in enumerate(meta):
        if ranks.size == 0:
            continue
        ranks_parts.append(ranks)
        blk_parts.append(np.full(ranks.size, len(keep_refs), dtype=np.int32))
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]]).astype(np.int64)
        start_parts.append(starts)
        len_parts.append(lens.astype(np.int64))
        keep_refs.append(values_refs[bi])
    if ranks_parts:
        ranks_u = np.concatenate(ranks_parts)
        order = np.argsort(ranks_u, kind="stable")
        index = (ranks_u[order],
                 np.concatenate(blk_parts)[order],
                 np.concatenate(start_parts)[order],
                 np.concatenate(len_parts)[order])
    else:
        index = (np.empty(0, np.int64), np.empty(0, np.int32),
                 np.empty(0, np.int64), np.empty(0, np.int64))
    return ray.put(index), keep_refs


def verify_candidates(cand_ds, sig_ds, cfg: PipelineConfig,
                      n_pairs: int | None = None):
    """Attach both sides' KMV sketches and keep pairs with J ≥ threshold.

    Returns edges (a, b, kind='near', jaccard:float64).
    """
    if n_pairs is None:
        n_pairs = cand_ds.count()
    if n_pairs == 0:
        import ray.data as rd

        return rd.from_arrow(pa.table({"a": pa.array([], pa.int64()),
                                       "b": pa.array([], pa.int64()),
                                       "kind": pa.array([], pa.string()),
                                       "jaccard": pa.array([], pa.float64())}))

    ids = _participating_ids(cand_ds) if n_pairs <= 50_000_000 else None
    if ids is not None and ids.size * cfg.kmv_k * 8 <= cfg.verify_broadcast_bytes:
        return _verify_broadcast(cand_ds, sig_ds, cfg, ids)
    return _verify_join(cand_ds, sig_ds, cfg, ids)


def _verify_broadcast(cand_ds, sig_ds, cfg: PipelineConfig, ids: np.ndarray):
    import ray

    index_ref, values_refs = build_sketch_store(sig_ds, ids)
    thresh = cfg.jaccard_threshold
    k = cfg.kmv_k

    def gather(side: np.ndarray, ranks_, blk_, start_, len_, vals):
        """Concatenated sketches for one pair side, in pair order — a
        vectorized ragged gather, looping only over source BLOCKS."""
        ix = np.searchsorted(ranks_, side)
        blk, start, ln = blk_[ix], start_[ix], len_[ix]
        out = np.empty(int(ln.sum()), dtype=np.uint64)
        begins = np.cumsum(ln) - ln
        for bno in np.unique(blk):
            m = blk == bno
            lm = ln[m]
            if not lm.sum():
                continue
            out[np.repeat(begins[m], lm) + _ramp(lm)] = \
                vals[bno][np.repeat(start[m], lm) + _ramp(lm)]
        return out, ln

    def score(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        ranks_, blk_, start_, len_ = ray.get(index_ref)  # zero-copy plasma
        vals = ray.get(values_refs)                      # zero-copy per block
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        va_cat, a_lens = gather(a, ranks_, blk_, start_, len_, vals)
        vb_cat, b_lens = gather(b, ranks_, blk_, start_, len_, vals)
        jac = kmv_jaccard_many(va_cat, a_lens, vb_cat, b_lens, k)
        keep = jac >= thresh
        return pa.table({
            "a": pa.array(a[keep]),
            "b": pa.array(b[keep]),
            "kind": pa.array(["near"] * int(keep.sum()), pa.string()),
            "jaccard": pa.array(jac[keep], pa.float64()),
        })

    return cand_ds.map_batches(score, batch_format="pyarrow", batch_size=8192)


def _verify_join(cand_ds, sig_ds, cfg: PipelineConfig, ids):
    sk = sig_ds.select_columns(["rank", "kmv"])
    if ids is not None:
        import ray

        ids_ref = ray.put(ids)

        def filt(t: pa.Table) -> pa.Table:
            import ray as _ray
            t = t.replace_schema_metadata(None)
            sorted_ids = _ray.get(ids_ref)
            r = t["rank"].to_numpy(zero_copy_only=False).astype(np.int64)
            idx = np.searchsorted(sorted_ids, r)
            idx_c = np.minimum(idx, sorted_ids.size - 1)
            return t.filter(pa.array(sorted_ids[idx_c] == r))

        sk = sk.map_batches(filt, batch_format="pyarrow")

    j1 = hash_join(cand_ds, sk, left_on="a", right_on="rank", suffix="_a")
    # after join 1: columns a,b,n_bands,rank,kmv → rename kmv→kmv_a, drop rank
    def rn1(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        return pa.table({
            "a": t["a"].cast(pa.int64()),
            "b": t["b"].cast(pa.int64()),
            "kmv_a": t["kmv"].cast(pa.binary()),
        })

    j1 = j1.map_batches(rn1, batch_format="pyarrow")
    j2 = hash_join(j1, sk, left_on="b", right_on="rank", suffix="_b")

    thresh = cfg.jaccard_threshold
    k = cfg.kmv_k

    def score(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({"a": [], "b": [], "kind": [], "jaccard": []})
        ka = [x or b"" for x in g["kmv_a"].to_numpy()]
        kb = [x or b"" for x in g["kmv"].to_numpy()]
        va_cat = np.frombuffer(b"".join(ka), dtype=np.uint64)
        vb_cat = np.frombuffer(b"".join(kb), dtype=np.uint64)
        a_lens = np.fromiter((len(x) for x in ka), np.int64, len(ka)) // 8
        b_lens = np.fromiter((len(x) for x in kb), np.int64, len(kb)) // 8
        jac = kmv_jaccard_many(va_cat, a_lens, vb_cat, b_lens, k)
        out = pd.DataFrame({
            "a": g["a"].to_numpy(dtype=np.int64),
            "b": g["b"].to_numpy(dtype=np.int64),
            "kind": "near",
            "jaccard": jac,
        })
        return out[out["jaccard"] >= thresh]

    return j2.map_batches(score, batch_format="pandas")
