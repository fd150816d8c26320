"""Exact duplicate detection: document identity + chunk identity (substring).

Reimplements the reference's global exact dedup (J1/A1: key = (SHA-256,
length), first occurrence kept, later ones become backward refs —
rabin/rabin_dedup.c:830-873, index lookup rabin/global/index.c:511-520) as
hash-partition shuffles. "First" is redefined from stream offset to the
explicit ordering column ``rank`` (url order), which makes output
parallelism-invariant (SURVEY §2.9) and removes the reference's serialized
index (T5) and its RAM-bounded eviction (index.c:539-547) — the shuffle is
exact at any scale.

Two layers:
- doc-level: groupby(text_sha256) → star edges to the min-rank member.
- chunk-level: explode (chunk_hash, rank, chunk_len) → groupby(chunk_hash)
  → star edges with shared-byte accounting → groupby(a,b) sum → filter by
  ``substring_min_bytes``. This is what catches long exact spans embedded in
  otherwise-unique documents (pcompress's identity-chunk dedup; the
  suffix-array stage then verifies/extends spans).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from pcompress_ray.config import PipelineConfig


def add_text_sha(batch: pa.Table, text_col: str = "text_norm") -> pa.Table:
    """Append text_sha256 (hex) of the normalized text — doc identity key."""
    batch = batch.replace_schema_metadata(None)
    texts = batch[text_col].to_pylist()
    shas = [hashlib.sha256((t or "").encode("utf-8", "surrogatepass")).hexdigest()
            for t in texts]
    return batch.append_column("text_sha256", pa.array(shas, pa.string()))


def doc_exact_edges(sig_ds, prefilter_shas=None):
    """Edges (a,b,kind='exact',jaccard=1.0) for identical normalized text.

    Star topology to the min-rank member — the backward-ref analog; a group
    of m identical docs emits m-1 edges (linear, skew-safe even for the
    mega-group of empty documents).

    ``prefilter_shas``: optional ray ObjectRef of a frozenset of sha hex
    strings — only groups whose sha is in the set are processed (the
    incremental path: shas touched by new documents).
    """

    import ray

    from pcompress_ray.functions.ops import exchange, group_boundaries

    keys = sig_ds.select_columns(["text_sha256", "rank"])
    if prefilter_shas is not None:
        def filt(t: pa.Table) -> pa.Table:
            t = t.replace_schema_metadata(None)
            shaset = pa.array(list(ray.get(prefilter_shas)), pa.string())
            return t.filter(pc.is_in(t["text_sha256"], value_set=shaset))

        keys = keys.map_batches(filt, batch_format="pyarrow")

    def stars(part: pa.Table) -> pa.Table:
        # vectorized over ALL sha groups in the partition
        part = part.sort_by([("text_sha256", "ascending"),
                             ("rank", "ascending")])
        key = part["text_sha256"].to_numpy()
        r = part["rank"].to_numpy().astype(np.int64)
        first, gid, _ = group_boundaries(key)
        a = r[first][gid]          # min rank of each row's group (sorted)
        keep = r != a
        n = int(keep.sum())
        return pa.table({"a": pa.array(a[keep]), "b": pa.array(r[keep]),
                         "kind": pa.array(["exact"] * n, pa.string()),
                         "jaccard": pa.array(np.ones(n, np.float64))})

    return exchange([keys], [["text_sha256"]], stars)


def explode_chunks(sig_ds):
    """(rank, chunk_hash, chunk_len) rows from the per-doc chunk lists."""

    def explode(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        t = t.replace_schema_metadata(None)
        ranks = t["rank"].to_numpy(zero_copy_only=False)
        counts = pc.list_value_length(t["chunk_hashes"]) \
                   .fill_null(0).to_numpy(zero_copy_only=False)
        return pa.table({
            "rank": pa.array(np.repeat(ranks, counts), pa.int64()),
            "chunk_hash": pc.list_flatten(t["chunk_hashes"]),
            "chunk_len": pc.list_flatten(t["chunk_lengths"]),
        })

    return sig_ds.select_columns(["rank", "chunk_hashes", "chunk_lengths"]) \
                 .map_batches(explode, batch_format="pyarrow")


def chunk_exact_edges(sig_ds, cfg: PipelineConfig, prefilter_hashes=None):
    """Substring-duplicate edges from shared CDC chunks.

    explode → groupby(chunk_hash) star pairs (dedup per group first: a doc
    repeating a chunk internally — J3's in-segment self-dedup analog — counts
    once) → map-side combine per (a,b) → PARTIAL rows (kind
    "substring_part"); the global per-pair sum and the
    ≥ substring_min_bytes/chunks filter happen inside union_edges's (a,b)
    shuffle (one exchange instead of two).
    Only multi-chunk docs participate: a single-chunk doc identical to part
    of another is still caught because its whole text IS one chunk.

    ``prefilter_hashes``: optional sorted uint64 chunk-hash array (as a ray
    ObjectRef) — only those hash groups are processed (incremental path:
    every chunk a new doc carries). New-involving pairs keep their FULL
    shared_bytes (a chunk shared with a new doc is by definition in the
    filter), and subset-computed old-old pairs can only under-count, so no
    edge appears that a full recompute would filter out.
    """
    chunks = explode_chunks(sig_ds)
    if prefilter_hashes is not None:
        from pcompress_ray.functions.ops import semi_join_filter

        import ray

        chunks = semi_join_filter(chunks, ray.get(prefilter_hashes),
                                  on="chunk_hash")

    from pcompress_ray.functions.ops import (exchange, group_boundaries,
                                             run_starts)

    group_cap = cfg.bucket_cap

    def pairs_bytes(part: pa.Table) -> pa.Table:
        # vectorized over ALL chunk-hash groups in the partition; one row per
        # (chunk_hash, rank) — a doc repeating a chunk internally counts once
        # (J3 in-segment self-dedup analog)
        part = part.sort_by([("chunk_hash", "ascending"), ("rank", "ascending")])
        part = part.filter(run_starts(part["chunk_hash"])
                           | run_starts(part["rank"]))
        h = part["chunk_hash"].to_numpy()
        r = part["rank"].to_numpy().astype(np.int64)
        ln = part["chunk_len"].to_numpy().astype(np.int64)
        first, gid, sizes = group_boundaries(h)
        row_size = sizes[gid]
        # star edges (min rank → each other member): full coverage of every
        # group, linear even for mega-groups (skew guard, SURVEY §4)
        a = r[first][gid]
        keep = r != a
        out_a, out_b, out_s = [a[keep]], [r[keep]], [ln[keep]]
        # extra all-pairs beyond the star for groups 3..cap (pair-level
        # recall: the (21,22)-style pair both containing a span from a third)
        multi = np.flatnonzero(first & (sizes[gid] >= 3) & (sizes[gid] <= group_cap))
        starts = np.flatnonzero(first)
        for s_idx in multi:
            g0 = int(np.searchsorted(starts, s_idx))
            m = int(sizes[g0])
            rs = r[s_idx : s_idx + m]
            ai, bi = np.triu_indices(m, k=1)
            nonstar = ai != 0  # star pairs already emitted
            out_a.append(rs[ai[nonstar]])
            out_b.append(rs[bi[nonstar]])
            out_s.append(np.full(nonstar.sum(), ln[s_idx], dtype=np.int64))
        # map-side combine per (a,b) WITHIN this chunk-hash partition: the
        # per-pair global sum + threshold filter runs inside union_edges's
        # (a,b) shuffle — fusing what used to be a second full sort barrier
        # keyed on the same (a,b) into the one exchange every edge already
        # pays for. Emitted as kind="substring_part" PARTIALS.
        out = pa.table({"a": np.concatenate(out_a),
                        "b": np.concatenate(out_b),
                        "shared": np.concatenate(out_s)}) \
            .group_by(["a", "b"], use_threads=False) \
            .aggregate([("shared", "sum"), ("shared", "count")])
        n = len(out)
        return pa.table({
            "a": out["a"], "b": out["b"],
            "kind": pa.array(["substring_part"] * n, pa.string()),
            "jaccard": pa.array(np.zeros(n, np.float64)),
            "shared_bytes": out["shared_sum"],
            "shared_chunks": out["shared_count"]})

    return exchange([chunks], [["chunk_hash"]], pairs_bytes)
