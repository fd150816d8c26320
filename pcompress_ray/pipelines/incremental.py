"""Incremental dedup: fold a batch of NEW documents into a completed run.

The reference's global index is incremental by construction — it only grows
(SURVEY §2.9; rabin/global/index.c insert-only plus slot eviction) — but a
run is all-or-nothing. Here incrementality is a first-class pipeline: given
a previous run's signatures + edges (from its checkpoint), a new corpus
increment recomputes ONLY the work the new documents touch:

- signatures: built for new docs only (same stop-shingle set as the
  previous run, so band hashes stay comparable),
- doc-exact: only sha groups containing a new doc,
- chunk-exact: only chunk-hash groups a new doc's chunks fall in
  (new-involving pairs keep full shared_bytes; subset old-old pairs can
  only under-count, so nothing a full recompute would reject gets in),
- LSH: only (band, hash) buckets a new doc lands in — each filtered
  bucket keeps its FULL membership, so its pairs equal a full recompute's,
- verify + components: run over the incremental candidates and the UNION
  of previous and new edges (edges ≪ docs).

Requirement: new ranks strictly greater than every previous rank
(append-only corpus order) — canonical (min-rank) assignments of existing
clusters never change, matching the reference's backward-reference
discipline. Untouched buckets' old-old pairs come verbatim from
``prev_edges``; union_edges dedups overlaps keeping the strongest kind.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from pcompress_ray.config import PipelineConfig
from pcompress_ray.pipelines.dedup import (DedupResult, build_signatures,
                                           resolve_components, union_edges)
from pcompress_ray.stages.candidates import band_key, lsh_candidates
from pcompress_ray.stages.exact import chunk_exact_edges, doc_exact_edges
from pcompress_ray.stages.verify import verify_candidates


def _new_doc_keys(sig_new):
    """(sha frozenset, sorted chunk-hash uint64, sorted band-key uint64)
    collected by parallel per-block tasks over the (small) new-signature
    Dataset."""
    import pyarrow.compute as pc

    from pcompress_ray.functions.ops import block_rounds

    def keys(t: pa.Table):
        shas = set(t["text_sha256"].to_pylist())
        ch = np.unique(pc.list_flatten(t["chunk_hashes"])
                       .to_numpy(zero_copy_only=False).astype(np.uint64))
        counts = pc.list_value_length(t["band_hashes"]).fill_null(0) \
            .to_numpy(zero_copy_only=False)
        bh = pc.list_flatten(t["band_hashes"]).to_numpy(zero_copy_only=False)
        bids = np.concatenate([np.arange(c, dtype=np.uint64)
                               for c in counts]) if len(counts) else \
            np.empty(0, np.uint64)
        bk = np.unique(band_key(bids, bh.astype(np.uint64)))
        return shas, ch, bk

    parts = block_rounds(sig_new, keys)
    if not parts:
        return frozenset(), np.empty(0, np.uint64), np.empty(0, np.uint64)
    shas = frozenset().union(*(p[0] for p in parts))
    ch = np.unique(np.concatenate([p[1] for p in parts]))
    bk = np.unique(np.concatenate([p[2] for p in parts]))
    return shas, ch, bk


def dedup_increment_from_checkpoint(checkpoint_dir: str, new_pages_ds,
                                    cfg: PipelineConfig | None = None,
                                    compute_pairs: bool = False) -> DedupResult:
    """Fold new pages into the run checkpointed at ``checkpoint_dir`` (same
    semantic config): reads its signatures, edges and stop-shingle set."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from pcompress_ray.pipelines.checkpoint import CheckpointManager

    cfg = cfg or PipelineConfig()
    ck = CheckpointManager(checkpoint_dir, cfg.config_hash())
    if not (ck.is_complete("signatures") and ck.is_complete("edges")):
        raise ValueError(
            f"checkpoint at {checkpoint_dir} has no completed signatures+"
            "edges for this config — run the full pipeline first")
    stop = None
    stop_path = ck.path("stop_shingles") + ".parquet"
    if os.path.exists(stop_path):
        stop = pq.read_table(stop_path)["sh"].to_numpy(zero_copy_only=False)
    # project to the CURRENT pipeline schema: a checkpoint written before a
    # column was dropped from SIG_COLUMNS (e.g. minhash) is a superset and
    # must still union cleanly with freshly built signatures
    from pcompress_ray.pipelines.dedup import SIG_COLUMNS

    prev_sig = rd.read_parquet(ck.path("signatures"), columns=SIG_COLUMNS)
    # append-only rank contract: new docs are ranked by url among
    # themselves, shifted past the previous run's max (any incoming rank
    # column is ignored — global order is owned by the run history)
    import pyarrow.compute as pc

    from pcompress_ray.functions.ops import block_rounds, zip_with_rank

    prev_max = max(block_rounds(prev_sig.select_columns(["rank"]),
                                lambda t: pc.max(t["rank"]).as_py()))
    if "rank" in new_pages_ds.schema().names:
        new_pages_ds = new_pages_ds.drop_columns(["rank"])
    new_pages_ds = zip_with_rank(new_pages_ds, "url")

    def shift(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        r = t["rank"].to_numpy(zero_copy_only=False) + prev_max + 1
        return t.set_column(t.schema.get_field_index("rank"), "rank",
                            pa.array(r.astype(np.int64)))

    new_pages_ds = new_pages_ds.map_batches(shift, batch_format="pyarrow")
    return dedup_increment(prev_sig,
                           rd.read_parquet(ck.path("edges")),
                           new_pages_ds, cfg, stop=stop,
                           compute_pairs=compute_pairs)


def dedup_increment(prev_sig, prev_edges, new_pages_ds,
                    cfg: PipelineConfig | None = None,
                    stop: np.ndarray | None = None,
                    compute_pairs: bool = False) -> DedupResult:
    """Fold new pages into a previous run. prev_sig/prev_edges: the prior
    run's materialized (or checkpoint-read) signature and edge Datasets;
    stop: the prior run's stop-shingle array (stored in its checkpoint)."""
    import ray

    cfg = cfg or PipelineConfig()
    stop_ref = ray.put(np.asarray(stop, dtype=np.uint64)) \
        if stop is not None and len(stop) else None

    sig_new = build_signatures(new_pages_ds, cfg, stop_ref=stop_ref) \
        .materialize()
    sig_all = prev_sig.union(sig_new).materialize()

    shas, chunk_hashes, band_keys = _new_doc_keys(sig_new)
    sha_ref = ray.put(shas)
    ch_ref = ray.put(chunk_hashes)
    bk_ref = ray.put(band_keys)

    e_doc = doc_exact_edges(sig_all, prefilter_shas=sha_ref)
    e_sub = chunk_exact_edges(sig_all, cfg, prefilter_hashes=ch_ref)
    cand = lsh_candidates(sig_all, cfg, prefilter_bands=bk_ref).materialize()
    e_near = verify_candidates(cand, sig_all, cfg, n_pairs=cand.count())

    edges = union_edges(prev_edges, e_doc, e_sub, e_near,
                        cfg=cfg).materialize()
    n_edges = edges.count()
    clusters = resolve_components(edges, sig_all, cfg, n_edges=n_edges) \
        .materialize()

    from pcompress_ray.pipelines.dedup import edges_to_pairs, lineage_table

    pairs = edges_to_pairs(edges, sig_all) if compute_pairs else None
    lineage = lineage_table({"signatures": sig_all, "edges": edges,
                             "clusters": clusters}, cfg.config_hash())
    metrics = {
        "config_hash": cfg.config_hash(),
        "incremental": True,
        "n_new_docs": sig_new.count(),
        "n_docs": sig_all.count(),
        "n_candidates": cand.count(),
        "n_edges": int(n_edges),
        "touched_shas": len(shas),
        "touched_chunk_hashes": int(chunk_hashes.size),
        "touched_band_buckets": int(band_keys.size),
    }
    return DedupResult(signatures=sig_all, edges=edges, pairs=pairs,
                       clusters=clusters, metrics=metrics, lineage=lineage)


def bloom_prefilter_dedup(new_ds, store_ds, text_col: str = "text",
                          id_col: str = "doc_id", n_bits: int = 1 << 23,
                          k: int = 7, n_parts: int = 32):
    """Exact-dedup a NEW increment against a historical store with a
    broadcast Bloom prefilter: ship the store's hash set ONCE as fixed-size
    Bloom bits (``ray.put``), let every map task over the increment answer
    "definitely new" locally, and pay the hash-partitioned exact exchange
    only for the maybe-duplicate sliver (true dups + ~FP-rate of the rest).

    The reference's analog is the grow-only global chunk index every block
    probes (rabin/global/index.c); at 100-TB store scale the exact index
    can't be broadcast but its Bloom summary can (~1.2 GB per 10^9 docs at
    10 bits/key). No false negatives, so the exact verify of maybes makes
    the final ``is_dup`` EXACT — the Bloom only prunes exchange bytes.

    Returns a Dataset (doc_id, bloom_maybe, is_dup) over the increment.
    Cost shape: store read 1x (partial Bloom build, #blocks x n_bits/8
    driver fold) + store key re-read for the maybe exchange; a production
    store would persist its sha column and Bloom sidecar at write time
    (pipelines/archive.py already persists per-bucket hash columns).
    """
    import pyarrow.compute as pc
    import ray

    from pcompress_ray.functions.bloom import BloomFilter
    from pcompress_ray.functions.ops import exchange
    from pcompress_ray.hashing import hash_strings

    def _texts(t: pa.Table) -> np.ndarray:
        return pc.fill_null(t[text_col].combine_chunks(), "") \
            .to_numpy(zero_copy_only=False)

    def bloom_partial(t: pa.Table) -> pa.Table:
        bf = BloomFilter.empty(n_bits, k).add(
            hash_strings(_texts(t).astype(str)))
        return pa.table({"bits": pa.array([bf.tobytes()], pa.binary())})

    def bloom_combine(t: pa.Table) -> pa.Table:
        # combine tier: driver ingress drops from #blocks to #blocks/32
        # partials (at 10^6 blocks x 128 KB that is 128 GB -> 4 GB; raise
        # batch_size or add a round for more)
        acc = BloomFilter.empty(n_bits, k)
        for buf in t["bits"].to_pylist():
            acc.merge(BloomFilter.frombytes(buf, k))
        return pa.table({"bits": pa.array([acc.tobytes()], pa.binary())})

    parts = store_ds.map_batches(bloom_partial, batch_format="pyarrow") \
        .map_batches(bloom_combine, batch_format="pyarrow", batch_size=32) \
        .take_all()
    bf = BloomFilter.empty(n_bits, k)
    for row in parts:  # driver fold: #blocks/32 x n_bits/8 bytes
        bf.merge(BloomFilter.frombytes(row["bits"], k))
    bf_ref = ray.put(bf)

    def mark(t: pa.Table) -> pa.Table:
        import hashlib

        filt = ray.get(bf_ref)
        txt = _texts(t)
        maybe = filt.contains(hash_strings(txt.astype(str)))
        # sha only for the maybe sliver — the exact-exchange key
        sha = np.full(len(t), "", dtype=object)
        for i in np.flatnonzero(maybe):
            sha[i] = hashlib.sha256(
                txt[i].encode("utf-8", "surrogatepass")).hexdigest()
        return pa.table({
            "doc_id": t[id_col].cast(pa.int64()),
            "bloom_maybe": pa.array(maybe.astype(np.int64)),
            "sha": pa.array(sha, pa.string()),
        })

    marked = new_ds.map_batches(mark, batch_format="pyarrow").materialize()

    def definite(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        keep = pc.equal(t["bloom_maybe"], 0)
        t = t.filter(keep)
        return pa.table({"doc_id": t["doc_id"],
                         "bloom_maybe": t["bloom_maybe"],
                         "is_dup": pa.array(np.zeros(len(t), np.int64))})

    def maybe_keys(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        return t.filter(pc.equal(t["bloom_maybe"], 1)).select(["doc_id", "sha"])

    def store_keys(t: pa.Table) -> pa.Table:
        import hashlib

        return pa.table({"sha": pa.array(
            [hashlib.sha256(s.encode("utf-8", "surrogatepass")).hexdigest()
             for s in _texts(t)], pa.string())})

    def resolve(new: pa.Table, store: pa.Table) -> pa.Table:
        dup = pc.is_in(new["sha"], value_set=store["sha"].combine_chunks())
        return pa.table({"doc_id": new["doc_id"],
                         "bloom_maybe": pa.array(np.ones(len(new), np.int64)),
                         "is_dup": dup.cast(pa.int64())})

    resolved = exchange(
        [marked.map_batches(maybe_keys, batch_format="pyarrow"),
         store_ds.map_batches(store_keys, batch_format="pyarrow")],
        [["sha"], ["sha"]], resolve, n_parts=n_parts)
    return marked.map_batches(definite, batch_format="pyarrow") \
        .union(resolved)
