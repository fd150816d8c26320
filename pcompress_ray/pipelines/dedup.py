"""The flagship near-duplicate detection + clustering pipeline.

Shape (SURVEY §3.4):
  pages → extract/normalize → [CDC + shingle/MinHash/LSH signatures]
        → exact-dup shuffle (text_sha256)  ┐
        → chunk-identity shuffle (substring)│→ union edges → components
        → LSH band shuffle → verify        ┘
        → clusters(url, cluster_id, is_canonical) + dup_pairs + metrics

Input contract: a Dataset with columns (url, text [, html, lang, warc_ts])
plus ``rank`` — an int64 TOTAL ORDER on documents (url order). Rank replaces
the reference's stream-offset ordering under the semaphore ring (T5,
pcompress.c:2617-2624): "canonical" = min rank, so results are independent
of parallelism and arrival order.

Every heavy stage is checkpointable (see checkpoint.py); pass
``checkpoint_dir`` to make a killed run resume from the last complete stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from pcompress_ray.config import PipelineConfig
from pcompress_ray.pipelines.checkpoint import CheckpointManager
from pcompress_ray.stages.candidates import lsh_candidates
from pcompress_ray.stages.exact import add_text_sha, chunk_exact_edges, doc_exact_edges
from pcompress_ray.stages.extract import Extractor
from pcompress_ray.stages.signatures import SignatureStage
from pcompress_ray.stages.verify import verify_candidates

# Columns the pipeline materializes. The raw 128-perm `minhash` vector is
# deliberately ABSENT: every downstream stage consumes its derivatives
# (band_hashes for LSH, kmv for verify), and carrying 128×8 B/doc through
# the object store was ~25% of the signature table's bytes for a column
# nothing read (measured at 480k docs). SignatureStage still emits it, so
# direct callers (golden digests, ad-hoc analysis) can project it.
SIG_COLUMNS = ["url", "rank", "text_sha256", "n_chunks", "chunk_hashes",
               "chunk_lengths", "n_tokens", "n_shingles",
               "band_hashes", "simhash", "kmv"]
# the pages schema a scan with no input schema at all types its result by
_NO_PAGES = pa.table({"url": pa.array([], pa.string()),
                      "rank": pa.array([], pa.int64()),
                      "text": pa.array([], pa.string())})


@dataclass
class DedupResult:
    signatures: object  # Dataset
    edges: object       # Dataset (a, b, kind, jaccard)
    pairs: object       # Dataset (url_a, url_b, kind, similarity)
    clusters: object    # Dataset (url, cluster_id, is_canonical)
    metrics: dict = field(default_factory=dict)
    lineage: object = None  # pa.Table — one row per (stage, block)


def _scan_task(cfg: PipelineConfig, stop_ref):
    """The signature scan's task body: ``scan(*blocks)`` concatenates its
    input blocks and runs extract → text_sha → chunker → SignatureStage
    over ``cfg.batch_size``-row slices, returning only ``SIG_COLUMNS``.

    Stateless tasks + per-worker-process instance cache: a worker loads a
    shipped function once and keeps it, so the default-argument dict holds
    one set of stage instances per worker and scan (T3's setup-once, no
    actor pool). Actors would be fresh processes per run that pay a slow
    first-touch warm-up, while the MinHash tables build in ~1 ms."""
    from pcompress_ray.functions.ops import _arrow
    from pcompress_ray.registry import resolve

    def scan(*blocks, _cache: dict = {}) -> pa.Table:
        if not _cache:
            # chunker resolved through the plugin registry (SURVEY §2.10) —
            # "rabin" (CDC) by default, "fixed" = the reference's -F mode
            _cache["stages"] = (Extractor(),
                                resolve("chunker", cfg.chunker)(cfg),
                                SignatureStage(cfg, stop_ref=stop_ref))
        extract, chunker, sign = _cache["stages"]
        t = pa.concat_tables([_arrow(b) for b in blocks],
                             promote_options="permissive")
        step = cfg.batch_size
        return pa.concat_tables([
            sign(chunker(add_text_sha(extract(t.slice(i, step)))))
            .select(SIG_COLUMNS) for i in range(0, max(len(t), 1), step)])

    return scan


def build_signatures(pages_ds, cfg: PipelineConfig, stop_ref=None):
    """extract → text_sha → CDC → MinHash/LSH/SimHash: the signature scan,
    as raw Ray tasks.

    Ray Data reads ``pages_ds`` (one execution, streamed through
    ``iter_internal_ref_bundles``); consecutive non-empty read blocks are
    grouped until a group holds at least ``cfg.batch_size`` rows, and each
    group is one ``_scan_task`` task, submitted through ``ops``'
    byte-bounded ``bounded_submit`` loop as soon as it fills, so the read
    and the scan overlap. Empty blocks get no task. The result is a Dataset
    over the tasks' output blocks, in input order, carrying
    ``SIG_COLUMNS``; with no input rows it is one typed empty block.

    Why not ``map_batches``: on 4 CPUs Ray Data kept about 2.2 of them busy
    in this scan (its per-operator resource reservation splits the CPUs
    between the read and the map), and none of its settings closed the gap
    (the attribution table is in CHANGES.md). One task per read block
    (~57 rows) would leave 5x more, smaller output blocks, which slows
    every exchange downstream.

    ``stop_ref``: optional ray ObjectRef of a sorted uint64 stop-shingle
    array (boilerplate suppression for banding; see compute_stop_shingles).
    """
    import ray
    import ray.data as rd

    from pcompress_ray.functions.ops import bounded_submit

    scan = _scan_task(cfg, stop_ref)
    task, submit = ray.remote(scan), bounded_submit()
    refs, group, rows, nbytes, schema = [], [], 0, 0, None
    for bundle in pages_ds.iter_internal_ref_bundles():
        if schema is None and isinstance(bundle.schema, pa.Schema) \
                and bundle.schema.names:
            schema = bundle.schema
        for ref, md in bundle.blocks:
            if not md.num_rows:
                continue
            group.append(ref)
            rows += md.num_rows
            nbytes += md.size_bytes or 0
            if rows >= cfg.batch_size:
                refs.append(submit(nbytes, task, *group))
                group, rows, nbytes = [], 0, 0
    if group:
        refs.append(submit(nbytes, task, *group))
    if not refs:
        empty = schema.empty_table() if schema is not None else _NO_PAGES
        return rd.from_arrow(scan(empty))
    return rd.from_arrow_refs(refs)


def union_edges(*edge_dss, cfg: PipelineConfig | None = None):
    """Merge edge Datasets into one (a, b, kind, jaccard) edge set, one
    edge per pair, keeping the strongest kind (exact > substring > near).

    chunk_exact_edges emits map-side-combined PARTIALS (kind
    "substring_part" + shared_bytes/shared_chunks); their global per-pair
    sum and the ≥ substring_min_bytes/chunks gate run HERE, inside the one
    (a,b) exchange all edges already pay for — one shuffle fused out of the
    edges phase. Already-final "substring" rows (e.g. a previous run's
    checkpointed edges in the incremental path) pass through untouched."""
    from pcompress_ray.functions.ops import exchange, run_starts

    cfg = cfg or PipelineConfig()
    min_bytes, min_chunks = cfg.substring_min_bytes, cfg.substring_min_chunks
    prio = pa.array(["exact", "substring", "near"])
    cols = {"a": pa.int64(), "b": pa.int64(), "kind": pa.string(),
            "jaccard": pa.float64(), "shared_bytes": pa.int64(),
            "shared_chunks": pa.int64()}

    def typed(t: pa.Table) -> pa.Table:
        zeros = pa.array(np.zeros(len(t), np.int64))
        return pa.table({c: t[c].cast(ty) if c in t.column_names else zeros
                         for c, ty in cols.items()})

    def best(*tables: pa.Table) -> pa.Table:
        part = pa.concat_tables([typed(t) for t in tables if t.num_columns])
        is_part = pc.equal(part["kind"], "substring_part")
        summed = part.filter(is_part).group_by(["a", "b"], use_threads=False) \
            .aggregate([("shared_bytes", "sum"), ("shared_chunks", "sum")])
        summed = summed.filter(pc.and_(
            pc.greater_equal(summed["shared_bytes_sum"], min_bytes),
            pc.greater_equal(summed["shared_chunks_sum"], min_chunks)))
        n = len(summed)
        part = pa.concat_tables([
            part.filter(pc.invert(is_part)).select(["a", "b", "kind", "jaccard"]),
            pa.table({"a": summed["a"], "b": summed["b"],
                      "kind": pa.array(["substring"] * n, pa.string()),
                      "jaccard": pa.array(np.zeros(n, np.float64))})])
        # vectorized best-kind-per-pair across the whole partition
        part = part.append_column("_p", pc.index_in(part["kind"], prio)) \
            .sort_by([("a", "ascending"), ("b", "ascending"),
                      ("_p", "ascending"), ("jaccard", "descending")])
        first = run_starts(part["a"]) | run_starts(part["b"])
        return part.filter(first).drop_columns(["_p"])

    return exchange(list(edge_dss), [["a", "b"]] * len(edge_dss), best)


def _docs_with_bytes(sig_ds):
    """(url, rank, doc_bytes) projection — doc_bytes = sum of CDC chunk
    lengths, i.e. the normalized-text byte count (the unit of dedupe gain)."""

    def derive(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        t = t.replace_schema_metadata(None)
        counts = pc.list_value_length(t["chunk_lengths"]).fill_null(0) \
                   .to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(t["chunk_lengths"]).to_numpy(zero_copy_only=False)
        csum = np.concatenate([[0], np.cumsum(flat, dtype=np.int64)])
        ends = np.cumsum(counts)
        total = csum[ends] - csum[ends - counts]
        return pa.table({"url": t["url"], "rank": t["rank"],
                         "doc_bytes": pa.array(total)})

    return sig_ds.select_columns(["url", "rank", "chunk_lengths"]) \
                 .map_batches(derive, batch_format="pyarrow")


def resolve_components(edges_ds, sig_ds, cfg: PipelineConfig,
                       n_edges: int | None = None):
    """Edges → cluster table over ALL docs. Driver vectorized min-label
    components below the edge limit; distributed hook-and-shortcut
    components (stages/components.label_propagation) above."""
    import ray

    from pcompress_ray.stages.components import (
        lookup_labels,
        min_label_components,
    )

    if n_edges is None:
        n_edges = edges_ds.count()
    if n_edges <= cfg.cc_driver_edge_limit:
        # pull just (a, b) from the materialized edges blocks via raw Ray
        # tasks — a select_columns().to_pandas() here would relaunch the
        # streaming executor (~1 s fixed latency in this sandbox) for a
        # projection block_rounds does zero-copy from plasma
        from pcompress_ray.functions.ops import block_rounds

        def ab(t: pa.Table) -> tuple:
            return (t["a"].to_numpy(zero_copy_only=False).astype(np.int64),
                    t["b"].to_numpy(zero_copy_only=False).astype(np.int64))

        parts = [p for p in block_rounds(edges_ds, ab) if p is not None]
        a_all = (np.concatenate([p[0] for p in parts]) if parts
                 else np.empty(0, np.int64))
        b_all = (np.concatenate([p[1] for p in parts]) if parts
                 else np.empty(0, np.int64))
        keys, vals = min_label_components(a_all, b_all)
        ref = ray.put((keys, vals))

        def assign(t: pa.Table) -> pa.Table:
            t = t.replace_schema_metadata(None)
            keys_, vals_ = ray.get(ref)  # zero-copy local plasma read per task
            ranks = t["rank"].to_numpy(zero_copy_only=False).astype(np.int64)
            cid = lookup_labels(keys_, vals_, ranks)
            return pa.table({
                "url": t["url"],
                "rank": t["rank"],
                "doc_bytes": t["doc_bytes"],
                "cluster_id": pa.array(cid),
                "is_canonical": pa.array(cid == ranks),
            })

        return _docs_with_bytes(sig_ds).map_batches(
            assign, batch_format="pyarrow")

    # scale path: distributed hook-and-shortcut components + join back to
    # all docs
    from pcompress_ray.functions.ops import hash_join
    from pcompress_ray.stages.components import label_propagation

    labels_ds = label_propagation(edges_ds.select_columns(["a", "b"]))

    def rn(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        return pa.table({"node": t["node"], "label": t["label"]})

    joined = hash_join(_docs_with_bytes(sig_ds),
                       labels_ds.map_batches(rn, batch_format="pyarrow"),
                       left_on="rank", right_on="node", how="left")

    def finalize(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        ranks = t["rank"].to_numpy(zero_copy_only=False).astype(np.int64)
        lab = t["label"].to_numpy(zero_copy_only=False)
        lab = np.where(pd.isna(lab), ranks, lab).astype(np.int64)
        dbytes = t["doc_bytes"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "url": t["url"].cast(pa.string()),
            "rank": pa.array(ranks),
            "doc_bytes": pa.array(dbytes),
            "cluster_id": pa.array(lab),
            "is_canonical": pa.array(lab == ranks),
        })

    return joined.map_batches(finalize, batch_format="pyarrow")


def edges_to_pairs(edges_ds, sig_ds):
    """(a,b,kind,jaccard) → (url_a, url_b, kind, similarity) via two joins."""
    from pcompress_ray.functions.ops import hash_join

    urls = sig_ds.select_columns(["url", "rank"])
    j1 = hash_join(edges_ds, urls, left_on="a", right_on="rank")

    def rn1(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        return pa.table({"a": t["a"].cast(pa.int64()), "b": t["b"].cast(pa.int64()),
                         "kind": t["kind"].cast(pa.string()),
                         "jaccard": t["jaccard"].cast(pa.float64()),
                         "url_a": t["url"].cast(pa.string())})

    j2 = hash_join(j1.map_batches(rn1, batch_format="pyarrow"), urls,
                   left_on="b", right_on="rank")

    def rn2(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        return pa.table({"url_a": t["url_a"].cast(pa.string()),
                         "url_b": t["url"].cast(pa.string()),
                         "kind": t["kind"].cast(pa.string()),
                         "similarity": t["jaccard"].cast(pa.float64())})

    return j2.map_batches(rn2, batch_format="pyarrow")


def lineage_table(stage_dss: dict[str, object], config_hash: str) -> pa.Table:
    """Per-partition lineage records (S8 analog of the reference's metadata
    stream, meta_stream.c): one row per (stage, block) of each materialized
    stage Dataset — row/byte counters plus the rank range the block covers,
    keyed by the semantic config hash. Collected by parallel per-block Ray
    tasks (zero-copy plasma reads, no executor launch); the table itself is
    tiny (#blocks rows) and is what a resuming/auditing run reads to decide
    which partitions are complete and what they contained.
    """
    import ray

    from pcompress_ray.functions.ops import materialized_block_refs

    @ray.remote
    def blk_meta(block, stage: str, idx: int) -> tuple:
        t = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
        lo = hi = -1
        for col in ("rank", "a"):
            if col in t.column_names and len(t):
                r = t[col].to_numpy(zero_copy_only=False)
                lo, hi = int(np.min(r)), int(np.max(r))
                break
        return (stage, idx, len(t), int(t.nbytes), lo, hi)

    refs = []
    for stage, ds in stage_dss.items():
        for i, b in enumerate(materialized_block_refs(ds)):
            refs.append(blk_meta.remote(b, stage, i))
    rows = ray.get(refs)
    return pa.table({
        "stage": pa.array([r[0] for r in rows], pa.string()),
        "block_id": pa.array([r[1] for r in rows], pa.int32()),
        "n_rows": pa.array([r[2] for r in rows], pa.int64()),
        "n_bytes": pa.array([r[3] for r in rows], pa.int64()),
        "min_rank": pa.array([r[4] for r in rows], pa.int64()),
        "max_rank": pa.array([r[5] for r in rows], pa.int64()),
        "config_hash": pa.array([config_hash] * len(rows), pa.string()),
    })


def dedup_pipeline(pages_ds, cfg: PipelineConfig | None = None,
                   checkpoint_dir: str | None = None,
                   compute_pairs: bool = True) -> DedupResult:
    """Run the full pipeline. pages_ds must carry (url, rank, text[, html])."""
    import time

    cfg = cfg or PipelineConfig()
    ck = CheckpointManager(checkpoint_dir, cfg.config_hash())
    t_last = time.time()
    phase_sec: dict[str, float] = {}

    def mark(phase):
        nonlocal t_last
        now = time.time()
        phase_sec[phase] = round(now - t_last, 3)
        t_last = now

    # stop-shingle (boilerplate) pass: constant-size sample, one broadcast.
    # Sampled from the PRE-locality-sort dataset: the sample is a prefix
    # (limit), and after a domain sort the prefix would be the first few
    # domains — their templates would be marked stop shingles, suppressing
    # banding recall for exactly those domains and breaking locality_sort's
    # results-invariance.
    stop_ref = None
    if cfg.stop_shingle_df > 0:
        import ray

        from pcompress_ray.stages.signatures import compute_stop_shingles

        stop = compute_stop_shingles(pages_ds, cfg, cfg.stop_shingle_sample,
                                     cfg.stop_shingle_df)
        stop_ref = ray.put(stop)
        if ck.enabled:
            # persisted so an incremental run bands NEW docs with the SAME
            # boilerplate suppression (pipelines/incremental.py)
            ck.save_table("stop_shingles",
                          pa.table({"sh": pa.array(stop, pa.uint64())}))
        mark("stop_shingles")

    # locality sort (O4): co-locate likely duplicates (same registered
    # domain) before the heavy shuffles — opt-in, result-invariant
    if cfg.locality_sort:
        from pcompress_ray.stages.locality import locality_sort

        pages_ds = locality_sort(pages_ds)
        mark("locality_sort")

    # signatures are consumed by four downstream stages — materialize ONCE
    # (to checkpoint Parquet when enabled, else to the object store) so the
    # extract/CDC/signature chain never re-executes per consumer.
    sig = build_signatures(pages_ds, cfg, stop_ref=stop_ref)
    sig = ck.materialize("signatures", sig) if ck.enabled else sig.materialize()
    mark("signatures")

    e_doc = doc_exact_edges(sig)
    e_sub = chunk_exact_edges(sig, cfg)
    cand = lsh_candidates(sig, cfg).materialize()  # small; reused by verify
    n_candidates = cand.count()                    # metadata (materialized)
    mark("candidates")
    e_near = verify_candidates(cand, sig, cfg, n_pairs=n_candidates)
    edges = union_edges(e_doc, e_sub, e_near, cfg=cfg)
    edges = ck.materialize("edges", edges) if ck.enabled else edges.materialize()
    n_edges = edges.count()                        # metadata (materialized)
    mark("edges")

    clusters = resolve_components(edges, sig, cfg, n_edges=n_edges)
    clusters = ck.materialize("clusters", clusters) if ck.enabled \
        else clusters.materialize()
    mark("clusters")

    pairs = edges_to_pairs(edges, sig) if compute_pairs else None

    # lineage / metrics (A4 analog: compression statistics, pcompress.c:175-195
    # + dedupe-gain accounting, rabin/rabin_dedup.c:1250-1257, 1412-1420:
    # the reference abandons dedup when matched bytes < index overhead).
    # ONE parallel block-task round each over the (materialized) edges and
    # clusters — per-block partial counters, no executor launch, no shuffle.
    from pcompress_ray.functions.ops import block_rounds

    def edge_counters(t: pa.Table) -> dict:
        import pyarrow.compute as pc
        vc = pc.value_counts(t["kind"])
        return {str(k): int(v) for k, v in zip(vc.field("values").to_pylist(),
                                               vc.field("counts").to_pylist())}

    edges_by_kind: dict[str, int] = {}
    for part in block_rounds(edges, edge_counters):
        for k, v in part.items():
            edges_by_kind[k] = edges_by_kind.get(k, 0) + v

    def gain_counters(t: pa.Table) -> tuple:
        b = t["doc_bytes"].to_numpy(zero_copy_only=False).astype(np.int64)
        canon = t["is_canonical"].to_numpy(zero_copy_only=False).astype(bool)
        return (len(t), int((~canon).sum()), int(b.sum()), int(b[~canon].sum()))

    parts = block_rounds(clusters, gain_counters)
    n_docs, n_dup_docs, bytes_scanned, dup_bytes = (
        (np.array(parts, dtype=np.int64).sum(axis=0) if parts
         else np.zeros(4, np.int64)).tolist())
    gain_ratio = dup_bytes / bytes_scanned if bytes_scanned else 0.0

    metrics = {
        "config_hash": cfg.config_hash(),
        "n_docs": int(n_docs),
        "n_candidates": int(n_candidates),
        "n_edges": int(n_edges),
        "edges_by_kind": edges_by_kind,
        # dedupe-gain gate (A3): would removing non-canonical docs pay for
        # the index? The reference's analog threshold is matched-bytes vs
        # index overhead; operators watch gain_ratio on real runs.
        "bytes_scanned": int(bytes_scanned),
        "dup_bytes": int(dup_bytes),
        "n_dup_docs": int(n_dup_docs),
        "gain_ratio": round(gain_ratio, 6),
        "gain_below_threshold": bool(gain_ratio < cfg.min_gain_ratio),
        # wall seconds per phase (driver-observed; A4 statistics analog)
        "phase_sec": phase_sec,
    }
    # per-partition lineage records (S8) — tiny (#blocks rows)
    lineage = lineage_table({"signatures": sig, "edges": edges,
                             "clusters": clusters}, cfg.config_hash())
    metrics["lineage_blocks"] = len(lineage)
    mark("metrics")
    if ck.enabled:
        ck.save_table("lineage", lineage)
        ck.save_json("metrics", metrics)
    return DedupResult(signatures=sig, edges=edges, pairs=pairs,
                       clusters=clusters, metrics=metrics, lineage=lineage)


def write_outputs(res: DedupResult, out_dir: str):
    """Write the result tables as partitioned Parquet (S5 writer analog —
    per-partition files, deterministic naming via Ray's part files, safe to
    re-run)."""
    import json
    import os

    os.makedirs(out_dir, exist_ok=True)
    res.clusters.write_parquet(os.path.join(out_dir, "clusters"))
    if res.pairs is not None:
        res.pairs.write_parquet(os.path.join(out_dir, "dup_pairs"))
    if res.lineage is not None:
        import pyarrow.parquet as pq

        pq.write_table(res.lineage, os.path.join(out_dir, "lineage.parquet"))
    with open(os.path.join(out_dir, "metrics.json"), "w") as f:
        json.dump(res.metrics, f, indent=1, default=str)
    return out_dir
