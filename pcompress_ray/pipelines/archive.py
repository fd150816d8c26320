"""Dedup-compressed archive: unique CDC chunks stored once, restored
byte-identically — the Ray Data analog of what pcompress actually ships.

Reference parity:
- dedupe_compress packs unique chunk bytes + backward refs into the stream
  (rabin/rabin_dedup.c:1250-1521); here the "stream" is two partitioned
  Parquet tables — a chunk STORE (chunk_hash → codec, payload) and a doc
  MANIFEST (rank, url, sha, ordered chunk_hash list), which is the
  table-shaped equivalent of refs-into-the-chunk-store.
- adaptive per-chunk codec + gain gate (adaptive_compress.c:324-430,
  rabin/rabin_dedup.c:1250-1257) via stages/compress.py (M10/M11).
- decode side dedupe_decompress rebuilds bytes from literal/ref runs in
  strict order (rabin/rabin_dedup.c:1552-1723, pcompress.c:519-837);
  archive_restore is the same join-then-ordered-reassembly, with the
  per-doc SHA-256 verify standing in for the reference's chunk CRC/HMAC.
- compression statistics (A4, pcompress.c:175-195; adaptive per-algo chunk
  counts adaptive_compress.c:130-159) in ArchiveResult.metrics.

Scale shape (the part that must survive 100 TB):
- ONE chunk_hash-partitioned exchange builds the store: chunk payloads
  are sliced from their document at explode time (no join back to texts)
  and co-located by identity; the reducer keeps the first occurrence per
  hash (owner election) and compresses it in place. Shuffle volume =
  corpus bytes (identity dedup requires co-locating candidate payloads
  once); compression work = unique bytes only. The metadata-only-election
  + rank-join-for-payloads alternative measured 30× SLOWER at 40k docs —
  that join ships every document's full text anyway, plus join machinery.
- Store and manifest are partitioned Parquet directories; a failed write
  resumes per Ray output file. Restore is one chunk_hash join + one
  rank-grouped reassembly; decompression is per-chunk and embarrassingly
  parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from pcompress_ray.config import PipelineConfig
from pcompress_ray.stages.cdc import CDCChunker
from pcompress_ray.stages.compress import decompress_chunk, select_and_compress
from pcompress_ray.stages.exact import add_text_sha


@dataclass
class ArchiveResult:
    store: "ray.data.Dataset"      # chunk_hash, codec, payload, orig_len
    manifest: "ray.data.Dataset"   # rank, url, n_bytes, text_sha256, chunk lists
    metrics: dict
    # near_dedup mode only: (rank, base_rank, codec, payload, orig_len,
    # delta_len, url, text_sha256) — similarity-delta-stored members
    deltas: "ray.data.Dataset | None" = None


MANIFEST_COLUMNS = ["rank", "url", "n_bytes", "text_sha256",
                    "n_chunks", "chunk_hashes", "chunk_lengths",
                    "storage", "base_rank"]


def _chunk_pages(pages_ds, cfg: PipelineConfig, text_col: str):
    """pages → per-doc chunk lists + byte count + doc SHA (manifest shape)."""

    def stage(t: pa.Table) -> pa.Table:
        t = add_text_sha(t.replace_schema_metadata(None), text_col=text_col)
        t = CDCChunker(cfg, text_col=text_col, mode=cfg.chunker)(t)
        import pyarrow.compute as pc
        nb = pc.binary_length(t[text_col].cast(pa.binary())).cast(pa.int64())
        t = t.append_column("n_bytes", nb)
        t = t.append_column("storage", pa.array(["chunks"] * len(t), pa.string()))
        return t.append_column(
            "base_rank", pa.array(np.full(len(t), -1, np.int64)))

    return pages_ds.map_batches(stage, batch_format="pyarrow",
                                batch_size=cfg.batch_size)


def _explode_meta(chunked_ds, extra_cols: list[str] | None = None):
    """One row per chunk occurrence: (rank, seq, chunk_hash, off, length)
    [+ extra doc-level columns repeated per chunk]. Zero-chunk docs emit
    nothing — the caller unions them back (restore) or ignores them (write:
    an empty doc has no payload)."""
    extra = extra_cols or []

    def explode(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        t = t.replace_schema_metadata(None)
        ranks = t["rank"].to_numpy(zero_copy_only=False).astype(np.int64)
        counts = pc.list_value_length(t["chunk_hashes"]).fill_null(0) \
                   .to_numpy(zero_copy_only=False).astype(np.int64)
        lens = pc.list_flatten(t["chunk_lengths"]) \
                 .to_numpy(zero_copy_only=False).astype(np.int64)
        total = int(counts.sum())
        first_flat = np.cumsum(counts) - counts          # doc's first flat idx
        flat = np.arange(total, dtype=np.int64)
        seq = flat - np.repeat(first_flat, counts)
        pre = np.concatenate([[0], np.cumsum(lens)])     # bytes before chunk i
        off = pre[flat] - np.repeat(pre[first_flat], counts)
        cols = {
            "rank": pa.array(np.repeat(ranks, counts)),
            "seq": pa.array(seq),
            "chunk_hash": pc.list_flatten(t["chunk_hashes"]),
            "off": pa.array(off.astype(np.int64)),
            "length": pa.array(lens),
        }
        for c in extra:
            cols[c] = t[c].take(np.repeat(np.arange(len(t)), counts))
        return pa.table(cols)

    keep = ["rank", "chunk_hashes", "chunk_lengths"] + extra
    return chunked_ds.select_columns(keep) \
                     .map_batches(explode, batch_format="pyarrow")


def _explode_payloads(chunked_ds, cfg: PipelineConfig, text_col: str):
    """One row per chunk occurrence WITH its payload bytes:
    (chunk_hash, rank, seq, payload). Each document is encoded once per
    batch row and sliced — no join needed to reach the bytes."""

    def explode(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        t = t.replace_schema_metadata(None)
        ranks = t["rank"].to_numpy(zero_copy_only=False).astype(np.int64)
        counts = pc.list_value_length(t["chunk_hashes"]).fill_null(0) \
                   .to_numpy(zero_copy_only=False).astype(np.int64)
        lens = pc.list_flatten(t["chunk_lengths"]) \
                 .to_numpy(zero_copy_only=False).astype(np.int64)
        total = int(counts.sum())
        first = np.cumsum(counts) - counts
        seq = np.arange(total, dtype=np.int64) - np.repeat(first, counts)
        # Zero-copy payload slicing: CDC chunks tile each document exactly
        # (cut_points' final offset is always len(data)), so the chunk
        # payloads ARE the string column's UTF-8 data buffer re-offset at
        # the global chunk-length cumsum — no per-chunk Python slicing.
        col = t[text_col].cast(pa.string()).combine_chunks()
        if col.null_count:
            col = pc.fill_null(col, "")
        off_dtype = np.int64 if pa.types.is_large_string(col.type) else np.int32
        soffs = np.frombuffer(col.buffers()[1], off_dtype)[
            col.offset : col.offset + len(col) + 1].astype(np.int64)
        dbuf = col.buffers()[2]
        data = (np.frombuffer(dbuf, np.uint8)[soffs[0] : soffs[-1]]
                if dbuf is not None else np.empty(0, np.uint8))
        cum = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(lens, out=cum[1:])
        doc_start = soffs[:-1] - soffs[0]
        nz = counts > 0
        tiled = (cum[-1] == data.size and cum[-1] < (1 << 31)
                 and np.array_equal(cum[first[nz]], doc_start[nz]))
        if tiled:
            payload = pa.Array.from_buffers(
                pa.binary(), total,
                [None, pa.py_buffer(cum.astype(np.int32)),
                 pa.py_buffer(data)])
        else:  # defensive fallback (non-tiling chunk lists)
            texts = t[text_col].to_pylist()
            pre = np.concatenate([[0], np.cumsum(lens)])
            off = (pre[:-1] - np.repeat(pre[first], counts)) if total \
                else np.zeros(0, np.int64)
            di = np.repeat(np.arange(len(texts)), counts)
            payloads: list[bytes] = []
            cache: tuple[int, bytes] = (-1, b"")
            for i in range(total):
                d = int(di[i])
                if cache[0] != d:
                    cache = (d, (texts[d] or "").encode("utf-8",
                                                        "surrogatepass"))
                o = int(off[i])
                payloads.append(cache[1][o : o + int(lens[i])])
            payload = pa.array(payloads, pa.binary())
        return pa.table({
            "chunk_hash": pc.list_flatten(t["chunk_hashes"]),
            "rank": pa.array(np.repeat(ranks, counts)),
            "seq": pa.array(seq),
            "payload": payload,
        })

    keep = ["rank", "chunk_hashes", "chunk_lengths", text_col]
    return chunked_ds.select_columns(keep) \
                     .map_batches(explode, batch_format="pyarrow",
                                  batch_size=cfg.batch_size)


def _elect_compress(part: pa.Table, codec_text: str, codec_binary: str,
                    preset: int, filters: tuple = (),
                    n_buckets: int | None = None) -> pa.Table:
    """Owner election + adaptive compression over one chunk_hash partition:
    first occurrence per hash (min rank, then seq) wins and is compressed.
    With ``n_buckets``, each row also gets the store's hive partition
    ``bucket`` (the exchange's hash over ``n_buckets``)."""
    from pcompress_ray.functions.ops import partition_bucket_u64, run_starts

    part = part.sort_by([(c, "ascending") for c in ("chunk_hash", "rank", "seq")])
    first = run_starts(part["chunk_hash"])
    h = part["chunk_hash"].to_numpy()
    raw = part["payload"].filter(first).to_pylist()
    codecs: list[str] = []
    payloads: list[bytes] = []
    for data in raw:
        codec, payload = select_and_compress(
            data, codec_text, codec_binary, preset=preset, filters=filters)
        codecs.append(codec)
        payloads.append(payload)
    out = pa.table({
        "chunk_hash": h[first].astype(np.uint64),
        "codec": pa.array(codecs, pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "orig_len": np.asarray([len(d) for d in raw], dtype=np.int64),
    })
    if n_buckets:
        out = out.append_column("bucket", pa.array(
            partition_bucket_u64(h[first], n_buckets)))
    return out


def _split_delta_members(pages_ds, cfg: PipelineConfig, text_col: str,
                         clusters_ds):
    """near_dedup support: detect clusters (unless given), delta-encode
    non-canonical members, and split the corpus into
    (chunk-path pages, deltas table, delta manifest rows).

    The delta-stored rank set is pulled to the driver (8 B/member) for an
    exact broadcast anti-filter; beyond ~10^8 delta members swap this for
    an anti hash_join on rank — never an approximate filter here (a false
    positive would silently drop a document from the chunk store).
    """
    import pyarrow.compute as pc

    from pcompress_ray.functions.ops import semi_join_filter
    from pcompress_ray.stages.delta import delta_encode_members

    if clusters_ds is None:
        from pcompress_ray.pipelines.dedup import dedup_pipeline

        clusters_ds = dedup_pipeline(pages_ds, cfg).clusters

    raw = delta_encode_members(clusters_ds, pages_ds, cfg, text_col=text_col)

    codec_text, codec_binary = cfg.archive_codec_text, cfg.archive_codec_binary
    preset = cfg.archive_lzma_preset

    def pack(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        t = t.filter(pc.greater_equal(t["delta_len"], 0))
        codecs: list[str] = []
        payloads: list[bytes] = []
        for d in t["delta"].to_pylist():
            codec, payload = select_and_compress(
                d, codec_text, codec_binary, preset=preset,
                filters=cfg.archive_filters)
            codecs.append(codec)
            payloads.append(payload)
        return pa.table({
            "rank": t["rank"].cast(pa.int64()),
            "base_rank": t["base_rank"].cast(pa.int64()),
            "codec": pa.array(codecs, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "orig_len": t["orig_len"].cast(pa.int64()),
            "delta_len": t["delta_len"].cast(pa.int64()),
            "url": t["url"].cast(pa.string()),
            "text_sha256": t["text_sha256"].cast(pa.string()),
        })

    deltas = raw.map_batches(pack, batch_format="pyarrow").materialize()

    ranks = np.sort(deltas.select_columns(["rank"]).to_pandas()["rank"]
                    .to_numpy(dtype=np.int64))
    pages_chunks = semi_join_filter(pages_ds, ranks, on="rank", negate=True)

    def man_rows(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        n = len(t)
        return pa.table({
            "rank": t["rank"],
            "url": t["url"],
            "n_bytes": t["orig_len"],
            "text_sha256": t["text_sha256"],
            "n_chunks": pa.array(np.zeros(n, np.int32)),
            "chunk_hashes": pa.array([[]] * n, pa.list_(pa.uint64())),
            "chunk_lengths": pa.array([[]] * n, pa.list_(pa.int32())),
            "storage": pa.array(["delta"] * n, pa.string()),
            "base_rank": t["base_rank"],
        })

    delta_manifest = deltas.map_batches(man_rows, batch_format="pyarrow")
    return pages_chunks, deltas, delta_manifest


def archive_write(pages_ds, cfg: PipelineConfig | None = None,
                  text_col: str = "text", near_dedup: bool = False,
                  clusters_ds=None) -> ArchiveResult:
    """Build the dedup-compressed archive tables from a pages Dataset.

    pages_ds must carry (url:string, <text_col>:string) and may carry a
    unique int64 ``rank`` (assigned by url order when absent).
    Returns materialized store + manifest Datasets and A3/A4 metrics.

    ``near_dedup=True`` adds the reference's SIMILARITY dedup layer
    (rabin/rabin_dedup.c:846-929 delta path): near-dup clusters are
    detected (or taken from ``clusters_ds`` — (rank, cluster_id,
    is_canonical) with min-rank canonical labels), and every non-canonical
    member whose copy/literal delta against its canonical passes the gain
    gate is stored as that delta instead of chunks. Canonicals and gated
    members go through the chunk store as usual, so every delta's base is
    always chunk-restorable first.
    """
    cfg = cfg or PipelineConfig()

    if "rank" not in pages_ds.schema().names:
        from pcompress_ray.functions.ops import zip_with_rank

        pages_ds = zip_with_rank(pages_ds, "url")

    deltas = None
    delta_manifest = None
    if near_dedup:
        pages_ds, deltas, delta_manifest = _split_delta_members(
            pages_ds, cfg, text_col, clusters_ds)

    chunked = _chunk_pages(pages_ds, cfg, text_col).materialize()
    manifest = chunked.select_columns(MANIFEST_COLUMNS)
    if delta_manifest is not None:
        manifest = manifest.union(delta_manifest)
    manifest = manifest.materialize()

    # ONE chunk_hash-partitioned exchange does owner election AND store
    # build: first occurrence per hash (min rank, then seq — the
    # backward-ref direction invariant, rabin/rabin_dedup.c:830-873,
    # restated over the explicit rank order so results are
    # parallelism-invariant) is compressed in the same reducer. Shuffle
    # volume is the corpus byte count (payloads must co-locate by identity
    # to dedup — unavoidable); duplicate payloads are dropped at the
    # reducer, so compression work is the UNIQUE byte count. Measured 30×
    # faster than the owner-metadata + rank-join alternative at 40k docs
    # (the join shipped every doc's full text anyway).
    from pcompress_ray.functions.ops import exchange

    codec_text, codec_binary = cfg.archive_codec_text, cfg.archive_codec_binary
    preset = cfg.archive_lzma_preset
    n_buckets = cfg.archive_store_buckets

    # the store's hive partition is the exchange's hash over
    # archive_store_buckets, so archive_append can co-read ONLY the
    # buckets its new hashes fall in (O(increment) appends)
    def elect_and_compress(part: pa.Table) -> pa.Table:
        return _elect_compress(part, codec_text, codec_binary, preset,
                               cfg.archive_filters, n_buckets)

    store = exchange([_explode_payloads(chunked, cfg, text_col)],
                     [["chunk_hash"]], elect_and_compress,
                     n_parts=n_buckets).materialize()

    # ---- A3/A4 statistics: tiny per-batch partials, summed on the driver ----
    def store_partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        t = t.replace_schema_metadata(None)
        df = pd.DataFrame({
            "codec": t["codec"].to_pandas(),
            "stored": pc.binary_length(t["payload"]).to_numpy(zero_copy_only=False),
            "orig": t["orig_len"].to_numpy(zero_copy_only=False)})
        g = df.groupby("codec", as_index=False).agg(
            n_chunks=("codec", "size"), stored_bytes=("stored", "sum"),
            unique_bytes=("orig", "sum"))
        return pa.table({
            "codec": pa.array(g["codec"].astype(str), pa.string()),
            "n_chunks": pa.array(g["n_chunks"].to_numpy(np.int64)),
            "stored_bytes": pa.array(g["stored_bytes"].to_numpy(np.int64)),
            "unique_bytes": pa.array(g["unique_bytes"].to_numpy(np.int64))})

    per_codec = store.map_batches(store_partial, batch_format="pyarrow") \
        .to_pandas().groupby("codec", as_index=False).sum()

    def manifest_partial(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        return pa.table({
            "n_docs": pa.array([len(t)], pa.int64()),
            "orig_bytes": pa.array(
                [int(t["n_bytes"].to_numpy(zero_copy_only=False).sum())]
                if len(t) else [0], pa.int64()),
            "n_chunks": pa.array(
                [int(t["n_chunks"].to_numpy(zero_copy_only=False)
                     .astype(np.int64).sum())] if len(t) else [0], pa.int64())})

    mp = manifest.map_batches(manifest_partial, batch_format="pyarrow") \
        .to_pandas().sum()

    n_delta_docs = 0
    delta_orig_bytes = 0
    delta_stored_bytes = 0
    if deltas is not None:
        def delta_partial(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            t = t.replace_schema_metadata(None)
            stored = int(pc.sum(pc.binary_length(t["payload"])).as_py() or 0)
            orig = int(pc.sum(t["orig_len"]).as_py() or 0)
            return pa.table({"n": pa.array([len(t)], pa.int64()),
                             "stored": pa.array([stored], pa.int64()),
                             "orig": pa.array([orig], pa.int64())})

        dp = deltas.map_batches(delta_partial, batch_format="pyarrow") \
            .to_pandas().sum()
        n_delta_docs = int(dp["n"])
        delta_orig_bytes = int(dp["orig"])
        delta_stored_bytes = int(dp["stored"])

    n_unique = int(per_codec["n_chunks"].sum())
    unique_bytes = int(per_codec["unique_bytes"].sum())
    chunk_stored_bytes = int(per_codec["stored_bytes"].sum())
    stored_bytes = chunk_stored_bytes + delta_stored_bytes
    orig_bytes = int(mp["orig_bytes"])
    # A3 gain gate signal: the reference abandons dedup when matched bytes
    # don't cover the index overhead (~16 B per unique chunk index entry);
    # delta-stored members count their full original size as gain recovered
    # down to the delta payload.
    dedup_gain = (orig_bytes - unique_bytes - delta_orig_bytes) \
        + (delta_orig_bytes - delta_stored_bytes)
    metrics = {
        "n_docs": int(mp["n_docs"]),
        "n_chunks": int(mp["n_chunks"]),
        "n_unique_chunks": n_unique,
        "n_delta_docs": n_delta_docs,
        "orig_bytes": orig_bytes,
        "unique_bytes": unique_bytes,
        "stored_bytes": stored_bytes,
        "delta_stored_bytes": delta_stored_bytes,
        "dedup_gain_bytes": dedup_gain,
        "compress_gain_bytes": unique_bytes - chunk_stored_bytes,
        "dedup_ratio": (orig_bytes / (unique_bytes + delta_orig_bytes))
        if (unique_bytes + delta_orig_bytes) else 1.0,
        "overall_ratio": (orig_bytes / stored_bytes) if stored_bytes else 1.0,
        "dedup_worth_it": bool(dedup_gain >= 16 * n_unique),
        "codec_chunks": {r.codec: int(r.n_chunks)
                         for r in per_codec.itertuples()},
        "codec_stored_bytes": {r.codec: int(r.stored_bytes)
                               for r in per_codec.itertuples()},
        "store_buckets": cfg.archive_store_buckets,
        "config_hash": cfg.config_hash(),
    }
    return ArchiveResult(store=store, manifest=manifest, metrics=metrics,
                         deltas=deltas)


def archive_restore(store_ds, manifest_ds, cfg: PipelineConfig | None = None,
                    deltas_ds=None):
    """Rebuild (rank, url, text, sha_ok) from store + manifest
    (+ the deltas table for ``near_dedup`` archives).

    sha_ok is the per-doc SHA-256 verify (the reference verifies chunk
    checksums on decompress, pcompress.c:519-615); a False means a 64-bit
    chunk-identity collision or a corrupted store partition.
    """
    cfg = cfg or PipelineConfig()

    from pcompress_ray.functions.ops import exchange, hash_join, run_starts

    # delta-stored members (near_dedup archives) also have n_chunks == 0;
    # keep only chunk-stored rows in this phase — deltas resolve below
    # against the restored canonicals
    if "storage" in manifest_ds.schema().names:
        import pyarrow.compute as pc

        manifest_ds = manifest_ds.map_batches(
            lambda t: t.replace_schema_metadata(None).filter(
                pc.equal(t["storage"], "chunks")),
            batch_format="pyarrow")

    ex = _explode_meta(manifest_ds, extra_cols=["url", "text_sha256"])
    j = hash_join(ex.select_columns(
        ["rank", "seq", "chunk_hash", "url", "text_sha256"]),
        store_ds, left_on="chunk_hash", right_on="chunk_hash",
        n_buckets=cfg.archive_store_buckets)

    def _dec_one(p, c) -> bytes:
        # a corrupt stored chunk must QUARANTINE its doc (sha_ok=False
        # downstream), not kill a 100-TB restore: map any codec error to
        # an empty piece — the doc's SHA-256 verify then fails loudly in
        # the output instead of the job dying mid-shuffle
        try:
            return decompress_chunk(p, c)
        except Exception:
            return b""

    def decompress(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        codecs = t["codec"].to_pylist()
        payloads = t["payload"].to_pylist()
        pieces = [_dec_one(p, c) for p, c in zip(payloads, codecs)]
        return pa.table({
            "rank": t["rank"].cast(pa.int64()),
            "seq": t["seq"].cast(pa.int64()),
            "url": t["url"].cast(pa.string()),
            "text_sha256": t["text_sha256"].cast(pa.string()),
            "piece": pa.array(pieces, pa.binary()),
        })

    dec = j.map_batches(decompress, batch_format="pyarrow",
                        batch_size=cfg.batch_size)

    def reassemble(part: pa.Table) -> pa.Table:
        part = part.sort_by([("rank", "ascending"), ("seq", "ascending")])
        ranks = part["rank"].to_numpy()
        starts = np.flatnonzero(run_starts(part["rank"]))
        ends = np.append(starts[1:], ranks.size)
        pieces = part["piece"].to_pylist()
        urls = part["url"].to_pylist()
        shas = part["text_sha256"].to_pylist()
        out = {"rank": [], "url": [], "text": [], "sha_ok": []}
        for s, e in zip(starts, ends):
            data = b"".join(pieces[s:e])
            out["rank"].append(int(ranks[s]))
            out["url"].append(urls[s])
            out["text"].append(data.decode("utf-8", "surrogatepass"))
            out["sha_ok"].append(
                hashlib.sha256(data).hexdigest() == shas[s])
        return pa.table({"rank": pa.array(out["rank"], pa.int64()),
                         "url": pa.array(out["url"], pa.string()),
                         "text": pa.array(out["text"], pa.string()),
                         "sha_ok": pa.array(out["sha_ok"], pa.bool_())})

    docs = exchange([dec], [["rank"]], reassemble,
                    n_parts=cfg.archive_store_buckets)

    # zero-chunk docs have no exploded rows: union them back as empty texts
    import pyarrow.compute as pc
    empty_sha = hashlib.sha256(b"").hexdigest()

    def empties(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        t = t.filter(pc.equal(t["n_chunks"].cast(pa.int64()), 0))
        n = len(t)
        ok = pc.equal(t["text_sha256"], empty_sha)
        return pa.table({
            "rank": t["rank"].cast(pa.int64()),
            "url": t["url"].cast(pa.string()),
            "text": pa.array([""] * n, pa.string()),
            "sha_ok": ok.cast(pa.bool_()),
        })

    def norm(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        return pa.table({"rank": t["rank"].cast(pa.int64()),
                         "url": t["url"].cast(pa.string()),
                         "text": t["text"].cast(pa.string()),
                         "sha_ok": t["sha_ok"].cast(pa.bool_())})

    restored = docs.map_batches(norm, batch_format="pyarrow").union(
        manifest_ds.map_batches(empties, batch_format="pyarrow"))

    if deltas_ds is None:
        return restored

    # ---- similarity-delta members: base text = the restored canonical ----
    # (bspatch-on-decode analog; every base is chunk-stored by construction)
    restored = restored.materialize()
    bases = restored.select_columns(["rank", "text"])
    if deltas_ds.count() <= 5_000_000:
        # canonicals are a small fraction of the corpus: prefilter the join's
        # wide side so only base texts enter the exchange (driver holds
        # 8 B/base; beyond the guard the unfiltered join below is the path)
        from pcompress_ray.functions.ops import semi_join_filter

        base_ranks = np.unique(
            deltas_ds.select_columns(["base_rank"]).to_pandas()["base_rank"]
            .to_numpy(dtype=np.int64))
        bases = semi_join_filter(bases, base_ranks, on="rank")
    dj = hash_join(
        deltas_ds.select_columns(["rank", "base_rank", "codec", "payload",
                                  "url", "text_sha256"]),
        bases, left_on="base_rank", right_on="rank")

    from pcompress_ray.stages.delta import delta_decode

    def decode_members(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        codecs = t["codec"].to_pylist()
        payloads = t["payload"].to_pylist()
        bases = t["text"].to_pylist()
        shas = t["text_sha256"].to_pylist()
        texts: list[str] = []
        oks: list[bool] = []
        for c, p, b, sha in zip(codecs, payloads, bases, shas):
            base = (b or "").encode("utf-8", "surrogatepass")
            data = delta_decode(base, decompress_chunk(p, c))
            texts.append(data.decode("utf-8", "surrogatepass"))
            oks.append(hashlib.sha256(data).hexdigest() == sha)
        return pa.table({
            "rank": t["rank"].cast(pa.int64()),
            "url": t["url"].cast(pa.string()),
            "text": pa.array(texts, pa.string()),
            "sha_ok": pa.array(oks, pa.bool_()),
        })

    members = dj.map_batches(decode_members, batch_format="pyarrow",
                             batch_size=cfg.batch_size)
    return restored.union(members)


def write_archive(res: ArchiveResult, out_dir: str) -> str:
    """Partitioned Parquet archive on disk (S5 writer analog): store/ and
    manifest/ directories (per-partition files, safe to re-run) +
    metrics.json."""
    import json
    import os

    os.makedirs(out_dir, exist_ok=True)
    if "bucket" in res.store.schema().names:
        # hive-partitioned by store bucket → appends co-read the buckets
        # of their new hashes instead of reshuffling the historical set
        res.store.write_parquet(os.path.join(out_dir, "store"),
                                partition_cols=["bucket"])
    else:
        res.store.write_parquet(os.path.join(out_dir, "store"))
    res.manifest.write_parquet(os.path.join(out_dir, "manifest"))
    if res.deltas is not None and res.deltas.count():
        res.deltas.write_parquet(os.path.join(out_dir, "deltas"))
    with open(os.path.join(out_dir, "metrics.json"), "w") as f:
        json.dump(res.metrics, f, indent=1, default=str)
    return out_dir


def archive_append(archive_dir: str, new_pages_ds,
                   cfg: PipelineConfig | None = None,
                   text_col: str = "text") -> dict:
    """Fold NEW documents into an existing on-disk archive (the incremental
    analog of the reference's global index reuse, rabin/global/index.c:511:
    a chunk already in the store is a backward ref, never re-stored).

    IDEMPOTENT: new docs whose url already exists in the manifest are
    anti-filtered out first (exact string match; only colliding urls — an
    increment-bounded set — ever reach the driver), so re-running a
    committed append is a no-op instead of doubling manifest piece lists.

    O(INCREMENT) exclusion: every new chunk hash is bucketed with the SAME
    function as the store's on-disk ``bucket=`` hive layout
    (``partition_bucket_u64``), so each reducer co-reads ONLY the hash
    columns of the buckets its rows fall in — the historical hash set is
    never reshuffled.
    Exclusion stays EXACT (never an approximate filter — a false positive
    would lose a chunk). Legacy non-bucketed archives fall back to one
    exchange of the new rows with the whole old hash column (O(store)
    shuffle). New docs get ranks after the existing maximum (append-only
    rank contract); store and manifest gain new Parquet files in place.

    Returns increment metrics; ``read_archive`` + ``archive_restore``
    afterwards restore old and new documents alike.
    """
    import glob
    import json as _json
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray

    from pcompress_ray.functions.ops import (exchange, partition_bucket_u64,
                                             zip_with_rank)
    from pcompress_ray.hashing import hash_strings

    cfg = cfg or PipelineConfig()
    store_old, manifest_old, _ = read_archive(archive_dir)
    store_dir = os.path.join(archive_dir, "store")
    n_buckets = None
    metrics_path = os.path.join(archive_dir, "metrics.json")
    if os.path.exists(metrics_path) and glob.glob(
            os.path.join(store_dir, "bucket=*")):
        with open(metrics_path) as f:
            n_buckets = _json.load(f).get("store_buckets")

    # ---- idempotency: drop new docs whose url is already archived ----
    def url_hash(t: pa.Table) -> pa.Table:
        return pa.table({"h": pa.array(
            hash_strings(t["url"].to_pylist()), pa.uint64())})

    new_h = np.unique(new_pages_ds.select_columns(["url"])
                      .map_batches(url_hash, batch_format="pyarrow")
                      .to_pandas()["h"].to_numpy(dtype=np.uint64))
    nh_ref = ray.put(new_h)

    def manifest_hits(t: pa.Table) -> pa.Table:
        hs = ray.get(nh_ref)
        h = hash_strings(t["url"].to_pylist())
        if hs.size:
            idx = np.minimum(np.searchsorted(hs, h), hs.size - 1)
            m = hs[idx] == h
        else:
            m = np.zeros(h.size, dtype=bool)
        return pa.table({"url": t["url"].filter(pa.array(m))})

    hits_df = manifest_old.select_columns(["url"]) \
        .map_batches(manifest_hits, batch_format="pyarrow").to_pandas()
    dup_urls = hits_df["url"].tolist() if "url" in hits_df.columns else []
    n_skipped = 0
    if dup_urls:
        dup_ref = ray.put(pa.array(sorted(set(dup_urls)), pa.string()))

        def drop_existing(t: pa.Table) -> pa.Table:
            t = t.replace_schema_metadata(None)
            return t.filter(pc.invert(
                pc.is_in(t["url"], value_set=ray.get(dup_ref))))

        before = new_pages_ds.count()
        new_pages_ds = new_pages_ds.map_batches(
            drop_existing, batch_format="pyarrow").materialize()
        n_skipped = before - new_pages_ds.count()
        if new_pages_ds.count() == 0:
            return {"n_new_docs": 0, "n_new_unique_chunks": 0,
                    "n_skipped_existing_urls": n_skipped,
                    "config_hash": cfg.config_hash()}

    def mx(t: pa.Table) -> pa.Table:
        r = t["rank"].to_numpy(zero_copy_only=False)
        return pa.table({"m": pa.array(
            [int(r.max()) if len(t) else -1], pa.int64())})

    prev_max = int(manifest_old.select_columns(["rank"])
                   .map_batches(mx, batch_format="pyarrow")
                   .to_pandas()["m"].max())

    if "rank" in new_pages_ds.schema().names:
        new_pages_ds = new_pages_ds.drop_columns(["rank"])
    new_pages_ds = zip_with_rank(new_pages_ds, "url")

    def shift(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        r = t["rank"].to_numpy(zero_copy_only=False) + prev_max + 1
        return t.set_column(t.schema.get_field_index("rank"), "rank",
                            pa.array(r.astype(np.int64)))

    new_pages_ds = new_pages_ds.map_batches(shift, batch_format="pyarrow")

    chunked = _chunk_pages(new_pages_ds, cfg, text_col).materialize()
    manifest_new = chunked.select_columns(MANIFEST_COLUMNS).materialize()

    codec_text, codec_binary = cfg.archive_codec_text, cfg.archive_codec_binary
    preset = cfg.archive_lzma_preset
    rows = _explode_payloads(chunked, cfg, text_col)

    if n_buckets:
        def elect_bucketed(part: pa.Table) -> pa.Table:
            fresh = part
            if len(part):
                # the exchange may run fewer partitions than the store has
                # buckets, so one partition can hold rows of several
                ch = part["chunk_hash"].to_numpy().astype(np.uint64)
                files = [f for b in np.unique(partition_bucket_u64(
                    ch, n_buckets)) for f in glob.glob(os.path.join(
                        store_dir, f"bucket={b}", "*.parquet"))]
                if files:
                    old_h = np.unique(np.concatenate([
                        pq.read_table(f, columns=["chunk_hash"])
                        ["chunk_hash"].to_numpy(zero_copy_only=False)
                        .astype(np.uint64) for f in files]))
                    idx = np.minimum(np.searchsorted(old_h, ch),
                                     old_h.size - 1)
                    fresh = part.filter(pa.array(old_h[idx] != ch))
            return _elect_compress(fresh, codec_text, codec_binary, preset,
                                   cfg.archive_filters, n_buckets)

        store_new = exchange([rows], [["chunk_hash"]], elect_bucketed,
                             n_parts=n_buckets).materialize()
        store_new.write_parquet(store_dir, partition_cols=["bucket"])
    else:
        # legacy layout: the whole old hash column co-partitioned with the
        # new rows (exact, but O(store) shuffle per append)
        def elect_new(fresh: pa.Table, old: pa.Table) -> pa.Table:
            fresh = fresh.filter(pc.invert(pc.is_in(
                fresh["chunk_hash"], value_set=old["chunk_hash"]
                .combine_chunks().cast(fresh["chunk_hash"].type))))
            return _elect_compress(fresh, codec_text, codec_binary, preset,
                                   cfg.archive_filters)

        store_new = exchange(
            [rows, store_old.select_columns(["chunk_hash"])],
            [["chunk_hash"], ["chunk_hash"]], elect_new,
            n_parts=cfg.archive_store_buckets).materialize()
        store_new.write_parquet(store_dir)

    manifest_new.write_parquet(os.path.join(archive_dir, "manifest"))
    return {
        "n_new_docs": manifest_new.count(),
        "n_new_unique_chunks": store_new.count(),
        "n_skipped_existing_urls": n_skipped,
        "prev_max_rank": prev_max,
        "config_hash": cfg.config_hash(),
    }


def read_archive(out_dir: str):
    """(store_ds, manifest_ds, deltas_ds | None) back from
    ``write_archive`` output."""
    import os

    import ray.data as rd

    deltas_dir = os.path.join(out_dir, "deltas")
    deltas = rd.read_parquet(deltas_dir) if os.path.isdir(deltas_dir) else None
    return (rd.read_parquet(os.path.join(out_dir, "store")),
            rd.read_parquet(os.path.join(out_dir, "manifest")),
            deltas)
