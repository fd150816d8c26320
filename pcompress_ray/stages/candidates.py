"""LSH candidate generation with hot-bucket salting and pair caps.

The analog of the reference's similarity-index probe (J2): each segment's
~20 K-min values are looked up in a shared hashtable and hits become
candidate segments (rabin/rabin_dedup.c:1020-1036). Here the shared index is
replaced by a shuffle: explode per-doc band hashes to (band_id, band_hash,
rank) rows and groupby the bucket key — docs agreeing on any band land in
the same group.

Skew handling (SURVEY §4 "Skew" — explicit design):
- groups of size ≤ bucket_cap emit ALL pairs (pair-level recall),
- larger groups are SALTED: members are split deterministically by
  splitmix64(rank) into sub-buckets of ≤ bucket_cap; each sub-bucket emits
  all pairs, and every sub-bucket representative links to the global
  min-rank member. Connectivity (cluster recall) is preserved through
  transitivity; pair count stays linear in group size, and no pair of a
  window is ever dropped.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from pcompress_ray.config import PipelineConfig
from pcompress_ray.hashing import splitmix64


def explode_bands(sig_ds):
    """(band_id, band_hash, rank) rows from the per-doc band-hash lists.

    Docs with empty shingle sets (empty text) are excluded — their all-MAX
    sentinel signature would otherwise form a giant fake bucket; empty docs
    are handled by the doc-exact layer.
    """

    def explode(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        t = t.replace_schema_metadata(None)
        mask = pc.greater(t["n_shingles"], 0)
        t = t.filter(mask)
        ranks = t["rank"].to_numpy(zero_copy_only=False)
        counts = pc.list_value_length(t["band_hashes"]) \
                   .fill_null(0).to_numpy(zero_copy_only=False)
        if counts.size == 0:
            band_ids = np.empty(0, np.int32)
        elif (counts == counts[0]).all():
            band_ids = np.tile(np.arange(counts[0], dtype=np.int32), len(counts))
        else:
            band_ids = np.concatenate(
                [np.arange(c, dtype=np.int32) for c in counts])
        return pa.table({
            "band_id": pa.array(band_ids, pa.int32()),
            "band_hash": pc.list_flatten(t["band_hashes"]),
            "rank": pa.array(np.repeat(ranks, counts), pa.int64()),
        })

    return sig_ds.select_columns(["rank", "band_hashes", "n_shingles"]) \
                 .map_batches(explode, batch_format="pyarrow")


def _pairs_within(ranks: np.ndarray):
    """All unordered pairs of a (sorted) rank array."""
    a_idx, b_idx = np.triu_indices(ranks.size, k=1)
    return ranks[a_idx], ranks[b_idx]


def _salted_pairs(r: np.ndarray, cfg: PipelineConfig):
    """Hot bucket (> bucket_cap members): contiguous windows of ≤ bucket_cap
    over the RANK-SORTED members, all-pairs within each window, every window
    representative linked to the global min — connectivity via transitivity,
    pair count linear in bucket size (skew guard, SURVEY §4).

    Windows are slices of the sorted rank array (NOT hash-modulo buckets):
    a mega-family colliding in many bands then yields the SAME window pairs
    in every band, so the cross-band dedup collapses them — hash-modulo
    salting with a size-dependent modulus emitted a different pairing per
    band and multiplied the pair count by up to lsh_bands.
    """
    cap = cfg.bucket_cap
    parts_a, parts_b, reps = [], [], []
    for s0 in range(0, r.size, cap):
        rs = r[s0 : s0 + cap]
        reps.append(rs[0])
        if rs.size >= 2:
            aa, bb = _pairs_within(rs)
            parts_a.append(aa); parts_b.append(bb)
    reps = np.asarray(reps, dtype=np.int64)
    gmin = r[0]
    link_b = reps[reps != gmin]
    parts_a.append(np.full(link_b.size, gmin, dtype=np.int64))
    parts_b.append(link_b)
    return np.concatenate(parts_a), np.concatenate(parts_b)


def band_partition_pairs(cfg: PipelineConfig):
    """Partition-level fn: ALL band buckets of a hash partition in one call,
    vectorized over the (dominant) singleton and size-2 buckets; Python only
    for buckets of size ≥3 (rare)."""

    def emit(part: pa.Table) -> pa.Table:
        from pcompress_ray.functions.ops import run_starts

        part = part.sort_by([(c, "ascending")
                             for c in ("band_id", "band_hash", "rank")])
        # bucket boundaries from the actual column pair (collision-proof,
        # no mixing needed), and a repeated (bucket, rank) row counts once
        new_bucket = run_starts(part["band_id"]) | run_starts(part["band_hash"])
        uniq = new_bucket | run_starts(part["rank"])
        first = new_bucket[uniq]
        r = part["rank"].to_numpy().astype(np.int64)[uniq]
        n = r.size
        starts = np.flatnonzero(first)
        sizes = np.diff(np.append(starts, n))

        out_a, out_b = [], []
        # size-2 buckets vectorized: rows where group size==2
        s2 = starts[sizes == 2]
        if s2.size:
            out_a.append(r[s2])
            out_b.append(r[s2 + 1])
        # size>=3 buckets: python loop (rare)
        for s_idx, m in zip(starts[sizes >= 3], sizes[sizes >= 3]):
            rs = r[s_idx : s_idx + int(m)]
            if m <= cfg.bucket_cap:
                aa, bb = _pairs_within(rs)
            else:
                aa, bb = _salted_pairs(rs, cfg)
            out_a.append(aa); out_b.append(bb)
        a = np.concatenate([np.empty(0, np.int64)] + out_a)
        b = np.concatenate([np.empty(0, np.int64)] + out_b)
        return pa.table({"a": np.minimum(a, b), "b": np.maximum(a, b)})

    return emit


def simhash_candidates(sig_ds, cfg: PipelineConfig):
    """SimHash near-dup candidates: 64-bit fingerprint split into 4 16-bit
    bands (docs within Hamming distance ≤3 of each other agree on ≥1 band by
    pigeonhole), groupby band → pairs, verified by exact Hamming distance.

    The per-chunk sketch-equality match of the reference's delta path
    (rabin/rabin_dedup.c:1368-1396: equal sketch ⇒ similar) at document
    level. Complements MinHash: SimHash catches small absolute edits on
    near-identical docs.
    """
    from pcompress_ray.functions.ops import exchange, group_boundaries
    from pcompress_ray.hashing import hamming64

    def explode(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        t = t.replace_schema_metadata(None)
        t = t.filter(pc.greater(t["n_shingles"], 0))
        sh = t["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ranks = t["rank"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = sh.shape[0]
        bands = np.empty(4 * n, dtype=np.uint64)
        for i in range(4):
            bands[i * n:(i + 1) * n] = (sh >> np.uint64(16 * i)) & np.uint64(0xFFFF)
        return pa.table({
            "band_id": pa.array(np.repeat(np.arange(4, dtype=np.int32), n)),
            "band_val": pa.array(bands),
            "rank": pa.array(np.tile(ranks, 4)),
            "simhash": pa.array(np.tile(sh, 4)),
        })

    max_d = cfg.simhash_hamming_threshold
    cap = cfg.bucket_cap

    def emit(part: pa.Table) -> pa.Table:
        part = part.sort_by([(c, "ascending")
                             for c in ("band_id", "band_val", "rank")])
        bid = part["band_id"].to_numpy().astype(np.uint64)
        bv = part["band_val"].to_numpy().astype(np.uint64)
        key = (bid << np.uint64(16)) | bv
        r = part["rank"].to_numpy().astype(np.int64)
        uniq = np.ones(r.size, dtype=bool)  # a (band, rank) row counts once
        uniq[1:] = (key[1:] != key[:-1]) | (r[1:] != r[:-1])
        key, r = key[uniq], r[uniq]
        sh = part["simhash"].to_numpy().astype(np.uint64)[uniq]
        first, gid, sizes = group_boundaries(key)
        starts = np.flatnonzero(first)
        out_a, out_b = [], []

        def ham_pairs(rs, ss):
            ai, bi = np.triu_indices(rs.size, k=1)
            ok = hamming64(ss[ai], ss[bi]) <= max_d
            out_a.append(rs[ai[ok]]); out_b.append(rs[bi[ok]])

        for s_idx, m in zip(starts[sizes >= 2], sizes[sizes >= 2]):
            rs = r[s_idx:s_idx + int(m)]
            ss = sh[s_idx:s_idx + int(m)]
            if m <= cap:
                ham_pairs(rs, ss)
            else:
                # hot band bucket: NO truncation — sort members by full
                # fingerprint (Hamming-close fingerprints sort nearby) and
                # compare in 50%-overlapping windows of cap; linear pair
                # count, every member participates, all pairs still
                # Hamming-verified (no false positives introduced)
                order = np.argsort(ss, kind="stable")
                rs_o, ss_o = rs[order], ss[order]
                step = max(cap // 2, 1)
                for w0 in range(0, int(m) - 1, step):
                    wi = slice(w0, min(w0 + cap, int(m)))
                    ham_pairs(rs_o[wi], ss_o[wi])
        a = np.concatenate([np.empty(0, np.int64)] + out_a)
        b = np.concatenate([np.empty(0, np.int64)] + out_b)
        return dedup(pa.table({"a": np.minimum(a, b), "b": np.maximum(a, b)}))

    def dedup(part: pa.Table) -> pa.Table:
        return part.group_by(["a", "b"], use_threads=False).aggregate([])

    pairs = exchange([sig_ds.select_columns(["rank", "simhash", "n_shingles"])
                      .map_batches(explode, batch_format="pyarrow")],
                     [["band_id", "band_val"]], emit)
    return exchange([pairs], [["a", "b"]], dedup)


def ngram_jaccard_pairs(docs_ds, k: int = 5, threshold: float = 0.5,
                        id_col: str = "doc_id", text_col: str = "text",
                        n_parts: int = 64, score: str = "jaccard"):
    """EXACT token-n-gram Jaccard similarity for all doc pairs sharing ≥1
    shingle — the small/exact dedup tool (SQL-oracle-checkable), counterpart
    of the approximate MinHash path.

    Shape: per-doc distinct shingle hashes → explode (shingle, doc,
    |doc's set|) → hash-partitioned co-occurrence pairs (one vectorized
    call per partition) → per-pair intersection counts → score from the
    set sizes CARRIED THROUGH THE EXCHANGE (each exploded row ships its
    doc's distinct-shingle count, so pair rows know both denominators —
    no per-doc size table ever lands on the driver and there is no
    broadcast, keeping the operator unbounded-corpus-safe). Exactness
    requires counting EVERY co-occurrence, which is inherently quadratic
    in shingle-bucket size — at corpus scale use the MinHash/LSH pipeline
    (with stop-shingles and salting) and reserve this operator for
    bounded inputs or verification.

    ``score``: "jaccard" → inter/union (symmetric near-dup metric), or
    "containment" → inter/min(|A|,|B|) (the excerpt/subset metric: a short
    doc fully quoted inside a long one scores ~1.0 here but near 0 on
    Jaccard — the decontamination-relevant direction).

    Returns (doc_a, doc_b, inter, union_sz, jaccard) — or for containment
    (doc_a, doc_b, inter, min_sz, containment) — with score ≥ threshold;
    the counts are exact integers, the score a raw float64 division (the
    SQL oracle reproduces all of them bit-for-bit).
    """
    from pcompress_ray.functions.ops import exchange, group_boundaries
    from pcompress_ray.hashing import hash_strings, shingle_hashes
    from pcompress_ray.stages.textstats import _FP_RE

    def explode(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = t[text_col].to_pylist()
        out_sh, out_id, out_n = [], [], []
        for i, txt in enumerate(texts):
            toks = _FP_RE.findall((txt or "").lower())
            if len(toks) < k:
                continue
            sh = np.unique(shingle_hashes(
                hash_strings(np.asarray(toks, dtype=object)), k))
            out_sh.append(sh)
            out_id.append(np.full(sh.size, ids[i], dtype=np.int64))
            out_n.append(np.full(sh.size, sh.size, dtype=np.int64))
        sh_all = np.concatenate(out_sh) if out_sh else np.empty(0, np.uint64)
        id_all = np.concatenate(out_id) if out_id else np.empty(0, np.int64)
        n_all = np.concatenate(out_n) if out_n else np.empty(0, np.int64)
        return pa.table({"sh": pa.array(sh_all), id_col: pa.array(id_all),
                         "n_sh": pa.array(n_all)})

    docs = docs_ds.select_columns([id_col, text_col])

    def co_pairs(part: pa.Table) -> pa.Table:
        part = part.sort_by([("sh", "ascending"), (id_col, "ascending")])
        sh = part["sh"].to_numpy().astype(np.uint64)
        ids = part[id_col].to_numpy().astype(np.int64)
        uniq = np.ones(sh.size, dtype=bool)  # a (shingle, doc) row once
        uniq[1:] = (sh[1:] != sh[:-1]) | (ids[1:] != ids[:-1])
        sh, ids = sh[uniq], ids[uniq]
        nsh = part["n_sh"].to_numpy().astype(np.int64)[uniq]
        first, _, sizes_ = group_boundaries(sh)
        starts = np.flatnonzero(first)
        out_a, out_b, out_sa, out_sb = [], [], [], []
        s2 = starts[sizes_ == 2]
        if s2.size:
            out_a.append(ids[s2]); out_b.append(ids[s2 + 1])
            out_sa.append(nsh[s2]); out_sb.append(nsh[s2 + 1])
        for s_idx, m in zip(starts[sizes_ >= 3], sizes_[sizes_ >= 3]):
            seg = slice(s_idx, s_idx + int(m))
            ai, bi = np.triu_indices(int(m), k=1)
            out_a.append(ids[seg][ai]); out_b.append(ids[seg][bi])
            out_sa.append(nsh[seg][ai]); out_sb.append(nsh[seg][bi])
        # map-side combine: per-partition pair counts; the set sizes ride
        # along (constant per doc, so 'first' is exact)
        empty = [np.empty(0, np.int64)]
        return pa.table({"a": np.concatenate(empty + out_a),
                         "b": np.concatenate(empty + out_b),
                         "sa": np.concatenate(empty + out_sa),
                         "sb": np.concatenate(empty + out_sb)}) \
            .group_by(["a", "b"], use_threads=False) \
            .aggregate([("sa", "count"), ("sa", "first"), ("sb", "first")]) \
            .rename_columns(["a", "b", "inter", "sa", "sb"])

    pairs = exchange([docs.map_batches(explode, batch_format="pyarrow")],
                     [["sh"]], co_pairs, n_parts=n_parts)

    if score not in ("jaccard", "containment"):
        raise ValueError(f"score must be jaccard|containment, got {score!r}")
    denom_col = "union_sz" if score == "jaccard" else "min_sz"
    score_col = "jaccard" if score == "jaccard" else "containment"

    def reduce_pairs(part: pa.Table) -> pa.Table:
        agg = part.group_by(["a", "b"], use_threads=False).aggregate(
            [("inter", "sum"), ("sa", "first"), ("sb", "first")])
        sa = agg["sa_first"].to_numpy()
        sb = agg["sb_first"].to_numpy()
        inter = agg["inter_sum"].to_numpy()
        denom = (sa + sb - inter) if score == "jaccard" else np.minimum(sa, sb)
        val = inter / denom
        keep = val >= threshold
        return pa.table({
            "doc_a": agg["a"].to_numpy()[keep],
            "doc_b": agg["b"].to_numpy()[keep],
            "inter": inter[keep],
            denom_col: denom[keep],
            score_col: val[keep]})

    return exchange([pairs], [["a", "b"]], reduce_pairs, n_parts=n_parts)


def band_key(band_ids: np.ndarray, band_hashes: np.ndarray) -> np.ndarray:
    """One mixed uint64 key per (band_id, band_hash) bucket."""
    return splitmix64(band_hashes.astype(np.uint64)
                      ^ splitmix64(band_ids.astype(np.uint64) + np.uint64(1)))


def lsh_candidates(sig_ds, cfg: PipelineConfig, prefilter_bands=None):
    """Candidate (a,b) pairs, deduplicated across bands.

    ``prefilter_bands``: optional sorted uint64 array (ray ObjectRef) of
    mixed (band_id, band_hash) keys — only those buckets are processed
    (incremental path: buckets a new document lands in). A filtered bucket
    keeps its FULL membership, so its pair output is identical to a full
    recompute of that bucket.
    """
    from pcompress_ray.functions.ops import exchange

    bands = explode_bands(sig_ds)
    if prefilter_bands is not None:
        import ray

        keys_ref = prefilter_bands

        def filt(t: pa.Table) -> pa.Table:
            t = t.replace_schema_metadata(None)
            keys = ray.get(keys_ref)
            bk = band_key(
                t["band_id"].to_numpy(zero_copy_only=False),
                t["band_hash"].to_numpy(zero_copy_only=False))
            idx = np.minimum(np.searchsorted(keys, bk), keys.size - 1) \
                if keys.size else np.zeros(bk.size, dtype=np.int64)
            mask = keys[idx] == bk if keys.size else np.zeros(bk.size, bool)
            return t.filter(pa.array(mask))

        bands = bands.map_batches(filt, batch_format="pyarrow")

    pairs = exchange([bands], [["band_id", "band_hash"]],
                     band_partition_pairs(cfg))

    # dedup across bands (a pair can collide in up to lsh_bands bands)
    def dedup(part: pa.Table) -> pa.Table:
        return part.group_by(["a", "b"], use_threads=False) \
            .aggregate([([], "count_all")]) \
            .rename_columns(["a", "b", "n_bands"])

    return exchange([pairs], [["a", "b"]], dedup)


def md5_simhash(docs_ds, id_col: str = "doc_id", text_col: str = "text"):
    """Hash-derived Charikar SimHash: 64-bit fingerprint over the DISTINCT
    token set ([a-z0-9]+ runs of the lowercased text), where bit j of
    md5(token)'s leading-16-hex uint64 contributes +1/-1 to bit-sum j and
    fingerprint bit j = 1 iff the sum >= 0.

    Unlike the signature pipeline's projection-matrix SimHash (random
    hyperplanes held by the actor pool), this construction is purely
    content-derived — no RNG, no broadcast state — so an ANSI-SQL twin
    reproduces it bit for bit ('0x'||substr(md5(tok),1,16) gives the same
    uint64). Reference analog: the sketch fingerprint of
    rabin/rabin_dedup.c:1368-1396 computed from content hashes only.

    Docs with zero tokens emit no row (the twin's unnest drops them).
    Returns (id_col, n_tokens, simhash:uint64); one streaming map.
    Tokenization is Arrow-vectorized (textstats.tokenize_alnum); the
    per-doc DISTINCT-token set is one np.unique over integer
    (doc, token_id) pair keys, and md5 runs once per distinct token in
    the batch.
    """
    import hashlib

    from pcompress_ray.stages.textstats import tokenize_alnum

    def kernel(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        doc, words, _ = tokenize_alnum(t[text_col])
        if not len(words):
            return pa.table({id_col: pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64()),
                             "simhash": pa.array([], pa.uint64())})
        uniq, inv = np.unique(words, return_inverse=True)
        v = len(uniq)
        pkey = np.unique(doc * v + inv)     # distinct (doc, token) pairs
        uh = np.fromiter(
            (int(hashlib.md5(w.encode("utf-8")).hexdigest()[:16], 16)
             for w in uniq), np.uint64, v)
        h = uh[pkey % v]
        # pkey is sorted, so per-doc segments are contiguous and docs
        # appear in batch order; zero-token docs are absent by construction
        keep_idx, n_tok = np.unique(pkey // v, return_counts=True)
        n_tok = n_tok.astype(np.int64)
        keep = ids[keep_idx]
        starts = np.concatenate(
            [[0], np.cumsum(n_tok)[:-1]]).astype(np.intp)
        # per bit: ones-count per doc segment, then sum = 2*ones - n_tok.
        # One bit at a time keeps the transient at 8 B/token-row instead
        # of a (rows x 64) +/-1 matrix (512 B/row — OOM on 100 KB docs).
        fps = np.zeros(len(keep), dtype=np.uint64)
        for j in range(64):
            ones = np.add.reduceat(
                ((h >> np.uint64(j)) & np.uint64(1)).astype(np.int64),
                starts)
            fps |= ((2 * ones - n_tok) >= 0).astype(np.uint64) \
                << np.uint64(j)
        return pa.table({id_col: pa.array(np.asarray(keep, np.int64)),
                         "n_tokens": pa.array(n_tok),
                         "simhash": pa.array(fps)})

    return docs_ds.map_batches(kernel, batch_format="pyarrow")
