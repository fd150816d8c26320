"""Signature stage: shingles → MinHash + LSH bands + SimHash + bottom-k sketch.

Document-level reimplementation of the reference's similarity machinery:

- per-block K-min-values sketch (min-heap K-smallest over the block's u64
  words + XXH32, rabin/rabin_dedup.c:684-706, 734-754) and the per-segment
  bottom-k sketch over sorted chunk SHA-256s (rabin/rabin_dedup.c:921-994)
  → 128-permutation MinHash over token shingles (``minhash_signature``) plus
  a bottom-k (KMV) sketch of the shingle set for near-exact Jaccard at
  verify time,
- the ~20 similarity keys per segment probed against the similarity index
  (rabin/rabin_dedup.c:1020-1036) → b×r LSH band hashes emitted as columns,
  later explode + groupby (the shuffle replaces index.c's shared hashtable).

Stateful-stage shape (SURVEY §2.3 T3, create_dedupe_context analog): the
permutation table is built once in ``__init__`` and reused across batches —
``build_signatures`` keeps one instance per worker process.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from pcompress_ray.config import PipelineConfig
from pcompress_ray.hashing import (
    combine_rows,
    minhash_params,
    minhash_signature,
    shingle_hashes,
    simhash,
    token_hashes_bytes,
    token_hashes_text,
    utf8_column_buffer,
)

U64 = np.uint64


def doc_shingles(text: str, k: int) -> np.ndarray:
    """Unique shingle hashes of one document (uint64, sorted)."""
    th = token_hashes_text(text)
    if th.size == 0:
        return np.empty(0, dtype=U64)
    if th.size < k:
        # short doc: treat the whole token sequence as one shingle so tiny
        # exact dups still match (reference: trailing remainder block,
        # rabin/rabin_dedup.c:716-757)
        sh = shingle_hashes(th, max(1, th.size))
    else:
        sh = shingle_hashes(th, k)
    return np.unique(sh)


def exact_jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Jaccard of two sorted-unique uint64 shingle sets."""
    if a.size == 0 and b.size == 0:
        return 1.0
    if a.size == 0 or b.size == 0:
        return 0.0
    inter = np.intersect1d(a, b, assume_unique=True).size
    return inter / (a.size + b.size - inter)


def compute_stop_shingles(pages_ds, cfg: PipelineConfig,
                          sample_docs: int = 1024,
                          df_threshold: float = 0.5) -> np.ndarray:
    """Document-frequency pass: shingles present in ≥ df_threshold of a
    deterministic prefix sample are 'stop shingles' (site template /
    boilerplate chrome). Returns a sorted uint64 array.

    FRAGMENT-LEVEL sample: ``limit(sample_docs)`` reads only the first input
    fragments (Ray Data stops the read early) — a constant-cost pass at any
    corpus size, vs a full scan to select a strided sample. Deterministic:
    input file/block order is fixed by the caller's read, independent of
    parallelism. The prefix-vs-strided tradeoff is acceptable because stop
    shingles only suppress banding (recall aid); verification Jaccard always
    uses the full shingle set.
    """
    from pcompress_ray.stages.extract import Extractor

    # projection pushdown: the sample pass only needs the raw content
    cols = pages_ds.schema().names
    need = ["text_norm"] if "text_norm" in cols \
        else ["html"] if "html" in cols else ["text"]
    sampled = pages_ds.select_columns(need).limit(sample_docs)

    def sample_shingles(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        if "text_norm" not in t.column_names:
            t = Extractor()(t)
        outs = []
        for txt in t["text_norm"].to_pylist():
            outs.append(doc_shingles(txt, cfg.shingle_k).tobytes())
        return pa.table({"sh": pa.array(outs, pa.binary())})

    rows = sampled.map_batches(sample_shingles, batch_format="pyarrow") \
                  .take_all()
    n_sampled = len(rows)
    if n_sampled == 0:
        return np.empty(0, dtype=np.uint64)
    all_sh = np.concatenate([np.frombuffer(r["sh"], dtype=np.uint64)
                             for r in rows])
    if all_sh.size == 0:
        return np.empty(0, dtype=np.uint64)
    vals, cnts = np.unique(all_sh, return_counts=True)
    return vals[cnts >= df_threshold * n_sampled]


def _u64_list_array(mat: np.ndarray) -> pa.Array:
    """(n, k) uint64 matrix → list<uint64> array without a Python row list
    (pa.array(list(mat)) walks n row views; this is two buffer wraps)."""
    nrows, k = mat.shape
    offs = pa.array(np.arange(0, (nrows + 1) * k, k, dtype=np.int32))
    return pa.ListArray.from_arrays(offs, pa.array(np.ascontiguousarray(mat).reshape(-1)))


class SignatureStage:
    """Signature stage: text_norm → minhash, bands, simhash, kmv.

    ``build_signatures`` runs it as a stateless ``map_batches`` task with
    one cached instance per worker process (no actor pool).

    Output columns appended:
      - ``n_tokens:int32``
      - ``n_shingles:int32``
      - ``minhash: fixed-size list<uint64>[num_perm]`` (stored as list)
      - ``band_hashes: list<uint64>[lsh_bands]`` — band b's hash combines
        rows [b*r, (b+1)*r); the groupby key later is (band_id, band_hash)
      - ``simhash: uint64``
      - ``kmv: list<uint64>`` — bottom-k shingle hashes (k = cfg.kmv_k) for
        near-exact Jaccard verification without re-reading text
    """

    def __init__(self, cfg: PipelineConfig | None = None, text_col: str = "text_norm",
                 stop_ref=None):
        self.cfg = cfg or PipelineConfig()
        self.text_col = text_col
        self.a, self.b = minhash_params(self.cfg.num_perm, self.cfg.minhash_seed)
        # stop-shingles (template/boilerplate, high document frequency):
        # EXCLUDED from MinHash/banding so shared chrome doesn't generate
        # O(n²) random band collisions corpus-wide; verification still uses
        # the FULL shingle set (kmv), so pair Jaccard semantics are unchanged.
        if stop_ref is not None:
            import ray

            stop = ray.get(stop_ref)
            self.stop = np.sort(np.asarray(stop, dtype=np.uint64))
        else:
            self.stop = None

    def _drop_stop(self, sh: np.ndarray) -> np.ndarray:
        if self.stop is None or self.stop.size == 0 or sh.size == 0:
            return sh
        idx = np.searchsorted(self.stop, sh)
        idx_c = np.minimum(idx, self.stop.size - 1)
        hit = self.stop[idx_c] == sh
        return sh[~hit]

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        k = cfg.shingle_k
        batch = batch.replace_schema_metadata(None)
        n = len(batch)
        n_tokens = np.zeros(n, dtype=np.int32)
        n_shingles = np.zeros(n, dtype=np.int32)
        sigs = np.full((n, cfg.num_perm), np.iinfo(np.uint64).max, dtype=U64)
        simhashes = np.zeros(n, dtype=U64)
        kmvs: list[bytes] = [b""] * n

        # --- tokenize + hash the whole batch in one vectorized byte pass
        # (zero-copy from the Arrow data buffer; no per-token strings) ---
        buf, doc_offs = utf8_column_buffer(batch[self.text_col])
        th_all, _tok_doc, counts = token_hashes_bytes(buf, doc_offs)
        n_tokens[:] = counts
        total = int(counts.sum())
        if total == 0:
            out = batch.append_column("n_tokens", pa.array(n_tokens, type=pa.int32()))
            out = out.append_column("n_shingles", pa.array(n_shingles, type=pa.int32()))
            out = out.append_column("minhash", _u64_list_array(sigs))
            bands0 = np.zeros((n, cfg.lsh_bands), dtype=U64)
            r0 = cfg.lsh_rows
            for bnd in range(cfg.lsh_bands):
                bands0[:, bnd] = combine_rows(sigs[:, bnd * r0:(bnd + 1) * r0], seed=bnd + 1)
            out = out.append_column("band_hashes", _u64_list_array(bands0))
            out = out.append_column("simhash", pa.array(simhashes, type=pa.uint64()))
            out = out.append_column("kmv", pa.array(kmvs, type=pa.binary()))
            return out
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        ends = np.cumsum(counts)

        # --- global k-shingle pass (windows never cross docs: masked) ---
        if total >= k:
            G = np.zeros(total - k + 1, dtype=U64)
            for j in range(k):
                z = G ^ th_all[j : total - k + 1 + j]
                z = (z + np.uint64(0x9E3779B97F4A7C15))
                z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
                z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
                G = z ^ (z >> np.uint64(31))
        else:
            G = np.zeros(0, dtype=U64)

        # --- simhash: one unpackbits (uint8, small), per-doc slice sums
        # (big int64 cumsum buffers page-fault badly in this sandbox) ---
        bits = np.unpackbits(th_all.view(np.uint8).reshape(-1, 8), axis=1,
                             bitorder="little")  # (total, 64) uint8
        w64 = (np.uint64(1) << np.arange(64, dtype=np.uint64))
        for i in range(n):
            c = int(counts[i])
            if c == 0:
                continue
            votes = bits[starts[i] : ends[i]].sum(axis=0, dtype=np.int64) * 2 - c
            simhashes[i] = ((votes > 0).astype(np.uint64) * w64).sum()

        # --- per-doc unique shingles (C-speed sort per slice) ---
        # full set → kmv / n_shingles; stop-filtered set → MinHash/banding
        sh_per_doc: list[np.ndarray] = []
        for i in range(n):
            c = int(counts[i])
            if c == 0:
                sh_per_doc.append(np.empty(0, dtype=U64))
                continue
            if c >= k:
                sh = np.unique(G[starts[i] : ends[i] - k + 1])
            else:
                # short doc: whole token sequence as one shingle
                sh = np.unique(shingle_hashes(th_all[starts[i]:ends[i]], c))
            n_shingles[i] = sh.size
            kmvs[i] = sh[: cfg.kmv_k].tobytes()
            sh_band = self._drop_stop(sh)
            if sh_band.size * 2 < sh.size or sh_band.size < 4:
                # template-dominated doc (>50% stop shingles): the residual
                # under-represents similarity (two near-identical chrome-heavy
                # pages share template, not residual) — band on the FULL set.
                # Such docs cluster into a few mega buckets, which the
                # salted-window path handles linearly.
                sh_band = sh
            sh_per_doc.append(sh_band)

        # --- minhash: size-sorted doc groups padded to rectangles; plain
        # vectorized min per perm (reduceat is ~10x slower than dense min) ---
        MAXU = np.iinfo(np.uint64).max
        sh_sizes = np.array([s.size for s in sh_per_doc], dtype=np.int64)
        order = np.argsort(sh_sizes, kind="stable")
        order = order[sh_sizes[order] > 0]
        gi = 0
        while gi < order.size:
            # group docs of similar size: rectangle capped at ~4M cells
            L = max(1, int(sh_sizes[order[gi]]))
            m_cap = max(1, 4_000_000 // max(L * 2, 1))
            gj = gi
            Lmax = L
            while gj < order.size and gj - gi < m_cap:
                sz = int(sh_sizes[order[gj]])
                if sz > 2 * L and gj > gi:
                    break  # keep padding waste bounded
                Lmax = sz
                gj += 1
            idxs = order[gi:gj]
            from pcompress_ray.stages.cdc import _scratch

            cells = idxs.size * Lmax
            P = _scratch("sig_P", cells, U64).reshape(idxs.size, Lmax)
            P[:] = 0
            valid = _scratch("sig_valid", cells, bool).reshape(idxs.size, Lmax)
            valid[:] = False
            for row, di in enumerate(idxs):
                s = sh_per_doc[di]
                P[row, : s.size] = s
                valid[row, : s.size] = True
            # one reusable rectangle for all 128 permutations (a fresh v per
            # perm = 128 large allocations per group — first-touch murder
            # in this sandbox)
            v = _scratch("sig_v", cells, U64).reshape(idxs.size, Lmax)
            for p in range(cfg.num_perm):
                np.multiply(P, self.a[p], out=v)
                v += self.b[p]
                sigs[idxs, p] = np.min(v, axis=1, where=valid, initial=MAXU)
            gi = gj
        # band hashes: vectorized across the batch, one combine per band
        bands = np.empty((n, cfg.lsh_bands), dtype=U64)
        r = cfg.lsh_rows
        for bnd in range(cfg.lsh_bands):
            bands[:, bnd] = combine_rows(sigs[:, bnd * r : (bnd + 1) * r],
                                         seed=bnd + 1)
        out = batch.append_column("n_tokens", pa.array(n_tokens, type=pa.int32()))
        out = out.append_column("n_shingles", pa.array(n_shingles, type=pa.int32()))
        out = out.append_column("minhash", _u64_list_array(sigs))
        out = out.append_column("band_hashes", _u64_list_array(bands))
        out = out.append_column("simhash", pa.array(simhashes, type=pa.uint64()))
        out = out.append_column("kmv", pa.array(kmvs, type=pa.binary()))
        return out
