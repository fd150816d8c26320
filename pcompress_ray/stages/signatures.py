"""Signature stage: shingles → MinHash + LSH bands + SimHash + bottom-k sketch.

Document-level reimplementation of the reference's similarity machinery:

- per-block K-min-values sketch (min-heap K-smallest over the block's u64
  words + XXH32, rabin/rabin_dedup.c:684-706, 734-754) and the per-segment
  bottom-k sketch over sorted chunk SHA-256s (rabin/rabin_dedup.c:921-994)
  → 128-permutation MinHash over token shingles plus a bottom-k (KMV)
  sketch of the shingle set for near-exact Jaccard at verify time,
- the ~20 similarity keys per segment probed against the similarity index
  (rabin/rabin_dedup.c:1020-1036) → b×r LSH band hashes emitted as columns,
  later exploded and hash-exchanged by band (``ops.exchange`` replaces
  index.c's shared hashtable).

Whole-batch kernels: ``shingle_sets`` tokenizes and shingles a whole
string column at once, and both ``SignatureStage`` and the
stop-shingle pass (``compute_stop_shingles``) use it, so no document is
tokenized on its own; ``batch_simhash`` is one segment sum per batch.

Stateful-stage shape (SURVEY §2.3 T3, create_dedupe_context analog): the
permutation table is built once in ``__init__`` and reused across batches —
each worker process running ``build_signatures``' scan tasks keeps one
instance per scan.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from pcompress_ray.config import PipelineConfig
from pcompress_ray.hashing import (
    combine_rows,
    minhash_params,
    shingle_hashes,
    splitmix64,
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


def shingle_sets(col, k: int):
    """Tokenize a whole string column with the vectorized byte tokenizer
    (``token_hashes_bytes``; no per-token strings) and return, per
    document, what ``doc_shingles`` returns for its text.

    → (token hashes of every document, in document order; int64 per-doc
    token counts; list of per-doc sorted unique uint64 shingle arrays).
    Shingle windows run over the whole batch at once and never cross a
    document (a window ending past its document's last token is dropped).
    """
    th_all, _, counts = token_hashes_bytes(*utf8_column_buffer(col))
    total = int(counts.sum())
    G = np.zeros(0, dtype=U64)
    if total >= k:
        G = np.zeros(total - k + 1, dtype=U64)
        for j in range(k):
            G = splitmix64(G ^ th_all[j : total - k + 1 + j])
    ends = np.cumsum(counts)
    sets = []
    for c, e in zip(counts.tolist(), ends.tolist()):
        if c == 0:
            sets.append(np.empty(0, dtype=U64))
        elif c >= k:
            sets.append(np.unique(G[e - c : e - k + 1]))
        else:
            # short doc: the whole token sequence is one shingle
            sets.append(shingle_hashes(th_all[e - c : e], c))
    return th_all, counts, sets


# bit j of byte value v, for v in 0..255: (256, 8) int64
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                           bitorder="little").astype(np.int64)


def batch_simhash(th_all: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``hashing.simhash`` of every document of a batch (uint64 per doc, 0
    for a token-free doc) from the concatenated token hashes and per-doc
    token counts, as one batch-wide segment sum of the bit votes: for each
    of the 8 byte positions of a token hash, one ``bincount`` counts every
    (doc, byte value), and the (256, 8) bit table turns those counts into
    per-doc set-bit counts. Small temporaries only: a (tokens, 64) bit
    matrix costs more in first-touch page faults than the votes."""
    n = counts.size
    ones = np.zeros((n, 64), dtype=np.int64)
    if th_all.size:
        doc_base = np.repeat(np.arange(0, n * 256, 256), counts)
        by = th_all.view(np.uint8).reshape(-1, 8)  # little-endian bytes
        for p in range(8):
            hist = np.bincount(doc_base + by[:, p], minlength=n * 256)
            ones[:, 8 * p : 8 * p + 8] = hist.reshape(n, 256) @ _BYTE_BITS
    votes = ones * 2 - counts[:, None]
    return np.packbits(votes > 0, axis=1,
                       bitorder="little").view("<u8").ravel().astype(U64)


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

    One ``ops.block_rounds`` task per sampled block extracts and shingles
    its docs with the batch tokenizer (``shingle_sets``) and returns (docs,
    unique shingles, the number of its docs holding each); the driver sums
    the counts per shingle.
    """
    from pcompress_ray.functions.ops import block_rounds
    from pcompress_ray.stages.extract import Extractor

    # projection pushdown: the sample pass only needs the raw content
    cols = getattr(pages_ds.schema(), "names", None)
    if not cols:  # Ray Data drops the schema of an input filtered to nothing
        return np.empty(0, dtype=np.uint64)
    need = ["text_norm"] if "text_norm" in cols \
        else ["html"] if "html" in cols else ["text"]
    k = cfg.shingle_k

    def doc_counts(t: pa.Table) -> tuple:
        if "text_norm" not in t.column_names:
            t = Extractor()(t)
        sets = shingle_sets(t["text_norm"], k)[2]
        vals, cnts = np.unique(np.concatenate(sets), return_counts=True)
        return len(t), vals, cnts

    parts = block_rounds(pages_ds.select_columns(need).limit(sample_docs),
                         doc_counts)
    n_sampled = sum(p[0] for p in parts)
    if n_sampled == 0:
        return np.empty(0, dtype=np.uint64)
    vals, inv = np.unique(np.concatenate([p[1] for p in parts]),
                          return_inverse=True)
    df = np.bincount(inv, weights=np.concatenate([p[2] for p in parts]),
                     minlength=vals.size)
    return vals[df >= df_threshold * n_sampled]


def _u64_list_array(mat: np.ndarray) -> pa.Array:
    """(n, k) uint64 matrix → list<uint64> array without a Python row list
    (pa.array(list(mat)) walks n row views; this is two buffer wraps)."""
    nrows, k = mat.shape
    offs = pa.array(np.arange(0, (nrows + 1) * k, k, dtype=np.int32))
    return pa.ListArray.from_arrays(offs, pa.array(np.ascontiguousarray(mat).reshape(-1)))


class SignatureStage:
    """Signature stage: text_norm → minhash, bands, simhash, kmv.

    A batch is tokenized and shingled by one call (``shingle_sets``) and
    its SimHashes are one segment sum (``batch_simhash``); only the
    per-doc unique, stop filtering and MinHash packing loop over docs.
    ``build_signatures`` runs it inside its scan tasks, one instance per
    worker process and scan (no actor pool).

    Output columns appended:
      - ``n_tokens:int32``
      - ``n_shingles:int32``
      - ``minhash: fixed-size list<uint64>[num_perm]`` (stored as list)
      - ``band_hashes: list<uint64>[lsh_bands]`` — band b's hash combines
        rows [b*r, (b+1)*r); the exchange key later is (band_id, band_hash)
      - ``simhash: uint64``
      - ``kmv: binary`` — the bottom-k shingle hashes (k = cfg.kmv_k) as
        packed uint64s, for near-exact Jaccard verification without
        re-reading text
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

    def _band_set(self, sh: np.ndarray) -> np.ndarray:
        """The shingles a doc is MinHashed and banded on: its full set minus
        stop shingles, or the full set when that leaves under half of it
        or fewer than 4 — a template-dominated doc's residual
        under-represents similarity (two near-identical chrome-heavy pages
        share template, not residual). Such docs cluster into a few mega
        buckets, which the salted-window path handles linearly."""
        if self.stop is None or self.stop.size == 0 or sh.size == 0:
            return sh
        idx = np.minimum(np.searchsorted(self.stop, sh), self.stop.size - 1)
        band = sh[self.stop[idx] != sh]
        return sh if band.size * 2 < sh.size or band.size < 4 else band

    def _minhash(self, sets: list) -> np.ndarray:
        """(n, num_perm) MinHash signatures; an empty set keeps all-ones.
        Size-sorted doc groups are padded to rectangles and each permutation
        is one dense masked min (reduceat is ~10x slower)."""
        from pcompress_ray.stages.cdc import _scratch

        MAXU = np.iinfo(np.uint64).max
        sigs = np.full((len(sets), self.cfg.num_perm), MAXU, dtype=U64)
        sizes = np.array([s.size for s in sets], dtype=np.int64)
        order = np.argsort(sizes, kind="stable")
        order = order[sizes[order] > 0]
        gi = 0
        while gi < order.size:
            # group docs of similar size: rectangle capped at ~4M cells
            L = max(1, int(sizes[order[gi]]))
            m_cap = max(1, 4_000_000 // max(L * 2, 1))
            gj = gi
            Lmax = L
            while gj < order.size and gj - gi < m_cap:
                sz = int(sizes[order[gj]])
                if sz > 2 * L and gj > gi:
                    break  # keep padding waste bounded
                Lmax = sz
                gj += 1
            idxs = order[gi:gj]
            cells = idxs.size * Lmax
            P = _scratch("sig_P", cells, U64).reshape(idxs.size, Lmax)
            P[:] = 0
            valid = _scratch("sig_valid", cells, bool).reshape(idxs.size, Lmax)
            valid[:] = False
            for row, di in enumerate(idxs):
                s = sets[di]
                P[row, : s.size] = s
                valid[row, : s.size] = True
            # one reusable rectangle for all 128 permutations (a fresh v per
            # perm = 128 large allocations per group — first-touch murder
            # in this sandbox)
            v = _scratch("sig_v", cells, U64).reshape(idxs.size, Lmax)
            for p in range(self.cfg.num_perm):
                np.multiply(P, self.a[p], out=v)
                v += self.b[p]
                sigs[idxs, p] = np.min(v, axis=1, where=valid, initial=MAXU)
            gi = gj
        return sigs

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        batch = batch.replace_schema_metadata(None)
        th_all, counts, sets = shingle_sets(batch[self.text_col],
                                            cfg.shingle_k)
        # full set → kmv / n_shingles; stop-filtered set → MinHash/banding
        sigs = self._minhash([self._band_set(s) for s in sets])
        # band hashes: vectorized across the batch, one combine per band
        bands = np.empty((len(batch), cfg.lsh_bands), dtype=U64)
        r = cfg.lsh_rows
        for bnd in range(cfg.lsh_bands):
            bands[:, bnd] = combine_rows(sigs[:, bnd * r : (bnd + 1) * r],
                                         seed=bnd + 1)
        return pa.Table.from_arrays(
            batch.columns + [
                pa.array(counts.astype(np.int32), pa.int32()),
                pa.array(np.array([s.size for s in sets], np.int32)),
                _u64_list_array(sigs),
                _u64_list_array(bands),
                pa.array(batch_simhash(th_all, counts), pa.uint64()),
                pa.array([s[: cfg.kmv_k].tobytes() for s in sets],
                         pa.binary())],
            names=batch.column_names + ["n_tokens", "n_shingles", "minhash",
                                        "band_hashes", "simhash", "kmv"])
