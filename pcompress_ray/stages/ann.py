"""Similarity search over embedding columns.

Brute-force cosine top-k as the correctness baseline (blocked numpy matmul
per batch against a broadcast query matrix — ray.put ONCE, read per task),
plus a random-hyperplane LSH-bucketed variant as the scale path (the same
banding shuffle as the text pipeline, reused for vectors).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _matrix(col) -> np.ndarray:
    """list<float> column → (n, d) float64 matrix (zero-copy flatten for
    fixed-dim, null-free columns; row-list fallback otherwise)."""
    import pyarrow.compute as pc

    n = len(col)
    if n == 0:
        return np.empty((0, 0))
    try:
        if isinstance(col, (pa.Array, pa.ChunkedArray)) and col.null_count == 0:
            flat = pc.list_flatten(col).to_numpy(zero_copy_only=False)
            if flat.size % n == 0:
                return flat.reshape(n, flat.size // n).astype(np.float64)
    except Exception:
        pass
    return np.asarray(col.to_pylist(), dtype=np.float64)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def _merge_topk(partials, k: int, score: str):
    """Merge per-batch partial top-k rows (query_id, neighbor_id, score)
    into each query's exact top-k: one query-keyed exchange; per
    partition, self-matches are dropped, rows sort by (query, score desc,
    neighbor — the tie-break) and the first ``k`` of each query stay."""
    import pyarrow.compute as pc

    from pcompress_ray.functions.ops import exchange, group_boundaries

    def topk(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t["neighbor_id"], t["query_id"])).sort_by(
            [("query_id", "ascending"), (score, "descending"),
             ("neighbor_id", "ascending")])
        first, gid, _ = group_boundaries(t["query_id"].to_numpy())
        rank = np.arange(len(t)) - np.flatnonzero(first)[gid]
        return t.filter(pa.array(rank < k)).select(
            ["query_id", "neighbor_id", score])

    return exchange([partials], [["query_id"]], topk)


def brute_force_topk(emb_ds, query_ids: np.ndarray, k: int = 5,
                     id_col: str = "vec_id", emb_col: str = "embedding"):
    """Top-k cosine neighbors for the given query vec_ids (excluding self).

    Streaming: per-batch partial top-k against the broadcast query matrix,
    then one query-keyed exchange merges the partials (``_merge_topk``).
    Never materializes the corpus. Ties broken by neighbor_id
    (deterministic).
    """
    import ray
    from pcompress_ray.functions.ops import semi_join_filter

    qset = set(int(q) for q in query_ids)
    q_tab = semi_join_filter(emb_ds.select_columns([id_col, emb_col]),
                             qset, on=id_col).to_pandas()
    q_tab = q_tab.sort_values(id_col)
    Q = _normalize(np.asarray(q_tab[emb_col].tolist(), dtype=np.float64))
    qids = q_tab[id_col].to_numpy(dtype=np.int64)
    ref = ray.put((qids, Q))

    def partial(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        if not len(t):   # zero-row block: argpartition(kth=-1) would raise
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        qids_, Q_ = ray.get(ref)
        M = _normalize(_matrix(t[emb_col]))
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        S = Q_ @ M.T  # (nq, nb)
        out_q, out_n, out_c = [], [], []
        kk = min(k + 1, S.shape[1])  # +1: self may be in the batch
        for qi in range(S.shape[0]):
            idx = np.argpartition(-S[qi], kk - 1)[:kk]
            out_q.append(np.full(idx.size, qids_[qi], dtype=np.int64))
            out_n.append(ids[idx])
            out_c.append(S[qi][idx])
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            "neighbor_id": pa.array(np.concatenate(out_n)),
            "cosine": pa.array(np.concatenate(out_c), pa.float64()),
        })

    partials = emb_ds.select_columns([id_col, emb_col]).map_batches(
        partial, batch_format="pyarrow")

    return _merge_topk(partials, k, "cosine")


def _block_ids_matrix(t, id_col: str, emb_col: str):
    """One Arrow block → (int64 ids, L2-normalized float64 matrix)."""
    import pyarrow.compute as pc

    if not isinstance(t, pa.Table):
        t = pa.Table.from_pandas(t)
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    col = t[emb_col].combine_chunks()
    lens = np.unique(pc.list_value_length(col).to_numpy(zero_copy_only=False))
    if lens.size == 1:
        flat = np.asarray(col.flatten(), dtype=np.float64)
        M = flat.reshape(len(ids), int(lens[0]))
    else:  # ragged (shouldn't happen for embeddings) — row-wise fallback
        M = np.asarray(col.to_pylist(), dtype=np.float64)
    return ids, _normalize(M)


def cosine_neardup_pairs(emb_ds, threshold: float,
                         id_col: str = "vec_id", emb_col: str = "embedding",
                         block: int = 4096):
    """All pairs with cosine ≥ threshold (embedding near-dup detection).

    Distributed blocked all-pairs: the embeddings Dataset is materialized
    once; per-block Ray tasks convert each block to a normalized matrix IN
    PLASMA (the driver only holds refs — no full-table ``to_pandas``), then
    the O(n²/B²) block-pair task grid reads two matrices zero-copy each and
    scores them in ``block``-row tiles (bounded task memory). Pairs are
    emitted id-normalized as (vec_a, vec_b) = (min, max). Exact; for huge n
    use ``lsh_bucketed_pairs`` instead.
    """
    import ray
    import ray.data as rd

    from pcompress_ray.functions.ops import materialized_block_refs

    ds = emb_ds.select_columns([id_col, emb_col]).materialize()

    prep = ray.remote(_block_ids_matrix)
    preps = [prep.remote(b, id_col, emb_col)
             for b in materialized_block_refs(ds)]
    empty = pa.table({"vec_a": pa.array([], pa.int64()),
                      "vec_b": pa.array([], pa.int64()),
                      "cosine": pa.array([], pa.float64())})
    if not preps:
        return rd.from_arrow(empty)

    @ray.remote
    def block_pair(pa_, pb_, same: bool):
        ids_a, Ma = pa_
        ids_b, Mb = pb_
        outs = []
        for si in range(0, Ma.shape[0], block):
            for sj in range(0, Mb.shape[0], block):
                if same and sj + block <= si:
                    continue  # strictly-lower tile: mirrored pairs only
                S = Ma[si : si + block] @ Mb[sj : sj + block].T
                ai, bj = np.nonzero(S >= threshold)
                c = S[ai, bj]
                ai = ai + si
                bj = bj + sj
                if same:
                    m = ai < bj  # one order per pair, no self-pairs
                    ai, bj, c = ai[m], bj[m], c[m]
                a, b = ids_a[ai], ids_b[bj]
                outs.append((np.minimum(a, b), np.maximum(a, b), c))
        if not outs:
            return empty
        return pa.table({
            "vec_a": pa.array(np.concatenate([o[0] for o in outs])),
            "vec_b": pa.array(np.concatenate([o[1] for o in outs])),
            "cosine": pa.array(np.concatenate([o[2] for o in outs]),
                               pa.float64())})

    refs = [block_pair.remote(preps[i], preps[j], i == j)
            for i in range(len(preps)) for j in range(i, len(preps))]
    return rd.from_arrow_refs(refs)


def _train_centroids(sample: np.ndarray, n_centroids: int, n_iter: int = 10,
                     seed: int = 99) -> np.ndarray:
    """Spherical k-means on a bounded sample (driver-side, Lloyd iterations
    over a ≤few-thousand-row matrix — the IVF 'coarse quantizer' training;
    at 100 TB the sample is still constant-size)."""
    rng = np.random.default_rng(seed)
    sample = _normalize(sample)
    n = sample.shape[0]
    k = min(n_centroids, n)
    C = sample[rng.choice(n, size=k, replace=False)]
    for _ in range(n_iter):
        assign = (sample @ C.T).argmax(axis=1)
        for ci in range(k):
            m = assign == ci
            if m.any():
                C[ci] = sample[m].mean(axis=0)
        C = _normalize(C)
    return C


def ivf_topk(emb_ds, query_ids: np.ndarray, k: int = 5, n_centroids: int = 64,
             nprobe: int = 8, train_sample: int = 4096,
             id_col: str = "vec_id", emb_col: str = "embedding"):
    """IVF (inverted-file) top-k: coarse-quantize vectors to spherical
    k-means centroids, then each query scores ONLY vectors whose centroid is
    among its ``nprobe`` nearest — the classic recall/compute dial
    (nprobe = n_centroids degenerates to brute force).

    Scale shape: centroids are trained once on a constant-size sample and
    broadcast (ray.put once); assignment + masked scoring happen inside one
    streaming map_batches; only per-batch partial top-k rows reach the final
    query-keyed exchange. No full-corpus materialization anywhere.
    """
    import ray

    from pcompress_ray.functions.ops import semi_join_filter

    # bounded training sample + query matrix (both constant-size pulls)
    sample_tab = emb_ds.select_columns([emb_col]).limit(train_sample).to_pandas()
    C = _train_centroids(
        np.asarray(sample_tab[emb_col].tolist(), dtype=np.float64), n_centroids)

    qset = set(int(q) for q in query_ids)
    q_tab = semi_join_filter(emb_ds.select_columns([id_col, emb_col]),
                             qset, on=id_col).to_pandas().sort_values(id_col)
    Q = _normalize(np.asarray(q_tab[emb_col].tolist(), dtype=np.float64))
    qids = q_tab[id_col].to_numpy(dtype=np.int64)
    # nprobe nearest centroids per query → (nq, n_centroids) probe mask
    qc = Q @ C.T
    np_eff = min(nprobe, C.shape[0])
    probe = np.argpartition(-qc, np_eff - 1, axis=1)[:, :np_eff]
    probe_mask = np.zeros((Q.shape[0], C.shape[0]), dtype=bool)
    probe_mask[np.arange(Q.shape[0])[:, None], probe] = True
    ref = ray.put((qids, Q, C, probe_mask))

    def partial(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        if not len(t):   # zero-row block: argpartition(kth=-1) would raise
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        qids_, Q_, C_, mask_ = ray.get(ref)
        M = _normalize(_matrix(t[emb_col]))
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cent = (M @ C_.T).argmax(axis=1)           # (nb,) centroid per vector
        S = Q_ @ M.T                               # (nq, nb)
        S = np.where(mask_[:, cent], S, -np.inf)   # probe filter
        out_q, out_n, out_c = [], [], []
        kk = min(k + 1, S.shape[1])
        for qi in range(S.shape[0]):
            idx = np.argpartition(-S[qi], kk - 1)[:kk]
            idx = idx[np.isfinite(S[qi][idx])]
            out_q.append(np.full(idx.size, qids_[qi], dtype=np.int64))
            out_n.append(ids[idx])
            out_c.append(S[qi][idx])
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            "neighbor_id": pa.array(np.concatenate(out_n)),
            "cosine": pa.array(np.concatenate(out_c), pa.float64()),
        })

    partials = emb_ds.select_columns([id_col, emb_col]).map_batches(
        partial, batch_format="pyarrow")

    return _merge_topk(partials, k, "cosine")


def train_pq_codebooks(sample: np.ndarray, m: int = 8, ks: int = 64,
                       n_iter: int = 12, seed: int = 7,
                       normalize: bool = True) -> np.ndarray:
    """Product-quantization training (Jégou et al. 2011): split the
    (normalized) vector into ``m`` subspaces and run k-means with ``ks``
    centroids independently in each. Driver-side over a constant-size
    sample — same cost model as the IVF coarse quantizer. Returns
    (m, ks, d/m) float64 codebooks. ``normalize=False`` trains on the
    input as-is (the IVF-PQ residual path, where residuals must NOT be
    re-normalized)."""
    rng = np.random.default_rng(seed)
    if normalize:
        sample = _normalize(sample)
    n, d = sample.shape
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    sub = d // m
    ks = min(ks, n)
    books = np.empty((m, ks, sub), np.float64)
    for j in range(m):
        X = sample[:, j * sub : (j + 1) * sub]
        C = X[rng.choice(n, size=ks, replace=False)].copy()
        for _ in range(n_iter):
            # ||x-c||^2 = |x|^2 - 2xc + |c|^2; |x|^2 constant per row
            d2 = (C * C).sum(1)[None, :] - 2.0 * (X @ C.T)
            a = d2.argmin(1)
            for ci in range(ks):
                msk = a == ci
                if msk.any():
                    C[ci] = X[msk].mean(axis=0)
        books[j] = C
    return books


def pq_encode_batch(t: pa.Table, books: np.ndarray, id_col: str = "vec_id",
                    emb_col: str = "embedding") -> pa.Table:
    """Encode a batch to PQ codes: per subspace, nearest-codeword argmin —
    m small matmuls, output one uint8 per subspace (dim*4 bytes → m bytes
    per vector; 32x compression at dim=64, m=8)."""
    t = t.replace_schema_metadata(None)
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    M = _normalize(_matrix(t[emb_col]))
    m, ks, sub = books.shape
    codes = np.empty((M.shape[0], m), np.uint8)
    for j in range(m):
        X = M[:, j * sub : (j + 1) * sub]
        C = books[j]
        d2 = (C * C).sum(1)[None, :] - 2.0 * (X @ C.T)
        codes[:, j] = d2.argmin(1).astype(np.uint8)
    return pa.table({
        "vec_id": pa.array(ids),
        "codes": pa.FixedSizeListArray.from_arrays(
            pa.array(codes.reshape(-1)), m)})


def pq_topk(emb_ds, query_ids: np.ndarray, k: int = 5, m: int = 8,
            ks: int = 64, train_sample: int = 4096,
            id_col: str = "vec_id", emb_col: str = "embedding"):
    """PQ top-k via asymmetric distance computation (ADC): vectors live as
    uint8 codes (m bytes each — the 100-TB memory path where raw f32
    embeddings cannot be rescanned), queries stay full-precision. Per
    query, one (m, ks) lookup table of subspace dot products is built
    once; batch scores are m gathers + a sum, no float matmul against the
    corpus.

    Scale shape: codebooks train once on a constant sample and broadcast;
    ENCODE is one streaming pass producing the 32x-smaller codes dataset
    (persist it at scale — reused by every subsequent query); SCORING
    streams over codes with per-batch partial top-k; only partials reach
    the final query-keyed exchange. Exactness is delegated to the recall
    gate in tests (vs brute force), as for IVF/LSH."""
    import ray

    from pcompress_ray.functions.ops import semi_join_filter

    sample_tab = emb_ds.select_columns([emb_col]).limit(train_sample) \
        .to_pandas()
    books = train_pq_codebooks(
        np.asarray(sample_tab[emb_col].tolist(), dtype=np.float64), m, ks)

    qset = set(int(q) for q in query_ids)
    q_tab = semi_join_filter(emb_ds.select_columns([id_col, emb_col]),
                             qset, on=id_col).to_pandas().sort_values(id_col)
    Q = _normalize(np.asarray(q_tab[emb_col].tolist(), dtype=np.float64))
    qids = q_tab[id_col].to_numpy(dtype=np.int64)
    mm, ks_eff, sub = books.shape
    # (nq, m, ks) ADC tables: qsub_j . C_jc approximates q.x per subspace
    lut = np.einsum("qjs,jcs->qjc", Q.reshape(-1, mm, sub), books)
    books_ref = ray.put(books)
    lut_ref = ray.put((qids, lut))

    def encode(t: pa.Table) -> pa.Table:
        return pq_encode_batch(t, ray.get(books_ref), id_col, emb_col)

    codes_ds = emb_ds.select_columns([id_col, emb_col]).map_batches(
        encode, batch_format="pyarrow")

    def partial(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        if not len(t):   # zero-row block: argpartition(kth=-1) would raise
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "adc_score": pa.array([], pa.float64())})
        qids_, lut_ = ray.get(lut_ref)
        ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        codes = np.asarray(t["codes"].combine_chunks().flatten()) \
            .reshape(len(ids), -1)
        S = np.zeros((lut_.shape[0], len(ids)))
        for j in range(codes.shape[1]):
            S += lut_[:, j, :][:, codes[:, j]]
        out_q, out_n, out_c = [], [], []
        kk = min(k + 1, S.shape[1])
        for qi in range(S.shape[0]):
            idx = np.argpartition(-S[qi], kk - 1)[:kk]
            out_q.append(np.full(idx.size, qids_[qi], dtype=np.int64))
            out_n.append(ids[idx])
            out_c.append(S[qi][idx])
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            "neighbor_id": pa.array(np.concatenate(out_n)),
            "adc_score": pa.array(np.concatenate(out_c), pa.float64())})

    partials = codes_ds.map_batches(partial, batch_format="pyarrow")

    return _merge_topk(partials, k, "adc_score")


def ivfpq_topk(emb_ds, query_ids: np.ndarray, k: int = 5,
               n_centroids: int = 64, nprobe: int = 8, m: int = 8,
               ks: int = 64, train_sample: int = 4096,
               id_col: str = "vec_id", emb_col: str = "embedding"):
    """IVF-PQ top-k — the production ANN index layout (Jégou et al. 2011,
    the FAISS IndexIVFPQ shape): vectors are coarse-quantized to a
    centroid and their RESIDUAL (x - centroid) is product-quantized, so
    each vector persists as (uint16 list id + m uint8 codes); a query
    probes only its ``nprobe`` nearest lists and scores via
    q·x ≈ q·centroid + ADC(residual) — one (m, ks) lookup table per
    (query, subspace), no float matmul against the corpus.

    Scale shape: coarse quantizer + residual codebooks train once on a
    constant-size sample and broadcast; ENCODE is one streaming pass
    emitting the ~32x-smaller codes dataset (persist and reuse at scale);
    SCORING streams over codes with per-batch partial top-k; only
    partials reach the final query-keyed exchange. Recall is gated in
    pytest against brute force, same as IVF / PQ / LSH.
    """
    import ray

    from pcompress_ray.functions.ops import semi_join_filter

    sample_tab = emb_ds.select_columns([emb_col]).limit(train_sample) \
        .to_pandas()
    S0 = _normalize(np.asarray(sample_tab[emb_col].tolist(),
                               dtype=np.float64))
    C = _train_centroids(S0, n_centroids)
    assign0 = (S0 @ C.T).argmax(axis=1)
    books = train_pq_codebooks(S0 - C[assign0], m=m, ks=ks,
                               normalize=False)

    qset = set(int(q) for q in query_ids)
    q_tab = semi_join_filter(emb_ds.select_columns([id_col, emb_col]),
                             qset, on=id_col).to_pandas().sort_values(id_col)
    Q = _normalize(np.asarray(q_tab[emb_col].tolist(), dtype=np.float64))
    qids = q_tab[id_col].to_numpy(dtype=np.int64)
    qc = Q @ C.T                                   # (nq, nc): q . centroid
    np_eff = min(nprobe, C.shape[0])
    probe = np.argpartition(-qc, np_eff - 1, axis=1)[:, :np_eff]
    probe_mask = np.zeros((Q.shape[0], C.shape[0]), dtype=bool)
    probe_mask[np.arange(Q.shape[0])[:, None], probe] = True
    mm, ks_eff, sub = books.shape
    lut = np.einsum("qjs,jcs->qjc", Q.reshape(-1, mm, sub), books)
    enc_ref = ray.put((C, books))
    score_ref = ray.put((qids, qc, probe_mask, lut))

    def encode(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        C_, books_ = ray.get(enc_ref)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        M = _normalize(_matrix(t[emb_col]))
        cent = (M @ C_.T).argmax(axis=1)
        R = M - C_[cent]
        m_, ks_, sub_ = books_.shape
        codes = np.empty((M.shape[0], m_), np.uint8)
        for j in range(m_):
            X = R[:, j * sub_ : (j + 1) * sub_]
            Cb = books_[j]
            d2 = (Cb * Cb).sum(1)[None, :] - 2.0 * (X @ Cb.T)
            codes[:, j] = d2.argmin(1).astype(np.uint8)
        return pa.table({
            "vec_id": pa.array(ids),
            "list_id": pa.array(cent.astype(np.int32)),
            "codes": pa.FixedSizeListArray.from_arrays(
                pa.array(codes.reshape(-1)), m_)})

    codes_ds = emb_ds.select_columns([id_col, emb_col]).map_batches(
        encode, batch_format="pyarrow")

    def partial(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        if not len(t):   # zero-row block: argpartition(kth=-1) would raise
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "adc_score": pa.array([], pa.float64())})
        qids_, qc_, mask_, lut_ = ray.get(score_ref)
        ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cent = t["list_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        codes = np.asarray(t["codes"].combine_chunks().flatten()) \
            .reshape(len(ids), -1)
        S = qc_[:, cent].copy()                    # (nq, nb): q . centroid
        for j in range(codes.shape[1]):
            S += lut_[:, j, :][:, codes[:, j]]
        S = np.where(mask_[:, cent], S, -np.inf)   # probe filter
        out_q, out_n, out_c = [], [], []
        kk = min(k + 1, S.shape[1])
        for qi in range(S.shape[0]):
            idx = np.argpartition(-S[qi], kk - 1)[:kk]
            idx = idx[np.isfinite(S[qi][idx])]
            out_q.append(np.full(idx.size, qids_[qi], dtype=np.int64))
            out_n.append(ids[idx])
            out_c.append(S[qi][idx])
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "adc_score": pa.array([], pa.float64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            "neighbor_id": pa.array(np.concatenate(out_n)),
            "adc_score": pa.array(np.concatenate(out_c), pa.float64())})

    partials = codes_ds.map_batches(partial, batch_format="pyarrow")

    return _merge_topk(partials, k, "adc_score")


class HyperplaneLSH:
    """Actor-pool stage: random-hyperplane signatures → bucket keys.

    State (the projection matrix) is built once per actor — the vector
    analog of the MinHash permutation table (T3).
    """

    def __init__(self, dim: int, n_tables: int = 8, n_bits: int = 12,
                 seed: int = 7, emb_col: str = "embedding"):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((n_tables, n_bits, dim))
        self.n_tables = n_tables
        self.emb_col = emb_col

    def __call__(self, t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        M = _normalize(_matrix(t[self.emb_col]))
        n = M.shape[0]
        weights = (1 << np.arange(self.planes.shape[1], dtype=np.uint64))
        buckets = np.empty((n, self.n_tables), dtype=np.uint64)
        for ti in range(self.n_tables):
            bits = (M @ self.planes[ti].T) > 0  # (n, n_bits)
            buckets[:, ti] = (bits.astype(np.uint64) * weights).sum(axis=1)
        return t.append_column(
            "lsh_buckets", pa.array(list(buckets), pa.list_(pa.uint64())))


def _lsh_row_keys(t: pa.Table, id_col: str):
    """Shared explode-key derivation for BOTH payload modes: one row per
    (vector, table) with a mixed 64-bit bucket key. Kept in ONE place so the
    light/inline pair-set equivalence cannot drift."""
    import pyarrow.compute as pc

    n = len(t)
    n_tab = pc.list_value_length(t["lsh_buckets"]).to_numpy(
        zero_copy_only=False)
    ids = np.repeat(t[id_col].to_numpy(zero_copy_only=False), n_tab)
    tab_ids = np.concatenate([np.arange(c, dtype=np.uint64) for c in n_tab]) \
        if n else np.empty(0, np.uint64)
    buckets = pc.list_flatten(t["lsh_buckets"]).to_numpy(zero_copy_only=False)
    from pcompress_ray.hashing import splitmix64

    bkey = splitmix64(buckets.astype(np.uint64)
                      ^ splitmix64(tab_ids + np.uint64(1)))
    rep = np.repeat(np.arange(n), n_tab)
    return bkey, ids.astype(np.int64), rep, n_tab


def _window_starts(m: int, cap: int):
    """Oversized-bucket 50%-overlapping window starts — shared by both
    payload modes (the window layout IS the candidate-set contract)."""
    step = max(cap // 2, 1)
    return range(0, int(m) - 1, step)


def lsh_bucketed_pairs(emb_ds, threshold: float, dim: int,
                       id_col: str = "vec_id", emb_col: str = "embedding",
                       bucket_cap: int = 512, n_tables: int = 8,
                       n_bits: int = 12, payload: str = "auto",
                       auto_light_bytes: int = 1 << 30):
    """Scale path: candidate pairs from hyperplane-LSH buckets, verified by
    exact cosine — all emitted pairs are true ≥-threshold pairs (the
    approximation only affects recall).

    Two payload modes (identical output, tested pair-for-pair equal):

    ``payload="light"`` (the scale path): the bucket exchange ships only
    (bkey:u64, id:i64, proj:f64) — 24 B/row regardless of dim — and emits
    UNVERIFIED candidate pairs; one second exchange of the 16 B (a, b) pair
    rows dedups across tables and verifies exact cosine against a
    plasma-resident per-block embedding store (the verify.py broadcast-CSR
    pattern: the driver touches only id arrays, matrices stay in the object
    store). Shuffle bytes ∝ n·n_tables·24 + pairs·16, vs inline's
    n·n_tables·(24 + 4·dim) — 11.5× lighter at dim=64, measured (see
    BENCH_LOCAL.md). The store holds only PARTICIPATING ids (those in ≥1
    candidate pair), normalized float64 of the same f32 quantization the
    inline payload uses, so cosines match inline to the last ULP (only the
    dot-product summation order differs).

    ``payload="inline"``: one row per (vector, table) with the embedding
    carried as a compact float32 BINARY payload (list columns crash Ray's
    pandas shuffle concat here; binary is also 2× smaller than float64),
    verified in-bucket. Right when candidate pairs vastly outnumber vectors
    (low threshold / dense corpus) or when the participating-id store would
    not fit in aggregate plasma.

    Both modes process buckets per hash PARTITION (one ``exchange`` — one
    vectorized call per partition, not one Python call per bucket): size-2
    buckets (the common case) batched, larger buckets per-bucket. Oversized
    buckets (> bucket_cap) are NOT truncated: members are ordered by their
    projection on a fixed direction (cosine neighbors have close
    projections) and compared in 50%-overlapping windows of bucket_cap —
    linear pair count, no silent member drop; only projection-distant
    in-bucket pairs are skipped, the same approximation LSH itself makes.

    ``payload="auto"`` (default) picks by estimated inline-exchange size
    (n·n_tables·(24+4·dim) vs ``auto_light_bytes``): small corpora take
    inline (light pays ~3 extra fixed-latency executions — store build +
    second exchange — that dominate under ~10⁶ vectors; measured 16.3 s vs
    5.2 s at 2k vectors, while the bucket exchange itself is 11.5× lighter
    in light mode). At web scale the estimate always crosses the threshold
    and auto = light. The n estimate uses ``emb_ds.count()`` — metadata-only
    on parquet-backed datasets; a computed upstream pays one execution for
    it (pass payload explicitly to skip), and the light path itself
    materializes the embeddings exactly once (sig + store share blocks).

    Calibration: P(pair at cosine c collides in ≥1 table) =
    1-(1-(1-arccos(c)/π)^n_bits)^n_tables. The (12, 8) default targets
    high-cosine near-dup (c ≥ 0.9); low thresholds need fewer bits / more
    tables (e.g. (4, 16) for c ≈ 0.35).
    """
    if payload == "auto":
        est = emb_ds.count() * n_tables * (24 + 4 * dim)
        payload = "light" if est > auto_light_bytes else "inline"
    if payload == "light":
        return _lsh_pairs_light(emb_ds, threshold, dim, id_col, emb_col,
                                bucket_cap, n_tables, n_bits)
    from pcompress_ray.functions.ops import exchange

    sig = emb_ds.select_columns([id_col, emb_col]).map_batches(
        HyperplaneLSH,
        fn_constructor_kwargs={"dim": dim, "emb_col": emb_col,
                               "n_tables": n_tables, "n_bits": n_bits},
        batch_format="pyarrow", concurrency=(1, 4))

    def explode(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        n = len(t)
        bkey, ids, rep, _ = _lsh_row_keys(t, id_col)
        M = _matrix(t[emb_col]).astype(np.float32)
        emb_bin = [M[i].tobytes() for i in range(n)]
        return pa.table({
            "bkey": pa.array(bkey),
            id_col: pa.array(ids),
            "emb_f32": pa.array([emb_bin[i] for i in rep], pa.binary()),
        })

    proj_dir = np.random.default_rng(12345).standard_normal(dim)

    def emit(part: pa.Table) -> pa.Table:
        from pcompress_ray.functions.ops import group_boundaries

        part = part.group_by(["bkey", id_col], use_threads=False) \
            .aggregate([("emb_f32", "first")]) \
            .sort_by([("bkey", "ascending"), (id_col, "ascending")])
        keys = part["bkey"].to_numpy().astype(np.uint64)
        ids = part[id_col].to_numpy().astype(np.int64)
        E = _normalize(np.frombuffer(
            b"".join(part["emb_f32_first"].to_pylist()),
            dtype=np.float32).astype(np.float64).reshape(len(part), dim))
        first, _, sizes = group_boundaries(keys)
        starts = np.flatnonzero(first)
        out_a, out_b, out_c = [], [], []
        # size-2 buckets: one batched row-wise dot product
        s2 = starts[sizes == 2]
        if s2.size:
            cs = (E[s2] * E[s2 + 1]).sum(axis=1)
            ok = cs >= threshold
            out_a.append(ids[s2][ok]); out_b.append(ids[s2 + 1][ok])
            out_c.append(cs[ok])

        def bucket_pairs(seg_ids, S):
            ai, bi = np.nonzero(np.triu(S >= threshold, k=1))
            out_a.append(seg_ids[ai]); out_b.append(seg_ids[bi])
            out_c.append(S[ai, bi])

        for s_idx, m in zip(starts[sizes >= 3], sizes[sizes >= 3]):
            seg = slice(s_idx, s_idx + int(m))
            seg_ids, Eseg = ids[seg], E[seg]
            if m <= bucket_cap:
                bucket_pairs(seg_ids, Eseg @ Eseg.T)
            else:
                # projection-ordered overlapping windows (no member drop)
                order = np.argsort(Eseg @ proj_dir, kind="stable")
                seg_ids, Eseg = seg_ids[order], Eseg[order]
                for w0 in _window_starts(m, bucket_cap):
                    wi = slice(w0, min(w0 + bucket_cap, int(m)))
                    bucket_pairs(seg_ids[wi], Eseg[wi] @ Eseg[wi].T)
        a = np.concatenate([np.empty(0, np.int64)] + out_a)
        b = np.concatenate([np.empty(0, np.int64)] + out_b)
        return pa.table({"vec_a": np.minimum(a, b), "vec_b": np.maximum(a, b),
                         "cosine": np.concatenate([np.empty(0)] + out_c)}) \
            .group_by(["vec_a", "vec_b"], use_threads=False) \
            .aggregate([("cosine", "first")]) \
            .rename_columns(["vec_a", "vec_b", "cosine"])

    pairs = exchange([sig.map_batches(explode, batch_format="pyarrow")],
                     [["bkey"]], emit)

    # dedup across tables: per-partition max
    def dedup(part: pa.Table) -> pa.Table:
        return part.group_by(["vec_a", "vec_b"], use_threads=False) \
            .aggregate([("cosine", "max")]) \
            .rename_columns(["vec_a", "vec_b", "cosine"])

    return exchange([pairs], [["vec_a", "vec_b"]], dedup)


def _extract_emb_block(block, sorted_ids: np.ndarray,
                       id_col: str, emb_col: str):
    """One embeddings block → (kept ids, normalized f64-of-f32 matrix).

    Runs as a Ray task (num_returns=2): the matrix is returned as its own
    object so it stays resident in plasma — the driver only ever touches the
    id arrays. The f32 round-trip matches the inline payload quantization,
    so light/inline cosines are bit-identical.
    """
    t = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    if sorted_ids.size:
        ix = np.minimum(np.searchsorted(sorted_ids, ids), sorted_ids.size - 1)
        keep = sorted_ids[ix] == ids
    else:
        keep = np.zeros(ids.size, dtype=bool)
    if not keep.any():
        return np.empty(0, np.int64), np.empty((0, 0))
    M = _matrix(t.filter(pa.array(keep))[emb_col]).astype(np.float32)
    return ids[keep], _normalize(M.astype(np.float64))


def _lsh_pairs_light(emb_ds, threshold: float, dim: int, id_col: str,
                     emb_col: str, bucket_cap: int, n_tables: int,
                     n_bits: int):
    """payload="light" body of lsh_bucketed_pairs — see its docstring."""
    import ray
    import ray.data as rd

    from pcompress_ray.functions.ops import (exchange, group_boundaries,
                                             materialized_block_refs)
    from pcompress_ray.stages.verify import _participating_ids

    # ONE materialization: the signature stage streams from these blocks and
    # the verify store extracts from the same refs — a computed (non-parquet)
    # upstream executes exactly once
    emb_mat = emb_ds.select_columns([id_col, emb_col]).materialize()

    sig = emb_mat.map_batches(
        HyperplaneLSH,
        fn_constructor_kwargs={"dim": dim, "emb_col": emb_col,
                               "n_tables": n_tables, "n_bits": n_bits},
        batch_format="pyarrow", concurrency=(1, 4))

    proj_dir = np.random.default_rng(12345).standard_normal(dim)

    def explode_light(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        n = len(t)
        bkey, ids, _, n_tab = _lsh_row_keys(t, id_col)
        # same f32 quantization + f64 normalize as the inline payload, so
        # window ordering (and later cosine) matches inline bit-for-bit
        # (proj stays f64 for that reason — 24 B/row, still dim-independent)
        E = _normalize(_matrix(t[emb_col]).astype(np.float32)
                       .astype(np.float64))
        proj = np.repeat(E @ proj_dir, n_tab) if n else np.empty(0)
        return pa.table({
            "bkey": pa.array(bkey),
            "vid": pa.array(ids),
            "proj": pa.array(proj, pa.float64()),
        })

    def emit_candidates(part: pa.Table) -> pa.Table:
        part = part.group_by(["bkey", "vid"], use_threads=False) \
            .aggregate([("proj", "first")]) \
            .sort_by([("bkey", "ascending"), ("vid", "ascending")])
        keys = part["bkey"].to_numpy().astype(np.uint64)
        ids = part["vid"].to_numpy().astype(np.int64)
        proj = part["proj_first"].to_numpy().astype(np.float64)
        first, _, sizes = group_boundaries(keys)
        starts = np.flatnonzero(first)
        out_a, out_b = [], []
        s2 = starts[sizes == 2]
        if s2.size:
            out_a.append(ids[s2]); out_b.append(ids[s2 + 1])
        for s_idx, m in zip(starts[sizes >= 3], sizes[sizes >= 3]):
            seg = slice(s_idx, s_idx + int(m))
            seg_ids, seg_proj = ids[seg], proj[seg]
            if m <= bucket_cap:
                ai, bi = np.triu_indices(int(m), k=1)
                out_a.append(seg_ids[ai]); out_b.append(seg_ids[bi])
            else:
                order = np.argsort(seg_proj, kind="stable")
                seg_ids = seg_ids[order]
                for w0 in _window_starts(m, bucket_cap):
                    wi = seg_ids[w0 : w0 + bucket_cap]
                    ai, bi = np.triu_indices(wi.size, k=1)
                    out_a.append(wi[ai]); out_b.append(wi[bi])
        a = np.concatenate([np.empty(0, np.int64)] + out_a)
        b = np.concatenate([np.empty(0, np.int64)] + out_b)
        return pa.table({"a": np.minimum(a, b), "b": np.maximum(a, b)}) \
            .group_by(["a", "b"], use_threads=False).aggregate([])

    cand = exchange([sig.map_batches(explode_light, batch_format="pyarrow")],
                    [["bkey"]], emit_candidates).materialize()

    empty = pa.table({"vec_a": pa.array([], pa.int64()),
                      "vec_b": pa.array([], pa.int64()),
                      "cosine": pa.array([], pa.float64())})
    ids = _participating_ids(cand)
    if ids.size == 0:
        return rd.from_arrow(empty)

    # plasma-resident embedding store over participating ids only
    ids_ref = ray.put(ids)
    extract = ray.remote(num_returns=2)(_extract_emb_block)
    parts = [extract.remote(b, ids_ref, id_col, emb_col)
             for b in materialized_block_refs(emb_mat)]
    kept = ray.get([p[0] for p in parts])
    ranks_parts, blk_parts, row_parts, mat_refs = [], [], [], []
    for bi, r in enumerate(kept):
        if r.size == 0:
            continue
        ranks_parts.append(r)
        blk_parts.append(np.full(r.size, len(mat_refs), dtype=np.int32))
        row_parts.append(np.arange(r.size, dtype=np.int64))
        mat_refs.append(parts[bi][1])
    ranks_u = np.concatenate(ranks_parts)
    order = np.argsort(ranks_u, kind="stable")
    index_ref = ray.put((ranks_u[order],
                         np.concatenate(blk_parts)[order],
                         np.concatenate(row_parts)[order]))

    def verify(part: pa.Table) -> pa.Table:
        # cross-table dedup
        part = part.group_by(["a", "b"], use_threads=False).aggregate([])
        ranks_, blk_, row_ = ray.get(index_ref)   # zero-copy plasma
        mats = ray.get(mat_refs)                  # zero-copy per block

        def gather(side: np.ndarray) -> np.ndarray:
            ix = np.searchsorted(ranks_, side)
            blk, row = blk_[ix], row_[ix]
            E = np.empty((side.size, dim))
            for bno in np.unique(blk):
                m = blk == bno
                E[m] = mats[bno][row[m]]
            return E

        a = part["a"].to_numpy().astype(np.int64)
        b = part["b"].to_numpy().astype(np.int64)
        cos = (gather(a) * gather(b)).sum(axis=1)
        keep = cos >= threshold
        return pa.table({"vec_a": a[keep], "vec_b": b[keep],
                         "cosine": cos[keep]})

    return exchange([cand], [["a", "b"]], verify)


def kcenter_select(emb_ds, k: int = 8, seed_id: int | None = None,
                   id_col: str = "vec_id", emb_col: str = "embedding"):
    """Greedy k-center (farthest-point) diversity selection — the data-
    pruning counterpart of SemDeDup: instead of dropping near-duplicates,
    pick the k embeddings that best COVER the corpus (Gonzalez 1985
    2-approximation: repeatedly take the point farthest in cosine distance
    from the chosen set). Used to select maximally-diverse exemplars /
    eval probes from a 100-TB embedding table.

    Deterministic: the seed is the smallest vec_id (or ``seed_id``), and
    distance ties break toward the smaller vec_id, so output is a pure
    function of the input at any parallelism.

    Scale shape: k streaming passes; each pass broadcasts the (<= k, d)
    chosen matrix via ray.put, every batch emits ONE (local farthest)
    candidate row, and the driver reduces the tiny candidate table. No
    full-table pull, no shuffle; cost k x one-scan, with k small by
    construction.

    Returns a pandas DataFrame (vec_id, order, min_cos_to_prev) — k rows,
    driver-sized by definition.
    """
    import pandas as pd
    import pyarrow.compute as pc
    import ray

    from pcompress_ray.functions.ops import block_rounds

    ds = emb_ds.select_columns([id_col, emb_col]).materialize()
    if seed_id is None:
        seed_id = min(block_rounds(ds, lambda t: pc.min(t[id_col]).as_py()))

    def fetch_vec(target: int) -> np.ndarray:
        t = ds.filter(expr=f"{id_col} == {target}").take(1)
        return _normalize(np.asarray([t[0][emb_col]], np.float64))[0]

    chosen_ids = [int(seed_id)]
    chosen = [fetch_vec(seed_id)]
    out_rows = [{"vec_id": int(seed_id), "order": 0,
                 "min_cos_to_prev": 1.0}]
    for step in range(1, k):
        C = np.stack(chosen)
        ref = ray.put((C, np.asarray(sorted(chosen_ids), np.int64)))

        def local_far(t: pa.Table) -> pa.Table:
            C_, taken = ray.get(ref)
            ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            M = _normalize(_matrix(t[emb_col]))
            # exclude already-chosen ids BATCH-SIDE: the batch's farthest
            # unchosen point must surface even when a chosen one is nearer
            pos = np.searchsorted(taken, ids)
            pos = np.minimum(pos, taken.size - 1) if taken.size else pos
            free = taken[pos] != ids if taken.size else np.ones(ids.size, bool)
            ids, M = ids[free], M[free]
            if not ids.size:
                return pa.table({id_col: pa.array([], pa.int64()),
                                 "near": pa.array([], pa.float64())})
            near = (M @ C_.T).max(axis=1)     # cosine to NEAREST center
            # farthest = smallest max-cosine; tie -> smaller id
            i = np.lexsort((ids, near))[0]
            return pa.table({id_col: pa.array([ids[i]]),
                             "near": pa.array([float(near[i])])})

        cand = ds.map_batches(local_far, batch_format="pyarrow").to_pandas()
        # chosen ids are excluded batch-side, so an empty candidate table
        # means k >= corpus size (ray's to_pandas drops columns at 0 rows,
        # so the length test must come before any column access)
        if not len(cand):
            break
        cand = cand.sort_values(["near", id_col]).reset_index(drop=True)
        best_id = int(cand[id_col].iloc[0])
        best_near = float(cand["near"].iloc[0])
        chosen_ids.append(best_id)
        chosen.append(fetch_vec(best_id))
        out_rows.append({"vec_id": best_id, "order": step,
                         "min_cos_to_prev": best_near})
    return pd.DataFrame(out_rows)


def kcenter_select_sampled(emb_ds, k: int = 64, sample_size: int = 8192,
                           seed_id: int | None = None,
                           id_col: str = "vec_id",
                           emb_col: str = "embedding"):
    """ONE-SCAN approximate k-center for large k (the scale path beside
    exact ``kcenter_select``, whose cost is k full corpus scans — right
    for k<=64 diversity probes, wrong for k=10^4 exemplar selection).

    A deterministic hash sample (splitmix64(id) threshold, ~sample_size
    rows regardless of partitioning) is pulled to the driver — BOUNDED by
    construction — and exact Gonzalez greedy runs in-memory on it with the
    same seed and (distance, id) tie-break as the exact operator, so when
    sample_size >= corpus size the two outputs are identical. Gonzalez's
    2-approximation then holds w.r.t. the sampled set; coverage of the
    full corpus degrades gracefully with the sampling rate (standard
    coreset practice).

    Returns (vec_id, order, min_cos_to_prev) — min(k, sample) rows.
    """
    import pandas as pd
    import pyarrow.compute as pc

    from pcompress_ray.functions.ops import block_rounds
    from pcompress_ray.hashing import splitmix64

    ds = emb_ds.select_columns([id_col, emb_col]).materialize()
    n = ds.count()
    empty = pd.DataFrame({"vec_id": pd.Series(dtype=np.int64),
                          "order": pd.Series(dtype=np.int64),
                          "min_cos_to_prev": pd.Series(dtype=np.float64)})
    if n == 0:
        return empty
    if seed_id is None:
        seed_id = min(block_rounds(ds, lambda t: pc.min(t[id_col]).as_py()))
    # float->int may round UP to 2^64 at frac=1.0; clamp before uint64
    thr = np.uint64(min(int(min(1.0, sample_size / n) * ((1 << 64) - 1)),
                        (1 << 64) - 1))

    def pick(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = (splitmix64(ids.astype(np.uint64)) <= thr) | (ids == seed_id)
        return t.filter(pa.array(keep))

    samp = ds.map_batches(pick, batch_format="pyarrow").to_pandas()
    ids = samp[id_col].to_numpy(np.int64)
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    M = _normalize(np.asarray(samp[emb_col].tolist(),
                              dtype=np.float64))[order]
    m = ids.size
    seed_pos = int(np.searchsorted(ids, seed_id))
    taken = np.zeros(m, bool)
    taken[seed_pos] = True
    near = M @ M[seed_pos]                    # cosine to the nearest center
    rows = [{"vec_id": int(seed_id), "order": 0, "min_cos_to_prev": 1.0}]
    for step in range(1, min(k, m)):
        cand = np.where(taken, np.inf, near)
        # farthest = smallest max-cosine; tie -> smaller id (ids sorted,
        # argmin returns the first == smallest id among ties)
        i = int(np.argmin(cand))
        rows.append({"vec_id": int(ids[i]), "order": step,
                     "min_cos_to_prev": float(near[i])})
        taken[i] = True
        np.maximum(near, M @ M[i], out=near)
    return pd.DataFrame(rows)
