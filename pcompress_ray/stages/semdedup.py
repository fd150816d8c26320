"""SemDeDup — semantic deduplication over an embedding column.

Abbas et al. 2023 ("SemDeDup: Data-efficient learning at web-scale through
semantic deduplication"): k-means the embeddings, then within each cluster
drop every point whose cosine similarity to an already-kept point is >= eps,
keeping points in order of DECREASING distance to the cluster centroid (the
paper's "keep the outliers" rule — points far from the centroid carry more
information). This is the embedding-space analog of pcompress's
similarity-index lookup (rabin/global dedup: sketch -> bucket -> verify,
rabin/rabin_dedup.c:1606-1617): k-means plays the bucket index, the
within-cluster cosine scan plays the verify step.

Ray-Data shape
--------------
1. ``kmeans_fit`` (stages/kmeans.py): no-shuffle Lloyd iterations —
   fixed-size per-block partials, rank-invariant init.
2. ONE assignment pass fused with the payload (vec_id, cluster, embedding).
3. ONE cluster-keyed ``exchange`` (functions/ops.py) — the only shuffle,
   moving each embedding exactly once; each partition holds whole
   clusters.
4. Per-cluster greedy scan, fully deterministic: members ordered by
   (-dist_to_centroid, vec_id); a member is a duplicate iff its max cosine
   against the kept set is >= eps (dup_of = the kept member attaining that
   max, smallest vec_id on ties).

Partitioning assumption (documented per the custom-operator contract): one
CLUSTER fits in one worker. At web scale k grows with n (k ~ n/5000 in the
paper), so expected cluster size is constant; a pathological hot cluster
should be split by a second-level k-means on its members (same operator,
recursively) — salting is NOT applicable because the semantics need every
member of a cluster in one place.

Determinism: kmeans_fit is rank/blocking-invariant (pinned in
tests/test_kmeans.py); the greedy order is a total order (float dist ties
broken by vec_id); so keep/dup_of is identical across block layouts —
asserted against the single-machine numpy oracle in tests/test_semdedup.py.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from pcompress_ray.functions.ops import exchange, group_boundaries
from pcompress_ray.stages.ann import _matrix
from pcompress_ray.stages.kmeans import kmeans_fit, kmeans_reference


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0.0] = 1.0
    return m / n


def _greedy_keep(ids: np.ndarray, mat: np.ndarray, cent: np.ndarray,
                 eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic within-cluster scan. ids int64, mat float64 (raw,
    un-normalized), cent float64[dim]. Returns (keep bool, dup_of int64
    with -1 for kept rows)."""
    d = ((mat - cent[None, :]) ** 2).sum(1)
    order = np.lexsort((ids, -d))  # farthest-from-centroid first
    unit = _normalize(mat)
    keep = np.zeros(ids.size, dtype=bool)
    dup_of = np.full(ids.size, -1, dtype=np.int64)
    kept_rows: list[int] = []
    for i in order:
        if not kept_rows:
            keep[i] = True
            kept_rows.append(i)
            continue
        sims = unit[kept_rows] @ unit[i]
        best = float(sims.max())
        if best >= eps:
            # smallest vec_id among argmax ties
            at = np.flatnonzero(sims == sims.max())
            dup_of[i] = int(ids[np.array(kept_rows)[at]].min())
        else:
            keep[i] = True
            kept_rows.append(i)
    return keep, dup_of


def semdedup(emb_ds, k: int = 8, eps: float = 0.95, n_iter: int = 5,
             id_col: str = "vec_id", emb_col: str = "embedding",
             seed: int = 0):
    """(vec_id, cluster, keep, dup_of) Dataset — see module docstring."""
    cents = kmeans_fit(emb_ds, k=k, n_iter=n_iter, id_col=id_col,
                       emb_col=emb_col, seed=seed)

    def assign(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        m = _matrix(t[emb_col]).astype(np.float64)
        d = (m * m).sum(1)[:, None] - 2.0 * (m @ cents.T) \
            + (cents * cents).sum(1)[None, :]
        return pa.table({
            id_col: t[id_col].cast(pa.int64()),
            "cluster": pa.array(np.argmin(d, axis=1).astype(np.int64)),
            emb_col: t[emb_col],
        })

    assigned = emb_ds.map_batches(assign, batch_format="pyarrow")

    def dedup_part(t: pa.Table) -> pa.Table:
        t = t.sort_by("cluster")
        ids = np.asarray(t[id_col].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        cl = t["cluster"].to_numpy(zero_copy_only=False).astype(np.int64)
        mat = _matrix(t[emb_col]).astype(np.float64)
        keep = np.zeros(ids.size, dtype=bool)
        dup_of = np.full(ids.size, -1, dtype=np.int64)
        first, _, sizes = group_boundaries(cl)
        for s, n in zip(np.flatnonzero(first), sizes):
            keep[s:s + n], dup_of[s:s + n] = _greedy_keep(
                ids[s:s + n], mat[s:s + n], cents[cl[s]], eps)
        return pa.table({
            id_col: pa.array(ids),
            "cluster": pa.array(cl),
            "keep": pa.array(keep.astype(np.int64)),
            "dup_of": pa.array(dup_of),
        })

    return exchange([assigned], [["cluster"]], dedup_part)


def semdedup_reference(ids: np.ndarray, mat: np.ndarray, init: np.ndarray,
                       eps: float, n_iter: int):
    """Single-machine numpy oracle with IDENTICAL rules (kmeans_reference
    for the clustering, _greedy_keep per cluster) — pins the distributed
    operator exactly in tests/test_semdedup.py."""
    cents, asg = kmeans_reference(mat.astype(np.float64), init, n_iter)
    keep = np.zeros(ids.size, dtype=bool)
    dup_of = np.full(ids.size, -1, dtype=np.int64)
    for j in range(cents.shape[0]):
        sel = np.flatnonzero(asg == j)
        if sel.size == 0:
            continue
        kj, dj = _greedy_keep(ids[sel], mat[sel].astype(np.float64),
                              cents[j], eps)
        keep[sel] = kj
        dup_of[sel] = dj
    return asg.astype(np.int64), keep, dup_of
