"""Cluster-assignment audit: per-member Jaccard against the canonical.

The north rule's matching criterion ("cluster assignments matching the
reference at dup-pair recall ≥ 0.99") made inspectable: for the largest
non-singleton clusters, emit every member with its KMV-estimated Jaccard
similarity to the cluster's canonical document. A reviewer reads the
output to see WHY documents clustered — 1.0 means verbatim duplicate,
values near the operating threshold mark borderline members worth
eyeballing, and a LOW value flags a transitive-closure chain join (A~B,
B~C, A≁C) — the classic MinHash-cluster failure mode this report exists
to surface.

Reference analog: the similarity-extent diagnostics pcompress logs per
delta match (rabin_dedup.c DEBUG similarity paths), promoted from log
lines to a queryable table.

Scale shape: cluster sizes via one hash exchange; top-k selection by
distributed sort + limit (k rows to the driver); the k canonical
sketches broadcast once (k × kmv_k × 8 B); members stream through one
broadcast id-filter, one hash join to their sketches, and one vectorized
scoring pass (stages/verify.kmv_jaccard_many). Every filter is an Arrow
mask inside map_batches — no per-row Python anywhere. Mega-clusters are
bounded: when any selected cluster exceeds ``member_cap`` members, ONE
extra hash exchange keeps the canonical plus the ``member_cap - 1``
smallest other urls per cluster (deterministic sample, the mirror
stage's per-key cap discipline), so the report and the join stay
≤ top·member_cap rows while ``n_members`` still states the TRUE cluster
size. Nothing driver-side scales with the corpus — only with ``top``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def cluster_explain(res, top: int = 3, kmv_k: int | None = None,
                    member_cap: int = 256):
    """DedupResult → Table(cluster_id, url, is_canonical, n_members,
    jaccard_vs_canon_e6) for the ``top`` largest non-singleton clusters;
    at most ``member_cap`` member rows per cluster (canonical always
    kept; n_members is the uncapped size)."""
    import pyarrow.compute as pc
    import ray

    from pcompress_ray.config import PipelineConfig
    from pcompress_ray.functions.ops import (exchange, hash_join, run_ranks,
                                             run_starts)
    from pcompress_ray.stages.verify import kmv_jaccard_many

    cfg_k = kmv_k if kmv_k is not None else PipelineConfig().kmv_k

    def sizes(part: pa.Table) -> pa.Table:
        return part.group_by("cluster_id", use_threads=False) \
            .aggregate([([], "count_all")]) \
            .rename_columns(["cluster_id", "n_members"])

    size_ds = exchange([res.clusters.select_columns(["cluster_id"])],
                       [["cluster_id"]], sizes)

    def nonsingleton(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        return t.filter(pc.greater(t["n_members"], 1))

    top_rows = (size_ds.map_batches(nonsingleton, batch_format="pyarrow")
                .sort(["n_members", "cluster_id"], descending=[True, False])
                .limit(top).take_all())
    if not top_rows:
        return pa.table({"cluster_id": pa.array([], pa.int64()),
                         "url": pa.array([], pa.string()),
                         "is_canonical": pa.array([], pa.bool_()),
                         "n_members": pa.array([], pa.int64()),
                         "jaccard_vs_canon_e6": pa.array([], pa.int64())})
    n_by_cluster = {int(r["cluster_id"]): int(r["n_members"])
                    for r in top_rows}
    top_ref = ray.put(np.fromiter(n_by_cluster, np.int64))

    def member_filter(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        keep = np.isin(t["cluster_id"].to_numpy(zero_copy_only=False),
                       ray.get(top_ref))
        return t.filter(pa.array(keep)).select(
            ["url", "cluster_id", "is_canonical"])

    members = res.clusters.map_batches(
        member_filter, batch_format="pyarrow")
    if max(n_by_cluster.values()) > member_cap:
        # deterministic per-cluster sample: canonical first, then the
        # member_cap - 1 smallest urls — one exchange, only paid when a
        # selected cluster is actually oversized
        def cap_members(part: pa.Table) -> pa.Table:
            part = part.sort_by([("cluster_id", "ascending"),
                                 ("is_canonical", "descending"),
                                 ("url", "ascending")])
            return part.filter(
                run_ranks(run_starts(part["cluster_id"])) < member_cap)

        members = exchange([members], [["cluster_id"]], cap_members)
    members = members.materialize()
    with_kmv = hash_join(members,
                         res.signatures.select_columns(["url", "kmv"]),
                         "url", "url", suffix="_s")

    def canon_only(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        return t.filter(t["is_canonical"].combine_chunks().cast(pa.bool_()))

    canon = {}
    for r in with_kmv.map_batches(canon_only,
                                  batch_format="pyarrow").take_all():
        canon[int(r["cluster_id"])] = np.frombuffer(r["kmv"], np.uint64)
    canon_ref = ray.put(canon)
    nb_ref = ray.put(n_by_cluster)

    def explain(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        cn = ray.get(canon_ref)
        nb = ray.get(nb_ref)
        cids = t["cluster_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        kmvs = [np.frombuffer(kv, np.uint64) for kv in t["kmv"].to_pylist()]
        a_lens = np.asarray([v.size for v in kmvs], np.int64)
        canons = [cn[c] for c in cids]
        b_lens = np.asarray([v.size for v in canons], np.int64)
        jac = kmv_jaccard_many(
            np.concatenate(kmvs) if kmvs else np.empty(0, np.uint64),
            a_lens,
            np.concatenate(canons) if canons else np.empty(0, np.uint64),
            b_lens, cfg_k)
        return pa.table({
            "cluster_id": pa.array(cids),
            "url": t["url"],
            "is_canonical": t["is_canonical"].cast(pa.bool_()),
            "n_members": pa.array([nb[c] for c in cids], pa.int64()),
            "jaccard_vs_canon_e6": pa.array(
                np.round(jac * 1e6).astype(np.int64))})

    return with_kmv.map_batches(explain, batch_format="pyarrow")
