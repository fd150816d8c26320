"""Integration tests (FIXTURES t1/t2): full pipeline on the planted-duplicate
corpus vs the brute-force oracle — recall/precision/cluster equality — plus
parallelism-invariance and checkpoint resume."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from pcompress_ray.config import PipelineConfig

N_DOCS = 200
SEED = 42


@pytest.fixture(scope="module")
def corpus(ray_session):
    import ray.data as rd

    import pcompress_ray

    pcompress_ray.register_for_ray()
    from pcompress_ray.sources.corpus import make_corpus

    pages, opairs, oclusters = make_corpus(N_DOCS, SEED)
    pages = pages.append_column(
        "rank", pa.array(np.arange(len(pages["url"])), pa.int64()))
    return pages, opairs.to_pandas(), oclusters.to_pandas()


@pytest.fixture(scope="module")
def result(corpus, ray_session):
    import ray.data as rd

    from pcompress_ray.pipelines.dedup import dedup_pipeline

    pages, _, _ = corpus
    ds = rd.from_arrow(pages).repartition(8)
    res = dedup_pipeline(ds, PipelineConfig())
    return {
        "clusters": res.clusters.to_pandas().sort_values("rank").reset_index(drop=True),
        "edges": res.edges.to_pandas(),
        "pairs": res.pairs.to_pandas(),
    }


def test_cluster_assignment_matches_oracle(corpus, result):
    _, _, ocl = corpus
    merged = result["clusters"].merge(ocl, on="url", suffixes=("_got", "_want"))
    assert len(merged) == N_DOCS
    assert (merged.cluster_id_got == merged.cluster_id_want).all()
    assert (merged.is_canonical_got == merged.is_canonical_want).all()


def test_pair_recall_geq_99(corpus, result):
    cfg = PipelineConfig()
    _, op, _ = corpus
    got = set(zip(result["edges"].a.astype(int), result["edges"].b.astype(int)))
    gate = op[(op.jaccard >= cfg.jaccard_threshold) | (op.kind == "exact")]
    found = sum(((min(a, b), max(a, b)) in got)
                for a, b in zip(gate.rank_a, gate.rank_b))
    assert found / len(gate) >= 0.99, (found, len(gate))


def test_substring_pairs_found(corpus, result):
    _, op, _ = corpus
    got = set(zip(result["edges"].a.astype(int), result["edges"].b.astype(int)))
    sub = op[op.kind == "substring"]
    found = sum(((min(a, b), max(a, b)) in got)
                for a, b in zip(sub.rank_a, sub.rank_b))
    assert found / len(sub) >= 0.95, (found, len(sub))


def test_negative_pairs_rejected(corpus, result):
    """Planted below-threshold pairs must NOT appear as near edges
    (precision; boilerplate-only rows are the stress)."""
    cfg = PipelineConfig()
    _, op, _ = corpus
    near_edges = result["edges"][result["edges"].kind == "near"]
    got = set(zip(near_edges.a.astype(int), near_edges.b.astype(int)))
    neg = op[(op.kind == "near") & (op.jaccard < cfg.jaccard_threshold - 0.05)]
    false_hits = sum(((min(a, b), max(a, b)) in got)
                     for a, b in zip(neg.rank_a, neg.rank_b))
    assert false_hits == 0


def test_parallelism_invariance(corpus, ray_session):
    """Identical cluster table when the input is split 2 vs 16 ways — the
    north rule's two-cluster-size determinism check."""
    import ray.data as rd

    from pcompress_ray.pipelines.dedup import dedup_pipeline

    pages, _, _ = corpus
    outs = []
    for nblocks in (2, 16):
        ds = rd.from_arrow(pages).repartition(nblocks)
        res = dedup_pipeline(ds, PipelineConfig(), compute_pairs=False)
        outs.append(res.clusters.to_pandas().sort_values("rank")
                    .reset_index(drop=True)[["url", "cluster_id", "is_canonical"]])
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_checkpoint_resume(corpus, ray_session, tmp_path):
    """Kill-and-resume equality: run stages to the edge checkpoint, start
    over with the same checkpoint dir, assert identical final clusters and
    that completed stages were NOT recomputed (manifest untouched)."""
    import json
    import os

    import ray.data as rd

    from pcompress_ray.pipelines.dedup import dedup_pipeline

    pages, _, _ = corpus
    cfg = PipelineConfig()
    ckdir = str(tmp_path / "ck")
    ds = rd.from_arrow(pages).repartition(4)
    res1 = dedup_pipeline(ds, cfg, checkpoint_dir=ckdir)
    cl1 = res1.clusters.to_pandas().sort_values("rank").reset_index(drop=True)

    manifest = os.path.join(ckdir, cfg.config_hash(), "manifest.json")
    with open(manifest) as f:
        m = json.load(f)
    assert m["signatures"]["complete"] and m["edges"]["complete"]
    sig_dir = os.path.join(ckdir, cfg.config_hash(), "signatures")
    sig_mtime = os.path.getmtime(sig_dir)

    # "resume": fresh pipeline object, same checkpoint dir — must skip
    # signatures/edges (their parquet untouched) and reproduce clusters
    res2 = dedup_pipeline(rd.from_arrow(pages).repartition(4), cfg,
                          checkpoint_dir=ckdir)
    cl2 = res2.clusters.to_pandas().sort_values("rank").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        cl1[["url", "cluster_id", "is_canonical"]],
        cl2[["url", "cluster_id", "is_canonical"]])
    assert os.path.getmtime(sig_dir) == sig_mtime  # not recomputed


def test_extraction_byte_identical(corpus, ray_session):
    """Per-url extracted text hash is stable across runs and block splits."""
    import ray.data as rd

    from pcompress_ray.stages.exact import add_text_sha
    from pcompress_ray.stages.extract import Extractor

    pages, _, _ = corpus
    outs = []
    for nblocks in (3, 11):
        ds = rd.from_arrow(pages).repartition(nblocks)
        out = (ds.map_batches(Extractor(), batch_format="pyarrow")
               .map_batches(add_text_sha, batch_format="pyarrow")
               .select_columns(["url", "text_sha256"]).to_pandas()
               .sort_values("url").reset_index(drop=True))
        outs.append(out)
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_metrics_and_outputs(corpus, ray_session, tmp_path):
    import json
    import os

    import ray.data as rd

    from pcompress_ray.pipelines.dedup import dedup_pipeline, write_outputs

    pages, _, _ = corpus
    res = dedup_pipeline(rd.from_arrow(pages).repartition(4), PipelineConfig())
    m = res.metrics
    assert m["n_docs"] == N_DOCS
    assert m["n_edges"] > 0 and m["n_candidates"] > 0
    assert set(m["edges_by_kind"]) == {"exact", "near", "substring"}
    out = write_outputs(res, str(tmp_path / "out"))
    assert os.path.isdir(os.path.join(out, "clusters"))
    assert os.path.isdir(os.path.join(out, "dup_pairs"))
    with open(os.path.join(out, "metrics.json")) as f:
        assert json.load(f)["n_docs"] == N_DOCS
    back = rd.read_parquet(os.path.join(out, "clusters")).count()
    assert back == N_DOCS
    # per-partition lineage (S8): every materialized stage covered, row
    # counters consistent with the stage tables, written to outputs
    lin = res.lineage.to_pandas()
    assert set(lin.stage) == {"signatures", "edges", "clusters"}
    sums = lin.groupby("stage").n_rows.sum()
    assert sums["signatures"] == N_DOCS
    assert sums["clusters"] == N_DOCS
    assert sums["edges"] == m["n_edges"]
    assert (lin.config_hash == PipelineConfig().config_hash()).all()
    assert os.path.exists(os.path.join(out, "lineage.parquet"))


def test_locality_sort_invariance(corpus, ray_session):
    """cfg.locality_sort re-orders blocks by registered domain but must not
    change the cluster table (execution knob, not semantics)."""
    import ray.data as rd

    from pcompress_ray.pipelines.dedup import dedup_pipeline

    pages, _, _ = corpus
    outs = []
    for loc in (False, True):
        ds = rd.from_arrow(pages).repartition(4)
        res = dedup_pipeline(ds, PipelineConfig(locality_sort=loc),
                             compute_pairs=False)
        outs.append(res.clusters.to_pandas().sort_values("rank")
                    .reset_index(drop=True)[["url", "cluster_id", "is_canonical"]])
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_registered_domains():
    from pcompress_ray.stages.locality import registered_domains

    got = registered_domains(pd.Series([
        "https://www.example.com/a/b", "http://sub.x.co/path?q=1",
        "https://example.com", "ftp://user@files.host.org:21/f",
        "plainhost/page", "https://localhost/x"]))
    assert got.tolist() == ["example.com", "x.co", "example.com",
                            "host.org", "plainhost", "localhost"]


def test_pairs_have_urls(result):
    p = result["pairs"]
    assert len(p) > 0
    assert set(p.columns) == {"url_a", "url_b", "kind", "similarity"}
    assert p.url_a.str.startswith("https://").all()


def test_distributed_components_match_driver_path(corpus, result, ray_session):
    """Scale path: resolve_components via distributed label propagation
    (cc_driver_edge_limit=0) must reproduce the driver-path cluster table."""
    import ray.data as rd

    from pcompress_ray.pipelines.dedup import build_signatures, dedup_pipeline

    pages, _, _ = corpus
    ds = rd.from_arrow(pages).repartition(8)
    res = dedup_pipeline(ds, PipelineConfig(cc_driver_edge_limit=0),
                         compute_pairs=False)
    got = res.clusters.to_pandas().sort_values("rank").reset_index(drop=True)
    want = result["clusters"]
    assert (got.cluster_id.to_numpy() == want.cluster_id.to_numpy()).all()
    assert (got.is_canonical.to_numpy() == want.is_canonical.to_numpy()).all()


def test_min_label_components_equals_union_find():
    """Vectorized numpy components == the dict union-find oracle on a random
    graph with chains (worst case for label propagation) and cliques."""
    from pcompress_ray.stages.components import (
        labels_to_lookup,
        lookup_labels,
        min_label_components,
        union_find,
    )

    rng = np.random.default_rng(7)
    # chains of length 50 + random clique edges + self-contained pairs
    parts = []
    base = 0
    for _ in range(5):
        n = 50
        parts.append(np.stack([np.arange(base, base + n - 1),
                               np.arange(base + 1, base + n)], axis=1))
        base += n
    clique = rng.choice(np.arange(base, base + 30), size=(60, 2))
    parts.append(clique[clique[:, 0] != clique[:, 1]])
    edges = np.concatenate(parts)
    a, b = edges[:, 0].astype(np.int64), edges[:, 1].astype(np.int64)
    keys, vals = min_label_components(a, b)
    want = union_find(a, b)
    assert len(keys) == len(want)
    assert all(int(v) == want[int(k)] for k, v in zip(keys, vals))
    # lookup helper: identity for unknown ids
    got = lookup_labels(keys, vals, np.array([a[0], 10**9], dtype=np.int64))
    assert got[0] == want[int(a[0])] and got[1] == 10**9


def test_dedupe_gain_metrics(corpus, result, ray_session):
    """A3 analog: gain counters present, consistent, threshold flag works."""
    import ray.data as rd

    from pcompress_ray.pipelines.dedup import dedup_pipeline

    pages, _, _ = corpus
    ds = rd.from_arrow(pages).repartition(4)
    res = dedup_pipeline(ds, PipelineConfig(min_gain_ratio=0.9),
                         compute_pairs=False)
    m = res.metrics
    assert m["bytes_scanned"] > 0
    assert 0 < m["dup_bytes"] < m["bytes_scanned"]
    assert m["n_dup_docs"] == int((~result["clusters"].is_canonical).sum())
    assert m["gain_ratio"] == round(m["dup_bytes"] / m["bytes_scanned"], 6)
    assert m["gain_below_threshold"] is (m["gain_ratio"] < 0.9)


def test_union_edges_blocks_keep_columns(ray_session, tmp_path, caplog):
    """union_edges over a bench corpus: every output block keeps the edge
    columns, and no step reports a block whose schema changed (a
    map_batches over doc_exact_edges's many empty partitions turns them
    into zero-column blocks)."""
    import logging

    import ray

    import pcompress_ray
    from pcompress_ray.functions.ops import materialized_block_refs
    from pcompress_ray.pipelines.dedup import build_signatures, union_edges
    from pcompress_ray.sources.corpus import (read_bench_corpus,
                                              write_bench_corpus)
    from pcompress_ray.stages.candidates import lsh_candidates
    from pcompress_ray.stages.exact import chunk_exact_edges, doc_exact_edges
    from pcompress_ray.stages.verify import verify_candidates

    pcompress_ray.register_for_ray()
    cfg = PipelineConfig()
    pages = read_bench_corpus(write_bench_corpus(str(tmp_path), 400, seed=1))
    sig = build_signatures(pages, cfg).materialize()
    e_near = verify_candidates(lsh_candidates(sig, cfg).materialize(), sig,
                               cfg)
    ray_data_log = logging.getLogger("ray.data")
    ray_data_log.addHandler(caplog.handler)
    try:
        edges = union_edges(doc_exact_edges(sig), chunk_exact_edges(sig, cfg),
                            e_near, cfg=cfg).materialize()
    finally:
        ray_data_log.removeHandler(caplog.handler)
    assert "different schema" not in caplog.text
    blocks = ray.get(materialized_block_refs(edges))
    assert blocks and edges.count() > 0
    for b in blocks:
        assert list(b.column_names) == ["a", "b", "kind", "jaccard"]


def test_bucket_at_cap_emits_every_pair():
    """A bucket of ``bucket_cap`` members emits all of its pairs: one
    100-member bucket under bucket_cap=100 gives C(100, 2) = 4,950."""
    from pcompress_ray.stages.candidates import band_partition_pairs

    part = pd.DataFrame({"band_id": np.zeros(100, np.int32),
                         "band_hash": np.full(100, 7, np.uint64),
                         "rank": np.arange(100, dtype=np.int64)})
    got = band_partition_pairs(PipelineConfig(bucket_cap=100))(
        pa.Table.from_pandas(part)).to_pandas()
    assert len(got) == 4950
    assert (got["a"] < got["b"]).all()
    assert len(got.drop_duplicates()) == 4950


def test_dedup_same_at_derived_and_capped_parts(ray_session, tmp_path,
                                                monkeypatch):
    """dedup_pipeline on a 400-page bench corpus gives the same edges and
    clusters when each exchange runs the few partitions its bytes derive
    as when it runs its caller's cap."""
    import pcompress_ray
    from pcompress_ray.functions import ops
    from pcompress_ray.pipelines.dedup import dedup_pipeline
    from pcompress_ray.sources.corpus import (read_bench_corpus,
                                              write_bench_corpus)

    pcompress_ray.register_for_ray()
    path = write_bench_corpus(str(tmp_path), 400, seed=1)

    def run():
        res = dedup_pipeline(read_bench_corpus(path), PipelineConfig())
        edges = res.edges.to_pandas()
        clusters = res.clusters.to_pandas()
        return (edges.sort_values(list(edges.columns)).reset_index(drop=True),
                clusters.sort_values("url").reset_index(drop=True))

    edges, clusters = run()
    assert len(edges) and clusters["cluster_id"].nunique() < len(clusters)
    monkeypatch.setattr(ops, "_PART_BYTES", 1)
    cap_edges, cap_clusters = run()
    pd.testing.assert_frame_equal(edges, cap_edges)
    pd.testing.assert_frame_equal(clusters, cap_clusters)


def test_verify_join_fallback_matches_broadcast(ray_session, tmp_path):
    """dedup_pipeline on a 400-page bench corpus gives the same edges and
    clusters when verify takes its partitioned-join fallback (a sketch
    broadcast budget of 0 bytes) as on the default sketch broadcast."""
    import pcompress_ray
    from pcompress_ray.pipelines.dedup import dedup_pipeline
    from pcompress_ray.sources.corpus import (read_bench_corpus,
                                              write_bench_corpus)

    pcompress_ray.register_for_ray()
    path = write_bench_corpus(str(tmp_path), 400, seed=1)

    def run(cfg):
        res = dedup_pipeline(read_bench_corpus(path), cfg)
        edges = res.edges.to_pandas()
        clusters = res.clusters.to_pandas()
        return (edges.sort_values(list(edges.columns)).reset_index(drop=True),
                clusters.sort_values("url").reset_index(drop=True))

    edges, clusters = run(PipelineConfig())
    assert (edges["kind"] == "near").any()
    join_edges, join_clusters = run(PipelineConfig(verify_broadcast_bytes=0))
    pd.testing.assert_frame_equal(edges, join_edges)
    pd.testing.assert_frame_equal(clusters, join_clusters)
