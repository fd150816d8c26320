"""Incremental dedup: folding new docs into a prior run must reproduce the
full-recompute cluster table, touching only a fraction of the key space."""

import numpy as np
import pandas as pd
import pyarrow as pa

from pcompress_ray.config import PipelineConfig


def _clusters(res) -> pd.DataFrame:
    return res.clusters.to_pandas().sort_values("rank").reset_index(drop=True)[
        ["url", "rank", "cluster_id", "is_canonical"]]


def test_incremental_matches_full_recompute(ray_session):
    import ray.data as rd

    import pcompress_ray

    pcompress_ray.register_for_ray()
    from pcompress_ray.pipelines.dedup import dedup_pipeline
    from pcompress_ray.pipelines.incremental import dedup_increment
    from pcompress_ray.sources.corpus import make_corpus

    # stop-shingles disabled: full and prev runs would otherwise sample
    # different prefixes and band with different suppression sets
    cfg = PipelineConfig(stop_shingle_df=0)
    pages, _, _ = make_corpus(300, 42, with_oracle=False)
    n = len(pages["url"])
    pages = pages.append_column("rank",
                                pa.array(np.arange(n, dtype=np.int64)))

    full = dedup_pipeline(rd.from_arrow(pages).repartition(6), cfg,
                          compute_pairs=False)
    prev = dedup_pipeline(rd.from_arrow(pages.slice(0, 200)).repartition(4),
                          cfg, compute_pairs=False)
    inc = dedup_increment(prev.signatures, prev.edges,
                          rd.from_arrow(pages.slice(200, 100)).repartition(2),
                          cfg)

    got = _clusters(inc)
    want = _clusters(full)
    assert len(got) == 300
    pd.testing.assert_frame_equal(got, want)

    m = inc.metrics
    assert m["incremental"] and m["n_new_docs"] == 100 and m["n_docs"] == 300
    # the increment touches only part of the key space
    total_shas = full.signatures.to_pandas()["text_sha256"].nunique()
    assert 0 < m["touched_shas"] < total_shas
    assert m["touched_band_buckets"] > 0
    # canonical stability: prev docs' canonical flags are unchanged
    prev_cl = _clusters(prev)
    merged = prev_cl.merge(got[got["rank"] < 200], on="rank",
                           suffixes=("_prev", "_inc"))
    assert (merged.is_canonical_prev == merged.is_canonical_inc).all()
    assert (merged.cluster_id_prev == merged.cluster_id_inc).all()


def test_incremental_from_checkpoint(ray_session, tmp_path):
    """Production path: full run with checkpoint, then fold a rank-less new
    parquet batch via the checkpoint wrapper (ranks derived + shifted past
    the previous max) — must equal the full recompute."""
    import ray.data as rd

    import pcompress_ray

    pcompress_ray.register_for_ray()
    from pcompress_ray.pipelines.dedup import dedup_pipeline
    from pcompress_ray.pipelines.incremental import dedup_increment_from_checkpoint
    from pcompress_ray.sources.corpus import make_corpus

    cfg = PipelineConfig(stop_shingle_df=0)
    pages, _, _ = make_corpus(300, 42, with_oracle=False)
    n = len(pages["url"])
    ranked = pages.append_column("rank",
                                 pa.array(np.arange(n, dtype=np.int64)))
    full = dedup_pipeline(rd.from_arrow(ranked).repartition(6), cfg,
                          compute_pairs=False)
    ckdir = str(tmp_path / "ck")
    dedup_pipeline(rd.from_arrow(ranked.slice(0, 200)).repartition(4), cfg,
                   checkpoint_dir=ckdir)
    # new batch arrives WITHOUT ranks (as from a raw crawl parquet)
    new_raw = pages.slice(200, 100)
    inc = dedup_increment_from_checkpoint(
        ckdir, rd.from_arrow(new_raw).repartition(2), cfg)
    pd.testing.assert_frame_equal(_clusters(inc), _clusters(full))


def test_incremental_empty_increment(ray_session):
    """Zero new docs: clusters must equal the previous run's exactly."""
    import ray.data as rd

    import pcompress_ray

    pcompress_ray.register_for_ray()
    from pcompress_ray.pipelines.dedup import dedup_pipeline
    from pcompress_ray.pipelines.incremental import dedup_increment
    from pcompress_ray.sources.corpus import make_corpus

    cfg = PipelineConfig(stop_shingle_df=0)
    pages, _, _ = make_corpus(100, 42, with_oracle=False)
    pages = pages.append_column(
        "rank", pa.array(np.arange(len(pages["url"]), dtype=np.int64)))
    prev = dedup_pipeline(rd.from_arrow(pages).repartition(4), cfg,
                          compute_pairs=False)
    inc = dedup_increment(prev.signatures, prev.edges,
                          rd.from_arrow(pages.slice(0, 0)), cfg)
    pd.testing.assert_frame_equal(_clusters(inc), _clusters(prev))


def test_two_chained_increments_match_full_recompute(ray_session):
    """§2.9 append-only contract under REPEATED folds: increment twice
    (each fold building on the previous fold's outputs) and the final
    cluster table must equal one full recompute over everything — the
    grow-only-index semantics of the reference held across generations."""
    import ray.data as rd

    import pcompress_ray

    pcompress_ray.register_for_ray()
    from pcompress_ray.pipelines.dedup import dedup_pipeline
    from pcompress_ray.pipelines.incremental import dedup_increment
    from pcompress_ray.sources.corpus import make_corpus

    cfg = PipelineConfig(stop_shingle_df=0)
    pages, _, _ = make_corpus(300, 43, with_oracle=False)
    n = len(pages["url"])
    pages = pages.append_column("rank",
                                pa.array(np.arange(n, dtype=np.int64)))

    full = dedup_pipeline(rd.from_arrow(pages).repartition(6), cfg,
                          compute_pairs=False)
    gen0 = dedup_pipeline(rd.from_arrow(pages.slice(0, 150)).repartition(3),
                          cfg, compute_pairs=False)
    gen1 = dedup_increment(gen0.signatures, gen0.edges,
                           rd.from_arrow(pages.slice(150, 75)).repartition(2),
                           cfg)
    gen2 = dedup_increment(gen1.signatures, gen1.edges,
                           rd.from_arrow(pages.slice(225, 75)).repartition(2),
                           cfg)

    got = _clusters(gen2)
    want = _clusters(full)
    assert len(got) == 300
    pd.testing.assert_frame_equal(got, want)
    assert gen2.metrics["n_new_docs"] == 75
    assert gen2.metrics["n_docs"] == 300
    # canonical stability holds across BOTH folds
    g1 = _clusters(gen1)
    merged = g1.merge(got[got["rank"] < 225], on="rank",
                      suffixes=("_g1", "_g2"))
    assert (merged.cluster_id_g1 == merged.cluster_id_g2).all()
    assert (merged.is_canonical_g1 == merged.is_canonical_g2).all()


def test_default_config_hash_is_stable():
    """Checkpoints are keyed by config_hash(); deleting execution-only
    fields must not change it, or existing checkpoints stop resuming."""
    assert PipelineConfig().config_hash() == "d01fed1608971045"
