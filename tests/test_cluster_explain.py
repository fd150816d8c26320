"""Cluster-explain audit: planted duplicate families must surface with
the right sizes and Jaccard-vs-canonical values (pipelines/explain.py)."""

import numpy as np
import pyarrow as pa


def _words(seed: int, n: int) -> str:
    rng = np.random.default_rng(seed)
    return " ".join(f"w{int(x)}" for x in rng.integers(0, 5000, n))


def test_cluster_explain_planted(ray_session):
    import ray.data as rd

    import pcompress_ray

    pcompress_ray.register_for_ray()
    from pcompress_ray.config import PipelineConfig
    from pcompress_ray.pipelines.dedup import dedup_pipeline
    from pcompress_ray.pipelines.explain import cluster_explain

    base = _words(1, 300)
    # family A: 3 verbatim copies; family B: 2 near-dups (tail edit);
    # plus 4 unique docs (singletons must NOT appear in the report)
    rows = [("http://a.com/0", base), ("http://a.com/1", base),
            ("http://a.com/2", base),
            ("http://b.com/0", _words(2, 300)),
            ("http://b.com/1", _words(2, 300) + " tail extra"),
            ] + [(f"http://u.com/{i}", _words(10 + i, 120)) for i in range(4)]
    pages = pa.table({"url": pa.array([r[0] for r in rows]),
                      "text": pa.array([r[1] for r in rows]),
                      "rank": pa.array(range(len(rows)), pa.int64())})
    res = dedup_pipeline(rd.from_arrow(pages).repartition(3),
                         PipelineConfig(),
                         compute_pairs=False)
    out = cluster_explain(res, top=3).to_pandas()

    # exactly the two planted families, sizes 3 and 2
    by_n = out.groupby("n_members")["url"].count().to_dict()
    assert by_n == {3: 3, 2: 2}
    # verbatim copies: Jaccard vs canonical exactly 1.0
    fam_a = out[out["n_members"] == 3]
    assert (fam_a["jaccard_vs_canon_e6"] == 1_000_000).all()
    assert fam_a["is_canonical"].sum() == 1
    # near-dup family: canonical scores 1.0 against itself, the edited
    # member is high but below 1.0
    fam_b = out[out["n_members"] == 2]
    canon_j = fam_b[fam_b["is_canonical"]]["jaccard_vs_canon_e6"].iloc[0]
    memb_j = fam_b[~fam_b["is_canonical"]]["jaccard_vs_canon_e6"].iloc[0]
    assert canon_j == 1_000_000
    assert 700_000 <= memb_j < 1_000_000


def test_cluster_explain_member_cap(ray_session):
    """A cluster above member_cap is deterministically sampled: canonical
    kept, member rows bounded, n_members still the TRUE size."""
    import ray.data as rd

    import pcompress_ray

    pcompress_ray.register_for_ray()
    from pcompress_ray.config import PipelineConfig
    from pcompress_ray.pipelines.dedup import dedup_pipeline
    from pcompress_ray.pipelines.explain import cluster_explain

    base = _words(3, 300)
    # one family of 9 verbatim copies, one of 2, plus 3 uniques
    rows = [(f"http://big.com/{i}", base) for i in range(9)] + \
           [("http://b.com/0", _words(4, 300)),
            ("http://b.com/1", _words(4, 300) + " tail bit")] + \
           [(f"http://u.com/{i}", _words(30 + i, 120)) for i in range(3)]
    pages = pa.table({"url": pa.array([r[0] for r in rows]),
                      "text": pa.array([r[1] for r in rows]),
                      "rank": pa.array(range(len(rows)), pa.int64())})
    res = dedup_pipeline(rd.from_arrow(pages).repartition(3),
                         PipelineConfig(),
                         compute_pairs=False)
    full = cluster_explain(res, top=2).to_pandas()
    capped = cluster_explain(res, top=2, member_cap=4).to_pandas()

    big_f = full[full["n_members"] == 9]
    big_c = capped[capped["n_members"] == 9]
    assert len(big_f) == 9
    assert len(big_c) == 4                      # capped member rows
    assert big_c["is_canonical"].sum() == 1     # canonical always kept
    assert (big_c["n_members"] == 9).all()      # TRUE size reported
    # deterministic sample: canonical + smallest urls
    noncanon = big_c[~big_c["is_canonical"]]["url"].tolist()
    pool = sorted(big_f[~big_f["is_canonical"]]["url"])
    assert sorted(noncanon) == pool[:3]
    # the under-cap family is untouched
    assert len(capped[capped["n_members"] == 2]) == 2
    # and a rerun is bit-identical (determinism)
    again = cluster_explain(res, top=2, member_cap=4).to_pandas()
    cols = ["cluster_id", "url", "is_canonical", "n_members",
            "jaccard_vs_canon_e6"]
    a = capped[cols].sort_values(["cluster_id", "url"]).reset_index(drop=True)
    b = again[cols].sort_values(["cluster_id", "url"]).reset_index(drop=True)
    assert a.equals(b)


def test_cluster_explain_no_dups(ray_session):
    import ray.data as rd

    import pcompress_ray

    pcompress_ray.register_for_ray()
    from pcompress_ray.config import PipelineConfig
    from pcompress_ray.pipelines.dedup import dedup_pipeline
    from pcompress_ray.pipelines.explain import cluster_explain

    pages = pa.table({
        "url": pa.array([f"http://u.com/{i}" for i in range(5)]),
        "text": pa.array([_words(50 + i, 100) for i in range(5)]),
        "rank": pa.array(range(5), pa.int64())})
    res = dedup_pipeline(rd.from_arrow(pages),
                         PipelineConfig(),
                         compute_pairs=False)
    out = cluster_explain(res, top=3)
    assert out.num_rows == 0
    assert set(out.schema.names) == {"cluster_id", "url", "is_canonical",
                                     "n_members", "jaccard_vs_canon_e6"}
