"""End-to-end curation funnel: each stage must remove exactly its planted
victims, funnel counts must be monotone, and survivors byte-correct."""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _words(seed: int, n: int) -> str:
    rng = np.random.default_rng(seed)
    toks = [f"w{int(x)}" for x in rng.integers(0, 900, n)]
    # heuristic filter requires stopword presence; sprinkle them in
    for i in range(0, n, 7):
        toks[i] = ("the", "and", "of")[i % 3]
    return " ".join(toks)


def test_curate_funnel(ray_session):
    import ray.data as rd

    import pcompress_ray

    pcompress_ray.register_for_ray()
    from pcompress_ray.config import PipelineConfig
    from pcompress_ray.pipelines.curate import curate_pipeline

    boiler = "cookie banner accept all"
    bodies = [_words(i, 120) for i in range(8)]
    rows = []
    # 8 good docs, each with the shared boilerplate line
    for i, b in enumerate(bodies):
        rows.append((f"http://siteA.com/p{i}", boiler + "\n" + b))
    # url dup: same page twice with utm noise -> canonicalizes together
    rows.append(("http://siteA.com/p0?utm_source=x", "ignored dup body"))
    # heuristic victim: too short
    rows.append(("http://siteA.com/short", "tiny"))
    # near-dup victim: exact copy of doc 1's body under a different url
    rows.append(("http://siteB.com/copy", boiler + "\n" + bodies[1]))
    # contamination victim: contains a benchmark 13-gram verbatim
    bench_text = _words(99, 40)
    rows.append(("http://siteC.com/leak",
                 bodies[2][:0] + _words(50, 30) + " " + bench_text))

    pages = pa.table({
        "url": pa.array([r[0] for r in rows]),
        "text": pa.array([r[1] for r in rows]),
    })
    bench = rd.from_arrow(pa.table({"text": pa.array([bench_text])}))

    cfg = PipelineConfig()
    res = curate_pipeline(rd.from_arrow(pages).repartition(3), cfg,
                          benchmark_ds=bench)
    f = res.funnel
    assert f["raw"] == 12
    assert f["url_dedup"] == 11          # utm twin collapsed
    assert f["heuristic"] == 10          # 'tiny' dropped
    assert f["near_dedup"] == 9          # siteB copy clustered away
    assert f["line_scrub"] == 9          # boilerplate removed, no doc emptied
    assert f["decontaminate"] == 8       # benchmark leak dropped
    # monotone funnel
    vals = list(f.values())
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    # per-stage wall-time audit rides along with the counts
    assert set(res.timings) == set(f)
    assert all(v >= 0.0 for v in res.timings.values())

    out = res.curated.to_pandas().sort_values("rank")
    assert len(out) == 8
    # boilerplate line is gone from every survivor, bodies intact
    assert not out["text"].str.contains(boiler).any()
    surviving_urls = set(out["url"])
    assert "http://siteB.com/copy" not in surviving_urls
    assert "http://siteC.com/leak" not in surviving_urls
    assert "http://siteA.com/short" not in surviving_urls


def test_curate_parallelism_invariance(ray_session):
    """The COMPOSED funnel is a pure function of the input: different
    block counts must give byte-identical curated output and identical
    funnel counts (the north-rule bar, end to end)."""
    import pandas as pd
    import ray.data as rd

    import pcompress_ray

    pcompress_ray.register_for_ray()
    from pcompress_ray.config import PipelineConfig
    from pcompress_ray.pipelines.curate import curate_pipeline

    texts = [_words(i, 80) for i in range(10)]
    texts[9] = texts[0]
    pages = pa.table({
        "url": pa.array([f"http://inv{i}.ex/p" for i in range(10)]),
        "text": pa.array(texts)})

    outs = []
    for nblocks in (2, 7):
        res = curate_pipeline(rd.from_arrow(pages).repartition(nblocks),
                              PipelineConfig())
        outs.append((res.funnel,
                     res.curated.to_pandas().sort_values("url")
                     .reset_index(drop=True)))
    assert outs[0][0] == outs[1][0]
    pd.testing.assert_frame_equal(outs[0][1], outs[1][1])


def test_curate_checkpoint_resume(ray_session, tmp_path):
    """Kill-and-resume for the COMPOSED funnel (the overnight pipeline):
    a full run checkpoints every stage; a rerun with the same dir must
    reproduce identical curated output + funnel counts WITHOUT recomputing
    completed stages; and a simulated mid-run kill (later stages' manifest
    entries erased) must resume from the surviving prefix."""
    import json
    import os

    import pandas as pd
    import ray.data as rd

    import pcompress_ray

    pcompress_ray.register_for_ray()
    from pcompress_ray.config import PipelineConfig
    from pcompress_ray.pipelines.curate import curate_pipeline

    boiler = "cookie banner accept all"
    bodies = [_words(i, 120) for i in range(8)]
    rows = [(f"http://siteA.com/p{i}", boiler + "\n" + b)
            for i, b in enumerate(bodies)]
    rows.append(("http://siteB.com/copy", boiler + "\n" + bodies[1]))
    pages = pa.table({"url": pa.array([r[0] for r in rows]),
                      "text": pa.array([r[1] for r in rows])})
    cfg = PipelineConfig()
    ckdir = str(tmp_path / "funnel_ck")

    res1 = curate_pipeline(rd.from_arrow(pages).repartition(3), cfg,
                           checkpoint_dir=ckdir)
    out1 = res1.curated.to_pandas().sort_values("rank").reset_index(drop=True)

    roots = [d for d in os.listdir(ckdir) if d.startswith("curate-")]
    assert len(roots) == 1
    root = os.path.join(ckdir, roots[0])
    manifest_path = os.path.join(root, "manifest.json")
    with open(manifest_path) as fh:
        m = json.load(fh)
    for st in ("raw", "url_dedup", "heuristic", "near_dedup", "line_scrub"):
        assert m[st]["complete"], st
    nd_mtime = os.path.getmtime(os.path.join(root, "near_dedup"))

    # full resume: nothing recomputed, identical output and funnel
    res2 = curate_pipeline(rd.from_arrow(pages).repartition(3), cfg,
                           checkpoint_dir=ckdir)
    out2 = res2.curated.to_pandas().sort_values("rank").reset_index(drop=True)
    pd.testing.assert_frame_equal(out1, out2)
    assert res2.funnel == res1.funnel
    assert os.path.getmtime(os.path.join(root, "near_dedup")) == nd_mtime

    # simulated kill DURING the line scrub: erase its completion record,
    # resume — the expensive near-dedup prefix must not be recomputed
    del m["line_scrub"]
    with open(manifest_path, "w") as fh:
        json.dump(m, fh)
    res3 = curate_pipeline(rd.from_arrow(pages).repartition(3), cfg,
                           checkpoint_dir=ckdir)
    out3 = res3.curated.to_pandas().sort_values("rank").reset_index(drop=True)
    pd.testing.assert_frame_equal(out1, out3)
    assert res3.funnel == res1.funnel
    assert os.path.getmtime(os.path.join(root, "near_dedup")) == nd_mtime
