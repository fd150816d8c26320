"""End-to-end web-corpus curation funnel.

The composed product a training-data team actually runs — every stage is
an existing, individually-oracle-checked operator, chained in the standard
curation order (CCNet / RefinedWeb / C4 practice), with per-stage funnel
counts so the yield of each filter is auditable:

  raw pages (url, text | html)
    1. rank           — dense url-ordered rank (parallelism-invariant id)
    2. url_dedup      — canonical-URL exact dedup (keep min rank)
    3. heuristic      — C4/Gopher rule filter (stages/filter_rules.py)
    4. near_dedup     — the flagship MinHash/LSH cluster pipeline,
                        canonical docs kept (BEFORE the scrub: the scrub
                        is remove-everywhere, so verbatim duplicates must
                        collapse to one copy first or both would be
                        scrubbed to nothing)
    5. line_scrub     — cross-doc boilerplate line removal (remove-everywhere)
    6. decontaminate  — optional: drop docs sharing a 13-gram with a
                        benchmark table (GPT-3 appendix-C rule)
    -> curated (url, rank, text) + funnel metrics

Scale shape: stages 1-4 and 6 are streaming map_batches + bounded
exchanges; stage 5 is the flagship pipeline (its own SURVEY §4 analysis
applies). Nothing here pulls the corpus to the driver; funnel counts are
Dataset.count() on materialized intermediates (metadata-cheap).

Resume: pass ``checkpoint_dir`` and every funnel stage materializes to
atomic partitioned Parquet (pipelines/checkpoint.py); a killed overnight
run restarts at the last complete stage — and a kill INSIDE the near-dedup
stage resumes from the flagship pipeline's own inner checkpoints, which
live under the same root. Funnel counts come back from checkpoint Parquet
metadata on resume, so the audit trail is identical to an unbroken run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa

from pcompress_ray.config import PipelineConfig


@dataclass
class CurateResult:
    curated: object                 # Dataset (url, rank, text)
    funnel: dict = field(default_factory=dict)   # stage -> surviving docs
    timings: dict = field(default_factory=dict)  # stage -> wall seconds


def curate_pipeline(pages_ds, cfg: PipelineConfig | None = None,
                    benchmark_ds=None, min_docs_line: int = 2,
                    contamination_n: int = 13,
                    checkpoint_dir: str | None = None) -> CurateResult:
    """pages Dataset (url, text [, html]) -> CurateResult."""
    import os

    import ray
    import ray.data as rd

    from pcompress_ray.functions.ops import exchange, run_starts, zip_with_rank
    from pcompress_ray.pipelines.checkpoint import CheckpointManager
    from pcompress_ray.pipelines.dedup import dedup_pipeline
    from pcompress_ray.stages.extract import Extractor
    from pcompress_ray.stages.filter_rules import heuristic_filter_batch
    from pcompress_ray.stages.rewrite import line_dedup_rewrite
    from pcompress_ray.stages.textstats import (_split_tokens,
                                                contamination_batch,
                                                ngram_strings)
    from pcompress_ray.stages.urlnorm import canonicalize_urls

    import time as _time

    cfg = cfg or PipelineConfig()
    funnel: dict[str, int] = {}
    timings: dict[str, float] = {}
    # the funnel's semantic hash extends the dedup config hash with the
    # curate-only knobs, so changing either invalidates the checkpoints
    ck = CheckpointManager(
        checkpoint_dir,
        f"curate-{cfg.config_hash()}-l{min_docs_line}-c{contamination_n}"
        f"-b{int(benchmark_ds is not None)}")
    inner_ck = os.path.join(checkpoint_dir, "near_dedup_inner") \
        if checkpoint_dir else None

    def stage(name: str, build):
        """Run (or resume) one funnel stage; returns the materialized
        Dataset backing it and records the funnel count + wall time."""
        _t0 = _time.monotonic()
        if ck.enabled and ck.is_complete(name):
            out = rd.read_parquet(ck.path(name))
        else:
            out = build().materialize()
            # an all-empty stage can't round-trip through parquet (no
            # files, no schema) — the caller early-exits on it anyway
            if ck.enabled and out.count() > 0:
                out = ck.materialize(name, out)
        funnel[name] = out.count()
        timings[name] = _time.monotonic() - _t0
        return out

    names = pages_ds.schema().names
    if "html" in names and "text" not in names:
        pages_ds = pages_ds.map_batches(Extractor(out_col="text"),
                                        batch_format="pyarrow")
    ds = stage("raw", lambda: zip_with_rank(pages_ds, "url")
               .select_columns(["url", "rank", "text"]))

    # 2. canonical-URL dedup: keep the min-rank doc per canonical url
    def add_canon(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["canon_url"] = canonicalize_urls(df["url"].astype(str)).to_numpy()
        return df

    def keep_first(part: pa.Table) -> pa.Table:
        part = part.sort_by([("canon_url", "ascending"), ("rank", "ascending")])
        return part.filter(run_starts(part["canon_url"])) \
            .drop_columns(["canon_url"])

    _prev = ds
    ds = stage("url_dedup", lambda: exchange(
        [_prev.map_batches(add_canon, batch_format="pandas")],
        [["canon_url"]], keep_first))

    # 3. heuristic quality rules (keep == 1)
    def heur(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        flags = heuristic_filter_batch(
            t.append_column("doc_id", t["rank"]), text_col="text")
        return t.filter(pa.array(
            flags["keep"].to_numpy(zero_copy_only=False).astype(bool)))

    _prev = ds
    ds = stage("heuristic",
               lambda: _prev.map_batches(heur, batch_format="pyarrow"))
    if funnel["heuristic"] == 0:
        # every doc filtered: typed-empty early exit (downstream joins
        # cannot consume an all-empty schemaless Dataset)
        return CurateResult(curated=rd.from_arrow(pa.table({
            "url": pa.array([], pa.string()),
            "rank": pa.array([], pa.int64()),
            "text": pa.array([], pa.string())})), funnel=funnel,
            timings=timings)

    # 4. near-dup dedup FIRST (flagship pipeline, canonical docs kept).
    # Order matters: the line scrub is remove-EVERYWHERE, so running it
    # before dedup would scrub every line of an exact-duplicate pair out
    # of BOTH copies (verbatim duplicate docs make each of their lines a
    # cross-doc repeat) — dedup first collapses the copies to one
    # canonical, and the scrub then removes only true template lines.
    from pcompress_ray.functions.ops import hash_join

    def near_dedup():
        # the flagship pipeline keeps its OWN stage checkpoints under the
        # funnel root, so a kill mid-dedup resumes inside this stage too
        res = dedup_pipeline(ds, cfg, compute_pairs=False,
                             checkpoint_dir=inner_ck)

        def only_canon(t: pa.Table) -> pa.Table:
            t = t.replace_schema_metadata(None)
            mask = t["is_canonical"].to_numpy(
                zero_copy_only=False).astype(bool)
            return t.filter(pa.array(mask)).select(["url"])

        canon = res.clusters.map_batches(only_canon, batch_format="pyarrow")
        j = hash_join(ds, canon.map_batches(
            lambda t: t.replace_schema_metadata(None).append_column(
                "__keep", pa.array(np.ones(len(t), np.int8))),
            batch_format="pyarrow"), "url", "url", suffix="_c")
        return j.map_batches(
            lambda t: t.replace_schema_metadata(None)
            .select(["url", "rank", "text"]),
            batch_format="pyarrow")

    ds = stage("near_dedup", near_dedup)

    # 5. line-level boilerplate scrub; docs scrubbed to nothing are dropped
    def as_docs(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        return pa.table({"doc_id": t["rank"].cast(pa.int64()),
                         "url": t["url"],
                         "text": t["text"]})

    def line_scrub():
        docs = ds.map_batches(as_docs, batch_format="pyarrow")
        # url rides the rewrite's own exchanges (carry_cols), so no third
        # all-to-all hash join is needed to recover it
        scrubbed = line_dedup_rewrite(docs, min_docs=min_docs_line,
                                      carry_cols=("url",))

        def post_scrub(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            t = t.replace_schema_metadata(None)
            keep = pc.greater(pc.binary_length(t["new_text"]), 0)
            t = t.filter(keep)
            return pa.table({"url": t["url"].cast(pa.string()),
                             "rank": t["doc_id"].cast(pa.int64()),
                             "text": t["new_text"].cast(pa.string())})

        return scrubbed.map_batches(post_scrub, batch_format="pyarrow")

    ds = stage("line_scrub", line_scrub)

    # 6. optional benchmark decontamination (13-gram overlap drop)
    if benchmark_ds is not None:
        def decont_stage():
            bench = benchmark_ds.to_pandas()
            doc_idx, words = _split_tokens(
                pa.table({"text": pa.array(bench["text"].astype(str))}),
                "text")
            _, grams = ngram_strings(doc_idx, words, contamination_n)
            grams_ref = ray.put(pd.unique(pd.Series(grams)))

            def decont(t: pa.Table) -> pa.Table:
                t = t.replace_schema_metadata(None)
                flags = contamination_batch(
                    t.append_column("doc_id", t["rank"]),
                    ray.get(grams_ref),
                    n=contamination_n, text_col="text")
                bad = flags["n_contaminated"].to_numpy(
                    zero_copy_only=False) > 0
                return t.filter(pa.array(~bad))

            return ds.map_batches(decont, batch_format="pyarrow")

        ds = stage("decontaminate", decont_stage)

    return CurateResult(curated=ds, funnel=funnel, timings=timings)
