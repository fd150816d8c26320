"""CLI entry points — `ray job submit`-compatible (SURVEY §2.10, north rule).

    python -m pcompress_ray.cli dedup --input /data/pages --output /out \
        [--checkpoint-dir /ck] [--locality-sort] [--pairs] [--num-cpus N]

    ray job submit --working-dir . -- python -m pcompress_ray.cli dedup ...

The input is a Parquet directory/file with columns (url, text[, html, lang,
warc_ts]); a dense ``rank`` ordering column is derived from url sort order
if absent. Outputs: clusters/ + dup_pairs/ partitioned Parquet,
lineage.parquet, metrics.json (see pipelines.dedup.write_outputs).

This module OWNS its Ray session (guarded init — under `ray job submit` or
an existing cluster it attaches instead of starting one).
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(num_cpus: int | None):
    import ray

    import pcompress_ray

    pcompress_ray.register_for_ray()  # before ray.init: see runtime.py
    if not ray.is_initialized():
        kwargs = {"include_dashboard": False}
        if num_cpus:
            kwargs.update(address="local", num_cpus=num_cpus)
        ray.init(**kwargs)


def _ensure_rank(ds):
    """Derive the dense url-ordered rank column when the input lacks one."""
    if "rank" in ds.schema().names:
        return ds
    from pcompress_ray.functions.ops import zip_with_rank

    return zip_with_rank(ds, "url")


def cmd_dedup(args) -> int:
    import ray.data as rd

    from pcompress_ray.config import PipelineConfig
    from pcompress_ray.pipelines.dedup import dedup_pipeline, write_outputs

    _init_ray(args.num_cpus)
    cfg = PipelineConfig(locality_sort=args.locality_sort)
    pages = _ensure_rank(rd.read_parquet(args.input))
    if getattr(args, "increment", False):
        from pcompress_ray.pipelines.incremental import (
            dedup_increment_from_checkpoint)

        if not args.checkpoint_dir:
            raise SystemExit("--increment requires --checkpoint-dir")
        res = dedup_increment_from_checkpoint(args.checkpoint_dir, pages, cfg,
                                              compute_pairs=args.pairs)
    else:
        res = dedup_pipeline(pages, cfg, checkpoint_dir=args.checkpoint_dir,
                             compute_pairs=args.pairs)
    out = write_outputs(res, args.output)
    print(json.dumps({"output": out, **res.metrics}))
    return 0


def cmd_analyze(args) -> int:
    """Content-type + text stats over a documents/pages Parquet table."""
    import ray.data as rd

    from pcompress_ray.stages.textstats import content_type_batch, doc_stats_batch

    _init_ray(args.num_cpus)
    ds = rd.read_parquet(args.input)
    if "doc_id" not in ds.schema().names:
        import pyarrow as pa

        def add_id(t: pa.Table) -> pa.Table:
            import numpy as np
            t = t.replace_schema_metadata(None)
            return t.append_column(
                "doc_id", pa.array(np.arange(len(t), dtype=np.int64)))

        ds = ds.map_batches(add_id, batch_format="pyarrow")
    stats = ds.map_batches(doc_stats_batch, batch_format="pandas")
    ctypes = ds.map_batches(content_type_batch, batch_format="pandas")
    stats.write_parquet(args.output + "/doc_stats")
    ctypes.write_parquet(args.output + "/content_types")
    print(json.dumps({"output": args.output, "n_docs": stats.count()}))
    return 0


def cmd_archive(args) -> int:
    """Build the dedup-compressed archive (store/ + manifest/ + metrics)."""
    import ray.data as rd

    from pcompress_ray.config import PipelineConfig
    from pcompress_ray.pipelines.archive import archive_write, write_archive

    _init_ray(args.num_cpus)
    if getattr(args, "append", False):
        from pcompress_ray.pipelines.archive import archive_append

        inc = archive_append(args.output, rd.read_parquet(args.input),
                             PipelineConfig(), text_col=args.text_col)
        print(json.dumps({"output": args.output, **inc}))
        return 0
    pages = _ensure_rank(rd.read_parquet(args.input))
    res = archive_write(pages, PipelineConfig(), text_col=args.text_col,
                        near_dedup=args.near_dedup)
    out = write_archive(res, args.output)
    print(json.dumps({"output": out, **res.metrics}))
    return 0


def cmd_ingest(args) -> int:
    """WARC directory -> pages Parquet (url, warc_ts, html, text, rank).

    The front door of the pipeline: Common-Crawl-style .warc/.warc.gz
    files parsed file-per-task (sources/warc.py), text extracted with the
    byte-pure extractor, dense url-ordered rank assigned — output feeds
    `dedup` / `archive` / `spans` directly."""
    from pcompress_ray.sources.warc import read_warc_dir
    from pcompress_ray.stages.extract import Extractor

    _init_ray(args.num_cpus)
    pages = read_warc_dir(args.input)
    pages = pages.map_batches(Extractor(out_col="text"),
                              batch_format="pyarrow")
    pages = _ensure_rank(pages)
    pages.write_parquet(args.output)
    print(json.dumps({"output": args.output, "n_pages": pages.count()}))
    return 0


def cmd_spans(args) -> int:
    """Corpus-wide duplicate-span ops (the suffix-array substring stage):
    report coverage, excise duplicated spans (self or vs --against corpus),
    or run the winnowed anchor scan."""
    import ray.data as rd

    from pcompress_ray.stages.dupspans import (
        cross_span_excise, dup_span_anchors, dup_span_excise, dup_span_stats)

    _init_ray(args.num_cpus)
    ds = rd.read_parquet(args.input)
    if "doc_id" not in ds.schema().names:
        import numpy as np
        import pyarrow as pa

        from pcompress_ray.functions.ops import zip_with_rank

        ds = zip_with_rank(ds, "url").map_batches(
            lambda t: t.append_column(
                "doc_id", t["rank"].cast(pa.int64())),
            batch_format="pyarrow")

    if args.mode == "coverage":
        out = dup_span_stats(ds, L=args.length)
    elif args.mode == "excise":
        if args.against:
            out = cross_span_excise(ds, rd.read_parquet(args.against),
                                    L=args.length)
        else:
            out = dup_span_excise(ds, L=args.length)
    else:  # anchors
        out = dup_span_anchors(ds, L=args.length, w=args.window)
    out.write_parquet(args.output)
    n = rd.read_parquet(args.output).count()
    print(json.dumps({"output": args.output, "mode": args.mode,
                      "L": args.length, "n_rows": int(n)}))
    return 0


def cmd_restore(args) -> int:
    """Restore documents byte-identically from an archive directory."""
    from pcompress_ray.config import PipelineConfig
    from pcompress_ray.pipelines.archive import archive_restore, read_archive

    _init_ray(args.num_cpus)
    store, manifest, deltas = read_archive(args.input)
    restored = archive_restore(store, manifest, PipelineConfig(),
                               deltas_ds=deltas)
    restored.write_parquet(args.output)
    import pyarrow as pa
    import pyarrow.compute as pc

    def partial(t: pa.Table) -> pa.Table:
        ok = int(pc.sum(t["sha_ok"].cast(pa.int64())).as_py() or 0)
        return pa.table({"n": pa.array([len(t)], pa.int64()),
                         "ok": pa.array([ok], pa.int64())})

    import ray.data as rd

    s = rd.read_parquet(args.output) \
        .map_batches(partial, batch_format="pyarrow").to_pandas().sum()
    print(json.dumps({"output": args.output, "n_docs": int(s["n"]),
                      "n_sha_ok": int(s["ok"])}))
    return 0 if int(s["n"]) == int(s["ok"]) else 1


def cmd_scrub(args) -> int:
    """Line-level boilerplate scrub (CCNet/RefinedWeb tier): remove every
    line whose trimmed form occurs in >= --min-docs distinct documents,
    re-emitting the cleaned corpus (stages/rewrite.line_dedup_rewrite)."""
    import ray.data as rd

    from pcompress_ray.stages.rewrite import line_dedup_rewrite

    _init_ray(args.num_cpus)
    ds = rd.read_parquet(args.input)
    if "doc_id" not in ds.schema().names:
        import pyarrow as pa

        from pcompress_ray.functions.ops import zip_with_rank

        ds = zip_with_rank(ds, "url").map_batches(
            lambda t: t.append_column("doc_id", t["rank"].cast(pa.int64())),
            batch_format="pyarrow")
    out = line_dedup_rewrite(ds, min_docs=args.min_docs)
    out.write_parquet(args.output)
    import pandas as pd

    agg = rd.read_parquet(args.output).to_pandas()[["n_lines", "n_kept"]] \
        .sum()
    print(json.dumps({"output": args.output,
                      "n_lines": int(agg["n_lines"]),
                      "n_removed": int(agg["n_lines"] - agg["n_kept"])}))
    return 0


def cmd_schedule(args) -> int:
    """Crawl-frontier politeness schedule: per-host FIFO fetch rounds with
    at most --per-round URLs of a host per round (stages/crawl.py). The
    host is parsed from the url column when no host column exists."""
    import ray.data as rd

    from pcompress_ray.stages.crawl import crawl_schedule

    _init_ray(args.num_cpus)
    ds = rd.read_parquet(args.input)
    names = ds.schema().names
    if "host" not in names:
        import pandas as pd

        def add_host(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["host"] = (df["url"].astype(str)
                          .str.replace(r"^[a-zA-Z][a-zA-Z0-9+.-]*://", "",
                                       regex=True)
                          .str.split("/").str[0].str.lower())
            return df

        ds = ds.map_batches(add_host, batch_format="pandas")
    order_col = "doc_id" if "doc_id" in names else \
        ("rank" if "rank" in names else "url")
    out = crawl_schedule(ds, order_col=order_col, per_round=args.per_round)
    out.write_parquet(args.output)
    print(json.dumps({"output": args.output,
                      "n_urls": int(rd.read_parquet(args.output).count())}))
    return 0


def cmd_search(args) -> int:
    """BM25 top-k full-text search over a parquet corpus
    (stages/search.py; scores print as score_e6 integers)."""
    import ray.data as rd

    from pcompress_ray.stages.search import bm25_topk

    _init_ray(args.num_cpus)
    ds = rd.read_parquet(args.input)
    if "doc_id" not in ds.schema().names:
        import pyarrow as pa

        from pcompress_ray.functions.ops import zip_with_rank

        ds = zip_with_rank(ds, "url").map_batches(
            lambda t: t.append_column("doc_id", t["rank"].cast(pa.int64())),
            batch_format="pyarrow")
    out = bm25_topk(ds, args.terms, k=args.k).to_pandas()
    print(json.dumps({"terms": args.terms, "k": args.k,
                      "hits": out.to_dict("records")}))
    return 0


def cmd_curate(args) -> int:
    """End-to-end curation funnel: url dedup -> heuristics -> near-dup
    dedup -> line scrub [-> decontaminate] (pipelines/curate.py)."""
    import ray.data as rd

    from pcompress_ray.pipelines.curate import curate_pipeline

    _init_ray(args.num_cpus)
    pages = rd.read_parquet(args.input)
    bench = rd.read_parquet(args.benchmark) if args.benchmark else None
    res = curate_pipeline(pages, benchmark_ds=bench,
                          min_docs_line=args.min_docs_line,
                          checkpoint_dir=args.checkpoint_dir)
    res.curated.write_parquet(args.output)
    print(json.dumps({"output": args.output, "funnel": res.funnel}))
    return 0


def cmd_select(args) -> int:
    """DSIR data selection (stages/dsir.py): fit hashed-n-gram LMs on a
    target corpus vs the raw corpus, score every raw doc, Gumbel top-k
    resample, write the selected docs as parquet."""
    import ray.data as rd

    from pcompress_ray.functions.ops import hash_join
    from pcompress_ray.stages.dsir import (
        dsir_log_ratio_e6,
        dsir_resample,
        dsir_scores,
        fit_hashed_ngram_counts,
    )

    _init_ray(args.num_cpus)
    raw = rd.read_parquet(args.input, columns=[args.id_col, args.text_col])
    target = rd.read_parquet(args.target,
                             columns=[args.id_col, args.text_col])
    llr = dsir_log_ratio_e6(
        fit_hashed_ngram_counts(target, text_col=args.text_col),
        fit_hashed_ngram_counts(raw, text_col=args.text_col))
    scored = dsir_scores(raw, llr, id_col=args.id_col,
                         text_col=args.text_col)
    picked = dsir_resample(scored, k=args.k, id_col=args.id_col,
                           seed=args.seed)
    out = hash_join(raw, picked.select_columns([args.id_col, "score_e6"]),
                    left_on=args.id_col, right_on=args.id_col)
    out.write_parquet(args.output)
    print(json.dumps({"output": args.output, "k": args.k,
                      "seed": args.seed}))
    return 0


def cmd_reweight(args) -> int:
    """SoftDeDup reweighting (stages/softdedup.py): per-doc e6 sampling
    weights ∝ 1/dup_count^alpha over the normalized-exact tier, written
    as parquet (doc_id, dup_count, weight_e6, norm_weight_e6)."""
    import hashlib

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from pcompress_ray.stages.softdedup import soft_dedup_weights

    _init_ray(args.num_cpus)
    ds = rd.read_parquet(args.input, columns=[args.id_col, args.text_col])
    id_col, text_col = args.id_col, args.text_col

    def norm_md5(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        s = pc.fill_null(t[text_col], "")
        s = pc.ascii_lower(s)
        s = pc.replace_substring_regex(s, r"[ \t\r\n]+", " ")
        s = pc.utf8_trim(s, " ")
        h = [hashlib.md5(x.encode("utf-8")).hexdigest()
             for x in s.to_pylist()]
        return pa.table({id_col: t[id_col].cast(pa.int64()),
                         "norm_md5": pa.array(h, pa.string())})

    out = soft_dedup_weights(ds.map_batches(norm_md5, batch_format="pyarrow"),
                             "norm_md5", id_col=id_col, alpha=args.alpha)
    out.write_parquet(args.output)
    print(json.dumps({"output": args.output, "alpha": args.alpha}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="pcompress_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    d = sub.add_parser("dedup", help="near-dup detection + clustering")
    d.add_argument("--input", required=True)
    d.add_argument("--output", required=True)
    d.add_argument("--checkpoint-dir", default=None)
    d.add_argument("--locality-sort", action="store_true")
    d.add_argument("--pairs", action="store_true",
                   help="also emit the url-pair table")
    d.add_argument("--increment", action="store_true",
                   help="fold --input as NEW docs into the run checkpointed "
                        "at --checkpoint-dir (incremental dedup)")
    d.add_argument("--num-cpus", type=int, default=None)
    d.set_defaults(fn=cmd_dedup)

    a = sub.add_parser("analyze", help="content-type + text stats")
    a.add_argument("--input", required=True)
    a.add_argument("--output", required=True)
    a.add_argument("--num-cpus", type=int, default=None)
    a.set_defaults(fn=cmd_analyze)

    ar = sub.add_parser("archive", help="dedup-compressed archive build")
    ar.add_argument("--input", required=True)
    ar.add_argument("--output", required=True)
    ar.add_argument("--text-col", default="text")
    ar.add_argument("--near-dedup", action="store_true",
                    help="also store near-dup cluster members as similarity "
                         "deltas against their canonical")
    ar.add_argument("--append", action="store_true",
                    help="fold --input as NEW docs into the existing archive "
                         "at --output (only absent chunks are stored)")
    ar.add_argument("--num-cpus", type=int, default=None)
    ar.set_defaults(fn=cmd_archive)

    sp = sub.add_parser("spans", help="corpus-wide duplicate-span "
                                      "coverage/excision/anchor scan")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", required=True)
    sp.add_argument("--mode", choices=["coverage", "excise", "anchors"],
                    default="coverage")
    sp.add_argument("--length", type=int, default=50,
                    help="duplicated-span gram length L (chars)")
    sp.add_argument("--window", type=int, default=8,
                    help="winnowing window w (anchors mode)")
    sp.add_argument("--against", default=None,
                    help="excise mode: remove spans occurring in THIS "
                         "corpus (decontamination) instead of self-dedup")
    sp.add_argument("--num-cpus", type=int, default=None)
    sp.set_defaults(fn=cmd_spans)

    ing = sub.add_parser("ingest", help="WARC dir -> pages parquet "
                                        "(parse + extract + rank)")
    ing.add_argument("--input", required=True, help=".warc/.warc.gz directory")
    ing.add_argument("--output", required=True)
    ing.add_argument("--num-cpus", type=int, default=None)
    ing.set_defaults(fn=cmd_ingest)

    sc = sub.add_parser("scrub", help="line-level boilerplate removal")
    sc.add_argument("--input", required=True)
    sc.add_argument("--output", required=True)
    sc.add_argument("--min-docs", type=int, default=2)
    sc.add_argument("--num-cpus", type=int, default=None)
    sc.set_defaults(fn=cmd_scrub)

    sch = sub.add_parser("schedule", help="crawl politeness schedule")
    sch.add_argument("--input", required=True)
    sch.add_argument("--output", required=True)
    sch.add_argument("--per-round", type=int, default=4)
    sch.add_argument("--num-cpus", type=int, default=None)
    sch.set_defaults(fn=cmd_schedule)

    cu = sub.add_parser("curate", help="end-to-end corpus curation funnel")
    cu.add_argument("--input", required=True)
    cu.add_argument("--output", required=True)
    cu.add_argument("--benchmark", default=None,
                    help="parquet with a text column to decontaminate "
                         "against")
    cu.add_argument("--min-docs-line", type=int, default=2)
    cu.add_argument("--checkpoint-dir", default=None,
                    help="per-stage resumable checkpoints: a killed run "
                         "restarts at the last complete funnel stage")
    cu.add_argument("--num-cpus", type=int, default=None)
    cu.set_defaults(fn=cmd_curate)

    se = sub.add_parser("search", help="BM25 top-k full-text search")
    se.add_argument("--input", required=True)
    se.add_argument("--terms", nargs="+", required=True)
    se.add_argument("-k", type=int, default=10)
    se.add_argument("--num-cpus", type=int, default=None)
    se.set_defaults(fn=cmd_search)

    rs = sub.add_parser("restore", help="byte-identical archive restore")
    rs.add_argument("--input", required=True, help="archive dir (store/+manifest/)")
    rs.add_argument("--output", required=True)
    rs.add_argument("--num-cpus", type=int, default=None)
    rs.set_defaults(fn=cmd_restore)

    sel = sub.add_parser("select", help="DSIR importance-resampled "
                                        "data selection")
    sel.add_argument("input", help="raw corpus parquet")
    sel.add_argument("target", help="target-sample parquet")
    sel.add_argument("output", help="selected-docs parquet dir")
    sel.add_argument("-k", type=int, default=1000)
    sel.add_argument("--seed", type=int, default=0)
    sel.add_argument("--id-col", default="doc_id")
    sel.add_argument("--text-col", default="text")
    sel.add_argument("--num-cpus", type=int, default=None)
    sel.set_defaults(fn=cmd_select)

    rw = sub.add_parser("reweight", help="SoftDeDup duplication-aware "
                                         "sampling weights")
    rw.add_argument("input", help="corpus parquet")
    rw.add_argument("output", help="weights parquet dir")
    rw.add_argument("--alpha", type=int, default=1,
                    help="sharpness exponent (hard dedup = alpha->inf)")
    rw.add_argument("--id-col", default="doc_id")
    rw.add_argument("--text-col", default="text")
    rw.add_argument("--num-cpus", type=int, default=None)
    rw.set_defaults(fn=cmd_reweight)

    args = p.parse_args(argv)
    rc = args.fn(args)
    import ray

    if ray.is_initialized():
        ray.shutdown()
    return rc


if __name__ == "__main__":
    sys.exit(main())
