"""The signature scan: the raw-task ``build_signatures`` and the block-round
``compute_stop_shingles`` give what the in-process stages give, on every
input layout, and the batch kernels equal their per-doc references."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from pcompress_ray.config import PipelineConfig
from pcompress_ray.hashing import simhash, token_hashes_bytes, utf8_column_buffer
from pcompress_ray.sources.corpus import make_corpus
from pcompress_ray.stages.signatures import (batch_simhash, doc_shingles,
                                             shingle_sets)

CFG = PipelineConfig()
# empty, blank, one token, shorter than a shingle, exactly one shingle,
# non-ASCII, null
EDGE_TEXTS = ["", "   ", "solo", "one two", "a b c d", "a b c d e",
              "ÄÖÜ ünïcödé tokens here and there", None]


def _bench_texts(n: int = 300) -> list:
    from pcompress_ray.stages.extract import Extractor

    pages, _, _ = make_corpus(n, 3)
    return Extractor()(pages)["text_norm"].to_pylist() + EDGE_TEXTS


def _pages(n: int = 300) -> pa.Table:
    pages, _, _ = make_corpus(n, 5)
    return pages.append_column("rank", pa.array(np.arange(n), pa.int64()))


def test_shingle_sets_and_simhash_match_per_doc_references():
    texts = _bench_texts()
    th_all, counts, sets = shingle_sets(pa.array(texts, pa.string()),
                                        CFG.shingle_k)
    sims = batch_simhash(th_all, counts)
    ends = np.cumsum(counts)
    assert len(sets) == len(sims) == len(texts)
    for i, txt in enumerate(texts):
        ref = doc_shingles(txt or "", CFG.shingle_k)
        assert sets[i].dtype == np.uint64 and np.array_equal(sets[i], ref)
        th = th_all[ends[i] - counts[i]:ends[i]]
        assert int(sims[i]) == simhash(th), i
    assert counts[-8:-6].tolist() == [0, 0] and counts[-1] == 0
    empty = shingle_sets(pa.array([], pa.string()), CFG.shingle_k)
    assert empty[2] == [] and batch_simhash(empty[0], empty[1]).size == 0


def test_split_power_tables_equal_full_cumprod_and_ship_nothing(ray_session):
    from ray import cloudpickle

    import pcompress_ray
    from pcompress_ray import hashing
    from pcompress_ray.pipelines.dedup import _scan_task

    pcompress_ray.register_for_ray()
    for base in (hashing._POLY_M, hashing._POLY_M_INV):
        for n in (1, 4095, 4096, 4097, 3 * 4096 + 5, (1 << 20) + 3):
            hi, lo = hashing._pow_split(base, n)
            i = np.arange(n)
            assert np.array_equal(hi[i >> hashing._POW_BITS] * lo[i & 4095],
                                  hashing._powers(base, n)), n
    # tokenizing 1 MB in the driver leaves nothing behind that a task ships
    size = len(cloudpickle.dumps(_scan_task(CFG, None)))
    rng = np.random.default_rng(0)
    big = rng.integers(32, 123, 1 << 20).astype(np.uint8)
    token_hashes_bytes(big, np.array([0, big.size], np.int64))
    assert len(cloudpickle.dumps(_scan_task(CFG, None))) == size


def test_tokenizer_passes_equal_one_pass(monkeypatch):
    from pcompress_ray import hashing

    buf, offs = utf8_column_buffer(pa.array(_bench_texts(60) * 3, pa.string()))
    whole = hashing._token_pass(buf.copy(), offs)
    assert whole[0].size > 1000
    for seg in (1, 100, 4096, buf.size - 1, buf.size):
        monkeypatch.setattr(hashing, "_TOK_SEG", seg)
        got = token_hashes_bytes(buf.copy(), offs)
        for a, b in zip(got, whole):
            assert a.dtype == b.dtype and np.array_equal(a, b), seg


def _reference(pages: pa.Table, cfg: PipelineConfig, stop=None) -> pa.Table:
    """The scan's stages run in this process over the whole table."""
    import ray

    from pcompress_ray.pipelines.dedup import SIG_COLUMNS
    from pcompress_ray.registry import resolve
    from pcompress_ray.stages.exact import add_text_sha
    from pcompress_ray.stages.extract import Extractor
    from pcompress_ray.stages.signatures import SignatureStage

    stage = SignatureStage(cfg, stop_ref=None if stop is None
                           else ray.put(stop))
    chunker = resolve("chunker", cfg.chunker)(cfg)
    out = stage(chunker(add_text_sha(Extractor()(pages))))
    return out.select(SIG_COLUMNS).sort_by("rank")


def _scan(ds, cfg, stop=None):
    import ray

    from pcompress_ray.pipelines.dedup import build_signatures

    return build_signatures(ds, cfg, stop_ref=None if stop is None
                            else ray.put(stop)).materialize()


def _blocks(ds) -> list:
    import ray

    from pcompress_ray.functions.ops import materialized_block_refs

    return ray.get(materialized_block_refs(ds))


@pytest.mark.parametrize("layout", ["from_arrow", "repartition", "parquet",
                                    "one_byte_cap"])
def test_build_signatures_equals_in_process_stages(ray_session, tmp_path,
                                                    monkeypatch, layout):
    import ray.data as rd
    import pyarrow.parquet as pq

    import pcompress_ray
    from pcompress_ray.functions import ops
    from pcompress_ray.pipelines.dedup import SIG_COLUMNS
    from pcompress_ray.stages.signatures import compute_stop_shingles

    pcompress_ray.register_for_ray()
    cfg = PipelineConfig(batch_size=64)
    pages = _pages()
    if layout == "from_arrow":
        ds = rd.from_arrow(pages)
    elif layout == "parquet":
        for i in range(0, len(pages), 50):
            pq.write_table(pages.slice(i, 50), tmp_path / f"p{i:04d}.parquet")
        ds = rd.read_parquet(str(tmp_path))
    else:
        ds = rd.from_arrow(pages).repartition(8)
        if layout == "one_byte_cap":
            monkeypatch.setattr(ops, "_inflight_cap", lambda: 1)
    stop = compute_stop_shingles(ds, cfg)
    assert stop.size
    sig = _scan(ds, cfg, stop)
    got = pa.concat_tables(_blocks(sig)).sort_by("rank")
    want = _reference(pages, cfg, stop)
    assert got.column_names == SIG_COLUMNS
    assert got["rank"].to_pylist() == list(range(len(pages)))
    assert got.equals(want)
    # consecutive blocks are grouped to at least batch_size rows each
    rows = [len(b) for b in _blocks(sig)]
    assert all(r >= cfg.batch_size for r in rows[:-1])
    if layout != "from_arrow":
        assert len(rows) < ds.materialize().num_blocks()


def test_scan_skips_empty_blocks_and_types_an_empty_result(ray_session,
                                                           monkeypatch):
    import ray
    import ray.data as rd

    import pcompress_ray
    from pcompress_ray.functions import ops
    from pcompress_ray.pipelines.dedup import SIG_COLUMNS

    pcompress_ray.register_for_ray()
    cfg = PipelineConfig(batch_size=16)
    pages = _pages(160)
    submitted: list = []
    orig = ops.bounded_submit

    def counting_submit():
        submit = orig()

        def wrapped(nbytes, task, *blocks):
            submitted.append(ray.get(list(blocks)))
            return submit(nbytes, task, *blocks)
        return wrapped

    monkeypatch.setattr(ops, "bounded_submit", counting_submit)
    # ranks < 30 sit in the first blocks; the filter leaves the rest empty
    ds = rd.from_arrow(pages).repartition(8).filter(lambda r: r["rank"] < 30)
    assert 0 in [len(b) for b in _blocks(ds.materialize())]
    sig = _scan(ds, cfg)
    assert submitted and all(len(b) for grp in submitted for b in grp)
    blocks = _blocks(sig)
    assert all(b.column_names == SIG_COLUMNS and len(b) for b in blocks)
    assert pa.concat_tables(blocks).sort_by("rank").equals(
        _reference(pages.slice(0, 30), cfg))

    submitted.clear()
    for none in (rd.from_arrow(pages).filter(lambda r: False),
                 rd.from_arrow(pages).repartition(4)
                 .filter(lambda r: r["rank"] < 0)):
        sig = _scan(none, cfg)
        assert not submitted
        assert sig.count() == 0
        assert sig.schema().names == SIG_COLUMNS
        empty = pa.concat_tables(_blocks(sig))
        assert empty.schema.field("band_hashes").type == pa.list_(pa.uint64())
        assert empty.schema.field("kmv").type == pa.binary()


def test_stop_shingles_equal_per_doc_reference(ray_session):
    import ray.data as rd

    import pcompress_ray
    from pcompress_ray.stages.extract import Extractor
    from pcompress_ray.stages.signatures import compute_stop_shingles

    pcompress_ray.register_for_ray()
    k = CFG.shingle_k

    def per_doc(texts: list, df: float) -> np.ndarray:
        sets = [doc_shingles(t or "", k) for t in texts]
        vals, cnts = np.unique(np.concatenate(sets), return_counts=True)
        return vals[cnts >= df * len(texts)]

    pages = _pages(1200)
    texts = Extractor()(pages.slice(0, 1024))["text_norm"].to_pylist()
    want = per_doc(texts, 0.5)
    assert want.size
    for ds in (rd.from_arrow(pages), rd.from_arrow(pages).repartition(9)):
        got = compute_stop_shingles(ds, CFG, 1024, 0.5)
        assert got.dtype == np.uint64 and np.array_equal(got, want)

    # edge rows (text only, so no extraction), a low threshold so that
    # shingles of short docs count
    edge = pa.table({"url": [f"e{i}" for i in range(len(EDGE_TEXTS) * 3)],
                     "text": EDGE_TEXTS * 3})
    from pcompress_ray.stages.extract import normalize_text

    norm = [normalize_text(t) for t in edge["text"].to_pylist()]
    want = per_doc(norm, 0.1)
    assert want.size
    got = compute_stop_shingles(rd.from_arrow(edge).repartition(5), CFG,
                                len(norm), 0.1)
    assert np.array_equal(got, want)
    assert compute_stop_shingles(
        rd.from_arrow(edge).filter(lambda r: False), CFG).size == 0
