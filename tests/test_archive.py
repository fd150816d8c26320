"""Dedup-compressed archive: byte-identical round-trip, dedup gain,
adaptive codec selection, disk persistence (M10/M11/A3/A4 analogs —
reference decode path rabin/rabin_dedup.c:1552-1723)."""

from __future__ import annotations

import numpy as np
import pytest

N_DOCS = 300
SEED = 7


# ---- pure-kernel tests (no Ray) ------------------------------------------

def test_codec_wrappers_roundtrip():
    from pcompress_ray.stages.compress import compress_chunk, decompress_chunk

    data = (b"the quick brown fox " * 200)[:3333]
    for codec in ("none", "zlib", "bz2", "lzma"):
        assert decompress_chunk(compress_chunk(data, codec), codec) == data


def test_adaptive_selection_and_gain_gate():
    from pcompress_ray.stages.compress import is_text_chunk, select_and_compress

    text = ("lorem ipsum dolor sit amet " * 100).encode()
    rng = np.random.default_rng(0)
    binary = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
    assert is_text_chunk(text) and not is_text_chunk(binary)

    codec, payload = select_and_compress(text, "lzma", "zlib")
    assert codec == "lzma" and len(payload) < len(text)

    # high-entropy bytes: routed to the binary codec, then the gain gate
    # stores raw because zlib cannot shrink them (the LZ4-slot analog)
    codec, payload = select_and_compress(binary, "lzma", "zlib")
    assert codec == "none" and payload == binary

    codec, payload = select_and_compress(b"x", "lzma", "zlib")
    assert codec == "none" and payload == b"x"  # tiny chunk: overhead > gain


def test_codec_registry_slot():
    from pcompress_ray.registry import names, resolve
    from pcompress_ray.config import PipelineConfig

    assert set(names("codec")) == {"none", "zlib", "bz2", "lzma"}
    comp, decomp = resolve("codec", "bz2")(PipelineConfig())
    assert decomp(comp(b"abc" * 100)) == b"abc" * 100


# ---- pipeline tests -------------------------------------------------------

@pytest.fixture(scope="module")
def pages_and_archive(ray_session):
    import ray.data as rd

    from pcompress_ray.config import PipelineConfig
    from pcompress_ray.pipelines.archive import archive_write
    from pcompress_ray.sources.corpus import make_corpus

    pages, _, _ = make_corpus(N_DOCS, SEED, with_oracle=False)
    pages_ds = rd.from_arrow(pages)
    cfg = PipelineConfig()
    res = archive_write(pages_ds, cfg, text_col="text")
    return pages, res, cfg


def test_archive_dedup_gain(pages_and_archive):
    _, res, cfg = pages_and_archive
    m = res.metrics
    assert m["n_docs"] == N_DOCS
    assert m["n_unique_chunks"] < m["n_chunks"]     # planted exact dups dedup
    assert m["dedup_gain_bytes"] > 0
    assert m["stored_bytes"] < m["unique_bytes"]    # text compresses
    assert m["overall_ratio"] > m["dedup_ratio"] > 1.0
    assert res.store.count() == m["n_unique_chunks"]
    assert sum(m["codec_chunks"].values()) == m["n_unique_chunks"]
    # a web-text corpus routes overwhelmingly to the text codec
    assert m["codec_chunks"].get(cfg.archive_codec_text, 0) > 0


def test_archive_restore_byte_identical(pages_and_archive):
    from pcompress_ray.pipelines.archive import archive_restore

    pages, res, cfg = pages_and_archive
    restored = archive_restore(res.store, res.manifest, cfg).to_pandas()
    assert len(restored) == N_DOCS
    assert restored["sha_ok"].all()
    restored = restored.sort_values("rank").reset_index(drop=True)
    orig = pages.to_pandas().sort_values("url").reset_index(drop=True)
    assert (restored["url"].to_numpy() == orig["url"].to_numpy()).all()
    assert (restored["text"].to_numpy() == orig["text"].to_numpy()).all()


def test_archive_disk_roundtrip(pages_and_archive, tmp_path):
    from pcompress_ray.pipelines.archive import (archive_restore, read_archive,
                                                 write_archive)

    pages, res, cfg = pages_and_archive
    out = write_archive(res, str(tmp_path / "arch"))
    store, manifest, deltas = read_archive(out)
    assert deltas is None                      # plain (non-near-dedup) archive
    assert store.count() == res.metrics["n_unique_chunks"]
    restored = archive_restore(store, manifest, cfg).to_pandas()
    assert len(restored) == N_DOCS and restored["sha_ok"].all()


def test_archive_near_dedup_roundtrip(pages_and_archive, ray_session, tmp_path):
    """Similarity layer end-to-end: clusters from the real dedup pipeline,
    non-canonical members stored as deltas, every doc restored
    byte-identically (reference similarity-ref decode,
    rabin/rabin_dedup.c:1678-1708)."""
    import ray.data as rd

    from pcompress_ray.functions.ops import zip_with_rank
    from pcompress_ray.pipelines.archive import (archive_restore, archive_write,
                                                 read_archive, write_archive)

    pages, plain, cfg = pages_and_archive
    pages_ds = zip_with_rank(rd.from_arrow(pages), "url").materialize()
    res = archive_write(pages_ds, cfg, text_col="text", near_dedup=True)
    m = res.metrics
    assert m["n_delta_docs"] > 0                 # planted near-dups delta-store
    assert m["n_docs"] == N_DOCS                 # manifest covers ALL docs
    assert res.deltas.count() == m["n_delta_docs"]

    out = write_archive(res, str(tmp_path / "arch_nd"))
    store, manifest, deltas = read_archive(out)
    assert deltas is not None
    restored = archive_restore(store, manifest, cfg, deltas_ds=deltas) \
        .to_pandas()
    assert len(restored) == N_DOCS
    assert restored["sha_ok"].all()
    restored = restored.sort_values("rank").reset_index(drop=True)
    orig = pages.to_pandas().sort_values("url").reset_index(drop=True)
    assert (restored["text"].to_numpy() == orig["text"].to_numpy()).all()


def test_archive_append_incremental(ray_session, tmp_path):
    """Append-only increment: chunks already in the store are never
    re-stored (global index reuse analog, rabin/global/index.c:511);
    old + new docs restore byte-identically from the same directory."""
    _check_append(tmp_path, legacy_layout=False)


def test_archive_append_legacy_layout(ray_session, tmp_path):
    """An archive whose metrics name no store bucket count (written before
    the bucketed layout) appends through the exclusion exchange against
    the whole old store, with the same outcome."""
    _check_append(tmp_path, legacy_layout=True)


def test_archive_append_fewer_partitions_than_buckets(ray_session, tmp_path,
                                                      monkeypatch):
    """The bucketed append stores the same new chunks and restores the same
    text when its exchange runs one partition holding all 64 store buckets
    as when it runs one partition per bucket: a partition reads the old
    hashes of every bucket its rows fall in."""
    from pcompress_ray.functions import ops

    monkeypatch.setattr(ops, "_PART_BYTES", 1)  # P = archive_store_buckets
    want = _check_append(tmp_path / "p64", legacy_layout=False)
    monkeypatch.setattr(ops, "_PART_BYTES", 1 << 40)  # P = 1
    assert _check_append(tmp_path / "p1", legacy_layout=False) == want


def _check_append(tmp_path, legacy_layout: bool):
    """Write, append and restore; returns (new unique chunks, the restored
    text by url)."""
    import glob
    import json
    import os

    import pyarrow as pa
    import ray.data as rd

    from pcompress_ray.config import PipelineConfig
    from pcompress_ray.pipelines.archive import (archive_append, archive_restore,
                                                 archive_write, read_archive,
                                                 write_archive)
    from pcompress_ray.sources.corpus import make_corpus

    cfg = PipelineConfig()
    pages_a, _, _ = make_corpus(150, SEED, with_oracle=False)
    out = write_archive(
        archive_write(rd.from_arrow(pages_a), cfg, text_col="text"),
        str(tmp_path / "arch_inc"))
    n_store_a = read_archive(out)[0].count()
    if legacy_layout:
        metrics_path = os.path.join(out, "metrics.json")
        with open(metrics_path) as f:
            metrics = json.load(f)
        del metrics["store_buckets"]
        with open(metrics_path, "w") as f:
            json.dump(metrics, f)

    # batch B: 40 exact copies of A texts (new urls) + 60 fresh docs
    fresh, _, _ = make_corpus(60, 1234, with_oracle=False)
    pages_b = pa.table({
        "url": pa.array([f"copy://{i:06d}" for i in range(40)]
                        + [f"new://{u}" for u in fresh["url"].to_pylist()],
                        pa.string()),
        "text": pa.array(pages_a["text"].to_pylist()[:40]
                         + fresh["text"].to_pylist(), pa.string()),
    })
    inc = archive_append(out, rd.from_arrow(pages_b), cfg, text_col="text")
    assert inc["n_new_docs"] == 100

    store, manifest, deltas = read_archive(out)
    n_appended = store.count() - n_store_a
    # copies contribute no new chunks; only the fresh docs' uniques append
    assert 0 < n_appended == inc["n_new_unique_chunks"]

    restored = archive_restore(store, manifest, cfg, deltas_ds=deltas) \
        .to_pandas()
    assert len(restored) == 250
    assert restored["sha_ok"].all()
    by_url = dict(zip(restored["url"], restored["text"]))
    for i, txt in enumerate(pages_a["text"].to_pylist()[:40]):
        assert by_url[f"copy://{i:06d}"] == txt
    for u, txt in zip(fresh["url"].to_pylist(), fresh["text"].to_pylist()):
        assert by_url[f"new://{u}"] == txt

    # O(increment) layout: the store is bucket-partitioned on disk
    assert glob.glob(os.path.join(out, "store", "bucket=*"))

    # idempotency: re-running the SAME committed append is a no-op (urls
    # already in the manifest are anti-filtered) — no doubled piece lists
    inc2 = archive_append(out, rd.from_arrow(pages_b), cfg, text_col="text")
    assert inc2["n_new_docs"] == 0
    assert inc2["n_skipped_existing_urls"] == 100
    store2, manifest2, deltas2 = read_archive(out)
    restored2 = archive_restore(store2, manifest2, cfg, deltas_ds=deltas2) \
        .to_pandas()
    assert len(restored2) == 250
    assert restored2["sha_ok"].all()
    return inc["n_new_unique_chunks"], by_url


def test_archive_empty_and_single_docs(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from pcompress_ray.config import PipelineConfig
    from pcompress_ray.pipelines.archive import archive_restore, archive_write

    pages = pa.table({
        "url": pa.array(["u://a", "u://b", "u://c"], pa.string()),
        "text": pa.array(["", "short one", "z" * 5000], pa.string()),
    })
    cfg = PipelineConfig()
    res = archive_write(rd.from_arrow(pages), cfg, text_col="text")
    restored = archive_restore(res.store, res.manifest, cfg).to_pandas() \
        .sort_values("url").reset_index(drop=True)
    assert restored["sha_ok"].all()
    assert list(restored["text"]) == ["", "short one", "z" * 5000]


def test_restore_quarantines_corrupt_chunk(pages_and_archive, ray_session):
    """End-to-end store corruption (reference analog: decompress-verify,
    pcompress.c:519-615): flip bytes inside ONE stored chunk's compressed
    payload — the restore must complete, every other doc verify clean, and
    exactly the docs referencing the poisoned chunk report sha_ok=False
    (quarantine, not a dead 100-TB job)."""
    import pyarrow as pa

    import ray.data as rd

    from pcompress_ray.pipelines.archive import archive_restore

    pages, res, cfg = pages_and_archive
    store = res.store.to_pandas()
    # poison the largest compressed chunk (guaranteed non-"none" codec)
    comp = store[store["codec"] != "none"]
    victim = comp.loc[comp["payload"].str.len().idxmax(), "chunk_hash"]
    def poison(p):
        b = bytearray(p)
        for i in range(min(8, len(b))):
            b[len(b) // 2 + i] ^= 0xFF
        return bytes(b)
    store.loc[store["chunk_hash"] == victim, "payload"] = \
        store.loc[store["chunk_hash"] == victim, "payload"].map(poison)
    bad_store = rd.from_arrow(pa.Table.from_pandas(store,
                                                   preserve_index=False))
    restored = archive_restore(bad_store, res.manifest, cfg).to_pandas()
    assert len(restored) == len(pages)
    # which docs reference the poisoned chunk?
    mani = res.manifest.to_pandas()
    bad_ranks = {int(r) for r, hs in zip(mani["rank"], mani["chunk_hashes"])
                 if victim in list(hs)}
    assert bad_ranks, "victim chunk must be referenced"
    got_bad = set(restored.loc[~restored["sha_ok"], "rank"].astype(int))
    assert got_bad == bad_ranks
