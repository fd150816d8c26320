"""Pipeline configuration.

Mirrors the reference's dedupe config surface (rabin/global/dedupe_config.c:191-358
key=value config; pcompress.c:3191-3762 CLI feature table) as a frozen dataclass.
All constants that define *semantics* (CDC polynomial, masks, shingle size,
MinHash permutation seed, LSH geometry) live here so that the Ray pipeline and
every test oracle share one source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
import hashlib
import json


# ---- Rabin CDC constants (reference: rabin/rabin_dedup.h:85-104) ----
RAB_POLYNOMIAL_CONST = 153191
POLY_MASK = 0xFFFFFFFFFF  # 40-bit
RAB_POLYNOMIAL_WIN_SIZE = 16
RAB_BLK_MIN_BITS = 11
RAB_BLK_MASK = ((1 << RAB_BLK_MIN_BITS) - 1) >> 1  # 0x3FF — fixed 10-bit break mask
FP_POLY = 0xBFE6B8A5BF378D83  # irreducible-poly bit pattern for the ir[] table
MAX_BLOCK_SIZE_GLOBAL = 64 * 1024  # rabin/rabin_dedup.h:94 (global dedupe path)


def rab_avg_block_size(rab_blk_sz: int) -> int:
    """RAB_BLK_AVG_SZ(x) = 1 << (x + 11) — rabin/rabin_dedup.h:96."""
    return 1 << (rab_blk_sz + RAB_BLK_MIN_BITS)


def rab_min_block_size(rab_blk_sz: int) -> int:
    """dedupe_min_blksz — rabin/rabin_dedup.c:119-126: avg − 1024."""
    return rab_avg_block_size(rab_blk_sz) - 1024


@dataclass(frozen=True)
class PipelineConfig:
    """Full configuration of the near-dup pipeline.

    The defaults target web-page text: 2 KB-average content-defined chunks
    (rab_blk_sz=0 — the smallest the reference supports), 5-token shingles,
    128-permutation MinHash, 32 bands × 4 rows LSH (candidate threshold
    ≈ (1/32)^(1/4) ≈ 0.42, i.e. recall ≥ 0.99 for Jaccard ≥ 0.7).
    """

    # CDC (reference constants; see module-level constants above)
    chunker: str = "rabin"                 # registry slot: "rabin" | "fixed" (-F)
    rab_blk_sz: int = 0                    # avg 2048, min 1024
    max_block_size: int = MAX_BLOCK_SIZE_GLOBAL
    chunk_hash_bits: int = 64              # truncated SHA-256 → uint64 shuffle key (M3)

    # Shingling / MinHash (document-level analog of M5/M6 K-min-values sketch)
    shingle_k: int = 5                     # tokens per shingle
    num_perm: int = 128                    # MinHash permutations
    minhash_seed: int = 0x9E3779B9

    # LSH banding (segment-similarity analog, rabin/rabin_dedup.c:921-994)
    lsh_bands: int = 32
    lsh_rows: int = 4                      # bands*rows must equal num_perm

    # Candidate generation skew control (SURVEY §4 "Skew")
    bucket_cap: int = 64                   # max docs per (band, hash) bucket before salting

    # Verification
    jaccard_threshold: float = 0.7         # operating threshold for near-dup edges
    kmv_k: int = 1024                      # bottom-k shingle hashes kept for exact-ish verify
    verify_broadcast_bytes: int = 8 << 30  # sketch-store budget before the join fallback
    substring_min_chunks: int = 1          # shared CDC chunks to call a substring dup
    substring_min_bytes: int = 2048        # shared chunk bytes to call a substring dup

    # Dedupe-gain gate (A3 analog, rabin/rabin_dedup.c:1250-1257): metrics
    # flag the run when dup_bytes / bytes_scanned falls below this ratio —
    # the signal the reference uses to abandon dedup as not worth the index.
    min_gain_ratio: float = 0.0

    # Stop-shingle (boilerplate) suppression for candidate generation:
    # shingles with document frequency ≥ this in a ~1k-doc sample are
    # excluded from banding (NOT from verification). 0 disables.
    stop_shingle_df: float = 0.5
    stop_shingle_sample: int = 1024

    # SimHash
    simhash_bits: int = 64
    simhash_hamming_threshold: int = 3

    # Locality sort (O4 analog, archive/pc_archive.c:640-700): one early
    # sort by (registered_domain, url) to co-locate likely duplicates
    # before the chunk/band shuffles. Execution knob — does not change
    # results (parallelism-invariance holds either way).
    locality_sort: bool = False

    # Archive (M10/M11 analogs — pipelines/archive.py): adaptive per-chunk
    # codec selection mirrors adaptive_compress.c:324-430 over the stdlib
    # codecs; a chunk whose compressed form is not smaller is stored raw
    # ("none" — the LZ4-for-incompressible slot + the per-chunk gain gate).
    # zlib default for BOTH types: at CDC chunk sizes (~2 KB) measured
    # zlib-6 beats lzma-p1 on ratio (0.49 vs 0.57 — lzma's ~60 B container
    # overhead dominates small payloads) AND speed (33 vs 6 MB/s); pick
    # lzma/bz2 for large-chunk configs (rab_blk_sz ≥ 3) where they win.
    archive_codec_text: str = "zlib"
    archive_codec_binary: str = "zlib"
    archive_lzma_preset: int = 1           # throughput preset (knob, not semantics)
    archive_store_buckets: int = 64        # chunk-store hash partitions (resume unit)
    # preprocessing filters (reference level>4 chain, pcompress.c:3698-3741):
    # "delta2" (strided-RLE, vectorized — tried on BINARY chunks, kept only
    # when the final payload shrinks) on by default; "lzp" is per-byte
    # Python — a cold-archive ratio option, off by default.
    archive_filters: tuple = ("delta2",)

    # Execution
    batch_size: int = 256                  # rows per batch for heavy text stages
    cc_driver_edge_limit: int = 5_000_000  # ≤ this many edges → driver union-find

    def __post_init__(self):
        if self.lsh_bands * self.lsh_rows != self.num_perm:
            raise ValueError("lsh_bands * lsh_rows must equal num_perm")

    @classmethod
    def for_threshold(cls, threshold, num_perm: int = 128, **overrides):
        """Config with (lsh_bands, lsh_rows) chosen by the S-curve
        planner (stages/lshplan.py) for a target candidate threshold —
        restricted to exact factorizations b·r == num_perm (the
        signature matrix reshapes by (bands, rows), so partial use of
        the permutations is not supported). for_threshold(0.5) returns
        the 32×4 default; a deployment targeting looser or tighter
        near-dup semantics gets the matching banding automatically."""
        from fractions import Fraction

        from pcompress_ray.stages.lshplan import plan_bands

        # Snap to the planner's grid=100 so t*grid is always an integer:
        # limit_denominator(100) can return e.g. 1/3, which misaligns
        # (t*grid = 100/3) and made plan_bands raise for common
        # thresholds. Clamp to (0, 1) exclusive so the S-curve step
        # function is non-degenerate.
        t = Fraction(round(Fraction(threshold) * 100), 100)
        t = min(max(t, Fraction(1, 100)), Fraction(99, 100))
        plan = plan_bands(num_perm, t)
        best_b = best_r = None
        best_err = None
        for b, r, used, err in zip(plan["bands"].to_pylist(),
                                   plan["rows"].to_pylist(),
                                   plan["perms_used"].to_pylist(),
                                   plan["err_e12"].to_pylist()):
            if used != num_perm:
                continue
            if best_err is None or err < best_err:
                best_b, best_r, best_err = b, r, err
        return cls(num_perm=num_perm, lsh_bands=best_b, lsh_rows=best_r,
                   **overrides)

    @property
    def avg_block_size(self) -> int:
        return rab_avg_block_size(self.rab_blk_sz)

    @property
    def min_block_size(self) -> int:
        return rab_min_block_size(self.rab_blk_sz)

    def config_hash(self) -> str:
        """Stable hash of semantic config — used to key checkpoints."""
        d = asdict(self)
        # deleted fields stay in the hashed JSON with the value they had
        # (None for the execution-only ones, 2048 for the pair cap that no
        # default bucket could reach), so the hash — and every existing
        # checkpoint key — is unchanged
        d["sig_concurrency"] = None
        d["sig_use_actors"] = None
        d["max_pairs_per_bucket"] = 2048
        d["join_buckets"] = None
        d["batch_size"] = None  # execution-only knobs excluded
        d["cc_driver_edge_limit"] = None
        d["verify_broadcast_bytes"] = None
        d["min_gain_ratio"] = None
        d["locality_sort"] = None
        # archive knobs key archive outputs, not dedup checkpoints
        for k in ("archive_codec_text", "archive_codec_binary",
                  "archive_lzma_preset", "archive_store_buckets",
                  "archive_filters"):
            d[k] = None
        s = json.dumps(d, sort_keys=True, default=str)
        return hashlib.sha256(s.encode()).hexdigest()[:16]


DEFAULT_CONFIG = PipelineConfig()
