"""Rabin content-defined chunking (CDC), vectorized.

Reimplements the semantics of the reference chunker
(rabin/rabin_dedup.c:616-714; constants rabin/rabin_dedup.h:85-104):

- rolling polynomial hash over a 16-byte window:
  ``h_i = sum_{k=0..15} b[i-k] * C^k  mod 2^40`` with C=153191
  (the reference maintains this incrementally:
  ``h = (h*C + in - out[pushed_out]) & POLY_MASK`` where
  ``out[j] = j*C^16 & POLY_MASK``),
- break test ``(h_i ^ ir[b[i-16]]) & RAB_BLK_MASK == 0`` where ``ir[]`` is
  the irreducible-polynomial table built from FP_POLY
  (rabin/rabin_dedup.c:186-208) and RAB_BLK_MASK is the fixed 10-bit mask,
- a new block may only end once it has at least ``min_block_size = avg-1024``
  bytes (dedupe_min_blksz, rabin/rabin_dedup.c:119-126) and is force-cut at
  ``max_block_size`` (64 KiB in the global-dedupe path),
- the trailing remainder always becomes a final block
  (rabin/rabin_dedup.c:716-757).

Divergence from the reference, by design (documented per SURVEY §7.1): the
reference's window-slide optimization starts rolling at ``min-64`` with a
stale window carried across cuts (rabin/rabin_dedup.c:619-621, 712-713),
which makes boundaries depend on scan history. Here the window hash at
position i is always the true hash of bytes [i-15..i] (window pre-filled
with zeros for i<15), so boundaries are a pure function of content — the
property the parallelism-invariance tests rely on. Constants and the
min/max/greedy cut discipline are identical.

The vectorized kernel computes all candidate break positions with ~20 numpy
passes over the buffer, then a greedy scan over the (sparse, ~1/1024)
candidates applies min/max sizing. A pure-Python oracle with the identical
spec lives in ``cut_points_slow`` for unit tests.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from pcompress_ray.config import (
    FP_POLY,
    POLY_MASK,
    RAB_BLK_MASK,
    RAB_POLYNOMIAL_CONST,
    RAB_POLYNOMIAL_WIN_SIZE,
    PipelineConfig,
)

U64 = np.uint64
_WIN = RAB_POLYNOMIAL_WIN_SIZE


def _build_tables():
    """Precompute out[]/ir[] byte tables exactly as rabin/rabin_dedup.c:186-208."""
    C = RAB_POLYNOMIAL_CONST
    poly_pow = 1
    for _ in range(_WIN):
        poly_pow = (poly_pow * C) & POLY_MASK
    out = np.zeros(256, dtype=U64)
    ir = np.zeros(256, dtype=U64)
    for j in range(256):
        out[j] = (j * poly_pow) & POLY_MASK
        term = 1
        pow_ = 1
        val = 1
        for _ in range(_WIN):
            if term & FP_POLY:
                val = (val + ((pow_ * j) & POLY_MASK)) & 0xFFFFFFFFFFFFFFFF
            pow_ = (pow_ * C) & POLY_MASK
            term <<= 1
        ir[j] = val
    # power-of-C weights for the direct window-hash convolution:
    # h_i = sum_k b[i-k] * C^k mod 2^40
    pows = np.zeros(_WIN, dtype=U64)
    p = 1
    for k in range(_WIN):
        pows[k] = p
        p = (p * C) & POLY_MASK
    return out, ir, pows


_OUT_TAB, _IR_TAB, _POW = _build_tables()
_POLY_MASK_U = U64(POLY_MASK)
_BREAK_MASK_U = U64(RAB_BLK_MASK)


def _scratch(name: str, n: int, dtype) -> np.ndarray:
    """Kernel temporary. Deliberately a PLAIN allocation: this module is
    registered pickle-by-value for Ray workers, so any module-global buffer
    pool is re-serialized into task specs (shipping the driver's populated
    buffers) and reconstructed per task — measured 5x SLOWER than malloc
    (67.7s vs 14.1s for the 20k-doc signature phase). The worker process's
    malloc arena already recycles these same-sized virtual pages across
    batches, so first-touch page faults are paid once per worker anyway."""
    return np.empty(int(n), dtype)


# bytes per candidate pass. A pass holds ~17 bytes of temporaries per byte
# (two uint64 lanes and the pushed-out bytes): a whole 3 MB batch in one pass
# was a worker's largest allocation (~55 MB), and 64 KiB segments stay in
# cache (3.2 MB of random bytes: 44 ms in one pass, 18 ms in 64 KiB
# segments, 30 ms in 1 MiB segments)
_SEG = 1 << 16


def candidate_positions(data: bytes | np.ndarray) -> np.ndarray:
    """All positions i where the rolling-hash break test fires (ignoring min/max).

    A position i means "a block may end at byte i" (block boundary after i,
    matching the reference's ``last_offset = i+1``). The test at i reads
    only bytes i-16..i, so the buffer is scanned in ``_SEG``-byte segments,
    each with the 16 bytes before it as context.
    """
    b = np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray)) else data
    out = [_segment_candidates(b[:_SEG])]
    for s in range(_SEG, b.shape[0], _SEG):
        c = _segment_candidates(b[s - _WIN : s + _SEG])
        out.append(c[c >= _WIN] + (s - _WIN))
    return np.concatenate(out)


def _segment_candidates(b: np.ndarray) -> np.ndarray:
    """``candidate_positions`` of one segment, zero bytes before it."""
    n = b.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    h = _scratch("cdc_h", n, U64)
    np.copyto(h, b, casting="unsafe")
    tmp = _scratch("cdc_tmp", n, U64)
    # windowed polynomial hash h(i) = sum_k b[i-k] * C^k (k < 16, i-k >= 0)
    # by window DOUBLING: h_{2w}(i) = h_w(i) + C^w * h_w(i-w) — 4 shifted
    # multiply-adds instead of 16 (measured ~2.5x on the whole kernel).
    # No intermediate masking: the modulus 2^40 divides 2^64, so natural
    # uint64 wraparound of every product/sum is exact mod 2^40; one mask at
    # the end. Zero-padding for i < w is implicit (the recurrences only add
    # terms with i-w >= 0), matching the reference's zero-filled window.
    cw = U64(RAB_POLYNOMIAL_CONST)
    w = 1
    while w < min(_WIN, n):
        np.multiply(h[: n - w], cw, out=tmp[: n - w])
        h[w:] += tmp[: n - w]
        cw = U64((int(cw) * int(cw)) & 0xFFFFFFFFFFFFFFFF)  # C^(2w) mod 2^64
        w *= 2
    h &= _POLY_MASK_U
    # pushed-out byte at position i is b[i-16] (zero when the window isn't full)
    pushed = _scratch("cdc_pushed", n, np.uint8)
    pushed[:_WIN] = 0
    if n > _WIN:
        pushed[_WIN:] = b[:-_WIN]
    # mode="clip" is a no-op for uint8 indices into a 256-entry table but
    # selects numpy's fast gather; the default mode="raise" with out= takes
    # the buffered-iterator path (measured 15-20x slower on 20M elements)
    np.take(_IR_TAB, pushed, out=tmp, mode="clip")
    np.bitwise_xor(h, tmp, out=h)
    h &= _BREAK_MASK_U
    return np.flatnonzero(h == 0)


def cut_points(data: bytes, min_block: int, max_block: int) -> np.ndarray:
    """Block END offsets (exclusive) for one buffer, greedy min/max discipline.

    Returns the sorted array of block end offsets; the final offset is always
    ``len(data)`` (trailing remainder block, rabin/rabin_dedup.c:716-757).
    """
    n = len(data)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    cands = candidate_positions(data)
    ends: list[int] = []
    start = 0
    # reference loop discipline: a block ends at the first scanned position i
    # with length = i-start+1 >= min_block that is a break candidate, or at
    # length == max_block (force cut); scanning stops once the remainder is
    # <= min_block (rabin/rabin_dedup.c:711 "if (*size - last_offset <= ...)")
    while n - start > min_block:
        ci = int(np.searchsorted(cands, start + min_block - 1, side="left"))
        force_i = start + max_block - 1
        if ci < cands.size and cands[ci] <= min(force_i, n - 1):
            end = int(cands[ci]) + 1
        elif force_i <= n - 1:
            end = start + max_block
        else:
            break
        ends.append(end)
        start = end
    if start < n:
        ends.append(n)
    return np.asarray(ends, dtype=np.int64)


def cut_points_slow(data: bytes, min_block: int, max_block: int) -> list[int]:
    """Pure-Python oracle: identical spec, incremental rolling hash.

    Mirrors the reference's incremental update form
    ``h = (h*C + in - out[pushed]) & POLY_MASK`` (rabin/rabin_dedup.c:648-651)
    with a zero-filled window at each block scan start, full-buffer scan
    (no window-slide shortcut). Used only in unit tests.
    """
    n = len(data)
    C = RAB_POLYNOMIAL_CONST
    ends: list[int] = []
    start = 0
    window = [0] * _WIN
    wpos = 0
    h = 0
    length = 0
    # one continuous scan; h is the pure window hash so no reset needed at cuts
    for i in range(n):
        if n - start <= min_block:
            break  # remainder becomes the trailing block (ref rabin_dedup.c:711)
        byte = data[i]
        pushed = window[wpos]
        window[wpos] = byte
        wpos = (wpos + 1) % _WIN
        h = ((h * C) + byte - int(_OUT_TAB[pushed])) & POLY_MASK
        length += 1
        if length >= min_block:
            cur = h ^ int(_IR_TAB[pushed])
            if (cur & RAB_BLK_MASK) == 0 or length >= max_block:
                ends.append(i + 1)
                start = i + 1
                length = 0
    if start < n:
        ends.append(n)
    return ends


def chunk_doc(data: bytes, min_block: int, max_block: int):
    """CDC one document → (offsets, lengths, hashes_u64).

    Chunk identity = first 8 bytes of SHA-256 of chunk content (M3 analog,
    rabin/rabin_dedup.c:790-797 with the default SHA-256 of
    rabin/global/dedupe_config.h:36, truncated for shuffle keys).
    """
    ends = cut_points(data, min_block, max_block)
    k = ends.shape[0]
    offs = np.empty(k, dtype=np.int64)
    lens = np.empty(k, dtype=np.int64)
    hashes = np.empty(k, dtype=np.uint64)
    prev = 0
    for j in range(k):
        e = int(ends[j])
        offs[j] = prev
        lens[j] = e - prev
        hashes[j] = int.from_bytes(hashlib.sha256(data[prev:e]).digest()[:8], "little")
        prev = e
    return offs, lens, hashes


def chunk_batch(datas: list[bytes], min_block: int, max_block: int):
    """CDC a whole batch of documents with ONE vectorized candidate pass.

    Correctness argument: the break test at position i reads only the 16-byte
    window ending at i and the byte leaving it (i-16), and is only consulted
    when the running block length is >= min_block (>= 1024 >> 16). Therefore
    every consulted position in document d depends only on d's own bytes, and
    computing candidates over the concatenation of the batch is exactly
    equivalent to per-document computation — while amortizing the numpy pass.

    Returns list of (offsets, lengths, hashes_u64) per document.
    """
    if not datas:
        return []
    buf = b"".join(datas)
    cands = candidate_positions(buf)
    results = []
    base = 0
    for data in datas:
        n = len(data)
        ends: list[int] = []
        start = 0
        while n - start > min_block:
            ci = int(np.searchsorted(cands, base + start + min_block - 1, side="left"))
            force_i = start + max_block - 1
            if ci < cands.size and cands[ci] - base <= min(force_i, n - 1):
                end = int(cands[ci]) - base + 1
            elif force_i <= n - 1:
                end = start + max_block
            else:
                break
            ends.append(end)
            start = end
        if start < n:
            ends.append(n)
        k = len(ends)
        offs = np.empty(k, dtype=np.int64)
        lens = np.empty(k, dtype=np.int64)
        hashes = np.empty(k, dtype=np.uint64)
        prev = 0
        for j, e in enumerate(ends):
            offs[j] = prev
            lens[j] = e - prev
            hashes[j] = int.from_bytes(
                hashlib.sha256(data[prev:e]).digest()[:8], "little")
            prev = e
        results.append((offs, lens, hashes))
        base += n
    return results


class CDCChunker:
    """map_batches stage: text → per-doc CDC chunk hash lists.

    Stateless in spirit, but packaged as a callable class so the (tiny)
    table setup cost and config parse happen once per actor (T3 analog —
    create_dedupe_context, rabin/rabin_dedup.c:164-378). Works fine as a
    plain function stage too (tables are module-level).

    Input batch (pyarrow): must contain ``text`` (string) and the id column.
    Output adds: ``n_chunks:int32``, ``chunk_hashes:list<uint64>``,
    ``chunk_lengths:list<int32>``.
    """

    def __init__(self, cfg: PipelineConfig | None = None, text_col: str = "text",
                 mode: str = "rabin", fixed_block_size: int | None = None):
        """``mode="fixed"`` disables the rolling-hash break test and cuts
        every ``fixed_block_size`` bytes (default: the config's average
        block size) with a trailing remainder block — the reference's
        ``-F`` fixed-block dedup mode (rabin/rabin_dedup.c:513-538, where
        DEDUPE_FIXED skips the fingerprint scan entirely)."""
        if mode not in ("rabin", "fixed"):
            raise ValueError(f"unknown chunk mode {mode!r}")
        self.cfg = cfg or PipelineConfig()
        self.text_col = text_col
        self.mode = mode
        self.min_block = self.cfg.min_block_size
        self.max_block = self.cfg.max_block_size
        self.fixed_block = fixed_block_size or self.cfg.avg_block_size

    def _fixed_chunks(self, datas: list[bytes]):
        fb = self.fixed_block
        results = []
        for data in datas:
            n = len(data)
            k = (n + fb - 1) // fb
            offs = np.arange(k, dtype=np.int64) * fb
            lens = np.full(k, fb, dtype=np.int64)
            if k:
                lens[-1] = n - offs[-1]
            hashes = np.empty(k, dtype=np.uint64)
            for j in range(k):
                s = int(offs[j])
                hashes[j] = int.from_bytes(
                    hashlib.sha256(data[s : s + int(lens[j])]).digest()[:8],
                    "little")
            results.append((offs, lens, hashes))
        return results

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = batch.replace_schema_metadata(None)  # drop pandas metadata (unhashable in Ray's schema dedup)
        texts = batch[self.text_col].to_pylist()
        datas = [(t or "").encode("utf-8", "surrogatepass") for t in texts]
        if self.mode == "fixed":
            results = self._fixed_chunks(datas)
        else:
            results = chunk_batch(datas, self.min_block, self.max_block)
        n_chunks = np.empty(len(texts), dtype=np.int32)
        hash_lists = []
        len_lists = []
        for i, (_, lens, hashes) in enumerate(results):
            n_chunks[i] = hashes.shape[0]
            hash_lists.append(hashes)
            len_lists.append(lens.astype(np.int32))
        out = batch.append_column("n_chunks", pa.array(n_chunks, type=pa.int32()))
        out = out.append_column(
            "chunk_hashes", pa.array(hash_lists, type=pa.list_(pa.uint64())))
        out = out.append_column(
            "chunk_lengths", pa.array(len_lists, type=pa.list_(pa.int32())))
        return out
