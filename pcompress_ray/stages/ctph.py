"""Context-triggered piecewise hashing (CTPH, ssdeep-STYLE) fuzzy digests.

Reference parity: pcompress finds duplicate and similar regions with a
rolling-hash content-defined chunker plus per-chunk digests
(rabin/rabin_dedup.c window scan + per-block fingerprints); CTPH is the
same idea folded into a tiny per-document signature — a rolling hash
triggers piece boundaries, each piece contributes ONE base64 character,
and two documents are fuzzy-matched by comparing their ≤64-char digest
strings (Kornblum 2006, "Identifying almost identical files using context
triggered piecewise hashing"). This implementation is ssdeep-INSPIRED, not
bit-compatible: the trigger window combines the same h1/h2/h3 shapes but
the piece hash is a 64-bit polynomial + splitmix64 finalizer chosen so the
whole per-document scan vectorizes in numpy (no per-byte Python).

Scale shape: digesting is embarrassingly parallel map_batches; matching is
the standard explode-ngram → hash-partitioned bucket pairs → bounded
verify (≤64×64 edit-distance DP per candidate) — identical skeleton to
the MinHash/SimHash candidate paths in stages/candidates.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from pcompress_ray.hashing import splitmix64

_B64 = np.frombuffer(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    dtype=np.uint8)
_WIN = 7
_MIN_BLOCK = 3
_DIGEST_LEN = 64          # max chars per digest (ssdeep's spamsum length)
_POLY_B = np.uint64(0x9E3779B97F4A7C15 | 1)   # odd -> invertible mod 2^64


def _rolling_trigger(data: np.ndarray) -> np.ndarray:
    """uint64 rolling-hash value at every byte position (window = 7).

    h1 = window byte sum; h2 = position-weighted window sum (newest
    weight 7); h3 = xor of window bytes shifted 5 bits per step of age.
    Positions before a full window use zero-padding (deterministic).
    """
    c = data.astype(np.uint64)
    n = c.size
    h1 = np.zeros(n, np.uint64)
    h2 = np.zeros(n, np.uint64)
    h3 = np.zeros(n, np.uint64)
    for k in range(_WIN):
        if k == 0:
            sh = c
        else:
            sh = np.zeros(n, np.uint64)
            if k < n:
                sh[k:] = c[:-k]
        h1 += sh
        h2 += np.uint64(_WIN - k) * sh
        h3 ^= sh << np.uint64(5 * k)
    return h1 + h2 + h3


def _piece_chars(data: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """One base64 char per piece [start, end) via a 64-bit polynomial hash
    computed from prefix sums (vectorized over all pieces at once).

    Q[i] = sum_{j<i} c_j * Binv^j  (wraparound uint64); the piece poly is
    (Q[e]-Q[s]) * B^s = sum_{j=s..e-1} c_j * Binv^(j-s) — a polynomial in
    Binv, position-sensitive and prefix-computable — then splitmix64-
    finalized and mapped to the base64 alphabet.
    """
    c = data.astype(np.uint64)
    n = c.size
    binv = pow(int(_POLY_B), -1, 1 << 64)
    pows_inv = np.cumprod(
        np.concatenate([[np.uint64(1)], np.full(n - 1, np.uint64(binv))])
        if n else np.empty(0, np.uint64), dtype=np.uint64) \
        if n else np.empty(0, np.uint64)
    pows_fwd = np.cumprod(
        np.concatenate([[np.uint64(1)], np.full(n - 1, _POLY_B)])
        if n else np.empty(0, np.uint64), dtype=np.uint64) \
        if n else np.empty(0, np.uint64)
    q = np.zeros(n + 1, np.uint64)
    if n:
        np.cumsum(c * pows_inv, out=q[1:])
    starts = np.concatenate([[0], ends[:-1]])
    piece = (q[ends] - q[starts]) * pows_fwd[starts]
    return _B64[(splitmix64(piece) & np.uint64(63)).astype(np.int64)]


def blocksize_for(n: int) -> int:
    """Smallest b = 3 * 2^i with b * 64 >= n (the ssdeep blocksize rule)."""
    b = _MIN_BLOCK
    while b * _DIGEST_LEN < n:
        b *= 2
    return b


def ctph_digest(data: bytes) -> tuple[int, str, str]:
    """(blocksize, digest@b, digest@2b) for one byte string.

    Each digest caps at 64 chars by keeping the LAST piece open (ssdeep
    semantics: the tail collapses into the final character).
    """
    arr = np.frombuffer(data, dtype=np.uint8)
    b = blocksize_for(arr.size)
    if arr.size == 0:
        return b, "", ""
    rh = _rolling_trigger(arr)
    out = []
    for bs in (b, 2 * b):
        trig = np.flatnonzero(rh % np.uint64(bs) == np.uint64(bs - 1)) + 1
        trig = trig[:_DIGEST_LEN - 1]          # cap: tail is one piece
        ends = np.concatenate([trig, [arr.size]]) \
            if (trig.size == 0 or trig[-1] != arr.size) \
            else trig
        ends = ends.astype(np.int64)
        out.append(_piece_chars(arr, ends).tobytes().decode("ascii"))
    return b, out[0], out[1]


def ctph_digest_batch(t: pa.Table, data_col: str = "text",
                      id_col: str = "doc_id") -> pa.Table:
    """map_batches stage: (doc_id, data) -> (doc_id, blocksize, digest,
    digest2). String columns are digested as their utf-8 bytes."""
    t = t.replace_schema_metadata(None)
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    vals = t[data_col].to_pylist()
    bs = np.empty(len(vals), np.int64)
    d1, d2 = [], []
    for i, v in enumerate(vals):
        raw = (v or "").encode("utf-8") if isinstance(v, str) or v is None \
            else bytes(v)
        b, a, c = ctph_digest(raw)
        bs[i] = b
        d1.append(a)
        d2.append(c)
    return pa.table({"doc_id": pa.array(ids),
                     "blocksize": pa.array(bs),
                     "digest": pa.array(d1, pa.string()),
                     "digest2": pa.array(d2, pa.string())})


def _pack_ascii(strs) -> tuple[np.ndarray, np.ndarray]:
    """List of ascii strings -> (uint8 matrix padded with 0, lengths)."""
    lens = np.fromiter((len(s) for s in strs), np.int64, len(strs))
    m = int(lens.max()) if lens.size else 0
    M = np.zeros((len(strs), max(m, 1)), np.uint8)
    if lens.sum():
        flat = np.frombuffer("".join(strs).encode("ascii"), np.uint8)
        rows = np.repeat(np.arange(len(strs)), lens)
        cols = np.arange(flat.size) - np.repeat(np.cumsum(lens) - lens, lens)
        M[rows, cols] = flat
    return M, lens


def _levenshtein_batch(A: np.ndarray, la: np.ndarray,
                       B: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """Edit distance for P string pairs at once: ONE DP over a (P, mb+1)
    row per source character — the per-pair kernel below lifted to a
    rectangle so a million candidate verifications are ~64 numpy passes,
    not a Python loop (digests cap at 64 chars).

    Columns j > lb[p] hold garbage for pair p, but the DP only flows
    left-to-right, so the answer cell prev[p, lb[p]] never sees them."""
    P, mb = B.shape
    idx = np.arange(mb + 1, dtype=np.int64)
    prev = np.broadcast_to(idx, (P, mb + 1)).copy()
    for i in range(int(la.max()) if P else 0):
        active = la > i
        cur = np.empty_like(prev)
        cur[:, 0] = i + 1
        np.minimum(prev[:, :-1] + (B != A[:, i:i + 1]), prev[:, 1:] + 1,
                   out=cur[:, 1:])
        # insertion chain cur[j] = idx[j] + running_min(cur - idx)
        np.minimum(cur, np.minimum.accumulate(cur - idx, axis=1) + idx,
                   out=cur)
        prev = np.where(active[:, None], cur, prev)
    return prev[np.arange(P), lb]


def _gram_codes(M: np.ndarray, lens: np.ndarray, n: int = 7):
    """(codes, valid) sliding n-gram codes per row: 8 bits/char packed
    into uint64 (n <= 8), invalid = window crosses the row's true end."""
    P, m = M.shape
    k = m - n + 1
    if k <= 0:
        return np.zeros((P, 0), np.uint64), np.zeros((P, 0), bool)
    codes = np.zeros((P, k), np.uint64)
    for j in range(n):
        codes |= M[:, j:j + k].astype(np.uint64) << np.uint64(8 * j)
    valid = np.arange(k)[None, :] < (lens[:, None] - n + 1)
    return codes, valid


def _common_ngram_batch(A, la, B, lb, n: int = 7) -> np.ndarray:
    """Vectorized twin of _has_common_ngram over P pairs (bool array)."""
    P = la.size
    out = np.zeros(P, bool)
    if not P:
        return out
    short = (la < n) | (lb < n)
    if short.any():
        same_len = (la == lb) & (la > 0) & short
        if same_len.any():
            w = min(A.shape[1], B.shape[1])
            eq = (A[:, :w] == B[:, :w]) | \
                 (np.arange(w)[None, :] >= la[:, None])
            out[same_len] = eq.all(axis=1)[same_len]
    longi = np.flatnonzero(~short)
    # chunk the (P, na, nb) equality cube to bound memory
    for s in range(0, longi.size, 2048):
        sel = longi[s:s + 2048]
        ca, va = _gram_codes(A[sel], la[sel], n)
        cb, vb = _gram_codes(B[sel], lb[sel], n)
        hit = (ca[:, :, None] == cb[:, None, :]) \
            & va[:, :, None] & vb[:, None, :]
        out[sel] = hit.any(axis=(1, 2))
    return out


def ctph_score_batch(da, db) -> np.ndarray:
    """Vectorized twin of ctph_score over paired digest lists (int64
    scores 0-100). The DP only runs on pairs that pass the 7-gram guard."""
    P = len(da)
    A, la = _pack_ascii(da)
    B, lb = _pack_ascii(db)
    sc = np.zeros(P, np.int64)
    live = np.flatnonzero((la > 0) & (lb > 0)
                          & _common_ngram_batch(A, la, B, lb, 7))
    if live.size:
        dist = _levenshtein_batch(A[live], la[live], B[live], lb[live])
        m = np.maximum(la[live], lb[live])
        sc[live] = np.round(100.0 * (1.0 - dist / m)).astype(np.int64)
    return sc


def _levenshtein(a: str, b: str) -> int:
    """Edit distance via the classic DP, one numpy row at a time (inputs
    are <= 64 chars, so this is a bounded kernel, not a hot loop)."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    bv = np.frombuffer(b.encode("ascii"), np.uint8)
    idx = np.arange(len(b) + 1, dtype=np.int64)
    prev = idx.copy()
    for i, ch in enumerate(a.encode("ascii")):
        cur = np.empty_like(prev)
        cur[0] = i + 1
        cur[1:] = np.minimum(prev[:-1] + (bv != ch), prev[1:] + 1)
        # insertion chain cur[j] = min(cur[j], cur[j-1]+1, cur[j-2]+2, ...)
        # == idx[j] + running_min(cur - idx), one accumulate pass
        cur = np.minimum(cur, np.minimum.accumulate(cur - idx) + idx)
        prev = cur
    return int(prev[-1])


def ctph_score(d1: str, d2: str) -> int:
    """0-100 match score between two same-blocksize digests: scaled
    (1 - editdist / max_len); 0 unless they share a 7-char substring
    (Kornblum's guard against coincidental low distances)."""
    if not d1 or not d2:
        return 0
    if not _has_common_ngram(d1, d2, 7):
        return 0
    dist = _levenshtein(d1, d2)
    m = max(len(d1), len(d2))
    return int(round(100.0 * (1.0 - dist / m)))


def _has_common_ngram(a: str, b: str, n: int) -> bool:
    if len(a) < n or len(b) < n:
        return a == b and len(a) > 0
    grams = {a[i:i + n] for i in range(len(a) - n + 1)}
    return any(b[i:i + n] in grams for i in range(len(b) - n + 1))


def ctph_compare(bs_a: int, d1a: str, d2a: str,
                 bs_b: int, d1b: str, d2b: str) -> tuple[int, int]:
    """ssdeep's full comparison rule (fuzzy.c compare semantics): two
    signatures are comparable iff their blocksizes are equal or adjacent
    (one is double the other); each signature carries digests at b and 2b
    so the comparison always happens at a SHARED scale. Returns
    (score, scale) where scale is the blocksize the winning comparison ran
    at (ties prefer the finer scale)."""
    if bs_a == bs_b:
        s1 = ctph_score(d1a, d1b)          # at scale b
        s2 = ctph_score(d2a, d2b)          # at scale 2b
        return (s1, bs_a) if s1 >= s2 else (s2, 2 * bs_a)
    if bs_a == 2 * bs_b:
        return ctph_score(d1a, d2b), bs_a  # shared scale = bs_a
    if bs_b == 2 * bs_a:
        return ctph_score(d2a, d1b), bs_b
    return 0, 0


# base64 char -> 6-bit symbol, so a 7-gram packs exactly into 42 bits and
# (log2(scale/3) << 42) | gram is a COLLISION-FREE uint64 bucket key
_B64_INV = np.zeros(256, np.uint64)
_B64_INV[_B64] = np.arange(64, dtype=np.uint64)


def _digest_gram_keys(ids: np.ndarray, digests, scales: np.ndarray, n=7):
    """(keys, doc_ids) — one row per distinct (scale, digest n-gram) per
    doc, fully vectorized: pack all digests into a rectangle, slide 6-bit
    gram codes, prefix with the scale exponent, then np.unique per doc."""
    M, lens = _pack_ascii(digests)
    k = M.shape[1] - n + 1
    if k <= 0 or not ids.size:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    codes = np.zeros((len(digests), k), np.uint64)
    for j in range(n):
        codes |= _B64_INV[M[:, j:j + k]] << np.uint64(6 * j)
    exp = np.round(np.log2(scales / _MIN_BLOCK)).astype(np.uint64)
    codes |= (exp[:, None] << np.uint64(42))
    valid = np.arange(k)[None, :] < (lens[:, None] - n + 1)
    rows, cols = np.nonzero(valid)
    if not rows.size:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    flat_ids = ids[rows]
    flat_codes = codes[rows, cols]
    # distinct (doc, gram): sort by (id, code), keep group firsts
    order = np.lexsort((flat_codes, flat_ids))
    fi, fc = flat_ids[order], flat_codes[order]
    first = np.empty(fi.size, bool)
    first[0] = True
    first[1:] = (fi[1:] != fi[:-1]) | (fc[1:] != fc[:-1])
    return fc[first], fi[first]


def ctph_compare_batch(bs_a: np.ndarray, d1a, d2a,
                       bs_b: np.ndarray, d1b, d2b):
    """Vectorized twin of ctph_compare over P candidate pairs ->
    (scores, scales) int64 arrays. Each branch of the blocksize rule
    selects its pair subset and runs ONE batched score kernel."""
    d1a = np.asarray(d1a, object)
    d2a = np.asarray(d2a, object)
    d1b = np.asarray(d1b, object)
    d2b = np.asarray(d2b, object)
    P = bs_a.size
    score = np.zeros(P, np.int64)
    scale = np.zeros(P, np.int64)
    i = np.flatnonzero(bs_a == bs_b)
    if i.size:
        s1 = ctph_score_batch(d1a[i], d1b[i])
        s2 = ctph_score_batch(d2a[i], d2b[i])
        win1 = s1 >= s2
        score[i] = np.where(win1, s1, s2)
        scale[i] = np.where(win1, bs_a[i], 2 * bs_a[i])
    i = np.flatnonzero(bs_a == 2 * bs_b)
    if i.size:
        score[i] = ctph_score_batch(d1a[i], d2b[i])
        scale[i] = bs_a[i]
    i = np.flatnonzero(bs_b == 2 * bs_a)
    if i.size:
        score[i] = ctph_score_batch(d2a[i], d1b[i])
        scale[i] = bs_b[i]
    return score, scale


def ctph_candidate_pairs(sig_ds, min_score: int = 60, n_parts: int = 32):
    """Digest Dataset (from ctph_digest_batch) -> fuzzy-match pairs
    (doc_a, doc_b, blocksize, score) with score >= min_score; the
    ``blocksize`` column is the scale the winning comparison ran at.

    Bucket by (scale, digest 7-gram) with the b-digest keyed at scale b
    AND the 2b-digest keyed at scale 2b, so docs whose sizes straddle a
    blocksize boundary (one digests at b, the other at 2b) share buckets
    at the 2b scale — ssdeep's adjacent-blocksize rule, which a
    digest-only bucketing would miss entirely. Candidates are verified
    once with the BATCHED edit-distance kernel (ctph_compare_batch: the
    whole batch is one rectangle DP, no per-pair Python).

    Exchange plan — THREE chained hash exchanges:
      1. gram-keyed: explode (scale, 7-gram) rows, emit candidate (a, b)
         per bucket;
      2. a-keyed: co-locate every copy of a pair with doc a's signature
         row (a two-input exchange, not a broadcast), dedupe (a, b) — all
         copies share key a — and attach the a-side digests;
      3. b-keyed: same exchange against the signatures, attach the b side,
         verify with the batched kernel.
    Signatures travel the exchanges only once per side (and only for
    docs that appear in candidate pairs after stage 2), so the operator
    keeps its shape at any corpus size — no digest table ever lands on
    the driver.
    """
    from pcompress_ray.functions.ops import exchange, group_boundaries

    sig_cols = ["doc_id", "digest", "digest2", "blocksize"]
    sigs = sig_ds.select_columns(sig_cols).materialize()

    def explode(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        bs = t["blocksize"].to_numpy(zero_copy_only=False).astype(np.int64)
        k1, i1 = _digest_gram_keys(ids, t["digest"].to_pylist(), bs)
        k2, i2 = _digest_gram_keys(ids, t["digest2"].to_pylist(), 2 * bs)
        return pa.table({"gram": pa.array(np.concatenate([k1, k2])),
                         "doc_id": pa.array(np.concatenate([i1, i2]))})

    def bucket_pairs(part: pa.Table) -> pa.Table:
        part = part.group_by(["gram", "doc_id"], use_threads=False) \
            .aggregate([]).sort_by([("gram", "ascending"),
                                    ("doc_id", "ascending")])
        first, _, sizes = group_boundaries(part["gram"].to_numpy())
        ids = part["doc_id"].to_numpy()
        out_a, out_b = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for s, m in zip(np.flatnonzero(first), sizes):
            if m < 2:
                continue
            seg = ids[s:s + int(m)]
            ai, bi = np.triu_indices(int(m), k=1)
            out_a.append(seg[ai])
            out_b.append(seg[bi])
        return pa.table({"a": np.concatenate(out_a),
                         "b": np.concatenate(out_b)}) \
            .group_by(["a", "b"], use_threads=False).aggregate([])

    cands = exchange([sigs.map_batches(explode, batch_format="pyarrow")],
                     [["gram"]], bucket_pairs, n_parts=n_parts)

    def attach_a(pairs: pa.Table, s: pa.Table) -> pa.Table:
        # every copy of (a, b) has key a
        p = pairs.group_by(["a", "b"], use_threads=False).aggregate([])
        return p.join(s, keys="a", right_keys="doc_id") \
            .select(["a", "b", "digest", "digest2", "blocksize"]) \
            .rename_columns(["a", "b", "d1a", "d2a", "bsa"])

    def attach_b_score(mid: pa.Table, s: pa.Table) -> pa.Table:
        m = mid.join(s, keys="b", right_keys="doc_id")
        sc, scale = ctph_compare_batch(
            m["bsa"].to_numpy().astype(np.int64), m["d1a"].to_pylist(),
            m["d2a"].to_pylist(), m["blocksize"].to_numpy().astype(np.int64),
            m["digest"].to_pylist(), m["digest2"].to_pylist())
        keep = sc >= min_score
        return pa.table({
            "doc_a": m["a"].to_numpy().astype(np.int64)[keep],
            "doc_b": m["b"].to_numpy().astype(np.int64)[keep],
            "blocksize": np.asarray(scale, np.int64)[keep],
            "score": np.asarray(sc, np.int64)[keep]})

    mid = exchange([cands, sigs], [["a"], ["doc_id"]], attach_a,
                   n_parts=n_parts)
    return exchange([mid, sigs], [["b"], ["doc_id"]], attach_b_score,
                    n_parts=n_parts)
