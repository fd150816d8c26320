"""Deterministic vectorized hashing primitives.

The reference leans on XXH32/64 (utils/xxhash*.c) and SHA-256
(crypto/sha2/, dispatched via crypto/crypto_utils.c:105) for chunk identity
and sketch keys. Here every hot hash is a vectorized numpy kernel over
uint64 lanes; SHA-256 (hashlib, C speed) is used only for per-chunk content
identity where a cryptographic digest is the semantic requirement (M3).

Everything is seed-stable across processes — no reliance on PYTHONHASHSEED.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

U64 = np.uint64
_SPLITMIX_GAMMA = U64(0x9E3779B97F4A7C15)
_MIX1 = U64(0xBF58476D1CE4E5B9)
_MIX2 = U64(0x94D049BB133111EB)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer. x: uint64 array → uint64 array."""
    z = x + _SPLITMIX_GAMMA
    z = (z ^ (z >> U64(30))) * _MIX1
    z = (z ^ (z >> U64(27))) * _MIX2
    return z ^ (z >> U64(31))


def hash_strings(values, seed: int = 0) -> np.ndarray:
    """Deterministic 64-bit hash of an array-like of strings (vectorized C path).

    Uses pandas' SipHash-based ``hash_array`` (fixed default key — stable
    across processes/machines), then splitmix with the seed folded in.
    """
    arr = np.asarray(values, dtype=object)
    h = pd.util.hash_array(arr, categorize=False).astype(U64, copy=False)
    if seed:
        h = splitmix64(h ^ U64(seed & 0xFFFFFFFFFFFFFFFF))
    return h


_TOKEN_BYTE = np.zeros(256, dtype=bool)
_TOKEN_BYTE[np.frombuffer(b"abcdefghijklmnopqrstuvwxyz0123456789",
                          np.uint8)] = True
_POLY_M = U64(0x9E3779B97F4A7C15)  # odd → invertible mod 2^64


def _u64_inv(a: int) -> int:
    """Inverse of odd a modulo 2^64 (Newton iteration, 6 steps)."""
    x = a
    for _ in range(6):
        x = (x * (2 - a * x)) & 0xFFFFFFFFFFFFFFFF
    return x


_POLY_M_INV = U64(_u64_inv(int(_POLY_M)))


def _powers(base: np.uint64, n: int) -> np.ndarray:
    """[1, base, base^2, ..., base^(n-1)] in the 2^64 ring."""
    w = np.empty(n, U64)
    w[0] = 1
    w[1:] = base
    return np.cumprod(w, out=w)


_POW_BITS = 12
# bytes per tokenizer pass: a pass holds ~14 bytes of temporaries per byte,
# and a small one stays in cache
_TOK_SEG = 1 << 16


def _pow_split(base: np.uint64, n: int):
    """(hi, lo) with base^i == hi[i >> _POW_BITS] * lo[i & (2^_POW_BITS - 1)]
    in the 2^64 ring for every i < n: two short ``cumprod`` passes (4,096
    and n/4,096 long) in place of one over n: as full ``cumprod`` passes,
    the tokenizer's two power tables cost ~95 us/doc. They are not cached
    in module globals: the package is pickled by value, so every function
    shipped to a worker would carry, and keep, its own copy."""
    lo = _powers(base, (1 << _POW_BITS) + 1)
    return _powers(lo[-1], (n >> _POW_BITS) + 1), lo[:-1]


def token_hashes_bytes(buf: np.ndarray, doc_offs: np.ndarray):
    """Vectorized tokenizer + 64-bit token hasher over a concatenated UTF-8
    byte buffer — NO per-token Python strings (the regex-findall +
    string-hash path costs ~0.5 ms/doc; this is a handful of full-buffer
    numpy passes).

    Tokens are maximal [a-z0-9]+ runs after ASCII lowercasing (multi-byte
    UTF-8 units are >= 0x80, never token bytes), equivalent to
    ``re.findall("[a-z0-9]+", text.lower())`` except for the rare Unicode
    code points whose lower() maps into ASCII (e.g. U+212A KELVIN SIGN).
    Engine-internal shingle semantics — applied identically everywhere
    (doc_shingles, SignatureStage, stop shingles), so every oracle
    recomputes the same values.

    Documents are tokenized in passes of about ``_TOK_SEG`` bytes (a longer
    document is a pass of its own), since token hashes do not depend on
    where a token sits.

    Hashing: prefix polynomial in the 2^64 ring. S[i] = Σ_{j<i} b[j]·M^j, so
    a token spanning [s, e) hashes to (S[e]−S[s])·M^{−s} — position-
    independent (the same token bytes hash identically anywhere), finalized
    with splitmix64 and the token length.

    ``buf`` uint8 (LOWERCASED IN PLACE — pass a copy of shared memory);
    ``doc_offs`` int64 (ndocs+1) document boundaries (tokens never cross
    them). Returns (th uint64[ntok] in document order, tok_doc int64[ntok],
    counts int64[ndocs]).
    """
    ndocs = int(doc_offs.size) - 1
    if ndocs <= 1 or buf.size <= _TOK_SEG:
        return _token_pass(buf, doc_offs)
    # pass k starts at the first document starting at or after k·_TOK_SEG
    bounds = np.unique(np.concatenate([
        [0], np.searchsorted(doc_offs[:-1],
                             np.arange(_TOK_SEG, buf.size, _TOK_SEG)),
        [ndocs]])).tolist()
    parts = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        lo = doc_offs[a]
        th, tok_doc, counts = _token_pass(buf[lo : doc_offs[b]],
                                          doc_offs[a : b + 1] - lo)
        parts.append((th, tok_doc + a, counts))
    return tuple(np.concatenate(x) for x in zip(*parts))


def _token_pass(buf: np.ndarray, doc_offs: np.ndarray):
    """``token_hashes_bytes`` in one pass."""
    n = int(buf.size)
    ndocs = int(doc_offs.size) - 1
    empty = (np.empty(0, U64), np.empty(0, np.int64),
             np.zeros(max(ndocs, 0), np.int64))
    if n == 0 or ndocs <= 0:
        return empty
    up = (buf >= 65) & (buf <= 90)
    buf[up] += 32
    m = _TOKEN_BYTE[buf]
    brk = np.zeros(n + 1, dtype=bool)
    brk[doc_offs[1:-1]] = True  # interior doc starts break runs
    is_start = m.copy()
    is_start[1:] &= ~m[:-1] | brk[1:n]
    is_end = m.copy()
    is_end[:-1] &= ~m[1:] | brk[1:n]
    starts = np.flatnonzero(is_start)
    ends = np.flatnonzero(is_end) + 1
    if starts.size == 0:
        return empty
    # S in one n-long buffer (the kernel's largest): M^j, times b[j], summed
    hi, lo = _pow_split(_POLY_M, n)
    S = np.empty(hi.size * lo.size + 1, U64)
    S[0] = 0
    np.multiply(hi[:, None], lo, out=S[1:].reshape(hi.size, lo.size))
    P = S[1 : n + 1]
    P *= buf
    np.cumsum(P, out=P)
    hi, lo = _pow_split(_POLY_M_INV, n)  # M^-s, needed at token starts only
    h_raw = (S[ends] - S[starts]) * (hi[starts >> _POW_BITS]
                                     * lo[starts & ((1 << _POW_BITS) - 1)])
    th = splitmix64(splitmix64(h_raw) ^ (ends - starts).astype(U64))
    tok_doc = np.searchsorted(doc_offs, starts, side="right") - 1
    counts = np.bincount(tok_doc, minlength=ndocs).astype(np.int64)
    return th, tok_doc.astype(np.int64), counts


def utf8_column_buffer(col):
    """(uint8 copy of the column's UTF-8 data, int64 offsets) for a pyarrow
    string column — the concatenated-document input to token_hashes_bytes.
    Nulls read as empty strings. The returned buffer is a COPY (the kernel
    lowercases in place)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if arr.null_count:
        arr = pc.fill_null(arr, "")
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    offs = np.frombuffer(arr.buffers()[1], off_dtype)[
        arr.offset : arr.offset + len(arr) + 1].astype(np.int64)
    data_buf = arr.buffers()[2]
    if data_buf is None:
        return np.empty(0, np.uint8), offs - offs[0]
    data = np.frombuffer(data_buf, np.uint8)
    return data[offs[0] : offs[-1]].copy(), offs - offs[0]


def token_hashes_text(text: str):
    """token_hashes_bytes over ONE document string (uint64 token hashes)."""
    b = np.frombuffer((text or "").encode("utf-8", "surrogatepass"),
                      np.uint8).copy()
    th, _, _ = token_hashes_bytes(b, np.array([0, b.size], np.int64))
    return th


def combine_rows(mat: np.ndarray, seed: int = 0) -> np.ndarray:
    """Hash each row of a (n, k) uint64 matrix to one uint64 (order-sensitive).

    Used for LSH band hashes: band_hash = combine_rows(signature[:, band_slice]).
    """
    acc = np.full(mat.shape[0], U64(seed & 0xFFFFFFFFFFFFFFFF) ^ _SPLITMIX_GAMMA, dtype=U64)
    for j in range(mat.shape[1]):
        acc = splitmix64(acc ^ mat[:, j])
    return acc


def shingle_hashes(token_hashes: np.ndarray, k: int) -> np.ndarray:
    """All k-gram shingle hashes of a token-hash sequence (vectorized).

    Rolling combine: s[i] = mix over (t[i..i+k-1]) with position weights —
    the document-level analog of the reference's rolling polynomial over
    bytes (rabin/rabin_dedup.c:616-714), applied to tokens.
    Returns empty array when len(token_hashes) < k.
    """
    n = token_hashes.shape[0]
    if n < k:
        return np.empty(0, dtype=U64)
    out = np.zeros(n - k + 1, dtype=U64)
    # position-weighted mix so shingles are order-sensitive
    for j in range(k):
        out = splitmix64(out ^ token_hashes[j : n - k + 1 + j])
    return out


def minhash_params(num_perm: int, seed: int):
    """Deterministic (a, b) parameter vectors for num_perm affine permutations."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 1 << 63, size=num_perm, dtype=np.uint64) * U64(2) + U64(1)  # odd
    b = rng.integers(0, 1 << 63, size=num_perm, dtype=np.uint64)
    return a, b


def minhash_signature(shingles: np.ndarray, a: np.ndarray, b: np.ndarray,
                      chunk: int = 16384) -> np.ndarray:
    """128-perm MinHash of a uint64 shingle-hash set.

    Document-level reimplementation of the reference's K-min-values sketch
    (heap_nsmallest + XXH32, rabin/rabin_dedup.c:684-706, 973-994) in its
    standard MinHash form: sig[p] = min over shingles of (a[p]*x + b[p]) mod 2^64.
    Processes shingles in chunks so memory stays at num_perm × chunk × 8 bytes.

    Empty input → all-ones signature (matches no non-empty doc).
    """
    num_perm = a.shape[0]
    if shingles.size == 0:
        return np.full(num_perm, np.iinfo(np.uint64).max, dtype=U64)
    sig = np.full(num_perm, np.iinfo(np.uint64).max, dtype=U64)
    for s in range(0, shingles.size, chunk):
        block = shingles[s : s + chunk]
        # (P, C) = a[:,None] * block[None,:] + b[:,None]  (mod 2^64 wraparound)
        vals = a[:, None] * block[None, :] + b[:, None]
        np.minimum(sig, vals.min(axis=1), out=sig)
    return sig


def simhash(token_hashes: np.ndarray, weights: np.ndarray | None = None) -> int:
    """64-bit SimHash over token hashes (vectorized bit unpack + weighted vote)."""
    if token_hashes.size == 0:
        return 0
    bits = np.unpackbits(token_hashes.view(np.uint8).reshape(-1, 8), axis=1,
                         bitorder="little").astype(np.int64)  # (n, 64)
    if weights is None:
        votes = bits.sum(axis=0) * 2 - token_hashes.size
    else:
        w = weights.astype(np.int64)
        votes = (bits * w[:, None]).sum(axis=0) * 2 - w.sum()
    out = np.uint64(0)
    set_bits = np.flatnonzero(votes > 0)
    for i in set_bits:
        out |= U64(1) << U64(i)
    return int(out)


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized Hamming distance between uint64 arrays."""
    x = np.bitwise_xor(a, b)
    return np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)
