"""Suffix-structure substring verification with span offsets.

pcompress proves long shared spans byte-exactly through chunk-identity
(SHA-256 per content-defined block, rabin/rabin_dedup.c:830-873) and then
merges adjacent matched blocks into maximal backward-reference runs before
emitting (offset, length) refs (run merging, rabin/rabin_dedup.c:1426-1448).
This stage is the detection-side analog for the pairs the chunk layer flags:

- ``lcs_with_offsets``: the exact LONGEST common substring between two byte
  strings — length AND both offsets — via binary search over the span length
  with vectorized 64-bit polynomial rolling hashes (O((n+m) log n), numpy
  throughout, byte-verified so hash collisions cannot produce a false span).
- ``shared_spans``: ALL maximal shared spans anchored on identical CDC
  chunks: chunks with equal SHA-256 identity are matched, consecutive
  matches are coalesced into runs (the reference's run merging), and each
  run is extended byte-wise to its maximal span.

Runs per verified pair (pairs ≪ corpus); texts are fetched by a partitioned
hash join, so nothing here materializes the corpus.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from pcompress_ray.config import PipelineConfig

_HASH_P = 0x9E3779B97F4A7C15  # odd → invertible mod 2^64


def _inv_u64(p: int) -> int:
    """Inverse of odd p modulo 2^64 (Newton iteration)."""
    inv = p
    for _ in range(6):
        inv = (inv * (2 - p * inv)) & 0xFFFFFFFFFFFFFFFF
    return inv


_HASH_Q = _inv_u64(_HASH_P)


def _powers(p: int, n: int) -> np.ndarray:
    """[p^0, p^1, ..., p^n] as wrapping uint64."""
    out = np.empty(n + 1, dtype=np.uint64)
    out[0] = 1
    if n:
        np.multiply.accumulate(np.full(n, p, dtype=np.uint64), out=out[1:])
    return out


class _RollingHasher:
    """All k-gram polynomial hashes of a byte string, any k, O(n) each.

    h(i,k) = sum_j x[i+j] * p^(k-1-j)  (mod 2^64), computed from the
    q-weighted prefix sum S[i] = sum_{j<i} x[j] q^j as
    (S[i+k]-S[i]) * p^(i+k-1), where q = p^-1 mod 2^64. uint64 wraparound
    is the modulus — no bigint math anywhere.
    """

    def __init__(self, data: bytes):
        self.data = data
        x = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
        n = x.size
        self.n = n
        self.pow_p = _powers(_HASH_P, n)
        qpow = _powers(_HASH_Q, max(n - 1, 0))[:n]
        self.prefix = np.zeros(n + 1, dtype=np.uint64)
        if n:
            np.cumsum(x * qpow, out=self.prefix[1:])

    def kgram_hashes(self, k: int) -> np.ndarray:
        n = self.n
        if k > n:
            return np.empty(0, dtype=np.uint64)
        # p^(i+k-1) for i in [0, n-k]
        return (self.prefix[k:] - self.prefix[:n - k + 1]) * self.pow_p[k - 1:n]


def lcs_with_offsets(a: bytes, b: bytes) -> tuple[int, int, int]:
    """(length, a_off, b_off) of the longest common substring.

    Binary search on the length (a common k-substring implies a common
    (k-1)-substring, so feasibility is monotone); each probe intersects the
    two k-gram hash sets and byte-verifies the first intersection to rule
    out 64-bit collisions.
    """
    if not a or not b:
        return 0, 0, 0
    ha, hb = _RollingHasher(a), _RollingHasher(b)

    def probe(k: int):
        va, vb = ha.kgram_hashes(k), hb.kgram_hashes(k)
        common, ia, ib = np.intersect1d(va, vb, return_indices=True)
        for t in range(common.size):
            i, j = int(ia[t]), int(ib[t])
            if a[i:i + k] == b[j:j + k]:
                return i, j
        return None

    lo, hi = 0, min(len(a), len(b))  # lo = feasible, hi+1 = infeasible bound
    best = (0, 0)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        hit = probe(mid)
        if hit is not None:
            lo, best = mid, hit
        else:
            hi = mid - 1
    return lo, best[0], best[1]


def longest_common_substring(a: bytes, b: bytes) -> int:
    """Length of the longest common substring of two byte strings."""
    return lcs_with_offsets(a, b)[0]


def _common_prefix_len(x: bytes, y: bytes) -> int:
    n = min(len(x), len(y))
    if n == 0:
        return 0
    xa = np.frombuffer(x[:n], dtype=np.uint8)
    ya = np.frombuffer(y[:n], dtype=np.uint8)
    neq = xa != ya
    return int(neq.argmax()) if neq.any() else n


_REPEAT_CAP = 8  # boilerplate guard: skip chunk hashes occurring more often


def shared_spans(a: bytes, b: bytes, min_block: int, max_block: int,
                 min_span: int = 0) -> list[tuple[int, int, int]]:
    """Maximal shared spans [(a_off, b_off, length), ...] anchored on CDC.

    1. CDC-chunk both strings (content-defined boundaries ⇒ identical
       content chunks identically after the first in-span cut).
    2. Match chunks by 64-bit SHA identity; hashes occurring more than
       _REPEAT_CAP times in either doc are skipped (boilerplate — pairing
       them is quadratic and low-information).
    3. Coalesce index-consecutive matches into runs — the reference's run
       merging (rabin/rabin_dedup.c:1426-1448): adjacent matched blocks
       become ONE backward reference.
    4. Extend each run byte-wise left and right to its maximal span, then
       merge overlapping spans on the same alignment diagonal.
    """
    from pcompress_ray.stages.cdc import chunk_batch

    (offs_a, lens_a, hash_a), (offs_b, lens_b, hash_b) = \
        chunk_batch([a, b], min_block, max_block)
    if hash_a.size == 0 or hash_b.size == 0:
        return []
    ua, ca = np.unique(hash_a, return_counts=True)
    ub, cb = np.unique(hash_b, return_counts=True)
    ok_a = ua[ca <= _REPEAT_CAP]
    ok_b = ub[cb <= _REPEAT_CAP]
    common = np.intersect1d(ok_a, ok_b)
    if common.size == 0:
        return []
    # all (i, j) chunk-index pairs with equal hash (bounded by repeat cap)
    mask_a = np.isin(hash_a, common)
    mask_b = np.isin(hash_b, common)
    ii = np.flatnonzero(mask_a)
    jj = np.flatnonzero(mask_b)
    order = np.argsort(hash_b[jj], kind="stable")
    jj_sorted = jj[order]
    hb_sorted = hash_b[jj_sorted]
    starts = np.searchsorted(hb_sorted, hash_a[ii], side="left")
    stops = np.searchsorted(hb_sorted, hash_a[ii], side="right")
    reps = stops - starts
    pi = np.repeat(ii, reps)
    # for each i, the slice jj_sorted[starts[t]:stops[t]]
    pj = jj_sorted[np.concatenate(
        [np.arange(s, e) for s, e in zip(starts, stops)])] if pi.size else \
        np.empty(0, dtype=np.int64)
    if pi.size == 0:
        return []
    # run coalescing: sort by (chunk-index diagonal, i); a run continues
    # where both indices advance by exactly 1
    diag = pi - pj
    order = np.lexsort((pi, diag))
    pi, pj, diag = pi[order], pj[order], diag[order]
    new_run = np.ones(pi.size, dtype=bool)
    new_run[1:] = (diag[1:] != diag[:-1]) | (pi[1:] != pi[:-1] + 1)
    spans = []
    run_starts = np.flatnonzero(new_run)
    run_ends = np.append(run_starts[1:], pi.size) - 1
    for s, e in zip(run_starts, run_ends):
        i0, j0 = int(pi[s]), int(pj[s])
        i1, j1 = int(pi[e]), int(pj[e])
        a_off = int(offs_a[i0])
        b_off = int(offs_b[j0])
        length = int(offs_a[i1] + lens_a[i1]) - a_off
        # byte-verify the anchored run (64-bit chunk ids could collide)
        if a[a_off:a_off + length] != b[b_off:b_off + length]:
            continue
        # maximal byte extension (anchors only cover whole chunks)
        left = _common_prefix_len(a[:a_off][::-1], b[:b_off][::-1])
        a_off -= left
        b_off -= left
        length += left
        right = _common_prefix_len(a[a_off + length:], b[b_off + length:])
        length += right
        spans.append((a_off, b_off, length))
    # merge overlapping/adjacent spans on the same byte diagonal
    spans.sort(key=lambda t: (t[0] - t[1], t[0]))
    merged: list[list[int]] = []
    for a_off, b_off, length in spans:
        if merged and merged[-1][0] - merged[-1][1] == a_off - b_off \
                and a_off <= merged[-1][0] + merged[-1][2]:
            last = merged[-1]
            last[2] = max(last[2], a_off + length - last[0])
        else:
            merged.append([a_off, b_off, length])
    out = [(a, b, ln) for a, b, ln in merged if ln >= min_span]
    out.sort()
    return out


def substring_verify(edges_ds, pages_ds, cfg: PipelineConfig):
    """Exact shared-span resolution for substring-kind edges.

    edges_ds: (a, b, kind, jaccard); pages_ds must carry (rank, text_norm or
    text). For each substring edge whose exact LCS ≥ cfg.substring_min_bytes,
    emits one row per maximal shared span:
    (a, b, a_off, b_off, span_len, lcs_bytes) — a_off/b_off are byte offsets
    into the two documents, span_len the shared-run byte length after
    coalescing, lcs_bytes the pair's exact longest-common-substring length
    (repeated on every span row of the pair). The LCS span itself is always
    present as a row (chunk-anchored runs recover it via byte extension; if
    the corpus-dependent anchors miss it, it is added explicitly).
    """
    import pyarrow.compute as pc

    from pcompress_ray.functions.ops import hash_join

    subs = edges_ds.map_batches(
        lambda t: t.replace_schema_metadata(None).filter(
            pc.equal(t["kind"], "substring")).select(["a", "b"]),
        batch_format="pyarrow").materialize()

    text_col = "text_norm" if "text_norm" in pages_ds.schema().names else "text"
    texts = pages_ds.select_columns(["rank", text_col])
    # substring pairs are a small fraction of the corpus: prefilter the
    # text side so only participating docs enter the two joins (driver
    # holds 8 B/rank; past the guard the unfiltered joins are the path)
    if subs.count() <= 5_000_000:
        sdf = subs.to_pandas()
        part_ranks = np.unique(np.concatenate(
            [sdf["a"].to_numpy(dtype=np.int64),
             sdf["b"].to_numpy(dtype=np.int64)])) if len(sdf) else \
            np.zeros(0, np.int64)
        from pcompress_ray.functions.ops import semi_join_filter

        texts = semi_join_filter(texts, part_ranks, on="rank")

    j1 = hash_join(subs, texts, left_on="a", right_on="rank")

    def rn1(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        return pa.table({"a": t["a"].cast(pa.int64()), "b": t["b"].cast(pa.int64()),
                         "text_a": t[text_col].cast(pa.string())})

    j2 = hash_join(j1.map_batches(rn1, batch_format="pyarrow").materialize(),
                   texts, left_on="b", right_on="rank")

    min_bytes = cfg.substring_min_bytes
    min_block, max_block = cfg.min_block_size, cfg.max_block_size

    def score(g: pd.DataFrame) -> pd.DataFrame:
        cols = {"a": [], "b": [], "a_off": [], "b_off": [],
                "span_len": [], "lcs_bytes": []}
        if len(g) == 0:
            return pd.DataFrame({k: pd.Series(v, dtype=np.int64)
                                 for k, v in cols.items()})
        ta = g["text_a"].tolist()
        tb = g[text_col].tolist()
        aa = g["a"].to_numpy(dtype=np.int64)
        bb = g["b"].to_numpy(dtype=np.int64)
        for i in range(len(g)):
            da = (ta[i] or "").encode()
            db = (tb[i] or "").encode()
            lcs, la, lb = lcs_with_offsets(da, db)
            if lcs < min_bytes:
                continue
            spans = shared_spans(da, db, min_block, max_block)
            if not any(ao <= la and bo <= lb
                       and ao + ln >= la + lcs and bo + ln >= lb + lcs
                       for ao, bo, ln in spans):
                spans.append((la, lb, lcs))
                spans.sort()
            for ao, bo, ln in spans:
                cols["a"].append(aa[i])
                cols["b"].append(bb[i])
                cols["a_off"].append(ao)
                cols["b_off"].append(bo)
                cols["span_len"].append(ln)
                cols["lcs_bytes"].append(lcs)
        return pd.DataFrame({k: pd.Series(v, dtype=np.int64)
                             for k, v in cols.items()})

    return j2.map_batches(score, batch_format="pandas")


def merge_intervals(starts: np.ndarray, ends: np.ndarray):
    """Union of half-open [start, end) intervals → (starts, ends) sorted,
    non-overlapping. Vectorized: sort by start, an interval opens a new run
    iff its start exceeds the running max of prior ends."""
    o = np.argsort(starts, kind="stable")
    s, e = starts[o], ends[o]
    cm = np.maximum.accumulate(e)
    new = np.ones(s.size, dtype=bool)
    if s.size > 1:
        new[1:] = s[1:] > cm[:-1]
    idx = np.flatnonzero(new)
    ms = s[idx]
    last = np.append(idx[1:], s.size) - 1  # each run's last row
    me = cm[last]  # run end = running max of ends at the run's last row
    return ms, me


def substring_excise(spans_ds, pages_ds, min_len: int = 0,
                     join_buckets: int = 32):
    """Span-excision REWRITE — the action half of the substring stage
    (Lee et al. 2022, "Deduplicating Training Data Makes Language Models
    Better": cut exact duplicated spans, keep the first occurrence). The
    corpus analog of pcompress replacing a matched run with a backward
    reference and emitting only the residue (rabin/rabin_dedup.c:1426-1448):
    here the earlier document (a = lower rank) KEEPS its bytes, and every
    shared span of length >= min_len is cut from the later one (b).

    spans_ds: substring_verify output (a, b, a_off, b_off, span_len, ...).
    pages_ds: must carry (rank, text_norm or text).
    Returns one row per INPUT doc: (rank, cut_spans, cut_bytes,
    text_sha256) — sha256 hex of the rewritten utf-8 bytes (byte splicing;
    unaffected docs hash their original bytes), so callers compare full
    content without shipping it.

    Shape: one b-keyed exchange merges per-doc intervals (vectorized union,
    overlaps from multiple source docs coalesced) into a cuts table of
    (rank, "s-e;s-e") rows — AFFECTED docs only, ≪ corpus (substring pairs
    are a small fraction). That table is pulled once to the driver and
    broadcast (ray.put) both as the splice lookup and the exact
    anti-filter, so the corpus body streams through exactly one
    map_batches pass with NO join shuffle. If cuts ever rivaled the corpus,
    swap broadcast_join for the partitioned functions/ops.hash_join.
    """
    import hashlib

    import pyarrow.compute as pc

    from pcompress_ray.functions.ops import (broadcast_join, exchange,
                                             semi_join_filter)

    text_col = "text_norm" if "text_norm" in pages_ds.schema().names \
        else "text"
    texts = pages_ds.select_columns(["rank", text_col])

    def prep(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        keep = pc.greater_equal(t["span_len"], min_len)
        t = t.filter(keep)
        return pa.table({"rank": t["b"].cast(pa.int64()),
                         "s": t["b_off"].cast(pa.int64()),
                         "e": pc.add(t["b_off"].cast(pa.int64()),
                                     t["span_len"].cast(pa.int64()))})

    raw = spans_ds.map_batches(prep, batch_format="pyarrow")

    # intervals travel as a flat "s-e;s-e" string column: list<int64>
    # columns do not survive the union+groupby concat (null-padded list
    # field-name unification), and the payload is tiny (affected docs only)
    def fold(df: pa.Table) -> pa.Table:
        rows = {"rank": [], "cuts": []}
        if len(df):
            r = df["rank"].to_numpy()
            s = df["s"].to_numpy()
            e = df["e"].to_numpy()
            o = np.argsort(r, kind="stable")
            r, s, e = r[o], s[o], e[o]
            bounds = np.flatnonzero(np.diff(r)) + 1
            for lo, hi in zip(np.append(0, bounds), np.append(bounds, r.size)):
                ms, me = merge_intervals(s[lo:hi], e[lo:hi])
                rows["rank"].append(int(r[lo]))
                rows["cuts"].append(";".join(
                    f"{a}-{b}" for a, b in zip(ms.tolist(), me.tolist())))
        return pa.table({"rank": pa.array(rows["rank"], pa.int64()),
                         "cuts": pa.array(rows["cuts"], pa.string())})

    # materialized first, so to_pandas launches no executor
    cuts_df = exchange([raw], [["rank"]], fold,
                       n_parts=join_buckets).materialize().to_pandas()
    if len(cuts_df) == 0 or "rank" not in cuts_df.columns:
        cuts_df = pd.DataFrame({"rank": pd.Series([], dtype=np.int64),
                                "cuts": pd.Series([], dtype=str)})
    cuts_df = cuts_df.astype({"rank": np.int64, "cuts": str})
    cut_ranks = np.sort(cuts_df["rank"].to_numpy(dtype=np.int64))

    def splice(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        ranks = t["rank"].to_pylist()
        txts = t[text_col].to_pylist()
        cuts = t["cuts"].to_pylist()
        n_cut, b_cut, shas = [], [], []
        for txt, cv in zip(txts, cuts):
            ivs = [tuple(map(int, p.split("-"))) for p in cv.split(";")] \
                if cv else []
            raw_b = (txt or "").encode("utf-8")
            pieces, pos = [], 0
            for s_, e_ in ivs:
                pieces.append(raw_b[pos:s_])
                pos = e_
            pieces.append(raw_b[pos:])
            out = b"".join(pieces)
            n_cut.append(len(ivs))
            b_cut.append(len(raw_b) - len(out))
            shas.append(hashlib.sha256(out).hexdigest())
        return pa.table({"rank": pa.array(ranks, pa.int64()),
                         "cut_spans": pa.array(n_cut, pa.int64()),
                         "cut_bytes": pa.array(b_cut, pa.int64()),
                         "text_sha256": pa.array(shas, pa.string())})

    joined = broadcast_join(texts, cuts_df[["rank", "cuts"]],
                            big_on="rank", small_on="rank")
    rewritten = joined.map_batches(splice, batch_format="pyarrow")

    untouched = semi_join_filter(texts, cut_ranks, on="rank", negate=True)

    def passthrough(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        shas = [hashlib.sha256((x or "").encode("utf-8")).hexdigest()
                for x in t[text_col].to_pylist()]
        z = np.zeros(len(shas), dtype=np.int64)
        return pa.table({"rank": t["rank"].cast(pa.int64()),
                         "cut_spans": pa.array(z),
                         "cut_bytes": pa.array(z),
                         "text_sha256": pa.array(shas, pa.string())})

    return rewritten.union(untouched.map_batches(passthrough,
                                                 batch_format="pyarrow"))
