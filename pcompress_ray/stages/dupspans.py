"""Corpus-wide duplicate-span detection — the suffix-array substring stage
at corpus scope.

Reference parity: pcompress proves exact long repeated spans through global
chunk identity plus run merging (rabin/rabin_dedup.c:830-873 block-index
probe, rabin/rabin_dedup.c:1426-1448 run coalescing) — but only at
content-defined chunk granularity and only against the blocks a dedup
context has indexed.  The north-star's "suffix-array substring stage"
generalizes this corpus-wide: a position whose L-gram recurs ANYWHERE in
the corpus (another doc, or another offset of the same doc) lies inside a
duplicated span, and maximal runs of such positions are exactly the
long-span duplicates a suffix array's repeated-substring scan reports for
fixed L (Lee et al. 2022, "Deduplicating Training Data Makes Language
Models Better").  Rolling polynomial k-gram hashes over hash-partitioned
exchanges yield the same duplicated-gram set without materializing any
global sorted structure.

Shape (three stages, all streaming):

1. **discovery** — per-batch partial counts of 128-bit gram keys (two
   independent 64-bit polynomial rolling hashes; a batch-local
   lexsort+boundary count first, so the exchange carries one row per
   DISTINCT gram per batch, not one per corpus position), then ONE
   hash-partitioned exchange sums counts and keeps keys seen >= 2 times.
2. **marking** — if the duplicated-key set fits the broadcast budget it is
   ``ray.put`` once and every batch marks its own grams locally (zero
   further shuffles; this is the common case — duplicated-gram vocabulary
   grows with the *duplicated* fraction, not the corpus).  Otherwise
   positions make one hash-partitioned semi-join exchange against the
   duplicated keys — the honest O(corpus positions) suffix-array cost —
   and a second doc_id-keyed exchange finishes coverage.
3. **coverage** — per doc, duplicated start offsets sorted; runs with gap
   <= L merge into islands (the reference's run merging); emit
   ``(doc_id, dup_starts, n_spans, dup_chars)`` where ``dup_chars`` is the
   union length of all ``[off, off+L)`` intervals.

Offsets are Unicode CODE POINTS (not bytes) so the DuckDB oracle's varchar
``substr``/``length`` semantics match exactly; the engine rolls hashes over
utf-32 code units.  128-bit keys make a cross-gram collision ~2^-128 per
pair; the oracle compares literal substrings, and the pytest fixture pins
engine == brute force on planted overlaps and broadcast == shuffle paths.

100-TB notes: discovery's exchange is bounded by distinct-grams-per-batch
(far below positions for natural text); the broadcast set is the only
driver-resident object and is guarded by ``broadcast_limit`` with the
semi-join fallback taking over beyond it; every stage is map_batches /
``exchange`` with backpressure, nothing materializes the corpus.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from pcompress_ray.functions.ops import exchange, group_boundaries
from pcompress_ray.hashing import splitmix64
from pcompress_ray.stages.suffix import _inv_u64, _powers

_P1 = 0x9E3779B97F4A7C15  # golden-ratio odd multiplier (suffix.py's poly)
_P2 = 0xC2B2AE3D27D4EB4F  # xxhash64 prime2 — independent second polynomial

_OUT_SCHEMA = pa.schema([
    ("doc_id", pa.int64()),
    ("dup_starts", pa.int64()),
    ("n_spans", pa.int64()),
    ("dup_chars", pa.int64()),
])


def _codepoints(text: str) -> np.ndarray:
    """Unicode code points as uint64 (utf-32-le reinterpret, zero-copy-ish)."""
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)


def _poly_kgram(x: np.ndarray, k: int, p: int) -> np.ndarray:
    """All k-gram polynomial hashes of a uint64 symbol array, O(n).

    h(i) = sum_j x[i+j] * p^(k-1-j) mod 2^64, from the q-weighted prefix
    sum (q = p^-1 mod 2^64) exactly as suffix._RollingHasher, but
    parameterized by p so two independent polynomials give 128-bit keys.
    """
    n = x.size
    if k > n:
        return np.empty(0, dtype=np.uint64)
    q = _inv_u64(p)
    qpow = _powers(q, max(n - 1, 0))[:n]
    prefix = np.zeros(n + 1, dtype=np.uint64)
    np.cumsum(x * qpow, out=prefix[1:])
    ppow = _powers(p, n)
    return (prefix[k:] - prefix[:n - k + 1]) * ppow[k - 1:n]


def _batch_grams(t: pa.Table, L: int):
    """(h1, h2, doc_id, off) position arrays for every L-gram in the batch.

    Python iterates DOCS (one rolling-hash call per doc, all inner math
    vectorized) — never positions.
    """
    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    texts = t["text"].to_pylist()
    h1p, h2p, idp, offp = [], [], [], []
    for did, txt in zip(ids, texts):
        x = _codepoints(txt or "")
        a = _poly_kgram(x, L, _P1)
        if a.size == 0:
            continue
        h1p.append(a)
        h2p.append(_poly_kgram(x, L, _P2))
        idp.append(np.full(a.size, did, dtype=np.int64))
        offp.append(np.arange(a.size, dtype=np.int64))
    if not h1p:
        z64 = np.empty(0, np.uint64)
        zi = np.empty(0, np.int64)
        return z64, z64.copy(), zi, zi.copy()
    return (np.concatenate(h1p), np.concatenate(h2p),
            np.concatenate(idp), np.concatenate(offp))


def partial_gram_counts(t: pa.Table, L: int) -> pa.Table:
    """Batch-local distinct (h1,h2) counts — the combiner before the
    discovery exchange (one row per distinct gram per batch)."""
    h1, h2, _, _ = _batch_grams(t, L)
    if h1.size == 0:
        return pa.table({"h1": pa.array([], pa.uint64()),
                         "h2": pa.array([], pa.uint64()),
                         "cnt": pa.array([], pa.int64())})
    order, starts = _pair_boundaries(h1, h2)
    cnt = np.diff(np.append(starts, h1.size)).astype(np.int64)
    a, b = h1[order], h2[order]
    return pa.table({"h1": a[starts], "h2": b[starts], "cnt": cnt})


def _pair_boundaries(h1: np.ndarray, h2: np.ndarray):
    """(order, starts) of the lexsorted (h1,h2) pair groups — numpy only.
    A pandas two-uint64-column groupby over multi-million-row partitions is
    ~5x slower than lexsort + boundary reduceat (measured on the 40k L=50
    discovery); every reducer here uses this instead."""
    order = np.lexsort((h2, h1))
    a, b = h1[order], h2[order]
    first = np.ones(a.size, dtype=bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return order, np.flatnonzero(first)


def _reduce_dup_keys(part: pa.Table) -> pa.Table:
    """Per-partition: sum partial counts, keep keys with corpus count >= 2."""
    h1 = part["h1"].to_numpy()
    h2 = part["h2"].to_numpy()
    order, starts = _pair_boundaries(h1, h2)
    tot = np.add.reduceat(part["cnt"].to_numpy()[order], starts)
    keep = tot >= 2
    return pa.table({"h1": h1[order][starts][keep],
                     "h2": h2[order][starts][keep]})


def discover_dup_keys(docs_ds, L: int, n_parts: int = 64):
    """Dataset of (h1,h2) gram keys occurring >= 2 times corpus-wide."""
    partials = docs_ds.map_batches(lambda t: partial_gram_counts(t, L),
                                   batch_format="pyarrow")
    return exchange([partials], [["h1"]], _reduce_dup_keys, n_parts=n_parts)


def _coverage_from_offsets(offs: np.ndarray, L: int):
    """(dup_starts, n_spans, dup_chars) from SORTED duplicated starts."""
    starts = np.flatnonzero(np.append(True, np.diff(offs) > L))
    ends = np.append(starts[1:], offs.size) - 1
    dup_chars = int(np.sum(offs[ends] - offs[starts] + L))
    return int(offs.size), int(starts.size), dup_chars


def _sorted_lookup(h1: np.ndarray, h2: np.ndarray, *extra: np.ndarray):
    """Driver-side build of the broadcast lookup: (mix_sorted, h1, h2,
    *extra) all in mix order.  Sorting ONCE on the driver before ray.put
    means every worker maps the arrays zero-copy from plasma (one physical
    copy per node) and does NO per-worker sort/copies — this is what lets
    broadcast_limit reach tens of millions of keys."""
    mix = splitmix64(h1 ^ splitmix64(h2))
    order = np.argsort(mix, kind="stable")
    return (mix[order], h1[order], h2[order],
            *(a[order] for a in extra))


def _lookup_hits(mix: np.ndarray, H1: np.ndarray, H2: np.ndarray,
                 h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Index into the mix-sorted lookup for each query key, -1 for misses.

    Vectorized searchsorted on mix64(h1,h2) prefilters; the (h1,h2) arrays
    confirm the full 128-bit key at the hit index — exact, no Python set.
    Mix-collision stragglers (range > 1, first slot mismatched) are probed
    individually; rare enough to never matter.  Shared by every broadcast
    marking stage so the tricky widen logic lives in ONE place.
    """
    out = np.full(h1.size, -1, dtype=np.int64)
    if mix.size == 0 or h1.size == 0:
        return out
    m = splitmix64(h1 ^ splitmix64(h2))
    lo = np.searchsorted(mix, m, side="left")
    hi = np.searchsorted(mix, m, side="right")
    found = hi > lo
    idx = np.minimum(lo, mix.size - 1)
    ok = found & (H1[idx] == h1) & (H2[idx] == h2)
    out[ok] = idx[ok]
    widen = found & ~ok & (hi - lo > 1)
    for i in np.flatnonzero(widen):
        sl = slice(lo[i], hi[i])
        j = np.flatnonzero((H1[sl] == h1[i]) & (H2[sl] == h2[i]))
        if j.size:
            out[i] = lo[i] + j[0]
    return out


class MarkDupGramsBroadcast:
    """Marking stage: the duplicated-key lookup (pre-sorted by the driver,
    see _sorted_lookup) rides the object store once; each worker reads it
    zero-copy and marks its batches locally with zero further shuffles.

    Lookup: sorted mix64(h1,h2) for a vectorized searchsorted prefilter,
    then the (h1,h2) arrays (in mix order) confirm the full 128-bit key at
    the hit index — exact, no Python set.
    """

    def __init__(self, dup_ref, L: int):
        import ray
        self.mix, self.h1, self.h2 = ray.get(dup_ref)
        self.L = L

    def _mask(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        return _lookup_hits(self.mix, self.h1, self.h2, h1, h2) >= 0

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        out_id, out_s, out_n, out_c = [], [], [], []
        for did, txt in zip(ids, texts):
            x = _codepoints(txt or "")
            a = _poly_kgram(x, self.L, _P1)
            if a.size == 0:
                continue
            b = _poly_kgram(x, self.L, _P2)
            offs = np.flatnonzero(self._mask(a, b))
            if offs.size == 0:
                continue
            s, n, c = _coverage_from_offsets(offs, self.L)
            out_id.append(int(did)); out_s.append(s)
            out_n.append(n); out_c.append(c)
        return pa.table({"doc_id": np.asarray(out_id, np.int64),
                         "dup_starts": np.asarray(out_s, np.int64),
                         "n_spans": np.asarray(out_n, np.int64),
                         "dup_chars": np.asarray(out_c, np.int64)},
                        schema=_OUT_SCHEMA)


def _positions(L: int):
    """Batch → (h1, h2, doc_id, off) rows, one per L-gram position."""
    def f(t: pa.Table) -> pa.Table:
        h1, h2, did, off = _batch_grams(t, L)
        return pa.table({"h1": h1, "h2": h2, "doc_id": did, "off": off})
    return f


def _semi_join_positions(pos: pa.Table, keys: pa.Table) -> pa.Table:
    """Per-partition semi-join: keep positions whose (h1,h2) appears among
    the keys.  Both inputs of any key co-locate (partitioned on h1)."""
    return pos.join(keys.select(["h1", "h2"]), keys=["h1", "h2"],
                    join_type="left semi").select(["doc_id", "off"])


def _coverage_partition(part: pa.Table, L: int) -> pa.Table:
    """Per-partition (doc_id-keyed) island merge — fully vectorized across
    the partition's docs."""
    part = part.sort_by([("doc_id", "ascending"), ("off", "ascending")])
    d = part["doc_id"].to_numpy()
    o = part["off"].to_numpy()
    n = d.size
    if n == 0:
        return pa.table({c: np.empty(0, np.int64) for c in
                         ("doc_id", "dup_starts", "n_spans", "dup_chars")})
    newdoc = np.ones(n, dtype=bool)
    newdoc[1:] = d[1:] != d[:-1]
    brk = newdoc.copy()
    brk[1:] |= (o[1:] - o[:-1]) > L
    isl_start = np.flatnonzero(brk)                    # island -> row index
    isl_end = np.append(isl_start[1:], n) - 1
    isl_len = o[isl_end] - o[isl_start] + L            # chars per island
    doc_start = np.flatnonzero(newdoc)                 # doc -> row index
    dup_starts = np.diff(np.append(doc_start, n))      # rows per doc
    # islands are doc-contiguous: count + sum per doc via reduceat over the
    # island axis at each doc's first island.
    isl_doc_first = np.searchsorted(isl_start, doc_start)
    n_spans = np.diff(np.append(isl_doc_first, isl_start.size))
    dup_chars = np.add.reduceat(isl_len, isl_doc_first)
    return pa.table({"doc_id": d[doc_start],
                     "dup_starts": dup_starts.astype(np.int64),
                     "n_spans": n_spans.astype(np.int64),
                     "dup_chars": dup_chars.astype(np.int64)})


def dup_span_stats(docs_ds, L: int = 16, n_parts: int = 64,
                   broadcast_limit: int = 32_000_000, concurrency=None):
    """Per-doc duplicated-span coverage vs the whole corpus.

    Returns a Dataset of (doc_id, dup_starts, n_spans, dup_chars) for every
    doc containing at least one corpus-duplicated L-gram (char offsets).
    Chooses broadcast marking when the duplicated-key set is small enough,
    else the positional semi-join exchange; both paths are tested equal.
    ``concurrency`` bounds ONLY the broadcast marking stage; the semi-join
    fallback runs its exchanges at the executor's default parallelism.
    """
    import ray

    dup = discover_dup_keys(docs_ds, L, n_parts=n_parts).materialize()
    n_dup = dup.count()

    if n_dup <= broadcast_limit:
        df = dup.to_pandas()
        ref = ray.put(_sorted_lookup(df["h1"].to_numpy(np.uint64),
                                     df["h2"].to_numpy(np.uint64)))

        # stateless tasks + per-worker instance cache (same rationale as
        # dedup_pipeline's sig_fn: the lookup build is ~ms, actors pay this
        # sandbox's cold-start; the dup array itself rides plasma once).
        def mark(batch: pa.Table, _cache: dict = {}) -> pa.Table:
            stage = _cache.get("stage")
            if stage is None:
                stage = MarkDupGramsBroadcast(ref, L)
                _cache["stage"] = stage
            return stage(batch)

        kwargs = {"batch_format": "pyarrow"}
        if concurrency is not None:
            kwargs["concurrency"] = concurrency
        return docs_ds.map_batches(mark, **kwargs)

    # Scale path: positions + keys make one h1-keyed exchange (semi-join),
    # survivors one doc_id-keyed exchange (coverage).
    pos = docs_ds.map_batches(_positions(L), batch_format="pyarrow")
    marked = exchange([pos, dup], [["h1"], ["h1"]], _semi_join_positions,
                      n_parts=n_parts)
    return exchange([marked], [["doc_id"]],
                    lambda p: _coverage_partition(p, L), n_parts=n_parts)


# ---------------------------------------------------------------------------
# Excision: the action half (Lee et al. exact substring self-dedup) — remove
# every position whose L-gram occurred at a strictly earlier corpus position
# (lexicographic (doc_id, off); ties impossible), splice the survivors.
# ---------------------------------------------------------------------------

_POS_BASE = np.int64(1_000_000)  # packed = doc_id * 1e6 + off (off < 1e6
# guarded) — matches the DuckDB twin's doc_id * 1000000 + off ordering


def _packed_pos(doc_id: np.ndarray, off: np.ndarray) -> np.ndarray:
    if off.size and int(off.max()) >= int(_POS_BASE):
        raise ValueError(
            "dup_span_excise packs (doc_id, off) into int64 with base 1e6 "
            "(matching the DuckDB twin's doc_id*1000000+off); split or "
            "truncate documents of >= 1e6+L-1 chars before this stage")
    return doc_id * _POS_BASE + off


def partial_gram_stats(t: pa.Table, L: int) -> pa.Table:
    """Batch-local per-distinct-gram (count, min packed position) — the
    combiner before the excision discovery exchange."""
    h1, h2, did, off = _batch_grams(t, L)
    if h1.size == 0:
        return pa.table({"h1": pa.array([], pa.uint64()),
                         "h2": pa.array([], pa.uint64()),
                         "cnt": pa.array([], pa.int64()),
                         "mn": pa.array([], pa.int64())})
    packed = _packed_pos(did, off)
    order, starts = _pair_boundaries(h1, h2)
    a, b, p = h1[order], h2[order], packed[order]
    cnt = np.diff(np.append(starts, a.size)).astype(np.int64)
    mn = np.minimum.reduceat(p, starts)
    return pa.table({"h1": a[starts], "h2": b[starts], "cnt": cnt, "mn": mn})


def _reduce_dup_stats(part: pa.Table) -> pa.Table:
    h1 = part["h1"].to_numpy()
    h2 = part["h2"].to_numpy()
    order, starts = _pair_boundaries(h1, h2)
    tot = np.add.reduceat(part["cnt"].to_numpy()[order], starts)
    mns = np.minimum.reduceat(part["mn"].to_numpy()[order], starts)
    keep = tot >= 2
    return pa.table({"h1": h1[order][starts][keep],
                     "h2": h2[order][starts][keep],
                     "mn": mns[keep]})


def splice_out(text: str, offs: np.ndarray, L: int) -> str:
    """Remove merged [off, off+L) islands (code-point offsets) from text."""
    if offs.size == 0:
        return text
    starts = np.flatnonzero(np.append(True, np.diff(offs) > L))
    s = offs[starts]
    e = np.append(offs[starts[1:] - 1], offs[-1]) + L
    pieces, pos = [], 0
    for a, b in zip(s.tolist(), e.tolist()):
        pieces.append(text[pos:a])
        pos = b
    pieces.append(text[pos:])
    return "".join(pieces)


class _ExciseBroadcast:
    """Marking + splicing against the broadcast (h1, h2, mn) table."""

    def __init__(self, dup_ref, L: int):
        import ray
        self.mix, self.h1, self.h2, self.mn = ray.get(dup_ref)
        self.L = L

    def _removable(self, h1, h2, packed):
        hits = _lookup_hits(self.mix, self.h1, self.h2, h1, h2)
        return (hits >= 0) & (packed > self.mn[np.maximum(hits, 0)])

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        out = []
        for did, txt in zip(ids, texts):
            txt = txt or ""
            x = _codepoints(txt)
            a = _poly_kgram(x, self.L, _P1)
            if a.size:
                b = _poly_kgram(x, self.L, _P2)
                off = np.arange(a.size, dtype=np.int64)
                packed = _packed_pos(np.full(a.size, did, np.int64), off)
                offs = np.flatnonzero(self._removable(a, b, packed))
                new = splice_out(txt, offs.astype(np.int64), self.L)
            else:
                new = txt
            out.append((int(did), new, len(txt) - len(new)))
        return pa.table({"doc_id": np.array([r[0] for r in out], np.int64),
                         "new_text": [r[1] for r in out],
                         "removed_chars": np.array([r[2] for r in out],
                                                   np.int64)},
                        schema=pa.schema([("doc_id", pa.int64()),
                                          ("new_text", pa.string()),
                                          ("removed_chars", pa.int64())]))


def dup_span_excise(docs_ds, L: int = 16, n_parts: int = 64,
                    broadcast_limit: int = 32_000_000):
    """Corpus-wide exact-substring self-dedup rewrite: every position whose
    L-gram occurred at a strictly earlier (doc_id, off) is excised (islands
    merged at gap<=L, as the coverage op / the reference's run merging);
    returns (doc_id, new_text, removed_chars) for EVERY doc.

    Broadcast path when the duplicated-gram table fits the budget; else the
    honest scale path: positions + keys make one h1-keyed exchange (filter
    packed > mn), then survivors + doc TEXTS make one doc_id-keyed exchange
    (text crosses the wire exactly once) where each partition splices its
    own docs.
    """
    import ray

    partials = docs_ds.map_batches(lambda t: partial_gram_stats(t, L),
                                   batch_format="pyarrow")
    dup = exchange([partials], [["h1"]], _reduce_dup_stats,
                   n_parts=n_parts).materialize()

    if dup.count() <= broadcast_limit:
        df = dup.to_pandas()
        ref = ray.put(_sorted_lookup(df["h1"].to_numpy(np.uint64),
                                     df["h2"].to_numpy(np.uint64),
                                     df["mn"].to_numpy(np.int64)))

        def excise(batch: pa.Table, _cache: dict = {}) -> pa.Table:
            stage = _cache.get("stage")
            if stage is None:
                stage = _ExciseBroadcast(ref, L)
                _cache["stage"] = stage
            return stage(batch)

        return docs_ds.map_batches(excise, batch_format="pyarrow")

    def semi(pos: pa.Table, keys: pa.Table) -> pa.Table:
        hit = pos.join(keys.select(["h1", "h2", "mn"]), keys=["h1", "h2"],
                       join_type="inner")
        d = hit["doc_id"].to_numpy()
        o = hit["off"].to_numpy()
        keep = _packed_pos(d, o) > hit["mn"].to_numpy()
        return pa.table({"doc_id": d[keep], "off": o[keep]})

    pos = docs_ds.map_batches(_positions(L), batch_format="pyarrow")
    removable = exchange([pos, dup], [["h1"], ["h1"]], semi, n_parts=n_parts)
    return _splice_exchange(docs_ds, removable, L, n_parts)


def _splice_exchange(docs_ds, removable_ds, L: int, n_parts: int):
    """Doc-keyed exchange finishing any excision: text rides the wire once,
    removable offsets join it in-partition, each partition splices its own
    docs.  Shared by dup_span_excise and cross_span_excise so the splice
    semantics (island merge at gap<=L) live in ONE place."""

    def splice_part(docs: pa.Table, rem: pa.Table) -> pa.Table:
        rem = rem.sort_by([("doc_id", "ascending"), ("off", "ascending")])
        d, o = rem["doc_id"].to_numpy(), rem["off"].to_numpy()
        first, _, sizes = group_boundaries(d)
        by_doc = {d[s]: o[s:s + m]
                  for s, m in zip(np.flatnonzero(first), sizes)}
        out_id, out_t, out_r = [], [], []
        for did, txt in zip(
                docs["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
                docs["text"].to_pylist()):
            txt = txt or ""
            new = splice_out(txt, by_doc.get(did, np.empty(0, np.int64)), L)
            out_id.append(did)
            out_t.append(new)
            out_r.append(len(txt) - len(new))
        return pa.table({"doc_id": np.array(out_id, np.int64),
                         "new_text": pa.array(out_t, pa.string()),
                         "removed_chars": np.array(out_r, np.int64)})

    return exchange([docs_ds.select_columns(["doc_id", "text"]),
                     removable_ds], [["doc_id"], ["doc_id"]],
                    splice_part, n_parts=n_parts)


# ---------------------------------------------------------------------------
# Winnowed (minimizer-sampled) discovery — the sub-O(positions) scale path.
# Robust winnowing (Schleimer, Wilkerson, Aiken 2003, "Winnowing: Local
# Algorithms for Document Fingerprinting"): select, in every window of w
# consecutive L-gram hashes, the minimal hash; any two occurrences of a
# shared substring of length >= w + L - 1 are GUARANTEED to share at least
# one selected fingerprint, while only ~2/(w+1) of positions are selected —
# the discovery exchange shrinks by that factor.  Output is a candidate/
# coverage SIGNAL (anchor granularity), not the exact-span accounting of
# dup_span_stats; route anchored pairs to suffix.substring_verify for exact
# offsets, or run exact mode when the corpus affords it.
# ---------------------------------------------------------------------------


def _winnow_select(h: np.ndarray, w: int) -> np.ndarray:
    """Indices of window-minimum L-gram hashes (one doc, vectorized).

    Selection depends only on the hash values inside each window, so two
    copies of the same substring select the same relative positions — the
    winnowing guarantee.  Consecutive windows sharing their minimum dedupe
    to one anchor.
    """
    n = h.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n <= w:
        return np.array([int(h.argmin())], dtype=np.int64)
    win = np.lib.stride_tricks.sliding_window_view(h, w)
    idx = win.argmin(axis=1) + np.arange(n - w + 1, dtype=np.int64)
    return np.unique(idx)


def _batch_anchor_grams(t: pa.Table, L: int, w: int):
    """(h1, h2) 128-bit keys of the batch's winnowed anchors only — the
    discovery hot path carries nothing it does not ship."""
    h1p, h2p = [], []
    for txt in t["text"].to_pylist():
        x = _codepoints(txt or "")
        a = _poly_kgram(x, L, _P1)
        if a.size == 0:
            continue
        sel = _winnow_select(a, w)
        h1p.append(a[sel])
        h2p.append(_poly_kgram(x, L, _P2)[sel])
    if not h1p:
        z64 = np.empty(0, np.uint64)
        return z64, z64.copy()
    return np.concatenate(h1p), np.concatenate(h2p)


def dup_span_anchors(docs_ds, L: int = 50, w: int = 8, n_parts: int = 64,
                     broadcast_limit: int = 32_000_000):
    """Winnowed duplicate-anchor scan: per doc, how many minimizer anchors
    it has and how many of them recur elsewhere in the corpus.

    Returns (doc_id, n_anchors, n_dup_anchors, first_dup_off) for every doc
    with at least one anchor.  Any shared span of length >= w + L - 1 is
    guaranteed to raise n_dup_anchors >= 1 on BOTH copies; the discovery
    exchange carries ~2/(w+1) of the exact mode's rows.
    """
    import ray

    def partial(t: pa.Table) -> pa.Table:
        h1, h2 = _batch_anchor_grams(t, L, w)
        if h1.size == 0:
            return pa.table({"h1": pa.array([], pa.uint64()),
                             "h2": pa.array([], pa.uint64()),
                             "cnt": pa.array([], pa.int64())})
        order, starts = _pair_boundaries(h1, h2)
        cnt = np.diff(np.append(starts, h1.size)).astype(np.int64)
        return pa.table({"h1": h1[order][starts], "h2": h2[order][starts],
                         "cnt": cnt})

    partials = docs_ds.map_batches(partial, batch_format="pyarrow")
    dup = exchange([partials], [["h1"]], _reduce_dup_keys,
                   n_parts=n_parts).materialize()
    if dup.count() > broadcast_limit:
        raise ValueError("winnowed dup-anchor set exceeds broadcast budget; "
                         "raise broadcast_limit or increase w")
    df = dup.to_pandas()
    ref = ray.put(_sorted_lookup(df["h1"].to_numpy(np.uint64),
                                 df["h2"].to_numpy(np.uint64)))

    def mark(t: pa.Table, _cache: dict = {}) -> pa.Table:
        stage = _cache.get("stage")
        if stage is None:
            stage = MarkDupGramsBroadcast(ref, L)
            _cache["stage"] = stage
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        out_id, out_a, out_d, out_f = [], [], [], []
        for did, txt in zip(ids, texts):
            x = _codepoints(txt or "")
            a = _poly_kgram(x, L, _P1)
            if a.size == 0:
                continue
            sel = _winnow_select(a, w)
            b = _poly_kgram(x, L, _P2)
            m = stage._mask(a[sel], b[sel])
            hits = sel[m]
            out_id.append(int(did))
            out_a.append(int(sel.size))
            out_d.append(int(hits.size))
            out_f.append(int(hits[0]) if hits.size else -1)
        return pa.table({"doc_id": np.asarray(out_id, np.int64),
                         "n_anchors": np.asarray(out_a, np.int64),
                         "n_dup_anchors": np.asarray(out_d, np.int64),
                         "first_dup_off": np.asarray(out_f, np.int64)})

    return docs_ds.map_batches(mark, batch_format="pyarrow")


def _reduce_distinct_keys(part: pa.Table) -> pa.Table:
    """Per-partition distinct (h1,h2) — cross-corpus discovery keeps EVERY
    reference-corpus gram (count >= 1), not just repeated ones."""
    return part.group_by(["h1", "h2"], use_threads=False).aggregate([])


def cross_span_excise(a_ds, b_ds, L: int = 16, n_parts: int = 64,
                      broadcast_limit: int = 32_000_000):
    """Cross-corpus span excision — the Lee-et-al DECONTAMINATION action:
    every position of corpus A whose L-gram occurs ANYWHERE in corpus B is
    excised (islands merged at gap<=L) and A's documents re-spliced.

    Same machinery as dup_span_excise with two differences: discovery runs
    over B keeping every distinct gram (count >= 1), and marking needs no
    earlier-position logic — membership alone removes.  Broadcast path
    when B's gram table fits the budget, else the positional semi-join +
    doc-keyed splice exchanges (A's text crosses the wire exactly once).
    Returns (doc_id, new_text, removed_chars) for EVERY A doc.
    """
    import ray

    partials = b_ds.map_batches(lambda t: partial_gram_counts(t, L),
                                batch_format="pyarrow")
    keys_ds = exchange([partials], [["h1"]], _reduce_distinct_keys,
                       n_parts=n_parts).materialize()

    if keys_ds.count() <= broadcast_limit:
        df = keys_ds.to_pandas()
        ref = ray.put(_sorted_lookup(df["h1"].to_numpy(np.uint64),
                                     df["h2"].to_numpy(np.uint64)))

        def excise(batch: pa.Table, _cache: dict = {}) -> pa.Table:
            stage = _cache.get("stage")
            if stage is None:
                stage = MarkDupGramsBroadcast(ref, L)
                _cache["stage"] = stage
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            texts = batch["text"].to_pylist()
            out = []
            for did, txt in zip(ids, texts):
                txt = txt or ""
                x = _codepoints(txt)
                a = _poly_kgram(x, L, _P1)
                if a.size:
                    b = _poly_kgram(x, L, _P2)
                    offs = np.flatnonzero(stage._mask(a, b)).astype(np.int64)
                    new = splice_out(txt, offs, L)
                else:
                    new = txt
                out.append((int(did), new, len(txt) - len(new)))
            return pa.table(
                {"doc_id": np.array([r[0] for r in out], np.int64),
                 "new_text": [r[1] for r in out],
                 "removed_chars": np.array([r[2] for r in out], np.int64)},
                schema=pa.schema([("doc_id", pa.int64()),
                                  ("new_text", pa.string()),
                                  ("removed_chars", pa.int64())]))

        return a_ds.map_batches(excise, batch_format="pyarrow")

    pos = a_ds.map_batches(_positions(L), batch_format="pyarrow")
    removable = exchange([pos, keys_ds], [["h1"], ["h1"]],
                         _semi_join_positions, n_parts=n_parts)
    return _splice_exchange(a_ds, removable, L, n_parts)
