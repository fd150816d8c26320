"""Text analysis stages: token counts, quality stats, language ID, fingerprints.

The reference's analyzer classifies buffers from byte histograms
(filters/analyzer/analyzer.c:32-124: TEXT/BINARY/MARKUP at significance
thresholds); these stages are its document-level analogs for a training-data
pipeline, each a stateless vectorized ``map_batches``. Regexes are compiled
once per worker (module import), mirroring T3's per-context setup.

Every function that has a SQL twin in __ray_entry__.oracle_sql computes with
EXACTLY matching semantics (same regex, same integer/float arithmetic).
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa

from pcompress_ray.hashing import hash_strings, splitmix64

_TOKEN_CLASS = "a-z0-9"
TOKEN_RE = f"[{_TOKEN_CLASS}]+"
_NON_TOKEN_RE = f"[^{_TOKEN_CLASS}]+"
PUNCT_RE = r"[!-/:-@\[-`{-~]"

# stopword regexes per language — shared verbatim with the SQL oracle.
# Counted with re.ASCII so Python's \b matches DuckDB/RE2's ASCII-only \b
# (Python \b is Unicode-aware by default and would disagree on non-ASCII text).
LANG_STOPWORDS = {
    "en": r"\b(the|and|of|to|in|is)\b",
    "de": r"\b(der|die|und|ist|nicht|ein)\b",
    "fr": r"\b(le|les|une|est|dans|pour)\b",
    "es": r"\b(el|los|una|es|para|como)\b",
    "it": r"\b(il|che|per|con|sono|della)\b",
    "nl": r"\b(het|een|van|niet|dat|zijn)\b",
    "pt": r"\b(os|uma|com|nao|por|mais)\b",
    # zh: no spaces to anchor stopwords on — count CJK-Unified chars instead.
    # Explicit range (not \p{Han}): Python re lacks \p{..}, and the range is
    # what the SQL oracle's RE2 [\x{4E00}-\x{9FFF}] counts, byte-for-byte.
    "zh": "[一-鿿]",
}
_LANG_ORDER = ["de", "en", "es", "fr", "it", "nl", "pt", "zh"]  # tie-break: alphabetical


def doc_stats_batch(df: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """(doc_id, n_chars, n_tokens, punct_count) — SQL-matched integers."""
    low = df[text_col].fillna("").str.lower()
    return pd.DataFrame({
        "doc_id": df["doc_id"].astype(np.int64),
        "n_chars": df[text_col].fillna("").str.len().astype(np.int64),
        "n_tokens": low.str.count(TOKEN_RE).astype(np.int64),
        "punct_count": df[text_col].fillna("").str.count(PUNCT_RE).astype(np.int64),
    })


def lang_id_batch(df: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Heuristic stopword-count language ID → (doc_id, lang_pred).

    Deterministic argmax over per-language stopword hit counts; ties broken
    by alphabetical language order ('unk' when all counts are zero).
    """
    low = df[text_col].fillna("").str.lower()
    counts = {lang: low.str.count(LANG_STOPWORDS[lang], flags=re.ASCII).to_numpy()
              for lang in _LANG_ORDER}
    mat = np.stack([counts[lang] for lang in _LANG_ORDER], axis=1)
    best = mat.argmax(axis=1)  # first (alphabetical) max wins
    pred = np.array(_LANG_ORDER, dtype=object)[best]
    pred[mat.max(axis=1) == 0] = "unk"
    return pd.DataFrame({"doc_id": df["doc_id"].astype(np.int64),
                         "lang_pred": pred})


def quality_batch(df: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Quality scoring: length/punct/stopword ratios + a composite score.

    (Rows-only check — float ratios are not hash-stable across engines.)
    """
    txt = df[text_col].fillna("")
    low = txt.str.lower()
    n_chars = txt.str.len().to_numpy(dtype=np.float64)
    n_tokens = low.str.count(TOKEN_RE).to_numpy(dtype=np.float64)
    n_punct = txt.str.count(PUNCT_RE).to_numpy(dtype=np.float64)
    n_stop = low.str.count(LANG_STOPWORDS["en"], flags=re.ASCII) \
                .to_numpy(dtype=np.float64)
    denom_c = np.maximum(n_chars, 1.0)
    denom_t = np.maximum(n_tokens, 1.0)
    punct_ratio = n_punct / denom_c
    stop_ratio = n_stop / denom_t
    avg_tok_len = np.where(n_tokens > 0, n_chars / denom_t, 0.0)
    score = (np.clip(n_tokens / 100.0, 0, 1) * 0.4
             + np.clip(stop_ratio * 5.0, 0, 1) * 0.3
             + (1.0 - np.clip(punct_ratio * 10.0, 0, 1)) * 0.3)
    return pd.DataFrame({
        "doc_id": df["doc_id"].astype(np.int64),
        "n_tokens": n_tokens.astype(np.int64),
        "punct_ratio": punct_ratio,
        "stopword_ratio": stop_ratio,
        "avg_token_len": avg_tok_len,
        "quality_score": score,
    })


_FP_RE = re.compile(TOKEN_RE)


def fingerprint_batch(df: pd.DataFrame, text_col: str = "text",
                      ngram: int = 8) -> pd.DataFrame:
    """Document fingerprint: min 64-bit hash over rolling token n-grams.

    The winnowing/rolling-hash analog of the reference's per-block weak hash
    (XXH32 of content, rabin/rabin_dedup.c:1292-1309) at document level.
    """
    from pcompress_ray.hashing import shingle_hashes

    out = np.zeros(len(df), dtype=np.uint64)
    texts = df[text_col].fillna("").str.lower().tolist()
    for i, t in enumerate(texts):
        toks = _FP_RE.findall(t)
        if not toks:
            out[i] = 0
            continue
        th = hash_strings(np.asarray(toks, dtype=object))
        sh = shingle_hashes(th, min(ngram, len(toks)))
        out[i] = sh.min() if sh.size else 0
    return pd.DataFrame({"doc_id": df["doc_id"].astype(np.int64),
                         "fingerprint": out})


def content_type_batch(df: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Byte-histogram content classifier — the reference analyzer's exact
    semantics (filters/analyzer/analyzer.c:32-99) over each document's UTF-8
    bytes:

      tot8b  = #bytes > 127        lbytes = #bytes < 32
      spc    = #' '                tag1/tag2 = #'<' / #'>'
      tag3   = #('<','/') + #('/','>') adjacent pairs with spaces skipped
               (prev_byte only advances on non-space, analyzer.c:62-64)

    Three significance levels (10/30/50%):
      btype_30/50: BINARY iff tot8b+lbytes > 30%/50% of bytes, else TEXT
      btype_10:    TEXT iff tot8b <= 10% AND lbytes < 7/8 of bytes
                   (integer shifts, analyzer.c:88)
      |MARKUP appended to all three iff |tag1-tag2| < 4 AND
      tag3 > 0.4*tag1 AND tag1+tag2 > 0.06*spc (analyzer.c:94-99).

    Integer counters + string labels — exactly SQL-expressible (the oracle
    rebuilds every counter from octet_length/replace/regexp_replace).
    """
    n = len(df)
    cols = {k: np.zeros(n, dtype=np.int64)
            for k in ("n_bytes", "tot8b", "lbytes", "spc",
                      "tag1", "tag2", "tag3")}
    texts = df[text_col].fillna("").tolist()
    for i, txt in enumerate(texts):
        b = np.frombuffer(txt.encode("utf-8", "surrogatepass"), dtype=np.uint8)
        cols["n_bytes"][i] = b.size
        if b.size == 0:
            continue
        cols["tot8b"][i] = int((b > 127).sum())
        cols["lbytes"][i] = int((b < 32).sum())
        cols["spc"][i] = int((b == 32).sum())
        cols["tag1"][i] = int((b == ord("<")).sum())
        cols["tag2"][i] = int((b == ord(">")).sum())
        ns = b[b != 32]  # prev_byte skips spaces (analyzer.c:62-64)
        if ns.size >= 2:
            cols["tag3"][i] = int(
                ((ns[:-1] == ord("<")) & (ns[1:] == ord("/"))).sum()
                + ((ns[:-1] == ord("/")) & (ns[1:] == ord(">"))).sum())
    nb = cols["n_bytes"].astype(np.float64)
    tot_8b = cols["tot8b"] + cols["lbytes"]
    bin30 = tot_8b > nb / 10 * 3
    bin50 = tot_8b > nb / 10 * 5
    txt10 = (cols["tot8b"] <= nb / 10) & \
        (cols["lbytes"] < ((cols["n_bytes"] >> 1) + (cols["n_bytes"] >> 2)
                           + (cols["n_bytes"] >> 3)))
    markup = ((cols["tag1"] > cols["tag2"] - 4)
              & (cols["tag1"] < cols["tag2"] + 4)
              & (cols["tag3"] > cols["tag1"] * 0.40)
              & ((cols["tag1"] + cols["tag2"]) > cols["spc"] * 0.06))
    suffix = np.where(markup, "|MARKUP", "").astype(object)

    def lab(binary_mask):
        return np.where(binary_mask, "BINARY", "TEXT").astype(object) + suffix

    out = {"doc_id": df["doc_id"].astype(np.int64), **cols}
    out["btype_10"] = lab(~txt10)
    out["btype_30"] = lab(bin30)
    out["btype_50"] = lab(bin50)
    return pd.DataFrame(out)


def token_counts(t: pa.Table, text_col: str = "text") -> pa.Table:
    """(token, n) partial counts per batch — the map-side combiner for the
    corpus token-frequency aggregate. Only distinct-tokens-per-batch rows
    enter the shuffle (vs one row per token occurrence), so the groupby
    exchange is bounded by vocabulary size × batches, not corpus size."""
    t = t.replace_schema_metadata(None)
    texts = t[text_col].to_pylist()
    c: Counter = Counter()
    for x in texts:
        c.update(_FP_RE.findall((x or "").lower()))
    return pa.table({"token": pa.array(list(c.keys()), pa.string()),
                     "n": pa.array(list(c.values()), pa.int64())})


def token_doc_counts(t: pa.Table, text_col: str = "text") -> pa.Table:
    """(token, df) partial DOCUMENT-frequency counts per batch — each doc
    contributes at most 1 per token (CCNet-style df/stopword extraction).
    Same map-side-combine shape as ``token_counts``: the shuffle carries
    vocabulary × batches rows, not corpus-size rows."""
    t = t.replace_schema_metadata(None)
    texts = t[text_col].to_pylist()
    c: Counter = Counter()
    for x in texts:
        c.update(set(_FP_RE.findall((x or "").lower())))
    return pa.table({"token": pa.array(list(c.keys()), pa.string()),
                     "df": pa.array(list(c.values()), pa.int64())})


def tokenize_alnum(col):
    """(doc_idx, words, n_docs): maximal [a-z0-9]+ runs of the lowercased
    text, fully vectorized — utf8_lower + ONE RE2 replace (non-token runs
    → space) + split_pattern, the norm_text_dedup extraction pattern.
    Identical token stream to re.findall(TOKEN_RE, text.lower()) without
    per-doc Python — except that utf8_lower applies utf8proc's SIMPLE
    case mapping, which is exactly what the DuckDB twins' lower() does
    (Python str.lower() diverges on SpecialCasing chars like U+0130 'İ',
    so this is the more oracle-faithful side). Shared by the DSIR and
    md5-SimHash kernels."""
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.fill_null(col, "")
    norm = pc.replace_substring_regex(
        pc.utf8_lower(col), _NON_TOKEN_RE, " ")
    toks = pc.split_pattern(norm, " ")
    nper = pc.list_value_length(toks).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    words = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
    doc = np.repeat(np.arange(len(col), dtype=np.int64), nper)
    keep = words != ""
    return doc[keep], words[keep], len(col)


def _split_tokens(t: pa.Table, text_col: str):
    """Vectorized whitespace tokenization shared by the Gopher/bigram
    kernels AND their SQL twins' semantics: split on single spaces
    (DuckDB ``string_split(text, ' ')``), drop empty tokens. Returns
    (doc_row_index, token) as parallel numpy arrays — one Arrow
    split_pattern + boolean masking, no per-row Python."""
    import pyarrow.compute as pc

    # null text → "" (no tokens), like the SQL twins' UNNEST of a null list;
    # without this the null list's NaN length poisons np.repeat
    col = pc.fill_null(t[text_col].combine_chunks(), "")
    toks = pc.split_pattern(col, " ")
    nper = pc.list_value_length(toks).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    words = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
    doc = np.repeat(np.arange(len(t), dtype=np.int64), nper)
    keep = words != ""
    return doc[keep], words[keep]


def _doc_token_runs(doc: np.ndarray, words: np.ndarray):
    """Run-length encode (doc, token) pairs: one lexsort over integer token
    ids, then boundary diffs. Returns (doc_of_run, token_id_of_run,
    run_count, unique_token_values) — the shared core of the Gopher and
    TF-IDF kernels."""
    uniq, inv = np.unique(words, return_inverse=True)
    order = np.lexsort((inv, doc))
    d_s, i_s = doc[order], inv[order]
    new = np.empty(d_s.size, bool)
    new[0] = True
    new[1:] = (d_s[1:] != d_s[:-1]) | (i_s[1:] != i_s[:-1])
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, d_s.size)).astype(np.int64)
    return d_s[starts], i_s[starts], counts, uniq


def doc_token_counts(t: pa.Table, text_col: str = "text",
                     id_col: str = "doc_id") -> pa.Table:
    """Exploded per-doc term frequencies: one (doc_id, tok, c) row per
    distinct token per doc. Batch-local and complete (a doc never spans
    batches), so downstream per-token aggregates (document frequency) can
    simply count rows. Vectorized: one lexsort + run-length per batch."""
    t = t.replace_schema_metadata(None)
    doc, words = _split_tokens(t, text_col)
    ids = t[id_col].to_numpy(zero_copy_only=False)
    if doc.size == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "tok": pa.array([], pa.string()),
                         "c": pa.array([], pa.int64())})
    gdoc, gtok, counts, uniq = _doc_token_runs(doc, words)
    return pa.table({"doc_id": pa.array(ids[gdoc].astype(np.int64)),
                     "tok": pa.array(uniq[gtok], pa.string()),
                     "c": pa.array(counts)})


def gopher_stats_batch(t: pa.Table, text_col: str = "text",
                       id_col: str = "doc_id") -> pa.Table:
    """Gopher-style repetition/diversity quality rule (Rae et al. 2021
    §A1.1: drop docs whose top word dominates or whose vocabulary is
    degenerate). Per doc: token count, distinct tokens, top-token count —
    one lexsort + reduceat per batch, no per-doc Python loop. Ratios are
    emitted as floor(x*1e6+0.5) ints so the SQL twin hashes identically.
    Docs with zero tokens emit no row (the oracle's UNNEST does the same)."""
    t = t.replace_schema_metadata(None)
    doc, words = _split_tokens(t, text_col)
    ids = t[id_col].to_numpy(zero_copy_only=False)
    if doc.size == 0:
        z = np.empty(0, np.int64)
        return pa.table({"doc_id": z, "n_tokens": z, "n_distinct": z,
                         "top_ratio_e6": z, "distinct_ratio_e6": z,
                         "pass_gopher": z})
    gdoc, _, counts, _ = _doc_token_runs(doc, words)
    dnew = np.empty(gdoc.size, bool)
    dnew[0] = True
    dnew[1:] = gdoc[1:] != gdoc[:-1]
    dstarts = np.flatnonzero(dnew)
    n_distinct = np.diff(np.append(dstarts, gdoc.size)).astype(np.int64)
    n_tokens = np.add.reduceat(counts, dstarts).astype(np.int64)
    max_c = np.maximum.reduceat(counts, dstarts).astype(np.int64)
    ok = ((max_c / n_tokens <= 0.2) & (n_distinct / n_tokens >= 0.3)
          & (n_tokens >= 10) & (n_tokens <= 100000))
    return pa.table({
        "doc_id": pa.array(ids[gdoc[dstarts]].astype(np.int64)),
        "n_tokens": pa.array(n_tokens),
        "n_distinct": pa.array(n_distinct),
        "top_ratio_e6": pa.array(
            np.floor(max_c * 1e6 / n_tokens + 0.5).astype(np.int64)),
        "distinct_ratio_e6": pa.array(
            np.floor(n_distinct * 1e6 / n_tokens + 0.5).astype(np.int64)),
        "pass_gopher": pa.array(ok.astype(np.int64)),
    })


def bigram_counts(t: pa.Table, text_col: str = "text") -> pa.Table:
    """(bigram, n) partial counts per batch — map-side combiner for the
    corpus bigram-frequency aggregate (same shuffle-bounding idea as
    ``token_counts``, but adjacency-aware: bigrams never cross doc
    boundaries, and empty tokens are dropped BEFORE pairing, matching the
    oracle's list_filter-then-index SQL). Gram construction shared with
    the decontamination kernel (``ngram_strings`` at n=2)."""
    t = t.replace_schema_metadata(None)
    doc, words = _split_tokens(t, text_col)
    if doc.size < 2:
        return pa.table({"bigram": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    _, big = ngram_strings(doc, words, 2)
    uniq, cnt = np.unique(big, return_counts=True)
    return pa.table({"bigram": pa.array(uniq, pa.string()),
                     "n": pa.array(cnt.astype(np.int64))})


def unigram_vocab_counts(t: pa.Table, text_col: str = "text") -> pa.Table:
    """(tok, n) partial counts per batch with the SAME space-split
    tokenization as the Gopher/TF-IDF kernels — map-side combiner for the
    corpus unigram model (shuffle bounded by batch vocabulary)."""
    t = t.replace_schema_metadata(None)
    _, words = _split_tokens(t, text_col)
    uniq, cnt = np.unique(words, return_counts=True)
    return pa.table({"tok": pa.array(uniq, pa.string()),
                     "n": pa.array(cnt.astype(np.int64))})


def lm_score_batch(t: pa.Table, vocab_toks: np.ndarray, lp_e6: np.ndarray,
                   text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Per-doc mean unigram negative log-likelihood against a broadcast
    model (CCNet-style LM quality signal). ``vocab_toks`` sorted,
    ``lp_e6`` = floor(-ln(p)*1e6+0.5) ints, so the doc score
    floor(sum(c*lp_e6)/n + 0.5) is exact integer+one-division math on both
    sides (residual risk: np.log vs DuckDB ln may differ by 1 ulp, flipping
    a token's lp_e6 only when -ln(p)*1e6+0.5 lands within an ulp of an
    integer — same accepted exposure class as tfidf's idf_e6). Tokens
    outside the vocab (possible when scoring NEW text against a frozen
    model) get the rarest token's logprob. One searchsorted + reduceat per
    batch, no per-doc Python."""
    t = t.replace_schema_metadata(None)
    doc, words = _split_tokens(t, text_col)
    ids = t[id_col].to_numpy(zero_copy_only=False)
    if doc.size == 0:
        z = np.empty(0, np.int64)
        return pa.table({"doc_id": z, "n_tokens": z, "lm_score_e6": z})
    if vocab_toks.size == 0:
        raise ValueError("lm_score_batch: empty model (vocab_toks) cannot "
                         "score non-empty text — fit the model first")
    idx = np.searchsorted(vocab_toks, words)
    idx = np.minimum(idx, vocab_toks.size - 1)
    oov = vocab_toks[idx] != words
    lp = lp_e6[idx]
    if oov.any():
        lp = np.where(oov, lp_e6.max(), lp)
    dnew = np.empty(doc.size, bool)
    dnew[0] = True
    dnew[1:] = doc[1:] != doc[:-1]
    starts = np.flatnonzero(dnew)
    n_tok = np.diff(np.append(starts, doc.size)).astype(np.int64)
    s = np.add.reduceat(lp, starts)
    score = np.floor(1.0 * s / n_tok + 0.5).astype(np.int64)
    return pa.table({"doc_id": pa.array(ids[doc[starts]].astype(np.int64)),
                     "n_tokens": pa.array(n_tok),
                     "lm_score_e6": pa.array(score)})


def ngram_strings(doc: np.ndarray, words: np.ndarray, n: int):
    """Vectorized n-gram STRING builder over the flat (doc, token) arrays:
    one binary_join_element_wise over n shifted views + a same-doc validity
    mask. Strings (not hashes) so a SQL twin can compare equal sets."""
    import pyarrow.compute as pc

    if words.size < n:
        return (np.empty(0, np.int64),
                np.empty(0, dtype=object))
    m = words.size - n + 1
    valid = doc[:m] == doc[n - 1 :]
    parts = [pa.array(words[j : m + j], pa.string()) for j in range(n)]
    grams = pc.binary_join_element_wise(*parts, " ") \
        .to_numpy(zero_copy_only=False)
    return doc[:m][valid], grams[valid]


def contamination_batch(t: pa.Table, bench_grams, n: int = 13,
                        text_col: str = "text",
                        id_col: str = "doc_id") -> pa.Table:
    """GPT-3-style benchmark decontamination: per-doc count of token
    n-grams (default 13, the GPT-3 paper's filter) that appear in a
    broadcast benchmark n-gram set. Every doc emits a row (0 for docs too
    short to have an n-gram), matching the SQL twin's LEFT JOIN. Hash-based
    membership via pandas isin — no per-doc Python."""
    t = t.replace_schema_metadata(None)
    doc, words = _split_tokens(t, text_col)
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    counts = np.zeros(len(t), np.int64)
    gdoc, grams = ngram_strings(doc, words, n)
    if grams.size:
        hit = pd.Index(grams).isin(bench_grams)
        np.add.at(counts, gdoc[hit], 1)
    return pa.table({
        "doc_id": pa.array(ids),
        "n_contaminated": pa.array(counts),
        "is_contaminated": pa.array((counts > 0).astype(np.int64)),
    })


def bench_gram_index(bench_ids: np.ndarray, bench_texts: list,
                     n: int = 5):
    """Broadcastable benchmark index for fuzzy decontamination: sorted
    unique gram vocabulary + a (|vocab| x n_bench) 0/1 membership matrix +
    per-bench unique-gram-set sizes. bench_ids must be ascending (the
    tie-break order of bench_jaccard_batch)."""
    bt = pa.table({"doc_id": pa.array(bench_ids, pa.int64()),
                   "text": pa.array(bench_texts, pa.string())})
    doc, words = _split_tokens(bt, "text")
    gdoc, grams = ngram_strings(doc, words, n)
    if grams.size == 0:
        return (np.empty(0, dtype=object), np.zeros((0, len(bench_ids)),
                np.int64), np.zeros(len(bench_ids), np.int64))
    o = np.lexsort((grams, gdoc))
    gd, gr = gdoc[o], grams[o]
    first = np.ones(gd.size, dtype=bool)
    first[1:] = (gd[1:] != gd[:-1]) | (gr[1:] != gr[:-1])
    gd, gr = gd[first], gr[first]
    sizes = np.bincount(gd, minlength=len(bench_ids)).astype(np.int64)
    vocab, inv = np.unique(gr, return_inverse=True)
    mat = np.zeros((vocab.size, len(bench_ids)), dtype=np.int64)
    mat[inv, gd] = 1
    return vocab, mat, sizes


def bench_jaccard_batch(t: pa.Table, vocab: np.ndarray, mat: np.ndarray,
                        bench_sizes: np.ndarray, bench_ids: np.ndarray,
                        n: int = 5, thr_num: int = 1, thr_den: int = 5,
                        text_col: str = "text",
                        id_col: str = "doc_id") -> pa.Table:
    """Fuzzy benchmark decontamination: per corpus doc, the EXACT maximum
    token-n-gram-set Jaccard against every benchmark doc (the near-dup
    complement of the exact-13-gram contamination_batch). All comparisons
    are integer cross-multiplications, so the winner (ties -> smallest
    bench id) and the flag (jaccard >= thr_num/thr_den) match the DuckDB
    twin bit-exactly; jacc_e6 is floor(i*1e6/u) integer division. Docs with
    zero overlap emit (bench_id=-1, 0, 0, 0, 0)."""
    t = t.replace_schema_metadata(None)
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    nrows = len(t)
    n_bench = bench_ids.size
    doc, words = _split_tokens(t, text_col)
    gdoc, grams = ngram_strings(doc, words, n)

    size_d = np.zeros(nrows, np.int64)
    inter = np.zeros((nrows, n_bench), np.int64)
    if grams.size:
        o = np.lexsort((grams, gdoc))
        gd, gr = gdoc[o], grams[o]
        first = np.ones(gd.size, dtype=bool)
        first[1:] = (gd[1:] != gd[:-1]) | (gr[1:] != gr[:-1])
        gd, gr = gd[first], gr[first]
        size_d = np.bincount(gd, minlength=nrows).astype(np.int64)
        if vocab.size:
            idx = np.searchsorted(vocab, gr)
            idxc = np.minimum(idx, vocab.size - 1)
            valid = vocab[idxc] == gr
            contrib = mat[idxc] * valid[:, None]
            np.add.at(inter, gd, contrib)

    best_i = np.zeros(nrows, np.int64)
    best_u = np.ones(nrows, np.int64)
    best_b = np.full(nrows, -1, np.int64)
    for b in range(n_bench):  # ascending bench id == tie-break order
        i_b = inter[:, b]
        u_b = size_d + bench_sizes[b] - i_b
        better = i_b * best_u > best_i * u_b  # exact; strict keeps earlier
        best_i = np.where(better, i_b, best_i)
        best_u = np.where(better, u_b, best_u)
        best_b = np.where(better, bench_ids[b], best_b)

    hit = best_b >= 0
    n_union = np.where(hit, best_u, 0)
    jacc_e6 = np.where(hit, best_i * 1_000_000 // np.maximum(best_u, 1), 0)
    contaminated = (hit & (best_i * thr_den >= best_u * thr_num)) \
        .astype(np.int64)
    return pa.table({
        "doc_id": pa.array(ids),
        "bench_id": pa.array(best_b),
        "n_inter": pa.array(best_i),
        "n_union": pa.array(n_union),
        "jacc_e6": pa.array(jacc_e6),
        "is_contaminated": pa.array(contaminated),
    })


def intradoc_repetition(t: pa.Table, text_col: str = "text",
                        id_col: str = "doc_id", n: int = 3) -> pa.Table:
    """Gopher-style intra-document repetition signal (Rae et al. 2021
    §A1.1 'duplicate n-grams'): per doc, total overlapping n-grams,
    occurrences beyond each gram's first (duplicates), and the duplicate
    fraction as an e6 int. Every doc emits a row (zeros when shorter than
    n tokens). Vectorized: shared ``ngram_strings`` builder, one
    unique+lexsort for per-doc distinct counts — no per-doc Python."""
    t = t.replace_schema_metadata(None)
    doc, words = _split_tokens(t, text_col)
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    n_grams = np.zeros(len(t), np.int64)
    n_dup = np.zeros(len(t), np.int64)
    gdoc, grams = ngram_strings(doc, words, n)
    if grams.size:
        n_grams = np.bincount(gdoc, minlength=len(t)).astype(np.int64)
        _, inv = np.unique(grams, return_inverse=True)
        order = np.lexsort((inv, gdoc))
        d_s, i_s = gdoc[order], inv[order]
        first = np.empty(d_s.size, bool)
        first[0] = True
        first[1:] = (d_s[1:] != d_s[:-1]) | (i_s[1:] != i_s[:-1])
        distinct = np.bincount(d_s[first], minlength=len(t))
        n_dup = n_grams - distinct.astype(np.int64)
    ratio = np.zeros(len(t), np.int64)
    nz = n_grams > 0
    ratio[nz] = np.floor(n_dup[nz] * 1e6 / n_grams[nz] + 0.5).astype(np.int64)
    return pa.table({"doc_id": pa.array(ids),
                     "n_grams": pa.array(n_grams),
                     "n_dup_grams": pa.array(n_dup),
                     "dup_ratio_e6": pa.array(ratio)})


def doc_token_len(t: pa.Table, text_col: str = "text",
                  id_col: str = "doc_id") -> pa.Table:
    """(doc_id, n_tokens) per doc — non-empty whitespace tokens, same
    tokenizer as every other kernel (``_split_tokens`` semantics). Every
    doc emits a row (0 for empty/null text). One split + bincount per
    batch."""
    t = t.replace_schema_metadata(None)
    doc, _ = _split_tokens(t, text_col)
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    n = np.bincount(doc, minlength=len(t)).astype(np.int64)
    return pa.table({"doc_id": pa.array(ids), "n_tokens": pa.array(n)})


def doc_segments(t: pa.Table, text_col: str = "text",
                 id_col: str = "doc_id", w: int = 10) -> pa.Table:
    """Fixed token-window segmentation: one (doc_id, seg_no, seg) row per
    w-token window (last window may be short) — the document-corpus analog
    of the reference's fixed-block chunker (rabin/rabin_dedup.c:711-724,
    ``-F`` mode) at token granularity, feeding corpus-wide segment-level
    dedup the way pcompress dedups identical fixed-size blocks.
    Vectorized: the flat (doc, token) arrays are cut at every w-th
    within-doc position, wrapped as an Arrow ListArray at those offsets,
    and joined with one ``pc.binary_join`` kernel — no per-segment
    Python."""
    import pyarrow.compute as pc

    t = t.replace_schema_metadata(None)
    doc, words = _split_tokens(t, text_col)
    ids = t[id_col].to_numpy(zero_copy_only=False)
    if doc.size == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "seg_no": pa.array([], pa.int64()),
                         "seg": pa.array([], pa.string())})
    first = np.empty(doc.size, bool)
    first[0] = True
    first[1:] = doc[1:] != doc[:-1]
    starts = np.flatnonzero(first)
    sizes = np.diff(np.append(starts, doc.size))
    pos = np.arange(doc.size, dtype=np.int64) - np.repeat(starts, sizes)
    segstart = pos % w == 0
    offs = np.append(np.flatnonzero(segstart), doc.size).astype(np.int64)
    lst = pa.LargeListArray.from_arrays(pa.array(offs),
                                        pa.array(words, pa.string()))
    seg = pc.binary_join(lst, " ")
    sdoc = doc[segstart]
    return pa.table({"doc_id": pa.array(ids[sdoc].astype(np.int64)),
                     "seg_no": pa.array(pos[segstart] // w),
                     "seg": seg})


def doc_shingle_rows(t: pa.Table, n: int = 3, text_col: str = "text",
                     id_col: str = "doc_id",
                     carry_col: str | None = None) -> pa.Table:
    """Exploded DISTINCT-per-doc token n-gram (shingle) strings:
    one (doc_id, sh[, carry]) row per distinct shingle per document.

    Batch-local and complete (a doc never spans batches), so any
    downstream shingle-keyed aggregate sees each (doc, shingle) once.
    Shingle construction is shared with the SQL twins: whitespace split
    (empty tokens dropped), n consecutive tokens joined by ' '. STRING
    shingles (not hashes) so the twin compares equal sets exactly."""
    t = t.replace_schema_metadata(None)
    doc, words = _split_tokens(t, text_col)
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    gdoc, grams = ngram_strings(doc, words, n)
    cols = {"doc_id": pa.array([], pa.int64()), "sh": pa.array([], pa.string())}
    if grams.size == 0:
        if carry_col is not None:
            cols[carry_col] = pa.array([], pa.string())
        return pa.table(cols)
    df = pd.DataFrame({"d": gdoc, "sh": grams}).drop_duplicates()
    cols = {"doc_id": pa.array(ids[df["d"].to_numpy()], pa.int64()),
            "sh": pa.array(df["sh"].to_numpy(), pa.string())}
    if carry_col is not None:
        carry = t[carry_col].to_numpy(zero_copy_only=False)
        cols[carry_col] = pa.array(carry[df["d"].to_numpy()].astype(str),
                                   pa.string())
    return pa.table(cols)


def doc_shingle_stats(t: pa.Table, n: int = 3, text_col: str = "text",
                      id_col: str = "doc_id") -> pa.Table:
    """(doc_id, n_shingles) — count of DISTINCT token n-grams per doc;
    every doc emits a row (0 when shorter than n tokens)."""
    t = t.replace_schema_metadata(None)
    doc, words = _split_tokens(t, text_col)
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    counts = np.zeros(len(t), np.int64)
    gdoc, grams = ngram_strings(doc, words, n)
    if grams.size:
        df = pd.DataFrame({"d": gdoc, "sh": grams}).drop_duplicates()
        np.add.at(counts, df["d"].to_numpy(), 1)
    return pa.table({"doc_id": pa.array(ids), "n_shingles": pa.array(counts)})


def sha_prefix_fingerprint(t: pa.Table, text_col: str = "text",
                           group_col: str = "lang") -> pa.Table:
    """Per-group PARTIAL of the order-invariant corpus fingerprint:
    XOR of each doc's first-60-bit SHA-256 prefix plus a doc count.
    XOR is commutative/associative and overflow-free, so partials
    combine across blocks in any order — the dataset-versioning analog
    of the reference's decoded-payload SHA manifest
    (test/backward_compat/, run_backward_compat.sh)."""
    import hashlib

    t = t.replace_schema_metadata(None)
    texts = t[text_col].to_pylist()
    h = np.fromiter(
        (int(hashlib.sha256((x or "").encode("utf-8")).hexdigest()[:15], 16)
         for x in texts), np.int64, len(texts))
    g = pd.Series(t[group_col].to_numpy(zero_copy_only=False)).astype(str)
    out = pd.DataFrame({group_col: g, "h": h, "one": np.ones(h.size, np.int64)})
    agg = out.groupby(group_col, as_index=False).agg(
        fingerprint=("h", lambda s: np.bitwise_xor.reduce(s.to_numpy())),
        n_docs=("one", "sum"))
    return pa.table({
        group_col: pa.array(agg[group_col].to_numpy(), pa.string()),
        "n_docs": pa.array(agg["n_docs"].to_numpy(np.int64)),
        "fingerprint": pa.array(agg["fingerprint"].to_numpy(np.int64)),
    })


def source_token_counts(t: pa.Table, text_col: str = "text",
                        label_col: str = "source") -> pa.Table:
    """(source, tok, n) partial counts per batch — the Naive-Bayes fit
    combiner. Same space-split tokenization as the Gopher/LM kernels so
    the SQL twin is string_split; shuffle volume bounded by
    classes x batch vocabulary, never corpus size. One np.unique pass over
    a packed (class_idx, token_idx) int key — no per-row Python."""
    t = t.replace_schema_metadata(None)
    doc, words = _split_tokens(t, text_col)
    if doc.size == 0:
        return pa.table({"source": pa.array([], pa.string()),
                         "tok": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    src = t[label_col].to_numpy(zero_copy_only=False)[doc]
    uw, wi = np.unique(words, return_inverse=True)
    us, si = np.unique(src, return_inverse=True)
    key = si.astype(np.int64) * np.int64(uw.size) + wi
    uk, cnt = np.unique(key, return_counts=True)
    return pa.table({"source": pa.array(us[uk // uw.size], pa.string()),
                     "tok": pa.array(uw[uk % uw.size], pa.string()),
                     "n": pa.array(cnt.astype(np.int64))})


def nb_score_batch(t: pa.Table, vocab_toks: np.ndarray,
                   lp_mat_e6: np.ndarray, prior_e6: np.ndarray,
                   class_names: np.ndarray, text_col: str = "text",
                   id_col: str = "doc_id",
                   label_col: str = "source") -> pa.Table:
    """Multinomial Naive-Bayes scoring against a broadcast model — the
    fastText-style classifier slot of a webtext quality pipeline.
    ``lp_mat_e6``: (n_classes, V) ints floor(-ln((c+1)/(tot_c+V))*1e6+0.5)
    over the SORTED ``vocab_toks``; ``prior_e6``: (n_classes,) ints;
    ``class_names`` sorted, so argmin ties resolve to the
    lexicographically smallest class on both engines. All sums are int64
    (the lm_quality e6-quantization precedent — same accepted 1-ulp ln()
    exposure, zero float accumulation). OOV tokens are masked OUT of the
    sum (the SQL twin's inner join drops them; scoring the fit corpus has
    none), and a doc with zero in-vocab tokens emits no row, exactly like
    the twin's GROUP BY. One searchsorted + per-class reduceat per batch;
    the only Python loop is over the (fixed, small) class count."""
    t = t.replace_schema_metadata(None)
    doc, words = _split_tokens(t, text_col)
    ids = t[id_col].to_numpy(zero_copy_only=False)
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "true_source": pa.array([], pa.string()),
                      "pred_source": pa.array([], pa.string()),
                      "score_e6": pa.array([], pa.int64())})
    if doc.size == 0 or vocab_toks.size == 0:
        return empty
    idx = np.searchsorted(vocab_toks, words)
    idx = np.minimum(idx, vocab_toks.size - 1)
    ok = vocab_toks[idx] == words
    doc, idx = doc[ok], idx[ok]
    if doc.size == 0:
        return empty
    dnew = np.empty(doc.size, bool)
    dnew[0] = True
    dnew[1:] = doc[1:] != doc[:-1]
    starts = np.flatnonzero(dnew)
    n_cls = lp_mat_e6.shape[0]
    scores = np.empty((n_cls, starts.size), np.int64)
    for c in range(n_cls):
        scores[c] = np.add.reduceat(lp_mat_e6[c, idx], starts) + prior_e6[c]
    pred = np.argmin(scores, axis=0)
    best = scores[pred, np.arange(starts.size)]
    rows = doc[starts]
    true_src = t[label_col].combine_chunks().take(pa.array(rows))
    return pa.table({
        "doc_id": pa.array(ids[rows].astype(np.int64)),
        "true_source": true_src.cast(pa.string()),
        "pred_source": pa.array(np.asarray(class_names)[pred], pa.string()),
        "score_e6": pa.array(best),
    })
