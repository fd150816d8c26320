"""BPE tokenizer training + encoding over the corpus (training-data op).

Reference parity: pcompress's adaptive layer learns a per-segment dictionary
from the data before coding (adaptive compress mode selection + the LZ
dictionaries its codecs build, pcompress.c dispatch); the LLM-corpus analog
is learning a subword vocabulary from corpus statistics, then applying it as
a deterministic encode pass.  Algorithm: byte-pair encoding over a weighted
word list (Sennrich et al. 2016), the exact shape SentencePiece/HF use at
scale: the corpus is never rescanned per merge — ONE distributed
word-frequency aggregation compresses 100 TB of text into a vocabulary-sized
weighted word table (Heaps' law), merges are trained on that table, and
encoding is an embarrassingly parallel map_batches with a per-worker
word->tokens cache.

Scale notes:
- word counting: batch-local Counter combiner (C-speed regex + Counter), one
  hash-partitioned exchange over DISTINCT words per batch, per-partition
  deterministic top-k, driver merge bounded by n_parts * max_words rows.
- training: O(n_merges * total_chars_of_vocab) on the driver — vocab-sized,
  corpus-independent.
- encoding: merge ranks ride plasma once (ray.put), each worker caches
  per-word encodings (words repeat; the cache hit rate IS the compression).

Determinism: ties in pair frequency break on the lexicographically smallest
pair; word top-k ties break on the lexicographically smallest word — the
same corpus always yields the same merges at any parallelism.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from pcompress_ray.functions.ops import exchange

_WORD_RE = re.compile(r"[a-z0-9]+")


def pretokenize(text: str) -> list[str]:
    """Deterministic pre-tokenization: lowercase alnum runs."""
    return _WORD_RE.findall(text.lower())


def batch_word_counts(t: pa.Table) -> pa.Table:
    """Batch-local word counts (the combiner before the vocab exchange)."""
    c: Counter = Counter()
    for txt in t["text"].to_pylist():
        c.update(_WORD_RE.findall((txt or "").lower()))
    if not c:
        return pa.table({"word": pa.array([], pa.string()),
                         "cnt": pa.array([], pa.int64())})
    words = list(c.keys())
    return pa.table({"word": words,
                     "cnt": np.fromiter((c[w] for w in words), np.int64,
                                        len(words))})


def word_vocab(docs_ds, max_words: int = 50_000, min_count: int = 1,
               n_parts: int = 32) -> pd.DataFrame:
    """Global (word, cnt) table, top ``max_words`` by (cnt desc, word asc).

    Per-partition top-k bounds the driver pull at n_parts * max_words rows
    regardless of corpus size (any corpus-global top-k word is top-k within
    its own partition — partitioning is by word, so all counts of a word
    co-locate before the cut)."""

    def reduce_part(part: pa.Table) -> pa.Table:
        g = part.group_by("word", use_threads=False) \
            .aggregate([("cnt", "sum")]).rename_columns(["word", "cnt"])
        return g.filter(pc.greater_equal(g["cnt"], min_count)) \
            .sort_by([("cnt", "descending"), ("word", "ascending")]) \
            .slice(0, max_words)

    partials = docs_ds.map_batches(batch_word_counts, batch_format="pyarrow")
    # materialized first: to_pandas over the bare exchange output would
    # launch one more Ray Data execution over blocks that already exist
    vocab = exchange([partials], [["word"]], reduce_part,
                     n_parts=n_parts).materialize().to_pandas()
    vocab = vocab.sort_values(["cnt", "word"], ascending=[False, True],
                              kind="stable").head(max_words)
    return vocab.reset_index(drop=True)


def train_bpe(words: list[str], counts, n_merges: int):
    """Weighted BPE merges from a (word, count) table.

    Returns [(left, right, pair_count), ...] in merge order.  Naive
    rescan-per-merge (the reference algorithm, trivially auditable) — the
    input is vocabulary-sized, so this is corpus-independent work.
    """
    seqs = [list(w) for w in words]
    counts = [int(c) for c in counts]
    merges: list[tuple[str, str, int]] = []
    for _ in range(n_merges):
        pc: Counter = Counter()
        for seq, c in zip(seqs, counts):
            for i in range(len(seq) - 1):
                pc[(seq[i], seq[i + 1])] += c
        if not pc:
            break
        (l, r), best_cnt = min(pc.items(), key=lambda kv: (-kv[1], kv[0]))
        merges.append((l, r, best_cnt))
        tok = l + r
        for seq in seqs:
            i = 0
            while i < len(seq) - 1:
                if seq[i] == l and seq[i + 1] == r:
                    seq[i:i + 2] = [tok]
                else:
                    i += 1
    return merges


def encode_word(word: str, ranks: dict[tuple[str, str], int]) -> list[str]:
    """Apply merges in rank order (lowest rank first, all occurrences
    left-to-right) — the standard BPE encode."""
    seq = list(word)
    while len(seq) >= 2:
        best_rank, best_pair = None, None
        for i in range(len(seq) - 1):
            r = ranks.get((seq[i], seq[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_pair = r, (seq[i], seq[i + 1])
        if best_pair is None:
            break
        l, r_ = best_pair
        tok = l + r_
        i = 0
        while i < len(seq) - 1:
            if seq[i] == l and seq[i + 1] == r_:
                seq[i:i + 2] = [tok]
            else:
                i += 1
    return seq


def bpe_token_counts(docs_ds, merges_ref, concurrency=None):
    """Per-doc BPE token counts: (doc_id, n_words, n_bpe_tokens).

    ``merges_ref``: ray.ObjectRef of the [(l, r), ...] merge list.  Workers
    build the rank dict once and memoize per-word encodings (stateless-task
    + per-worker cache pattern, as dedup_pipeline's sig_fn)."""

    def encode_batch(t: pa.Table, _cache: dict = {}) -> pa.Table:
        import ray
        state = _cache.get("state")
        if state is None:
            merges = ray.get(merges_ref)
            ranks = {(l, r): i for i, (l, r) in enumerate(merges)}
            state = (ranks, {})
            _cache["state"] = state
        ranks, word_cache = state
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        nw = np.zeros(len(t), np.int64)
        nt = np.zeros(len(t), np.int64)
        for j, txt in enumerate(t["text"].to_pylist()):
            words = _WORD_RE.findall((txt or "").lower())
            nw[j] = len(words)
            total = 0
            for w in words:
                n = word_cache.get(w)
                if n is None:
                    n = len(encode_word(w, ranks))
                    word_cache[w] = n
                total += n
            nt[j] = total
        return pa.table({"doc_id": ids.astype(np.int64),
                         "n_words": nw, "n_bpe_tokens": nt})

    kwargs = {"batch_format": "pyarrow"}
    if concurrency is not None:
        kwargs["concurrency"] = concurrency
    return docs_ds.map_batches(encode_batch, **kwargs)
