"""Deterministic synthetic web-page corpus with planted duplicates (FIXTURES F1-F3).

Mirrors how the reference tests dedup: replicated base blocks interleaved
with unique sections (test/integration/test_dedup.sh:36-48) and doubled
corpora for guaranteed duplication (test/run_test.sh:26-31). Here the unit is
a web page row ``(url, warc_ts, html, text, lang)`` (BASELINE.json
input_hint) and the planted classes are per FIXTURES.md:

Per 25-doc group: 15 unique; 2 exact copies of doc0; near-dups of doc1
(J≈.95, .85), doc2 (J≈.7), doc3 (J≈.55 — negative control); 2 substring
docs embedding an ~8 KB token span of doc4; 1 boilerplate-only; 1 edge row
(rotating empty / whitespace / very-long / non-ASCII).

Everything is a pure function of (n_docs, seed): per-group rng streams make
the corpus prefix-stable and generation shardable.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from pcompress_ray.config import PipelineConfig
from pcompress_ray.stages.components import union_find
from pcompress_ray.stages.extract import normalize_text
from pcompress_ray.stages.signatures import doc_shingles, exact_jaccard

GROUP = 25
_SYL = ["ba", "co", "da", "en", "fu", "go", "hi", "ja", "ka", "lo", "ma", "ne",
        "or", "pa", "qu", "ra", "su", "ta", "ul", "va", "wi", "xe", "yo", "za",
        "ber", "con", "dor", "eth", "fin", "gor", "han", "ith", "jun", "kel",
        "lor", "min", "nor", "oth", "per", "qar", "ril", "sol", "tur", "urn"]

NAV_TOKENS = 48  # template tokens shared by every page (the boilerplate)


def _vocab(seed: int, size: int = 8192) -> np.ndarray:
    rng = np.random.default_rng(seed ^ 0xC0FFEE)
    syl = np.array(_SYL)
    n_syl = rng.integers(2, 5, size)
    words = ["".join(syl[rng.integers(0, len(syl), k)]) for k in n_syl]
    return np.array(words, dtype=object)


def _template(vocab: np.ndarray, seed: int):
    rng = np.random.default_rng(seed ^ 0xBEEF)
    nav = " ".join(vocab[rng.integers(0, len(vocab), NAV_TOKENS // 2)])
    foot = " ".join(vocab[rng.integers(0, len(vocab), NAV_TOKENS // 2)])
    return nav, foot


def _html(nav: str, foot: str, title: str, body: str) -> bytes:
    return (f"<html><head><title>{title}</title>"
            f"<style>body{{margin:0}}</style></head>"
            f"<body><nav><a href=\"/\">{nav}</a></nav>"
            f"<main><p>{body}</p></main>"
            f"<footer>{foot}</footer></body></html>").encode("utf-8")


def _near_dup(tokens: list[str], target_j: float, vocab, rng, k: int) -> list[str]:
    """Token-substitution copy targeting shingle-Jaccard ≈ target_j."""
    surv = 2 * target_j / (1 + target_j)
    p = 1 - surv ** (1.0 / k)
    toks = list(tokens)
    hits = np.flatnonzero(rng.random(len(toks)) < p)
    subs = vocab[rng.integers(0, len(vocab), hits.size)]
    for i, w in zip(hits, subs):
        toks[i] = w
    return toks


def _gen_group(g: int, n_docs: int, seed: int, vocab: np.ndarray,
               nav: str, foot: str, k: int):
    """Generate one 25-doc group (pure function of (g, seed)); returns
    parallel lists (urls, tss, htmls, texts, langs)."""
    rng = np.random.default_rng(seed + g * 1_000_003)
    base_tokens: dict[int, list[str]] = {}
    urls, tss, htmls, texts, langs = [], [], [], [], []
    lens = np.maximum(rng.normal(400, 150, GROUP).astype(int), 60)
    lens[4] = max(int(lens[4]), 1600)  # substring-span base must be long
    span_s0 = 0
    for local in range(GROUP):
        idx = g * GROUP + local
        if idx >= n_docs:
            break
        lang = ("de" if idx % 41 == 7 else "fr" if idx % 41 == 19 else "en")
        kind_edge = g % 4  # rotation for the edge row

        if local <= 14:  # unique
            toks = list(vocab[rng.integers(0, len(vocab), lens[local])])
        elif local in (15, 16):  # exact copies of doc0
            toks = base_tokens[0]
        elif local == 17:
            toks = _near_dup(base_tokens[1], 0.95, vocab, rng, k)
        elif local == 18:
            toks = _near_dup(base_tokens[1], 0.85, vocab, rng, k)
        elif local == 19:
            toks = _near_dup(base_tokens[2], 0.70, vocab, rng, k)
        elif local == 20:
            toks = _near_dup(base_tokens[3], 0.55, vocab, rng, k)  # negative
        elif local in (21, 22):  # substring: ~8KB span of doc4 inside unique
            span_len = min(1400, len(base_tokens[4]) - 10)
            if local == 21:
                span_s0 = int(rng.integers(0, len(base_tokens[4]) - span_len))
            s0 = span_s0  # SAME span for 21 and 22 → (21,22) is a true pair
            span = base_tokens[4][s0 : s0 + span_len]
            # unique pre/post large enough that pairwise Jaccard stays
            # below the near-dup threshold — these pairs specifically
            # exercise chunk-identity (substring) detection
            pre = list(vocab[rng.integers(0, len(vocab), max(int(lens[local]), 700))])
            post = list(vocab[rng.integers(0, len(vocab), 500)])
            toks = pre + span + post
        elif local == 23:  # boilerplate-only: modest unique body
            toks = list(vocab[rng.integers(0, len(vocab), 150)])
        else:  # local == 24: edge row
            if kind_edge == 0:
                toks = []
            elif kind_edge == 1:
                toks = ["   "]  # whitespace-only text
            elif kind_edge == 2:
                toks = list(vocab[rng.integers(0, len(vocab), 40_000)])  # very long
            else:
                toks = ["übermäßig", "schnelle", "züge", "naïve", "façade",
                        "日本語", "текст"] * 30
        base_tokens[local] = toks
        body = " ".join(toks)
        # exact copies are byte-identical pages under a different url
        # (mirror semantics — the analog of replicated base blocks in
        # test_dedup.sh); everything except the url matches, so the
        # title must be the base doc's
        title = f"page {g * GROUP if local in (15, 16) else idx}"
        urls.append(f"https://site{g:05d}.example/p{idx:09d}")
        tss.append(1_600_000_000_000_000 + idx * 1_000_000)  # us
        htmls.append(_html(nav, foot, title, body))
        texts.append(body)
        langs.append(lang)
    return urls, tss, htmls, texts, langs


def make_corpus(n_docs: int, seed: int = 42, cfg: PipelineConfig | None = None,
                with_oracle: bool = True):
    """→ (pages: pa.Table, oracle_pairs: pa.Table, oracle_clusters: pa.Table).

    ``with_oracle=False`` skips the brute-force oracle (bench-scale corpora).
    """
    cfg = cfg or PipelineConfig()
    vocab = _vocab(seed)
    nav, foot = _template(vocab, seed)
    k = cfg.shingle_k

    urls, tss, htmls, texts, langs = [], [], [], [], []
    pair_rows = []  # (rank_a, rank_b, kind, group)

    n_groups = (n_docs + GROUP - 1) // GROUP
    for g in range(n_groups):
        gu, gt, gh, gx, gl = _gen_group(g, n_docs, seed, vocab, nav, foot, k)
        urls.extend(gu); tss.extend(gt); htmls.extend(gh)
        texts.extend(gx); langs.extend(gl)

        # planted pair bookkeeping (ranks are global row indices)
        def R(local_i):
            return g * GROUP + local_i

        last = n_docs - 1 - g * GROUP  # last valid local in this group
        fam = [
            (0, 15, "exact"), (0, 16, "exact"), (15, 16, "exact"),
            (1, 17, "near"), (1, 18, "near"), (17, 18, "near"),
            (2, 19, "near"), (3, 20, "near"),
            (4, 21, "substring"), (4, 22, "substring"), (21, 22, "substring"),
        ]
        for a, b, kind in fam:
            if a <= last and b <= last:
                pair_rows.append((R(a), R(b), kind, g))

    pages = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(tss, pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
    })

    if not with_oracle:
        return pages, None, None

    # ---- oracle: true shingle Jaccard for planted pairs (brute force) ----
    norm_cache: dict[int, str] = {}

    def norm(rank: int) -> str:
        if rank not in norm_cache:
            from pcompress_ray.stages.extract import extract_html_bytes
            norm_cache[rank] = normalize_text(extract_html_bytes(htmls[rank]))
        return norm_cache[rank]

    sh_cache: dict[int, np.ndarray] = {}

    def sh(rank: int) -> np.ndarray:
        if rank not in sh_cache:
            sh_cache[rank] = doc_shingles(norm(rank), k)
        return sh_cache[rank]

    pr = {"url_a": [], "url_b": [], "kind": [], "jaccard": [], "rank_a": [], "rank_b": []}
    planted = set()
    for a, b, kind, g in pair_rows:
        j = exact_jaccard(sh(a), sh(b))
        pr["url_a"].append(urls[a]); pr["url_b"].append(urls[b])
        pr["kind"].append(kind); pr["jaccard"].append(j)
        pr["rank_a"].append(a); pr["rank_b"].append(b)
        planted.add((a, b))

    # ACCIDENTAL high-Jaccard pairs: template-dominated short docs (empty /
    # whitespace / repeated-content edge rows) legitimately exceed the
    # threshold with each other. Brute-force all pairs among docs with few
    # unique shingles (only they can accidentally reach J≥0.6; see analysis
    # in tests) and fold them into the oracle.
    small = [r for r in range(n_docs) if sh(r).size <= 120]
    for i in range(len(small)):
        for jdx in range(i + 1, len(small)):
            a, b = small[i], small[jdx]
            if (a, b) in planted:
                continue
            jac = exact_jaccard(sh(a), sh(b))
            if jac >= 0.6:
                pr["url_a"].append(urls[a]); pr["url_b"].append(urls[b])
                pr["kind"].append("near"); pr["jaccard"].append(jac)
                pr["rank_a"].append(a); pr["rank_b"].append(b)
    oracle_pairs = pa.table({
        "url_a": pa.array(pr["url_a"]), "url_b": pa.array(pr["url_b"]),
        "kind": pa.array(pr["kind"]), "jaccard": pa.array(pr["jaccard"], pa.float64()),
        "rank_a": pa.array(pr["rank_a"], pa.int64()), "rank_b": pa.array(pr["rank_b"], pa.int64()),
    })

    # ---- oracle clusters: transitive closure at the operating threshold ----
    ea, eb = [], []
    for i in range(len(pr["rank_a"])):
        kind, j = pr["kind"][i], pr["jaccard"][i]
        if kind == "exact" or (kind == "near" and j >= cfg.jaccard_threshold) \
           or kind == "substring":
            ea.append(pr["rank_a"][i]); eb.append(pr["rank_b"][i])
    # global identical-normalized-text groups (empty/whitespace rows collapse)
    by_norm: dict[str, int] = {}
    for rank in range(n_docs):
        nt = norm(rank)
        first = by_norm.setdefault(nt, rank)
        if first != rank:
            ea.append(first); eb.append(rank)
    labels = union_find(np.asarray(ea, dtype=np.int64), np.asarray(eb, dtype=np.int64))
    cluster = np.array([labels.get(r, r) for r in range(n_docs)], dtype=np.int64)
    oracle_clusters = pa.table({
        "url": pa.array(urls), "cluster_id": pa.array(cluster),
        "is_canonical": pa.array(cluster == np.arange(n_docs)),
    })
    return pages, oracle_pairs, oracle_clusters


def write_bench_corpus(out_dir: str, n_docs: int, seed: int = 42,
                       groups_per_shard: int = 16) -> str:
    """Bench-scale pages corpus, generated in PARALLEL Ray tasks (one task
    per shard of 25-doc groups — groups are rng-independent), written as
    partitioned Parquet with a ``rank`` column. Cached by (n_docs, seed).
    """
    import ray

    os.makedirs(out_dir, exist_ok=True)
    marker = os.path.join(out_dir, f"_complete_{n_docs}_{seed}")
    if os.path.exists(marker):
        return out_dir

    cfg = PipelineConfig()
    vocab = _vocab(seed)
    nav, foot = _template(vocab, seed)
    k = cfg.shingle_k
    n_groups = (n_docs + GROUP - 1) // GROUP
    vocab_ref = ray.put(vocab)

    @ray.remote
    def gen_shard(s0: int, s1: int, shard_id: int) -> str:
        v = ray.get(vocab_ref)
        urls, tss, htmls, texts, langs = [], [], [], [], []
        for g in range(s0, s1):
            gu, gt, gh, gx, gl = _gen_group(g, n_docs, seed, v, nav, foot, k)
            urls.extend(gu); tss.extend(gt); htmls.extend(gh)
            texts.extend(gx); langs.extend(gl)
        ranks = np.array([int(u[-9:]) for u in urls], dtype=np.int64)
        t = pa.table({
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
            "rank": pa.array(ranks),
        })
        path = os.path.join(out_dir, f"part-{shard_id:05d}.parquet")
        pq.write_table(t, path)
        return path

    futs = []
    sid = 0
    for s0 in range(0, n_groups, groups_per_shard):
        futs.append(gen_shard.remote(s0, min(s0 + groups_per_shard, n_groups), sid))
        sid += 1
    ray.get(futs)
    with open(marker, "w") as f:
        f.write("ok")
    return out_dir


def read_bench_corpus(out_dir: str):
    import ray.data as rd

    return rd.read_parquet(out_dir)


def pages_from_documents(sf_dir: str):
    """Adapt the driver's ``documents`` table to the pages shape (no html).

    doc_id is the url-rank: url = doc://{doc_id:012d} preserves ordering.
    """
    import ray.data as rd

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"))

    def to_pages(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        urls = pa.array([f"doc://{i:012d}" for i in ids], pa.string())
        return pa.table({
            "url": urls,
            "warc_ts": pa.array(np.asarray(ids, dtype="int64") * 1_000_000,
                                pa.timestamp("us")),
            "text": t["text"],
            "lang": t["lang"],
            "doc_id": t["doc_id"],
        })

    return ds.map_batches(to_pages, batch_format="pyarrow")
