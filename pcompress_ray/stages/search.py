"""BM25 full-text search over a document Dataset.

The query-side of the index family (inverted_index builds the postings
layout; this scores). Okapi BM25 with k1=1.5, b=0.75 — constants chosen
exactly representable in binary so the SQL twin's float ops match the
engine bit-for-bit. Every per-term contribution is quantized to
floor(x*1e6+0.5) BEFORE the per-doc sum, making the total order-free
integer math (float addition order can never change the result).

Scale shape: ONE streaming pass emits (doc, term, tf, dl) rows for query
terms only (dl computed in the same batch — a doc never spans batches);
tiny df/N/total aggregates (a token-keyed exchange, per-block token
totals); contributions in one broadcast-consts map; per-doc integer sums
via a doc-keyed exchange; global top-k by sort+limit of the (bounded)
scored table.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

K1 = 1.5
B = 0.75


def bm25_topk(ds, terms: list[str], k: int = 20,
              id_col: str = "doc_id", text_col: str = "text"):
    """documents Dataset -> top-k (doc_id, n_terms, score_e6) Dataset."""
    from pcompress_ray.functions.ops import block_rounds, exchange
    from pcompress_ray.stages.textstats import doc_token_counts

    terms_arr = np.array(sorted(set(terms)), dtype=object)

    def term_rows(t: pa.Table) -> pa.Table:
        tc = doc_token_counts(t, text_col=text_col, id_col=id_col)
        doc = tc[id_col].to_numpy(zero_copy_only=False)
        c = tc["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        tok = tc["tok"].to_numpy(zero_copy_only=False)
        if doc.size == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "tok": pa.array([], pa.string()),
                             "c": pa.array([], pa.int64()),
                             "dl": pa.array([], pa.int64())})
        first = np.empty(doc.size, bool)
        first[0] = True
        first[1:] = doc[1:] != doc[:-1]
        starts = np.flatnonzero(first)
        dl = np.add.reduceat(c, starts)
        dl_row = np.repeat(dl, np.diff(np.append(starts, doc.size)))
        mask = np.isin(tok, terms_arr)
        return pa.table({id_col: pa.array(doc[mask].astype(np.int64)),
                         "tok": pa.array(tok[mask], pa.string()),
                         "c": pa.array(c[mask]),
                         "dl": pa.array(dl_row[mask])})

    def block_token_total(t: pa.Table) -> int:
        tc = doc_token_counts(t, text_col=text_col, id_col=id_col)
        return int(np.sum(tc["c"].to_numpy(zero_copy_only=False))) \
            if len(tc) else 0

    rows = ds.map_batches(term_rows, batch_format="pyarrow").materialize()
    if rows.count() == 0:
        # no query term occurs anywhere: typed empty result
        import ray.data as rd
        return rd.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "n_terms": pa.array([], pa.int64()),
            "score_e6": pa.array([], pa.int64())}))
    n_docs = ds.count()
    total_tokens = sum(block_rounds(ds, block_token_total))
    df_tbl = exchange([rows], [["tok"]], lambda t: t.group_by(
        "tok", use_threads=False).aggregate([([], "count_all")])).to_pandas()
    df_map = dict(zip(df_tbl["tok"], df_tbl["count_all"].astype(int)))
    avgdl = total_tokens / n_docs
    idf = {t: float(np.log(1.0 + ((n_docs - df_map[t]) + 0.5)
                           / (df_map[t] + 0.5)))
           for t in df_map}

    # vectorized idf lookup: rows are pre-filtered to query terms, so the
    # sorted key table is query-sized — searchsorted beats a per-row dict
    idf_keys = np.array(sorted(idf), dtype=object)
    idf_vals = np.array([idf[k] for k in idf_keys], np.float64)

    def contrib(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        tok = t["tok"].to_numpy(zero_copy_only=False)
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        dl = t["dl"].to_numpy(zero_copy_only=False).astype(np.int64)
        idfs = idf_vals[np.searchsorted(idf_keys, tok)]
        val = idfs * ((c * (K1 + 1.0))
                      / (c + K1 * ((1.0 - B) + B * (dl / avgdl))))
        return pa.table({
            id_col: t[id_col].cast(pa.int64()),
            "e6": pa.array(np.floor(val * 1e6 + 0.5).astype(np.int64))})

    def per_doc(part: pa.Table) -> pa.Table:
        return part.group_by(id_col, use_threads=False) \
            .aggregate([([], "count_all"), ("e6", "sum")]) \
            .rename_columns([id_col, "n_terms", "score_e6"])

    scored = exchange([rows.map_batches(contrib, batch_format="pyarrow")],
                      [[id_col]], per_doc, n_parts=16)
    return scored.sort(["score_e6", id_col],
                       descending=[True, False]).limit(k)
