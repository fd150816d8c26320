"""Text extraction + normalization (stateless map_batches stage).

Plays the role of the reference's preprocessing filters + analyzer
(filters/analyzer/analyzer.c:32-124 classifies buffers; archive filters
transform bytes before chunking, archive/pc_arc_filter.c:71-125): a
byte-deterministic transform applied before chunking/shingling. The north
rule's per-row invariant — byte-identical extracted text per url across runs
and parallelism levels — is guaranteed by keeping this pure: regex +
str.lower + whitespace collapse only, no locale, no dict iteration order.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_TAG = re.compile(rb"<script\b.*?</script\s*>|<style\b.*?</style\s*>|<[^>]*>", re.S | re.I)
_ENT = {b"&amp;": b"&", b"&lt;": b"<", b"&gt;": b">", b"&quot;": b'"',
        b"&#39;": b"'", b"&nbsp;": b" "}
_WS = re.compile(rb"\s+")
_TOKEN = re.compile(r"[a-z0-9]+")


def extract_html_bytes(html: bytes) -> str:
    """Strip tags/scripts/styles, decode basic entities, collapse whitespace.

    Operates on bytes end-to-end (utf-8 decoded only at the end, with
    replacement) so the result is a pure function of the input bytes.
    """
    if not html:
        return ""
    txt = _TAG.sub(b" ", html)
    for ent, rep in _ENT.items():
        if ent in txt:
            txt = txt.replace(ent, rep)
    txt = _WS.sub(b" ", txt).strip()
    return txt.decode("utf-8", "replace")


def normalize_text(text: str) -> str:
    """Canonical text form fed to shingling: lowercase + collapsed whitespace."""
    return " ".join((text or "").lower().split())


def tokenize(text: str) -> list[str]:
    """Word tokens of normalized text — the one tokenizer every stage shares."""
    return _TOKEN.findall((text or "").lower())


class Extractor:
    """map_batches stage: html binary (or raw text) → normalized text column.

    Input: pyarrow batch with ``html`` (binary, optional) and/or ``text``.
    Output: adds ``text_norm`` (string). When ``html`` is present it wins,
    otherwise ``text`` is normalized directly.
    """

    def __init__(self, html_col: str = "html", text_col: str = "text",
                 out_col: str = "text_norm"):
        self.html_col = html_col
        self.text_col = text_col
        self.out_col = out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = batch.replace_schema_metadata(None)
        if self.html_col in batch.column_names:
            htmls = batch[self.html_col].to_pylist()
            out = [normalize_text(extract_html_bytes(h or b"")) for h in htmls]
        else:
            texts = batch[self.text_col].to_pylist()
            out = [normalize_text(t) for t in texts]
        return batch.append_column(self.out_col, pa.array(out, type=pa.string()))


# ---------------------------------------------------------------------------
# Link / anchor-text extraction (webgraph signal)
# ---------------------------------------------------------------------------

# <a ...href="...".../a> with the inner markup captured; non-greedy + DOTALL
# so nested inline tags inside the anchor stay in group 2 (RE2-compatible —
# the DuckDB oracle runs the same pattern)
_A_RE = re.compile(r'<a\s[^>]*href="([^"]*)"[^>]*>(.*?)</a\s*>', re.S | re.I)
_INNER_TAG = re.compile(r"<[^>]*>")


def extract_links_batch(t: pa.Table, html_col: str = "html",
                        id_col: str = "doc_id") -> pa.Table:
    """One row per <a href> link: (doc_id, link_no, href, anchor).

    ``anchor`` is the tag's inner text with nested markup stripped and
    whitespace-normalized (lowercased) — the form an anchor-text index
    aggregates. Links with an empty href are dropped (same rule as a crawl
    frontier). html may be binary (utf-8, replacement-decoded) or string.
    """
    t = t.replace_schema_metadata(None)
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    col = t[html_col]
    vals = col.to_pylist()
    out_id, out_no, out_href, out_anchor = [], [], [], []
    for i, h in enumerate(vals):
        if h is None:
            continue
        s = h.decode("utf-8", "replace") if isinstance(h, (bytes, bytearray)) else h
        no = 0
        for m in _A_RE.finditer(s):
            href = m.group(1)
            if not href:
                continue
            anchor = normalize_text(_INNER_TAG.sub(" ", m.group(2)))
            out_id.append(ids[i])
            out_no.append(no)
            out_href.append(href)
            out_anchor.append(anchor)
            no += 1
    return pa.table({
        "doc_id": pa.array(np.asarray(out_id, dtype=np.int64)),
        "link_no": pa.array(np.asarray(out_no, dtype=np.int64)),
        "href": pa.array(out_href, pa.string()),
        "anchor": pa.array(out_anchor, pa.string()),
    })


def anchor_index(links_ds, n_parts: int = 32):
    """Exploded links Dataset -> per-target anchor-text index:
    (href, n_links, n_src_docs, top_anchor) where top_anchor is the most
    frequent anchor string for that target (ties -> lexicographically
    smallest) — the classic search-engine anchor signal, aggregated with
    one href-keyed hash-partitioned exchange (vectorized per partition;
    no driver materialization, scales to any link count)."""
    from pcompress_ray.functions.ops import exchange, run_starts

    def agg(part: pa.Table) -> pa.Table:
        stats = part.group_by("href", use_threads=False).aggregate(
            [([], "count_all"), ("doc_id", "count_distinct")]) \
            .rename_columns(["href", "n_links", "n_src_docs"])
        cnt = part.filter(pc.is_valid(part["anchor"])) \
            .group_by(["href", "anchor"], use_threads=False) \
            .aggregate([([], "count_all")]) \
            .sort_by([("href", "ascending"), ("count_all", "descending"),
                      ("anchor", "ascending")])
        top = cnt.filter(run_starts(cnt["href"])).select(["href", "anchor"]) \
            .rename_columns(["href", "top_anchor"])
        return stats.join(top, "href", join_type="left outer") \
            .select(["href", "n_links", "n_src_docs", "top_anchor"])

    return exchange([links_ds], [["href"]], agg, n_parts=n_parts)
