"""Corpus-rewriting segment dedup (RefinedWeb/CCNet-style passage removal).

Reference parity: pcompress's fixed-block identity dedup doesn't just COUNT
duplicate blocks — it replaces them with backward references and re-emits
the deduplicated stream (rabin/rabin_dedup.c:711-724 block-index probe +
rabin/rabin_dedup.c:1606-1617 backward-reference emit).  The corpus analog
removes every fixed token segment already seen EARLIER corpus-wide (first
occurrence by (doc_id, seg_no) wins — the same canonical backward order)
and re-emits the REWRITTEN document.  ``q_segment_dedup`` gives the counts;
this stage gives the actual cleaned corpus a training pipeline consumes.

Shape: two hash-partitioned exchanges, both vectorized per partition.

1. segment-keyed (``exchange`` on ``seg``): every occurrence of a
   segment string co-locates, so global keep-first is one stable sort +
   one shifted-comparison per partition — no per-key Python.
2. doc-keyed: per-doc ``seg_no`` sort, then kept segments are wrapped as an
   Arrow ``ListArray`` at doc boundaries and joined with ONE
   ``pc.binary_join`` kernel — no per-doc string building.

100-TB note: the exchanges carry the corpus text ~2x — irreducible in
spirit (a rewrite must move the text once to co-locate duplicate segments
and once to bring kept segments home), and each leg streams through the
object store with backpressure.  Keying leg 1 on a 128-bit segment hash
with the string carried as payload (not key) halves comparator cost at
scale; the string key is kept here so the DuckDB oracle compares equal
sets with zero collision caveats.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from pcompress_ray.functions.ops import run_starts


def _joined_per_doc(part: pa.Table, text_col: str, keep: np.ndarray,
                    sep: str):
    """(doc starts, rows per doc, kept rows per doc, joined kept text) of a
    doc-sorted partition: kept rows are wrapped as a ListArray at per-doc
    offsets and joined by a single ``pc.binary_join`` call."""
    starts = np.flatnonzero(run_starts(part["doc_id"]))
    sizes = np.diff(np.append(starts, len(part)))
    n_kept = np.add.reduceat(keep.astype(np.int64), starts)
    # offsets of kept rows at doc boundaries: cumulative kept count at
    # each doc start (exclusive prefix), closed by the total.
    ck = np.cumsum(keep.astype(np.int64))
    off = np.zeros(starts.size + 1, dtype=np.int64)
    off[1:] = ck[starts + sizes - 1]
    kept = part[text_col].filter(pa.array(keep)).combine_chunks()
    # int64 (large-list) offsets: a >2^31-line partition must not wrap
    lst = pa.LargeListArray.from_arrays(pa.array(off), kept)
    return starts, sizes, n_kept, pc.binary_join(lst, sep)


def mark_first_occurrence(part: pa.Table) -> pa.Table:
    """Global keep-first inside one seg-keyed partition.

    All rows of any segment string are guaranteed co-located (hash
    partition on ``seg``), so the first row of each run after a stable
    (seg, doc_id, seg_no) sort is the corpus-wide first occurrence.
    """
    part = part.sort_by([(c, "ascending") for c in ("seg", "doc_id", "seg_no")])
    return part.select(["doc_id", "seg_no", "seg"]).append_column(
        "keep", pa.array(run_starts(part["seg"]).astype(np.int8)))


def reassemble_docs(part: pa.Table) -> pa.Table:
    """Rebuild one doc-keyed partition's documents from kept segments.

    Vectorized: one (doc_id, seg_no) sort, doc boundaries by shifted
    comparison, kept rows joined per doc by ``_joined_per_doc``. Docs
    whose every segment was a duplicate still emit a row (empty
    ``new_text``).
    """
    part = part.sort_by([("doc_id", "ascending"), ("seg_no", "ascending")])
    keep = part["keep"].to_numpy().astype(bool)
    starts, sizes, n_kept, new_text = _joined_per_doc(part, "seg", keep, " ")
    return pa.table({"doc_id": part["doc_id"].take(starts),
                     "n_segs": sizes.astype(np.int64),
                     "n_kept": n_kept,
                     "new_text": new_text})


def segment_dedup_rewrite(ds, w: int = 10, n_parts: int = 32):
    """documents Dataset -> (doc_id, n_segs, n_kept, new_text) Dataset.

    ``ds`` must carry ``doc_id`` and ``text``.  Segmentation is the same
    fixed ``w``-token window as ``stages/textstats.doc_segments`` (the
    reference's ``-F`` fixed-block chunker analog), so counts agree with
    ``q_segment_dedup`` exactly.
    """
    from pcompress_ray.functions.ops import exchange
    from pcompress_ray.stages.textstats import doc_segments

    segs = ds.map_batches(lambda t: doc_segments(t, w=w),
                          batch_format="pyarrow")
    marked = exchange([segs], [["seg"]], mark_first_occurrence,
                      n_parts=n_parts)
    return exchange([marked], [["doc_id"]], reassemble_docs, n_parts=n_parts)


# ---------------------------------------------------------------------------
# Line-level boilerplate dedup (CCNet / RefinedWeb-style)
# ---------------------------------------------------------------------------

# exactly the chars Python would strip minus '\n' (already the separator);
# an EXPLICIT set so the DuckDB oracle's trim(line, ...) is bit-identical
_LINE_TRIM_CHARS = " \t\r\x0b\x0c"


def explode_lines(t: pa.Table, carry_cols: tuple = ()) -> pa.Table:
    """documents batch -> one row per line: (doc_id, line_no, line, key
    [, carry...]).

    Fully vectorized Arrow: one split_pattern over the batch, doc ids and
    line numbers from the ListArray offsets, key = whitespace-trimmed line
    (the dedup identity; the raw line rides along for lossless reassembly).
    Each ``carry_cols`` column rides on the doc's line_no==0 row only
    (null on every other line), so per-doc metadata crosses the line-keyed
    exchange once per DOC, not once per line.
    """
    import pyarrow.compute as pc

    t = t.replace_schema_metadata(None)
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    txt = pc.coalesce(t["text"].combine_chunks()
                      if isinstance(t["text"], pa.ChunkedArray) else t["text"],
                      pa.scalar("", pa.string()))
    lst = pc.split_pattern(txt, pattern="\n")
    if isinstance(lst, pa.ChunkedArray):
        lst = lst.combine_chunks()
    off = lst.offsets.to_numpy().astype(np.int64)
    sizes = np.diff(off)
    doc_rep = np.repeat(ids, sizes)
    line_no = np.arange(off[-1] - off[0], dtype=np.int64) \
        - np.repeat(off[:-1] - off[0], sizes)
    lines = lst.flatten()
    key = pc.utf8_trim(lines, characters=_LINE_TRIM_CHARS)
    cols = {"doc_id": pa.array(doc_rep),
            "line_no": pa.array(line_no),
            "line": lines,
            "key": key}
    if carry_cols:
        # scatter each doc's value to its first line; every split list has
        # >= 1 element (split of "" is [""]), so line 0 always exists
        first_idx = (off[:-1] - off[0]).astype(np.int64)
        n_lines = int(off[-1] - off[0])
        take_idx = np.full(n_lines, -1, np.int64)
        take_idx[first_idx] = np.arange(len(ids), dtype=np.int64)
        idx_arr = pa.array(take_idx, mask=take_idx < 0)
        for c in carry_cols:
            col = t[c].combine_chunks() \
                if isinstance(t[c], pa.ChunkedArray) else t[c]
            cols[c] = col.take(idx_arr)
    return pa.table(cols)


def mark_dup_lines(min_docs: int, carry_cols: tuple = ()):
    """Per key-partition: remove EVERY occurrence of a non-blank line whose
    trimmed form appears in >= min_docs DISTINCT documents (boilerplate —
    nav bars / cookie banners / footers — should vanish everywhere, unlike
    the keep-first segment rewrite above). Blank-after-trim lines are
    structural and never removed. ``carry_cols`` pass through untouched."""

    def run(part: pa.Table) -> pa.Table:
        part = part.sort_by([("key", "ascending"), ("doc_id", "ascending")])
        new_key = run_starts(part["key"])
        new_pair = new_key | run_starts(part["doc_id"])
        n = len(part)
        # distinct-doc count per key: reduceat of pair-first flags
        starts = np.flatnonzero(new_key)
        n_docs = np.add.reduceat(new_pair.astype(np.int64), starts)
        per_row = np.repeat(n_docs, np.diff(np.append(starts, n)))
        blank = pc.equal(part["key"], "").to_numpy(zero_copy_only=False)
        remove = (per_row >= min_docs) & ~blank
        return part.select(["doc_id", "line_no", "line", *carry_cols]) \
            .add_column(3, "keep", pa.array((~remove).astype(np.int8)))

    return run


def reassemble_lines(part: pa.Table, carry_cols: tuple = ()) -> pa.Table:
    """Doc-keyed partition -> (doc_id, n_lines, n_kept, new_text
    [, carry...]), kept lines re-joined per doc by ``_joined_per_doc``
    (same vectorized shape as reassemble_docs). Carried values are read
    from each doc's line_no==0 row (where explode_lines put them)."""
    part = part.sort_by([("doc_id", "ascending"), ("line_no", "ascending")])
    keep = part["keep"].to_numpy().astype(bool)
    starts, sizes, n_kept, new_text = _joined_per_doc(part, "line", keep, "\n")
    out = {"doc_id": part["doc_id"].take(starts),
           "n_lines": sizes.astype(np.int64),
           "n_kept": n_kept,
           "new_text": new_text}
    # line_no==0 is the first row of each doc segment after the sort
    out.update({c: part[c].take(starts) for c in carry_cols})
    return pa.table(out)


def line_dedup_rewrite(ds, min_docs: int = 2, n_parts: int = 32,
                       carry_cols: tuple = ()):
    """documents Dataset -> (doc_id, n_lines, n_kept, new_text
    [, carry...]) Dataset.

    CCNet/RefinedWeb-style line-level corpus cleaning: a line (trimmed of
    horizontal whitespace) occurring in >= ``min_docs`` distinct documents
    is boilerplate and removed from EVERY document; blank lines and unique
    lines pass through byte-identical. Complements segment_dedup_rewrite
    (keep-first passage dedup): this is the remove-all template scrubber.

    Shape mirrors the reference's fixed-block dedup rewrite
    (rabin/rabin_dedup.c:711-724 index probe + :1606-1617 re-emit) at line
    granularity: two hash-partitioned exchanges, both vectorized.

    100-TB note: the text crosses the exchange twice (once keyed by line to
    co-locate duplicates, once keyed by doc to reassemble) and streams with
    backpressure; there is no driver materialization and no broadcast set
    (unlike a collect-dup-keys design, this stays correct when the
    boilerplate set itself is huge). ``carry_cols`` (e.g. url) ride each
    doc's line_no==0 row through both exchanges — one value per DOC on the
    wire — so callers that need per-doc metadata on the rewritten output
    skip a third all-to-all hash join entirely (the curate funnel's
    line-scrub stage).
    """
    from pcompress_ray.functions.ops import exchange

    carry = tuple(carry_cols)
    lines = ds.map_batches(lambda t: explode_lines(t, carry),
                           batch_format="pyarrow")
    marked = exchange([lines], [["key"]], mark_dup_lines(min_docs, carry),
                      n_parts=n_parts)
    return exchange([marked], [["doc_id"]],
                    lambda part: reassemble_lines(part, carry),
                    n_parts=n_parts)
