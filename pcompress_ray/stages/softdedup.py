"""SoftDeDup: duplication-aware sampling weights instead of hard removal.

He et al. 2024, "SoftDedup: an Efficient Data Reweighting Method for
Speeding Up Language Model Pre-training" (ACL 2024, arXiv:2407.06654):
rather than deleting near/exact duplicates, KEEP every document and
downweight its sampling probability by its "data commonness" — documents
whose content appears k times in the corpus each get weight ∝ 1/k^alpha,
renormalized so the mean weight is 1 (total training tokens preserved).
Hard dedup is the alpha→∞ limit; alpha=1 reproduces the classic
"each distinct content sampled once per epoch in expectation".

This module is the weighting engine over ANY grouping key, so every dedup
tier the repo already has becomes a soft tier for free:

- exact tier:       key = text sha256            (stages/exact.py)
- normalized tier:  key = norm-text md5          (q_norm_text_dedup)
- near-dup tier:    key = flagship cluster_id    (pipelines/dedup.py)

Reference analog: pcompress's dedupe-gain accounting (A3 — how many bytes
each duplicate chunk family saved, pcompress.c:175-195) generalized from
"drop later copies" to "reweight all copies"; the reference's hard
identity dedup is the alpha→∞ special case of this operator.

All arithmetic is INTEGER (e6 fixed-point, floor division) so the DuckDB
twin reproduces every weight bit-for-bit — the bm25/dsir quantization
discipline:

    weight_e6      = 1_000_000 // dup_count^alpha
    norm_weight_e6 = n_docs * weight_e6 * 1_000_000 // sum(weight_e6)

Scale shape: one hash exchange on the key (per-partition vectorized
counts), one fixed-size per-block partial fold for the two normalization
scalars (sum_w, n_docs — 16 bytes per block, driver ingress #blocks), one
broadcast-scalar map pass. Nothing driver-side grows with the corpus.

Overflow discipline (exact at 10^12 docs):
- dup_count**alpha is never materialized in int64 — weight_e6 is exactly
  0 whenever dup_count exceeds floor(SCALE^(1/alpha)) (computed in
  Python ints), so the power is only taken where it provably fits.
- norm_weight_e6 = n_docs*w*SCALE//sum_w is exact past the int64 product
  bound via a distinct-value fold: w = SCALE // dup_count**alpha takes
  at most ~2*sqrt(SCALE) distinct values, so each batch computes the
  exact Python-int quotient once per DISTINCT weight (np.unique +
  searchsorted scatter — numpy speed, bit-exact; the DuckDB twin needs
  HUGEINT in the same regime).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from pcompress_ray.functions.ops import run_starts

SCALE = 1_000_000


def _dc_cap(alpha: int) -> int:
    """Largest dup_count whose alpha-th power is ≤ SCALE, in Python ints
    (weight_e6 is exactly 0 for any larger count, so the int64 power
    never needs to be taken there)."""
    cap = int(round(SCALE ** (1.0 / alpha)))
    while (cap + 1) ** alpha <= SCALE:
        cap += 1
    while cap > 1 and cap ** alpha > SCALE:
        cap -= 1
    return cap


def _weights_e6(dc: np.ndarray, alpha: int, cap: int) -> np.ndarray:
    """weight_e6 = SCALE // dc**alpha without int64 wrap: the power is
    evaluated only where dc ≤ cap (cap**alpha ≤ SCALE < 2^63); every
    larger count floors to 0 by definition."""
    w = np.zeros(len(dc), np.int64)
    m = dc <= cap
    if m.any():
        w[m] = SCALE // dc[m] ** alpha
    return w


def _norm_weights_e6(w: np.ndarray, n_docs: int, sum_w: int) -> np.ndarray:
    """Exact n_docs*w*SCALE//sum_w per element. int64 when the worst-case
    product fits; otherwise an exact distinct-value fold: w has at most
    ~2*sqrt(SCALE) distinct values, so the Python-int quotient is taken
    once per distinct weight and scattered back via searchsorted."""
    if n_docs * SCALE * SCALE < 2 ** 63:
        return n_docs * w * SCALE // sum_w
    if n_docs * SCALE >= 2 ** 63:
        # norm weights themselves (≤ n_docs*SCALE) no longer fit int64
        raise OverflowError(
            f"norm_weight_e6 exceeds int64 beyond {2**63 // SCALE} docs")
    uw = np.unique(w)
    unw = np.fromiter((n_docs * int(x) * SCALE // sum_w for x in uw),
                      np.int64, len(uw))
    return unw[np.searchsorted(uw, w)]


def _count_per_key(part: pa.Table, key_col: str, id_col: str) -> pa.Table:
    """Per-partition (id, dup_count): all rows of a key share a partition."""
    part = part.sort_by(key_col)
    first = run_starts(part[key_col])
    sizes = np.diff(np.append(np.flatnonzero(first), len(part)))
    return pa.table({id_col: part[id_col].cast(pa.int64()),
                     "dup_count": np.repeat(sizes, sizes).astype(np.int64)})


def soft_dedup_weights(ds, key_col: str, id_col: str = "doc_id",
                       alpha: int = 1, n_parts: int = 64):
    """(id, key) Dataset → (id, dup_count, weight_e6, norm_weight_e6).

    ``alpha`` is SoftDedup's sharpness exponent (integer so the fixed-point
    twin stays exact); weight_e6 = SCALE // dup_count**alpha.
    """
    import ray

    from pcompress_ray.functions.ops import block_rounds, exchange

    if alpha < 1:
        raise ValueError("alpha must be a positive integer")

    counted = exchange([ds], [[key_col]],
                       lambda part: _count_per_key(part, key_col, id_col),
                       n_parts=n_parts).materialize()

    cap = _dc_cap(alpha)

    def partial(t: pa.Table):
        dc = t["dup_count"].to_numpy(zero_copy_only=False).astype(np.int64)
        return int(_weights_e6(dc, alpha, cap).sum()), len(dc)

    parts = [p for p in block_rounds(counted, partial) if p is not None]
    sum_w = sum(p[0] for p in parts)
    n_docs = sum(p[1] for p in parts)
    # sum_w == 0 is reachable on a NON-empty corpus (every dup_count**alpha
    # above SCALE floors every weight to 0) — still emit the full output
    # schema, with all weights 0, so callers never see a schema fork
    scalars = ray.put((sum_w, n_docs, alpha, cap))

    def weigh(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        sw, nd, a, cp = ray.get(scalars)
        dc = t["dup_count"].to_numpy(zero_copy_only=False).astype(np.int64)
        w = _weights_e6(dc, a, cp)
        nw = (_norm_weights_e6(w, nd, sw) if sw > 0
              else np.zeros(len(w), np.int64))
        return pa.table({
            id_col: t[id_col].cast(pa.int64()),
            "dup_count": pa.array(dc),
            "weight_e6": pa.array(w.astype(np.int64)),
            "norm_weight_e6": pa.array(nw.astype(np.int64))})

    return counted.map_batches(weigh, batch_format="pyarrow")
