"""LSH banding planner: choose (bands, rows) for a target Jaccard threshold.

The classic S-curve analysis (Leskovec/Rajaraman/Ullman, "Mining of
Massive Datasets" §3.4.3, public course material): with b bands of r rows
(b·r ≤ n permutations), a pair at Jaccard similarity s becomes an LSH
candidate with probability

    P(s) = 1 - (1 - s^r)^b

The planner scores every feasible (b, r) by its total S-curve error
against a step function at the target threshold t:

    fn(b, r) = ∫_t^1 (1 - P(s)) ds     (missed true pairs — hurts recall)
    fp(b, r) = ∫_0^t P(s) ds           (spurious candidates — hurts cost)
    err      = fn_weight · fn + fp

evaluated by midpoint quadrature on a uniform grid with EXACT rational
arithmetic (fractions.Fraction — polynomial in s, so every grid value is
a rational number; no float-order ambiguity, results reproducible
bit-for-bit and pytest-pinnable). e12 fixed-point in the emitted table.

Why it exists: the north rule fixes dup-pair recall ≥ 0.99 at a given
shingle/signature config. The flagship default (128 perms, 32×4 —
config.py:59) is exactly what this planner picks for t = 0.5 with
recall-weighted error (fn_weight = 10): the false-negative integral of
32×4 at t=0.5 is ~0.0057 (expected recall ≈ 0.989 for pairs uniform on
[0.5, 1], and the per-pair candidate probability is ≥ 0.988 for every
pair at s ≥ 0.6) — the planner documents WHY that default holds the
recall gate, and retunes it when a deployment changes t. (The flagship's
measured dup-pair recall is 1.0 on the bench corpus because planted
near-dups sit well above threshold, where P(s) ≈ 1.)

Driver-side utility (Σ_r n//r ≈ n·ln n combos × grid points of rational
math, well under a second at n=128) — a planning step run once before a 100-TB job,
not a data-path stage. Reference analog: pcompress's fixed
similarity-extent constants (rabin_dedup.c:921-994) replaced by an
explicit optimizer over the same tradeoff.
"""

from __future__ import annotations

from fractions import Fraction

import pyarrow as pa

E12 = 10 ** 12


def candidate_prob(s: Fraction, b: int, r: int) -> Fraction:
    """P(candidate) = 1 - (1 - s^r)^b, exact over rationals."""
    return 1 - (1 - s ** r) ** b


def plan_bands(num_perm: int = 128, threshold: Fraction | float = None,
               fn_weight: int = 10, grid: int = 100) -> pa.Table:
    """Score EVERY (b, r) with 1 ≤ b·r ≤ num_perm; return the ranked table.

    All b in 1..num_perm//r are scored per r (not just the maximal one):
    fp grows with b while fn shrinks, so at loose thresholds a smaller-b
    combo can be the true argmin (e.g. t=1/4 → 49×2, beating 64×2).
    Inner loop reuses q_s = 1 - s^r per grid cell and raises q_s^b
    incrementally over b, so the full space costs one rational multiply
    per (cell, combo). Rows ordered (r asc, b asc).

    Columns: bands, rows, perms_used, fp_e12, fn_e12, err_e12, chosen
    (exactly one row, the argmin of err = fn_weight·fn + fp; ties break
    to more perms used, then fewer bands — deterministic). threshold
    defaults to 1/2.
    """
    t = Fraction(threshold if threshold is not None else Fraction(1, 2))
    cut = t * grid
    if cut.denominator != 1:
        raise ValueError("threshold must align with the grid "
                         f"(t*grid = {cut} not an integer)")
    cut = int(cut)
    w = Fraction(1, grid)
    combos = []
    for r in range(1, num_perm + 1):
        bmax = num_perm // r
        if bmax < 1:
            break
        qs = [1 - Fraction(2 * i + 1, 2 * grid) ** r for i in range(grid)]
        acc = list(qs)                      # acc[i] = q_i^b for current b
        for b in range(1, bmax + 1):
            if b > 1:
                acc = [a * q for a, q in zip(acc, qs)]
            fp = sum((1 - a) for a in acc[:cut]) * w
            fn = sum(acc[cut:], Fraction(0)) * w
            err = fn * fn_weight + fp
            combos.append((b, r, b * r, fp, fn, err))
    best = min(combos, key=lambda c: (c[5], -c[2], c[0]))
    return pa.table({
        "bands": pa.array([c[0] for c in combos], pa.int64()),
        "rows": pa.array([c[1] for c in combos], pa.int64()),
        "perms_used": pa.array([c[2] for c in combos], pa.int64()),
        "fp_e12": pa.array([int(c[3] * E12) for c in combos], pa.int64()),
        "fn_e12": pa.array([int(c[4] * E12) for c in combos], pa.int64()),
        "err_e12": pa.array([int(c[5] * E12) for c in combos], pa.int64()),
        "chosen": pa.array([c is best for c in combos], pa.bool_()),
    })


def recall_floor(b: int, r: int, threshold: Fraction | float,
                 grid: int = 1000) -> float:
    """Worst-case per-pair candidate probability AT the threshold —
    P(t) itself, the recall floor for pairs exactly at t (pairs above t
    do strictly better; the S-curve is monotone)."""
    t = Fraction(threshold)
    return float(candidate_prob(t, b, r))
