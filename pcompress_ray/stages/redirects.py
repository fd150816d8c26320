"""Redirect / canonical-chain resolution by pointer doubling.

Web corpora carry pointer chains: HTTP redirects, rel=canonical links,
moved pages. Dedup and ranking want every page attributed to its FINAL
target, i.e. the transitive closure of a functional pointer graph
(each node has exactly one out-pointer; roots point to themselves).
Following chains one hop per round costs O(longest chain) rounds; this
stage runs classic POINTER DOUBLING (Wyllie's list-ranking shortcut,
standard PRAM/BSP material): each round replaces every node's pointer
with its pointer's pointer and accumulates hop counts,

    ptr'[i]  = ptr[ptr[i]]          hops'[i] = hops[i] + hops[ptr[i]]

halving every chain per round — O(log L) rounds to full resolution,
with exact hop distances.

Execution: one BSP engine round (functions/bsp.py) per doubling over
(node, ptr, hops) blocks partitioned by node % P — unresolved rows ask
their ptr's partition, which answers ptr[ptr], hops[ptr] back to
node % P — until no pointer changes. ``stages/components.py`` shortcuts
its hook forests with the same loop (``jump_to_roots``).

Reference analog: pcompress's backward-reference resolution — a dedup
block chain ref → ref → origin is flattened to direct origin offsets at
restore time (rabin_dedup.c backward-ref chasing); here the same
flattening runs data-parallel with hop accounting.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def jump_to_roots(bsp, state: list, max_rounds: int) -> list:
    """Pointer doubling over (node, ptr, hops) state blocks until every ptr
    is a root (or a collapsed cycle); raises after ``max_rounds`` rounds."""
    from pcompress_ray.functions.bsp import col, concat, lookup, route

    P = bsp.n_parts

    def ask(t: pa.Table):
        node, ptr = col(t, "node"), col(t, "ptr")
        m = ptr != node
        return route(pa.table({"node": node[m], "ptr": ptr[m]}), ptr[m], P)

    def answer(t: pa.Table, *incoming):
        req = concat(incoming)
        ix = lookup(col(t, "node"), col(req, "ptr"))
        node = col(req, "node")
        ans = pa.table({"node": node, "ptr": col(t, "ptr")[ix],
                        "hops": col(t, "hops")[ix]})
        return route(ans, node, P)

    def update(t: pa.Table, *incoming):
        ans = concat(incoming)
        if ans is None:
            return t, 0
        ix = lookup(col(t, "node"), col(ans, "node"))
        ptr, hops, new = col(t, "ptr"), col(t, "hops"), col(ans, "ptr")
        changed = int((ptr[ix] != new).sum())
        ptr[ix] = new
        hops[ix] += col(ans, "hops")
        return pa.table({"node": t["node"], "ptr": ptr, "hops": hops}), changed

    return bsp.fixpoint(lambda s: bsp.round(s, ask, answer, update), state,
                        max_rounds, "pointer doubling")


def resolve_pointers(ds, node_col: str = "node", ptr_col: str = "ptr",
                     max_rounds: int = 64):
    """(node, ptr) Dataset → (node, final_id, hops) Dataset.

    Functional graph: one row per node; a root is a node with
    ptr == node. A pointer cycle raises — odd ones reach no fixpoint
    within ``max_rounds``, even ones collapse to self-pointers with
    nonzero hops (a redirect loop is data corruption upstream — fail
    loudly, the WARC-strict-mode discipline).
    """
    import ray
    import ray.data as rd

    from pcompress_ray.functions.bsp import BSP, col, concat, route

    bsp, sources = BSP.over(ds)
    P = bsp.n_parts

    def load(t: pa.Table):
        node, ptr = col(t, node_col), col(t, ptr_col)
        return route(pa.table({"node": node, "ptr": ptr,
                               "hops": (ptr != node).astype(np.int64)}),
                     node, P)

    def gather(_, *incoming):
        t = concat(incoming)
        if t is None:
            t = pa.table({c: pa.array([], pa.int64())
                          for c in ("node", "ptr", "hops")})
        return t.sort_by("node"), len(t)

    state, _ = bsp.round(None, load, gather, sources=sources)
    state = jump_to_roots(bsp, state, max_rounds)

    # even-length cycles DO reach a fixpoint — they collapse to
    # self-pointers with hops > 0 (p∘p of a 2-cycle is the identity).
    # A true root has hops == 0; anything else at ptr == node is a loop.
    def count_cycles(t: pa.Table) -> int:
        return int(((col(t, "ptr") == col(t, "node"))
                    & (col(t, "hops") > 0)).sum())

    cyc = sum(ray.get(bsp.map(count_cycles, state)))
    if cyc:
        raise ValueError(f"pointer cycle in input: {cyc} nodes resolve "
                         "to themselves with nonzero hop count")

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["node"], "final_id": t["ptr"],
                         "hops": t["hops"]})

    return rd.from_arrow_refs(bsp.map(rename, state))
