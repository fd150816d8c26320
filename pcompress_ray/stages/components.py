"""Connected components over verified duplicate edges.

The reference resolves duplicates as backward references to the first
occurrence in stream order (rabin/rabin_dedup.c:830-873; ordering enforced by
the semaphore ring, pcompress.c:2617-2624). Re-expressed set-theoretically:
duplicate edges form a graph and the cluster representative ("canonical",
the analog of the backward-ref target) is the member with the minimum
ordering key. Order is defined by a COLUMN (url rank / doc_id), not arrival,
which is what makes output independent of parallelism (SURVEY §2.9).

Two implementations:
- ``min_label_components``: driver-side, fully vectorized numpy min-label
  relaxation with pointer jumping — O((E+V) · log diameter) array passes,
  no Python per-edge loop. Used when the edge set fits the driver
  (cfg.cc_driver_edge_limit; edges ≪ docs for dedup workloads).
- ``label_propagation``: the scale path — Shiloach–Vishkin-style
  hook-and-shortcut on the BSP engine (functions/bsp.py), node state
  partitioned by node % P. Each phase hooks every root onto its smallest
  neighbouring root, shortcuts the hooked forest to stars by pointer
  doubling and contracts the edges onto the roots. O(log V) phases
  (``_round_bound``), whatever the component diameter; dup clusters are
  near-cliques, so they finish in one or two.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa

class DisjointSet:
    """Array-backed union-find with path halving + union by size."""

    def __init__(self):
        self.parent: dict = {}
        self.size: dict = {}

    def find(self, x):
        p = self.parent
        if x not in p:
            p[x] = x
            self.size[x] = 1
            return x
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return ra


def union_find(edges_a: np.ndarray, edges_b: np.ndarray) -> dict:
    """Components of an edge list → {node: min_node_in_component}.

    Python-loop reference implementation (kept as the test oracle);
    production paths use ``min_label_components``.
    """
    ds = DisjointSet()
    for a, b in zip(edges_a.tolist(), edges_b.tolist()):
        ds.union(a, b)
    root_min: dict = {}
    for x in ds.parent:
        r = ds.find(x)
        m = root_min.get(r)
        if m is None or x < m:
            root_min[r] = x
    return {x: root_min[ds.find(x)] for x in ds.parent}


def min_label_components(edges_a: np.ndarray, edges_b: np.ndarray):
    """Vectorized components: → (sorted_nodes:int64, labels:int64).

    Min-label relaxation over the edge list plus pointer jumping
    (label ← label-of-label), iterated to fixpoint — every pass is whole-
    array numpy; no Python per-edge work. Label = min node id reachable,
    i.e. the canonical (backward-ref) representative.
    """
    a = np.asarray(edges_a, dtype=np.int64)
    b = np.asarray(edges_b, dtype=np.int64)
    if a.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ia, ib = inv[: a.size], inv[a.size :]
    lab = np.arange(nodes.size, dtype=np.int64)  # label as node INDEX
    while True:
        prev = lab.copy()
        # edge relaxation: both endpoints take the pair minimum
        m = np.minimum(lab[ia], lab[ib])
        np.minimum.at(lab, ia, m)
        np.minimum.at(lab, ib, m)
        # pointer jumping (path compression): label of my label
        lab = lab[lab]
        lab = lab[lab]
        if np.array_equal(lab, prev):
            break
    return nodes, nodes[lab]


def labels_to_lookup(labels_map: dict):
    """{node: label} dict → (sorted_keys, values) arrays for searchsorted."""
    if not labels_map:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    keys = np.fromiter(labels_map.keys(), dtype=np.int64, count=len(labels_map))
    vals = np.fromiter(labels_map.values(), dtype=np.int64, count=len(labels_map))
    order = np.argsort(keys)
    return keys[order], vals[order]


def lookup_labels(keys: np.ndarray, vals: np.ndarray,
                  ids: np.ndarray) -> np.ndarray:
    """Vectorized {keys→vals} lookup with identity default (searchsorted)."""
    ids = np.asarray(ids, dtype=np.int64)
    if keys.size == 0:
        return ids.copy()
    idx = np.minimum(np.searchsorted(keys, ids), keys.size - 1)
    hit = keys[idx] == ids
    return np.where(hit, vals[idx], ids)


def assign_clusters(n_or_ids, labels_map: dict) -> pd.DataFrame:
    """Full cluster table over all node ids: singletons keep their own id."""
    ids = np.asarray(n_or_ids, dtype=np.int64)
    keys, vals = labels_to_lookup(labels_map)
    cluster = lookup_labels(keys, vals, ids)
    return pd.DataFrame({"doc_rank": ids, "cluster_id": cluster,
                         "is_canonical": ids == cluster})


def _round_bound(n_nodes: int) -> int:
    """Hook phases that suffice for ``n_nodes`` nodes.

    Take the roots that still have an edge. Every one that has a smaller
    neighbour hooks onto the smallest. A root nobody hooks onto and that
    hooks nowhere has only smaller roots around it after the phase, so it
    hooks in the next one. Hence the roots that have an edge at least
    halve every two phases, and 2·⌈log2 V⌉ phases leave no edge.
    """
    return 2 * math.ceil(math.log2(max(n_nodes, 2))) + 1


def label_propagation(edges_ds):
    """Distributed components over an edges Dataset (cols a, b int64) →
    Dataset (node, label) for every node in an edge, label = the minimum
    node id of its component (as ``min_label_components``).

    State is (node, ptr ≤ node) on the BSP engine. A phase hooks (every
    edge offers min(a, b) to both endpoints, min-combined per block, and a
    node keeps its smallest offer), shortcuts (pointer doubling until every
    ptr is a root, ``redirects.jump_to_roots``) and contracts (each edge
    becomes (ptr(a), ptr(b)), loops and repeats dropped) until no edge is
    left. Raises after ``_round_bound`` phases, or when a shortcut runs
    past ⌈log2 V⌉ + 2 rounds.
    """
    import ray.data as rd

    from pcompress_ray.functions.bsp import (BSP, EMPTY, col, concat,
                                             group_reduce, lookup, route)
    from pcompress_ray.stages.redirects import jump_to_roots

    bsp, edges = BSP.over(edges_ds)
    P = bsp.n_parts
    empty = np.zeros(0, np.int64)

    def hook(t: pa.Table):
        a, b = col(t, "a"), col(t, "b")
        m = np.minimum(a, b)
        node, ptr = group_reduce(np.concatenate([a, b]),
                                 np.concatenate([m, m]), np.minimum)
        return route(pa.table({"node": node, "ptr": ptr}), node, P)

    def attach(t, *incoming):
        rows = [x for x in (t, concat(incoming)) if x is not None and len(x)]
        node, ptr = group_reduce(
            np.concatenate([col(x, "node") for x in rows] + [empty]),
            np.concatenate([col(x, "ptr") for x in rows] + [empty]),
            np.minimum)
        return pa.table({"node": node, "ptr": ptr,
                         "hops": np.zeros_like(node)}), node.size

    def by_a(t: pa.Table):
        a, b = col(t, "a"), col(t, "b")
        k = a != b
        return route(pa.table({"a": a[k], "b": b[k]}), a[k], P)

    def root_a(t: pa.Table, *incoming):
        e = concat(incoming)
        a = col(t, "ptr")[lookup(col(t, "node"), col(e, "a"))]
        b = col(e, "b")
        return route(pa.table({"a": a, "b": b}), b, P)

    def root_b(t: pa.Table, *incoming):
        e = concat(incoming)
        if e is None:
            return EMPTY, 0
        a = col(e, "a")
        b = col(t, "ptr")[lookup(col(t, "node"), col(e, "b"))]
        k = a != b
        ab = np.unique(np.stack([np.minimum(a[k], b[k]),
                                 np.maximum(a[k], b[k])]), axis=1)
        return pa.table({"a": ab[0], "b": ab[1]}), ab.shape[1]

    state, sizes = bsp.round(None, hook, attach, sources=edges)
    n = sum(sizes)
    bound, depth = _round_bound(n), math.ceil(math.log2(max(n, 2))) + 2
    for _ in range(bound):
        state = jump_to_roots(bsp, state, depth)
        edges, left = bsp.round(state, by_a, root_a, root_b, sources=edges)
        if sum(left) == 0:
            break
        state, _ = bsp.round(state, hook, attach, sources=edges)
    else:
        raise RuntimeError(f"components: edges left after {bound} hook "
                           f"phases over {n} nodes")

    def labels(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["node"], "label": t["ptr"]})

    return rd.from_arrow_refs(bsp.map(labels, state))
