"""The one engine for iterative loops: bulk-synchronous rounds of raw Ray
tasks over P resident Arrow blocks, block p holding the rows whose int64
key k has k % P == p. P follows the loop's input bytes by the exchange's
rule (``ops.part_count``: one partition per ``_PART_BYTES``), at most 16,
so a loop over a few thousand nodes runs one task per step, not sixteen.

A round is routed waves: an emit task per source block (the state, or
another block list such as an edge set) returns P tables, table q routed
to partition q; each optional relay task q gets resident block q plus what
was routed to q and routes on again; each combine task p gets resident
block p plus what was routed to p and returns its new block and one int.
The P ints (a changed-row count for a fixpoint, a local max for a global
one) are all the driver fetches, so no streaming-executor launch happens
inside a loop. Emits combine rows per key before routing
(``group_reduce``): a hot key gets at most one row per source block per
wave, the load-balancing rule BTS (ICDE 2024) uses for hot roots.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from pcompress_ray.functions.ops import group_boundaries, part_count

EMPTY = pa.table({})
MAX_PARTS = 16


def col(t: pa.Table, name: str) -> np.ndarray:
    """An int64 column of ``t`` as numpy."""
    return t[name].to_numpy(zero_copy_only=False).astype(np.int64)


def concat(tables) -> pa.Table | None:
    """Concatenation of the non-empty tables, or None when all are empty."""
    rows = [t for t in tables if len(t)]
    return pa.concat_tables(rows) if rows else None


def route(t: pa.Table, keys: np.ndarray, n_parts: int) -> list[pa.Table]:
    """Split ``t`` into n_parts tables; row i goes to ``keys[i] % n_parts``."""
    part = keys % n_parts
    order = np.argsort(part, kind="stable")
    bounds = np.searchsorted(part[order], np.arange(n_parts + 1))
    return [t.take(order[bounds[p]:bounds[p + 1]]) for p in range(n_parts)]


def group_reduce(keys: np.ndarray, vals: np.ndarray, ufunc=np.add):
    """(sorted unique keys, ``ufunc`` of ``vals`` per key)."""
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    first, _, _ = group_boundaries(keys)
    starts = np.flatnonzero(first)
    return keys[starts], ufunc.reduceat(vals, starts)


def lookup(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Row index of each of ``keys`` in ``sorted_keys``; a key with no row
    is an error (a dangling reference)."""
    ix = np.searchsorted(sorted_keys, keys)
    if ix.size and (ix.max() >= sorted_keys.size
                    or not np.array_equal(sorted_keys[ix], keys)):
        raise ValueError("dangling pointer: a key references a missing row")
    return ix


def _table(block) -> pa.Table:
    if not isinstance(block, pa.Table):
        block = pa.Table.from_pandas(block, preserve_index=False)
    return block.replace_schema_metadata(None)


class BSP:
    """Rounds over ``n_parts`` resident blocks, sized from ``nbytes``, the
    bytes of the loop's input (``over`` reads them from a Dataset)."""

    def __init__(self, nbytes: int):
        self.n_parts = part_count(nbytes, MAX_PARTS)
        self._tasks: dict = {}

    @classmethod
    def over(cls, ds):
        """(an engine sized from ``ds``'s bytes, ``ds``'s block refs to use
        as round sources)."""
        blocks = [b for bu in ds.materialize().iter_internal_ref_bundles()
                  for b in bu.blocks]
        return (cls(sum(md.size_bytes or 0 for _, md in blocks)),
                [ref for ref, _ in blocks])

    def _task(self, fn, kind: str):
        """fn's Ray task, made once so a loop exports it once. "emit" and
        "relay" steps return P routed tables (an emit source may be any
        Dataset block; neither runs on empty input), "combine" a
        (block, int) pair, "map" one value."""
        if (fn, kind) not in self._tasks:
            import ray

            P, n_out = self.n_parts, {"combine": 2, "map": 1}.get(kind)

            def routed(head, *rest):
                if kind == "emit":
                    head = _table(head)
                live = len(head) if kind == "emit" else any(map(len, rest))
                out = fn(head, *rest) if live else [EMPTY] * P
                return out if P > 1 else out[0]

            self._tasks[fn, kind] = (
                ray.remote(fn).options(num_returns=n_out) if n_out
                else ray.remote(routed).options(num_returns=P))
        return self._tasks[fn, kind]

    def _routed(self, fn, kind: str, *args) -> list:
        out = self._task(fn, kind).remote(*args)
        return out if self.n_parts > 1 else [out]

    def round(self, state, emit, *steps, sources=None, args=()):
        """``emit(table, *args)`` over ``sources`` (default: the state),
        then the relays ``steps[:-1]``, then the combine ``steps[-1]``;
        ``state`` None (the round that builds it) hands them None.
        Returns (P new block refs, the P ints)."""
        import ray

        P = self.n_parts
        *relays, combine = steps
        res = [None] * P if state is None else state
        routed = [self._routed(emit, "emit", b, *args)
                  for b in (state if sources is None else sources)]
        for relay in relays:
            routed = [self._routed(relay, "relay", res[q],
                                   *[r[q] for r in routed])
                      for q in range(P)]
        comb = self._task(combine, "combine")
        outs = [comb.remote(res[p], *[r[p] for r in routed])
                for p in range(P)]
        return [o[0] for o in outs], ray.get([o[1] for o in outs])

    def fixpoint(self, step, state, bound: int, what: str):
        """Apply ``step(state) -> (state, ints)`` until the ints sum to 0;
        reaching ``bound`` rounds first raises."""
        for _ in range(bound):
            state, ints = step(state)
            if sum(ints) == 0:
                return state
        raise RuntimeError(f"{what}: no fixpoint after {bound} rounds")

    def map(self, fn, *states) -> list:
        """``fn(block_p of each state)`` once per partition; result refs."""
        task = self._task(fn, "map")
        return [task.remote(*[s[p] for s in states])
                for p in range(self.n_parts)]
