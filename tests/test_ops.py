"""Unit tests for the generic distributed operators (functions/ops.py) and
connected components."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from pcompress_ray.stages.components import assign_clusters, union_find


def test_union_find_basic():
    a = np.array([1, 2, 10, 11])
    b = np.array([2, 3, 11, 12])
    labels = union_find(a, b)
    assert labels[1] == labels[2] == labels[3] == 1
    assert labels[10] == labels[11] == labels[12] == 10


def test_union_find_chain_transitivity():
    n = 1000
    a = np.arange(n - 1)
    b = np.arange(1, n)
    labels = union_find(a, b)
    assert all(labels[i] == 0 for i in range(n))


def test_assign_clusters_singletons():
    df = assign_clusters(np.array([5, 6, 7]), {6: 5, 5: 5})
    assert df[df.doc_rank == 7].cluster_id.iloc[0] == 7
    assert df[df.doc_rank == 7].is_canonical.iloc[0]
    assert df[df.doc_rank == 6].cluster_id.iloc[0] == 5


@pytest.fixture()
def rds(ray_session):
    import ray.data as rd

    import pcompress_ray

    pcompress_ray.register_for_ray()
    return rd


def test_hash_join_matches_pandas(rds):
    from pcompress_ray.functions.ops import hash_join

    rng = np.random.default_rng(3)
    left = pd.DataFrame({"k": rng.integers(0, 50, 200), "x": np.arange(200)})
    right = pd.DataFrame({"kk": np.arange(50), "y": rng.random(50)})
    lds = rds.from_pandas(left).repartition(4)
    rds_ = rds.from_pandas(right).repartition(3)
    got = hash_join(lds, rds_, "k", "kk", n_buckets=8).to_pandas()
    got = got.sort_values(["x"]).reset_index(drop=True)
    want = left.merge(right, left_on="k", right_on="kk").sort_values("x").reset_index(drop=True)
    assert len(got) == len(want)
    assert (got["x"].astype(int).to_numpy() == want["x"].to_numpy()).all()
    np.testing.assert_allclose(got["y"].to_numpy(), want["y"].to_numpy())


def test_bloom_filter_no_false_negatives():
    from pcompress_ray.functions.bloom import BloomFilter

    rng = np.random.default_rng(17)
    keys = rng.integers(0, 2**62, 50_000, dtype=np.int64)
    bf = BloomFilter.build(keys, bits_per_key=10)
    assert bf.contains(keys).all()  # NEVER a false negative
    probe = rng.integers(0, 2**62, 100_000, dtype=np.int64)
    novel = probe[~np.isin(probe, keys)]
    fp = bf.contains(novel).mean()
    assert fp < 0.03, fp  # ~1% expected at 10 bits/key


def test_semi_join_exact_and_bloom(rds):
    import pytest

    from pcompress_ray.functions.ops import semi_join_filter

    df = pd.DataFrame({"k": np.arange(1000, dtype=np.int64),
                       "v": np.arange(1000)})
    ds = rds.from_pandas(df).repartition(3)
    keys = np.arange(0, 1000, 7, dtype=np.int64)
    got = semi_join_filter(ds, keys, on="k").to_pandas()
    assert sorted(got.k) == sorted(keys.tolist())
    anti = semi_join_filter(ds, keys, on="k", negate=True).to_pandas()
    assert len(anti) == 1000 - len(keys)
    # Bloom prefilter: superset of the exact result, no true match dropped
    approx = semi_join_filter(ds, keys, on="k", approx=True).to_pandas()
    assert set(keys.tolist()) <= set(approx.k.astype(int))
    with pytest.raises(ValueError):
        semi_join_filter(ds, keys, on="k", negate=True, approx=True)


def test_hash_join_left_outer(rds):
    from pcompress_ray.functions.ops import hash_join

    left = pd.DataFrame({"k": [1, 2, 3], "x": [10, 20, 30]})
    right = pd.DataFrame({"k": [2], "y": [99]})
    got = hash_join(rds.from_pandas(left), rds.from_pandas(right),
                    "k", "k", n_buckets=2, how="left").to_pandas()
    assert len(got) == 3
    assert got.loc[got.x == 20, "y"].iloc[0] == 99
    assert got.loc[got.x == 10, "y"].isna().all()


def test_broadcast_join(rds, ray_session):
    from pcompress_ray.functions.ops import broadcast_join

    big = pd.DataFrame({"k": np.arange(100) % 10, "x": np.arange(100)})
    small = pd.DataFrame({"k": np.arange(10), "name": [f"n{i}" for i in range(10)]})
    got = broadcast_join(rds.from_pandas(big).repartition(4), small, "k", "k").to_pandas()
    assert len(got) == 100
    assert (got.sort_values("x").name.to_numpy()[:10] ==
            [f"n{i % 10}" for i in range(10)]).all()


def test_zip_with_rank(rds):
    from pcompress_ray.functions.ops import zip_with_rank

    df = pd.DataFrame({"u": [f"u{i:03d}" for i in np.random.default_rng(4).permutation(40)]})
    ds = rds.from_pandas(df).repartition(5)
    out = zip_with_rank(ds, "u").to_pandas().sort_values("u").reset_index(drop=True)
    assert (out["rank"].to_numpy() == np.arange(40)).all()


def _random_edges():
    rng = np.random.default_rng(5)
    return (rng.integers(0, 80, 120).astype(np.int64),
            rng.integers(0, 80, 120).astype(np.int64))


def _permuted_path():
    """A 1,000-node path (diameter 999) with permuted ids."""
    ids = np.random.default_rng(11).permutation(1000).astype(np.int64)
    return ids[:-1], ids[1:]


def _star_of_chains():
    """8 chains of 200 nodes hung off one hub, ids permuted."""
    ids = np.random.default_rng(13).permutation(1601).astype(np.int64)
    hub, chains = ids[0], ids[1:].reshape(8, 200)
    return (np.concatenate([np.full(8, hub), chains[:, :-1].ravel()]),
            np.concatenate([chains[:, 0], chains[:, 1:].ravel()]))


@pytest.mark.parametrize("graph", [_random_edges, _permuted_path,
                                   _star_of_chains],
                         ids=["random", "path_1000", "star_of_chains"])
def test_label_propagation_matches_union_find(rds, graph):
    """The distributed components equal the driver's on graphs of any
    diameter, within the round bound derived from the node count (reaching
    it raises)."""
    from pcompress_ray.stages.components import (label_propagation,
                                                 min_label_components)

    a, b = graph()
    edges = rds.from_pandas(pd.DataFrame({"a": a, "b": b})).repartition(4)
    got = label_propagation(edges).to_pandas().set_index("node")["label"].to_dict()
    assert got == union_find(a, b)
    keys, vals = min_label_components(a, b)
    assert got == dict(zip(keys.tolist(), vals.tolist()))


@pytest.mark.parametrize("part_bytes, P", [(1 << 40, 1), (1, 16)],
                         ids=["P1", "P16"])
def test_label_propagation_same_at_any_p(rds, monkeypatch, part_bytes, P):
    """Components do not depend on the BSP partition count: one partition
    (what a small edge set derives) and the cap of 16 give the same
    labels, one output block per partition."""
    from pcompress_ray.functions import ops
    from pcompress_ray.stages.components import label_propagation

    monkeypatch.setattr(ops, "_PART_BYTES", part_bytes)
    a, b = _star_of_chains()
    edges = rds.from_pandas(pd.DataFrame({"a": a, "b": b})).repartition(4)
    out = label_propagation(edges)
    assert out.num_blocks() == P
    got = out.to_pandas().set_index("node")["label"].to_dict()
    assert got == union_find(a, b)


def test_label_propagation_raises_at_round_bound(rds, monkeypatch):
    from pcompress_ray.stages import components

    monkeypatch.setattr(components, "_round_bound", lambda n: 1)
    a, b = _permuted_path()
    edges = rds.from_pandas(pd.DataFrame({"a": a, "b": b})).repartition(4)
    with pytest.raises(RuntimeError, match="edges left after 1 hook phases"):
        components.label_propagation(edges)


def test_asof_join_matches_pandas_merge_asof(rds):
    from pcompress_ray.functions.ops import asof_join

    rng = np.random.default_rng(7)
    left = pd.DataFrame({
        "by": rng.integers(0, 20, 300).astype(np.int64),
        "t": rng.integers(0, 1000, 300).astype(np.int64),
        "lid": np.arange(300, dtype=np.int64)})
    right = pd.DataFrame({
        "by": rng.integers(0, 25, 150).astype(np.int64),
        "t": rng.integers(0, 1000, 150).astype(np.int64),
        "val": np.arange(1000, 1150, dtype=np.int64)})
    # dedup right on (by, t) keeping max val — the operator's tie contract
    right = right.sort_values("val").drop_duplicates(["by", "t"], keep="last")

    lds = rds.from_pandas(left).repartition(4)
    rds_ = rds.from_pandas(right).repartition(3)
    got = asof_join(lds, rds_, by="by", on="t", right_val="val",
                    out_col="m", n_parts=8).to_pandas()
    got = got.sort_values("lid").reset_index(drop=True)

    want = pd.merge_asof(left.sort_values("t"), right.sort_values("t"),
                         on="t", by="by", direction="backward",
                         suffixes=("", "_r")) \
        .sort_values("lid").reset_index(drop=True)
    want_m = want["val"].fillna(-1).astype(np.int64)
    assert len(got) == 300
    np.testing.assert_array_equal(got["m"].to_numpy(np.int64),
                                  want_m.to_numpy())
    np.testing.assert_array_equal(got["t"].to_numpy(np.int64),
                                  want["t"].to_numpy())


def test_asof_join_inclusive_and_boundaries(rds):
    from pcompress_ray.functions.ops import asof_join

    left = pd.DataFrame({"by": np.int64([1, 1, 2, 3]),
                         "t": np.int64([10, 5, 10, 10]),
                         "lid": np.int64([0, 1, 2, 3])})
    right = pd.DataFrame({"by": np.int64([1, 1, 2]),
                          "t": np.int64([10, 6, 11]),
                          "val": np.int64([100, 101, 102])})
    got = asof_join(rds.from_pandas(left), rds.from_pandas(right),
                    by="by", on="t", right_val="val", out_col="m") \
        .to_pandas().sort_values("lid")
    # t=10 matches right t=10 (inclusive); t=5 has none; user 2's only
    # right row is later; user 3 has no right rows at all
    np.testing.assert_array_equal(got["m"].to_numpy(np.int64),
                                  [100, -1, -1, -1])


def test_band_join_count_matches_bruteforce(rds):
    from pcompress_ray.functions.ops import band_join_count

    rng = np.random.default_rng(11)
    left = pd.DataFrame({"k": np.arange(40, dtype=np.int64),
                         "v": rng.uniform(100, 200, 40)})
    right = pd.DataFrame({"w": rng.uniform(90, 220, 500)})
    got = band_join_count(rds.from_pandas(left).repartition(3),
                          rds.from_pandas(right).repartition(4),
                          left_key="k", left_val="v", right_val="w",
                          lo_mul=0.97, hi_mul=1.03, width=7.0,
                          n_parts=8).to_pandas()
    got = got.sort_values("k").reset_index(drop=True)
    lo = left["v"].to_numpy() * 0.97
    hi = left["v"].to_numpy() * 1.03
    w = right["w"].to_numpy()
    want = ((w[None, :] >= lo[:, None]) & (w[None, :] <= hi[:, None])) \
        .sum(axis=1).astype(np.int64)
    assert len(got) == 40  # zero-match left keys survive
    np.testing.assert_array_equal(got["n_matches"].to_numpy(np.int64), want)


def _make_gp_fn():
    # defined inside a factory so cloudpickle ships it by VALUE (workers
    # cannot import the test module)
    def _gp_fn(part: pa.Table) -> pa.Table:
        return part.group_by("k", use_threads=False) \
            .aggregate([("v", "sum"), ([], "count_all")]) \
            .rename_columns(["k", "s", "n"])
    return _gp_fn


def _sum_by_k_reference(df: pd.DataFrame) -> pd.DataFrame:
    return df.groupby("k", as_index=False).agg(s=("v", "sum"), n=("v", "size")) \
        .sort_values("k").reset_index(drop=True)


def test_fast_grouped_partitions_matches_sort_path(rds):
    """A single-input ``exchange`` with an Arrow per-partition aggregate
    equals pandas' groupby over the whole input: every key reaches exactly
    one ``fn`` call."""
    from pcompress_ray.functions.ops import exchange

    rng = np.random.RandomState(7)
    df = pd.DataFrame({"k": rng.randint(0, 200, 5000).astype(np.int64),
                       "v": rng.randint(0, 1000, 5000).astype(np.int64)})
    got = exchange([rds.from_pandas(df).repartition(17)], [["k"]],
                   _make_gp_fn(), n_parts=13) \
        .to_pandas().sort_values("k").reset_index(drop=True)
    ref = _sum_by_k_reference(df)
    pd.testing.assert_frame_equal(got, ref.astype(got.dtypes.to_dict()))


def test_fast_grouped_partitions_byte_budget_fallback(rds, monkeypatch):
    """At the caller's ``n_parts`` and with an in-flight byte cap of 1 byte
    every slicer and reducer task is dispatched alone (each waits for the
    one before it), and the exchange still honors the co-location contract
    bit for bit."""
    from pcompress_ray.functions import ops

    _gp_fn = _make_gp_fn()
    rng = np.random.RandomState(11)
    df = pd.DataFrame({"k": rng.randint(0, 50, 2000).astype(np.int64),
                       "v": rng.randint(0, 9, 2000).astype(np.int64)})
    fast = ops.exchange([rds.from_pandas(df).repartition(5)], [["k"]],
                        _gp_fn, n_parts=7) \
        .to_pandas().sort_values("k").reset_index(drop=True)
    monkeypatch.setattr(ops, "_PART_BYTES", 1)
    monkeypatch.setattr(ops, "_inflight_cap", lambda: 1)
    forced = ops.exchange([rds.from_pandas(df).repartition(5)], [["k"]],
                          _gp_fn, n_parts=7) \
        .to_pandas().sort_values("k").reset_index(drop=True)
    ref = _sum_by_k_reference(df)
    pd.testing.assert_frame_equal(forced.astype(ref.dtypes.to_dict()), ref)
    pd.testing.assert_frame_equal(fast.astype(ref.dtypes.to_dict()), ref)


def test_exchange_string_keys(rds):
    from pcompress_ray.functions.ops import exchange

    df = pd.DataFrame({"k": [f"u{i % 37}" for i in range(1000)],
                       "v": np.arange(1000, dtype=np.int64)})

    def fn(part: pa.Table) -> pa.Table:
        return part.group_by("k", use_threads=False) \
            .aggregate([("v", "sum")]).rename_columns(["k", "s"])

    got = exchange([rds.from_pandas(df).repartition(9)], [["k"]], fn,
                   n_parts=8) \
        .to_pandas().sort_values("k").reset_index(drop=True)
    ref = df.groupby("k", as_index=False).agg(s=("v", "sum")) \
        .sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, ref)


def test_fast_grouped_partitions_empty_input(rds):
    from pcompress_ray.functions.ops import exchange

    df = pd.DataFrame({"k": pd.Series([], dtype=np.int64),
                       "v": pd.Series([], dtype=np.int64)})
    out = exchange([rds.from_pandas(df)], [["k"]], _make_gp_fn())
    assert out.count() == 0


def test_exchange_multi_input(rds):
    """Two inputs keyed on differently named uint64 columns (values past
    2**63) co-locate; an input with no rows reaches ``fn`` as an empty
    table of its own schema; with no rows anywhere ``fn`` still runs once,
    so the result keeps its typed schema."""
    from pcompress_ray.functions.ops import exchange

    def count(lt: pa.Table, rt: pa.Table) -> pa.Table:
        lk = lt["k"].to_numpy()
        rk = rt["kk"].to_numpy()
        keys = np.union1d(lk, rk).astype(np.uint64)
        return pa.table({
            "k": pa.array(keys, pa.uint64()),
            "nl": pa.array([int((lk == k).sum()) for k in keys], pa.int64()),
            "nr": pa.array([int((rk == k).sum()) for k in keys], pa.int64())})

    keys = np.uint64(2**63) + np.arange(60, dtype=np.uint64) * np.uint64(977)
    left = pa.table({"k": pa.array(np.repeat(keys, 2)),
                     "x": pa.array(np.arange(120, dtype=np.int64))})
    right = pa.table({"kk": pa.array(keys[::3]),
                      "y": pa.array(np.arange(20, dtype=np.float64))})

    def run(lt, rt):
        # repartitioning an empty Dataset would drop its schema
        return exchange([rds.from_arrow(t).repartition(n) if len(t)
                         else rds.from_arrow(t) for t, n in ((lt, 4), (rt, 3))],
                        [["k"], ["kk"]], count, n_parts=8)

    got = run(left, right).to_pandas().sort_values("k")
    assert got["k"].is_unique  # every key reached exactly one fn call
    np.testing.assert_array_equal(got["k"].to_numpy(np.uint64), keys)
    assert (got["nl"] == 2).all()
    np.testing.assert_array_equal(got["nr"].to_numpy(),
                                  (np.arange(60) % 3 == 0).astype(np.int64))

    got = run(left, right.slice(0, 0)).to_pandas()
    assert len(got) == 60 and (got["nr"] == 0).all()

    out = run(left.slice(0, 0), right.slice(0, 0))
    assert out.count() == 0
    schema = out.schema()
    assert schema is not None
    assert list(schema.names) == ["k", "nl", "nr"]
    assert list(schema.types) == [pa.uint64(), pa.int64(), pa.int64()]


def test_exchange_schemaless_empty_input(rds):
    """Ray Data drops the schema of an input that a filter emptied. Next to
    another input's rows the exchange raises a ValueError naming that input
    instead of handing ``fn`` a table without columns; when every input is
    empty, there is nothing to hand ``fn`` and the result is empty."""
    from pcompress_ray.functions.ops import exchange

    def matched(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return pa.table({"k": lt["k"],
                         "hit": pa.array(np.isin(lt["k"], rt["k"]))})

    def emptied():
        return rds.from_arrow(pa.table({"k": np.arange(10)})) \
            .filter(lambda r: r["k"] < 0)

    left = rds.from_arrow(pa.table({"k": np.arange(10)}))
    with pytest.raises(ValueError, match="input 1"):
        exchange([left, emptied()], [["k"], ["k"]], matched, n_parts=4)
    out = exchange([emptied(), emptied()], [["k"], ["k"]], matched, n_parts=4)
    assert out.count() == 0


_EXCHANGE_CASES = pytest.mark.parametrize("case", [
    test_hash_join_matches_pandas, test_hash_join_left_outer,
    test_asof_join_matches_pandas_merge_asof,
    test_asof_join_inclusive_and_boundaries,
    test_band_join_count_matches_bruteforce,
    test_fast_grouped_partitions_matches_sort_path,
    test_exchange_string_keys,
    test_fast_grouped_partitions_empty_input,
    test_exchange_multi_input,
], ids=lambda f: f.__name__[len("test_"):])


@_EXCHANGE_CASES
def test_exchange_at_part_cap(rds, monkeypatch, case):
    """Each exchange test above, again with 1 byte per partition, so every
    exchange runs its caller's ``n_parts`` partitions and one slicer per
    block instead of the one partition its few bytes derive."""
    from pcompress_ray.functions import ops

    monkeypatch.setattr(ops, "_PART_BYTES", 1)
    case(rds)


@_EXCHANGE_CASES
def test_streaming_exchange_path(rds, monkeypatch, case):
    """Each exchange test above, again at the caller's ``n_parts`` and with
    an in-flight byte cap of 1 byte, so every slicer and reducer task is
    dispatched alone: the results do not depend on how many tasks run at
    once."""
    from pcompress_ray.functions import ops

    monkeypatch.setattr(ops, "_PART_BYTES", 1)
    monkeypatch.setattr(ops, "_inflight_cap", lambda: 1)
    case(rds)


def test_exchange_parts_follow_input_bytes(rds, monkeypatch):
    """P is one partition per ``_PART_BYTES`` of input, at most
    ``n_parts``: the output has one block per non-empty partition."""
    from pcompress_ray.functions import ops

    t = pa.table({"k": np.arange(4000, dtype=np.int64)})  # 32,000 bytes
    ds = rds.from_arrow(t).repartition(8).materialize()
    for part_bytes, want in ((1 << 20, 1), (10_000, 4), (1, 16)):
        monkeypatch.setattr(ops, "_PART_BYTES", part_bytes)
        out = ops.exchange([ds], [["k"]], lambda x: x, n_parts=16)
        assert out.num_blocks() == want
        assert sorted(out.to_pandas()["k"]) == list(range(4000))
