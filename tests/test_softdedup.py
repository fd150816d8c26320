"""SoftDeDup reweighting: hand-computed integer weights, mean preservation,
parallelism invariance, alpha sharpness (stages/softdedup.py)."""

import numpy as np
import pyarrow as pa
import pytest


def _weights(ds, alpha=1):
    import pcompress_ray

    pcompress_ray.register_for_ray()
    from pcompress_ray.stages.softdedup import soft_dedup_weights

    out = soft_dedup_weights(ds, "key", id_col="doc_id", alpha=alpha,
                             n_parts=4).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _corpus():
    # multiplicities: key a ×3, key b ×2, keys c,d ×1  -> 7 docs
    keys = ["a", "a", "a", "b", "b", "c", "d"]
    return pa.table({"doc_id": pa.array(range(7), pa.int64()),
                     "key": pa.array(keys, pa.string())})


def test_hand_computed(ray_session):
    import ray.data as rd

    out = _weights(rd.from_arrow(_corpus()))
    assert list(out["dup_count"]) == [3, 3, 3, 2, 2, 1, 1]
    # weight_e6 = 1e6 // k
    assert list(out["weight_e6"]) == [333333] * 3 + [500000] * 2 + [1000000] * 2
    # sum_w = 3*333333 + 2*500000 + 2*1000000 = 3_999_999 ; n_docs = 7
    # norm = 7 * w * 1e6 // 3_999_999
    exp = [7 * w * 1_000_000 // 3_999_999 for w in out["weight_e6"]]
    assert list(out["norm_weight_e6"]) == exp
    # mean preservation: total normalized mass within n_docs of n_docs*1e6
    assert abs(out["norm_weight_e6"].sum() - 7 * 1_000_000) <= 7


def test_parallelism_invariance(ray_session):
    import ray.data as rd

    t = _corpus()
    a = _weights(rd.from_arrow(t))
    b = _weights(rd.from_arrow(t).repartition(3))
    assert a.equals(b)


def test_alpha_sharpness(ray_session):
    import ray.data as rd

    a1 = _weights(rd.from_arrow(_corpus()), alpha=1)
    a2 = _weights(rd.from_arrow(_corpus()), alpha=2)
    # alpha=2: weight_e6 = 1e6 // k^2 -> triples get 111111
    assert list(a2["weight_e6"])[:3] == [111111] * 3
    # duplicates are punished harder, uniques relatively favored
    tri1 = a1["norm_weight_e6"][0] / a1["norm_weight_e6"][6]
    tri2 = a2["norm_weight_e6"][0] / a2["norm_weight_e6"][6]
    assert tri2 < tri1


def test_alpha_validation(ray_session):
    import ray.data as rd

    from pcompress_ray.stages.softdedup import soft_dedup_weights

    with pytest.raises(ValueError):
        soft_dedup_weights(rd.from_arrow(_corpus()), "key", alpha=0)


def test_power_overflow_clamp(ray_session):
    """dup_count**alpha past SCALE floors the weight to exactly 0 without
    ever wrapping int64 (the power is only taken where it provably fits)."""
    import ray.data as rd

    from pcompress_ray.stages.softdedup import SCALE, _dc_cap, _weights_e6

    # cap is the exact integer alpha-th root: cap**a <= SCALE < (cap+1)**a
    for a in (1, 2, 3, 4, 7):
        cap = _dc_cap(a)
        assert cap ** a <= SCALE < (cap + 1) ** a
    # dup_count that would wrap int64 at alpha=3 (2.2e6**3 > 2^63)
    dc = np.array([1, 1000, 2_200_000, 2 ** 40], np.int64)
    w = _weights_e6(dc, 3, _dc_cap(3))
    assert list(w) == [SCALE, 0, 0, 0]   # 1000**3 = 1e9 > SCALE -> 0
    assert (w >= 0).all()

    # end-to-end: 1001 copies at alpha=2 -> 1001**2 > SCALE -> weight 0,
    # and the singleton key soaks up the whole normalized mass
    t = pa.table({
        "doc_id": pa.array(range(1002), pa.int64()),
        "key": pa.array(["a"] * 1001 + ["b"], pa.string())})
    out = _weights(rd.from_arrow(t), alpha=2)
    assert (out["weight_e6"][:1001] == 0).all()
    assert out["weight_e6"].iloc[1001] == SCALE
    assert out["norm_weight_e6"].iloc[1001] == 1002 * SCALE
    assert (out["norm_weight_e6"][:1001] == 0).all()


def test_all_zero_weights_full_schema(ray_session):
    """sum_w == 0 on a NON-empty corpus (every weight floored) still
    yields the full 4-column schema with zero weights — no schema fork."""
    import ray.data as rd

    t = pa.table({
        "doc_id": pa.array(range(1001), pa.int64()),
        "key": pa.array(["a"] * 1001, pa.string())})
    out = _weights(rd.from_arrow(t), alpha=2)
    assert list(out.columns) == ["doc_id", "dup_count", "weight_e6",
                                 "norm_weight_e6"]
    assert len(out) == 1001
    assert (out["weight_e6"] == 0).all()
    assert (out["norm_weight_e6"] == 0).all()


def test_norm_weights_int64_boundary():
    """Hypothesis: the vectorized int64 path and the distinct-value
    Python-int path agree bit-for-bit across the n_docs*SCALE^2 ~ 2^63
    switchover (VERDICT r04 item 5)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from pcompress_ray.stages.softdedup import SCALE, _norm_weights_e6

    boundary = 2 ** 63 // (SCALE * SCALE)   # 9_223_372

    @settings(max_examples=25, deadline=None)
    @given(ws=st.lists(st.integers(0, SCALE), min_size=1, max_size=64),
           nd_off=st.integers(-2, 2))
    def run(ws, nd_off):
        w = np.array(ws, np.int64)
        nd = boundary + nd_off
        sw = max(int(w.sum()), 1) * max(nd // len(ws), 1)
        got = _norm_weights_e6(w, nd, sw)
        exp = [nd * int(x) * SCALE // sw for x in ws]
        assert list(got) == exp

    run()


def test_mass_preservation_property(ray_session):
    """Hypothesis: for ANY multiplicity profile and alpha, normalized
    mass is n_docs*1e6 within floor error, weights are monotone in
    dup_count, and equal dup_counts get equal weights."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    import ray.data as rd

    import pcompress_ray

    pcompress_ray.register_for_ray()
    from pcompress_ray.stages.softdedup import soft_dedup_weights

    @settings(max_examples=8, deadline=None)
    @given(mults=st.lists(st.integers(1, 9), min_size=1, max_size=8),
           alpha=st.integers(1, 3))
    def run(mults, alpha):
        keys, ids = [], []
        nid = 0
        for gi, m in enumerate(mults):
            for _ in range(m):
                keys.append(f"g{gi}")
                ids.append(nid)
                nid += 1
        t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                      "key": pa.array(keys, pa.string())})
        out = soft_dedup_weights(rd.from_arrow(t), "key", alpha=alpha,
                                 n_parts=3).to_pandas()
        n = len(ids)
        assert abs(out["norm_weight_e6"].sum() - n * 1_000_000) <= n
        by = out.groupby("dup_count")["weight_e6"].nunique()
        assert (by == 1).all()                       # equal k, equal w
        s = out.drop_duplicates("dup_count").sort_values("dup_count")
        assert (np.diff(s["weight_e6"].to_numpy()) <= 0).all()  # monotone

    run()
