"""LSH banding planner: exact rational S-curve math, pinned values,
known optima, and the flagship-default justification (stages/lshplan.py)."""

from fractions import Fraction

import pytest


def test_candidate_prob_exact():
    from pcompress_ray.stages.lshplan import candidate_prob

    # hand-computable: b=1, r=1 -> P(s) = s ; b=2, r=1 -> 1-(1-s)^2
    assert candidate_prob(Fraction(1, 3), 1, 1) == Fraction(1, 3)
    assert candidate_prob(Fraction(1, 2), 2, 1) == Fraction(3, 4)
    # 32x4 at s=1/2: 1 - (1 - 1/16)^32 == 1 - (15/16)^32 exactly
    assert candidate_prob(Fraction(1, 2), 32, 4) == \
        1 - Fraction(15, 16) ** 32


def test_flagship_default_chosen():
    from pcompress_ray.stages.lshplan import plan_bands

    t = plan_bands(128).to_pandas()
    ch = t[t["chosen"]]
    assert len(ch) == 1
    assert (int(ch["bands"].iloc[0]), int(ch["rows"].iloc[0])) == (32, 4)
    # regression pin of the exact e12 integrals for the chosen row
    assert int(ch["fp_e12"].iloc[0]) == 126464440475
    assert int(ch["fn_e12"].iloc[0]) == 5717828913


def test_threshold_moves_optimum():
    from pcompress_ray.stages.lshplan import plan_bands

    def chosen(t):
        tb = plan_bands(128, t).to_pandas()
        c = tb[tb["chosen"]].iloc[0]
        return int(c["bands"]), int(c["rows"])

    lo = chosen(Fraction(1, 4))
    hi = chosen(Fraction(4, 5))
    # loose threshold -> wide net (few rows); 49x2 beats 64x2 because fp
    # grows with b — the full-space argmin, not the maximal-b-per-r one
    assert lo == (49, 2)
    assert hi == (14, 9)          # tight threshold -> sharp curve (more rows)
    assert lo[1] < 4 < hi[1]


def test_recall_floor_monotone():
    from pcompress_ray.stages.lshplan import recall_floor

    p5 = recall_floor(32, 4, Fraction(1, 2))
    p6 = recall_floor(32, 4, Fraction(3, 5))
    p7 = recall_floor(32, 4, Fraction(7, 10))
    assert p5 < p6 < p7
    assert p6 > 0.988             # the recall-gate justification
    assert p7 > 0.9998


def test_grid_misalignment_raises():
    from pcompress_ray.stages.lshplan import plan_bands

    with pytest.raises(ValueError):
        plan_bands(128, Fraction(1, 3), grid=100)


def test_feasible_combos_only():
    from pcompress_ray.stages.lshplan import plan_bands

    t = plan_bands(16).to_pandas()
    assert (t["bands"] * t["rows"] <= 16).all()
    assert (t["perms_used"] == t["bands"] * t["rows"]).all()
    # EVERY (b, r) with b*r <= 16 appears exactly once
    want = {(b, r) for r in range(1, 17) for b in range(1, 16 // r + 1)}
    got = list(zip(t["bands"], t["rows"]))
    assert len(got) == len(want) == 50
    assert set(got) == want


def test_config_for_threshold():
    from fractions import Fraction

    from pcompress_ray.config import PipelineConfig

    c = PipelineConfig.for_threshold(0.5)
    assert (c.lsh_bands, c.lsh_rows) == (32, 4)   # the flagship default
    c8 = PipelineConfig.for_threshold(Fraction(4, 5))
    assert c8.lsh_bands * c8.lsh_rows == 128      # exact factorization
    assert c8.lsh_rows > 4                        # tighter -> sharper curve
    # execution overrides pass through
    c2 = PipelineConfig.for_threshold(0.5, batch_size=2)
    assert c2.batch_size == 2
    # thresholds off the grid snap to it instead of raising (1/3 -> 33/100)
    c3 = PipelineConfig.for_threshold(Fraction(1, 3))
    assert c3.lsh_bands * c3.lsh_rows == 128
    # degenerate thresholds clamp into (0, 1)
    c0 = PipelineConfig.for_threshold(0.001)
    assert c0.lsh_bands * c0.lsh_rows == 128
