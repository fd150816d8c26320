"""CDC kernel unit tests (FIXTURES.md F4): vectorized kernel vs pure-Python
oracle, min/max invariants, determinism, batch-partitioning invariance."""

import numpy as np
import pytest

from pcompress_ray.config import PipelineConfig
from pcompress_ray.stages.cdc import (
    candidate_positions,
    chunk_batch,
    chunk_doc,
    cut_points,
    cut_points_slow,
)

CFG = PipelineConfig()
MIN, MAX = CFG.min_block_size, CFG.max_block_size
RNG = np.random.default_rng(1234)


def _rand(n, lo=0, hi=256, rng=RNG):
    return bytes(rng.integers(lo, hi, n, dtype=np.uint8))


FIXTURES = [
    b"",
    b"tiny",
    b"\x00" * 4096,                      # all-zero buffer (F4)
    _rand(1024),                          # exactly min
    _rand(1025),
    _rand(50_000),                        # random bytes (F4)
    _rand(200_000, 97, 123),              # ascii text-ish
    _rand(64 * 1024) * 5,                 # repeated 64 KB block ×5 (F4)
]
# repeated 64KB block ×5 interleaved with random gaps (test_dedup.sh analog)
_base = _rand(64 * 1024)
_interleaved = b"".join(_base + _rand(int(g)) for g in RNG.integers(1000, 9000, 5))
FIXTURES.append(_interleaved)


@pytest.mark.parametrize("idx", range(len(FIXTURES)))
def test_kernel_matches_oracle(idx):
    data = FIXTURES[idx]
    fast = cut_points(data, MIN, MAX).tolist()
    slow = cut_points_slow(data, MIN, MAX)
    assert fast == slow


@pytest.mark.parametrize("idx", range(len(FIXTURES)))
def test_block_size_invariants(idx):
    data = FIXTURES[idx]
    ends = cut_points(data, MIN, MAX)
    if len(data) == 0:
        assert ends.size == 0
        return
    assert ends[-1] == len(data)
    lens = np.diff(np.concatenate([[0], ends]))
    assert lens.max() <= MAX
    # every block except possibly the trailing remainder is >= MIN
    assert (lens[:-1] >= MIN).all()


def test_determinism():
    data = FIXTURES[5]
    a = cut_points(data, MIN, MAX)
    b = cut_points(data, MIN, MAX)
    assert (a == b).all()


def test_batch_invariance():
    """chunk_batch over a concatenated batch == per-doc chunk_doc."""
    docs = [FIXTURES[3], FIXTURES[5], b"", FIXTURES[6], b"x" * 10, FIXTURES[8]]
    batched = chunk_batch(docs, MIN, MAX)
    for data, (offs, lens, hashes) in zip(docs, batched):
        o2, l2, h2 = chunk_doc(data, MIN, MAX)
        assert (offs == o2).all() and (lens == l2).all() and (hashes == h2).all()


def test_shared_span_boundary_sync():
    """Content-defined property: a long shared span yields shared chunk hashes
    regardless of what precedes it (the substring-dup detection premise)."""
    span = _rand(20_000)
    a = _rand(5_000) + span
    b = _rand(13_000) + span + _rand(3_000)
    _, _, ha = chunk_doc(a, MIN, MAX)
    _, _, hb = chunk_doc(b, MIN, MAX)
    shared = set(ha.tolist()) & set(hb.tolist())
    # expect most interior chunks of the span to match (boundary sync after ~1 block)
    assert len(shared) >= 5


def test_identical_docs_identical_hashes():
    data = FIXTURES[6]
    _, _, h1 = chunk_doc(data, MIN, MAX)
    _, _, h2 = chunk_doc(bytes(data), MIN, MAX)
    assert (h1 == h2).all()


def test_avg_block_size_near_expected():
    """Fixed 10-bit mask + min 1024 → expected block ≈ min + 1024 ≈ 2 KB."""
    data = _rand(2_000_000)
    ends = cut_points(data, MIN, MAX)
    avg = len(data) / ends.size
    assert 1500 < avg < 3000


def test_candidate_positions_pure_window():
    """Candidates at position i depend only on bytes [i-16, i]."""
    data = _rand(8192)
    c1 = candidate_positions(data)
    # mutate a byte far after: candidates before it unchanged
    mutated = bytearray(data)
    mutated[5000] ^= 0xFF
    c2 = candidate_positions(bytes(mutated))
    assert (c1[c1 < 4984] == c2[c2 < 4984]).all()


def test_segmented_candidate_pass_equals_one_pass(monkeypatch):
    """The candidate pass runs in fixed-size segments with 16 bytes of
    context; the segment size changes nothing, including at the edges."""
    from pcompress_ray.stages import cdc

    data = _rand(50_000, 0, 4) + b"\x00" * 3000 + _rand(7_001)
    whole = cdc._segment_candidates(np.frombuffer(data, np.uint8))
    assert whole.size > 20
    slow = np.asarray(cut_points_slow(data, MIN, MAX))
    for seg in (17, 1000, 4096, len(data) - 1, len(data)):
        monkeypatch.setattr(cdc, "_SEG", seg)
        assert np.array_equal(candidate_positions(data), whole), seg
        assert np.array_equal(cut_points(data, MIN, MAX), slow), seg
