"""Hypothesis properties for the CTPH kernels and the line-dedup rewrite
(pure in-process — no Ray)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from pcompress_ray.stages.ctph import (
    _DIGEST_LEN,
    _levenshtein,
    blocksize_for,
    ctph_digest,
    ctph_score,
)


@settings(max_examples=60, deadline=None)
@given(data=st.binary(min_size=0, max_size=3000))
def test_digest_deterministic_bounded_ascii(data):
    b, d1, d2 = ctph_digest(data)
    b2, e1, e2 = ctph_digest(data)
    assert (b, d1, d2) == (b2, e1, e2)          # deterministic
    assert len(d1) <= _DIGEST_LEN and len(d2) <= _DIGEST_LEN
    assert b == blocksize_for(len(data))
    assert all(c.isalnum() or c in "+/" for c in d1 + d2)
    if data:
        assert len(d1) >= 1
    # a digest at blocksize 2b can never have more pieces than at b
    assert len(d2) <= max(len(d1), 1)


@settings(max_examples=60, deadline=None)
@given(a=st.text(alphabet="abcdef", max_size=30),
       b=st.text(alphabet="abcdef", max_size=30),
       c=st.text(alphabet="abcdef", max_size=30))
def test_levenshtein_metric_properties(a, b, c):
    dab = _levenshtein(a, b)
    assert dab == _levenshtein(b, a)                     # symmetry
    assert (dab == 0) == (a == b)                        # identity
    assert dab <= max(len(a), len(b))                    # upper bound
    assert dab >= abs(len(a) - len(b))                   # lower bound
    assert dab <= _levenshtein(a, c) + _levenshtein(c, b)  # triangle


@settings(max_examples=40, deadline=None)
@given(data=st.binary(min_size=200, max_size=2000))
def test_score_self_is_100(data):
    _, d1, _ = ctph_digest(data)
    if len(d1) >= 7:
        assert ctph_score(d1, d1) == 100


@settings(max_examples=30, deadline=None)
@given(texts=st.lists(st.text(alphabet="ab \nc", max_size=60),
                      min_size=1, max_size=12))
def test_line_explode_reassemble_is_lossless(texts):
    """explode_lines -> keep everything -> reassemble == original text
    (the rewrite machinery must be byte-lossless when nothing is removed)."""
    from pcompress_ray.stages.rewrite import explode_lines, reassemble_lines

    t = pa.table({"doc_id": pa.array(list(range(len(texts))), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    ex = explode_lines(t)
    part = ex.select(["doc_id", "line_no", "line"]).append_column(
        "keep", pa.array(np.ones(len(ex), np.int8)))
    out = reassemble_lines(part).to_pandas().sort_values("doc_id")
    assert out["new_text"].tolist() == list(texts)
    assert out["n_lines"].tolist() == [t.count("\n") + 1 for t in texts]
