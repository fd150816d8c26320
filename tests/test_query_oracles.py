"""In-pytest replica of the driver's correctness gate: EVERY oracle-checked
query at sf0.001 (fast), including the dtype-family guard the driver's
value-hash implies (int64 2059 vs float64 2059.0 hash differently, so
`check_dtype=False` alone is NOT enough — this exact bug class shipped in
rounds 1 AND 2 via DuckDB HUGEINT window sums arriving as float64).

Every query's output is also frozen in ``golden/query_outputs_sf0.001.json``:
row count, exact pandas dtypes and a sha256 of the canonical CSV (the
``tools/check_queries.canon`` form). Oracle-backed queries are checked
against it inside ``test_query_matches_oracle``; the rows-only ones by
``test_query_matches_frozen_output``. A query whose digest differed between
two fresh generator runs is frozen with ``sha256: null`` (rows and dtypes
only). Regenerate with ``python tests/test_query_oracles.py`` (writes the
fixture; pass ``--check OTHER.json`` to null the digests that differ from
another run's output)."""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import __ray_entry__ as e  # noqa: E402  (no ray.init at import time)

SF_DIR = "/root/testdata/sf0.001"

ORACLED = sorted(e.oracle_sql().keys())
FROZEN_PATH = Path(__file__).parent / "golden" / "query_outputs_sf0.001.json"


def _fingerprint(df: pd.DataFrame) -> dict:
    from tools.check_queries import canon

    csv = canon(df).to_csv(index=False).encode()
    return {"rows": len(df),
            "dtypes": {c: str(df[c].dtype) for c in df.columns},
            "sha256": hashlib.sha256(csv).hexdigest()}


def _assert_frozen(name: str, df: pd.DataFrame):
    want = json.loads(FROZEN_PATH.read_text())[name]
    got = _fingerprint(df)
    if want["sha256"] is None:  # not reproducible run to run: shape only
        got["sha256"] = None
    assert got == want, f"{name}: output drifted from the frozen fixture"


def _run(name: str) -> pd.DataFrame:
    got = e.queries()[name](SF_DIR)
    return got if isinstance(got, pd.DataFrame) else got.to_pandas()


def _oracle(sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for p in Path(SF_DIR).glob("*.parquet"):
        con.sql(f"CREATE VIEW {p.stem} AS SELECT * FROM '{p}'")
    return con.sql(sql).df()


def _family(dtype) -> str:
    """Dtype family as the driver's value-hash would distinguish it."""
    if pd.api.types.is_bool_dtype(dtype):
        return "bool"
    if pd.api.types.is_integer_dtype(dtype):
        return "int"
    if pd.api.types.is_float_dtype(dtype):
        return "float"
    if pd.api.types.is_datetime64_any_dtype(dtype):
        return "datetime"
    return "str"


@pytest.mark.parametrize("name", ORACLED)
def test_query_matches_oracle(ray_session, name):
    got = _run(name)
    _assert_frozen(name, got)
    want = _oracle(e.oracle_sql()[name])

    assert sorted(got.columns) == sorted(want.columns)
    cols = sorted(got.columns)
    g = got[cols].sort_values(cols).reset_index(drop=True)
    w = want[cols].sort_values(cols).reset_index(drop=True)
    fams_g = [_family(g[c].dtype) for c in cols]
    fams_w = [_family(w[c].dtype) for c in cols]
    assert fams_g == fams_w, (
        f"dtype-family drift (driver hash would mismatch): "
        f"got={list(zip(cols, fams_g))} want={list(zip(cols, fams_w))}"
    )
    pd.testing.assert_frame_equal(g, w, check_dtype=False)


@pytest.mark.parametrize(
    "name", [n for n in e.queries() if n not in e.oracle_sql()])
def test_query_matches_frozen_output(ray_session, name):
    _assert_frozen(name, _run(name))


def _materialize_logged(name: str, caplog):
    """Run query ``name`` to a materialized result with Ray Data's log
    captured in ``caplog``."""
    import logging

    ray_data_log = logging.getLogger("ray.data")
    ray_data_log.addHandler(caplog.handler)
    try:
        out = e.queries()[name](SF_DIR)
        return out.materialize() if hasattr(out, "materialize") else out
    finally:
        ray_data_log.removeHandler(caplog.handler)


def test_q1_pricing_blocks_keep_columns(ray_session, caplog):
    """Every output block of q1_pricing carries its declared columns, and
    no step reports a block whose schema changed (an aggregate that emits
    zero-column blocks for its empty partitions does)."""
    import ray

    from pcompress_ray.functions.ops import materialized_block_refs

    out = _materialize_logged("q1_pricing", caplog)
    assert "different schema" not in caplog.text
    blocks = ray.get(materialized_block_refs(out))
    assert blocks and out.count() > 0
    for b in blocks:
        assert list(b.column_names) == ["l_returnflag", "l_linestatus",
                                        "sum_qty", "sum_revenue", "n_rows"]


@pytest.mark.parametrize("name", ["customers_without_orders",
                                  "incremental_neardup", "archive_roundtrip"])
def test_no_zero_column_blocks(ray_session, caplog, name):
    """No step of these queries reports a block whose schema changed: a
    ``map_batches`` over a block that an earlier step emptied emits a
    zero-column block, and Ray Data logs "different schema" for it."""
    _materialize_logged(name, caplog)
    assert "different schema" not in caplog.text


def test_nb_classify_pulls_without_executor_launch(ray_session, monkeypatch):
    """nb_classify runs three executions: the two exchange inputs and the
    scoring pass. Its driver pulls of the two exchange outputs read the
    reducer blocks through ``block_rounds`` and launch none."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    calls = []
    execute = StreamingExecutor.execute

    def counted(self, *a, **k):
        calls.append(1)
        return execute(self, *a, **k)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    e.queries()["nb_classify"](SF_DIR).materialize()
    assert len(calls) == 3


def _freeze(argv: list[str]) -> int:
    """Run every query once and write the fixture. With ``--check
    OTHER.json`` (a fixture written by an earlier, separate process),
    digests that differ from OTHER's are written as null."""
    import ray

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR")
    try:
        out = {name: _fingerprint(_run(name)) for name in e.queries()}
    finally:
        ray.shutdown()
    if argv[:1] == ["--check"]:
        other = json.loads(Path(argv[1]).read_text())
        for name, fp in out.items():
            if fp["sha256"] != other[name]["sha256"]:
                print(f"unstable digest: {name}")
                fp["sha256"] = None
    FROZEN_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(_freeze(sys.argv[1:]))
