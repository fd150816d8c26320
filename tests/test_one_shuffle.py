"""``ops.exchange`` is the only keyed shuffle: no source of the package or
of the driver contract calls Ray Data's per-group ``map_groups`` or
imports its aggregate functions (``groupby().aggregate``, ungrouped
``Dataset.aggregate``), nothing in them or in ``tools/`` calls the pandas
adapters ``grouped_partitions`` / ``fast_grouped_partitions``, and the
flagship exact and candidate stages do not import pandas."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MAP_GROUPS = re.compile(r"\bmap_groups\s*\(")
AGG_IMPORT = re.compile(
    r"^\s*(from\s+ray\.data\.aggregate\s+import|import\s+ray\.data\.aggregate"
    r"|from\s+ray\.data\s+import\s+[^\n]*\baggregate\b)", re.M)
ADAPTER_CALL = re.compile(r"(?<!def )\b(?:fast_)?grouped_partitions\s*\(")
PANDAS_IMPORT = re.compile(r"^\s*(import\s+pandas\b|from\s+pandas\b)", re.M)


def _sources() -> list[Path]:
    return sorted((ROOT / "pcompress_ray").rglob("*.py")) + \
        [ROOT / "__ray_entry__.py"]


def _matches(paths: list[Path], *pats) -> list[str]:
    found = []
    for p in paths:
        src = p.read_text()
        for pat in pats:
            for m in pat.finditer(src):
                line = src.count("\n", 0, m.start()) + 1
                found.append(f"{p.relative_to(ROOT)}:{line}: "
                             f"{m.group(0).strip()}")
    return found


def test_no_ray_groupby_shuffle():
    bad = _matches(_sources(), MAP_GROUPS, AGG_IMPORT)
    assert not bad, "Ray Data groupby/aggregate in use:\n" + "\n".join(bad)


def test_no_pandas_adapter_calls():
    bad = _matches(_sources() + sorted((ROOT / "tools").rglob("*.py")),
                   ADAPTER_CALL)
    assert not bad, "pandas exchange adapter called:\n" + "\n".join(bad)


def test_flagship_stages_import_no_pandas():
    stages = ROOT / "pcompress_ray" / "stages"
    bad = _matches([stages / "exact.py", stages / "candidates.py"],
                   PANDAS_IMPORT)
    assert not bad, "pandas imported:\n" + "\n".join(bad)


def test_guard_patterns_match():
    """The patterns do catch the forms they guard against."""
    assert MAP_GROUPS.search('ds.groupby("k").map_groups(fn)')
    assert AGG_IMPORT.search("    from ray.data.aggregate import Count, Sum")
    assert AGG_IMPORT.search("import ray.data.aggregate as agg")
    assert AGG_IMPORT.search("from ray.data import DataContext, aggregate")
    assert not AGG_IMPORT.search("from ray.data import DataContext")
    assert ADAPTER_CALL.search("out = grouped_partitions(ds, ['k'], fn)")
    assert ADAPTER_CALL.search("ops.fast_grouped_partitions (ds, ['k'], fn)")
    assert not ADAPTER_CALL.search("def grouped_partitions(ds, key_cols):")
    assert not ADAPTER_CALL.search("def fast_grouped_partitions(ds, k):")
    assert not ADAPTER_CALL.search("from ops import grouped_partitions")
    assert PANDAS_IMPORT.search("    import pandas as pd")
    assert PANDAS_IMPORT.search("from pandas import DataFrame")
    assert not PANDAS_IMPORT.search("import pandas_like")
    assert not PANDAS_IMPORT.search("# uses pandas for nothing")
