"""``ops.exchange`` is the only keyed shuffle: no source of the package or
of the driver contract calls Ray Data's per-group ``map_groups`` or
imports its aggregate functions (``groupby().aggregate``, ungrouped
``Dataset.aggregate``)."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MAP_GROUPS = re.compile(r"\bmap_groups\s*\(")
AGG_IMPORT = re.compile(
    r"^\s*(from\s+ray\.data\.aggregate\s+import|import\s+ray\.data\.aggregate"
    r"|from\s+ray\.data\s+import\s+[^\n]*\baggregate\b)", re.M)


def _sources() -> list[Path]:
    return sorted((ROOT / "pcompress_ray").rglob("*.py")) + \
        [ROOT / "__ray_entry__.py"]


def test_no_ray_groupby_shuffle():
    bad = []
    for p in _sources():
        src = p.read_text()
        for pat in (MAP_GROUPS, AGG_IMPORT):
            for m in pat.finditer(src):
                line = src.count("\n", 0, m.start()) + 1
                bad.append(f"{p.relative_to(ROOT)}:{line}: {m.group(0).strip()}")
    assert not bad, "Ray Data groupby/aggregate in use:\n" + "\n".join(bad)


def test_guard_patterns_match():
    """The patterns do catch the forms they guard against."""
    assert MAP_GROUPS.search('ds.groupby("k").map_groups(fn)')
    assert AGG_IMPORT.search("    from ray.data.aggregate import Count, Sum")
    assert AGG_IMPORT.search("import ray.data.aggregate as agg")
    assert AGG_IMPORT.search("from ray.data import DataContext, aggregate")
    assert not AGG_IMPORT.search("from ray.data import DataContext")
