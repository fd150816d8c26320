"""pcompress_ray — a Ray-Data-native near-duplicate detection + clustering engine.

A from-scratch rebuild of the data-processing capabilities of gburd/pcompress
(content-defined chunking, chunk-identity dedup, K-min-values / MinHash
similarity matching, segment-level LSH candidate generation) re-expressed as
idiomatic Ray Data pipelines: ``ray.data.Dataset`` → ``map_batches`` over
zero-copy Arrow batches, actor pools for stateful signature stages,
hash-exchange shuffles replacing the reference's serialized in-memory index
(reference: ``rabin/global/index.c``), and union-find connected components
producing cluster assignments.

Nothing here is a port: the reference (C, pthreads + semaphore ring) defines
WHAT is computed — chunk boundaries (rabin/rabin_dedup.c:616-714), chunk
identity semantics (rabin/rabin_dedup.c:830-873), bottom-k sketch matching
(rabin/rabin_dedup.c:921-994) — while the execution model here is Ray Data's
streaming executor.
"""

from pcompress_ray.config import PipelineConfig

__all__ = ["PipelineConfig", "register_for_ray"]
__version__ = "0.1.0"


def register_for_ray() -> None:
    """Make package callables shippable to Ray workers (pickle-by-value).

    Call once before building Datasets; idempotent. See runtime.py.
    """
    from pcompress_ray import runtime

    runtime.register()
