"""(Re)generate the golden regression fixtures under tests/golden/.

Run ONLY when a semantic change is intentional; commit the new fixtures
with the change that caused them. Usage:

    python tools/make_golden.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pyarrow.parquet as pq


def main():
    import ray

    from tools.golden_common import (audio_digest, chunk_digest,
                                     cluster_table, filetype_digest,
                                     golden_pages, image_digest,
                                     restore_digest, signature_digest,
                                     video_digest)

    out_dir = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "tests", "golden")
    os.makedirs(out_dir, exist_ok=True)

    pages = golden_pages()
    digests = {
        "chunk_digest": chunk_digest(pages),
        "signature_digest": signature_digest(pages),
        "filetype_digest": filetype_digest(),
        "image_digest": image_digest(),
        "video_digest": video_digest(),
        "audio_digest": audio_digest(),
    }

    import pcompress_ray

    pcompress_ray.register_for_ray()  # before ray.init: see runtime.py
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    with tempfile.TemporaryDirectory() as td:
        digests["restore_digest"] = restore_digest(
            pages, os.path.join(td, "arch"))
    clusters = cluster_table(pages)

    import pyarrow as pa

    pq.write_table(pa.Table.from_pandas(clusters, preserve_index=False),
                   os.path.join(out_dir, "clusters.parquet"))
    with open(os.path.join(out_dir, "golden.json"), "w") as f:
        json.dump(digests, f, indent=1)
    print(json.dumps(digests, indent=1))
    print(f"wrote {out_dir} (clusters: {len(clusters)} rows)")
    ray.shutdown()


if __name__ == "__main__":
    main()
