"""A driver script started outside the repo, with no PYTHONPATH, runs the
dedup pipeline once it has called ``register_for_ray()`` before
``ray.init``; called after Ray is up, the same registration raises a
clear error instead of letting the first worker-side import fail."""

import os
import signal
import subprocess
import sys
import uuid

from test_process_leak import ROOT, _marked_pids

SCRIPT = r"""
import sys
sys.path.insert(0, sys.argv[1])
import ray

def start():
    ray.init(address="local", num_cpus=2, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

import pcompress_ray
start()
try:
    pcompress_ray.register_for_ray()
    sys.exit("register_for_ray() with Ray up did not raise")
except RuntimeError as ex:
    assert "before ray.init()" in str(ex), ex
ray.shutdown()

pcompress_ray.register_for_ray()
start()
from pcompress_ray.config import PipelineConfig
from pcompress_ray.pipelines.dedup import dedup_pipeline
from pcompress_ray.sources.corpus import read_bench_corpus, write_bench_corpus

pages = read_bench_corpus(write_bench_corpus(sys.argv[2], 100, seed=1))
res = dedup_pipeline(pages, PipelineConfig(), compute_pairs=False)
print(res.clusters.count())
ray.shutdown()
"""


def test_dedup_from_outside_the_repo(tmp_path):
    marker = uuid.uuid4().hex
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PCOMPRESS_RUN_MARKER"] = marker
    p = subprocess.run(
        [sys.executable, "-c", SCRIPT, ROOT, str(tmp_path / "pages")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=900)
    left = _marked_pids(f"PCOMPRESS_RUN_MARKER={marker}".encode())
    for pid in left:  # do not leak them into the rest of the suite
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    assert p.returncode == 0, p.stderr[-3000:]
    assert p.stdout.strip().splitlines()[-1] == "100", p.stdout[-1000:]
    assert not left, f"processes alive after the run exited: {left}"
