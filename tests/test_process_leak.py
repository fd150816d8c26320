"""A benchmark run leaves no process behind: every process it starts
(the driver, Ray's raylet/GCS/workers, and anything those start) must be
gone once the run's command has exited."""

import os
import signal
import subprocess
import sys
import uuid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _marked_pids(needle: bytes) -> list[int]:
    """Pids whose environment holds ``needle`` (processes started by the
    run inherit the marker through their environment)."""
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/environ", "rb") as f:
                if needle in f.read():
                    pids.append(int(name))
        except OSError:  # exited meanwhile, or not ours to read
            continue
    return pids


def test_benchmark_run_leaves_no_process():
    marker = uuid.uuid4().hex
    env = dict(os.environ, PCOMPRESS_RUN_MARKER=marker)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dedup_bulk",
         "--seed", "1", "--trace", "1", "--scale", "0.05", "--seconds", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    left = _marked_pids(f"PCOMPRESS_RUN_MARKER={marker}".encode())
    for pid in left:  # do not leak them into the rest of the suite
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    assert p.returncode == 0, p.stderr[-3000:]
    assert not left, f"processes alive after the run exited: {left}"
