"""bench.py: its environment parsing, and one leg end to end."""

import json
import os
import signal
import subprocess
import sys
import uuid

from test_process_leak import _marked_pids

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_malformed_cc_edge_limit_is_a_one_line_error():
    env = dict(os.environ, GRAFT_CC_EDGE_LIMIT="5e6")
    out = subprocess.run([sys.executable, "bench.py"], env=env,
                         capture_output=True, text=True, timeout=120,
                         cwd=ROOT)
    assert out.returncode == 1
    assert out.stderr.strip().splitlines() == [
        "GRAFT_CC_EDGE_LIMIT must be a non-negative integer, got '5e6'"]


def test_one_leg_reports_and_leaves_no_process():
    """The leg a ``--scaling`` pair starts: exit 0, a last-line JSON record,
    and no process of its Ray cluster alive once the command has exited."""
    marker = uuid.uuid4().hex
    env = dict(os.environ, RAY_GRAFT_CPUS="1", GRAFT_BENCH_DOCS="300",
               PCOMPRESS_RUN_MARKER=marker)
    env.pop("GRAFT_CC_EDGE_LIMIT", None)
    p = subprocess.run([sys.executable, "bench.py"], env=env, cwd=ROOT,
                       capture_output=True, text=True, timeout=600)
    left = _marked_pids(f"PCOMPRESS_RUN_MARKER={marker}".encode())
    for pid in left:  # do not leak them into the rest of the suite
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    assert p.returncode == 0, p.stderr[-3000:]
    rec = json.loads(p.stdout.strip().splitlines()[-1])
    assert rec["value"] > 0 and rec["docs_per_sec"] > 0
    assert rec["bench_docs"] == 300 and rec["num_cpus"] == 1
    assert not left, f"processes alive after the leg exited: {left}"
