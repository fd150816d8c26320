"""bench.py's environment parsing."""

import os
import subprocess
import sys


def test_malformed_cc_edge_limit_is_a_one_line_error():
    env = dict(os.environ, GRAFT_CC_EDGE_LIMIT="5e6")
    out = subprocess.run([sys.executable, "bench.py"], env=env,
                         capture_output=True, text=True, timeout=120,
                         cwd=os.path.dirname(os.path.dirname(__file__)))
    assert out.returncode == 1
    assert out.stderr.strip().splitlines() == [
        "GRAFT_CC_EDGE_LIMIT must be a non-negative integer, got '5e6'"]
