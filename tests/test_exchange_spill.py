"""An exchange of an input three times the object store completes through
spill: Ray starts in a subprocess with a 100 MiB store and a spill
directory of the test's own, a ~330 MiB single-input exchange must equal a
reference computed block by block in the driver, and no process the run
started may outlive it."""

import json
import os
import signal
import subprocess
import sys
import uuid

from test_process_leak import ROOT, _marked_pids

# Prints one JSON line: exchange wall (call to fetched output), input bytes,
# output blocks (one per non-empty partition), spilled files seen after the
# exchange, and whether the output equals the reference. Runs against any
# checkout on PYTHONPATH.
SCRIPT = r"""
import json, os, sys, time
import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

N_BLOCKS, ROWS, WORDS, KEYS = 64, 20_000, 32, 1000  # 64 x 5.2 MiB


def make_block(i):
    rng = np.random.default_rng(i)
    k = rng.integers(0, KEYS, ROWS)
    v = rng.integers(0, 1 << 40, ROWS)
    pay = rng.integers(0, 1 << 63, (ROWS, WORDS)).astype(np.uint64)
    return k, v, pay


def block_table(i):
    k, v, pay = make_block(i)
    return pa.table({"k": k, "v": v, "pay": pa.FixedSizeListArray.from_arrays(
        pa.array(pay.ravel()), WORDS)})


def per_key(k, v, w):
    keys, inv = np.unique(k, return_inverse=True)
    s = np.zeros(keys.size, np.uint64)
    h = np.zeros(keys.size, np.uint64)
    np.add.at(s, inv, v.astype(np.uint64))
    np.add.at(h, inv, w)
    return keys, np.bincount(inv), s, h


def fn(t):
    w = t["pay"].combine_chunks().flatten().to_numpy() \
        .reshape(len(t), WORDS).sum(axis=1, dtype=np.uint64)
    keys, n, s, h = per_key(t["k"].to_numpy(), t["v"].to_numpy(), w)
    return pa.table({"k": keys, "n": n, "s": s, "h": h})


spill = sys.argv[1]
ray.init(address="local", num_cpus=1, object_store_memory=100 * 2**20,
         include_dashboard=False, logging_level="ERROR",
         _system_config={"object_spilling_config": json.dumps(
             {"type": "filesystem", "params": {"directory_path": spill}})})
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import pcompress_ray
pcompress_ray.register_for_ray()
from pcompress_ray.functions.ops import exchange

gen = ray.remote(block_table)
ds = rd.from_arrow_refs([gen.remote(i) for i in range(N_BLOCKS)])
input_bytes = ds.size_bytes()
t0 = time.perf_counter()
out = exchange([ds], [["k"]], fn, n_parts=16)
n_blocks = out.num_blocks()
got = out.to_pandas()
wall = time.perf_counter() - t0
spilled = sum(len(f) for _, _, f in os.walk(spill))

ref = np.zeros((4, KEYS), np.uint64)
ref[0] = np.arange(KEYS)
for i in range(N_BLOCKS):
    k, v, pay = make_block(i)
    keys, n, s, h = per_key(k, v, pay.sum(axis=1, dtype=np.uint64))
    ref[1, keys] += n.astype(np.uint64)
    ref[2, keys] += s
    ref[3, keys] += h
got = got.sort_values("k")
equal = bool(len(got) == KEYS and all(
    np.array_equal(got[c].to_numpy().astype(np.uint64), ref[j])
    for j, c in enumerate(["k", "n", "s", "h"])))
ray.shutdown()
print(json.dumps({"exchange_s": round(wall, 2), "input_bytes": input_bytes,
                  "n_blocks": n_blocks, "spilled_files": spilled,
                  "equal": equal}))
"""


def test_exchange_larger_than_object_store(tmp_path):
    spill = tmp_path / "spill"
    spill.mkdir()
    marker = uuid.uuid4().hex
    env = dict(os.environ, PCOMPRESS_RUN_MARKER=marker,
               PYTHONPATH=os.pathsep.join(
                   [ROOT] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    p = subprocess.run([sys.executable, "-c", SCRIPT, str(spill)], cwd=ROOT,
                       env=env, capture_output=True, text=True, timeout=900)
    left = _marked_pids(f"PCOMPRESS_RUN_MARKER={marker}".encode())
    for pid in left:  # do not leak them into the rest of the suite
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    assert p.returncode == 0, p.stderr[-3000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert res["input_bytes"] >= 300 * 2**20, res
    # hundreds of MiB derive the cap: backpressure is tested at P = 16
    assert res["n_blocks"] == 16, res
    assert res["spilled_files"] > 0, res  # the store really was exceeded
    assert res["equal"], res
    assert not left, f"processes alive after the run exited: {left}"
