"""The benchmark worker runs every workload end to end on this checkout.

``perfbench/worker.py`` imports heisvir from ``src``, reads
``verma._straighten.cache_info()`` before every op, empties that cache at
each new session and, with ``--trace``, refuses to start while any heisvir
namespace still reaches an unwrapped original.  A change that breaks one of
these fails here, not only in a full benchmark run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# one cycle of each op stream, or as much of one as a test can afford
OPS = {"sweep6": 13, "wide": 1, "axioms": 23}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(OPS))
def test_worker_runs_every_op(workload, trace):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    args = [sys.executable, str(ROOT / "perfbench" / "worker.py")]
    args += ["--launched", repr(time.monotonic()), "--workload", workload]
    args += ["--seed", "1", "--ops", str(OPS[workload])] + (["--trace"] if trace else [])
    proc = subprocess.run(
        args, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert Path(out["heisvir"]) == SRC
    assert len(out["ops"]) == OPS[workload]
    failed = [op for op in out["ops"] if not op["ok"]]
    assert not failed, failed
