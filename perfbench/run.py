"""heisvir benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {sweep6,wide,axioms} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; heisvir is imported from its ``src``.  The
workload runs in its own process (``worker.py``), one caller and one thread.
Every answer is checked against the expectation in ``workloads.py``.

``--trace 0`` measures the end-to-end metrics for S seconds.  ``--trace 1``
runs a fixed number of the workload's ops untraced, then the same ops again
in a fresh process with every heisvir layer wrapped (``tracer.py``), and
reports the per-layer metrics; the ratio of the two op times is the tracing
overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines above it say what ran.
Exits 2 without a result when heisvir is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep6", "wide", "axioms")  # workloads.py's; run.py never imports heisvir
# Ops in a traced run: whole cycles of each stream (three on axioms), so every
# layer a workload touches runs, and per-layer counts repeat exactly per seed.
TRACED_OPS = {"sweep6": 13, "wide": 3, "axioms": 69}
SETUP_PROBES = 9  # extra processes that only import heisvir, for a steady median
DEADLINE_S = 170  # the whole run must end within 180 s


class BenchError(Exception):
    pass


def _worker(args: list[str], timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--launched", repr(launched), *args],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        timeout=max(timeout, 1),
        text=True,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(out["heisvir"]) != SRC:
        raise BenchError(f"imported heisvir from {out['heisvir']}, not {SRC}")
    return out


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def _print_ops(title: str, ops: list[dict]) -> None:
    print(f"{title}: {len(ops)} ops")
    for i, entry in enumerate(ops):
        op = entry["op"]
        line = f"  {i:3d} {entry['seconds']:8.4f}s {'ok ' if entry['ok'] else 'BAD'} "
        line += f"{op['kind']}({', '.join(op['args'])})"
        if "nullspace" in entry:
            line += f" nullspace[rows,cols,rank]={entry['nullspace'][:4]}"
            if len(entry["nullspace"]) > 4:
                line += f"+{len(entry['nullspace']) - 4} more"
        if not entry["ok"]:
            line += f" -- {entry['error']}"
        print(line)


def _op_wall(ops: list[dict]) -> float:
    return sum(entry["seconds"] for entry in ops)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    common = ["--workload", workload, "--seed", str(seed)]
    if trace:
        common += ["--ops", str(TRACED_OPS[workload])]
    else:
        common += ["--seconds", str(seconds)]
    plain = _worker(common, left())
    print(f"machine: {json.dumps(machine())}")
    print(f"workload {workload}, seed {seed}, closed loop, 1 caller, 1 thread")
    _print_ops("untraced", plain["ops"])
    runs = [plain]
    if trace:
        traced = _worker(common + ["--trace"], left())
        runs.append(traced)
        _print_ops("traced", traced["ops"])
        overhead = _op_wall(traced["ops"]) / _op_wall(plain["ops"]) - 1
        metrics = tracer.layer_metrics(traced["totals"], len(traced["ops"]), overhead)
        op_s = traced["totals"]["time.op"] / len(traced["ops"])
        print(
            f"layer separation: linalg.share={metrics['linalg.share'][0]:.3f}, "
            f"bracket share={metrics['algebra.bracket_s'][0] / op_s:.3f} of op time"
        )
    else:
        setups = [plain["setup_s"]]
        setups += [_worker(["--setup-only"], left())["setup_s"] for _ in range(SETUP_PROBES)]
        print(f"setup samples (s): {[round(s, 4) for s in setups]}")
        ops = plain["ops"]
        good = sum(entry["ok"] for entry in ops)
        metrics = {
            "ops_per_s": (good / _op_wall(ops), "op/s"),
            "op_p50_s": (statistics.median(e["seconds"] for e in ops), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
        }
    attempted = sum(len(r["ops"]) for r in runs)
    failed = sum(not e["ok"] for r in runs for e in r["ops"])
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "heisvir" / "__init__.py").is_file():
        print(f"error: no heisvir package under {SRC}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
