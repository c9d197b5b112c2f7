"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/steadiness.py --seeds 1-10 [--workload wide ...] \
        [--json perfbench/baseline.json]

Runs ``BENCHMARK.json``'s command once per workload and seed, one run at a
time, untraced, for ``run_seconds``.  For every end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, which is the distance between the quartiles as a share of the
median, beside the metric's bound.  With ``--json`` it also writes the
figures, with the machine and every run's values, to that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import machine

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()
    report = {
        "machine": machine(),
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    steady = True
    for workload in args.workload or names:
        runs = []
        for seed in args.seeds:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed ops", file=sys.stderr)
                steady = False
            runs.append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: {values}", flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[metric["name"]] = {
                "unit": metric["unit"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "bound": metric["bound"],
                "values": values,
            }
            if metric["name"] != "setup_s" and spread > metric["bound"]:
                steady = False
            print(
                f"  {workload} {metric['name']}: median {med:.6g} {metric['unit']}, "
                f"quartiles {q1:.6g}..{q3:.6g}, spread {spread:.3f} "
                f"(bound {metric['bound']})",
                flush=True,
            )
        report["workloads"][workload] = summary
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
