"""One workload process: import heisvir, then run ops in a closed loop.

    python3 perfbench/worker.py --launched T --workload W --seed S
        (--seconds N | --ops K) [--trace]
    python3 perfbench/worker.py --launched T --setup-only

``T`` is the parent's ``time.monotonic()`` just before it started this
process; set-up time runs from then until ``import heisvir`` returns, so it
covers interpreter start and the import, and nothing is warmed beforehand.
One caller, one thread: the next op starts only after the previous one has
returned.  With ``--seconds`` ops start until N seconds have passed; with
``--ops`` exactly K ops run.  The result is one JSON line on stdout.
"""

import time

import heisvir  # the import being timed

READY = time.monotonic()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def _straighten_stats() -> tuple[int, int]:
    info = heisvir.verma._straighten.cache_info()
    return info.hits, info.misses


def run(args: argparse.Namespace) -> dict:
    stream = workloads.op_stream(args.workload, args.seed)
    rec = installation = None
    if args.trace:
        rec = tracer.Recorder()
        installation = tracer.Installation(rec).install()
    totals: dict[str, float] = {}
    ops = []
    start = time.perf_counter()
    for op in stream if args.ops is None else itertools.islice(stream, args.ops):
        if args.ops is None and time.perf_counter() - start >= args.seconds:
            break
        if op.new_session:
            workloads.start_session()
        before = _straighten_stats()
        root = rec.open("op") if rec else None
        t0 = time.perf_counter()
        error = None
        try:
            workloads.run_op(op)
        except Exception as exc:  # a failed op is counted and the run goes on
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - t0
        entry = {"op": op.as_json(), "seconds": seconds, "ok": error is None}
        if error:
            entry["error"] = error
        if rec:
            rec.close(root)
            after = _straighten_stats()
            spans, counts = rec.drain()
            per_op = tracer.op_totals(spans, counts)
            per_op["straighten_hits"] = after[0] - before[0]
            per_op["straighten_misses"] = after[1] - before[1]
            for key, value in per_op.items():
                totals[key] = totals.get(key, 0) + value
            entry["nullspace"] = [
                [s.sizes["rows"], s.sizes["cols"], s.sizes["rank"]]
                for s in spans
                if s.name == "linalg.sparse_nullspace"
            ]
        ops.append(entry)
    if installation:
        installation.remove()
    return {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "totals": totals,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    setup = READY - args.launched
    src = Path(heisvir.__file__).resolve().parent.parent
    out = {"setup_s": setup, "heisvir": str(src)}
    if not args.setup_only:
        if args.workload is None or args.seed is None:
            parser.error("--workload and --seed are required")
        if (args.seconds is None) == (args.ops is None):
            parser.error("give exactly one of --seconds and --ops")
        out.update(run(args))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
