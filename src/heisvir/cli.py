"""Command line front end.

Every subcommand prints a single JSON document (or CSV where supported) on
stdout and reserves stderr for diagnostics.  Exit codes: 0 when the requested
check or report succeeded, 1 when a checked property failed to hold, 2 for
input errors such as malformed rationals or an undersized window.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

from .algebra import basis_window, bracket, jacobiator, parse_element
from .classifier import (
    UnclassifiedBranch,
    WindowTooSmall,
    i_torsion,
    solve_scalar,
)
from .modules import (
    IntermediateParams,
    build_window,
    is_reducible,
    module_defects,
    module_spec_from_json,
    module_spec_to_json,
)
from .scalars import parse_rational, random_rational, rat_str
from .verma import HighestWeight, level_basis, singular_space, weight_dims


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


def _cmd_bracket(args: argparse.Namespace) -> int:
    result = bracket(parse_element(args.left), parse_element(args.right))
    _emit({"result": [[str(g), rat_str(c)] for g, c in result.items()]})
    return 0


def _cmd_check_axioms(args: argparse.Namespace) -> int:
    gens = basis_window(args.window)
    anti = sum(
        1 for a in gens for b in gens if bool(bracket(a, b) + bracket(b, a))
    )
    jac = sum(
        1
        for a in gens
        for b in gens
        for c in gens
        if bool(jacobiator(a, b, c))
    )
    rng = random.Random(args.seed)
    tuples = [
        IntermediateParams(
            random_rational(rng), random_rational(rng), random_rational(rng)
        )
        for _ in range(5)
    ]
    module = sum(len(module_defects(build_window(p, 6), 2)) for p in tuples)
    _emit(
        {
            "window": args.window,
            "generators": len(gens),
            "antisymmetryDefects": anti,
            "jacobiDefects": jac,
            "moduleTuples": len(tuples),
            "moduleDefects": module,
        }
    )
    return 0 if anti == 0 and jac == 0 and module == 0 else 1


def _load_module_window(path: str, n: int):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("module description must be a JSON object")
    spec = module_spec_from_json(data)
    return spec, build_window(spec, n)


def _cmd_module_table(args: argparse.Namespace) -> int:
    spec, w = _load_module_window(args.spec, args.window)
    entries = []
    for (g, k), targets in sorted(
        w.actions.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1])
    ):
        for target, block in targets:
            entries.append((str(g), k, target, block))
    if args.format == "csv":
        print("generator,source,target,row,col,value")
        for name, src, tgt, block in entries:
            for r, row in enumerate(block):
                for c, value in enumerate(row):
                    if value:
                        print(f"{name},{src},{tgt},{r},{c},{rat_str(value)}")
        return 0
    _emit(
        {
            "module": module_spec_to_json(spec),
            "window": w.n,
            "offset": rat_str(w.offset),
            "dims": [[k, w.dim(k)] for k in w.indices()],
            "centralScalars": {
                name: rat_str(value)
                for name, value in sorted(w.central_scalars.items())
            },
            "actions": [
                [name, src, tgt, [[rat_str(v) for v in row] for row in block]]
                for name, src, tgt, block in entries
            ],
        }
    )
    return 0


def _classify_payload(alpha: str, beta: str, n: int) -> dict:
    a, b = parse_rational(alpha), parse_rational(beta)
    families = solve_scalar(a, b, n)
    return {
        "alpha": rat_str(a),
        "beta": rat_str(b),
        "window": n,
        "families": [
            {"kind": f.kind, "cI": rat_str(f.c_i), "cDI": rat_str(f.c_di)}
            for f in families
        ],
    }


def _cmd_classify(args: argparse.Namespace) -> int:
    _emit(_classify_payload(args.alpha, args.beta, args.window))
    return 0


def _cmd_reducible(args: argparse.Namespace) -> int:
    p = IntermediateParams(
        parse_rational(args.alpha), parse_rational(args.beta), parse_rational(args.F)
    )
    _emit({"reducible": is_reducible(p)})
    return 0


def _cmd_verma_dims(args: argparse.Namespace) -> int:
    dims = weight_dims(args.max)
    if args.format == "csv":
        print("depth,dim")
        for depth, dim in enumerate(dims):
            print(f"{depth},{dim}")
        return 0
    _emit({"dims": dims})
    return 0


def _parse_hw(text: str) -> HighestWeight:
    parts = [piece.strip() for piece in text.split(",")]
    if len(parts) != 5:
        raise ValueError("highest weight needs 5 comma-separated rationals")
    return HighestWeight(*(parse_rational(piece) for piece in parts))


def _cmd_verma_singular(args: argparse.Namespace) -> int:
    hw = _parse_hw(args.hw)
    if args.depth < 1:
        raise ValueError("depth must be at least 1")
    space = singular_space(hw, args.depth)
    order = {mono: pos for pos, mono in enumerate(level_basis(args.depth))}
    vectors = []
    for v in space:
        items = sorted(v.coeffs.items(), key=lambda kv: order[kv[0]])
        vectors.append([[str(mono), rat_str(c)] for mono, c in items])
    _emit(
        {
            "hw": [rat_str(value) for value in hw.as_tuple()],
            "depth": args.depth,
            "dim": len(space),
            "vectors": vectors,
        }
    )
    return 0


def _cmd_torsion(args: argparse.Namespace) -> int:
    if args.j < 0:
        raise ValueError("torsion threshold must be nonnegative")
    _, w = _load_module_window(args.spec, args.window)
    torsion = i_torsion(w, args.j)
    _emit(
        {
            "j": args.j,
            "window": w.n,
            "dims": [[k, w.dim(k)] for k in w.indices()],
            "torsion": [
                [k, t] for k, t in zip(w.indices(), torsion)
            ],
        }
    )
    return 0


def _sweep_point(point: dict, default_window: int) -> tuple[bool, str]:
    base = {
        "alpha": str(point.get("alpha", "")),
        "beta": str(point.get("beta", "")),
    }
    try:
        n = int(point.get("window", default_window))
        base["window"] = n
        return True, json.dumps(_classify_payload(base["alpha"], base["beta"], n))
    except WindowTooSmall as exc:
        base["error"] = f"window too small: {exc}"
    except UnclassifiedBranch as exc:
        base["error"] = f"unclassified: {exc}"
    except (ValueError, KeyError, TypeError) as exc:
        base["error"] = str(exc)
    return False, json.dumps(base)


def _sweep_workers(count: int) -> int:
    """Pool size: HV_THREADS or the CPU count, capped by both and the points."""
    cpus = os.cpu_count() or 1
    raw = os.environ.get("HV_THREADS", "").strip()
    workers = min(max(1, int(raw)), cpus) if raw else cpus
    return min(workers, count) if count else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    with open(args.grid, encoding="utf-8") as fh:
        points = json.load(fh)
    if not isinstance(points, list) or not all(
        isinstance(point, dict) for point in points
    ):
        raise ValueError("grid must be a JSON array of parameter objects")
    workers = _sweep_workers(len(points))
    results: list[tuple[bool, str]]
    if workers > 1 and len(points) > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(
                    pool.map(_sweep_point, points, [args.window] * len(points))
                )
        except (OSError, PermissionError):
            results = [_sweep_point(p, args.window) for p in points]
    else:
        results = [_sweep_point(p, args.window) for p in points]
    ok = True
    for good, line in results:
        ok = ok and good
        print(line)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heisvir",
        description="Exact computations with the twisted Heisenberg-Virasoro "
        "algebra, its weight modules, and truncated Verma modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", help="bracket of two algebra elements")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=_cmd_bracket)

    p = sub.add_parser("check-axioms", help="antisymmetry, Jacobi, module axioms")
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_check_axioms)

    p = sub.add_parser("module-table", help="action table of a described module")
    p.add_argument("spec", help="path to a module description (JSON object)")
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_module_table)

    p = sub.add_parser("classify", help="solution families at a weight offset")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--window", type=int, default=6)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("reducible", help="reducibility of a dense rank-one module")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--F", required=True)
    p.set_defaults(fn=_cmd_reducible)

    p = sub.add_parser("verma-dims", help="weight space dimensions by depth")
    p.add_argument("--max", type=int, default=6)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_verma_dims)

    p = sub.add_parser("verma-singular", help="singular vectors at a given depth")
    p.add_argument("--hw", required=True, help="5 comma-separated rationals")
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(fn=_cmd_verma_singular)

    p = sub.add_parser("torsion", help="joint I-kernel dimensions per weight")
    p.add_argument("spec", help="path to a module description (JSON object)")
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--window", type=int, default=8)
    p.set_defaults(fn=_cmd_torsion)

    p = sub.add_parser("sweep", help="classify a grid of parameter points")
    p.add_argument("grid", help="path to a JSON array of parameter objects")
    p.add_argument("--window", type=int, default=6)
    p.set_defaults(fn=_cmd_sweep)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except WindowTooSmall as exc:
        print(f"error: window too small: {exc}", file=sys.stderr)
        return 2
    except UnclassifiedBranch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
