"""Spans and counters recorded from outside heisvir.

The traced run replaces the public functions of each heisvir module with
wrappers defined here.  A span wrapper records (id, parent id, name, start,
end, sizes); a counter wrapper only counts calls, for functions called far too
often to pay for a span.  Nothing inside ``src/heisvir`` knows about tracing.

Several modules import the wrapped functions by name, and the package
``__init__`` re-exports most of them, so every namespace that holds an original
is rebound.  ``find_unwrapped`` then looks for any reference to an original
still reachable from a heisvir module; the traced run refuses to start if it
finds one, because a call through it would go unmeasured.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from dataclasses import dataclass, field
from typing import Callable, Iterable


class UnwrappedReference(RuntimeError):
    """A heisvir namespace still reaches an original, untraced function."""


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    sizes: dict = field(default_factory=dict)


class Recorder:
    """Collects spans (with parent ids) and call counts in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def drain(self) -> tuple[list[Span], dict[str, int]]:
        """Hand over everything recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("drain with open spans")
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are matched by parent id; their intervals are clipped to the
    parent and merged, so overlapping children are not subtracted twice.
    """
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            a, b = max(c.start, s.start), min(c.end, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.id] = (s.end - s.start) - covered
    return out


def _mark(wrapper: Callable) -> Callable:
    wrapper.__perfbench_wrapper__ = True
    return wrapper


def _span_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(span)

    return _mark(traced)


def _nullspace_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(rows, cols):
        rows = list(rows)  # may be any iterable; count it without consuming it
        span = rec.open(name)
        try:
            basis = fn(rows, cols)
        finally:
            rec.close(span)
        span.sizes = {
            "rows": len(rows),
            "cols": len(cols),
            "rank": len(cols) - len(basis),
        }
        return basis

    return _mark(traced)


def _system_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.open(name)
        try:
            system = fn(*args, **kwargs)
        finally:
            rec.close(span)
        span.sizes = {
            "linear_rows": len(system.linear),
            "quadratic_rows": len(system.quadratic),
        }
        return system

    return _mark(traced)


def _count_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)

    return _mark(counted)


def _span_add_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    """Counts the calls, and under ``<name>.grew`` those that grew the span."""

    @functools.wraps(fn)
    def counted(self, vec):
        grew = fn(self, vec)
        rec.count(name)
        if grew:
            rec.count(name + ".grew")
        return grew

    return _mark(counted)


# (module, attribute, wrapper factory) for every function the traced run
# wraps; methods are given as "Class.method".  Counters stand in for spans
# on functions called far too often to pay for one.
WRAPPED = (
    ("linalg", "sparse_nullspace", _nullspace_wrapper),
    ("linalg", "SpanBuilder.add", _span_add_wrapper),
    ("classifier", "build_scalar_system", _system_wrapper),
    ("classifier", "solve_system", _span_wrapper),
    ("classifier", "solve_scalar", _span_wrapper),
    ("classifier", "check_family", _span_wrapper),
    ("classifier", "irreducibility_oracle", _span_wrapper),
    ("classifier", "i_torsion", _span_wrapper),
    ("matrix_system", "build_matrix_system", _system_wrapper),
    ("matrix_system", "verify_coupling_obstruction", _span_wrapper),
    ("matrix_system", "check_matrix_family", _span_wrapper),
    ("modules", "build_window", _span_wrapper),
    ("modules", "module_defects", _span_wrapper),
    ("modules", "ModuleWindow.apply", _count_wrapper),
    ("algebra", "bracket", _span_wrapper),
    ("algebra", "jacobiator", _count_wrapper),
    ("verma", "singular_space", _span_wrapper),
    ("verma", "truncation_window", _span_wrapper),
    ("verma", "apply", _count_wrapper),
    ("cli", "run", _span_wrapper),
)


def heisvir_modules() -> list[types.ModuleType]:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "heisvir" or name.startswith("heisvir."))
    ]


def _lookup(module: str, attr: str):
    obj = importlib.import_module(f"heisvir.{module}")
    owner = obj
    for part in attr.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, attr.split(".")[-1], obj


def _reachable(module: types.ModuleType):
    """(where, value) for everything a call could reach an original through:
    module attributes, class attributes, one level into module-level
    containers, and function defaults and closures."""
    for attr, val in vars(module).items():
        where = f"{module.__name__}.{attr}"
        yield where, val
        if isinstance(val, type) and val.__module__ == module.__name__:
            for cattr, cval in vars(val).items():
                yield f"{where}.{cattr}", cval
        elif isinstance(val, dict):
            for key, item in val.items():
                yield f"{where}[{key!r}]", item
        elif isinstance(val, (list, tuple, set, frozenset)):
            for item in val:
                yield f"{where}[...]", item
        elif isinstance(val, types.FunctionType) and not hasattr(
            val, "__perfbench_wrapper__"
        ):
            for item in (val.__defaults__ or ()):
                yield f"{where}.__defaults__", item
            for item in (val.__kwdefaults__ or {}).values():
                yield f"{where}.__kwdefaults__", item
            for cell in val.__closure__ or ():
                try:
                    yield f"{where}.__closure__", cell.cell_contents
                except ValueError:  # empty cell
                    continue


def find_unwrapped(
    originals: Iterable[Callable], modules: Iterable[types.ModuleType]
) -> list[str]:
    """Every place in ``modules`` that still reaches one of ``originals``."""
    ids = {id(fn) for fn in originals}
    return [
        where
        for module in modules
        for where, val in _reachable(module)
        if id(val) in ids
    ]


class Installation:
    """The wrappers installed into heisvir for one recorder; ``remove`` undoes them."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._undo: list[tuple[object, str, object]] = []
        self.originals: list[Callable] = []

    def install(self) -> "Installation":
        targets = [(m, a, make, _lookup(m, a)) for m, a, make in WRAPPED]
        modules = heisvir_modules()
        for module, attr, make, (owner, leaf, original) in targets:
            wrapper = make(self.rec, f"{module}.{attr}", original)
            self.originals.append(original)
            if isinstance(owner, type):
                self._rebind(owner, leaf, wrapper)
                continue
            for ns in modules:
                for name, val in list(vars(ns).items()):
                    if val is original:
                        self._rebind(ns, name, wrapper)
        left = find_unwrapped(self.originals, modules)
        if left:
            self.remove()
            raise UnwrappedReference(
                "untraced originals still reachable: " + ", ".join(left)
            )
        return self

    def _rebind(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def remove(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()


# ---------------------------------------------------------------------------
# from spans to per-layer metrics


def op_totals(spans: list[Span], counts: dict[str, int]) -> dict[str, float]:
    """Additive totals for one op's spans: duration, self time, calls and
    sizes per span name, plus the rows the coupling verdict reads."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    for s in spans:
        add(f"time.{s.name}", s.end - s.start)
        add(f"self.{s.name}", selfs[s.id])
        add(f"calls.{s.name}", 1)
        for key, value in s.sizes.items():
            add(f"size.{s.name}.{key}", value)
        parent = by_id.get(s.parent)
        if (
            s.name == "linalg.sparse_nullspace"
            and parent is not None
            and parent.name == "matrix_system.verify_coupling_obstruction"
        ):
            add("verify_rows", s.sizes["rows"])
    for name, value in counts.items():
        add(f"count.{name}", value)
    return out


def layer_metrics(
    t: dict[str, float], n_ops: int, overhead: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as (value, unit), from totals over ``n_ops`` traced ops.

    Times and counts are per op; ratios are of totals.  A ratio whose base
    is zero (the layer did not run) reads 0.
    """

    def per(key: str) -> float:
        return t.get(key, 0) / n_ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    ns = "linalg.sparse_nullspace"
    add = "count.linalg.SpanBuilder.add"
    built = t.get("size.matrix_system.build_matrix_system.linear_rows", 0) + t.get(
        "size.matrix_system.build_matrix_system.quadratic_rows", 0
    )
    values = {
        "linalg.nullspace_s": per(f"time.{ns}"),
        "linalg.nullspace_calls": per(f"calls.{ns}"),
        "linalg.rows": per(f"size.{ns}.rows"),
        "linalg.cols": per(f"size.{ns}.cols"),
        "linalg.rank": per(f"size.{ns}.rank"),
        "linalg.row_yield": ratio(t.get(f"size.{ns}.rank", 0), t.get(f"size.{ns}.rows", 0)),
        "linalg.share": ratio(t.get(f"time.{ns}", 0), t.get("time.op", 0)),
        "linalg.span_add_calls": per(add),
        "linalg.span_add_yield": ratio(t.get(add + ".grew", 0), t.get(add, 0)),
        "classifier.build_s": per("time.classifier.build_scalar_system"),
        "classifier.linear_rows": per("size.classifier.build_scalar_system.linear_rows"),
        "classifier.quadratic_rows": per(
            "size.classifier.build_scalar_system.quadratic_rows"
        ),
        "classifier.solve_self_s": per("self.classifier.solve_system"),
        "classifier.plugback_s": per("time.classifier.check_family"),
        "classifier.plugback_calls": per("calls.classifier.check_family"),
        "classifier.oracle_s": per("time.classifier.irreducibility_oracle"),
        "classifier.oracle_calls": per("calls.classifier.irreducibility_oracle"),
        "classifier.torsion_s": per("time.classifier.i_torsion"),
        "matrix_system.build_s": per("time.matrix_system.build_matrix_system"),
        "matrix_system.linear_rows": per(
            "size.matrix_system.build_matrix_system.linear_rows"
        ),
        "matrix_system.quadratic_rows": per(
            "size.matrix_system.build_matrix_system.quadratic_rows"
        ),
        "matrix_system.verify_self_s": per(
            "self.matrix_system.verify_coupling_obstruction"
        ),
        "matrix_system.rows_read_frac": ratio(t.get("verify_rows", 0), built),
        "matrix_system.check_family_s": per("time.matrix_system.check_matrix_family"),
        "modules.build_window_s": per("time.modules.build_window"),
        "modules.defects_self_s": per("self.modules.module_defects"),
        "modules.apply_calls": per("count.modules.ModuleWindow.apply"),
        "algebra.bracket_s": per("time.algebra.bracket"),
        "algebra.bracket_calls": per("calls.algebra.bracket"),
        "algebra.jacobiator_calls": per("count.algebra.jacobiator"),
        "verma.singular_self_s": per("self.verma.singular_space"),
        "verma.truncation_window_s": per("time.verma.truncation_window"),
        "verma.apply_calls": per("count.verma.apply"),
        "verma.straighten_hits": per("straighten_hits"),
        "verma.straighten_misses": per("straighten_misses"),
        "cli.run_self_s": per("self.cli.run"),
        "cli.run_calls": per("calls.cli.run"),
        "trace.overhead_frac": overhead,
    }

    return {name: (value, _unit(name)) for name, value in values.items()}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s/op"
    if name.endswith(("_frac", "_yield", ".share")):
        return "ratio"
    return "count/op"
