"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import sys
import types
from fractions import Fraction as F
from pathlib import Path

import pytest

import heisvir
import tracer
import workloads

HERE = Path(__file__).resolve().parent


def take(workload: str, seed: int, n: int) -> list:
    return list(itertools.islice(workloads.op_stream(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert take(workload, 7, 40) == take(workload, 7, 40)
    assert take(workload, 7, 40) != take(workload, 8, 40)


def test_sweep6_covers_every_branch_inside_the_window():
    ops = take("sweep6", 3, 13 * 9)
    degenerate = [
        op.args for op in ops if op.kind == "classify" and op.args[0].denominator == 1
    ]
    assert len(degenerate) == len(set(degenerate)) == 18
    strata = set()
    for op in ops:
        if op.kind == "coupling":
            strata.add(op.args[0])
            continue
        alpha, beta, window = op.args
        assert window == 6
        if (alpha - beta).denominator == 1:
            n0 = beta - alpha - 1
            # two clear of the window edge, so normalizing alpha changes nothing
            assert abs(n0) <= window - 2 and beta in (0, 1)
            strata.add("degenerate")
        elif beta in (0, 1):
            assert alpha.denominator != 1
            strata.add(f"beta{beta}")
        else:
            strata.add("generic")
    assert strata == {
        "generic",
        "beta0",
        "beta1",
        "degenerate",
        "ExtCaseA",
        "ExtCaseB",
        "DiagonalPair",
    }


def test_wide_points_are_distinct_and_generic():
    ops = take("wide", 1, 12)
    points = [op.args[:2] for op in ops]
    assert len(set(points)) == len(points)
    for alpha, beta in points:
        assert alpha.denominator >= 5 and beta.denominator >= 5
        assert (alpha - beta).denominator != 1
        assert workloads.expected_kinds(alpha, beta) == ["Constant"]


@pytest.mark.parametrize(
    "alpha, beta, kinds",
    [
        (F(1, 4), F(0), ["Constant", "RescaledBeta0"]),  # README example
        (F(2, 3), F(1), ["Constant", "RescaledBeta1"]),
        (F(3), F(0), ["Constant"]),  # integral alpha: no rescaled family
        (F(2, 5), F(-7, 5), ["Constant"]),
        (F(-7, 3), F(2, 3), ["Constant"]),  # degenerate index n0 = 2
    ],
)
def test_expected_kinds_on_pinned_points(alpha, beta, kinds):
    assert workloads.expected_kinds(alpha, beta) == kinds


def test_answer_check_passes_and_catches_a_wrong_expectation(monkeypatch):
    op = workloads.Op("classify", (F(1, 4), F(0), 6))
    workloads.run_op(op)
    monkeypatch.setattr(workloads, "expected_kinds", lambda alpha, beta: ["Constant"])
    with pytest.raises(workloads.WrongAnswer, match="RescaledBeta0"):
        workloads.run_op(op)


def test_depth_one_dimension_rule():
    assert workloads.depth_one_dim((F(0),) * 5) == 2
    assert workloads.depth_one_dim((F(1), F(0), F(0), F(0), F(1))) == 0
    assert workloads.depth_one_dim((F(0), F(0), F(0), F(0), F(1))) == 1


def test_bipartition_counts():
    assert [workloads.bipartitions(d) for d in range(7)] == [1, 2, 5, 10, 20, 36, 65]


def span(id, parent, start, end, name="s"):
    return tracer.Span(id, parent, name, start, end)


def test_self_time_on_a_synthetic_tree():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 3.0),
        span(2, 0, 2.0, 5.0),  # overlaps its sibling: [1, 5] covered once
        span(3, 0, 8.0, 12.0),  # runs past its parent: clipped to [8, 10]
        span(4, 2, 2.5, 4.5),  # grandchild: counts against span 2 only
        span(5, 1, 1.0, 3.0),  # covers all of span 1
    ]
    got = tracer.self_times(spans)
    assert got == pytest.approx({0: 4.0, 1: 0.0, 2: 1.0, 3: 4.0, 4: 2.0, 5: 2.0})


def test_recorder_links_parents_and_totals_add_up():
    rec = tracer.Recorder()
    outer = rec.open("op")
    inner = rec.open("linalg.sparse_nullspace")
    inner.sizes = {"rows": 3, "cols": 2, "rank": 1}
    rec.close(inner)
    rec.close(outer)
    for _ in range(5):
        rec.count("verma.apply")
    spans, counts = rec.drain()
    assert [s.parent for s in spans] == [None, outer.id]
    totals = tracer.op_totals(spans, counts)
    assert totals["calls.linalg.sparse_nullspace"] == 1
    assert totals["size.linalg.sparse_nullspace.rows"] == 3
    assert totals["count.verma.apply"] == 5
    assert totals["self.op"] == pytest.approx(
        totals["time.op"] - totals["time.linalg.sparse_nullspace"]
    )
    assert rec.drain() == ([], {})


def test_guard_fires_on_an_unwrapped_reference():
    original = heisvir.linalg.sparse_nullspace
    holder = types.ModuleType("heisvir._holder")
    holder.table = {"kernel": original}

    def uses_default(kernel=original):
        return kernel

    holder.uses_default = uses_default
    found = tracer.find_unwrapped([original], [holder])
    assert found == [
        "heisvir._holder.table['kernel']",
        "heisvir._holder.uses_default.__defaults__",
    ]


def test_install_wraps_every_namespace_and_removes_cleanly():
    originals = {
        "sparse_nullspace": heisvir.linalg.sparse_nullspace,
        "bracket": heisvir.algebra.bracket,
        "add": heisvir.linalg.SpanBuilder.add,
    }
    rec = tracer.Recorder()
    inst = tracer.Installation(rec).install()
    try:
        assert tracer.find_unwrapped(inst.originals, tracer.heisvir_modules()) == []
        for module in (heisvir.classifier, heisvir.matrix_system, heisvir.verma):
            assert module.sparse_nullspace is heisvir.linalg.sparse_nullspace
        for ns in (heisvir, heisvir.modules, heisvir.verma, heisvir.cli):
            assert ns.bracket is heisvir.algebra.bracket
            assert ns.bracket is not originals["bracket"]
        assert heisvir.classifier.module_defects is heisvir.modules.module_defects
        heisvir.bracket(heisvir.xgen(1), heisvir.xgen(-1))
        spans, _ = rec.drain()
        assert [s.name for s in spans] == ["algebra.bracket"]
    finally:
        inst.remove()
    assert heisvir.linalg.sparse_nullspace is originals["sparse_nullspace"]
    assert heisvir.cli.bracket is originals["bracket"]
    assert heisvir.linalg.SpanBuilder.add is originals["add"]


def test_install_refuses_when_an_original_stays_reachable(monkeypatch):
    holder = types.ModuleType("heisvir._holder")
    holder.kernels = (heisvir.linalg.sparse_nullspace,)
    monkeypatch.setitem(sys.modules, "heisvir._holder", holder)
    with pytest.raises(tracer.UnwrappedReference, match="_holder"):
        tracer.Installation(tracer.Recorder()).install()
    assert heisvir.verma.sparse_nullspace is holder.kernels[0]  # rolled back


def test_layer_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    got = tracer.layer_metrics({"time.op": 1.0}, 1, 0.1)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in got.items()
    }
