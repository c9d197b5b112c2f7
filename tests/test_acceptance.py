"""Acceptance gate: ten checks, one visible PASS/FAIL line each.

Every check is exact; the elapsed-time bounds are part of the acceptance.
Randomness is seeded, so the whole module is deterministic.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from heisvir import (
    CD,
    DiagonalPair,
    ExtCaseA,
    ExtCaseB,
    HighestWeight,
    IntermediateParams,
    LieElement,
    UniformlyBounded,
    UpperBounded,
    basis_window,
    bracket,
    build_matrix_system,
    build_window,
    check_matrix_family,
    constant_matrix_family,
    eliminated_quadratic,
    i_torsion,
    irreducibility_oracle,
    is_reducible,
    jacobiator,
    materialize_family,
    module_defects,
    quadratic_obstruction,
    rescale_window,
    singular_space,
    solve_scalar,
    support_shape,
    truncation_window,
    verify_coupling_obstruction,
    verify_singular,
    vir_embed,
    weight_dims,
    windows_equal,
)
from heisvir.scalars import is_integer, random_noninteger, random_rational

from oracles import rank_dense

F = Fraction


def report(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def generic_beta(rng: random.Random, alpha: Fraction) -> Fraction:
    while True:
        b = random_rational(rng, span=3, den=5)
        if b not in (0, F(1, 2), 1) and not is_integer(alpha - b):
            return b


def test_criterion_01_bracket_axioms(capsys):
    t0 = time.time()
    gens = basis_window(8)
    bad = sum(
        1 for a in gens for b in gens if not (bracket(a, b) + bracket(b, a)).is_zero()
    )
    bad += sum(
        1
        for a in gens
        for b in gens
        for c in gens
        if not jacobiator(a, b, c).is_zero()
    )
    dt = time.time() - t0
    ok = bad == 0 and dt < 10
    report(
        capsys,
        "criterion-01 bracket axioms",
        ok,
        f"{len(gens) ** 3} Jacobi triples, {bad} defects, {dt:.1f}s",
    )


def test_criterion_02_virasoro_embedding(capsys):
    t0 = time.time()
    rng = random.Random(101)
    bad = 0
    for _ in range(20):
        e = random_rational(rng)
        for n in range(-8, 9):
            for m in range(-8, 9):
                rhs = vir_embed(e, n + m).scale(F(m - n))
                if n + m == 0:
                    rhs = rhs + LieElement.from_gen(CD, F(n**3 - n, 12))
                if bracket(vir_embed(e, n), vir_embed(e, m)) != rhs:
                    bad += 1
    dt = time.time() - t0
    ok = bad == 0 and dt < 5
    report(
        capsys,
        "criterion-02 Virasoro embedding closure",
        ok,
        f"20 parameters, {bad} defects, {dt:.1f}s",
    )


def test_criterion_03_dense_module_axioms(capsys):
    t0 = time.time()
    rng = random.Random(103)
    total = 0
    for _ in range(50):
        p = IntermediateParams(
            random_rational(rng), random_rational(rng), random_rational(rng)
        )
        total += len(module_defects(build_window(p, 11), 5))
    dt = time.time() - t0
    ok = total == 0 and dt < 10
    report(
        capsys,
        "criterion-03 dense module axioms",
        ok,
        f"50 parameter tuples, degree bound 5, {total} defects, {dt:.1f}s",
    )


def test_criterion_04_reducibility_grid(capsys):
    t0 = time.time()
    disagree = 0
    points = 0
    for a in [F(0), F(1), F(-1), F(1, 2), F(1, 3)]:
        for b in [F(0), F(1), F(2), F(1, 2)]:
            for f in [F(0), F(1)]:
                points += 1
                p = IntermediateParams(a, b, f)
                expected = f == 0 and is_integer(a) and b in (0, 1)
                if is_reducible(p) != expected:
                    disagree += 1
                if is_reducible(p) == irreducibility_oracle(build_window(p, 8)):
                    disagree += 1
    dt = time.time() - t0
    ok = disagree == 0 and dt < 30
    report(
        capsys,
        "criterion-04 reducibility grid vs oracle",
        ok,
        f"{points} grid points, {disagree} disagreements, {dt:.1f}s",
    )


def test_criterion_05_solution_families(capsys):
    t0 = time.time()
    rng = random.Random(105)
    bad = []
    for _ in range(10):
        a = random_noninteger(rng, span=3, den=5)
        b = generic_beta(rng, a)
        kinds = [fam.kind for fam in solve_scalar(a, b, 6)]
        if kinds != ["Constant"]:
            bad.append((a, b, kinds))
    f = F(2, 3)
    for beta, kind, swapped in [
        (F(0), "RescaledBeta0", F(1)),
        (F(1), "RescaledBeta1", F(0)),
    ]:
        a = random_noninteger(rng, span=3, den=5)
        fams = solve_scalar(a, beta, 6)
        if [fam.kind for fam in fams] != ["Constant", kind]:
            bad.append((a, beta, [fam.kind for fam in fams]))
            continue
        w = materialize_family(a, beta, fams[1], f, 6)
        scale = (lambda k: a + k) if beta == 0 else (lambda k: 1 / (a + k))
        target = build_window(IntermediateParams(a, swapped, f), 6)
        if not windows_equal(rescale_window(w, scale), target):
            bad.append((a, beta, "rescaled window mismatch"))
    dt = time.time() - t0
    ok = not bad and dt < 30
    report(
        capsys,
        "criterion-05 solution families",
        ok,
        f"10 generic + 2 rescaled offsets, failures {bad!r}, {dt:.1f}s",
    )


def test_criterion_06_elimination_quadratic(capsys):
    t0 = time.time()
    rng = random.Random(106)
    bad = 0
    for _ in range(10):
        a, b = random_rational(rng), random_rational(rng)
        m = rng.randrange(-4, 5)
        if eliminated_quadratic(a, b, m) != quadratic_obstruction(a, b, m):
            bad += 1
    dt = time.time() - t0
    ok = bad == 0 and dt < 5
    report(
        capsys,
        "criterion-06 elimination reproduces quadratic",
        ok,
        f"10 random points, {bad} mismatches, {dt:.1f}s",
    )


def test_criterion_07_coupling_obstruction(capsys):
    t0 = time.time()
    rng = random.Random(107)
    bad = []
    for _ in range(5):
        a = random_noninteger(rng, span=3, den=5)
        for fixture in (ExtCaseA(alpha=a), ExtCaseB(alpha=a)):
            m = build_matrix_system(2, fixture, a, 6)
            if verify_coupling_obstruction(m) is not True:
                bad.append((type(fixture).__name__, a))
    alpha = random_noninteger(rng, span=3, den=5)
    md = build_matrix_system(2, DiagonalPair(F(0), F(0)), alpha, 6)
    if verify_coupling_obstruction(md) is not False:
        bad.append(("DiagonalPair", alpha))
    nil = ((F(0), F(0)), (F(1), F(0)))
    if not check_matrix_family(md, constant_matrix_family(alpha, nil)):
        bad.append(("nilpotent family", alpha))
    dt = time.time() - t0
    ok = not bad and dt < 60
    report(
        capsys,
        "criterion-07 coupling obstruction",
        ok,
        f"5 extension offsets plus diagonal counterexample, failures {bad!r}, {dt:.1f}s",
    )


def test_criterion_08_verma_dimensions(capsys):
    t0 = time.time()
    # independent enumeration: convolution of the partition function with
    # itself, using a fresh Euler-style recurrence
    p = [1] + [0] * 6
    for part in range(1, 7):
        for total in range(part, 7):
            p[total] += p[total - part]
    expected = [sum(p[k] * p[d - k] for k in range(d + 1)) for d in range(7)]
    got = weight_dims(6)
    dt = time.time() - t0
    ok = got == expected == [1, 2, 5, 10, 20, 36, 65] and dt < 1
    report(
        capsys,
        "criterion-08 Verma weight dimensions",
        ok,
        f"depths 0..6 = {got}, {dt:.2f}s",
    )


def test_criterion_09_depth_one_singular(capsys):
    t0 = time.time()
    rng = random.Random(109)
    bad = 0
    for _ in range(50):
        hw = HighestWeight(*(random_rational(rng, span=3, den=4) for _ in range(5)))
        lam, lam_i, _, c_di, c_i = hw.as_tuple()
        mat = [[-2 * lam, -lam_i + 2 * c_di], [-lam_i, c_i]]
        space = singular_space(hw, 1)
        if len(space) != 2 - rank_dense(mat):
            bad += 1
        if not all(verify_singular(v, hw) for v in space):
            bad += 1
    dt = time.time() - t0
    ok = bad == 0 and dt < 5
    report(
        capsys,
        "criterion-09 depth-one singular criterion",
        ok,
        f"50 highest weights, {bad} failures, {dt:.1f}s",
    )


def test_criterion_10_support_diagnostics(capsys):
    t0 = time.time()
    bad = []
    w = build_window(IntermediateParams(F(1, 2), F(1, 3), F(2, 5)), 6)
    if support_shape(w.dims) != UniformlyBounded(1):
        bad.append("dense window shape")
    hw = HighestWeight(F(1, 2), F(1, 3), F(0), F(0), F(0))
    tw = truncation_window(hw, 6)
    if support_shape(tw.dims) != UpperBounded():
        bad.append("truncation shape")
    torsion = dict(zip(tw.indices(), i_torsion(tw, 1)))
    if torsion[0] != 1:
        bad.append("highest weight vector not I-torsion")
    dt = time.time() - t0
    ok = not bad and dt < 1
    report(
        capsys,
        "criterion-10 support and torsion diagnostics",
        ok,
        f"failures {bad!r}, {dt:.2f}s",
    )
