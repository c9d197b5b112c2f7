"""Constraint systems, elimination, solution families, and diagnostics."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisvir import (
    IntermediateParams,
    LowerBounded,
    UnboundedBothSides,
    UnclassifiedBranch,
    UniformlyBounded,
    UpperBounded,
    WindowTooSmall,
    build_scalar_system,
    build_window,
    eliminate_j1,
    eliminated_quadratic,
    i_torsion,
    irreducibility_oracle,
    materialize_family,
    module_defects,
    quadratic_obstruction,
    rescale_window,
    solve_scalar,
    solve_system,
    support_shape,
    windows_equal,
)
from heisvir.classifier import SolutionFamily, check_family
from heisvir.scalars import random_rational
from heisvir.verma import HighestWeight, truncation_window

F = Fraction


# ---------------------------------------------------------------------------
# system construction


def test_system_window_floor():
    with pytest.raises(WindowTooSmall):
        build_scalar_system(F(1, 3), F(0), 3, False)
    with pytest.raises(WindowTooSmall):
        solve_scalar(F(1, 3), F(0), 5)


def test_punctured_requires_integer_offset():
    with pytest.raises(ValueError):
        build_scalar_system(F(1, 2), F(0), 6, True)


def test_punctured_normalizes_parameters():
    s = build_scalar_system(F(3), F(7, 2), 6, True)
    assert s.alpha == 0 and s.beta == 0
    assert all(m != 0 and m + i != 0 for i, m in s.unknowns)


def test_dense_unknown_grid():
    s = build_scalar_system(F(1, 3), F(0), 4, False)
    assert (0, 0) in s.unknowns and (4, -4) in s.unknowns
    assert len(s.unknowns) == 9 * 9
    assert not s.punctured


# ---------------------------------------------------------------------------
# elimination through the j = 1 column


def test_elimination_expresses_degree_three():
    s = build_scalar_system(F(1, 4), F(0), 6, False)
    el = eliminate_j1(s)
    # F[3,-1] = (alpha+n+1) F1[-1] - (alpha+n) F1[1] at beta = 0
    assert dict(el.exprs[(3, -1)].f1) == {-1: F(1, 4), 1: F(3, 4)}
    assert el.exprs[(3, -1)].f == 0


def test_elimination_constant_solution():
    s = build_scalar_system(F(2, 5), F(3), 6, False)
    el = eliminate_j1(s)
    # plugging F1 == F into any expressed unknown must return F itself
    for expr in el.exprs.values():
        assert sum(c for _, c in expr.f1) + expr.f == 1
    # and the side recurrences are satisfied identically
    for rel in el.side:
        assert sum(c for _, c in rel.f1) + rel.f == 0


def test_elimination_zero_row_matches_side():
    a, b = F(1, 4), F(2)
    el = eliminate_j1(build_scalar_system(a, b, 6, False))
    for (i, n), expr in el.exprs.items():
        if i != 0:
            continue
        # the i = 0 expression must be the side recurrence ending at n
        coeffs = dict(expr.f1)
        assert coeffs[n] == a - b + n + 1
        assert coeffs[n - 1] == -(a - b + n)


def test_elimination_degree_two_row():
    a, b = F(-1, 3), F(5, 2)
    el = eliminate_j1(build_scalar_system(a, b, 6, False))
    assert dict(el.exprs[(2, 1)].f1) == {1: a + b + 2, 2: -(a + b + 1)}


def test_elimination_rejects_punctured():
    with pytest.raises(ValueError):
        eliminate_j1(build_scalar_system(F(0), F(0), 6, True))


# ---------------------------------------------------------------------------
# quadratic obstruction


def test_quadratic_roots_pinned():
    q = quadratic_obstruction(F(1, 4), F(0), 0)
    assert q.roots_as_f_multiples() == [F(1, 5), F(1)]


def test_quadratic_always_has_unit_root():
    rng = random.Random(31)
    for _ in range(25):
        a, b = random_rational(rng), random_rational(rng)
        m = rng.randrange(-5, 6)
        q = quadratic_obstruction(a, b, m)
        roots = q.roots_as_f_multiples()
        assert F(1) in roots or q.c2 == 0


def test_elimination_reproduces_obstruction():
    rng = random.Random(13)
    for _ in range(10):
        a, b = random_rational(rng), random_rational(rng)
        m = rng.randrange(-4, 5)
        assert eliminated_quadratic(a, b, m) == quadratic_obstruction(a, b, m)


# ---------------------------------------------------------------------------
# solution families


def kinds(fams):
    return [f.kind for f in fams]


def test_generic_offset_only_constant():
    fams = solve_scalar(F(1, 3), F(2), 6)
    assert kinds(fams) == ["Constant"]
    assert fams[0].c_i == 0 and fams[0].c_di == 0
    assert not fams[0].f_zero_reducible


def test_beta_zero_adds_rescaled_family():
    fams = solve_scalar(F(1, 4), F(0), 6)
    assert kinds(fams) == ["Constant", "RescaledBeta0"]
    resc = fams[1]
    a = F(1, 4)
    assert resc.closed_form(2, 1) == (a + 1) / (a + 3)


def test_beta_one_adds_dual_rescaled_family():
    fams = solve_scalar(F(1, 4), F(1), 6)
    assert kinds(fams) == ["Constant", "RescaledBeta1"]
    a = F(1, 4)
    assert fams[1].closed_form(2, 1) == (a + 3) / (a + 1)


def test_half_beta_collapses_to_constant():
    for a in [F(1, 2), F(1, 5), F(-7, 5), F(0), F(2, 3)]:
        assert kinds(solve_scalar(a, F(1, 2), 6)) == ["Constant"]


def test_integer_offsets_mark_f_zero_reducible():
    for a, b in [(F(0), F(0)), (F(-2), F(1)), (F(3), F(0))]:
        fams = solve_scalar(a, b, 6)
        assert kinds(fams) == ["Constant"]
        assert fams[0].f_zero_reducible


_small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@settings(max_examples=10, deadline=None)
@given(
    _small_fractions,
    st.one_of(st.sampled_from([F(0), F(1), F(1, 2)]), _small_fractions),
)
def test_family_kinds_do_not_depend_on_window(alpha, beta):
    # generic: alpha - beta is not an integer, so there is no degenerate index
    if (alpha - beta).denominator == 1:
        alpha += F(1, 2)

    def summary(n):
        return [(f.kind, f.c_i, f.c_di, f.f_zero_reducible) for f in solve_scalar(alpha, beta, n)]

    assert summary(6) == summary(8)


def test_degenerate_index_outside_core_raises():
    with pytest.raises(WindowTooSmall):
        solve_scalar(F(9), F(0), 6)
    # the same offset clears once the window actually contains the break
    assert kinds(solve_scalar(F(9), F(0), 12)) == ["Constant"]


def test_families_survive_plug_back():
    s = build_scalar_system(F(1, 4), F(0), 6, False)
    for fam in solve_system(s):
        assert check_family(s, fam)
    fake = SolutionFamily("Constant", F(0), F(0), lambda i, n: F(2), False)
    assert not check_family(s, fake)


def test_punctured_solution_is_all_zero():
    fams = solve_system(build_scalar_system(F(0), F(0), 6, True))
    assert kinds(fams) == ["AllZero"]
    assert fams[0].closed_form(2, 1) == 0


def test_materialized_families_are_modules():
    a = F(1, 4)
    for b in [F(0), F(1), F(2)]:
        for fam in solve_scalar(a, b, 6):
            w = materialize_family(a, b, fam, F(2, 3), 6)
            assert module_defects(w, 2) == []


@settings(max_examples=6, deadline=None)
@given(
    _small_fractions.filter(lambda a: a.denominator != 1),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
)
def test_rescaled_window_is_swapped_backbone(a, f):
    resc0 = [x for x in solve_scalar(a, F(0), 6) if x.kind == "RescaledBeta0"][0]
    w0 = rescale_window(materialize_family(a, F(0), resc0, f, 6), lambda k: a + k)
    assert windows_equal(w0, build_window(IntermediateParams(a, F(1), f), 6))

    resc1 = [x for x in solve_scalar(a, F(1), 6) if x.kind == "RescaledBeta1"][0]
    w1 = rescale_window(
        materialize_family(a, F(1), resc1, f, 6), lambda k: 1 / (a + k)
    )
    assert windows_equal(w1, build_window(IntermediateParams(a, F(0), f), 6))


# ---------------------------------------------------------------------------
# irreducibility oracle and support diagnostics


def test_oracle_window_floor():
    w = build_window(IntermediateParams(F(1, 2), F(1, 3), F(2, 5)), 6)
    with pytest.raises(ValueError):
        irreducibility_oracle(w)


def test_oracle_verdicts():
    assert irreducibility_oracle(
        build_window(IntermediateParams(F(1, 2), F(1, 3), F(2, 5)), 8)
    )
    assert not irreducibility_oracle(
        build_window(IntermediateParams(F(0), F(0), F(0)), 8)
    )


def test_i_torsion_free_and_full():
    free = build_window(IntermediateParams(F(1, 2), F(1, 3), F(2, 5)), 6)
    assert i_torsion(free, 1) == [0] * 13
    torsive = build_window(IntermediateParams(F(1, 2), F(1, 3), F(0)), 6)
    assert i_torsion(torsive, 1) == [1] * 13
    with pytest.raises(ValueError):
        i_torsion(free, -1)


def test_support_shapes():
    assert support_shape({k: 1 for k in range(-4, 5)}) == UniformlyBounded(1)
    assert support_shape({-2: 7, -1: 3, 0: 2, 1: 2, 2: 2}) == UniformlyBounded(7)
    hw = HighestWeight(F(1, 2), F(1, 3), F(0), F(0), F(0))
    assert support_shape(truncation_window(hw, 6).dims) == UpperBounded()
    assert support_shape({-2: 0, -1: 0, 0: 1, 1: 3, 2: 7}) == LowerBounded()
    assert support_shape({-2: 5, -1: 3, 0: 1, 1: 3, 2: 5}) == UnboundedBothSides()


def test_support_shape_validation():
    with pytest.raises(ValueError):
        support_shape({0: 1, 1: 1})
    with pytest.raises(ValueError):
        support_shape({0: 1, 2: 1, 4: 1})
