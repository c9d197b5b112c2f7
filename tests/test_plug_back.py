"""Differential tests of the one row evaluator and the one form restriction.

``check_family`` and ``check_matrix_family`` both go through
``classifier._plug_back``; the dense line cut, the central-charge check and
the punctured pruning all go through ``classifier._restrict``.  Each is
compared with the loop it replaced, kept in ``oracles``.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisvir import (
    DiagonalPair,
    ExtCaseA,
    ExtCaseB,
    UnclassifiedBranch,
    WindowTooSmall,
    build_matrix_system,
    build_scalar_system,
    check_matrix_family,
    constant_matrix_family,
    solve_system,
)
from heisvir.classifier import (
    _CDI_COL,
    _F_COL,
    SolutionFamily,
    _linear_rows,
    _restrict,
    check_family,
)
from heisvir.linalg import sparse_nullspace
from oracles import check_family_oracle, check_matrix_family_oracle, form_on_oracle

F = Fraction

_fifths = st.integers(-15, 15).map(lambda k: F(k, 5))
_small = st.sampled_from([F(0), F(0), F(1), F(-1), F(1, 2), F(-3, 5)])
_mostly_zero = st.one_of(st.just(F(0)), _small)
# the lower-left unit matrix makes the constant family a solution at slopes (0, 0)
_NIL = ((F(0), F(0)), (F(1), F(0)))

# checked in place of the solver's families where the window cannot decide
_CONSTANT = SolutionFamily("Constant", F(0), F(0), lambda i, m: F(1))


@cache
def _scalar_system(alpha, beta, n, punctured):
    return build_scalar_system(alpha, beta, n, punctured)


@st.composite
def scalar_points(draw):
    n = draw(st.integers(4, 6))
    if draw(st.booleans()):
        return F(draw(st.integers(-3, 3))), F(0), n, True
    beta = draw(st.one_of(st.sampled_from([F(0), F(1)]), _fifths))
    return draw(_fifths), beta, n, False


def _bumped(fam: SolutionFamily, key: tuple[int, int]) -> SolutionFamily:
    phi = fam.closed_form
    return replace(
        fam, closed_form=lambda i, m: phi(i, m) + (F(1) if (i, m) == key else F(0))
    )


@settings(max_examples=20, deadline=None)
@given(scalar_points(), st.data())
def test_check_family_matches_oracle(point, data):
    s = _scalar_system(*point)
    try:
        families = solve_system(s)
    except (WindowTooSmall, UnclassifiedBranch):
        families = [_CONSTANT]
    for fam in families:
        key = data.draw(st.sampled_from(s.unknowns))
        for candidate in (fam, _bumped(fam, key)):
            assert check_family(s, candidate) == check_family_oracle(s, candidate)


@cache
def _matrix_system(fixture, alpha):
    return build_matrix_system(2, fixture, alpha, 4)


@st.composite
def matrix_points(draw):
    kind = draw(st.sampled_from(["diagonal", "A", "B"]))
    if kind == "diagonal":
        alpha = draw(st.one_of(st.integers(-3, 3).map(F), _fifths))
        return DiagonalPair(draw(_mostly_zero), draw(_mostly_zero)), alpha
    alpha = draw(_fifths.filter(lambda a: a.denominator != 1))
    return (ExtCaseA if kind == "A" else ExtCaseB)(alpha), alpha


@settings(max_examples=20, deadline=None)
@given(
    matrix_points(),
    st.one_of(
        st.just(_NIL), st.tuples(st.tuples(_small, _small), st.tuples(_small, _small))
    ),
    _mostly_zero,
    _mostly_zero,
    _mostly_zero,
)
def test_check_matrix_family_matches_oracle(point, c_matrix, f_value, c_di, c_i):
    fixture, alpha = point
    system = _matrix_system(fixture, alpha)
    values = constant_matrix_family(alpha, c_matrix)
    assert check_matrix_family(
        system, values, f_value, c_di, c_i
    ) == check_matrix_family_oracle(system, values, f_value, c_di, c_i)


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("alpha, beta", [(F(1, 4), F(0)), (F(0), F(1))])
def test_restrict_matches_form_on(alpha, beta, n):
    s = build_scalar_system(alpha, beta, n, False)
    cols = list(s.unknowns) + [_F_COL, _CDI_COL]
    b1, b2 = sparse_nullspace(_linear_rows(s.linear), cols)
    for rel in s.quadratic:
        form = _restrict(rel, {0: b1, 1: b2})
        q = tuple(form.get(pq, F(0)) for pq in ((0, 0), (0, 1), (1, 1)))
        assert q == form_on_oracle(rel, b1, b2)
        assert set(form) <= {(0, 0), (0, 1), (1, 1)}
