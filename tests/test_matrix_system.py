"""The 2x2 matrix-valued constraint system and its coupling obstruction."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from heisvir import (
    DiagonalPair,
    ExtCaseA,
    ExtCaseB,
    IndexOutOfFamily,
    UnsupportedP,
    Vab,
    WindowTooSmall,
    build_matrix_system,
    check_matrix_family,
    constant_matrix_family,
    verify_coupling_obstruction,
    x_blocks,
)
from heisvir.classifier import _backbone
from heisvir.matrix_system import _validate_backbone

from oracles import coupling_verdict_oracle, validate_backbone_oracle

F = Fraction
A = F(1, 3)


def test_only_pair_size_two():
    with pytest.raises(UnsupportedP):
        build_matrix_system(3, DiagonalPair(F(0), F(0)), A, 4)
    with pytest.raises(WindowTooSmall):
        build_matrix_system(2, DiagonalPair(F(0), F(0)), A, 3)


def test_extension_offset_must_match():
    with pytest.raises(ValueError):
        build_matrix_system(2, ExtCaseA(alpha=F(1, 2)), A, 4)


def test_backbone_blocks():
    # a diagonal pair is the direct sum of two Vab strands
    strands = (Vab(A, F(0)), Vab(A, F(2)))
    assert [x_blocks(s, 2, 1) for s in strands] == [
        [(3, ((A + 1,),))],
        [(3, ((A + 5,),))],
    ]
    assert _backbone(strands, 4)[(2, 1)] == ((A + 1, F(0)), (F(0), A + 5))
    # extension backbones come from the module families themselves
    assert x_blocks(ExtCaseA(alpha=A), 2, 1) == [(3, ((A + 1, F(-2)), (F(0), A + 1)))]
    with pytest.raises(IndexOutOfFamily):
        x_blocks(ExtCaseB(alpha=A), 3, 0)


def test_identity_layer_pins_degree_zero():
    m = build_matrix_system(2, DiagonalPair(F(0), F(0)), A, 4)
    # F[0,m] = F * identity: diagonal rows carry the F column, off-diagonal
    # rows are pure unknown rows
    rows = [rel for rel in m.linear if len(rel.terms) == 1 and rel.terms[0][0][0] == 0]
    assert rows
    for rel in rows:
        (j, mm, r, c), coeff = rel.terms[0]
        assert j == 0 and coeff == 1
        assert rel.f_coeff == (-1 if r == c else 0)


def test_constant_scalar_family_checks_out():
    m = build_matrix_system(2, DiagonalPair(F(0), F(2)), A, 4)
    ident = ((F(1), F(0)), (F(0), F(1)))
    assert check_matrix_family(m, lambda j, n: ident, f_value=F(1))
    # wrong sign on one component must be rejected
    bad = ((F(1), F(0)), (F(0), F(-1)))
    assert not check_matrix_family(m, lambda j, n: bad, f_value=F(1))


def test_nilpotent_constant_family():
    # at an integer alpha the I(0) row at m = -alpha reads the family where
    # its formula is 0/0
    for alpha in [A, F(0), F(1), F(-2), F(3)]:
        m = build_matrix_system(2, DiagonalPair(F(0), F(0)), alpha, 4)
        c = ((F(0), F(0)), (F(1), F(0)))
        values = constant_matrix_family(alpha, c)
        assert values(0, 1) == ((F(0), F(0)), (F(0), F(0)))
        assert values(2, 1) == ((F(0), F(0)), (2 * (alpha + 1) / (alpha + 3), F(0)))
        assert check_matrix_family(m, values)
        # a non-nilpotent C breaks the product relations
        full = constant_matrix_family(alpha, ((F(1), F(0)), (F(0), F(1))))
        assert not check_matrix_family(m, full)


def test_obstruction_verdicts():
    md = build_matrix_system(2, DiagonalPair(F(0), F(0)), A, 5)
    assert verify_coupling_obstruction(md) is False
    ma = build_matrix_system(2, ExtCaseA(alpha=A), A, 5)
    assert verify_coupling_obstruction(ma) is True
    mb = build_matrix_system(2, ExtCaseB(alpha=A), A, 5)
    assert verify_coupling_obstruction(mb) is True


def test_adjacent_backbones_admit_linear_coupling():
    # for backbone parameters (b, b+1) the lower-left entry g[j,m] = j solves
    # the whole system with F = 0: the commutator rows reduce to j(j+i) on
    # both sides and the product rows vanish on the square-zero corner
    m = build_matrix_system(2, DiagonalPair(F(2), F(3)), A, 5)
    coupling = lambda j, n: ((F(0), F(0)), (F(j), F(0)))
    assert check_matrix_family(m, coupling, f_value=F(0))
    assert verify_coupling_obstruction(m) is False


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize(
    "fixture, alpha",
    [
        (ExtCaseA(alpha=A), A),
        (ExtCaseA(alpha=F(-7, 5)), F(-7, 5)),
        (ExtCaseB(alpha=A), A),
        (ExtCaseB(alpha=F(4, 5)), F(4, 5)),
        (DiagonalPair(F(0), F(0)), F(9, 5)),
        (DiagonalPair(F(0), F(0)), F(2)),
        (DiagonalPair(F(2), F(3)), F(-1)),
        (DiagonalPair(F(1, 2), F(-2)), A),
    ],
)
def test_coupling_verdict_does_not_depend_on_column_order(fixture, alpha, n):
    system = build_matrix_system(2, fixture, alpha, n)
    assert verify_coupling_obstruction(system) == coupling_verdict_oracle(system)


@pytest.mark.parametrize(
    "strands",
    [(ExtCaseA(alpha=A),), (ExtCaseB(alpha=A),), (Vab(A, F(0)), Vab(A, F(2)))],
    ids=["ExtCaseA", "ExtCaseB", "DiagonalPair"],
)
@pytest.mark.parametrize(
    "key, r, c, zero_out",
    [((1, 0), 1, 0, False), ((2, -1), 0, 1, False), ((-1, 2), 0, 0, True),
     ((0, 1), 1, 1, True), ((-2, -3), 1, 1, False)],
)
def test_perturbed_backbone_raises(strands, key, r, c, zero_out):
    n = 4
    x = _backbone(strands, n)
    _validate_backbone(x, n)
    block = [list(row) for row in x[key]]
    block[r][c] = F(0) if zero_out else block[r][c] + 1
    x[key] = tuple(map(tuple, block))
    with pytest.raises(ValueError) as got:
        _validate_backbone(x, n)
    with pytest.raises(ValueError) as want:
        validate_backbone_oracle(x, n)
    assert str(got.value) == str(want.value)
    i, j, m = map(int, re.search(r"i=(-?\d+), j=(-?\d+), m=(-?\d+)", str(got.value)).groups())
    # the named bracket reads the perturbed block
    assert key in {(i, m + j), (j, m), (j, m + i), (i, m), (i + j, m)}
