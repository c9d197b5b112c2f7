"""The 2x2 matrix-valued constraint system and its coupling obstruction."""

from __future__ import annotations

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
    m = build_matrix_system(2, DiagonalPair(F(0), F(0)), A, 4)
    c = ((F(0), F(0)), (F(1), F(0)))
    values = constant_matrix_family(A, c)
    assert values(0, 1) == ((F(0), F(0)), (F(0), F(0)))
    assert values(2, 1) == ((F(0), F(0)), (2 * (A + 1) / (A + 3), F(0)))
    assert check_matrix_family(m, values)
    # a non-nilpotent C breaks the product relations
    full = constant_matrix_family(A, ((F(1), F(0)), (F(0), F(1))))
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
