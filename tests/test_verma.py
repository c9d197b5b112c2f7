"""Truncated Verma modules: PBW bases, straightening, singular vectors."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from heisvir import (
    HighestWeight,
    PBWMonomial,
    UpperBounded,
    VermaVector,
    apply,
    apply_elem,
    bracket,
    hw_vector,
    i_torsion,
    igen,
    level_basis,
    singular_space,
    support_shape,
    truncation_window,
    verify_singular,
    weight_dims,
    xgen,
)
from heisvir.scalars import random_rational

from oracles import rank_dense

F = Fraction

ZERO_HW = HighestWeight(F(0), F(0), F(0), F(0), F(0))


def hw_of(*vals) -> HighestWeight:
    return HighestWeight(*(F(v) for v in vals))


def test_weight_dims_sequence():
    assert weight_dims(6) == [1, 2, 5, 10, 20, 36, 65]


def test_level_basis_depth_two():
    assert [str(m) for m in level_basis(2)] == [
        "x[-2]",
        "x[-1]x[-1]",
        "x[-1]I[-1]",
        "I[-2]",
        "I[-1]I[-1]",
    ]


def test_monomial_validation():
    PBWMonomial((3, 1, 1), (2,))
    with pytest.raises(ValueError):
        PBWMonomial((1, 3), ())  # parts must be weakly decreasing
    with pytest.raises(ValueError):
        PBWMonomial((0,), ())


def test_monomial_depth():
    assert PBWMonomial((3, 1), (2, 1)).depth == 7
    assert PBWMonomial().depth == 0


def test_apply_depth_one_table():
    lam, lam_i, c_di, c_i = F(2), F(3), F(5), F(7)
    hw = HighestWeight(lam, lam_i, F(0), c_di, c_i)
    v = hw_vector()
    x1 = PBWMonomial((1,), ())
    i1 = PBWMonomial((), (1,))
    assert apply(xgen(1), apply(xgen(-1), v, hw), hw).coeffs == {
        PBWMonomial(): -2 * lam
    }
    assert apply(igen(1), apply(xgen(-1), v, hw), hw).coeffs == {
        PBWMonomial(): -lam_i
    }
    assert apply(xgen(1), apply(igen(-1), v, hw), hw).coeffs == {
        PBWMonomial(): -lam_i + 2 * c_di
    }
    assert apply(igen(1), apply(igen(-1), v, hw), hw).coeffs == {PBWMonomial(): c_i}
    # raising on the highest weight vector itself gives zero
    assert apply(xgen(2), v, hw).is_zero()
    assert apply(igen(3), v, hw).is_zero()
    # and the zero modes read off the weight, shifted down by the depth
    assert apply(xgen(0), apply(xgen(-1), v, hw), hw).coeffs == {x1: lam - 1}
    assert apply(igen(0), apply(igen(-1), v, hw), hw).coeffs == {i1: lam_i}


def test_straightening_consistency_random():
    rng = random.Random(23)
    gens = [xgen(n) for n in range(-3, 4)] + [igen(n) for n in range(-3, 4)]
    for _ in range(6):
        hw = HighestWeight(*(random_rational(rng, span=3, den=3) for _ in range(5)))
        vecs = [hw_vector()]
        for d in (1, 2, 3):
            vecs.append(VermaVector(d, {rng.choice(level_basis(d)): F(1)}))
        for v in vecs:
            for a in gens:
                for b in gens:
                    lhs = apply_elem(bracket(a, b), v, hw)
                    diff = dict(apply(a, apply(b, v, hw), hw).coeffs)
                    for mono, c in apply(b, apply(a, v, hw), hw).coeffs.items():
                        diff[mono] = diff.get(mono, F(0)) - c
                    assert {m: c for m, c in diff.items() if c} == {
                        m: c for m, c in lhs.coeffs.items() if c
                    }


def test_singular_space_zero_weight():
    space = singular_space(ZERO_HW, 1)
    assert len(space) == 2
    found = {str(next(iter(v.coeffs))) for v in space}
    assert found == {"x[-1]", "I[-1]"}
    for v in space:
        assert verify_singular(v, ZERO_HW)


def test_singular_space_generic_weight_is_empty():
    assert singular_space(hw_of(1, 1, 0, 0, 0), 1) == []


def test_singular_space_heisenberg_direction():
    space = singular_space(hw_of(2, 0, 0, 0, 0), 1)
    assert len(space) == 1
    assert list(space[0].coeffs) == [PBWMonomial((), (1,))]
    assert verify_singular(space[0], hw_of(2, 0, 0, 0, 0))


def test_depth_one_criterion_matches_rank():
    rng = random.Random(17)
    for _ in range(25):
        hw = HighestWeight(*(random_rational(rng, span=3, den=4) for _ in range(5)))
        lam, lam_i, _, c_di, c_i = hw.as_tuple()
        mat = [[-2 * lam, -lam_i + 2 * c_di], [-lam_i, c_i]]
        assert len(singular_space(hw, 1)) == 2 - rank_dense(mat)


def test_verify_singular_rejects_non_singular():
    hw = hw_of(1, 0, 0, 0, 0)
    v = VermaVector(1, {PBWMonomial((1,), ()): F(1)})
    assert not verify_singular(v, hw)
    assert verify_singular(VermaVector(1, {}), hw)


def test_singular_depth_three_zero_weight():
    # one vector per I-partition of 3, with x-corrections; the first one is
    # annihilated by x[1] through the cancellations -3+3 and -3/2+3/2, checked
    # by hand against the bracket table
    space = singular_space(ZERO_HW, 3)
    expected = [
        {
            PBWMonomial((), (3,)): F(1),
            PBWMonomial((1,), (2,)): F(3, 4),
            PBWMonomial((1, 1), (1,)): F(1, 4),
        },
        {
            PBWMonomial((), (2, 1)): F(1),
            PBWMonomial((1,), (1, 1)): F(1, 2),
        },
        {PBWMonomial((), (1, 1, 1)): F(1)},
    ]
    assert [v.coeffs for v in space] == expected
    for v in space:
        assert verify_singular(v, ZERO_HW)


def test_truncation_window_shape():
    hw = hw_of("1/2", "1/3", 0, 0, 0)
    tw = truncation_window(hw, 5)
    assert [tw.dim(-k) for k in range(6)] == [1, 2, 5, 10, 20, 36]
    assert all(tw.dim(k) == 0 for k in range(1, 6))
    assert tw.central_scalars == {"CD": F(0), "CDI": F(0), "CI": F(0)}
    assert support_shape(tw.dims) == UpperBounded()


def test_truncation_window_action_consistency():
    hw = hw_of("1/2", "1/3", 1, "2/3", "1/5")
    tw = truncation_window(hw, 4)
    # x[-1] on the depth-1 space, checked against direct straightening
    v = apply(xgen(-1), VermaVector(1, {PBWMonomial((), (1,)): F(1)}), hw)
    blocks = dict((t, b) for t, b in tw.actions[(xgen(-1), -1)])
    col = [row[1] for row in blocks[-2]]
    order = list(level_basis(2))
    expect = [v.coeffs.get(m, F(0)) for m in order]
    assert col == expect


def test_truncation_torsion_contains_highest_weight():
    hw = hw_of("1/2", "1/3", 0, 0, 0)
    tw = truncation_window(hw, 5)
    torsion = i_torsion(tw, 1)
    by_index = dict(zip(tw.indices(), torsion))
    assert by_index[0] == 1
    # joint kernel of the lowering-free I-operators matches the x-only count
    assert by_index[-5] == 7


def test_zero_vector_depth_equality():
    assert VermaVector(2, {}).coeffs == VermaVector(5, {}).coeffs
    assert VermaVector(1, {}).is_zero()
