"""Rational helpers and the sparse exact linear algebra underneath."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from heisvir.linalg import SpanBuilder, sparse_nullspace
from heisvir.scalars import (
    is_integer,
    parse_rational,
    random_noninteger,
    random_rational,
    rat,
    rat_str,
)

from oracles import rank_dense

F = Fraction


def test_rat_str_always_carries_denominator():
    assert rat_str(F(0)) == "0/1"
    assert rat_str(F(-4)) == "-4/1"
    assert rat_str(F(3, 6)) == "1/2"


def test_parse_rational_round_trip():
    for text in ["0/1", "-7/3", "5/1", "2", "-11"]:
        assert rat_str(parse_rational(text)) == rat_str(rat(parse_rational(text)))
    assert parse_rational("3/4") == F(3, 4)
    with pytest.raises(ValueError):
        parse_rational("three")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_is_integer():
    assert is_integer(F(4)) and is_integer(F(-12, 4))
    assert not is_integer(F(1, 2))


def test_random_noninteger_avoids_integers():
    rng = random.Random(0)
    assert all(not is_integer(random_noninteger(rng)) for _ in range(50))
    assert all(abs(random_rational(rng, span=2)) <= 2 for _ in range(50))


def test_sparse_nullspace_known_kernel():
    # x + y = 0 over columns (x, y, z): kernel is span{(1,-1,0), (0,0,1)}
    rows = [{"x": F(1), "y": F(1)}]
    basis = sparse_nullspace(rows, ["x", "y", "z"])
    assert len(basis) == 2
    for vec in basis:
        assert vec.get("x", F(0)) + vec.get("y", F(0)) == 0


def test_sparse_nullspace_verified_random():
    rng = random.Random(9)
    cols = list(range(6))
    rows = [
        {c: F(rng.randrange(-3, 4)) for c in rng.sample(cols, 3)} for _ in range(4)
    ]
    basis = sparse_nullspace(rows, cols)
    for vec in basis:
        for row in rows:
            assert sum(coeff * vec.get(c, F(0)) for c, coeff in row.items()) == 0
    # rank-nullity on the dense copy of the same system
    dense = [[row.get(c, F(0)) for c in cols] for row in rows]
    assert len(basis) == len(cols) - rank_dense(dense)


def test_span_builder():
    sb = SpanBuilder()
    assert sb.add({0: F(1), 1: F(2)})
    assert not sb.add({0: F(2), 1: F(4)})
    assert sb.add({1: F(1)})
    assert sb.dim == 2


def test_rank_dense():
    assert rank_dense([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank_dense([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert rank_dense([]) == 0
