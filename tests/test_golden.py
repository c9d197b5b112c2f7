"""Golden digests of the relation systems handed to the solvers, and of the
solver's output over a grid of points.

Each digest hashes the unknowns, the linear rows in order and the quadratic
rows in order.  Linear rows are hashed exactly as built, because they are the
input of the exact elimination and fix its pivot order.  A quadratic row is
hashed up to its overall sign, which only says on which side of the bracket
the products were written: each product's key pair is sorted, the products
are sorted, and the row is negated when its first coefficient is negative.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from heisvir import (
    DiagonalPair,
    ExtCaseA,
    ExtCaseB,
    build_matrix_system,
    build_scalar_system,
)
from heisvir.cli import _sweep_point

F = Fraction


def _num(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _quadratic_row(rel) -> list:
    products = sorted((tuple(sorted((u, v))), c) for u, v, c in rel.products)
    sign = -1 if products and products[0][1] < 0 else 1
    return [
        [[list(u), list(v), _num(sign * c)] for (u, v), c in products],
        _num(sign * rel.ci_coeff),
    ]


def digest(system) -> str:
    doc = [
        [list(key) for key in system.unknowns],
        [
            [
                [[list(key), _num(c)] for key, c in rel.terms],
                _num(rel.f_coeff),
                _num(rel.cdi_coeff),
            ]
            for rel in system.linear
        ],
        [_quadratic_row(rel) for rel in system.quadratic],
    ]
    text = json.dumps(doc, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


SCALAR = {
    (F(2, 5), F(-7, 5), 6, False):
        "252b8a7de138b03fb1a6db79002061d20d8ace6a6d9c36b44da9d5101d74d38a",
    (F(0), F(0), 6, False):
        "efc397fde7013bcda6479a8c4aead5b9292f174bcc16fac60c48a6b951793a3e",
    (F(0), F(0), 6, True):
        "13b91f3766a94b721a703a6e975e25ea964c5204c13b52abe6ee8cfbb966bac3",
}

THIRD = F(1, 3)
MATRIX = {
    (DiagonalPair(F(0), F(0)), THIRD):
        "8f6800b83990f79438018329e2316e4b17458f940a340209d4ea40815bb8d51a",
    (DiagonalPair(F(2), F(3)), THIRD):
        "a01c08743fd491062365a148d4074223e1c086cf109aacc0d13d698e538b7930",
    # alpha = 1 puts a zero weight at index -1, which the relations skip
    (DiagonalPair(F(0), F(0)), F(1)):
        "48410ccde0b93948248ca05cd7e3127907b99db75345ba367b8a6df19ed02cf3",
    (ExtCaseA(THIRD), THIRD):
        "83001872fe8d557fa7b01dd0a7b5e53d9d5fa4c5a4af27b0adb5bbe33655d4b2",
    (ExtCaseB(THIRD), THIRD):
        "b2082bc2349855b527eb158f932dc9dc2201dd9a39b36e853940753191e60c31",
}


@pytest.mark.parametrize("args", list(SCALAR), ids=str)
def test_scalar_system_digest(args):
    assert digest(build_scalar_system(*args)) == SCALAR[args]


@pytest.mark.parametrize("args", list(MATRIX), ids=str)
def test_matrix_system_digest(args):
    fixture, alpha = args
    assert digest(build_matrix_system(2, fixture, alpha, 5)) == MATRIX[args]


# 40 window-6 points covering all four dense-solver branches, the degenerate
# discharge and the window-too-small error at alpha = 9
SWEEP_ALPHAS = ["2/5", "-7/5", "1/4", "0", "3", "-2", "9", "1/2"]
SWEEP_BETAS = ["0", "1", "-7/5", "1/2", "2"]
SWEEP = "c10fbfe71570a94b8f5f78d8e96f610b12b72345ae58b0ca6ad3612cfceabb6b"


def test_sweep_output_digest():
    lines = [
        _sweep_point({"alpha": a, "beta": b}, 6)[1]
        for a in SWEEP_ALPHAS
        for b in SWEEP_BETAS
    ]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SWEEP
