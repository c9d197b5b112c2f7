"""Rank-two scalar systems: I-action blocks over a paired x-backbone.

When every weight space has dimension two, the I(j) actions become 2x2 blocks
F[j, n] and the x-action blocks A[i, n] come from a fixture: either a
decoupled diagonal pair, or one of the two indecomposable extension families
whose upper-right coupling obstructs a joint diagonalization.  The bracket
relations instantiate to entrywise linear rows (mixed brackets plus the I(0)
normalization) and quadratic rows ([I, I]), in the same shape the rank-one
engine uses.  The interesting question at this rank is whether any solution
couples the two strands, i.e. whether a lower-left entry can survive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .classifier import (
    LinearRelation,
    QuadraticRelation,
    WindowTooSmall,
    _CDI_COL,
    _F_COL,
    _backbone,
    _linear_rows,
    _relation_layers,
)
from .linalg import sparse_nullspace
from .modules import Block, ExtCaseA, ExtCaseB, Vab
from .scalars import is_integer, rat

_ZERO = Fraction(0)


class UnsupportedP(Exception):
    """Only weight multiplicity two is mechanized."""


@dataclass(frozen=True, slots=True)
class DiagonalPair:
    """Two independent rank-one strands with slopes beta1 and beta2."""

    beta1: Fraction
    beta2: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta1", rat(self.beta1))
        object.__setattr__(self, "beta2", rat(self.beta2))


MatrixFixture = Union[DiagonalPair, ExtCaseA, ExtCaseB]


def _validate_backbone(x: dict[tuple[int, int], Block], n: int) -> None:
    """Check [x_i, x_j] = (j - i) x_{i+j} blockwise for every defined degree."""
    degs = sorted({i for i, _ in x})
    for i in degs:
        for j in degs:
            if (i + j, 0) not in x:
                continue
            for m in range(-n, n + 1):
                ai_after, aj_first = x[(i, m + j)], x[(j, m)]
                aj_after, ai_first = x[(j, m + i)], x[(i, m)]
                target = x[(i + j, m)]
                for r in range(2):
                    for c in range(2):
                        lhs = sum(
                            ai_after[r][k] * aj_first[k][c]
                            - aj_after[r][k] * ai_first[k][c]
                            for k in range(2)
                        )
                        if lhs != (j - i) * target[r][c]:
                            raise ValueError(
                                f"fixture blocks break the x-bracket at i={i}, j={j}, m={m}"
                            )


@dataclass(frozen=True)
class MatrixSystem:
    p: int
    alpha: Fraction
    fixture: MatrixFixture
    window: int
    unknowns: tuple[tuple[int, int, int, int], ...]
    linear: tuple[LinearRelation, ...]
    quadratic: tuple[QuadraticRelation, ...]


def build_matrix_system(
    p: int, fixture: MatrixFixture, alpha: Fraction, n: int
) -> MatrixSystem:
    """Instantiate the multiplicity-two relations on the window [-n, n].

    Unknown keys are (j, m, r, c): the (r, c) entry of the block of I(j) out
    of weight index m, columns indexing the source basis vector.  Relations
    are kept only where the four backbone coefficients alpha+m, alpha+m+i,
    alpha+m+j, alpha+m+i+j are nonzero, matching where the derivation is
    valid; for the extension fixtures alpha is non-integral and the filter is
    vacuous.
    """
    if p != 2:
        raise UnsupportedP(f"multiplicity {p} is not mechanized")
    if n < 4:
        raise WindowTooSmall("matrix relations need a half-width of at least 4")
    alpha = rat(alpha)
    if isinstance(fixture, (ExtCaseA, ExtCaseB)) and fixture.alpha != alpha:
        raise ValueError("fixture offset disagrees with the requested alpha")
    if isinstance(fixture, DiagonalPair):
        strands = (Vab(alpha, fixture.beta1), Vab(alpha, fixture.beta2))
    else:
        strands = (fixture,)
    x = _backbone(strands, n)
    _validate_backbone(x, n)
    hole = -int(alpha) if is_integer(alpha) else None
    unknowns, linear, quadratic = _relation_layers(x, n, hole)
    return MatrixSystem(p, alpha, fixture, n, unknowns, linear, quadratic)


def verify_coupling_obstruction(system: MatrixSystem) -> bool:
    """Do the window relations force every lower-left I-block entry to zero?

    The first-column entries (f, g) = (F[j,m](0,0), F[j,m](1,0)) form a
    closed linear subsystem because the backbone blocks are upper triangular.
    Its nullspace is computed exactly; the verdict looks only at g-entries on
    the margin-2 inner window, where truncation cannot manufacture freedom.
    """
    rows = _linear_rows(
        rel for rel in system.linear if all(key[3] == 0 for key, _ in rel.terms)
    )
    cols: list = [key for key in system.unknowns if key[3] == 0]
    basis = sparse_nullspace(rows, cols + [_F_COL, _CDI_COL])
    n = system.window
    for vec in basis:
        for key, val in vec.items():
            if key in (_F_COL, _CDI_COL) or not val:
                continue
            j, m, r, _c = key
            if r == 1 and abs(j) <= n - 2 and abs(m) <= n - 2:
                return False
    return True


def constant_matrix_family(
    alpha: Fraction, c_matrix: Block
) -> Callable[[int, int], Block]:
    """The surviving coupled family over a decoupled slope-zero backbone.

    F[j, m] = ((alpha+1) j / (alpha+m+j)) * C with C = F[1, 0].  It solves
    the linear layer with F = 0 and both exotic charges zero; the quadratic
    layer additionally needs C * C = 0, which the lower-left unit matrix
    satisfies.
    """
    alpha = rat(alpha)

    def values(j: int, m: int) -> Block:
        scale = (alpha + 1) * j / (alpha + m + j)
        return tuple(
            tuple(scale * c_matrix[r][c] for c in range(2)) for r in range(2)
        )

    return values


def check_matrix_family(
    system: MatrixSystem,
    values: Callable[[int, int], Block],
    f_value: Fraction = _ZERO,
    c_di: Fraction = _ZERO,
    c_i: Fraction = _ZERO,
) -> bool:
    """Plug a block-valued family into every stored relation; exact zeros."""
    f_value, c_di, c_i = rat(f_value), rat(c_di), rat(c_i)
    cache: dict[tuple[int, int], Block] = {}

    def entry(key: tuple[int, int, int, int]) -> Fraction:
        j, m, r, c = key
        if (j, m) not in cache:
            cache[(j, m)] = values(j, m)
        return cache[(j, m)][r][c]

    for rel in system.linear:
        acc = sum((c * entry(key) for key, c in rel.terms), _ZERO)
        if acc + rel.f_coeff * f_value + rel.cdi_coeff * c_di:
            return False
    for rel in system.quadratic:
        acc = sum((c * entry(u) * entry(v) for u, v, c in rel.products), _ZERO)
        if acc + rel.ci_coeff * c_i:
            return False
    return True
