"""Constraint elimination for I-action scalars over rank-one weight backbones.

On a window of weight indices, an unknown scalar F[i, n] records how I(i) maps
the n-th basis vector to the (n+i)-th.  The bracket relations of the algebra
turn these into a linear layer (from [x, I] and the I(0) normalization) and a
quadratic layer (from [I, I]), with the two exotic central charges riding
along as extra unknowns.  Solving proceeds exactly as a finite computation:
nullspace of the linear layer, then intersection of the root lines of the
quadratic forms induced on the surviving parameters.  Branches that the
relations alone cannot kill are discharged by materializing the candidate
window and testing it directly (module defects, then brute-force
irreducibility), mirroring how the underlying case analysis disposes of them.

Also hosts the window-level diagnostics: the irreducibility oracle, torsion
kernels of the I-action, and the support-shape heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .algebra import igen, xgen
from .linalg import SpanBuilder, sparse_nullspace
from .modules import (
    Block,
    IntermediateParams,
    ModuleSpec,
    ModuleWindow,
    Vab,
    _x_degree_bound,
    build_window,
    is_reducible,
    module_defects,
    x_blocks,
)
from .scalars import is_integer, rat

_ZERO = Fraction(0)
_ONE = Fraction(1)

_F_COL = "F"
_CDI_COL = "cDI"


class WindowTooSmall(Exception):
    """The requested window cannot hold the index room the analysis needs."""


class UnclassifiedBranch(Exception):
    """A solution branch survived that the engine cannot name; increase the
    window or investigate by hand before trusting any output."""


# ---------------------------------------------------------------------------
# the constraint system


@dataclass(frozen=True)
class LinearRelation:
    """sum(coeff * F[i, n]) + f_coeff * F + cdi_coeff * cDI = 0."""

    terms: tuple[tuple[tuple[int, int], Fraction], ...]
    f_coeff: Fraction = _ZERO
    cdi_coeff: Fraction = _ZERO


@dataclass(frozen=True)
class QuadraticRelation:
    """sum(coeff * F[u] * F[v]) + ci_coeff * cI = 0."""

    products: tuple[tuple[tuple[int, int], tuple[int, int], Fraction], ...]
    ci_coeff: Fraction = _ZERO


@dataclass(frozen=True)
class ScalarSystem:
    alpha: Fraction
    beta: Fraction
    window: int
    punctured: bool
    unknowns: tuple[tuple[int, int], ...]
    linear: tuple[LinearRelation, ...]
    quadratic: tuple[QuadraticRelation, ...]


def _backbone(strands: tuple[ModuleSpec, ...], n: int) -> dict[tuple[int, int], Block]:
    """Blocks of x[i] out of index k, |k| <= 2n, on the direct sum of strands.

    Every degree all strands define gets a square block at every such k, zero
    blocks included; the target index is always k + i.  Only rank-one strands
    ever act by zero, so an empty action stands for a 1x1 zero block.
    """
    bound = min(_x_degree_bound(spec, n) for spec in strands)
    x: dict[tuple[int, int], Block] = {}
    for i in range(-bound, bound + 1):
        for k in range(-2 * n, 2 * n + 1):
            parts = [
                hits[0][1] if (hits := x_blocks(spec, i, k)) else ((_ZERO,),)
                for spec in strands
            ]
            rows: list[tuple[Fraction, ...]] = []
            for part in parts:
                rows += [(_ZERO,) * len(rows) + row for row in part]
            x[(i, k)] = tuple(row + (_ZERO,) * (len(rows) - len(row)) for row in rows)
    return x


def _relation_layers(
    x: dict[tuple[int, int], Block],
    n: int,
    hole: Optional[int] = None,
    punctured: bool = False,
) -> tuple[tuple, tuple[LinearRelation, ...], tuple[QuadraticRelation, ...]]:
    """Unknowns, linear rows and quadratic rows over the backbone x on [-n, n].

    With p x p backbone blocks, unknown keys are (j, m) at p = 1 and
    (j, m, r, c) otherwise: the (r, c) entry of the block of I(j) out of index
    m, columns indexing the source basis vector.  The linear layer is the I(0)
    normalization followed by the [x_i, I_j] rows, the quadratic layer the
    [I_i, I_j] rows.  A relation is dropped when any of m, m+i, m+j, m+i+j is
    the index hole; punctured mode also deletes the unknowns and the
    normalization rows touching it and moves the central terms as
    build_scalar_system describes.
    """
    p = len(x[(0, 0)])
    window = range(-n, n + 1)
    cells = [(r, c) for r in range(p) for c in range(p)]

    def key(j: int, m: int, r: int, c: int) -> tuple[int, ...]:
        return (j, m) if p == 1 else (j, m, r, c)

    unknowns = tuple(
        key(j, m, r, c)
        for j in window
        for m in window
        for r, c in cells
        if not (punctured and hole in (m, m + j))
    )
    linear = [
        LinearRelation(((key(0, m, r, c), _ONE),), f_coeff=-_ONE if r == c else _ZERO)
        for m in window
        for r, c in cells
        if not (punctured and m == hole)
    ]
    for i in window:
        if i == 0 or (i, 0) not in x:  # x[i] undefined in the backbone
            continue
        for j in window:
            for m in window:
                if abs(m + i) > n or abs(i + j) > n or hole in (m, m + i, m + j, m + i + j):
                    continue
                after, first = x[(i, m + j)], x[(i, m)]
                delta = Fraction(i * i + i) if i == -j else _ZERO
                for r, c in cells:
                    terms = [(key(j, m, k, c), after[r][k]) for k in range(p)]
                    terms += [(key(j, m + i, r, k), -first[k][c]) for k in range(p)]
                    terms.append((key(i + j, m, r, c), Fraction(-j)))
                    terms = sorted(t for t in terms if t[1])
                    charge = -delta if r == c else _ZERO
                    if not terms and not charge:
                        continue
                    linear.append(
                        LinearRelation(
                            tuple(terms),
                            f_coeff=charge if punctured else _ZERO,
                            cdi_coeff=_ZERO if punctured else charge,
                        )
                    )
    quadratic: list[QuadraticRelation] = []
    for i in window:
        for j in range(i + 1, n + 1):
            for m in window:
                if abs(m + i) > n or abs(m + j) > n or hole in (m, m + i, m + j, m + i + j):
                    continue
                ci = Fraction(-i) if i == -j and not punctured else _ZERO
                for r, c in cells:
                    products = []
                    for k in range(p):
                        products.append((key(i, m + j, r, k), key(j, m, k, c), _ONE))
                        products.append((key(j, m + i, r, k), key(i, m, k, c), -_ONE))
                    quadratic.append(
                        QuadraticRelation(tuple(products), ci if r == c else _ZERO)
                    )
    return unknowns, tuple(linear), tuple(quadratic)


def build_scalar_system(
    alpha: Fraction, beta: Fraction, n: int, punctured: bool
) -> ScalarSystem:
    """Instantiate every relation whose indices fit the window [-n, n].

    Punctured mode describes the deleted-index sub-quotient: the backbone
    coefficients normalize to offset 0 with plain integer weights, unknowns
    touching the deleted weight do not exist, and a relation is kept only when
    all four of n, n+i, n+j, n+i+j avoid it.  There the delta term of the
    mixed-bracket rows carries F itself, the one surviving charge, and the
    [I, I] rows have no central term at all.
    """
    alpha = rat(alpha)
    beta = rat(beta)
    if n < 4:
        raise WindowTooSmall("eliminations need a window half-width of at least 4")
    if punctured:
        if not is_integer(alpha):
            raise ValueError("punctured backbone requires an integer offset")
        alpha = _ZERO
        beta = _ZERO
    unknowns, linear, quadratic = _relation_layers(
        _backbone((Vab(alpha, beta),), n), n, 0 if punctured else None, punctured
    )
    return ScalarSystem(alpha, beta, n, punctured, unknowns, linear, quadratic)


# ---------------------------------------------------------------------------
# elimination to the j = 1 column


@dataclass(frozen=True)
class LinExpr:
    """sum(coeff * F1[m]) + f * F, with F1[m] the unknowns F[1, m]."""

    f1: tuple[tuple[int, Fraction], ...]
    f: Fraction = _ZERO


@dataclass(frozen=True)
class Elimination:
    exprs: dict[tuple[int, int], LinExpr]
    side: tuple[LinExpr, ...]


def eliminate_j1(s: ScalarSystem) -> Elimination:
    """Express every window unknown through the F[1, .] column.

    Each F[i, n] is a two-term combination of F1[n] and F1[n+i-1]; the i = 0
    row combined with the normalization yields the side recurrences linking
    consecutive F1 values to F, which are returned as expressions that must
    vanish.
    """
    if s.punctured:
        raise ValueError("the j=1 elimination applies to the dense system only")
    a, b, n = s.alpha, s.beta, s.window
    exprs: dict[tuple[int, int], LinExpr] = {}
    for i, m in s.unknowns:
        ref = m + i - 1
        if abs(ref) > n:
            continue
        coeffs: dict[int, Fraction] = {}
        coeffs[m] = coeffs.get(m, _ZERO) + (a + (i - 1) * b + m + 1)
        coeffs[ref] = coeffs.get(ref, _ZERO) - (a + m + (i - 1) * b)
        exprs[(i, m)] = LinExpr(
            tuple(sorted((k, c) for k, c in coeffs.items() if c))
        )
    side = tuple(
        LinExpr(
            ((m, -(a - b + m + 1)), (m + 1, a - b + m + 2)),
            f=-_ONE,
        )
        for m in range(-n, n)
    )
    return Elimination(exprs, side)


# ---------------------------------------------------------------------------
# quadratic obstruction


def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num != q.numerator or den * den != q.denominator:
        return None
    return Fraction(num, den)


@dataclass(frozen=True)
class Quadratic:
    """c2 * t**2 + c1 * F * t + c0 * F**2, t standing for one F1 unknown."""

    c2: Fraction
    c1: Fraction
    c0: Fraction

    def roots_as_f_multiples(self) -> list[Fraction]:
        """The rational r with t = r * F a root, sorted."""
        if self.c2:
            root = _rational_sqrt(self.c1 * self.c1 - 4 * self.c2 * self.c0)
            if root is None:
                return []
            return sorted({(-self.c1 + sign * root) / (2 * self.c2) for sign in (1, -1)})
        if self.c1:
            return [-self.c0 / self.c1]
        return []


def quadratic_obstruction(alpha: Fraction, beta: Fraction, m: int) -> Quadratic:
    """(t - F) * (A t - B F) with A = alpha-beta+m+1 and B = alpha+m+beta."""
    alpha, beta = rat(alpha), rat(beta)
    a = alpha - beta + m + 1
    b = alpha + m + beta
    return Quadratic(a, -(a + b), b)


def eliminated_quadratic(alpha: Fraction, beta: Fraction, m: int) -> Quadratic:
    """The same quadratic reached the long way, by actual elimination.

    Scale the side recurrences so no division occurs: with a = alpha-beta+m+1
    and b = alpha+m+beta, the combinations (a+1)F1[m+1], (a+2)F1[m+2],
    (a+1)F2[m] and (a+1)(a+2)F2[m+1] are linear in (t, F); substituting them
    into the [I, I] relation pairing degrees 1 and 2 at m gives twice the
    advertised quadratic.
    """
    alpha, beta = rat(alpha), rat(beta)
    a = alpha - beta + m + 1
    b = alpha + m + beta
    p1 = (a, _ONE)  # (a+1) F1[m+1]  as (t, F) coefficients
    p2 = (a, rat(2))  # (a+2) F1[m+2]
    qn = (a + b + 1, -b)  # (a+1) F2[m]
    qn1 = ((a + b + 3) * p1[0], (a + b + 3) * p1[1] - (a + 1) * (b + 1))
    # E = qn1 * t - p2 * qn, a quadratic in (t, F)
    c2 = qn1[0] - p2[0] * qn[0]
    c1 = qn1[1] - (p2[0] * qn[1] + p2[1] * qn[0])
    c0 = -p2[1] * qn[1]
    return Quadratic(c2 / 2, c1 / 2, c0 / 2)


# ---------------------------------------------------------------------------
# solution families


@dataclass(frozen=True)
class SolutionFamily:
    """One family of window solutions, linear in the symbolic scalar F.

    closed_form(i, n) is the rational multiplier of F at unknown F[i, n]; it
    extends beyond the window by the same formula.  f_zero_reducible flags
    whether the F = 0 specialization of the materialized module is reducible.
    """

    kind: str
    c_i: Fraction
    c_di: Fraction
    closed_form: Callable[[int, int], Fraction] = field(compare=False)
    f_zero_reducible: bool = False


def _constant_form(i: int, m: int) -> Fraction:
    return _ONE


def _zero_form(i: int, m: int) -> Fraction:
    return _ZERO


def _rescaled_beta0_form(alpha: Fraction) -> Callable[[int, int], Fraction]:
    def phi(i: int, m: int) -> Fraction:
        return (alpha + m) / (alpha + m + i)

    return phi


def _rescaled_beta1_form(alpha: Fraction) -> Callable[[int, int], Fraction]:
    def phi(i: int, m: int) -> Fraction:
        return (alpha + m + i) / (alpha + m)

    return phi


def _spike_form(
    alpha: Fraction, beta: Fraction, n0: int
) -> Callable[[int, int], Fraction]:
    # one-parameter tail of the degenerate chain: supported on the two index
    # lines m = n0 and m + i - 1 = n0
    def phi(i: int, m: int) -> Fraction:
        out = _ZERO
        if m == n0:
            out += alpha + (i - 1) * beta + m + 1
        if m + i - 1 == n0:
            out -= alpha + m + (i - 1) * beta
        return out

    return phi


class _Values(dict):
    """Each unknown's value, computed on its first read and kept."""

    def __init__(self, value: Callable[[tuple], Fraction]) -> None:
        self.value = value

    def __missing__(self, key: tuple) -> Fraction:
        out = self[key] = self.value(key)
        return out


def _plug_back(
    system, value: Callable[[tuple], Fraction], f: Fraction, c_di: Fraction, c_i: Fraction
) -> bool:
    """Does every row of a scalar or matrix system vanish, exactly, with the
    unknowns at value(key)?  value is read once per key the rows touch."""
    val = _Values(value)
    for rel in system.linear:
        acc = sum([c * val[key] for key, c in rel.terms], _ZERO)
        if rel.f_coeff or rel.cdi_coeff:
            acc += rel.f_coeff * f + rel.cdi_coeff * c_di
        if acc:
            return False
    for rel in system.quadratic:
        acc = sum([c * val[u] * val[v] for u, v, c in rel.products], _ZERO)
        if rel.ci_coeff:
            acc += rel.ci_coeff * c_i
        if acc:
            return False
    return True


def check_family(s: ScalarSystem, fam: SolutionFamily) -> bool:
    """Plug the family into every stored relation; exact zeros or bust."""
    phi = fam.closed_form
    f = _ZERO if fam.kind == "AllZero" else _ONE
    return _plug_back(s, lambda key: phi(*key), f, fam.c_di, fam.c_i)


# ---------------------------------------------------------------------------
# solving


def _linear_rows(relations: Iterable[LinearRelation]) -> list[dict]:
    rows = []
    for rel in relations:
        row: dict = {key: c for key, c in rel.terms}
        if rel.f_coeff:
            row[_F_COL] = rel.f_coeff
        if rel.cdi_coeff:
            row[_CDI_COL] = rel.cdi_coeff
        rows.append(row)
    return rows


def _restrict(rel: QuadraticRelation, vecs: dict) -> dict[tuple, Fraction]:
    """The row on the span of vecs: {(p, q): coefficient of t_p * t_q}, p <= q.

    vecs maps a label to a vector of unknown values; the row is evaluated at
    sum(t_p * vecs[p]).  Zero coefficients are left out.
    """
    out: dict[tuple, Fraction] = {}
    for u, v, c in rel.products:
        for p, bp in vecs.items():
            if xu := bp.get(u):
                cu = c * xu
                for q, bq in vecs.items():
                    if xv := bq.get(v):
                        key = (p, q) if p <= q else (q, p)
                        out[key] = out.get(key, _ZERO) + cu * xv
    return {key: c for key, c in out.items() if c}


def _solve_dense(s: ScalarSystem) -> list[SolutionFamily]:
    degenerate = is_integer(s.alpha - s.beta)
    n0 = 0
    if degenerate:
        n0 = int(s.beta - s.alpha - 1)
        if not (-s.window + 2 <= n0 <= s.window - 2):
            raise WindowTooSmall(
                "degenerate index sits too close to the window edge; increase N"
            )
    # column order mirrors the elimination: every other unknown is pivoted
    # away before the F[1, .] column, leaving those plus F as the free data
    cols = [key for key in s.unknowns if key[0] != 1]
    cols += [key for key in s.unknowns if key[0] == 1]
    basis = sparse_nullspace(_linear_rows(s.linear), cols + [_F_COL, _CDI_COL])
    if any(vec.get(_CDI_COL) for vec in basis):
        raise UnclassifiedBranch(
            "window relations leave the mixing central charge unresolved"
        )
    rank = len(basis)
    if rank == 0 or rank > 2:
        raise UnclassifiedBranch(
            f"linear layer has a {rank}-parameter solution space"
        )
    f_zero = is_reducible(IntermediateParams(s.alpha, s.beta, _ZERO))
    constant = SolutionFamily("Constant", _ZERO, _ZERO, _constant_form, f_zero)
    if rank == 1:
        return [constant]

    b1, b2 = basis
    plane = {0: b1, 1: b2}
    plain = [rel for rel in s.quadratic if not rel.ci_coeff]
    central = [rel for rel in s.quadratic if rel.ci_coeff]
    # a line is a direction (x, y) in the plane of x * b1 + y * b2
    lines: Optional[list[tuple[Fraction, Fraction]]] = None
    for rel in plain:
        form = _restrict(rel, plane)
        if not form:
            continue
        if lines is None:
            q = Quadratic(*(form.get(pq, _ZERO) for pq in ((0, 0), (0, 1), (1, 1))))
            lines = [(r, _ONE) for r in q.roots_as_f_multiples()]
            if not q.c2:
                lines.append((_ONE, _ZERO))
        else:
            lines = [
                v for v in lines if not sum(c * v[a] * v[b] for (a, b), c in form.items())
            ]
    if lines is None:
        raise UnclassifiedBranch("no quadratic relation cuts the parameter plane")

    families = [constant]
    saw_constant_line = False
    for v in lines:
        values = {
            key: b1.get(key, _ZERO) * v[0] + b2.get(key, _ZERO) * v[1]
            for key in s.unknowns
        }
        f_val = b1.get(_F_COL, _ZERO) * v[0] + b2.get(_F_COL, _ZERO) * v[1]
        # the charge from the [I, I] delta rows must be zero
        if any(_restrict(rel, {0: values}) for rel in central):
            raise UnclassifiedBranch(
                "a surviving branch forces a nonzero central charge"
            )
        if f_val:
            phi = {key: val / f_val for key, val in values.items()}
            if all(c == _ONE for c in phi.values()):
                saw_constant_line = True
                continue
            families.append(_identify_scaled_line(s, phi, degenerate))
        else:
            spike = _discharge_homogeneous_line(s, values, degenerate, n0)
            if spike is not None:
                families.append(spike)
    if not saw_constant_line:
        raise UnclassifiedBranch("constant direction missing from the line set")
    return families


def _identify_scaled_line(
    s: ScalarSystem, phi: dict[tuple[int, int], Fraction], degenerate: bool
) -> SolutionFamily:
    if degenerate:
        # a second inhomogeneous branch at a visible degenerate index means
        # the window relations could not pin the chain value there
        raise WindowTooSmall(
            "unresolved branch at the degenerate index; increase N"
        )
    if s.beta == 0:
        form = _rescaled_beta0_form(s.alpha)
        kind = "RescaledBeta0"
    elif s.beta == 1:
        form = _rescaled_beta1_form(s.alpha)
        kind = "RescaledBeta1"
    else:
        raise UnclassifiedBranch(
            "a rescaled branch survived outside the expected slope values"
        )
    for key, val in phi.items():
        if form(*key) != val:
            raise UnclassifiedBranch(
                f"surviving branch deviates from the {kind} closed form at {key}"
            )
    return SolutionFamily(kind, _ZERO, _ZERO, form, False)


def _discharge_homogeneous_line(
    s: ScalarSystem,
    values: dict[tuple[int, int], Fraction],
    degenerate: bool,
    n0: int,
) -> Optional[SolutionFamily]:
    """A branch with F = 0 but a nonzero I-action tail.

    Identified against the degenerate spike form, then materialized on a
    window large enough for the irreducibility oracle.  Tails that fail the
    module axioms are truncation artifacts; tails that form reducible windows
    contribute no new irreducible family.  Either way nothing is returned
    unless something genuinely unclassified survives.
    """
    if not degenerate:
        raise UnclassifiedBranch(
            "a scalar-free branch survived away from the degenerate case"
        )
    spike = _spike_form(s.alpha, s.beta, n0)
    scale = None
    for key, val in values.items():
        expected = spike(*key)
        if expected:
            scale = val / expected
            break
    if scale is None or not scale:
        raise UnclassifiedBranch("empty homogeneous branch")
    for key, val in values.items():
        if spike(*key) * scale != val:
            raise UnclassifiedBranch(
                f"homogeneous branch deviates from the spike form at {key}"
            )
    # the reducibility break sits within one step of n0, so the oracle's
    # inner range must reach past it
    wide = max(s.window, abs(n0) + 5, 8)
    candidate = SolutionFamily("Spike", _ZERO, _ZERO, spike)
    window = materialize_family(s.alpha, s.beta, candidate, scale, wide)
    if module_defects(window, 2):
        return None  # truncation artifact, not a module at all
    if irreducibility_oracle(window):
        raise UnclassifiedBranch(
            "an irreducible scalar-free window survived the relations"
        )
    return None  # honest module, but reducible: adds no irreducible family


def _solve_punctured(s: ScalarSystem) -> list[SolutionFamily]:
    basis = sparse_nullspace(_linear_rows(s.linear), list(s.unknowns) + [_F_COL])
    if any(vec.get(_F_COL) for vec in basis):
        raise UnclassifiedBranch(
            "the punctured linear layer leaves the I(0) scalar free"
        )
    alive = {k: dict(vec) for k, vec in enumerate(basis)}
    changed = True
    while changed and alive:
        changed = False
        for rel in s.quadratic:
            entries = _restrict(rel, alive)
            if len(entries) == 1:
                (p, q), _ = next(iter(entries.items()))
                if p == q:
                    del alive[p]
                    changed = True
                    break
    margin = s.window - 2
    for vec in alive.values():
        for key, c in vec.items():
            if key == _F_COL or not c:
                continue
            i, m = key
            if abs(i) <= margin and abs(m) <= margin:
                raise UnclassifiedBranch(
                    "a nonzero I-action branch survives on the punctured window core"
                )
    return [SolutionFamily("AllZero", _ZERO, _ZERO, _zero_form, False)]


def solve_system(s: ScalarSystem) -> list[SolutionFamily]:
    """All solution families of a built system, each verified by plug-back."""
    families = _solve_punctured(s) if s.punctured else _solve_dense(s)
    for fam in families:
        if not check_family(s, fam):
            raise UnclassifiedBranch(f"family {fam.kind} failed its plug-back check")
    return families


def solve_scalar(alpha: Fraction, beta: Fraction, n: int) -> list[SolutionFamily]:
    """Solution families of the dense system at window half-width n >= 6."""
    if n < 6:
        raise WindowTooSmall("family separation needs a half-width of at least 6")
    return solve_system(build_scalar_system(alpha, beta, n, False))


# ---------------------------------------------------------------------------
# materialized windows


def materialize_family(
    alpha: Fraction,
    beta: Fraction,
    fam: SolutionFamily,
    f_value: Fraction,
    n: int,
) -> ModuleWindow:
    """The window with x-backbone (alpha, beta) and I-action from the family."""
    alpha, beta, f_value = rat(alpha), rat(beta), rat(f_value)
    w = build_window(Vab(alpha, beta), n)
    i_actions = {
        (igen(i), k): [(k + i, ((val,),))]
        for k in w.indices()
        for i in w.indices()
        if (val := fam.closed_form(i, k) * f_value)
    }
    return replace(w, actions={**w.actions, **i_actions})


# ---------------------------------------------------------------------------
# window diagnostics


def irreducibility_oracle(w: ModuleWindow) -> bool:
    """Brute-force generation sweep over the inner window.

    True iff every inner basis vector generates, under generators of degree at
    most 2 applied with window truncation, a span covering every inner weight
    space.  Reliable for the single- and double-multiplicity windows built
    here, whose zero-mode acts by a distinct scalar on each weight index.
    """
    if w.n < 8:
        raise ValueError("the oracle needs a window half-width of at least 8")
    m = 2
    lo, hi = -w.n + 2 * m, w.n - 2 * m
    gens = [xgen(i) for i in range(-m, m + 1)] + [
        igen(i) for i in range(-m, m + 1)
    ]
    seeds = [
        (k, comp) for k in range(lo, hi + 1) for comp in range(w.dim(k))
    ]
    for k, comp in seeds:
        span = SpanBuilder()
        queue = [w.basis_vec(k, comp)]
        while queue:
            vec = queue.pop()
            if not span.add(vec):
                continue
            for g in gens:
                image = w.apply(g, vec)
                if image:
                    queue.append(image)
        # the span is stable under the zero modes, so it splits per index
        per_index: dict[int, SpanBuilder] = {}
        for vec in span.vectors():
            pieces: dict[int, dict] = {}
            for (idx, c), val in vec.items():
                pieces.setdefault(idx, {})[(idx, c)] = val
            for idx, piece in pieces.items():
                per_index.setdefault(idx, SpanBuilder()).add(piece)
        for idx in range(lo, hi + 1):
            need = w.dim(idx)
            if need and per_index.get(idx, SpanBuilder()).dim < need:
                return False
    return True


def i_torsion(w: ModuleWindow, j: int) -> list[int]:
    """Per-weight dimensions of the joint kernel of I(i) for j <= i <= N.

    Every stored action block participates, whether or not its target index
    lies inside the window; actions a family genuinely lacks contribute
    nothing, so highest weight vectors keep their full kernel.
    """
    if j < 0:
        raise ValueError("torsion threshold must be nonnegative")
    out = []
    for k in range(-w.n, w.n + 1):
        d = w.dim(k)
        if d == 0:
            out.append(0)
            continue
        rows = []
        for i in range(j, w.n + 1):
            for _target, block in w.actions.get((igen(i), k), ()):
                for row in block:
                    entries = {c: row[c] for c in range(d) if row[c]}
                    if entries:
                        rows.append(entries)
        out.append(len(sparse_nullspace(rows, list(range(d)))))
    return out


# ---------------------------------------------------------------------------
# support shape


class SupportShape:
    """Marker base for the window-level support diagnosis."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class UniformlyBounded(SupportShape):
    bound: int


@dataclass(frozen=True, slots=True)
class UpperBounded(SupportShape):
    pass


@dataclass(frozen=True, slots=True)
class LowerBounded(SupportShape):
    pass


@dataclass(frozen=True, slots=True)
class UnboundedBothSides(SupportShape):
    pass


def support_shape(dims: dict[int, int]) -> SupportShape:
    """Classify a dims map by its edge behavior.

    A finite-window diagnostic only: growth toward an edge suggests the module
    continues beyond it, vanishing at an edge suggests genuine cutoff.  It
    decides nothing by itself.
    """
    idxs = sorted(dims)
    if len(idxs) < 3:
        raise ValueError("need at least three consecutive indices")
    if idxs != list(range(idxs[0], idxs[-1] + 1)):
        raise ValueError("dims must cover a contiguous index window")
    vals = [dims[i] for i in idxs]
    grow_low = vals[0] > vals[1] > vals[2]
    grow_high = vals[-1] > vals[-2] > vals[-3]
    if grow_low and grow_high:
        return UnboundedBothSides()
    if vals[-1] == 0 and grow_low:
        return UpperBounded()
    if vals[0] == 0 and grow_high:
        return LowerBounded()
    return UniformlyBounded(max(vals))
