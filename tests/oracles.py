"""Reference implementations the tests compare the package against.

``fraction_nullspace`` is the plain ``Fraction`` Gauss elimination that
``heisvir.linalg.sparse_nullspace`` replaced: every row is reduced exactly,
with the same smallest-column pivot rule, so for a fixed column order it
returns the same canonical basis.  It is slow and kept only as an oracle.

``bracket_oracle``, ``jacobiator_oracle``, ``straighten_oracle`` and
``module_defects_oracle`` are the element-by-element versions that the pair
table of structure constants replaced: every basis pair builds its own
``LieElement`` and every sum builds a new one.

``coupling_verdict_oracle`` is ``verify_coupling_obstruction`` with the
columns in the order of ``system.unknowns``, as before they were ordered by
|j|, and ``validate_backbone_oracle`` is the x-bracket check of a backbone
that multiplies every entry, zero or not.

``check_family_oracle``, ``check_matrix_family_oracle`` and
``form_on_oracle`` are the two plug-back loops and the two-vector form
restriction that ``heisvir.classifier._plug_back`` and
``heisvir.classifier._restrict`` replaced.  The scalar loop tests the
central terms of a row on their own rather than inside its sum.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterable, Sequence

from heisvir.algebra import CD, CDI, CI, Gen, LieElement, igen, xgen
from heisvir.classifier import (
    _CDI_COL,
    _F_COL,
    QuadraticRelation,
    ScalarSystem,
    SolutionFamily,
    _linear_rows,
)
from heisvir.linalg import sparse_nullspace
from heisvir.matrix_system import MatrixSystem
from heisvir.modules import Block
from heisvir.scalars import rat

_ZERO = Fraction(0)
_ONE = Fraction(1)


def fraction_nullspace(rows: Iterable[dict], cols: Sequence[Hashable]) -> list[dict]:
    """Nullspace basis of sparse rational rows, one vector per free column."""
    col_index = {c: i for i, c in enumerate(cols)}
    pivots: dict[int, dict[int, Fraction]] = {}
    for raw in rows:
        row = {col_index[c]: Fraction(v) for c, v in raw.items() if v}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                inv = row[lead]
                pivots[lead] = {c: v / inv for c, v in row.items()}
                break
            factor = row[lead]
            for c, v in piv.items():
                nv = row.get(c, _ZERO) - factor * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)

    basis = []
    for free in range(len(cols)):
        if free in pivots:
            continue
        vec: dict[int, Fraction] = {free: Fraction(1)}
        for p in sorted(pivots, reverse=True):
            acc = sum(
                (v * vec[c] for c, v in pivots[p].items() if c != p and c in vec),
                _ZERO,
            )
            if acc:
                vec[p] = -acc
        basis.append({cols[i]: v for i, v in vec.items()})
    return basis


def rank_dense(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank of a small dense rational matrix."""
    mat = [[Fraction(v) for v in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = mat[rank][col]
        mat[rank] = [v / inv for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _basis_bracket(a: Gen, b: Gen) -> LieElement:
    """Bracket of two basis generators."""
    if a.central or b.central:
        return LieElement()
    n, m = a.n, b.n
    if a.kind == "x" and b.kind == "x":
        out: dict[Gen, Fraction] = {}
        if m != n:
            out[xgen(n + m)] = Fraction(m - n)
        if n == -m:
            c = Fraction(n**3 - n, 12)
            if c:
                out[CD] = c
        return LieElement(out)
    if a.kind == "x" and b.kind == "I":
        out = {}
        if m != 0:
            out[igen(n + m)] = Fraction(m)
        if n == -m:
            c = Fraction(n * n + n)
            if c:
                out[CDI] = c
        return LieElement(out)
    if a.kind == "I" and b.kind == "x":
        return -_basis_bracket(b, a)
    # I with I: pure center
    if n == -m and n != 0:
        return LieElement({CI: Fraction(n)})
    return LieElement()


def bracket_oracle(a: LieElement | Gen, b: LieElement | Gen) -> LieElement:
    """Lie bracket, extended bilinearly from the basis table."""
    if isinstance(a, Gen):
        a = LieElement.from_gen(a)
    if isinstance(b, Gen):
        b = LieElement.from_gen(b)
    total = LieElement()
    for ga, ca in a.items():
        for gb, cb in b.items():
            term = _basis_bracket(ga, gb)
            if term:
                total = total + term.scale(ca * cb)
    return total


def jacobiator_oracle(a, b, c) -> LieElement:
    """[a,[b,c]] + [b,[c,a]] + [c,[a,b]] through ``bracket_oracle``."""
    return (
        bracket_oracle(a, bracket_oracle(b, c))
        + bracket_oracle(b, bracket_oracle(c, a))
        + bracket_oracle(c, bracket_oracle(a, b))
    )


def _rank(g: Gen) -> tuple[int, int]:
    if g.n < 0:
        return (0 if g.kind == "x" else 1, g.n)
    return (2, 0)


def straighten_oracle(word: tuple[Gen, ...], hw) -> dict[tuple[Gen, ...], Fraction]:
    """word . hw over canonical monomial words, by the worklist rewriting of
    ``heisvir.verma._straighten`` with ``bracket_oracle`` and no cache."""
    central = {"CD": hw.c_d, "CDI": hw.c_di, "CI": hw.c_i}
    out: dict[tuple[Gen, ...], Fraction] = {}
    stack: list[tuple[Fraction, tuple[Gen, ...]]] = [(_ONE, word)]
    while stack:
        coeff, w = stack.pop()
        alive = True
        while w:
            f = w[-1]
            if f.central:
                coeff *= central[f.kind]
            elif f.n == 0:
                coeff *= hw.lam if f.kind == "x" else hw.lam_i
            elif f.n > 0:
                alive = False
            else:
                break
            if not alive or not coeff:
                alive = False
                break
            w = w[:-1]
        if not alive or not coeff:
            continue
        pos = next(
            (j for j in range(len(w) - 1) if _rank(w[j]) > _rank(w[j + 1])), None
        )
        if pos is None:
            out[w] = out.get(w, _ZERO) + coeff
            continue
        f, g = w[pos], w[pos + 1]
        stack.append((coeff, w[:pos] + (g, f) + w[pos + 2 :]))
        for h, c in bracket_oracle(f, g).items():
            stack.append((coeff * c, w[:pos] + (h,) + w[pos + 2 :]))
    return {w: c for w, c in out.items() if c}


def _vec_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, _ZERO) - c
    return {key: c for key, c in out.items() if c}


def _apply_elem(w, el: LieElement, vec: dict) -> dict:
    out: dict = {}
    for gen, coeff in el.items():
        for key, c in w.apply(gen, vec).items():
            out[key] = out.get(key, _ZERO) + coeff * c
    return {key: c for key, c in out.items() if c}


def module_defects_oracle(
    w, degree_bound: int, include_i: bool = True, composite_bound: int | None = None
) -> list[tuple[Gen, Gen, int, int]]:
    """``heisvir.module_defects`` recomputing a.v, b.v and [a,b].v for every pair."""
    gens = [xgen(i) for i in range(-degree_bound, degree_bound + 1)]
    if include_i:
        gens += [igen(i) for i in range(-degree_bound, degree_bound + 1)]
    bad: list[tuple[Gen, Gen, int, int]] = []
    for ai, a in enumerate(gens):
        for b in gens[ai + 1 :]:
            if composite_bound is not None and abs(a.n + b.n) > composite_bound:
                continue
            margin = abs(a.n) + abs(b.n)
            lie = bracket_oracle(a, b)
            for k in range(-w.n + margin, w.n - margin + 1):
                for comp in range(w.dim(k)):
                    v = w.basis_vec(k, comp)
                    lhs = _apply_elem(w, lie, v)
                    rhs = _vec_sub(w.apply(a, w.apply(b, v)), w.apply(b, w.apply(a, v)))
                    if _vec_sub(lhs, rhs):
                        bad.append((a, b, k, comp))
    return bad


def check_family_oracle(s: ScalarSystem, fam: SolutionFamily) -> bool:
    """Plug the family into every stored relation; exact zeros or bust."""
    phi = fam.closed_form
    f_active = _ZERO if fam.kind == "AllZero" else _ONE
    for rel in s.linear:
        acc = sum((c * phi(*key) for key, c in rel.terms), _ZERO)
        if acc + rel.f_coeff * f_active or rel.cdi_coeff * fam.c_di:
            return False
    for rel in s.quadratic:
        acc = sum((c * phi(*u) * phi(*v) for u, v, c in rel.products), _ZERO)
        if acc or rel.ci_coeff * fam.c_i:
            return False
    return True


def check_matrix_family_oracle(
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


def form_on_oracle(
    rel: QuadraticRelation,
    b1: dict,
    b2: dict,
) -> tuple[Fraction, Fraction, Fraction]:
    q20 = q11 = q02 = _ZERO
    for u, v, c in rel.products:
        x1, y1 = b1.get(u, _ZERO), b2.get(u, _ZERO)
        x2, y2 = b1.get(v, _ZERO), b2.get(v, _ZERO)
        q20 += c * x1 * x2
        q11 += c * (x1 * y2 + y1 * x2)
        q02 += c * y1 * y2
    return q20, q11, q02


def coupling_verdict_oracle(system: MatrixSystem) -> bool:
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


def validate_backbone_oracle(x: dict[tuple[int, int], Block], n: int) -> None:
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
