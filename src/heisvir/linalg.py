"""Sparse exact linear algebra over the rationals.

The relation systems produced elsewhere in the package are sparse (a handful
of entries per row) with columns keyed by structured tuples rather than dense
indices, so this module works directly with ``dict`` rows.

``sparse_nullspace`` clears each row to one primitive integer row, eliminates
mod the prime p = 2^61 - 1, back-substitutes mod p and lifts each residue by
rational reconstruction (numerator and denominator up to sqrt(p/2) ~ 2^30).
Every original row must vanish exactly on every lifted vector.  If a residue
has no lift or a row does not vanish, exact ``Fraction`` elimination runs on
the rows independent mod p (hence over Q), then on all rows, under the same
certificate.  No unchecked basis is returned and no float is used.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Hashable, Iterable, Sequence

SparseRow = dict  # col_key -> int or Fraction, zeros never stored
SparseVec = dict

_P = 2**61 - 1
_BOUND = isqrt(_P // 2)  # numerator and denominator bound of a lifted entry


def _add_row(row: dict, pivots: dict, modulus: int = 0) -> bool:
    """Reduce ``row`` in place against ``pivots``; keep any remainder as a new
    pivot, keyed by its smallest key and scaled to lead with 1.  Returns
    whether the span grew.  With a ``modulus`` the entries are residues and
    every step is taken mod ``modulus``; without one every step is exact."""
    while row:
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            if modulus:
                inv = pow(row[lead], -1, modulus)
                pivots[lead] = {c: v * inv % modulus for c, v in row.items()}
            else:
                inv = Fraction(row[lead])
                pivots[lead] = {c: v / inv for c, v in row.items()}
            return True
        factor = row[lead]
        for c, v in piv.items():
            nv = row.get(c, 0) - factor * v
            if modulus:
                nv %= modulus
            if nv:
                row[c] = nv
            else:
                row.pop(c, None)
    return False


def _primitive(vec: dict) -> dict:
    """The primitive integer multiple of a sparse rational vector."""
    den = lcm(*(v.denominator for v in vec.values()))
    ints = {c: v.numerator * (den // v.denominator) for c, v in vec.items() if v}
    g = gcd(*ints.values())
    return {c: v // g for c, v in ints.items()} if g > 1 else ints


def _rational(r: int) -> Fraction | None:
    """The fraction a/b = r mod p with |a|, b <= _BOUND, or None if there is
    none; 2 * _BOUND**2 < p makes it unique (Wang's half-extended Euclid)."""
    r0, r1, s0, s1 = _P, r % _P, 0, 1
    while r1 > _BOUND:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return Fraction(r1, s1) if abs(s1) <= _BOUND else None


def _back_substitute(pivots: dict, ncols: int, modulus: int = 0) -> list[dict]:
    """One kernel vector per free column of an echelon form: 1 there, then the
    pivot columns in descending order; residues mod a nonzero ``modulus``."""
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = {free: 1 if modulus else Fraction(1)}
        for p in sorted(pivots, reverse=True):  # pivot rows only reach rightwards
            acc = -sum(v * vec[c] for c, v in pivots[p].items() if c != p and c in vec)
            if acc := (acc % modulus if modulus else acc):
                vec[p] = acc
        basis.append(vec)
    return basis


def sparse_nullspace(
    rows: Iterable[SparseRow], cols: Sequence[Hashable]
) -> list[SparseVec]:
    """Nullspace basis of a sparse matrix.

    ``rows`` holds the equations (each a dict mapping a column key to a nonzero
    ``int`` or ``Fraction`` coefficient); ``cols`` fixes the column order used
    for pivot selection. Returns one sparse vector per free column, keyed like
    the rows; for a fixed column order the basis is canonical.

    A certified lift is that canonical basis.  Ranks mod p never exceed ranks
    over Q, so the k lifted vectors, independent by their free columns and in
    the kernel over Q, span it.  A kernel vector's highest nonzero column is
    free over Q (a pivot entry is fixed by the entries right of it), so the
    free columns agree, and a kernel vector is fixed by its free coordinates.
    """
    col_index = {c: i for i, c in enumerate(cols)}
    ints = (_primitive({col_index[c]: v for c, v in raw.items() if v}) for raw in rows)
    # sparsest rows first, ties by leading column: the basis does not depend
    # on the row order, and this order keeps fill-in low
    ints = sorted(filter(None, ints), key=lambda row: (len(row), min(row)))
    residues: dict[int, dict[int, int]] = {}
    chosen = [
        row
        for row in ints
        if _add_row({c: r for c, v in row.items() if (r := v % _P)}, residues, _P)
    ]
    if len(chosen) == len(cols):
        return []  # full column rank mod p, hence over Q: the kernel is zero

    def candidates():
        lifted = [
            {c: _rational(r) for c, r in vec.items()}
            for vec in _back_substitute(residues, len(cols), _P)
        ]
        if not any(None in vec.values() for vec in lifted):
            yield lifted
        for subset in (chosen, ints):
            pivots: dict[int, dict[int, Fraction]] = {}
            for row in subset:
                _add_row(dict(row), pivots)
            yield _back_substitute(pivots, len(cols))

    for basis in candidates():
        # the certificate: every original row vanishes on every basis vector
        scaled = [_primitive(vec) for vec in basis]
        if not any(
            sum(v * w.get(c, 0) for c, v in row.items()) for w in scaled for row in ints
        ):
            return [{cols[i]: v for i, v in vec.items()} for vec in basis]
    raise ArithmeticError("exact elimination failed its own certificate")


class SpanBuilder:
    """Incrementally built span of sparse exact vectors.

    ``add`` Gauss-reduces the vector against the pivots collected so far and
    reports whether it enlarged the span. Coordinate keys must be mutually
    comparable (the reduction always eliminates the smallest coordinate).
    """

    __slots__ = ("_pivots",)

    def __init__(self) -> None:
        self._pivots: dict[Hashable, SparseVec] = {}

    def add(self, vec: SparseVec) -> bool:
        return _add_row({k: Fraction(v) for k, v in vec.items() if v}, self._pivots)

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def vectors(self) -> list[SparseVec]:
        return [dict(v) for v in self._pivots.values()]
