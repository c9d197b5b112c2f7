"""Sparse exact linear algebra over the rationals.

The relation systems produced elsewhere in the package are sparse (a handful
of entries per row) with columns keyed by structured tuples rather than dense
indices, so this module works directly with ``dict`` rows. Everything is
Fraction-exact; there is no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Sequence

SparseRow = dict  # col_key -> Fraction, zeros never stored
SparseVec = dict


_ZERO = Fraction(0)


def _add_row(row: dict, pivots: dict) -> bool:
    """Reduce ``row`` in place against ``pivots``; keep any remainder as a new
    pivot, keyed by its smallest key and scaled to lead with 1.  Returns
    whether the span grew."""
    while row:
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            inv = row[lead]
            pivots[lead] = {c: v / inv for c, v in row.items()}
            return True
        factor = row[lead]
        for c, v in piv.items():
            nv = row.get(c, _ZERO) - factor * v
            if nv:
                row[c] = nv
            else:
                row.pop(c, None)
    return False


def sparse_nullspace(
    rows: Iterable[SparseRow], cols: Sequence[Hashable]
) -> list[SparseVec]:
    """Nullspace basis of a sparse matrix.

    ``rows`` holds the equations (each a dict mapping a column key to a nonzero
    rational coefficient); ``cols`` fixes the column order used for pivot
    selection. Returns one sparse vector per free column, keyed like the rows.
    """
    col_index = {c: i for i, c in enumerate(cols)}
    # pivot column index -> reduced row (leading coefficient normalized to 1);
    # a pivot row has no entries at columns left of its pivot
    pivots: dict[int, dict[int, Fraction]] = {}
    for raw in rows:
        row: dict[int, Fraction] = {}
        for c, v in raw.items():
            v = Fraction(v)
            if v:
                row[col_index[c]] = v
        _add_row(row, pivots)

    basis: list[SparseVec] = []
    for free in range(len(cols)):
        if free in pivots:
            continue
        vec: dict[int, Fraction] = {free: Fraction(1)}
        # back-substitute highest pivot first; pivot rows only reach rightwards
        for p in sorted(pivots, reverse=True):
            acc = _ZERO
            for c, v in pivots[p].items():
                if c != p and c in vec:
                    acc += v * vec[c]
            if acc:
                vec[p] = -acc
        basis.append({cols[i]: v for i, v in vec.items()})
    return basis


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
