"""Reference implementations the tests compare the package against.

``fraction_nullspace`` is the plain ``Fraction`` Gauss elimination that
``heisvir.linalg.sparse_nullspace`` replaced: every row is reduced exactly,
with the same smallest-column pivot rule, so for a fixed column order it
returns the same canonical basis.  It is slow and kept only as an oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Sequence

_ZERO = Fraction(0)


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
