"""Differential tests of the nullspace kernel.

``sparse_nullspace`` must return exactly the basis of the plain ``Fraction``
elimination in ``oracles.fraction_nullspace`` and, when sympy is importable,
the nullspace sympy computes over QQ, normalized to the same canonical form.
The inputs are random sparse rational matrices and the rows that the
classifier, the coupling check and the Verma singular search really solve.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisvir import classifier, matrix_system, verma
from heisvir.classifier import build_scalar_system, solve_scalar, solve_system
from heisvir.linalg import sparse_nullspace
from heisvir.matrix_system import build_matrix_system, verify_coupling_obstruction
from heisvir.modules import ExtCaseA
from heisvir.verma import HighestWeight, singular_space

from oracles import fraction_nullspace

F = Fraction
P = 2**61 - 1

_BIG = [P - 1, P, P + 1, 2 * P, 2**61, -(2**64) + 3, F(P, 3), F(1, P), F(5, P + 1)]
_entries = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.sampled_from(_BIG),
)
_scales = st.sampled_from([2, -1, F(3, 7), P, F(1, P + 2)])


@st.composite
def sparse_matrices(draw):
    ncols = draw(st.integers(1, 7))
    cols = draw(st.permutations([f"c{k}" for k in range(ncols)]))
    rows = draw(
        st.lists(
            st.dictionaries(st.sampled_from(cols), _entries, max_size=4),
            max_size=8,
        )
    )
    extra = []
    for row in rows:
        kind = draw(st.sampled_from(["none", "duplicate", "scaled", "shifted"]))
        if kind == "duplicate":
            extra.append(dict(row))
        elif kind == "scaled":
            scale = draw(_scales)
            extra.append({c: scale * v for c, v in row.items()})
        elif kind == "shifted" and row:
            # equal to ``row`` mod p, but not a multiple of it over Q
            c = draw(st.sampled_from(sorted(row)))
            extra.append({**row, c: row[c] + P})
    rows += extra + draw(st.lists(st.sampled_from([{}, {cols[0]: 0}]), max_size=2))
    return draw(st.permutations(rows)), cols


def _sympy_nullspace(rows, cols) -> list[dict]:
    """sympy's QQ nullspace, each vector scaled to 1 at its free column."""
    dm = pytest.importorskip("sympy.polys.matrices")
    qq = pytest.importorskip("sympy").QQ
    index = {c: k for k, c in enumerate(cols)}
    dense = [[qq(0)] * len(cols) for _ in rows]
    for r, row in enumerate(rows):
        for c, v in row.items():
            v = F(v)
            dense[r][index[c]] = qq(v.numerator, v.denominator)
    if not rows:
        return [{c: F(1)} for c in cols]
    null = dm.DomainMatrix(dense, (len(rows), len(cols)), qq).nullspace()
    basis = []
    for vec in null.to_list():
        entries = {
            cols[k]: F(int(x.numerator), int(x.denominator))
            for k, x in enumerate(vec)
            if x
        }
        # the free column of an echelon-form kernel vector is its last entry
        last = entries[max(entries, key=index.__getitem__)]
        basis.append({c: v / last for c, v in entries.items()})
    return sorted(basis, key=lambda v: max(index[c] for c in v))


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_kernel_matches_fraction_oracle(case):
    rows, cols = case
    assert sparse_nullspace(rows, cols) == fraction_nullspace(rows, cols)


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
def test_kernel_matches_sympy(case):
    rows, cols = case
    assert sparse_nullspace(rows, cols) == _sympy_nullspace(rows, cols)


def test_rows_equal_mod_p_fall_back_to_exact_elimination():
    # mod p the second row repeats the first, so the mod-p pass keeps one row
    # and its kernel vector fails the exact check on the other
    rows = [{0: 1, 1: 1}, {0: 1, 1: 1 + P}]
    assert sparse_nullspace(rows, [0, 1]) == []
    assert fraction_nullspace(rows, [0, 1]) == []


A = F(1, 3)
REAL_SYSTEMS = {
    "dense(2/5,-7/5,6)": (classifier, lambda: solve_scalar(F(2, 5), F(-7, 5), 6)),
    "punctured(0,0,6)": (
        classifier,
        lambda: solve_system(build_scalar_system(F(0), F(0), 6, True)),
    ),
    "coupling ExtCaseA(1/3) n=5": (
        matrix_system,
        lambda: verify_coupling_obstruction(build_matrix_system(2, ExtCaseA(A), A, 5)),
    ),
    "verma depth 5": (
        verma,
        lambda: (
            singular_space(HighestWeight(F(0), F(0), F(0), F(0), F(0)), 5),
            singular_space(HighestWeight(F(1, 2), F(3), F(-1, 3), F(2), F(1)), 5),
        ),
    ),
}


@pytest.fixture(scope="module")
def real_systems():
    """(rows, cols) of every nullspace each real computation asks for."""
    seen = {}
    for name, (module, call) in REAL_SYSTEMS.items():
        calls = seen[name] = []

        def spy(rows, cols, calls=calls):
            calls.append((list(rows), list(cols)))
            return sparse_nullspace(*calls[-1])

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(module, "sparse_nullspace", spy)
            call()
    return seen


@pytest.mark.parametrize("name", list(REAL_SYSTEMS))
def test_real_systems_match_fraction_oracle(real_systems, name):
    assert real_systems[name]
    for rows, cols in real_systems[name]:
        assert sparse_nullspace(rows, cols) == fraction_nullspace(rows, cols)


@pytest.mark.parametrize("name", list(REAL_SYSTEMS))
def test_real_systems_match_sympy(real_systems, name):
    for rows, cols in real_systems[name]:
        assert sparse_nullspace(rows, cols) == _sympy_nullspace(rows, cols)
