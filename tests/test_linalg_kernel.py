"""Differential tests of the nullspace kernel.

``sparse_nullspace`` must return exactly the basis of the plain ``Fraction``
elimination in ``oracles.fraction_nullspace`` and, when sympy is importable,
the nullspace sympy computes over QQ, normalized to the same canonical form.
The inputs are random sparse rational matrices and the rows that the
classifier, the coupling check and the Verma singular search really solve.
Both bases must also list each vector's keys in the same order.  On those
real rows the kernel must come from the mod-p lift alone, with no exact
elimination, and the rational reconstruction behind the lift is tested on
its own.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisvir import classifier, linalg, matrix_system, verma
from heisvir.classifier import build_scalar_system, solve_scalar, solve_system
from heisvir.linalg import sparse_nullspace
from heisvir.matrix_system import (
    DiagonalPair,
    build_matrix_system,
    verify_coupling_obstruction,
)
from heisvir.modules import ExtCaseA, ExtCaseB
from heisvir.verma import HighestWeight, singular_space

from oracles import fraction_nullspace

F = Fraction
P = 2**61 - 1
BOUND = isqrt(P // 2)  # a lifted numerator or denominator is at most this


def _items(basis: list[dict]) -> list[list]:
    """Each vector's (key, value) pairs in insertion order."""
    return [list(vec.items()) for vec in basis]


def _residue(q) -> int:
    q = F(q)
    return q.numerator * pow(q.denominator, -1, P) % P


@settings(max_examples=300, deadline=None)
@given(st.integers(-BOUND, BOUND), st.integers(1, BOUND))
def test_reconstruction_round_trips_inside_the_bound(num, den):
    assert linalg._rational(_residue(F(num, den))) == F(num, den)


@pytest.mark.parametrize(
    "q", [F(0), F(1), F(-1), F(BOUND), F(-BOUND), F(1, BOUND), F(-1, BOUND),
          F(BOUND, BOUND - 1), F(-BOUND, BOUND - 1), F(-7, 3)],
)
def test_reconstruction_at_the_bound(q):
    assert linalg._rational(_residue(q)) == q


@pytest.mark.parametrize(
    "q", [F(BOUND + 1), F(-BOUND - 1), F(1, BOUND + 1), F(-1, BOUND + 1),
          F(BOUND + 1, BOUND), F(-BOUND, BOUND + 1)],
)
def test_reconstruction_fails_just_past_the_bound(q):
    assert linalg._rational(_residue(q)) is None

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
    assert _items(sparse_nullspace(rows, cols)) == _items(fraction_nullspace(rows, cols))


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
def test_kernel_matches_sympy(case):
    rows, cols = case
    assert sparse_nullspace(rows, cols) == _sympy_nullspace(rows, cols)


def _spy_moduli(monkeypatch) -> list[int]:
    """The ``modulus`` of every later ``linalg._add_row`` call, 0 if exact."""
    moduli = []
    add_row = linalg._add_row

    def spy(row, pivots, modulus=0):
        moduli.append(modulus)
        return add_row(row, pivots, modulus)

    monkeypatch.setattr(linalg, "_add_row", spy)
    return moduli


def test_rows_equal_mod_p_fall_back_to_exact_elimination(monkeypatch):
    moduli = _spy_moduli(monkeypatch)
    for rows in (
        # mod p the second row repeats the first, so the mod-p pass keeps one
        # row and its lifted kernel vector fails the exact check on the other
        [{0: 1, 1: 1}, {0: 1, 1: 1 + P}],
        # the kernel entry 1/2^40 is past the bound: 2^-40 = 2^21 mod p lifts
        # to 2^21, which fails the certificate
        [{0: 2**40, 1: -1}],
    ):
        moduli.clear()
        got = sparse_nullspace(rows, [0, 1])
        assert 0 in moduli  # the exact elimination ran
        assert _items(got) == _items(fraction_nullspace(rows, [0, 1]))


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


# real kernels whose entries all lift, so no exact elimination may run
LIFTED_SYSTEMS = {
    "dense(2/5,-7/5,6)": REAL_SYSTEMS["dense(2/5,-7/5,6)"],
    "rescaled(1/5,0,6)": (classifier, lambda: solve_scalar(F(1, 5), F(0), 6)),
    **{
        f"coupling {type(fixture).__name__}({alpha}) n=6": (
            matrix_system,
            lambda fixture=fixture, alpha=alpha: verify_coupling_obstruction(
                build_matrix_system(2, fixture, alpha, 6)
            ),
        )
        for fixture, alpha in [
            (ExtCaseA(F(4, 5)), F(4, 5)),
            (ExtCaseB(F(1, 5)), F(1, 5)),
            (DiagonalPair(F(0), F(0)), F(9, 5)),
        ]
    },
    "verma zero weight depth 3": (
        verma,
        lambda: singular_space(HighestWeight(F(0), F(0), F(0), F(0), F(0)), 3),
    ),
}


def _capture(systems: dict) -> dict:
    """(rows, cols) of every nullspace each real computation asks for."""
    seen = {}
    for name, (module, call) in systems.items():
        calls = seen[name] = []

        def spy(rows, cols, calls=calls):
            calls.append((list(rows), list(cols)))
            return sparse_nullspace(*calls[-1])

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(module, "sparse_nullspace", spy)
            call()
    return seen


@pytest.fixture(scope="module")
def real_systems():
    return _capture(REAL_SYSTEMS)


@pytest.fixture(scope="module")
def lifted_systems():
    return _capture(LIFTED_SYSTEMS)


@pytest.mark.parametrize("name", list(REAL_SYSTEMS))
def test_real_systems_match_fraction_oracle(real_systems, name):
    assert real_systems[name]
    for rows, cols in real_systems[name]:
        got = sparse_nullspace(rows, cols)
        assert _items(got) == _items(fraction_nullspace(rows, cols))


@pytest.mark.parametrize("name", list(LIFTED_SYSTEMS))
def test_real_kernels_need_no_exact_elimination(lifted_systems, name, monkeypatch):
    moduli = _spy_moduli(monkeypatch)
    kernels = [sparse_nullspace(rows, cols) for rows, cols in lifted_systems[name]]
    assert any(kernels)  # some kernel is nonzero, so a lift was certified
    assert moduli and all(moduli)


@pytest.mark.parametrize("name", list(REAL_SYSTEMS))
def test_real_systems_match_sympy(real_systems, name):
    for rows, cols in real_systems[name]:
        assert sparse_nullspace(rows, cols) == _sympy_nullspace(rows, cols)
