"""Weight module windows: pointwise actions, axioms, quotients, JSON specs."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from heisvir import (
    Aa,
    Ba,
    CD,
    ExtCaseA,
    ExtCaseB,
    IndexOutOfFamily,
    IntermediateParams,
    ModuleWindow,
    VPrime,
    Vab,
    build_window,
    igen,
    irreducible_quotient,
    is_reducible,
    module_defects,
    module_spec_from_json,
    module_spec_to_json,
    rescale_window,
    windows_equal,
    x_blocks,
    xgen,
)
from heisvir.scalars import random_rational
from heisvir.verma import HighestWeight, truncation_window

from oracles import module_defects_oracle

F = Fraction


def test_intermediate_action_values():
    p = IntermediateParams(F(1, 2), F(1), F(7))
    assert x_blocks(p, 2, 0) == [(2, ((F(5, 2),),))]
    w = build_window(p, 5)
    assert w.actions[(igen(3), 1)] == [(4, ((F(7),),))]
    assert (CD, 5) not in w.actions and w.apply(CD, w.basis_vec(5)) == {}
    # coefficient alpha + k + beta*i vanishing drops the term entirely
    q = IntermediateParams(F(0), F(0), F(0))
    assert x_blocks(q, 3, 0) == []
    assert (igen(3), 0) not in build_window(q, 5).actions


def test_vir_action_rank_one_families():
    assert x_blocks(Vab(alpha=F(1, 3), beta=F(2)), 2, 1) == [(3, ((F(16, 3),),))]
    assert x_blocks(Aa(a=F(3)), 2, 0) == [(2, ((F(10),),))]
    assert x_blocks(Aa(a=F(3)), 2, 1) == [(3, ((F(3),),))]
    a = F(5, 7)
    assert x_blocks(Ba(a=a), 2, -2) == [(0, ((-2 * (2 + a),),))]
    assert x_blocks(Ba(a=a), 2, 3) == [(5, ((F(3),),))]
    assert x_blocks(Ba(a=a), 2, 0) == []


def test_vir_action_extension_blocks():
    a = F(1, 3)
    [(target, block)] = x_blocks(ExtCaseA(alpha=a), 2, 1)
    assert target == 3
    assert block == ((a + 1, F(-2)), (F(0), a + 1))

    [(target, block)] = x_blocks(ExtCaseB(alpha=F(1, 2)), 2, 0)
    assert target == 2
    assert block == ((F(1, 2), F(4, 15)), (F(0), F(1, 2)))
    # degree 1 stays uncoupled, degree -2 flips the sign of the coupling
    [(_, b1)] = x_blocks(ExtCaseB(alpha=F(1, 2)), 1, 0)
    assert b1[0][1] == 0
    [(_, bm2)] = x_blocks(ExtCaseB(alpha=F(1, 2)), -2, 0)
    assert bm2[0][1] == -1 / ((F(1, 2) - 1) * (F(1, 2) - 2))


def test_ext_b_family_boundaries():
    with pytest.raises(IndexOutOfFamily):
        x_blocks(ExtCaseB(alpha=F(1, 2)), 3, 0)
    with pytest.raises(ValueError):
        ExtCaseB(alpha=F(2))
    with pytest.raises(ValueError):
        ExtCaseA(alpha=F(-1))


def test_build_window_shape():
    p = IntermediateParams(F(1, 2), F(0), F(0))
    w = build_window(p, 2)
    assert w.offset == F(1, 2)
    assert dict(w.dims) == {k: 1 for k in range(-2, 3)}
    # F = 0: no I-entries are stored at all
    assert len(w.actions) == 25
    assert all(g.kind == "x" for g, _ in w.actions)
    [(target, block)] = w.actions[(xgen(2), 1)]
    assert target == 3 and block == ((F(3, 2),),)


def test_window_apply_and_truncation():
    p = IntermediateParams(F(1, 3), F(2), F(5))
    w = build_window(p, 3)
    v = w.basis_vec(2)
    # target index 4 lies outside the window, so the image truncates to zero
    assert w.apply(xgen(2), v) == {}
    assert w.apply(igen(-1), w.basis_vec(0)) == {(-1, 0): F(5)}


def test_module_axiom_random_tuples():
    rng = random.Random(2)
    for _ in range(8):
        p = IntermediateParams(
            random_rational(rng), random_rational(rng), random_rational(rng)
        )
        assert module_defects(build_window(p, 7), 3) == []


def test_module_axiom_vir_families():
    a = F(2, 5)
    for spec in [Vab(alpha=a, beta=F(3)), Aa(a=a), Ba(a=a), VPrime(), ExtCaseA(alpha=a)]:
        assert module_defects(build_window(spec, 7), 3) == []


def test_module_axiom_ext_b_composites():
    # composite degrees only exist through brackets; bound both layers by 2
    w = build_window(ExtCaseB(alpha=F(1, 2)), 7)
    assert module_defects(w, 2, composite_bound=2) == []


def test_corrupted_window_has_defects():
    p = IntermediateParams(F(1, 3), F(2), F(5))
    w = build_window(p, 5)
    actions = dict(w.actions)
    actions[(igen(1), 0)] = [(1, ((F(99),),))]
    broken = ModuleWindow(w.offset, w.n, dict(w.dims), actions, dict(w.central_scalars))
    assert module_defects(broken, 2) != []
    assert module_defects(broken, 2) == module_defects_oracle(broken, 2)


def _corrupt(w: ModuleWindow, entries: dict) -> ModuleWindow:
    """Overwrite the rank-one block of each (generator, index) in entries."""
    bad = {(g, k): [(k + g.n, ((F(v),),))] for (g, k), v in entries.items()}
    return replace(w, actions={**w.actions, **bad})


@pytest.mark.parametrize(
    "window, degree, broken",
    [
        # dense rank-one windows, one of them with a corrupted x and I block
        (build_window(IntermediateParams(F(2, 5), F(-7, 5), F(3)), 9), 4, False),
        (
            _corrupt(
                build_window(IntermediateParams(F(1, 3), F(2), F(5)), 9),
                {(xgen(2), 1): 7, (igen(-3), -2): F(1, 2)},
            ),
            4,
            True,
        ),
        # weight spaces of dimension above one, with central scalars that
        # disagree with the highest weight the blocks were built from
        (
            replace(
                truncation_window(HighestWeight(F(1, 2), 3, F(-1, 3), 2, 1), 5),
                central_scalars={"CD": F(1), "CDI": F(0), "CI": F(-2)},
            ),
            2,
            True,
        ),
    ],
)
def test_module_defects_match_oracle(window, degree, broken):
    got = module_defects(window, degree)
    assert bool(got) == broken
    assert got == module_defects_oracle(window, degree)
    assert module_defects(window, degree, include_i=False, composite_bound=2) == (
        module_defects_oracle(window, degree, include_i=False, composite_bound=2)
    )


def test_vprime_window():
    w = build_window(VPrime(), 4)
    assert w.dim(0) == 0
    assert w.dim(1) == 1 and w.dim(-4) == 1
    # x_i v_{-i} lands on the deleted slot and is stored as nothing
    assert (xgen(2), -2) not in w.actions
    [(target, block)] = w.actions[(xgen(2), 1)]
    assert target == 3 and block == ((F(3),),)


def test_is_reducible_truth_table():
    assert is_reducible(IntermediateParams(F(0), F(0), F(0)))
    assert is_reducible(IntermediateParams(F(-3), F(1), F(0)))
    assert not is_reducible(IntermediateParams(F(1, 2), F(0), F(0)))
    assert not is_reducible(IntermediateParams(F(0), F(2), F(0)))
    assert not is_reducible(IntermediateParams(F(0), F(0), F(1)))


def test_irreducible_quotient_nonreducible_is_plain():
    p = IntermediateParams(F(1, 2), F(0), F(3))
    assert windows_equal(irreducible_quotient(p, 4), build_window(p, 4))


def test_irreducible_quotient_reducible_is_vprime():
    q = irreducible_quotient(IntermediateParams(F(0), F(0), F(0)), 4)
    assert windows_equal(q, build_window(VPrime(), 4))
    assert q.dim(0) == 0


def test_rescale_round_trip():
    p = IntermediateParams(F(1, 3), F(1), F(2))
    w = build_window(p, 4)
    scale = lambda k: F(1, 3) + k
    back = rescale_window(rescale_window(w, scale), lambda k: 1 / scale(k))
    assert windows_equal(w, back)
    with pytest.raises(ZeroDivisionError):
        rescale_window(w, lambda k: F(k))


def test_windows_equal_detects_changes():
    p = IntermediateParams(F(1, 3), F(1), F(2))
    w = build_window(p, 3)
    other = build_window(IntermediateParams(F(1, 3), F(1), F(3)), 3)
    assert not windows_equal(w, other)
    assert windows_equal(w, build_window(p, 3))


def test_ext_unprimed_restriction_is_backbone():
    a = F(1, 3)
    base = build_window(Vab(alpha=a, beta=F(0)), 4)

    def unprimed(w: ModuleWindow) -> ModuleWindow:
        acts = {
            key: [(t, ((b[0][0],),)) for t, b in blocks]
            for key, blocks in w.actions.items()
        }
        return ModuleWindow(w.offset, w.n, {k: 1 for k in w.dims}, acts, {})

    stripped = ModuleWindow(base.offset, base.n, dict(base.dims), dict(base.actions), {})
    assert windows_equal(unprimed(build_window(ExtCaseA(alpha=a), 4)), stripped)

    wb = unprimed(build_window(ExtCaseB(alpha=a), 4))
    near = {
        key: blocks for key, blocks in stripped.actions.items() if abs(key[0].degree) <= 2
    }
    assert windows_equal(
        wb, ModuleWindow(base.offset, base.n, dict(base.dims), near, {})
    )


@pytest.mark.parametrize(
    "spec",
    [
        IntermediateParams(F(1, 2), F(-2, 3), F(4)),
        Aa(a=F(-2)),
        Ba(a=F(7, 2)),
        ExtCaseA(alpha=F(1, 3)),
        ExtCaseB(alpha=F(-5, 4)),
        VPrime(),
    ],
)
def test_module_spec_json_round_trip(spec):
    data = module_spec_to_json(spec)
    assert isinstance(data["family"], str)
    assert module_spec_from_json(data) == spec


def test_module_spec_json_rejects_unknown():
    with pytest.raises(ValueError):
        module_spec_from_json({"family": "nope"})
    with pytest.raises(ValueError):
        module_spec_from_json({"family": "V", "alpha": "1/2"})
