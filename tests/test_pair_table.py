"""Differential tests of the pair table of structure constants.

``bracket``, ``jacobiator`` and Verma straightening read the structure
constants from one cached table of generator pairs and never build an
intermediate element.  Each is compared here against the element-by-element
versions in ``oracles`` on random elements, words and highest weights.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from heisvir import CD, CDI, CI, Gen, HighestWeight, LieElement, bracket, jacobiator
from heisvir.verma import _straighten, level_basis

from oracles import bracket_oracle, jacobiator_oracle, straighten_oracle

_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)
_gens = st.one_of(
    st.builds(Gen, st.sampled_from(["x", "I"]), st.integers(-12, 12)),
    st.sampled_from([CD, CDI, CI]),
)


@st.composite
def elements(draw) -> LieElement:
    """Sums of random terms; some terms come back negated, so they cancel."""
    terms = draw(st.lists(st.tuples(_gens, _coeffs), max_size=6))
    cancelled = draw(st.lists(st.sampled_from(terms), max_size=3)) if terms else []
    total = LieElement()
    for g, c in terms + [(g, -c) for g, c in cancelled]:
        total = total + LieElement.from_gen(g, c)
    return total


_operands = st.one_of(elements(), _gens)


@settings(max_examples=300, deadline=None)
@given(_operands, _operands, _coeffs)
def test_bracket_matches_oracle(a, b, q):
    result = bracket(a, b)
    assert result == bracket_oracle(a, b)
    assert all(type(c) is Fraction and c for _, c in result.items())
    if isinstance(a, LieElement) and isinstance(b, LieElement):
        # brackets whose terms cancel, partly or entirely
        assert bracket(a, a).is_zero()
        assert bracket(a, b + a.scale(q)) == bracket(a, b)


@settings(max_examples=150, deadline=None)
@given(_operands, _operands, _operands)
def test_jacobiator_vanishes_on_random_elements(a, b, c):
    assert jacobiator(a, b, c).is_zero()
    assert jacobiator_oracle(a, b, c).is_zero()


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)
_short_gens = st.one_of(
    st.builds(Gen, st.sampled_from(["x", "I"]), st.integers(-4, 4)),
    st.sampled_from([CD, CDI, CI]),
)


@st.composite
def words(draw) -> tuple[Gen, ...]:
    """One to three arbitrary generators before a PBW word of depth <= 6."""
    head = draw(st.lists(_short_gens, min_size=1, max_size=3))
    mono = draw(st.sampled_from(level_basis(draw(st.integers(0, 6)))))
    return tuple(head) + mono.word()


@settings(max_examples=150, deadline=None)
@given(words(), st.builds(HighestWeight, *[_rationals] * 5))
def test_straighten_matches_oracle(word, hw):
    assert dict(_straighten(word, hw)) == straighten_oracle(word, hw)
