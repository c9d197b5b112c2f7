"""The twisted Heisenberg-Virasoro Lie algebra.

Basis: Virasoro-like generators ``x[n]``, Heisenberg generators ``I[n]``
(n ranging over the integers) and three central elements ``CD``, ``CDI``,
``CI``. The nonzero brackets are

    [x[n], x[m]] = (m - n) x[n+m]  + delta(n, -m) (n^3 - n)/12 CD
    [x[n], I[m]] = m I[n+m]        + delta(n, -m) (n^2 + n)   CDI
    [I[n], I[m]] = n delta(n, -m) CI

extended bilinearly. ``LieElement`` is a finitely supported rational linear
combination of basis generators; ``bracket`` implements the table above.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

from .scalars import Rational, rat_str

_KINDS = ("x", "I", "CD", "CDI", "CI")
_CENTRAL = frozenset({"CD", "CDI", "CI"})
_KIND_ORDER = {k: i for i, k in enumerate(_KINDS)}
_ZERO = Fraction(0)
_ONE = Fraction(1)

#: Sentinel returned by :func:`degree` for inhomogeneous elements.
NONHOMOGENEOUS = object()


@dataclass(frozen=True, slots=True)
class Gen:
    """A basis generator: kind in {"x","I","CD","CDI","CI"}, index n (0 for centers)."""

    kind: str
    n: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind in _CENTRAL and self.n != 0:
            raise ValueError(f"central generator {self.kind} carries no index")

    @property
    def central(self) -> bool:
        return self.kind in _CENTRAL

    @property
    def degree(self) -> int:
        """Weight-grading degree: the index for x/I, zero for centers."""
        return self.n

    def sort_key(self) -> tuple[int, int]:
        return (_KIND_ORDER[self.kind], self.n)

    def __str__(self) -> str:
        if self.central:
            return self.kind
        return f"{self.kind}[{self.n}]"


def xgen(n: int) -> Gen:
    return Gen("x", n)


def igen(n: int) -> Gen:
    return Gen("I", n)


CD = Gen("CD")
CDI = Gen("CDI")
CI = Gen("CI")


class LieElement:
    """A finite rational linear combination of basis generators.

    Immutable in practice: all arithmetic returns fresh elements, and the
    coefficient table is pruned of zeros so equality and hashing are canonical.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict[Gen, Fraction] | None = None) -> None:
        table: dict[Gen, Fraction] = {}
        if coeffs:
            for g, c in coeffs.items():
                c = Fraction(c)
                if c:
                    table[g] = c
        self._coeffs = table

    @classmethod
    def _from_table(cls, table: dict[Gen, Fraction]) -> "LieElement":
        """Wrap a table whose values are already Fractions, dropping zeros."""
        el = cls.__new__(cls)
        el._coeffs = {g: c for g, c in table.items() if c}
        return el

    @classmethod
    def from_gen(cls, g: Gen, coeff: Rational = Fraction(1)) -> "LieElement":
        return cls({g: Fraction(coeff)})

    @classmethod
    def zero(cls) -> "LieElement":
        return cls()

    def coeff(self, g: Gen) -> Fraction:
        return self._coeffs.get(g, Fraction(0))

    def items(self) -> Iterator[tuple[Gen, Fraction]]:
        return iter(sorted(self._coeffs.items(), key=lambda kv: kv[0].sort_key()))

    def support(self) -> list[Gen]:
        return sorted(self._coeffs, key=Gen.sort_key)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __add__(self, other: "LieElement") -> "LieElement":
        if not isinstance(other, LieElement):
            return NotImplemented
        table = dict(self._coeffs)
        for g, c in other._coeffs.items():
            table[g] = table.get(g, _ZERO) + c
        return LieElement._from_table(table)

    def __sub__(self, other: "LieElement") -> "LieElement":
        if not isinstance(other, LieElement):
            return NotImplemented
        table = dict(self._coeffs)
        for g, c in other._coeffs.items():
            table[g] = table.get(g, _ZERO) - c
        return LieElement._from_table(table)

    def __neg__(self) -> "LieElement":
        return LieElement._from_table({g: -c for g, c in self._coeffs.items()})

    def scale(self, scalar: Rational) -> "LieElement":
        s = Fraction(scalar)
        if not s:
            return LieElement()
        return LieElement._from_table({g: c * s for g, c in self._coeffs.items()})

    def __mul__(self, scalar: object) -> "LieElement":
        if isinstance(scalar, (int, Fraction)):
            return self.scale(scalar)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LieElement):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"LieElement({format_element(self)!r})"


@lru_cache(maxsize=1 << 16)  # bounded for callers that reach large indices
def _pair(a: Gen, b: Gen) -> tuple[tuple[Gen, Fraction], ...]:
    """Structure constants: [a, b] of two generators as (generator, coefficient)
    terms, each generator once and every coefficient nonzero."""
    if a.central or b.central:
        return ()
    n, m = a.n, b.n
    if a.kind == "I" and b.kind == "x":
        return tuple((g, -c) for g, c in _pair(b, a))
    terms: list[tuple[Gen, Fraction]] = []
    if a.kind == "I":  # with I: pure center
        if n == -m and n != 0:
            terms.append((CI, Fraction(n)))
    elif b.kind == "x":
        if m != n:
            terms.append((xgen(n + m), Fraction(m - n)))
        if n == -m and n**3 != n:
            terms.append((CD, Fraction(n**3 - n, 12)))
    else:
        if m != 0:
            terms.append((igen(n + m), Fraction(m)))
        if n == -m and n * n != -n:
            terms.append((CDI, Fraction(n * n + n)))
    return tuple(terms)


def _table(a: LieElement | Gen) -> dict[Gen, Fraction]:
    return {a: _ONE} if isinstance(a, Gen) else a._coeffs


def _bracket_into(
    out: dict[Gen, Fraction], left: dict[Gen, Fraction], right: dict[Gen, Fraction]
) -> dict[Gen, Fraction]:
    """Add [left, right] of two coefficient tables into ``out``; zeros may stay."""
    for ga, ca in left.items():
        for gb, cb in right.items():
            terms = _pair(ga, gb)
            if not terms:
                continue
            # skip multiplications by one: basis arguments are the common case
            cab = cb if ca is _ONE else ca if cb is _ONE else ca * cb
            for g, c in terms:
                out[g] = out.get(g, _ZERO) + (c if cab is _ONE else cab * c)
    return out


def bracket(a: LieElement | Gen, b: LieElement | Gen) -> LieElement:
    """Lie bracket, extended bilinearly from the basis table."""
    return LieElement._from_table(_bracket_into({}, _table(a), _table(b)))


def jacobiator(a: LieElement | Gen, b: LieElement | Gen, c: LieElement | Gen) -> LieElement:
    """[a,[b,c]] + [b,[c,a]] + [c,[a,b]]; vanishes identically for a Lie algebra."""
    ta, tb, tc = _table(a), _table(b), _table(c)
    out: dict[Gen, Fraction] = {}
    for x, y, z in ((ta, tb, tc), (tb, tc, ta), (tc, ta, tb)):
        _bracket_into(out, x, _bracket_into({}, y, z))
    return LieElement._from_table(out)


def degree(obj: LieElement | Gen):
    """Weight degree of a homogeneous element.

    Generators x[n], I[n] have degree n and centers degree 0. The zero element
    reports degree 0; a mixed-degree element reports the NONHOMOGENEOUS
    sentinel.
    """
    if isinstance(obj, Gen):
        return obj.degree
    degs = {g.degree for g in obj._coeffs}
    if not degs:
        return 0
    if len(degs) == 1:
        return degs.pop()
    return NONHOMOGENEOUS


def vir_embed(e: Rational, n: int) -> LieElement:
    """The n-th generator of the Virasoro copy twisted by the parameter e.

    For n != 0 this is x[n] + e I[n]; the zero mode picks up central
    corrections so that the embedded family closes under the bracket:

        [emb(n), emb(m)] = (m - n) emb(n + m)        for n + m != 0
        [emb(n), emb(-n)] = -2n emb(0) + (n^3 - n)/12 CD
    """
    e = Fraction(e)
    if n != 0:
        return LieElement({xgen(n): Fraction(1), igen(n): e})
    return LieElement(
        {
            xgen(0): Fraction(1),
            igen(0): e,
            CDI: -e,
            CI: -(e * e) / 2,
        }
    )


_TERM_RE = re.compile(
    r"""^\s*
        (?:(?P<coeff>[+-]?\d+(?:/\d+)?)\s*\*\s*)?   # optional "c*" prefix
        (?:
            (?P<kind>[xI])\[(?P<idx>-?\d+)\]
          | (?P<central>CD|CDI|CI)
        )
        \s*$""",
    re.VERBOSE,
)


def parse_gen(text: str) -> Gen:
    """Parse a single generator: "x[2]", "I[-1]", "CD", "CDI", "CI"."""
    s = text.strip()
    m = _TERM_RE.match(s)
    if m is None or m.group("coeff") is not None:
        raise ValueError(f"not a generator: {text!r}")
    if m.group("central"):
        return Gen(m.group("central"))
    return Gen(m.group("kind"), int(m.group("idx")))


def parse_element(text: str) -> LieElement:
    """Parse a linear combination like "3/2*x[2] - I[-1] + CD".

    Each term is an optional sign, an optional rational coefficient with "*",
    and a generator. Bare generators have coefficient 1.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty element")
    # split into signed terms, keeping the signs
    chunks = re.split(r"(?<![*/+\-[])\s*([+-])\s*", s)
    # chunks alternates [term, sign, term, sign, ...]; a leading sign yields
    # an empty first chunk
    terms: list[tuple[int, str]] = []
    sign = 1
    idx = 0
    if chunks and chunks[0] == "":
        idx = 1
    while idx < len(chunks):
        piece = chunks[idx]
        if piece in ("+", "-"):
            sign = 1 if piece == "+" else -1
            idx += 1
            continue
        terms.append((sign, piece))
        sign = 1
        idx += 1
    total = LieElement()
    for sgn, piece in terms:
        m = _TERM_RE.match(piece.strip())
        if m is None:
            raise ValueError(f"bad term {piece!r} in element {text!r}")
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        if m.group("central"):
            g = Gen(m.group("central"))
        else:
            g = Gen(m.group("kind"), int(m.group("idx")))
        total = total + LieElement.from_gen(g, sgn * coeff)
    if not terms:
        raise ValueError(f"no terms in element {text!r}")
    return total


def format_element(el: LieElement) -> str:
    """Canonical string form, terms in basis order; zero prints as "0"."""
    parts: list[str] = []
    for g, c in el.items():
        if c == 1:
            term = str(g)
        elif c == -1:
            term = f"-{g}"
        else:
            term = f"{rat_str(c)}*{g}"
        parts.append(term)
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


def basis_window(radius: int) -> list[Gen]:
    """All generators with |index| <= radius, plus the three centers."""
    gens: list[Gen] = [xgen(n) for n in range(-radius, radius + 1)]
    gens += [igen(n) for n in range(-radius, radius + 1)]
    gens += [CD, CDI, CI]
    return gens
