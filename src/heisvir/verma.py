"""Truncated universal highest-weight modules.

A highest weight vector is killed by every positive-index generator while
x[0], I[0] and the three centers act by the five stored scalars.  Below it the
module is free over the negative half, so depth-d weight spaces are spanned by
pairs of partitions: one for the x factors, one for the I factors.  Products
of generators are evaluated by straightening words against this basis with
exact rational coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import pairwise

from .algebra import Gen, LieElement, _pair, igen, xgen
from .algebra import bracket  # noqa: F401  re-exported: the benchmark wraps verma.bracket
from .linalg import sparse_nullspace
from .modules import Block, ModuleWindow
from .scalars import rat

_ZERO = Fraction(0)
_ONE = Fraction(1)
_CENTRAL_FIELDS = {"CD": "c_d", "CDI": "c_di", "CI": "c_i"}


@dataclass(frozen=True, slots=True)
class HighestWeight:
    """The five scalars (x[0], I[0], CD, CDI, CI) defining a highest weight."""

    lam: Fraction
    lam_i: Fraction
    c_d: Fraction
    c_di: Fraction
    c_i: Fraction

    def __post_init__(self) -> None:
        for name in self.__slots__:
            object.__setattr__(self, name, rat(getattr(self, name)))

    def central_scalar(self, kind: str) -> Fraction:
        return getattr(self, _CENTRAL_FIELDS[kind])

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
        return (self.lam, self.lam_i, self.c_d, self.c_di, self.c_i)


def _check_partition(part: tuple[int, ...], label: str) -> None:
    for j, entry in enumerate(part):
        if not isinstance(entry, int) or entry < 1:
            raise ValueError(f"{label} entries must be positive integers")
        if j and part[j - 1] < entry:
            raise ValueError(f"{label} must be weakly decreasing")


@dataclass(frozen=True, slots=True)
class PBWMonomial:
    """x factors left of I factors; parts list the positive k of x[-k] / I[-k]."""

    xpart: tuple[int, ...] = ()
    ipart: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "xpart", tuple(self.xpart))
        object.__setattr__(self, "ipart", tuple(self.ipart))
        _check_partition(self.xpart, "xpart")
        _check_partition(self.ipart, "ipart")

    @property
    def depth(self) -> int:
        return sum(self.xpart) + sum(self.ipart)

    def word(self) -> tuple[Gen, ...]:
        return tuple(xgen(-k) for k in self.xpart) + tuple(
            igen(-k) for k in self.ipart
        )

    def __str__(self) -> str:
        if not self.xpart and not self.ipart:
            return "1"
        return "".join(f"x[{-k}]" for k in self.xpart) + "".join(
            f"I[{-k}]" for k in self.ipart
        )


@dataclass(frozen=True)
class VermaVector:
    """Homogeneous vector at one depth; zero coefficients are never stored."""

    depth: int
    coeffs: dict[PBWMonomial, Fraction]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coeffs", {m: rat(c) for m, c in self.coeffs.items() if c}
        )
        for mono in self.coeffs:
            if mono.depth != self.depth:
                raise ValueError("vector mixes depths")

    def is_zero(self) -> bool:
        return not self.coeffs


def hw_vector() -> VermaVector:
    return VermaVector(0, {PBWMonomial(): _ONE})


# ---------------------------------------------------------------------------
# level bases


@lru_cache(maxsize=None)
def _partitions(total: int, largest: int | None = None) -> tuple[tuple[int, ...], ...]:
    if total == 0:
        return ((),)
    if largest is None:
        largest = total
    out = []
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def level_basis(d: int) -> tuple[PBWMonomial, ...]:
    """All depth-d monomials, sorted by (xpart, ipart) descending."""
    if d < 0:
        raise ValueError("depth must be nonnegative")
    monos = [
        PBWMonomial(xp, ip)
        for k in range(d + 1)
        for xp in _partitions(k)
        for ip in _partitions(d - k)
    ]
    monos.sort(key=lambda m: (m.xpart, m.ipart), reverse=True)
    return tuple(monos)


def weight_dims(dmax: int) -> list[int]:
    """Weight-space dimensions by depth; the convolution of partition counts."""
    return [len(level_basis(d)) for d in range(dmax + 1)]


# ---------------------------------------------------------------------------
# straightening


def _rank(g: Gen) -> tuple[int, int]:
    # canonical position class: negative x, then negative I, then everything
    # destined for absorption at the highest weight vector
    if g.n < 0:
        return (0 if g.kind == "x" else 1, g.n)
    return (2, 0)


@lru_cache(maxsize=300_000)
def _straighten(word: tuple[Gen, ...], hw: HighestWeight) -> tuple[
    tuple[tuple[Gen, ...], Fraction], ...
]:
    """Expand word . hw over canonical monomial words, exactly.

    Worklist rewriting: absorb boundary factors (centers, zero modes, positive
    indices) at the right end, swap the leftmost out-of-order adjacent pair and
    add the bracket term.  Terminates since swaps lower the inversion count and
    bracket insertion shortens the word.
    """
    out: dict[tuple[Gen, ...], Fraction] = {}
    stack: list[tuple[Fraction, tuple[Gen, ...]]] = [(_ONE, word)]
    while stack:
        coeff, w = stack.pop()
        alive = True
        while w:
            f = w[-1]
            if f.central:
                coeff *= hw.central_scalar(f.kind)
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
            (j for j, (a, b) in enumerate(pairwise(map(_rank, w))) if a > b), None
        )
        if pos is None:
            out[w] = out.get(w, _ZERO) + coeff
            continue
        f, g = w[pos], w[pos + 1]
        stack.append((coeff, w[:pos] + (g, f) + w[pos + 2 :]))
        for h, c in _pair(f, g):
            stack.append((coeff * c, w[:pos] + (h,) + w[pos + 2 :]))
    return tuple((w, c) for w, c in out.items() if c)


def _word_monomial(word: tuple[Gen, ...]) -> PBWMonomial:
    return PBWMonomial(
        tuple(-g.n for g in word if g.kind == "x"),
        tuple(-g.n for g in word if g.kind == "I"),
    )


def apply(g: Gen, v: VermaVector, hw: HighestWeight) -> VermaVector:
    """The product g . v in the PBW basis."""
    target_depth = max(v.depth - g.n, 0)
    out: dict[PBWMonomial, Fraction] = {}
    for mono, c in v.coeffs.items():
        for w, c2 in _straighten((g,) + mono.word(), hw):
            m2 = _word_monomial(w)
            out[m2] = out.get(m2, _ZERO) + c * c2
    out = {m: c for m, c in out.items() if c}
    return VermaVector(next(iter(out)).depth if out else target_depth, out)


def apply_elem(el: LieElement, v: VermaVector, hw: HighestWeight) -> VermaVector:
    depth = v.depth
    out: dict[PBWMonomial, Fraction] = {}
    for g, coeff in el.items():
        image = apply(g, v, hw)
        for m, c in image.coeffs.items():
            out[m] = out.get(m, _ZERO) + coeff * c
        if not image.is_zero():
            depth = image.depth
    out = {m: c for m, c in out.items() if c}
    return VermaVector(next(iter(out)).depth if out else depth, out)


# ---------------------------------------------------------------------------
# singular vectors


_SINGULAR_PROBES = (xgen(1), xgen(2), igen(1))
_VERIFY_PROBES = (xgen(1), xgen(2), xgen(3), igen(1), igen(2), igen(3))


def singular_space(hw: HighestWeight, d: int) -> list[VermaVector]:
    """Basis of the depth-d vectors killed by x[1], x[2] and I[1].

    Those three generate the whole positive half (x[1] and x[2] give every
    x[n] with n >= 1, and bracketing x[n] against I[1] gives every I[m] with
    m >= 2), so annihilation by them is annihilation by all of it.
    """
    if d < 1:
        raise ValueError("singular vectors live at positive depth")
    basis = level_basis(d)
    cols = list(range(len(basis)))
    rows: list[dict[int, Fraction]] = []
    for g in _SINGULAR_PROBES:
        by_target: dict[PBWMonomial, dict[int, Fraction]] = {}
        for ci, mono in enumerate(basis):
            image = apply(g, VermaVector(d, {mono: _ONE}), hw)
            for tm, c in image.coeffs.items():
                by_target.setdefault(tm, {})[ci] = c
        rows.extend(by_target.values())
    return [
        VermaVector(d, {basis[i]: c for i, c in sol.items()})
        for sol in sparse_nullspace(rows, cols)
    ]


def verify_singular(v: VermaVector, hw: HighestWeight) -> bool:
    """Independent check against more annihilators than singular_space imposes."""
    return all(apply(g, v, hw).is_zero() for g in _VERIFY_PROBES)


# ---------------------------------------------------------------------------
# windowed form


def truncation_window(hw: HighestWeight, dmax: int) -> ModuleWindow:
    """The depth-truncated module as a ModuleWindow, index -d at depth d.

    Actions leading deeper than dmax are cut off by the truncation (that cut
    is the one lossy edge); actions above depth 0 vanish genuinely.  Weight
    spaces at positive indices are empty.
    """
    if dmax < 1:
        raise ValueError("truncation depth must be at least 1")
    bases = {d: level_basis(d) for d in range(dmax + 1)}
    dims: dict[int, int] = {}
    for k in range(-dmax, dmax + 1):
        dims[k] = len(bases[-k]) if k <= 0 else 0
    actions: dict[tuple[Gen, int], list[tuple[int, Block]]] = {}
    gens = [xgen(i) for i in range(-dmax, dmax + 1)] + [
        igen(i) for i in range(-dmax, dmax + 1)
    ]
    for g in gens:
        for d in range(dmax + 1):
            target_depth = d - g.n
            if target_depth < 0 or target_depth > dmax:
                continue
            source = bases[d]
            target = bases[target_depth]
            index = {m: r for r, m in enumerate(target)}
            entries: dict[tuple[int, int], Fraction] = {}
            for ci, mono in enumerate(source):
                image = apply(g, VermaVector(d, {mono: _ONE}), hw)
                for tm, c in image.coeffs.items():
                    entries[(index[tm], ci)] = c
            if not entries:
                continue
            block = tuple(
                tuple(entries.get((r, ci), _ZERO) for ci in range(len(source)))
                for r in range(len(target))
            )
            actions[(g, -d)] = [(-target_depth, block)]
    scalars = {"CD": hw.c_d, "CDI": hw.c_di, "CI": hw.c_i}
    return ModuleWindow(hw.lam, dmax, dims, actions, scalars)
