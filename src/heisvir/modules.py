"""Weight-module families and their finite-index windows.

Every module handled here splits into weight spaces labelled by ``offset + k``
with integer ``k``.  A :class:`ModuleWindow` materializes the generator action
on the finitely many basis vectors with ``|k| <= N`` as exact rational matrix
blocks, keeping targets that fall outside the window so that no information is
lost at build time; truncation happens only when a vector is pushed through
:meth:`ModuleWindow.apply`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Union

from .algebra import Gen, LieElement, bracket, igen, xgen
from .scalars import is_integer, rat, rat_str

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Column-convention matrix block: Block[r][c] is the coefficient of the r-th
# target basis vector in the image of the c-th source basis vector.
Block = tuple[tuple[Fraction, ...], ...]

# Sparse vector supported on a window: (weight index, component) -> coefficient.
Vec = dict[tuple[int, int], Fraction]


class IndexOutOfFamily(Exception):
    """A generator degree outside the range where a family's action is defined."""


# ---------------------------------------------------------------------------
# family parameter records


@dataclass(frozen=True, slots=True)
class IntermediateParams:
    """Dense rank-one family: x[i] scales v_k by alpha + k + beta*i, I(i) by F.

    Central elements act by zero and I(0) acts by the same scalar F.
    """

    alpha: Fraction
    beta: Fraction
    F: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", rat(self.alpha))
        object.__setattr__(self, "beta", rat(self.beta))
        object.__setattr__(self, "F", rat(self.F))


@dataclass(frozen=True, slots=True)
class Vab:
    """Rank-one family with no I-action: x[i] scales v_k by alpha + k + beta*i."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", rat(self.alpha))
        object.__setattr__(self, "beta", rat(self.beta))


@dataclass(frozen=True, slots=True)
class Aa:
    """Deformation of Vab(0,0) at index 0: x_i v_0 = i(i+a) v_i, else x_i v_k = (i+k) v_{i+k}."""

    a: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", rat(self.a))


@dataclass(frozen=True, slots=True)
class Ba:
    """Deformation of Vab(0,1) into index 0: x_i v_{-i} = -i(i+a) v_0, else x_i v_k = k v_{i+k}."""

    a: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", rat(self.a))


@dataclass(frozen=True, slots=True)
class ExtCaseA:
    """Two-dimensional weight spaces (v_k, v'_k), all degrees defined.

    Unprimed vectors carry Vab(alpha, 0); primed vectors pick up the coupling
    x_i v'_k = (alpha+k) v'_{k+i} - i v_{k+i}.  Requires alpha not an integer.
    """

    alpha: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", rat(self.alpha))
        if is_integer(self.alpha):
            raise ValueError("ExtCaseA requires a non-integer offset")


@dataclass(frozen=True, slots=True)
class ExtCaseB:
    """Two-dimensional weight spaces, action defined only for degrees |i| <= 2.

    Unprimed vectors carry Vab(alpha, 0); x[1] and x[-1] leave primed vectors
    uncoupled, while x[2] and x[-2] couple with the rational coefficients
    1/((alpha+k+1)(alpha+k+2)) and -1/((alpha+k-1)(alpha+k-2)).  Higher degrees
    are reachable only through bracket words, never by a closed form here.
    Requires alpha not an integer.
    """

    alpha: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", rat(self.alpha))
        if is_integer(self.alpha):
            raise ValueError("ExtCaseB requires a non-integer offset")


@dataclass(frozen=True, slots=True)
class VPrime:
    """The irreducible sub-quotient of the reducible rank-one modules.

    Presented as the span of {v_n : n != 0} with x_i v_n = (n+i) v_{n+i},
    where v_0 is identified with zero; I and the centers act by zero.
    """


ModuleSpec = Union[IntermediateParams, Vab, Aa, Ba, ExtCaseA, ExtCaseB, VPrime]


# ---------------------------------------------------------------------------
# pointwise actions


def _x_degree_bound(spec: ModuleSpec, n: int) -> int:
    """Largest |i| <= n for which x[i] acts; ExtCaseB stops at degree 2."""
    return min(n, 2) if isinstance(spec, ExtCaseB) else n


def _ext_b_coupling(alpha: Fraction, i: int, k: int) -> Fraction:
    if i == 2:
        return _ONE / ((alpha + k + 1) * (alpha + k + 2))
    if i == -2:
        return -_ONE / ((alpha + k - 1) * (alpha + k - 2))
    return _ZERO


def x_blocks(spec: ModuleSpec, i: int, k: int) -> list[tuple[int, Block]]:
    """Action of x[i] on the k-th basis slot as (target, block) pairs.

    Blocks are in column convention; the two-dimensional families use basis
    order (unprimed, primed).  A vanishing action yields no pair at all, and
    a degree the family does not define raises IndexOutOfFamily.
    """
    if abs(i) > _x_degree_bound(spec, abs(i)):
        raise IndexOutOfFamily(f"{type(spec).__name__} defines no action for degree {i}")
    if isinstance(spec, (IntermediateParams, Vab)):
        coeff = spec.alpha + k + spec.beta * i
    elif isinstance(spec, Aa):
        coeff = Fraction(i + k) if k != 0 else Fraction(i) * (i + spec.a)
    elif isinstance(spec, Ba):
        coeff = Fraction(k) if k != -i else -Fraction(i) * (i + spec.a)
    elif isinstance(spec, VPrime):
        # the target v_0 is deleted, which the vanishing coefficient encodes
        coeff = Fraction(k + i) if k != 0 else _ZERO
    elif isinstance(spec, ExtCaseA):
        diag = spec.alpha + k
        return [(k + i, ((diag, Fraction(-i)), (_ZERO, diag)))]
    elif isinstance(spec, ExtCaseB):
        diag = spec.alpha + k
        return [(k + i, ((diag, _ext_b_coupling(spec.alpha, i, k)), (_ZERO, diag)))]
    else:
        raise TypeError(f"not a module family: {spec!r}")
    return [(k + i, ((coeff,),))] if coeff else []


def is_reducible(p: IntermediateParams) -> bool:
    """True exactly when F = 0, alpha is an integer and beta is 0 or 1."""
    return p.F == 0 and is_integer(p.alpha) and p.beta in (0, 1)


# ---------------------------------------------------------------------------
# windows


def _block_is_zero(block: Block) -> bool:
    return all(not entry for row in block for entry in row)


@dataclass(frozen=True)
class ModuleWindow:
    """A weight module truncated to the index window [-N, N].

    dims records the weight-space dimensions inside the window only; action
    blocks keep their genuine targets even when those land outside, and the
    block shape itself carries the target dimension.  Central generators act
    by the stored scalars times the identity.  Instances are immutable.
    """

    offset: Fraction
    n: int
    dims: dict[int, int]
    actions: dict[tuple[Gen, int], list[tuple[int, Block]]]
    central_scalars: dict[str, Fraction] = field(default_factory=dict)

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)

    def in_window(self, k: int) -> bool:
        return -self.n <= k <= self.n

    def indices(self) -> range:
        return range(-self.n, self.n + 1)

    def basis_vec(self, k: int, comp: int = 0) -> Vec:
        if not self.in_window(k) or comp >= self.dim(k):
            raise IndexError(f"no basis vector at index {k}, component {comp}")
        return {(k, comp): _ONE}

    def apply(self, gen: Gen, vec: Vec) -> Vec:
        """Apply one generator, truncating targets to the window."""
        if gen.central:
            scalar = self.central_scalars.get(gen.kind, _ZERO)
            if not scalar:
                return {}
            return {key: scalar * c for key, c in vec.items() if c}
        out: Vec = {}
        for (k, comp), c in vec.items():
            if not c:
                continue
            for target, block in self.actions.get((gen, k), ()):
                if not self.in_window(target):
                    continue
                for r, row in enumerate(block):
                    entry = row[comp]
                    if entry:
                        key = (target, r)
                        out[key] = out.get(key, _ZERO) + entry * c
        return {key: c for key, c in out.items() if c}

    def apply_elem(self, el: LieElement, vec: Vec) -> Vec:
        out: Vec = {}
        for gen, coeff in el.items():
            for key, c in self.apply(gen, vec).items():
                out[key] = out.get(key, _ZERO) + coeff * c
        return {key: c for key, c in out.items() if c}


def vec_sub(a: Vec, b: Vec) -> Vec:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, _ZERO) - c
    return {key: c for key, c in out.items() if c}


def vec_eq(a: Vec, b: Vec) -> bool:
    return not vec_sub(a, b)


def _family_dim(spec: ModuleSpec, k: int) -> int:
    if isinstance(spec, (ExtCaseA, ExtCaseB)):
        return 2
    if isinstance(spec, VPrime) and k == 0:
        return 0
    return 1


def _family_offset(spec: ModuleSpec) -> Fraction:
    if isinstance(spec, (IntermediateParams, Vab, ExtCaseA, ExtCaseB)):
        return spec.alpha
    return _ZERO


def _i_blocks(spec: ModuleSpec, i: int, k: int) -> list[tuple[int, Block]]:
    if isinstance(spec, IntermediateParams) and spec.F:
        return [(k + i, ((spec.F,),))]
    return []


def build_window(spec: ModuleSpec, n: int) -> ModuleWindow:
    """Materialize the action tables of a family on the window [-n, n].

    Stores blocks for every generator degree the family defines (capped at n)
    against every source index in the window, including blocks whose target
    falls outside; central scalars are explicit zeros for all these families.
    """
    if n < 1:
        raise ValueError("window half-width must be at least 1")
    max_x_degree = _x_degree_bound(spec, n)
    dims = {k: _family_dim(spec, k) for k in range(-n, n + 1)}
    actions: dict[tuple[Gen, int], list[tuple[int, Block]]] = {}
    for k in range(-n, n + 1):
        if dims[k] == 0:
            continue
        for i in range(-max_x_degree, max_x_degree + 1):
            blocks = x_blocks(spec, i, k)
            if blocks:
                actions[(xgen(i), k)] = blocks
        for i in range(-n, n + 1):
            blocks = _i_blocks(spec, i, k)
            if blocks:
                actions[(igen(i), k)] = blocks
    scalars = {"CD": _ZERO, "CDI": _ZERO, "CI": _ZERO}
    return ModuleWindow(_family_offset(spec), n, dims, actions, scalars)


def irreducible_quotient(p: IntermediateParams, n: int) -> ModuleWindow:
    """Window of the unique irreducible sub-quotient of the rank-one module.

    Irreducible parameters return their own window; the reducible ones all
    share the same sub-quotient, returned in its deleted-index presentation.
    """
    if not is_reducible(p):
        return build_window(p, n)
    return build_window(VPrime(), n)


def rescale_window(w: ModuleWindow, scale: Callable[[int], Fraction]) -> ModuleWindow:
    """Change basis to w_k = v_k / scale(k); blocks pick up scale(target)/scale(source).

    scale must be nonzero at every source index and every stored target index.
    """
    actions: dict[tuple[Gen, int], list[tuple[int, Block]]] = {}
    for (gen, k), blocks in w.actions.items():
        src = scale(k)
        if not src:
            raise ZeroDivisionError(f"rescaling vanishes at source index {k}")
        rescaled = []
        for target, block in blocks:
            tgt = scale(target)
            if not tgt:
                raise ZeroDivisionError(f"rescaling vanishes at target index {target}")
            factor = tgt / src
            rescaled.append(
                (target, tuple(tuple(factor * e for e in row) for row in block))
            )
        actions[(gen, k)] = rescaled
    return ModuleWindow(w.offset, w.n, dict(w.dims), actions, dict(w.central_scalars))


def _normalized_actions(
    w: ModuleWindow,
) -> dict[tuple[Gen, int], list[tuple[int, Block]]]:
    out = {}
    for key, blocks in w.actions.items():
        kept = sorted(
            (t, b) for t, b in blocks if not _block_is_zero(b)
        )
        if kept:
            out[key] = kept
    return out


def windows_equal(a: ModuleWindow, b: ModuleWindow) -> bool:
    """Structural equality: offsets, dims, every action block, central scalars."""
    if a.offset != b.offset or a.n != b.n or a.dims != b.dims:
        return False
    if _normalized_actions(a) != _normalized_actions(b):
        return False
    kinds = set(a.central_scalars) | set(b.central_scalars)
    return all(
        a.central_scalars.get(kind, _ZERO) == b.central_scalars.get(kind, _ZERO)
        for kind in kinds
    )


def module_defects(
    w: ModuleWindow,
    degree_bound: int,
    include_i: bool = True,
    composite_bound: Optional[int] = None,
) -> list[tuple[Gen, Gen, int, int]]:
    """Bracket-compatibility failures [a,b]v != a(bv) - b(av) on the safe core.

    Only basis vectors far enough from the edge are tested, so every composite
    stays inside the window and truncation cannot fake a defect.  Families that
    define the action only up to some degree (ExtCaseB) pass that limit as
    composite_bound so pairs bracketing out of range are skipped.  Returns the
    offending (a, b, index, component) tuples; empty means the window is a
    module for the tested generators.
    """
    gens = [xgen(i) for i in range(-degree_bound, degree_bound + 1)]
    if include_i:
        gens += [igen(i) for i in range(-degree_bound, degree_bound + 1)]
    bad: list[tuple[Gen, Gen, int, int]] = []
    for ai, a in enumerate(gens):
        for b in gens[ai + 1 :]:
            if composite_bound is not None and abs(a.n + b.n) > composite_bound:
                continue
            margin = abs(a.n) + abs(b.n)
            lie = bracket(a, b)
            for k in range(-w.n + margin, w.n - margin + 1):
                for comp in range(w.dim(k)):
                    v = w.basis_vec(k, comp)
                    lhs = w.apply_elem(lie, v)
                    rhs = vec_sub(w.apply(a, w.apply(b, v)), w.apply(b, w.apply(a, v)))
                    if not vec_eq(lhs, rhs):
                        bad.append((a, b, k, comp))
    return bad


# ---------------------------------------------------------------------------
# serialization


_FAMILY_TAGS = {
    IntermediateParams: "V",
    Aa: "A",
    Ba: "B",
    ExtCaseA: "ExtA",
    ExtCaseB: "ExtB",
    VPrime: "Vprime",
}


def module_spec_to_json(spec: ModuleSpec) -> dict:
    tag = _FAMILY_TAGS.get(type(spec))
    if tag is None:
        raise TypeError(f"no serialization for {type(spec).__name__}")
    data: dict = {"family": tag}
    if isinstance(spec, IntermediateParams):
        data["alpha"] = rat_str(spec.alpha)
        data["beta"] = rat_str(spec.beta)
        data["F"] = rat_str(spec.F)
    elif isinstance(spec, (Aa, Ba)):
        data["a"] = rat_str(spec.a)
    elif isinstance(spec, (ExtCaseA, ExtCaseB)):
        data["alpha"] = rat_str(spec.alpha)
    return data


def module_spec_from_json(data: dict) -> ModuleSpec:
    if not isinstance(data, dict) or "family" not in data:
        raise ValueError("module spec must be an object with a 'family' tag")
    family = data["family"]

    def need(key: str) -> Fraction:
        if key not in data:
            raise ValueError(f"family {family!r} requires field {key!r}")
        return rat(data[key])

    if family == "V":
        return IntermediateParams(need("alpha"), need("beta"), need("F"))
    if family == "A":
        return Aa(need("a"))
    if family == "B":
        return Ba(need("a"))
    if family == "ExtA":
        return ExtCaseA(need("alpha"))
    if family == "ExtB":
        return ExtCaseB(need("alpha"))
    if family == "Vprime":
        return VPrime()
    raise ValueError(f"unknown module family {family!r}")
