"""Exact-arithmetic toolkit for the twisted Heisenberg-Virasoro algebra.

The package covers the Lie bracket itself, dense and punctured weight module
windows, a constraint-elimination engine that recovers the solution families
of the I-action scalar system, the 2x2 matrix-valued variant with its coupling
obstruction, and truncated Verma modules with singular vector search.
"""

from __future__ import annotations

from .algebra import (
    CD,
    CDI,
    CI,
    NONHOMOGENEOUS,
    Gen,
    LieElement,
    basis_window,
    bracket,
    degree,
    format_element,
    igen,
    jacobiator,
    parse_element,
    parse_gen,
    vir_embed,
    xgen,
)
from .classifier import (
    Elimination,
    LinearRelation,
    Quadratic,
    QuadraticRelation,
    ScalarSystem,
    SolutionFamily,
    SupportShape,
    UnboundedBothSides,
    UnclassifiedBranch,
    UniformlyBounded,
    UpperBounded,
    LowerBounded,
    WindowTooSmall,
    build_scalar_system,
    eliminate_j1,
    eliminated_quadratic,
    i_torsion,
    irreducibility_oracle,
    materialize_family,
    quadratic_obstruction,
    solve_scalar,
    solve_system,
    support_shape,
)
from .matrix_system import (
    DiagonalPair,
    MatrixSystem,
    UnsupportedP,
    build_matrix_system,
    check_matrix_family,
    constant_matrix_family,
    verify_coupling_obstruction,
)
from .modules import (
    Aa,
    Ba,
    ExtCaseA,
    ExtCaseB,
    IndexOutOfFamily,
    IntermediateParams,
    ModuleWindow,
    Vab,
    VPrime,
    build_window,
    irreducible_quotient,
    is_reducible,
    module_defects,
    module_spec_from_json,
    module_spec_to_json,
    rescale_window,
    windows_equal,
    x_blocks,
)
from .scalars import Rational, parse_rational, rat, rat_str
from .verma import (
    HighestWeight,
    PBWMonomial,
    VermaVector,
    apply,
    apply_elem,
    hw_vector,
    level_basis,
    singular_space,
    truncation_window,
    verify_singular,
    weight_dims,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
