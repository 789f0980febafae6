"""Exact calculator for twist decompositions of cellular spaces.

Given a cellular space (built in or described in a small text format) and
an oriented theory (Chow-style, K-theory-style, or the truncated universal
rational theory), the package computes the twist decomposition of the
space and its graded coefficient modules, entirely in exact arithmetic.
"""

from .gring import (
    CHOW_RING,
    K0_RING,
    Generator,
    GradedRingElement,
    ModuleDescription,
    RingDescriptor,
    RingMismatchError,
    TruncationError,
    component_rank,
    parse_element,
    render_element,
    universal_ring,
)
from .series import TruncatedSeries, parse_series, render_series
from .fgl import (
    FormalGroupLaw,
    additive_law,
    check_fgl_axioms,
    exponential,
    formal_inverse,
    logarithm,
    multiplicative_law,
    projective_space_class,
    universal_law,
)
from .theory import (
    OrientedTheory,
    ProjectiveSpaceElement,
    chow,
    k0,
    projection_formula_holds,
    theory_from_selector,
    universal,
)
from .spaces import (
    POINT,
    Cell,
    Cellular,
    DisjointUnion,
    EquidimensionalityViolation,
    Point,
    SpaceExpr,
    grassmannian,
    normalize,
    projective_space,
    quadric,
)
from .dsl import ParseError, parse_document, parse_space, print_space
from .motives import (
    Correspondence,
    GradedModuleTable,
    NonSplittableError,
    NotIdempotentError,
    SplitCertificate,
    TateMotive,
    compose,
    decompose_by_codim,
    decompose_by_rank,
    duality_holds,
    identity_correspondence,
    is_idempotent,
    poincare_polynomial,
    projective_bundle_projectors,
    realize,
    realize_table,
    split_idempotent,
    tensor_product,
    transpose,
    zero_correspondence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
