"""Exact calculator for twist decompositions of cellular spaces.

Given a cellular space (built in or described in a small text format) and
an oriented theory (Chow-style, K-theory-style, or the truncated universal
rational theory), the package computes the twist decomposition of the
space and its graded coefficient modules, entirely in exact arithmetic.

Every public name is loaded with its module on first access, so importing
the package costs nothing until a name is used: the twist decomposition
never loads the group laws, the series, the parser or the linear algebra.
"""

_EXPORTS = {
    "gring": (
        "CHOW_RING",
        "K0_RING",
        "Generator",
        "GradedRingElement",
        "ModuleDescription",
        "RingDescriptor",
        "RingMismatchError",
        "TruncationError",
        "component_rank",
        "parse_element",
        "render_element",
        "universal_ring",
    ),
    "series": ("TruncatedSeries", "parse_series", "render_series"),
    "fgl": (
        "FormalGroupLaw",
        "additive_law",
        "check_fgl_axioms",
        "exponential",
        "formal_inverse",
        "logarithm",
        "multiplicative_law",
        "projective_space_class",
        "universal_law",
    ),
    "theory": (
        "OrientedTheory",
        "ProjectiveSpaceElement",
        "chow",
        "k0",
        "projection_formula_holds",
        "theory_from_selector",
        "universal",
    ),
    "spaces": (
        "POINT",
        "Cell",
        "Cellular",
        "DisjointUnion",
        "EquidimensionalityViolation",
        "Point",
        "SpaceExpr",
        "grassmannian",
        "normalize",
        "projective_space",
        "quadric",
    ),
    "dsl": ("ParseError", "parse_document", "parse_space", "print_space"),
    "motives": (
        "Correspondence",
        "GradedModuleTable",
        "NonSplittableError",
        "NotIdempotentError",
        "SplitCertificate",
        "TateMotive",
        "compose",
        "decompose_by_codim",
        "decompose_by_rank",
        "duality_holds",
        "identity_correspondence",
        "is_idempotent",
        "poincare_polynomial",
        "projective_bundle_projectors",
        "realize",
        "realize_table",
        "split_idempotent",
        "tensor_product",
        "transpose",
        "zero_correspondence",
    ),
    "linalg": (),
}

# each public name -> the submodule that defines it; a submodule names itself
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
