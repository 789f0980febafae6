"""The package's public surface: the same names as the eager package had,
each the object its defining module holds, loaded on first access."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import motivec

PUBLIC_NAMES = [
    "CHOW_RING", "Cell", "Cellular", "Correspondence", "DisjointUnion",
    "EquidimensionalityViolation", "FormalGroupLaw", "Generator", "GradedModuleTable",
    "GradedRingElement", "K0_RING", "ModuleDescription", "NonSplittableError",
    "NotIdempotentError", "OrientedTheory", "POINT", "ParseError", "Point",
    "ProjectiveSpaceElement", "RingDescriptor", "RingMismatchError", "SpaceExpr",
    "SplitCertificate", "TateMotive", "TruncatedSeries", "TruncationError", "additive_law",
    "check_fgl_axioms", "chow", "component_rank", "compose", "decompose_by_codim",
    "decompose_by_rank", "dsl", "duality_holds", "exponential", "fgl", "formal_inverse",
    "grassmannian", "gring", "identity_correspondence", "is_idempotent", "k0", "linalg",
    "logarithm", "motives", "multiplicative_law", "normalize", "parse_document",
    "parse_element", "parse_series", "parse_space", "poincare_polynomial", "print_space",
    "projection_formula_holds", "projective_bundle_projectors", "projective_space",
    "projective_space_class", "quadric", "realize", "realize_table", "render_element",
    "render_series", "series", "spaces", "split_idempotent", "tensor_product", "theory",
    "theory_from_selector", "transpose", "universal", "universal_law", "universal_ring",
    "zero_correspondence",
]

SUBMODULES = {"dsl", "fgl", "gring", "linalg", "motives", "series", "spaces", "theory"}


def test_all_lists_the_same_names():
    assert len(PUBLIC_NAMES) == 74
    assert motivec.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_name_is_its_defining_modules_object(name):
    value = getattr(motivec, name)
    if name in SUBMODULES:
        assert value is importlib.import_module(f"motivec.{name}")
    else:
        # functions and classes name their module; constants, their class's
        assert getattr(importlib.import_module(value.__module__), name) is value


def test_import_loads_no_submodule_and_dir_lists_every_name():
    probe = (
        "import sys, motivec; "
        "print(sorted(n for n in sys.modules if n.startswith('motivec.'))); "
        "print(sorted(set(dir(motivec)) & set(motivec.__all__)) == motivec.__all__)"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(motivec.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.stdout == "[]\nTrue\n"


def test_star_import_binds_every_name():
    namespace = {}
    exec("from motivec import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == PUBLIC_NAMES
    assert namespace["chow"] is motivec.theory.chow


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        motivec.no_such_name
    assert not hasattr(motivec, "selfcheck_suites")


def package_classes() -> list[type]:
    """Every class defined at the top level of a `motivec` submodule."""
    classes = []
    for info in pkgutil.iter_modules(motivec.__path__):
        module = importlib.import_module(f"motivec.{info.name}")
        classes += [value for value in vars(module).values()
                    if isinstance(value, type) and value.__module__ == module.__name__]
    return classes


def test_immutability_is_decided_in_one_base_class():
    """A slotted value, other than a namedtuple record, derives from
    `gring.Frozen`; only `Frozen` defines `__setattr__`, and no class
    defines `__getattr__`, which would stop CPython specializing slot reads."""
    from motivec.gring import Frozen

    classes = package_classes()
    slotted = {cls.__name__ for cls in classes if vars(cls).get("__slots__")
               and not (issubclass(cls, tuple) and hasattr(cls, "_fields"))}
    assert slotted >= {"GradedRingElement", "TruncatedSeries", "TateMotive", "Correspondence",
                       "Cellular", "DisjointUnion", "OrientedTheory", "ProjectiveSpaceElement",
                       "FormalGroupLaw"}
    assert [cls.__name__ for cls in classes
            if cls.__name__ in slotted and not issubclass(cls, Frozen)] == []
    assert [cls.__name__ for cls in classes if cls is not Frozen and "__setattr__" in vars(cls)] == []
    assert [cls.__name__ for cls in classes if hasattr(cls, "__getattr__")] == []


def test_values_from_valid_parts_are_built_by_frozen_new():
    """Only the body of `gring.Frozen` reads a class's `_setters` or calls
    `object.__new__`: every value, the hot paths' ring elements, motives and
    morphisms included, is built by `Frozen._new`."""
    import ast

    def hits(tree):
        return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and (node.attr == "_setters" or node.attr == "__new__"
                     and isinstance(node.value, ast.Name) and node.value.id == "object")]

    found, inside = {}, []
    for info in pkgutil.iter_modules(motivec.__path__):
        path = importlib.import_module(f"motivec.{info.name}").__file__
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        found[info.name] = hits(tree)
        if info.name == "gring":
            [frozen] = [node for node in tree.body
                        if isinstance(node, ast.ClassDef) and node.name == "Frozen"]
            inside = hits(frozen)
    assert inside  # the check sees `Frozen`'s own reads
    assert {name: lines for name, lines in found.items() if lines} == {"gring": inside}
