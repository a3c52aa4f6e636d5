"""Exact invariants and classification of Seifert fibered spherical
3-orbifolds.

The public names of the submodules are re-exported here and load their
submodule on first use, so importing the package, or `cli`, loads only
what is used.
"""

from importlib import import_module as _import_module

# submodule -> the public names it defines or re-exports
_EXPORTS = {
    "core": (
        "FiberedOrbifold", "LocalInvariant", "Rational", "Surface", "TwoOrbifold",
        "UnsupportedFamilyError", "ValidationResult", "euler_characteristic", "is_bad",
        "is_spherical", "normalize", "orbifold_order", "reverse_orientation",
        "s3_fibration", "solve_xi", "validate",
    ),
    "groups": (
        "Family", "GroupFamily", "NO_INVARIANT_FIBRATION", "NoInvariantFibration",
        "group_order", "parse_group", "quotient_antihopf", "quotient_hopf",
    ),
    "lens": (
        "ClassicalSeifert", "LensSpace", "Mode", "classical_from_fibration",
        "lens_equiv", "lens_from_classical",
    ),
    "classify": (
        "DiffeoKey", "FibrationClass", "FibrationCount", "InfiniteClassError",
        "OrbifoldClass", "are_diffeomorphic", "diffeo_key", "diffeo_signature",
        "double_cover", "enumerate_bridges", "enumerate_fibrations", "fibration_class",
        "fibration_count", "single_step",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(_import_module("." + module, __name__), name)
    if name in _EXPORTS:
        return _import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *__all__})
