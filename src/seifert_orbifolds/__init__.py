"""Exact invariants and classification of Seifert fibered spherical
3-orbifolds."""

from .core import (
    FiberedOrbifold,
    LocalInvariant,
    Rational,
    Surface,
    TwoOrbifold,
    ValidationResult,
    euler_characteristic,
    is_bad,
    is_spherical,
    normalize,
    orbifold_order,
    reverse_orientation,
    s3_fibration,
    solve_xi,
    validate,
)
from .groups import (
    Family,
    GroupFamily,
    NO_INVARIANT_FIBRATION,
    NoInvariantFibration,
    UnsupportedFamilyError,
    group_order,
    parse_group,
    quotient_antihopf,
    quotient_hopf,
)
from .lens import (
    ClassicalSeifert,
    LensSpace,
    Mode,
    classical_from_fibration,
    lens_equiv,
    lens_from_classical,
)
from .classify import (
    DiffeoKey,
    FibrationClass,
    FibrationCount,
    InfiniteClassError,
    OrbifoldClass,
    are_diffeomorphic,
    diffeo_key,
    diffeo_signature,
    double_cover,
    enumerate_bridges,
    enumerate_fibrations,
    fibration_class,
    fibration_count,
    single_step,
)

__all__ = [name for name in dir() if not name.startswith("_")]
