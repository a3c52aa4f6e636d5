"""Each public constructor and function refuses a wrong argument with the
exception type and message pinned here: a ValueError that names the
problem, never an AttributeError, KeyError or TypeError from deeper in."""

from fractions import Fraction as F

import pytest

from seifert_orbifolds.classify import InfiniteClassError, single_step
from seifert_orbifolds.cli import parse_fibration
from seifert_orbifolds.core import (
    FiberedOrbifold,
    Surface,
    TwoOrbifold,
    ValidationResult,
    s3_fibration,
    solve_xi,
)
from seifert_orbifolds.groups import (
    NO_INVARIANT_FIBRATION,
    Family,
    GroupFamily,
    enumerate_parameters,
)
from seifert_orbifolds.lens import (
    ClassicalSeifert,
    LensSpace,
    Mode,
    classical_from_fibration,
    lens_equiv,
)

# -- a wrong type gets a ValueError ------------------------------------------


@pytest.mark.parametrize("build, message", [
    (lambda: FiberedOrbifold("S2"), "the base must be a TwoOrbifold, got 'S2'"),
    (lambda: FiberedOrbifold(None), "the base must be a TwoOrbifold, got None"),
    (lambda: GroupFamily("F99", {}), "unknown family 'F99'"),
    (lambda: GroupFamily(2, {"m": 3, "n": 2}), "unknown family 2"),
    (lambda: ClassicalSeifert(5), "classical data has exactly two fractions"),
    (lambda: ClassicalSeifert(None), "classical data has exactly two fractions"),
    # a string is not two fractions: "12" read as (1, 2)
    (lambda: ClassicalSeifert("12"), "classical data has exactly two fractions"),
    (lambda: TwoOrbifold("S3"), "'S3' is not a valid Surface"),
])
def test_a_wrong_type_raises_value_error(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


_S2_2 = TwoOrbifold(Surface.SPHERE, (2,))


@pytest.mark.parametrize("build, message", [
    # a triple or a dict was read through its first two items or keys, as 1/2
    (lambda: FiberedOrbifold(_S2_2, [(1, 2, 3)], [], F(-1, 2)),
     "cone invariants must be LocalInvariants or (a, b) pairs, got (1, 2, 3)"),
    (lambda: FiberedOrbifold(_S2_2, [{0: 1, 1: 2}], [], F(-1, 2)),
     "cone invariants must be LocalInvariants or (a, b) pairs, got {0: 1, 1: 2}"),
    # TypeError
    (lambda: FiberedOrbifold(_S2_2, [5], [], F(-1, 2)),
     "cone invariants must be LocalInvariants or (a, b) pairs, got 5"),
    (lambda: FiberedOrbifold(_S2_2, 5, [], F(-1, 2)),
     "cone invariants must be a tuple or list, got 5"),
    # IndexError
    (lambda: FiberedOrbifold(_S2_2, "12", [], F(-1, 2)),
     "cone invariants must be LocalInvariants or (a, b) pairs, got '1'"),
    (lambda: FiberedOrbifold(TwoOrbifold("D2", (), (2,)), (), [(1,)], F(-1, 4), (0,)),
     "corner invariants must be LocalInvariants or (a, b) pairs, got (1,)"),
    (lambda: FiberedOrbifold.from_data("S2", [(1, 2, 3)], [], F(-1, 2)),
     "cone invariants must be LocalInvariants or (a, b) pairs, got (1, 2, 3)"),
    (lambda: solve_xi([], [[1, 2, 3]], F(-1, 4)),
     "corner invariants must be LocalInvariants or (a, b) pairs, got [1, 2, 3]"),
    # TypeError
    (lambda: TwoOrbifold("S2", 3), "cone labels must be a tuple or list, got 3"),
    (lambda: TwoOrbifold("D2", (), 3), "corner labels must be a tuple or list, got 3"),
    (lambda: FiberedOrbifold(TwoOrbifold("D2"), (), (), -1, 1),
     "xi must be a tuple or list, got 1"),
    # the key 0 was read as the bit
    (lambda: FiberedOrbifold(TwoOrbifold("D2"), (), (), -1, {0: 1}),
     "xi must be a tuple or list, got {0: 1}"),
])
def test_a_malformed_field_is_refused_by_name(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("xi, message", [
    # the dict's key 0 was taken as the bit
    ({0: 1}, "xi entries must be integers, got {0: 1}"),
    ((2,), "xi entries must be bits"),
    ([0, 1], "xi must have one entry per boundary component (1 expected, 2 given)"),
])
def test_from_data_checks_a_given_xi_like_the_constructor(xi, message):
    with pytest.raises(ValueError) as info:
        FiberedOrbifold.from_data("D2", [], [(1, 2)], F(-1, 4), xi=xi)
    assert str(info.value) == message
    solved = FiberedOrbifold.from_data("D2", [], [(1, 2)], F(-3, 4))
    for bits in ((1,), [1], 1):
        f = FiberedOrbifold.from_data("D2", [], [(1, 2)], F(-3, 4), xi=bits)
        assert f == solved and f.xi == (1,) and type(f.xi) is tuple


@pytest.mark.parametrize("xi", [1, (0,), [1]])
def test_from_data_refuses_a_bit_on_a_closed_base(xi):
    """A given xi on S2 or RP2 was dropped silently."""
    for surface in ("S2", "RP2"):
        with pytest.raises(ValueError) as info:
            FiberedOrbifold.from_data(surface, [(1, 2)], [], F(-1, 2), xi=xi)
        assert str(info.value) == (
            "xi must have one entry per boundary component (0 expected, 1 given)")
    assert FiberedOrbifold.from_data("S2", [(1, 2)], [], F(-1, 2), xi=()).xi == ()


def test_a_surface_given_by_name_is_converted():
    """The string stayed in the field, and `str` raised AttributeError."""
    base = TwoOrbifold("S2", (2, 3))
    assert base == TwoOrbifold(Surface.SPHERE, (2, 3))
    assert base.surface is Surface.SPHERE and str(base) == "S2(2,3)"


def test_a_disk_given_by_name_takes_its_boundary_bit():
    """With the surface left a string, the disk counted no boundary
    component, and one bit was "0 expected"."""
    f = FiberedOrbifold(TwoOrbifold("D2"), (), (), -1, (0,))
    assert f.base.boundary_components == 1 and f.xi == (0,)
    assert str(f) == "(D2; ; ; -1; 0)"


def test_a_family_given_by_name_is_converted():
    """`_TABLE[family]` raised KeyError on the string."""
    g = GroupFamily("F2", {"m": 3, "n": 2})
    assert g == GroupFamily(Family.F2, {"m": 3, "n": 2})
    assert g.family is Family.F2 and hash(g) == hash(GroupFamily(Family.F2, {"m": 3, "n": 2}))
    assert str(g) == "F2(m=3,n=2)"


# -- L(p, q) needs a unit q ----------------------------------------------------


@pytest.mark.parametrize("p, q", [(4, 2), (-4, 2), (6, 9), (9, 0), (2, 0)])
def test_lens_space_needs_coprime_p_and_q(p, q):
    with pytest.raises(ValueError) as info:
        LensSpace(p, q)
    assert str(info.value) == "L(p, q) needs gcd(p, q) = 1, got p = %d, q = %d" % (p, q)


def test_lens_space_of_a_unit_is_kept():
    assert LensSpace(1, 0) == LensSpace(1, 7) == LensSpace(-1, 3)
    assert lens_equiv(LensSpace(5, 2), LensSpace(-5, 2))


def test_lens_equiv_reads_a_mode_given_by_name():
    """A mode given by name was read as oriented, whatever the name."""
    x, y = LensSpace(5, 2), LensSpace(5, 3)  # 2 * 3 = 1 mod 5: oriented only
    assert lens_equiv(x, y, "oriented") is lens_equiv(x, y, Mode.ORIENTED) is True
    assert lens_equiv(x, y, "fixed-cores") is lens_equiv(x, y, Mode.FIXED_CORES) is False
    with pytest.raises(ValueError) as info:
        lens_equiv(x, y, "nonsense")
    assert str(info.value) == "'nonsense' is not a valid Mode"


# -- error branches ------------------------------------------------------------


def test_single_step_refuses_an_infinite_class():
    for text in ("S2(2,2,3); 0/2,0/2,1/3; ; -1/3", "S2(3,3); 1/3,2/3; ; -1"):
        with pytest.raises(InfiniteClassError) as info:
            single_step(parse_fibration(text))
        assert str(info.value) == "single_step requires a finite-class fibration"


@pytest.mark.parametrize("xi, message", [
    ((2,), "xi entries must be bits"),
    ((-1,), "xi entries must be bits"),
    ((), "xi must have one entry per boundary component (1 expected, 0 given)"),
    ((0, 1), "xi must have one entry per boundary component (1 expected, 2 given)"),
])
def test_boundary_bits_are_checked(xi, message):
    with pytest.raises(ValueError) as info:
        FiberedOrbifold(TwoOrbifold(Surface.DISK), (), (), -1, xi)
    assert str(info.value) == message


def test_a_closed_base_takes_no_boundary_bit():
    with pytest.raises(ValueError) as info:
        FiberedOrbifold(TwoOrbifold(Surface.SPHERE), (), (), -1, (0,))
    assert str(info.value) == (
        "xi must have one entry per boundary component (0 expected, 1 given)")


@pytest.mark.parametrize("args, message", [
    ((0, 1), "u and v must be positive"),
    ((1, -2), "u and v must be positive"),
    ((2, 4), "u and v must be coprime"),
    ((1, 1, 2), "sign must be +1 or -1"),
    ((1, 1, 0), "sign must be +1 or -1"),
])
def test_s3_fibration_checks_its_arguments(args, message):
    with pytest.raises(ValueError) as info:
        s3_fibration(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("params", [{"m": 0, "n": 2}, {"m": 3, "n": -1}])
def test_group_parameters_must_be_positive(params):
    with pytest.raises(ValueError) as info:
        GroupFamily(Family.F2, params)
    assert str(info.value) == "parameters must be positive integers"


@pytest.mark.parametrize("family", [Family.F1, Family.F11P])
def test_enumerate_parameters_stops_at_two_parameters(family):
    with pytest.raises(ValueError) as info:
        next(enumerate_parameters(family, 100))
    assert str(info.value) == "parameter enumeration is only provided for up to two parameters"


def test_classical_data_has_two_fractions():
    with pytest.raises(ValueError) as info:
        ClassicalSeifert((F(1, 2), F(1, 3), F(1, 5)))
    assert str(info.value) == "classical data has exactly two fractions"
    assert str(ClassicalSeifert((F(1, 2), F(-1, 3)))) == "(1/2, -1/3)"
    assert str(ClassicalSeifert((1, 0))) == "(1, 0)"
    assert ClassicalSeifert([1, "1/2"]).fractions == (F(1), F(1, 2))


@pytest.mark.parametrize("text", [
    "S2(3,3); 1/3,1/3; ; -1",  # the relation fails
    "S2(3,3); 1/3,2/3; ; 0",  # e = 0
    "S2; ; 0",  # e = 0 with no cone point
])
def test_two_fraction_route_needs_a_valid_spherical_fibration(text):
    with pytest.raises(ValueError) as info:
        classical_from_fibration(parse_fibration(text))
    assert str(info.value) == "expected a valid spherical fibration"


def test_validation_result_truth_and_marker_repr():
    assert bool(ValidationResult(True)) is True
    assert bool(ValidationResult(False, F(1, 3), ("a problem",))) is False
    assert repr(NO_INVARIANT_FIBRATION) == "NoInvariantFibration"
