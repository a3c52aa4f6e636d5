"""
The integer kernel of `core` against the `Fraction` arithmetic it replaced,
and the orbifold order 4|e|/chi^2 against the group orders.

The reference functions below are the former `Fraction` implementations of
the sum relation, `solve_xi` and `is_spherical`, kept here verbatim in
substance so that every rewrite of the kernel is compared with them.
"""

from collections import defaultdict
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seifert_orbifolds.classify import are_diffeomorphic, diffeo_signature
from seifert_orbifolds.core import (
    FiberedOrbifold,
    LocalInvariant,
    Surface,
    TwoOrbifold,
    is_spherical,
    orbifold_order,
    solve_xi,
    validate,
)
from seifert_orbifolds.groups import (
    NoInvariantFibration,
    enumerate_quotient_groups,
    group_order,
    quotient_antihopf,
    quotient_hopf,
)

S2, RP2, D2 = Surface.SPHERE, Surface.PROJECTIVE_PLANE, Surface.DISK


# -- the Fraction reference --------------------------------------------------


def ref_relation_sum(f):
    s = f.euler + sum((F(i.a, i.b) for i in f.cone_invariants), F(0))
    s += (sum((F(i.a, i.b) for i in f.corner_invariants), F(0)) + sum(f.xi)) / 2
    return s


def ref_balanced_mod1(q):
    return (q + F(1, 2)) % 1 - F(1, 2)


def ref_validate(f):
    """(ok, residue, problems) as the Fraction code computed them."""
    problems = []
    if sorted(i.b for i in f.cone_invariants) != sorted(f.base.cone_labels):
        problems.append(
            "cone invariant orders %s do not match base cone labels %s"
            % (sorted(i.b for i in f.cone_invariants), list(f.base.cone_labels))
        )
    if sorted(i.b for i in f.corner_invariants) != sorted(f.base.corner_labels):
        problems.append(
            "corner invariant orders %s do not match base corner labels %s"
            % (sorted(i.b for i in f.corner_invariants), list(f.base.corner_labels))
        )
    residue = ref_balanced_mod1(ref_relation_sum(f))
    if residue != 0:
        text = str(residue.numerator) if residue.denominator == 1 else str(residue)
        problems.append("invariant relation fails with residue %s" % text)
        return False, residue, tuple(problems)
    if problems:
        return False, None, tuple(problems)
    return True, F(0), ()


def ref_solve_xi(cones, corners, euler):
    # Invariants are read as LocalInvariant reads them: a reduced mod b,
    # order-1 ones dropped.
    s = F(euler) + sum((F(a % b, b) for a, b in cones if b != 1), F(0))
    s += sum((F(a % b, b) for a, b in corners if b != 1), F(0)) / 2
    t = (-2 * s) % 2
    if t.denominator != 1:
        raise ValueError("no boundary bit makes the invariant relation hold")
    return int(t)


def ref_chi(base):
    chi = F(2 if base.surface is S2 else 1)
    for n in base.cone_labels:
        chi -= 1 - F(1, n)
    for m in base.corner_labels:
        chi -= F(1, 2) * (1 - F(1, m))
    return chi


def ref_is_spherical(f):
    return ref_chi(f.base) > 0 and f.euler != 0


# -- strategies --------------------------------------------------------------

# Small orders give relations that close and bases of either sign of chi;
# orders up to 10^9 give large common denominators.
orders = st.one_of(st.integers(1, 12), st.integers(1, 10**9))
numerators = st.one_of(st.integers(-30, 30), st.integers(-(10**12), 10**12))
pairs = st.lists(st.tuples(numerators, orders), max_size=4)
# Corner invariants over order 2 with a = 1 make the corner sum odd.
corner_pairs = st.lists(st.one_of(st.just((1, 2)), st.tuples(numerators, orders)), max_size=4)


@st.composite
def eulers(draw):
    den = draw(st.one_of(st.integers(1, 12), st.integers(1, 10**9)))
    return F(draw(numerators), den)


@st.composite
def relation_data(draw):
    """(surface, cones, corners, e): e either random or closing the
    relation for some boundary bit, shifted by an integer."""
    surface = draw(st.sampled_from([S2, RP2, D2]))
    cones = draw(pairs)
    corners = draw(corner_pairs) if surface is D2 else []
    if draw(st.booleans()):
        e = draw(eulers())
    else:
        s = sum((F(a, b) for a, b in cones), F(0)) + sum((F(a, b) for a, b in corners), F(0)) / 2
        e = -s - F(draw(st.integers(0, 1)), 2) + draw(st.integers(-3, 3))
    return surface, cones, corners, e


@st.composite
def fibered(draw):
    """A FiberedOrbifold whose base labels match its invariants, or (one
    time in four) a base with labels of its own."""
    surface, cones, corners, e = draw(relation_data())
    xi = (draw(st.integers(0, 1)),) if surface is D2 else ()
    invariants = [LocalInvariant(a, b) for a, b in cones]
    corner_invariants = [LocalInvariant(a, b) for a, b in corners]
    if draw(st.integers(0, 3)):
        labels = [i.b for i in invariants], [i.b for i in corner_invariants]
    else:
        labels = draw(st.lists(orders, max_size=4)), (
            draw(st.lists(orders, max_size=4)) if surface is D2 else []
        )
    return FiberedOrbifold(TwoOrbifold(surface, *labels), invariants, corner_invariants, e, xi)


# -- the kernel against the reference ----------------------------------------


@given(fibered())
@example(  # cone orders, corner orders and the relation all fail
    FiberedOrbifold(TwoOrbifold(D2, [3], [5]), [LocalInvariant(1, 2)], [LocalInvariant(1, 4)],
                    F(1, 3), (0,))
)
@settings(max_examples=300, deadline=None)
def test_validate_matches_fraction_reference(f):
    res = validate(f)
    assert (res.ok, res.residue, res.problems) == ref_validate(f)


@given(relation_data())
@settings(max_examples=300, deadline=None)
def test_solve_xi_matches_fraction_reference(data):
    _, cones, corners, e = data
    try:
        expected = ref_solve_xi(cones, corners, e)
    except ValueError:
        with pytest.raises(ValueError):
            solve_xi(cones, corners, e)
    else:
        assert solve_xi(cones, corners, e) == expected


@given(fibered())
@settings(max_examples=300, deadline=None)
def test_is_spherical_matches_fraction_reference(f):
    assert is_spherical(f) == ref_is_spherical(f)


def test_odd_corner_sum_is_not_halved_away():
    # The corner sum 1/2 + 1/2 + 1/2 is odd over the common denominator 2:
    # (1/2)(3/2) = 3/4, so e = -3/4 closes the relation with xi = 0 only,
    # and e = -1/4 with xi = 1 only.
    corners = [(1, 2)] * 3
    assert solve_xi([], corners, F(-3, 4)) == 0
    assert solve_xi([], corners, F(-1, 4)) == 1
    with pytest.raises(ValueError):
        solve_xi([], corners, F(-1, 2))
    base = TwoOrbifold(D2, (), (2, 2, 2))
    assert validate(FiberedOrbifold(base, (), corners, F(-3, 4), (0,))).ok
    bad = validate(FiberedOrbifold(base, (), corners, F(-3, 4), (1,)))
    assert not bad.ok and bad.residue == F(-1, 2)


# -- the orbifold order ------------------------------------------------------


def _quotients(max_order):
    for g in enumerate_quotient_groups(max_order):
        yield g, quotient_hopf(g)
        try:
            a = quotient_antihopf(g)
        except ValueError:
            continue
        if not isinstance(a, NoInvariantFibration):
            yield g, a


def test_orbifold_order_is_the_group_order_on_every_quotient():
    seen = 0
    for g, f in _quotients(200):
        assert orbifold_order(f) == group_order(g), (g, f)
        seen += 1
    assert seen > 1000


def test_orbifold_order_agrees_across_every_diffeomorphic_atlas_pair():
    """Atlas-200 rows grouped by diffeo_signature: every member of a class
    is diffeomorphic to the first, with the same orbifold order."""
    classes = defaultdict(list)
    for _, f in _quotients(200):
        classes[diffeo_signature(f)].append(f)
    assert len(classes) > 500
    for members in classes.values():
        first = members[0]
        for f in members[1:]:
            assert are_diffeomorphic(first, f), (first, f)
            assert orbifold_order(f) == orbifold_order(first), (first, f)


def test_orbifold_order_is_refused_over_bad_and_nonspherical_bases():
    teardrop = FiberedOrbifold.from_data(S2, [(0, 2), (8, 11)], [], F(3, 11))
    assert validate(teardrop).ok and is_spherical(teardrop)
    with pytest.raises(ValueError):
        orbifold_order(teardrop)
    with pytest.raises(ValueError):
        orbifold_order(FiberedOrbifold.from_data(S2, [(1, 2)] * 4, [], -1))
