import os
import pickle
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seifert_orbifolds.core import (
    FiberedOrbifold,
    LocalInvariant,
    Surface,
    TwoOrbifold,
    _normal_form,
    check_valid,
    euler_characteristic,
    is_bad,
    is_spherical,
    normalize,
    relation_sum,
    reverse_orientation,
    s3_fibration,
    solve_xi,
    validate,
)

S2, RP2, D2 = Surface.SPHERE, Surface.PROJECTIVE_PLANE, Surface.DISK


def mk(surface, cones, corners, e, xi=None):
    return FiberedOrbifold.from_data(surface, cones, corners, e, xi)


class TestTwoOrbifold:
    def test_label_one_dropped(self):
        assert TwoOrbifold(S2, (1, 2, 2)).cone_labels == (2, 2)

    def test_corner_reflectors_need_disk(self):
        builds = (
            lambda surface: TwoOrbifold(surface, (3,), (2, 2)),
            lambda surface: FiberedOrbifold.from_data(surface, [(1, 3)], [(1, 2)], F(-1, 12)),
            lambda surface: _normal_form(surface, [(1, 3)], [(1, 2)], F(-1, 12)),
        )
        for surface in (S2, RP2):
            for build in builds:
                with pytest.raises(ValueError, match="^corner reflectors only occur on a disk base$"):
                    build(surface)

    def test_labels_sorted(self):
        assert TwoOrbifold(S2, (5, 2, 3)).cone_labels == (2, 3, 5)


class TestEulerCharacteristic:
    def test_sphere(self):
        assert euler_characteristic(TwoOrbifold(S2)) == 2

    def test_235(self):
        assert euler_characteristic(TwoOrbifold(S2, (2, 3, 5))) == F(1, 30)

    def test_disk_with_cone_and_corner(self):
        assert euler_characteristic(TwoOrbifold(D2, (3,), (2,))) == F(1, 12)

    def test_disk_corners(self):
        assert euler_characteristic(TwoOrbifold(D2, (), (2, 2, 4))) == F(1, 8)

    def test_double_of_disk_doubles_chi(self):
        for corners in [(), (3, 3), (2, 2, 5), (2, 3, 4)]:
            disk = TwoOrbifold(D2, (), corners)
            doubled = TwoOrbifold(S2, corners, ())
            assert euler_characteristic(doubled) == 2 * euler_characteristic(disk)


class TestIsBad:
    def test_distinct_sphere_labels(self):
        assert is_bad(TwoOrbifold(S2, (2, 3)))

    def test_teardrop(self):
        assert is_bad(TwoOrbifold(S2, (7,)))

    def test_equal_labels_good(self):
        assert not is_bad(TwoOrbifold(S2, (3, 3)))
        assert not is_bad(TwoOrbifold(D2, (), (5, 5)))

    def test_distinct_corners_bad(self):
        assert is_bad(TwoOrbifold(D2, (), (2, 5)))

    def test_rejects_nonpositive_chi(self):
        with pytest.raises(ValueError):
            is_bad(TwoOrbifold(S2, (2, 3, 7)))


class TestLocalInvariant:
    def test_canonical_representative(self):
        assert LocalInvariant(5, 3) == LocalInvariant(2, 3)
        assert LocalInvariant(-1, 4).a == 3

    def test_index(self):
        assert LocalInvariant(0, 2).index == 2
        assert LocalInvariant(1, 4).index == 1
        assert LocalInvariant(2, 4).index == 2

    def test_keyword_arguments_and_order_check(self):
        assert LocalInvariant(a=7, b=4) == LocalInvariant(3, 4)
        with pytest.raises(ValueError, match="order must be >= 1"):
            LocalInvariant(1, 0)


class TestNonIntegralNumbersRejected:
    """Labels, invariants, bits and group parameters are integers and an
    Euler class is exact: nothing is truncated to fit."""

    @pytest.mark.parametrize("a, b", [(1, 2.5), (1.5, 2), (1, 2.0), ("1", 2), (1, F(5, 2))])
    def test_local_invariant(self, a, b):
        with pytest.raises(ValueError, match="local invariants must be integers"):
            LocalInvariant(a, b)

    @pytest.mark.parametrize("labels", [(2.7, 3), (2.0, 3), ("2", 3)])
    def test_labels(self, labels):
        with pytest.raises(ValueError, match="singularity labels must be integers"):
            TwoOrbifold(S2, labels)
        with pytest.raises(ValueError, match="singularity labels must be integers"):
            TwoOrbifold(D2, (), labels)

    def test_invariant_pairs_of_from_data(self):
        with pytest.raises(ValueError, match="local invariants must be integers"):
            mk(S2, [(1, 2.5)], [], F(-1, 2))
        with pytest.raises(ValueError, match="local invariants must be integers"):
            mk(D2, [], [(0.5, 2)], F(-1, 2))

    @pytest.mark.parametrize("xi", [1.0, (1.0,), ("1",)])
    def test_boundary_bit(self, xi):
        with pytest.raises(ValueError, match="xi entries must be integers"):
            mk(D2, [], [], -1, xi)
        with pytest.raises(ValueError, match="xi entries must be integers"):
            FiberedOrbifold(TwoOrbifold(D2), (), (), F(-1), xi if isinstance(xi, tuple) else (xi,))

    @pytest.mark.parametrize("e", [-0.5, -1.0, 0.0])
    def test_float_euler_class(self, e):
        with pytest.raises(ValueError, match="Euler class must be exact"):
            mk(S2, [(1, 2)], [], e)
        with pytest.raises(ValueError, match="Euler class must be exact"):
            FiberedOrbifold(TwoOrbifold(S2, (2,)), ((1, 2),), (), e)
        with pytest.raises(ValueError, match="Euler class must be exact"):
            solve_xi([], [(1, 2)], e)

    def test_s3_fibration_parameters(self):
        with pytest.raises(ValueError, match="u and v must be integers"):
            s3_fibration(2.5, 3)

    def test_exact_inputs_still_accepted(self):
        f = mk(S2, [(True, 2)], [], F(-1, 2))
        assert f == mk(S2, [(1, 2)], [], "-1/2") == FiberedOrbifold(
            TwoOrbifold(S2, (2,)), (LocalInvariant(1, 2),), (), F(-1, 2)
        )
        assert str(f) == "(S2(2); 1/2; -1/2)"
        assert mk(D2, [], [], -1, 0) == mk(D2, [], [], -1, (0,)) == mk(D2, [], [], -1)


class TestCachedHashAndStr:
    """The hash and str of a FiberedOrbifold are computed once and kept out
    of the fields, of equality, of repr and of pickles."""

    def _equal_values(self):
        made = mk(D2, [], [(1, 2), (1, 2), (1, 4)], F(-1, 8))
        unsorted = FiberedOrbifold(
            made.base, (), tuple(reversed(made.corner_invariants)), made.euler, made.xi
        )
        twice_reversed = reverse_orientation(reverse_orientation(made))
        reduced = normalize(mk(D2, [], [(5, 4), (3, 2), (1, 2)], F(-1, 8)))
        return [made, normalize(unsorted), twice_reversed, reduced]

    def test_equal_values_hash_and_print_alike(self):
        values = self._equal_values()
        assert len({id(f) for f in values}) == len(values)
        for f in values:
            assert f == values[0]
            assert hash(f) == hash(values[0])
            assert str(f) == str(values[0]) == "(D2(;2,2,4); ; 1/2,1/2,1/4; -1/8; 1)"
        assert len(set(values)) == 1

    def test_hash_is_the_field_tuple_hash(self):
        f = self._equal_values()[0]
        assert hash(f) == hash(tuple(getattr(f, field.name) for field in fields(f)))

    def test_fields_eq_and_repr_unchanged(self):
        assert [field.name for field in fields(FiberedOrbifold)] == [
            "base", "cone_invariants", "corner_invariants", "euler", "xi"
        ]
        f = mk(S2, [(1, 2)], [], F(-1, 2))
        fresh = mk(S2, [(1, 2)], [], F(-1, 2))
        before = repr(f)
        hash(f), str(f)
        assert repr(f) == before == repr(fresh) == (
            "FiberedOrbifold(base=TwoOrbifold(surface=<Surface.SPHERE: 'S2'>, "
            "cone_labels=(2,), corner_labels=()), "
            "cone_invariants=(LocalInvariant(a=1, b=2),), corner_invariants=(), "
            "euler=Fraction(-1, 2), xi=())"
        )
        assert f == fresh and not f != fresh
        assert f != mk(S2, [(1, 2)], [], F(1, 2))

    def test_pickle_drops_the_kept_values(self):
        f = mk(S2, [(1, 2), (1, 3)], [], F(-1, 6))
        hash(f), str(f)
        g = pickle.loads(pickle.dumps(f))
        assert "_hash" not in vars(g) and "_str" not in vars(g)
        assert g == f and hash(g) == hash(f) and str(g) == str(f)

    def test_pickled_value_is_found_under_another_hash_seed(self):
        """A hash kept through a pickle would be the sender's, and Surface
        hashes by identity, so a set of equal values in another process
        would not find it."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        make = (
            "from fractions import Fraction as F\n"
            "from seifert_orbifolds.core import FiberedOrbifold, Surface\n"
            "f = FiberedOrbifold.from_data(Surface.DISK, [(1, 3)], [(1, 2)], F(-1, 12))\n"
        )
        dump = make + (
            "import pickle, sys\n"
            "assert f in {f} and str(f)\n"
            "sys.stdout.buffer.write(pickle.dumps(f))\n"
        )
        load = make + (
            "import pickle, sys\n"
            "g = pickle.loads(sys.stdin.buffer.read())\n"
            "print(g in {f}, f in {g}, hash(g) == hash(f), str(g) == str(f))\n"
        )

        def run(code, seed, stdin=b""):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", code], input=stdin, env=env, capture_output=True, check=True
            )
            return done.stdout

        assert run(load, "2", run(dump, "1")).decode().split() == ["True"] * 4


class TestValidate:
    def test_table_row_ok(self):
        f = mk(S2, [(1, 3), (1, 2), (1, 2)], [], F(-1, 3))
        assert validate(f).ok

    def test_hopf_ok(self):
        assert validate(mk(S2, [], [], -1)).ok

    def test_violation_residue(self):
        f = FiberedOrbifold(
            TwoOrbifold(S2, (2, 2, 3)),
            (LocalInvariant(0, 2), LocalInvariant(0, 2), LocalInvariant(1, 3)),
            (),
            F(-1, 2),
        )
        res = validate(f)
        assert not res.ok
        assert res.residue == F(-1, 6)

    def test_mismatched_labels(self):
        f = FiberedOrbifold(
            TwoOrbifold(S2, (2, 2)), (LocalInvariant(1, 2),), (), F(-1, 2)
        )
        res = validate(f)
        assert not res.ok and res.residue is None


class TestNormalize:
    def test_mod_one_reduction_at_construction(self):
        f = mk(S2, [(5, 3), (1, 2), (1, 2)], [], F(-5, 3))
        assert LocalInvariant(2, 3) in f.cone_invariants

    def test_order_one_point_dropped(self):
        f = mk(S2, [(0, 1), (1, 2), (1, 2)], [], -1)
        assert normalize(f).base == TwoOrbifold(S2, (2, 2))

    def test_sorting(self):
        f = mk(S2, [(1, 3), (1, 2), (0, 2)], [], F(-11, 6))
        g = normalize(f)
        assert [(i.a, i.b) for i in g.cone_invariants] == [(0, 2), (1, 2), (1, 3)]
        assert g.euler == f.euler

    def test_idempotent_and_residue_preserving(self):
        f = mk(D2, [(1, 2)], [(2, 5)], F(3, 10), 1)
        g = normalize(f)
        assert normalize(g) == g
        assert relation_sum(g) - relation_sum(f) == int(relation_sum(g) - relation_sum(f))


class TestReverseOrientation:
    def test_example(self):
        f = mk(S2, [(1, 2), (1, 2), (1, 3)], [], F(-4, 3))
        assert reverse_orientation(f) == normalize(
            mk(S2, [(1, 2), (1, 2), (2, 3)], [], F(4, 3))
        )

    def test_hopf(self):
        assert reverse_orientation(mk(S2, [], [], -1)) == mk(S2, [], [], 1)

    def test_disk_no_corners_keeps_xi(self):
        f = mk(D2, [], [], -1, 0)
        assert reverse_orientation(f) == mk(D2, [], [], 1, 0)

    def test_involution(self):
        f = mk(D2, [(1, 3)], [(1, 2)], F(-1, 12), 1)
        assert reverse_orientation(reverse_orientation(f)) == normalize(f)

    def test_result_validates_with_odd_corner_count(self):
        # one nonzero corner invariant: the boundary bit flips
        f = mk(D2, [(1, 2)], [(1, 3)], F(-1, 6))
        assert f.xi == (1,)
        g = reverse_orientation(f)
        assert validate(g).ok and g.xi == (0,)


class TestSpherical:
    def test_table_row(self):
        assert is_spherical(mk(S2, [(1, 2), (1, 3), (1, 5)], [], F(-1, 30)))

    def test_zero_euler(self):
        assert not is_spherical(mk(S2, [], [], 0))

    def test_negative_chi(self):
        f = mk(S2, [(1, 2), (1, 3), (6, 7)], [], F(-85, 42) + 2)
        assert not is_spherical(f)


class TestS3Fibration:
    def test_hopf(self):
        assert s3_fibration(1, 1, 1) == mk(S2, [], [], -1)

    def test_2_3(self):
        assert s3_fibration(2, 3, 1) == normalize(
            mk(S2, [(1, 2), (2, 3)], [], F(-1, 6))
        )

    def test_1_2(self):
        assert s3_fibration(1, 2, 1) == normalize(mk(S2, [(1, 2)], [], F(-1, 2)))

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            s3_fibration(2, 4)

    def test_base_bad_except_hopf(self):
        for u in range(1, 7):
            for v in range(1, 7):
                from math import gcd

                if gcd(u, v) != 1:
                    continue
                f = s3_fibration(u, v, 1)
                assert validate(f).ok
                if (u, v) == (1, 1):
                    assert not f.base.cone_labels
                else:
                    assert is_bad(f.base)


def chain(surface, cones, corners, e):
    """The three calls that `_normal_form` replaces."""
    return check_valid(normalize(FiberedOrbifold.from_data(surface, cones, corners, e)))


def outcome(build, *args):
    """Fields, str, hash and repr of the value build(*args) returns, or the
    type and message of what it raises."""
    try:
        f = build(*args)
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)
    values = tuple(getattr(f, field.name) for field in fields(f))
    return values, vars(f.base), str(f), hash(f), repr(f)


def assert_same_as_chain(*args):
    expected = outcome(chain, *args)
    assert outcome(_normal_form, *args) == expected, args
    return expected


class TestNormalFormBuilder:
    """`_normal_form` returns and raises exactly what the chain
    check_valid(normalize(FiberedOrbifold.from_data(...))) does."""

    def test_grid(self):
        invariants = [
            [], [(1, 2)], [(0, 2), (1, 2)], [(1, 2), (0, 2), (5, 3)], [(-1, 4), (3, 1)],
            [(7, 5), (1, 2), (2, 5)], [(2, 6), (1, 3)],
        ]
        seen = Counter()
        for surface in (S2, RP2, D2, "D2"):
            for cones in invariants:
                for corners in invariants[:4]:
                    closing = -sum(F(a, b) for a, b in cones) - sum(F(a, 2 * b) for a, b in corners)
                    for e in (closing, closing - 1, closing + F(1, 2), F(-1, 6), F(1, 12), 0):
                        seen[assert_same_as_chain(surface, cones, corners, e)[0]] += 1
        assert seen[ValueError] > 200 and sum(seen.values()) - seen[ValueError] > 200

    @pytest.mark.parametrize(
        "args, message",
        [
            ((S2, [(1, 3)], [(1, 2)], F(-1, 12)), "corner reflectors only occur on a disk base"),
            ((RP2, [(1, 3)], [(1, 2)], F(-1, 12)), "corner reflectors only occur on a disk base"),
            ((S2, [(1, 2)], [], F(-1, 3)), "invalid fibered orbifold (S2(2); 1/2; -1/3): "
             "invariant relation fails with residue 1/6"),
            ((D2, [(1, 3)], [], F(-1, 2)), "no boundary bit makes the invariant relation hold"),
            ((S2, [(1, 2)], [], -0.5), "the Euler class must be exact"),
            ((S2, [(1.5, 2)], [], F(-1, 2)), "local invariants must be integers, got 1.5/2"),
            ((D2, [], [(1, 2.0)], F(-1, 4)), "local invariants must be integers, got 1/2.0"),
            ((S2, [(1, 0)], [], F(-1, 2)), "invariant order must be >= 1"),
            ((S2, [(1, 2), (1, -3)], [(1.5, 2)], 0.5), "invariant order must be >= 1"),
            (("T2", [(1, 2)], [], F(-1, 2)), "'T2' is not a valid Surface"),
            ((S2, [(1,)], [], F(-1, 2)), "tuple index out of range"),
        ],
    )
    def test_invalid_inputs_raise_the_chain_error(self, args, message):
        kind, text = assert_same_as_chain(*args)
        assert kind in (ValueError, IndexError) and text.startswith(message)

    def test_reduces_sorts_and_labels(self):
        f = _normal_form(D2, [(5, 4), (1, 1), (3, 2)], [(-1, 2)], F(-1, 2))
        assert [str(i) for i in f.cone_invariants] == ["1/2", "1/4"]
        assert [str(i) for i in f.corner_invariants] == ["1/2"]
        assert f.base == TwoOrbifold(D2, (4, 2), (2,))
        assert f.xi == (1,) and validate(f).ok


# -- property tests ----------------------------------------------------------

surfaces = st.sampled_from([S2, RP2, D2])
orders = st.integers(min_value=2, max_value=12)


@st.composite
def fibrations(draw):
    surface = draw(surfaces)
    n_cones = draw(st.integers(0, 3))
    cones = [(draw(st.integers(-15, 15)), draw(orders)) for _ in range(n_cones)]
    corners = []
    if surface is D2:
        n_corners = draw(st.integers(0, 3))
        corners = [(draw(st.integers(-15, 15)), draw(orders)) for _ in range(n_corners)]
    if surface is RP2:
        cones = cones[:1]
    # choose e as the unique value closing the relation, shifted by an integer
    s = sum(F(a % b, b) for a, b in cones) + F(1, 2) * sum(
        F(a % b, b) for a, b in corners
    )
    xi = None
    if surface is D2:
        xi = draw(st.integers(0, 1))
        s += F(xi, 2)
    e = -s + draw(st.integers(-3, 3))
    if e == 0:
        e = -s + 4
    return FiberedOrbifold.from_data(surface, cones, corners, e, xi)


@given(fibrations())
@settings(max_examples=250, deadline=None)
def test_constructed_fibrations_satisfy_relation(f):
    assert validate(f).ok
    assert relation_sum(f).denominator == 1


@given(fibrations())
@settings(max_examples=250, deadline=None)
def test_normalize_idempotent(f):
    g = normalize(f)
    assert normalize(g) == g


@given(fibrations())
@settings(max_examples=250, deadline=None)
def test_reverse_is_involution(f):
    assert reverse_orientation(reverse_orientation(f)) == normalize(f)
    assert validate(reverse_orientation(f)).ok


@given(st.integers(1, 30), st.integers(1, 30))
@settings(max_examples=120, deadline=None)
def test_s3_fibration_validates(u, v):
    from math import gcd

    if gcd(u, v) != 1:
        return
    for sign in (1, -1):
        f = s3_fibration(u, v, sign)
        assert validate(f).ok
        assert f.euler == F(-sign, u * v)
    assert s3_fibration(u, v, -1) == reverse_orientation(s3_fibration(u, v, 1))


def test_solve_xi_unique():
    assert solve_xi([(1, 2)], [(1, 3)], F(-1, 6)) == 1
    assert solve_xi([], [], -1) == 0
    with pytest.raises(ValueError):
        solve_xi([], [(1, 3)], F(-1, 2))


@st.composite
def builder_arguments(draw):
    """Raw builder arguments, valid or not: any surface with corners or
    none, orders from 0 up, and an Euler class that closes the relation,
    misses it by 1/7, or is a float."""
    surface = draw(st.sampled_from([S2, RP2, D2, "S2", "RP2", "D2"]))
    pairs = st.lists(st.tuples(st.integers(-15, 15), st.integers(0, 12)), max_size=4)
    cones = draw(pairs)
    corners = draw(pairs) if draw(st.booleans()) else []
    closing = -sum(F(a, b) for a, b in cones if b) - sum(F(a, 2 * b) for a, b in corners if b)
    e = draw(st.sampled_from([closing, closing + F(1, 2), closing + F(1, 7), float(closing)]))
    return surface, cones, corners, e


@given(builder_arguments())
@settings(max_examples=400, deadline=None)
def test_builder_matches_the_chain(args):
    assert_same_as_chain(*args)
