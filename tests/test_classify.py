from collections import Counter
from fractions import Fraction as F

import pytest

from seifert_orbifolds.core import (
    FiberedOrbifold,
    Surface,
    euler_characteristic,
    normalize,
    reverse_orientation,
    validate,
)
from seifert_orbifolds.classify import (
    _CROSS,
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
from seifert_orbifolds.lens import (
    LensSpace,
    Mode,
    classical_from_fibration,
    lens_from_classical,
)

S2, RP2, D2 = Surface.SPHERE, Surface.PROJECTIVE_PLANE, Surface.DISK


def mk(surface, cones, corners, e, xi=None):
    return normalize(FiberedOrbifold.from_data(surface, cones, corners, e, xi))


class TestFibrationClass:
    def test_sphere_small_bases(self):
        assert fibration_class(mk(S2, [(0, 2), (0, 2)], [], -1)) is (
            FibrationClass.INFINITE_SPHERE_SIDE
        )

    def test_exceptional_routed_to_disk(self):
        f = mk(S2, [(0, 2), (0, 2), (1, 3)], [], F(-1, 3))
        assert fibration_class(f) is FibrationClass.INFINITE_DISK_SIDE

    def test_generic_finite(self):
        f = mk(S2, [(1, 2), (1, 3), (1, 5)], [], F(-1, 30))
        assert fibration_class(f) is FibrationClass.FINITE

    def test_rp2_no_cone(self):
        assert fibration_class(mk(RP2, [], [], -1)) is (
            FibrationClass.INFINITE_SPHERE_SIDE
        )
        assert fibration_class(mk(RP2, [], [], -3)) is FibrationClass.FINITE

    def test_non_spherical_rejected(self):
        with pytest.raises(ValueError):
            fibration_class(mk(S2, [], [], 0))


class TestEnumerateFibrations:
    def test_prism_pair(self):
        f = mk(S2, [(1, 2), (1, 2), (1, 3)], [], F(2, 3))
        assert enumerate_fibrations(f) == {f, mk(RP2, [(1, 2)], [], F(-3, 2))}

    def test_three_fibrations(self):
        f = mk(S2, [(0, 2), (0, 2), (2, 4)], [], F(-1, 2))
        assert enumerate_fibrations(f) == {
            f,
            mk(D2, [(0, 2)], [], 2, 0),
            mk(D2, [], [(1, 2), (1, 2), (1, 4)], F(-1, 8), 1),
        }

    def test_unique(self):
        f = mk(S2, [(1, 2), (1, 3), (1, 5)], [], F(-1, 30))
        assert enumerate_fibrations(f) == {f}

    def test_sporadic(self):
        f = mk(S2, [(0, 2), (2, 3), (2, 3)], [], F(-1, 3))
        assert enumerate_fibrations(f) == {f, mk(D2, [(1, 3)], [(1, 2)], F(-1, 12), 1)}

    def test_rp2_partner(self):
        f = mk(RP2, [(1, 3)], [], F(2, 3))
        assert enumerate_fibrations(f) == {
            f,
            mk(S2, [(1, 2), (1, 2), (1, 2)], [], F(-3, 2)),
        }

    def test_rp2_no_cone_partner(self):
        f = mk(RP2, [], [], -3)
        assert enumerate_fibrations(f) == {
            f,
            mk(S2, [(1, 2), (1, 2), (2, 3)], [], F(1, 3)),
        }

    def test_infinite_class_rejected(self):
        with pytest.raises(InfiniteClassError):
            enumerate_fibrations(mk(S2, [(0, 2), (0, 2)], [], -1))

    def test_all_closures_small(self):
        # rewrite closures never exceed three fibrations on a sweep
        for b in range(2, 12):
            for c in range(-6, 7):
                if c == 0:
                    continue
                for m in ((0, 0), (1, 1), (0, 1)):
                    try:
                        f = mk(S2, [(m[0], 2), (m[1], 2), ((-c) % b, b)], [],
                               F(c, b if m[0] == m[1] else 2 * b))
                    except ValueError:
                        continue
                    if not validate(f).ok:
                        continue
                    if fibration_class(f) is not FibrationClass.FINITE:
                        continue
                    n = len(enumerate_fibrations(f))
                    assert 1 <= n <= 3


class TestFibrationCount:
    def test_three(self):
        assert fibration_count(mk(S2, [(0, 2), (0, 2), (2, 4)], [], F(-1, 2))) is (
            FibrationCount.THREE
        )

    def test_one(self):
        assert fibration_count(mk(S2, [(1, 2), (1, 3), (1, 4)], [], F(-1, 12))) is (
            FibrationCount.ONE
        )

    def test_two(self):
        assert fibration_count(mk(RP2, [(1, 3)], [], F(2, 3))) is FibrationCount.TWO

    def test_infinite(self):
        assert fibration_count(mk(S2, [(0, 2), (0, 2), (1, 3)], [], F(-1, 3))) is (
            FibrationCount.INFINITE
        )


class TestBridges:
    def test_case1_bridge(self):
        f = mk(S2, [(0, 2), (0, 2), (1, 3)], [], F(-1, 3))
        assert enumerate_bridges(f) == mk(D2, [], [(1, 3), (1, 3)], F(-1, 3), 0)

    def test_disk_special(self):
        f = mk(D2, [], [], -1, 0)
        assert enumerate_bridges(f) == mk(S2, [(0, 2), (0, 2)], [], -1)

    def test_none_for_finite(self):
        assert enumerate_bridges(mk(S2, [(1, 2), (1, 3), (1, 5)], [], F(-1, 30))) is None

    def test_cone_disk_bridges(self):
        # even and odd order cone disks route to the sphere class
        f = mk(D2, [(1, 4)], [], F(-1, 4), 0)
        assert enumerate_bridges(f) == mk(S2, [(2, 4), (2, 4)], [], -1)
        g = mk(D2, [(1, 3)], [], F(-1, 3), 0)
        assert enumerate_bridges(g) == mk(S2, [(4, 6), (4, 6)], [], F(-1, 3))

    def test_all_bridges_validate_and_cross_classes(self):
        samples = []
        for b in range(2, 16):
            for s in (1, -1):
                samples.append(mk(S2, [(0, 2), (0, 2), (s, b)], [], F(-s, b)))
                if b % 2 == 1:
                    samples.append(
                        mk(S2, [(0, 2), (1, 2), (s * (1 + b) // 2, b)], [], F(-s, 2 * b))
                    )
                    samples.append(mk(D2, [(s * (1 + b) // 2, b)], [], F(-s, 2 * b)))
                    samples.append(mk(D2, [], [(0, 2), (0, 2), (s, b)], F(-s, 2 * b)))
                    samples.append(
                        mk(D2, [], [(0, 2), (1, 2), (s * (b + 1) // 2, b)], F(-s, 4 * b))
                    )
                samples.append(mk(D2, [(s, b)], [], F(-s, b)))
                samples.append(mk(RP2, [(s, b)], [], F(-s, b)))
                samples.append(mk(D2, [(0, 2)], [(s, b)], F(-s, 2 * b)))
        for f in samples:
            g = enumerate_bridges(f)
            assert g is not None, f
            assert validate(g).ok
            assert fibration_class(f) is fibration_class(g)


class TestDoubleCover:
    def test_two_corners(self):
        f = mk(D2, [], [(1, 3), (1, 3)], F(-1, 3), 0)
        assert double_cover(f) == mk(S2, [(1, 3), (1, 3)], [], F(-2, 3))

    def test_bare_disk(self):
        assert double_cover(mk(D2, [], [], -1, 0)) == mk(S2, [], [], -2)

    def test_index_two_corners(self):
        f = mk(D2, [], [(0, 2), (0, 2)], -1, 0)
        assert double_cover(f) == mk(S2, [(0, 2), (0, 2)], [], -2)

    def test_rejects_cone_points(self):
        with pytest.raises(ValueError):
            double_cover(mk(D2, [(1, 3)], [], F(-1, 3), 0))

    def test_chi_doubles(self):
        f = mk(D2, [], [(1, 2), (1, 3), (1, 4)], F(-1, 24), 1)
        assert euler_characteristic(double_cover(f).base) == 2 * euler_characteristic(
            f.base
        )


class TestDiffeoKey:
    def test_hopf_link_orbifold(self):
        k = diffeo_key(mk(S2, [(0, 2), (0, 2)], [], -1))
        assert k.orbifold_class is OrbifoldClass.SPHERE_CLASS
        assert k.lens == LensSpace(1, 0)
        assert k.iota == (2, 2) and k.mode is Mode.ORIENTED

    def test_disk_class_key(self):
        k = diffeo_key(mk(D2, [], [(1, 3), (1, 3)], F(-1, 3), 0))
        assert k.orbifold_class is OrbifoldClass.DISK_CLASS
        assert k.lens == LensSpace(6, 5)
        assert k.iota == (1, 1)

    def test_index_two_cores_key(self):
        k = diffeo_key(mk(S2, [(2, 4), (2, 4)], [], -1))
        assert k.orbifold_class is OrbifoldClass.SPHERE_CLASS
        assert k.lens == LensSpace(4, 3)
        assert k.iota == (2, 2) and k.mode is Mode.ORIENTED

    def test_mixed_iota_uses_fixed_cores(self):
        k = diffeo_key(mk(S2, [(0, 2), (1, 2)], [], F(-1, 2)))
        assert k.iota == (2, 1) and k.mode is Mode.FIXED_CORES

    def test_finite_rejected(self):
        with pytest.raises(ValueError):
            diffeo_key(mk(S2, [(1, 2), (1, 3), (1, 5)], [], F(-1, 30)))


class TestAreDiffeomorphic:
    def test_case5_crossover(self):
        assert are_diffeomorphic(
            mk(S2, [(0, 2), (0, 2)], [], -1), mk(D2, [], [], -1, 0)
        )
        assert are_diffeomorphic(
            mk(S2, [(0, 2), (1, 2)], [], F(-1, 2)), mk(D2, [], [], F(-1, 2), 1)
        )

    def test_crossover_requires_the_special_pair(self):
        assert not are_diffeomorphic(
            mk(S2, [(0, 2), (0, 2)], [], -2), mk(D2, [], [], -2, 0)
        )

    def test_bridge_pair(self):
        assert are_diffeomorphic(
            mk(S2, [(0, 2), (0, 2), (1, 3)], [], F(-1, 3)),
            mk(D2, [], [(1, 3), (1, 3)], F(-1, 3), 0),
        )

    def test_unique_fibrations_differ(self):
        a = mk(S2, [(1, 2), (1, 3), (1, 5)], [], F(-1, 30))
        b = mk(S2, [(1, 2), (1, 3), (1, 5)], [], F(-31, 30))
        assert not are_diffeomorphic(a, b)
        assert are_diffeomorphic(a, a)

    def test_mixed_classes_differ(self):
        assert not are_diffeomorphic(
            mk(S2, [(1, 2), (1, 3), (1, 5)], [], F(-1, 30)),
            mk(S2, [(0, 2), (0, 2)], [], -1),
        )

    def test_same_manifold_two_fibrations(self):
        assert are_diffeomorphic(
            mk(S2, [], [], 4), mk(S2, [(1, 2), (1, 2)], [], -1)
        )

    def test_inverse_labels_name_one_lens_space(self):
        # L(15, 8) and L(15, 2): 2 * 8 = 1 (mod 15), so the cores exchange
        a = mk(S2, [(1, 2)], [], F(-15, 2))
        b = mk(S2, [(6, 7)], [], F(15, 7))
        assert (diffeo_key(a).lens, diffeo_key(b).lens) == (LensSpace(15, 8), LensSpace(15, 2))
        assert are_diffeomorphic(a, b) and are_diffeomorphic(b, a)

    def test_mirror_lens_orbifolds_differ(self):
        assert not are_diffeomorphic(
            mk(S2, [(2, 4), (2, 4)], [], -1), mk(S2, [(2, 4), (2, 4)], [], 1)
        )

    def test_fixed_cores_distinction(self):
        # same lens space, distinct singularity indices on the cores
        a = mk(S2, [(0, 5), (1, 5)], [], F(4, 5) - 1)
        b = mk(S2, [(0, 5), (2, 5)], [], F(3, 5) - 1)
        ka, kb = diffeo_key(a), diffeo_key(b)
        assert ka.iota == kb.iota == (5, 1)
        assert ka.mode is Mode.FIXED_CORES
        assert are_diffeomorphic(a, a) and are_diffeomorphic(b, b)


class TestInvolution:
    def test_forward_backward(self):
        samples = [
            mk(S2, [(0, 2), (0, 2), (1, 5)], [], F(4, 5)),
            mk(S2, [(1, 2), (1, 2), (3, 7)], [], F(4, 7)),
            mk(S2, [(0, 2), (1, 2), (1, 5)], [], F(3, 10)),
            mk(D2, [], [(0, 2), (0, 2), (2, 5)], F(3, 10)),
            mk(D2, [], [(1, 2), (1, 2), (2, 5)], F(3, 10)),
            mk(D2, [], [(0, 2), (1, 2), (1, 6)], F(-1, 3)),
            mk(D2, [(1, 2)], [(4, 7)], F(-2, 7)),
            mk(D2, [(0, 2)], [(3, 7)], F(-3, 14)),
        ]
        for f in samples:
            for g in single_step(f):
                assert f in single_step(g), (f, g)

    def test_orientation_equivariance(self):
        pairs = [
            (mk(S2, [(0, 2), (0, 2), (1, 3)], [], F(-1, 3)),
             mk(D2, [], [(1, 3), (1, 3)], F(-1, 3), 0)),
            (mk(S2, [(1, 2), (1, 3), (1, 5)], [], F(-1, 30)),
             mk(S2, [(1, 2), (1, 3), (1, 5)], [], F(-31, 30))),
            (mk(S2, [(2, 4), (2, 4)], [], -1), mk(S2, [(2, 4), (2, 4)], [], 1)),
        ]
        for f, g in pairs:
            assert are_diffeomorphic(f, g) == are_diffeomorphic(
                reverse_orientation(f), reverse_orientation(g)
            )


def test_one_signature_comparison_agrees_with_the_two_branch_decision():
    """are_diffeomorphic compares the signatures of the two invariants.
    The decision it replaced is the oracle: g in the closure of f for a
    finite pair, equal signatures of the small-base representatives' keys
    for an infinite pair, and no to a mixed pair.  Every ordered pair of
    equal orbifold order among the atlas-100 quotients and their mirrors is
    compared."""
    import contextlib
    import io
    import json

    from seifert_orbifolds.classify import (
        _enumerate_fibrations,
        _key,
        _read_class,
        _signature,
    )
    from seifert_orbifolds.cli import parse_fibration, run_command
    from seifert_orbifolds.core import orbifold_order

    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert run_command(["--json", "atlas", "--max-order", "100"]) == 0
    quotients = {parse_fibration(m["quotient"])
                 for line in out.getvalue().splitlines()
                 for m in json.loads(line)["members"]}
    by_order = {}
    for f in quotients | {reverse_orientation(f) for f in quotients}:
        filed = {}
        r, readings = _read_class(f, filed)
        old = ((True, _enumerate_fibrations(f, readings, filed)) if r is None
               else (False, _signature(_key(r))))
        by_order.setdefault(orbifold_order(f), []).append((f, old))

    outcomes = Counter()
    for same_order in by_order.values():
        for f, (f_finite, f_old) in same_order:
            for g, (g_finite, g_old) in same_order:
                if f_finite != g_finite:
                    expected = False
                elif f_finite:
                    expected = g in f_old
                else:
                    expected = f_old == g_old
                assert are_diffeomorphic(f, g) == expected, (f, g)
                outcomes[f_finite, g_finite, expected] += 1
    assert sum(outcomes.values()) > 60000
    assert all(outcomes[kind, kind, answer] > 100
               for kind in (True, False) for answer in (True, False))
    assert outcomes[True, False, False] > 0


def test_transitivity_within_atlas_classes():
    # all triples within each diffeomorphism class of the order-200 sweep
    from itertools import combinations

    from seifert_orbifolds.classify import diffeo_signature
    from seifert_orbifolds.groups import (
        NoInvariantFibration,
        enumerate_quotient_groups,
        quotient_antihopf,
        quotient_hopf,
    )

    classes = {}
    for g in enumerate_quotient_groups(200):
        members = [quotient_hopf(g)]
        try:
            a = quotient_antihopf(g)
        except ValueError:
            a = None
        if a is not None and not isinstance(a, NoInvariantFibration):
            members.append(a)
        for f in members:
            sig = diffeo_signature(f)
            key = sig if not isinstance(sig, frozenset) else tuple(sorted(map(str, sig)))
            classes.setdefault(key, set()).add(f)
    checked = 0
    for members in classes.values():
        members = sorted(members, key=str)[:4]
        for x, y, z in combinations(members, 3):
            assert are_diffeomorphic(x, y)
            assert are_diffeomorphic(y, z)
            assert are_diffeomorphic(x, z)
            checked += 1
    assert checked > 50


def test_decorated_core_keys_agree_across_fibrations():
    # different fibrations of one singular lens orbifold share one key:
    # decorate the two Heegaard cores of each small lens space with fixed
    # singularity indices through several of its fibrations and compare
    from math import gcd

    from seifert_orbifolds.lens import _match_fibration

    def manifold_fibrations(p, q, bound=4):
        out = []
        for alpha in range(1, bound):
            for beta in range(-bound, bound):
                if gcd(alpha, beta) != 1:
                    continue
                w1, w2 = alpha, alpha * q + beta * p
                if w2 == 0:
                    continue
                e = F(-p, w1 * w2)
                for a1 in range(w1):
                    for a2 in range(abs(w2)):
                        if _match_fibration(p, q, ((a1, w1), (a2, abs(w2))), e.numerator,
                                            e.denominator):
                            out.append(((a1, w1), (a2, abs(w2)), e))
        return out

    for p, q in ((3, 1), (4, 1), (4, 3), (5, 2), (7, 3), (8, 5)):
        fibs = manifold_fibrations(p, q)
        for i1, i2 in ((2, 1), (3, 2), (2, 2)):
            keys = set()
            members = []
            for c1, c2, e in fibs[:5]:
                deco = [(i1 * c1[0], i1 * c1[1]), (i2 * c2[0], i2 * c2[1])]
                try:
                    f = mk(S2, deco, [], e)
                except ValueError:
                    continue
                if fibration_class(f) is not FibrationClass.INFINITE_SPHERE_SIDE:
                    continue
                k = diffeo_key(f)
                keys.add((k.lens, k.iota, k.mode))
                members.append(f)
            assert len(keys) <= 1, (p, q, i1, i2, keys)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    assert are_diffeomorphic(members[i], members[j])


def test_key_agrees_with_the_two_fraction_route(two_label_grid):
    # diffeo_key reads the cores in integers; the public route builds the
    # double cover and the classical fractions, then names the lens space
    for f in two_label_grid:
        on_disk = f.base.surface is D2
        data, i1, i2 = classical_from_fibration(double_cover(f) if on_disk else f)
        assert diffeo_key(f) == DiffeoKey(
            OrbifoldClass.DISK_CLASS if on_disk else OrbifoldClass.SPHERE_CLASS,
            lens_from_classical(data),
            (i1, i2),
            Mode.ORIENTED if i1 == i2 else Mode.FIXED_CORES,
        ), f


def test_cross_table_is_reached_by_the_crossover_orbifolds_only(two_label_grid):
    # (sphere-side, disk-side) fibration of the two orbifolds fibered over
    # both S2(2,2) and D2, as in TestAreDiffeomorphic.test_case5_crossover
    crossover = (
        (mk(S2, [(0, 2), (0, 2)], [], -1), mk(D2, [], [], -1, 0)),
        (mk(S2, [(0, 2), (1, 2)], [], F(-1, 2)), mk(D2, [], [], F(-1, 2), 1)),
    )
    entries, keys = set(), set()
    for idx, pair in enumerate(crossover):
        for f in pair + tuple(reverse_orientation(g) for g in pair):
            k = diffeo_key(f)
            # p <= 2 here, so q is already the canonical residue
            entry = (k.orbifold_class.value, k.lens.p, k.lens.q, k.iota)
            assert _CROSS[entry] == diffeo_signature(f) == ("cross", idx), f
            entries.add(entry)
            keys.add(k)
    assert entries == set(_CROSS)
    folded = set(_CROSS.values())
    assert {diffeo_key(f) for f in two_label_grid if diffeo_signature(f) in folded} == keys
