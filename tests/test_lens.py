import time
from fractions import Fraction as F
from math import gcd

import pytest

from seifert_orbifolds import classify
from seifert_orbifolds.classify import diffeo_key
from seifert_orbifolds.core import FiberedOrbifold, Surface, normalize
from seifert_orbifolds.lens import (
    ClassicalSeifert,
    LensSpace,
    Mode,
    _lens_label,
    classical_from_fibration,
    lens_equiv,
    lens_from_classical,
)
from lens_oracle import match_fibration

S2, D2 = Surface.SPHERE, Surface.DISK


def mk(cones, e):
    return normalize(FiberedOrbifold.from_data(S2, cones, [], e))


def scan_label(cores, euler):
    """The O(p) search `_lens_label` used to run, kept as its oracle: the
    first unit q < p that `match_fibration` accepts, or None.

    The q with w2 != q*b1 (mod p) are passed over before the matcher,
    which rejects them at its first test; this only keeps the scan fast.
    """
    (a1, b1), (a2, b2) = cores
    e = F(euler)
    p, rem = divmod(abs(e.numerator) * b1 * b2, e.denominator)
    if e == 0 or rem:
        return None
    if p == 1:
        return LensSpace(1, 0)
    w2, rem = divmod(-p * e.denominator, e.numerator * b1)
    if rem:
        return None
    reduced = ((a1 % b1, b1), (a2 % b2, b2))
    for q in range(p):
        if (w2 - q * b1) % p == 0 and gcd(q, p) == 1:
            if match_fibration(p, q, reduced, e.numerator, e.denominator):
                return LensSpace(p, q)
    return None


def model_fibration(p, q, alpha, beta):
    """Cores and Euler class of the fibration of L(p, q) by the flow
    w = (alpha, alpha*q + beta*p), read off the quotient model.

    Pole 1 carries -x/alpha and pole 2 reads x*q + y*p over |w2|, negated
    when w2 < 0, where y*alpha - x*beta = 1.
    """
    w1, w2 = alpha, alpha * q + beta * p
    x = -pow(beta, -1, alpha) if alpha > 1 else 0
    y = (1 + x * beta) // alpha
    t = x * q + y * p
    a2 = t if w2 > 0 else -t
    return ((-x % w1, w1), (a2 % abs(w2), abs(w2))), F(-p, w1 * w2)


class TestLensSpaceNormalForm:
    def test_simultaneous_sign_flip(self):
        assert LensSpace(-4, -1) == LensSpace(4, 1)
        assert LensSpace(-3, 1) == LensSpace(3, 2)

    def test_q_reduced(self):
        assert LensSpace(5, 12).q == 2

    def test_p_zero_rejected(self):
        with pytest.raises(ValueError):
            LensSpace(0, 1)

    @pytest.mark.parametrize("p, q", [(7.5, 2), ("7", "2"), (7, 2.9), (7.0, 2), (F(7), 2)])
    def test_non_integral_p_and_q_rejected(self, p, q):
        """Each of these read as L(7,2) when p and q went through int()."""
        with pytest.raises(ValueError, match="p and q must be integers"):
            LensSpace(p, q)

    @pytest.mark.parametrize("fractions", [(0.5, 0.25), (F(1, 2), 0.25), (1.0, 0)])
    def test_float_classical_fractions_rejected(self, fractions):
        with pytest.raises(ValueError, match="classical fractions must be exact"):
            ClassicalSeifert(fractions)

    def test_exact_classical_fractions_accepted(self):
        assert ClassicalSeifert((1, "1/2")).fractions == (F(1), F(1, 2))


class TestClassicalFromFibration:
    def test_integral_invariants(self):
        c, i1, i2 = classical_from_fibration(mk([(0, 2), (0, 2)], -1))
        assert (i1, i2) == (2, 2)
        assert c.fractions == (F(1), F(0))
        assert c.euler == -1

    def test_index_two_cores(self):
        c, i1, i2 = classical_from_fibration(mk([(2, 4), (2, 4)], -1))
        assert (i1, i2) == (2, 2)
        assert c.fractions == (F(1, 2), F(1, 2))

    def test_padding(self):
        c, i1, i2 = classical_from_fibration(mk([(1, 3)], F(-1, 3)))
        assert (i1, i2) == (1, 1)
        assert c.fractions == (F(1, 3), F(0))

    def test_rejects_three_cones(self):
        with pytest.raises(ValueError):
            classical_from_fibration(mk([(1, 2), (1, 3), (1, 5)], F(-1, 30)))


class TestLensFromClassical:
    def test_s3(self):
        assert lens_from_classical(ClassicalSeifert((F(1), F(0)))) == LensSpace(1, 0)

    def test_half_half(self):
        assert lens_from_classical(ClassicalSeifert((F(1, 2), F(1, 2)))) == LensSpace(4, 3)

    def test_one_one(self):
        assert lens_from_classical(ClassicalSeifert((F(1), F(1)))) == LensSpace(2, 1)

    def test_euler_zero_rejected(self):
        with pytest.raises(ValueError):
            lens_from_classical(ClassicalSeifert((F(1, 2), F(-1, 2))))

    def test_representation_move_invariance(self):
        # shifting the fractions by integers with zero sum fixes the label
        base = ClassicalSeifert((F(1, 3), F(1, 5)))
        ref = lens_from_classical(base)
        for k in (-2, -1, 1, 2):
            shifted = ClassicalSeifert((base.fractions[0] + k, base.fractions[1] - k))
            assert lens_from_classical(shifted) == ref

    def test_swap_inverts_q(self):
        c = ClassicalSeifert((F(1, 3), F(1, 5)))
        x = lens_from_classical(c)
        y = lens_from_classical(ClassicalSeifert((F(1, 5), F(1, 3))))
        assert x.p == y.p
        assert lens_equiv(x, y, Mode.ORIENTED)

    def test_same_manifold_across_fibrations(self):
        # two fibrations of one quotient of S^3 must get the same label
        a = lens_from_classical(ClassicalSeifert((F(-4), F(0))))   # (S2; ; 4)
        b = lens_from_classical(ClassicalSeifert((F(1, 2), F(1, 2))))
        assert a == b == LensSpace(4, 3)
        am = lens_from_classical(ClassicalSeifert((F(4), F(0))))   # mirror
        bm = lens_from_classical(ClassicalSeifert((F(-3, 2), F(1, 2))))
        assert am == bm == LensSpace(4, 1)
        assert not lens_equiv(a, am)


class TestLensEquiv:
    def test_inverse_residue(self):
        assert lens_equiv(LensSpace(5, 2), LensSpace(5, 3))

    def test_fixed_cores_stricter(self):
        assert not lens_equiv(LensSpace(5, 2), LensSpace(5, 3), Mode.FIXED_CORES)

    def test_identity(self):
        assert lens_equiv(LensSpace(7, 3), LensSpace(7, 3), Mode.FIXED_CORES)

    def test_different_p(self):
        assert not lens_equiv(LensSpace(5, 2), LensSpace(7, 2))

    def test_oracle_partition(self):
        # brute-force classes by q' in {q, q^-1} mod p, independently coded
        for p in range(1, 31):
            qs = [q for q in range(p) if gcd(p, q) == 1] or [0]
            classes = {}
            for q in qs:
                orbit = {q % p}
                if gcd(q, p) == 1 and p > 1:
                    orbit.add(pow(q, -1, p))
                classes[q] = frozenset(orbit)
            for q1 in qs:
                for q2 in qs:
                    expected = classes[q1] == classes[q2] or q2 in classes[q1]
                    got = lens_equiv(LensSpace(p, q1), LensSpace(p, q2))
                    assert got == expected, (p, q1, q2)


class TestRecognizerRoundTrip:
    def test_all_small_lens_fibrations(self):
        # every fibration of L(p, q) must be recognized as L(p, q)
        for p in range(2, 13):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                for alpha in range(1, 5):
                    for beta in range(-4, 5):
                        if gcd(alpha, beta) != 1:
                            continue
                        w1, w2 = alpha, alpha * q + beta * p
                        if w2 == 0:
                            continue
                        e = F(-p, w1 * w2)
                        for a1 in range(w1):
                            for a2 in range(abs(w2)):
                                cores = ((a1, w1), (a2, abs(w2)))
                                if match_fibration(p, q, cores, e.numerator, e.denominator):
                                    lab = _lens_label(cores, e.numerator, e.denominator)
                                    assert lab == LensSpace(p, q), (p, q, w1, w2)


# the label bound and the windings of e of the two-side grid below
GRID_LABEL = 9
KS = range(-2, 3)


class TestClosedFormLabel:
    def test_matches_scan_on_every_model_fibration(self):
        # every unit q of every p <= 200, flows alpha <= 4, |beta| <= 4; the
        # units mod alpha <= 4 are their own inverses, so alpha from 5 to 9
        # runs too, over p <= 50
        cases = 0
        for p in range(2, 201):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                for alpha in range(1, 5 if p > 50 else 10):
                    for beta in range(-4, 5):
                        if gcd(alpha, beta) != 1 or alpha * q + beta * p == 0:
                            continue
                        cores, e = model_fibration(p, q, alpha, beta)
                        want = LensSpace(p, q)
                        assert _lens_label(cores, e.numerator, e.denominator) == want, (p, q, alpha, beta)
                        assert scan_label(cores, e) == want, (p, q, alpha, beta)
                        cases += 1
        assert cases > 300000

    def test_agrees_with_scan_where_scan_finds_a_label(self):
        # small tuples, lens or not: the scan finds a label exactly where
        # p = 1, or the cores are reduced and the sum relation holds (the
        # contract of the module docstring's proof), and there the closed
        # form gives the same label
        misses = hits = 0
        for b1 in range(1, 8):
            for b2 in range(1, 8):
                for a1 in range(-1, b1):
                    for a2 in range(b2):
                        for m in range(1, 11):
                            for e in (F(-m, b1 * b2), F(m, b1 * b2), F(-m, b1)):
                                cores = ((a1, b1), (a2, b2))
                                want = scan_label(cores, e)
                                in_contract = (
                                    gcd(a1, b1) == gcd(a2, b2) == 1
                                    and (e + F(a1, b1) + F(a2, b2)).denominator == 1)
                                p = abs(e) * b1 * b2
                                assert (want is not None) == (p == 1 or in_contract), (cores, e)
                                if want is None:
                                    misses += 1
                                else:
                                    assert _lens_label(cores, e.numerator, e.denominator) == want, (cores, e)
                                    hits += 1
        assert misses > 10000 and hits > 1000

    def test_every_key_call_is_in_contract_and_matches_scan(self, monkeypatch):
        # every valid spherical S2(b1,b2) and D2(;b1,b2) fibration with
        # labels <= GRID_LABEL (1: no singular point), s the sum of its two
        # invariants and e = k - s on S2, k - (s + xi)/2 on D2, k in KS:
        # each `_lens_label` call `diffeo_key` makes gets reduced cores and
        # an Euler class (2e on a disk) that satisfy the sum relation, and
        # returns the label the scan finds
        seen = []

        def recording(cores, n, d):
            label = original(cores, n, d)
            seen.append((cores, n, d, label))
            return label

        original = classify._lens_label
        monkeypatch.setattr(classify, "_lens_label", recording)
        sides, cases = set(), 0
        for b1 in range(1, GRID_LABEL + 1):
            for b2 in range(b1, GRID_LABEL + 1):
                for a1 in range(b1):
                    for a2 in range(b2):
                        pairs, s = [(a1, b1), (a2, b2)], F(a1, b1) + F(a2, b2)
                        values = [FiberedOrbifold.from_data(S2, pairs, [], k - s) for k in KS
                                  if k != s]
                        values += [FiberedOrbifold.from_data(D2, [], pairs, k - (s + xi) / 2, xi)
                                   for k in KS for xi in (0, 1) if 2 * k != s + xi]
                        for f in values:
                            seen.clear()
                            key = diffeo_key(f)
                            assert len(seen) == 1, f
                            ((c1, c2), n, d, label), = seen
                            assert gcd(*c1) == gcd(*c2) == 1, (f, seen)
                            assert (F(n, d) + F(*c1) + F(*c2)).denominator == 1, (f, seen)
                            assert label == key.lens == scan_label((c1, c2), F(n, d)), f
                            sides.add(key.orbifold_class)
                            cases += 1
        assert len(sides) == 2 and cases > 17000

    @pytest.mark.parametrize("p, q, alpha, beta", [
        (1000000007, 1, 1, 0),
        (1000000007, 1000000006, 1, -1),
        (10007, 2, 1, 0),
        (20011, 10003, 1, 0),
    ])
    def test_large_p_in_under_a_second(self, p, q, alpha, beta):
        cores, e = model_fibration(p, q, alpha, beta)
        start = time.perf_counter()
        label = _lens_label(cores, e.numerator, e.denominator)
        assert time.perf_counter() - start < 1.0
        assert label == LensSpace(p, q)
