"""
An oracle for the singular lens orbifolds that shares no code with the
classifier: S^3/G for every finite subgroup G of the maximal torus T^2 of
SO(4), its Seifert invariants for several flows, and its lens key, each
read off the lattice of G alone.

T^2 acts on S^3 in C^2 by angles (t1, t2): (z1, z2) -> (e^{2 pi i t1} z1,
e^{2 pi i t2} z2).  A subgroup G of order N is a lattice L containing Z^2
with index N; here G is the set of its elements as integer pairs g mod N,
the angles g/N.  Each L is listed once, by Hermite normal form: L is
spanned by Z^2, (1/a, s/N) and (0, 1/d), with a*d = N and 0 <= s < a, so
there are sigma(N) of them.

Key.  The core K1 = {z2 = 0} is fixed by G's elements with t1 = 0, and
K2 = {z1 = 0} by those with t2 = 0: their singularity indices are
i1 = |G n (1 x S^1)| and i2 = |G n (S^1 x 1)|.  The map (t1, t2) ->
(i2 t1, i1 t2) divides out the product of these two groups and leaves a
cyclic group <(1/p, q/p)>, p = N/(i1 i2), acting freely, so the
underlying space is the lens space L(p, q), with K1 as its first core.

Fibration.  A flow w = (w1, w2), primitive, w1 > 0 and w2 != 0, commutes
with T^2, so S^3/G is fibered over S^2 with two cone points, the images
of K1 and K2.  With D(l) = w1 l2 - w2 l1, D(L) = (1/c) Z and
L n Rw = Z w/k, where N = c k:
  - the cone orders are b1 = w1 c and b2 = |w2| c;
  - the Euler class is e = -k/(c w1 w2), from e(S^3) = -1/(w1 w2) and
    a covering of degree k on the fibres and N/k on the base;
  - for any l in L with D(l) = 1/c, the invariants are a1 = -N l1 mod
    b1 and a2 = sgn(w2) N l2 mod b2.  Such an l generates the local
    group at each core: it turns the base disk at K1 by 1/b1 and at K2
    by -sgn(w2)/b2, and moves along the fibre by a multiple of the
    fibre's period 1/k, which b1 l - (0, 1) and b2 l + sgn(w2) (1, 0)
    read off.  The signs are the ones for which the sum relation
    e + a1/b1 + a2/b2 = 0 holds exactly, and the free cyclic groups pin
    them against `model_fibration`.

The oracle imports only the command line's `run_command`, to read each
key as it prints it; it imports neither `lens` nor `classify`.
"""

import contextlib
import io
import json
from fractions import Fraction as F
from functools import cache
from math import gcd

from seifert_orbifolds.cli import run_command

# The Hopf and anti-Hopf flows, and two of unequal speeds, whose bases
# are bad, one of each chirality
FLOWS = ((1, 1), (1, -1), (3, 2), (1, -3))


def torus_groups(max_order):
    """(N, G) for each subgroup G of T^2 of order N <= max_order, by the
    Hermite normal form of its lattice: G is spanned by (d, s) and (0, a)
    mod N."""
    for n in range(1, max_order + 1):
        for a in (a for a in range(1, n + 1) if n % a == 0):
            d = n // a
            for s in range(a):
                yield n, frozenset(((k * d) % n, (k * s + j * a) % n)
                                   for k in range(a) for j in range(d))


def cyclic_group(p, q):
    """(p, G) for G generated by (1/p, q/p), the group of L(p, q)."""
    return p, frozenset((j, (j * q) % p) for j in range(p))


def swapped(group):
    """G under the coordinate swap (z1, z2) -> (z2, z1)."""
    return frozenset((g2, g1) for g1, g2 in group)


def lens_key(n, group):
    """((p, q), (i1, i2)): L(p, q) with K1 as its first core, and the
    singularity indices of K1 and K2."""
    i1 = sum(1 for g1, _ in group if g1 == 0)
    i2 = sum(1 for _, g2 in group if g2 == 0)
    p = n // (i1 * i2)
    # an element mapped to (1/p, q/p): i2 g1/n = 1/p (mod 1)
    g1, g2 = next(g for g in group if (i2 * g[0] * p - n) % (n * p) == 0)
    q = F(i1 * g2 * p, n)
    assert q.denominator == 1, (n, sorted(group))
    return (p, int(q) % p), (i1, i2)


def _bezout(w1, w2):
    """(x, y) with w1 x + w2 y = 1, for coprime w1 > 0 and w2."""
    x = pow(w1, -1, abs(w2)) if abs(w2) > 1 else 0
    return x, (1 - w1 * x) // w2


def fibration(n, group, w):
    """The Seifert invariants of S^3/G fibered by the flow w: the cones
    (a1/b1 at K1, a2/b2 at K2) and the Euler class above."""
    w1, w2 = w
    c = len({(w1 * g2 - w2 * g1) % n for g1, g2 in group})  # |D(L)/D(Z^2)|
    k = n // c
    g1, g2 = next(g for g in group if (w1 * g[1] - w2 * g[0] - k) % n == 0)
    # l = g/n - m (-y, x), with D(g/n) = 1/c + m and D((-y, x)) = 1
    m = (w1 * g2 - w2 * g1 - k) // n
    x, y = _bezout(w1, w2)
    b1, b2 = w1 * c, abs(w2) * c
    a1 = -(g1 + n * m * y) % b1
    a2 = (1 if w2 > 0 else -1) * (g2 - n * m * x) % b2
    e = F(-k, c * w1 * w2)
    assert (e + F(a1, b1) + F(a2, b2)).denominator == 1, (n, w)
    return ((a1, b1), (a2, b2)), e


def as_text(cones, e):
    """The expression of a fibration over S^2, without cones of order 1."""
    cones = [(a, b) for a, b in cones if b > 1]
    labels = "(%s)" % ",".join(str(b) for _, b in cones) if cones else ""
    return "S2%s; %s; ; %s" % (labels, ",".join("%d/%d" % c for c in cones), e)


def signature(key):
    """((p, q), (i1, i2)) with the larger index first, q read from that
    core, and q up to inversion when the indices are equal: the key up to
    the exchange of the cores, as `diffeo_signature` compares it."""
    (p, q), (i1, i2) = key
    if i1 < i2:
        q, (i1, i2) = pow(q, -1, p), (i2, i1)
    if i1 == i2 and q > 1:
        q = min(q, pow(q, -1, p))
    return (p, q), (i1, i2)


def printed_signature(text):
    """The signature of the key `seifert --json fibrations` prints for
    the sphere-class orbifold of text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_command(["--json", "fibrations", text]) == 0, text
    key = json.loads(out.getvalue())["diffeo_key"]
    assert key["class"] == "sphere", text
    assert (key["mode"] == "oriented") == (key["iota"][0] == key["iota"][1]), text
    return signature(((key["lens"]["p"], key["lens"]["q"]), tuple(key["iota"])))


@cache
def keyed_groups(max_order):
    """(N, G, the lattice's signature, the printed signature of each flow)
    for each torus group of order <= max_order, computed once."""
    return [(n, group, signature(lens_key(n, group)),
             [printed_signature(as_text(*fibration(n, group, w))) for w in FLOWS])
            for n, group in torus_groups(max_order)]


def test_free_cyclic_groups_calibrate_against_model_fibration():
    """The group of L(p, q) has the key L(p, q) with trivial cores, is
    listed by its Hermite normal form, and each flow gives the invariants
    `model_fibration` reads off the quotient model (which the lens tests
    check against the label scan)."""
    from test_lens import model_fibration  # the reference, not the oracle

    listed = set(torus_groups(39))
    cases = 0
    for p in range(2, 40):
        for q in (q for q in range(1, p) if gcd(p, q) == 1):
            group = cyclic_group(p, q)
            assert group in listed and lens_key(*group) == ((p, q), (1, 1))
            for alpha in range(1, 5):
                for beta in range(-4, 5):
                    w1, w2 = alpha, alpha * q + beta * p
                    if gcd(alpha, beta) == 1 and w2:
                        g = gcd(w1, w2)
                        got = fibration(*group, (w1 // g, w2 // g))
                        assert got == model_fibration(p, q, alpha, beta), (p, q, alpha, beta)
                        cases += 1
    assert cases > 10000


def test_every_flow_of_a_torus_group_gives_the_lattice_key():
    """Each flow of S^3/G gives one signature, and it is the one read off
    the lattice, up to the exchange of the cores."""
    rows = keyed_groups(60)
    assert len(rows) == 3014  # the sum of sigma(N) for N <= 60
    singular = fixed = chiral = 0
    for n, group, want, got in rows:
        assert got == [want] * len(FLOWS), (n, sorted(group))
        (p, q), (i1, i2) = want
        singular += i1 > 1
        fixed += i1 != i2
        chiral += i1 != i2 and p > 2 and q * q % p != 1  # the core order decides q
    assert singular > 1800 and fixed > 1500 and chiral > 700


def test_groups_the_swap_does_not_relate_have_distinct_keys():
    """Two torus groups have one signature exactly when the coordinate
    swap, the one Weyl element of SO(4) that moves a torus subgroup,
    takes one to the other."""
    by_signature = {}
    for n, group, want, _ in keyed_groups(60):
        by_signature.setdefault(want, set()).add(group)
    assert len(by_signature) == 1627
    for groups in by_signature.values():
        group = next(iter(groups))
        assert groups == {group, swapped(group)}, sorted(group)
