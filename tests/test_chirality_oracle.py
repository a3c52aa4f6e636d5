"""Chirality against two classical theorems, through the public
`are_diffeomorphic(f, reverse_orientation(f))`: f is amphichiral (its
orbifold admits an orientation-reversing diffeomorphism) exactly when the
decision says f and its mirror are diffeomorphic.

- Reidemeister and Brody: the lens space L(p, q) is amphichiral exactly
  when q^2 = -1 (mod p).  The fibrations are the quotient model's
  (`model_fibration`), which shares no code with the classifier.
- McCullough: a spherical 3-manifold whose fundamental group is not cyclic
  admits no orientation-reversing diffeomorphism.  Over S2 or RP2 with
  every cone index 1 the total space is a manifold, and a finite-class
  one has a non-cyclic fundamental group.

Only the public classify functions are used.
"""

from math import gcd

from test_lens import model_fibration
from test_rule_table import atlas_values, grid

from seifert_orbifolds.classify import FibrationClass, are_diffeomorphic, fibration_class
from seifert_orbifolds.core import FiberedOrbifold, Surface, reverse_orientation


def amphichiral(f):
    return are_diffeomorphic(f, reverse_orientation(f))


def test_lens_space_chirality_is_reidemeister_brody():
    checked = 0
    for p in range(1, 61):
        for q in range(p):
            if gcd(p, q) != 1:
                continue
            expected = (q * q + 1) % p == 0
            for alpha in (1, 2, 3):
                for beta in range(-3, 4):
                    if gcd(alpha, beta) != 1 or alpha * q + beta * p == 0:
                        continue
                    cores, e = model_fibration(p, q, alpha, beta)
                    f = FiberedOrbifold.from_data(Surface.SPHERE, cores, [], e)
                    assert amphichiral(f) == expected, (p, q, alpha, beta, f)
                    checked += 1
    assert checked > 16000


def is_manifold(f):
    """Over S2 or RP2 with every cone invariant of index 1."""
    return (f.base.surface in (Surface.SPHERE, Surface.PROJECTIVE_PLANE)
            and all(gcd(i.a, i.b) == 1 for i in f.cone_invariants))


def test_finite_class_manifolds_are_chiral():
    manifolds = [f for f in grid() | atlas_values(200)
                 if is_manifold(f) and fibration_class(f) is FibrationClass.FINITE]
    assert len(manifolds) > 1000
    assert [f for f in manifolds if amphichiral(f)] == []
