"""
Lens space computation and oriented classification.

A fibered orbifold over a sphere with at most two cone points has a lens
space as underlying manifold.  `_cores` reads its two cores, ordered and
reduced by their singularity indices, and `_lens_label` names the oriented
lens space from them and the Euler class, in integers.  The public route
through two-fraction data (`classical_from_fibration`, then
`lens_from_classical`) gives the same label.

Lens spaces are named by the quotient model

    L(p, q) = S^3 / < (z1, z2) -> (exp(2*pi*i/p) z1, exp(2*pi*i*q/p) z2) >

oriented as a quotient of the standard S^3.  The recognizer inverts the
quotient construction exactly: the Seifert fibrations of L(p, q) are the
images of the circle flows (z1, z2) -> (exp(i*w1*t) z1, exp(i*w2*t) z2)
indexed by the vectors w = (alpha, alpha*q + beta*p) with gcd(alpha, beta)
= 1; such a fibration has cone orders (|w1|, |w2|), Euler class
-p/(w1*w2), and local invariants read off from a unimodular solve in the
weight lattice.  Matching a given tuple against the candidate q therefore
recovers the oriented label, consistently across all fibrations of one
manifold (a consistency that naive gluing-matrix arithmetic loses when
fibrations of opposite flow chirality are mixed).

The candidate q is solved for, not searched.  Given cores (a1/b1, a2/b2)
and Euler class e, p = |e|*b1*b2 and the flow vector is pinned to w1 = b1
= alpha and w2 = -p/(e*b1).  The unimodular solve y*alpha - x*beta = 1
gives -x = beta^-1 (mod b1), and pole 1 must read a1, so beta = a1^-1
(mod b1).  With w2 = alpha*q + beta*p this leaves one residue,

    q = (w2 - a1^-1 * p) / b1   (mod p),   a1^-1 taken mod b1 (0 if b1 = 1),

which exists only if b1 divides w2 - a1^-1 * p.  The matcher then checks
that candidate in full, so the label costs O(log p) rather than O(p).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from .core import FiberedOrbifold, Surface, _as_rational, _integer, is_spherical, validate


class Mode(Enum):
    ORIENTED = "oriented"
    FIXED_CORES = "fixed-cores"


@dataclass(frozen=True)
class ClassicalSeifert:
    """Classical Seifert data (S2; a1/b1, a2/b2) of a two-fiber manifold.

    Fractions are reduced, padded with 0/1 when a cone point is missing,
    and chosen so that -(a1/b1 + a2/b2) is the Euler class.
    """

    fractions: tuple[Fraction, Fraction]

    def __post_init__(self):
        fr = tuple(_as_rational(x, "classical fractions") for x in self.fractions)
        if len(fr) != 2:
            raise ValueError("classical data has exactly two fractions")
        object.__setattr__(self, "fractions", fr)

    @property
    def euler(self) -> Fraction:
        return -(self.fractions[0] + self.fractions[1])

    def __str__(self):
        return "(%s, %s)" % self.fractions


@dataclass(frozen=True)
class LensSpace:
    """Oriented lens space L(p, q), stored with p > 0 and 0 <= q < p.

    The defining data are invariant under simultaneous negation, so
    constructors accept any (p, q) with p != 0 and flip both signs before
    reducing q modulo p.
    """

    p: int
    q: int

    def __post_init__(self):
        p, q = _integer(self.p, "p and q"), _integer(self.q, "p and q")
        if p == 0:
            raise ValueError("p = 0 does not name a lens space")
        if p < 0:
            p, q = -p, -q
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q % p)

    def __str__(self):
        return "L(%d,%d)" % (self.p, self.q)


def _cores(invariants):
    """The two cores, ordered by descending (index, b, a) and padded with
    0/1, as the pairs (a/iota, b/iota) and their indices iota = gcd(a, b)."""
    keyed = sorted([(gcd(i.a, i.b), i.b, i.a) for i in invariants], reverse=True)
    keyed += [(1, 1, 0)] * (2 - len(keyed))  # 0/1, keyed
    return tuple((a // i, b // i) for i, b, a in keyed), tuple(i for i, _, _ in keyed)


def classical_from_fibration(f: FiberedOrbifold) -> tuple[ClassicalSeifert, int, int]:
    """Classical data and core singularity indices of a sphere-class orbifold.

    Requires a normalized spherical fibration over S2 with at most two cone
    points.  The cores are those of `_cores`; the first fraction is shifted
    by an integer so that -(a1/b1 + a2/b2) is the Euler class.  Returns
    (classical data, iota1, iota2) with iota1 >= iota2.
    """
    if f.base.surface is not Surface.SPHERE or len(f.base.cone_labels) > 2:
        raise ValueError("base must be a sphere with at most two cone points")
    if not validate(f).ok or not is_spherical(f):
        raise ValueError("expected a valid spherical fibration")
    cores, (i1, i2) = _cores(f.cone_invariants)
    reduced = [Fraction(a, b) for a, b in cores]
    shift = -f.euler - reduced[0] - reduced[1]
    if shift.denominator != 1:
        raise ValueError("Euler class inconsistent with the invariants")
    return ClassicalSeifert((reduced[0] + shift, reduced[1])), i1, i2


def _match_fibration(p, q, cores, euler) -> bool:
    """Whether L(p, q) carries the fibration with the given core data.

    cores = ((a1, b1), (a2, b2)) in a fixed order (pole 1, pole 2); the
    flow vector is pinned by w1 = b1 > 0 and e = -p/(w1*w2).  All checks
    run in integers, with e = n/d.
    """
    (a1, b1), (a2, b2) = cores
    n, d = euler.numerator, euler.denominator
    w1 = b1
    w2, rem = divmod(-p * d, n * w1)
    if rem or abs(w2) != b2:
        return False
    if (w2 - q * w1) % p != 0:
        return False
    beta = (w2 - q * w1) // p
    alpha = w1
    if gcd(alpha, beta) != 1:
        return False
    # Unimodular solve: y*alpha - x*beta = 1 gives the deck transformation
    # generating the local group at each pole.  The pole-2 reading follows
    # the flow, so it negates when the flow runs backwards in z2.  Any
    # solution gives the same readings: shifting (x, y) by k*(alpha, beta)
    # keeps -x mod b1 (alpha = b1) and moves t by k*w2, with |w2| = b2.
    x = -pow(beta, -1, alpha)
    y = (1 + x * beta) // alpha
    if (-x) % b1 != a1 % b1:
        return False
    t = x * q + y * p
    a2x = t % b2 if w2 > 0 else (-t) % b2
    if a2x != a2 % b2:
        return False
    # a realizable reading always satisfies the sum relation
    # n/d + ((-x) % b1)/b1 + a2x/b2 = 0 (mod 1), here multiplied by d*b1*b2
    return (n * b1 * b2 + ((-x) % b1) * d * b2 + a2x * d * b1) % (d * b1 * b2) == 0


def _lens_label(cores, e: Fraction) -> LensSpace:
    """Oriented lens space carrying the two-core fibration, cores ordered.

    cores = ((a1, b1), (a2, b2)) with gcd(ai, bi) = 1; the returned q uses
    the convention that pole 1 is the first core, so fixed-core
    comparisons may use q directly while free comparisons also allow the
    inverse residue.

    q is solved for, not searched (derivation in the module docstring):
    w2 = -p/(e*b1) and beta = a1^-1 (mod b1) leave the one candidate
    q = (w2 - a1^-1*p)/b1 (mod p), returned only if the matcher accepts it.
    """
    (a1, b1), (a2, b2) = cores
    if e == 0:
        raise ValueError("p = 0: total space is not spherical")
    p, rem = divmod(abs(e.numerator) * b1 * b2, e.denominator)
    if rem:
        raise ValueError("inconsistent lens data")
    if p == 1:
        return LensSpace(1, 0)
    w2, rem = divmod(-p * e.denominator, e.numerator * b1)  # w2 = -p/(e*b1)
    if not rem and gcd(a1, b1) == 1:
        q, rem = divmod(w2 - pow(a1, -1, b1) * p, b1)
        q %= p
        if not rem and gcd(q, p) == 1 and _match_fibration(
            p, q, ((a1 % b1, b1), (a2 % b2, b2)), e
        ):
            return LensSpace(p, q)
    raise ValueError(
        "no lens space carries the fibration (%s/%s, %s/%s; %s)" % (a1, b1, a2, b2, e)
    )


def lens_from_classical(c: ClassicalSeifert) -> LensSpace:
    """The oriented lens space underlying two-fraction classical data.

    The label does not depend on the representation: shifting the
    fractions by integers with zero sum leaves it unchanged, and swapping
    the two fractions inverts q modulo p.
    """
    a1, b1 = c.fractions[0].numerator, c.fractions[0].denominator
    a2, b2 = c.fractions[1].numerator, c.fractions[1].denominator
    return _lens_label(((a1, b1), (a2, b2)), c.euler)


def lens_equiv(x: LensSpace, y: LensSpace, mode: Mode = Mode.ORIENTED) -> bool:
    """Oriented equivalence of lens spaces.

    ORIENTED: p = p' and q' congruent to q or to the inverse of q mod p
    (the comparing diffeomorphism may exchange the two solid tori).
    FIXED_CORES: p = p' and q = q' mod p, used when the two cores carry
    distinct singularity indices and may not be exchanged.
    """
    if x.p != y.p:
        return False
    p = x.p
    if (x.q - y.q) % p == 0:
        return True
    if mode is Mode.FIXED_CORES:
        return False
    return (x.q * y.q - 1) % p == 0
