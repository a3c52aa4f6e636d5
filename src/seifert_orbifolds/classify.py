"""
Fibration counting and orientation-preserving diffeomorphism decisions for
spherical Seifert fibered 3-orbifolds.

Orbifolds whose base is a sphere with at most two cone points or a disk
with at most two corner reflectors carry infinitely many fibrations; they
are compared through a lens-space key (underlying lens space plus the
singularity indices of the two Heegaard cores).  Everything else carries
one, two or three fibrations, enumerated by a closed set of bidirectional
rewrite rules, one per displayed diffeomorphism of the classification:

  * prism moves on S2(2,2,b) against D2(c;) and RP2(c) bases;
  * the mirrored moves on D2(;2,2,b) and D2(2;b) bases;
  * the extra fibrations of the tuples that admit three (the "i and j are
    conjugate in S3 but not in the Hopf normalizer" phenomenon);
  * four sporadic pairs on S2(2,3,b) / D2(;2,3,b) / D2(3;2) bases.

A separate bridge table routes each exceptional tuple of the infinite
regime to a representative with small base, and the two sporadic orbifolds
fibering over both S2(2,2) and D2 connect the sphere and disk classes.
Every rule applies from either side of the displayed relation and is
closed under simultaneous orientation reversal of both sides.

Each public function validates its arguments once, through
`_require_normal_spherical`, and hands the normal form to a private core
(`_fibration_class`, `_enumerate_fibrations`, `_diffeo_key`, ...).  The
cores trust their argument and call only other cores; the values the
rules and bridges build are still checked as they are made.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .core import (
    FiberedOrbifold,
    Surface,
    check_valid,
    is_spherical,
    normalize,
)
from .lens import (
    LensSpace,
    Mode,
    classical_from_fibration,
    lens_equiv,
    lens_from_classical,
)


class FibrationClass(Enum):
    FINITE = "finite"
    INFINITE_SPHERE_SIDE = "infinite-sphere-side"
    INFINITE_DISK_SIDE = "infinite-disk-side"


class FibrationCount(Enum):
    ONE = 1
    TWO = 2
    THREE = 3
    INFINITE = "infinite"


class OrbifoldClass(Enum):
    SPHERE_CLASS = "sphere"
    DISK_CLASS = "disk"


@dataclass(frozen=True)
class DiffeoKey:
    """Complete oriented-diffeomorphism invariant of an infinite-class
    orbifold, within its class."""

    orbifold_class: OrbifoldClass
    lens: LensSpace
    iota: tuple[int, int]
    mode: Mode


class InfiniteClassError(Exception):
    """Raised when a finite enumeration is requested of an orbifold that
    admits infinitely many fibrations."""


def _require_normal_spherical(f: FiberedOrbifold) -> FiberedOrbifold:
    """The guard of the public functions: the normal form of f, checked
    valid and spherical."""
    f = normalize(f)
    check_valid(f)
    if not is_spherical(f):
        raise ValueError("operation requires a spherical fibered orbifold: %s" % f)
    return f


# -- shape helpers ----------------------------------------------------------


def _shape(f: FiberedOrbifold):
    return (f.base.surface, len(f.base.cone_labels), len(f.base.corner_labels))


def _assignments_222b(invariants):
    """Readings of a three-label list with at least two 2s as (m1, m2, b).

    m1 <= m2 are the values over two order-2 labels and b the remaining
    label; on an all-2s base every distinguished slot is tried.
    """
    out = set()
    invs = list(invariants)
    for k in range(3):
        rest = [invs[i] for i in range(3) if i != k]
        if rest[0].b == 2 and rest[1].b == 2:
            m1, m2 = sorted(i.a for i in rest)
            out.add((m1, m2, invs[k].b))
    return sorted(out)


def _mk(surface, cones, corners, e):
    f = normalize(FiberedOrbifold.from_data(surface, cones, corners, e))
    return check_valid(f)


def _try_mk(surface, cones, corners, e):
    try:
        return _mk(surface, cones, corners, e)
    except ValueError:
        return None


def _int_or_none(q: Fraction):
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else None


# -- sporadic pairs (bases S2(2,3,b), D2(;2,3,b), D2(3;2)) ------------------

_SPORADIC_CACHE = None


def _sporadic():
    global _SPORADIC_CACHE
    if _SPORADIC_CACHE is None:
        S, D = Surface.SPHERE, Surface.DISK
        pairs = []
        for s in (1, -1):
            pairs.append((
                _mk(S, [(0, 2), (2 * s, 3), (2 * s, 3)], [], Fraction(-s, 3)),
                _mk(D, [(s, 3)], [(s, 2)], Fraction(-s, 12)),
            ))
            pairs.append((
                _mk(S, [(0, 2), (2 * s, 3), (2 * s, 4)], [], Fraction(-s, 6)),
                _mk(D, [], [(1, 2), (s, 3), (s, 4)], Fraction(-s, 24)),
            ))
            pairs.append((
                _mk(S, [(0, 2), (s, 3), (3 * s, 4)], [], Fraction(-s, 12)),
                _mk(D, [], [(1, 2), (s, 3), (s, 3)], Fraction(-s, 12)),
            ))
            pairs.append((
                _mk(S, [(0, 2), (2 * s, 3), (2 * s, 5)], [], Fraction(-s, 15)),
                _mk(D, [], [(1, 2), (s, 3), (s, 5)], Fraction(-s, 60)),
            ))
        _SPORADIC_CACHE = pairs
    return _SPORADIC_CACHE


# -- forward rules ----------------------------------------------------------


def _forward(f: FiberedOrbifold) -> list[FiberedOrbifold]:
    """Single applications of the displayed moves with f as the left side.

    f must be normalized, valid, spherical and of finite class; the guards
    that keep exceptional (infinite-class) instances out are built in.
    """
    out = []
    surface, ncones, ncorners = _shape(f)
    e = f.euler
    S, D, RP = Surface.SPHERE, Surface.DISK, Surface.PROJECTIVE_PLANE

    if surface is S and ncones == 3:
        for m1, m2, b in _assignments_222b(f.cone_invariants):
            if (m1, m2) == (0, 0):
                c = _int_or_none(b * e)
                if c is not None and abs(c) >= 2:
                    # prism move: cone base D2(|c|;) with invariant b/c
                    sgn = 1 if c > 0 else -1
                    out.append(_mk(D, [(b * sgn, abs(c))], [], Fraction(-b, c)))
                if c is not None and abs(c) == 2:
                    # extra fibration of the three-fibration tuples
                    s = -c // 2
                    if b % 2 == 0:
                        out.append(_mk(D, [], [(1, 2), (1, 2), (s, b)], Fraction(-s, 2 * b)))
                    else:
                        out.append(_mk(D, [(1, 2)], [(s, b)], Fraction(-s, 2 * b)))
            elif (m1, m2) == (1, 1):
                c = _int_or_none(b * e)
                if c is not None and c != 0:
                    sgn = 1 if c > 0 else -1
                    out.append(_mk(RP, [(b * sgn, abs(c))], [], Fraction(-b, c)))
            else:  # (m1, m2) == (0, 1)
                a = _int_or_none(2 * b * e)
                # the move pairing the mixed pattern with a cone disk exists
                # for b >= 3 only (its families carry b odd or b even >= 4)
                if a is not None and abs(a) >= 2 and b >= 3:
                    sgn = 1 if a > 0 else -1
                    out.append(
                        _mk(D, [(sgn * (a + b) // 2, abs(a))], [], Fraction(-b, 2 * a))
                    )
                if a is not None and abs(a) == 2 and b % 2 == 0 and b >= 4:
                    s = -a // 2
                    h = b // 2
                    if h % 2 == 1:
                        out.append(_mk(D, [], [(1, 2), (1, 2), (s, h)], Fraction(-s, 2 * h)))
                    else:
                        out.append(_mk(D, [(1, 2)], [(s, h)], Fraction(-s, 2 * h)))

    if surface is D and ncones == 0 and ncorners == 3:
        for m1, m2, b in _assignments_222b(f.corner_invariants):
            if (m1, m2) == (0, 0):
                c = _int_or_none(2 * b * e)
                if c is not None and abs(c) >= 2:
                    sgn = 1 if c > 0 else -1
                    out.append(
                        _mk(D, [], [(0, 2), (0, 2), (b * sgn, abs(c))], Fraction(-b, 2 * c))
                    )
            elif (m1, m2) == (1, 1):
                c = _int_or_none(2 * b * e)
                if c is not None and abs(c) >= 2:
                    sgn = 1 if c > 0 else -1
                    out.append(_mk(D, [(0, 2)], [(b * sgn, abs(c))], Fraction(-b, 2 * c)))
                if c is not None and abs(c) == 1:
                    # lands on the cone-only base D2(2;)
                    out.append(_mk(D, [(0, 2)], [], Fraction(-b, 2 * c)))
            else:  # (m1, m2) == (0, 1)
                a = _int_or_none(4 * b * e)
                if a is not None and abs(a) >= 2:
                    sgn = 1 if a > 0 else -1
                    out.append(
                        _mk(
                            D,
                            [],
                            [(0, 2), (1, 2), (sgn * (a + b) // 2, abs(a))],
                            Fraction(-b, 4 * a),
                        )
                    )

    if surface is D and ncones == 1 and ncorners == 1:
        (cone,) = f.cone_invariants
        (corner,) = f.corner_invariants
        b = corner.b
        if cone.b == 2 and cone.a == 1:
            a = _int_or_none(2 * b * e)
            if a is not None and abs(a) >= 2:
                sgn = 1 if a > 0 else -1
                out.append(_mk(D, [(1, 2)], [(b * sgn, abs(a))], Fraction(-b, 2 * a)))
            if a is not None and abs(a) == 1:
                out.append(_mk(D, [(1, 2)], [], Fraction(-b, 2 * a)))

    for left, right in _sporadic():
        if f == left:
            out.append(right)
        elif f == right:
            out.append(left)

    return out


# -- inverse candidates ------------------------------------------------------


def _inverse_candidates(f: FiberedOrbifold) -> list[FiberedOrbifold]:
    """Possible left sides whose forward move could produce f.

    The caller keeps a candidate P exactly when f appears in _forward(P),
    so these only have to be generous enough, never exact.
    """
    cands = []
    surface, ncones, ncorners = _shape(f)
    e = f.euler
    S, D, RP = Surface.SPHERE, Surface.DISK, Surface.PROJECTIVE_PLANE

    if surface is D and ncorners == 0 and ncones == 1:
        b = f.cone_invariants[0].b
        for c in (b, -b):
            bt = _int_or_none(-c * e)
            if bt is not None and bt >= 2:
                cands.append(_try_mk(S, [(0, 2), (0, 2), (-c, bt)], [], Fraction(c, bt)))
        for a in (b, -b):
            bt = _int_or_none(-2 * a * e)
            if bt is not None and bt >= 2 and (bt - a) % 2 == 0:
                m3 = -(a + bt) // 2
                cands.append(_try_mk(S, [(0, 2), (1, 2), (m3, bt)], [], Fraction(a, 2 * bt)))
        if b == 2:
            # back out of the degenerate D2(;2,2,bt) and D2(2;bt) moves
            for c in (1, -1):
                bt = _int_or_none(-2 * c * e)
                if bt is not None and bt >= 2:
                    cands.append(
                        _try_mk(D, [], [(1, 2), (1, 2), (-c, bt)], Fraction(c, 2 * bt))
                    )
            for a in (1, -1):
                bt = _int_or_none(-2 * a * e)
                if bt is not None and bt >= 2:
                    cands.append(_try_mk(D, [(1, 2)], [(-a, bt)], Fraction(a, 2 * bt)))

    if surface is RP and ncones <= 1:
        cs = (f.cone_invariants[0].b, -f.cone_invariants[0].b) if ncones else (1, -1)
        for c in cs:
            bt = _int_or_none(-c * e)
            if bt is not None and bt >= 2:
                cands.append(_try_mk(S, [(1, 2), (1, 2), (-c, bt)], [], Fraction(c, bt)))

    if surface is D and ncones == 0 and ncorners == 3:
        for m1, m2, b in _assignments_222b(f.corner_invariants):
            if (m1, m2) == (1, 1):
                c = _int_or_none(2 * b * e)
                if c is not None and abs(c) == 1:
                    # sources of the phenomenon moves landing here
                    cands.append(
                        _try_mk(S, [(0, 2), (0, 2), (-2 * c, b)], [], Fraction(2 * c, b))
                    )
                    if b % 2 == 1:
                        cands.append(
                            _try_mk(
                                S,
                                [(0, 2), (1, 2), (-c * (1 + b), 2 * b)],
                                [],
                                Fraction(c, 2 * b),
                            )
                        )

    if surface is D and ncones == 1 and ncorners == 1:
        (cone,) = f.cone_invariants
        (corner,) = f.corner_invariants
        b = corner.b
        if cone.b == 2 and cone.a == 1:
            c = _int_or_none(2 * b * e)
            if c is not None and abs(c) == 1:
                cands.append(
                    _try_mk(S, [(0, 2), (0, 2), (-2 * c, b)], [], Fraction(2 * c, b))
                )
                if b % 2 == 0:
                    cands.append(
                        _try_mk(
                            S, [(0, 2), (1, 2), (-c * (1 + b), 2 * b)], [], Fraction(c, 2 * b)
                        )
                    )
        if cone.b == 2 and cone.a == 0:
            for c in (b, -b):
                bt = _int_or_none(-2 * c * e)
                if bt is not None and bt >= 2:
                    cands.append(
                        _try_mk(D, [], [(1, 2), (1, 2), (-c, bt)], Fraction(c, 2 * bt))
                    )

    return [c for c in cands if c is not None]


def _single_step(f: FiberedOrbifold) -> set[FiberedOrbifold]:
    out = set(_forward(f))
    for cand in _inverse_candidates(f):
        if f in _forward(cand):
            out.add(cand)
    out.discard(f)
    for g in out:
        if _fibration_class(g) is not FibrationClass.FINITE:
            raise AssertionError("rewrite left the finite class: %s -> %s" % (f, g))
    return out


def single_step(f: FiberedOrbifold) -> set[FiberedOrbifold]:
    """All fibrations one displayed move away from f (finite class only)."""
    f = _require_normal_spherical(f)
    if _fibration_class(f) is not FibrationClass.FINITE:
        raise InfiniteClassError("single_step requires a finite-class fibration")
    return _single_step(f)


# -- bridges for the infinite regime ----------------------------------------


def enumerate_bridges(f: FiberedOrbifold):
    """Small-base representative of an exceptional infinite-class tuple.

    Returns the partner fibration displayed for f (for any parameter and
    either orientation), or None when f matches no exceptional pattern.
    """
    return _enumerate_bridges(_require_normal_spherical(f))


def _enumerate_bridges(f: FiberedOrbifold):
    surface, ncones, ncorners = _shape(f)
    e = f.euler
    S, D, RP = Surface.SPHERE, Surface.DISK, Surface.PROJECTIVE_PLANE

    if surface is S and ncones == 3:
        for m1, m2, b in _assignments_222b(f.cone_invariants):
            if (m1, m2) == (0, 0):
                c = _int_or_none(b * e)
                if c is not None and abs(c) == 1:
                    return _mk(D, [], [(-c, b), (-c, b)], e)
            if (m1, m2) == (0, 1):
                a = _int_or_none(2 * b * e)
                if a is not None and abs(a) == 1:
                    return _mk(D, [], [(-a * (1 + b) // 2, b)] * 2, e)

    if surface is D and ncorners == 0 and ncones == 1:
        (cone,) = f.cone_invariants
        b = cone.b
        c = _int_or_none(b * e)
        # the invariant check matters: for even b the shape also carries a
        # non-exceptional tuple with the same Euler class but boundary bit 1
        if c is not None and abs(c) == 1 and cone.a == (-c) % b:
            if b % 2 == 0:
                return _mk(S, [(-2 * c, b), (-2 * c, b)], [], 4 * e)
            return _mk(S, [(-c * (1 + b), 2 * b)] * 2, [], e)
        a = _int_or_none(2 * b * e)
        if a is not None and abs(a) == 1:
            return _mk(
                S, [(-a * (1 + b) // 2, 2 * b), (-a * (1 + 3 * b) // 2, 2 * b)], [], e
            )

    if surface is RP:
        if ncones == 1:
            (cone,) = f.cone_invariants
            b = cone.b
            c = _int_or_none(b * e)
            if c is not None and abs(c) == 1:
                if b % 2 == 1:
                    return _mk(S, [(-2 * c, b), (-2 * c, b)], [], 4 * e)
                return _mk(S, [(-c * (1 + b), 2 * b)] * 2, [], e)
        elif ncones == 0 and abs(e) == 1:
            return _mk(S, [(1, 2), (1, 2)], [], -e)

    if surface is D and ncones == 1 and ncorners == 1:
        (cone,) = f.cone_invariants
        (corner,) = f.corner_invariants
        b = corner.b
        if cone.b == 2 and cone.a == 0:
            c = _int_or_none(2 * b * e)
            if c is not None and abs(c) == 1:
                if b % 2 == 0:
                    return _mk(D, [], [(-c * (1 + b), 2 * b)] * 2, e)
                return _mk(D, [], [(1, 2), (1, 2)], Fraction(-b, 2 * c))

    if surface is D and ncones == 0 and ncorners == 3:
        for m1, m2, b in _assignments_222b(f.corner_invariants):
            if (m1, m2) == (0, 0):
                c = _int_or_none(2 * b * e)
                if c is not None and abs(c) == 1:
                    if b % 2 == 1:
                        return _mk(D, [], [(-c * (b + 1), 2 * b)] * 2, e)
                    return _mk(D, [], [(0, 2), (0, 2)], Fraction(-b, 2 * c))
            if (m1, m2) == (0, 1):
                a = _int_or_none(4 * b * e)
                if a is not None and abs(a) == 1:
                    return _mk(
                        D,
                        [],
                        [(-a * (3 * b + 1) // 2, 2 * b), (-a * (b + 1) // 2, 2 * b)],
                        e,
                    )

    if surface is D and ncones == 0 and ncorners == 0:
        if abs(e) == 1:
            return _mk(S, [(0, 2), (0, 2)], [], e)
        if abs(e) == Fraction(1, 2):
            return _mk(S, [(0, 2), (1, 2)], [], e)

    return None


def fibration_class(f: FiberedOrbifold) -> FibrationClass:
    """Finite count, or infinitely many on the sphere or on the disk side."""
    return _fibration_class(_require_normal_spherical(f))


def _fibration_class(f: FiberedOrbifold) -> FibrationClass:
    surface, ncones, ncorners = _shape(f)
    if surface is Surface.SPHERE and ncones <= 2:
        return FibrationClass.INFINITE_SPHERE_SIDE
    if surface is Surface.DISK and ncones == 0 and ncorners <= 2:
        return FibrationClass.INFINITE_DISK_SIDE
    if surface is Surface.PROJECTIVE_PLANE and ncones == 0:
        if abs(f.euler) == 1:
            return FibrationClass.INFINITE_SPHERE_SIDE
        return FibrationClass.FINITE
    bridge = _enumerate_bridges(f)
    if bridge is None:
        return FibrationClass.FINITE
    side = _fibration_class(bridge)
    if side is FibrationClass.FINITE:
        raise AssertionError("bridge of %s landed in the finite class" % (f,))
    return side


def enumerate_fibrations(f: FiberedOrbifold) -> set[FiberedOrbifold]:
    """The complete set of inequivalent fibrations of a finite-class
    orbifold (including f itself), each normalized."""
    f = _require_normal_spherical(f)
    if _fibration_class(f) is not FibrationClass.FINITE:
        raise InfiniteClassError(
            "%s admits infinitely many fibrations; see diffeo_key" % (f,)
        )
    return _enumerate_fibrations(f)


def _enumerate_fibrations(f: FiberedOrbifold) -> set[FiberedOrbifold]:
    seen = {f}
    frontier = [f]
    while frontier:
        g = frontier.pop()
        for h in _single_step(g):
            if h not in seen:
                seen.add(h)
                frontier.append(h)
        if len(seen) > 3:
            raise AssertionError("rewrite closure exceeded three fibrations: %s" % seen)
    return seen


def fibration_count(f: FiberedOrbifold) -> FibrationCount:
    f = _require_normal_spherical(f)
    if _fibration_class(f) is not FibrationClass.FINITE:
        return FibrationCount.INFINITE
    return FibrationCount(len(_enumerate_fibrations(f)))


def double_cover(f: FiberedOrbifold) -> FiberedOrbifold:
    """Double of a fibration over a disk with mirror boundary only.

    The base is doubled along its boundary, corner invariants become cone
    invariants unchanged, the Euler class doubles and the boundary bit is
    dropped.
    """
    f = check_valid(normalize(f))
    if f.base.surface is not Surface.DISK or f.base.cone_labels:
        raise ValueError("double_cover requires a disk base without cone points")
    return _double_cover(f)


def _double_cover(f: FiberedOrbifold) -> FiberedOrbifold:
    pairs = [(i.a, i.b) for i in f.corner_invariants]
    return _mk(Surface.SPHERE, pairs, [], 2 * f.euler)


def diffeo_key(f: FiberedOrbifold) -> DiffeoKey:
    """Lens key of an infinite-class orbifold.

    Exceptional tuples are first routed through their bridge; a disk-class
    representative is then doubled, a sphere-class one converted directly,
    and the lens space of the resulting two-fraction data is computed.  The
    comparison mode is fixed-cores exactly when the two core indices
    differ.
    """
    f = _require_normal_spherical(f)
    cls = _fibration_class(f)
    if cls is FibrationClass.FINITE:
        raise ValueError("diffeo_key is defined for infinite-class orbifolds only")
    return _diffeo_key(f, cls)


def _diffeo_key(f: FiberedOrbifold, cls: FibrationClass) -> DiffeoKey:
    """Key of the normal form f, whose infinite class cls is known."""
    side = (
        OrbifoldClass.SPHERE_CLASS
        if cls is FibrationClass.INFINITE_SPHERE_SIDE
        else OrbifoldClass.DISK_CLASS
    )
    g = f
    for _ in range(4):
        surface, ncones, ncorners = _shape(g)
        if surface is Surface.SPHERE and ncones <= 2:
            break
        if surface is Surface.DISK and ncones == 0 and ncorners <= 2:
            break
        g = _enumerate_bridges(g)
        if g is None:
            raise AssertionError("no bridge found for infinite-class %s" % (f,))
    else:
        raise AssertionError("bridging did not terminate for %s" % (f,))
    if g.base.surface is Surface.DISK:
        g = _double_cover(g)
    data, i1, i2 = classical_from_fibration(g)
    lens = lens_from_classical(data)
    mode = Mode.ORIENTED if i1 == i2 else Mode.FIXED_CORES
    return DiffeoKey(side, lens, (i1, i2), mode)


def _invariant(f: FiberedOrbifold):
    """Fibration set (finite class) or DiffeoKey (infinite class) of the
    normal form f."""
    cls = _fibration_class(f)
    if cls is FibrationClass.FINITE:
        return _enumerate_fibrations(f)
    return _diffeo_key(f, cls)


# The two orbifolds fibered over both S2(2,2) and D2, as (sphere key
# data, disk key data); the keys are insensitive to orientation reversal.
_CROSS_PAIRS = (
    ((LensSpace(1, 0), (2, 2)), (LensSpace(2, 1), (1, 1))),
    ((LensSpace(1, 0), (2, 1)), (LensSpace(1, 0), (1, 1))),
)


def _cross_index(key: DiffeoKey):
    """Index of the sphere/disk crossover orbifold key belongs to, if any."""
    for idx, ((s_lens, s_iota), (d_lens, d_iota)) in enumerate(_CROSS_PAIRS):
        if key.orbifold_class is OrbifoldClass.SPHERE_CLASS:
            mode = Mode.ORIENTED if s_iota[0] == s_iota[1] else Mode.FIXED_CORES
            if key.iota == s_iota and lens_equiv(key.lens, s_lens, mode):
                return idx
        else:
            if key.iota == d_iota and lens_equiv(key.lens, d_lens, Mode.ORIENTED):
                return idx
    return None


def are_diffeomorphic(f: FiberedOrbifold, g: FiberedOrbifold) -> bool:
    """Orientation-preserving diffeomorphism of the underlying orbifolds."""
    return _are_diffeomorphic(_require_normal_spherical(f), _require_normal_spherical(g))


def _are_diffeomorphic(f: FiberedOrbifold, g: FiberedOrbifold) -> bool:
    cf, cg = _fibration_class(f), _fibration_class(g)
    if (cf is FibrationClass.FINITE) != (cg is FibrationClass.FINITE):
        return False
    if cf is FibrationClass.FINITE:
        return g in _enumerate_fibrations(f)
    kf, kg = _diffeo_key(f, cf), _diffeo_key(g, cg)
    if kf.orbifold_class is kg.orbifold_class:
        if kf.iota != kg.iota:
            return False
        return lens_equiv(kf.lens, kg.lens, kf.mode)
    cf_idx, cg_idx = _cross_index(kf), _cross_index(kg)
    return cf_idx is not None and cf_idx == cg_idx


def diffeo_signature(f: FiberedOrbifold):
    """Hashable complete invariant of the oriented diffeomorphism type.

    Finite class: the frozen set of all fibrations.  Infinite class: the
    key with q canonicalized under the allowed torus exchange, the two
    sphere/disk crossover orbifolds folded onto one value.
    """
    return _signature(_invariant(_require_normal_spherical(f)))


def _signature(invariant):
    """diffeo_signature from a fibration set or a DiffeoKey."""
    if not isinstance(invariant, DiffeoKey):
        return frozenset(invariant)
    k = invariant
    idx = _cross_index(k)
    if idx is not None:
        return ("cross", idx)
    q = k.lens.q
    if k.mode is Mode.ORIENTED and q > 1:
        q = min(q, pow(q, -1, k.lens.p))
    return (k.orbifold_class.value, k.lens.p, q, k.iota)
