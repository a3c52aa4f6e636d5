"""
Fibration counting and orientation-preserving diffeomorphism decisions for
spherical Seifert fibered 3-orbifolds.

Orbifolds whose base is a sphere with at most two cone points or a disk
with no cone points and at most two corner reflectors carry infinitely
many fibrations; they are compared through a lens-space key (underlying
lens space plus the singularity indices of the two Heegaard cores).
Everything else carries one, two or three fibrations, enumerated by
closing under the displayed diffeomorphisms of the classification, which
this module holds as data.

A *pattern* is one side of a display: a family of fibrations in two
integers (x, y).  It fixes a base surface and invariants 0/2 or 1/2 over
order-2 labels, and puts one free invariant over the label x, as a cone
point or a corner reflector (absent when x = 1).  The Euler class is
y/(k*x), with k in {1, 2, 4} fixed per pattern, and the free invariant is
-y/x, or ((x-y)/2)/x in the mixed patterns.  `_Pattern.read(f)` returns
the (x, y) for which `build(x, y)` is f, if any: it checks the fixed
invariants, that y = k*x*e is an integer, and the free invariant.  On a
base whose labels are all 2 the free invariant is simply the one left
over by the fixed ones.

A *rule* pairs a left and a right pattern with a parameter map and its
inverse (swap (x, y) -> (|y|, -sgn(y)*x), halve y, or halve both) and a
domain on the left parameters.  `_rewrites` reads f against both sides of
every rule and builds the other side, so each move applies in both
directions and rewriting is involutive by construction.  The sporadic
pairs on S2(2,3,b) / D2(;2,3,b) / D2(3;2) bases are constant data,
applied both ways in the same loop.  A *bridge* row takes an exceptional
tuple of the infinite regime (|y| = 1) to a representative over a base
with at most two cone points or corners; the first row that reads f wins.  The two sporadic orbifolds
fibering over both S2(2,2) and D2 connect the sphere and disk classes.
Orientation reversal takes build(x, y) to build(x, -y), and every domain
reads y through |y| only, so the rules and bridges are closed under it.

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
from typing import NamedTuple

from .core import (
    FiberedOrbifold,
    LocalInvariant,
    Surface,
    check_valid,
    is_spherical,
    normalize,
    validate,
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


_NOT_SPHERICAL = "not spherical: chi(base) <= 0 or e = 0"


def _require_normal_spherical(f: FiberedOrbifold) -> FiberedOrbifold:
    """The guard of the public functions and of the command line: the
    normal form of f, checked valid and spherical."""
    f = normalize(f)
    res = validate(f)
    if not res.ok:
        raise ValueError("invalid fibration: %s" % "; ".join(res.problems))
    if not is_spherical(f):
        raise ValueError(_NOT_SPHERICAL)
    return f


# -- patterns, rules and bridges ---------------------------------------------

_S2, _D2, _RP2 = Surface.SPHERE, Surface.DISK, Surface.PROJECTIVE_PLANE


def _mk(surface, cones, corners, e):
    f = normalize(FiberedOrbifold.from_data(surface, cones, corners, e))
    return check_valid(f)


def _twos(*numerators):
    return tuple(LocalInvariant(a, 2) for a in numerators)


class _Pattern(NamedTuple):
    """One side of a displayed diffeomorphism, in the parameters (x, y)."""

    surface: Surface
    free: str  # "cone" or "corner": where the invariant over x sits
    k: int  # the Euler class is y/(k*x)
    cones: tuple = ()  # fixed invariants over order-2 labels
    corners: tuple = ()
    mixed: bool = False  # free invariant ((x-y)/2)/x instead of -y/x

    def _numerator(self, x, y):
        return (x - y) // 2 if self.mixed else -y

    def read(self, f: FiberedOrbifold):
        """The (x, y) with build(x, y) == f, or None; f is a valid normal form."""
        if f.base.surface is not self.surface:
            return None
        if self.free == "cone":
            have, fixed = f.cone_invariants, self.cones
            if f.corner_invariants != self.corners:
                return None
        else:
            have, fixed = f.corner_invariants, self.corners
            if f.cone_invariants != self.cones:
                return None
        if have == fixed:
            x, a = 1, 0
        else:
            for i, free in enumerate(have):
                if have[:i] + have[i + 1:] == fixed:
                    break
            else:
                return None
            x, a = free.b, free.a
        y, rem = divmod(self.k * x * f.euler.numerator, f.euler.denominator)
        if rem or (self.mixed and (x - y) % 2) or a != self._numerator(x, y) % x:
            return None
        return x, y

    def build(self, x: int, y: int) -> FiberedOrbifold:
        free = ((self._numerator(x, y), x),)
        if self.free == "cone":
            return _mk(self.surface, self.cones + free, self.corners, Fraction(y, self.k * x))
        return _mk(self.surface, self.cones, self.corners + free, Fraction(y, self.k * x))


# Each pattern under its display (base; cone invariants; corner invariants;
# Euler class), with m = (x-y)/2.
# S2(2,2,x); 0/2,0/2,-y/x; y/x
_S2_00 = _Pattern(_S2, "cone", 1, cones=_twos(0, 0))
# S2(2,2,x); 1/2,1/2,-y/x; y/x
_S2_11 = _Pattern(_S2, "cone", 1, cones=_twos(1, 1))
# S2(2,2,x); 0/2,1/2,m/x; y/2x
_S2_01 = _Pattern(_S2, "cone", 2, cones=_twos(0, 1), mixed=True)
# RP2(x); -y/x; y/x
_RP2_X = _Pattern(_RP2, "cone", 1)
# D2(x;); -y/x; ; y/x
_D2_X = _Pattern(_D2, "cone", 1)
# D2(x;); m/x; ; y/2x
_D2_X_MIXED = _Pattern(_D2, "cone", 2, mixed=True)
# D2(;2,2,x); ; 0/2,0/2,-y/x; y/2x
_D2_00 = _Pattern(_D2, "corner", 2, corners=_twos(0, 0))
# D2(;2,2,x); ; 1/2,1/2,-y/x; y/2x
_D2_11 = _Pattern(_D2, "corner", 2, corners=_twos(1, 1))
# D2(;2,2,x); ; 0/2,1/2,m/x; y/4x
_D2_01 = _Pattern(_D2, "corner", 4, corners=_twos(0, 1), mixed=True)
# D2(2;x); 0/2; -y/x; y/2x
_D2_2_0 = _Pattern(_D2, "corner", 2, cones=_twos(0))
# D2(2;x); 1/2; -y/x; y/2x
_D2_2_1 = _Pattern(_D2, "corner", 2, cones=_twos(1))


def _swap(x, y):
    """(x, y) -> (|y|, -sgn(y)*x), an involution for x > 0."""
    return (y, -x) if y > 0 else (-y, x)


# Parameter maps as (left to right, right to left).
_SWAP = (_swap, _swap)
_HALVE_Y = (lambda x, y: (x, y // 2), lambda x, y: (x, 2 * y))
_HALVE_BOTH = (lambda x, y: (x // 2, y // 2), lambda x, y: (2 * x, 2 * y))

# (name, left, right, maps, domain): left(x, y) and right(maps[0](x, y)) are
# two fibrations of one orbifold for every (x, y) in the domain.
_RULES = (
    ("S2(2,2,x) ~ D2(|y|;)", _S2_00, _D2_X, _SWAP,
     lambda x, y: x >= 2 and abs(y) >= 2),
    ("S2(2,2,x) ~ D2(;2,2,x), x even", _S2_00, _D2_11, _HALVE_Y,
     lambda x, y: x % 2 == 0 and abs(y) == 2),
    ("S2(2,2,x) ~ D2(2;x), x odd", _S2_00, _D2_2_1, _HALVE_Y,
     lambda x, y: x % 2 == 1 and x >= 3 and abs(y) == 2),
    ("S2(2,2,x) ~ RP2(|y|)", _S2_11, _RP2_X, _SWAP,
     lambda x, y: x >= 2),
    ("S2(2,2,x) mixed ~ D2(|y|;) mixed", _S2_01, _D2_X_MIXED, _SWAP,
     lambda x, y: x >= 3 and abs(y) >= 2),
    ("S2(2,2,x) mixed ~ D2(;2,2,x/2), x/2 odd", _S2_01, _D2_11, _HALVE_BOTH,
     lambda x, y: x % 4 == 2 and x >= 6 and abs(y) == 2),
    ("S2(2,2,x) mixed ~ D2(2;x/2), x/2 even", _S2_01, _D2_2_1, _HALVE_BOTH,
     lambda x, y: x % 4 == 0 and abs(y) == 2),
    ("D2(;2,2,x) ~ D2(;2,2,|y|)", _D2_00, _D2_00, _SWAP,
     lambda x, y: x >= 2 and abs(y) >= 2),
    ("D2(;2,2,x) ~ D2(2;|y|)", _D2_11, _D2_2_0, _SWAP,
     lambda x, y: x >= 2),
    ("D2(;2,2,x) mixed ~ D2(;2,2,|y|) mixed", _D2_01, _D2_01, _SWAP,
     lambda x, y: x >= 2 and abs(y) >= 2),
    ("D2(2;x) ~ D2(2;|y|)", _D2_2_1, _D2_2_1, _SWAP,
     lambda x, y: x >= 2),
)

# The sporadic pairs on S2(2,3,b) / D2(;2,3,b) / D2(3;2) bases, both
# orientations.
_SPORADIC = tuple(
    (_mk(_S2, sphere, [], Fraction(-s, n)), _mk(_D2, cones, corners, Fraction(-s, m)))
    for s in (1, -1)
    for sphere, n, cones, corners, m in (
        ([(0, 2), (2 * s, 3), (2 * s, 3)], 3, [(s, 3)], [(s, 2)], 12),
        ([(0, 2), (2 * s, 3), (2 * s, 4)], 6, [], [(1, 2), (s, 3), (s, 4)], 24),
        ([(0, 2), (s, 3), (3 * s, 4)], 12, [], [(1, 2), (s, 3), (s, 3)], 12),
        ([(0, 2), (2 * s, 3), (2 * s, 5)], 15, [], [(1, 2), (s, 3), (s, 5)], 60),
    )
)


# (name, source, domain, target): an f that source reads with (x, y) in the
# domain is bridged to the fibration target(x, y, e); the first row wins.
_BRIDGES = (
    ("S2(2,2,x) to D2(;x,x)", _S2_00, lambda x, y: x >= 2 and abs(y) == 1,
     lambda x, y, e: (_D2, [], [(-y, x)] * 2, e)),
    ("S2(2,2,x) mixed to D2(;x,x)", _S2_01, lambda x, y: x >= 2 and abs(y) == 1,
     lambda x, y, e: (_D2, [], [(-y * (1 + x) // 2, x)] * 2, e)),
    ("D2(x;) to S2(x,x) or S2(2x,2x)", _D2_X, lambda x, y: abs(y) == 1,
     lambda x, y, e: (_S2, [(-2 * y, x)] * 2, [], 4 * e) if x % 2 == 0
     else (_S2, [(-y * (1 + x), 2 * x)] * 2, [], e)),
    ("D2(x;) mixed to S2(2x,2x)", _D2_X_MIXED, lambda x, y: abs(y) == 1,
     lambda x, y, e: (_S2, [(-y * (1 + x) // 2, 2 * x), (-y * (1 + 3 * x) // 2, 2 * x)], [], e)),
    ("RP2(x) to S2(x,x) or S2(2x,2x)", _RP2_X, lambda x, y: x >= 2 and abs(y) == 1,
     lambda x, y, e: (_S2, [(-2 * y, x)] * 2, [], 4 * e) if x % 2 == 1
     else (_S2, [(-y * (1 + x), 2 * x)] * 2, [], e)),
    ("RP2 to S2(2,2)", _RP2_X, lambda x, y: x == 1 and abs(y) == 1,
     lambda x, y, e: (_S2, [(1, 2), (1, 2)], [], -e)),
    ("D2(2;x) to D2(;2x,2x) or D2(;2,2)", _D2_2_0, lambda x, y: x >= 2 and abs(y) == 1,
     lambda x, y, e: (_D2, [], [(-y * (1 + x), 2 * x)] * 2, e) if x % 2 == 0
     else (_D2, [], [(1, 2), (1, 2)], Fraction(-x, 2 * y))),
    ("D2(;2,2,x) to D2(;2x,2x) or D2(;2,2)", _D2_00, lambda x, y: x >= 2 and abs(y) == 1,
     lambda x, y, e: (_D2, [], [(-y * (1 + x), 2 * x)] * 2, e) if x % 2 == 1
     else (_D2, [], [(0, 2), (0, 2)], Fraction(-x, 2 * y))),
    ("D2(;2,2,x) mixed to D2(;2x,2x)", _D2_01, lambda x, y: x >= 2 and abs(y) == 1,
     lambda x, y, e: (_D2, [], [(-y * (1 + 3 * x) // 2, 2 * x), (-y * (1 + x) // 2, 2 * x)], e)),
)


def _small_base(f: FiberedOrbifold) -> bool:
    """Sphere with at most two cone points, or disk with no cone points and
    at most two corners: the bases of the lens-space representatives."""
    base = f.base
    if base.surface is _S2:
        return len(base.cone_labels) <= 2
    return base.surface is _D2 and not base.cone_labels and len(base.corner_labels) <= 2


# -- the matcher -------------------------------------------------------------


def _rewrites(f: FiberedOrbifold):
    """(rule name, fibration) for each displayed move with f on one side."""
    for name, left, right, (there, back), domain in _RULES:
        xy = left.read(f)
        if xy is not None and domain(*xy):
            yield name, right.build(*there(*xy))
        xy = right.read(f)
        if xy is not None and domain(*back(*xy)):
            yield name, left.build(*back(*xy))
    for left, right in _SPORADIC:
        if f == left:
            yield "sporadic", right
        elif f == right:
            yield "sporadic", left


def _single_step(f: FiberedOrbifold) -> set[FiberedOrbifold]:
    out = {g for _, g in _rewrites(f)}
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


def _bridge(f: FiberedOrbifold):
    """(row name, target) of the first bridge row that reads f, or None."""
    for name, source, domain, target in _BRIDGES:
        xy = source.read(f)
        if xy is not None and domain(*xy):
            return name, _mk(*target(*xy, f.euler))
    return None


def enumerate_bridges(f: FiberedOrbifold):
    """Small-base representative of an exceptional infinite-class tuple.

    Returns the partner fibration displayed for f (for any parameter and
    either orientation), or None when f matches no exceptional pattern.
    """
    hit = _bridge(_require_normal_spherical(f))
    return None if hit is None else hit[1]


def fibration_class(f: FiberedOrbifold) -> FibrationClass:
    """Finite count, or infinitely many on the sphere or on the disk side."""
    return _fibration_class(_require_normal_spherical(f))


def _fibration_class(f: FiberedOrbifold) -> FibrationClass:
    if _small_base(f):
        if f.base.surface is _S2:
            return FibrationClass.INFINITE_SPHERE_SIDE
        return FibrationClass.INFINITE_DISK_SIDE
    if f.base.surface is _RP2 and not f.base.cone_labels:
        if abs(f.euler) == 1:
            return FibrationClass.INFINITE_SPHERE_SIDE
        return FibrationClass.FINITE
    hit = _bridge(f)
    if hit is None:
        return FibrationClass.FINITE
    side = _fibration_class(hit[1])
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
        if _small_base(g):
            break
        hit = _bridge(g)
        if hit is None:
            raise AssertionError("no bridge found for infinite-class %s" % (f,))
        g = hit[1]
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
    return _signature(_diffeo_key(f, cf)) == _signature(_diffeo_key(g, cg))


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
