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
the (x, y) for which `build(x, y)` is f, if any, for an f of a shape the
pattern is filed under (below), which settles the surface and the fixed
invariants.  So `read` only solves for (x, y): x is the free order (1 if
none), and it checks that y = k*x*e is an integer and the free numerator.

A *rule* pairs a left and a right pattern with a parameter map and its
inverse (swap (x, y) -> (|y|, -sgn(y)*x), halve y, or halve both) and a
domain on the left parameters.  A move reads f against either side of a
rule and builds the other side, so each rule applies in both directions
and rewriting is involutive by construction.  The sporadic pairs on
S2(2,3,b) / D2(;2,3,b) / D2(3;2) bases are constant data, a dict from
each fibration to its partner.  A *bridge* row takes an exceptional tuple
of the infinite regime (|y| = 1) to a representative over a base with at
most two cone points or corners; the first row that reads f with
parameters in its domain wins.  The class, the key and the
diffeomorphism decision all read that one small-base fibration, the
representative `_read_class` finds.  The two sporadic orbifolds
fibering over both S2(2,2) and D2 connect the sphere and disk classes.  Orientation
reversal takes build(x, y) to build(x, -y), and every domain reads y
through |y| only, so the rules and bridges are closed under it.

A fibration's shape is its surface, its numbers of cone points and of
corners, and the numerators of its order-2 cone and corner invariants.  A
pattern builds four shapes only: its fixed invariants alone (x = 1), with
a free 0/2 or 1/2 added (x = 2), and with a free invariant of higher
order added (x > 2).  The index by shape is the one structural test.  At
import, `_INDEX` files each rule side, as a source, under its shapes,
together with its moves (each rule once per direction) and the bridge
rows it is the source of.  Every bridge source is a rule side, and under
every shape the bridge rows come in table order.  So `_readings` reads f
once by each source filed under its shape, and those readings serve both
f's moves and its bridge: `_bridge` takes the first bridge row of the
readings whose domain holds, and reads nothing itself.

Each input is read once.  `_read_class(f, filed)` is the one test of
"small base, or a bridge row holds": a small-base f is its own
representative and is neither shaped nor read; any other f is read once,
its readings filed, and the first bridge row of those readings that holds
gives its representative.  The class check, `_representative`,
`_still_finite` and `single_step` all go through it.  A closure starts
from the readings and the filed dict of its input's class check, reads
each other member once, when it joins, and files each reading:
(pattern, (x, y)) to the member that pattern reads with (x, y), in a dict
that lives for that closure only.  The same readings check that the
member is still finite (`_still_finite`) and give its moves.  A move
whose target (pattern, parameters) is filed takes that member; only an
unfiled target is built.  So each member, the input included, is shaped
and read once, and each but the input is built once.

Each public function validates its arguments once, through
`_require_normal_spherical`, and hands the normal form to a private core
(`_invariant`, `_representative`, `_key`, ...).  The guard takes its
verdict from `core._verdict`, the one verdict of every boundary, and
reports an invalid argument before a non-spherical one.  The cores trust
their argument and call only other cores; the values the rules and
bridges build are made and checked in one pass by `core._normal_form`.
`_key` reads the Euler class as integers and hands `_lens_label` its
reduced numerator and denominator, or those of 2e on the disk side.

`_invariant(f)`, the frozen fibration set or the DiffeoKey of the normal
form f, is memoized per process in one LRU cache bounded at
`_MEMO_MAXSIZE` normal forms; its values are immutable, so no caller can
change a cached answer.  It is the one route to the content of a class:
`fibration_count`, `enumerate_fibrations` (a copy), `diffeo_signature`,
the command line's reports and the atlas sweep read it, and
`_are_diffeomorphic` compares the signatures of two invariants.  The
text atlas reads a row's key past the memo, which the sweep has filled.
`fibration_class` and `single_step` ask only whether a class is finite
and build no closure.

The command line keeps a second memo of the same bound, `cli._reading`:
from an expression text as written and the digit limit of `int()` to
its parsed value and its verdict (normal form, ValidationResult,
spherical).  `validate`, `normalize`, `classify`, `fibrations` and
`diffeo` read it, so a repeated text is neither parsed, normalized nor
decided again, and its normal form, the same object on every hit, keeps
its hash and its text.  Those commands hand the kept verdict to
`_guard`, the guard's second half, so its two messages still come from
one place.  `diffeo_key`, the `lens` command,
the parser and `_require_normal_spherical` read neither memo: lens
recognitions seldom repeat their input, and a miss pays to hash a large
value and then keeps it alive.  The invariant memo on those paths cost
13% of the benchmark's `lens` throughput, and the reading memo about 8%.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .core import (
    _MEMO_MAXSIZE,
    FiberedOrbifold,
    LocalInvariant,
    Surface,
    _normal_form,
    _verdict,
    check_valid,
    normalize,
)
from .lens import LensSpace, Mode, _cores, _lens_label


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
    """The guard of the public functions, of the atlas's anti-Hopf rows and
    of the `lens` command: `_guard` on the verdict of f by `core._verdict`."""
    return _guard(*_verdict(f))


def _guard(g: FiberedOrbifold, res, spherical: bool) -> FiberedOrbifold:
    """The guard on a verdict (g, res, spherical) of `core._verdict`: g, or
    the ValueError of an invalid fibration, reported before that of a
    non-spherical one.  The command line hands it the verdicts its reading
    memo keeps."""
    if not res.ok:
        raise ValueError("invalid fibration: %s" % "; ".join(res.problems))
    if not spherical:
        raise ValueError(_NOT_SPHERICAL)
    return g


# -- patterns, rules and bridges ---------------------------------------------

_S2, _D2, _RP2 = Surface.SPHERE, Surface.DISK, Surface.PROJECTIVE_PLANE


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
        """The (x, y) with build(x, y) == f, or None.  f is a valid normal
        form of one of `shapes()`, so only x and y are open: x is the last
        order (the others are 2), or 1 when no invariant is free, and the
        free numerator is what the fixed ones leave of the numerators' sum."""
        if self.free == "cone":
            have, fixed = f.cone_invariants, self.cones
        else:
            have, fixed = f.corner_invariants, self.corners
        x = have[-1].b if len(have) > len(fixed) else 1
        a = sum(i.a for i in have) - sum(i.a for i in fixed)
        y, rem = divmod(self.k * x * f.euler.numerator, f.euler.denominator)
        if rem or (self.mixed and (x - y) % 2) or a != self._numerator(x, y) % x:
            return None
        return x, y

    def shapes(self):
        """The only shapes `read` is given and can match: the fixed
        invariants alone (x = 1), with a free 0/2 or 1/2 added (x = 2), or
        with a free invariant of higher order added (x > 2)."""
        cones, corners = _halves(self.cones), _halves(self.corners)
        n, m = len(cones), len(corners)
        yield self.surface, n, m, cones, corners
        for added in ((0,), (1,), ()):
            if self.free == "cone":
                yield self.surface, n + 1, m, tuple(sorted(cones + added)), corners
            else:
                yield self.surface, n, m + 1, cones, tuple(sorted(corners + added))

    def build(self, x: int, y: int) -> FiberedOrbifold:
        free = ((self._numerator(x, y), x),)
        e = Fraction(y, self.k * x)
        if self.free == "cone":
            return _normal_form(self.surface, self.cones + free, self.corners, e)
        return _normal_form(self.surface, self.cones, self.corners + free, e)


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

def _two_way(pairs):
    """Dict from each member of each pair to the other member."""
    return {a: b for left, right in pairs for a, b in ((left, right), (right, left))}


# The sporadic pairs on S2(2,3,b) / D2(;2,3,b) / D2(3;2) bases, both
# orientations, as a dict from each fibration to its partner.
_SPORADIC = _two_way(
    (
        _normal_form(_S2, sphere, [], Fraction(-s, n)),
        _normal_form(_D2, cones, corners, Fraction(-s, m)),
    )
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


def _halves(invariants):
    """The numerators of the order-2 invariants among sorted invariants."""
    return tuple(i.a for i in invariants if i.b == 2)


def _shape(f: FiberedOrbifold):
    """(surface, number of cone points, number of corners, numerators of
    the order-2 cone invariants, numerators of the order-2 corner
    invariants) of the normal form f."""
    cones, corners = f.cone_invariants, f.corner_invariants
    return f.base.surface, len(cones), len(corners), _halves(cones), _halves(corners)


def _by_shape(rules, bridges):
    """The shape index: dict from base shape to (source, moves, bridge
    rows) for each pattern on either side of the rules that builds the
    shape, in order of first appearance.  moves is the tuple of (name,
    target, move, domain), each rule once per direction: source(x, y) with
    (x, y) in the domain is rewritten to target(move(x, y)).  The bridge
    rows are those of `bridges` with that source, in table order; every
    bridge source is a rule side.  Only the patterns filed under a shape
    read a fibration of it, whose structure the shape fixes."""
    moves = {}
    for name, left, right, (there, back), domain in rules:
        moves.setdefault(left, []).append((name, right, there, domain))
        moves.setdefault(right, []).append(
            (name, left, back, lambda x, y, back=back, domain=domain: domain(*back(x, y))))
    index = {}
    for source, found in moves.items():
        entry = source, tuple(found), tuple(row for row in bridges if row[1] is source)
        for shape in source.shapes():
            index.setdefault(shape, []).append(entry)
    return {shape: tuple(entries) for shape, entries in index.items()}


_INDEX = _by_shape(_RULES, _BRIDGES)


def _readings(f: FiberedOrbifold, filed: dict):
    """((x, y), moves, bridge rows) for each source pattern filed under f's
    shape that reads f with (x, y); each reading is also filed, as
    filed[id(source), (x, y)] = f."""
    found = []
    for source, moves, bridges in _INDEX.get(_shape(f), ()):
        xy = source.read(f)
        if xy is not None:
            filed[id(source), xy] = f
            found.append((xy, moves, bridges))
    return found


def _moves(f: FiberedOrbifold, readings, filed: dict):
    """(rule name, fibration) for each move of f's readings whose domain
    holds, then f's sporadic partner: a target already filed is that
    member, any other is built."""
    for xy, moves, _ in readings:
        for name, target, move, domain in moves:
            if domain(*xy):
                to = move(*xy)
                h = filed.get((id(target), to))
                yield name, target.build(*to) if h is None else h
    partner = _SPORADIC.get(f)
    if partner is not None:
        yield "sporadic", partner


def single_step(f: FiberedOrbifold) -> set[FiberedOrbifold]:
    """All fibrations one displayed move away from f (finite class only).
    f is read once, for its class and for its moves."""
    f = _require_normal_spherical(f)
    filed = {}
    g, readings = _read_class(f, filed)
    if g is not None:
        raise InfiniteClassError("single_step requires a finite-class fibration")
    out = {h for _, h in _moves(f, readings, filed) if h != f}
    for h in out:
        _still_finite(f, h, filed)
    return out


def _read_class(f: FiberedOrbifold, filed: dict):
    """(g, readings) of the normal form f, read once: g is the small-base
    fibration of f's class (f itself when its base is small, else the
    target of its first bridge row that holds), or None when the class is
    finite.  readings are f's `_readings`, filed in `filed`, or () for a
    small base, which is neither shaped nor read."""
    if _small_base(f):
        return f, ()
    readings = _readings(f, filed)
    hit = _bridge(f, readings)
    return (None if hit is None else hit[1]), readings


def _still_finite(f: FiberedOrbifold, g: FiberedOrbifold, filed: dict):
    """g's readings, filed in `filed`, for g a rewrite of f; AssertionError
    if g left the finite class: its base is small or a bridge row holds."""
    h, readings = _read_class(g, filed)
    if h is not None:
        raise AssertionError("rewrite left the finite class: %s -> %s" % (f, g))
    return readings


def _bridge(f: FiberedOrbifold, readings):
    """(row name, target) of the first bridge row of f's readings whose
    domain holds, or None; it reads nothing itself.  AssertionError if the
    target's base is not small."""
    for xy, _, bridges in readings:
        for name, _, domain, target in bridges:
            if domain(*xy):
                g = _normal_form(*target(*xy, f.euler))
                if not _small_base(g):
                    raise AssertionError("bridge of %s landed in the finite class" % (f,))
                return name, g
    return None


def enumerate_bridges(f: FiberedOrbifold):
    """Small-base representative of an exceptional infinite-class tuple.

    Returns the partner fibration displayed for f (for any parameter and
    either orientation), or None when f matches no exceptional pattern.
    """
    f = _require_normal_spherical(f)
    hit = _bridge(f, _readings(f, {}))
    return None if hit is None else hit[1]


def fibration_class(f: FiberedOrbifold) -> FibrationClass:
    """Finite count, or infinitely many on the sphere or on the disk side."""
    g = _representative(_require_normal_spherical(f))
    if g is None:
        return FibrationClass.FINITE
    if g.base.surface is _S2:
        return FibrationClass.INFINITE_SPHERE_SIDE
    return FibrationClass.INFINITE_DISK_SIDE


def _representative(f: FiberedOrbifold):
    """The small-base fibration of f's infinite class (f itself or its one
    bridge target), or None when f is in the finite class."""
    return _read_class(f, {})[0]


def enumerate_fibrations(f: FiberedOrbifold) -> set[FiberedOrbifold]:
    """The complete set of inequivalent fibrations of a finite-class
    orbifold (including f itself), each normalized, as a fresh set."""
    f = _require_normal_spherical(f)
    invariant = _invariant(f)
    if isinstance(invariant, DiffeoKey):
        raise InfiniteClassError(
            "%s admits infinitely many fibrations; see diffeo_key" % (f,)
        )
    return set(invariant)


def _enumerate_fibrations(f: FiberedOrbifold, readings, filed: dict) -> set[FiberedOrbifold]:
    """The closure of the finite-class normal form f under the rewrites,
    from the readings of f that its class check filed in `filed`.

    Each other member is read by the source patterns filed under its shape
    once, when it joins, and those readings check it finite and give its
    moves; a move whose target is already filed reuses that member, so
    each member but f is built once."""
    seen = {f}
    frontier = [(f, readings)]
    while frontier:
        g, readings = frontier.pop()
        for _, h in _moves(g, readings, filed):
            if h not in seen:
                seen.add(h)
                frontier.append((h, _still_finite(g, h, filed)))
        if len(seen) > 3:
            raise AssertionError("rewrite closure exceeded three fibrations: %s" % seen)
    return seen


def fibration_count(f: FiberedOrbifold) -> FibrationCount:
    invariant = _invariant(_require_normal_spherical(f))
    if isinstance(invariant, DiffeoKey):
        return FibrationCount.INFINITE
    return FibrationCount(len(invariant))


def double_cover(f: FiberedOrbifold) -> FiberedOrbifold:
    """Double of a fibration over a disk with mirror boundary only.

    The base is doubled along its boundary, corner invariants become cone
    invariants unchanged, the Euler class doubles and the boundary bit is
    dropped.
    """
    f = check_valid(normalize(f))
    if f.base.surface is not Surface.DISK or f.base.cone_labels:
        raise ValueError("double_cover requires a disk base without cone points")
    return _normal_form(Surface.SPHERE, f.corner_invariants, [], 2 * f.euler)


def diffeo_key(f: FiberedOrbifold) -> DiffeoKey:
    """Lens key of an infinite-class orbifold.

    The key is read from the small-base representative of f's class (f
    itself or its bridge target).  The comparison mode is fixed-cores
    exactly when the two core indices differ.
    """
    g = _representative(_require_normal_spherical(f))
    if g is None:
        raise ValueError("diffeo_key is defined for infinite-class orbifolds only")
    return _key(g)


def _key(g: FiberedOrbifold) -> DiffeoKey:
    """Key of the small-base normal form g: its cones and e on a sphere, its
    corners and 2e on a disk (the double cover, without building it).

    The Euler class goes to `_lens_label` as its reduced (numerator,
    denominator); 2n/d is reduced to n/(d/2) when d is even."""
    e = g.euler
    n, d = e.numerator, e.denominator
    if g.base.surface is _S2:
        side, invariants = OrbifoldClass.SPHERE_CLASS, g.cone_invariants
    else:
        side, invariants = OrbifoldClass.DISK_CLASS, g.corner_invariants
        n, d = (n, d // 2) if d % 2 == 0 else (2 * n, d)
    cores, iota = _cores(invariants)
    mode = Mode.ORIENTED if iota[0] == iota[1] else Mode.FIXED_CORES
    return DiffeoKey(side, _lens_label(cores, n, d), iota, mode)


@lru_cache(maxsize=_MEMO_MAXSIZE)
def _invariant(f: FiberedOrbifold):
    """Frozen fibration set (finite class) or DiffeoKey (infinite class) of
    the normal form f, memoized: both values are immutable.  f is read
    once: its readings decide its class and start its closure."""
    filed = {}
    g, readings = _read_class(f, filed)
    if g is None:
        return frozenset(_enumerate_fibrations(f, readings, filed))
    return _key(g)


def are_diffeomorphic(f: FiberedOrbifold, g: FiberedOrbifold) -> bool:
    """Orientation-preserving diffeomorphism of the underlying orbifolds."""
    return _are_diffeomorphic(_require_normal_spherical(f), _require_normal_spherical(g))


def _are_diffeomorphic(f: FiberedOrbifold, g: FiberedOrbifold) -> bool:
    return _signature(_invariant(f)) == _signature(_invariant(g))


def diffeo_signature(f: FiberedOrbifold):
    """Hashable complete invariant of the oriented diffeomorphism type.

    Finite class: the frozen set of all fibrations.  Infinite class: the
    key with q canonicalized under the allowed torus exchange, the two
    sphere/disk crossover orbifolds folded onto one value.
    """
    return _signature(_invariant(_require_normal_spherical(f)))


# The two orbifolds fibered over both S2(2,2) and D2: their sphere-side
# and disk-side signatures fold onto one value each.
_CROSS = {
    ("sphere", 1, 0, (2, 2)): ("cross", 0),
    ("disk", 2, 1, (1, 1)): ("cross", 0),
    ("sphere", 1, 0, (2, 1)): ("cross", 1),
    ("disk", 1, 0, (1, 1)): ("cross", 1),
}


def _signature(invariant):
    """diffeo_signature from a frozen fibration set or a DiffeoKey."""
    if not isinstance(invariant, DiffeoKey):
        return invariant
    k = invariant
    q = k.lens.q
    if k.mode is Mode.ORIENTED and q > 1:
        q = min(q, pow(q, -1, k.lens.p))
    sig = (k.orbifold_class.value, k.lens.p, q, k.iota)
    return _CROSS.get(sig, sig)
