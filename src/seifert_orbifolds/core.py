"""
Exact data model for closed 2-orbifolds and oriented Seifert fibered
3-orbifolds.

A fibered orbifold is recorded by its base 2-orbifold, one local invariant
a/b per cone point and per corner reflector (matched to the base labels by
the order b), the Euler class e, and one boundary bit xi per boundary
component of the underlying surface of the base.  All arithmetic is exact:
invariants are integer pairs, e and chi are `fractions.Fraction`.

For an oriented fibered orbifold these data satisfy

    e + sum_i a_i/b_i + (1/2) (sum_j a'_j/b'_j + sum_k xi_k) = 0  (mod 1)

where i runs over cone points, j over corner reflectors and k over boundary
components.  `validate` checks exactly this relation together with the
label/invariant matching.

Whether an input is valid and spherical is decided in one place,
`_verdict`: it normalizes the input and decides both in one integer pass,
`_valid_spherical`, and calls `validate` only for an invalid input, to
word its problems.  The classifier's guard, the command line's report and
its `validate` command, and the lens module's two-fraction route all take
their verdict from it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import index

Rational = Fraction


class _IdentityEnum(Enum):
    # Members are singletons, so the identity hash (computed in C) agrees
    # with ==; Enum's own hash is the hash of the name, computed in Python.
    __hash__ = object.__hash__


class Surface(_IdentityEnum):
    SPHERE = "S2"
    PROJECTIVE_PLANE = "RP2"
    DISK = "D2"


class UnsupportedFamilyError(Exception):
    """Raised for families whose quotient data is out of scope here.  It is
    raised by `groups`, which re-exports it, and defined here so that the
    command line catches it without loading `groups`."""


def _integer(n, what: str) -> int:
    """n as an int; ValueError for anything that is not integral (a float
    such as 2.5 or 3.0 included), instead of a silent truncation."""
    try:
        return index(n)
    except TypeError:
        raise ValueError("%s must be integers, got %r" % (what, n)) from None


def _too_long(what: str, digits: str) -> str:
    """The message for a number with more digits than int() converts
    (sys.get_int_max_str_digits())."""
    return "%s too long: %d digits, at most %d" % (what, len(digits),
                                                  sys.get_int_max_str_digits())


def _natural(text: str, what: str) -> int | None:
    """The value of `text` when it is ASCII digits, leading 0s allowed
    (`str.isdigit` and `int()` alone also read other scripts' digits), else
    None; a ValueError naming `what` when the digits left after the 0s are
    more than int() converts."""
    if not (text.isascii() and text.isdigit()):
        return None
    digits = text.lstrip("0") or "0"
    try:
        return int(digits)
    except ValueError:
        raise ValueError(_too_long(what, digits)) from None


def _as_rational(q, what: str = "the Euler class") -> Fraction:
    """q as a Fraction; ValueError for a float, which is not exact, and for
    anything Fraction() cannot read, such as None, a list or "1/0"."""
    if isinstance(q, Fraction):
        return q
    if isinstance(q, float):
        raise ValueError("%s must be exact (an int or a Fraction), got %r" % (what, q))
    try:
        return Fraction(q)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError("%s must be an int or a Fraction, got %r" % (what, q)) from None


def _items(values, what: str):
    """An iterator over values; ValueError naming `what` for an int or
    anything else that is not iterable."""
    try:
        return iter(values)
    except TypeError:
        raise ValueError("%s must be a tuple or list, got %r" % (what, values)) from None


def _as_label_tuple(labels, side: str) -> tuple[int, ...]:
    out = []
    for n in _items(labels, side + " labels"):
        n = _integer(n, "singularity labels")
        if n < 1:
            raise ValueError("singularity labels must be positive integers, got %r" % (n,))
        if n == 1:
            continue  # order-1 points are regular and never stored
        out.append(n)
    return tuple(sorted(out))


@dataclass(frozen=True)
class TwoOrbifold:
    """A closed 2-orbifold: underlying surface, cone labels, corner labels.

    Corner reflectors only occur on the disk; the projective plane carries
    at most cone points.  Labels equal to 1 are dropped at construction.
    """

    surface: Surface
    cone_labels: tuple[int, ...] = ()
    corner_labels: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "surface", Surface(self.surface))  # a member, or its name
        object.__setattr__(self, "cone_labels", _as_label_tuple(self.cone_labels, "cone"))
        object.__setattr__(self, "corner_labels", _as_label_tuple(self.corner_labels, "corner"))
        if self.corner_labels and self.surface is not Surface.DISK:
            raise ValueError("corner reflectors only occur on a disk base")

    @property
    def boundary_components(self) -> int:
        return 1 if self.surface is Surface.DISK else 0

    def __str__(self) -> str:
        name = self.surface.value
        if not self.cone_labels and not self.corner_labels:
            return name
        cones = ",".join(str(n) for n in self.cone_labels)
        if self.surface is Surface.DISK:
            corners = ",".join(str(n) for n in self.corner_labels)
            return "%s(%s;%s)" % (name, cones, corners)
        return "%s(%s)" % (name, cones)


@dataclass(frozen=True, init=False)
class LocalInvariant:
    """The class a/b in Q/Z attached to an exceptional fiber of order b.

    Stored with the canonical representative 0 <= a < b.  The singularity
    index of the corresponding fiber is gcd(a, b).
    """

    a: int
    b: int

    def __init__(self, a, b):
        try:
            a, b = index(a), index(b)
        except TypeError:
            raise ValueError("local invariants must be integers, got %r/%r" % (a, b)) from None
        if b < 1:
            raise ValueError("invariant order must be >= 1")
        object.__setattr__(self, "a", a % b)
        object.__setattr__(self, "b", b)

    @property
    def value(self) -> Fraction:
        return Fraction(self.a, self.b)

    @property
    def index(self) -> int:
        """Singularity index of the fiber: gcd(a, b) (gcd(0, b) = b)."""
        return gcd(self.a, self.b)

    def negated(self) -> "LocalInvariant":
        return LocalInvariant(-self.a, self.b)

    def __str__(self) -> str:
        return "%d/%d" % (self.a, self.b)


def _as_invariants(pairs, side: str) -> tuple[LocalInvariant, ...]:
    """The invariants of order > 1 among the `side` ("cone" or "corner")
    invariants; ValueError unless each item of `pairs` is a LocalInvariant
    or a two-item tuple or list."""
    out = []
    for p in _items(pairs, side + " invariants"):
        if not isinstance(p, LocalInvariant):
            if not isinstance(p, (tuple, list)) or len(p) != 2:
                raise ValueError("%s invariants must be LocalInvariants or (a, b) pairs, "
                                 "got %r" % (side, p))
            p = LocalInvariant(*p)
        if p.b != 1:  # an invariant over a regular point is never stored
            out.append(p)
    return tuple(out)


@dataclass(frozen=True)
class FiberedOrbifold:
    """An oriented Seifert fibered 3-orbifold given by its invariants.

    The hash and the str are computed on first use and kept outside the
    five fields, so `==`, `repr` and `dataclasses.fields` see only those.
    Pickling drops the kept values: the hash reads the Surface enum, whose
    hash is its identity and differs between processes.
    """

    base: TwoOrbifold
    cone_invariants: tuple[LocalInvariant, ...] = ()
    corner_invariants: tuple[LocalInvariant, ...] = ()
    euler: Fraction = Fraction(0)
    xi: tuple[int, ...] = ()

    # Until first use these class attributes answer, so a miss costs no
    # exception.
    _hash = None
    _str = None

    def __post_init__(self):
        if not isinstance(self.base, TwoOrbifold):
            raise ValueError("the base must be a TwoOrbifold, got %r" % (self.base,))
        object.__setattr__(self, "cone_invariants", _as_invariants(self.cone_invariants, "cone"))
        object.__setattr__(self, "corner_invariants",
                           _as_invariants(self.corner_invariants, "corner"))
        if not isinstance(self.euler, Fraction):
            object.__setattr__(self, "euler", _as_rational(self.euler))
        if not isinstance(self.xi, (tuple, list)):  # a dict was read through its keys
            raise ValueError("xi must be a tuple or list, got %r" % (self.xi,))
        xi = tuple(_integer(x, "xi entries") for x in self.xi)
        if any(x not in (0, 1) for x in xi):
            raise ValueError("xi entries must be bits")
        if len(xi) != self.base.boundary_components:
            raise ValueError(
                "xi must have one entry per boundary component (%d expected, %d given)"
                % (self.base.boundary_components, len(xi))
            )
        object.__setattr__(self, "xi", xi)

    @classmethod
    def from_data(cls, surface, cone_pairs=(), corner_pairs=(), euler=0, xi=None):
        """Build base and fibration together from raw (a, b) pairs.

        Base labels are the invariant orders.  When ``xi`` is None and the
        base has a boundary, the unique xi making the sum relation hold is
        chosen (ValueError if none exists).  A given ``xi``, a tuple or list
        of bits or one int bit, goes to the constructor's checks as given.
        """
        cones = _as_invariants(cone_pairs, "cone")
        corners = _as_invariants(corner_pairs, "corner")
        base = TwoOrbifold(surface, tuple(i.b for i in cones), tuple(i.b for i in corners))
        e = _as_rational(euler)
        if xi is None:
            bits = (solve_xi(cones, corners, e),) if base.boundary_components else ()
        else:
            bits = xi if isinstance(xi, (tuple, list)) else (xi,)
        return cls(base, cones, corners, e, bits)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.base, self.cone_invariants, self.corner_invariants, self.euler, self.xi))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        text = self._str
        if text is None:
            cones = ",".join(str(i) for i in self.cone_invariants)
            e = format_rational(self.euler)
            if self.base.surface is Surface.DISK:
                corners = ",".join(str(i) for i in self.corner_invariants)
                bits = ",".join(str(x) for x in self.xi)
                text = "(%s; %s; %s; %s; %s)" % (self.base, cones, corners, e, bits)
            else:
                text = "(%s; %s; %s)" % (self.base, cones, e)
            object.__setattr__(self, "_str", text)
        return text

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in ("_hash", "_str")}


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def _twice_relation(cones, corners, euler: Fraction, d: int | None = None
                    ) -> tuple[int, int]:
    """(n, d) with d = lcm(den e, every order b), unless a common multiple
    of those is given, and n = 2*d*(e + sum cone a/b + (1/2) sum corner
    a/b), an integer.

    The sum relation with boundary bits xi holds iff
    n + d*sum(xi) = 0 (mod 2d).  The sums are plain loops: over a few
    invariants a generator costs more than the arithmetic.
    """
    if d is None:
        d = lcm(euler.denominator, *(i.b for i in cones), *(i.b for i in corners))
    n = euler.numerator * (d // euler.denominator)
    for i in cones:
        n += i.a * (d // i.b)
    n *= 2
    for i in corners:
        n += i.a * (d // i.b)
    return n, d


def solve_xi(cone_invariants, corner_invariants, euler) -> int:
    """The unique xi in {0, 1} closing the sum relation over one boundary.

    With a single boundary component the relation pins xi/2 mod 1, hence xi;
    raises ValueError when neither bit works.
    """
    euler = _as_rational(euler)
    return _boundary_bit(*_twice_relation(
        _as_invariants(cone_invariants, "cone"), _as_invariants(corner_invariants, "corner"), euler
    ))


def _boundary_bit(n: int, d: int) -> int:
    """The xi in {0, 1} with n + d*xi = 0 (mod 2d), for (n, d) from
    `_twice_relation`; raises ValueError when neither bit works."""
    if n % d:
        raise ValueError("no boundary bit makes the invariant relation hold")
    return (-n // d) % 2


def _twice_chi(base: TwoOrbifold) -> tuple[int, int]:
    """(n, L) with L = lcm of the labels and chi(base) = n/(2L)."""
    common = lcm(*base.cone_labels, *base.corner_labels)
    n = 2 * common * (2 if base.surface is Surface.SPHERE else 1)
    for k in base.cone_labels:
        n -= 2 * (common - common // k)
    for k in base.corner_labels:
        n -= common - common // k
    return n, common


def euler_characteristic(base: TwoOrbifold) -> Fraction:
    """Orbifold Euler characteristic of a closed 2-orbifold.

    chi(X) minus (1 - 1/n) per cone point and half that per corner
    reflector, with chi(S2) = 2 and chi(RP2) = chi(D2) = 1.
    """
    n, common = _twice_chi(base)
    return Fraction(n, 2 * common)


def orbifold_order(f: FiberedOrbifold) -> Fraction:
    """4|e|/chi(base)^2: the order of the orbifold fundamental group of a
    spherical f over a good base, the same for every such fibration of one
    orbifold.  Over a bad base the formula does not give the order, and
    ValueError is raised.
    """
    n, common = _twice_chi(f.base)
    e = f.euler
    if n <= 0 or e == 0 or is_bad(f.base):
        raise ValueError("orbifold_order is defined for spherical fibrations over good bases")
    return Fraction(16 * common * common * abs(e.numerator), e.denominator * n * n)


def _core_labels(base: TwoOrbifold) -> tuple[int, ...] | None:
    """A sphere's cone labels or a cone-free disk's corner labels, else
    None: the labels over the two cores of a base that has at most two of
    them, the base of a lens-space representative."""
    if base.surface is Surface.SPHERE:
        return base.cone_labels
    if base.surface is Surface.DISK and not base.cone_labels:
        return base.corner_labels
    return None


def is_bad(base: TwoOrbifold) -> bool:
    """Whether a positively curved base is a bad 2-orbifold.

    The bad ones are the sphere with two distinct cone labels (teardrops
    included, reading a missing label as 1) and the disk with two distinct
    corner labels.  Rejects bases with chi <= 0.
    """
    if _twice_chi(base)[0] <= 0:
        raise ValueError("is_bad is only defined for chi > 0")
    labels = _core_labels(base)
    if not labels or len(labels) > 2:
        return False
    padded = (labels + (1, 1))[:2]
    return padded[0] != padded[1]


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    residue: Fraction | None = None
    problems: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


_VALID = ValidationResult(True, Fraction(0), ())  # immutable, so shared


def validate(f: FiberedOrbifold) -> ValidationResult:
    """Check label/invariant matching and the sum relation mod 1.

    With (n, d) from `_twice_relation`, the left side of the relation is
    (n + d*sum(xi))/(2d).  It holds iff that numerator is 0 mod 2d, and
    otherwise its residue in [-1/2, 1/2) is r/(2d) with
    r = (n + d*sum(xi) + d) mod 2d - d, built as a Fraction only then.
    """
    problems = []
    # Base labels are stored sorted, so only the orders are sorted here.
    for side, invariants, labels in (("cone", f.cone_invariants, f.base.cone_labels),
                                     ("corner", f.corner_invariants, f.base.corner_labels)):
        orders, labels = sorted(i.b for i in invariants), list(labels)
        if orders != labels:
            problems.append("%s invariant orders %s do not match base %s labels %s"
                            % (side, orders, side, labels))
    n, d = _twice_relation(f.cone_invariants, f.corner_invariants, f.euler)
    twice = n + d * sum(f.xi)
    if twice % (2 * d):
        residue = Fraction((twice + d) % (2 * d) - d, 2 * d)
        problems.append("invariant relation fails with residue %s" % format_rational(residue))
        return ValidationResult(False, residue, tuple(problems))
    if problems:
        return ValidationResult(False, None, tuple(problems))
    return _VALID


def check_valid(f: FiberedOrbifold) -> FiberedOrbifold:
    res = validate(f)
    if not res.ok:
        raise ValueError("invalid fibered orbifold %s: %s" % (f, "; ".join(res.problems)))
    return f


def _order_key(i: LocalInvariant) -> tuple[int, int]:
    return i.b, i.a


def normalize(f: FiberedOrbifold) -> FiberedOrbifold:
    """Canonical form: invariant lists sorted lexicographically by (b, a).

    Mod-1 reduction of the invariants and dropping of order-1 labels happen
    at construction, so normalizing is idempotent and leaves the relation
    residue unchanged.  An argument that is already sorted is returned
    as it is.
    """
    cones = tuple(sorted(f.cone_invariants, key=_order_key))
    corners = tuple(sorted(f.corner_invariants, key=_order_key))
    if cones == f.cone_invariants and corners == f.corner_invariants:
        return f
    return FiberedOrbifold(f.base, cones, corners, f.euler, f.xi)


# The trusted constructors: fields converted and checked already are set
# without __post_init__.  Setting them one by one keeps the instances'
# attributes inline, where writing through __dict__ would give each one a
# dict.


def _trusted_base(surface: Surface, cone_labels: tuple, corner_labels: tuple) -> TwoOrbifold:
    """The TwoOrbifold with these fields: labels > 1 and sorted, corners
    only on a disk."""
    base = object.__new__(TwoOrbifold)
    object.__setattr__(base, "surface", surface)
    object.__setattr__(base, "cone_labels", cone_labels)
    object.__setattr__(base, "corner_labels", corner_labels)
    return base


def _trusted(base: TwoOrbifold, cones: tuple, corners: tuple, euler: Fraction, xi: tuple
             ) -> FiberedOrbifold:
    """The FiberedOrbifold with these fields: LocalInvariants of order > 1,
    a Fraction and one int bit per boundary component."""
    f = object.__new__(FiberedOrbifold)
    object.__setattr__(f, "base", base)
    object.__setattr__(f, "cone_invariants", cones)
    object.__setattr__(f, "corner_invariants", corners)
    object.__setattr__(f, "euler", euler)
    object.__setattr__(f, "xi", xi)
    return f


def _normal_form(surface, cone_pairs=(), corner_pairs=(), euler=0) -> FiberedOrbifold:
    """check_valid(normalize(FiberedOrbifold.from_data(surface, cone_pairs,
    corner_pairs, euler))), with each conversion and each check done once.

    Returns the same value and raises the same ValueError, checked in the
    same order: integral invariants of order >= 1, the surface, corners
    only on a disk, an exact Euler class, then the sum relation.  The
    invariants are reduced and sorted once and the base labels are their
    orders.  One `_twice_relation` call solves xi on a disk and tests the
    relation on S2 and RP2.
    """
    cones = tuple(sorted(_as_invariants(cone_pairs, "cone"), key=_order_key))
    corners = tuple(sorted(_as_invariants(corner_pairs, "corner"), key=_order_key))
    if not isinstance(surface, Surface):
        surface = Surface(surface)
    if corners and surface is not Surface.DISK:
        raise ValueError("corner reflectors only occur on a disk base")
    e = _as_rational(euler)
    n, d = _twice_relation(cones, corners, e)
    xi = (_boundary_bit(n, d),) if surface is Surface.DISK else ()
    base = _trusted_base(surface, tuple(i.b for i in cones), tuple(i.b for i in corners))
    f = _trusted(base, cones, corners, e, xi)
    if surface is not Surface.DISK and n % (2 * d):
        check_valid(f)  # the relation fails: raises with validate's message
    return f


def reverse_orientation(f: FiberedOrbifold) -> FiberedOrbifold:
    """Mirror orbifold: negate all local invariants and the Euler class.

    On a disk base the boundary bit is re-solved from the relation (it is
    unchanged exactly when the number of nonzero corner invariants is even).
    The result is normalized, so the map is an involution.
    """
    cones = tuple(i.negated() for i in f.cone_invariants)
    corners = tuple(i.negated() for i in f.corner_invariants)
    e = -f.euler
    xi = (solve_xi(cones, corners, e),) if f.base.boundary_components else ()
    return normalize(FiberedOrbifold(f.base, cones, corners, e, xi))


def is_spherical(f: FiberedOrbifold) -> bool:
    """Spherical geometry detection: chi(base) > 0 and e != 0."""
    return f.euler != 0 and _twice_chi(f.base)[0] > 0


def _valid_spherical(f: FiberedOrbifold) -> bool | None:
    """None when `validate(f)` fails, else `is_spherical(f)`, for a normal
    form f, in one integer pass.

    The orders of a normal form are sorted, as the labels are, so they
    match the labels exactly when the two tuples are equal.  Then the lcm
    of the labels, which `_twice_chi` takes, is that of the orders, and
    the relation's d follows from it and the denominator of e.
    """
    base = f.base
    cones, corners = f.cone_invariants, f.corner_invariants
    if (tuple([i.b for i in cones]) != base.cone_labels
            or tuple([i.b for i in corners]) != base.corner_labels):
        return None
    chi, common = _twice_chi(base)
    e = f.euler
    n, d = _twice_relation(cones, corners, e, lcm(common, e.denominator))
    if (n + d * sum(f.xi)) % (2 * d):
        return None
    return chi > 0 and e.numerator != 0


# The bound of each per-process memo: classify's `_invariant` and the
# command line's `_reading` and `_quotient`.  2,000 queries rounds of the
# benchmark (114k queries) met 483 distinct normal forms, and 985 distinct
# texts that parse in the commands that read `_reading`.  960 rounds, of
# seed 1 or of seed 61, kept 917 or 920 `--json` report texts and 460
# (spec, side) pairs of `_quotient`.  1024 holds each.
_MEMO_MAXSIZE = 1024


def _verdict(f: FiberedOrbifold) -> tuple[FiberedOrbifold, ValidationResult, bool]:
    """(normal form g of f, its ValidationResult, whether g is valid and
    spherical): the one verdict of every public boundary, from one
    `_valid_spherical` pass.  Only an invalid g is handed to `validate`,
    to word its problems."""
    g = normalize(f)
    spherical = _valid_spherical(g)
    return g, _VALID if spherical is not None else validate(g), bool(spherical)


def s3_fibration(u: int, v: int, sign: int = 1) -> FiberedOrbifold:
    """The Seifert fibration of S^3 with base S2(u, v), u, v >= 1 coprime.

    Local invariants are the classes of vbar/u and ubar/v where
    u*ubar + v*vbar = 1, and e = sign * (-1/(u*v)); sign=+1 is the Hopf
    side, sign=-1 its orientation reversal.  (u, v) = (1, 1) gives the Hopf
    fibration (S2; ; -1) itself.
    """
    u, v = _integer(u, "u and v"), _integer(v, "u and v")
    if u < 1 or v < 1:
        raise ValueError("u and v must be positive")
    if gcd(u, v) != 1:
        raise ValueError("u and v must be coprime")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    # One solution of u*ubar + v*vbar = 1; the classes mod 1 do not depend
    # on the choice.  sign = -1 negates every invariant and e, which is
    # reverse_orientation of the Hopf side.
    ubar = pow(u, -1, v) if v > 1 else 0
    vbar = (1 - u * ubar) // v
    return _normal_form(
        Surface.SPHERE, [(sign * vbar, u), (sign * ubar, v)], (), Fraction(-sign, u * v)
    )
