"""
Finite subgroups of SO(4) by family, with their orders and the Seifert
invariants of the quotient fibrations they induce on S^3 from the Hopf and
anti-Hopf fibrations.

Families are named F1..F34 with primed and "bis" variants; a bis family is
the class obtained by exchanging the left and right factors of the defining
pair, which is orientation-reversingly but not orientation-preservingly
equivalent to the original.  Parameters (m, n, r, s) follow the family
tables; `group_order` accepts everything the tables allow, while the
quotient operations enforce the tighter ranges on which the tabulated
quotient data is parameterized (degenerate parameters either merge the
group into another family or fall into the infinitely-many-fibrations
regime handled elsewhere).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import gcd

from .core import FiberedOrbifold, Surface, check_valid, normalize, reverse_orientation


class Family(Enum):
    F1 = "F1"
    F1P = "F1'"
    F2 = "F2"
    F2BIS = "F2bis"
    F3 = "F3"
    F3BIS = "F3bis"
    F4 = "F4"
    F4BIS = "F4bis"
    F5 = "F5"
    F6 = "F6"
    F7 = "F7"
    F8 = "F8"
    F9 = "F9"
    F10 = "F10"
    F11 = "F11"
    F11P = "F11'"
    F12 = "F12"
    F12BIS = "F12bis"
    F13 = "F13"
    F13BIS = "F13bis"
    F14 = "F14"
    F15 = "F15"
    F16 = "F16"
    F17 = "F17"
    F18 = "F18"
    F19 = "F19"
    F20 = "F20"
    F21 = "F21"
    F21P = "F21'"
    F22 = "F22"
    F23 = "F23"
    F24 = "F24"
    F25 = "F25"
    F26 = "F26"
    F26P = "F26'"
    F26PP = "F26''"
    F27 = "F27"
    F28 = "F28"
    F29 = "F29"
    F30 = "F30"
    F31 = "F31"
    F31P = "F31'"
    F32 = "F32"
    F32P = "F32'"
    F33 = "F33"
    F33P = "F33'"
    F34 = "F34"
    F34BIS = "F34bis"


class UnsupportedFamilyError(Exception):
    """Raised for families whose quotient data is out of scope here."""


class NoInvariantFibration:
    """Marker: the group preserves no fibration on the requested side."""

    def __repr__(self):
        return "NoInvariantFibration"

    def __eq__(self, other):
        return isinstance(other, NoInvariantFibration)

    def __hash__(self):
        return hash("NoInvariantFibration")


NO_INVARIANT_FIBRATION = NoInvariantFibration()

# Parameter letters used by each family, in order.
_PARAMS = {}
for _f in (Family.F1, Family.F1P, Family.F11, Family.F11P):
    _PARAMS[_f] = ("m", "n", "r", "s")
for _f in (
    Family.F2, Family.F2BIS, Family.F3, Family.F3BIS, Family.F4, Family.F4BIS,
    Family.F10, Family.F12, Family.F12BIS, Family.F13, Family.F13BIS,
    Family.F33, Family.F33P, Family.F34, Family.F34BIS,
):
    _PARAMS[_f] = ("m", "n")
for _f in (
    Family.F5, Family.F6, Family.F7, Family.F8, Family.F9,
    Family.F14, Family.F15, Family.F16, Family.F17, Family.F18, Family.F19,
):
    _PARAMS[_f] = ("m",)

_FIXED_ORDER = {
    Family.F20: 288, Family.F21: 24, Family.F21P: 12, Family.F22: 96,
    Family.F23: 576, Family.F24: 1440, Family.F25: 1152, Family.F26: 48,
    Family.F26P: 24, Family.F26PP: 24, Family.F27: 192, Family.F28: 576,
    Family.F29: 2880, Family.F30: 7200, Family.F31: 120, Family.F31P: 60,
    Family.F32: 120, Family.F32P: 60,
}
for _f in _FIXED_ORDER:
    _PARAMS[_f] = ()


@dataclass(frozen=True)
class GroupFamily:
    family: Family
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        names = _PARAMS[self.family]
        given = dict(self.params)
        if set(given) != set(names):
            raise ValueError(
                "%s takes parameters %s, got %s" % (self.family.value, names, sorted(given))
            )
        vals = {k: int(v) for k, v in given.items()}
        if any(v < 1 for v in vals.values()):
            raise ValueError("parameters must be positive integers")
        object.__setattr__(self, "params", vals)
        _check_constraints(self.family, vals)

    def __getattr__(self, name):
        try:
            return self.params[name]
        except KeyError:
            raise AttributeError(name)

    def __hash__(self):
        return hash((self.family, tuple(sorted(self.params.items()))))

    def __str__(self):
        names = _PARAMS[self.family]
        if not names:
            return self.family.value
        inner = ",".join("%s=%d" % (k, self.params[k]) for k in names)
        return "%s(%s)" % (self.family.value, inner)


def _check_constraints(family: Family, p: dict) -> None:
    odd = lambda k: p[k] % 2 == 1
    if family in (Family.F1, Family.F11):
        if gcd(p["s"], p["r"]) != 1:
            raise ValueError("%s requires gcd(s, r) = 1" % family.value)
    elif family in (Family.F1P, Family.F11P):
        if gcd(p["s"], p["r"]) != 1:
            raise ValueError("%s requires gcd(s, r) = 1" % family.value)
        if not odd("m") or not odd("n") or p["r"] % 2 != 0:
            raise ValueError("%s requires m, n odd and r even" % family.value)
    elif family in (Family.F33, Family.F33P):
        if p["n"] == 1:
            raise ValueError("%s requires n != 1" % family.value)
        if family is Family.F33P and (not odd("m") or not odd("n")):
            raise ValueError("F33' requires m, n odd")
        # m = 1 is admitted: in the fibration-preserving classification it
        # is a class of its own even though the plain SO(4) table lists the
        # family with m != 1.
    elif family in (Family.F34, Family.F34BIS):
        if not odd("m") or not odd("n"):
            raise ValueError("%s requires m, n odd" % family.value)


def parse_group(text: str) -> GroupFamily:
    """Parse a group spec like ``F2(m=3,n=2)`` or ``F20``."""
    text = text.strip().replace("′", "'")
    if "(" in text:
        if not text.endswith(")"):
            raise ValueError("unbalanced parentheses in group spec %r" % text)
        name, _, inner = text[:-1].partition("(")
        params = {}
        inner = inner.strip()
        if inner:
            for piece in inner.split(","):
                key, eq, val = piece.partition("=")
                if not eq:
                    raise ValueError("group parameters must be given as name=value")
                val = val.strip()
                # ASCII digits only: int() also reads other scripts' digits
                if not re.fullmatch("[0-9]+", val):
                    raise ValueError(
                        "group parameter %s must be written in ASCII digits, got %r"
                        % (key.strip(), val)
                    )
                params[key.strip()] = int(val)
    else:
        name, params = text, {}
    name = name.strip()
    for fam in Family:
        if fam.value == name:
            return GroupFamily(fam, params)
    raise ValueError("unknown family %r" % name)


_ORDER = {
    Family.F1: lambda p: 2 * p["m"] * p["n"] * p["r"],
    Family.F1P: lambda p: p["m"] * p["n"] * p["r"] // 2,
    Family.F2: lambda p: 4 * p["m"] * p["n"],
    Family.F2BIS: lambda p: 4 * p["m"] * p["n"],
    Family.F3: lambda p: 4 * p["m"] * p["n"],
    Family.F3BIS: lambda p: 4 * p["m"] * p["n"],
    Family.F4: lambda p: 8 * p["m"] * p["n"],
    Family.F4BIS: lambda p: 8 * p["m"] * p["n"],
    Family.F5: lambda p: 24 * p["m"],
    Family.F6: lambda p: 24 * p["m"],
    Family.F7: lambda p: 48 * p["m"],
    Family.F8: lambda p: 48 * p["m"],
    Family.F9: lambda p: 120 * p["m"],
    Family.F10: lambda p: 8 * p["m"] * p["n"],
    Family.F11: lambda p: 4 * p["m"] * p["n"] * p["r"],
    Family.F11P: lambda p: p["m"] * p["n"] * p["r"],
    Family.F12: lambda p: 16 * p["m"] * p["n"],
    Family.F12BIS: lambda p: 16 * p["m"] * p["n"],
    Family.F13: lambda p: 8 * p["m"] * p["n"],
    Family.F13BIS: lambda p: 8 * p["m"] * p["n"],
    Family.F14: lambda p: 48 * p["m"],
    Family.F15: lambda p: 96 * p["m"],
    Family.F16: lambda p: 48 * p["m"],
    Family.F17: lambda p: 96 * p["m"],
    Family.F18: lambda p: 48 * p["m"],
    Family.F19: lambda p: 240 * p["m"],
    Family.F33: lambda p: 8 * p["m"] * p["n"],
    Family.F33P: lambda p: 4 * p["m"] * p["n"],
    Family.F34: lambda p: 2 * p["m"] * p["n"],
    Family.F34BIS: lambda p: 2 * p["m"] * p["n"],
}


def group_order(g: GroupFamily) -> int:
    """Order of the SO(4) subgroup (the "order of G" table column)."""
    if g.family in _FIXED_ORDER:
        return _FIXED_ORDER[g.family]
    return _ORDER[g.family](g.params)


# ---------------------------------------------------------------------------
# Quotients of the Hopf fibration.
#
# Each row maps the family parameters to (surface, cone pairs, corner pairs,
# Euler class); invariants are (numerator, order) pairs reduced mod 1 at
# construction, and the boundary bit is solved from the sum relation.  The
# tighter parameter ranges below keep every emitted row on the part of the
# table where the left/right factor pairs are honest representatives of
# their fibration-preserving class:
#   - cyclic-versus-binary-dihedral degeneracies (an index-4 "binary
#     dihedral" factor is cyclic) merge F2/F3/F34-type rows at n = 1 into
#     the lens-space families, so those parameters are rejected;
#   - a D*_{8}/D*_{4} kernel pair on the *left* factor (F4bis, F12, F13,
#     F17 at m = 1) is a class the table does not parameterize, rejected;
#   - the mirrored degeneracies on the right are duplicates of other rows
#     and are rejected as well (F4 at n = 1 duplicates F3(m, 2), F12 at
#     n = 1 duplicates F13(m, 2), F13/F13bis at n = 1 fall into the
#     infinitely-fibered regime).
# ---------------------------------------------------------------------------

_PLATONIC_SIDED = (
    Family.F5, Family.F6, Family.F7, Family.F8, Family.F9,
    Family.F14, Family.F15, Family.F16, Family.F17, Family.F18, Family.F19,
)

_NO_FIBRATION = (
    Family.F20, Family.F21, Family.F21P, Family.F22, Family.F23, Family.F24,
    Family.F25, Family.F26, Family.F26P, Family.F26PP, Family.F27, Family.F28,
    Family.F29, Family.F30, Family.F31, Family.F31P, Family.F32, Family.F32P,
)

_EXTERNAL_TABLES = (Family.F1, Family.F1P, Family.F11, Family.F11P)


def _reject(g, why):
    raise ValueError("quotient data is not defined for %s: %s" % (g, why))


def _hopf_row(g: GroupFamily):
    fam, p = g.family, g.params
    m = p.get("m")
    n = p.get("n")
    S, D, RP = Surface.SPHERE, Surface.DISK, Surface.PROJECTIVE_PLANE
    if fam is Family.F2:
        if n < 2:
            _reject(g, "n = 1 merges into the lens-space families")
        return S, [(m, n), (m, 2), (m, 2)], [], Fraction(-m, n)
    if fam is Family.F2BIS:
        if n % 2 == 0:
            return D, [(m, n)], [], Fraction(-m, n)
        return RP, [(m, n)], [], Fraction(-m, n)
    if fam is Family.F3:
        if n < 2:
            _reject(g, "n = 1 merges into the lens-space families")
        return S, [(m, n), (m + 1, 2), (m + 1, 2)], [], Fraction(-m, n)
    if fam is Family.F3BIS:
        if n % 2 == 1:
            return D, [(m, n)], [], Fraction(-m, n)
        return RP, [(m, n)], [], Fraction(-m, n)
    if fam is Family.F4:
        if n < 2:
            _reject(g, "n = 1 duplicates F3(m, 2)")
        return S, [(m + n, 2 * n), (m, 2), (m + 1, 2)], [], Fraction(-m, 2 * n)
    if fam is Family.F4BIS:
        if m < 2:
            _reject(g, "m = 1 is not parameterized by the table")
        return D, [(m + n, 2 * n)], [], Fraction(-m, 2 * n)
    if fam is Family.F5:
        return S, [(m, 2), (m, 3), (m, 3)], [], Fraction(-m, 6)
    if fam is Family.F6:
        return S, [(m, 2), (m + 1, 3), (m + 2, 3)], [], Fraction(-m, 6)
    if fam is Family.F7:
        return S, [(m, 2), (m, 3), (m, 4)], [], Fraction(-m, 12)
    if fam is Family.F8:
        return S, [(m + 1, 2), (m, 3), (m + 2, 4)], [], Fraction(-m, 12)
    if fam is Family.F9:
        return S, [(m, 2), (m, 3), (m, 5)], [], Fraction(-m, 30)
    if fam is Family.F10:
        if n % 2 == 0:
            return D, [], [(m, n), (m, 2), (m, 2)], Fraction(-m, 2 * n)
        return D, [(m, 2)], [(m, n)], Fraction(-m, 2 * n)
    if fam is Family.F12:
        if m < 2 and n < 2:
            _reject(g, "m = n = 1 falls into the infinitely-fibered regime")
        if n < 2:
            _reject(g, "n = 1 duplicates F13(m, 2)")
        return D, [], [(m + n, 2 * n), (m, 2), (m + 1, 2)], Fraction(-m, 4 * n)
    if fam is Family.F13:
        if m < 2:
            _reject(g, "m = 1 is not parameterized by the table")
        if n < 2:
            _reject(g, "n = 1 duplicates F4bis(m, 1)")
        if n % 2 == 0:
            return D, [], [(m, n), (m + 1, 2), (m + 1, 2)], Fraction(-m, 2 * n)
        return D, [(m + 1, 2)], [(m, n)], Fraction(-m, 2 * n)
    if fam is Family.F13BIS:
        if n < 2:
            _reject(g, "n = 1 falls into the infinitely-fibered regime")
        if n % 2 == 1:
            return D, [], [(m, n), (m, 2), (m, 2)], Fraction(-m, 2 * n)
        return D, [(m, 2)], [(m, n)], Fraction(-m, 2 * n)
    if fam is Family.F14:
        return D, [(m, 3)], [(m, 2)], Fraction(-m, 12)
    if fam is Family.F15:
        return D, [], [(m, 2), (m, 3), (m, 4)], Fraction(-m, 24)
    if fam is Family.F16:
        return D, [], [(m, 2), (m, 3), (m, 3)], Fraction(-m, 12)
    if fam is Family.F17:
        if m < 2:
            _reject(g, "m = 1 is not parameterized by the table")
        return D, [], [(m + 1, 2), (m, 3), (m + 2, 4)], Fraction(-m, 24)
    if fam is Family.F18:
        return D, [], [(m, 2), (m + 1, 3), (m + 2, 3)], Fraction(-m, 12)
    if fam is Family.F19:
        return D, [], [(m, 2), (m, 3), (m, 5)], Fraction(-m, 60)
    if fam is Family.F33:
        if n % 2 == 1:
            return D, [], [(m, n), (m + 1, 2), (m + 1, 2)], Fraction(-m, 2 * n)
        return D, [(m + 1, 2)], [(m, n)], Fraction(-m, 2 * n)
    if fam is Family.F33P:
        return D, [], [((m + n) // 2, n), (m, 2), (m + 1, 2)], Fraction(-m, 4 * n)
    if fam is Family.F34:
        if n < 2:
            _reject(g, "n = 1 merges into the lens-space families")
        return S, [((m + n) // 2, n), (m, 2), (m + 1, 2)], [], Fraction(-m, 2 * n)
    if fam is Family.F34BIS:
        return D, [((m + n) // 2, n)], [], Fraction(-m, 2 * n)
    raise AssertionError(fam)


def _swap(g: GroupFamily):
    """The group with left and right factors exchanged, when representable.

    Returns a GroupFamily, NO_INVARIANT_FIBRATION when the swapped left
    factor is platonic (no invariant Hopf fibration on that side), or
    raises ValueError when the swap leaves the parameterized ranges.
    """
    fam, p = g.family, g.params
    mn = {"m": p.get("n"), "n": p.get("m")}
    pairs = {
        Family.F2: Family.F2BIS, Family.F2BIS: Family.F2,
        Family.F3: Family.F3BIS, Family.F3BIS: Family.F3,
        Family.F4: Family.F4BIS, Family.F4BIS: Family.F4,
        Family.F13: Family.F13BIS, Family.F13BIS: Family.F13,
        Family.F34: Family.F34BIS, Family.F34BIS: Family.F34,
        Family.F10: Family.F10, Family.F12: Family.F12,
        Family.F33: Family.F33, Family.F33P: Family.F33P,
    }
    if fam in _PLATONIC_SIDED:
        return NO_INVARIANT_FIBRATION
    if fam in pairs:
        return GroupFamily(pairs[fam], mn)
    raise AssertionError(fam)


def quotient_hopf(g: GroupFamily):
    """Invariants of the fibration induced on S^3/G by the Hopf fibration.

    Returns a normalized FiberedOrbifold (Euler class < 0),
    NO_INVARIANT_FIBRATION for the platonic-by-platonic families 20-32',
    and raises UnsupportedFamilyError for families 1, 1', 11, 11' (their
    quotient tables live outside this module) and for F12bis.
    """
    if g.family in _NO_FIBRATION:
        return NO_INVARIANT_FIBRATION
    if g.family in _EXTERNAL_TABLES:
        raise UnsupportedFamilyError(
            "quotient invariants for %s are not implemented" % g.family.value
        )
    if g.family is Family.F12BIS:
        raise UnsupportedFamilyError(
            "F12bis is reserved; its quotient data is not tabulated"
        )
    surface, cones, corners, e = _hopf_row(g)
    f = normalize(FiberedOrbifold.from_data(surface, cones, corners, e))
    return check_valid(f)


def quotient_antihopf(g: GroupFamily):
    """Invariants induced by the anti-Hopf fibration.

    Computed as the orientation reversal of the Hopf quotient of the
    swapped group; Euler class > 0 when defined.
    """
    if g.family in _NO_FIBRATION:
        return NO_INVARIANT_FIBRATION
    if g.family in _EXTERNAL_TABLES:
        raise UnsupportedFamilyError(
            "quotient invariants for %s are not implemented" % g.family.value
        )
    if g.family is Family.F12BIS:
        raise UnsupportedFamilyError(
            "F12bis is reserved; its quotient data is not tabulated"
        )
    swapped = _swap(g)
    if swapped is NO_INVARIANT_FIBRATION:
        return NO_INVARIANT_FIBRATION
    return reverse_orientation(quotient_hopf(swapped))


def quotient_families() -> tuple[Family, ...]:
    """Families with tabulated quotient data, in table order."""
    return (
        Family.F2, Family.F2BIS, Family.F3, Family.F3BIS, Family.F4,
        Family.F4BIS, Family.F5, Family.F6, Family.F7, Family.F8, Family.F9,
        Family.F10, Family.F12, Family.F13, Family.F13BIS, Family.F14,
        Family.F15, Family.F16, Family.F17, Family.F18, Family.F19,
        Family.F33, Family.F33P, Family.F34, Family.F34BIS,
    )


def enumerate_parameters(family: Family, max_order: int):
    """All parameter assignments for `family` with group order <= max_order.

    Families with no parameter, with m, or with (m, n) are enumerated, in
    lexicographic parameter order.  Only assignments accepted by the table
    constraints and, for families with quotient data, by the quotient-range
    checks are yielded.
    """
    names = _PARAMS[family]
    if len(names) > 2:
        raise ValueError("parameter enumeration is only provided for up to two parameters")
    has_quotient = family in quotient_families()

    def order(m, n=1):
        if not names:
            return _FIXED_ORDER[family]
        return _ORDER[family](dict(zip(names, (m, n))))

    m = 1
    while order(m) <= max_order:
        n = 1
        while order(m, n) <= max_order:
            try:
                g = GroupFamily(family, dict(zip(names, (m, n))))
                if has_quotient:
                    _hopf_row(g)
            except ValueError:
                pass
            else:
                yield g
            if len(names) < 2:
                break
            n += 1
        if not names:
            break
        m += 1


def enumerate_quotient_groups(max_order: int):
    """Every (family, parameters) with tabulated quotient data and order
    bounded by max_order, in deterministic order."""
    for family in quotient_families():
        yield from enumerate_parameters(family, max_order)
