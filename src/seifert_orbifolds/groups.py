"""
Finite subgroups of SO(4) by family, with their orders and the Seifert
invariants of the quotient fibrations they induce on S^3 from the Hopf and
anti-Hopf fibrations.

Families are named F1..F34 with primed and "bis" variants; a bis family is
the class obtained by exchanging the left and right factors of the defining
pair, which is orientation-reversingly but not orientation-preservingly
equivalent to the original.

Each family is one row of `_TABLE`: its parameter letters, its order, its
Hopf quotient, its anti-Hopf partner, the parameters its quotient data
does not cover and the parameters its constraints exclude.  `Family` is
built from the rows' names by one rule, `'` becoming `P` and `bis` becoming
`BIS`: F26'' is `Family.F26PP` and F2bis is `Family.F2BIS`.  The
constructor, `group_order`, the quotient operations and the enumerators
all read that one row.  `group_order` accepts everything the
family constraints allow, while the quotient operations also apply the
row's rejections (degenerate parameters either merge the group into
another family or fall into the infinitely-many-fibrations regime handled
elsewhere).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable, NamedTuple

from .core import (Surface, UnsupportedFamilyError, _IdentityEnum, _integer, _natural,
                   _normal_form)


class NoInvariantFibration:
    """Marker: the group preserves no fibration on the requested side.  Its
    one instance is NO_INVARIANT_FIBRATION, which pickle and copy return
    as itself, so it is tested with `is`."""

    def __repr__(self):
        return "NoInvariantFibration"

    def __reduce__(self):
        return "NO_INVARIANT_FIBRATION"


NO_INVARIANT_FIBRATION = NoInvariantFibration()


class _Row(NamedTuple):
    params: tuple[str, ...]
    order: Callable[..., int]
    hopf: object
    swap: object = None
    reject: tuple = ()
    require: tuple = ()


_S2, _D2, _RP2 = Surface.SPHERE, Surface.DISK, Surface.PROJECTIVE_PLANE
_MN, _MNRS = ("m", "n"), ("m", "n", "r", "s")
_EXTERNAL = "quotient invariants for {} are not implemented"
_LENS = (lambda m, n: n < 2, "n = 1 merges into the lens-space families")
_M1 = (lambda m, *_: m < 2, "m = 1 is not parameterized by the table")
_GCD_SR = (lambda m, n, r, s: gcd(s, r) != 1, "{} requires gcd(s, r) = 1")
_ODD_MN = (lambda m, n: m * n % 2 == 0, "{} requires m, n odd")
_ODD_MN_EVEN_R = (lambda m, n, r, s: m * n % 2 == 0 or r % 2, "{} requires m, n odd and r even")
# F33 and F33' admit m = 1, a class of its own in the fibration-preserving
# classification although the plain SO(4) table lists them with m != 1.
_N_NOT_1 = (lambda m, n: n == 1, "{} requires n != 1")


def _platonic_left(k: int, hopf, reject=()) -> _Row:
    """Families 5-9 and 14-19, of order k*m: the swapped left factor is platonic."""
    return _Row(("m",), lambda m: k * m, hopf, NO_INVARIANT_FIBRATION, reject)


def _platonic_pair(order: int) -> _Row:
    """Families 20-32': both factors platonic, no invariant fibration."""
    return _Row((), lambda: order, NO_INVARIANT_FIBRATION, NO_INVARIANT_FIBRATION)


# One row per family, keyed by its printed name.  `Family` is built from the
# names (' becomes P, bis becomes BIS: "F26''" is F26PP), then `_TABLE` is
# re-keyed by member and each swap name resolved.  Every function in a row
# takes the parameter values in the order of `params`:
#   - order: the group order (the "order of G" table column);
#   - hopf: the Hopf quotient as (surface, cone pairs, corner pairs, Euler
#     class), with invariants as (numerator, order) pairs reduced mod 1 at
#     construction and the boundary bit solved from the sum relation;
#     NO_INVARIANT_FIBRATION for the platonic-by-platonic families 20-32';
#     for 1, 1', 11, 11' (whose quotient tables live outside this module)
#     and 12bis, the message of the UnsupportedFamilyError raised instead;
#   - swap: the name of the family whose Hopf quotient, with m and n
#     exchanged and the orientation reversed, is the anti-Hopf quotient;
#     NO_INVARIANT_FIBRATION when the swapped left factor is platonic;
#   - reject: (predicate, reason) pairs, first match wins, for the
#     parameters the quotient data does not cover;
#   - require: (predicate, reason) pairs in the same form, for the
#     parameters the family's constraints exclude ("{}" is the family).
# The rejections keep every quotient on the part of the table where the
# left/right factor pairs are honest representatives of their
# fibration-preserving class:
#   - cyclic-versus-binary-dihedral degeneracies (an index-4 "binary
#     dihedral" factor is cyclic) merge F2/F3/F34-type rows at n = 1 into
#     the lens-space families, so those parameters are rejected;
#   - a D*_{8}/D*_{4} kernel pair on the *left* factor (F4bis, F12, F13,
#     F17 at m = 1) is a class the table does not parameterize, rejected;
#   - the mirrored degeneracies on the right are duplicates of other rows
#     and are rejected as well (F4 at n = 1 duplicates F3(m, 2), F12 at
#     n = 1 duplicates F13(m, 2), F13/F13bis at n = 1 fall into the
#     infinitely-fibered regime).
_TABLE = {
    "F1": _Row(_MNRS, lambda m, n, r, s: 2 * m * n * r, _EXTERNAL, require=(_GCD_SR,)),
    "F1'": _Row(
        _MNRS, lambda m, n, r, s: m * n * r // 2, _EXTERNAL, require=(_GCD_SR, _ODD_MN_EVEN_R)),
    "F2": _Row(
        _MN, lambda m, n: 4 * m * n,
        lambda m, n: (_S2, [(m, n), (m, 2), (m, 2)], [], Fraction(-m, n)), "F2bis", (_LENS,)),
    "F2bis": _Row(
        _MN, lambda m, n: 4 * m * n,
        lambda m, n: (_D2 if n % 2 == 0 else _RP2, [(m, n)], [], Fraction(-m, n)), "F2"),
    "F3": _Row(
        _MN, lambda m, n: 4 * m * n,
        lambda m, n: (_S2, [(m, n), (m + 1, 2), (m + 1, 2)], [], Fraction(-m, n)),
        "F3bis", (_LENS,)),
    "F3bis": _Row(
        _MN, lambda m, n: 4 * m * n,
        lambda m, n: (_D2 if n % 2 == 1 else _RP2, [(m, n)], [], Fraction(-m, n)), "F3"),
    "F4": _Row(
        _MN, lambda m, n: 8 * m * n,
        lambda m, n: (_S2, [(m + n, 2 * n), (m, 2), (m + 1, 2)], [], Fraction(-m, 2 * n)),
        "F4bis", ((lambda m, n: n < 2, "n = 1 duplicates F3(m, 2)"),)),
    "F4bis": _Row(
        _MN, lambda m, n: 8 * m * n,
        lambda m, n: (_D2, [(m + n, 2 * n)], [], Fraction(-m, 2 * n)), "F4", (_M1,)),
    "F5": _platonic_left(
        24, lambda m: (_S2, [(m, 2), (m, 3), (m, 3)], [], Fraction(-m, 6))),
    "F6": _platonic_left(
        24, lambda m: (_S2, [(m, 2), (m + 1, 3), (m + 2, 3)], [], Fraction(-m, 6))),
    "F7": _platonic_left(
        48, lambda m: (_S2, [(m, 2), (m, 3), (m, 4)], [], Fraction(-m, 12))),
    "F8": _platonic_left(
        48, lambda m: (_S2, [(m + 1, 2), (m, 3), (m + 2, 4)], [], Fraction(-m, 12))),
    "F9": _platonic_left(
        120, lambda m: (_S2, [(m, 2), (m, 3), (m, 5)], [], Fraction(-m, 30))),
    "F10": _Row(
        _MN, lambda m, n: 8 * m * n,
        lambda m, n: (_D2, [], [(m, n), (m, 2), (m, 2)], Fraction(-m, 2 * n)) if n % 2 == 0
        else (_D2, [(m, 2)], [(m, n)], Fraction(-m, 2 * n)), "F10"),
    "F11": _Row(_MNRS, lambda m, n, r, s: 4 * m * n * r, _EXTERNAL, require=(_GCD_SR,)),
    "F11'": _Row(
        _MNRS, lambda m, n, r, s: m * n * r, _EXTERNAL, require=(_GCD_SR, _ODD_MN_EVEN_R)),
    "F12": _Row(
        _MN, lambda m, n: 16 * m * n,
        lambda m, n: (_D2, [], [(m + n, 2 * n), (m, 2), (m + 1, 2)], Fraction(-m, 4 * n)),
        "F12", (
            (lambda m, n: m < 2 and n < 2, "m = n = 1 falls into the infinitely-fibered regime"),
            (lambda m, n: n < 2, "n = 1 duplicates F13(m, 2)"))),
    "F12bis": _Row(
        _MN, lambda m, n: 16 * m * n, "F12bis is reserved; its quotient data is not tabulated"),
    "F13": _Row(
        _MN, lambda m, n: 8 * m * n,
        lambda m, n: (_D2, [], [(m, n), (m + 1, 2), (m + 1, 2)], Fraction(-m, 2 * n)) if n % 2 == 0
        else (_D2, [(m + 1, 2)], [(m, n)], Fraction(-m, 2 * n)),
        "F13bis", (_M1, (lambda m, n: n < 2, "n = 1 duplicates F4bis(m, 1)"))),
    "F13bis": _Row(
        _MN, lambda m, n: 8 * m * n,
        lambda m, n: (_D2, [], [(m, n), (m, 2), (m, 2)], Fraction(-m, 2 * n)) if n % 2 == 1
        else (_D2, [(m, 2)], [(m, n)], Fraction(-m, 2 * n)),
        "F13", ((lambda m, n: n < 2, "n = 1 falls into the infinitely-fibered regime"),)),
    "F14": _platonic_left(
        48, lambda m: (_D2, [(m, 3)], [(m, 2)], Fraction(-m, 12))),
    "F15": _platonic_left(
        96, lambda m: (_D2, [], [(m, 2), (m, 3), (m, 4)], Fraction(-m, 24))),
    "F16": _platonic_left(
        48, lambda m: (_D2, [], [(m, 2), (m, 3), (m, 3)], Fraction(-m, 12))),
    "F17": _platonic_left(
        96, lambda m: (_D2, [], [(m + 1, 2), (m, 3), (m + 2, 4)], Fraction(-m, 24)), (_M1,)),
    "F18": _platonic_left(
        48, lambda m: (_D2, [], [(m, 2), (m + 1, 3), (m + 2, 3)], Fraction(-m, 12))),
    "F19": _platonic_left(
        240, lambda m: (_D2, [], [(m, 2), (m, 3), (m, 5)], Fraction(-m, 60))),
    "F20": _platonic_pair(288),
    "F21": _platonic_pair(24),
    "F21'": _platonic_pair(12),
    "F22": _platonic_pair(96),
    "F23": _platonic_pair(576),
    "F24": _platonic_pair(1440),
    "F25": _platonic_pair(1152),
    "F26": _platonic_pair(48),
    "F26'": _platonic_pair(24),
    "F26''": _platonic_pair(24),
    "F27": _platonic_pair(192),
    "F28": _platonic_pair(576),
    "F29": _platonic_pair(2880),
    "F30": _platonic_pair(7200),
    "F31": _platonic_pair(120),
    "F31'": _platonic_pair(60),
    "F32": _platonic_pair(120),
    "F32'": _platonic_pair(60),
    "F33": _Row(
        _MN, lambda m, n: 8 * m * n,
        lambda m, n: (_D2, [], [(m, n), (m + 1, 2), (m + 1, 2)], Fraction(-m, 2 * n)) if n % 2 == 1
        else (_D2, [(m + 1, 2)], [(m, n)], Fraction(-m, 2 * n)), "F33",
        require=(_N_NOT_1,)),
    "F33'": _Row(
        _MN, lambda m, n: 4 * m * n,
        lambda m, n: (_D2, [], [((m + n) // 2, n), (m, 2), (m + 1, 2)], Fraction(-m, 4 * n)),
        "F33'", require=(_N_NOT_1, _ODD_MN)),
    "F34": _Row(
        _MN, lambda m, n: 2 * m * n,
        lambda m, n: (_S2, [((m + n) // 2, n), (m, 2), (m + 1, 2)], [], Fraction(-m, 2 * n)),
        "F34bis", (_LENS,), require=(_ODD_MN,)),
    "F34bis": _Row(
        _MN, lambda m, n: 2 * m * n,
        lambda m, n: (_D2, [((m + n) // 2, n)], [], Fraction(-m, 2 * n)), "F34",
        require=(_ODD_MN,)),
}

Family = _IdentityEnum(
    "Family", [(k.replace("'", "P").replace("bis", "BIS"), k) for k in _TABLE], module=__name__)
_TABLE = {Family(k): row._replace(swap=Family(row.swap)) if isinstance(row.swap, str) else row
          for k, row in _TABLE.items()}


@dataclass(frozen=True)
class GroupFamily:
    """A group of one family, with its parameters by name.

    The parameter values in the order of the family's row are kept once,
    outside the two fields, so `==` and `repr` see only those; the hash,
    the str, `group_order` and the quotients read the kept tuple.
    """

    family: Family
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        try:  # a member, or its name
            object.__setattr__(self, "family", Family(self.family))
        except ValueError:
            raise ValueError("unknown family %r" % (self.family,)) from None
        row = _TABLE[self.family]
        names = row.params
        given = dict(self.params)
        if set(given) != set(names):
            raise ValueError(
                "%s takes parameters %s, got %s" % (self.family.value, names, sorted(given))
            )
        vals = {k: _integer(v, "parameters") for k, v in given.items()}
        if any(v < 1 for v in vals.values()):
            raise ValueError("parameters must be positive integers")
        object.__setattr__(self, "params", vals)
        object.__setattr__(self, "_values", tuple(vals[k] for k in names))
        _require(self.family, row, self._values)

    def __hash__(self):
        return hash((self.family, self._values))

    def __str__(self):
        names = _TABLE[self.family].params
        if not names:
            return self.family.value
        inner = ",".join("%s=%d" % pair for pair in zip(names, self._values))
        return "%s(%s)" % (self.family.value, inner)


def _require(family: Family, row: _Row, values: tuple[int, ...]) -> None:
    """Raise the constructor's ValueError when values, in row order, break
    the family's constraints."""
    why = _rejection(row.require, values)
    if why is not None:
        raise ValueError(why.format(family.value))


def _checked_group(family: Family, row: _Row, values: tuple[int, ...]) -> GroupFamily:
    """GroupFamily(family, params) for positive integer values, in row
    order, that have already passed `_require`: built without checking
    them again."""
    g = object.__new__(GroupFamily)
    object.__setattr__(g, "family", family)
    object.__setattr__(g, "params", dict(zip(row.params, values)))
    object.__setattr__(g, "_values", values)
    return g


def parse_group(text: str) -> GroupFamily:
    """Parse a group spec like ``F2(m=3,n=2)`` or ``F20``.

    The one parameter list follows a family name and ends the spec; any
    other '(' or ')' is an unbalanced parenthesis."""
    text = text.strip().replace("′", "'")
    name, paren, inner = text.partition("(")
    if ")" in name or paren and (not name.strip() or not inner.endswith(")")
                                 or "(" in inner or ")" in inner[:-1]):
        raise ValueError("unbalanced parentheses in group spec %r" % text)
    params = {}
    inner = inner[:-1].strip()
    if inner:
        for piece in inner.split(","):
            key, eq, val = piece.partition("=")
            if not eq:
                raise ValueError("group parameters must be given as name=value")
            key, val = key.strip(), val.strip()
            if key in params:
                raise ValueError("group parameter %s is given twice" % key)
            value = _natural(val, "group parameter %s" % key)
            if value is None:
                raise ValueError(
                    "group parameter %s must be written in ASCII digits, got %r"
                    % (key, val)
                )
            params[key] = value
    return GroupFamily(name.strip(), params)


def _rejection(pairs, values):
    """The reason of the first (predicate, reason) pair that `values`
    satisfy, or None."""
    return next((why for bad, why in pairs if bad(*values)), None)


def group_order(g: GroupFamily) -> int:
    """Order of the SO(4) subgroup (the "order of G" table column)."""
    return _TABLE[g.family].order(*g._values)


def _quotient_row(g: GroupFamily) -> _Row:
    """The row of g's family, whose quotient data must be tabulated here."""
    row = _TABLE[g.family]
    if isinstance(row.hopf, str):
        raise UnsupportedFamilyError(row.hopf.format(g.family.value))
    return row


def _quotient_values(g: GroupFamily) -> tuple[_Row, tuple[int, ...]]:
    """The row and parameter values of g, which the row's rejections must
    pass (ValueError naming the reason otherwise)."""
    row = _quotient_row(g)
    why = _rejection(row.reject, g._values)
    if why is not None:
        raise ValueError("quotient data is not defined for %s: %s" % (g, why))
    return row, g._values


def quotient_hopf(g: GroupFamily):
    """Invariants of the fibration induced on S^3/G by the Hopf fibration.

    Returns a normalized FiberedOrbifold (Euler class < 0),
    NO_INVARIANT_FIBRATION for the platonic-by-platonic families 20-32',
    and raises UnsupportedFamilyError for families 1, 1', 11, 11' (their
    quotient tables live outside this module) and for F12bis.
    """
    row, values = _quotient_values(g)
    if row.hopf is NO_INVARIANT_FIBRATION:
        return NO_INVARIANT_FIBRATION
    return _normal_form(*row.hopf(*values))


def swapped_group(g: GroupFamily):
    """The group whose Hopf quotient, orientation reversed, is the anti-Hopf
    quotient of g: the row's swap family with m and n exchanged.

    Returns NO_INVARIANT_FIBRATION when the swapped left factor is
    platonic, and raises ValueError when the swapped parameters break that
    family's constraints or its quotient rejections.
    """
    row = _quotient_row(g)
    if row.swap is NO_INVARIANT_FIBRATION:
        return NO_INVARIANT_FIBRATION
    # Every family with a swap row takes (m, n), and g's values are checked.
    swap_row = _TABLE[row.swap]
    values = (g.params["n"], g.params["m"])
    _require(row.swap, swap_row, values)
    swapped = _checked_group(row.swap, swap_row, values)
    _quotient_values(swapped)
    return swapped


def quotient_antihopf(g: GroupFamily):
    """Invariants induced by the anti-Hopf fibration.

    The orientation reversal of the Hopf quotient of `swapped_group(g)`,
    built in one `_normal_form` pass from the swapped row's Hopf data with
    every invariant and the Euler class negated.  Only the swapped group's
    rejections apply: NO_INVARIANT_FIBRATION is returned, and errors are
    raised, exactly where `swapped_group` does; Euler class > 0 when
    defined.
    """
    swapped = swapped_group(g)
    if swapped is NO_INVARIANT_FIBRATION:
        return NO_INVARIANT_FIBRATION
    surface, cones, corners, e = _TABLE[swapped.family].hopf(*swapped._values)
    return _normal_form(
        surface, [(-a, b) for a, b in cones], [(-a, b) for a, b in corners], -e
    )


def quotient_families() -> tuple[Family, ...]:
    """Families with tabulated quotient data, in table order."""
    return tuple(fam for fam in Family if callable(_TABLE[fam].hopf))


def enumerate_parameters(family: Family, max_order: int):
    """All parameter assignments for `family` with group order <= max_order.

    Families with no parameter, with m, or with (m, n) are enumerated, in
    lexicographic parameter order.  Only assignments accepted by the table
    constraints and by the row's quotient rejections are yielded.
    """
    row = _TABLE[family]
    k = len(row.params)
    if k > 2:
        raise ValueError("parameter enumeration is only provided for up to two parameters")
    m = 1
    while row.order(*(m, 1)[:k]) <= max_order:
        n = 1
        while row.order(*(m, n)[:k]) <= max_order:
            values = (m, n)[:k]
            if _rejection(row.require + row.reject, values) is None:
                yield _checked_group(family, row, values)
            if k < 2:
                break
            n += 1
        if k == 0:
            break
        m += 1


def enumerate_quotient_groups(max_order: int):
    """Every (family, parameters) with tabulated quotient data and order
    bounded by max_order, in deterministic order."""
    for family in quotient_families():
        yield from enumerate_parameters(family, max_order)
