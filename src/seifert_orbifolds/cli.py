"""
Command line front end.

Fibrations are written in the compact notation used throughout:

    S2(2,2,3); 1/2,1/2,1/3; ; -4/3
    D2(;2,2,4); ; 3/4,1/2,0/2; -1/8; 1
    D2; ; ; -1; 0

i.e. base; cone invariants; corner invariants; Euler class; boundary bit,
with labels inside the base parentheses (cone labels before ";", corner
labels after) and each local invariant written a/b over its label b.  The
corner slot may be omitted for bases without corner reflectors, and the
boundary bit may be omitted whenever the sum relation determines it.
Blanks may stand at either end and around each ';' and ','.  Inside an
invariant or the Euler class only spaces may stand, after the sign and
around the '/' (- 4 / 3); a blank between two digits of a number is a
positioned parse error.  Groups are written family(parameters), e.g.
F2(m=3,n=2) or F20.

An expression has one value path.  One pattern, compiled on first use,
takes every well-formed text, written as `str` prints it or bare, with
or without leading 0s; one `findall` per field reads its numbers, and
the value is built from them at once.  A text the pattern declines, or
that puts corners on S2 or RP2, goes to the field walker, which builds
nothing: it finds the first bad piece and raises its positioned
ParseError.

Two per-process memos, each keyed by its operand as written and the digit
limit of `int()`, answer a repeated operand with one lookup.  The
expression commands but `lens` read a text through `_reading`, which
keeps its value and verdict and, once `--json validate`, `normalize`,
`classify` or `fibrations` has printed it, the text of its report.
`quotient` reads a (spec, side) through `_quotient`, which keeps the group
and the printed quotient.  An operand that raises is not kept.  `lens`
reads past both: its inputs seldom repeat, and a memo cost it 4-5% of its
throughput.

Only `core` is imported here.  Each command imports `classify` (which
loads `lens`) or `groups` when it runs, `argparse` is imported only for an
argv the command table does not read, and `json` only where JSON is
printed.
"""

from __future__ import annotations

import functools
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import NoReturn

from .core import (
    _MEMO_MAXSIZE,
    FiberedOrbifold,
    LocalInvariant,
    Surface,
    TwoOrbifold,
    UnsupportedFamilyError,
    _natural,
    _trusted,
    _trusted_base,
    _verdict,
    euler_characteristic,
    format_rational,
    solve_xi,
)


class ParseError(ValueError):
    pass


# Numbers are ASCII digits only: str.isdigit, int() and Fraction() also
# read other scripts' digits, underscores and exponents.
_LABEL = re.compile(r"\s*([0-9]+)\s*")
# an invariant a/b or the Euler class a(/b): any blank at the ends, spaces
# only after the sign and around the '/', none between two digits
_RATIONAL = re.compile(r"\s*([+-]?) *([0-9]+)(?: */ *([0-9]+))?\s*")
_STRUCTURE = re.compile(r"[();]")
_SURFACES = {s.value: s for s in Surface}


def _split_top(text: str, offset: int) -> list[tuple[str, int]]:
    """Split on ';' outside parentheses; returns (segment, position) pairs,
    `text` being found at `offset` of the text as given.  Only the
    structural characters '(', ')' and ';' are visited."""
    parts = []
    depth = 0
    start = 0
    for m in _STRUCTURE.finditer(text):
        ch, i = m.group(), m.start()
        if ch == "(":
            if not depth:
                opened = i
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("position %d: unbalanced ')'" % (offset + i))
        elif not depth:  # a top-level ";"
            parts.append((text[start:i], offset + start))
            start = i + 1
    if depth:
        raise ParseError("position %d: unbalanced '('" % (offset + opened))
    parts.append((text[start:], offset + start))
    return parts


def _at(text: str, offset: int) -> int:
    """Position of the first non-blank character of `text`, found at
    `offset`: where an error in it is reported."""
    return offset + len(text) - len(text.lstrip())


def _number(m: re.Match, group: int, at: int) -> int:
    """The value of the digits of group `group` of m, a match of a piece
    found at `at`, by `core._natural`, as `_read_fibration` reads them; a
    ParseError at the number when it has more digits than int() converts,
    leading 0s not counted."""
    try:
        return _natural(m[group], "number")
    except ValueError as exc:
        raise ParseError("position %d: %s" % (at + m.start(group), exc)) from None


def _parse_labels(text: str, offset: int, zero: int | None) -> tuple[list[int], int | None]:
    """The labels in their written order, without the 0s and the order-1
    points, and the position of the first label 0: `zero` when an earlier
    text held one, else the first 0 here, or None."""
    out = []
    start = offset  # of the piece
    for piece in text.split(",") if text.strip() else ():
        m = _LABEL.fullmatch(piece)
        if m is None:
            raise ParseError("position %d: expected a label, got %r"
                             % (_at(piece, start), piece.strip()))
        n = _number(m, 1, start)
        if n > 1:
            out.append(n)
        elif not n and zero is None:
            zero = _at(piece, start)
        start += len(piece) + 1
    return out, zero


def parse_base(text: str, offset: int = 0) -> TwoOrbifold:
    """The base 2-orbifold, its labels checked here and stored sorted."""
    stripped = text.strip()
    offset = _at(text, offset)
    name, paren, inner = stripped.partition("(")
    surface = _SURFACES.get(name)
    if surface is None:
        raise ParseError("position %d: unknown base %r" % (offset, stripped))
    if paren and not inner.endswith(")"):
        raise ParseError("position %d: unbalanced base parentheses" % offset)
    # a bare surface has inner == "", so no labels
    cones_txt, _, corners_txt = inner[:-1].partition(";")
    cones_at = offset + len(name) + 1
    corners_at = cones_at + len(cones_txt) + 1
    cones, zero = _parse_labels(cones_txt, cones_at, None)
    corners, zero = _parse_labels(corners_txt, corners_at, zero)
    if zero is not None:
        raise ParseError(
            "position %d: singularity labels must be positive integers, got 0" % zero
        )
    if corners and surface is not Surface.DISK:
        raise ParseError("position %d: corner reflectors only occur on a disk base"
                         % _at(corners_txt, corners_at))
    cones.sort()
    corners.sort()
    return _trusted_base(surface, tuple(cones), tuple(corners))


def _check_invariants(text: str, offset: int) -> None:
    """Raise the ParseError of the first bad invariant of a list: not
    written a/b, of order 0, or with a number int() does not convert.  The
    numerator of an order-1 invariant, which the value drops, is not
    converted."""
    start = offset  # of the piece
    for piece in text.split(",") if text.strip() else ():
        m = _RATIONAL.fullmatch(piece)
        b = _number(m, 3, start) if m and m[3] else 0
        if not b:
            problem = ("invariant order must be >= 1, got" if m and m[3]
                       else "bad invariant" if "/" in piece
                       else "local invariant must be written a/b, got")
            raise ParseError("position %d: %s %r" % (_at(piece, start), problem, piece.strip()))
        if b != 1:
            _number(m, 2, start)
        start += len(piece) + 1


def _check_rational(text: str, offset: int) -> None:
    """Raise the ParseError of a bad Euler class."""
    m = _RATIONAL.fullmatch(text)
    if m is None or m[3] and not _number(m, 3, offset):
        raise ParseError("position %d: bad rational %r" % (_at(text, offset), text))
    _number(m, 2, offset)


def parse_fibration(text: str) -> FiberedOrbifold:
    """Parse the compact tuple notation into a FiberedOrbifold.

    Structural validity only: the sum relation and the matching of
    invariant orders to labels are checked by `validate`, not here, except
    that the counts of labels and invariants must agree and a missing
    boundary bit is filled in from the relation when that is possible.
    Every number is converted once, as the parser reads it, and the value
    is built from the converted fields without converting them again.  An
    error's position is that of the first character of the bad piece in
    `text` as given.

    `_read_fibration` reads the value with one pattern match and one
    `findall` per field.  A text it declines, and a text holding a number
    with more digits than `int()` converts (`sys.get_int_max_str_digits()`),
    goes to the field walker `_explain_rejection`, which raises the
    positioned ParseError.
    """
    try:
        f = _read_fibration(text)
    except ParseError:
        raise
    except ValueError:  # a number int() does not convert: the walker says where
        f = None
    return f or _explain_rejection(text)


@functools.cache
def _fibration_patterns():
    """(the notation, a label above 1, the parts of one invariant a/b of
    order above 1), compiled on first use: a command that reads no
    fibration does not pay for them.

    The notation's groups: outer '(', surface, disk surface, cone labels,
    corner labels, cone invariants, corner invariants, then the Euler
    class's sign, numerator and denominator and the boundary bit.  Blanks
    stand where `_LABEL` and `_RATIONAL` let them.  Any number may be
    written with leading 0s, and a label or an order is not 0.  A group a
    number is read from holds its digits without their leading 0s, as
    `_number` converts them, so that the reader and the walker refuse the
    same numbers as too long.  On a disk the corner slot is required and
    the bit optional; on S2 and RP2 the corner slot may be left out or
    left blank, and there is no bit.

    Each run of blanks is taken by one term only, and spaces follow a sign
    only when there is one, so a text the pattern declines is declined in
    time linear in its length: with two terms sharing a run, each invariant
    of a long list would double the ways to try."""
    natural = r"0*[1-9][0-9]*"
    number = r"0*([1-9][0-9]*|0)"
    above_1 = r"0*([1-9][0-9]+|[2-9])"
    labels = r"(\s*(?:{0}\s*(?:,\s*{0}\s*)*)?)".format(natural)
    invariant = r"(?:[+-] *)?[0-9]+ */ *" + natural
    invariants = r"(\s*(?:{0}\s*(?:,\s*{0}\s*)*)?)".format(invariant)
    notation = (
        r"\s*(?:(\()\s*)?((D2)|S2|RP2)(?:\({L}(?:;{L})?\))?\s*;{I};"
        r"(?(3){I};|(?:\s*;)?)"
        r"\s*(?:([+-]) *)?{W}(?: */ *0*([1-9][0-9]*))?\s*"
        r"(?(3)(?:;\s*([01])\s*)?)(?(1)\)\s*)"
    ).format(L=labels, I=invariants, W=number)
    return (re.compile(notation), re.compile(r"(?<![0-9])" + above_1),
            re.compile(r"(?<![0-9])([+-]?) *%s */ *%s" % (number, above_1)))


# The `findall` patterns take a label or an order above 1 without its
# leading 0s: an order-1 point or invariant, which the value drops, is
# skipped by the match itself.  No match starts after a digit, so that
# skipping an item costs time linear in its length, not one scan of the
# rest of a number from each of its digits.
def _labels(pattern: re.Pattern, span: str) -> tuple[int, ...]:
    return tuple(sorted([int(n) for n in pattern.findall(span)])) if span else ()


def _invariants(pattern: re.Pattern, span: str) -> tuple[LocalInvariant, ...]:
    return tuple([LocalInvariant(int(s + a), int(b))
                  for s, a, b in pattern.findall(span)]) if span else ()


def _read_fibration(text: str) -> FiberedOrbifold | None:
    """The value of a text the notation pattern takes, with no corner
    labels on S2 or RP2; None for any other text.  Raises the two
    ParseErrors that carry no position (no boundary bit satisfies the sum
    relation, or the counts of labels and invariants differ), and int()'s
    ValueError for a number with more digits than it converts."""
    notation, label, invariant = _fibration_patterns()
    m = notation.fullmatch(text)
    if m is None:
        return None
    (_, name, disk, cone_labels, corner_labels, cones, corners,
     sign, num, den, bit) = m.groups("")
    corner_labels = _labels(label, corner_labels)
    if corner_labels and not disk:
        return None  # the walker's error gives the position
    base = _trusted_base(_SURFACES[name], _labels(label, cone_labels), corner_labels)
    cones, corners = _invariants(invariant, cones), _invariants(invariant, corners)
    e = Fraction(int(sign + num), int(den or 1))
    xi = (int(bit),) if bit else ()
    if disk and not bit:
        try:
            xi = (solve_xi(cones, corners, e),)
        except ValueError as exc:
            raise ParseError("xi omitted but no boundary bit satisfies the sum relation; "
                             "give xi explicitly") from exc
    n_labels, n_invs = len(base.cone_labels) + len(corner_labels), len(cones) + len(corners)
    if n_labels != n_invs:
        raise ParseError("label/invariant count mismatch: base has %d singular labels, "
                         "%d invariants given" % (n_labels, n_invs))
    return _trusted(base, cones, corners, e, xi)


def _explain_rejection(text: str) -> NoReturn:
    """Raise the positioned ParseError that explains why `_read_fibration`
    does not read `text`: split on the top-level ';', then check the base
    and each field in turn, up to the first bad piece.  Builds no value."""
    stripped = text.strip()
    offset = _at(text, 0)
    parts = None
    if stripped.startswith("(") and stripped.endswith(")"):
        try:
            parts = _split_top(stripped[1:-1], offset + 1)
        except ParseError:
            pass
    if parts is None:
        parts = _split_top(stripped, offset)
    if len(parts) < 2:
        raise ParseError("expected base and invariants separated by ';'")
    surface = parse_base(*parts[0]).surface

    # A disk takes base; cones; corners; e(; xi), S2 and RP2 take
    # base; cones(; corners); e.
    disk = surface is Surface.DISK
    if len(parts) - disk not in (3, 4):
        shape = (("disk", "cones; corners; e(; xi)") if disk
                 else (surface.value, "cones(; corners); e"))
        raise ParseError("a %s-base fibration takes base; %s, got %d fields"
                         % (*shape, len(parts)))
    _check_invariants(*parts[1])
    if len(parts) > 3:
        _check_invariants(*parts[2])
        if not disk and parts[2][0].strip():
            raise ParseError("position %d: %s bases carry no corner reflectors"
                             % (_at(*parts[2]), surface.value))
    _check_rational(*parts[3 if disk else -1])
    if len(parts) == 5:  # a disk's boundary bit
        bit = parts[4][0].strip()
        if bit not in ("0", "1"):
            raise ParseError("position %d: xi must be 0 or 1, got %r" % (_at(*parts[4]), bit))
    raise AssertionError("the notation pattern declines %r, which has no bad piece" % text)


# -- commands ---------------------------------------------------------------
#
# Each command returns (exit code, output): under --json a JSON payload,
# or the JSON text a memo keeps, else its text, or None when it prints
# nothing.  `run_command` prints it, a str as it is.
# A command imports `classify` or `groups` when it runs, as a module: each
# call pays for that import statement, and `import seifert_orbifolds.X as X`
# is cheaper than a relative `from .X import ...`, which resolves the
# package name on every call.  The atlas sweep, run once per command,
# imports the names its loop calls.


def _key_json(k):
    return {
        "class": k.orbifold_class.value,
        "lens": {"p": k.lens.p, "q": k.lens.q},
        "iota": list(k.iota),
        "mode": k.mode.value,
    }


def _reading(text: str) -> list:
    """[value f, normal form g, ValidationResult, spherical, report] of the
    expression `text`: `parse_fibration(text)`, the verdict
    `core._verdict(f)`, and the JSON text of its report, None until
    `_json_report` builds it.  Memoized per process by the text as written
    and `sys.get_int_max_str_digits()`, since a text can read under one
    limit and be too long under another.  A ParseError is raised afresh
    each time, not kept.  Every caller gets the memo's own list, which only
    `_json_report` writes, in its last slot.  The `validate`, `normalize`,
    `classify`, `fibrations` and `diffeo` commands read it; `lens` does
    not.  Its `cache_info` and `cache_clear` are the memo's."""
    return _read_under(text, sys.get_int_max_str_digits())


@functools.lru_cache(maxsize=_MEMO_MAXSIZE)
def _read_under(text: str, limit: int) -> list:
    """`_reading(text)` under the digit limit `limit`, which keys the memo."""
    f = parse_fibration(text)
    return [f, *_verdict(f), None]


_reading.cache_info, _reading.cache_clear = _read_under.cache_info, _read_under.cache_clear


def _json_report(reading: list) -> str:
    """The report of an entry of `_reading` as `--json` prints it, built on
    first use and kept in the entry's last slot, so that `validate`,
    `normalize`, `classify` and `fibrations` build it once per text."""
    if reading[4] is None:
        import json

        reading[4] = json.dumps(_report(*reading[:4]), sort_keys=True)
    return reading[4]


def _report(f, g, res, spherical) -> dict:
    """The expression report of f from its reading (f, g, res, spherical):
    the value, its normal form, ValidationResult and verdict, as
    `_reading` and `core._verdict` give them.  The invariant of g, its
    fibration set or DiffeoKey, is computed only when g is valid and
    spherical; the `lens` object is the one in the key's JSON."""
    report = {
        "input": str(f),
        "normalized": str(g),
        "valid": bool(res.ok),
        "chi": format_rational(euler_characteristic(g.base)),
        "spherical": spherical,
        "count": None,
        "fibrations": [],
    }
    if not res.ok:
        report["problems"] = list(res.problems)
    elif spherical:
        import seifert_orbifolds.classify as classify

        invariant = classify._invariant(g)
        if isinstance(invariant, classify.DiffeoKey):
            report["count"] = "infinite"
            report["diffeo_key"] = key = _key_json(invariant)
            report["lens"] = key["lens"]
        else:
            report["count"] = len(invariant)
            report["fibrations"] = sorted(str(x) for x in invariant)
    return report


def expression_report(f: FiberedOrbifold) -> dict:
    """The documented JSON object for a single fibration expression."""
    return _report(f, *_verdict(f))


def _cmd_validate(args):
    f, g, res, _, _ = reading = _reading(args.expr)
    if args.json:
        return (0 if res.ok else 1), _json_report(reading)
    if res.ok:
        return 0, "ok: %s" % g
    return 1, "\n".join(["invalid: %s" % f] + ["  " + p for p in res.problems])


def _cmd_normalize(args):
    reading = _reading(args.expr)
    return 0, _json_report(reading) if args.json else str(reading[1])


def _cmd_classify(args):
    _, g, res, spherical, _ = reading = _reading(args.expr)
    if args.json:
        return (0 if res.ok else 1), _json_report(reading)
    if not res.ok:
        return 1, "invalid: %s" % "; ".join(res.problems)
    if not spherical:
        return 0, "not spherical; fibration count undetermined here"
    import seifert_orbifolds.classify as classify

    invariant = classify._invariant(g)
    return 0, "spherical; fibrations: %s" % (
        "infinite" if isinstance(invariant, classify.DiffeoKey) else len(invariant))


def _cmd_chi(args):
    base = parse_base(args.base)
    chi = format_rational(euler_characteristic(base))
    return 0, {"base": str(base), "chi": chi} if args.json else "chi(%s) = %s" % (base, chi)


def _cmd_fibrations(args):
    import seifert_orbifolds.classify as classify

    reading = _reading(args.expr)
    g = classify._guard(*reading[1:4])
    if args.json:  # the guard passed, so this is the report of a valid spherical input
        return 0, _json_report(reading)
    invariant = classify._invariant(g)
    if isinstance(invariant, classify.DiffeoKey):
        k = invariant
        return 0, ("infinitely many fibrations; key: class=%s lens=%s iota=(%d,%d) mode=%s"
                   % (k.orbifold_class.value, k.lens, *k.iota, k.mode.value))
    return 0, "\n".join(sorted(str(x) for x in invariant))


def _cmd_diffeo(args):
    import seifert_orbifolds.classify as classify

    f = classify._guard(*_reading(args.expr1)[1:4])
    g = classify._guard(*_reading(args.expr2)[1:4])
    same = classify._are_diffeomorphic(f, g)
    return (0 if same else 3), (
        {"left": str(f), "right": str(g), "diffeomorphic": bool(same)} if args.json
        else "diffeomorphic" if same else "not diffeomorphic")


def _quotient(spec: str, anti_hopf: bool) -> tuple:
    """(group, printed quotient) of the group spec `spec` on the anti-Hopf
    side or the Hopf side, the quotient None when the group preserves no
    fibration on that side.  Memoized per process like `_reading`, by the
    spec as written, the side and the digit limit; a ValueError is raised
    afresh each time.  Computes no group order, which only `--json`
    prints.  Its `cache_info` and `cache_clear` are the memo's."""
    return _quotient_under(spec, anti_hopf, sys.get_int_max_str_digits())


@functools.lru_cache(maxsize=_MEMO_MAXSIZE)
def _quotient_under(spec: str, anti_hopf: bool, limit: int) -> tuple:
    """`_quotient(spec, anti_hopf)` under the digit limit `limit`, which
    keys the memo."""
    import seifert_orbifolds.groups as groups

    g = groups.parse_group(spec)
    out = (groups.quotient_antihopf if anti_hopf else groups.quotient_hopf)(g)
    return g, None if out is groups.NO_INVARIANT_FIBRATION else str(out)


_quotient.cache_info, _quotient.cache_clear = (_quotient_under.cache_info,
                                               _quotient_under.cache_clear)


def _cmd_quotient(args):
    g, out = _quotient(args.group, args.anti_hopf)
    side = "anti-Hopf" if args.anti_hopf else "Hopf"
    if out is None:
        return 0, ({"group": str(g), "side": side, "fibration": None} if args.json
                   else "%s preserves no fibration on the %s side" % (g, side))
    if not args.json:
        return 0, out
    import seifert_orbifolds.groups as groups

    return 0, {"group": str(g), "side": side, "order": groups.group_order(g), "fibration": out}


def _cmd_lens(args):
    import seifert_orbifolds.classify as classify

    f = classify._require_normal_spherical(parse_fibration(args.expr))
    g = classify._representative(f)
    if g is None:
        raise ValueError("lens data applies to orbifolds with infinitely many fibrations")
    k = classify._key(g)
    return 0, ({"input": str(f), "lens": {"p": k.lens.p, "q": k.lens.q},
                "iota": list(k.iota), "mode": k.mode.value} if args.json else str(k.lens))


def _atlas_classes(max_order: int):
    """The atlas sweep: (classes, rows), each group's two rows filed under
    the oriented diffeomorphism class of its Hopf quotient.

    `classes` maps each diffeo_signature to its class, a list
    [id, sorted fibration strings or None, first member's key JSON or None,
    rows], numbered in order of first appearance.  `rows` holds one tuple
    (class, group, order, side, quotient, value or None) per quotient
    fibration, in sweep order: `quotient` is the printed fibration, and
    `value` the fibration itself in a row of an infinite class, whose text
    line shows the row's own lens key, else None.

    Both sides come straight from `groups`: `quotient_hopf(g)` and
    `quotient_antihopf(g)`, where a ValueError or NO_INVARIANT_FIBRATION
    from the anti-Hopf call leaves that row out.  Both are fibrations of
    the one orbifold S^3/G, so a group's class is found or made once, from
    its Hopf quotient: `member_of` maps every member of an enumerated
    fibration set to its class, and a Hopf quotient it does not hold is
    classified.  Each finite class is thus enumerated and sorted once.  A
    Hopf quotient is a check_valid normal form, spherical for every row of
    the table (classify's module docstring), so a Hopf row checks nothing.
    An anti-Hopf value is a checked normal form too, and is never
    classified, yet it still passes the full guard
    `_require_normal_spherical`, the atlas's only `core.normalize` call:
    the benchmark's self-check fails an atlas that makes none.  A group's
    name and order are read once for both of its rows.
    """
    from .classify import DiffeoKey, _invariant, _require_normal_spherical, _signature
    from .groups import (NO_INVARIANT_FIBRATION, enumerate_quotient_groups, group_order,
                         quotient_antihopf, quotient_hopf)

    classes = {}
    member_of = {}
    rows = []
    for g in enumerate_quotient_groups(max_order):
        h = quotient_hopf(g)
        cls = member_of.get(h)
        if cls is None:
            invariant = _invariant(h)
            if isinstance(invariant, DiffeoKey):
                cls = classes.setdefault(_signature(invariant),
                                         [len(classes), None, _key_json(invariant), []])
            else:
                cls = classes[invariant] = [len(classes),
                                            sorted(str(x) for x in invariant), None, []]
                member_of.update(dict.fromkeys(invariant, cls))
        sides = [("hopf", h)]
        try:
            a = quotient_antihopf(g)
        except ValueError:
            a = NO_INVARIANT_FIBRATION
        if a is not NO_INVARIANT_FIBRATION:
            sides.append(("anti-hopf", _require_normal_spherical(a)))
        name, order, infinite = str(g), group_order(g), cls[1] is None
        for side, f in sides:
            row = (cls, name, order, side, str(f), f if infinite else None)
            cls[3].append(row)
            rows.append(row)
    return classes, rows


def _cmd_atlas(args):
    max_order = _natural(args.max_order.strip(), "--max-order") or 0
    if max_order < 1:
        raise ValueError("--max-order must be a positive integer, got %r" % args.max_order)
    if args.out is None:
        return 0, _atlas_text(max_order, args.json) or None  # no rows print nothing
    # Opened before the sweep, so an unwritable path fails at once.
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            text = _atlas_text(max_order, args.json)
            if text:
                fh.write(text + "\n")
    except OSError as exc:
        raise ValueError("cannot write %s: %s" % (args.out, exc.strerror or exc)) from exc
    return 0, None


def _atlas_text(max_order: int, as_json: bool) -> str:
    """The atlas lines, joined: one per class under `as_json`, else one per
    row, a row of an infinite class showing its own key, read from its
    representative, not from the memo the sweep filled, as the line is
    written.  One encoder writes every JSON line, with the bytes of
    `json.dumps(..., sort_keys=True)`."""
    import json

    from .classify import _key, _representative

    classes, rows = _atlas_classes(max_order)
    encode = json.JSONEncoder(sort_keys=True).encode
    if as_json:
        lines = [
            encode({
                "class": cid,
                "count": len(fibs) if fibs is not None else "infinite",
                "fibrations": fibs,
                "diffeo_key": key,
                "members": [{"group": group, "order": order, "side": side,
                             "quotient": quotient}
                            for _, group, order, side, quotient, _ in members],
            })
            for cid, fibs, key, members in classes.values()
        ]
    else:
        lines = [
            "class %d: %s order=%d %s quotient=%s %s"
            % (cls[0], group, order, side, quotient,
               "key=%s" % encode(_key_json(_key(_representative(f)))) if f is not None
               else "fibrations=[%s]" % " | ".join(cls[1]))
            for cls, group, order, side, quotient, f in rows
        ]
    return "\n".join(lines)


# Each command argparse reads as positionals and store-true flags only:
# name -> (handler, positional names, flags, help).  `build_parser` declares
# these subparsers from the table and `_read_argv` reads their well-formed
# argvs from it; `atlas`, whose options take values, is declared in
# `build_parser` alone.
_COMMANDS = {
    "validate": (_cmd_validate, ("expr",), (), "check the invariant relation"),
    "normalize": (_cmd_normalize, ("expr",), (), "canonical form of a fibration"),
    "chi": (_cmd_chi, ("base",), (), "orbifold Euler characteristic of a base"),
    "classify": (_cmd_classify, ("expr",), (), "geometry and fibration count"),
    "fibrations": (_cmd_fibrations, ("expr",), (),
                   "enumerate fibrations or emit the lens key"),
    "diffeo": (_cmd_diffeo, ("expr1", "expr2"), (),
               "decide orientation-preserving diffeomorphism"),
    "quotient": (_cmd_quotient, ("group",), ("--anti-hopf",),
                 "quotient fibration of a finite SO(4) group"),
    "lens": (_cmd_lens, ("expr",), (),
             "underlying lens space of an infinite-class orbifold"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `seifert` argument parser, built once per process on first use."""
    import argparse

    top = argparse.ArgumentParser(
        prog="seifert",
        description="Exact classification of Seifert fibered spherical 3-orbifolds",
    )
    top.add_argument("--json", action="store_true", help="emit JSON output")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (fn, positionals, flags, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for dest in positionals:
            p.add_argument(dest)
        for flag in flags:
            p.add_argument(flag, action="store_true")
        p.set_defaults(fn=fn)
    p = sub.add_parser("atlas", help="catalog of quotient orbifolds up to a group order")
    p.add_argument("--max-order", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_atlas)
    return top


def _read_argv(argv):
    """A SimpleNamespace with the attributes of the Namespace
    `build_parser().parse_args(argv)` returns, for an argv
    `[--json] <command> <positionals...>` of a table command, where each of
    the command's flags may appear once anywhere after its name; None for
    every other argv, which argparse reads instead, so that help, usage and
    error messages stay argparse's."""
    start = 1 if argv and argv[0] == "--json" else 0
    entry = _COMMANDS.get(argv[start]) if argv and len(argv) > start else None
    if entry is None:
        return None
    fn, names, flags, _ = entry
    positionals, given = [], []
    for token in argv[start + 1:]:
        if not token.startswith("-"):
            positionals.append(token)
        elif token in flags and token not in given:
            given.append(token)
        else:
            return None
    if len(positionals) != len(names):
        return None
    args = SimpleNamespace(json=bool(start), command=argv[start], fn=fn,
                           **dict(zip(names, positionals)))
    for flag in flags:
        setattr(args, flag[2:].replace("-", "_"), flag in given)
    return args


def run_command(argv) -> int:
    args = _read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        code, out = args.fn(args)
        if out is not None:
            if not isinstance(out, str):
                import json

                out = json.dumps(out, sort_keys=True)
            print(out)
        return code
    except (UnsupportedFamilyError, ValueError) as exc:
        message = str(exc)
        if "integer string conversion;" in message:  # str(), not int(), refused a number
            message = "answer too long to print: a number in it has more than %d digits" % (
                sys.get_int_max_str_digits())
        print("error: %s" % message, file=sys.stderr)
        return 2 if isinstance(exc, UnsupportedFamilyError) else 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
