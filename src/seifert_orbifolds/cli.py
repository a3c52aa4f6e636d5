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

An expression is read in one of two ways, to the same value.  One
pattern, compiled on first use, takes the notation as it is normally
written, as `str` prints it or bare; one `findall` per field reads its
numbers.  Any text that pattern does not take, or that puts corners on
S2 or RP2, goes to the field walker, which reads it or raises the
positioned ParseError that explains the rejection.  Both build the value
in `_build`, which raises the errors that have no position.

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

from .core import (
    _VALID,
    FiberedOrbifold,
    LocalInvariant,
    Surface,
    TwoOrbifold,
    UnsupportedFamilyError,
    _too_long,
    _trusted,
    _trusted_base,
    _valid_spherical,
    euler_characteristic,
    format_rational,
    is_spherical,
    normalize,
    solve_xi,
    validate,
)


class ParseError(ValueError):
    pass


# Numbers are ASCII digits only: str.isdigit, int() and Fraction() also
# read other scripts' digits, underscores and exponents.
_NATURAL = re.compile(r"[0-9]+")
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
    """int() of the digits of group `group` of m, a match of a piece found
    at `at`; a ParseError at the number when it has more digits than int()
    converts."""
    digits = m[group]
    try:
        return int(digits)
    except ValueError:
        raise ParseError("position %d: %s"
                         % (at + m.start(group), _too_long("number", digits))) from None


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


def _parse_invariants(text: str, offset: int) -> tuple[LocalInvariant, ...]:
    """The invariants in their written order, without those of order 1."""
    out = []
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
            a = _number(m, 2, start)
            out.append(LocalInvariant(-a if m[1] == "-" else a, b))
        start += len(piece) + 1
    return tuple(out)


def _parse_rational(text: str, offset: int) -> Fraction:
    m = _RATIONAL.fullmatch(text)
    den = (_number(m, 3, offset) if m[3] else 1) if m else 0
    if not den:
        raise ParseError("position %d: bad rational %r" % (_at(text, offset), text))
    num = _number(m, 2, offset)
    return Fraction(-num if m[1] == "-" else num, den)


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

    Two readers share the work and return the same value or raise the
    same error.  A text written as usual is read by `_read_fibration`, one
    pattern match and one `findall` per field.  Any other text goes to the
    field walker `_walk_fibration`, which reads it or raises the
    positioned ParseError; so does a text holding a number with more
    digits than `int()` converts (`sys.get_int_max_str_digits()`).
    """
    try:
        f = _read_fibration(text)
    except ParseError:
        raise
    except ValueError:  # a number int() does not convert: the walker says where
        f = None
    return _walk_fibration(text) if f is None else f


@functools.cache
def _fibration_patterns():
    """(the notation, the parts of one invariant a/b), compiled on first
    use: a command that reads no fibration does not pay for them.

    The notation's groups: outer '(', surface, disk surface, cone labels,
    corner labels, cone invariants, corner invariants, then the Euler
    class's sign, numerator and denominator and the boundary bit.  Blanks
    stand where `_LABEL` and `_RATIONAL` let them.  A label or an order is
    written without a leading 0 and is not 0.  On a disk the corner slot
    is required and the bit optional; on S2 and RP2 the corner slot may be
    left out or left blank, and there is no bit.

    Each run of blanks is taken by one term only, and spaces follow a sign
    only when there is one, so a text the pattern declines is declined in
    time linear in its length: with two terms sharing a run, each invariant
    of a long list would double the ways to try."""
    natural = r"[1-9][0-9]*"
    labels = r"(\s*(?:{0}\s*(?:,\s*{0}\s*)*)?)".format(natural)
    invariant = r"(?:[+-] *)?[0-9]+ */ *" + natural
    invariants = r"(\s*(?:{0}\s*(?:,\s*{0}\s*)*)?)".format(invariant)
    notation = (
        r"\s*(?:(\()\s*)?((D2)|S2|RP2)(?:\({L}(?:;{L})?\))?\s*;{I};"
        r"(?(3){I};|(?:\s*;)?)"
        r"\s*(?:([+-]) *)?([0-9]+)(?: */ *({N}))?\s*"
        r"(?(3)(?:;\s*([01])\s*)?)(?(1)\)\s*)"
    ).format(L=labels, I=invariants, N=natural)
    return re.compile(notation), re.compile(r"([+-]?) *([0-9]+) */ *([0-9]+)")


# A label or an order the notation pattern takes is written without a
# leading 0, so "1" is the only way it writes 1: an order-1 point, dropped.
def _labels(span: str) -> tuple[int, ...]:
    return tuple(sorted([int(n) for n in _NATURAL.findall(span) if n != "1"])) if span else ()


def _invariants(pattern: re.Pattern, span: str) -> tuple[LocalInvariant, ...]:
    return tuple([LocalInvariant(int(s + a), int(b)) for s, a, b in pattern.findall(span)
                  if b != "1"]) if span else ()


def _read_fibration(text: str) -> FiberedOrbifold | None:
    """`_walk_fibration(text)` for a text the notation pattern takes, with
    no corner labels on S2 or RP2: the same value or the same ParseError,
    which then carries no position.  None for any other text."""
    notation, invariant = _fibration_patterns()
    m = notation.fullmatch(text)
    if m is None:
        return None
    (_, name, disk, cone_labels, corner_labels, cones, corners,
     sign, num, den, bit) = m.groups("")
    corner_labels = _labels(corner_labels)
    if corner_labels and not disk:
        return None  # the walker's error gives the position
    return _build(_trusted_base(_SURFACES[name], _labels(cone_labels), corner_labels),
                  _invariants(invariant, cones), _invariants(invariant, corners),
                  Fraction(int(sign + num), int(den or 1)), bit)


def _build(base: TwoOrbifold, cones: tuple[LocalInvariant, ...],
           corners: tuple[LocalInvariant, ...], e: Fraction, bit: str) -> FiberedOrbifold:
    """The value of fields each reader has checked, `bit` being the
    boundary bit "0" or "1" as written, or "" when it is left out.  Raises
    the ParseErrors that carry no position: no boundary bit satisfies the
    sum relation, or the counts of labels and invariants differ."""
    xi = ()
    if bit:
        xi = (int(bit),)
    elif base.surface is Surface.DISK:
        try:
            xi = (solve_xi(cones, corners, e),)
        except ValueError as exc:
            raise ParseError(
                "xi omitted but no boundary bit satisfies the sum relation; "
                "give xi explicitly"
            ) from exc

    n_labels = len(base.cone_labels) + len(base.corner_labels)
    n_invs = len(cones) + len(corners)
    if n_labels != n_invs:
        raise ParseError(
            "label/invariant count mismatch: base has %d singular labels, "
            "%d invariants given" % (n_labels, n_invs)
        )
    return _trusted(base, cones, corners, e, xi)


def _walk_fibration(text: str) -> FiberedOrbifold:
    """`parse_fibration` field by field: split on the top-level ';', then
    read the base and each field in turn, raising the positioned
    ParseError of the first bad piece."""
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
    base = parse_base(*parts[0])

    # A disk takes base; cones; corners; e(; xi), S2 and RP2 take
    # base; cones(; corners); e.
    disk = base.surface is Surface.DISK
    if len(parts) - disk not in (3, 4):
        shape = (("disk", "cones; corners; e(; xi)") if disk
                 else (base.surface.value, "cones(; corners); e"))
        raise ParseError("a %s-base fibration takes base; %s, got %d fields"
                         % (*shape, len(parts)))
    cones = _parse_invariants(*parts[1])
    corners = ()
    if len(parts) > 3:
        corners = _parse_invariants(*parts[2])
        if not disk and parts[2][0].strip():
            raise ParseError(
                "position %d: %s bases carry no corner reflectors"
                % (_at(*parts[2]), base.surface.value)
            )
    e = _parse_rational(*parts[3 if disk else -1])
    bit = ""
    if len(parts) == 5:  # a disk's boundary bit
        bit = parts[4][0].strip()
        if bit not in ("0", "1"):
            raise ParseError(
                "position %d: xi must be 0 or 1, got %r" % (_at(*parts[4]), bit)
            )
    return _build(base, cones, corners, e, bit)


# -- commands ---------------------------------------------------------------
#
# Each command returns (exit code, output): a JSON payload under --json,
# else its text, or None when it prints nothing.  `run_command` prints it.
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


def _answer(f: FiberedOrbifold):
    """(normal form, its ValidationResult, invariant) of f; the invariant,
    the fibration set or DiffeoKey, is None unless f is valid and
    spherical.  The guard's one pass decides both, and only an invalid f
    is handed to `validate`, for its problems."""
    import seifert_orbifolds.classify as classify

    g = normalize(f)
    spherical = _valid_spherical(g)
    if spherical is None:
        return g, validate(g), None
    return g, _VALID, classify._invariant(g) if spherical else None


def _report(f, g, res, invariant) -> dict:
    """The expression report of f from its `_answer`."""
    import seifert_orbifolds.classify as classify

    report = {
        "input": str(f),
        "normalized": str(g),
        "valid": bool(res.ok),
        "chi": format_rational(euler_characteristic(g.base)),
        "spherical": invariant is not None,
        "count": None,
        "fibrations": [],
    }
    if not res.ok:
        report["problems"] = list(res.problems)
    elif isinstance(invariant, classify.DiffeoKey):
        report["count"] = "infinite"
        report["diffeo_key"] = _key_json(invariant)
        report["lens"] = {"p": invariant.lens.p, "q": invariant.lens.q}
    elif invariant is not None:
        report["count"] = len(invariant)
        report["fibrations"] = sorted(str(x) for x in invariant)
    return report


def expression_report(f: FiberedOrbifold) -> dict:
    """The documented JSON object for a single fibration expression."""
    return _report(f, *_answer(f))


def _cmd_validate(args):
    f = parse_fibration(args.expr)
    if args.json:
        report = expression_report(f)
        return (0 if report["valid"] else 1), report
    g = normalize(f)
    res = validate(g)
    if res.ok:
        return 0, "ok: %s" % g
    return 1, "\n".join(["invalid: %s" % f] + ["  " + p for p in res.problems])


def _cmd_normalize(args):
    f = parse_fibration(args.expr)
    return 0, expression_report(f) if args.json else str(normalize(f))


def _cmd_classify(args):
    f = parse_fibration(args.expr)
    if args.json:
        report = expression_report(f)
        return (0 if report["valid"] else 1), report
    import seifert_orbifolds.classify as classify

    g, res, invariant = _answer(f)
    if not res.ok:
        return 1, "invalid: %s" % "; ".join(res.problems)
    if invariant is None:
        return 0, "not spherical; fibration count undetermined here"
    return 0, "spherical; fibrations: %s" % (
        "infinite" if isinstance(invariant, classify.DiffeoKey) else len(invariant))


def _cmd_chi(args):
    base = parse_base(args.base)
    chi = format_rational(euler_characteristic(base))
    return 0, {"base": str(base), "chi": chi} if args.json else "chi(%s) = %s" % (base, chi)


def _cmd_fibrations(args):
    import seifert_orbifolds.classify as classify

    f = parse_fibration(args.expr)
    g = classify._require_normal_spherical(f)
    invariant = classify._invariant(g)
    if args.json:
        return 0, _report(f, g, _VALID, invariant)
    if isinstance(invariant, classify.DiffeoKey):
        k = invariant
        return 0, ("infinitely many fibrations; key: class=%s lens=%s iota=(%d,%d) mode=%s"
                   % (k.orbifold_class.value, k.lens, *k.iota, k.mode.value))
    return 0, "\n".join(sorted(str(x) for x in invariant))


def _cmd_diffeo(args):
    import seifert_orbifolds.classify as classify

    f = classify._require_normal_spherical(parse_fibration(args.expr1))
    g = classify._require_normal_spherical(parse_fibration(args.expr2))
    same = classify._are_diffeomorphic(f, g)
    return (0 if same else 3), (
        {"left": str(f), "right": str(g), "diffeomorphic": bool(same)} if args.json
        else "diffeomorphic" if same else "not diffeomorphic")


def _cmd_quotient(args):
    import seifert_orbifolds.groups as groups

    g = groups.parse_group(args.group)
    out = (groups.quotient_antihopf if args.anti_hopf else groups.quotient_hopf)(g)
    side = "anti-Hopf" if args.anti_hopf else "Hopf"
    if out is groups.NO_INVARIANT_FIBRATION:
        return 0, ({"group": str(g), "side": side, "fibration": None} if args.json
                   else "%s preserves no fibration on the %s side" % (g, side))
    return 0, ({"group": str(g), "side": side, "order": groups.group_order(g),
                "fibration": str(out)} if args.json else str(out))


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
    Hopf quotient is a check_valid normal form, so a Hopf row checks only
    sphericity.  An anti-Hopf value is a checked normal form too, and is
    never classified, yet it still passes the full guard
    `_require_normal_spherical`, the atlas's only `core.normalize` call:
    the benchmark's self-check fails an atlas that makes none.  A group's
    name and order are read once for both of its rows.
    """
    from .classify import (_NOT_SPHERICAL, DiffeoKey, _invariant,
                           _require_normal_spherical, _signature)
    from .groups import (NO_INVARIANT_FIBRATION, enumerate_quotient_groups, group_order,
                         quotient_antihopf, quotient_hopf)

    classes = {}
    member_of = {}
    rows = []
    for g in enumerate_quotient_groups(max_order):
        h = quotient_hopf(g)
        if not is_spherical(h):
            raise ValueError(_NOT_SPHERICAL)
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
    bound = args.max_order.strip()
    try:
        max_order = int(bound) if _NATURAL.fullmatch(bound) else 0
    except ValueError:
        raise ValueError(_too_long("--max-order", bound)) from None
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
        print("error: %s" % exc, file=sys.stderr)
        return 2 if isinstance(exc, UnsupportedFamilyError) else 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
