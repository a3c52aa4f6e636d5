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
Groups are written family(parameters), e.g. F2(m=3,n=2) or F20.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .core import (
    FiberedOrbifold,
    Surface,
    TwoOrbifold,
    euler_characteristic,
    format_rational,
    is_spherical,
    normalize,
    reverse_orientation,
    solve_xi,
    validate,
)
from .groups import (
    NO_INVARIANT_FIBRATION,
    NoInvariantFibration,
    UnsupportedFamilyError,
    group_order,
    parse_group,
    quotient_antihopf,
    quotient_hopf,
    swapped_group,
)
from .classify import (
    _NOT_SPHERICAL,
    DiffeoKey,
    _are_diffeomorphic,
    _invariant,
    _key,
    _representative,
    _require_normal_spherical,
    _signature,
)
from .groups import enumerate_quotient_groups


class ParseError(ValueError):
    pass


# Numbers are ASCII digits only: str.isdigit, int() and Fraction() also
# read other scripts' digits, underscores and exponents.
_NATURAL = re.compile(r"[0-9]+")
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _split_top(text: str) -> list[tuple[str, int]]:
    """Split on ';' outside parentheses; returns (segment, offset) pairs."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("position %d: unbalanced ')'" % i)
        elif ch == ";" and depth == 0:
            parts.append((text[start:i], start))
            start = i + 1
    if depth != 0:
        raise ParseError("unbalanced '(' in %r" % text)
    parts.append((text[start:], start))
    return parts


def _parse_labels(text: str, offset: int) -> list[int]:
    text = text.strip()
    if not text:
        return []
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not _NATURAL.fullmatch(piece):
            raise ParseError("position %d: expected a label, got %r" % (offset, piece))
        out.append(int(piece))
    return out


def parse_base(text: str, offset: int = 0) -> TwoOrbifold:
    text = text.strip()
    for name, surface in (
        ("S2", Surface.SPHERE),
        ("RP2", Surface.PROJECTIVE_PLANE),
        ("D2", Surface.DISK),
    ):
        if text == name:
            return TwoOrbifold(surface)
        if text.startswith(name + "("):
            if not text.endswith(")"):
                raise ParseError("position %d: unbalanced base parentheses" % offset)
            inner = text[len(name) + 1 : -1]
            if ";" in inner:
                cones_txt, _, corners_txt = inner.partition(";")
            else:
                cones_txt, corners_txt = inner, ""
            cones = _parse_labels(cones_txt, offset)
            corners = _parse_labels(corners_txt, offset)
            try:
                return TwoOrbifold(surface, cones, corners)
            except ValueError as exc:
                raise ParseError("position %d: %s" % (offset, exc)) from exc
    raise ParseError("position %d: unknown base %r" % (offset, text))


def _parse_invariants(text: str, offset: int) -> list[tuple[int, int]]:
    text = text.strip()
    if not text:
        return []
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        num, slash, den = (part.strip() for part in piece.partition("/"))
        if not slash:
            raise ParseError(
                "position %d: local invariant must be written a/b, got %r"
                % (offset, piece)
            )
        if not (_INTEGER.fullmatch(num) and _NATURAL.fullmatch(den)):
            raise ParseError("position %d: bad invariant %r" % (offset, piece))
        if int(den) == 0:
            raise ParseError(
                "position %d: invariant order must be >= 1, got %r" % (offset, piece)
            )
        out.append((int(num), int(den)))
    return out


def _parse_rational(text: str, offset: int) -> Fraction:
    compact = text.strip().replace(" ", "")
    if not _RATIONAL.fullmatch(compact):
        raise ParseError("position %d: bad rational %r" % (offset, text))
    try:
        return Fraction(compact)
    except ZeroDivisionError as exc:
        raise ParseError("position %d: bad rational %r" % (offset, text)) from exc


def parse_fibration(text: str) -> FiberedOrbifold:
    """Parse the compact tuple notation into a FiberedOrbifold.

    Structural validity only: the label/invariant count match and the sum
    relation are checked by `validate`, not here, except that a missing
    boundary bit is filled in from the relation when that is possible.
    """
    stripped = text.strip()
    if stripped.startswith("(") and stripped.endswith(")"):
        inner = stripped[1:-1]
        try:
            _split_top(inner)
        except ParseError:
            pass
        else:
            stripped = inner
    parts = _split_top(stripped)
    if len(parts) < 2:
        raise ParseError("expected base and invariants separated by ';'")
    base = parse_base(parts[0][0], parts[0][1])

    if base.surface is Surface.DISK:
        if len(parts) not in (4, 5):
            raise ParseError(
                "a disk-base fibration takes base; cones; corners; e(; xi), got %d fields"
                % len(parts)
            )
        cones = _parse_invariants(*parts[1])
        corners = _parse_invariants(*parts[2])
        e = _parse_rational(*parts[3])
        if len(parts) == 5:
            xi_txt = parts[4][0].strip()
            if xi_txt not in ("0", "1"):
                raise ParseError(
                    "position %d: xi must be 0 or 1, got %r" % (parts[4][1], xi_txt)
                )
            xi = (int(xi_txt),)
        else:
            try:
                xi = (solve_xi(cones, corners, e),)
            except ValueError as exc:
                raise ParseError(
                    "xi omitted but no boundary bit satisfies the sum relation; "
                    "give xi explicitly"
                ) from exc
    else:
        if len(parts) == 3:
            cones = _parse_invariants(*parts[1])
            corners = []
            e = _parse_rational(*parts[2])
        elif len(parts) == 4:
            cones = _parse_invariants(*parts[1])
            corners = _parse_invariants(*parts[2])
            if corners:
                raise ParseError(
                    "position %d: %s bases carry no corner reflectors"
                    % (parts[2][1], base.surface.value)
                )
            e = _parse_rational(*parts[3])
        else:
            raise ParseError(
                "a %s-base fibration takes base; cones(; corners); e, got %d fields"
                % (base.surface.value, len(parts))
            )
        xi = ()

    n_labels = len(base.cone_labels) + len(base.corner_labels)
    n_invs = sum(1 for a, b in cones if b != 1) + sum(1 for a, b in corners if b != 1)
    if n_labels != n_invs:
        raise ParseError(
            "label/invariant count mismatch: base has %d singular labels, "
            "%d invariants given" % (n_labels, n_invs)
        )
    return FiberedOrbifold(
        base,
        tuple((a, b) for a, b in cones),
        tuple((a, b) for a, b in corners),
        e,
        xi,
    )


# -- reports ----------------------------------------------------------------


def _key_json(k):
    return {
        "class": k.orbifold_class.value,
        "lens": {"p": k.lens.p, "q": k.lens.q},
        "iota": list(k.iota),
        "mode": k.mode.value,
    }


def expression_report(f: FiberedOrbifold) -> dict:
    """The documented JSON object for a single fibration expression."""
    g = normalize(f)
    res = validate(g)
    report = {
        "input": str(f),
        "normalized": str(g),
        "valid": bool(res.ok),
        "chi": format_rational(euler_characteristic(g.base)),
        "spherical": bool(res.ok and is_spherical(g)),
        "count": None,
        "fibrations": [],
    }
    if not res.ok:
        report["problems"] = list(res.problems)
        return report
    if not report["spherical"]:
        return report
    invariant = _invariant(g)
    if isinstance(invariant, DiffeoKey):
        report["count"] = "infinite"
        report["diffeo_key"] = _key_json(invariant)
        report["lens"] = {"p": invariant.lens.p, "q": invariant.lens.q}
    else:
        report["count"] = len(invariant)
        report["fibrations"] = sorted(str(x) for x in invariant)
    return report


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _cmd_validate(args):
    payload = expression_report(parse_fibration(args.expr))
    if payload["valid"]:
        _emit(args, payload, "ok: %s" % payload["normalized"])
        return 0
    lines = ["invalid: %s" % payload["input"]]
    for p in payload["problems"]:
        lines.append("  " + p)
    _emit(args, payload, "\n".join(lines))
    return 1


def _cmd_normalize(args):
    payload = expression_report(parse_fibration(args.expr))
    _emit(args, payload, payload["normalized"])
    return 0


def _cmd_chi(args):
    base = parse_base(args.base)
    chi = euler_characteristic(base)
    _emit(args, {"base": str(base), "chi": format_rational(chi)},
          "chi(%s) = %s" % (base, format_rational(chi)))
    return 0


def _cmd_classify(args):
    f = parse_fibration(args.expr)
    payload = expression_report(f)
    if not payload["valid"]:
        _emit(args, payload, "invalid: %s" % "; ".join(payload.get("problems", [])))
        return 1
    if not payload["spherical"]:
        _emit(args, payload, "not spherical; fibration count undetermined here")
        return 0
    _emit(args, payload, "spherical; fibrations: %s" % payload["count"])
    return 0


def _cmd_fibrations(args):
    payload = expression_report(parse_fibration(args.expr))
    if not payload["valid"]:
        raise ValueError("invalid fibration: %s" % "; ".join(payload["problems"]))
    if not payload["spherical"]:
        raise ValueError(_NOT_SPHERICAL)
    if payload["count"] != "infinite":
        text = "\n".join(payload["fibrations"])
    else:
        k = payload["diffeo_key"]
        text = (
            "infinitely many fibrations; key: class=%s lens=L(%d,%d) iota=(%d,%d) mode=%s"
            % (
                k["class"], k["lens"]["p"], k["lens"]["q"],
                k["iota"][0], k["iota"][1], k["mode"],
            )
        )
    _emit(args, payload, text)
    return 0


def _cmd_diffeo(args):
    f = _require_normal_spherical(parse_fibration(args.expr1))
    g = _require_normal_spherical(parse_fibration(args.expr2))
    same = _are_diffeomorphic(f, g)
    payload = {"left": str(f), "right": str(g), "diffeomorphic": bool(same)}
    _emit(args, payload, "diffeomorphic" if same else "not diffeomorphic")
    return 0 if same else 3


def _cmd_quotient(args):
    g = parse_group(args.group)
    op = quotient_antihopf if args.anti_hopf else quotient_hopf
    out = op(g)
    side = "anti-Hopf" if args.anti_hopf else "Hopf"
    if isinstance(out, NoInvariantFibration):
        _emit(args, {"group": str(g), "side": side, "fibration": None},
              "%s preserves no fibration on the %s side" % (g, side))
        return 0
    _emit(args, {"group": str(g), "side": side, "order": group_order(g),
                 "fibration": str(out)}, str(out))
    return 0


def _cmd_lens(args):
    f = _require_normal_spherical(parse_fibration(args.expr))
    g = _representative(f)
    if g is None:
        raise ValueError("lens data applies to orbifolds with infinitely many fibrations")
    k = _key(g)
    _emit(args, {"input": str(f), "lens": {"p": k.lens.p, "q": k.lens.q},
                 "iota": list(k.iota), "mode": k.mode.value}, str(k.lens))
    return 0


def _atlas_rows(max_order: int):
    """One row per quotient fibration, with its diffeo_signature.

    Each Hopf quotient is built once: `hopf` maps every group of this
    sweep to its Hopf quotient, and an anti-Hopf value is the orientation
    reversal of the swapped group's entry (`quotient_antihopf` without
    rebuilding it).  A ValueError from the swap or the quotient drops the
    anti-Hopf row.  Each value is validated once: `quotient_hopf` returns a
    check_valid normal form, so a Hopf row checks only sphericity, while an
    anti-Hopf value passes the full guard.  Each finite class is
    enumerated once: `finite` maps every member of an enumerated fibration
    set to that set, and `listed` maps the set to its sorted strings.  A
    group's name and order are read once for both of its rows.  The dicts
    live for this sweep only.
    """
    hopf = {}

    def hopf_quotient(g):
        h = hopf.get(g)
        if h is None:
            h = hopf[g] = quotient_hopf(g)
        return h

    finite = {}
    listed = {}
    rows = []
    for g in enumerate_quotient_groups(max_order):
        h = hopf_quotient(g)
        if not is_spherical(h):
            raise ValueError(_NOT_SPHERICAL)
        sides = [("hopf", h)]
        try:
            swapped = swapped_group(g)
            if swapped is NO_INVARIANT_FIBRATION:
                a = None
            else:
                a = reverse_orientation(hopf_quotient(swapped))
        except ValueError:
            a = None
        if a is not None:
            sides.append(("anti-hopf", _require_normal_spherical(a)))
        name, order = str(g), group_order(g)
        for side, f in sides:
            invariant = finite.get(f)
            if invariant is None:
                invariant = _invariant(f)
                if not isinstance(invariant, DiffeoKey):
                    invariant = frozenset(invariant)
                    finite.update(dict.fromkeys(invariant, invariant))
                    listed[invariant] = sorted(str(x) for x in invariant)
            if isinstance(invariant, DiffeoKey):
                fibs, key = None, _key_json(invariant)
            else:
                fibs, key = listed[invariant], None
            rows.append({
                "group": name,
                "order": order,
                "side": side,
                "quotient": str(f),
                "fibrations": fibs,
                "diffeo_key": key,
                "signature": _signature(invariant),
            })
    return rows


def _cmd_atlas(args):
    bound = args.max_order.strip()
    if not _NATURAL.fullmatch(bound) or int(bound) < 1:
        raise ValueError("--max-order must be a positive integer, got %r" % args.max_order)
    if not args.out:
        sys.stdout.write(_atlas_text(int(bound), args.json))
        return 0
    # Opened before the sweep, so an unwritable path fails at once.
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_atlas_text(int(bound), args.json))
    except OSError as exc:
        raise ValueError("cannot write %s: %s" % (args.out, exc.strerror or exc)) from exc
    return 0


def _atlas_text(max_order: int, as_json: bool) -> str:
    rows = _atlas_rows(max_order)
    class_ids = {}
    for row in rows:
        row["class"] = class_ids.setdefault(row.pop("signature"), len(class_ids))
    lines = []
    if as_json:
        by_class = {}
        for row in rows:
            by_class.setdefault(row["class"], []).append(row)
        for cid in sorted(by_class):
            members = by_class[cid]
            rep = members[0]
            obj = {
                "class": cid,
                "count": (len(rep["fibrations"]) if rep["fibrations"] is not None
                          else "infinite"),
                "fibrations": rep["fibrations"],
                "diffeo_key": rep["diffeo_key"],
                "members": [
                    {"group": m["group"], "order": m["order"], "side": m["side"],
                     "quotient": m["quotient"]}
                    for m in members
                ],
            }
            lines.append(json.dumps(obj, sort_keys=True))
    else:
        for row in rows:
            extra = (
                "fibrations=[%s]" % " | ".join(row["fibrations"])
                if row["fibrations"] is not None
                else "key=%s" % json.dumps(row["diffeo_key"], sort_keys=True)
            )
            lines.append(
                "class %d: %s order=%d %s quotient=%s %s"
                % (row["class"], row["group"], row["order"], row["side"],
                   row["quotient"], extra)
            )
    return "\n".join(lines) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `seifert` argument parser, built once per process on first use."""
    top = argparse.ArgumentParser(
        prog="seifert",
        description="Exact classification of Seifert fibered spherical 3-orbifolds",
    )
    top.add_argument("--json", action="store_true", help="emit JSON output")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the invariant relation")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_validate)
    p = sub.add_parser("normalize", help="canonical form of a fibration")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_normalize)
    p = sub.add_parser("chi", help="orbifold Euler characteristic of a base")
    p.add_argument("base")
    p.set_defaults(fn=_cmd_chi)
    p = sub.add_parser("classify", help="geometry and fibration count")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_classify)
    p = sub.add_parser("fibrations", help="enumerate fibrations or emit the lens key")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_fibrations)
    p = sub.add_parser("diffeo", help="decide orientation-preserving diffeomorphism")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.set_defaults(fn=_cmd_diffeo)
    p = sub.add_parser("quotient", help="quotient fibration of a finite SO(4) group")
    p.add_argument("group")
    p.add_argument("--anti-hopf", action="store_true")
    p.set_defaults(fn=_cmd_quotient)
    p = sub.add_parser("lens", help="underlying lens space of an infinite-class orbifold")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_lens)
    p = sub.add_parser("atlas", help="catalog of quotient orbifolds up to a group order")
    p.add_argument("--max-order", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_atlas)
    return top


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except UnsupportedFamilyError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ParseError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
