"""
The rewrite rules and bridge rows of `classify` against an oracle that
shares no code with them: the order 4|e|/chi(base)^2 of the orbifold
fundamental group, which does not depend on the fibration chosen.
"""

from collections import Counter
from fractions import Fraction as F
from functools import cache
from itertools import product

from seifert_orbifolds.classify import (
    _BRIDGES,
    _INDEX,
    _RULES,
    _SPORADIC,
    FibrationClass,
    _bridge,
    _enumerate_fibrations,
    _moves,
    _read_class,
    _readings,
    _shape,
    are_diffeomorphic,
    diffeo_signature,
    fibration_class,
    single_step,
)
from seifert_orbifolds.cli import _atlas_classes, parse_fibration
from seifert_orbifolds.core import (
    FiberedOrbifold,
    Surface,
    _normal_form,
    is_bad,
    normalize,
    orbifold_order,
    reverse_orientation,
    validate,
)

S2, RP2, D2 = Surface.SPHERE, Surface.PROJECTIVE_PLANE, Surface.DISK


# Shapes as (surface, cone invariants, corner invariants, k): X stands for
# the invariant over the label b, and the Euler class is c/(k*b).
X = None
SHAPES = (
    (S2, [(0, 2), (0, 2), X], [], 1),
    (S2, [(1, 2), (1, 2), X], [], 1),
    (S2, [(0, 2), (1, 2), X], [], 2),
    (D2, [], [(0, 2), (0, 2), X], 2),
    (D2, [], [(1, 2), (1, 2), X], 2),
    (D2, [], [(0, 2), (1, 2), X], 4),
    (D2, [(1, 2)], [X], 2),
    (D2, [(0, 2)], [X], 2),
    (D2, [X], [], 1),
    (D2, [X], [], 2),
    (RP2, [X], [], 1),
)


@cache
def grid(limit=20):
    """Every spherical fibration of the shapes of criterion 4 plus D2(b;)
    and RP2(b), for b, |c| <= limit, in both orientations; b = 1 drops the
    label-b point.  The sum relation leaves the invariant over b one of
    -c, (b-c)/2 and b/2-c (mod b).  Computed once per limit, as a frozen
    set, for the tests below that share it."""
    out = set()
    for b, c in product(range(1, limit + 1), range(1, limit + 1)):
        for a in {-c % b, (b - c) // 2 % b, (b // 2 - c) % b}:
            for surface, cones, corners, k in SHAPES:
                cones, corners = ([(a, b) if p is X else p for p in ps] for ps in (cones, corners))
                try:
                    f = normalize(FiberedOrbifold.from_data(surface, cones, corners, F(c, k * b)))
                except ValueError:
                    continue
                if validate(f).ok:
                    out |= {f, reverse_orientation(f)}
    return frozenset(out)


def rewrites(f):
    """(rule name, fibration) for each displayed move with f on one side,
    as a closure's first step finds them: f is read once by each source
    pattern filed under its shape, and each target but f itself is built."""
    filed = {}
    return _moves(f, _readings(f, filed), filed)


def closure(f):
    """The closure of the finite-class f, started as `_invariant` starts
    it: from the readings and the filed dict of f's class check."""
    filed = {}
    _, readings = _read_class(f, filed)
    return _enumerate_fibrations(f, readings, filed)


def bridge(f):
    """(row name, target) of the first bridge row that reads f, or None."""
    return _bridge(f, _readings(f, {}))


def test_every_move_and_bridge_keeps_the_orbifold_order():
    fired = Counter()
    for f in grid():
        if fibration_class(f) is FibrationClass.FINITE:
            for name, g in rewrites(f):
                assert orbifold_order(g) == orbifold_order(f), (name, f, g)
                fired[name] += 1
        hit = bridge(f)
        if hit is not None:
            name, g = hit
            assert orbifold_order(g) == orbifold_order(f), (name, f, g)
            fired[name] += 1
    # no dead rows: every rule and every bridge row fires on this grid
    names = [row[0] for row in _RULES + _BRIDGES]
    assert len(set(names)) == len(names)
    assert [n for n in names if not fired[n]] == []
    assert sum(fired[row[0]] for row in _RULES) > 9000
    assert sum(fired[row[0]] for row in _BRIDGES) >= 250


# -- the shape index against a full scan ---------------------------------------

# The sporadic pairs as the tuple the matcher scanned before the index.
SPORADIC_PAIRS = tuple(
    (_normal_form(S2, sphere, [], F(-s, n)), _normal_form(D2, cones, corners, F(-s, m)))
    for s in (1, -1)
    for sphere, n, cones, corners, m in (
        ([(0, 2), (2 * s, 3), (2 * s, 3)], 3, [(s, 3)], [(s, 2)], 12),
        ([(0, 2), (2 * s, 3), (2 * s, 4)], 6, [], [(1, 2), (s, 3), (s, 4)], 24),
        ([(0, 2), (s, 3), (3 * s, 4)], 12, [], [(1, 2), (s, 3), (s, 3)], 12),
        ([(0, 2), (2 * s, 3), (2 * s, 5)], 15, [], [(1, 2), (s, 3), (s, 5)], 60),
    )
)


def reference_read(pattern, f):
    """The structural reader: the (x, y) with pattern.build(x, y) == f, or
    None, for any valid normal form f.  It tests the surface and the fixed
    invariants itself and searches for the free one, so it reads values of
    every shape, where `_Pattern.read` trusts the shape index."""
    if f.base.surface is not pattern.surface:
        return None
    if pattern.free == "cone":
        have, fixed = f.cone_invariants, pattern.cones
        if f.corner_invariants != pattern.corners:
            return None
    else:
        have, fixed = f.corner_invariants, pattern.corners
        if f.cone_invariants != pattern.cones:
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
    y, rem = divmod(pattern.k * x * f.euler.numerator, f.euler.denominator)
    if rem or (pattern.mixed and (x - y) % 2) or a != pattern._numerator(x, y) % x:
        return None
    return x, y


def rewrites_by_full_scan(f):
    """The unindexed matcher: f read against both sides of every rule, then
    compared with every sporadic pair."""
    for name, left, right, (there, back), domain in _RULES:
        xy = reference_read(left, f)
        if xy is not None and domain(*xy):
            yield name, right.build(*there(*xy))
        xy = reference_read(right, f)
        if xy is not None and domain(*back(*xy)):
            yield name, left.build(*back(*xy))
    for left, right in SPORADIC_PAIRS:
        if f == left:
            yield "sporadic", right
        elif f == right:
            yield "sporadic", left


def bridge_by_full_scan(f):
    """The unindexed bridge scan: the first of all rows that reads f."""
    for name, source, domain, target in _BRIDGES:
        xy = reference_read(source, f)
        if xy is not None and domain(*xy):
            return name, _normal_form(*target(*xy, f.euler))
    return None


def closure_by_full_scan(f):
    """The breadth-first closure of f under the unindexed matcher, which
    builds every target and reuses nothing, as its layers: {f}, then the
    fibrations each step adds."""
    layers, seen = [{f}], {f}
    while layers[-1]:
        step = {g for h in layers[-1] for _, g in rewrites_by_full_scan(h)} - seen
        seen |= step
        layers.append(step)
    return layers[:-1]


@cache
def atlas_values(max_order):
    """Every quotient of the atlas sweep and every member of its fibration
    set, as normal forms, in a frozen set computed once per order."""
    texts = set()
    _, rows = _atlas_classes(max_order)
    for (_, fibrations, _, _), _, _, _, quotient, _ in rows:
        texts.add(quotient)
        texts.update(fibrations or ())
    return frozenset(normalize(parse_fibration(text)) for text in texts)


def test_sporadic_dict_holds_each_pair_both_ways():
    assert len(_SPORADIC) == 2 * len(SPORADIC_PAIRS) == 16
    for left, right in SPORADIC_PAIRS:
        assert _SPORADIC[left] == right and _SPORADIC[right] == left


def test_shape_index_is_exact():
    """The index files a pattern under every shape the reference reader
    reads by it, and `_Pattern.read` agrees with the reference, None
    included, on every value of a shape the pattern is filed under.  Under
    every shape, the bridge rows in index order keep the table's order, so
    the first row of a fibration's readings that holds is the table's."""
    values = grid() | atlas_values(200) | set(_SPORADIC)
    values |= {reverse_orientation(f) for f in values}
    patterns = {id(p): p for _, left, right, _, _ in _RULES for p in (left, right)}
    assert len(patterns) == 11
    assert {id(row[1]) for row in _BRIDGES} <= set(patterns)
    read = declined = 0
    for f in values:
        shape = _shape(f)
        moved = {id(source) for source, _, _ in _INDEX.get(shape, ())}
        bridged = {id(row) for _, _, rows in _INDEX.get(shape, ()) for row in rows}
        for pattern in patterns.values():
            want = reference_read(pattern, f)
            if want is not None:
                assert id(pattern) in moved, (pattern, f)
                read += 1
            if id(pattern) in moved:
                assert pattern.read(f) == want, (pattern, f)
                declined += want is None
        for row in _BRIDGES:
            if reference_read(row[1], f) is not None:
                assert id(row) in bridged, (row[0], f)
            if id(row) in bridged:
                assert row[1].read(f) == reference_read(row[1], f), (row[0], f)
    assert len(values) > 8000 and read > 8000 and declined > 1000
    table = {id(row): i for i, row in enumerate(_BRIDGES)}
    shared = 0
    for shape, entries in _INDEX.items():
        assert all(row[1] is source for source, _, rows in entries for row in rows), shape
        reached = [table[id(row)] for _, _, rows in entries for row in rows]
        assert reached == sorted(reached), shape
        shared += len(reached) > 1
    assert shared > 0


def test_shape_index_matches_the_full_scan():
    values = grid() | atlas_values(200) | set(_SPORADIC)
    moved = bridged = 0
    for f in values:
        got = Counter(rewrites(f))
        assert got == Counter(rewrites_by_full_scan(f)), f
        hit = bridge(f)
        assert hit == bridge_by_full_scan(f), f
        moved += sum(got.values())
        bridged += hit is not None
    assert len(values) > 8000 and moved > 9000 and bridged > 250


def test_closure_matches_the_full_scan():
    """The closure that files its readings and reuses filed members finds
    the fibrations the unindexed breadth-first closure finds, and its
    first step is single_step."""
    values = grid() | atlas_values(200) | set(_SPORADIC)
    sizes = Counter()
    for f in values:
        if fibration_class(f) is FibrationClass.FINITE:
            layers = closure_by_full_scan(f)
            assert closure(f) == set().union(*layers), f
            assert single_step(f) == (layers[1] if len(layers) > 1 else set()), f
            sizes[sum(map(len, layers))] += 1
    assert set(sizes) == {1, 2, 3} and sizes[3] > 200


def decoys(readings):
    """(decoy, target) for each move of the readings whose domain holds, with
    target what the move builds and decoy what each other source pattern
    builds, reads back and files under the same (x, y)."""
    sources = {id(s): s for index in _INDEX.values() for s, _, _ in index}.values()
    for xy, moves, _ in readings:
        for _, target, move, domain in moves:
            if domain(*xy):
                to = move(*xy)
                for other in sources:
                    try:
                        decoy = other.build(*to)
                    except ValueError:  # no fibration of that pattern at (x, y)
                        continue
                    if other is not target and reference_read(other, decoy) == to:
                        yield decoy, target.build(*to)


def test_closure_files_readings_by_pattern_and_parameters():
    """A closure files each member's readings by (pattern, (x, y)), and a
    move takes a filed member only from its own target pattern: with a
    decoy that another pattern reads with the move's (x, y) filed in the
    same dict first, the moves are still the full scan's."""
    differ = 0
    for f in grid():
        if fibration_class(f) is FibrationClass.FINITE:
            filed = {}
            readings = _readings(f, filed)
            for decoy, target in decoys(readings):
                _readings(decoy, filed)
                differ += decoy != target
            assert Counter(_moves(f, readings, filed)) == Counter(rewrites_by_full_scan(f)), f
    assert differ > 10000


# -- the diffeomorphism decision against the order -----------------------------


def test_no_signature_spans_two_orbifold_orders():
    """Diffeomorphic orbifolds have fundamental groups of one order, so
    are_diffeomorphic needs no order short-cut in front of the signature
    comparison: over the grid, the atlas-200 quotients, their members and
    the mirrors of all these, each signature of a good base has one
    orbifold order, and a pair of different orders is never diffeomorphic."""
    values = grid() | atlas_values(200)
    orders = {}
    for f in values | {reverse_orientation(f) for f in values}:
        if not is_bad(f.base):
            orders.setdefault(diffeo_signature(f), {}).setdefault(orbifold_order(f), f)
    assert len(orders) > 3800
    assert [s for s, by_order in orders.items() if len(by_order) > 1] == []
    signed = sorted((by_order.popitem() for by_order in orders.values()), key=lambda p: p[0])
    (low, f_low), (high, f_high) = signed[0], signed[-1]
    for order, f in signed:
        g = f_low if order != low else f_high
        assert order != orbifold_order(g)
        assert are_diffeomorphic(f, g) is False, (f, g)
