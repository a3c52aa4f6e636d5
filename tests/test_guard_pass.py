"""The one-pass guard and the integer lens key against the formulations
they replace.

`core._valid_spherical` decides "valid and spherical" in one integer pass;
its verdict must be `validate(g).ok and is_spherical(g)` (None for an
invalid g), and the guard and `cli._answer` must act on it as they did on
the two calls.  `classify._key` hands `_lens_label` the Euler class, or 2e
on the disk side, as integers; its key must be the one the Fraction
arithmetic below builds, which is the key's code before it read integers,
kept here as the oracle; it checks its candidate q with the shared
matcher of `lens_oracle`.
"""

from __future__ import annotations

import contextlib
import io
from collections import Counter
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seifert_orbifolds import classify, cli, core, lens
from seifert_orbifolds.classify import DiffeoKey, OrbifoldClass, _require_normal_spherical
from seifert_orbifolds.core import (
    _VALID,
    FiberedOrbifold,
    Surface,
    TwoOrbifold,
    _valid_spherical,
    is_spherical,
    normalize,
    validate,
)
from seifert_orbifolds.lens import LensSpace, Mode
from lens_oracle import match_fibration

S2, RP2, D2 = Surface.SPHERE, Surface.PROJECTIVE_PLANE, Surface.DISK


# -- the oracle: the key in Fraction arithmetic ------------------------------


def oracle_cores(invariants):
    keyed = sorted([(gcd(i.a, i.b), i.b, i.a) for i in invariants], reverse=True)
    keyed += [(1, 1, 0)] * (2 - len(keyed))
    return tuple((a // i, b // i) for i, b, a in keyed), tuple(i for i, _, _ in keyed)


def oracle_label(cores, e: F) -> LensSpace:
    (a1, b1), (a2, b2) = cores
    if e == 0:
        raise ValueError("p = 0: total space is not spherical")
    p, rem = divmod(abs(e.numerator) * b1 * b2, e.denominator)
    if rem:
        raise ValueError("inconsistent lens data")
    if p == 1:
        return LensSpace(1, 0)
    w2, rem = divmod(-p * e.denominator, e.numerator * b1)
    if not rem and gcd(a1, b1) == 1:
        q, rem = divmod(w2 - pow(a1, -1, b1) * p, b1)
        q %= p
        if not rem and gcd(q, p) == 1 and match_fibration(
                p, q, ((a1 % b1, b1), (a2 % b2, b2)), e.numerator, e.denominator):
            return LensSpace(p, q)
    raise ValueError(
        "no lens space carries the fibration (%s/%s, %s/%s; %s)" % (a1, b1, a2, b2, e))


def oracle_euler(g) -> F:
    """The Euler class the label reads: e on a sphere, 2e on a disk."""
    return g.euler if g.base.surface is S2 else 2 * g.euler


def oracle_key(g) -> DiffeoKey:
    if g.base.surface is S2:
        side, invariants = OrbifoldClass.SPHERE_CLASS, g.cone_invariants
    else:
        side, invariants = OrbifoldClass.DISK_CLASS, g.corner_invariants
    cores, iota = oracle_cores(invariants)
    mode = Mode.ORIENTED if iota[0] == iota[1] else Mode.FIXED_CORES
    return DiffeoKey(side, oracle_label(cores, oracle_euler(g)), iota, mode)


# -- the guard ---------------------------------------------------------------


def expected_verdict(g):
    """None when g is invalid, else whether it is spherical: the guard's
    two calls before the pass."""
    return is_spherical(g) if validate(g).ok else None


def check_guard(f):
    """The pass, the guard and `cli._answer` on f agree with validate and
    is_spherical, and the errors keep their wording and order."""
    g = normalize(f)
    want = expected_verdict(g)
    assert _valid_spherical(g) is want, g
    if want is None:
        message = "invalid fibration: %s" % "; ".join(validate(g).problems)
        with pytest.raises(ValueError) as info:
            _require_normal_spherical(f)
        assert str(info.value) == message
    elif not want:
        with pytest.raises(ValueError) as info:
            _require_normal_spherical(f)
        assert str(info.value) == classify._NOT_SPHERICAL
    else:
        assert _require_normal_spherical(f) == g
    same, h, res, invariant = cli._answer(f, *core._verdict(f))
    assert same is f and h == g
    assert res == validate(g)
    assert (res is _VALID) is (want is not None)
    assert (invariant is not None) is bool(want)


def with_labels(f, cone_labels, corner_labels=()):
    """f over the same surface with other base labels, its invariants kept."""
    base = TwoOrbifold(f.base.surface, cone_labels, corner_labels)
    return FiberedOrbifold(base, f.cone_invariants, f.corner_invariants, f.euler, f.xi)


def value(surface, cones, corners, e, xi=()):
    """The value with base labels the orders of the invariants."""
    base = TwoOrbifold(surface, [b for _, b in cones], [b for _, b in corners])
    return FiberedOrbifold(base, cones, corners, e, xi)


@pytest.mark.parametrize("f, verdict", [
    # the labels do not match the orders, yet the relation holds and the
    # labels' base is spherical
    (with_labels(value(S2, [(1, 2), (1, 2)], [], -1), (2, 2, 3)), None),
    (with_labels(value(S2, [(1, 2), (1, 3)], [], F(-5, 6)), (3, 3)), None),
    (with_labels(value(D2, [], [(1, 2), (1, 2)], F(-1, 2), (0,)), (), (2, 2, 2)), None),
    (with_labels(value(D2, [], [(1, 3)], F(-1, 6), (0,)), (3,)), None),
    # e = 0 with the relation holding
    (value(S2, [], [], 0), False),
    (value(S2, [(1, 2), (1, 2)], [], 0), False),
    (value(D2, [], [(1, 2), (1, 2)], 0, (1,)), False),
    (value(RP2, [], [], 0), False),
    # chi = 0 and chi < 0
    (value(S2, [(1, 2)] * 4, [], -3), False),
    (value(S2, [(1, 2), (1, 3), (2, 7)], [], F(-5, 42)), False),
    (value(D2, [], [(1, 2)] * 4, -2, (0,)), False),
    (value(RP2, [(1, 2), (1, 2)], [], -2), False),
    # an odd corner sum: the boundary bit fixes the relation
    (value(D2, [], [(1, 2)], F(-1, 4), (0,)), True),
    (value(D2, [], [(1, 2)], F(-1, 4), (1,)), None),
    (value(D2, [], [(1, 2), (1, 2), (1, 2)], F(-1, 4), (1,)), True),
    (value(D2, [], [(1, 2), (1, 2), (1, 2)], F(-1, 4), (0,)), None),
    # invalid and not spherical: the invalid fibration is reported
    (value(S2, [(1, 2), (1, 3), (1, 7)], [], 0), None),
    # unsorted invariants: the guard normalizes them first
    (value(S2, [(1, 3), (1, 2)], [], F(-5, 6)), True),
])
def test_guard_verdicts(f, verdict):
    assert expected_verdict(normalize(f)) is verdict
    check_guard(f)


def test_guard_on_the_grid_and_its_variants(two_label_grid):
    """Every grid value, the same with e = 0, with the boundary bit
    flipped, and with one label changed."""
    seen = set()
    for g in two_label_grid:
        variants = [g, FiberedOrbifold(g.base, g.cone_invariants, g.corner_invariants, 0, g.xi)]
        if g.xi:
            variants.append(FiberedOrbifold(g.base, g.cone_invariants, g.corner_invariants,
                                            g.euler, (1 - g.xi[0],)))
        labels = g.base.cone_labels or g.base.corner_labels
        if labels:
            changed = (labels[0] + 1,) + labels[1:]
            variants.append(with_labels(g, changed) if g.base.surface is S2
                            else with_labels(g, (), changed))
        for f in variants:
            g = normalize(f)
            want = expected_verdict(g)
            assert _valid_spherical(g) is want, f
            seen.add(want)
    assert seen == {None, False, True}


@st.composite
def fibrations(draw):
    """A fibration over a random base, valid most of the time: one order
    may differ from its label, and e and the boundary bit may break the
    relation or make e = 0."""
    surface = draw(st.sampled_from([S2, RP2, D2]))
    label = st.integers(2, 12)
    cone_labels = draw(st.lists(label, max_size=4))
    corner_labels = draw(st.lists(label, max_size=4)) if surface is D2 else []
    orders = [list(cone_labels), list(corner_labels)]
    if draw(st.integers(0, 3)) == 0:
        side = orders[draw(st.integers(0, 1 if surface is D2 else 0))]
        edit = draw(st.sampled_from(["change", "drop", "add"]))
        if edit == "add" or not side:
            side.append(draw(label))
        elif edit == "drop":
            side.pop()
        else:
            side[-1] = draw(label)
    cones = [(draw(st.integers(0, b - 1)), b) for b in orders[0]]
    corners = [(draw(st.integers(0, b - 1)), b) for b in orders[1]]
    xi = (draw(st.integers(0, 1)),) if surface is D2 else ()
    s = sum((F(a, b) for a, b in cones), F(0)) + (
        sum((F(a, b) for a, b in corners), F(0)) + sum(xi)) / 2
    how = draw(st.sampled_from(["relation", "relation", "relation", "zero", "any"]))
    if how == "relation":
        e = draw(st.integers(-2, 2)) - s
    elif how == "zero":
        e = F(0)
    else:
        e = F(draw(st.integers(-30, 30)), draw(st.integers(1, 30)))
    base = TwoOrbifold(surface, cone_labels, corner_labels)
    return FiberedOrbifold(base, cones, corners, e, xi)


@settings(max_examples=600, deadline=None)
@given(fibrations())
def test_guard_on_random_fibrations(f):
    check_guard(f)


def _guard(f):
    with contextlib.suppress(ValueError):
        _require_normal_spherical(f)


def _text_validate(f):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run_command(["validate", str(f)])


def _two_fraction_route(f):
    with contextlib.suppress(ValueError):
        lens.classical_from_fibration(f)


@pytest.mark.parametrize("boundary", [_guard, cli.expression_report, _text_validate,
                                      _two_fraction_route])
@pytest.mark.parametrize("text, invalid", [
    ("S2(3,2); 1/3,1/2; ; -5/6", False),  # unsorted, valid and spherical
    ("S2(3,3); 1/3,2/3; ; 0", False),  # valid, e = 0
    ("S2(3,3); 1/3,1/3; ; -1", True),  # the relation fails
])
def test_each_boundary_takes_one_verdict(monkeypatch, boundary, text, invalid):
    """The guard, the report, text-mode `validate` and the two-fraction
    route each take their verdict from `core._verdict`: one normalize and
    one `_valid_spherical` pass, and `validate` only for an invalid input,
    counted in every module that holds them."""
    calls = Counter()
    for name in ("normalize", "_valid_spherical", "validate", "is_spherical"):
        original = getattr(core, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        for mod in (core, classify, cli, lens):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    boundary(cli.parse_fibration(text))
    assert calls == Counter(normalize=1, _valid_spherical=1, validate=int(invalid))


# -- the key -----------------------------------------------------------------


@contextlib.contextmanager
def label_arguments():
    """The Euler class (n, d) of each `_lens_label` call `_key` makes."""
    seen = []
    original = classify._lens_label

    def recording(cores, n, d):
        seen.append((n, d))
        return original(cores, n, d)

    classify._lens_label = recording
    try:
        yield seen
    finally:
        classify._lens_label = original


def check_key(g):
    """`_key(g)` is the oracle's key, and `_lens_label` gets e, or 2e on a
    disk, as its reduced (numerator, denominator)."""
    with label_arguments() as seen:
        assert classify._key(g) == oracle_key(g), g
    e = oracle_euler(g)
    assert seen == [(e.numerator, e.denominator)], g


def test_key_on_the_grid(two_label_grid):
    """Disk classes with odd and with even denominators both occur."""
    parities = set()
    for g in two_label_grid:
        check_key(g)
        if g.base.surface is D2:
            parities.add(g.euler.denominator % 2)
    assert parities == {0, 1}


@st.composite
def small_base_fibrations(draw):
    """A valid spherical S2(b1,b2) or D2(;b1,b2) fibration with labels up
    to 10,000 (1: no singular point)."""
    surface = draw(st.sampled_from([S2, D2]))
    pairs = []
    for _ in range(2):
        b = draw(st.integers(1, 10000))
        pairs.append((draw(st.integers(0, b - 1)), b))
    s = sum((F(a, b) for a, b in pairs), F(0))
    if surface is S2:
        e = draw(st.integers(-3, 3)) - s
        return normalize(FiberedOrbifold.from_data(S2, pairs, [], e or F(1)))
    xi = draw(st.integers(0, 1))
    e = draw(st.integers(-3, 3)) - (s + xi) / 2
    return normalize(FiberedOrbifold.from_data(D2, [], pairs, e or F(1), xi))


@settings(max_examples=300, deadline=None)
@given(small_base_fibrations())
def test_key_on_random_small_bases(g):
    check_key(g)


def test_classical_route_reads_the_same_label():
    """`lens_from_classical` converts its Fraction and calls the one label
    function: the same label or the same error as the oracle."""
    for b1 in range(1, 7):
        for b2 in range(1, 7):
            for a1 in range(-b1, b1 + 1):
                for a2 in range(b2):
                    data = lens.ClassicalSeifert((F(a1, b1), F(a2, b2)))
                    cores = tuple((x.numerator, x.denominator) for x in data.fractions)
                    try:
                        want = oracle_label(cores, data.euler)
                    except ValueError as exc:
                        with pytest.raises(ValueError) as info:
                            lens.lens_from_classical(data)
                        assert str(info.value) == str(exc)
                    else:
                        assert lens.lens_from_classical(data) == want
