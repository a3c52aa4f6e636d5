"""
An oracle that shares no code with the classifier, the group module or the
lens key: the orbifold fundamental group of a fibration over S2, counted
by Todd-Coxeter coset enumeration over the trivial subgroup, from the
Seifert presentation (Seifert 1933; Scott, "The geometries of
3-manifolds", 1983).

The generators are c_1 ... c_n, one per cone point with invariant a_i/b_i,
and the fibre h.  With b0 = -(e + sum a_i/b_i), an integer on S2, the
relations are
  - [c_i, h] = 1,
  - c_i^{b_i} h^{a_i} = 1,
  - c_1 ... c_n = h^{b0},
whose abelianization is the S2 case of `test_h1_oracle.relations`.  The
enumerator is the Hopcroft-Leech-Trotter strategy with the coincidence
procedure of Holt, Eick and O'Brien, "Handbook of computational group
theory" (2005), section 5.1.  Only `core` values and the parser are used:
the atlas is read as the command line prints it.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest

from seifert_orbifolds.cli import parse_fibration, run_command
from seifert_orbifolds.core import Surface

MAX_ORDER = 100  # the atlas bound of these checks
# the largest label of the grid fibrations checked against their key: all
# 6,162 S2 fibrations of the grid (labels <= 12) pass too, in about 6 s
GRID_LABEL = 8
MAX_COSETS = 200_000  # a runaway enumeration fails instead of hanging


def presentation(f):
    """(number of generators, relators) of the orbifold group of the S2
    fibration f.  A letter is 2k for generator k and 2k + 1 for its
    inverse; the cone generators come first and h is the last."""
    cones = f.cone_invariants
    n = len(cones)
    h = 2 * n
    b0 = -(f.euler + sum(Fraction(i.a, i.b) for i in cones))
    assert b0.denominator == 1, f

    def power(letter, k):
        return [letter if k > 0 else letter ^ 1] * abs(k)

    relators = []
    for k, i in enumerate(cones):
        c = 2 * k
        relators.append([c, h, c ^ 1, h ^ 1])
        relators.append(power(c, i.b) + power(h, i.a))
    relators.append([2 * k for k in range(n)] + power(h, -int(b0)))
    return n + 1, [r for r in relators if r]


def coset_table(gens, relators):
    """The coset table of the trivial subgroup: one row per coset, the
    identity first, giving the coset each letter takes it to."""
    letters = 2 * gens
    table = [[-1] * letters]
    parent = [0]  # a dead coset points towards the coset it merged with

    def define(c, x):
        d = len(table)
        if d >= MAX_COSETS:
            raise RuntimeError("more than %d cosets" % MAX_COSETS)
        table.append([-1] * letters)
        parent.append(d)
        table[c][x], table[d][x ^ 1] = d, c

    def rep(c):
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def merge(a, b, queue):
        a, b = rep(a), rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            parent[b] = a
            queue.append(b)

    def coincidence(a, b):
        queue = []
        merge(a, b, queue)
        for dead in queue:  # grows while it is read
            for x in range(letters):
                d = table[dead][x]
                if d < 0:
                    continue
                table[d][x ^ 1] = -1
                mu, nu = rep(dead), rep(d)
                if table[mu][x] >= 0:
                    merge(nu, table[mu][x], queue)
                elif table[nu][x ^ 1] >= 0:
                    merge(mu, table[nu][x ^ 1], queue)
                else:
                    table[mu][x], table[nu][x ^ 1] = nu, mu

    def scan_and_fill(c, word):
        f, b, i, j = c, c, 0, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] >= 0:
                f = table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][word[j] ^ 1] >= 0:
                b = table[b][word[j] ^ 1]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if i == j:  # a deduction
                table[f][word[i]], table[b][word[i] ^ 1] = b, f
                return
            define(f, word[i])

    c = 0
    while c < len(table):
        for word in relators:
            if parent[c] != c:
                break
            scan_and_fill(c, word)
        if parent[c] == c:
            for x in range(letters):
                if table[c][x] < 0:
                    define(c, x)
        c += 1
    live = [c for c in range(len(table)) if parent[c] == c]
    number = {c: k for k, c in enumerate(live)}
    return [[number[table[c][x]] for x in range(letters)] for c in live]


def group_size(f):
    return len(coset_table(*presentation(f)))


def element_orders(table, gens):
    """The order of each element, from the right regular action that the
    coset table of the trivial subgroup gives: the permutation of the
    element at coset c is built along a path from the identity, and its
    order is the length of its cycle through the identity."""
    size = len(table)
    perms = {0: list(range(size))}
    frontier = [0]
    while frontier:
        c = frontier.pop()
        for x in range(0, 2 * gens, 2):
            d = table[c][x]
            if d not in perms:
                perms[d] = [table[k][x] for k in perms[c]]
                frontier.append(d)
    orders = []
    for perm in perms.values():
        k, m = perm[0], 1
        while k:
            k, m = perm[k], m + 1
        orders.append(m)
    return orders


def _atlas(max_order):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_command(["--json", "atlas", "--max-order", str(max_order)]) == 0
    return [json.loads(line) for line in out.getvalue().splitlines()]


@pytest.fixture(scope="module")
def atlas():
    return _atlas(MAX_ORDER)


@pytest.mark.parametrize("text, order", [
    ("S2; ; -1", 1),  # S^3
    ("S2; ; -5", 5),  # L(5, 1)
    ("S2(2,2,2); 1/2,1/2,1/2; ; -1/2", 8),  # the quaternion space
    ("S2(2,3,3); 1/2,1/3,1/3; ; -1/6", 24),  # binary tetrahedral
    ("S2(2,3,5); 1/2,1/3,1/5; ; -1/30", 120),  # Poincare homology sphere
    ("S2(2,2,3); 0/2,0/2,1/3; ; -1/3", 12),  # an orbifold, not a manifold
])
def test_known_groups(text, order):
    assert group_size(parse_fibration(text)) == order


def test_group_order_is_the_atlas_order(atlas):
    """|pi_1^orb| of every S2-base row of the atlas, Hopf and anti-Hopf,
    is the order of its group."""
    rows = [(m["quotient"], m["order"]) for obj in atlas for m in obj["members"]
            if m["quotient"].startswith("(S2")]
    assert len(rows) > 200
    wrong = [(q, order, size) for q, order in rows
             if (size := group_size(parse_fibration(q))) != order]
    assert wrong == []


def _report(f):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_command(["--json", "classify", str(f)]) == 0
    return json.loads(out.getvalue())


def test_sphere_side_key_gives_the_group_order(two_label_grid):
    """Over S2 with at most two cone points, an orbifold keyed on the sphere side
    is L(p, q) with cores of indices iota: its group has order
    p * iota_1 * iota_2, and with iota = (1, 1) it is L(p, q) itself, whose
    group is cyclic of order p.  This checks the key's p with no lens code:
    the key is read from `--json classify`."""
    trivial = 0
    for f in two_label_grid:
        if f.base.surface is not Surface.SPHERE or max(f.base.cone_labels, default=1) > GRID_LABEL:
            continue
        key = _report(f)["diffeo_key"]
        assert key["class"] == "sphere", f
        p, iota = key["lens"]["p"], key["iota"]
        gens, relators = presentation(f)
        table = coset_table(gens, relators)
        assert len(table) == p * iota[0] * iota[1], (str(f), key)
        if iota == [1, 1]:
            assert max(element_orders(table, gens)) == p, (str(f), key)
            trivial += 1
    assert trivial > 20


def test_element_orders_tell_the_quaternion_space_from_a_lens_space():
    """The quaternion group of order 8 has one element of order 2 and six
    of order 4; Z/8 has an element of order 8."""
    quaternion = parse_fibration("S2(2,2,2); 1/2,1/2,1/2; ; -1/2")
    lens = parse_fibration("S2; ; -8")
    orders = [sorted(element_orders(coset_table(*presentation(f)), presentation(f)[0]))
              for f in (quaternion, lens)]
    assert orders[0] == [1, 2, 4, 4, 4, 4, 4, 4]
    assert max(orders[1]) == 8
