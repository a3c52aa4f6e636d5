"""
An oracle for the fibration classes that shares no code with the rewrite
rules, the bridges or the lens key: H1, the abelianization of the orbifold
fundamental group, a diffeomorphism invariant computed from the Seifert
invariants alone by Smith normal form (Seifert 1933; Scott, "The
geometries of 3-manifolds", 1983; Dunbar, "Geometric orbifolds", 1988).

The generators are c_i, one per cone point with invariant a_i/b_i, and
the fibre h.  With b0 = -(e + sum a_i/b_i), an integer on S2 and RP2:
  - S2: b_i c_i + a_i h = 0 and sum c_i - b0 h = 0;
  - RP2: a crosscap v besides, with b_i c_i + a_i h = 0,
    2v + sum c_i - b0 h = 0 and 2h = 0;
  - D2 with corners m_1 ... m_k (invariants a'_j/m_j) and boundary bit xi:
    mirror edges s_0 ... s_{max(k,1)-1} besides, with 2h = 0, 2s_j = 0,
    b_i c_i + a_i h = 0, and m_j (s_{j-1} + s_j) - a'_j h = 0 for each
    corner, where s_k stands for s_0 + xi h; with no corner, xi h = 0.
The README's class, whose members lie over S2, D2 with a cone point and
D2 with corners, and the quaternion space, fibered over S2(2,2,2) and
over RP2, pin these conventions.  The oracle imports only `core` and the
parser, and reads the atlas as the command line prints it.
"""

import contextlib
import io
import json
from collections import Counter
from functools import cache
from math import prod

from seifert_orbifolds.cli import parse_fibration, run_command
from seifert_orbifolds.core import Surface, normalize, reverse_orientation


def relations(f):
    """(rows, n): the relations above as integer rows over n generators,
    the cone points first and h last."""
    cones, corners = f.cone_invariants, f.corner_invariants
    surface = f.base.surface
    if surface is Surface.DISK:
        edges = max(len(corners), 1)
    else:
        edges = int(surface is Surface.PROJECTIVE_PLANE)
    n = len(cones) + edges + 1
    h, s = n - 1, len(cones)  # s: the first mirror edge, or the crosscap

    def row(*terms):
        out = [0] * n
        for column, value in terms:
            out[column] += value
        return out

    rows = [row((i, c.b), (h, c.a)) for i, c in enumerate(cones)]
    if surface is Surface.DISK:
        xi = f.xi[0]
        rows += [row((h, 2))] + [row((s + j, 2)) for j in range(edges)]
        if not corners:
            rows.append(row((h, xi)))
        for j, c in enumerate(corners):
            after = (s + j + 1, c.b) if j + 1 < len(corners) else (s, c.b)
            twist = c.b * xi if j + 1 == len(corners) else 0
            rows.append(row((s + j, c.b), after, (h, twist - c.a)))
        return rows, n
    b0 = -(f.euler + sum(c.value for c in cones))
    assert b0.denominator == 1, f
    total = row(*((i, 1) for i in range(len(cones))), (h, -b0.numerator))
    if edges:
        total[s] = 2
        rows.append(row((h, 2)))
    return rows + [total], n


def invariant_factors(rows, n):
    """(free rank, torsion coefficients d_1 | d_2 | ... above 1) of Z^n
    modulo the integer rows, by Smith normal form."""
    a = [list(r) for r in rows if any(r)]
    diagonal = []
    while a:
        i, j = min(((i, j) for i, r in enumerate(a) for j, v in enumerate(r) if v),
                   key=lambda ij: abs(a[ij[0]][ij[1]]))
        p = a[i][j]
        for k in range(len(a)):  # clear column j by row operations
            if k != i and a[k][j]:
                q = a[k][j] // p
                a[k] = [x - q * y for x, y in zip(a[k], a[i])]
        for col in range(n):  # clear row i by column operations
            if col != j and a[i][col]:
                q = a[i][col] // p
                for r in a:
                    r[col] -= q * r[j]
        if any(a[k][j] for k in range(len(a)) if k != i) or any(
                a[i][col] for col in range(n) if col != j):
            continue  # a remainder smaller than p is left: pivot on it
        rest = next((r for k, r in enumerate(a) if k != i and any(v % p for v in r)), None)
        if rest is not None:  # p must divide every later entry
            a[i] = [x + y for x, y in zip(a[i], rest)]
            continue
        diagonal.append(abs(p))
        del a[i]
        a = [r for r in a if any(r)]
    return n - len(diagonal), tuple(d for d in diagonal if d > 1)


@cache
def h1(f):
    """H1 of the normal form f, as (free rank, torsion coefficients)."""
    return invariant_factors(*relations(f))


def read(text):
    return normalize(parse_fibration(text))


@cache
def atlas_classes(max_order):
    """The --json atlas classes, each as (fibrations, members): the normal
    forms of its fibration list (none for an infinite class), and
    (group order, normal form) for each of its rows."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_command(["--json", "atlas", "--max-order", str(max_order)]) == 0
    classes = []
    for line in out.getvalue().splitlines():
        c = json.loads(line)
        classes.append(([read(t) for t in c["fibrations"] or ()],
                        [(m["order"], read(m["quotient"])) for m in c["members"]]))
    return classes


def test_conventions_pinned_by_known_classes():
    # the README's class: S^3 mod a group with H1 = (Z/2)^3, over S2, over
    # D2 with a cone point and over D2 with corners
    for text in ("S2(2,2,4); 0/2,0/2,2/4; ; -1/2", "D2(2;); 0/2; ; 2; 0",
                 "D2(;2,2,4); ; 1/2,1/2,1/4; -1/8; 1"):
        assert h1(read(text)) == (0, (2, 2, 2)), text
    # the quaternion space, H1(Q8) = (Z/2)^2, over S2(2,2,2) and over RP2
    for text in ("S2(2,2,2); 1/2,1/2,1/2; -1/2", "RP2; ; 2"):
        assert h1(read(text)) == (0, (2, 2)), text
    # L(4,1) over RP2 and over S2(2,2); the lens spaces L(p,1); S^3
    for text in ("RP2; ; 1", "S2(2,2); 1/2,1/2; -1"):
        assert h1(read(text)) == (0, (4,)), text
    for p in (2, 3, 12):
        assert h1(read("S2; ; -%d" % p)) == (0, (p,))
    assert h1(read("S2; ; -1")) == (0, ())


def test_every_atlas_400_class_has_one_h1():
    """Every listed fibration and every row of a class give one H1, and
    H1 tells apart most pairs of classes whose group orders are equal."""
    by_order = {}
    crossing = 0
    for fibrations, members in atlas_classes(400):
        values = fibrations + [f for _, f in members]
        found = {h1(f) for f in values}
        assert len(found) == 1, values
        by_order.setdefault(members[0][0], Counter()).update(found)
        crossing += len({f.base.surface for f in values}) > 1
    assert len(atlas_classes(400)) == 3327 and crossing > 2000
    pairs = apart = 0
    for counts in by_order.values():
        total = sum(counts.values())
        pairs += total * (total - 1) // 2
        apart += total * (total - 1) // 2 - sum(k * (k - 1) // 2 for k in counts.values())
    assert apart > 0.8 * pairs


def test_mirror_has_the_same_h1():
    values = {f for fibrations, members in atlas_classes(400)
              for f in fibrations + [g for _, g in members]}
    assert len(values) > 6000
    for f in values:
        assert h1(reverse_orientation(f)) == h1(f), f


def test_h1_order_divides_the_group_order():
    """H1 is a quotient of the finite group S^3 mod G: it has no free part
    and its order divides |G|."""
    rows = 0
    for _, members in atlas_classes(400):
        for order, f in members:
            free, torsion = h1(f)
            assert free == 0 and order % prod(torsion) == 0, (order, f)
            rows += 1
    assert rows > 6000
