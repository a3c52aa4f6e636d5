"""Checks computed apart from the classifier.

Nothing here imports `seifert_orbifolds`.  Fibration texts are read by a
parser of our own, and every expected value comes from exact arithmetic
written here:

* the sum relation  e + sum a/b + (sum a'/b' + xi)/2 = 0 (mod 1);
* the orbifold order |pi_1^orb| = 4|e| / chi(base)^2, which must equal the
  group order of a quotient and be constant over a diffeomorphism class;
* the quotient model of a lens space: the flow vector w = (alpha,
  alpha*q + beta*p) gives a fibration of L(p, q) with cone orders |w1|,
  |w2|, Euler class -p/(w1*w2) and invariants from a unimodular solve.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

SURFACES = ("S2", "RP2", "D2")


class Fib:
    """A fibered orbifold as plain data: surface, invariant pairs, e, xi."""

    __slots__ = ("surface", "cones", "corners", "euler", "xi")

    def __init__(self, surface, cones, corners, euler, xi=()):
        if surface not in SURFACES:
            raise ValueError("unknown surface %r" % (surface,))
        self.surface = surface
        self.cones = tuple((a % b, b) for a, b in cones if b != 1)
        self.corners = tuple((a % b, b) for a, b in corners if b != 1)
        self.euler = Fraction(euler)
        self.xi = tuple(xi)

    def canonical(self):
        return (self.surface, tuple(sorted(self.cones, key=lambda x: (x[1], x[0]))),
                tuple(sorted(self.corners, key=lambda x: (x[1], x[0]))),
                self.euler, self.xi)

    def mirror(self):
        xi = self.xi
        if self.surface == "D2":
            xi = (solve_xi([(-a, b) for a, b in self.cones],
                           [(-a, b) for a, b in self.corners], -self.euler),)
        return Fib(self.surface, [(-a, b) for a, b in self.cones],
                   [(-a, b) for a, b in self.corners], -self.euler, xi)

    def text(self):
        """The compact command-line notation, boundary bit explicit."""
        cone_labels = ",".join(str(b) for _, b in self.cones)
        inv = lambda pairs: ",".join("%d/%d" % ab for ab in pairs)
        e = fmt_rational(self.euler)
        if self.surface == "D2":
            corner_labels = ",".join(str(b) for _, b in self.corners)
            base = "D2(%s;%s)" % (cone_labels, corner_labels) if self.cones or self.corners else "D2"
            return "%s; %s; %s; %s; %d" % (base, inv(self.cones), inv(self.corners), e, self.xi[0])
        base = "%s(%s)" % (self.surface, cone_labels) if self.cones else self.surface
        return "%s; %s; ; %s" % (base, inv(self.cones), e)


def fmt_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def solve_xi(cones, corners, euler) -> int:
    s = Fraction(euler) + sum(Fraction(a, b) for a, b in cones)
    s += sum(Fraction(a, b) for a, b in corners) / Fraction(2)
    t = (-2 * s) % 2
    if t.denominator != 1:
        raise ValueError("no boundary bit closes the relation")
    return int(t)


def _split_top(text):
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == ";" and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    return parts


def _pairs(text):
    out = []
    for piece in filter(None, (s.strip() for s in text.split(","))):
        a, b = piece.split("/")
        out.append((int(a), int(b)))
    return out


def _labels(text):
    return sorted(int(s) for s in text.split(",") if s.strip())


def parse(text: str) -> Fib:
    """Read both the command-line notation and the printed form
    ``(S2(2,2,4); 0/2,0/2,2/4; -1/2)``; base labels must match the
    invariant orders."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    parts = _split_top(text)
    base = parts[0]
    name, _, inner = base.partition("(")
    inner = inner.rstrip(")")
    cone_txt, _, corner_txt = inner.partition(";")
    if name == "D2":
        if len(parts) != 5:
            raise ValueError("disk fibration needs five fields: %r" % text)
        cones, corners = _pairs(parts[1]), _pairs(parts[2])
        euler, xi = Fraction(parts[3]), (int(parts[4]),)
    else:
        cones = _pairs(parts[1])
        corners = _pairs(parts[2]) if len(parts) == 4 else []
        euler, xi = Fraction(parts[-1]), ()
    f = Fib(name, cones, corners, euler, xi)
    if _labels(cone_txt) != sorted(b for _, b in f.cones) or \
            _labels(corner_txt) != sorted(b for _, b in f.corners):
        raise ValueError("base labels do not match invariants in %r" % text)
    return f


def relation_holds(f: Fib) -> bool:
    s = f.euler + sum(Fraction(a, b) for a, b in f.cones)
    s += (sum(Fraction(a, b) for a, b in f.corners) + sum(f.xi)) / Fraction(2)
    return s.denominator == 1


def chi(f: Fib) -> Fraction:
    c = Fraction(2 if f.surface == "S2" else 1)
    c -= sum(1 - Fraction(1, b) for _, b in f.cones)
    c -= sum(1 - Fraction(1, b) for _, b in f.corners) / Fraction(2)
    return c


def orbifold_order(f: Fib) -> Fraction:
    """4|e| / chi^2: the order of pi_1^orb for a spherical orbifold over a
    good base."""
    return 4 * abs(f.euler) / chi(f) ** 2


def is_normal_form_of(out: Fib, inp: Fib) -> bool:
    """`out` is `inp` with each invariant list sorted by (b, a)."""
    want = inp.canonical()
    return out.canonical() == want and \
        (out.cones, out.corners) == (want[1], want[2])


# -- lens spaces from the quotient model -------------------------------------


def unimodular(alpha: int, beta: int) -> tuple[int, int]:
    """(x, y) with y*alpha - x*beta = 1, by a modular inverse."""
    if alpha == 1:
        return 0, 1
    x = -pow(beta, -1, alpha)
    y, rem = divmod(1 + x * beta, alpha)
    if rem:
        raise ArithmeticError("unimodular solve failed for (%d, %d)" % (alpha, beta))
    return x, y


def lens_fibration(p: int, q: int, alpha: int, beta: int) -> Fib:
    """The fibration of L(p, q) by the flow w = (alpha, alpha*q + beta*p).

    Requires alpha >= 1, gcd(alpha, beta) = 1 and w2 != 0.  Pole 1 carries
    -x/alpha; pole 2 reads x*q + y*p over |w2|, negated when w2 < 0.
    """
    w1, w2 = alpha, alpha * q + beta * p
    if w1 < 1 or w2 == 0 or gcd(alpha, beta) != 1:
        raise ValueError("not a fibration vector: (%d, %d)" % (w1, w2))
    x, y = unimodular(alpha, beta)
    t = x * q + y * p
    a2 = t if w2 > 0 else -t
    f = Fib("S2", [(-x, w1), (a2, abs(w2))], [], Fraction(-p, w1 * w2))
    if not relation_holds(f):
        raise ArithmeticError("model violates the sum relation: %s" % f.text())
    return f


def disk_side(f: Fib) -> Fib:
    """The disk orbifold whose boundary double cover is the two-cone `f`."""
    e = f.euler / 2
    return Fib("D2", [], f.cones, e, (solve_xi([], f.cones, e),))


def same_lens(p: int, q: int, got_p: int, got_q: int) -> bool:
    """L(got_p, got_q) is L(p, q) up to exchanging the cores (q <-> 1/q)."""
    if got_p != p:
        return False
    if p == 1:
        return True
    return (got_q - q) % p == 0 or (got_q * q - 1) % p == 0
