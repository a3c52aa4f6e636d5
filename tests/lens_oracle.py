"""The full fibration matcher, the tests' reference for the lens label.

`lens._lens_label` names L(p, q) by the closed form that `lens.py`'s module
docstring proves.  `match_fibration` checks a candidate the long way, by
the quotient model alone: it redoes the unimodular solve and reads both
poles.  The tests scan every residue q < p with it and compare the label
they find with the closed form.  It shares no code with `src/`.
"""

from math import gcd


def match_fibration(p, q, cores, n, d) -> bool:
    """Whether L(p, q) carries the fibration with the given core data and
    Euler class e = n/d, d > 0.

    cores = ((a1, b1), (a2, b2)) in a fixed order (pole 1, pole 2); the
    flow vector is pinned by w1 = b1 > 0 and e = -p/(w1*w2).  All checks
    run in integers.
    """
    (a1, b1), (a2, b2) = cores
    w1 = b1
    w2, rem = divmod(-p * d, n * w1)
    if rem or abs(w2) != b2:
        return False
    if (w2 - q * w1) % p != 0:
        return False
    beta = (w2 - q * w1) // p
    alpha = w1
    if gcd(alpha, beta) != 1:
        return False
    # Unimodular solve: y*alpha - x*beta = 1 gives the deck transformation
    # generating the local group at each pole.  The pole-2 reading follows
    # the flow, so it negates when the flow runs backwards in z2.  Any
    # solution gives the same readings: shifting (x, y) by k*(alpha, beta)
    # keeps -x mod b1 (alpha = b1) and moves t by k*w2, with |w2| = b2.
    x = -pow(beta, -1, alpha)
    y = (1 + x * beta) // alpha
    if (-x) % b1 != a1 % b1:
        return False
    t = x * q + y * p
    a2x = t % b2 if w2 > 0 else (-t) % b2
    if a2x != a2 % b2:
        return False
    # a realizable reading always satisfies the sum relation
    # n/d + ((-x) % b1)/b1 + a2x/b2 = 0 (mod 1), here multiplied by d*b1*b2
    return (n * b1 * b2 + ((-x) % b1) * d * b2 + a2x * d * b1) % (d * b1 * b2) == 0
