from fractions import Fraction as F

import pytest

from seifert_orbifolds import classify, cli
from seifert_orbifolds.core import FiberedOrbifold, Surface, normalize


@pytest.fixture(autouse=True)
def _cold_memos():
    """Start each test with an empty classify._invariant memo and empty
    cli._reading and cli._quotient memos, so a test that counts the work
    behind an answer sees it done, not recalled from an earlier test."""
    classify._invariant.cache_clear()
    cli._reading.cache_clear()
    cli._quotient.cache_clear()


@pytest.fixture(scope="session")
def two_label_grid():
    """Every valid spherical S2(b1,b2) and D2(;b1,b2) fibration with labels
    <= 12 (label 1: no singular point) and 0 < |e| <= 1, a set closed
    under orientation reversal."""
    out = set()
    for b1 in range(1, 13):
        for b2 in range(b1, 13):
            for a1 in range(b1):
                for a2 in range(b2):
                    pairs, s = [(a1, b1), (a2, b2)], F(a1, b1) + F(a2, b2)
                    for k in range(-1, 3):
                        if 0 < abs(k - s) <= 1:
                            out.add(normalize(FiberedOrbifold.from_data(
                                Surface.SPHERE, pairs, [], k - s)))
                        for xi in (0, 1):
                            e = k - (s + xi) / 2
                            if 0 < abs(e) <= 1:
                                out.add(normalize(FiberedOrbifold.from_data(
                                    Surface.DISK, [], pairs, e, xi)))
    return sorted(out, key=str)
