"""The classical skew translation and an equidistribution diagnostic.

One step maps (p, q) to (p + alpha, q + 2p) mod 1, with the q-update using
the pre-step p.  For irrational alpha the map is uniquely ergodic, so every
Birkhoff average of the character exp(2 pi i (m p + n q)) tends to its space
average 0; weyl_sum measures that decay along an orbit.  It is a diagnostic,
not a proof, and the thresholds used in tests are engineering choices.

Coordinates are reduced with `% 1`, which keeps Fractions exact; exactness
is only needed by the grid-permutation test, ordinary orbits run on floats.
"""

import cmath
import math
from collections import namedtuple


class TorusPoint(namedtuple("TorusPoint", "p q")):
    """Point on the unit torus; both coordinates reduced mod 1 on creation."""

    __slots__ = ()

    def __new__(cls, p, q):
        return super().__new__(cls, p % 1, q % 1)


def step(pt, alpha):
    """One iteration of the skew translation."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return TorusPoint(pt.p + alpha, pt.q + 2 * pt.p)


def orbit(pt0, alpha, T):
    """A generator of the first T points of the orbit, starting at pt0.

    T and alpha are checked at the call.  The points are step's, iterated:
    each coordinate is reduced once per step by the same % 1, and the point
    is made with tuple.__new__, which skips TorusPoint.__new__'s reduction.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if alpha <= 0:
        raise ValueError("alpha must be positive")

    def points(p, q, new=tuple.__new__):
        yield pt0
        for _ in range(T - 1):
            p, q = (p + alpha) % 1, (q + 2 * p) % 1
            yield new(TorusPoint, (p, q))

    return points(*pt0)


def weyl_sum(pt0, alpha, mode, T):
    """Birkhoff average (1/T) sum_t exp(2 pi i (m p_t + n q_t)) over the orbit.

    The mode is checked first, then T and alpha, by orbit.
    """
    m, n = mode
    if m == 0 and n == 0:
        raise ValueError("mode (0,0) is the constant character; pick (m,n) != (0,0)")
    acc = 0j
    for pt in orbit(pt0, alpha, T):
        acc += cmath.exp(2j * math.pi * (m * float(pt.p) + n * float(pt.q)))
    return acc / T

