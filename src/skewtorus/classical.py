"""The classical skew translation and its orbits.

One step maps (p, q) to (p + alpha, q + 2p) mod 1, with the q-update using
the pre-step p.  For irrational alpha the map is uniquely ergodic, so every
Birkhoff average of the character exp(2 pi i (m p + n q)) along an orbit
tends to its space average 0.

Coordinates are reduced with `% 1`, which keeps Fractions exact; exactness
is only needed by the grid-permutation test, ordinary orbits run on floats.
"""

from collections import namedtuple


class TorusPoint(namedtuple("TorusPoint", "p q")):
    """Point on the unit torus; both coordinates reduced mod 1 on creation."""

    __slots__ = ()

    def __new__(cls, p, q):
        return super().__new__(cls, p % 1, q % 1)


def orbit(pt0, alpha, T):
    """A generator of the first T points of the orbit, starting at pt0.

    T and alpha are checked at the call.  Each step reduces each coordinate
    once by % 1, and the point is made with tuple.__new__, which skips
    TorusPoint.__new__'s second reduction.
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
