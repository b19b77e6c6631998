"""Classical skew translation: single steps, orbits, Weyl equidistribution.

The reference for one step is the map written out,
TorusPoint(p + alpha, q + 2 * p).  Thresholds on the Weyl averages are
engineering choices, generous enough to be stable across platforms while
still separating irrational from rational rotation numbers.
"""

import cmath
import math
import random
from fractions import Fraction

import pytest

from skewtorus.classical import TorusPoint, orbit

GOLDEN_FLOAT = (1 + 5**0.5) / 2


def step(pt, alpha):
    """Orbit's second point: one step of the map."""
    return list(orbit(pt, alpha, 2))[1]


def weyl_average(pt0, alpha, mode, T):
    """(1/T) sum_t exp(2 pi i (m p_t + n q_t)) along the orbit."""
    m, n = mode
    pts = orbit(pt0, alpha, T)
    return sum(cmath.exp(2j * math.pi * (m * float(p) + n * float(q))) for p, q in pts) / T


def test_step_examples():
    pt = step(TorusPoint(0.0, 0.0), 0.5)
    assert (pt.p, pt.q) == (0.5, 0.0)
    pt = step(TorusPoint(0.25, 0.1), 0.5)
    assert (pt.p, pt.q) == (0.75, 0.6)
    pt = step(TorusPoint(0.75, 0.9), 0.5)
    assert abs(pt.p - 0.25) < 1e-15 and abs(pt.q - 0.4) < 1e-15


def test_step_uses_pre_step_p():
    # q advances by 2p of the point being mapped, not the new p
    pt = step(TorusPoint(0.3, 0.0), 0.123)
    assert abs(pt.q - 0.6) < 1e-15


def test_point_reduction():
    pt = TorusPoint(1.25, -0.25)
    assert (pt.p, pt.q) == (0.25, 0.75)
    pt = TorusPoint(Fraction(7, 3), Fraction(-1, 3))
    assert (pt.p, pt.q) == (Fraction(1, 3), Fraction(2, 3))
    pt = TorusPoint(0.25, 0.5)
    assert repr(pt) == "TorusPoint(p=0.25, q=0.5)"
    assert pt == TorusPoint(1.25, -0.5) and hash(pt) == hash(TorusPoint(1.25, -0.5))
    for field in ("p", "q"):
        with pytest.raises(AttributeError):
            setattr(pt, field, 0.0)


def test_orbit_length_and_start():
    pts = list(orbit(TorusPoint(0.1, 0.2), 0.5, 4))
    assert len(pts) == 4
    assert pts[0] == TorusPoint(0.1, 0.2)
    assert pts[1] == TorusPoint(0.1 + 0.5, 0.2 + 2 * 0.1)
    with pytest.raises(ValueError):
        orbit(TorusPoint(0, 0), 0.5, 0)
    with pytest.raises(ValueError):
        orbit(TorusPoint(0, 0), 0.0, 1)


def test_step_is_grid_bijection():
    # rational alpha with denominator dividing the grid permutes the grid
    g = 12
    alpha = Fraction(5, 12)
    pts = {
        TorusPoint(Fraction(i, g), Fraction(j, g)) for i in range(g) for j in range(g)
    }
    image = {step(pt, alpha) for pt in pts}
    assert image == pts


def test_weyl_sum_decays_for_irrational_alpha():
    val = weyl_average(TorusPoint(0.2, 0.7), GOLDEN_FLOAT, (1, 0), 100_000)
    assert abs(val) < 0.02
    val = weyl_average(TorusPoint(0.2, 0.7), GOLDEN_FLOAT, (0, 1), 100_000)
    assert abs(val) < 0.02


def test_weyl_sum_stays_large_for_rational_alpha():
    # alpha = 1/2 and mode (2,0): exp(4 pi i p_t) is constant along the orbit
    val = weyl_average(TorusPoint(0.2, 0.7), 0.5, (2, 0), 100_000)
    assert abs(abs(val) - 1.0) < 1e-9


def test_weyl_sum_trend():
    # averaged over random starts, longer orbits give smaller averages
    rnd = random.Random(17)
    starts = [TorusPoint(rnd.random(), rnd.random()) for _ in range(10)]
    short = sum(abs(weyl_average(s, GOLDEN_FLOAT, (1, 1), 300)) for s in starts) / 10
    long = sum(abs(weyl_average(s, GOLDEN_FLOAT, (1, 1), 30_000)) for s in starts) / 10
    assert long < short


def test_orbit_equals_step_iterated():
    # orbit's loop makes the same numbers as the map written out, point by point
    alphas = (0.5, 0.6180339887498949, 2**0.5 - 1, 1e-9, 0.999999999, 1.0, Fraction(2, 7))
    starts = (
        TorusPoint(0.1, 0.2),
        TorusPoint(0.0, 0.0),
        TorusPoint(-1e-20, 0.75),  # p % 1 is 1.0 here
        TorusPoint(0.999999999999, 1e-300),
        TorusPoint(Fraction(1, 3), Fraction(5, 7)),
    )
    for alpha in alphas:
        for pt0 in starts:
            for T in (1, 2, 17, 3000):
                want = [pt0]
                for _ in range(T - 1):
                    p, q = want[-1]
                    want.append(TorusPoint(p + alpha, q + 2 * p))
                got = list(orbit(pt0, alpha, T))
                assert got == want, (alpha, pt0, T)
                assert all(type(pt) is TorusPoint for pt in got)
                assert [type(x) for pt in got for x in pt] == [type(x) for pt in want for x in pt]
