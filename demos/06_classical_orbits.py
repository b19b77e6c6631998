"""The classical skew translation and its equidistribution.

The map sends (p, q) to (p + alpha, q + 2p) on the unit torus.  For
irrational alpha every orbit equidistributes, which Weyl sums make
quantitative: the averaged exponential along the orbit tends to zero for
every nonzero integer mode.  For rational alpha it does not.
"""

import cmath
import math
from fractions import Fraction

from skewtorus import TorusPoint, orbit

GOLD = (1 + 5**0.5) / 2


def weyl_average(pt0, alpha, mode, T):
    """(1/T) sum_t exp(2 pi i (m p_t + n q_t)) over the first T orbit points."""
    m, n = mode
    acc = 0j
    for pt in orbit(pt0, alpha, T):
        acc += cmath.exp(2j * math.pi * (m * float(pt.p) + n * float(pt.q)))
    return acc / T


print("first orbit points, alpha = golden, start (0, 0):")
for t, pt in enumerate(orbit(TorusPoint(0.0, 0.0), GOLD, 8)):
    print(f"  t={t}:  p={pt.p:.6f}  q={pt.q:.6f}")

print("\nWeyl sums |avg exp(2 pi i (m p + n q))| along T steps, alpha = golden:")
for mode in ((1, 0), (0, 1), (2, 3)):
    row = "  ".join(
        f"T=10^{k}: {abs(weyl_average(TorusPoint(0.0, 0.0), GOLD, mode, 10**k)):.4f}"
        for k in (2, 3, 4)
    )
    print(f"  mode {mode}:  {row}")

print("\nrational alpha = 1/2 stays coherent instead (period-4 orbit):")
for mode in ((2, 0), (0, 2)):
    s = abs(weyl_average(TorusPoint(Fraction(0), Fraction(0)), Fraction(1, 2), mode, 10_000))
    print(f"  mode {mode}:  |Weyl sum| = {s:.6f}")
