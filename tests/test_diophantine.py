"""Rational approximation: brackets, convergents, nearest approximants, gcd families.

Oracles: an 80-digit mpmath value of each preset checks every bracket and
rounding decision from the outside, and an exact Fraction fold of the cf
prefix checks the convergent recursion.
"""

import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest

from skewtorus.diophantine import (
    Approximant,
    IrrationalAlpha,
    PrecisionExhaustedError,
    approximants_with_gcd,
    bracket,
    certify_approximant,
    convergents,
    golden,
    nearest_approximant,
    parse_alpha,
    sqrt2,
)

mpmath.mp.dps = 80

GOLDEN_MP = (1 + mpmath.sqrt(5)) / 2
SQRT2_MP = mpmath.sqrt(2)
PI_CF = (3, 7, 15, 1, 292, 1, 1, 1, 2, 1, 3, 1, 14)

ORACLES = [
    (golden(), GOLDEN_MP),
    (sqrt2(), SQRT2_MP),
    (IrrationalAlpha(PI_CF), mpmath.pi),
]


def mpf(frac):
    return mpmath.fraction(frac.numerator, frac.denominator)


def test_presets():
    assert golden().cf == (1,) * 64
    assert golden().name == "golden"
    assert sqrt2().cf[:4] == (1, 2, 2, 2)
    assert sqrt2(terms=10).cf == (1,) + (2,) * 9
    assert repr(golden(3)) == "IrrationalAlpha(golden:1,1,1)"
    assert repr(IrrationalAlpha([3, 7])) == "IrrationalAlpha(cf:3,7)"


def test_parse_alpha():
    assert parse_alpha("golden") == golden()
    assert parse_alpha("sqrt2") == sqrt2()
    assert parse_alpha("cf:1,2,2,2") == IrrationalAlpha((1, 2, 2, 2))
    with pytest.raises(ValueError):
        parse_alpha("phi")
    with pytest.raises(ValueError):
        parse_alpha("cf:1,x,2")


def test_cf_validation():
    with pytest.raises(ValueError, match="prefix must be nonempty"):
        IrrationalAlpha(())
    with pytest.raises(ValueError, match="first cf coefficient must be >= 0"):
        IrrationalAlpha((-1, 2))
    with pytest.raises(ValueError, match="after the first must be >= 1"):
        IrrationalAlpha((1, 0, 2))
    alpha = IrrationalAlpha((0, 2))  # first coefficient may be 0
    assert alpha == IrrationalAlpha(["0", 2.0]) and alpha.cf == (0, 2)
    assert hash(alpha) == hash(IrrationalAlpha((0, 2), ""))
    for field in ("cf", "name"):
        with pytest.raises(AttributeError):
            setattr(alpha, field, ())


def test_bracket_contains_true_value():
    for alpha, val in ORACLES:
        lo, hi = bracket(alpha)
        assert lo < hi
        assert mpf(lo) < val < mpf(hi)


def test_bracket_single_coefficient():
    assert bracket(IrrationalAlpha((3,))) == (Fraction(3), Fraction(4))


def test_convergents_frozen():
    assert convergents(golden(), 5) == [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5)]
    assert convergents(sqrt2(), 3) == [(1, 1), (3, 2), (7, 5)]
    assert convergents(IrrationalAlpha(PI_CF), 4) == [
        (3, 1),
        (22, 7),
        (333, 106),
        (355, 113),
    ]


def test_first_convergent_has_denominator_one():
    for alpha, _ in ORACLES:
        assert convergents(alpha, 1)[0][1] == 1


def test_convergents_match_fraction_foldback():
    # fold the prefix from the tail: [a0; a1, ..., am] = a0 + 1/(a1 + ...)
    rnd = random.Random(7)
    for _ in range(25):
        cf = [rnd.randint(0, 9)] + [rnd.randint(1, 9) for _ in range(rnd.randint(1, 12))]
        val = Fraction(cf[-1])
        for c in reversed(cf[:-1]):
            val = c + 1 / val
        p, q = convergents(IrrationalAlpha(cf), len(cf))[-1]
        assert Fraction(p, q) == val
        assert gcd(p, q) == 1


def test_convergent_quality():
    # |alpha - p/q| < 1/q^2, checked against the high-precision oracle
    for alpha, val in ORACLES:
        for p, q in convergents(alpha, 8):
            assert abs(val - mpmath.fraction(p, q)) < mpmath.fraction(1, q * q)


def test_convergents_precision_exhausted():
    with pytest.raises(PrecisionExhaustedError):
        convergents(golden(8), 9)
    with pytest.raises(ValueError):
        convergents(golden(), 0)


def test_nearest_matches_oracle_rounding():
    for alpha, val in ORACLES:
        for N in range(1, 201):
            app = nearest_approximant(alpha, N)
            assert app.a == int(mpmath.nint(N * val))
            assert abs(val - mpmath.fraction(app.a, N)) < mpmath.fraction(1, 2 * N)


def test_nearest_examples():
    assert nearest_approximant(sqrt2(), 1) == Approximant(1, 1)
    app = nearest_approximant(golden(), 5)
    assert (app.a, app.N, app.D) == (8, 5, 1)
    app = nearest_approximant(sqrt2(), 10)
    assert (app.a, app.N, app.D) == (14, 10, 2)


def test_nearest_certifies():
    for alpha, _ in ORACLES:
        for N in (1, 7, 30, 144):
            app = nearest_approximant(alpha, N)
            assert certify_approximant(alpha, app.a, app.N)


def test_nearest_precision_exhausted():
    with pytest.raises(PrecisionExhaustedError):
        nearest_approximant(golden(4), 10**6)
    with pytest.raises(ValueError):
        nearest_approximant(golden(), 0)


def test_approximant_fields():
    app = Approximant(24, 15)
    assert app.D == 3 and app.M == 5
    assert app.D * app.M == app.N
    assert app.a % app.D == 0
    assert repr(app) == "Approximant(a=24, N=15)"
    assert app == Approximant(24, 15) and hash(app) == hash(Approximant(24, 15))
    assert app != Approximant(24, 16)
    for field in ("a", "N"):
        with pytest.raises(AttributeError):
            setattr(app, field, 1)
    with pytest.raises(ValueError, match="N must be >= 1"):
        Approximant(1, 0)
    with pytest.raises(ValueError, match="a must be >= 0"):
        Approximant(-1, 5)


def test_families_frozen():
    g = golden()
    assert [(x.a, x.N) for x in approximants_with_gcd(g, 1, 3)] == [
        (3, 2),
        (5, 3),
        (8, 5),
    ]
    assert [(x.a, x.N) for x in approximants_with_gcd(g, 2, 3)] == [
        (16, 10),
        (26, 16),
        (42, 26),
    ]
    assert [(x.a, x.N) for x in approximants_with_gcd(g, 3, 3)] == [
        (39, 24),
        (63, 39),
        (102, 63),
    ]
    # sqrt2 with D=1 starts at the first convergent with q >= 2
    assert approximants_with_gcd(sqrt2(), 1, 1) == [Approximant(3, 2)]


def test_family_members_certified():
    for alpha, val in ORACLES:
        for D in (1, 2, 3, 5):
            members = approximants_with_gcd(alpha, D, 3)
            assert [m.N for m in members] == sorted(m.N for m in members)
            for m in members:
                assert m.D == D
                assert certify_approximant(alpha, m.a, m.N)
                assert abs(val - mpmath.fraction(m.a, m.N)) < mpmath.fraction(1, 2 * m.N)
                # scaling respects the validity condition q >= 2D
                assert m.N // D >= 2 * D


def test_scaled_gcd_random_coprime():
    rnd = random.Random(3)
    done = 0
    while done < 200:
        p, q = rnd.randint(1, 10**6), rnd.randint(1, 10**6)
        if gcd(p, q) != 1:
            continue
        D = rnd.randint(1, 50)
        assert gcd(D * p, D * q) == D
        done += 1


def test_scaled_convergent_is_the_nearest_approximant():
    # Eq-style uniqueness: the scaled pair is THE approximant at its N
    g = golden()
    for D in (1, 2, 3, 4):
        for m in approximants_with_gcd(g, D, 3):
            assert nearest_approximant(g, m.N) == m


def test_family_count_zero():
    assert approximants_with_gcd(golden(), 3, 0) == []


def test_family_precision_exhausted():
    with pytest.raises(PrecisionExhaustedError):
        approximants_with_gcd(golden(5), 3, 10)
    with pytest.raises(ValueError):
        approximants_with_gcd(golden(), 0, 1)
