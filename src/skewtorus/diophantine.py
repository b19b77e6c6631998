"""Exact rational approximation of the map parameter alpha.

alpha is represented by a finite prefix of the continued-fraction expansion
of an irrational number.  The prefix pins the value into an open rational
interval (between the last convergent and its mediant with the previous
one), so every rounding decision below is made in exact integer arithmetic.
When the prefix is too short to decide a request, operations raise
PrecisionExhaustedError instead of silently truncating or guessing.
"""

from collections import namedtuple
from fractions import Fraction
from math import floor, gcd


class PrecisionExhaustedError(ValueError):
    """The continued-fraction prefix is too short to decide the request."""


class IrrationalAlpha(namedtuple("IrrationalAlpha", "cf name")):
    """Irrational parameter given by a continued-fraction prefix.

    cf is the coefficient tuple (a0; a1, a2, ...) with a0 >= 0 and all later
    coefficients >= 1.  It is treated as the prefix of an infinite expansion,
    so the represented value is strictly between the bounds of bracket().
    """

    __slots__ = ()

    def __new__(cls, cf, name=""):
        cf = tuple(int(c) for c in cf)
        if not cf:
            raise ValueError("continued-fraction prefix must be nonempty")
        if cf[0] < 0:
            raise ValueError("first cf coefficient must be >= 0")
        if any(c < 1 for c in cf[1:]):
            raise ValueError("cf coefficients after the first must be >= 1")
        return super().__new__(cls, cf, name)

    def __repr__(self):
        tag = self.name or "cf"
        return f"IrrationalAlpha({tag}:{','.join(map(str, self.cf))})"


def golden(terms=64):
    """(1+sqrt(5))/2 = [1; 1, 1, 1, ...], truncated to `terms` coefficients."""
    return IrrationalAlpha((1,) * terms, name="golden")


def sqrt2(terms=64):
    """sqrt(2) = [1; 2, 2, 2, ...], truncated to `terms` coefficients."""
    return IrrationalAlpha((1,) + (2,) * (terms - 1), name="sqrt2")


def parse_alpha(text):
    """Parse "golden", "sqrt2", or an explicit prefix "cf:1,2,2,2"."""
    if text == "golden":
        return golden()
    if text == "sqrt2":
        return sqrt2()
    if text.startswith("cf:"):
        try:
            coeffs = tuple(int(c) for c in text[3:].split(","))
        except ValueError:
            raise ValueError(f"malformed cf coefficient list: {text!r}") from None
        return IrrationalAlpha(coeffs)
    raise ValueError(f"unknown alpha spec {text!r}; use golden, sqrt2, or cf:...")


def _convergent_pairs(alpha):
    """All convergents (p_k, q_k) of the prefix, via the standard recursion."""
    pairs = []
    p_prev, q_prev = 1, 0
    p, q = alpha.cf[0], 1
    pairs.append((p, q))
    for c in alpha.cf[1:]:
        p, p_prev = c * p + p_prev, p
        q, q_prev = c * q + q_prev, q
        pairs.append((p, q))
    return pairs


def bracket(alpha):
    """Open interval (lo, hi) of Fractions that strictly contains alpha.

    With prefix [a0; ...; am] the tail t = a_{m+1} + ... exceeds 1, so alpha
    lies strictly between the last convergent p/q and its mediant with the
    previous convergent, (p + p')/(q + q').  Width is 1/(q(q + q')).
    """
    pairs = _convergent_pairs(alpha)
    p, q = pairs[-1]
    if len(pairs) >= 2:
        pp, qp = pairs[-2]
    else:
        pp, qp = 1, 0
    ends = sorted((Fraction(p, q), Fraction(p + pp, q + qp)))
    return ends[0], ends[1]


def convergents(alpha, count):
    """First `count` convergents p_k/q_k, each certified |alpha - p/q| < 1/q^2.

    The certificate is exact: both bracket endpoints lie within 1/q^2 of p/q,
    and alpha is strictly interior to the bracket.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    pairs = _convergent_pairs(alpha)
    if count > len(pairs):
        raise PrecisionExhaustedError(
            f"prefix has {len(pairs)} convergents, {count} requested"
        )
    lo, hi = bracket(alpha)
    out = pairs[:count]
    for p, q in out:
        c = Fraction(p, q)
        if max(abs(lo - c), abs(hi - c)) > Fraction(1, q * q):
            raise PrecisionExhaustedError(
                f"cannot certify |alpha - {p}/{q}| < 1/{q}^2 from the prefix"
            )
    return out


class Approximant(namedtuple("Approximant", "a N")):
    """Pair (a, N) with a the nearest integer to N*alpha.

    D = gcd(a, N) is the spectral period and M = N/D the number of equispaced
    copies of the reduced spectrum.  The defining inequality
    |alpha - a/N| < 1/(2N) is certified exactly by the constructors in this
    module; building an Approximant directly skips that check.
    """

    __slots__ = ()

    def __new__(cls, a, N):
        if N < 1:
            raise ValueError("N must be >= 1")
        if a < 0:
            raise ValueError("a must be >= 0")
        return super().__new__(cls, a, N)

    @property
    def D(self):
        return gcd(self.a, self.N)

    @property
    def M(self):
        return self.N // self.D


def certify_approximant(alpha, a, N):
    """Exact check that |alpha - a/N| < 1/(2N).

    True is a certificate (alpha is strictly inside its bracket, and every
    interior point is strictly closer to a/N than the farther endpoint).
    False only means the prefix cannot certify, not that the bound fails.
    """
    lo, hi = bracket(alpha)
    c = Fraction(a, N)
    return max(abs(lo - c), abs(hi - c)) <= Fraction(1, 2 * N)


def nearest_approximant(alpha, N):
    """The unique Approximant at dimension N: a = nearest integer to N*alpha.

    Decided exactly: floor(N*x + 1/2) must agree at both bracket endpoints,
    otherwise the prefix cannot separate N*alpha from a half-integer and
    PrecisionExhaustedError is raised.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    lo, hi = bracket(alpha)
    half = Fraction(1, 2)
    a_lo = floor(N * lo + half)
    a_hi = floor(N * hi + half)
    if a_lo != a_hi:
        raise PrecisionExhaustedError(
            f"prefix of {alpha!r} too short to round N*alpha for N={N}"
        )
    return Approximant(a_lo, N)


def approximants_with_gcd(alpha, D, count):
    """`count` Approximants with gcd(a, N) exactly D, sorted by N.

    Built by scaling convergents: for (p, q) with q >= 2D the pair (Dp, Dq)
    satisfies |alpha - Dp/(Dq)| < 1/q^2 <= 1/(2Dq), and gcd(Dp, Dq) = D since
    gcd(p, q) = 1.  Convergents with q < 2D are skipped; each emitted pair is
    re-certified exactly.
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    if count < 0:
        raise ValueError("count must be >= 0")
    out = []
    for p, q in _convergent_pairs(alpha):
        if len(out) == count:
            break
        if q < 2 * D:
            continue
        a, N = D * p, D * q
        if gcd(a, N) != D or not certify_approximant(alpha, a, N):
            raise PrecisionExhaustedError(
                f"cannot certify scaled convergent ({a},{N}) for D={D}"
            )
        out.append(Approximant(a, N))
    if len(out) < count:
        raise PrecisionExhaustedError(
            f"prefix of {alpha!r} yields only {len(out)} approximants with D={D}, "
            f"{count} requested"
        )
    return out
