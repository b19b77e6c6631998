"""Spectral statistics: level spacings and number variance by three routes.

Everything here works on the exact spectra of module `spectrum`: one
period of D levels, held as the histogram h over Z_D of their integer
positions u (t = 6 phi = 6 u + rho).  The spacing law, the direct number
variance and the counting function are exact Python-int arithmetic on h,
O(D) at any N; the Gauss-sum series is a sum of Python floats.  Nothing
here loads numpy.  The number variance

    Sigma^2(L) = (1/N) int_0^N (Ncal(phi + L) - Ncal(phi) - L)^2 dphi

is computed three ways that must agree.  The spectrum repeats with period
D, D levels per period, so Ncal(phi + L) - Ncal(phi) - L is D-periodic in
phi and in L, and each route reads one period.  Each route reads L once as
the ratio p/q of two ints (a float L is the rational it holds); the direct
and closed routes then return one exact Fraction made by integer
arithmetic, and the series one float:

  direct-exact   (1/D) int n^2 - R^2 on a circle of length D (R = L mod D,
                 n the count in a window of length R), with
                 int n^2 = (1 - f) Q(w - 1) + f Q(w) for w = ceil(R) and
                 f = R - (w - 1): Q(m) sums the squared level counts of the
                 D windows of m integer positions, one running sum over h,
                 made once per width on each spectrum; exact
                 Fraction result, no tolerance at all;
  fourier        (2/pi^2) sum_k sin^2(k pi L / D) |S_D(k)|^2 / k^2 with the
                 quadratic Gauss sum S_D(k) = sum_eta exp(-2 pi i k eta^2 / D),
                 whose |S_D(k)|^2 is an integer in closed form (gD, 0 or
                 2gD with g = gcd(k, D)), truncated at K and summed with
                 math.fsum; the tail is at most 2 D^2 / (pi^2 (K + 1/2))
                 by convexity of 1/x^2, and that bound is reported alongside;
  closed-form    for D in {1, 2}: {L} - {L}^2, and for D in {3, 6}:
                 -8/9 + 5 F(L/3) + 2 F((L-2)/3) + 2 F((L+2)/3),
                 F(x) = {x} - {x}^2, taken as d^2 F(n/d) =
                 (n mod d)(d - n mod d) over the denominator q^2 or 9 q^2;
                 exact Fraction result.

Note the minus sign in {L} - {L}^2: the defining integral forces it (a rigid
unit-spaced spectrum has Sigma^2(1/2) = 1/4, not 3/4), and the direct-exact
route gates it here.  A plus-sign variant of these closed forms that appears
in print fails that gate and is rejected by the acceptance tests.

Spacing distributions are exact atom lists; the circular convention closes
the spectrum with the wrap gap phi_0 + N - phi_{N-1}, so the N spacings are
nonnegative and sum to N.  They are the gaps between the occupied residues
of the period plus its wrap gap, each M times, and weight count/D.
Degenerate eigenphases contribute genuine atoms at s = 0.
"""

import cmath
import math
import sys
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import accumulate, chain, compress, cycle, islice
from operator import mul, sub, truediv

from .diophantine import approximants_with_gcd
from .spectrum import eigenphases


class UnsupportedClosedFormError(ValueError):
    """No closed form is implemented for this D."""

    exit_code = 3


class SpacingDistribution(namedtuple("SpacingDistribution", "atoms")):
    """Exact atomic spacing law: ((s, weight), ...) with weights summing to 1."""

    __slots__ = ()

    def __new__(cls, atoms):
        if not atoms:
            raise ValueError("spacing distribution needs at least one atom")
        ss = [s for s, _ in atoms]
        if ss != sorted(set(ss)):
            raise ValueError("atom spacings must be distinct and sorted")
        if any(s < 0 for s in ss):
            raise ValueError("spacings must be nonnegative")
        if sum(w for _, w in atoms) != 1:
            raise ValueError("atom weights must sum to exactly 1")
        return super().__new__(cls, atoms)


def spacings(spec):
    """Empirical circular spacing law of a spectrum, as exact atoms.

    One period holds h_r levels at each residue r of Z_D: h_r - 1 zero gaps,
    then the gap to the next occupied residue, the last one wrapping round
    by D.  The N gaps are M copies of these D, so each weighs count/D.
    """
    h = spec.hist
    D = len(h)
    occupied = list(compress(range(D), h))
    if not occupied:
        raise ValueError("empty spectrum")
    gaps = Counter(map(sub, occupied[1:], occupied))
    gaps[occupied[0] + D - occupied[-1]] += 1
    if len(occupied) < D:
        gaps[0] = D - len(occupied)
    atoms = tuple((Fraction(s), Fraction(c, D)) for s, c in sorted(gaps.items()))
    return SpacingDistribution(atoms)


def spacing_distribution_closed(D):
    """The known spacing laws: D=1,2 rigid; D=3 three equal atoms."""
    if D in (1, 2):
        atoms = ((Fraction(1), Fraction(1)),)
    elif D == 3:
        third = Fraction(1, 3)
        atoms = ((Fraction(0), third), (Fraction(1), third), (Fraction(2), third))
    else:
        raise UnsupportedClosedFormError(f"no closed-form spacing law for D={D}")
    return SpacingDistribution(atoms)


def counting_function(spec, phi):
    """Levels in [0, phi) of the periodically extended spectrum, exact.

    A level at 6 u + rho is below 6 phi iff u < ceil(phi - rho/6) for
    integer u.  The levels repeat with period D, D of them per period, so
    with ceil(phi - rho/6) = periods D + r that count is periods D plus
    h_0 + ... + h_{r-1}, the levels of one period below r.  For phi < 0 it
    is minus the levels in [phi, 0).
    """
    periods, r = divmod(math.ceil(Fraction(phi) - Fraction(spec.rho, 6)), spec.app.D)
    return periods * spec.app.D + sum(islice(spec.hist, r))


def number_variance_direct(spec, L):
    """Exact number variance of one spectrum at window length L.

    The levels sit at t/6 and repeat with period D, D levels per period, so
    the count n(x) in [x, x + L) less L is D-periodic in x and in L, and
    Sigma^2 is that of the period alone, on a circle of length D, at
    R = L mod D.  Each level is in a window of length R for an x-range of
    length R, so int n dx = D R and Sigma^2 = (1/D) int (n - R)^2 dx =
    (1/D) int n^2 dx - R^2.

    All levels share the offset rho/6, so measured from it their positions
    are integers.  With w = ceil(R) and f = R - (w - 1) in (0, 1], a window starting at x
    in (k - 1, k) holds the positions k..k+w-2 while x <= k - f and
    k..k+w-1 after that, so int n^2 dx = (1 - f) Q(w - 1) + f Q(w), with
    Q(m) the squared window counts of the period (_window_squares).  Each
    Q(m) is made once per width and spectrum, and every L that needs it
    reuses it; Q(0) = 0, and Q(w - 1) is not needed when R is an integer
    (f = 1).  L is read once as the ratio p/q of two ints (a float L is the
    rational it holds), R = (p mod D q)/q and w = ceil(p/q) are integer
    divisions, and the result is one exact Fraction, with no float.
    """
    p, q = Fraction(L).as_integer_ratio()
    if p < 0:
        raise ValueError("L must be >= 0")
    D = spec.app.D
    p %= D * q
    if not p:
        return Fraction(0)
    # ((1 - f) Q(w - 1) + f Q(w)) / D - R^2 with R = p/q, as one Fraction
    w = -(-p // q)
    below = w * q - p
    inner = (p - (w - 1) * q) * _window_squares(spec, w)
    if below and w > 1:
        inner += below * _window_squares(spec, w - 1)
    return Fraction(q * inner - p * p * D, D * q * q)


def _window_squares(spec, m):
    """Q(m) = sum_{k in Z_D} n_k^2 for 1 <= m <= D, memoised.

    n_k = h_k + ... + h_{k+m-1}, indices mod D, counts the levels at the m
    positions k..k+m-1 of the period.  The n_k are one running sum over the
    histogram: n_0 = h_0 + ... + h_{m-1}, then n_{k+1} = n_k + h_{k+m} - h_k
    for the D - 1 steps k = 0..D-2.
    """
    if m not in spec._sweeps:
        h = spec.hist
        n0 = sum(islice(h, m))
        ahead = chain(islice(h, m, None), islice(h, m - 1))
        n = list(accumulate(map(sub, ahead, h), initial=n0))
        spec._sweeps[m] = sum(map(mul, n, n))
    return spec._sweeps[m]


def gauss_sum(D, k):
    """Quadratic Gauss sum S_D(k) = sum_{eta=1}^{D} exp(-2 pi i k eta^2 / D).

    The exponent k eta^2 is reduced mod D in integer arithmetic, so equal
    residues collapse to one phase evaluation; k = 0 mod D returns exactly D.
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    counts = Counter((k * eta * eta) % D for eta in range(1, D + 1))
    return sum(c * cmath.exp(-2j * math.pi * r / D) for r, c in counts.items())


def _tail_bound(D, K):
    """2 D^2 / (pi^2 (K + 1/2)); never above 2 D^2 / (pi^2 K), also in floats."""
    return 2 * D * D / (math.pi**2 * (K + 0.5))


def _gauss_sum_sq(D, k):
    """|S_D(k)|^2 as an exact int, from the classical evaluation of S_D.

    With g = gcd(k, D) and n = D/g, S_D(k) = g S_n(k/g), and for k/g prime
    to n, |S_n|^2 is n for odd n, 0 for n = 2 (mod 4) and 2n for 4 | n.
    """
    n = D // math.gcd(k, D)
    if n % 2:
        return D * D // n
    return 0 if n % 4 == 2 else 2 * D * D // n


def number_variance_fourier(D, L, K):
    """Truncated Gauss-sum series for Sigma^2_D(L); returns (value, bound).

    value = (2/pi^2) sum_{k=1}^{K} sin^2(k pi L / D) |S_D(k)|^2 / k^2.
    bound = 2 D^2 / (pi^2 (K + 1/2)) certifies the omitted tail: its terms
    have sin^2 <= 1 and |S_D(k)|^2 <= D^2, so it is at most
    (2/pi^2) D^2 sum_{k>K} 1/k^2; and 1/x^2 is convex, so
    1/k^2 < int_{k-1/2}^{k+1/2} dx/x^2, and these integrals over k > K sum
    to 1/(K + 1/2).  That exceeds sum_{k>K} 1/k^2 by a relative 1/(12 K^2)
    asymptotically.

    |S_D(k)|^2 is an exact integer in closed form (_gauss_sum_sq) and
    depends on k mod D only; it is tabulated for the min(D, K + 1) residues
    the series reaches.  The K terms are summed with math.fsum, in Python
    floats without numpy.

    The phase k L / D mod 1 is reduced exactly for every L (a float L is
    the rational it holds), so sin vanishes identically where it should
    (e.g. D = 1 at integer L gives exactly 0), and the coefficient
    sin^2 |S_D|^2 is a lookup table of period P = D * denominator(L): it
    holds min(P, K + 1) floats, one per residue the series reaches.

    The coefficients and the bound are floats, so a D whose 2 D^2 is past
    the float range (D above about 9.48e153) is refused before any table,
    and so is an L whose period P is: the phase divides by P as a float.
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    if 2 * D * D > sys.float_info.max:
        raise ValueError(f"D={D} is too large: 2 D^2 exceeds the float range")
    if K < 1:
        raise ValueError("K must be >= 1")
    L = Fraction(L)
    P = D * L.denominator
    if P > sys.float_info.max:
        raise ValueError(f"D={D} times the denominator of L={float(L)!r} exceeds the float range")
    ks = range(1, K + 1)
    g2 = [_gauss_sum_sq(D, r) for r in range(min(D, K + 1))]
    num = L.numerator % P
    coef = [
        math.sin(math.pi * (j * num % P) / P) ** 2 * g2[j % D]
        for j in range(min(P, K + 1))
    ]
    terms = map(truediv, islice(cycle(coef), 1, None), map(mul, ks, ks))
    return (2 / math.pi**2) * math.fsum(terms), _tail_bound(D, K)


def number_variance_closed(D, L):
    """Closed-form Sigma^2_D(L) for D in {1, 2, 3, 6}, as one exact Fraction.

    L is read once as the ratio p/q of two ints (an int, a Fraction, or a
    float read as the rational it holds, as in the other two routes).  With
    F(n, d) = (n mod d)(d - n mod d) = d^2 F(n/d), D=1 and D=2 give
    F(p, q) / q^2, and D=3 and D=6 give (-8 q^2 + 5 F(p, 3q) + 2 F(p - 2q, 3q)
    + 2 F(p + 2q, 3q)) / (9 q^2), all in Python ints.  See the module
    docstring for the sign note.
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    p, q = Fraction(L).as_integer_ratio()

    def F(n, d):
        r = n % d
        return r * (d - r)

    if D in (1, 2):
        return Fraction(F(p, q), q * q)
    if D in (3, 6):
        s = 5 * F(p, 3 * q) + 2 * F(p - 2 * q, 3 * q) + 2 * F(p + 2 * q, 3 * q)
        return Fraction(s - 8 * q * q, 9 * q * q)
    raise UnsupportedClosedFormError(f"no closed-form number variance for D={D}")


def format_law(dist):
    """Human-readable atom list, e.g. "(1/3) delta(s) + (1/3) delta(s - 1) + ...";"""
    parts = []
    for s, w in dist.atoms:
        arg = "s" if s == 0 else f"s - {s}"
        coeff = "" if w == 1 else f"({w}) "
        parts.append(f"{coeff}delta({arg})")
    return " + ".join(parts)


class DivergenceWitness(namedtuple("DivergenceWitness", "alpha families")):
    """Approximant families whose spacing laws settle on different limits.

    families holds one (D, members, laws) record per gcd family: the
    approximants with gcd(a, N) = D and their spacing laws.  Along the D=1
    family every member has the rigid law delta(s - 1); along the D=3 family
    every member has the three-atom law.  Two distinct constant subsequences
    means the spacing law has no limit as N grows.  The number variance
    separates the same way (0 vs 2/3 at L = 1).
    """

    __slots__ = ()

    @property
    def ok(self):
        """Every law is its family's closed law, and those closed laws differ."""
        closed = [spacing_distribution_closed(D).atoms for D, _, _ in self.families]
        return len(set(closed)) == len(closed) and all(
            law.atoms == atoms
            for atoms, (_, _, laws) in zip(closed, self.families)
            for law in laws
        )

    def lines(self):
        name = getattr(self.alpha, "name", "") or repr(self.alpha)
        out = [f"alpha = {name}: spacing laws along two gcd families"]
        for D, members, laws in self.families:
            out.append(f"D={D} family: " + ", ".join(f"({m.a},{m.N})" for m in members))
            for m, law in zip(members, laws):
                out.append(f"  N={m.N}: P(s) = {format_law(law)}")
        if all(members for _, members, _ in self.families):
            Ds = [D for D, _, _ in self.families]
            closed = (f"[{format_law(spacing_distribution_closed(D))}]" for D in Ds)
            sigma = (str(number_variance_closed(D, Fraction(1))) for D in Ds)
            out += [
                "constant laws: " + " vs ".join(closed),
                "two distinct accumulation points, so P(s) has no N -> inf limit",
                "number variance at L=1 separates the same way: " + " vs ".join(sigma),
            ]
        return out


def divergence_witness(alpha, count):
    """Build the non-convergence report of the D=1 and D=3 families of alpha."""
    if count < 0:
        raise ValueError("count must be >= 0")
    families = []
    for D in (1, 3):
        members = tuple(approximants_with_gcd(alpha, D, count))
        families.append((D, members, tuple(spacings(eigenphases(m)) for m in members)))
    return DivergenceWitness(alpha, tuple(families))
