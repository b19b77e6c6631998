"""Exact eigenphase spectra of the quantized skew translation.

For an approximant (a, N) with D = gcd(a, N) and M = N/D the propagator
eigenphases are

    phi_{eta,l} = l*D - eta^2 + eta*a - a^2 (M-1)(2M-1)/6   (mod N),

eta = 1..D, l = 0..M-1, reduced into [0, N).  They are rationals whose
denominator divides 6, and all N of them share one residue rho = t mod 6
of t = 6 phi, so a level is phi = q + rho/6 with the integer position
q = floor(phi) in [0, N).  With 6 c + rho = -a^2 (M-1)(2M-1) mod 6N
(_offset), q = l D + eta a - eta^2 + c mod N.

Raising l by one moves a level by D in q, so the spectrum is M copies of
one period: the D levels with l = 0, whose positions (c - eta^2) mod D
make a histogram h over Z_D (h_r levels at every q = r mod D, sum h = D).
A Spectrum holds that period as Python ints, O(D) memory at any N; the
spacing law, the direct number variance, the counting function, the power
sums of the trace formula (on the M-lattice n = k M) and the sorted values
are read off it.
A row of the spectrum is (eta, l, q).  The rows are tiled from the period
in Python, at most SPECTRUM_BLOCK at a time, so writing them holds O(D)
memory and loads no numpy.  A block becomes text in one % format, with no
float made per level: phi is num/den with one den and one num mod den for
the whole spectrum, so its decimal is the digits of q and a tail that
depends only on q's bit length (_tail).  The D-level block {-eta^2 mod D}
(reduced_spectrum) is the spectrum of (0, D); every spectrum with
gcd(a, N) = D has its histogram, moved by c mod D in Z_D.
"""

import cmath
import math
from array import array
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, chain, repeat

from .diophantine import Approximant

# Largest period D = gcd(a, N) that eigenphases accepts.  At D = 2 * 10^6
# on a 2-vCPU VM, spectrum --a 0 takes 6-8 s and 170 MB, numvar --method
# direct and spacing under 3 s and 125 MB; a D of 10^12 would end in a
# MemoryError.
MAX_PERIOD = 2_000_000


class Spectrum(namedtuple("Spectrum", "app rho hist")):
    """The N eigenphases of one approximant, held as one period.

    rho is the residue t mod 6 of every level, and hist the histogram over
    Z_D of the D base levels' positions u = q mod D, as a tuple of
    Python ints summing to D.  hist is the only stored form of the
    positions: in spectrum order they are 0..D-1, u repeated hist[u] times.
    _sweeps is the direct number variance's memo, the squared window counts
    Q(m) of the period for each window width m it has read; it is made only
    from hist, which cannot change.  There are no __slots__: the cached
    property needs an instance __dict__.
    """

    @property
    def N(self):
        return self.app.N

    @cached_property
    def _sweeps(self):
        return {}

    @property
    def values(self):
        """Sorted eigenphase values with multiplicity, as Fractions, in spectrum order."""
        rho = self.rho
        return [Fraction(6 * x + rho, 6) for _, _, q in _level_blocks(self) for x in q]


def _offset(app):
    """(c, rho) with 6 c + rho = -a^2 (M-1)(2M-1) mod 6N, 0 <= rho < 6.

    Base level eta (l = 0) is then at q = floor(phi) = (eta a - eta^2 + c)
    mod N, and every level at phi = q + rho/6.  Python ints: a huge a or N
    cannot overflow.
    """
    a, M = app.a, app.M
    return divmod(-a * a * (M - 1) * (2 * M - 1) % (6 * app.N), 6)


def eigenphases(app):
    """Exact spectrum of the approximant: its period, from _offset.

    D divides a, so base level eta is at u = (c - eta^2) mod D in Z_D, which
    the histogram counts over a full residue set of eta, with no level held.
    A period of more than MAX_PERIOD levels is refused before any level is
    made.
    """
    if app.D > MAX_PERIOD:
        raise ValueError(f"period D = {app.D} exceeds the cap of {MAX_PERIOD} levels")
    D, (c, rho) = app.D, _offset(app)
    hist = [0] * D
    for e in range(D):
        hist[(c - e * e) % D] += 1
    return Spectrum(app, rho, tuple(hist))


def _period(spec):
    """(eta, l0): the D base levels in spectrum order, as array('q')s.

    With c - eta^2 = D k + u (c from _offset), base level eta is at
    q = D m + u, at u in Z_D in copy m = (eta a/D + k) mod M of the period.
    A counting sort over Z_D (bucket starts from the histogram, etas in
    increasing order) puts the levels in (u, eta) order, hist[u] levels at
    each u in turn, so their positions are hist's and are not stored.  In
    copy m' the level has l = (m' - m) mod M, so l0 = -m mod M is its l in
    copy 0.
    """
    D, M = spec.app.D, spec.app.M
    c, s = _offset(spec.app)[0], spec.app.a // D % M
    start = array("q", accumulate(spec.hist, initial=0))
    eta, l0 = array("q", [0]) * D, array("q", [0]) * D
    for e in range(1, D + 1):
        k, u = divmod(c - e * e, D)
        i = start[u]
        start[u] = i + 1
        eta[i] = e
        l0[i] = -(e * s + k) % M
    return eta, l0


def _level_blocks(spec):
    """Yield the rows (eta, l, q) up to SPECTRUM_BLOCK at a time, in order.

    The N levels are the period (_period) tiled M times: the level at u in
    copy m has q = D m + u, the positions u read off the histogram.  A tile
    is k = min(M, SPECTRUM_BLOCK // D) whole periods, laid out once as
    lists and shifted by D m in q and by m in l; a period longer than
    SPECTRUM_BLOCK is cut into slices.  l and q are lists of Python ints,
    q ascending.
    """
    D, M = spec.app.D, spec.app.M
    eta, l0 = _period(spec)
    u = array("q", chain.from_iterable(map(repeat, range(D), spec.hist)))
    k = max(1, min(M, SPECTRUM_BLOCK // D))
    if k > 1:
        eta = eta.tolist() * k
        u = [D * j + x for j in range(k) for x in u]
        l0 = [j + x for j in range(k) for x in l0]
    for m in range(0, M, k):
        rows = min(k, M - m) * D
        base = D * m
        for s in range(0, rows, SPECTRUM_BLOCK):
            part = slice(s, min(s + SPECTRUM_BLOCK, rows))
            l = [(x + m) % M for x in l0[part]]
            yield eta[part], l, [base + x for x in u[part]]


def reduced_spectrum(D):
    """The D-level block: the spectrum of (a, N) = (0, D), with M = 1.

    Its levels are t = 6 (-eta^2 mod D), so rho = 0 and the histogram counts
    the residues -eta^2 mod D.  Every spectrum with gcd(a, N) = D has the
    same histogram up to a rotation of Z_D, so its spacing law and its
    number variance are the block's.
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    return eigenphases(Approximant(0, D))


def power_sums(spec, n_max):
    """[Tr U^(kM) for k = 1..n_max // M] by the paper's trace formula.

    Tr U_N^n is the eigenvalue power sum sum_j e(n phi_j / N) of the exact
    spectrum, e(x) = e^(2 pi i x), which the eigenphase formula turns into

        Tr U_N^n = M delta_{n mod M, 0} sum_{eta=1}^{D}
                   e(n (-eta^2 + eta a - a^2 (M-1)(2M-1)/6) / N).

    With t_j = 6 phi_j = 6 (r + D m) + rho, the sum over the M copies m is
    that delta, so only the M-lattice n = k M <= n_max is returned.  There
    the sum is M sum_r z_r^k over the D base levels, z_r = e((6u + rho) / 6D)
    at the level's position u, each occupied u's root made once (_root, from
    its exact integer phase) and repeated hist[u] times: the loop of
    propagator.trace_powers (_lattice_traces) over these D values in place
    of the cycle products, D products for each of the n_max // M values of
    k.  verify asks for at most PYTHON_OPS // D values of k, so at most
    PYTHON_OPS products, and compares them with the numeric traces.

    Error model, with no fitted constant.  Each root is within 5 u of its
    exact value (u = 2^-53; cycle_tolerance's reading of _root).  The
    running product's k - 1 products after the first (the first, by the
    integer 1, is exact) each add a relative sqrt(5) u (Brent, Percival and
    Zimmermann), so each computed z_r^k is within P_k - 1 of the exact
    power, P_k = (1 + 5 u)^k (1 + sqrt(5) u)^(k-1), and of modulus at most
    P_k.  The sum of the D powers adds at most
    gamma_(D-1) = (D - 1) u / (1 - (D - 1) u) times the sum of their moduli
    (recursive summation, the real and the imaginary parts alike), and the
    product by M, exact as a double, a relative u.  So each returned value
    is within

        M D ((1 + 5 u)^k (1 + sqrt(5) u)^(k-1) / (1 - D u) - 1)

    of the exact trace formula (Higham, Lemma 3.3: (1 + gamma_(D-1))
    (1 + u) <= 1 + gamma_D = 1 / (1 - D u)).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    D, M, rho = spec.app.D, spec.app.M, spec.rho
    levels = [repeat(_root(6 * u + rho, 6 * D), h) for u, h in enumerate(spec.hist) if h]
    return _lattice_traces(list(chain.from_iterable(levels)), M, n_max // M)


def _lattice_traces(values, M, steps):
    """[M sum_r x_r^k for k = 1..steps] over the list values, on Python complex numbers.

    The powers x_r^k are one running product per value, started at the
    integer 1, so the first product is exact and each later one rounds
    once: len(values) complex products for each k.
    """
    power = [1] * len(values)
    out = []
    for _ in range(steps):
        power = [x * c for x, c in zip(power, values)]
        out.append(M * sum(power))
    return out


def cycle_products(app):
    """[e(t_r / 6D) for r < D]: the exact product of the weights on each cycle.

    Cycle r of the shift m -> m + a holds the momenta m = r + j D, j < M,
    whose exact weights are the chirp e(-m^2/N), so its product is
    e(-sum_j m^2 / N) = e(-(6 r^2 + D^2 (M-1)(2M-1)) / 6D), an integer
    r (M - 1) dropped.  With a = a' D, that constant and _offset's
    -a^2 (M-1)(2M-1) = 6 c + rho differ by D^2 (a'^2 - 1)(M-1)(2M-1), which
    is 0 mod 6D: for p = 2 and 3, p divides (M-1)(2M-1), or p divides M,
    and then not a' (gcd(a', M) = 1), so p divides a'^2 - 1.  So
    t_r = 6 ((c - r^2) mod D) + rho: the level of base level eta = r that
    eigenphases counts, and the M eigenvalues on cycle r are the M-th roots
    of this product.  Each value is one 6D-th root of unity (_root).
    """
    D, (c, rho) = app.D, _offset(app)
    return [_root(6 * ((c - r * r) % D) + rho, 6 * D) for r in range(D)]


# Largest count of complex products that verify's weights take on Python
# complex numbers; above it, numpy's FFT.  The weights' two FFTs make
# 2 N S(N) products (propagator._dft, S(N) the sum of N's prime factors
# with multiplicity), so N = 1536 takes the Python FFT and the prime
# N = 191 numpy's.  The constant also bounds the lattice points that
# verify's trace-formula compares, K = min(2D, PYTHON_OPS // D)
# (cli.cmd_verify), so that each side of the trace check makes
# D K <= PYTHON_OPS products in one loop (_lattice_traces), over the cycle
# products or over the level roots, in Python, at every N.  Importing numpy
# takes 55-60 ms of a verify subprocess.  On a 2-vCPU VM (CPython 3.11)
# these loops took 75-200 ns per product (the running powers at the low
# end, the FFT's radix 2 at the high end): at 2^16 products the weights
# took 8-10 ms (N = 181, 1536) and each side of the trace check 5 ms
# (D = 181), so the Python FFT is the faster wherever it is chosen.  The
# largest count of the benchmark's verify-ladder is 28140 (N = 201), so
# the line is not set from it.
PYTHON_OPS = 1 << 16
_QUARTER_TURNS = (1, 1j, -1, -1j)


def _root(j, n):
    """e(j/n) for an integer j in [0, n), to about the unit roundoff.

    e(j/n) = i^q e(r / 4n) with q = round(4j/n) and r = 4j - q n in
    [-n/2, n/2): the angle pi r / 2n handed to cmath.exp is at most pi/4
    in modulus, so it rounds by under a unit roundoff, and the quarter
    turn i^q is exact.  j is an exact integer residue, so no phase
    accumulates.
    """
    q = (8 * j + n) // (2 * n)
    return cmath.exp(1j * (math.pi * (4 * j - q * n) / (2 * n))) * _QUARTER_TURNS[q % 4]


def _roots(n):
    """[e(j/n) for j < n], each from _root."""
    return [_root(j, n) for j in range(n)]


SPECTRUM_FIELDS = ("eta", "l", "numerator", "denominator", "decimal")
# Levels formatted per block: enough to amortise the per-block set-up, few
# enough that a block's Python objects and text stay near 2 MB at any N.
# Blocks of 2^8 to 2^13 rows ran equally fast; 2^16 rows was no faster and
# raised the peak RSS by about 20 MB.
SPECTRUM_BLOCK = 1 << 12
# One line per level, with den and the decimal's tail filled in once per
# binade of q: %s of a Python int is the text json.dumps writes for it, and
# the JSON line is one record in json.dumps(indent=2)'s layout.
_CSV_LINE = "%s,%s,%s,{den},%s{tail}\n"
_JSON_LINE = (
    '  {{\n    "eta": %s,\n    "l": %s,\n    "numerator": %s,\n'
    '    "denominator": {den},\n    "decimal": %s{tail}\n  }}'
)

@cache  # at most 51 bit lengths times 12 pairs (r, den)
def _tail(bits, r, den):
    """The text after q's digits in repr((q den + r) / den), for 0 <= q < 2^50.

    In q's binade the doubles are u = 2^(bits - 53) <= 1/8 apart, and q is
    one of them, with an even significand.  So q + r/den rounds to q + c,
    c the multiple of u nearest r/den (a tie goes to the even multiple),
    and c + u/2 < 1.  The decimals that read back as q + c are then q plus
    the decimals within u/2 of c (for r = 0, q itself: repr writes "q.0"
    below 10^16), all in [q, q + 1), and repr takes the shortest of them,
    then the nearest.  None of this depends on q beyond its bit length, so
    the tail is read off repr of the binade's smallest q (q = 0, of bit
    length 0, is a binade of its own).
    """
    q = 1 << bits >> 1
    return repr((q * den + r) / den)[len(str(q)) :]


def _text_blocks(spec, line, sep):
    """Yield the rows as text, lines joined by sep, up to SPECTRUM_BLOCK rows each.

    A row (eta, l, q) of _level_blocks is phi = q + rho/6, in lowest terms
    num/den with den = 6/g, g = gcd(rho, 6), and num = q den + r for one
    r = rho/g for the whole spectrum.  Its decimal, the correctly rounded
    num/den that float(Fraction(6 q + rho, 6)) gives, is q's digits and the
    tail of q's binade, for q < N <= 2^50 (cli.MAX_SPECTRUM_N).  So the
    levels of a block, split where q crosses a power of two, are one % of
    the line, with den and the tail filled in, repeated once per row, over
    the flat tuple of (eta, l, num, q).
    """
    g = math.gcd(spec.rho, 6)
    den, r = 6 // g, spec.rho // g
    for eta, l, q in _level_blocks(spec):
        num = q if den == 1 else [den * x + r for x in q]
        cols = eta, l, num, q
        i, n = 0, len(q)
        while i < n:
            bits = q[i].bit_length()
            j = bisect_left(q, 1 << bits, i)
            part = cols if j - i == n else [col[i:j] for col in cols]
            flat = [None] * (4 * (j - i))
            for k, col in enumerate(part):
                flat[k::4] = col
            text = line.format(den=den, tail=_tail(bits, r, den))
            yield sep.join(repeat(text, j - i)) % tuple(flat)
            i = j


def spectrum_to_csv(spec, out):
    """Write rows "eta,l,numerator,denominator,decimal" to a file object."""
    out.write(",".join(SPECTRUM_FIELDS) + "\n")
    for text in _text_blocks(spec, _CSV_LINE, ""):
        out.write(text)


def spectrum_to_json(spec, out):
    """Write the levels as a JSON list of records, one per row, to a file object.

    The bytes are json.dumps(records, indent=2) + "\n" for the records of
    (eta, l, numerator, denominator, decimal); a spectrum has at least one
    level.
    """
    sep = "[\n"
    for text in _text_blocks(spec, _JSON_LINE, ",\n"):
        out.write(sep)
        out.write(text)
        sep = ",\n"
    out.write("\n]\n")
