"""Exact eigenphase spectra of the quantized skew translation.

For an approximant (a, N) with D = gcd(a, N) and M = N/D the propagator
eigenphases are

    phi_{eta,l} = l*D - eta^2 + eta*a - a^2 (M-1)(2M-1)/6   (mod N),

eta = 1..D, l = 0..M-1, reduced into [0, N).  They are rationals whose
denominator divides 6, so every level is held exactly as the integer
t = 6 phi in [0, 6N).  All N of them share one residue rho = t mod 6, so
t = 6 u + rho with an integer position u in [0, N).

Raising l by one moves a level by D in u, so the spectrum is M copies of
one period: the D levels with l = 0 (base_levels), whose positions mod D
make a histogram h over Z_D (h_r levels at every u = r mod D, sum h = D).
A Spectrum holds that period as Python ints, O(D) memory at any N; the
spacing law, the direct number variance, the counting function, the power
sums (the paper's trace formula) and the sorted values are read off it.
The spectrum rows are tiled from the period in Python, at most
SPECTRUM_BLOCK levels at a time, so writing them holds O(D) memory and
loads no numpy.  The D-level block {-eta^2 mod D} (reduced_spectrum) is the
spectrum of (0, D); every spectrum with gcd(a, N) = D has its histogram, up
to a rotation of Z_D.
"""

import math
from array import array
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from operator import truediv

from .diophantine import Approximant

# Largest period D = gcd(a, N) that eigenphases accepts.  At D = 2 * 10^6
# on a 2-vCPU VM, spectrum --a 0 takes 6-8 s and 170 MB, numvar --method
# direct and spacing under 3 s and 125 MB; a D of 10^12 would end in a
# MemoryError.
MAX_PERIOD = 2_000_000


class Spectrum(namedtuple("Spectrum", "app rho hist")):
    """The N eigenphases of one approximant, held as one period.

    rho is the residue t mod 6 of every level, and hist the histogram over
    Z_D of the D base levels' positions u = (t mod 6D) // 6, as a tuple of
    Python ints summing to D.  _sweeps is the direct number variance's
    memo, the squared window counts Q(m) of the period for each window
    width m it has read; like prefix, it is made only from hist, which
    cannot change.  There are no __slots__: the cached
    properties need an instance __dict__.
    """

    @property
    def N(self):
        return self.app.N

    @cached_property
    def _sweeps(self):
        return {}

    @cached_property
    def prefix(self):
        """C[k] = sum_{j<k} h_j, the levels of one period below k, for k <= D.

        A list of Python ints; beyond one period it continues as
        C[k + D] = C[k] + D.
        """
        return list(accumulate(self.hist, initial=0))

    @property
    def values(self):
        """Sorted eigenphase values with multiplicity, as Fractions, in spectrum order."""
        return [Fraction(t, 6) for _, _, ts in _level_blocks(self, 1) for t in ts]


def base_levels(app):
    """t = 6 phi in [0, 6N) of the D levels with l = 0, a list in eta order.

    Entry eta - 1 is the base level eta = 1..D, at
    6 phi = 6 (l D + eta (a - eta)) - a^2 (M-1)(2M-1)  (mod 6N), in Python
    ints; a huge a or N cannot overflow.
    """
    a, N, M = app.a, app.N, app.M
    size = 6 * N
    const = a * a * (M - 1) * (2 * M - 1) % size
    a %= N
    return [(6 * e * (a - e) - const) % size for e in range(1, app.D + 1)]


def eigenphases(app):
    """Exact spectrum of the approximant: its period, from base_levels.

    The base levels are reduced mod 6D; every t has the same residue mod 6,
    so they fill the histogram over Z_D of u = (t mod 6D) // 6.  A period
    of more than MAX_PERIOD levels is refused before any level is made.
    """
    if app.D > MAX_PERIOD:
        raise ValueError(f"period D = {app.D} exceeds the cap of {MAX_PERIOD} levels")
    t = base_levels(app)
    block = 6 * app.D
    hist = [0] * app.D
    for x in t:
        hist[x % block // 6] += 1
    return Spectrum(app, t[0] % 6, tuple(hist))


def _period(spec, g):
    """(eta, r, l0): the D base levels in spectrum order, as array('q')s.

    Base level eta sits at t = 6 D q + 6 u + rho, at position u of Z_D.  A
    counting sort over Z_D (bucket starts from the histogram, etas in
    increasing order) puts the levels in (u, eta) order, hist[u] levels at
    each u in turn, and a level at u has r = (6 u + rho) / g, its t mod 6D
    over g; g must divide gcd(rho, 6).  In block m of length 6D the level
    is at t = 6 D m + 6 u + rho with l = (m - q) mod M, so l0 = -q mod M is
    its l in block 0.
    """
    D, M = spec.app.D, spec.app.M
    step = 6 * D
    t = base_levels(spec.app)
    start = array("q", accumulate(spec.hist, initial=0))
    eta, r, l0 = (array("q", [0]) * D for _ in range(3))
    for e, x in enumerate(t, 1):
        q, x = divmod(x, step)
        u = x // 6
        i = start[u]
        start[u] = i + 1
        eta[i] = e
        r[i] = x // g
        l0[i] = -q % M
    return eta, r, l0


def _level_blocks(spec, g):
    """Yield (eta, l, t / g) for up to SPECTRUM_BLOCK levels at a time, in order.

    g must divide gcd(rho, 6), so every t / g is an int.  The N levels are
    the period (_period) tiled M times.  With D <= SPECTRUM_BLOCK a block is
    k = SPECTRUM_BLOCK // D whole periods, laid out once as a tile of lists
    and shifted by 6 D m / g in t / g and by m in l; with a longer period a
    block is a slice of one period.  l and t / g are lists of Python ints.
    """
    D, M = spec.app.D, spec.app.M
    step = 6 * D // g
    eta, r, l0 = _period(spec, g)
    k = max(1, SPECTRUM_BLOCK // D)
    if k > 1:
        eta = eta.tolist() * k
        r = [step * j + x for j in range(k) for x in r]
        l0 = [j + x for j in range(k) for x in l0]
    for m in range(0, M, k):
        rows = min(k, M - m) * D
        base = step * m
        for s in range(0, rows, SPECTRUM_BLOCK):
            part = slice(s, min(s + SPECTRUM_BLOCK, rows))
            l = [(x + m) % M for x in l0[part]]
            yield eta[part], l, [base + x for x in r[part]]


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
    """[Tr U^1, ..., Tr U^n_max] by the paper's trace formula.

    Tr U_N^n is the eigenvalue power sum sum_j e(n phi_j / N) of the exact
    spectrum, e(x) = e^(2 pi i x), which the eigenphase formula turns into

        Tr U_N^n = M delta_{n mod M, 0} sum_{eta=1}^{D}
                   e(n (-eta^2 + eta a - a^2 (M-1)(2M-1)/6) / N).

    With t_j = 6 phi_j = 6 (r + D m) + rho, the sum over the M copies m
    vanishes unless n = k M, so every other sum is exactly 0j.  At n = k M
    it is M e(k rho / 6D) sum_r h_r e(k r / D): N times one inverse FFT of
    length D over the histogram, read at k mod D.  k rho is reduced mod 6D
    in integers; only the FFT and the phase factor round.  verify compares
    these with the numeric traces (propagator.trace_powers).
    """
    import numpy as np

    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    D, M = spec.app.D, spec.app.M
    size = 6 * D
    k = np.arange(1, n_max // M + 1)
    phase = np.exp(2j * np.pi * ((k % size) * spec.rho % size) / size)
    sums = [0j] * n_max
    sums[M - 1 :: M] = (spec.N * phase * np.fft.ifft(spec.hist)[k % D]).tolist()
    return sums


SPECTRUM_FIELDS = ("eta", "l", "numerator", "denominator", "decimal")
# Levels formatted per block: enough to amortise the per-block set-up, few
# enough that a block's Python objects and text stay near 2 MB at any N.
# Blocks of 2^8 to 2^13 rows ran equally fast; 2^16 rows was no faster and
# raised the peak RSS by about 20 MB.
SPECTRUM_BLOCK = 1 << 12
# One template per row: %r of a Python int or float is the text json.dumps
# writes for it, and the JSON row is one record in json.dumps(indent=2)'s layout.
_CSV_ROW = ",".join(["%r"] * len(SPECTRUM_FIELDS)) + "\n"
_JSON_ROW = "  {\n" + ",\n".join(f'    "{f}": %r' for f in SPECTRUM_FIELDS) + "\n  }"


def spectrum_rows(spec):
    """Yield the rows (eta, l, numerator, denominator, decimal) in blocks.

    Each block is an iterator over up to SPECTRUM_BLOCK row tuples of Python
    scalars, in spectrum order (_level_blocks).  Every t has the residue rho
    mod 6, so phi = t/6 in lowest terms is (t/g)/(6/g) with the one
    g = gcd(rho, 6).  The decimal is Python's correctly rounded true
    division of these two ints, so it equals float(Fraction(t, 6)).
    """
    g = math.gcd(spec.rho, 6)
    den = 6 // g
    for eta, l, num in _level_blocks(spec, g):
        yield zip(eta, l, num, repeat(den), map(truediv, num, repeat(den)))


def spectrum_to_csv(spec, out):
    """Write rows "eta,l,numerator,denominator,decimal" to a file object."""
    out.write(",".join(SPECTRUM_FIELDS) + "\n")
    for rows in spectrum_rows(spec):
        out.write("".join(map(_CSV_ROW.__mod__, rows)))


def spectrum_to_json(spec, out):
    """Write the levels as a JSON list of records, one per row, to a file object.

    The bytes are json.dumps(records, indent=2) + "\n" for the records
    dict(zip(SPECTRUM_FIELDS, row)); a spectrum has at least one level.
    """
    sep = "[\n"
    for rows in spectrum_rows(spec):
        out.write(sep + ",\n".join(map(_JSON_ROW.__mod__, rows)))
        sep = ",\n"
    out.write("\n]\n")
