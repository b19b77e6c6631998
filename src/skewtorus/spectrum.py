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
spacing law, the direct number variance and the counting function are
read off it.  The N-level int64 arrays t, eta and l, sorted by (t, eta, l),
are tiled from the period with numpy on first access, for the spectrum
rows, the power sums and Spectrum.values.  The D-level block
{-eta^2 mod D} (reduced_spectrum) is the spectrum of (0, D); every
spectrum with gcd(a, N) = D has its histogram, up to a rotation of Z_D.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice
from operator import mul

from .diophantine import Approximant


@dataclass(frozen=True, eq=False)
class Spectrum:
    """The N eigenphases of one approximant, held as one period.

    rho is the residue t mod 6 of every level, and hist the histogram over
    Z_D of the D base levels' positions u = (t mod 6D) // 6, as a tuple of
    Python ints summing to D.  The int64 arrays t, eta and l are built,
    read-only, on first access.  _sweeps is the direct number variance's
    memo, one entry per window width on the period; it is filled only from
    hist, which cannot change.
    """

    app: Approximant
    rho: int
    hist: tuple
    _sweeps: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def N(self):
        return self.app.N

    @cached_property
    def prefix(self):
        """(C, S, B): prefix sums of the histogram over two periods.

        With h_j = hist[j mod D] for j < 2D: C[k] = sum_{j<k} h_j counts the
        levels below k and S[k] = sum_{i<k} C[i], for every k <= 2D, as
        lists of Python ints.  B = sum_r h_r S[r + 1] = sum_{j<r<D} (r - j)
        h_j h_r is the summed distance of the pairs of one period, unwrapped.
        """
        h = self.hist
        C = list(accumulate(h * 2, initial=0))
        S = list(accumulate(C, initial=0))
        return C, S, sum(map(mul, h, islice(S, 1, None)))

    @cached_property
    def _arrays(self):
        """(t, eta, l) tiled from the base levels, as read-only int64 arrays.

        Adding 1 to l moves a level one block of length 6D, so the base
        levels at t = 6 D q + r are sorted by r (ties by eta) and tiled in
        (t, eta, l) order: block m holds t = 6 D m + r with l = (m - q) mod M.
        """
        import numpy as np

        eta, base = (np.array(x, dtype=np.int64) for x in base_levels(self.app))
        block, M = 6 * self.app.D, self.app.M
        q, r = np.divmod(base, block)
        order = np.argsort(r, kind="stable")
        eta, q, r = eta[order], q[order], r[order]
        m = np.arange(M, dtype=np.int64)[:, None]
        arrays = (block * m + r).ravel(), np.tile(eta, M), ((m - q) % M).ravel()
        for x in arrays:
            x.flags.writeable = False
        return arrays

    @property
    def t(self):
        """6 phi of every level as int64 in [0, 6N), ascending."""
        return self._arrays[0]

    @property
    def eta(self):
        """The eta label of every level, in the order of t (ties by eta, l)."""
        return self._arrays[1]

    @property
    def l(self):
        """The l label of every level, in the order of t."""
        return self._arrays[2]

    @property
    def values(self):
        """Sorted eigenphase values with multiplicity, as Fractions."""
        return [Fraction(t, 6) for t in self.t.tolist()]


def base_levels(app):
    """(eta, t): the D levels with l = 0, in eta order, t = 6 phi in [0, 6N).

    6 phi = 6 (l D + eta (a - eta)) - a^2 (M-1)(2M-1)  (mod 6N), in Python
    ints (eta a range, t a list); a huge a or N cannot overflow.
    """
    a, N, M = app.a, app.N, app.M
    size = 6 * N
    const = a * a * (M - 1) * (2 * M - 1) % size
    a %= N
    eta = range(1, app.D + 1)
    return eta, [(6 * e * (a - e) - const) % size for e in eta]


def eigenphases(app):
    """Exact spectrum of the approximant: its period, from base_levels.

    The base levels are reduced mod 6D; every t has the same residue mod 6,
    so they fill the histogram over Z_D of u = (t mod 6D) // 6.
    """
    _, t = base_levels(app)
    block = 6 * app.D
    hist = [0] * app.D
    for x in t:
        hist[x % block // 6] += 1
    return Spectrum(app, t[0] % 6, tuple(hist))


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


def degeneracy_profile(spec):
    """Multiplicity of each occupied residue of the period, as a dict.

    For a D-level block the residues are the levels t // 6.
    """
    return {r: c for r, c in enumerate(spec.hist) if c}


def power_sums(spec, n_max):
    """Eigenvalue power sums sum_j e^(2 pi i n phi_j / N) for n = 1..n_max.

    Every phase has a denominator dividing 6, so t_j = 6 phi_j is an exact
    integer in [0, 6N) and the sums are 6N times one inverse FFT of length
    6N over the histogram of the t_j, read at n mod 6N.  The phase reduction
    is exact integer arithmetic; only the FFT rounds.  These must match the
    numeric traces of U^n.
    """
    import numpy as np

    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    size = 6 * spec.N
    sums = size * np.fft.ifft(np.bincount(spec.t, minlength=size))
    return sums[np.arange(1, n_max + 1) % size].tolist()


SPECTRUM_FIELDS = ("eta", "l", "numerator", "denominator", "decimal")
# Levels formatted per block: enough to amortise the numpy calls, few enough
# that a block's Python objects and text stay near 2 MB at any N.  Blocks of
# 2^10 to 2^13 rows ran equally fast; 2^16 rows was no faster and raised the
# peak RSS by 15-20 MB.
SPECTRUM_BLOCK = 1 << 12
# One template per row: %r of a Python int or float is the text json.dumps
# writes for it, and the JSON row is one record in json.dumps(indent=2)'s layout.
_CSV_ROW = ",".join(["%r"] * len(SPECTRUM_FIELDS)) + "\n"
_JSON_ROW = "  {\n" + ",\n".join(f'    "{f}": %r' for f in SPECTRUM_FIELDS) + "\n  }"


def spectrum_rows(spec):
    """Yield the rows (eta, l, numerator, denominator, decimal) in blocks.

    Each block is an iterator over up to SPECTRUM_BLOCK row tuples of Python
    scalars, in spectrum order.  phi = t/6 in lowest terms is (t/g)/(6/g)
    with g = gcd(t, 6).  The decimal t/6 is one correctly rounded float
    division of two exactly representable integers, so it equals
    float(Fraction(t, 6)).
    """
    import numpy as np

    for start in range(0, spec.N, SPECTRUM_BLOCK):
        part = slice(start, start + SPECTRUM_BLOCK)
        t = spec.t[part]
        g = np.gcd(t, 6)
        yield zip(
            spec.eta[part].tolist(),
            spec.l[part].tolist(),
            (t // g).tolist(),
            (6 // g).tolist(),
            (t / 6).tolist(),
        )


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
