"""Exact eigenphase spectra of the quantized skew translation.

For an approximant (a, N) with D = gcd(a, N) and M = N/D the propagator
eigenphases are

    phi_{eta,l} = l*D - eta^2 + eta*a - a^2 (M-1)(2M-1)/6   (mod N),

eta = 1..D, l = 0..M-1, reduced into [0, N).  They are rationals whose
denominator divides 6, so the spectrum is held exactly as the integers
t = 6 phi in [0, 6N): three int64 arrays t, eta and l, 24 bytes per level,
sorted by (t, eta, l).  Fractions are built only by the on-demand view
Spectrum.values.  Because the l-dependence is an additive shift by D, the
spectrum is periodic with period D, and its gap structure is that of the
D-level block {-eta^2 mod D} (reduced_spectrum) repeated M times.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .diophantine import Approximant


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sorted multiset of the N eigenphases of one approximant.

    t holds 6 phi as int64 in [0, 6N), ascending; eta and l are the int64
    labels of each level.  Ties in t are ordered by (eta, l).  eigenphases
    makes the three arrays read-only, so the direct number-variance sweep's
    memo (_sweeps, one entry per window width) cannot go stale.
    """

    app: Approximant
    t: np.ndarray
    eta: np.ndarray
    l: np.ndarray
    _sweeps: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def N(self):
        return self.app.N

    @property
    def values(self):
        """Sorted eigenphase values with multiplicity, as Fractions."""
        return [Fraction(t, 6) for t in self.t.tolist()]


def base_levels(app):
    """(eta, t): the D levels with l = 0, in eta order, t = 6 phi in [0, 6N).

    6 phi = 6 (l D + eta (a - eta)) - a^2 (M-1)(2M-1)  (mod 6N).  The constant
    and a are reduced mod 6N and N as Python ints, so a huge a cannot
    overflow; every int64 intermediate stays below 6 N^2.
    """
    import numpy as np

    a, N, M = app.a, app.N, app.M
    size = 6 * N
    const = a * a * (M - 1) * (2 * M - 1) % size
    eta = np.arange(1, app.D + 1, dtype=np.int64)
    return eta, (6 * eta * (a % N - eta) - const) % size


def eigenphases(app):
    """Exact spectrum of the approximant, sorted ascending in [0, N).

    Adding 1 to l moves a level one block of length 6D, so the D levels with
    l = 0 (base_levels), at base = 6 D q + r, are sorted by r (ties by eta)
    and tiled in (t, eta, l) order: block m holds t = 6 D m + r with
    l = (m - q) mod M.  The arrays are returned read-only.
    """
    import numpy as np

    eta, base = base_levels(app)
    block, M = 6 * app.D, app.M
    q, r = np.divmod(base, block)
    order = np.argsort(r, kind="stable")
    eta, q, r = eta[order], q[order], r[order]
    m = np.arange(M, dtype=np.int64)[:, None]
    arrays = (block * m + r).ravel(), np.tile(eta, M), ((m - q) % M).ravel()
    for x in arrays:
        x.flags.writeable = False
    return Spectrum(app, *arrays)


def reduced_spectrum(D):
    """The D-level block: the spectrum of (a, N) = (0, D), with M = 1.

    Its levels are t = 6 (-eta^2 mod D), sorted.  Every spectrum with
    gcd(a, N) = D is M translates of this block, so its spacing law and its
    number variance are the block's.
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    return eigenphases(Approximant(0, D))


def degeneracy_profile(spec):
    """Multiplicity of each residue t // 6 of a D-level block, as a dict."""
    return dict(sorted(Counter((spec.t // 6).tolist()).items()))


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
