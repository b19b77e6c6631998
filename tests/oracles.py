"""Brute-force reference implementations for small N.

These are the direct, unstructured routes: the eigenphase formula evaluated
with one Fraction per level, the l-sum that defines the propagator entries
(O(N^3)), traces of powers by matrix power, from one running matrix product
(O(N^4) for n up to 2N) or as power sums of one dense eigensolve (O(N^3)),
the unitarity defect as the largest entry of the dense U U^dagger - I
(O(N^3)), the lattice traces from the cycle products and the trace formula's
power sums over the whole range k <= 2D in numpy (traces_numpy,
power_sums_fft, where verify makes at most spectrum.PYTHON_OPS products
of either), eigenvalue power sums from one Fraction-reduced
exponential per level and per n (O(N n_max)), the number variance by an event sweep over
Fraction breakpoints with one bisection count per segment (O(N^2 log N)),
and Sigma^2_D as the Bernoulli-B2 sum over pairs of D residues.  The N
levels are also built as int64 arrays straight from the formula, with one
lexsort, and read by np.diff for the spacings and by a searchsorted sweep
over all N levels for the number variance (O(N log N) per L).  The library
computes the same quantities from one period of D levels (a histogram over
Z_D, with the rows tiled from it), the weights of the momentum-basis
matrix V = S_a diag(w) (w = F g, one FFT of the circulant's first column,
with no N x N array; the oracle here builds the dense U from the same
diagonal-times-circulant factorisation, proved against the l-sum, and
takes V from it by two FFTs of the N x N array), one FFT of length D over
the histogram and the squared level counts of the period's windows of
integer width, and writes the spectrum in fixed-size blocks from one row template;
the tests compare the two.  The oracles that need the levels of a spectrum
take them from eigenphases_fraction(spec.app), never from its histogram,
and level_arrays reads the library's own tiling back as int64 arrays.  The spectrum's CSV
and JSON are written here one record per level from the Fraction formula,
with json.dumps for the JSON.  The Gauss-sum series takes its table
|S_D(r)|^2 from one gauss_sum call per residue r < D (O(D^2)), where the
library evaluates |S_D(k)|^2 in closed form from gcd(k, D).
robustness_pairs lists the edge-case approximants that the seeded
randomized cross-checks share.  power_sums_error and power_sums_fft_error
write out the rounding that spectrum.power_sums and power_sums_fft state.
"""
import cmath
import functools
import json
import math
import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction

import numpy as np

from skewtorus.propagator import Propagator, _weight_error
from skewtorus.spectrum import _level_blocks
from skewtorus.statistics import gauss_sum


def eigenphases_fraction(app):
    """[(value, eta, l)] from the eigenphase formula in Fractions, sorted."""
    a, N, D, M = app.a, app.N, app.D, app.M
    const = Fraction(a * a * (M - 1) * (2 * M - 1), 6)
    rows = []
    for eta in range(1, D + 1):
        base = Fraction(eta * a - eta * eta) - const
        for l in range(M):
            rows.append(((base + l * D) % N, eta, l))
    return sorted(rows)


def propagator_lsum(a, N):
    """Entries (1/N) sum_l e((l k - (l-a)^2 - (l-a) j)/N) by the l-sum."""
    ared = a % N
    k = np.arange(N, dtype=np.int64).reshape(-1, 1)
    j = np.arange(N, dtype=np.int64).reshape(1, -1)
    roots = np.exp(2j * np.pi * np.arange(N) / N)
    acc = np.zeros((N, N), dtype=complex)
    for l in range(N):
        expo = (l * k - (l - ared) ** 2 - (l - ared) * j) % N
        acc += roots[expo]
    return acc / N


def dense_propagator(a, N):
    """U as an N x N array from its factorisation diag(e(a k/N)) C.

    Substituting m = l - a in the l-sum gives C circulant,
    C_{kj} = g_{(k-j) mod N}, with first column g = ifft(e(-m^2/N)), one
    inverse FFT of length N.  Row k of C is h[k : k + N] reversed,
    h = g[1:] ++ g, so C is a view of 2N - 1 values and the product with
    the diagonal is the only N x N allocation.
    """
    m = np.arange(N, dtype=np.int64)
    roots = np.exp(2j * np.pi * m / N)
    g = np.fft.ifft(roots[(-m * m) % N])
    d = roots[((a % N) * m) % N]
    h = np.concatenate((g[1:], g))
    windows = np.lib.stride_tricks.sliding_window_view(h, N)
    return windows[:, ::-1] * d.reshape(-1, 1)


def momentum_two_buffer(entries, a):
    """(w, e) of V = F U F^-1 from a dense U, by two FFTs.

    The column FFT of U goes into one new array and the row inverse FFT of
    that into another; w_m is V[(m + a) mod N, m], and e = ||E||_F of the
    rest of V bounds ||E||_2.
    """
    N = len(entries)
    V = np.fft.ifft(np.fft.fft(entries, axis=0), axis=1)
    m = np.arange(N)
    k = (m + int(a) % N) % N
    w = V[k, m]
    V[k, m] = 0
    return w, math.sqrt(np.vdot(V, V).real)


class DenseMatrix(Propagator):
    """Any N x N array labelled (N, a), read by the library as a propagator.

    Its momentum form comes from momentum_two_buffer, so unitarity_defect
    and trace_powers read a matrix that need not be the propagator of a.
    """

    def __init__(self, N, a, entries):
        super().__init__(N, a)
        self.entries = entries

    @functools.cached_property
    def momentum(self):
        return momentum_two_buffer(self.entries, self.a)


def trace_power_numeric(entries, n):
    """Tr(U^n) by matrix power; n = 0 returns N (identity convention)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return complex(np.trace(np.linalg.matrix_power(entries, n)))


def traces_running_product(entries, n_max):
    """[Tr U^1, ..., Tr U^n_max] from one running matrix product."""
    out = []
    V = entries
    for _ in range(n_max):
        out.append(complex(np.trace(V)))
        V = V @ entries
    return out


def eigvals_power_sums(entries, n_max):
    """[Tr U^1, ..., Tr U^n_max] as power sums of np.linalg.eigvals(U)."""
    lam = np.linalg.eigvals(entries)
    p = np.ones_like(lam)
    out = []
    for _ in range(n_max):
        p *= lam
        out.append(complex(p.sum()))
    return out


def traces_numpy(U, n_max):
    """[Tr U^(kM) for k = 1..n_max // M] as M sum_r c_r^k, over numpy arrays.

    The running product of propagator.trace_powers over U.cycles, one numpy
    product of D values per k, so it reaches every lattice point up to
    n_max = 2N (2 D^2 products) at any D, where verify compares only
    spectrum.PYTHON_OPS // D of them.
    """
    cycles = np.array(U.cycles, dtype=complex)
    M = U.N // len(cycles)
    power = np.ones(len(cycles), dtype=complex)
    out = []
    for _ in range(n_max // M):
        power *= cycles
        out.append(complex(M * power.sum()))
    return out


def power_sums_fft(spec, n_max):
    """The trace formula's lattice sums as N e(k rho / 6D) ifft(h)[k mod D], k = 1..n_max // M.

    sum_u h_u e(k (6u + rho) / 6D) is e(k rho / 6D) times D ifft(h) at k mod
    D, one inverse FFT of length D over the histogram for every k, with
    k rho reduced mod 6D in integers.

    Its rounding, to first order in u = 2^-53 (power_sums_fft_error): the
    FFT's entries under propagator.momentum's model, Higham's normwise
    bound c u log2(D) ||ifft(h)||_2 taken entrywise, with
    ||ifft(h)||_2 = ||h||_2 / sqrt(D), and each of modulus at most 1; the
    phase's angle, below 2 pi, rounds three times (6 pi u) and its cosine
    and sine one ulp each (2 u); the scaling by 1/D and the product by N a
    u each, and the product of the two factors sqrt(5) u.  All of it is
    relative to N.
    """
    D = spec.app.D
    size = 6 * D
    k = np.arange(1, n_max // spec.app.M + 1)
    phase = np.exp(2j * np.pi * ((k % size) * spec.rho % size) / size)
    return (spec.N * phase * np.fft.ifft(spec.hist)[k % D]).tolist()


def power_sums_fft_error(spec):
    """N (c u log2(D) ||h||_2 / sqrt(D) + (6 pi + 4 + sqrt(5)) u): power_sums_fft's rounding."""
    D = spec.app.D
    fft = _weight_error(D) * math.sqrt(sum(h * h for h in spec.hist) / D)
    return spec.N * (fft + (6 * math.pi + 4 + math.sqrt(5)) * 2.0**-53)


def power_sums_error(D, M, k):
    """M D ((1 + 5 u)^k (1 + sqrt(5) u)^(k-1) / (1 - D u) - 1): spectrum.power_sums' model at k."""
    u = 2.0**-53
    return M * D * math.expm1(
        k * math.log1p(5 * u) + (k - 1) * math.log1p(math.sqrt(5) * u) - math.log1p(-D * u)
    )


def dense_unitarity_defect(entries):
    """Largest absolute entry of U U^dagger - I from the dense product."""
    G = entries @ entries.conj().T
    G.flat[:: len(G) + 1] -= 1
    return float(np.abs(G).max())


def power_sums_fraction(spec, n_max):
    """sum_j e(n phi_j / N) with each n phi_j / N reduced mod 1 as a Fraction.

    The levels come from eigenphases_fraction, not from the spectrum's
    histogram.
    """
    N = spec.N
    vals = [v for v, _, _ in eigenphases_fraction(spec.app)]
    out = []
    for n in range(1, n_max + 1):
        s = 0j
        for v in vals:
            s += cmath.exp(2j * math.pi * float((n * v / N) % 1))
        out.append(s)
    return out


def eigenphases_int64(app):
    """(t, eta, l): all N levels 6 phi as int64, sorted by (t, eta, l).

    Each level is evaluated from the eigenphase formula and the N of them
    are sorted with one lexsort; the library instead holds one period and
    tiles it.  Needs 6 D N below 2^63.
    """
    a, N, D, M = app.a, app.N, app.D, app.M
    size = 6 * N
    const = a * a * (M - 1) * (2 * M - 1) % size
    eta = np.repeat(np.arange(1, D + 1, dtype=np.int64), M)
    l = np.tile(np.arange(M, dtype=np.int64), D)
    t = (6 * (l * D + eta * (a % N - eta)) - const) % size
    order = np.lexsort((l, eta, t))
    return t[order], eta[order], l[order]


def level_arrays(spec):
    """(t, eta, l) of the spectrum's own N levels as int64, t = 6 q + rho.

    The library holds only the period; this tiles it through the row writers'
    blocks so the tests can compare it with eigenphases_int64.
    """
    cols = [], [], []
    for block in _level_blocks(spec):
        for col, x in zip(cols, block):
            col.extend(x)
    eta, l, q = (np.array(col, dtype=np.int64) for col in cols)
    return 6 * q + spec.rho, eta, l


def spacings_int64(app):
    """Circular spacing atoms ((s, weight), ...) from np.diff of the N levels."""
    t, _, _ = eigenphases_int64(app)
    N = app.N
    gaps = np.append(np.diff(t), t[0] + 6 * N - t[-1])
    sixths, counts = np.unique(gaps, return_counts=True)
    return tuple(
        (Fraction(s, 6), Fraction(c, N)) for s, c in zip(sixths.tolist(), counts.tolist())
    )


def _pair_sums_int64(t, N, width):
    """(pairs, total): the entries ext[k], k >= i, within width of t_i.

    ext = t ++ (t + 6N) is never built: width <= 6N, so the range of k
    wraps at most once, and one searchsorted over t bounds every range.
    The distance total reaches about 6 N^3, past int64, so the 32-bit
    halves of the per-level sums are added apart as Python ints.
    """
    size = 6 * N
    csum = np.zeros(N + 1, dtype=np.int64)
    np.cumsum(t, out=csum[1:])
    i = np.arange(N)
    x = t + width
    q = x >= size
    k = np.searchsorted(t, x - size * q)
    cnt = k + N * q - i
    dist = csum[k] + q * (csum[N] + k * size) - csum[i] - cnt * t
    total = (int(np.sum(dist >> 32)) << 32) + int(np.sum(dist & 0xFFFFFFFF))
    return int(np.sum(cnt)), total


def number_variance_sweep(app, L):
    """Exact Sigma^2(L) by the pair sweep over all N levels in int64.

    (1/S) int n^2 du - R^2 in units u = 6 phi (S = 6N, w = 6R), where
    int n^2 du = 2 (w pairs - total) - N w over the pairs within the
    integer width ceil(w): a level lies in the window for a u-range of
    length w, and two levels a forward distance d < w apart share w - d of
    it.  pairs counts each level with itself and those ahead of it, and
    total sums their d.
    """
    L = Fraction(L)
    N = app.N
    R = L % N
    if not R:
        return Fraction(0)
    t, _, _ = eigenphases_int64(app)
    pairs, total = _pair_sums_int64(t, N, math.ceil(6 * R))
    return R * (2 * pairs - N) / N - Fraction(total, 3 * N) - R * R


def _count(vals, N, phi):
    """Levels in [0, phi) of the N-periodic extension of sorted values vals."""
    whole, rem = divmod(phi, N)
    return whole * N + bisect_left(vals, rem)


def number_variance_events(spec, L):
    """Sigma^2(L) by a sweep over the sorted Fraction breakpoints.

    The integrand (count in [phi, phi+L) minus L)^2 is piecewise constant
    with breakpoints where a level enters or leaves the window; each segment
    is counted at its midpoint.  The levels come from eigenphases_fraction,
    not from the spectrum's histogram.
    """
    L = Fraction(L)
    N = spec.N
    vals = [v for v, _, _ in eigenphases_fraction(spec.app)]
    bps = {Fraction(0)}
    bps.update(vals)
    bps.update((v - L) % N for v in vals)
    cuts = sorted(bps)
    cuts.append(Fraction(N))
    acc = Fraction(0)
    for lo, hi in zip(cuts, cuts[1:]):
        if hi == lo:
            continue
        mid = (lo + hi) / 2
        c = _count(vals, N, mid + L) - _count(vals, N, mid)
        acc += (hi - lo) * (c - L) ** 2
    return acc / N


def _b2(x):
    """Bernoulli polynomial B2 of the fractional part of x."""
    x -= math.floor(x)
    return x * x - x + Fraction(1, 6)


def sigma2_exact(D, L):
    """Exact Sigma^2_D(L) from the D residues r = {-eta^2 mod D}.

    Summing the Gauss-sum series with sum_k cos(2 pi k y) / k^2 = pi^2 B2({y})
    gives sum_{i,j} [B2(d/D) - B2((d + L)/D)/2 - B2((d - L)/D)/2] with
    d = r_i - r_j, grouped here by d mod D (Berndt, Evans and Williams,
    Gauss and Jacobi Sums).
    """
    L = Fraction(L)
    r = [(-eta * eta) % D for eta in range(1, D + 1)]
    diffs = Counter((x - y) % D for x in r for y in r)
    total = Fraction(0)
    for d, count in diffs.items():
        y = Fraction(d, D)
        total += count * (_b2(y) - (_b2(y + L / D) + _b2(y - L / D)) / 2)
    return total


def spectrum_records(spec):
    """One dict (eta, l, numerator, denominator, decimal) per level, from Fractions.

    The levels come from eigenphases_fraction, not from the spectrum's own
    tiling, so the writers are checked against the formula.
    """
    return [
        {
            "eta": eta,
            "l": l,
            "numerator": value.numerator,
            "denominator": value.denominator,
            "decimal": float(value),
        }
        for value, eta, l in eigenphases_fraction(spec.app)
    ]


def spectrum_csv(spec):
    """The spectrum CSV, one f-string per level."""
    return "eta,l,numerator,denominator,decimal\n" + "".join(
        f"{r['eta']},{r['l']},{r['numerator']},{r['denominator']},{r['decimal']!r}\n"
        for r in spectrum_records(spec)
    )


def spectrum_json(spec):
    """The spectrum JSON: the list of records through json.dumps(indent=2)."""
    return json.dumps(spectrum_records(spec), indent=2) + "\n"


def number_variance_fourier_gauss(D, L, K):
    """(value, bound) of the Gauss-sum series, one gauss_sum call per r < D.

    The same series as the library's, summed over k = 1..K in one array.
    """
    g2 = np.array([abs(gauss_sum(D, r)) ** 2 for r in range(D)])
    ks = np.arange(1, K + 1, dtype=np.int64)
    L = Fraction(L)
    P = D * L.denominator
    # k num mod P in Python ints: P may exceed the int64 range
    phases = [k * L.numerator % P for k in range(1, K + 1)]
    sin2 = np.sin(np.pi * np.array(phases, dtype=float) / P) ** 2
    value = (2 / math.pi**2) * float(np.sum(sin2 * g2[ks % D] / ks.astype(float) ** 2))
    return value, 2 * D * D / (math.pi**2 * (K + 0.5))


def robustness_pairs(count=40, seed=4):
    """(a, N) with N <= 200: the listed edge cases, then seeded random pairs."""
    pairs = [
        (0, 1), (5, 1), (1, 3), (3, 6),  # N = 1 and the smallest N
        (0, 6), (0, 7), (12, 12), (30, 15),  # a = 0, D = N
        (10**30 + 7, 8), (10**30 + 7, 200),  # huge a
        (7, 7), (14, 49), (26, 39), (11, 121),  # prime D, a >= N
        (12, 18), (20, 30), (24, 36), (40, 100),  # composite D
        (1, 200), (3, 197), (199, 197),
    ]
    rnd = random.Random(seed)
    while len(pairs) < count:
        N = rnd.randint(1, 200)
        pairs.append((rnd.choice([0, rnd.randint(1, N), rnd.randint(N, 3 * N)]), N))
    return pairs
