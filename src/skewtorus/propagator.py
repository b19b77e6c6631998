"""The unitary propagator of the quantized skew translation.

In the position representation the N x N matrix is the l-sum

    (U_N)_{kj} = (1/N) sum_{l=0}^{N-1} e(l k/N) X_{lj},
    X_{lj} = e(-((l-a)^2 + (l-a) j)/N),

j, k = 0..N-1, with e(x) = exp(2 pi i x).  Substituting m = l - a gives its
exact factorisation, a diagonal times a circulant:

    U = diag(e(a k/N)) Circ(g),    g_n = (1/N) sum_m e(-m^2/N) e(m n/N),

where g, the circulant's first column, is the inverse DFT of the chirp
e(-m^2/N).  With F the DFT matrix (F_{mk} = e(-m k/N)), F Circ(g) F^-1 is
diag(F g) and F diag(e(a k/N)) F^-1 is the cyclic shift S_a: m -> m + a
(mod N), so the momentum form is

    V = F U F^-1 = S_a diag(w),    w = F g,

the weighted permutation V[(m + a) mod N, m] = w_m, zero elsewhere.  The
weights take one FFT of g and do not contain a.  The chirp's exponents are
exact integer residues mod N (m^2 stays in int64 for N < 3e9), so no phase
accumulates.

The shift splits the N momenta into D = gcd(a, N) cycles of length M = N/D,
one per residue class mod D, which is how the paper derives the
eigenphases; a reaches the traces only through D.  Unitarity is bounded
from |w_m| and a stated model of the FFT's rounding, and the numeric traces
are the power sums of the M-th roots of the D cycle products of the w_m:
O(N log N) in all, with no eigensolve, no dense product and no N x N array.

Two steps have two forms each, chosen by the step's own count of complex
products against spectrum.PYTHON_OPS: the weights' FFTs and the trace
loop's running power.  At or below it the step runs on Python complex
numbers (the weights by the mixed-radix FFT _dft), above it on numpy, which
is imported only then.  The weights' count reads N alone and the loop's D
alone, so a small verify loads no numpy.  The weights are a list from _dft
and an array from numpy, and the unitarity bound and the cycle products
read either one way, element by element.

What this checks, candidly: w = F g is the chirp e(-m^2/N) by construction,
since g is its inverse transform.  The checks are of the chain from the
factorisation to w_m, to the cycle products, to the traces, which are
compared with spectrum.power_sums, the paper's trace formula over the exact
levels (spectrum.eigenphases).  The numeric route is kept as the matrix
layer of that chain, not as an independent proof that U is unitary.
"""

import functools
import math

from .spectrum import PYTHON_OPS, _roots


class Propagator:
    """The propagator U_N by its defining integers (N, a).

    U = diag(e(a k/N)) Circ(g) is held through (N, a): the diagonal is exact
    in them, and momentum makes g and reads the weights w = F g from it.  No
    N x N array is made or kept.
    """

    N: int
    a: int

    def __init__(self, N, a):
        self.N, self.a = N, a

    @functools.cached_property
    def momentum(self):
        """(w, e): the weights w_m = V[(m + a) mod N, m] and e >= ||V - S_a diag(w)||_2.

        g = F^-1 e(-m^2/N) is the circulant's first column, one inverse FFT,
        and w = F g is one FFT; neither contains a.  V = S_a diag(F g)
        exactly for the U of that g, so V - S_a diag(w) = S_a diag(F g - w)
        and its spectral norm is the largest error of an FFT output entry.
        Each transform makes N S(N) products, S(N) the sum of N's prime
        factors with multiplicity (_dft).  When the two make at most
        spectrum.PYTHON_OPS, w is a list of Python complex numbers from
        _dft, and otherwise a numpy array from numpy's pocketfft, which
        keeps 16 bytes a weight where a list keeps 40 (a 32-byte complex
        and its pointer).  The choice reads N alone, so neither w nor e
        contains a.

        e is that error under a stated per-entry rounding model, not a proof.
        Higham (Accuracy and Stability of Numerical Algorithms, Thm 24.2)
        bounds a radix-2 FFT of length N by ||fl(F g) - F g||_2 <= log2(N) eta
        ||F g||_2 / (1 - log2(N) eta), eta = mu + gamma_4 (sqrt(2) + mu),
        with mu the error of the twiddle factors and gamma_4 = 4u / (1 - 4u).
        pocketfft and _roots compute their twiddles to about the unit
        roundoff u = 2^-53, so mu = u and, to first order in u, eta = c u
        with c = 1 + 4 sqrt(2).  Every |(F g)_m| is near 1, so ||F g||_2 is
        near sqrt(N), and the model spreads the error evenly over the N
        outputs: each is off by at most c u log2(N).  Taken entrywise, the
        normwise bound allows sqrt(N) times that, which at N = 16384 is
        above verify's unitarity tolerance.  The theorem is for radix 2;
        both FFTs factor other lengths into other radices (pocketfft uses
        Bluestein's algorithm for a large prime factor, _dft sums a prime
        length directly), and the model keeps c for them.  Against F g
        summed in long double, the largest entry error of pocketfft was
        1.7 u log2(N) over N = 2..300 and 16 lengths up to 16384, primes
        among them, and that of _dft 2.2 u log2(N) over N = 2..64, the
        primes 127, 179 and 181 and N = 1024 and 1536
        (test_weights_error_within_the_model).
        """
        N = self.N
        e = (1 + 4 * math.sqrt(2)) * 2.0**-53 * math.log2(N)
        if 2 * N * sum(_prime_factors(N)) <= PYTHON_OPS:
            return _weights_python(N), e
        return _weights_numpy(N), e


def _prime_factors(n):
    """The prime factors of n >= 1 with multiplicity, ascending."""
    out, p = [], 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    return out + [n] if n > 1 else out


def _dft(x, factors, roots, step):
    """[sum_j x_j e(s j k / n) for k < n] of the list x, over Python complex numbers.

    n = len(x) is the product of the ascending prime list factors, and
    roots[t * step % len(roots)] = e(s t / n) for the sign s = +-1, so one
    table from spectrum._roots serves every length that divides its own.
    Cooley-Tukey on the smallest prime factor p: with n = p m, the p
    transforms Y_j of x[j::p] give X_k = sum_j e(s j k / n) Y_j[k mod m],
    n p products and sums.  At a prime length m = 1 and Y_j = x_j, so that
    step is the direct DFT.  A transform of length n thus makes n S(n)
    products, S(n) = sum(factors), and every twiddle is read at an exact
    integer residue.
    """
    if len(x) == 1:
        return x
    p, size = factors[0], len(roots)
    ys = [_dft(x[j::p], factors[1:], roots, step * p) for j in range(p)]
    out = ys[0] * p
    for j in range(1, p):
        t = j * step
        out = [z + y * roots[k * t % size] for k, (z, y) in enumerate(zip(out, ys[j] * p))]
    return out


def _weights_python(N):
    """w = F F^-1 e(-m^2/N) as a list, by two _dft transforms over one table."""
    roots, factors = _roots(N), _prime_factors(N)
    chirp = [roots[-m * m % N] for m in range(N)]
    g = [z / N for z in _dft(chirp, factors, roots, 1)]
    return _dft(g, factors, roots, -1)


def _weights_numpy(N):
    """w = fft(ifft(e(-m^2/N))) as a numpy array, by pocketfft."""
    import numpy as np

    m = np.arange(N, dtype=np.int64)
    return np.fft.fft(np.fft.ifft(np.exp(2j * np.pi * ((-m * m) % N) / N)))


def build_propagator(app):
    """U_N for the approximant; the momentum form is computed on first use."""
    return Propagator(app.N, app.a)


def unitarity_defect(U):
    """Bound on ||U U^dagger - I||_2 from the momentum form (w, e); O(N).

    Returns max|1 - |w_m|^2| + 2 e max|w_m| + e^2.  Write V = P W + E with
    P W the weighted permutation of the weights and ||E||_2 <= e.  Then
    V V^dagger - I = P (W W^dagger - I) P^dagger + P W E^dagger
    + E W^dagger P^dagger + E E^dagger, whose spectral norm is at most the
    sum of the three terms.  F / sqrt(N) is unitary, so V V^dagger - I is
    unitarily similar to U U^dagger - I and has the same spectral norm,
    which bounds every entry of U U^dagger - I.  |1 - r^2| falls on
    0 <= r <= 1 and rises above, so over the moduli it is largest at the
    least or the greatest.

    For the factorised propagator E is the error of the weights, and e is
    its rounding model (Propagator.momentum), so the result is a bound under
    that model, for the U of the computed circulant column.  Over the test
    sets it is above the entries of the dense U U^dagger - I.  A NaN or
    infinite weight makes it NaN: min and max pass over a NaN that is not
    first, so the moduli's sum is what sees it.  The weights are read
    element by element, as a list or an array alike.
    """
    w, e = U.momentum
    r = [abs(z) for z in w]
    if not math.isfinite(sum(r)):
        return math.nan
    lo, hi = min(r), max(r)
    return max(abs(1 - lo * lo), abs(1 - hi * hi)) + 2 * e * hi + e * e


def trace_powers(U, n_max):
    """[Tr U^(kM) for k = 1..n_max // M] as power sums of the momentum-form eigenvalues.

    P W splits into D cycles of length M; on cycle r (the momenta
    m = r mod D) its M-th power is c_r times the identity, with c_r the
    product of the cycle's weights, so its eigenvalues are the M M-th roots
    of c_r.  Their n-th power sum is M c_r^(n/M) when M divides n and 0
    otherwise (the M-th roots of unity sum to zero), so only the M-lattice
    is returned: Tr U^(kM) = M sum_r c_r^k, the c_r^k from one running
    product over the D cycles: O(N + D n_max / M) after the momentum form.
    The c_r are made once, in one pass over the weights in momentum
    order, whether they are a list or an array.  The running product makes
    D n_max / M complex products (2 D^2 at verify's n_max = 2N); up to
    spectrum.PYTHON_OPS of them it runs in Python, above in numpy.

    U is normal, so by Bauer-Fike every eigenvalue of P W lies within
    ||E||_2 <= e of one of U's.  For the traces themselves,
    Tr V^n - Tr (P W)^n is a sum of n terms Tr(V^j E (P W)^(n-1-j)), each at
    most N e in modulus while every weight has modulus near 1.

    Tolerance model.  Each weight is off by a few u; c_r^(n/M) compounds n
    of them, so each of the N terms of Tr U^n is off by about n u, and the
    residual against the trace formula over n <= 2N grows as N^2 u.
    Measured for verify --a 1: 5.1e-9, 2.3e-8 and 9.6e-8 at N = 4096, 8192
    and 16384, and 5.7e-4 at N = 2^20.  verify's tolerance 1e-9 N grows only
    as N (1.6e-5 at N = 16384, a margin of 170x); the two cross near
    N = 2e6, far above cli.MAX_VERIFY_N.  The tolerance is not widened to
    reach past that.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    w, _ = U.momentum
    N = U.N
    D = math.gcd(int(U.a), N)
    M = N // D
    steps = n_max // M
    cycles = [1] * D
    for m, z in enumerate(w):
        cycles[m % D] *= z
    if steps * D <= PYTHON_OPS:
        return _traces_python(cycles, M, steps)
    return _traces_numpy(cycles, M, steps)


def _traces_python(cycles, M, steps):
    """M sum_r c_r^k for k = 1..steps, on Python complex numbers."""
    power = [1] * len(cycles)
    out = []
    for _ in range(steps):
        power = [x * c for x, c in zip(power, cycles)]
        out.append(complex(M * sum(power)))
    return out


def _traces_numpy(cycles, M, steps):
    """M sum_r c_r^k for k = 1..steps, on numpy arrays."""
    import numpy as np

    cycles = np.array(cycles, dtype=complex)
    power = np.ones(len(cycles), dtype=complex)
    out = []
    for _ in range(steps):
        power *= cycles
        out.append(complex(M * power.sum()))
    return out
