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

What this checks, candidly: w = F g is the chirp e(-m^2/N) by construction,
since g is its inverse transform.  The checks are of the chain from the
factorisation to w_m, to the cycle products, to the traces, which are
compared with spectrum.power_sums, the paper's trace formula over the exact
levels (spectrum.eigenphases).  The numeric route is kept as the matrix
layer of that chain, not as an independent proof that U is unitary.
"""

import functools
import math


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

        g = ifft(e(-m^2/N)) is the circulant's first column, one inverse FFT,
        and w = fft(g) is one FFT; neither contains a.  V = S_a diag(F g)
        exactly for the U of that g, so V - S_a diag(w) = S_a diag(F g - w)
        and its spectral norm is the largest error of an FFT output entry.

        e is that error under a stated per-entry rounding model, not a proof.
        Higham (Accuracy and Stability of Numerical Algorithms, Thm 24.2)
        bounds a radix-2 FFT of length N by ||fl(F g) - F g||_2 <= log2(N) eta
        ||F g||_2 / (1 - log2(N) eta), eta = mu + gamma_4 (sqrt(2) + mu),
        with mu the error of the twiddle factors and gamma_4 = 4u / (1 - 4u).
        pocketfft computes its twiddles to about the unit roundoff
        u = 2^-53, so mu = u and, to first order in u, eta = c u with
        c = 1 + 4 sqrt(2).  Every |(F g)_m| is near 1, so ||F g||_2 is near
        sqrt(N), and the model spreads the error evenly over the N outputs:
        each is off by at most c u log2(N).  Taken entrywise, the normwise
        bound allows sqrt(N) times that, which at N = 16384 is above
        verify's unitarity tolerance.  The theorem is for radix 2; pocketfft
        factors other lengths into other radices, or uses Bluestein's
        algorithm for a large prime factor, and the model keeps c for them.
        Against F g summed in long double, the largest entry error was
        1.7 u log2(N) over N = 2..300 and 16 lengths up to 16384, primes
        among them.
        """
        import numpy as np

        N = self.N
        m = np.arange(N, dtype=np.int64)
        w = np.fft.fft(np.fft.ifft(np.exp(2j * np.pi * ((-m * m) % N) / N)))
        return w, (1 + 4 * math.sqrt(2)) * 2.0**-53 * math.log2(N)


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
    which bounds every entry of U U^dagger - I.

    For the factorised propagator E is the error of the weights, and e is
    its rounding model (Propagator.momentum), so the result is a bound under
    that model, for the U of the computed circulant column.  Over the test
    sets it is above the entries of the dense U U^dagger - I.
    """
    import numpy as np

    w, e = U.momentum
    mod2 = w.real**2 + w.imag**2
    return float(np.max(np.abs(1 - mod2)) + 2 * e * np.sqrt(mod2.max()) + e * e)


def trace_powers(U, n_max):
    """[Tr U^(kM) for k = 1..n_max // M] as power sums of the momentum-form eigenvalues.

    P W splits into D cycles of length M; on cycle r (the momenta
    m = r mod D) its M-th power is c_r times the identity, with c_r the
    product of the cycle's weights, so its eigenvalues are the M M-th roots
    of c_r.  Their n-th power sum is M c_r^(n/M) when M divides n and 0
    otherwise (the M-th roots of unity sum to zero), so only the M-lattice
    is returned: Tr U^(kM) = M sum_r c_r^k, the c_r^k from one running
    product over the D cycles: O(N + D n_max / M) after the momentum form.

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
    import numpy as np

    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    w, _ = U.momentum
    N = U.N
    D = math.gcd(int(U.a), N)
    M = N // D
    cycles = np.prod(w.reshape(M, D), axis=0)
    power = np.ones(D, dtype=complex)
    out = []
    for _ in range(n_max // M):
        power *= cycles
        out.append(complex(M * power.sum()))
    return out
