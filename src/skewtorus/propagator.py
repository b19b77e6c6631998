"""The unitary propagator of the quantized skew translation.

In the position representation the N x N matrix is the l-sum

    (U_N)_{kj} = (1/N) sum_{l=0}^{N-1} e(l k/N) X_{lj},
    X_{lj} = e(-((l-a)^2 + (l-a) j)/N),

j, k = 0..N-1, with e(x) = exp(2 pi i x).  With F the DFT matrix
(F_{mk} = e(-m k/N)) the sum says F U = X exactly, so the momentum form is

    V = F U F^-1 = X F^-1,

and row l of V is one inverse FFT of row l of X.  Row l of X is the plane
wave e(-m^2/N) e(-m j/N) with m = (l - a) mod N, so V is the weighted
permutation V[(m + a) mod N, m] = w_m = e(-m^2/N), zero elsewhere.  Its
rows are read in momentum order: the row of m is the inverse FFT of the
roots e(-(m^2 + m j)/N), with w_m in column m whichever row l it is, so a
enters neither w nor ||E||_F.  Each exponent is an exact integer residue
mod N indexing one table of N-th roots of unity, so no phase accumulates.
V is made MOMENTUM_BLOCK rows at a time, each block read and dropped
(Propagator.momentum); the N x N matrix is never held.

The shift m -> m + a (mod N) splits the N momenta into D = gcd(a, N)
cycles of length M = N/D, one per residue class mod D, which is how the
paper derives the eigenphases; a reaches the traces only through D.
Unitarity is bounded from |w_m| and the off-support remainder ||E||_F, and
the numeric traces are the power sums of the M-th roots of the D cycle
products of the w_m: O(N^2 log N) in all, with no eigensolve and no dense
product.

What this checks, candidly: V is a weighted permutation by inspection of X,
and E is FFT rounding.  The checks are of the chain from the defining sum to
w_m = e(-m^2/N), to the cycle products, to the traces, which are compared
with spectrum.power_sums, the paper's trace formula over the exact levels
(spectrum.eigenphases).  The numeric route is kept as the matrix layer of
that chain, not as an independent proof that U is unitary.
"""

import functools
import math

# Memory model: 40 B N bytes for a block of B = MOMENTUM_BLOCK rows of
# length N, plus O(N) for the table of roots and the weights.  A block holds
# its int64 exponents (8 B N) and X (16 B N), in two buffers made once and
# reused, and the inverse FFT of X (16 B N), dropped before the next
# block's is made; tracemalloc reads 42.7 B N at B = 16, N = 2048, the O(N)
# terms included.  At B = 16 that is 10.5 MB even at N = 16384, so
# memory does not bound N: the guard caps run time, which grows as
# N^2 log N.  verify --a 1 --N 16384 takes about 6 s at 42 MB peak RSS
# (2-vCPU VM, one BLAS thread).
DEFAULT_MAX_N = 16384
# Rows of X transformed at a time, sized for memory: from 8 to 256 rows the
# momentum time does not grow as the block shrinks (N = 16384: 5.3 s at 16
# rows, 7.8 s at 256), while peak RSS grows with it (41 and 191 MB).
MOMENTUM_BLOCK = 16


class Propagator:
    """The propagator U_N by its defining integers (N, a).

    No N x N array is made or kept: momentum reads V = X F^-1 from the
    defining sum in row blocks and keeps only the weights and ||E||_F.
    """

    N: int
    a: int

    def __init__(self, N, a):
        self.N, self.a = N, a

    @functools.cached_property
    def momentum(self):
        """(w, e): the weights w_m = V[(m + a) mod N, m] and ||E||_F.

        V = X F^-1 = F U F^-1 is unitarily similar to U; it is the inverse
        FFT of the rows of X, which carries the 1/N.  E is V with the N
        weights set to zero.  X is made MOMENTUM_BLOCK rows at a time in
        momentum order, the row of m = 0..N-1 from the exponents
        (-m^2 - m j) mod N, which stay below 2 N^2 in int64; w_m is in its
        column m.  Each block is inverse-transformed, read for w and its
        share of |E|^2, and dropped; the exponents and X are written into
        two buffers that every block reuses.
        """
        import numpy as np

        N = self.N
        j = np.arange(N, dtype=np.int64)
        roots = np.exp(2j * np.pi * j / N)
        w = np.empty(N, dtype=complex)
        off = 0.0
        # Blocks made afresh go back to the OS when dropped and are faulted
        # in again: verify --a 1 --N 4096 took 160000 minor page faults
        # that way, 5500 with the two buffers reused.
        exps = np.empty((MOMENTUM_BLOCK, N), dtype=np.int64)
        x = np.empty((MOMENTUM_BLOCK, N), dtype=complex)
        for start in range(0, N, MOMENTUM_BLOCK):
            m = j[start : start + MOMENTUM_BLOCK]
            col = m.reshape(-1, 1)
            e, xb = exps[: len(m)], x[: len(m)]
            np.add(j, col, out=e)
            np.multiply(e, -col, out=e)
            np.remainder(e, N, out=e)
            # mode="clip" never clips a residue; it spares take the copy
            # it makes for out= in the default mode
            rows = np.fft.ifft(np.take(roots, e, out=xb, mode="clip"), axis=1)
            i = m - start
            w[m] = rows[i, m]
            rows[i, m] = 0
            off += np.vdot(rows, rows).real
            del rows
        return w, math.sqrt(off)


def build_propagator(app, max_n=DEFAULT_MAX_N):
    """U_N for the approximant, guarded by max_n.

    Raises ValueError when N exceeds max_n, before any work; the momentum
    form is computed on first use.
    """
    N = app.N
    if N > max_n:
        raise ValueError(f"N={N} exceeds the dimension guard max_n={max_n}")
    return Propagator(N, app.a)


def unitarity_defect(U):
    """Bound on ||U U^dagger - I||_2 from the momentum form; O(N^2 log N).

    Returns max|1 - |w_m|^2| + 2 ||E||_F max|w_m| + ||E||_F^2.  Write
    V = P W + E with P W the weighted permutation of the weights.  Then
    V V^dagger - I = P (W W^dagger - I) P^dagger + P W E^dagger
    + E W^dagger P^dagger + E E^dagger, whose spectral norm is at most the
    sum of the three terms (||E||_2 <= ||E||_F).  F / sqrt(N) is unitary,
    so V V^dagger - I is unitarily similar to U U^dagger - I and has the
    same spectral norm, which bounds every entry of U U^dagger - I.

    The bound certifies the computed V.  The roots of unity are rounded to
    the unit roundoff u and the inverse FFT is backward stable, so computed
    V is the exact X' F^-1 of an X' with ||X' - X||_F <= c u log2(N) ||X||_F:
    a bound for a matrix F^-1 X' that differs from U by that much relative
    to ||U||_F.  In practice the rounding lands in E and the weights, and
    over the test sets the bound is above the entries of the dense
    U U^dagger - I.
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
    ||E||_2 of one of U's.  For the traces themselves,
    Tr V^n - Tr (P W)^n is a sum of n terms Tr(V^j E (P W)^(n-1-j)), each at
    most sqrt(N) ||E||_F in modulus while every weight has modulus near 1.

    Tolerance model.  Each weight is off by a few u; c_r^(n/M) compounds n
    of them, so each of the N terms of Tr U^n is off by about n u, and the
    residual against the trace formula over n <= 2N grows as N^2 u.
    Measured for verify --a 1: 4.2e-9, 1.8e-8 and 7.0e-8 at N = 4096, 8192
    and 16384.  verify's tolerance 1e-9 N grows only as N (1.6e-5 at
    N = 16384, a margin of 235x); the two cross near N = 4e6, far above
    DEFAULT_MAX_N.  The tolerance is not widened to reach past that.
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
