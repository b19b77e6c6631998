"""The unitary propagator of the quantized skew translation.

In the position representation the N x N matrix is

    (U_N)_{kj} = (1/N) sum_{l=0}^{N-1} exp((2 pi i / N)(l k - (l-a)^2 - (l-a) j)),

j, k = 0..N-1.  Substituting m = l - a factors it as U_N = diag(e(a k/N)) C
with e(x) = exp(2 pi i x) and C circulant, C_{kj} = g_{(k-j) mod N}, whose
first column g = ifft(e(-m^2/N)) is one inverse FFT of length N.  Every
exponent is an exact integer residue mod N indexing a single table of N-th
roots of unity, so no phase accumulates.

In the momentum basis the matrix is a weighted permutation.  With F the DFT
matrix (F_{mk} = e(-m k/N)), F diag(e(a k/N)) = P F for the cyclic shift
P: e_m -> e_{m+a}, and F C F^-1 is diagonal, so

    V = F U F^-1,   V[(m + a) mod N, m] = w_m,   zero elsewhere.

The shift m -> m + a (mod N) splits the N momenta into D = gcd(a, N) cycles
of length M = N/D, one per residue class mod D, which is how the paper
derives the eigenphases.  The numeric checks use that structure without
assuming it: V is computed from the dense U by two FFTs in U's own buffer,
and its weights w_m and off-support remainder E are measured
(Propagator.momentum).  Unitarity is bounded from |w_m| and ||E||_F, and
the numeric traces are the power sums of the M-th roots of the D cycle
products of the w_m; both are O(N^2 log N), with no eigensolve and no
dense product.  The exact side they are compared with is
spectrum.power_sums, the paper's trace formula.
"""

import functools
import math

# Dense memory model: one N x N complex buffer of 16 N^2 bytes (268 MB at
# N = 4096) holds U, then F U, then V; the row FFTs overwrite it
# MOMENTUM_BLOCK rows at a time, and the propagator itself keeps only g
# and d (2N values).  verify --a 1 --N 4096 peaks at 286 MB (ru_maxrss,
# 2-vCPU VM, numpy 2.4).
DEFAULT_MAX_N = 4096
# Rows of F U transformed at a time by the second FFT.
MOMENTUM_BLOCK = 256


class Propagator:
    """The propagator U_N = diag(d) C by its defining integers and vectors.

    g is the first column of the circulant C (C_{kj} = g_{(k-j) mod N}) and
    d the diagonal phases d_k = e(a k/N), both of length N.  No N x N array
    is kept: dense builds U anew on each call, and momentum turns that one
    buffer into V in place and keeps only the weights and ||E||_F.
    """

    N: int
    a: int
    g: object
    d: object

    def __init__(self, N, a, g, d):
        self.N, self.a, self.g, self.d = N, a, g, d

    def dense(self):
        """U as a new N x N array, row k = d_k (g_k, g_{k-1}, ..., g_{k+1}).

        Row k of the circulant is h[k : k + N] reversed, h = g[1:] ++ g, so
        C is a view of 2N - 1 values and the product is the only N x N
        allocation.
        """
        import numpy as np

        h = np.concatenate((self.g[1:], self.g))
        windows = np.lib.stride_tricks.sliding_window_view(h, self.N)
        return windows[:, ::-1] * self.d.reshape(-1, 1)

    @functools.cached_property
    def momentum(self):
        """(w, e): the weights w_m = V[(m + a) mod N, m] and ||E||_F.

        V = F U F^-1 is the FFT of the columns of U followed by the inverse
        FFT of the rows of the result (which carries the 1/N), so it is
        unitarily similar to U.  E is V with the N weights set to zero.
        Both FFTs write into the buffer of dense(): the columns in one
        pass, then the rows MOMENTUM_BLOCK at a time, each block read for
        w and its share of |E|^2 before the next.  The buffer is dropped on
        return.
        """
        import numpy as np

        N = self.N
        shift = int(self.a) % N
        buf = self.dense()
        np.fft.fft(buf, axis=0, out=buf)
        w = np.empty(N, dtype=complex)
        off = 0.0
        for start in range(0, N, MOMENTUM_BLOCK):
            rows = buf[start : start + MOMENTUM_BLOCK]
            np.fft.ifft(rows, axis=1, out=rows)
            k = np.arange(start, start + len(rows))
            i, m = k - start, (k - shift) % N
            w[m] = rows[i, m]
            rows[i, m] = 0
            off += np.vdot(rows, rows).real
        return w, math.sqrt(off)


def build_propagator(app, max_n=DEFAULT_MAX_N):
    """U_N for the approximant as diag(e(a k/N)) times a circulant.

    One length-N FFT and O(N) other work, guarded by max_n; the N x N
    matrix is made only by Propagator.dense.  The exponents are invariant
    mod N under a -> a mod N, so a is reduced as a Python int before any
    int64 arithmetic and the intermediates stay below N^2.
    """
    import numpy as np

    N, a = app.N, app.a
    if N > max_n:
        raise ValueError(f"N={N} exceeds the dimension guard max_n={max_n}")
    ared = int(a) % N
    m = np.arange(N, dtype=np.int64)
    roots = np.exp(2j * np.pi * m / N)
    g = np.fft.ifft(roots[(-m * m) % N])
    return Propagator(N, a, g, roots[(ared * m) % N])


def unitarity_defect(U):
    """Bound on ||U U^dagger - I||_2 from the momentum form; O(N^2 log N).

    Returns max|1 - |w_m|^2| + 2 ||E||_F max|w_m| + ||E||_F^2.  Write
    V = P W + E with P W the weighted permutation of the weights.  Then
    V V^dagger - I = P (W W^dagger - I) P^dagger + P W E^dagger
    + E W^dagger P^dagger + E E^dagger, whose spectral norm is at most the
    sum of the three terms (||E||_2 <= ||E||_F).  F / sqrt(N) is unitary,
    so V V^dagger - I is unitarily similar to U U^dagger - I and has the
    same spectral norm, which bounds every entry of U U^dagger - I.

    The bound certifies the computed V.  The FFT is backward stable:
    computed V is the exact transform of U + dU with
    ||dU||_F <= c u log2(N) ||U||_F (u the unit roundoff), so it is a bound
    for a matrix that differs from U by that much.  In practice the FFT's
    rounding lands in E and the weights, and over the test sets the bound
    is above the entries of the dense U U^dagger - I.
    """
    import numpy as np

    w, e = U.momentum
    mod2 = w.real**2 + w.imag**2
    return float(np.max(np.abs(1 - mod2)) + 2 * e * np.sqrt(mod2.max()) + e * e)


def trace_powers(U, n_max):
    """[Tr U^1, ..., Tr U^n_max] as power sums of the momentum-form eigenvalues.

    P W splits into D cycles of length M; on cycle r (the momenta
    m = r mod D) its M-th power is c_r times the identity, with c_r the
    product of the cycle's weights, so its eigenvalues are the M M-th roots
    of c_r.  Their n-th power sum is M c_r^(n/M) when M divides n and
    exactly 0 otherwise (the M-th roots of unity sum to zero), so
    Tr U^n = M sum_r c_r^(n/M) on the M-lattice.  The c_r^k come from one
    running product over the D cycles: O(N + D n_max / M) after the
    momentum form.

    U is normal, so by Bauer-Fike every eigenvalue of P W lies within
    ||E||_2 of one of U's.  For the traces themselves,
    Tr V^n - Tr (P W)^n is a sum of n terms Tr(V^j E (P W)^(n-1-j)), each at
    most sqrt(N) ||E||_F in modulus while every weight has modulus near 1.
    """
    import numpy as np

    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    w, _ = U.momentum
    N = U.N
    D = math.gcd(int(U.a), N)
    M = N // D
    cycles = np.prod(w.reshape(M, D), axis=0)
    out = np.zeros(n_max, dtype=complex)
    power = np.ones(D, dtype=complex)
    for n in range(M, n_max + 1, M):
        power *= cycles
        out[n - 1] = M * power.sum()
    return out.tolist()
