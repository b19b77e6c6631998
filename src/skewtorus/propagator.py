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
weights take one FFT of g and do not contain a.  Gauss's evaluation of
G(N) = sum_j e(j^2/N) writes g in closed form (_column), with every phase
an exact integer residue mod 4N, in Python ints, so no phase accumulates.

The shift splits the N momenta into D = gcd(a, N) cycles of length M = N/D,
one per residue class mod D, which is how the paper derives the
eigenphases; a reaches the traces only through D.  Unitarity is bounded
from |w_m| and a stated model of the FFT's rounding, and the numeric traces
are the power sums of the M-th roots of the D cycle products of the w_m:
O(N log N) in all, with no eigensolve, no dense product and no N x N array.

The weights' one FFT runs on Python complex numbers at every N, in
O(N log N) (_dft): the radix-2 transform _fft when N is a power of two, and
otherwise Bluestein's chirp convolution over it.  Every twiddle and chirp
phase is an exact integer residue read through spectrum._root.
build_propagator makes the weights once and reads them in one pass
(Propagator.from_weights) into the D cycle products and the least and
greatest modulus: with the rounding model e, that is all that the
unitarity bound and the traces read, and no weight is kept.  The products
and the trace loop run on Python complex numbers.
The trace loop (spectrum._lattice_traces) is the one that forms
spectrum.power_sums from the exact levels' roots: the two sides of the
trace formula differ only in the values they raise.  No numpy is
imported.  As a subprocess on a 2-vCPU VM, verify --a 0 --N 16384 (D = N)
takes about 0.17 s at 19 MB peak RSS, and the prime
verify --a 16381 --N 16381, where Bluestein's transforms have length
32768, about 0.34 s at 22 MB (numpy's FFT took 0.22-0.34 s at 34 MB).

What this checks, candidly: the cycle-products check compares F applied to
the paper's column, written out by Gauss's evaluation (_column), with
spectrum.cycle_products, the eigenphase formula's base levels, and the
traces, the running powers of those cycle products, are compared with
spectrum.power_sums, the paper's trace formula over the exact levels
(spectrum.eigenphases).  That the closed-form column is the one of U's
defining l-sum is Gauss's evaluation, which the checks do not test: verify
never evaluates the l-sum.  The numeric route is kept as the matrix layer
of that chain, not as an independent proof that U is unitary.
"""

import math
from collections import namedtuple

from .spectrum import _lattice_traces, _root


class Propagator(namedtuple("Propagator", "N a e lo hi cycles")):
    """What the checks read of U_N = diag(e(a k/N)) Circ(g), the record of its weights.

    (N, a) define U; the diagonal is exact in them.  e is each weight's
    error under the rounding model (_weight_error), lo and hi are the least
    and the greatest modulus |w_m| (both NaN when a weight is not finite),
    and cycles is the tuple of the D = gcd(a, N) cycle products c_r.  No
    weight is kept, and no N x N array is made.
    """

    __slots__ = ()
    N: int
    a: int

    @classmethod
    def from_weights(cls, N, a, w, e):
        """The record of the weights w_m = V[(m + a) mod N, m], in order of m, in one pass.

        The shift m -> m + a splits the momenta into the D = gcd(a, N)
        residue classes r = m mod D, M = N / D each, and c_r is the product
        of the weights of class r, on Python complex numbers: a weight that
        is not finite gives a product that is not finite.  M - 1 complex
        products round on each cycle (cycle_tolerance).  A NaN modulus
        compares false, so lo and hi pass over it; the moduli's sum is what
        sees a weight that is not finite, and makes lo and hi NaN.
        """
        D = math.gcd(int(a), N)
        cycles = [1] * D
        lo, hi, total = math.inf, 0.0, 0.0
        for m, z in enumerate(w):
            cycles[m % D] *= z
            r = abs(z)
            total += r
            if r < lo:
                lo = r
            if r > hi:
                hi = r
        if not math.isfinite(total):
            lo = hi = math.nan
        return cls(N, a, e, lo, hi, tuple(cycles))


def _weight_error(N):
    """e = c u log2(N), c = 1 + 4 sqrt(2): the model of each weight's rounding.

    The weights w = F g are one FFT (_dft, O(N log N) at every N) of the
    circulant's first column g, written in closed form (_column); neither
    contains a.  V = S_a diag(F g) exactly for the U of that g, so
    V - S_a diag(w) = S_a diag(F g - w) and its spectral norm is the
    largest error of an FFT output entry.

    e is that error under a stated per-entry rounding model, not a proof.
    Higham (Accuracy and Stability of Numerical Algorithms, Thm 24.2)
    bounds a radix-2 FFT of length N by ||fl(F g) - F g||_2 <= log2(N) eta
    ||F g||_2 / (1 - log2(N) eta), eta = mu + gamma_4 (sqrt(2) + mu),
    with mu the error of the twiddle factors and gamma_4 = 4u / (1 - 4u).
    The model takes mu = u, the unit roundoff u = 2^-53, for the twiddles
    of spectrum._root.  That is a model, not a bound: _root's bound is
    5 u, and its error read up to 1.856 u (at j = 31, n = 83).  With
    mu = u, to first order in u, eta = c u with c = 1 + 4 sqrt(2).  Every
    |(F g)_m| is near 1, so ||F g||_2 is near sqrt(N), and the model
    spreads the error evenly over the N outputs: each is off by at most
    c u log2(N).  Taken entrywise, the normwise bound allows sqrt(N) times
    that, which at N = 16384 is above verify's unitarity tolerance.

    The same e bounds each weight against the exact chirp e(-m^2/N), that
    is against F applied to the exact column.  Each entry of the computed
    g is within nu |g_n| of the exact one, nu = (2 + sqrt(5)) u: mu = u
    for the root (_root), u for sqrt(N) and eps / sqrt(N) together, and
    sqrt(5) u for their complex product.  F / sqrt(N) is unitary, so the
    column's error adds at most nu ||F g||_2 normwise, nu per weight under
    the model.  The radix-2 transform's first stage has the twiddle 1 only: its
    products are exact, and it rounds by at most u where the model charges
    eta, which leaves 4 sqrt(2) u > nu for the column, so c stands.

    The theorem is for radix 2.  At other lengths _dft is Bluestein's,
    three radix-2 transforms of length L < 4N with chirp products between
    them, and the model keeps c there as measured, not derived.  Over
    N = 2..300 the largest entry error was 1.53 u log2(N) against F g
    summed in long double (at N = 204), and 2.64 u log2(N) against the
    exact chirp (4.2 u at N = 3); at the prime 4093 it was 1.02 and 1.06
    u log2(N), and at 16381 1.12 u log2(N) against the chirp.  At the
    powers of two it was 0.39 u log2(N) against F g up to 2048, and 1.41
    u log2(N) against the chirp (at N = 2; 0.50 from 4096 to 16384)
    (test_weights_error_within_the_model).
    """
    return (1 + 4 * math.sqrt(2)) * 2.0**-53 * math.log2(N)


def cycle_tolerance(N, M):
    """delta(N, M): a bound on |c_r - e(t_r / 6D)| for each cycle product, under the model.

    Under _weight_error's model every computed weight is within
    e = c u log2(N) of its exact value, the chirp e(-m^2/N) of modulus 1,
    the column's rounding included.
    So the exact product P of a cycle's M computed weights is within
    (1 + e)^M - 1 of the exact cycle product, and |P| <= (1 + e)^M.
    Forming P takes M - 1 complex products (the first factor is the
    integer 1, which is exact), and each has a relative error of at most
    sqrt(5) u (Brent, Percival and Zimmermann, "Error bounds on complex
    floating-point multiplication", Math. Comp. 76 (2007) 1469-1481), so
    the computed c_r is within (1 + e)^M (1 + sqrt(5) u)^(M - 1) - 1 of the
    exact product.  The exact side e(t_r / 6D) comes from spectrum._root,
    within 5 u of it (_root's bound).  delta is the sum, with no fitted
    constant; the powers are summed as logarithms, since 1 + e rounds e
    away.
    """
    u = 2.0**-53
    e = _weight_error(N)
    return math.expm1(M * math.log1p(e) + (M - 1) * math.log1p(math.sqrt(5) * u)) + 5 * u


def _twiddles(n):
    """[e(-j/n) for j < n/2], each read through spectrum._root at its exact integer residue."""
    return [_root(-j % n, n) for j in range(n // 2)]


def _fft(x, twiddles):
    """Replace the list x by F x, [sum_j x_j e(-j k/n) for k < n], in place.

    n = len(x) is a power of two and twiddles is _twiddles(n).  The
    iterative radix-2 transform puts x in bit-reversed order, then makes
    log2(n) stages of n/2 butterflies on Python complex numbers: the stage
    of half-length h reads the twiddles e(-j/2h) = twiddles[j n / 2h].
    """
    n = len(x)
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            x[i], x[j] = x[j], x[i]
    h = 1
    while h < n:
        step = len(twiddles) // h
        for j in range(h):
            w = twiddles[j * step]
            for i in range(j, n, 2 * h):
                k = i + h
                u, z = x[i], x[k] * w
                x[i], x[k] = u + z, u - z
        h *= 2


def _dft(x):
    """Replace the list x by F x, [sum_j x_j e(-j k/N) for k < N], in place.

    At a power of two N = len(x) it is _fft.  Otherwise it is Bluestein's
    chirp convolution: j k = (j^2 + k^2 - (k - j)^2) / 2, so with the chirp
    c_j = e(-j^2 / 2N), (F x)_k = c_k sum_j (x_j c_j) conj(c_(k-j)), a
    cyclic convolution of length L, the least power of two >= 2N - 1.  It
    takes three _fft of length L: of x c padded with zeros, of the filter
    conj(c) wrapped around, and of conj of the product, since
    F^-1 y = conj(F conj(y)) / L.  Every chirp phase is an exact integer
    residue mod 2N.
    """
    N = len(x)
    if N & (N - 1) == 0:
        _fft(x, _twiddles(N))
        return
    L = 1 << (2 * N - 2).bit_length()
    twiddles = _twiddles(L)
    chirp = [_root(-j * j % (2 * N), 2 * N) for j in range(N)]
    filt = [c.conjugate() for c in chirp]
    filt += [0j] * (L - 2 * N + 1) + filt[:0:-1]
    _fft(filt, twiddles)
    y = [z * c for z, c in zip(x, chirp)] + [0j] * (L - N)
    _fft(y, twiddles)
    y = [(z * f).conjugate() for z, f in zip(y, filt)]
    _fft(y, twiddles)
    x[:] = [c * z.conjugate() / L for c, z in zip(chirp, y)]


# Gauss's evaluation, G(N) = sum_j e(j^2/N) = sqrt(N) (1, 0, i, 1 + i) for
# N = 1, 2, 3, 0 (mod 4), gives eps_(N mod 4, n mod 2) of _column: row
# N mod 4 holds (n even, n odd)
_EPSILON = ((1 - 1j, 0), (1, -1j), (0, 1 - 1j), (-1j, 1))


def _column(N):
    """g_n = e(n^2/4N) eps_(N mod 4, n mod 2) / sqrt(N): the circulant's first column in closed form.

    From 4 (m n - m^2) = n^2 - (2 m - n)^2, the column
    g_n = (1/N) sum_m e(-m^2/N) e(m n/N) is e(n^2/4N)/N times a sum of
    e(-k^2/4N) over k = 2 m - n mod 2N of the parity of n.  Over the even
    k that sum is conj G(N), and over all k mod 2N it is
    conj G(4N) / 2 = (1 - i) sqrt(N), so Gauss's evaluation gives
    eps (_EPSILON); half of g is zero at even N.  Each phase is the exact
    residue n^2 mod 4N, read through spectrum._root.
    """
    eps = [z / math.sqrt(N) for z in _EPSILON[N % 4]]
    return [_root(n * n % (4 * N), 4 * N) * eps[n & 1] for n in range(N)]


def _weights(N):
    """w = F g as a list, one _dft of the closed-form column g (_column).

    The list (40 N bytes) is returned, so that the twiddles (20 N) are freed
    before build_propagator reads it (test_checks_hold_a_few_vectors).
    """
    w = _column(N)
    _dft(w)
    return w


def build_propagator(app):
    """U_N for the approximant, as the record of its weights: _weights runs once, here."""
    N = app.N
    return Propagator.from_weights(N, app.a, _weights(N), _weight_error(N))


def unitarity_defect(U):
    """Bound on ||U U^dagger - I||_2 from the record's lo, hi and e; O(1).

    Returns max|1 - |w_m|^2| + 2 e max|w_m| + e^2.  Write V = P W + E with
    P W the weighted permutation of the weights and ||E||_2 <= e.  Then
    V V^dagger - I = P (W W^dagger - I) P^dagger + P W E^dagger
    + E W^dagger P^dagger + E E^dagger, whose spectral norm is at most the
    sum of the three terms.  F / sqrt(N) is unitary, so V V^dagger - I is
    unitarily similar to U U^dagger - I and has the same spectral norm,
    which bounds every entry of U U^dagger - I.  |1 - r^2| falls on
    0 <= r <= 1 and rises above, so over the moduli it is largest at the
    least (lo) or the greatest (hi).

    For the factorised propagator E is the error of the weights, and e is
    its rounding model (_weight_error), so the result is a bound under
    that model, for the U of the computed circulant column.  Over the test
    sets it is above the entries of the dense U U^dagger - I.  A NaN or
    infinite weight makes it NaN, through the NaN that
    Propagator.from_weights gives lo and hi.
    """
    lo, hi, e = U.lo, U.hi, U.e
    return max(abs(1 - lo * lo), abs(1 - hi * hi)) + 2 * e * hi + e * e


def trace_powers(U, n_max):
    """[Tr U^(kM) for k = 1..n_max // M] as power sums of the momentum-form eigenvalues.

    P W splits into D cycles of length M; on cycle r (the momenta
    m = r mod D) its M-th power is c_r times the identity, with c_r the
    product of the cycle's weights (U.cycles), so its eigenvalues are the M
    M-th roots of c_r.  Their n-th power sum is M c_r^(n/M) when M divides
    n and 0 otherwise (the M-th roots of unity sum to zero), so only the
    M-lattice is returned: Tr U^(kM) = M sum_r c_r^k, the c_r^k from one
    running product over the D cycles (spectrum._lattice_traces, shared
    with power_sums), D n_max / M complex products on Python complex
    numbers after the cycle products.

    U is normal, so by Bauer-Fike every eigenvalue of P W lies within
    ||E||_2 <= e of one of U's.  For the traces themselves,
    Tr V^n - Tr (P W)^n is a sum of n terms Tr(V^j E (P W)^(n-1-j)), each at
    most N e in modulus while every weight has modulus near 1.

    Tolerance model.  Each c_r is within cycle_tolerance(N, M) of the
    formula's, and c_r^k compounds k of those errors, so the residual
    against the trace formula over n = kM <= 2N grows as N^2 u.  Measured
    for verify --a 1: 1.4e-9, 1.4e-8 and 2.1e-8 at N = 4096, 8192 and
    16384, and 7.6e-5 at N = 2^20.  verify's tolerance 1e-9 N grows only as
    N (1.6e-5 at N = 16384, a margin of 790x), and verify compares at most
    max(1, cli.PYTHON_OPS // D) of the lattice traces (cli.cmd_verify).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    cycles = U.cycles
    M = U.N // len(cycles)
    return _lattice_traces(cycles, M, n_max // M)
