"""The unitary propagator of the quantized skew translation.

In the position representation the N x N matrix is

    (U_N)_{kj} = (1/N) sum_{l=0}^{N-1} exp((2 pi i / N)(l k - (l-a)^2 - (l-a) j)),

j, k = 0..N-1.  Substituting m = l - a factors it as U_N = diag(e(a k/N)) C
with e(x) = exp(2 pi i x) and C circulant, C_{kj} = g_{(k-j) mod N}, whose
first column g = ifft(e(-m^2/N)) is one inverse FFT of length N.  Every
exponent is an exact integer residue mod N indexing a single table of N-th
roots of unity, so no phase accumulates.  Traces of powers have a closed
form: with D = gcd(a, N) and M = N/D,

    Tr U_N^n = M delta_{n mod M, 0} sum_{eta=1}^{D}
               exp((2 pi i / N) n (-eta^2 + eta a - a^2 (M-1)(2M-1)/6)),

which this module evaluates in exact rational arithmetic alongside the
numeric traces (power sums of the eigenvalues of the dense matrix), so the
two routes can be compared.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Each dense complex N x N copy takes 16 N^2 bytes (268 MB at N = 4096), and
# verify holds a few at once (U, U U^dagger, the eigenvalue solver's copy).
DEFAULT_MAX_N = 4096


@dataclass(frozen=True, eq=False)
class Propagator:
    """Dense propagator matrix with its defining integers."""

    N: int
    a: int
    entries: np.ndarray


def build_propagator(app, max_n=DEFAULT_MAX_N):
    """Dense U_N for the approximant as diag(e(a k/N)) times a circulant.

    O(N^2) work plus one length-N FFT, guarded by max_n.  The exponents are
    invariant mod N under a -> a mod N, so a is reduced as a Python int
    before any int64 arithmetic and the intermediates stay below N^2.
    """
    N, a = app.N, app.a
    if N > max_n:
        raise ValueError(f"N={N} exceeds the dimension guard max_n={max_n}")
    ared = int(a) % N
    m = np.arange(N, dtype=np.int64)
    roots = np.exp(2j * np.pi * m / N)
    g = np.fft.ifft(roots[(-m * m) % N])
    entries = g[(m.reshape(-1, 1) - m) % N]
    entries *= roots[(ared * m) % N].reshape(-1, 1)
    return Propagator(N, a, entries)


def unitarity_defect(U):
    """Max absolute entry of U U^dagger - I."""
    G = U.entries @ U.entries.conj().T
    G.flat[:: U.N + 1] -= 1
    return float(np.abs(G).max())


def trace_powers(U, n_max):
    """[Tr U^1, ..., Tr U^n_max] as power sums of the eigenvalues of U.

    One dense eigenvalue solve (O(N^3)), then Tr U^n = sum_j lam_j^n from a
    running elementwise power, O(N) memory and O(N n_max) work.  U is
    unitary, hence normal, so each eigenvalue moves by no more than the
    solver's backward error (Bauer-Fike) and the n-th trace by about n N
    times that.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    lam = np.linalg.eigvals(U.entries)
    p = np.ones_like(lam)
    out = []
    for _ in range(n_max):
        p *= lam
        out.append(complex(p.sum()))
    return out


def trace_power_analytic(app, n):
    """Closed-form Tr(U^n); exactly 0 when n mod M != 0.

    Each exponent n(-eta^2 + eta a - a^2 (M-1)(2M-1)/6)/N is reduced mod 1
    as a Fraction before the single conversion to a phase.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    a, N, D, M = app.a, app.N, app.D, app.M
    if n % M:
        return 0j
    const = Fraction(a * a * (M - 1) * (2 * M - 1), 6)
    total = 0j
    for eta in range(1, D + 1):
        ex = Fraction(n) * (Fraction(eta * a - eta * eta) - const) / N
        total += cmath.exp(2j * math.pi * float(ex % 1))
    return M * total

