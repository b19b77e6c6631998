"""Brute-force reference implementations for small N.

These are the direct, unstructured routes: the l-sum that defines the
propagator entries (O(N^3)), traces of powers from one running matrix product
(O(N^4) for n up to 2N), and eigenvalue power sums from one Fraction-reduced
exponential per level and per n (O(N n_max)).  The library computes the same
quantities through the diagonal-times-circulant factorisation, one eigenvalue
solve and one FFT over the integer phases; the tests compare the two.
"""

import cmath
import math

import numpy as np


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


def traces_running_product(entries, n_max):
    """[Tr U^1, ..., Tr U^n_max] from one running matrix product."""
    out = []
    V = entries
    for _ in range(n_max):
        out.append(complex(np.trace(V)))
        V = V @ entries
    return out


def power_sums_fraction(spec, n_max):
    """sum_j e(n phi_j / N) with each n phi_j / N reduced mod 1 as a Fraction."""
    N = spec.N
    vals = spec.values
    out = []
    for n in range(1, n_max + 1):
        s = 0j
        for v in vals:
            s += cmath.exp(2j * math.pi * float((n * v / N) % 1))
        out.append(s)
    return out
