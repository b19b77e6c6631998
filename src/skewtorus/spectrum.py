"""Exact eigenphase spectra of the quantized skew translation.

For an approximant (a, N) with D = gcd(a, N) and M = N/D the propagator
eigenphases are

    phi_{eta,l} = l*D - eta^2 + eta*a - a^2 (M-1)(2M-1)/6   (mod N),

eta = 1..D, l = 0..M-1, reduced into [0, N).  They are rationals whose
denominator divides 6, so the whole spectrum is held exactly.  Because the
l-dependence is an additive shift by D, the spectrum is periodic with
period D, and its gap structure is that of the reduced spectrum
{-eta^2 mod D} repeated M times.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .diophantine import Approximant


@dataclass(frozen=True)
class Eigenphase:
    """One eigenphase with its (eta, l) provenance; value is in [0, N)."""

    eta: int
    l: int
    value: Fraction


@dataclass(frozen=True)
class Spectrum:
    """Sorted multiset of the N eigenphases of one approximant."""

    app: Approximant
    phases: tuple

    @property
    def N(self):
        return self.app.N

    @property
    def values(self):
        """Sorted eigenphase values with multiplicity, as Fractions."""
        return [ph.value for ph in self.phases]


def eigenphases(app):
    """Exact spectrum of the approximant, sorted ascending in [0, N)."""
    a, N, D, M = app.a, app.N, app.D, app.M
    const = Fraction(a * a * (M - 1) * (2 * M - 1), 6)
    phases = []
    for eta in range(1, D + 1):
        base = Fraction(eta * a - eta * eta) - const
        for l in range(M):
            phases.append(Eigenphase(eta, l, (base + l * D) % N))
    phases.sort(key=lambda ph: (ph.value, ph.eta, ph.l))
    return Spectrum(app, tuple(phases))


@dataclass(frozen=True)
class ReducedSpectrum:
    """Multiset {-eta^2 mod D : eta = 1..D}; depends on D alone."""

    D: int
    residues: tuple


def reduced_spectrum(D):
    if D < 1:
        raise ValueError("D must be >= 1")
    return ReducedSpectrum(D, tuple(sorted((-eta * eta) % D for eta in range(1, D + 1))))


def degeneracy_profile(rs):
    """Multiplicity of each residue, as a dict residue -> count."""
    return dict(sorted(Counter(rs.residues).items()))


def power_sums(spec, n_max):
    """Eigenvalue power sums sum_j e^(2 pi i n phi_j / N) for n = 1..n_max.

    Every phase has a denominator dividing 6, so t_j = 6 phi_j is an exact
    integer in [0, 6N) and the sums are 6N times one inverse FFT of length
    6N over the histogram of the t_j, read at n mod 6N.  The phase reduction
    is exact integer arithmetic; only the FFT rounds.  These must match the
    numeric traces of U^n.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    size = 6 * spec.N
    t = [int(6 * ph.value) for ph in spec.phases]
    sums = size * np.fft.ifft(np.bincount(t, minlength=size))
    return sums[np.arange(1, n_max + 1) % size].tolist()


def spectrum_to_csv(spec, out):
    """Write rows "eta,l,numerator,denominator,decimal" to a file object."""
    out.write("eta,l,numerator,denominator,decimal\n")
    for ph in spec.phases:
        v = ph.value
        out.write(f"{ph.eta},{ph.l},{v.numerator},{v.denominator},{float(v)!r}\n")
