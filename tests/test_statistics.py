"""Spacing laws and number variance: direct, fourier, and closed routes.

The oracle below integrates the defining number-variance integral on the
exact lattice where the integrand is constant, counting window occupancy
per level with ceil arithmetic; it shares no code with the library sweep.
"""

import cmath
import math
import random
import tracemalloc
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from math import ceil, lcm

import mpmath
import numpy as np
import pytest

from skewtorus import statistics
from skewtorus.diophantine import (
    Approximant,
    golden,
    nearest_approximant,
    sqrt2,
)
from skewtorus.spectrum import Spectrum, eigenphases, reduced_spectrum
from skewtorus.statistics import (
    SpacingDistribution,
    UnsupportedClosedFormError,
    counting_function,
    divergence_witness,
    format_law,
    gauss_sum,
    number_variance_closed,
    number_variance_direct,
    number_variance_fourier,
    _tail_bound,
    spacing_distribution_closed,
    spacings,
)

from oracles import (
    eigenphases_fraction,
    eigenphases_int64,
    level_arrays,
    number_variance_events,
    number_variance_sweep,
    number_variance_fourier_gauss,
    robustness_pairs,
    sigma2_exact,
    spacings_int64,
)

D_PAIRS = {
    1: [(1, 3), (8, 5)],
    2: [(2, 4), (14, 10)],
    3: [(3, 9), (24, 15)],
    6: [(18, 12), (48, 30)],
    8: [(24, 16), (104, 64)],
    9: [(18, 9), (90, 63)],
}


def oracle_number_variance(spec, L):
    """Exact Sigma^2 by uniform lattice integration plus per-level counting.

    Eigenphases lie on (1/6)Z and L is rational, so the integrand is constant
    between consecutive points of (1/B)Z with B = lcm(6, 6 * den(L)).
    """
    N = spec.N
    vals = spec.values
    B = lcm(6, 6 * L.denominator)
    total = Fraction(0)
    h = Fraction(1, B)
    for j in range(B * N):
        m = Fraction(2 * j + 1, 2 * B)
        c = 0
        for v in vals:
            # number of integers k with m <= v + kN < m + L
            c += ceil((m + L - v) / N) - ceil((m - v) / N)
        total += h * (c - L) ** 2
    return total / N


def test_spacings_frozen():
    assert spacings(eigenphases(Approximant(2, 4))).atoms == (
        (Fraction(1), Fraction(1)),
    )
    assert spacings(eigenphases(Approximant(1, 3))).atoms == (
        (Fraction(1), Fraction(1)),
    )
    assert spacings(eigenphases(Approximant(3, 9))).atoms == (
        (Fraction(0), Fraction(1, 3)),
        (Fraction(1), Fraction(1, 3)),
        (Fraction(2), Fraction(1, 3)),
    )


def test_spacings_weights_and_total():
    rnd = random.Random(5)
    for _ in range(20):
        a, N = rnd.randint(0, 60), rnd.randint(1, 40)
        dist = spacings(eigenphases(Approximant(a, N)))
        assert sum(w for _, w in dist.atoms) == 1
        assert all(0 <= s <= N for s, _ in dist.atoms)
        # the N circular gaps sum to the full circle
        assert sum(s * w * N for s, w in dist.atoms) == N


def test_spacings_empty_spectrum():
    # a period whose histogram holds no level
    with pytest.raises(ValueError):
        spacings(Spectrum(Approximant(1, 1), 0, (0,)))


def test_spacing_closed_forms():
    assert spacing_distribution_closed(1).atoms == ((Fraction(1), Fraction(1)),)
    assert spacing_distribution_closed(2).atoms == ((Fraction(1), Fraction(1)),)
    assert spacing_distribution_closed(3).atoms == (
        (Fraction(0), Fraction(1, 3)),
        (Fraction(1), Fraction(1, 3)),
        (Fraction(2), Fraction(1, 3)),
    )
    with pytest.raises(UnsupportedClosedFormError):
        spacing_distribution_closed(4)
    law = spacing_distribution_closed(1)
    assert repr(law) == (
        "SpacingDistribution(atoms=((Fraction(1, 1), Fraction(1, 1)),))"
    )
    same = spacing_distribution_closed(2)
    assert law == same and hash(law) == hash(same)
    with pytest.raises(AttributeError):
        law.atoms = ()
    half = Fraction(1, 2)
    for atoms, message in [
        ((), "at least one atom"),
        (((1, half), (0, half)), "distinct and sorted"),
        (((-1, half), (0, half)), "nonnegative"),
        (((0, half), (1, Fraction(1, 3))), "sum to exactly 1"),
    ]:
        with pytest.raises(ValueError, match=message):
            SpacingDistribution(atoms)


def test_empirical_matches_closed_on_families():
    for D in (1, 2, 3):
        for a, N in D_PAIRS[D]:
            emp = spacings(eigenphases(Approximant(a, N)))
            assert emp.atoms == spacing_distribution_closed(D).atoms


def test_counting_function():
    spec4 = eigenphases(Approximant(2, 4))  # {0, 1, 2, 3}
    assert counting_function(spec4, 2) == 2
    assert counting_function(spec4, 5) == 5
    assert counting_function(spec4, 0) == 0
    assert counting_function(spec4, Fraction(17, 2)) == 9
    spec9 = eigenphases(Approximant(3, 9))
    assert counting_function(spec9, Fraction(9, 2)) == 4


def test_counting_function_matches_bisection():
    # rho = t mod 6 is not 0 for most pairs, e.g. (1, 3) has every t = 2 mod 6
    rnd = random.Random(3)
    for a, N in robustness_pairs():
        spec = eigenphases(Approximant(a, N))
        vals = spec.values
        phis = [Fraction(0), Fraction(N), Fraction(7 * N, 2), Fraction(1, 10**20)]
        steps = (0, Fraction(1, 6), -Fraction(1, 12))
        phis += [v + e for v in vals[:3] + vals[-3:] for e in steps]
        phis += [Fraction(rnd.randint(0, 60 * N), rnd.randint(1, 30)) for _ in range(10)]
        for phi in phis + [-phi for phi in phis]:
            whole, rem = divmod(phi, N)
            want = whole * N + bisect_left(vals, rem)
            assert counting_function(spec, phi) == want, (a, N, phi)


def test_number_variance_direct_frozen():
    d1 = eigenphases(Approximant(1, 3))
    assert number_variance_direct(d1, 1) == 0
    assert number_variance_direct(d1, Fraction(1, 2)) == Fraction(1, 4)
    d3 = eigenphases(Approximant(3, 9))
    assert number_variance_direct(d3, Fraction(1, 2)) == Fraction(7, 12)
    assert number_variance_direct(d3, 1) == Fraction(2, 3)
    assert number_variance_direct(d3, Fraction(13, 6)) == Fraction(25, 36)
    with pytest.raises(ValueError):
        number_variance_direct(d1, -1)


def test_number_variance_direct_vs_oracle():
    cases = [
        (1, 3, Fraction(1, 2)),
        (1, 3, Fraction(7, 5)),
        (2, 4, Fraction(3, 2)),
        (3, 9, Fraction(1, 2)),
        (3, 9, Fraction(13, 6)),
        (24, 16, Fraction(1, 2)),
    ]
    for a, N, L in cases:
        spec = eigenphases(Approximant(a, N))
        assert number_variance_direct(spec, L) == oracle_number_variance(spec, L)


def robustness_ls(N, rnd):
    """L = 0, L >= N, a huge denominator, and seeded random rationals."""
    return [
        Fraction(0),
        Fraction(N),
        Fraction(3 * N) + Fraction(7, 2),
        Fraction(1, 10**20) + 1,
        Fraction(N) - Fraction(1, 10**20),
        Fraction(rnd.randint(0, 6 * N), rnd.choice([1, 2, 3, 5, 7, 12])),
        Fraction(rnd.randint(0, 4 * N), rnd.randint(1, 40)),
    ]


def test_randomized_sweep_and_spacing_cross_check():
    # the period path against the N-level oracles: the int64 arrays built
    # from the formula, their pair sweep and np.diff, and the Fraction build
    rnd = random.Random(17)
    for a, N in robustness_pairs():
        app = Approximant(a, N)
        spec = eigenphases(app)
        block = reduced_spectrum(app.D)
        levels = level_arrays(spec)
        _, eta, l = levels
        phases = list(zip(spec.values, eta.tolist(), l.tolist()))
        assert phases == eigenphases_fraction(app), (a, N)
        for got, want in zip(levels, eigenphases_int64(app)):
            assert np.array_equal(got, want), (a, N)
        for L in robustness_ls(N, rnd) + [Fraction(6 * app.D)]:
            value = number_variance_direct(spec, L)
            assert type(value) is Fraction
            assert value == number_variance_sweep(app, L), (a, N, L)
            assert value == number_variance_events(spec, L), (a, N, L)
            assert value == number_variance_direct(block, L), (a, N, L)
            if app.D in (1, 2, 3, 6):
                assert value == number_variance_closed(app.D, L), (a, N, L)
            if N <= 6 and L.denominator <= 2:
                assert value == oracle_number_variance(spec, L), (a, N, L)
            if app.D <= 12 and L.denominator <= 40:
                series, bound = number_variance_fourier(app.D, L, 2000)
                assert abs(float(value) - series) <= bound, (a, N, L)
        vals = spec.values
        gaps = [y - x for x, y in zip(vals, vals[1:])] + [vals[0] + N - vals[-1]]
        want = tuple((s, Fraction(c, N)) for s, c in sorted(Counter(gaps).items()))
        assert spacings(spec).atoms == want == spacings_int64(app), (a, N)
        assert spacings(block).atoms == want, (a, N)


def test_direct_sum_exceeds_int64():
    # D = 1; the pair-distance total is about 6 N^3 = 2e19, past int64
    spec = eigenphases(Approximant(2427053, 1500001))
    L = Fraction(1500001) - Fraction(1, 2)
    value = number_variance_direct(spec, L)
    assert value == number_variance_closed(1, L) == Fraction(1, 4)


def test_direct_sweep_holds_no_prefix_list():
    # The window counts are one running sum over the histogram, and for the
    # widths 1..7 every count is a small int that Python caches, so a sweep
    # holds one list of D references, 1.6 MB here.  A prefix list of the
    # D + 1 partial sums, most of them ints of their own, read 8.0 MB.
    spec = reduced_spectrum(200003)
    tracemalloc.start()
    try:
        values = [number_variance_direct(spec, Fraction(2 * j + 1, 2)) for j in range(7)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(type(v) is Fraction and v > 0 for v in values)
    assert peak <= 4 * 10**6, peak


@pytest.mark.parametrize("M", [1, 2, 5, 64])
def test_direct_sweep_in_blocks_matches_oracle(M):
    # N = M D: the period repeated M times.  The widths ceil(R) = c D + W'
    # take c = 0, 1, M/2 and M - 1 with W' = 1, interior and D; a is D, a
    # multiple of D at or above N, or near 10^30 (a = 0 when M = 1)
    periods = sorted({0, 1, M // 2, M - 1} - {M})
    for D in (1, 2, 3, 8, 9):
        N = M * D
        for a in (D, D * (M + 1), D * (10**30 * M + 1)) + ((0,) if M == 1 else ()):
            app = Approximant(a, N)
            assert app.D == D
            spec = eigenphases(app)
            Ls = [Fraction(1, 2), Fraction(7, 3), N - Fraction(1, 12), 2 * N + Fraction(5, 6)]
            Ls += [c * D + w for c in periods for w in (Fraction(1, 3), Fraction(D, 2), D)]
            for L in Ls:
                value = number_variance_direct(spec, L)
                assert value == number_variance_sweep(app, L), (a, N, L)
                if N <= 64:
                    assert value == number_variance_events(spec, L), (a, N, L)


def test_direct_sweep_runs_once_per_width(monkeypatch):
    # L reaches the period only through R = L mod D: a window of length R
    # reads the squared window counts at the width w = ceil(R), and also at
    # w - 1 unless R is an integer (Q(0) = 0 is never asked for).  A grid of
    # step 1/24 puts 24 L on each w, and every further period of length D,
    # below N or beyond it, repeats a width
    calls = []
    sweep = statistics._window_squares

    def record(spec, m):
        if m not in spec._sweeps:
            calls.append(m)
        return sweep(spec, m)

    monkeypatch.setattr(statistics, "_window_squares", record)
    for a, N in [(0, 1), (3, 9), (24, 16), (10**30 + 7, 12), (6, 18), (20, 50)]:
        app = Approximant(a, N)
        Ls = [Fraction(j, 24) for j in range(24 * 2 * N + 1)]
        Ls += [N, 3 * N, 0.1, 2.5, float(N), N + 1e-3, Fraction(7 * N, 3)]
        want = {L: number_variance_sweep(app, L) for L in Ls}
        R = [Fraction(L) % app.D for L in Ls]
        widths = {math.ceil(r) for r in R if r}
        widths |= {math.ceil(r) - 1 for r in R if r.denominator > 1 and r > 1}
        spec = eigenphases(app)
        calls.clear()
        for L in Ls + Ls[::-1]:
            assert number_variance_direct(spec, L) == want[L], (a, N, L)
        assert sorted(calls) == sorted(widths), (a, N)
        # a fresh spectrum of the same approximant starts its own memo
        fresh = eigenphases(app)
        for L in Ls[::-1]:
            assert number_variance_direct(fresh, L) == want[L], (a, N, L)
        assert len(calls) == 2 * len(widths), (a, N)
    # a whole number of periods below N holds exactly D levels per period at
    # every position: Sigma^2 is 0 with no window counts at all
    for a, N in [(24, 16), (6, 18)]:
        app = Approximant(a, N)
        spec = eigenphases(app)
        calls.clear()
        for L in range(app.D, N, app.D):
            assert number_variance_direct(spec, L) == 0 == number_variance_sweep(app, L)
        assert calls == [], (a, N)


@pytest.mark.parametrize("D", [1, 2, 3, 7, 12, 97])
def test_window_squares_every_width_match_fraction_sweep(D):
    # L = w - 1/2 reads the period at the widths w - 1 and w, and L = w at
    # the width w alone (f = 1); the window counts wrap past D for every
    # w > 1.  (D, 2D) has M = 2 and rho = 3 for odd D, the block M = 1 and
    # rho = 0
    for app in (Approximant(0, D), Approximant(D, 2 * D)):
        spec = eigenphases(app)
        for w in range(1, D + 1):
            for L in (w - Fraction(1, 2), Fraction(w)):
                assert number_variance_direct(spec, L) == number_variance_events(
                    spec, L
                ), (app, L)
        assert sorted(spec._sweeps) == list(range(1, D + 1))


def test_period_at_huge_n_matches_closed_forms():
    # no N-level array fits here; the period alone gives the closed forms,
    # for L in the first period, across periods and beyond N
    huge = nearest_approximant(golden(), 6 * 10**17)
    d3 = nearest_approximant(golden(), 3 * 498454011879264)  # 3 F_72, about 1.5e15
    for app, D in ((huge, 1), (d3, 3)):
        assert app.D == D
        spec = eigenphases(app)
        assert spacings(spec).atoms == spacing_distribution_closed(D).atoms
        N = app.N
        Ls = [Fraction(1, 2), Fraction(1), Fraction(7, 3), Fraction(10**9, 7) + Fraction(1, 3)]
        Ls += [Fraction(N, 2) + Fraction(1, 5), N - Fraction(1, 3), N, 3 * N + Fraction(13, 6)]
        for L in Ls:
            assert number_variance_direct(spec, L) == number_variance_closed(D, L), (app, L)


def test_number_variance_symmetry():
    rnd = random.Random(9)
    for a, N in [p for pairs in D_PAIRS.values() for p in pairs][:10]:
        spec = eigenphases(Approximant(a, N))
        for _ in range(5):
            den = rnd.choice([2, 3, 5, 7, 12])
            L = Fraction(rnd.randint(0, N * den), den)
            assert number_variance_direct(spec, L) == number_variance_direct(
                spec, N - L
            )


def test_number_variance_depends_only_on_d():
    for D, pairs in D_PAIRS.items():
        specs = [eigenphases(Approximant(a, N)) for a, N in pairs]
        for L in (Fraction(1, 2), Fraction(1), Fraction(7, 3)):
            v0 = number_variance_direct(specs[0], L)
            assert all(number_variance_direct(s, L) == v0 for s in specs[1:]), (D, L)
            assert v0 >= 0


def test_block_sigma2_matches_b2_pair_formula():
    # the B2 pair formula shares no code with the pair-overlap sweep
    for D in range(1, 40):
        block = reduced_spectrum(D)
        Ls = [
            Fraction(1, 2),
            Fraction(1),
            Fraction(7, 3),
            Fraction(22, 7),
            Fraction(D, 2) + Fraction(1, 6),
            Fraction(3 * D) + Fraction(5, 4),
        ]
        for L in Ls:
            assert number_variance_direct(block, L) == sigma2_exact(D, L), (D, L)


def test_block_matches_closed_forms():
    for D in (1, 2, 3):
        assert spacings(reduced_spectrum(D)).atoms == spacing_distribution_closed(D).atoms
    grid = [Fraction(k, 12) for k in range(12 * 7 + 1)]
    for D in (1, 2, 3, 6):
        block = reduced_spectrum(D)
        for L in grid:
            assert number_variance_direct(block, L) == number_variance_closed(D, L), (D, L)


def test_gauss_sum_frozen():
    assert gauss_sum(1, 0) == 1
    assert gauss_sum(1, 5) == 1
    assert gauss_sum(3, 0) == 3
    assert abs(gauss_sum(3, 1) - complex(0, -math.sqrt(3))) < 1e-12
    assert abs(abs(gauss_sum(3, 1)) ** 2 - 3) < 1e-12
    assert abs(gauss_sum(4, 1) - (2 - 2j)) < 1e-12
    assert abs(abs(gauss_sum(8, 1)) ** 2 - 16) < 1e-12
    assert abs(gauss_sum(8, 4)) < 1e-12
    with pytest.raises(ValueError):
        gauss_sum(0, 1)


def test_gauss_sum_exact_at_k_multiple_of_d():
    for D in (1, 2, 3, 7, 12):
        for mult in (0, 1, 3):
            assert gauss_sum(D, mult * D) == complex(D)


def test_gauss_sum_matches_brute_force():
    # brute force with integer-reduced exponents, no residue grouping
    for D in range(1, 51):
        for k in range(0, 101):
            brute = sum(
                cmath.exp(-2j * cmath.pi * ((k * eta * eta) % D) / D)
                for eta in range(1, D + 1)
            )
            assert abs(gauss_sum(D, k) - brute) < 1e-12
            assert abs(gauss_sum(D, k)) <= D + 1e-12


def test_gauss_sum_sq_closed_form_matches_gauss_sum():
    # |S_D(k)|^2 = gD, 0 or 2gD as n = D/gcd(k, D) is odd, 2 mod 4 or 0 mod 4
    zeros = 0
    for D in range(1, 201):
        for k in range(2 * D + 1):
            exact = statistics._gauss_sum_sq(D, k)
            assert type(exact) is int
            assert exact == round(abs(gauss_sum(D, k)) ** 2), (D, k)
            zeros += exact == 0
        assert statistics._gauss_sum_sq(D, 0) == statistics._gauss_sum_sq(D, D) == D * D
    assert statistics._gauss_sum_sq(6, 1) == statistics._gauss_sum_sq(200, 4) == 0
    assert zeros > 0


def test_fourier_exact_zeros():
    for K in (1, 7, 100):
        v, _ = number_variance_fourier(1, 1, K)
        assert v == 0.0
    v, _ = number_variance_fourier(3, 3, 50)
    assert v == 0.0
    v, _ = number_variance_fourier(1, 2.0, 50)  # integral float L
    assert v == 0.0


def test_fourier_matches_closed_within_bound():
    for D in (1, 2, 3, 6):
        for j in range(0, 8 * D + 1):
            L = Fraction(j, 4)
            v, bound = number_variance_fourier(D, L, 20_000)
            assert bound <= 2 * D * D / (math.pi**2 * 20_000)
            assert abs(v - float(number_variance_closed(D, L))) <= bound, (D, L)


def test_fourier_bound_shrinks():
    _, b1 = number_variance_fourier(3, Fraction(1, 2), 100)
    _, b2 = number_variance_fourier(3, Fraction(1, 2), 1000)
    assert 0 < b2 < b1


def test_fourier_tail_bound_certified_and_tight():
    """(2 D^2/pi^2) psi_1(K+1) <= bound <= 2 D^2/(pi^2 K), within 1/K^2.

    psi_1(K+1) = sum_{k>K} 1/k^2 is the exact tail, from mpmath at 50
    digits.  The range covered is K <= 10^7: the bound's slack over the
    exact tail is a relative 1/(12 K^2), which beyond K ~ 10^8 is smaller
    than the float rounding of the bound itself, and the fourier route's
    time is linear in K, so such K is slow anyway.
    """
    with mpmath.workdps(50):
        for K in (1, 2, 10, 2000, 10**4, 10**5, 10**7):
            tail = mpmath.psi(1, K + 1)
            for D in (1, 2, 3, 8, 9, 12):
                bound = _tail_bound(D, K)
                exact = 2 * D * D * tail / mpmath.pi**2
                assert exact <= bound <= 2 * D * D / (math.pi**2 * K), (D, K)
                assert bound / exact - 1 < mpmath.mpf(1) / K**2, (D, K)
                if K <= 10**5:
                    assert number_variance_fourier(D, Fraction(1, 2), K)[1] == bound


def test_fourier_float_L_exact_phase():
    # a float L is the rational it holds, here with denominator 2^52:
    # P = D * den(L) far exceeds K, so the phase table holds K + 1 floats
    L = math.pi / 3
    v, bound = number_variance_fourier(1, L, 50_000)
    assert abs(v - float(number_variance_closed(1, L))) <= bound + 1e-7


def test_fourier_validation():
    with pytest.raises(ValueError):
        number_variance_fourier(0, 1, 10)
    with pytest.raises(ValueError):
        number_variance_fourier(3, 1, 0)


# 3 + 10^-7 has P = D * denominator > K at either order: its phase table holds
# K + 1 floats and never cycles
FOURIER_ORACLE_LS = (Fraction(1, 2), Fraction(7, 3), Fraction(5), 3 + Fraction(1, 10**7))


def test_fourier_fft_table_matches_gauss_sum_oracle():
    # abs_tol admits only the oracle's rounding where the exact value is 0:
    # D = 2 at integer L, where S_2(k) = 0 for odd k; the closed form gives
    # that 0 exactly, one gauss_sum per residue leaves about 1e-33.  K = 50
    # stops the series inside one period of the tables for D > 50 and for
    # P = D * den(L) > 50
    K = 10_000
    for D in list(range(1, 41)) + [97, 256]:
        for L in FOURIER_ORACLE_LS:
            for order in (K, 50):
                value, bound = number_variance_fourier(D, L, order)
                want, want_bound = number_variance_fourier_gauss(D, L, order)
                assert bound == want_bound, (D, L, order)
                assert math.isclose(value, want, rel_tol=1e-12, abs_tol=1e-30), (
                    D, L, order,
                )
    assert number_variance_fourier(2, 5, K) == (0.0, _tail_bound(2, K))


def test_closed_frozen_values():
    assert number_variance_closed(1, Fraction(1, 2)) == Fraction(1, 4)
    assert number_variance_closed(1, 0.5) == 0.25
    assert number_variance_closed(1, 7) == 0
    assert number_variance_closed(2, Fraction(5, 2)) == Fraction(1, 4)
    assert number_variance_closed(3, 1) == Fraction(2, 3)
    assert number_variance_closed(3, Fraction(1, 2)) == Fraction(7, 12)
    assert number_variance_closed(3, Fraction(7, 10)) == Fraction(203, 300)
    assert number_variance_closed(6, Fraction(3, 2)) == Fraction(11, 12)
    with pytest.raises(UnsupportedClosedFormError):
        number_variance_closed(4, 1)


def test_closed_minus_sign_is_forced_by_definition():
    # the plus-sign variant {L} + {L}^2 contradicts the defining integral
    L = Fraction(1, 2)
    plus_variant = L + L * L
    spec = eigenphases(Approximant(1, 3))
    direct = number_variance_direct(spec, L)
    assert plus_variant == Fraction(3, 4)
    assert direct == Fraction(1, 4)
    assert number_variance_closed(1, L) == direct != plus_variant


def test_closed_coincidences_on_grid():
    for j in range(1001):
        L = Fraction(j, 167)
        assert number_variance_closed(2, L) == number_variance_closed(1, L)
        assert number_variance_closed(6, L) == number_variance_closed(3, L)


def test_direct_sweeps_match_closed_across_d():
    for D, (pair, _) in {1: (D_PAIRS[1][0], 0), 2: (D_PAIRS[2][0], 0),
                         3: (D_PAIRS[3][0], 0), 6: (D_PAIRS[6][0], 0)}.items():
        spec = eigenphases(Approximant(*pair))
        for j in range(0, 4 * D + 1):
            L = Fraction(j, 2)
            assert number_variance_direct(spec, L) == number_variance_closed(D, L)
        # an int, a float (the rational it holds) or a Fraction L: one exact
        # Fraction, equal to the direct route's on the D-level block
        for L in (0.1, 0.7, 2.5, 1e-7, 123.456, 5, Fraction(7, 3)):
            closed = number_variance_closed(D, L)
            assert type(closed) is Fraction
            assert closed == number_variance_direct(reduced_spectrum(D), L)


def test_closed_periodicity():
    rnd = random.Random(2)
    for D in (1, 2, 3, 6):
        for _ in range(20):
            L = Fraction(rnd.randint(0, 600), rnd.randint(1, 60))
            assert number_variance_closed(D, L + D) == number_variance_closed(D, L)


def _assert_laws_are_closed(wit):
    """Each family's laws equal its closed law, and the two closed laws differ."""
    for D, _, laws in wit.families:
        for law in laws:
            assert law.atoms == spacing_distribution_closed(D).atoms
    assert spacing_distribution_closed(1).atoms != spacing_distribution_closed(3).atoms


def test_divergence_witness_golden():
    wit = divergence_witness(golden(), 3)
    (d1, rigid, _), (d3, three_atom, _) = wit.families
    assert (d1, d3) == (1, 3)
    assert [(m.a, m.N) for m in rigid] == [(3, 2), (5, 3), (8, 5)]
    assert [(m.a, m.N) for m in three_atom] == [
        (39, 24),
        (63, 39),
        (102, 63),
    ]
    assert wit.ok
    _assert_laws_are_closed(wit)
    text = "\n".join(wit.lines())
    assert "delta(s - 1)" in text
    assert "(1/3) delta(s) + (1/3) delta(s - 1) + (1/3) delta(s - 2)" in text
    assert "no N -> inf limit" in text
    assert "0 vs 2/3" in text
    assert wit == divergence_witness(golden(), 3)
    assert hash(wit) == hash(divergence_witness(golden(), 3))
    for field in ("alpha", "families"):
        with pytest.raises(AttributeError):
            setattr(wit, field, ())


def test_divergence_witness_sqrt2():
    wit = divergence_witness(sqrt2(), 2)
    assert [len(members) for _, members, _ in wit.families] == [2, 2]
    assert wit.ok
    _assert_laws_are_closed(wit)


def test_divergence_witness_empty():
    wit = divergence_witness(golden(), 0)
    assert wit.families == ((1, (), ()), (3, (), ()))
    assert wit.lines()  # still renders without error


def test_divergence_witness_not_ok_on_a_wrong_law():
    wit = divergence_witness(golden(), 2)
    (d1, rigid, rigid_laws), three_atom = wit.families
    wrong = rigid_laws[:1] + three_atom[2][:1]
    assert not wit._replace(families=((d1, rigid, wrong), three_atom)).ok
    # two families with one closed law do not witness two limits
    assert not wit._replace(families=(wit.families[0], (2, rigid, rigid_laws))).ok


def test_format_law():
    assert format_law(spacing_distribution_closed(1)) == "delta(s - 1)"
    assert (
        format_law(spacing_distribution_closed(3))
        == "(1/3) delta(s) + (1/3) delta(s - 1) + (1/3) delta(s - 2)"
    )

