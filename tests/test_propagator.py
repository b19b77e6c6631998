"""Propagator matrix, unitarity, and its traces against the trace formula.

The brute oracle below rebuilds small matrices with nothing shared with the
library path (plain cmath loop, no exponent reduction) and proves the
oracle's dense U (diagonal times circulant) and the l-sum; the library's
momentum form, one FFT of the circulant's first column, is compared with
the two-FFT momentum form of that dense U, and rebuilt into U to be
compared with the l-sum.  The trace tests compare matrix powers against the
trace formula, the power sums of the exact spectrum (spectrum.power_sums),
at the stated tolerances.  The momentum-form
unitarity bound and traces are checked against the dense U U^dagger and
eigensolve oracles, and against corrupted matrices.
"""

import cmath
import functools
import json
import math
import tracemalloc
import typing

import numpy as np
import pytest

from skewtorus import cli
from skewtorus.diophantine import Approximant
from skewtorus import propagator
from skewtorus.propagator import (
    Propagator,
    build_propagator,
    cycle_tolerance,
    trace_powers,
    unitarity_defect,
)
from skewtorus.spectrum import PYTHON_OPS, _roots
from skewtorus.spectrum import cycle_products, eigenphases, power_sums

from oracles import (
    DenseMatrix,
    dense_propagator,
    dense_unitarity_defect,
    eigvals_power_sums,
    momentum_two_buffer,
    power_sums_error,
    power_sums_fft,
    propagator_lsum,
    robustness_pairs,
    trace_power_numeric,
    traces_numpy,
    traces_running_product,
)

UNITARITY_SET = [
    (1, 1), (1, 2), (1, 3), (2, 4), (8, 5), (3, 9), (14, 10), (24, 15),
    (24, 16), (18, 12), (48, 30), (32, 20), (63, 39), (75, 50), (96, 60),
    (90, 63), (104, 64), (144, 89), (181, 128), (207, 128),
]

TRACE_SET = [
    (1, 2), (1, 3), (2, 4), (8, 5), (3, 9), (5, 10), (14, 10), (24, 15),
    (24, 16), (18, 12), (34, 21), (48, 30),
]

# N = 1, a = 0 (so D = N), a >= N, huge a, and D = N with a = N
EDGE_SET = [(1, 1), (0, 1), (0, 7), (25, 9), (10**30 + 7, 12), (12, 12), (36, 12)]

# Sizes whose weights take numpy's FFT (2 N S(N) > PYTHON_OPS): the sets
# above all take the Python FFT.  The cycle products and the trace loop read
# the numpy weights as Python complex numbers; 191 is the smallest prime
# above the line
NUMPY_SET = [(1, 2048), (2, 2048), (0, 2048), (5, 191)]


def _weight_ops(N):
    return 2 * N * sum(propagator._prime_factors(N))


def brute_matrix(a, N):
    U = np.zeros((N, N), dtype=complex)
    for k in range(N):
        for j in range(N):
            s = 0j
            for l in range(N):
                s += cmath.exp(2j * cmath.pi * (l * k - (l - a) ** 2 - (l - a) * j) / N)
            U[k, j] = s / N
    return U


def test_matrix_matches_brute_oracle():
    for a, N in [(1, 2), (1, 3), (2, 4), (3, 9), (24, 16)]:
        assert np.max(np.abs(dense_propagator(a, N) - brute_matrix(a, N))) < 1e-11


def test_propagator_type_hints_resolve():
    assert typing.get_type_hints(Propagator)["N"] is int


def test_trivial_one_by_one():
    assert np.allclose(dense_propagator(1, 1), [[1.0]], atol=1e-15)


def test_two_by_two_hand_values():
    # the l-sum gives U = [[0, 1], [-1, 0]] exactly up to rounding
    assert np.max(np.abs(dense_propagator(1, 2) - np.array([[0, 1], [-1, 0]]))) < 1e-15


def test_entry_magnitudes():
    for a, N in [(8, 5), (3, 9), (24, 16)]:
        assert np.max(np.abs(dense_propagator(a, N))) <= 1 + 1e-12


def test_unitarity_across_set():
    # the bound from the momentum form dominates the dense U U^dagger - I
    for a, N in UNITARITY_SET + EDGE_SET:
        U = build_propagator(Approximant(a, N))
        bound = unitarity_defect(U)
        assert dense_unitarity_defect(dense_propagator(a, N)) <= bound < 1e-12, (a, N, bound)


def test_unitarity_detector_sees_corruption():
    bad = dense_propagator(1, 3)
    bad[0, 0] += 0.5
    assert unitarity_defect(DenseMatrix(3, 1, bad)) > 0.1


def test_unitarity_bound_terms():
    # V = P W + E at N = 4, a = 1: weights on the support m -> m + 1 and at
    # most one off-support entry, so ||E||_F is that entry.  Weights 1, i,
    # -1, 3/2 and the entry 1/2: the bound is max|1 - |w|^2|
    # + 2 ||E||_F max|w| + ||E||_F^2 = 5/4 + 3/2 + 1/4, its first term from
    # the greatest modulus.  Weights 1/2, i, -1, 5/4 and no entry: 3/4 from
    # the least modulus, against 9/16 at the greatest.  Each is exact here
    # (every FFT at N = 4 of these entries is exact), and above the dense
    # U U^dagger - I
    for weights, off, bound in (((1, 1j, -1, 1.5), 0.5, 3.0), ((0.5, 1j, -1, 1.25), 0, 0.75)):
        V = np.zeros((4, 4), dtype=complex)
        for m, w in enumerate(weights):
            V[(m + 1) % 4, m] = w
        V[0, 0] = off
        U = DenseMatrix(4, 1, np.fft.ifft(np.fft.fft(V, axis=1), axis=0))
        assert U.momentum[1] == off
        assert unitarity_defect(U) == bound >= dense_unitarity_defect(U.entries), weights


def test_trace_examples_1_3():
    app = Approximant(1, 3)
    U = dense_propagator(1, 3)
    assert abs(trace_power_numeric(U, 1)) < 1e-10
    want = 3 * cmath.exp(2j * math.pi / 3)
    assert abs(trace_power_numeric(U, 3) - want) < 1e-10
    analytic = power_sums(eigenphases(app), 3)  # M = 3: n = 3 alone
    assert len(analytic) == 1
    assert abs(analytic[0] - want) < 1e-12


def test_trace_examples_3_9():
    app = Approximant(3, 9)
    U = dense_propagator(3, 9)
    analytic = power_sums(eigenphases(app), 3)  # M = 3: n = 3 alone
    assert len(analytic) == 1
    assert abs(trace_power_numeric(U, 2)) < 1e-9 * 9
    assert abs(abs(analytic[0]) - 3 * math.sqrt(3)) < 1e-12
    assert abs(abs(trace_power_numeric(U, 3)) - 3 * math.sqrt(3)) < 1e-9 * 9


def test_trace_power_zero_is_dimension():
    U = dense_propagator(8, 5)
    assert trace_power_numeric(U, 0) == 5
    with pytest.raises(ValueError):
        trace_power_numeric(U, -1)


def test_analytic_modulus_periodic_in_n():
    # the n-dependence of |Tr U^n| has period N (the exponent shifts by a
    # global, eta-independent phase under n -> n + N): on the M-lattice
    # n = k M, period D in k
    for a, N in [(3, 9), (24, 16), (14, 10)]:
        D = Approximant(a, N).D
        sums = power_sums(eigenphases(Approximant(a, N)), 5 * N)
        assert len(sums) == 5 * D
        for k in range(1, 2 * D + 1):
            z1, z2, z3 = sums[k - 1], sums[k + D - 1], sums[k + 3 * D - 1]
            assert abs(abs(z1) - abs(z2)) < 1e-12
            assert abs(abs(z1) - abs(z3)) < 1e-12


def test_numeric_matches_analytic_sweep():
    for a, N in TRACE_SET + NUMPY_SET:
        app = Approximant(a, N)
        numeric = trace_powers(build_propagator(app), 2 * N)
        analytic = power_sums(eigenphases(app), 2 * N)
        assert len(numeric) == len(analytic) == 2 * app.D, (a, N)
        for k, (x, y) in enumerate(zip(numeric, analytic), 1):
            assert abs(x - y) < 1e-9 * N, (a, N, k)


def test_randomized_trace_routes_cross_check():
    # N = 1, a = 0, a >= N, huge a and D = N among them; verify's tolerances
    for a, N in robustness_pairs():
        app = Approximant(a, N)
        numeric = trace_powers(build_propagator(app), 2 * N)
        analytic = power_sums(eigenphases(app), 2 * N)
        assert len(numeric) == len(analytic) == 2 * app.D, (a, N)
        for k, (x, y) in enumerate(zip(numeric, analytic), 1):
            assert abs(x - y) <= 1e-9 * N, (a, N, k)


def test_trace_powers_agrees_with_matrix_power():
    # (8, 5) has D = 1 and M = 5: n = 5 is the one lattice point up to 7.
    # Its one cycle product is 1, so (2, 6), with D = 2, M = 3 and cycle
    # products other than 1, tells each power of them from the next
    series = trace_powers(build_propagator(Approximant(8, 5)), 7)
    assert len(series) == 1
    assert abs(series[0] - trace_power_numeric(dense_propagator(8, 5), 5)) < 1e-12
    for n in (1, 2, 7):
        assert abs(trace_power_numeric(dense_propagator(8, 5), n)) < 1e-12
    U = build_propagator(Approximant(2, 6))
    assert all(abs(c - 1) > 0.1 for c in U.cycles)
    series = trace_powers(U, 12)
    assert len(series) == 4
    for k, z in enumerate(series, 1):
        assert abs(z - trace_power_numeric(dense_propagator(2, 6), 3 * k)) < 1e-12, k


def test_circulant_build_matches_lsum_oracle():
    for a, N in TRACE_SET + EDGE_SET:
        U = build_propagator(Approximant(a, N))
        assert U.a == a and U.N == N
        assert np.max(np.abs(dense_propagator(a, N) - propagator_lsum(a, N))) <= 1e-13, (a, N)


def test_eigenvalue_traces_match_running_product():
    # against the running matrix product and the dense eigensolve: the
    # lattice traces at n = k M, and the oracles' traces vanish off it
    for a, N in TRACE_SET + EDGE_SET:
        app = Approximant(a, N)
        M = app.M
        fast = trace_powers(build_propagator(app), 2 * N)
        assert len(fast) == 2 * app.D
        entries = dense_propagator(a, N)
        for slow in (traces_running_product(entries, 2 * N), eigvals_power_sums(entries, 2 * N)):
            gap = max(abs(x - y) for x, y in zip(fast, slow[M - 1 :: M]))
            off = max((abs(z) for n, z in enumerate(slow, 1) if n % M), default=0.0)
            assert max(gap, off) <= 1e-9 * N, (a, N, gap, off)


def test_momentum_form_is_computed_once():
    U = build_propagator(Approximant(3, 9))
    assert U.momentum is U.momentum
    w, e = U.momentum
    assert len(w) == 9 and 0 <= e < 1e-14


def test_momentum_form_does_not_depend_on_a():
    # w = F g and its rounding model contain no a, so they are the same
    # bits for every a: a = 0 and a = N (D = N), a >= N and a huge a
    for N in (1, 7, 12, 16, 60, 272):
        w, e = Propagator(N, 1).momentum
        for a in (0, 3, N, N + 5, 2 * N, 10**30 + 7):
            w_a, e_a = Propagator(N, a).momentum
            assert np.array_equal(w_a, w) and e_a == e, (a, N)


def test_momentum_matches_dense_oracle():
    # the weights against the two-FFT momentum form of the dense U
    for a, N in UNITARITY_SET + EDGE_SET + [(440, 272), (0, 600)]:
        w, e = build_propagator(Approximant(a, N)).momentum
        w_ref, e_ref = momentum_two_buffer(dense_propagator(a, N), a)
        assert np.max(np.abs(w - w_ref)) <= 1e-14, (a, N)
        assert e < 1e-13 and e_ref < 1e-13, (a, N, e, e_ref)
        assert e > 0 or N == 1, (a, N)


def test_momentum_form_rebuilds_the_lsum():
    # F^-1 S_a diag(w) F from the library's (w, a), against the l-sum.  The
    # bound 1e-14 is about N u at N = 97, the l-sum's worst rounding of its
    # N unit terms; the cases read at most 8.4e-16
    for a, N in [(5, 12), (6, 30), (0, 64), (13, 97)] + EDGE_SET:
        U = build_propagator(Approximant(a, N))
        w, _ = U.momentum
        V = np.zeros((N, N), dtype=complex)
        m = np.arange(N)
        V[(m + a % N) % N, m] = w
        rebuilt = np.fft.ifft(np.fft.fft(V, axis=1), axis=0)
        assert np.max(np.abs(rebuilt - propagator_lsum(a, N))) <= 1e-14, (a, N)


def test_checks_hold_a_few_vectors():
    # numpy reports its buffers to tracemalloc.  The budget is four complex
    # N-vectors, 64 N bytes: the checks read 49.3 N here, the weights and
    # their moduli while the unitarity bound reads them (48.4 N for the
    # chirp's temporaries).  An N x N array, or a block of four of its rows,
    # fails it.  The propagator keeps the weights, 16 N bytes.
    N = 2048
    budget = 64 * N

    def checks():
        U = build_propagator(Approximant(1, N))
        unitarity_defect(U)
        trace_powers(U, 2 * N)
        return U

    checks()  # warm-up
    tracemalloc.start()
    try:
        U = checks()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert U.N == N
    assert peak <= budget, peak / budget
    assert retained <= 20 * N, retained / N


def _shifted(a, N):
    # the matrix of (a + 1, N) labelled as a
    return DenseMatrix(N, a, dense_propagator(a + 1, N))


def _perturbed(a, N):
    entries = dense_propagator(a, N)
    entries[N // 2, N // 3] += 1e-9
    return DenseMatrix(N, a, entries)


def _scaled(a, N):
    return DenseMatrix(N, a, 0.9 * dense_propagator(a, N))


def _grown(a, N):
    # weights of modulus above 1: 1 - |w|^2 < 0, so the bound needs its abs
    return DenseMatrix(N, a, 1.1 * dense_propagator(a, N))


def _nan(a, N, place=None, value=complex(math.nan)):
    # one non-finite weight, by default at N // 2: min and max pass over a
    # NaN that is not first.  The weights are a list, as the Python FFT
    # gives them at these N
    bad = DenseMatrix(N, a, dense_propagator(a, N))
    w, e = bad.momentum
    w = w.tolist()
    w[N // 2 if place is None else place] = value
    bad.momentum = w, e
    return bad


CORRUPTIONS = {
    "shifted": _shifted,
    "perturbed": _perturbed,
    "scaled": _scaled,
    "grown": _grown,
    "nan": _nan,
    "inf": functools.partial(_nan, value=complex(math.inf)),
}
NON_FINITE = ("nan", "inf")


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_unitarity_fails_on_corrupted_matrix(kind):
    # the shifted matrix is unitary, so U U^dagger - I cannot see it; its
    # weights sit off the support m -> m + a, which the bound charges to E.
    # A non-finite weight, first, in the middle or last, makes the bound
    # non-finite.  The weights are read as an array and as a list, to the
    # same bound
    for a, N in [(1, 2), (3, 9), (24, 16), (0, 7), (90, 63)]:
        if kind in NON_FINITE:
            corrupted = [CORRUPTIONS[kind](a, N, place) for place in (0, N // 2, N - 1)]
        else:
            corrupted = [CORRUPTIONS[kind](a, N)]
        for bad in corrupted:
            w, e = bad.momentum
            bounds = []
            for form in (np.asarray(w), np.asarray(w).tolist()):
                bad.momentum = form, e
                bounds.append(unitarity_defect(bad))
            if kind in NON_FINITE:
                assert not any(map(math.isfinite, bounds)), (a, N, bounds)
            else:
                assert bounds[0] == bounds[1] > 1e-12, (a, N, bounds)
                assert bounds[0] >= dense_unitarity_defect(bad.entries), (a, N)


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_verify_fails_unitarity_on_corrupted_matrix(kind, monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_propagator", lambda app: CORRUPTIONS[kind](app.a, app.N))
    assert cli.main(["verify", "--a", "3", "--N", "9"]) == 1
    captured = capsys.readouterr()
    assert "FAIL: unitarity" in captured.err
    unitarity = json.loads(captured.out)["checks"][0]
    assert unitarity["ok"] is False
    # a NaN bound is written as null, a failed finite one as its value
    assert (unitarity["residual"] is None) is (kind in NON_FINITE)
    # every corruption moves a cycle product by far more than delta(9, 3)
    assert "FAIL: cycle-products" in captured.err
    if kind == "shifted" or kind in NON_FINITE:
        # the weights of (a + 1, N) sit off the support of a: no traces of
        # a; a non-finite weight makes its cycle's product and traces so
        assert "FAIL: trace-formula" in captured.err


def _long_double_dft(g):
    # F g with F_{mk} = e(-m k / N) in long double, the roots from a long
    # double pi and each exponent reduced mod N in integers, 256 rows at a time
    N = len(g)
    j = np.arange(N)
    angle = -8 * np.arctan(np.longdouble(1)) * j.astype(np.longdouble) / N
    roots = np.cos(angle) + 1j * np.sin(angle).astype(np.clongdouble)
    x = np.array(g, dtype=np.clongdouble)
    out = np.empty(N, dtype=np.clongdouble)
    for s in range(0, N, 256):
        k = np.arange(s, min(N, s + 256))
        out[k] = roots[np.outer(k, j) % N] @ x
    return out


# Sizes of the weights' error check, by form: every N <= 64, the primes
# 127, 179 and 181 and the composites 1024 and 1536 below the line; the
# prime 191 and 2048 above it
ERROR_SIZES = {
    "python": list(range(1, 65)) + [127, 179, 181, 1024, 1536],
    "numpy": [191, 2048],
}


@pytest.mark.parametrize("form", sorted(ERROR_SIZES))
def test_weights_error_within_the_model(form):
    # The forward FFT of the library's circulant column g, against F g in
    # long double, entry by entry, under the model e = c u log2(N) of
    # Propagator.momentum.  The Python FFT reads at most 2.2 u log2(N), at
    # the primes, against c = 6.66
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("long double is no wider than double here")
    for N in ERROR_SIZES[form]:
        w, e = Propagator(N, 1).momentum
        if form == "python":
            roots, factors = _roots(N), propagator._prime_factors(N)
            chirp = [roots[-m * m % N] for m in range(N)]
            g = [z / N for z in propagator._dft(chirp, factors, roots, 1)]
            assert w == propagator._dft(g, factors, roots, -1), N
        else:
            m = np.arange(N)
            g = np.fft.ifft(np.exp(2j * np.pi * ((-m * m) % N) / N))
            assert np.array_equal(w, np.fft.fft(g)), N
        gap = np.max(np.abs(np.array(w, dtype=np.clongdouble) - _long_double_dft(g)))
        assert gap <= e, (N, float(gap), e)


def test_python_forms_match_numpy_forms():
    # the weights' two forms at sizes on both sides of the line, called
    # directly, within 1e-14; the Python weights are a list of built-in
    # complex numbers
    for N in (1, 2, 7, 64, 181, 191, 272, 1536, 2048):
        w_py, w_np = propagator._weights_python(N), propagator._weights_numpy(N)
        assert type(w_py) is list and all(type(z) is complex for z in w_py), N
        assert max(abs(x - y) for x, y in zip(w_py, w_np)) <= 1e-14, N


# (a, N) by the form of the weights that verify runs: whether the Python
# FFT makes them.  The cycle products, the trace loop and the power sums
# run in Python at every size
FORM_COMBINATIONS = {
    (440, 272): True,
    (0, 1024): True,
    (1, 4096): False,
    (0, 4096): False,
}


@pytest.mark.parametrize("a, N", sorted(FORM_COMBINATIONS))
def test_verify_runs_each_form_combination(a, N, capsys):
    # which FFT made the weights is read off their values, bit for bit
    fft_in_python = FORM_COMBINATIONS[a, N]
    w = Propagator(N, a).momentum[0]
    python, numpy = propagator._weights_python(N), propagator._weights_numpy(N)
    assert (np.array_equal(w, python), np.array_equal(w, numpy)) == (fft_in_python, not fft_in_python)
    assert cli.main(["verify", "--a", str(a), "--N", str(N)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True and all(c["ok"] for c in report["checks"])


def _cycle_residual(a, N):
    app = Approximant(a, N)
    exact = cycle_products(app)
    cycles = build_propagator(app).cycles
    assert len(cycles) == len(exact) == app.D, (a, N)
    return max(abs(x - y) for x, y in zip(cycles, exact))


def test_cycle_products_are_the_base_levels():
    # every cycle of every (a, N) with N < 60 and a <= 2N + 2, a >= N and
    # D = N among them: the product of its weights is e(t_r / 6D), with t_r
    # the level of base level eta = r, within delta(N, M)
    for N in range(1, 60):
        for a in range(2 * N + 3):
            M = N // math.gcd(a, N)
            assert _cycle_residual(a, N) <= cycle_tolerance(N, M), (a, N)


# delta(N, M) on a ladder: N = 1, the primes 191 and 16381 (D = 1 and
# D = N), D = N = 16384 and D = 1 at 16384.  Each value is the model's sum
# (1 + e)^M (1 + sqrt(5) u)^(M - 1) - 1 + 5 u, e = (1 + 4 sqrt(2)) u log2(N)
CYCLE_TOLERANCES = {
    (1, 1): 5.551115123125783e-16,
    (1, 191): 1.1173555659505503e-12,
    (16381, 16381): 1.0901746263684347e-14,
    (0, 16384): 1.0901941515416938e-14,
    (1, 16384): 1.7359015360070494e-10,
}


@pytest.mark.parametrize("a, N", sorted(CYCLE_TOLERANCES))
def test_cycle_tolerance_is_pinned_on_a_ladder(a, N):
    M = N // math.gcd(a, N)
    delta = cycle_tolerance(N, M)
    assert delta == pytest.approx(CYCLE_TOLERANCES[a, N], rel=1e-12), delta
    assert _cycle_residual(a, N) <= delta, (a, N)


@pytest.mark.parametrize("a, N", [(0, 4096), (16381, 16381)])
def test_traces_beyond_verify_range_within_tolerance(a, N):
    # verify compares k = 1..PYTHON_OPS // D (16 and 4 here) of the 2D
    # lattice traces; the oracle's running product reaches all of them, and
    # every one is within verify's 1e-9 N of the trace formula
    app = Approximant(a, N)
    U = build_propagator(app)
    traces, sums = traces_numpy(U, 2 * N), power_sums_fft(eigenphases(app), 2 * N)
    assert len(traces) == len(sums) == 2 * app.D > PYTHON_OPS // app.D
    assert max(abs(x - y) for x, y in zip(traces, sums)) <= 1e-9 * N
    shown = trace_powers(U, PYTHON_OPS // app.D * app.M)
    assert max(abs(x - y) for x, y in zip(shown, traces)) <= 1e-12 * N


def test_cycle_bound_carries_every_trace_up_to_the_cap():
    # cli.cmd_verify's inequality: if every cycle product is within delta,
    # every lattice trace up to k = 2D is within M D k delta (1 + delta)^(k-1)
    # of the formula's.  At k = 2D, plus the formula side's own rounding
    # (spectrum.power_sums' model) at the largest k that verify compares,
    # it is at most 1e-9 N, verify's tolerance, for every divisor D of every
    # N <= cli.MAX_VERIFY_N
    worst = 0.0
    for D in range(1, cli.MAX_VERIFY_N + 1):
        for M in range(1, cli.MAX_VERIFY_N // D + 1):
            N, k = D * M, 2 * D
            delta = cycle_tolerance(N, M)
            bound = M * D * k * delta * (1 + delta) ** (k - 1)
            bound += power_sums_error(D, M, min(k, PYTHON_OPS // D))
            worst = max(worst, bound / (1e-9 * N))
    assert worst <= 1, worst
