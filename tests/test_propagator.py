"""Propagator matrix, unitarity, and its traces against the trace formula.

The brute oracle below rebuilds small matrices with nothing shared with the
library path (plain cmath loop, no exponent reduction), and the trace tests
compare matrix powers against the trace formula, the power sums of the
exact spectrum (spectrum.power_sums), at the stated tolerances.
The momentum-form unitarity bound and traces are checked against the dense
U U^dagger and eigensolve oracles, and against corrupted matrices.
"""

import cmath
import json
import math
import tracemalloc
import typing

import numpy as np
import pytest

from skewtorus import cli
from skewtorus.diophantine import Approximant
from skewtorus.propagator import (
    Propagator,
    build_propagator,
    trace_powers,
    unitarity_defect,
)
from skewtorus.spectrum import eigenphases, power_sums

from oracles import (
    DenseMatrix,
    dense_unitarity_defect,
    eigvals_power_sums,
    momentum_two_buffer,
    propagator_lsum,
    robustness_pairs,
    trace_power_numeric,
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
        U = build_propagator(Approximant(a, N))
        assert np.max(np.abs(U.dense() - brute_matrix(a, N))) < 1e-11


def test_propagator_type_hints_resolve():
    assert typing.get_type_hints(Propagator)["N"] is int


def test_trivial_one_by_one():
    U = build_propagator(Approximant(1, 1))
    assert np.allclose(U.dense(), [[1.0]], atol=1e-15)


def test_two_by_two_hand_values():
    # the l-sum gives U = [[0, 1], [-1, 0]] exactly up to rounding
    U = build_propagator(Approximant(1, 2))
    assert np.max(np.abs(U.dense() - np.array([[0, 1], [-1, 0]]))) < 1e-15


def test_entry_magnitudes():
    for a, N in [(8, 5), (3, 9), (24, 16)]:
        U = build_propagator(Approximant(a, N))
        assert np.max(np.abs(U.dense())) <= 1 + 1e-12


def test_unitarity_across_set():
    # the bound from the momentum form dominates the dense U U^dagger - I
    for a, N in UNITARITY_SET + EDGE_SET:
        U = build_propagator(Approximant(a, N))
        bound = unitarity_defect(U)
        assert dense_unitarity_defect(U.dense()) <= bound < 1e-12, (a, N, bound)


def test_unitarity_detector_sees_corruption():
    U = build_propagator(Approximant(1, 3))
    bad = U.dense()
    bad[0, 0] += 0.5
    assert unitarity_defect(DenseMatrix(3, 1, bad)) > 0.1


def test_dimension_guard():
    with pytest.raises(ValueError):
        build_propagator(Approximant(1, 10), max_n=8)
    with pytest.raises(ValueError):
        build_propagator(Approximant(1, 5000))
    build_propagator(Approximant(1, 10), max_n=10)


def test_trace_examples_1_3():
    app = Approximant(1, 3)
    U = build_propagator(app)
    assert abs(trace_power_numeric(U, 1)) < 1e-10
    want = 3 * cmath.exp(2j * math.pi / 3)
    assert abs(trace_power_numeric(U, 3) - want) < 1e-10
    analytic = power_sums(eigenphases(app), 3)
    assert abs(analytic[2] - want) < 1e-12
    assert analytic[0] == 0j


def test_trace_examples_3_9():
    app = Approximant(3, 9)
    U = build_propagator(app)
    analytic = power_sums(eigenphases(app), 3)
    assert analytic[1] == 0j  # n mod M != 0 is exactly zero
    assert abs(trace_power_numeric(U, 2)) < 1e-9 * 9
    assert abs(abs(analytic[2]) - 3 * math.sqrt(3)) < 1e-12
    assert abs(abs(trace_power_numeric(U, 3)) - 3 * math.sqrt(3)) < 1e-9 * 9


def test_trace_power_zero_is_dimension():
    app = Approximant(8, 5)
    U = build_propagator(app)
    assert trace_power_numeric(U, 0) == 5
    with pytest.raises(ValueError):
        trace_power_numeric(U, -1)


def test_analytic_modulus_periodic_in_n():
    # the n-dependence of |Tr U^n| has period N (the exponent shifts by a
    # global, eta-independent phase under n -> n + N)
    for a, N in [(3, 9), (24, 16), (14, 10)]:
        sums = power_sums(eigenphases(Approximant(a, N)), 5 * N)
        for n in range(1, 2 * N + 1):
            z1, z2, z3 = sums[n - 1], sums[n + N - 1], sums[n + 3 * N - 1]
            assert abs(abs(z1) - abs(z2)) < 1e-12
            assert abs(abs(z1) - abs(z3)) < 1e-12


def test_numeric_matches_analytic_sweep():
    for a, N in TRACE_SET:
        app = Approximant(a, N)
        numeric = trace_powers(build_propagator(app), 2 * N)
        analytic = power_sums(eigenphases(app), 2 * N)
        for n in range(1, 2 * N + 1):
            assert abs(numeric[n - 1] - analytic[n - 1]) < 1e-9 * N, (a, N, n)


def test_randomized_trace_routes_cross_check():
    # N = 1, a = 0, a >= N, huge a and D = N among them; verify's tolerances
    for a, N in robustness_pairs():
        app = Approximant(a, N)
        numeric = trace_powers(build_propagator(app), 2 * N)
        analytic = power_sums(eigenphases(app), 2 * N)
        for n in range(1, 2 * N + 1):
            assert abs(numeric[n - 1] - analytic[n - 1]) <= 1e-9 * N, (a, N, n)


def test_trace_powers_agrees_with_matrix_power():
    U = build_propagator(Approximant(8, 5))
    series = trace_powers(U, 7)
    for n in (1, 2, 5, 7):
        assert abs(series[n - 1] - trace_power_numeric(U, n)) < 1e-12


def test_circulant_build_matches_lsum_oracle():
    for a, N in TRACE_SET + EDGE_SET:
        U = build_propagator(Approximant(a, N))
        assert U.a == a and U.N == N
        assert np.max(np.abs(U.dense() - propagator_lsum(a, N))) <= 1e-13, (a, N)


def test_eigenvalue_traces_match_running_product():
    # against the running matrix product and the dense eigensolve
    for a, N in TRACE_SET + EDGE_SET:
        U = build_propagator(Approximant(a, N))
        fast = trace_powers(U, 2 * N)
        assert len(fast) == 2 * N
        for slow in (traces_running_product(U.dense(), 2 * N), eigvals_power_sums(U.dense(), 2 * N)):
            gap = max(abs(x - y) for x, y in zip(fast, slow))
            assert gap <= 1e-9 * N, (a, N, gap)


def test_momentum_form_is_computed_once():
    U = build_propagator(Approximant(3, 9))
    assert U.momentum is U.momentum
    w, e = U.momentum
    assert w.shape == (9,) and 0 <= e < 1e-14


def test_in_place_momentum_is_bit_identical_to_two_buffers():
    # N = 272 and 600 span two and three row blocks; the oracle's U is
    # built after momentum has overwritten its own buffer
    for a, N in UNITARITY_SET + EDGE_SET + [(440, 272), (0, 600)]:
        U = build_propagator(Approximant(a, N))
        w, e = U.momentum
        w_ref, e_ref = momentum_two_buffer(U.dense(), a)
        assert np.array_equal(w, w_ref) and e == e_ref, (a, N)


def test_checks_hold_one_dense_buffer():
    # numpy reports its buffers to tracemalloc; one N x N complex array is
    # 16 N^2 bytes, and the propagator keeps none after the checks
    N = 512
    one = 16 * N * N

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
    assert peak <= 1.5 * one, peak / one
    assert retained <= 0.1 * one, retained / one


def _shifted(a, N):
    # the matrix of (a + 1, N) labelled as a
    return DenseMatrix(N, a, build_propagator(Approximant(a + 1, N)).dense())


def _perturbed(a, N):
    entries = build_propagator(Approximant(a, N)).dense()
    entries[N // 2, N // 3] += 1e-9
    return DenseMatrix(N, a, entries)


def _scaled(a, N):
    return DenseMatrix(N, a, 0.9 * build_propagator(Approximant(a, N)).dense())


CORRUPTIONS = {"shifted": _shifted, "perturbed": _perturbed, "scaled": _scaled}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_unitarity_fails_on_corrupted_matrix(kind):
    # the shifted matrix is unitary, so U U^dagger - I cannot see it; its
    # weights sit off the support m -> m + a, which the bound charges to E
    for a, N in [(1, 2), (3, 9), (24, 16), (0, 7), (90, 63)]:
        bad = CORRUPTIONS[kind](a, N)
        defect = unitarity_defect(bad)
        assert defect > 1e-12, (a, N)
        assert defect >= dense_unitarity_defect(bad.dense()), (a, N)


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_verify_fails_unitarity_on_corrupted_matrix(kind, monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_propagator", lambda app, max_n: CORRUPTIONS[kind](app.a, app.N))
    assert cli.main(["verify", "--a", "3", "--N", "9"]) == 1
    captured = capsys.readouterr()
    assert "FAIL: unitarity" in captured.err
    assert json.loads(captured.out)["checks"][0]["ok"] is False
    if kind == "shifted":
        # the weights of (a + 1, N) sit off the support of a: no traces of a
        assert "FAIL: trace-formula" in captured.err
