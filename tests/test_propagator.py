"""Propagator matrix, unitarity, and its traces against the trace formula.

The brute oracle below rebuilds small matrices with nothing shared with the
library path (plain cmath loop, no exponent reduction) and proves the
oracle's dense U (diagonal times circulant) and the l-sum; the library's
momentum form, made in row blocks from the defining sum, is compared with
the two-FFT momentum form of that dense U.  The trace tests compare matrix
powers against the trace formula, the power sums of the exact spectrum
(spectrum.power_sums), at the stated tolerances.  The momentum-form
unitarity bound and traces are checked against the dense U U^dagger and
eigensolve oracles, and against corrupted matrices.
"""

import cmath
import json
import math
import os
import subprocess
import sys
import tracemalloc
import typing
from pathlib import Path

import numpy as np
import pytest

from skewtorus import cli, propagator
from skewtorus.diophantine import Approximant
from skewtorus.propagator import (
    MOMENTUM_BLOCK,
    Propagator,
    build_propagator,
    trace_powers,
    unitarity_defect,
)
from skewtorus.spectrum import eigenphases, power_sums

from oracles import (
    DenseMatrix,
    dense_propagator,
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
    # V = P W + E at N = 4, a = 1: weights 1, i, -1, 3/2 on the support
    # m -> m + 1 and one off-support entry 1/2, so ||E||_F = 1/2.  The bound
    # is max|1 - |w|^2| + 2 ||E||_F max|w| + ||E||_F^2 = 5/4 + 3/2 + 1/4,
    # exact here: every FFT at N = 4 of these entries is exact
    V = np.zeros((4, 4), dtype=complex)
    for m, w in enumerate((1, 1j, -1, 1.5)):
        V[(m + 1) % 4, m] = w
    V[0, 0] = 0.5
    U = DenseMatrix(4, 1, np.fft.ifft(np.fft.fft(V, axis=1), axis=0))
    assert U.momentum[1] == 0.5
    assert unitarity_defect(U) == 3.0


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
    for a, N in TRACE_SET:
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
    # (8, 5) has D = 1 and M = 5: n = 5 is the one lattice point up to 7
    series = trace_powers(build_propagator(Approximant(8, 5)), 7)
    assert len(series) == 1
    assert abs(series[0] - trace_power_numeric(dense_propagator(8, 5), 5)) < 1e-12
    for n in (1, 2, 7):
        assert abs(trace_power_numeric(dense_propagator(8, 5), n)) < 1e-12


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
    assert w.shape == (9,) and 0 <= e < 1e-14


def test_momentum_form_does_not_depend_on_a():
    # the rows are read in momentum order, and the row of momentum m holds
    # w_m in column m whichever row l = (m + a) mod N it is, so w and
    # ||E||_F are the same bits for every a: a = 0 and a = N (D = N), a >= N
    # and a huge a.  The sizes hold N below one block and N > B that ends
    # in a part block
    for N in (1, 7, 12, 16, 60, 272):
        w, e = Propagator(N, 1).momentum
        for a in (0, 3, N, N + 5, 2 * N, 10**30 + 7):
            w_a, e_a = Propagator(N, a).momentum
            assert np.array_equal(w_a, w) and e_a == e, (a, N)


def test_row_block_momentum_matches_dense_oracle(monkeypatch):
    # the weights do not depend on how the rows are blocked; the cases
    # hold N below one block and N > B that ends in a part block
    cases = UNITARITY_SET + EDGE_SET + [(440, 272), (0, 600)]
    sizes = [N for _, N in cases]
    assert min(sizes) < MOMENTUM_BLOCK
    assert any(N > MOMENTUM_BLOCK and N % MOMENTUM_BLOCK for N in sizes)
    for a, N in cases:
        w, e = build_propagator(Approximant(a, N)).momentum
        w_ref, e_ref = momentum_two_buffer(dense_propagator(a, N), a)
        assert np.max(np.abs(w - w_ref)) <= 1e-14, (a, N)
        assert e < 1e-13 and e_ref < 1e-13, (a, N, e, e_ref)
        assert e > 0 or N == 1, (a, N)
        for block in (1, 7, N):
            monkeypatch.setattr(propagator, "MOMENTUM_BLOCK", block)
            w_block, e_block = build_propagator(Approximant(a, N)).momentum
            assert np.array_equal(w_block, w), (a, N, block)
            # the blocks change only the order in which the N^2 terms of
            # ||E||_F^2 are added; any order is within N^2 u of their sum
            assert abs(e_block - e) <= N * N * 2.0**-53 * e, (a, N, block, e_block, e)
        monkeypatch.undo()


def test_checks_hold_one_row_block():
    # numpy reports its buffers to tracemalloc.  The budget is 48 B N bytes
    # at B = 16 rows: a block's 40 B N (the model stated in propagator.py)
    # and the O(N) terms.  It is fixed, so that larger blocks fail it:
    # 16-row blocks read 1.4 MB here, 32-row blocks 2.7 MB and 256-row
    # blocks 21.1 MB.  The propagator keeps the weights, 16 N bytes.
    N = 2048
    budget = 48 * 16 * N

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


def test_momentum_reuses_its_block_buffers():
    # Blocks made afresh go back to the OS when dropped and fault in again;
    # only page faults show it.  One momentum call at N = 2048, in a fresh
    # interpreter after a warm-up at N = 64, took 499 minor faults with the
    # two reused buffers and 37004 with each block's arrays made afresh
    # (16-row blocks both, glibc).
    pytest.importorskip("resource")  # POSIX only
    script = (
        "import resource\n"
        "from skewtorus.propagator import Propagator\n"
        "Propagator(64, 1).momentum\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "Propagator(2048, 1).momentum\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = str(Path(propagator.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 4000, proc.stdout


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


CORRUPTIONS = {"shifted": _shifted, "perturbed": _perturbed, "scaled": _scaled, "grown": _grown}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_unitarity_fails_on_corrupted_matrix(kind):
    # the shifted matrix is unitary, so U U^dagger - I cannot see it; its
    # weights sit off the support m -> m + a, which the bound charges to E
    for a, N in [(1, 2), (3, 9), (24, 16), (0, 7), (90, 63)]:
        bad = CORRUPTIONS[kind](a, N)
        defect = unitarity_defect(bad)
        assert defect > 1e-12, (a, N)
        assert defect >= dense_unitarity_defect(bad.entries), (a, N)


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_verify_fails_unitarity_on_corrupted_matrix(kind, monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_propagator", lambda app: CORRUPTIONS[kind](app.a, app.N))
    assert cli.main(["verify", "--a", "3", "--N", "9"]) == 1
    captured = capsys.readouterr()
    assert "FAIL: unitarity" in captured.err
    assert json.loads(captured.out)["checks"][0]["ok"] is False
    if kind == "shifted":
        # the weights of (a + 1, N) sit off the support of a: no traces of a
        assert "FAIL: trace-formula" in captured.err
