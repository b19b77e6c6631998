"""Exact eigenphase spectra and D-level blocks.

The frozen spectra below were derived by direct substitution into the
eigenphase formula; the structural tests (periodicity, gap repetition,
eta-reflection) hold for arbitrary (a, N), not just true approximants.
"""

import io
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from skewtorus import cli, spectrum
from skewtorus.diophantine import Approximant, golden, nearest_approximant
from skewtorus.spectrum import (
    PYTHON_OPS,
    Spectrum,
    eigenphases,
    power_sums,
    reduced_spectrum,
    spectrum_to_csv,
    spectrum_to_json,
)
from skewtorus.statistics import _gauss_sum_sq

from oracles import (
    eigenphases_fraction,
    level_arrays,
    power_sums_error,
    power_sums_fft,
    power_sums_fft_error,
    power_sums_fraction,
    robustness_pairs,
    spectrum_csv,
    spectrum_json,
)

RANDOM_PAIRS = [(1, 1), (1, 2), (2, 4), (3, 9), (5, 10), (24, 15), (24, 16), (18, 12)]


def rnd_pairs(count, seed=11):
    rnd = random.Random(seed)
    pairs = list(RANDOM_PAIRS)
    while len(pairs) < count:
        pairs.append((rnd.randint(0, 80), rnd.randint(1, 48)))
    return pairs


def test_spectrum_frozen_1_3():
    spec = eigenphases(Approximant(1, 3))
    assert spec.values == [Fraction(1, 3), Fraction(4, 3), Fraction(7, 3)]
    _, eta, l = level_arrays(spec)
    assert list(zip(eta.tolist(), l.tolist())) == [(1, 2), (1, 0), (1, 1)]


def test_spectrum_frozen_2_4():
    spec = eigenphases(Approximant(2, 4))
    assert spec.values == [0, 1, 2, 3]
    assert repr(spec) == "Spectrum(app=Approximant(a=2, N=4), rho=0, hist=(1, 1))"
    for field in ("app", "rho", "hist"):
        with pytest.raises(AttributeError):
            setattr(spec, field, None)


def test_spectrum_frozen_3_9():
    assert eigenphases(Approximant(3, 9)).values == [0, 2, 2, 3, 5, 5, 6, 8, 8]


def test_spectrum_shape():
    for a, N in rnd_pairs(24):
        spec = eigenphases(Approximant(a, N))
        vals = spec.values
        assert len(vals) == N
        assert vals == sorted(vals)
        assert all(0 <= v < N for v in vals)
        assert all(v.denominator in (1, 2, 3, 6) for v in vals)


def test_spectrum_periodicity():
    # as a multiset mod N, the spectrum is invariant under a shift by D
    for a, N in rnd_pairs(24):
        app = Approximant(a, N)
        vals = eigenphases(app).values
        shifted = sorted((v + app.D) % N for v in vals)
        assert shifted == vals


def residues(block):
    """The block's levels -eta^2 mod D as a sorted tuple of ints."""
    t, _, _ = level_arrays(block)
    assert not (t % 6).any()
    return tuple((t // 6).tolist())


def circular_gaps(points, circumference):
    pts = sorted(points)
    gaps = [b - a for a, b in zip(pts, pts[1:])]
    gaps.append(pts[0] + circumference - pts[-1])
    return sorted(gaps)


def test_gap_structure_is_reduced_spectrum_repeated():
    # spectrum gaps = M copies of the reduced-spectrum gaps on a circle of size D
    for a, N in rnd_pairs(24):
        app = Approximant(a, N)
        spec_gaps = circular_gaps(eigenphases(app).values, N)
        red_gaps = circular_gaps(residues(reduced_spectrum(app.D)), app.D)
        assert spec_gaps == sorted(red_gaps * app.M)


def test_reduced_frozen():
    assert residues(reduced_spectrum(1)) == (0,)
    assert residues(reduced_spectrum(3)) == (0, 2, 2)
    assert residues(reduced_spectrum(8)) == (0, 0, 4, 4, 7, 7, 7, 7)
    assert residues(reduced_spectrum(9)) == (0, 0, 0, 2, 2, 5, 5, 8, 8)
    block = reduced_spectrum(9)
    assert (block.N, block.app.D, block.app.M) == (9, 9, 1)
    _, eta, l = level_arrays(block)
    assert eta.tolist() == [3, 6, 9, 4, 5, 2, 7, 1, 8]  # ties in eta order
    assert l.tolist() == [0] * 9
    with pytest.raises(ValueError):
        reduced_spectrum(0)


def test_reduced_eta_reflection():
    # -eta^2 and -(D-eta)^2 agree mod D, so the multiset is reflection-built
    for D in range(1, 40):
        res = [(-eta * eta) % D for eta in range(1, D + 1)]
        refl = [(-(D - eta) ** 2) % D for eta in range(1, D + 1)]
        assert sorted(res) == sorted(refl)
        assert residues(reduced_spectrum(D)) == tuple(sorted(res))


def test_degeneracy_profiles():
    # the histogram of the D-level block is its degeneracy profile
    assert reduced_spectrum(1).hist == (1,)
    assert reduced_spectrum(3).hist == (1, 0, 2)
    hist8 = reduced_spectrum(8).hist
    assert hist8 == (2, 0, 0, 0, 2, 0, 0, 4)
    assert max(hist8) == 4
    assert max(reduced_spectrum(3).hist) == 2


def test_histogram_is_the_block_moved_by_the_offset():
    # base level eta sits at (c - eta^2) mod D, the block's -eta^2 mod D
    # moved by c mod D: the rotation that verify's block checks rely on
    moved = 0
    for a, N in robustness_pairs() + [(6, 12288), (3, 4095), (0, 997)]:
        app = Approximant(a, N)
        D, shift = app.D, spectrum._offset(app)[0] % app.D
        block = reduced_spectrum(D).hist
        want = tuple(block[(r - shift) % D] for r in range(D))
        assert eigenphases(app).hist == want, (a, N)
        moved += want != block
    assert moved  # some offsets move the histogram


def test_spectrum_mod_d_is_m_copies():
    for a, N in rnd_pairs(16):
        app = Approximant(a, N)
        folded = Counter(v % app.D for v in eigenphases(app).values)
        assert all(c % app.M == 0 for c in folded.values())
        assert sum(folded.values()) == N


def test_eigenphases_streams_its_period():
    # the D base levels stream into the histogram, so no list of D Python
    # ints is held: at D = N = 2 * 10^5 the histogram alone peaks near
    # 3.2 MB, where a list of the levels beside it peaked at 11.2 MB
    tracemalloc.start()
    try:
        spec = eigenphases(Approximant(0, 200_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (spec.rho, sum(spec.hist)) == (0, 200_000)
    assert peak < 6_000_000, peak


def test_power_sums_validation():
    spec = eigenphases(Approximant(1, 3))
    with pytest.raises(ValueError):
        power_sums(spec, 0)
    # M = 3: n_max = 2 reaches no lattice point, n_max = 3 the one at n = 3
    assert power_sums(spec, 2) == []
    sums = power_sums(spec, 3)
    # n=3 turns each e^(2 pi i phi/3) into e^(2 pi i phi): 3 e^(2 pi i /3)
    assert len(sums) == 1
    assert abs(sums[0] - 3 * complex(-0.5, 3**0.5 / 2)) < 1e-12


def test_fft_power_sums_match_fraction_loop():
    specs = [(eigenphases(Approximant(a, N)), N) for a, N in rnd_pairs(16) + robustness_pairs()]
    # n_max beyond 6N wraps k = n / M around the FFT length D and the phase's 6D
    cases = [(1, 1, 20), (1, 3, 6 * 3 + 7), (10**30 + 7, 4, 60), (0, 5, 2 * 6 * 5 + 1)]
    cases += [(1, 3, 2), (2, 200, 99)]  # n_max < M: every sum is off the M-lattice
    # 257 sums of D = 256 terms: above spectrum.PYTHON_OPS, which bounds
    # only what verify asks for
    cases.append((0, 256, 257))
    specs += [(eigenphases(Approximant(a, N)), n_max) for a, N, n_max in cases]
    # read as given: (5, 10) has rho = 3 and the levels 1.5, 1.5, 2.5, 3.5, 3.5 mod 5
    specs.append((Spectrum(Approximant(5, 10), 3, (0, 2, 1, 2, 0)), 25))
    for spec, n_max in specs:
        N, M = spec.N, spec.app.M
        fast = power_sums(spec, n_max)
        slow = power_sums_fraction(spec, n_max)
        assert len(fast) == n_max // M
        assert all(type(z) is complex for z in fast)
        # the library returns the M-lattice n = k M; off it the sums vanish
        gaps = [abs(x - y) for x, y in zip(fast, slow[M - 1 :: M])]
        gaps += [abs(z) for n, z in enumerate(slow, 1) if n % M]
        assert max(gaps) <= 1e-12 * N, (spec, n_max, max(gaps))


def test_power_sums_form_factor_is_the_gauss_sum():
    # |Tr U^(kM)|^2 = M^2 |S_D(k)|^2, the closed form that the fourier route
    # reads (statistics._gauss_sum_sq), at every (a, N) with N <= 64 and
    # a <= 2N, and at the golden approximant N = 10^12 (D = 1250), where
    # the 2D = 2500 lattice traces up to n = 2N are all that is made.  The
    # tolerance is relative to N^2, the largest |Tr U^n|^2
    apps = [Approximant(a, N) for N in range(1, 65) for a in range(2 * N + 1)]
    apps.append(nearest_approximant(golden(), 10**12))
    assert apps[-1].D == 1250
    for app in apps:
        N, D, M = app.N, app.D, app.M
        sums = power_sums(eigenphases(app), 2 * N)
        assert len(sums) == 2 * D, app
        for k, z in enumerate(sums, 1):
            gap = abs(abs(z) ** 2 - M * M * _gauss_sum_sq(D, k))
            assert gap <= 1e-12 * N * N, (app, k, gap)


@pytest.mark.parametrize(
    "a, N",
    [(440, 272), (1, 16384), (0, 1024), (0, 4096), (0, 16384), (16381, 16381), (10**30 + 7, 200)],
)
def test_power_sums_within_their_error_model(a, N):
    # at every k that verify compares, k <= min(2D, PYTHON_OPS // D), each
    # sum is within the docstring's bound of the exact trace formula, and
    # the FFT oracle within its own stated rounding: D = 1 to D = N, the
    # prime D = 16381, and an a far past the float range
    app = Approximant(a, N)
    D, M = app.D, app.M
    spec = eigenphases(app)
    n = min(2 * D, PYTHON_OPS // D) * M
    sums, oracle = power_sums(spec, n), power_sums_fft(spec, n)
    assert len(sums) == len(oracle) == n // M
    slack = power_sums_fft_error(spec)
    for k, (x, y) in enumerate(zip(sums, oracle), 1):
        assert abs(x - y) <= power_sums_error(D, M, k) + slack, (k, abs(x - y))


def test_spectrum_csv():
    buf = io.StringIO()
    spectrum_to_csv(eigenphases(Approximant(1, 3)), buf)
    assert buf.getvalue() == (
        "eta,l,numerator,denominator,decimal\n"
        "1,2,1,3,0.3333333333333333\n"
        "1,0,4,3,1.3333333333333333\n"
        "1,1,7,3,2.3333333333333335\n"
    )


def test_integer_spectrum_matches_fraction_build():
    pairs = rnd_pairs(24) + [(0, 1), (0, 7), (10**30 + 7, 9), (10**30 + 7, 1), (12, 12)]
    pairs += [(2584, 1597), (3016, 1864)]
    for a, N in pairs:
        app = Approximant(a, N)
        spec = eigenphases(app)
        t, eta, l = level_arrays(spec)
        assert all(arr.dtype == np.int64 for arr in (t, eta, l))
        want = eigenphases_fraction(app)
        assert list(zip(spec.values, eta.tolist(), l.tolist())) == want, (a, N)
        buf = io.StringIO()
        spectrum_to_csv(spec, buf)
        rows = [
            f"{eta},{l},{v.numerator},{v.denominator},{float(v)!r}" for v, eta, l in want
        ]
        assert buf.getvalue().splitlines()[1:] == rows, (a, N)


@pytest.mark.parametrize(
    "a, N, block",
    [
        (0, 1, None),  # N = 1
        (0, 12, None),  # a = 0: D = N
        (24, 16, None),  # a >= N
        (10**30 + 7, 9, None),  # huge a
        (2584, 1597, None),
        # row counts below, at and just above a multiple of the block size
        (5, 7, 4),
        (6, 8, 4),
        (5, 9, 4),
        (3, 9, 3),
        (1, 1, 1),
    ],
)
def test_block_writers_match_oracle(monkeypatch, a, N, block):
    if block is not None:
        monkeypatch.setattr(spectrum, "SPECTRUM_BLOCK", block)
    spec = eigenphases(Approximant(a, N))
    writers = ((spectrum_to_csv, spectrum_csv), (spectrum_to_json, spectrum_json))
    for write, oracle in writers:
        buf = io.StringIO()
        write(spec, buf)
        assert buf.getvalue() == oracle(spec), (write.__name__, a, N, block)


def test_writers_match_oracle_at_default_block():
    # D = 4097 and 5000 split one period over two blocks; (3, 8194) has
    # D = 1 and ends on a block of two periods
    pairs = robustness_pairs() + [(0, 4097), (0, 5000), (3, 8194)]
    writers = ((spectrum_to_csv, spectrum_csv), (spectrum_to_json, spectrum_json))
    for a, N in pairs:
        spec = eigenphases(Approximant(a, N))
        for write, oracle in writers:
            buf = io.StringIO()
            write(spec, buf)
            assert buf.getvalue() == oracle(spec), (write.__name__, a, N)


def test_decimal_is_q_digits_and_binade_tail():
    # repr((q den + r) / den) is str(q) + _tail(bits, r, den) for every q of
    # bit length bits below the cap: both ends of each binade and seeded
    # interior points, at every den a spectrum can have and every r < den
    rnd = random.Random(26)
    checks = 0
    for den in (1, 2, 3, 6):
        for r in range(den):
            for bits in range(cli.MAX_SPECTRUM_N.bit_length()):
                lo, hi = 1 << bits >> 1, (1 << bits) - 1
                tail = spectrum._tail(bits, r, den)
                for q in {lo, hi, *(rnd.randint(lo, hi) for _ in range(40))}:
                    assert repr((q * den + r) / den) == str(q) + tail, (q, r, den)
                    checks += 1
    assert checks > 20000
    # the cap is not vacuous: at an ulp of 1/2 (q = 2^51) 5/6 rounds up to
    # the next integer, so the digits are no longer q's
    q = 1 << 51
    assert repr((6 * q + 5) / 6) == str(q + 1) + ".0"


# (a, N) -> den: D = 1 and D > 1 at each den; (5, 20002) has 20002 levels
EVERY_DEN = {
    (3, 9): 1,
    (0, 12): 1,
    (5, 20002): 2,
    (3, 6): 2,
    (1, 3): 3,
    (2, 6): 3,
    (1, 12): 6,
    (5, 30): 6,
}


def _writers_match(spec):
    writers = ((spectrum_to_csv, spectrum_csv), (spectrum_to_json, spectrum_json))
    for write, oracle in writers:
        buf = io.StringIO()
        write(spec, buf)
        assert buf.getvalue() == oracle(spec), (write.__name__, spec.app)


@pytest.mark.parametrize("block", [None, 1000, 4])
def test_writers_match_oracle_at_every_denominator(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(spectrum, "SPECTRUM_BLOCK", block)
    crossed = False
    for (a, N), den in EVERY_DEN.items():
        spec = eigenphases(Approximant(a, N))
        assert 6 // math.gcd(spec.rho, 6) == den, (a, N)
        _writers_match(spec)
        # a block past q = 0 whose q crosses a power of two is split there
        crossed |= any(
            q[0] > 0 and q[0].bit_length() != q[-1].bit_length()
            for _, _, q in spectrum._level_blocks(spec)
        )
    assert set(EVERY_DEN.values()) == {1, 2, 3, 6}
    assert crossed or block is None
