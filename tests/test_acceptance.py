"""Acceptance gate: ten end-to-end criteria, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
criterion also asserts its stated tolerance and, where given, a runtime cap.
"""

import time
from fractions import Fraction

from skewtorus import cli
from skewtorus.diophantine import (
    Approximant,
    approximants_with_gcd,
    certify_approximant,
    golden,
)
from skewtorus.propagator import build_propagator, trace_powers, unitarity_defect
from skewtorus.spectrum import eigenphases, power_sums
from skewtorus.statistics import (
    divergence_witness,
    number_variance_closed,
    number_variance_direct,
    number_variance_fourier,
    spacing_distribution_closed,
    spacings,
)

TRACE_SET = [
    (1, 2), (1, 3), (2, 4), (8, 5), (3, 9), (5, 10), (14, 10), (24, 15),
    (24, 16), (18, 12), (34, 21), (48, 30), (63, 39), (72, 45), (90, 63),
    (104, 64),
]

UNITARITY_SET = TRACE_SET + [(96, 60), (75, 50), (144, 89), (181, 128), (207, 128)]

POWER_SUM_SET = [
    (1, 2), (1, 3), (2, 4), (8, 5), (3, 9), (5, 10), (14, 10), (24, 15),
    (24, 16), (18, 12), (34, 21), (48, 30), (32, 20),
]

D_PAIRS = {
    1: [(1, 3), (8, 5)],
    2: [(2, 4), (14, 10)],
    3: [(3, 9), (24, 15)],
    6: [(18, 12), (48, 30)],
    8: [(24, 16), (104, 64)],
    9: [(18, 9), (90, 63)],
}


def criterion(num, desc, body, cap=None):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    elapsed = time.perf_counter() - start
    timing = f"{elapsed:.2f}s" + (f" < {cap:g}s" if cap else "")
    print(f"[PASS] criterion {num}: {desc} ({timing})")
    if cap is not None:
        assert elapsed < cap, f"criterion {num} runtime {elapsed:.2f}s >= cap {cap}s"


def test_criterion_1_spacing_laws():
    def body():
        g = golden()
        families = {
            1: approximants_with_gcd(g, 1, 3),
            2: approximants_with_gcd(g, 2, 3),
            3: approximants_with_gcd(g, 3, 3),
        }
        # also the scaled-Fibonacci members quoted as examples elsewhere
        families[1] = families[1] + [Approximant(8, 5), Approximant(13, 8), Approximant(21, 13)]
        families[3] = families[3] + [Approximant(24, 15)]
        for D, members in families.items():
            assert len(members) >= 3
            want = spacing_distribution_closed(D).atoms
            for m in members:
                assert m.D == D
                assert certify_approximant(g, m.a, m.N)
                assert spacings(eigenphases(m)).atoms == want, (D, m)

    criterion(
        1,
        "exact spacing laws: delta(s-1) for D=1,2 and three 1/3 atoms for D=3, "
        "over >= 3 certified approximants each",
        body,
        cap=1.0,
    )


def test_criterion_2_nonexistence_witness():
    def body():
        wit = divergence_witness(golden(), 3)
        assert [(D, len(members)) for D, members, _ in wit.families] == [(1, 3), (3, 3)]
        assert wit.ok
        for D, _, laws in wit.families:
            for law in laws:
                assert law.atoms == spacing_distribution_closed(D).atoms
        assert spacing_distribution_closed(1).atoms != spacing_distribution_closed(3).atoms
        text = "\n".join(wit.lines())
        assert "delta(s - 1)" in text
        assert "(1/3) delta(s) + (1/3) delta(s - 1) + (1/3) delta(s - 2)" in text

    criterion(
        2,
        "two approximant families with distinct constant spacing laws "
        "(no limiting law), both laws shown verbatim",
        body,
        cap=1.0,
    )


def test_criterion_3_closed_forms_sign_corrected():
    def body():
        spec1 = eigenphases(Approximant(8, 5))
        for j in range(50):
            L = Fraction(3 * j, 49)
            assert number_variance_direct(spec1, L) == L % 1 - (L % 1) ** 2
        spec3 = eigenphases(Approximant(24, 15))
        for j in range(50):
            L = Fraction(3 * j, 49)
            assert number_variance_direct(spec3, L) == number_variance_closed(3, L)
        assert number_variance_direct(spec3, Fraction(1, 2)) == Fraction(7, 12)
        assert number_variance_direct(spec3, 1) == Fraction(2, 3)
        # the plus-sign variant fails the definitional gate
        L = Fraction(1, 2)
        assert L + L * L == Fraction(3, 4)
        assert number_variance_direct(spec1, L) == Fraction(1, 4) != L + L * L

    criterion(
        3,
        "number variance closed forms match the exact sweep at 50 points for "
        "D=1 and D=3 (7/12 and 2/3 included); plus-sign variant {L}+{L}^2 "
        "rejected: it gives 3/4 at L=1/2 where the definition gives 1/4",
        body,
    )


def test_criterion_4_fourier_route():
    def body():
        K = 100_000
        for D in (1, 2, 3, 6):
            for j in range(100):
                L = Fraction(2 * D * j, 99)
                value, bound = number_variance_fourier(D, L, K)
                assert abs(value - float(number_variance_closed(D, L))) <= bound, (D, L)

    criterion(
        4,
        "fourier route within its reported truncation bound of the closed "
        "forms, D in {1,2,3,6}, 100-point L grid, K=1e5",
        body,
        cap=30.0,
    )


def test_criterion_5_trace_formula():
    def body():
        for a, N in TRACE_SET:
            assert N <= 64
            app = Approximant(a, N)
            numeric = trace_powers(build_propagator(app), 2 * N)
            analytic = power_sums(eigenphases(app), 2 * N)
            assert len(numeric) == len(analytic) == 2 * app.D, (a, N)
            for k, (x, y) in enumerate(zip(numeric, analytic), 1):
                assert abs(x - y) < 1e-9 * N, (a, N, k)

    criterion(
        5,
        "trace formula: |numeric - analytic| < 1e-9 N at the 2D lattice points "
        "n = kM <= 2N over the N <= 64 set",
        body,
        cap=120.0,
    )


def test_criterion_6_unitarity():
    def body():
        for a, N in UNITARITY_SET:
            assert N <= 128
            defect = unitarity_defect(build_propagator(Approximant(a, N)))
            assert defect < 1e-12, (a, N, defect)

    criterion(6, "unitarity defect < 1e-12 for all N <= 128 in the test set", body)


def test_criterion_7_figure_curves(tmp_path):
    def body():
        out = tmp_path / "figure1.csv"
        assert cli.main(["figure1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0]
        assert header.startswith("# ")
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 451  # L = 0, 1/50, ..., 9
        cols = {1: [], 2: [], 3: [], 6: [], 8: [], 9: []}
        for r in rows:
            for i, D in enumerate((1, 2, 3, 6, 8, 9)):
                cols[D].append(r[1 + i])
        # bit-identical coincidences
        assert cols[2] == cols[1]
        assert cols[6] == cols[3]
        # curves have period D on the 1/50 grid (exact, all six columns)
        for D in (1, 2, 3, 6, 8, 9):
            shift = 50 * D
            assert cols[D][shift:] == cols[D][: len(cols[D]) - shift], D
        # degeneracy multiplicity 4 inflates the D=8 curve beyond D=3
        assert max(map(float, cols[8])) > max(map(float, cols[3]))

    criterion(
        7,
        "figure command: six curves, D2/D6 columns bit-identical to D1/D3, "
        "period-D columns, D8 maximum exceeds D3 maximum",
        body,
        cap=10.0,
    )


def test_criterion_8_symmetry():
    import random

    def body():
        rnd = random.Random(23)
        pairs = [p for ps in D_PAIRS.values() for p in ps][:10]
        assert len(pairs) == 10
        for a, N in pairs:
            spec = eigenphases(Approximant(a, N))
            for _ in range(5):
                den = rnd.choice([2, 3, 4, 6, 9])
                L = Fraction(rnd.randint(0, N * den), den)
                left = number_variance_direct(spec, L)
                right = number_variance_direct(spec, N - L)
                assert left == right, (a, N, L)

    criterion(
        8,
        "window symmetry Sigma^2(L) = Sigma^2(N-L) exactly, property-tested "
        "over random rational L on 10 spectra",
        body,
    )


def test_criterion_9_spectrum_propagator_consistency():
    def body():
        for a, N in POWER_SUM_SET:
            assert N <= 32
            app = Approximant(a, N)
            numeric = trace_powers(build_propagator(app), N)
            analytic = power_sums(eigenphases(app), N)
            assert len(numeric) == len(analytic) == app.D, (a, N)
            for k, (x, y) in enumerate(zip(numeric, analytic), 1):
                assert abs(x - y) < 1e-8 * N, (a, N, k)

    criterion(
        9,
        "eigenvalue power sums match numeric traces within 1e-8 N at the D "
        "lattice points n = kM <= N over the N <= 32 set",
        body,
    )


def test_criterion_10_d_only_dependence():
    def body():
        for D, pairs in D_PAIRS.items():
            specs = [eigenphases(Approximant(a, N)) for a, N in pairs]
            for L in (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(7, 3), Fraction(2 * D) + Fraction(1, 6)):
                values = {number_variance_direct(s, L) for s in specs}
                assert len(values) == 1, (D, L)

    criterion(
        10,
        "exact equality of the direct number variance across different "
        "approximants sharing D, for D in {1,2,3,6,8,9}",
        body,
    )
