"""Cross-checks between the unitary propagator and the exact spectrum.

The N x N propagator is built from scratch and taken to the momentum basis
by two FFTs, where it is a weighted permutation m -> m + a (mod N): D
cycles of length M.  The weights w_m on that support and the remainder E
off it are measured from the matrix, and three checks follow: a bound on
the unitarity defect from |w_m| and ||E||_F, numeric traces of powers (the
power sums of the M-th roots of the D cycle products of the weights)
against the closed-form trace (exactly zero unless M divides n), and
eigenvalue power sums from the exact spectrum against the same traces.
Agreement here pins down the explicit eigenphase formula numerically.
"""

from skewtorus import (
    Approximant,
    build_propagator,
    eigenphases,
    power_sums,
    trace_power_analytic,
    trace_powers,
    unitarity_defect,
)

for a, N in ((8, 5), (3, 9), (24, 15), (24, 16)):
    app = Approximant(a, N)
    U = build_propagator(app)
    numeric = trace_powers(U, 2 * N)
    worst = max(
        abs(numeric[n - 1] - trace_power_analytic(app, n)) for n in range(1, 2 * N + 1)
    )
    psums = power_sums(eigenphases(app), N)
    worst_ps = max(abs(numeric[n - 1] - psums[n - 1]) for n in range(1, N + 1))
    print(f"a/N = {a}/{N} (D={app.D} cycles of length M={app.M}):")
    print(f"  off-support ||E||_F     {U.momentum[1]:.2e}")
    print(f"  unitarity bound         {unitarity_defect(U):.2e}")
    print(f"  trace formula, n<=2N    {worst:.2e}")
    print(f"  power sums vs traces    {worst_ps:.2e}")

app = Approximant(3, 9)
print("\ntraces vanish off the M-lattice (a/N = 3/9, M = 3):")
for n in range(1, 7):
    t = trace_power_analytic(app, n)
    print(f"  n={n}:  Tr U^n = {t}" + ("   (exact zero)" if t == 0 else ""))
