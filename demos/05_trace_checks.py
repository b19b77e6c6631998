"""Cross-checks between the unitary propagator and the exact spectrum.

The propagator is taken to the momentum basis straight from its defining
sum, one inverse FFT per row, where it is a weighted permutation
m -> m + a (mod N): D cycles of length M.  The weights w_m on that support
and the remainder E off it are measured from the matrix, and two checks
follow: a bound on the unitarity defect from |w_m| and ||E||_F, and
numeric traces of powers (the power sums of the M-th roots of the D cycle
products of the weights) against the paper's trace formula, which is the
eigenvalue power sums of the exact spectrum (exactly zero unless M divides
n).  Agreement here pins down the explicit eigenphase formula numerically.
"""

from skewtorus import (
    Approximant,
    build_propagator,
    eigenphases,
    power_sums,
    trace_powers,
    unitarity_defect,
)

for a, N in ((8, 5), (3, 9), (24, 15), (24, 16)):
    app = Approximant(a, N)
    U = build_propagator(app)
    pairs = zip(trace_powers(U, 2 * N), power_sums(eigenphases(app), 2 * N))
    worst = max(abs(x - y) for x, y in pairs)
    print(f"a/N = {a}/{N} (D={app.D} cycles of length M={app.M}):")
    print(f"  off-support ||E||_F     {U.momentum[1]:.2e}")
    print(f"  unitarity bound         {unitarity_defect(U):.2e}")
    print(f"  trace formula, n<=2N    {worst:.2e}")

print("\ntraces vanish off the M-lattice (a/N = 3/9, M = 3):")
for n, t in enumerate(power_sums(eigenphases(Approximant(3, 9)), 6), 1):
    print(f"  n={n}:  Tr U^n = {t}" + ("   (exact zero)" if t == 0 else ""))
