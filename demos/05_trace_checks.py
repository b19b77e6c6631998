"""Cross-checks between the unitary propagator and the exact spectrum.

The propagator is a diagonal times a circulant, so in the momentum basis
it is a weighted permutation m -> m + a (mod N): D cycles of length M,
with the circulant's eigenvalues w_m as weights, one FFT of its first
column.  Three checks follow: a bound on the unitarity defect from |w_m|
and a stated model e of their FFT rounding; each of the D cycle products
of the weights against e(t_r/6D), the level of base level eta = r in the
exact spectrum, within delta(N, M) from the same model; and numeric traces
of powers (the power sums of the M-th roots of the cycle products)
against the paper's trace formula, which is the eigenvalue power sums of
the exact spectrum.  Both vanish unless M divides n, so both return the 2D
traces at n = kM <= 2N.  Agreement here pins down the explicit eigenphase
formula numerically, cycle by cycle.
"""

import cmath

from skewtorus import (
    Approximant,
    build_propagator,
    cycle_products,
    cycle_tolerance,
    eigenphases,
    power_sums,
    trace_powers,
    unitarity_defect,
)

for a, N in ((8, 5), (3, 9), (24, 15), (24, 16)):
    app = Approximant(a, N)
    U = build_propagator(app)
    pairs = zip(trace_powers(U, 2 * N), power_sums(eigenphases(app), 2 * N), strict=True)
    worst = max(abs(x - y) for x, y in pairs)
    cycles = max(abs(x - y) for x, y in zip(U.cycles, cycle_products(app), strict=True))
    print(f"a/N = {a}/{N} (D={app.D} cycles of length M={app.M}):")
    print(f"  weight rounding model e {U.e:.2e}")
    print(f"  unitarity bound         {unitarity_defect(U):.2e}")
    print(f"  cycle products          {cycles:.2e}  (delta {cycle_tolerance(N, app.M):.2e})")
    print(f"  trace formula, n=kM<=2N {worst:.2e}")

# the N levels by hand, phi = q + rho/6 with hist[q mod D] levels at each q,
# and their power sums e(n phi / N) against the lattice list
print("\ntraces vanish off the M-lattice (a/N = 3/9, D = M = 3):")
spec = eigenphases(Approximant(3, 9))
levels = [q + spec.rho / 6 for q in range(9) for _ in range(spec.hist[q % 3])]
lattice = power_sums(spec, 6)
for n in range(1, 7):
    full = sum(cmath.exp(2j * cmath.pi * n * phi / 9) for phi in levels)
    if n % 3:
        print(f"  n={n}:  |sum over levels| = {abs(full):.1e}, off the lattice")
    else:
        print(f"  n={n}:  sum over levels {full:.12f}, trace formula {lattice[n // 3 - 1]:.12f}")
