"""Exact eigenphase spectra and their arithmetic structure.

For a rational approximant a/N with D = gcd(a, N) and M = N/D, the N
eigenphases (in units of the mean spacing, so they live on [0, N)) are
rational numbers known in closed form.  The whole spectrum is M equispaced
translates of a D-point pattern, so every spectral statistic depends on D
alone.  This script prints small spectra and the D-level blocks.
"""

from fractions import Fraction

from skewtorus import Approximant, eigenphases, reduced_spectrum

for a, N in ((1, 3), (2, 4), (3, 9), (24, 16)):
    app = Approximant(a, N)
    spec = eigenphases(app)
    # copy m of the period puts hist[u] levels at D m + u + rho/6
    vals = ", ".join(
        str(Fraction(6 * (app.D * m + u) + spec.rho, 6))
        for m in range(app.M)
        for u, count in enumerate(spec.hist)
        for _ in range(count)
    )
    print(f"a/N = {a}/{N}  (D={app.D}, M={app.M})")
    print(f"  phases: {vals}")

print("\nD-level blocks: the spectrum of (a, N) = (0, D), levels -eta^2 mod D")
for D in (1, 2, 3, 6, 8, 9):
    block = reduced_spectrum(D)
    levels = tuple(r for r, count in enumerate(block.hist) for _ in range(count))
    multiplicities = {r: count for r, count in enumerate(block.hist) if count}
    print(f"  D={D}: levels {levels}  multiplicities {multiplicities}")

print("\nwhy D=8 is special: one residue repeats 4 times, and that")
print("multiplicity is what inflates its number variance (see demo 04).")
