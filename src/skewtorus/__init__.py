"""Quantized skew translations on the torus: exact spectra and statistics.

The classical map (p, q) -> (p + alpha, q + 2p) mod 1 is quantized on an
N-dimensional Hilbert space whenever the integer a_N is the nearest integer
to N*alpha.  The eigenphases of the resulting unitary propagator are known
in closed form as rationals, so every spectral statistic of interest here
(level-spacing distribution, number variance) can be computed exactly and
cross-checked against a Fourier series over quadratic Gauss sums and against
closed-form expressions.  All three routes are implemented and must agree.

Everything hinges on D = gcd(a_N, N): the spectrum consists of M = N/D
equispaced copies of the D-level block -eta^2 mod D (reduced_spectrum), so
the statistics depend on the approximant (a_N, N) only through D.
"""

from .diophantine import (
    Approximant,
    IrrationalAlpha,
    PrecisionExhaustedError,
    approximants_with_gcd,
    bracket,
    certify_approximant,
    convergents,
    golden,
    nearest_approximant,
    parse_alpha,
    sqrt2,
)
from .spectrum import (
    Spectrum,
    eigenphases,
    power_sums,
    reduced_spectrum,
    spectrum_to_csv,
)
from .propagator import (
    Propagator,
    build_propagator,
    trace_powers,
    unitarity_defect,
)
from .statistics import (
    DivergenceWitness,
    SpacingDistribution,
    UnsupportedClosedFormError,
    counting_function,
    curve_to_csv,
    divergence_witness,
    format_law,
    gauss_sum,
    number_variance_closed,
    number_variance_direct,
    number_variance_fourier,
    spacing_distribution_closed,
    spacing_to_csv,
    spacings,
)
from .classical import TorusPoint, orbit, orbit_to_csv, step, weyl_sum

__all__ = [
    "Approximant",
    "DivergenceWitness",
    "IrrationalAlpha",
    "PrecisionExhaustedError",
    "Propagator",
    "SpacingDistribution",
    "Spectrum",
    "TorusPoint",
    "UnsupportedClosedFormError",
    "approximants_with_gcd",
    "bracket",
    "build_propagator",
    "certify_approximant",
    "convergents",
    "counting_function",
    "curve_to_csv",
    "divergence_witness",
    "eigenphases",
    "format_law",
    "gauss_sum",
    "golden",
    "nearest_approximant",
    "number_variance_closed",
    "number_variance_direct",
    "number_variance_fourier",
    "orbit",
    "orbit_to_csv",
    "parse_alpha",
    "power_sums",
    "reduced_spectrum",
    "spacing_distribution_closed",
    "spacing_to_csv",
    "spacings",
    "spectrum_to_csv",
    "sqrt2",
    "step",
    "trace_powers",
    "unitarity_defect",
    "weyl_sum",
]
