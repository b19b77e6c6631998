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

_LAYERS below is the one map from a public name to the layer that defines
it: the package's lazy exports and the names skewtorus.cli binds for its
commands both read it.
"""

import importlib

# layer -> the public names it defines: its classes and the names cli.py or a
# demo uses; the rest is reached through the layer's module.  A name's layer is
# imported on first access (PEP 562), so `import skewtorus.cli` compiles no
# layer it does not run.
_LAYERS = {
    "diophantine": (
        "Approximant",
        "IrrationalAlpha",
        "PrecisionExhaustedError",
        "approximants_with_gcd",
        "bracket",
        "convergents",
        "golden",
        "nearest_approximant",
        "parse_alpha",
        "sqrt2",
    ),
    "spectrum": (
        "Spectrum",
        "cycle_products",
        "eigenphases",
        "power_sums",
        "reduced_spectrum",
        "spectrum_to_csv",
        "spectrum_to_json",
    ),
    "propagator": (
        "Propagator",
        "build_propagator",
        "cycle_tolerance",
        "trace_powers",
        "unitarity_defect",
    ),
    "statistics": (
        "DivergenceWitness",
        "SpacingDistribution",
        "UnsupportedClosedFormError",
        "divergence_witness",
        "format_law",
        "number_variance_closed",
        "number_variance_direct",
        "number_variance_fourier",
        "spacings",
    ),
    "classical": ("TorusPoint", "orbit"),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted(_LAYER_OF)


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{layer}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
