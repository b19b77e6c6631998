"""In-process replay of CLI commands with spans around every layer call.

The spans come from wrapping, from here, the names through which the CLI
(and the statistics module, for the calls it makes on the CLI's behalf)
reaches the library layers, e.g. skewtorus.cli.trace_powers.  Nothing in the
package is edited; the wrappers are removed when the replay ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import time
from collections import Counter, defaultdict
from fractions import Fraction

# span name -> functions reached through the cli and statistics namespaces
SPANS = {
    "diophantine": ("parse_alpha", "nearest_approximant", "approximants_with_gcd", "bracket"),
    "propagator.build": ("build_propagator",),
    "propagator.unitarity": ("unitarity_defect",),
    "propagator.traces": ("trace_powers",),
    "propagator.trace_analytic": ("trace_power_analytic",),
    "spectrum.eigenphases": ("eigenphases",),
    "spectrum.power_sums": ("power_sums",),
    "statistics.direct": ("number_variance_direct",),
    "statistics.fourier": ("number_variance_fourier",),
    "statistics.closed": ("number_variance_closed", "spacing_distribution_closed"),
    "statistics.spacings": ("spacings",),
    "statistics.witness": ("divergence_witness",),
    "classical": ("orbit",),
}

# Busy times reported per layer; their sum is the library busy time.
BUSY = (
    "propagator.build",
    "propagator.unitarity",
    "propagator.traces",
    "spectrum.power_sums",
    "spectrum.eigenphases",
    "statistics.direct",
    "statistics.spacings",
    "statistics.fourier",
    "statistics.closed",
    "diophantine",
    "classical",
)


# Spans whose work counts are computed from the call's arguments.
_ACCOUNTED = (
    "propagator.build",
    "propagator.traces",
    "spectrum.power_sums",
    "spectrum.eigenphases",
    "statistics.direct",
    "statistics.fourier",
    "classical",
)


class Tracer:
    """Spans (name, start, end, parent index, command index) and counters."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.command = -1
        self.counts = Counter()
        self.keys = defaultdict(set)

    def _account(self, name, args):
        """Work counts computed from a call's bound arguments."""
        c = self.counts
        if name == "propagator.build":
            c["propagator.build.bytes"] += 16 * args["app"].N ** 2
        elif name == "propagator.traces":
            n, N = args["n_max"], args["U"].N
            c["propagator.traces.matmuls"] += n
            c["propagator.traces.flops"] += 8 * N**3 * n  # complex N x N product
        elif name == "spectrum.power_sums":
            c["spectrum.power_sums.terms"] += args["spec"].N * args["n_max"]
        elif name == "spectrum.eigenphases":
            c["spectrum.eigenphases.levels"] += args["app"].N
        elif name == "statistics.direct":
            app = args["spec"].app
            self.keys[name].add((app.a, app.N, Fraction(args["L"])))
        elif name == "statistics.fourier":
            c["statistics.fourier.terms"] += args["K"]
        elif name == "classical":
            c["classical.steps"] += args["T"] - 1

    def wrap(self, name, fn):
        signature = inspect.signature(fn) if name in _ACCOUNTED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._account(name, bound.arguments)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.command)

        return traced

    def count(self, name, fn, key=None):
        @functools.wraps(fn)
        def counted(*args):
            self.counts[name + ".calls"] += 1
            if key is not None:
                self.keys[name].add(key(*args))
            return fn(*args)

        return counted

    def run(self, main, argv):
        """One traced CLI command; returns (exit code, stdout bytes)."""
        self.command += 1
        code, out = call_cli(self.wrap("cli", main), argv)
        self.counts["cli.out_bytes"] += len(out)
        return code, out

    def self_times(self):
        """Per span name, the summed span time not covered by child spans."""
        child = Counter()
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def distinct_ratio(self, name):
        calls = self.counts[name + ".calls"]
        return len(self.keys[name]) / calls if calls else 0.0


def call_cli(main, argv):
    """Run main(argv) with stdout and stderr captured; (exit code, stdout bytes)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue().encode()


@contextlib.contextmanager
def installed(tracer):
    """Wrap the layer entry points for the duration of the block."""
    from skewtorus import cli, spectrum, statistics

    patches = []
    for name, funcs in SPANS.items():
        for func in funcs:
            for module in (cli, statistics):
                if hasattr(module, func):
                    patches.append((module, func, tracer.wrap(name, getattr(module, func))))
    patches.append(
        (
            statistics,
            "counting_function",
            tracer.count("statistics.counting_function", statistics.counting_function),
        )
    )
    patches.append(
        (
            statistics,
            "gauss_sum",
            tracer.count("statistics.gauss_sum", statistics.gauss_sum, key=lambda D, k: (D, k)),
        )
    )
    values = spectrum.Spectrum.__dict__["values"]
    patches.append(
        (
            spectrum.Spectrum,
            "values",
            property(tracer.count("spectrum.values", values.fget)),
        )
    )
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, old in saved:
            setattr(owner, attr, old)


def layer_metrics(tracer, untraced_s, traced_s):
    """Per-layer metric values of one traced pass."""
    busy = tracer.self_times()
    c = tracer.counts
    m = {f"{name}.busy_s": busy[name] for name in BUSY}
    m.update(
        {
            "propagator.build.bytes": c["propagator.build.bytes"],
            "propagator.traces.matmuls": c["propagator.traces.matmuls"],
            "propagator.traces.flops": c["propagator.traces.flops"],
            "propagator.trace_analytic.calls": c["propagator.trace_analytic.calls"],
            "spectrum.power_sums.terms": c["spectrum.power_sums.terms"],
            "spectrum.eigenphases.levels": c["spectrum.eigenphases.levels"],
            "spectrum.values.builds": c["spectrum.values.calls"],
            "statistics.direct.calls": c["statistics.direct.calls"],
            "statistics.direct.distinct_ratio": tracer.distinct_ratio("statistics.direct"),
            "statistics.counting_function.calls": c["statistics.counting_function.calls"],
            "statistics.fourier.terms": c["statistics.fourier.terms"],
            "statistics.gauss_sum.calls": c["statistics.gauss_sum.calls"],
            "statistics.gauss_sum.distinct_ratio": tracer.distinct_ratio("statistics.gauss_sum"),
            "classical.steps": c["classical.steps"],
            "cli.self_s": busy["cli"],
            "cli.out_bytes": c["cli.out_bytes"],
            "trace.overhead_frac": traced_s / untraced_s - 1,
        }
    )
    return m
