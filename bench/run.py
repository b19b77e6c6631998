"""Benchmark of the skewtorus command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run it from the root of a source checkout; it uses src/ directly and builds
nothing.  Workloads (see workloads.py): verify-ladder, exact-sweep, cli-mix.

--trace 0 times the CLI end to end.  One closed-loop client runs each command
as a subprocess and waits for it before starting the next, so on a 2-core box
the child has one core and the harness idles on the other.  Children run with
one BLAS thread (BLAS_ENV), so cpu_s measures the program, not a spinning
thread pool.  A run makes round(S / PASS_S) whole passes over the workload's
commands, and at least enough for MIN_LATENCIES command latencies; CPU time
and peak RSS come from os.wait4 on each child.

--trace 1 replays one pass in-process through skewtorus.cli.main(argv), each
command once untraced and once with spans around every layer call (see
tracer.py), and times `import skewtorus.cli` with python -X importtime.

The seed picks, per slot, one of several argument variants of equal cost and
shuffles the command order of each pass.  Every output is checked after
timing (gate.py); a wrong output or exit code counts as a failed command.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it is {"report": ...}: environment, child
settings, the tail percentile used and its sample count, fail_frac and the
failing commands.  --quick runs tiny inputs in a few seconds, for the
benchmark's own test (test_bench.py).
"""

from __future__ import annotations

import os

# One BLAS thread for the children and for the in-process replay; set before
# anything in this process imports numpy.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gate import check  # noqa: E402
from workloads import PASS_S, QUICK, WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFS = HERE / "refs.json"

CLI = "import sys; from skewtorus.cli import main; sys.exit(main())"
IMPORT = "import skewtorus.cli"
CHILD_ENV = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
SETUP_SAMPLES = 6
IMPORT_SAMPLES = 3
# The tail percentile (10 samples beyond it) then has at least 8 below it.
MIN_LATENCIES = 18

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER = (
    "propagator.build.busy_s",
    "propagator.build.bytes",
    "propagator.unitarity.busy_s",
    "propagator.traces.busy_s",
    "propagator.traces.matmuls",
    "propagator.traces.flops",
    "propagator.trace_analytic.calls",
    "spectrum.power_sums.busy_s",
    "spectrum.power_sums.terms",
    "spectrum.eigenphases.busy_s",
    "spectrum.eigenphases.levels",
    "spectrum.values.builds",
    "statistics.direct.busy_s",
    "statistics.direct.calls",
    "statistics.direct.distinct_ratio",
    "statistics.counting_function.calls",
    "statistics.spacings.busy_s",
    "statistics.fourier.busy_s",
    "statistics.fourier.terms",
    "statistics.gauss_sum.calls",
    "statistics.gauss_sum.distinct_ratio",
    "statistics.closed.busy_s",
    "diophantine.busy_s",
    "classical.busy_s",
    "classical.steps",
    "cli.self_s",
    "cli.out_bytes",
    "import.total_s",
    "import.scipy_s",
    "import.numpy_s",
    "import.skewtorus_self_s",
    "trace.overhead_frac",
)


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("ratio", "frac")):
        return "ratio"
    if name.endswith("flops"):
        return "flop"
    return "count"


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(args, stdout_path, stderr_path):
    """Run the interpreter with args to completion; its own time, CPU and RSS."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, *args],
            CHILD_ENV,
            file_actions=[
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ],
        )
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
    return Child(
        os.waitstatus_to_exitcode(status),
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
    )


def setup_time():
    child = spawn(["-c", IMPORT], WORK / "setup.out", WORK / "setup.err")
    if child.code != 0:
        raise RuntimeError("import skewtorus.cli failed: " + (WORK / "setup.err").read_text())
    return child.wall_s


def tail(latencies):
    """Highest percentile with at least 10 samples beyond it (max if n <= 10).

    The percentile is estimated with Harrell and Davis's weighted sum of all
    order statistics rather than read off one of them: on a shared machine a
    command's time can jump between a fast and a slow mode, and a single
    order statistic of a few dozen samples then jumps with it from run to run.
    """
    from scipy.special import betainc

    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    q = (n - 10) / n
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return float(sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))), 100 * q, n


def end_to_end(chosen, rng, passes, setup_samples, refs):
    """Time whole passes of subprocess commands; (metrics, outcomes, report)."""
    setup_time()  # warm-up: byte-compile and load the libraries once
    setups, walls, cpus, latencies, rss, outcomes = [], [], [], [], [], []
    by_command = {}
    for _ in range(passes):
        setups += [setup_time() for _ in range(-(-setup_samples // passes))]
        order = rng.sample(chosen, len(chosen))
        children = []
        start = time.perf_counter()
        for i, (_, argv) in enumerate(order):
            children.append(spawn(["-c", CLI, *argv], WORK / f"{i}.out", WORK / f"{i}.err"))
        walls.append(time.perf_counter() - start)
        cpus.append(sum(c.cpu_s for c in children))
        latencies += [c.wall_s for c in children]
        rss += [c.rss_mb for c in children]
        for i, ((kind, argv), child) in enumerate(zip(order, children)):
            out = (WORK / f"{i}.out").read_bytes()
            outcomes.append((argv, check(kind, argv, child.code, out, refs)))
            by_command.setdefault(" ".join(argv), []).append(child.wall_s)
    tail_s, tail_pct, n = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cmd_p50_s": statistics.median(latencies),
        "cmd_tail_s": tail_s,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": max(rss),
    }
    report = {
        "tail_percentile": tail_pct,
        "latency_samples": n,
        "pass_wall_s": walls,
        "setup_samples_s": setups,
        "command_wall_s": by_command,
    }
    return metrics, outcomes, report


def import_groups(lines):
    """Seconds per group from one python -X importtime log.

    total: importing skewtorus.cli; numpy, scipy: cumulative time of the
    outermost numpy / scipy imports, so scipy includes what it pulls in;
    skewtorus_self: self time of the package's own modules.
    """
    groups = dict.fromkeys(("total", "scipy", "numpy", "skewtorus_self"), 0.0)
    ancestors = []
    # Lines are in post-order with depth shown by indentation; reversed, each
    # line's ancestors are the last lines seen at smaller depths.
    for line in reversed(lines):
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_s, cumulative_s = int(fields[0]) / 1e6, int(fields[1]) / 1e6
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        top = name.strip().split(".")[0]
        del ancestors[depth:]
        if top == "skewtorus":
            groups["skewtorus_self"] += self_s
            if depth == 0:
                groups["total"] += cumulative_s
        elif top in ("numpy", "scipy") and not {"numpy", "scipy"} & set(ancestors):
            groups[top] += cumulative_s
        ancestors.append(top)
    return groups


def import_times():
    """Median seconds per import group over IMPORT_SAMPLES runs."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        err = WORK / "importtime.err"
        if spawn(["-X", "importtime", "-c", IMPORT], WORK / "importtime.out", err).code:
            raise RuntimeError("import skewtorus.cli failed: " + err.read_text())
        samples.append(import_groups(err.read_text().splitlines()))
    return {f"import.{k}_s": statistics.median(s[k] for s in samples) for k in samples[0]}


def traced(chosen, rng, refs):
    """One in-process pass, each command untraced and traced; (metrics, outcomes, report)."""
    from tracer import BUSY, Tracer, call_cli, installed, layer_metrics

    metrics = import_times()
    sys.path.insert(0, str(SRC))
    from skewtorus.cli import main

    tracer = Tracer()
    plain_s = traced_s = 0.0
    outcomes = []
    for i, (kind, argv) in enumerate(rng.sample(chosen, len(chosen))):
        # Alternate which run goes first, so warm caches favour neither side.
        for with_trace in (i % 2 == 0, i % 2 != 0):
            if with_trace:
                with installed(tracer):
                    start = time.perf_counter()
                    code, out = tracer.run(main, argv)
                    traced_s += time.perf_counter() - start
            else:
                start = time.perf_counter()
                code, out = call_cli(main, argv)
                plain_s += time.perf_counter() - start
            outcomes.append((argv, check(kind, argv, code, out, refs)))
    metrics.update(layer_metrics(tracer, plain_s, traced_s))
    library = sum(metrics[f"{name}.busy_s"] for name in BUSY)
    report = {
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "library_busy_s": library,
        "busy_share": {
            name: metrics[f"{name}.busy_s"] / library if library else 0.0 for name in BUSY
        },
        "spans": len(tracer.spans),
    }
    return metrics, outcomes, report


def environment():
    from importlib import metadata

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas,
        "blas_threads": BLAS_ENV,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "skewtorus" / "cli.py").is_file() or not REFS.is_file():
        print(f"error: needs {SRC / 'skewtorus'} and {REFS}", file=sys.stderr)
        return 2
    refs = json.loads(REFS.read_text())
    slots = QUICK[args.workload] if args.quick else WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    chosen = [(slot.kind, rng.choice(slot.variants)) for slot in slots]

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        if args.trace:
            metrics, outcomes, report = traced(chosen, rng, refs)
            units = {name: layer_unit(name) for name in PER_LAYER}
        else:
            passes = 1 if args.quick else max(
                round(args.seconds / PASS_S[args.workload]), -(-MIN_LATENCIES // len(slots))
            )
            setup_samples = 1 if args.quick else SETUP_SAMPLES
            metrics, outcomes, report = end_to_end(chosen, rng, passes, setup_samples, refs)
            report["passes"] = passes
            units = END_TO_END
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    failures = [(" ".join(argv), reason) for argv, reason in outcomes if reason]
    attempted = len(outcomes)
    if not args.trace:
        metrics["ok_frac"] = 1 - len(failures) / attempted
    report.update(
        workload=args.workload,
        seed=args.seed,
        quick=args.quick,
        loop="closed, one client, one command at a time",
        commands=[" ".join(argv) for _, argv in chosen],
        fail_frac=len(failures) / attempted,
        failures=failures,
        child_env={**BLAS_ENV, "PYTHONHASHSEED": "0"},
        env=environment(),
    )
    print(json.dumps({"report": report}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
