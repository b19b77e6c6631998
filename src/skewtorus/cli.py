"""Command-line surface: approximants, spectra, statistics, figure data.

Commands emit CSV (JSON with --format json where offered; witness writes
text, verify JSON) and are deterministic: identical arguments produce
byte-identical output.  Floating values always appear next to a method tag,
and series values carry their truncation bound, so nothing approximate goes
unlabeled.

Every CSV and JSON table but spectrum's comes from one (fields, rows) form.
_table writes the CSV: an optional "# comment" line, the header, and one
line per row, each cell through %s (an int or str as itself, a Fraction as
p/q, a float as its repr) and a None cell as an empty cell, TABLE_BLOCK
lines to a write.  The JSON is the list of records dict(zip(fields, row))
(_records), a None cell as null.
spectrum writes its own rows (module spectrum): it streams N rows made in
blocks from one period, and its JSON is a template of json.dumps's layout,
because at N = 10^6 the table cannot be built as N records.  verify's JSON
report and witness's text are not tables.

Exit codes.  A refused input's code comes from its error type: main returns
the exit_code of the ValueError a command raised (GridError 4,
statistics.UnsupportedClosedFormError 3), or 2 for one without it.  A failed
check prints one FAIL line per check through _failed and exits 1.
    0  success
    1  a verification or spot check failed (the failing check is named)
    2  precision exhausted (continued-fraction prefix too short), bad input,
       or the output could not be written
    3  no closed form exists for the requested D
    4  invalid L grid
  141  the reader closed stdout before the output was complete, as `| head`
       does (128 + SIGPIPE, the status a shell shows for SIGPIPE)

The L grid syntax is "min:max:steps" (steps >= 2, max > min >= 0), or a
single rational value such as "1", "0.25", or "7/3".  L is written out as a
float, so a value beyond the float range is an invalid grid.

Six sizes taken from the command line are capped, and checked before
anything is built, so an oversized value is refused rather than ending in a
MemoryError or running without end: an L grid has at most MAX_L_STEPS =
100000 steps (exit 4); orbit --T at most MAX_ORBIT_T = 1000000 points, the
series order --K of numvar --method fourier and figure1 at most
MAX_FOURIER_K = 1000000 terms, a spectrum's period D = gcd(a, N) at most
spectrum.MAX_PERIOD = 2000000 levels, the spectrum command's N at most
MAX_SPECTRUM_N = 2^50 rows, and verify's N at most MAX_VERIFY_N =
16384 (each exit 2).  The series also refuses a D whose 2 D^2 is past the
float range, D above about 9.48e153 (exit 2), where its float coefficients
would overflow.
"""

import argparse
import contextlib
import math
import os
import sys
from fractions import Fraction
from itertools import islice, zip_longest

import skewtorus

# Each command first calls _use(layer, ...), which binds here every name that
# the package's table (skewtorus._LAYERS, the one name-to-layer map) lists for
# those layers, through the package's lazy __getattr__, so a command pays only
# for the layers it runs.  The names are bound into this module rather than
# imported inside each command because cli.<name> is the seam a test or the
# benchmark's tracer patches: a local `from .x import y` would bypass a
# patched cli.y.  setdefault keeps a patch made before the command, and the
# module __getattr__ below makes cli.<name> readable (and so patchable) before
# any command has run.
def _use(*layers):
    """Bind the layers' names here from the package, keeping any patched name."""
    namespace = globals()
    for layer in layers:
        for name in skewtorus._LAYERS[layer]:
            namespace.setdefault(name, getattr(skewtorus, name))


def __getattr__(name):
    layer = skewtorus._LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _use(layer)
    return globals()[name]


FIGURE_DS = (1, 2, 3, 6, 8, 9)
# The L of figure1's spot checks (series against direct, D = 8 and 9) and of
# verify's number-variance checks (direct against the block and the series).
FIGURE_SPOT_LS = (Fraction(1, 2), Fraction(1), Fraction(4))
VERIFY_LS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(7, 3))
# Series order of verify's fourier check; its tail bound is the tolerance.
VERIFY_FOURIER_K = 2000
# Series order of numvar --method fourier and figure1 without --K.
DEFAULT_FOURIER_K = 10_000
# Family size of approx --D and witness without --count.
DEFAULT_COUNT = 3
# Size caps (module docstring); each value takes a few seconds and well under
# 200 MB: numvar --method closed over 100000 steps, orbit over 10^6 points,
# the series over 10^6 terms (its phase table holds up to K + 1 floats).
MAX_L_STEPS = 100_000
MAX_ORBIT_T = 1_000_000
MAX_FOURIER_K = 1_000_000
# spectrum's per-binade decimal tails hold for its rows' floor(phi) < N <= 2^50
MAX_SPECTRUM_N = 1 << 50
# verify's N.  The propagator's own work is O(N log N), and each side of
# the trace formula makes at most spectrum.PYTHON_OPS products, so the
# cap stands for the trace formula's tolerance: cycle-products carries the
# traces that verify does not compute only while 2 N^2 (c log2 N + sqrt 5) u
# stays below 1e-9 N, up to about N = 4e4 (cmd_verify).  verify --a 0
# --N 16384 takes about 0.26 s at 34 MB peak RSS (2-vCPU VM, one BLAS thread).
MAX_VERIFY_N = 16384
# Lines per write of a _table CSV: a few hundred KB of text at most.
TABLE_BLOCK = 4096


class GridError(ValueError):
    """The L grid specification is malformed or out of range."""

    exit_code = 4


def _parse_lgrid(text):
    """Parse "min:max:steps" into a rational grid, or a single value."""
    try:
        if ":" in text:
            smin, smax, ssteps = text.split(":")
            lo, hi, steps = Fraction(smin), Fraction(smax), int(ssteps)
        else:
            lo, hi, steps = Fraction(text), None, None
    except (ValueError, ZeroDivisionError, TypeError):
        raise GridError(f"cannot parse L grid {text!r}") from None
    try:
        # every L is written as a float, and the largest is the last one
        float(lo if hi is None else hi)
    except OverflowError:
        raise GridError(f"L grid {text!r} exceeds the float range") from None
    if hi is None:
        if lo < 0:
            raise GridError(f"L must be >= 0, got {text!r}")
        return [lo]
    if steps < 2 or lo < 0 or hi <= lo:
        raise GridError(f"invalid L grid {text!r}: need max > min >= 0, steps >= 2")
    if steps > MAX_L_STEPS:
        raise GridError(f"L grid {text!r} has more than {MAX_L_STEPS} steps")
    span = hi - lo
    return [lo + span * i / (steps - 1) for i in range(steps)]


def _series_order(K):
    """--K, or the default order when it is not given, within 1..MAX_FOURIER_K."""
    if K is None:
        return DEFAULT_FOURIER_K
    if not 1 <= K <= MAX_FOURIER_K:
        raise ValueError(f"--K {K} is outside 1..{MAX_FOURIER_K}")
    return K


def _series_gaps(D, direct, K):
    """|exact - fourier| at each (L, exact) of direct, and the order-K series' bound at D."""
    gaps = []
    for L, exact in direct:
        value, bound = number_variance_fourier(D, L, K)
        gaps.append(abs(float(exact) - value))
    return gaps, bound


def _rank(residual):
    """A residual's rank among residuals: a NaN above every number."""
    return math.isnan(residual), residual


def _largest(residuals):
    """The largest residual (a NaN above all) as a float; None (null) if not finite or empty."""
    worst = float(max(residuals, key=_rank, default=math.nan))
    return worst if math.isfinite(worst) else None


def _failed(lines):
    """Print each line as "FAIL: line" on stderr: exit 1 if there are any, else 0."""
    for line in lines:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if lines else 0


def _json(payload):
    """A JSON writer of payload(); payload() and json load only when it runs.

    The JSON is strict (RFC 8259): a NaN or an infinity raises ValueError
    rather than being written as the bare token NaN or Infinity.
    """

    def write(out):
        import json

        out.write(json.dumps(payload(), indent=2, allow_nan=False) + "\n")

    return write


def _table(fields, rows, comment=None):
    """The CSV writer of a table of row tuples; rows may be a generator.

    The lines go out TABLE_BLOCK at a time, so an unbuffered stdout
    (python -u, PYTHONUNBUFFERED) makes one write call per block, not one
    per row.
    """
    template = ",".join(["%s"] * len(fields)) + "\n"

    def write(out):
        if comment is not None:
            out.write(f"# {comment}\n")
        out.write(",".join(fields) + "\n")
        lines = (
            template
            % (tuple("" if cell is None else cell for cell in row) if None in row else row)
            for row in rows
        )
        for block in iter(lambda: "".join(islice(lines, TABLE_BLOCK)), ""):
            out.write(block)

    return write


def _records(fields, rows):
    """The same table as JSON records, one dict per row."""
    return [dict(zip(fields, row)) for row in rows]


def _emit(args, write=None, write_json=None):
    """Write to --out or stdout through write(out) for CSV or write_json(out).

    write_json runs only for --format json or a command without a write, so
    a large CSV output never builds JSON rows.
    """
    as_json = write is None or getattr(args, "format", "csv") == "json"
    try:
        target = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out!r}: {exc.strerror}") from None
    with target as out:
        (write_json if as_json else write)(out)


def _approximant(args):
    """Resolve (--a, --N) directly or round N*alpha for (--alpha, --N)."""
    if args.a is not None:
        if args.N is None:
            raise ValueError("--a requires --N")
        return Approximant(args.a, args.N)
    if args.N is None:
        raise ValueError("select a spectrum with --N (plus --a or --alpha)")
    return nearest_approximant(parse_alpha(args.alpha), args.N)


def cmd_approx(args):
    _use("diophantine")
    alpha = parse_alpha(args.alpha)
    if (args.N is None) == (args.D is None):
        raise ValueError("choose exactly one of --N (single) or --D (family)")
    if args.N is not None:
        if args.count is not None:
            raise ValueError("--count sizes a --D family, not a single --N")
        apps = [nearest_approximant(alpha, args.N)]
    else:
        count = DEFAULT_COUNT if args.count is None else args.count
        apps = approximants_with_gcd(alpha, args.D, count)
    fields = ("a", "N", "D", "M")
    rows = [(x.a, x.N, x.D, x.M) for x in apps]
    _emit(
        args,
        _table(fields[:3], [row[:3] for row in rows]),
        _json(lambda: _records(fields, rows)),
    )
    return 0


def cmd_spectrum(args):
    _use("diophantine", "spectrum")
    app = _approximant(args)
    if app.N > MAX_SPECTRUM_N:
        raise ValueError(f"--N {app.N} exceeds the cap of {MAX_SPECTRUM_N} rows")
    spec = eigenphases(app)
    _emit(
        args,
        lambda out: spectrum_to_csv(spec, out),
        lambda out: spectrum_to_json(spec, out),
    )
    return 0


def cmd_spacing(args):
    _use("diophantine", "spectrum", "statistics")
    dist = spacings(eigenphases(_approximant(args)))
    _emit(
        args,
        _table(
            ("s_numerator", "s_denominator", "weight"),
            [(s.numerator, s.denominator, w) for s, w in dist.atoms],
        ),
        _json(
            lambda: _records(("s", "weight"), [(str(s), str(w)) for s, w in dist.atoms])
        ),
    )
    return 0


def cmd_numvar(args):
    Ls = _parse_lgrid(args.L)
    if args.K is not None and args.method != "fourier":
        raise ValueError(f"--K is for --method fourier, not {args.method}")
    _use("diophantine", "spectrum", "statistics")
    rows = []
    if args.method == "direct":
        # --D alone selects the D-level block, whose statistics are those of
        # every (a, N) with gcd(a, N) = D
        if args.D is not None and args.a is None and args.N is None:
            spec = reduced_spectrum(args.D)
        else:
            app = _approximant(args)
            if args.D is not None and args.D != app.D:
                raise ValueError(f"--D {args.D} disagrees with gcd(a, N) = {app.D}")
            spec = eigenphases(app)
        D = spec.app.D
        for L in Ls:
            rows.append((L, number_variance_direct(spec, L), "direct-exact", D, None))
    else:
        if args.a is not None or args.N is not None:
            raise ValueError(f"--method {args.method} takes --D, not --a or --N")
        if args.D is None:
            raise ValueError(f"--method {args.method} requires --D")
        D = args.D
        if args.method == "closed":
            for L in Ls:
                rows.append((L, number_variance_closed(D, L), "closed-form", D, None))
        else:
            K = _series_order(args.K)
            for L in Ls:
                v, b = number_variance_fourier(D, L, K)
                rows.append((L, v, f"fourier(K={K})", D, b))
    if args.poisson:
        for L in Ls:
            rows.append((L, L, "poisson", D, None))
    fields = ("L", "value", "method", "D", "truncation_bound")
    rows = [(float(L), float(v), m, d, b) for L, v, m, d, b in rows]
    _emit(args, _table(fields, rows), _json(lambda: _records(fields, rows)))
    return 0


def cmd_figure1(args):
    """Six number-variance curves on one L grid, one column per D.

    Every column is the exact direct Sigma^2 of the D-level block.  For
    D = 8, 9 the Gauss-sum series is spot-checked against it at
    FIGURE_SPOT_LS, within the truncation bound recorded in the header.
    """
    Ls = _parse_lgrid(args.L)
    _use("spectrum", "statistics")
    K = _series_order(args.K)
    blocks = {D: reduced_spectrum(D) for D in FIGURE_DS}
    fields = ("L", *(f"D{D}" for D in FIGURE_DS))
    rows = [
        (float(L), *(float(number_variance_direct(blocks[D], L)) for D in FIGURE_DS))
        for L in Ls
    ]

    spots = {
        D: _series_gaps(D, [(L, number_variance_direct(blocks[D], L)) for L in FIGURE_SPOT_LS], K)
        for D in (8, 9)
    }
    failures = [
        f"spot check D={D} L={L}: |direct - fourier| = {gap!r} exceeds bound {bound!r}"
        for D, (gaps, bound) in spots.items()
        for L, gap in zip(FIGURE_SPOT_LS, gaps)
        if not gap <= bound
    ]
    if failures:
        return _failed(failures)
    bounds = {D: bound for D, (_, bound) in spots.items()}
    spot_worst = max(max(gaps) for gaps, _ in spots.values())

    meta = (
        "D1,D2,D3,D6,D8,D9: direct-exact on the D-level block; "
        f"fourier(K={K}) spot checks, truncation bound D8<={bounds[8]!r}, "
        f"D9<={bounds[9]!r}; spot checks max |direct - fourier| = {spot_worst!r}"
    )
    _emit(
        args,
        _table(fields, rows, comment=meta),
        _json(
            lambda: {
                "meta": {
                    "methods": {f"D{D}": "direct-exact" for D in FIGURE_DS},
                    "truncation_bounds": {f"D{D}": b for D, b in bounds.items()},
                    "spot_check_worst": spot_worst,
                },
                "rows": _records(fields, rows),
            }
        ),
    )
    return 0


def cmd_orbit(args):
    if args.T > MAX_ORBIT_T:
        raise ValueError(f"--T {args.T} exceeds the cap of {MAX_ORBIT_T} points")
    _use("classical", "diophantine")
    # --alpha here may be a preset/cf spec or a literal number like 0.5
    try:
        alpha = Fraction(args.alpha)
    except (ValueError, ZeroDivisionError):
        lo, hi = bracket(parse_alpha(args.alpha))
        alpha = (lo + hi) / 2
    if abs(alpha) > sys.float_info.max:
        raise ValueError(f"--alpha {args.alpha!r} exceeds the float range")
    if not (math.isfinite(args.p) and math.isfinite(args.q)):
        raise ValueError("--p and --q must be finite")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    # the map depends on alpha mod 1 only; reduce the exact value into (0, 1]
    # before the float conversion, which would drop p's digits for a large alpha
    alpha = float(alpha - (math.ceil(alpha) - 1))
    if alpha == 0.0:
        raise ValueError(f"--alpha {args.alpha!r} mod 1 is below the float range")
    pts = orbit(TorusPoint(args.p, args.q), alpha, args.T)
    _emit(args, _table(("t", "p", "q"), ((t, pt.p, pt.q) for t, pt in enumerate(pts))))
    return 0


def cmd_witness(args):
    _use("diophantine", "statistics")
    wit = divergence_witness(parse_alpha(args.alpha), args.count)
    _emit(args, lambda out: out.writelines(line + "\n" for line in wit.lines()))
    return _failed([] if wit.ok else ["divergence witness inconsistent"])


def cmd_verify(args):
    """Cross-method checks of one approximant: each passes when it has residuals and all pass.

    cycle-products compares each of the D cycle products c_r of the
    weights (Propagator.cycles) with the eigenphase formula's
    z_r = e(t_r / 6D) (spectrum.cycle_products), within
    delta = cycle_tolerance(N, M).  trace-formula compares the lattice
    traces Tr U^(kM) = M sum_r c_r^k with the trace formula's M sum_r z_r^k
    at k = 1..min(2D, PYTHON_OPS // D) only, so that each side makes at
    most spectrum.PYTHON_OPS complex products.  Nothing beyond that is
    lost: |x^k - y^k| <= k |x - y| max(|x|, |y|)^(k-1), so if every
    |c_r - z_r| <= delta, then at every k

        |M sum_r c_r^k - M sum_r z_r^k| <= M D k delta (1 + delta)^(k-1),

    and at k = 2D, with delta about M (c log2 N + sqrt 5) u, that is about
    2 N^2 (c log2 N + sqrt 5) u.  The formula side rounds too: its sum at k
    is within eps_k = M D ((1 + 5 u)^k (1 + sqrt(5) u)^(k-1) / (1 - D u) - 1)
    of the exact trace formula (spectrum.power_sums), so a residual r at a
    compared k puts the numeric trace within r + eps_k of it.  The bound at
    k = 2D plus eps_k at the largest compared k is at most 1e-9 N for every
    N <= MAX_VERIFY_N (5.9e-6 against 1.6e-5 at N = 16384, eps_k 3.0e-8 of
    it at D = N).  When cycle-products fails, its detail names the r of the
    largest residual, a NaN first.
    """
    _use("diophantine", "propagator", "spectrum", "statistics")
    from .spectrum import PYTHON_OPS

    app = _approximant(args)
    N, D, M = app.N, app.D, app.M
    if N > MAX_VERIFY_N:
        raise ValueError(f"--N {N} exceeds verify's cap of {MAX_VERIFY_N}")
    U = build_propagator(app)
    exact = cycle_products(app)
    cycles = [abs(x - y) for x, y in zip_longest(U.cycles, exact, fillvalue=math.nan)]
    delta = cycle_tolerance(N, M)
    worst = max(range(len(cycles)), key=lambda r: _rank(cycles[r]))
    # the trace formula, on the M-lattice: a trace missing from one side is a NaN
    spec = eigenphases(app)
    n = min(2 * D, PYTHON_OPS // D) * M
    pairs = zip_longest(trace_powers(U, n), power_sums(spec, n), fillvalue=math.nan)
    # every statistic of (a, N) is that of its D-level block
    block = reduced_spectrum(D)
    direct = [(L, number_variance_direct(spec, L)) for L in VERIFY_LS]
    gaps, bound = _series_gaps(D, direct, VERIFY_FOURIER_K)
    table = [
        (
            "unitarity",
            [unitarity_defect(U)],
            1e-12,
            "bound under the FFT rounding model c u log2(N), c = 1 + 4 sqrt(2)",
        ),
        (
            "cycle-products",
            cycles,
            delta,
            f"r = 0..{D - 1}: c_r against e(t_r/6D) under the FFT rounding model"
            + ("" if cycles[worst] <= delta else f"; largest at r = {worst}"),
        ),
        ("trace-formula", [abs(x - y) for x, y in pairs], 1e-9 * N, f"n = kM, k = 1..{n // M}"),
        (
            "spacing-law",
            [0.0 if spacings(spec).atoms == spacings(block).atoms else 1.0],
            0.0,
            f"empirical vs D-level block, D={D}",
        ),
        (
            "numvar-direct-vs-block",
            [abs(exact - number_variance_direct(block, L)) for L, exact in direct],
            0.0,
            f"exact rational equality with the D-level block, D={D}",
        ),
        ("numvar-direct-vs-fourier", gaps, bound, f"K={VERIFY_FOURIER_K}"),
    ]
    checks = [
        {
            "name": name,
            "ok": bool(residuals) and all(r <= tolerance for r in residuals),
            "residual": _largest(residuals),
            "tolerance": float(tolerance),
            "detail": detail,
        }
        for name, residuals, tolerance, detail in table
    ]
    report = dict(a=app.a, N=N, D=D, M=M, ok=all(c["ok"] for c in checks), checks=checks)
    _emit(args, write_json=_json(lambda: report))
    return _failed([c["name"] for c in checks if not c["ok"]])


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="skewtorus",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, alpha=True, json_form=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if alpha:
            p.add_argument("--alpha", default="golden", help="golden, sqrt2, or cf:1,2,2,2")
        if json_form:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="output path (default: stdout)")
        return p

    p = add("approx", cmd_approx, "nearest approximants a/N or a gcd family")
    p.add_argument("--N", type=int, help="single dimension N")
    p.add_argument("--D", type=int, help="family with gcd(a, N) = D")
    p.add_argument("--count", type=int, help=f"family size, with --D (default {DEFAULT_COUNT})")

    for name, func, help_text in (
        ("spectrum", cmd_spectrum, "exact eigenphases (eta, l, value)"),
        ("spacing", cmd_spacing, "exact circular spacing atoms"),
    ):
        p = add(name, func, help_text)
        p.add_argument("--N", type=int, help="dimension N")
        p.add_argument("--a", type=int, help="use (a, N) directly instead of --alpha")

    p = add("numvar", cmd_numvar, "number variance: direct, fourier, or closed")
    p.add_argument("--N", type=int, help="dimension N (method direct)")
    p.add_argument("--a", type=int, help="use (a, N) directly (method direct)")
    p.add_argument("--D", type=int, help="D (closed, fourier; direct: D-level block)")
    p.add_argument(
        "--method", choices=("direct", "fourier", "closed"), default="closed"
    )
    p.add_argument("--L", required=True, help='grid "min:max:steps" or one value')
    p.add_argument(
        "--K",
        type=int,
        help=f"series truncation order (method fourier; default {DEFAULT_FOURIER_K})",
    )
    p.add_argument("--poisson", action="store_true", help="append Sigma^2 = L rows")

    p = add(
        "figure1", cmd_figure1, "six number-variance curves, one column per D",
        alpha=False,
    )
    p.add_argument("--L", default="0:9:451", help="L grid (default %(default)s)")
    p.add_argument(
        "--K", type=int, help=f"series truncation order (default {DEFAULT_FOURIER_K})"
    )

    p = add(
        "witness", cmd_witness, "two approximant families, two spacing laws",
        json_form=False,
    )
    p.add_argument(
        "--count", type=int, default=DEFAULT_COUNT, help="members per family (default %(default)s)"
    )

    p = add("orbit", cmd_orbit, "classical orbit CSV t,p,q", json_form=False)
    p.add_argument("--p", type=float, default=0.0, help="initial p (default %(default)s)")
    p.add_argument("--q", type=float, default=0.0, help="initial q (default %(default)s)")
    p.add_argument("--T", type=int, default=1000, help="orbit points (default %(default)s)")

    p = add(
        "verify", cmd_verify, "cross-method consistency suite, JSON report",
        json_form=False,
    )
    p.add_argument("--N", type=int, help="dimension N")
    p.add_argument("--a", type=int, help="use (a, N) directly instead of --alpha")

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


def entry():
    """Console-script entry: main(), and an exit without a traceback if a write fails."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the flush at
        # interpreter exit cannot raise again, and exit without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    except OSError as exc:
        # a failed write (a full disk): one error line, and stdout at devnull
        # as above, since the exit-time flush would fail on the same buffer
        print(f"error: cannot write the output: {exc.strerror or exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    raise SystemExit(code)
