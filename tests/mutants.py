"""Mutation catalogue: deliberate faults that named tier-1 tests must catch.

Run with numpy and pytest installed, from any directory:

    python tests/mutants.py

Each entry of MUTANTS is (file under src/skewtorus, old text, new text, the
test ids that must kill it).  The named tests are first run once on an
unchanged copy of src/ in a temporary directory, and must pass there.
Then, for each entry, the script replaces the one occurrence of the old
text with the new text in that copy, runs only the entry's tests with the
copy first on PYTHONPATH (a test that starts a fresh interpreter finds it
through the same path), and restores the file.  The mutant is killed when
pytest reports a failed test.  No bytecode is written, since a mutant and
the text it replaces can have the same size and the same mtime second.

The script exits 1 when a mutant survives, when an old text does not occur
exactly once in its file (so a refactor that rewrites a mutated line must
update its entry), or when pytest ends in any other way: a mutant that
cannot be imported or a test id that names no test kills nothing.  A
survivor is mended by a stronger test, never by deleting its entry; an
equivalent mutant may leave only with a proof of its equivalence in a
comment.

pytest does not collect this file: its name does not match test_*.py.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLI = "tests/test_cli.py::"
PROPAGATOR = "tests/test_propagator.py::"
SPECTRUM = "tests/test_spectrum.py::"
STATISTICS = "tests/test_statistics.py::"

MUTANTS = [
    # the exact layers
    (
        "spectrum.py",
        "divmod(-a * a * (M - 1)",
        "divmod(a * a * (M - 1)",
        [SPECTRUM + "test_integer_spectrum_matches_fraction_build"],
    ),
    (
        "spectrum.py",
        "Spectrum(app, rho, tuple(hist))",
        "Spectrum(app, rho % 3, tuple(hist))",
        [SPECTRUM + "test_integer_spectrum_matches_fraction_build"],
    ),
    (
        "spectrum.py",
        "hist[(c - e * e) % D] += 1",
        "hist[-e * e % D] += 1",
        [
            SPECTRUM + "test_histogram_is_the_block_moved_by_the_offset",
            SPECTRUM + "test_integer_spectrum_matches_fraction_build",
        ],
    ),
    (
        "spectrum.py",
        "spec.app.a // D % M",
        "spec.app.a % M",
        [SPECTRUM + "test_integer_spectrum_matches_fraction_build"],
    ),
    (
        "spectrum.py",
        "l0[i] = -(e * s + k) % M",
        "l0[i] = (e * s + k) % M",
        [SPECTRUM + "test_integer_spectrum_matches_fraction_build"],
    ),
    (
        "spectrum.py",
        "map(repeat, range(D), spec.hist)",
        "map(repeat, range(1, D + 1), spec.hist)",
        [SPECTRUM + "test_integer_spectrum_matches_fraction_build"],
    ),
    (
        "statistics.py",
        "accumulate(map(sub, ahead, h), initial=n0)",
        "accumulate(map(sub, ahead, h), initial=0)",
        [
            STATISTICS + "test_number_variance_direct_frozen",
            STATISTICS + "test_window_squares_every_width_match_fraction_sweep",
        ],
    ),
    (
        "statistics.py",
        "sum(islice(spec.hist, r))",
        "sum(islice(spec.hist, r + 1))",
        [
            STATISTICS + "test_counting_function",
            STATISTICS + "test_counting_function_matches_bisection",
        ],
    ),
    (
        "statistics.py",
        "return 0 if n % 4 == 2 else 2 * D * D // n",
        "return D * D // n if n % 4 == 2 else 2 * D * D // n",
        [STATISTICS + "test_gauss_sum_sq_closed_form_matches_gauss_sum"],
    ),
    (
        "statistics.py",
        "(math.pi**2 * (K + 0.5))",
        "(math.pi**2 * (K + 1))",
        [STATISTICS + "test_fourier_tail_bound_certified_and_tight"],
    ),
    # the weights, in the Python and in the numpy form
    (
        "propagator.py",
        "roots[-m * m % N]",
        "roots[m * m % N]",
        [PROPAGATOR + "test_numeric_matches_analytic_sweep"],
    ),
    (
        "propagator.py",
        "(-m * m)",
        "(m * m)",
        [PROPAGATOR + "test_numeric_matches_analytic_sweep"],
    ),
    (
        "propagator.py",
        "_dft(x[j::p], factors[1:], roots, step * p)",
        "_dft(x[j::p], factors[1:], roots, step)",
        [PROPAGATOR + "test_numeric_matches_analytic_sweep"],
    ),
    (
        "spectrum.py",
        "_QUARTER_TURNS = (1, 1j, -1, -1j)",
        "_QUARTER_TURNS = (1, -1j, -1, 1j)",
        [SPECTRUM + "test_fft_power_sums_match_fraction_loop"],
    ),
    # the rounding model e is shared: each form's test must see it scaled down
    (
        "propagator.py",
        "(1 + 4 * math.sqrt(2)) * 2.0**-53",
        "(1 + 4 * math.sqrt(2)) * 2.0**-53 / 100",
        [PROPAGATOR + "test_unitarity_across_set"],
    ),
    (
        "propagator.py",
        "(1 + 4 * math.sqrt(2)) * 2.0**-53",
        "(1 + 4 * math.sqrt(2)) * 2.0**-53 / 100",
        [PROPAGATOR + "test_weights_error_within_the_model[numpy]"],
    ),
    # the unitarity bound reads both ends of the moduli, and a NaN among them
    (
        "propagator.py",
        "max(abs(1 - lo * lo), abs(1 - hi * hi))",
        "abs(1 - hi * hi)",
        [PROPAGATOR + "test_unitarity_bound_terms"],
    ),
    (
        "propagator.py",
        "max(abs(1 - lo * lo), abs(1 - hi * hi))",
        "abs(1 - lo * lo)",
        [PROPAGATOR + "test_unitarity_bound_terms"],
    ),
    (
        "propagator.py",
        "    if not math.isfinite(sum(r)):\n        return math.nan\n",
        "",
        [
            PROPAGATOR + "test_unitarity_fails_on_corrupted_matrix",
            PROPAGATOR + "test_verify_fails_unitarity_on_corrupted_matrix",
        ],
    ),
    (
        "propagator.py",
        "2 * e * hi + e * e",
        "2 * e * hi",
        [PROPAGATOR + "test_unitarity_bound_terms"],
    ),
    # the weights pick their form by their own count: a small verify loads no numpy
    (
        "propagator.py",
        "2 * N * sum(_prime_factors(N)) <= PYTHON_OPS",
        "2 * N * sum(_prime_factors(N)) > PYTHON_OPS",
        [CLI + "test_cli_import_does_not_load_numpy"],
    ),
    # each cycle product against its base level, within the model's delta
    (
        "propagator.py",
        "    return math.expm1(M * math.log1p(e) + (M - 1) * math.log1p(math.sqrt(5) * u)) + 5 * u\n",
        "    return (math.expm1(M * math.log1p(e) + (M - 1) * math.log1p(math.sqrt(5) * u)) + 5 * u) / 100\n",
        [PROPAGATOR + "test_cycle_tolerance_is_pinned_on_a_ladder"],
    ),
    (
        "spectrum.py",
        "(2 * M - 1) % (6 * app.N)",
        "(2 * M + 1) % (6 * app.N)",
        [PROPAGATOR + "test_cycle_products_are_the_base_levels"],
    ),
    (
        "propagator.py",
        "cycles[m % D] *= complex(z)",
        "cycles[(m + 1) % D] *= complex(z)",
        [PROPAGATOR + "test_cycle_products_are_the_base_levels"],
    ),
    # the trace formula on the M-lattice: one running-power loop
    # (_lattice_traces) raises the cycle products and the level roots alike
    (
        "spectrum.py",
        "power = [1] * len(values)",
        "power = list(values)",
        [
            SPECTRUM + "test_power_sums_form_factor_is_the_gauss_sum",
            PROPAGATOR + "test_trace_powers_agrees_with_matrix_power",
        ],
    ),
    (
        "spectrum.py",
        "[x * c for x, c in zip(power, values)]",
        "[x * c * c for x, c in zip(power, values)]",
        [SPECTRUM + "test_power_sums_form_factor_is_the_gauss_sum"],
    ),
    (
        "spectrum.py",
        "M, n_max // M)",
        "M, n_max // M - 1)",
        [SPECTRUM + "test_power_sums_form_factor_is_the_gauss_sum"],
    ),
    (
        "spectrum.py",
        "_root(6 * u + rho, 6 * D)",
        "_root(6 * u + rho + 1, 6 * D)",
        [SPECTRUM + "test_fft_power_sums_match_fraction_loop"],
    ),
    (
        "propagator.py",
        "M, n_max // M)",
        "M, n_max // M - 1)",
        [CLI + "test_verify_fails_a_trace_it_did_not_compare"],
    ),
    (
        "classical.py",
        "p, q = (p + alpha) % 1, (q + 2 * p) % 1",
        "p = (p + alpha) % 1; q = (q + 2 * p) % 1",
        ["tests/test_classical.py::test_orbit_equals_step_iterated"],
    ),
    # verify's gates
    (
        "cli.py",
        "all(r <= tolerance for r in residuals)",
        "all(r <= 2 * tolerance for r in residuals)",
        [CLI + "test_verify_gate_boundary"],
    ),
    (
        "cli.py",
        '1e-9 * N, f"n = kM, k = 1..{n // M}"',
        '1e-6 * N, f"n = kM, k = 1..{n // M}"',
        [CLI + "test_verify_gates_are_pinned"],
    ),
    (
        "cli.py",
        "[unitarity_defect(U)],\n            1e-12,",
        "[unitarity_defect(U)],\n            1e-9,",
        [CLI + "test_verify_gates_are_pinned", CLI + "test_verify_gate_boundary"],
    ),
    (
        "cli.py",
        "VERIFY_FOURIER_K = 2000",
        "VERIFY_FOURIER_K = 20",
        [CLI + "test_verify_gates_are_pinned"],
    ),
    # what the series cross-checks cover, and figure1's gate
    (
        "cli.py",
        "VERIFY_LS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(7, 3))",
        "VERIFY_LS = (Fraction(1, 2),)",
        [CLI + "test_verify_series_check_covers_its_ls"],
    ),
    (
        "cli.py",
        "FIGURE_SPOT_LS = (Fraction(1, 2), Fraction(1), Fraction(4))",
        "FIGURE_SPOT_LS = (Fraction(1),)",
        [CLI + "test_figure1_spot_checks_cover_their_ls"],
    ),
    (
        "cli.py",
        "if not gap <= bound",
        "if not gap <= 2 * bound",
        [CLI + "test_figure1_spot_check_boundary"],
    ),
    # each residual is judged before any reduction, and a NaN fails
    (
        "cli.py",
        "all(r <= tolerance for r in residuals)",
        "max(residuals) <= tolerance",
        [CLI + "test_verify_nan_residual_fails_its_check"],
    ),
    (
        "cli.py",
        "return math.isnan(residual), residual",
        "return residual",
        [CLI + "test_verify_nan_residual_fails_its_check"],
    ),
    # a failing cycle-products names its worst cycle, a NaN first
    (
        "cli.py",
        "key=lambda r: _rank(cycles[r])",
        "key=lambda r: cycles[r]",
        [CLI + "test_verify_names_the_failing_cycle"],
    ),
    # a check compares every trace, and one with no residual fails
    (
        "cli.py",
        "bool(residuals) and ",
        "",
        [CLI + "test_verify_fails_a_trace_it_did_not_compare"],
    ),
    (
        "cli.py",
        "if not gap <= bound",
        "if gap > bound",
        [CLI + "test_figure1_nan_spot_check_fails"],
    ),
    # the report is strict JSON: a NaN residual is written as null
    (
        "cli.py",
        "return worst if math.isfinite(worst) else None",
        "return worst",
        [CLI + "test_verify_nan_residual_fails_its_check"],
    ),
    (
        "cli.py",
        "allow_nan=False",
        "allow_nan=True",
        [CLI + "test_json_writer_refuses_non_finite_floats"],
    ),
    # each direct value is computed once and shared by the block and series checks
    (
        "cli.py",
        "abs(exact - number_variance_direct(block, L))",
        "abs(exact - exact)",
        [CLI + "test_verify_wrong_block_fails_spacing_law"],
    ),
    # exit codes
    (
        "statistics.py",
        "exit_code = 3",
        "exit_code = 2",
        [CLI + "test_exit_code_unsupported_closed_form", CLI + "test_exit_code_as_first_command"],
    ),
    (
        "cli.py",
        "exit_code = 4",
        "exit_code = 2",
        [CLI + "test_exit_code_bad_grid", CLI + "test_exit_code_table"],
    ),
    (
        "cli.py",
        'getattr(exc, "exit_code", 2)',
        'getattr(exc, "exit_code", 1)',
        [CLI + "test_exit_code_precision_exhausted", CLI + "test_exit_code_table"],
    ),
    (
        "cli.py",
        "code = 2",
        "code = 1",
        [CLI + "test_failed_write_exits_2"],
    ),
    (
        "cli.py",
        "return 1 if lines else 0",
        "return 0",
        [
            CLI + "test_verify_gate_boundary",
            CLI + "test_figure1_spot_check_failure_exits_1",
            CLI + "test_witness_inconsistent_exits_1",
        ],
    ),
    # the command line's defaults and refusals
    (
        "cli.py",
        "if N > MAX_VERIFY_N:",
        "if N >= MAX_VERIFY_N:",
        [CLI + "test_dimension_guard"],
    ),
    (
        "cli.py",
        "MAX_VERIFY_N = 16384",
        "MAX_VERIFY_N = 16383",
        [CLI + "test_cli_defaults_are_pinned"],
    ),
    (
        "cli.py",
        "DEFAULT_FOURIER_K = 10_000",
        "DEFAULT_FOURIER_K = 10_001",
        [CLI + "test_cli_defaults_are_pinned"],
    ),
    (
        "cli.py",
        "DEFAULT_COUNT = 3",
        "DEFAULT_COUNT = 4",
        [CLI + "test_default_count_is_three"],
    ),
    (
        "statistics.py",
        "    if 2 * D * D > sys.float_info.max:\n"
        '        raise ValueError(f"D={D} is too large: 2 D^2 exceeds the float range")\n',
        "",
        [CLI + "test_exit_code_table", CLI + "test_fourier_admits_d_within_the_float_range"],
    ),
    # the package exports only what a command or a demo uses
    (
        "__init__.py",
        '        "format_law",\n',
        '        "format_law",\n        "gauss_sum",\n',
        [CLI + "test_package_exports_only_what_commands_and_demos_use"],
    ),
]
# Retired: spectrum._TAIL_CAP = 2^52 (the cap of the per-binade decimal
# tails).  The constant is gone: cli.MAX_SPECTRUM_N = 2^50 refuses a longer
# spectrum before any row is made, so no row reaches the repr path it bounded.
# Retired with the numpy forms of the trace loop and the power sums, whose
# code is gone: the flips of their selections (steps * D <= PYTHON_OPS,
# max(steps, 6) * spec.app.D <= PYTHON_OPS), and the FFT form's k rho
# phase (* spec.rho -> * (spec.rho + 1)), whose Python twin is the
# level-root phase entry above (6 * u + rho -> 6 * u + rho + 1).


def _pytest(src, tests):
    """pytest's exit status for the tests run against the package in src."""
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=str(src) + (os.pathsep + path if path else ""),
        PYTHONDONTWRITEBYTECODE="1",
    )
    argv = ["-m", "pytest", "-q", "-x", "-W", "error", "-p", "no:cacheprovider", *tests]
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True
    )
    return proc.returncode, proc.stdout + proc.stderr


def main():
    problems = []
    for name, old, new, _ in MUTANTS:
        count = (ROOT / "src/skewtorus" / name).read_text().count(old)
        if count != 1:
            problems.append(f"{name}: {old!r} occurs {count} times, not once")
    if problems:
        sys.exit("\n".join(problems))
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        tests = list(dict.fromkeys(t for m in MUTANTS for t in m[3]))
        code, log = _pytest(src, tests)
        if code != 0:
            sys.exit(f"{log}\nthe named tests fail on the unchanged src/ (exit {code})")
        for name, old, new, tests in MUTANTS:
            path = src / "skewtorus" / name
            text = path.read_text()
            path.write_text(text.replace(old, new))
            code, log = _pytest(src, tests)
            path.write_text(text)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
            print(f"{verdict}: {name}: {old!r} -> {new!r}", flush=True)
            if code != 1:
                problems.append(f"{name}: {new!r}: {verdict}\n{log}")
    if problems:
        sys.exit("\n".join(problems))
    print(f"all {len(MUTANTS)} mutants killed")


if __name__ == "__main__":
    main()
