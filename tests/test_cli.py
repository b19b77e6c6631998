"""Command-line surface: outputs, exit codes, determinism."""

import ast
import inspect
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import skewtorus
from skewtorus import cli, propagator, spectrum
from skewtorus.diophantine import Approximant
from skewtorus.propagator import cycle_tolerance
from skewtorus.spectrum import Spectrum, eigenphases
from skewtorus.statistics import (
    _tail_bound,
    number_variance_closed,
    number_variance_direct,
    number_variance_fourier,
)

from oracles import sigma2_exact


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _env():
    """os.environ with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def _python(*args):
    """Run a fresh interpreter on this checkout; the CompletedProcess, text mode."""
    return subprocess.run(
        [sys.executable, *args], env=_env(), capture_output=True, text=True, timeout=60
    )


def _strict_json(text):
    """json.loads that refuses the non-JSON tokens NaN, Infinity and -Infinity."""

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def test_approx_single(capsys):
    code, out, _ = run(capsys, "approx", "--alpha", "golden", "--N", "5")
    assert code == 0
    assert out == "a,N,D\n8,5,1\n"


def test_approx_family(capsys):
    code, out, _ = run(capsys, "approx", "--alpha", "golden", "--D", "3", "--count", "2")
    assert code == 0
    assert out == "a,N,D\n39,24,3\n63,39,3\n"


def test_approx_cf_alpha(capsys):
    code, out, _ = run(capsys, "approx", "--alpha", "cf:1,2,2,2", "--N", "10")
    assert code == 0
    assert out == "a,N,D\n14,10,2\n"


def test_approx_json(capsys):
    code, out, _ = run(capsys, "approx", "--N", "5", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"a": 8, "N": 5, "D": 1, "M": 5}]


def test_approx_requires_exactly_one_selector(capsys):
    code, _, err = run(capsys, "approx", "--N", "5", "--D", "1")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "approx")
    assert code == 2


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "--a", "1", "--N", "3")
    assert code == 0
    assert out.splitlines()[0] == "eta,l,numerator,denominator,decimal"
    assert out.splitlines()[1] == "1,2,1,3,0.3333333333333333"


def test_spacing_csv(capsys):
    code, out, _ = run(capsys, "spacing", "--a", "3", "--N", "9")
    assert code == 0
    assert out == "s_numerator,s_denominator,weight\n0,1,1/3\n1,1,1/3\n2,1,1/3\n"


def test_numvar_direct_single_value(capsys):
    code, out, _ = run(
        capsys, "numvar", "--a", "3", "--N", "9", "--method", "direct", "--L", "1"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "L,value,method,D,truncation_bound"
    assert lines[1] == "1.0,0.6666666666666666,direct-exact,3,"


def test_numvar_direct_on_the_block(capsys):
    # --D alone runs the D-level block: the same bytes as any (a, N) with that D
    code, block, _ = run(capsys, "numvar", "--method", "direct", "--D", "8", "--L", "0:6:7")
    assert code == 0
    code, full, _ = run(
        capsys, "numvar", "--method", "direct", "--a", "24", "--N", "16", "--L", "0:6:7"
    )
    assert code == 0
    assert block == full
    assert block.splitlines()[2] == "1.0,2.0,direct-exact,8,"
    # a --D that agrees with gcd(a, N) changes nothing
    code, agreed, _ = run(
        capsys, "numvar", "--method", "direct", "--D", "8", "--a", "24", "--N", "16",
        "--L", "0:6:7",
    )
    assert code == 0 and agreed == full


def test_numvar_closed_grid_zeros_at_integers(capsys):
    code, out, _ = run(capsys, "numvar", "--D", "1", "--method", "closed", "--L", "0:3:301")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 301
    for L, value, method, D, bound in rows:
        assert method == "closed-form" and D == "1" and bound == ""
        if float(L) == int(float(L)):
            assert float(value) == 0.0


def test_numvar_fourier_reports_bound(capsys):
    code, out, _ = run(
        capsys, "numvar", "--D", "3", "--method", "fourier", "--K", "10000", "--L", "1"
    )
    assert code == 0
    L, value, method, D, bound = out.splitlines()[1].split(",")
    assert method == "fourier(K=10000)"
    assert abs(float(value) - 2 / 3) <= float(bound)


def test_numvar_poisson_overlay(capsys):
    code, out, _ = run(
        capsys, "numvar", "--D", "1", "--method", "closed", "--L", "0:1:3", "--poisson"
    )
    assert code == 0
    lines = out.splitlines()[1:]
    assert len(lines) == 6
    assert lines[3:] == ["0.0,0.0,poisson,1,", "0.5,0.5,poisson,1,", "1.0,1.0,poisson,1,"]


def test_numvar_json(capsys):
    code, out, _ = run(
        capsys,
        "numvar", "--D", "3", "--method", "fourier", "--L", "1", "--K", "500",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["method"] == "fourier(K=500)"
    assert rows[0]["truncation_bound"] > 0


def test_exit_code_unsupported_closed_form(capsys):
    code, _, err = run(capsys, "numvar", "--D", "5", "--method", "closed", "--L", "1")
    assert code == 3 and "D=5" in err


def test_exit_code_bad_grid(capsys):
    for grid in ("5:1:10", "0:3:1", "abc", "1:2"):
        code, _, err = run(capsys, "numvar", "--D", "1", "--method", "closed", "--L", grid)
        assert code == 4, grid
    # leading dash needs the = form to get past argparse
    code, _, err = run(capsys, "numvar", "--D", "1", "--method", "closed", "--L=-1:3:10")
    assert code == 4


def test_exit_code_precision_exhausted(capsys):
    code, _, err = run(capsys, "approx", "--alpha", "cf:1,1,1", "--N", "1000000")
    assert code == 2 and "prefix" in err


def test_figure1_columns_and_coincidences(tmp_path, capsys):
    out_path = tmp_path / "fig.csv"
    code, _, _ = run(capsys, "figure1", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("# D1,D2,D3,D6,D8,D9: direct-exact on the D-level block")
    assert lines[1] == "L,D1,D2,D3,D6,D8,D9"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 451
    d1 = [r[1] for r in rows]
    d2 = [r[2] for r in rows]
    d3 = [r[3] for r in rows]
    d6 = [r[4] for r in rows]
    d8 = [float(r[5]) for r in rows]
    assert d1 == d2
    assert d3 == d6
    assert max(d8) > max(float(x) for x in d3)


def test_figure1_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "figure1", "--out", str(p1))[0] == 0
    assert run(capsys, "figure1", "--out", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_figure1_json_meta(capsys):
    code, out, _ = run(capsys, "figure1", "--L", "0:9:19", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload["meta"]["methods"].values()) == {"direct-exact"}
    assert payload["meta"]["truncation_bounds"]["D8"] > 0
    assert len(payload["rows"]) == 19


def test_figure1_columns_are_exact(capsys):
    code, out, _ = run(capsys, "figure1", "--L", "0:9:46")
    assert code == 0
    lines = out.splitlines()
    assert "; fourier(K=10000) spot checks, truncation bound D8<=" in lines[0]
    for k, line in enumerate(lines[2:]):
        L = Fraction(9 * k, 45)
        row = [float(x) for x in line.split(",")]
        assert row[0] == float(L)
        for D, v in zip((1, 2, 3, 6), row[1:5]):
            assert v == float(number_variance_closed(D, L)), (D, L)
        for D, v in zip((1, 2, 3, 6, 8, 9), row[1:]):
            assert v == float(sigma2_exact(D, L)), (D, L)


def test_figure1_spot_check_failure_exits_1(capsys, monkeypatch):
    fourier = cli.number_variance_fourier
    monkeypatch.setattr(
        cli, "number_variance_fourier", lambda D, L, K: (fourier(D, L, K)[0] + 0.01, 1e-3)
    )
    code, out, err = run(capsys, "figure1", "--L", "0:9:10")
    assert code == 1 and out == ""
    assert "FAIL: spot check D=8" in err


def test_figure1_spot_check_boundary(capsys, monkeypatch):
    # a spot-check gap equal to the truncation bound passes; the next float
    # above fails: the D = 8 block reads gap at every L and its series 0.0
    bound = 1e-3

    def run_with_gap(gap):
        monkeypatch.setattr(
            cli, "number_variance_direct", lambda spec, L: gap if spec.app.D == 8 else 0
        )
        monkeypatch.setattr(
            cli, "number_variance_fourier", lambda D, L, K: (0.0, bound)
        )
        return run(capsys, "figure1", "--L", "0:9:10")

    code, out, err = run_with_gap(bound)
    assert (code, err) == (0, "")
    assert out.splitlines()[0].endswith(
        "truncation bound D8<=0.001, D9<=0.001; "
        "spot checks max |direct - fourier| = 0.001"
    )
    above = math.nextafter(bound, 1)
    code, out, err = run_with_gap(above)
    assert (code, out) == (1, "")
    assert err == "".join(
        f"FAIL: spot check D=8 L={L}: |direct - fourier| = {above!r} "
        "exceeds bound 0.001\n"
        for L in ("1/2", "1", "4")
    )


def test_figure1_nan_spot_check_fails(capsys, monkeypatch):
    # the series is NaN at D = 8, L = 1 alone; a max() over D = 8's gaps
    # would drop it behind the finite gap at L = 1/2, so each gap is gated
    fourier = cli.number_variance_fourier
    monkeypatch.setattr(
        cli,
        "number_variance_fourier",
        lambda D, L, K: (math.nan, fourier(D, L, K)[1]) if (D, L) == (8, 1) else fourier(D, L, K),
    )
    code, out, err = run(capsys, "figure1", "--L", "0:1:2", "--K", "1000")
    assert (code, out) == (1, "")
    assert err == (
        "FAIL: spot check D=8 L=1: |direct - fourier| = nan "
        f"exceeds bound {_tail_bound(8, 1000)!r}\n"
    )


def _record_series_checks(monkeypatch):
    """Patch cli's direct and fourier routes to log each call: (D, L) and (D, L, K)."""
    direct, fourier = cli.number_variance_direct, cli.number_variance_fourier
    calls = {"direct": [], "fourier": []}

    def logged_direct(spec, L):
        calls["direct"].append((spec.app.D, L))
        return direct(spec, L)

    def logged_fourier(D, L, K):
        calls["fourier"].append((D, L, K))
        return fourier(D, L, K)

    monkeypatch.setattr(cli, "number_variance_direct", logged_direct)
    monkeypatch.setattr(cli, "number_variance_fourier", logged_fourier)
    return calls


def _max_gap(spectra, Ls, K):
    """max |float(exact direct Sigma^2) - series value| over the spectra and Ls."""
    gaps = (
        abs(float(number_variance_direct(s, L)) - number_variance_fourier(s.app.D, L, K)[0])
        for s in spectra
        for L in Ls
    )
    return max(gaps)


def test_figure1_spot_checks_cover_their_ls(capsys, monkeypatch):
    # the series is checked at D in {8, 9} x L in {1/2, 1, 4}, each once, and
    # the reported worst gap is the largest of those six; the grid's L are
    # off those values, so every other direct call is a column's
    spots = {(D, L) for D in (8, 9) for L in (Fraction(1, 2), Fraction(1), Fraction(4))}
    grid = {(D, Fraction(k, 3)) for D in (1, 2, 3, 6, 8, 9) for k in (1, 2)}
    calls = _record_series_checks(monkeypatch)
    argv = ["figure1", "--L", "1/3:2/3:2", "--K", "1000", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert sorted(calls["fourier"]) == sorted((D, L, 1000) for D, L in spots)
    assert sorted(calls["direct"]) == sorted(spots | grid)
    blocks = [eigenphases(Approximant(0, D)) for D in (8, 9)]
    meta = json.loads(out)["meta"]
    assert meta["spot_check_worst"] == _max_gap(blocks, [L for _, L in spots], 1000)
    assert meta["truncation_bounds"] == {f"D{D}": _tail_bound(D, 1000) for D in (8, 9)}


def test_witness_reports_both_laws(capsys):
    code, out, _ = run(capsys, "witness", "--count", "2")
    assert code == 0
    assert "delta(s - 1)" in out
    assert "(1/3) delta(s)" in out


# 40 terms of a periodic continued fraction, enough for two members per family
CF_PREFIX = "cf:" + ",".join(["2,1,1"] * 13 + ["2"])
THREE_ATOM = "(1/3) delta(s) + (1/3) delta(s - 1) + (1/3) delta(s - 2)"


@pytest.mark.parametrize(
    "argv, text",
    [
        # no members: the family lines only, no conclusion
        (
            "witness --count 0",
            "alpha = golden: spacing laws along two gcd families\n"
            "D=1 family: \n"
            "D=3 family: \n",
        ),
        # a cf: alpha has no preset name and is written as its repr
        (
            f"witness --alpha {CF_PREFIX} --count 2",
            f"alpha = IrrationalAlpha({CF_PREFIX}): spacing laws along two gcd families\n"
            "D=1 family: (5,2), (13,5)\n"
            "  N=2: P(s) = delta(s - 1)\n"
            "  N=5: P(s) = delta(s - 1)\n"
            "D=3 family: (54,21), (93,36)\n"
            f"  N=21: P(s) = {THREE_ATOM}\n"
            f"  N=36: P(s) = {THREE_ATOM}\n"
            f"constant laws: [delta(s - 1)] vs [{THREE_ATOM}]\n"
            "two distinct accumulation points, so P(s) has no N -> inf limit\n"
            "number variance at L=1 separates the same way: 0 vs 2/3\n",
        ),
    ],
)
def test_witness_report_bytes(capsys, argv, text):
    assert run(capsys, *argv.split()) == (0, text, "")


def test_witness_inconsistent_exits_1(capsys, monkeypatch):
    witness = cli.divergence_witness

    def one_wrong_law(alpha, count):
        wit = witness(alpha, count)
        (D, members, laws), three_atom = wit.families
        laws = laws[:-1] + three_atom[2][-1:]
        return wit._replace(families=((D, members, laws), three_atom))

    monkeypatch.setattr(cli, "divergence_witness", one_wrong_law)
    code, out, err = run(capsys, "witness", "--count", "2")
    assert code == 1
    assert out.startswith("alpha = golden") and f"N=3: P(s) = {THREE_ATOM}\n" in out
    assert err == "FAIL: divergence witness inconsistent\n"


def test_orbit_rows(capsys):
    code, out, _ = run(capsys, "orbit", "--alpha", "0.5", "--T", "3")
    assert code == 0
    assert out == "t,p,q\n0,0.0,0.0\n1,0.5,0.0\n2,0.0,0.0\n"


@pytest.mark.parametrize(
    "fields, rows, text",
    [
        pytest.param(
            ("s_numerator", "s_denominator", "weight"),
            [(s, 1, Fraction(1, 3)) for s in range(3)],
            "s_numerator,s_denominator,weight\n0,1,1/3\n1,1,1/3\n2,1,1/3\n",
            id="spacing",
        ),
        pytest.param(
            ("L", "value", "method", "D", "truncation_bound"),
            [(0.5, 0.25, "direct-exact", 1, None), (1.0, 0.25, "fourier(K=10)", 1, 0.02)],
            "L,value,method,D,truncation_bound\n"
            "0.5,0.25,direct-exact,1,\n"
            "1.0,0.25,fourier(K=10),1,0.02\n",
            id="curve",
        ),
        pytest.param(
            ("t", "p", "q"),
            iter([(0, 0.0, 0.0), (1, 0.5, 0.0), (2, 0.0, 0.0)]),
            "t,p,q\n0,0.0,0.0\n1,0.5,0.0\n2,0.0,0.0\n",
            id="orbit",
        ),
    ],
)
def test_table_csv(fields, rows, text):
    # a Fraction cell is p/q, a float its repr, None an empty cell; the orbit
    # rows are an iterator, read once as they are written
    buf = io.StringIO()
    cli._table(fields, rows)(buf)
    assert buf.getvalue() == text


@pytest.mark.parametrize("count", [0, 1, 4, 5, 9])
def test_table_writes_whole_blocks(monkeypatch, count):
    # one write for the header and one per TABLE_BLOCK lines, the last
    # block short; the bytes are the lines one per row
    monkeypatch.setattr(cli, "TABLE_BLOCK", 4)
    rows = [(t, t / 8, None if t % 3 else Fraction(t, 3)) for t in range(count)]

    class Writes(list):
        write = list.append

    out = Writes()
    cli._table(("t", "p", "q"), iter(rows))(out)
    lines = [f"{t},{p!r},{'' if q is None else q}\n" for t, p, q in rows]
    assert out[0] == "t,p,q\n"
    assert out[1:] == ["".join(lines[i : i + 4]) for i in range(0, count, 4)]


def test_table_none_is_an_empty_cell_and_null(capsys):
    argv = ["numvar", "--D", "1", "--method", "closed", "--L", "1/2"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == "L,value,method,D,truncation_bound\n0.5,0.25,closed-form,1,\n"
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert '"truncation_bound": null' in out
    assert json.loads(out) == [
        {"L": 0.5, "value": 0.25, "method": "closed-form", "D": 1, "truncation_bound": None}
    ]


def test_verify_green(capsys):
    code, out, _ = run(capsys, "verify", "--a", "3", "--N", "9")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "unitarity",
        "cycle-products",
        "trace-formula",
        "spacing-law",
        "numvar-direct-vs-block",
        "numvar-direct-vs-fourier",
    ]
    assert all(c["ok"] for c in report["checks"])


@pytest.mark.parametrize("a, N", [(24, 16), (0, 64), (90, 63), (20, 30)])
def test_verify_runs_every_check_for_every_d(capsys, a, N):
    code, out, _ = run(capsys, "verify", "--a", str(a), "--N", str(N))
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    checks = {c["name"]: c for c in report["checks"]}
    assert not any("skipped" in c["detail"] for c in report["checks"])
    for name in ("spacing-law", "numvar-direct-vs-block"):
        assert checks[name]["ok"] is True
        assert checks[name]["residual"] == 0.0
        assert "D-level block" in checks[name]["detail"]


def test_verify_wrong_block_fails_spacing_law(capsys, monkeypatch):
    # (1, 3) has the rigid law, not the three-atom law of the D = 3 block
    monkeypatch.setattr(cli, "reduced_spectrum", lambda D: eigenphases(Approximant(1, D)))
    code, out, err = run(capsys, "verify", "--a", "3", "--N", "9")
    assert code == 1
    assert "FAIL: spacing-law" in err
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["spacing-law"]["ok"] is False
    assert checks["numvar-direct-vs-block"]["ok"] is False


@pytest.mark.parametrize("a, N", [(3, 9), (24, 16)])
def test_verify_rotated_spectrum_fails_trace_formula(capsys, monkeypatch, a, N):
    # rotating the histogram over Z_D by one residue keeps the spacings and
    # Sigma^2, so only the trace formula can see it
    def rotated(app):
        spec = eigenphases(app)
        return Spectrum(app, spec.rho, spec.hist[-1:] + spec.hist[:-1])

    monkeypatch.setattr(cli, "eigenphases", rotated)
    code, out, err = run(capsys, "verify", "--a", str(a), "--N", str(N))
    assert code == 1
    assert err == "FAIL: trace-formula\n"
    failing = [c["name"] for c in json.loads(out)["checks"] if not c["ok"]]
    assert failing == ["trace-formula"]


def test_orbit_reduces_alpha_exactly(capsys):
    argv = ["orbit", "--p", "0.25", "--T", "4", "--alpha"]
    code, small, _ = run(capsys, *argv, "0.25")
    assert code == 0
    assert small.splitlines()[1:3] == ["0,0.25,0.0", "1,0.5,0.5"]
    code, large, _ = run(capsys, *argv, "100000000000000000.25")
    assert code == 0
    assert large == small
    # alpha is represented in (0, 1]: an integer alpha by 1, not by 0
    for big, small in (("3", "1"), ("7/2", "1/2")):
        want = run(capsys, "orbit", "--alpha", small, "--T", "3")
        assert run(capsys, "orbit", "--alpha", big, "--T", "3") == want
        assert want[0] == 0 and want[1].count("\n") == 4
    # 1e-330 is positive, but its float underflows to 0.0 after the reduction
    code, out, err = run(capsys, "orbit", "--alpha", "1e-330", "--T", "2")
    assert (code, out) == (2, "")
    assert err == "error: --alpha '1e-330' mod 1 is below the float range\n"


# The unitarity bound holds under a stated model of the FFT's rounding, and
# its detail says so.
UNITARITY_DETAIL = "bound under the FFT rounding model c u log2(N), c = 1 + 4 sqrt(2)"


# verify's gates, written out: (name, tolerance, detail) at each D.  The
# tolerances are 1e-12 (unitarity), delta(N, M) from the same rounding
# model (cycle products), 1e-9 N (trace formula, at every k <= 2D while
# 2 D^2 <= PYTHON_OPS), 0 (the exact checks) and the fourier series'
# certified tail bound at K = 2000.
def _verify_gates(N, D):
    cycles = f"r = 0..{D - 1}: c_r against e(t_r/6D) under the FFT rounding model"
    return [
        ("unitarity", 1e-12, UNITARITY_DETAIL),
        ("cycle-products", cycle_tolerance(N, N // D), cycles),
        ("trace-formula", 1e-9 * N, f"n = kM, k = 1..{2 * D}"),
        ("spacing-law", 0.0, f"empirical vs D-level block, D={D}"),
        (
            "numvar-direct-vs-block",
            0.0,
            f"exact rational equality with the D-level block, D={D}",
        ),
        ("numvar-direct-vs-fourier", _tail_bound(D, 2000), "K=2000"),
    ]


@pytest.mark.parametrize("a, N, D", [(1, 64, 1), (0, 64, 64), (3, 9, 3), (6, 12, 6)])
def test_verify_gates_are_pinned(capsys, a, N, D):
    # D = 1, D = N and the paper's D = 3 and 6: every check reports the
    # tolerance of its stated model, and passes within it
    code, out, err = run(capsys, "verify", "--a", str(a), "--N", str(N))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["N"], report["D"], report["ok"]) == (N, D, True)
    checks = report["checks"]
    assert [(c["name"], c["tolerance"], c["detail"]) for c in checks] == _verify_gates(N, D)
    assert all(c["ok"] and c["residual"] <= c["tolerance"] for c in checks)


def test_verify_gate_boundary(capsys, monkeypatch):
    # a residual equal to its tolerance passes; the next float above fails
    monkeypatch.setattr(cli, "unitarity_defect", lambda U: 1e-12)
    code, out, err = run(capsys, "verify", "--a", "3", "--N", "9")
    assert (code, err) == (0, "")
    assert json.loads(out)["checks"][0] == {
        "name": "unitarity",
        "ok": True,
        "residual": 1e-12,
        "tolerance": 1e-12,
        "detail": UNITARITY_DETAIL,
    }
    above = math.nextafter(1e-12, 1)
    monkeypatch.setattr(cli, "unitarity_defect", lambda U: above)
    code, out, err = run(capsys, "verify", "--a", "3", "--N", "9")
    assert (code, err) == (1, "FAIL: unitarity\n")
    first = json.loads(out)["checks"][0]
    assert (first["ok"], first["residual"]) == (False, above)


@pytest.mark.parametrize("name", ["trace-formula", "numvar-direct-vs-fourier"])
def test_verify_nan_residual_fails_its_check(capsys, monkeypatch, name):
    # one NaN among finite residuals, never the first: Tr U^(2N), or the
    # series at L = 1.  max() would drop it, so the check must judge each
    # residual, and report the NaN as the largest: as null, since the
    # report is strict JSON, which has no NaN
    if name == "trace-formula":
        traces = cli.trace_powers
        monkeypatch.setattr(cli, "trace_powers", lambda U, n: traces(U, n)[:-1] + [math.nan])
    else:
        fourier = cli.number_variance_fourier
        monkeypatch.setattr(
            cli,
            "number_variance_fourier",
            lambda D, L, K: (math.nan, fourier(D, L, K)[1]) if L == 1 else fourier(D, L, K),
        )
    code, out, err = run(capsys, "verify", "--a", "3", "--N", "9")
    assert (code, err) == (1, f"FAIL: {name}\n")
    report = _strict_json(out)
    assert report["ok"] is False
    for c in report["checks"]:
        assert c["ok"] is (c["name"] != name), c
        assert (c["residual"] is None) is (c["name"] == name), c


@pytest.mark.parametrize("a", [1, 0])
def test_verify_fails_an_infinite_weight(a):
    # One infinite weight, the real part of w_(N/2) set to inf before the
    # propagator's record is made, fails unitarity, cycle-products and
    # trace-formula under -W error, with no traceback.  D = 1 puts it in
    # the one cycle, D = N in a cycle of its own
    script = (
        "import math, sys\n"
        "from skewtorus import cli, propagator\n"
        "weights = propagator._weights\n"
        "def inf_weight(N):\n"
        "    w = weights(N)\n"
        "    assert len(w) == N\n"
        "    w[N // 2] = complex(math.inf, w[N // 2].imag)\n"
        "    return w\n"
        "propagator._weights = inf_weight\n"
        f"sys.exit(cli.main(['verify', '--a', '{a}', '--N', '2048']))\n"
    )
    proc = _python("-W", "error", "-c", script)
    assert (proc.returncode, proc.stderr) == (
        1,
        "FAIL: unitarity\nFAIL: cycle-products\nFAIL: trace-formula\n",
    )
    report = _strict_json(proc.stdout)
    failing = {c["name"]: c["residual"] for c in report["checks"] if not c["ok"]}
    assert failing == {"unitarity": None, "cycle-products": None, "trace-formula": None}


@pytest.mark.parametrize("value", [math.nan, 2])
@pytest.mark.parametrize("a, N, m", [(3, 9, 4), (4, 2048, 1027)])
def test_verify_names_the_failing_cycle(capsys, monkeypatch, a, N, m, value):
    # One corrupted weight w_m fails its own cycle, r = m mod D, and the
    # cycle-products detail names it: a NaN must rank above the finite
    # residuals of the other cycles, and a weight of modulus 2 doubles its
    # cycle's product.  The value goes into the real part of w_m before the
    # propagator's record is made; (3, 9) takes Bluestein's FFT, (4, 2048)
    # the radix-2 one
    weights = propagator._weights

    def corrupt(N):
        w = weights(N)
        w[m] = complex(value, w[m].imag)
        return w

    monkeypatch.setattr(propagator, "_weights", corrupt)
    code, out, err = run(capsys, "verify", "--a", str(a), "--N", str(N))
    assert code == 1 and "FAIL: cycle-products\n" in err
    report = _strict_json(out)
    D = report["D"]
    check = report["checks"][1]
    assert (check["name"], check["ok"]) == ("cycle-products", False)
    assert check["detail"] == (
        f"r = 0..{D - 1}: c_r against e(t_r/6D) under the FFT rounding model; "
        f"largest at r = {m % D}"
    )


@pytest.mark.parametrize("short", ["last", "all", "both"])
def test_verify_fails_a_trace_it_did_not_compare(capsys, monkeypatch, short):
    # (3, 9) has 2D = 6 lattice traces, and verify passes with all of them.
    # A trace missing from one side (the last, or every one) is a NaN
    # residual, not a pair that zip drops; with no trace on either side the
    # check has no residual at all, and fails, where all([]) would pass it
    code, out, _ = run(capsys, "verify", "--a", "3", "--N", "9")
    assert code == 0
    traces, sums = cli.trace_powers, cli.power_sums
    keep = -1 if short == "last" else 0
    monkeypatch.setattr(cli, "trace_powers", lambda U, n: traces(U, n)[:keep])
    if short == "both":
        monkeypatch.setattr(cli, "power_sums", lambda spec, n: sums(spec, n)[:0])
    code, out, err = run(capsys, "verify", "--a", "3", "--N", "9")
    assert (code, err) == (1, "FAIL: trace-formula\n")
    report = _strict_json(out)
    assert report["ok"] is False
    for c in report["checks"]:
        assert c["ok"] is (c["name"] != "trace-formula"), c
        assert (c["residual"] is None) is (c["name"] == "trace-formula"), c


def test_json_writer_refuses_non_finite_floats():
    # strict JSON has no NaN or Infinity token: the writer raises instead
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            cli._json(lambda: {"residual": value})(io.StringIO())


@pytest.mark.parametrize("a, N", [(3, 9), (24, 16)])
def test_verify_series_check_covers_its_ls(capsys, monkeypatch, a, N):
    # verify reads the spectrum and its block at L in {1/2, 1, 3/2, 7/3}, and
    # the series at those L with K = 2000; its residual is the largest gap
    Ls = {Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(7, 3)}
    calls = _record_series_checks(monkeypatch)
    code, out, _ = run(capsys, "verify", "--a", str(a), "--N", str(N))
    assert code == 0
    report = json.loads(out)
    D = report["D"]
    assert sorted(calls["fourier"]) == sorted((D, L, 2000) for L in Ls)
    # each L once on the spectrum and once on its block, both of that D
    assert Counter(calls["direct"]) == {(D, L): 2 for L in Ls}
    check = report["checks"][-1]
    assert check["name"] == "numvar-direct-vs-fourier"
    assert check["residual"] == _max_gap([eigenphases(Approximant(a, N))], Ls, 2000)


def test_verify_alpha_selection(capsys):
    code, out, _ = run(capsys, "verify", "--alpha", "golden", "--N", "5")
    assert code == 0
    assert json.loads(out)["a"] == 8


def test_verify_names_failing_check(capsys, monkeypatch):
    monkeypatch.setattr(cli, "unitarity_defect", lambda U: 1.0)
    code, out, err = run(capsys, "verify", "--a", "3", "--N", "9")
    assert code == 1
    assert "FAIL: unitarity" in err
    report = json.loads(out)
    assert report["ok"] is False
    assert report["checks"][0]["ok"] is False


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


def _readme_commands():
    """The argument lists of the `skewtorus ...` lines of README's usage block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    return [
        line.split("#", 1)[0].split()[1:]
        for line in block.splitlines()
        if line.startswith("skewtorus ")
    ]


def test_readme_usage_block_runs(tmp_path, capsys):
    commands = _readme_commands()
    assert len(commands) == 11
    for argv in commands:
        # figure1 --out writes into the test's directory, not the checkout
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
    assert (tmp_path / "figure1.csv").read_text().startswith("# D1,D2,D3,D6,D8,D9")


def test_python_m_skewtorus_help():
    proc = _python("-m", "skewtorus", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: skewtorus")


@pytest.mark.parametrize(
    "argv, code, usage",
    [
        # options a command does not act on are not registered for it
        ("orbit --format json", 2, True),
        ("witness --format json", 2, True),
        ("verify --format csv --a 3 --N 9", 2, True),
        ("figure1 --alpha sqrt2", 2, True),
        # exit 2, precision exhausted: the cf prefix cannot round N alpha or
        # hold the requested family
        ("approx --alpha cf:1,1,1 --N 1000000", 2, False),
        ("spectrum --alpha cf:1,1,1 --N 1000000", 2, False),
        ("approx --alpha cf:0 --N 5", 2, False),
        ("witness --alpha cf:1,1 --count 3", 2, False),
        # exit 2, bad input: alpha specs, missing or out-of-range selectors
        ("approx --alpha pi --N 5", 2, False),
        ("approx --alpha cf:1,x --N 5", 2, False),
        ("approx --alpha golden", 2, False),
        ("approx --alpha golden --N 0", 2, False),
        ("approx --alpha golden --D 0", 2, False),
        ("approx --alpha golden --D 3 --count -1", 2, False),
        ("spectrum --a 3", 2, False),
        ("spacing", 2, False),
        ("spectrum --a 1 --N -3", 2, False),
        ("numvar --method direct --a 3 --N 0 --L 1", 2, False),
        ("numvar --method fourier --D -1 --L 1", 2, False),
        ("numvar --method direct --D -2 --L 1", 2, False),
        ("figure1 --K 0", 2, False),
        ("witness --count -1", 2, False),
        ("orbit --T -1", 2, False),
        # exit 2: orbit --T above MAX_ORBIT_T, refused before any point is made
        ("orbit --alpha 0.7 --T 1000001", 2, False),
        ("orbit --alpha 0.7 --T 100000000", 2, False),
        # exit 2: --K above MAX_FOURIER_K, refused before the series is summed
        ("numvar --D 3 --L 1 --method fourier --K 1000001", 2, False),
        ("figure1 --K 1000001", 2, False),
        # exit 2: a period D = gcd(a, N) above spectrum.MAX_PERIOD, refused
        # before any level is made
        ("numvar --method direct --D 2000001 --L 1", 2, False),
        ("spacing --a 0 --N 2000001", 2, False),
        # exit 2: a spectrum of more than MAX_SPECTRUM_N = 2^50 rows
        ("spectrum --a 1 --N 1125899906842625", 2, False),
        # exit 2: a verify N above MAX_VERIFY_N, refused before any array is
        # made; no option raises the cap
        ("verify --a 1 --N 16385", 2, False),
        ("verify --a 1 --N 100000000000", 2, False),
        ("verify --alpha golden --N 1000000000000", 2, False),
        ("verify --a 1 --N 16385 --max-N 20000", 2, True),
        # exit 2: a series D whose 2 D^2 is past the float range, refused
        # before any table rather than ending in an OverflowError
        (f"numvar --method fourier --D {10**154} --L 1/3 --K 10", 2, False),
        (f"numvar --method fourier --D {10**200} --L 0 --K 10", 2, False),
        # exit 3: no closed form for this D
        ("numvar --method closed --D 4 --L 1", 3, False),
        ("numvar --method closed --D 5 --L 1", 3, False),
        ("numvar --method closed --D 7 --L 1", 3, False),
        # exit 4: an L grid that does not parse, has steps < 2, max <= min,
        # min < 0, or a value beyond the float range, in numvar and figure1
        ("numvar --D 1 --method closed --L abc", 4, False),
        ("numvar --D 1 --method closed --L 1:2", 4, False),
        ("numvar --D 1 --method closed --L 0:3:2.5", 4, False),
        ("numvar --D 1 --method closed --L 0:3:1", 4, False),
        ("numvar --D 1 --method closed --L 5:1:10", 4, False),
        ("numvar --D 1 --method closed --L 1:1:5", 4, False),
        ("numvar --D 1 --method closed --L=-1:3:10", 4, False),
        ("numvar --D 1 --method closed --L=-1", 4, False),
        ("numvar --D 1 --method closed --L 1e400", 4, False),
        ("figure1 --L 0:9:1", 4, False),
        ("figure1 --L 3:1:4", 4, False),
        # exit 4: more than MAX_L_STEPS steps, refused before any L is made
        ("numvar --D 3 --L 0:6:100001", 4, False),
        ("numvar --D 3 --L 0:6:100000000", 4, False),
        ("figure1 --L 0:9:100001", 4, False),
        # malformed input from the classes the cli docstring lists
        ("numvar --method fourier --L 1", 2, False),
        ("numvar --D 3 --L 1 --method fourier --K 0", 2, False),
        ("numvar --D 3 --L 1/0", 4, False),
        ("numvar --method direct --a 3 --N 9 --L 1e400", 4, False),
        ("numvar --D 1 --method closed --L 0:1e400:3", 4, False),
        ("spectrum --N 0", 2, False),
        ("orbit --alpha 0 --T 1", 2, False),
        ("orbit --alpha 1e400", 2, False),
        ("orbit --alpha=-1e400", 2, False),
        ("orbit --alpha 1e-330 --T 2", 2, False),
        ("orbit --p nan", 2, False),
        ("orbit --q inf", 2, False),
        ("numvar --method fourier --D 0 --L 1", 2, False),
        ("numvar --method closed --D 0 --L 1", 2, False),
        ("numvar --method closed --D -3 --L 1", 2, False),
        ("numvar --method direct --D 0 --L 1", 2, False),
        # --D must agree with gcd(a, N) when --N or --a is given
        ("numvar --method direct --D 8 --N 100 --L 1", 2, False),
        ("numvar --method direct --D 3 --a 3 --N 10 --L 1", 2, False),
        # closed and fourier depend on D alone and take no approximant
        ("numvar --method closed --D 3 --N 100 --L 1", 2, False),
        ("numvar --method fourier --D 3 --a 5 --N 10 --L 1", 2, False),
        # --K orders the fourier series only; --count sizes a --D family only
        ("numvar --method closed --D 3 --L 1 --K 5", 2, False),
        ("numvar --method direct --D 3 --L 1 --K 5", 2, False),
        ("approx --alpha golden --N 1000 --count 7", 2, False),
        # verify's fourier order is fixed
        ("verify --a 3 --N 9 --K 100", 2, True),
    ],
)
def test_exit_code_table(capsys, argv, code, usage):
    if usage:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv.split())
        assert exc.value.code == code
    else:
        assert cli.main(argv.split()) == code
    out, err = capsys.readouterr()
    assert out == "" and err
    if not usage:
        assert err.startswith("error: ") and err.count("\n") == 1


def test_size_caps_admit_the_cap(capsys, monkeypatch):
    # the caps are the exit-code table's refused values less one; the layer
    # calls are stubbed, since the real work at the caps takes seconds
    caps = (cli.MAX_L_STEPS, cli.MAX_ORBIT_T, cli.MAX_FOURIER_K)
    assert caps == (100_000, 1_000_000, 1_000_000)
    monkeypatch.setattr(cli, "number_variance_closed", lambda D, L: 0)
    code, out, _ = run(capsys, "numvar", "--D", "3", "--L", "0:6:100000")
    assert code == 0 and out.count("\n") == 1 + 100_000
    assert out.endswith("\n6.0,0.0,closed-form,3,\n")
    monkeypatch.setattr(cli, "number_variance_fourier", lambda D, L, K: (0, K))
    argv = ("numvar", "--method", "fourier", "--D", "3", "--L", "1", "--K", "1000000")
    assert run(capsys, *argv) == (
        0,
        "L,value,method,D,truncation_bound\n1.0,0.0,fourier(K=1000000),3,1000000\n",
        "",
    )
    seen = []
    monkeypatch.setattr(cli, "orbit", lambda pt, alpha, T: seen.append(T) or [pt])
    code, out, _ = run(capsys, "orbit", "--alpha", "0.7", "--T", "1000000")
    assert (code, out, seen) == (0, "t,p,q\n0,0.0,0.0\n", [1_000_000])


def test_dimension_guard(capsys, monkeypatch):
    # N = MAX_VERIFY_N reaches the propagator, stubbed since the real run
    # takes seconds; the exit-code table refuses an N above it
    seen = []

    def build(app):
        seen.append(app.N)
        raise ValueError("built")

    monkeypatch.setattr(cli, "build_propagator", build)
    assert run(capsys, "verify", "--a", "1", "--N", "16384") == (2, "", "error: built\n")
    assert seen == [16384]


def test_fourier_admits_d_within_the_float_range(capsys):
    # 2 D^2 fits a float for D = 10^153 and for the largest such D; one more is refused
    largest = math.isqrt(int(sys.float_info.max) // 2)
    argv = ("numvar", "--method", "fourier", "--L", "1/3", "--K", "10", "--D")
    for D in (10**153, largest):
        code, out, err = run(capsys, *argv, str(D))
        assert (code, err) == (0, ""), D
        _, value, _, _, bound = out.splitlines()[1].split(",")
        assert math.isfinite(float(value)) and math.isfinite(float(bound)), D
    code, out, err = run(capsys, *argv, str(largest + 1))
    assert (code, out) == (2, "") and err.endswith("2 D^2 exceeds the float range\n")


def test_period_cap_boundary(capsys, monkeypatch):
    # eigenphases makes every spectrum, so its one check covers spectrum,
    # spacing and numvar --method direct, with --a/--N or with --D
    monkeypatch.setattr(spectrum, "MAX_PERIOD", 12)
    for argv in (
        ("spectrum", "--a", "0", "--N"),
        ("spacing", "--a", "0", "--N"),
        ("numvar", "--method", "direct", "--L", "1", "--a", "0", "--N"),
        ("numvar", "--method", "direct", "--L", "1", "--D"),
    ):
        assert run(capsys, *argv, "12")[0] == 0, argv
        assert run(capsys, *argv, "13") == (
            2, "", "error: period D = 13 exceeds the cap of 12 levels\n"
        ), argv


def test_spectrum_row_cap_boundary(tmp_path, capsys, monkeypatch):
    # N = 2^50 rows is the last the decimal tails hold for; one more is
    # refused before --out is opened.  The writer is stubbed at the cap.
    assert cli.MAX_SPECTRUM_N == 1 << 50
    seen = []
    monkeypatch.setattr(cli, "spectrum_to_csv", lambda spec, out: seen.append(spec.N))
    out = tmp_path / "rows.csv"
    argv = ("spectrum", "--a", "1", "--out", str(out), "--N")
    assert run(capsys, *argv, str(1 << 50)) == (0, "", "")
    assert seen == [1 << 50] and out.read_text() == ""
    out.unlink()
    assert run(capsys, *argv, str((1 << 50) + 1)) == (
        2, "", "error: --N 1125899906842625 exceeds the cap of 1125899906842624 rows\n"
    )
    assert seen == [1 << 50] and not out.exists()


@pytest.mark.parametrize("name", ["missing/x.csv", "."])
def test_unwritable_out_is_bad_input(tmp_path, capsys, name):
    out = tmp_path / name
    assert cli.main(["spectrum", "--a", "3", "--N", "9", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write --out")
    assert captured.err.count("\n") == 1


def test_spectrum_json_out_file_matches_stdout(tmp_path, capsys):
    argv = ["spectrum", "--a", "24", "--N", "16", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "spec.json"
    assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert path.read_bytes() == out.encode()
    assert len(json.loads(out)) == 16


def test_closed_stdout_exits_quietly():
    # the reader stops after one line of a 3 MB output, as `| head -1` does
    with subprocess.Popen(
        [sys.executable, "-m", "skewtorus", "spectrum", "--a", "1", "--N", "100000"],
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        try:
            assert proc.stdout.readline() == b"eta,l,numerator,denominator,decimal\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        finally:
            proc.kill()
    assert err == b""


def test_closed_stdout_exits_quietly_from_a_table():
    # as above for a _table command: orbit's 10^5 lines go out in blocks
    with subprocess.Popen(
        [sys.executable, "-m", "skewtorus", "orbit", "--alpha", "0.7", "--T", "100000"],
        env=dict(_env(), PYTHONUNBUFFERED="1"),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        try:
            assert proc.stdout.readline() == b"t,p,q\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        finally:
            proc.kill()
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("to_out", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--a", "5", "--N", "10"],
        ["approx", "--N", "1000"],
        ["verify", "--a", "3", "--N", "9"],
        ["witness"],
    ],
    ids=lambda argv: argv[0],
)
def test_failed_write_exits_2(argv, to_out):
    # every write to /dev/full fails with ENOSPC, through --out or stdout
    out = ["--out", "/dev/full"] if to_out else []
    with open(os.devnull if to_out else "/dev/full", "w") as stdout:
        proc = subprocess.run(
            [sys.executable, "-m", "skewtorus", *argv, *out],
            env=_env(),
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write the output: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_runs_without_scipy():
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from skewtorus import cli\n"
        "assert cli.main(['numvar', '--D', '8', '--L', '1/2', '--method', 'fourier',"
        " '--K', '1000']) == 0\n"
        "assert cli.main(['figure1', '--L', '0:9:10']) == 0\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr


# Every command runs with numpy blocked: the package has no runtime
# dependency.  spacing and numvar --method direct read one period of D
# levels, at any N; spectrum tiles its rows from that period, and the
# fourier series (figure1, numvar --method fourier) takes its Gauss sums in
# closed form.  verify's weights take a Python FFT at every N, radix 2 at
# the powers of two and Bluestein's elsewhere, and its cycle products,
# trace loop and power sums run on Python complex numbers: D = 1 and
# D = N up to the cap, and the primes 191 and 16381, among them.
NO_NUMPY_COMMANDS = [
    ("verify --a 3 --N 9", 0),
    ("verify --a 440 --N 272", 0),
    ("verify --a 0 --N 7", 0),
    ("verify --a 0 --N 272", 0),
    ("verify --a 0 --N 1024", 0),
    ("verify --a 5 --N 191", 0),
    ("verify --a 1 --N 2048", 0),
    ("verify --a 1 --N 4096", 0),
    ("verify --a 0 --N 4096", 0),
    ("verify --a 1 --N 16384", 0),
    ("verify --a 0 --N 16384", 0),
    ("verify --a 16381 --N 16381", 0),
    ("spectrum --a 24 --N 16", 0),
    ("spectrum --a 8 --N 13 --format json", 0),
    ("spectrum --a 0 --N 5000", 0),
    ("spectrum --a 0 --N 4097 --format json", 0),
    ("figure1", 0),
    ("figure1 --format json --L 0:9:19", 0),
    ("numvar --method fourier --D 8 --L 0:6:13", 0),
    ("numvar --method fourier --D 9 --L 1/2 --K 1000 --format json", 0),
    ("approx --alpha golden --N 1000", 0),
    ("approx --alpha golden --D 3 --count 3", 0),
    ("approx --alpha sqrt2 --N 985 --format json", 0),
    ("numvar --D 3 --L 0:6:301 --method closed", 0),
    ("numvar --D 1 --L 0:4:201 --method closed --poisson", 0),
    ("numvar --D 6 --L 0:6:31 --method closed --format json", 0),
    ("orbit --alpha 0.61803398875 --T 100 --p 0.25", 0),
    ("spacing --a 24 --N 15", 0),
    ("spacing --alpha golden --N 1000000000000 --format json", 0),
    ("numvar --method direct --a 13 --N 21 --L 0:6:7", 0),
    ("numvar --method direct --alpha golden --N 1000000000000 --L 0:6:7", 0),
    ("numvar --method direct --D 9 --L 1/3:17/3:9 --format json", 0),
    ("numvar --method direct --D 3 --a 24 --N 15 --L 7/3", 0),
    ("approx --alpha cf:1,1,1 --N 1000", 2),
    ("numvar --method closed --D 3 --N 100 --L 1", 2),
    ("numvar --method direct --D 3 --L 1 --K 5", 2),
    ("approx --alpha golden --N 1000 --count 7", 2),
    ("verify --a 1 --N 16385", 2),
    ("verify --a 1 --N 100000000000", 2),
    ("verify --alpha golden --N 1000000000000", 2),
    ("numvar --D 5 --L 1 --method closed", 3),
    ("numvar --D 3 --L 3:1:5", 4),
]


def test_exact_commands_run_without_numpy(tmp_path):
    # README's usage block and the commands above, each with its exit code;
    # every verify report that exits 0 says ok at every check.  figure1
    # --out writes into the test's directory
    commands = [
        ([str(tmp_path / a) if a.endswith(".csv") else a for a in argv], 0)
        for argv in _readme_commands()
    ]
    commands += [(argv.split(), code) for argv, code in NO_NUMPY_COMMANDS]
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "sys.modules['dataclasses'] = None\n"
        "import skewtorus\n"
        "from skewtorus import cli\n"
        f"for argv, code in {commands!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert cli.main(argv) == code, argv\n"
        "    if argv[0] == 'verify' and code == 0:\n"
        "        report = json.loads(out.getvalue())\n"
        "        assert report['ok'] and all(c['ok'] for c in report['checks']), argv\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_does_not_load_numpy():
    script = (
        "import sys\n"
        "import skewtorus.cli\n"
        "assert not {'numpy', 'dataclasses', 'json'} & set(sys.modules)\n"
        "assert skewtorus.cli.main(['verify', '--a', '3', '--N', '9']) == 0\n"
        "assert skewtorus.cli.main(['verify', '--a', '1', '--N', '2048']) == 0\n"
        "assert not {'numpy', 'dataclasses'} & set(sys.modules)\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    reports = proc.stdout.replace("}\n{", "}\n\0{").split("\0")
    assert [json.loads(r)["ok"] for r in reports] == [True, True]


def test_verify_does_not_load_numpy_random():
    # A verify in a process that has imported numpy loads nothing more of
    # it: numpy.random's first import costs about 10 ms.  N = 2048 takes the
    # radix-2 FFT.  numpy 1.22 loads numpy.random with numpy itself; there
    # the test has nothing to see
    script = (
        "import sys\n"
        "import numpy\n"
        "if 'numpy.random' in sys.modules:\n"
        "    sys.exit(3)\n"
        "import skewtorus.cli\n"
        "assert skewtorus.cli.main(['verify', '--a', '1', '--N', '2048']) == 0\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    proc = _python("-c", script)
    if proc.returncode == 3:
        pytest.skip("import numpy loads numpy.random")
    assert proc.returncode == 0, proc.stderr


# Each command imports only the library layers it runs; the layers that the
# statistics layer imports itself (diophantine, spectrum) come with it.
_LAYERS_LOADED = (
    "import sys\n"
    "import skewtorus.cli\n"
    "argv = sys.argv[1:]\n"
    "code = skewtorus.cli.main(argv) if argv else 0\n"
    "layers = {m.split('.')[1] for m in sys.modules if m.startswith('skewtorus.')}\n"
    "print(code, *sorted(layers - {'cli'}), file=sys.stderr)\n"
)


@pytest.mark.parametrize(
    "argv, code, layers",
    [
        ("", 0, ""),
        ("approx --alpha golden --N 1000", 0, "diophantine"),
        ("spectrum --a 3 --N 9", 0, "diophantine spectrum"),
        ("spacing --a 3 --N 9", 0, "diophantine spectrum statistics"),
        ("witness --count 2", 0, "diophantine spectrum statistics"),
        ("numvar --D 3 --L 1", 0, "diophantine spectrum statistics"),
        ("numvar --D 3 --L 3:1:5", 4, ""),
        ("numvar --D 3 --L 1 --K 5", 2, ""),
        ("figure1 --L 0:1:3", 0, "diophantine spectrum statistics"),
        ("orbit --T 3", 0, "classical diophantine"),
        ("orbit --alpha 0.5 --T 3", 0, "classical diophantine"),
        ("verify --a 3 --N 9", 0, "diophantine propagator spectrum statistics"),
    ],
)
def test_command_loads_only_its_layers(argv, code, layers):
    proc = _python("-c", _LAYERS_LOADED, *argv.split())
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == f"{code} {layers}".rstrip()


def test_cli_names_are_the_layers_objects():
    # the package's table is the one name-to-layer map, and _use binds from it
    script = (
        "import importlib\n"
        "import skewtorus\n"
        "from skewtorus import cli\n"
        "layers = skewtorus._LAYERS\n"
        "assert len(skewtorus._LAYER_OF) == sum(map(len, layers.values()))\n"
        "assert 'spacings' not in vars(cli) and hasattr(cli, 'spacings')\n"
        "for layer, names in layers.items():\n"
        "    cli._use(layer)\n"
        "    module = importlib.import_module('skewtorus.' + layer)\n"
        "    for name in names:\n"
        "        assert vars(cli)[name] is getattr(module, name), name\n"
        "assert not hasattr(cli, 'trace_power_analytic')\n"
        "namespace = {}\n"
        "exec('from skewtorus import *', namespace)\n"
        "assert set(skewtorus.__all__) <= set(namespace)\n"
        "assert set(skewtorus.__all__) <= set(dir(skewtorus))\n"
        "assert not hasattr(skewtorus, 'trace_power_analytic')\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_package_exports_only_what_commands_and_demos_use():
    # every exported name but a class is a name in cli.py or in a demo's code
    demos = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    used = {
        node.id
        for path in (Path(cli.__file__), *demos)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name)
    }
    assert demos
    unused = [
        name
        for name in skewtorus.__all__
        if not inspect.isclass(getattr(skewtorus, name)) and name not in used
    ]
    assert unused == []


@pytest.mark.parametrize(
    "argv, name",
    [
        ("approx --N 1000", "nearest_approximant"),
        ("spectrum --a 3 --N 9", "eigenphases"),
        ("spacing --a 3 --N 9", "spacings"),
        ("numvar --D 3 --L 1", "number_variance_closed"),
        ("figure1 --L 0:1:3", "number_variance_direct"),
        ("witness", "divergence_witness"),
        ("orbit --T 3", "orbit"),
        ("verify --a 3 --N 9", "build_propagator"),
    ],
)
def test_patch_before_first_command_is_called(argv, name):
    # a plain assignment, made before any command has bound the layer's name
    script = (
        "import sys\n"
        "from skewtorus import cli\n"
        "def patched(*args, **kwargs):\n"
        f"    raise ValueError('patched {name}')\n"
        f"cli.{name} = patched\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    proc = _python("-c", script, *argv.split())
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: patched {name}\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        ("approx --alpha cf:1,2,2 --N 1000", 2),
        ("numvar --D 5 --L 1 --method closed", 3),
        ("numvar --D 3 --L x", 4),
    ],
)
def test_exit_code_as_first_command(argv, code):
    proc = _python("-m", "skewtorus", *argv.split())
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_cli_defaults_are_pinned():
    # README and CI quote these values
    assert (cli.MAX_VERIFY_N, cli.DEFAULT_FOURIER_K, cli.PYTHON_OPS) == (16384, 10_000, 1 << 16)


def test_default_count_is_three(capsys):
    family = run(capsys, "approx", "--alpha", "golden", "--D", "3")
    assert family == run(capsys, "approx", "--alpha", "golden", "--D", "3", "--count", "3")
    assert family[0] == 0 and family[1].count("\n") == 1 + 3
    witness = run(capsys, "witness")
    assert witness[0] == 0 and witness == run(capsys, "witness", "--count", "3")


@pytest.mark.parametrize(
    "command, phrase",
    [
        ("numvar", f"(method fourier; default {cli.DEFAULT_FOURIER_K})"),
        ("approx", f"family size, with --D (default {cli.DEFAULT_COUNT})"),
        ("figure1", f"series truncation order (default {cli.DEFAULT_FOURIER_K})"),
        ("witness", f"members per family (default {cli.DEFAULT_COUNT})"),
        ("orbit", "--p P initial p (default 0.0) --q Q initial q (default 0.0)"),
        ("orbit", "--T T orbit points (default 1000)"),
    ],
)
def test_help_names_each_numeric_default(capsys, command, phrase):
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    assert phrase in " ".join(capsys.readouterr().out.split())
