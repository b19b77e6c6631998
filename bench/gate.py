"""Output checks for benchmark commands; each returns None or a reason string.

The checks do not import the program: exact outputs are compared with stored
hashes, and series and orbit outputs with values computed here from closed
forms.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
from collections import Counter
from fractions import Fraction
from math import gcd


def _opt(argv, name, default=None):
    """Value of a --name option in argv (the last one wins, as in argparse)."""
    value = default
    for i, tok in enumerate(argv[:-1]):
        if tok == name:
            value = argv[i + 1]
    return value


def _grid(text):
    """The CLI's L grid: "min:max:steps" or a single rational value."""
    if ":" not in text:
        return [Fraction(text)]
    lo, hi, steps = text.split(":")
    lo, hi, steps = Fraction(lo), Fraction(hi), int(steps)
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _b2(x):
    """Bernoulli polynomial B2 of the fractional part of x."""
    x -= math.floor(x)
    return x * x - x + Fraction(1, 6)


@functools.lru_cache(maxsize=None)
def sigma2_exact(D, L):
    """Exact Sigma^2_D(L) from the reduced spectrum r = {-eta^2 mod D}.

    Summing the Gauss-sum series with sum_k cos(2 pi k y) / k^2 = pi^2 B2({y})
    gives sum_{i,j} [B2(d/D) - B2((d + L)/D)/2 - B2((d - L)/D)/2] with
    d = r_i - r_j, grouped here by d mod D.
    """
    r = [(-eta * eta) % D for eta in range(1, D + 1)]
    diffs = Counter((x - y) % D for x in r for y in r)
    total = Fraction(0)
    for d, count in diffs.items():
        y = Fraction(d, D)
        total += count * (_b2(y) - (_b2(y + L / D) + _b2(y - L / D)) / 2)
    return total


def _series_gap(value, bound, D, L, K):
    """Reason if a truncated series value is not certified by its bound."""
    if not 0 <= bound <= 2 * D * D / (math.pi**2 * K):
        return f"truncation bound {bound!r} outside (0, 2 D^2 / (pi^2 K)] for D={D}"
    gap = abs(value - float(sigma2_exact(D, Fraction(L))))
    if gap > bound:
        return f"D={D} L={L}: series off the exact value by {gap!r} > bound {bound!r}"
    return None


def check_exact(argv, code, out, refs):
    ref = refs.get(" ".join(argv))
    if ref is None:
        return "no stored reference"
    if code != 0:
        return f"exit {code}"
    if len(out) != ref["bytes"] or hashlib.sha256(out).hexdigest() != ref["sha256"]:
        return f"output differs from the reference ({len(out)} vs {ref['bytes']} bytes)"
    return None


def check_figure1(argv, code, out, refs):
    if code != 0:
        return f"exit {code}"
    Ls = _grid(_opt(argv, "--L", "0:9:451"))
    K = int(_opt(argv, "--K", "10000"))
    text = out.decode()
    if _opt(argv, "--format") == "json":
        doc = json.loads(text)
        bounds = {D: doc["meta"]["truncation_bounds"][f"D{D}"] for D in (8, 9)}
        rows = [[row["L"]] + [row[f"D{D}"] for D in (1, 2, 3, 6, 8, 9)] for row in doc["rows"]]
    else:
        lines = text.splitlines()
        m = re.search(r"D8<=([^,]+), D9<=([^;]+);", lines[0])
        if m is None or lines[1] != "L,D1,D2,D3,D6,D8,D9":
            return "unexpected figure1 header"
        bounds = {8: float(m.group(1)), 9: float(m.group(2))}
        rows = [[float(x) for x in line.split(",")] for line in lines[2:]]
    if len(rows) != len(Ls):
        return f"{len(rows)} rows for {len(Ls)} L values"
    for L, row in zip(Ls, rows):
        if row[0] != float(L):
            return f"L column {row[0]!r} != {float(L)!r}"
        for D, v in zip((1, 2, 3, 6), row[1:5]):
            if v != float(sigma2_exact(D, Fraction(L))):
                return f"exact column D{D} at L={L}: {v!r}"
        for D, v in zip((8, 9), row[5:]):
            reason = _series_gap(v, bounds[D], D, L, K)
            if reason:
                return reason
    return None


def check_fourier(argv, code, out, refs):
    if code != 0:
        return f"exit {code}"
    D, K = int(_opt(argv, "--D")), int(_opt(argv, "--K", "10000"))
    Ls = _grid(_opt(argv, "--L"))
    lines = out.decode().splitlines()
    if lines[0] != "L,value,method,D,truncation_bound" or len(lines) != len(Ls) + 1:
        return "unexpected fourier rows"
    for L, line in zip(Ls, lines[1:]):
        sL, value, method, sD, bound = line.split(",")
        if (float(sL), method, int(sD)) != (float(L), f"fourier(K={K})", D):
            return f"exact columns differ: {line}"
        reason = _series_gap(float(value), float(bound), D, L, K)
        if reason:
            return reason
    return None


def check_orbit(argv, code, out, refs):
    """Compare with the exact orbit of the same float inputs.

    The CLI iterates in floats; each step adds at most one rounding to p and
    carries p's error into q, so after T steps the torus distance is below
    T^2 * 2^-52.  The tolerance is twice that.  The exact orbit is kept as
    integers over the common power-of-two denominator of the inputs.
    """
    if code != 0:
        return f"exit {code}"
    T = int(_opt(argv, "--T", "1000"))
    inputs = [float(Fraction(_opt(argv, "--alpha")))]
    inputs += [float(_opt(argv, name, "0.0")) % 1 for name in ("--p", "--q")]
    scale = max(x.as_integer_ratio()[1] for x in inputs)
    alpha, p, q = (x.as_integer_ratio()[0] * (scale // x.as_integer_ratio()[1]) for x in inputs)
    tol = 2 * T * T * 2.0**-52
    lines = out.decode().splitlines()
    if lines[0] != "t,p,q" or len(lines) != T + 1:
        return "unexpected orbit rows"
    worst = 0.0
    for t, line in enumerate(lines[1:]):
        st, sp, sq = line.split(",")
        if int(st) != t:
            return f"row {t} labelled {st}"
        for got, want in ((float(sp), p), (float(sq), q)):
            d = abs(got - want / scale) % 1
            worst = max(worst, min(d, 1 - d))
        p, q = (p + alpha) % scale, (q + 2 * p) % scale
    if worst > tol:
        return f"orbit off the closed form by {worst!r} > {tol!r}"
    return None


def check_verify(argv, code, out, refs):
    if code != 0:
        return f"exit {code}"
    report = json.loads(out)
    a, N = int(_opt(argv, "--a")), int(_opt(argv, "--N"))
    D = gcd(a, N)
    want = {"a": a, "N": N, "D": D, "M": N // D}
    got = {k: report.get(k) for k in want}
    if got != want:
        return f"report is for {got}, asked for {want}"
    failing = [c["name"] for c in report["checks"] if c.get("ok") is not True]
    if report.get("ok") is not True or failing or not report["checks"]:
        return f"checks not passing: {failing}"
    return None


def check_exit(expected):
    def check(argv, code, out, refs):
        if code != expected:
            return f"exit {code}, expected {expected}"
        if out:
            return "error path wrote to stdout"
        return None

    return check


CHECKS = {
    "exact": check_exact,
    "figure1": check_figure1,
    "fourier": check_fourier,
    "orbit": check_orbit,
    "verify": check_verify,
    "exit:2": check_exit(2),
    "exit:3": check_exit(3),
    "exit:4": check_exit(4),
}


def check(kind, argv, code, out, refs):
    """Reason the output of one command is wrong, or None if it is right."""
    try:
        return CHECKS[kind](list(argv), code, out, refs)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {exc!r}"
