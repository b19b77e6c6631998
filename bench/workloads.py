"""Command lists of the three benchmark workloads.

A workload is a list of slots.  Each slot lists argument variants of equal
cost (same N, same D = gcd(a, N), same L grid or same sizes), so the seed can
pick one per slot without changing the work done.  Every variant whose output
is exact has a stored reference in refs.json (see make_refs.py).

Check kinds, applied by gate.py after timing:
  exact    stdout is byte-identical to the stored reference
  figure1  exact columns equal the exact rational values; series columns
           within their printed truncation bound of the exact value
  fourier  numvar --method fourier rows, same rule as figure1's series columns
  orbit    every point within a stated torus distance of the closed form
  verify   exit 0, every check ok, a/N/D/M as requested
  exit:K   exit code K (a documented error path) and empty stdout
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Slot:
    kind: str
    variants: tuple


def _slot(kind, *variants):
    return Slot(kind, tuple(tuple(v.split()) for v in variants))


def _verify(N, *avals):
    return _slot("verify", *(f"verify --a {a} --N {N}" for a in avals))


# verify-ladder: the matrix layers (build, unitarity, 2N dense products, power
# sums) dominate.  Mixed D runs every verify branch: D in {1, 2, 3} checks the
# spacing law, D = 6 and 8 skip it, D = 8 skips the closed-form comparison.
# The top rung stays near N = 272 because the O(N^4) traces make N = 512 take
# over 20 s; the middle rungs are kept small so that a run fits three passes.
VERIFY_LADDER = (
    _verify(144, 233, 89, 377),  # D = 1
    _verify(140, 198, 338, 58),  # D = 2
    _verify(201, 324, 123, 525),  # D = 3
    _verify(174, 282, 108, 456),  # D = 6
    _verify(272, 440, 168, 712),  # D = 8
    _verify(155, 251, 96, 406),  # D = 1
)

# exact-sweep: no matrix work.  Time goes to the quadratic exact Sigma^2
# sweep, to building ~10^5 Fraction eigenphases, and to writing MB-sized
# output (spectrum CSV 2.9 MB, spectrum JSON 5.7 MB).  The largest sweep and
# the spacing run are kept below ~2.5 s so that a run fits three passes.
EXACT_SWEEP = (
    _slot(
        "exact",
        *(f"numvar --method direct --a {a} --N 1597 --L 0:6:7" for a in (2584, 987, 4181)),
    ),
    _slot(
        "exact",
        *(f"numvar --method direct --a {a} --N 1864 --L 0:6:7" for a in (3016, 1000, 2792)),
    ),
    _slot(
        "exact",
        *(
            f"numvar --method direct --a {a} --N 1317 --L 1/3:17/3:9"
            for a in (2133, 1203, 2529)
        ),
    ),
    _slot("exact", *(f"spectrum --a {a} --N 121393" for a in (196418, 75025, 317811))),
    _slot(
        "exact",
        *(f"spectrum --a {a} --N 53133 --format json" for a in (85971, 32838, 139104)),
    ),
    _slot("exact", *(f"spacing --a {a} --N 85971" for a in (139104, 53133, 225075))),
)

# cli-mix: the README's command list plus others, every command short, so
# interpreter start and import dominate.  The README's
# "approx --alpha golden --count 8" is left out: it exits 2 at the seed
# commit (approx needs exactly one of --N and --D).
CLI_MIX = (
    _slot("figure1", "figure1", "figure1 --L 1/4:37/4:451", "figure1 --L 1/2:19/2:451"),
    _slot(
        "figure1",
        "figure1 --format json",
        "figure1 --format json --L 1/4:37/4:451",
        "figure1 --format json --L 1/2:19/2:451",
    ),
    _slot(
        "exact",
        "numvar --D 3 --L 0:6:301 --method closed",
        "numvar --D 6 --L 0:6:301 --method closed",
        "numvar --D 1 --L 0:6:301 --method closed",
    ),
    _slot(
        "exact",
        "numvar --D 1 --L 0:4:201 --method closed --poisson",
        "numvar --D 2 --L 0:4:201 --method closed --poisson",
    ),
    _slot(
        "fourier",
        "numvar --D 8 --L 1/2 --method fourier --K 100000",
        "numvar --D 9 --L 1/2 --method fourier --K 100000",
        "numvar --D 8 --L 7/3 --method fourier --K 100000",
    ),
    _slot(
        "exact",
        "approx --alpha golden --N 1000",
        "approx --alpha sqrt2 --N 1000",
        "approx --alpha cf:0,3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3,2,3,8,4,6 --N 1000",
    ),
    _slot(
        "exact",
        "approx --alpha golden --N 987 --format json",
        "approx --alpha sqrt2 --N 985 --format json",
    ),
    _slot(
        "exact",
        "approx --alpha sqrt2 --D 2 --count 3",
        "approx --alpha golden --D 3 --count 3",
    ),
    _slot("exact", "spectrum --a 3 --N 9", "spectrum --a 6 --N 9", "spectrum --a 12 --N 9"),
    _slot(
        "exact",
        "spectrum --a 8 --N 13 --format json",
        "spectrum --a 5 --N 13 --format json",
    ),
    _slot("exact", "spacing --a 24 --N 15", "spacing --a 9 --N 15", "spacing --a 39 --N 15"),
    _slot(
        "exact", "witness --alpha golden --count 3", "witness --alpha sqrt2 --count 3"
    ),
    _slot(
        "orbit",
        "orbit --alpha 0.7 --T 20000",
        "orbit --alpha 0.61803398875 --T 20000 --p 0.25",
        "orbit --alpha 0.41421356237 --T 20000 --q 0.5",
    ),
    _slot("verify", "verify --a 3 --N 9", "verify --a 6 --N 9", "verify --a 12 --N 9"),
    _slot("exact", "spectrum --a 5 --N 8", "spectrum --a 3 --N 8"),
    _slot(
        "exit:2",
        "approx --alpha cf:1,1,1 --N 1000",
        "approx --alpha cf:1,2,2 --N 1000",
    ),
    _slot(
        "exit:3",
        "numvar --D 5 --L 1 --method closed",
        "numvar --D 7 --L 1 --method closed",
        "numvar --D 4 --L 1 --method closed",
    ),
    _slot("exit:4", "numvar --D 3 --L 3:1:5", "numvar --D 3 --L 0:6:1", "numvar --D 3 --L x"),
)

# Tiny inputs for the benchmark's own test; every check kind appears.
QUICK = {
    "verify-ladder": (
        _slot("verify", "verify --a 13 --N 8"),
        _slot("verify", "verify --a 6 --N 10"),
        _slot("verify", "verify --a 3 --N 9"),
        _slot("verify", "verify --a 8 --N 16"),
    ),
    "exact-sweep": (
        _slot("exact", "numvar --method direct --a 13 --N 21 --L 0:6:7"),
        _slot("exact", "spectrum --a 13 --N 21"),
        _slot("exact", "spectrum --a 3 --N 9 --format json"),
        _slot("exact", "spacing --a 24 --N 15"),
    ),
    "cli-mix": (
        _slot("figure1", "figure1 --L 0:9:10"),
        _slot("figure1", "figure1 --format json --L 0:9:10 --K 1000"),
        _slot("fourier", "numvar --D 9 --L 1/2 --method fourier --K 1000"),
        _slot("orbit", "orbit --alpha 0.61803398875 --T 100 --p 0.25"),
        _slot("exit:2", "approx --alpha cf:1,1,1 --N 1000"),
        _slot("exit:3", "numvar --D 5 --L 1 --method closed"),
        _slot("exit:4", "numvar --D 3 --L 3:1:5"),
    ),
}

WORKLOADS = {
    "verify-ladder": VERIFY_LADDER,
    "exact-sweep": EXACT_SWEEP,
    "cli-mix": CLI_MIX,
}

# Median wall time of one pass at the seed commit on a 2-core Xeon VM
# (Python 3.11, numpy 2.4, one BLAS thread).  A run makes
# round(seconds / PASS_S) whole passes (at least MIN_LATENCIES commands, see
# run.py), so the number of commands in a run, and hence which command each
# latency percentile lands on, does not change when the program gets faster.
PASS_S = {"verify-ladder": 11.3, "exact-sweep": 13.4, "cli-mix": 11.8}
