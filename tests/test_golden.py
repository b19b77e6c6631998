"""Byte-identity of exact CLI output against the benchmark's stored references.

bench/refs.json holds the stdout length and SHA-256 of every exact-output
command the benchmark runs, recorded once from a known-good build.  Every
command in it (approx, spectrum, spacing, numvar and witness) is replayed
here in-process, so a change that alters a single byte of that output fails
the tier-1 suite.
"""

import hashlib
import json
from pathlib import Path

import pytest

from skewtorus import cli

REFS_PATH = Path(__file__).resolve().parents[1] / "bench" / "refs.json"
REFS = json.loads(REFS_PATH.read_text())
COMMANDS = sorted(REFS)


def test_refs_cover_every_exact_command():
    assert {k.split()[0] for k in COMMANDS} == {
        "approx", "spectrum", "spacing", "numvar", "witness"
    }


@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_reference(capsys, command):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out.encode()
    ref = REFS[command]
    assert len(out) == ref["bytes"]
    assert hashlib.sha256(out).hexdigest() == ref["sha256"]
