"""Regenerate refs.json, the stored outputs of every exact-output variant.

    python3 bench/make_refs.py

Run from the root of a checkout of the commit whose outputs are the
reference.  The CLI runs in-process; stdout is stored as its SHA-256 and
length.  Every other variant is run too and must pass its check, so a
variant that fails at the reference commit is caught here.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import REFS, SRC
from workloads import QUICK, WORKLOADS

sys.path.insert(0, str(SRC))

from gate import check  # noqa: E402
from skewtorus.cli import main  # noqa: E402
from tracer import call_cli  # noqa: E402


def main_refs():
    slots = [s for group in (*WORKLOADS.values(), *QUICK.values()) for s in group]
    refs = {}
    for slot in slots:
        for argv in slot.variants:
            if slot.kind != "exact":
                continue
            code, out = call_cli(main, argv)
            if code != 0:
                raise SystemExit(f"{' '.join(argv)}: exit {code}")
            refs[" ".join(argv)] = {"sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out)}
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    for slot in slots:
        for argv in slot.variants:
            reason = check(slot.kind, argv, *call_cli(main, argv), refs)
            print(f"{'FAIL ' + reason if reason else 'ok'}: {' '.join(argv)}", flush=True)


if __name__ == "__main__":
    main_refs()
