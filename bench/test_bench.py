"""Self-test of the benchmark on tiny inputs (--quick).

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
QUICK = ["--seed", "7", "--seconds", "1", "--quick"]


def parse(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--trace", trace, *QUICK],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report, result = parse(proc.stdout)
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] is True
    assert result["failed"] == 0 < result["attempted"]
    assert report["fail_frac"] == 0


def test_tail_estimates_the_percentile_with_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert run.tail([2.0] * 12)[0] == pytest.approx(2.0)
    value, percentile, n = run.tail([float(i) for i in range(20, 0, -1)])
    assert (percentile, n) == (50.0, 20)
    assert value == pytest.approx(10.5)


def test_corrupted_output_is_counted_as_failed(monkeypatch, capsys):
    spawn = run.spawn

    def corrupting(args, stdout_path, stderr_path):
        child = spawn(args, stdout_path, stderr_path)
        if "spectrum" in args:
            data = bytearray(Path(stdout_path).read_bytes())
            data[-2] ^= 1
            Path(stdout_path).write_bytes(bytes(data))
        return child

    monkeypatch.setattr(run, "spawn", corrupting)
    argv = ["--workload", "exact-sweep", "--trace", "0", *QUICK]
    assert run.main(argv) == 0
    report, result = parse(capsys.readouterr().out)
    spectra = sum("spectrum" in cmd for cmd in report["commands"])
    assert spectra == 2
    assert result["correct"] is False
    assert result["failed"] == spectra
    assert report["fail_frac"] == spectra / result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == 1 - report["fail_frac"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(".*", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cli-mix", "--trace", "0", *QUICK],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
