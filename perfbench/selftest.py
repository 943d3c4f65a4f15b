"""Fast self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

Runs every workload at a tiny scale, traced and untraced, through
``run.py`` and checks the result line: its keys, the metric names and
units against ``BENCHMARK.json``, finite values, and no failures.  Then
checks, in process, that the output check bites: a reference built from
the same cell passes, the same reference with one field corrupted fails;
and that the calibration scales host time the right way round.
Finally, a copy of the benchmark without the simulator's source must
exit non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = 0.05
WORKLOADS = ("comm", "core", "explain", "matrix")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180, check=False,
    )
    return done.returncode, done.stdout.strip().splitlines()


def result_line(lines: list[str]) -> dict:
    doc = json.loads(lines[-1])
    assert set(doc) == RESULT_KEYS, f"result keys {sorted(doc)}"
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1, doc["attempted"]
    assert isinstance(doc["failed"], int), doc["failed"]
    return doc


def check_schema(spec: dict) -> None:
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run("--workload", workload, "--seed", "1", "--seconds", "1",
                              "--trace", str(trace), "--scale", str(SCALE))
            assert code == 0, f"{workload} trace={trace} exited {code}"
            doc = result_line(lines)
            assert doc["correct"] and doc["failed"] == 0, doc
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in doc["metrics"].items()}
            assert got == expected, f"{workload} trace={trace}: {got} != {expected}"
            for name, metric in doc["metrics"].items():
                value = metric["value"]
                assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
            print(f"ok  schema {workload} trace={trace}")


def check_output_check() -> None:
    """The output check bites: one cell, checked in process against a
    reference built from that same cell, then from a corrupted copy."""
    sys.path.insert(0, str(HERE))
    import workload

    bench = workload.Bench(argparse.Namespace(workload="comm", seed=1, scale=SCALE))
    bench.setup()
    benchmark, technique, path = workload.CELLS["comm"][0]
    cell = bench.in_process_cell(benchmark, technique, path)
    bench.reference = {cell["key"]: dict(cell["summary"])}
    bench.first.clear()
    bench.in_process_cell(benchmark, technique, path)
    assert bench.failed == 0, bench.failures
    print("ok  output check passes on a matching reference")
    bench.reference[cell["key"]]["committed"] += 1
    bench.first.clear()
    bench.in_process_cell(benchmark, technique, path)
    assert bench.failed == 1 and "differs from" in bench.failures[0], bench.failures
    print("ok  output check fails on a corrupted reference")


def check_calibration() -> None:
    """Host time at the reference speed: a host twice as slow as the
    reference halves the seconds it measured; the kernel runs for the
    calibration share beside a cell."""
    sys.path.insert(0, str(HERE))
    import calibrate

    ref = calibrate.REFERENCE_S
    assert calibrate.at_reference(10.0, [2 * ref, 2 * ref]) == 5.0
    assert calibrate.at_reference(10.0, [ref / 2]) == 20.0
    samples = calibrate.beside(0.0)
    assert len(samples) == 1 and samples[0] > 0, samples
    seconds = 4 * samples[0]
    samples = calibrate.beside(seconds)
    assert sum(samples) >= seconds * calibrate.SHARE / (1 - calibrate.SHARE), samples
    print("ok  calibration scales host time by the kernel's speed")


def check_bare_directory(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, lines = run("--workload", "comm", "--seed", "1", "--seconds", "1", cwd=bare)
    assert code != 0, "a directory without the simulator must fail"
    assert not any(line.startswith("{") for line in lines), "no result may be printed"
    print("ok  no result without the simulator source")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        check_schema(spec)
        check_output_check()
        check_calibration()
        check_bare_directory(Path(tmp))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
