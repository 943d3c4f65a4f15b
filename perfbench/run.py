"""Repository benchmark: run one workload for one seed, print its metrics.

    python3 perfbench/run.py --workload comm --seed 1 --seconds 20 --trace 0

Each run starts ``perfbench/workload.py`` in fresh processes: a few that
only set up (set-up time is their median together with the measured
run's own set-up), then the measured run.  Host times are reported at
the reference speed of ``calibrate.py``: this process times the
calibration kernel around every set-up sample, the measured process
between its cells.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  Every metric is also printed by name with its unit
above that line, with the run's metadata.  A failed output check exits
1 after printing the result; a run that cannot produce a result exits
2 and prints none.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = HERE / "workload.py"
OUT = HERE / "out"

#: Fresh processes whose set-up time is sampled, the measured one included.
SETUP_SAMPLES = 3

#: Whole-run limit, in seconds: a run must end within 180.
RUN_LIMIT = 170.0


class RunError(Exception):
    """The run could not produce a result."""


def spawn(argv: list[str], timeout: float) -> tuple[dict, float]:
    """Run the workload process; returns its JSON document and start time.

    The child gets its own process group, so a timeout also stops the
    pool workers it started.
    """
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKLOAD), *argv], cwd=ROOT,
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError(f"workload process exceeded {timeout:.0f}s") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1]), start


def metric_specs(trace: int) -> list[dict]:
    """The metric list this run must report, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def measure(args) -> tuple[dict, dict]:
    """Run the probes and the measured process; returns (values, document)."""
    common = ["--workload", args.workload, "--seed", str(args.seed), "--scale", str(args.scale)]
    deadline = time.monotonic() + RUN_LIMIT
    setups = []
    if not args.trace:
        # Each set-up time is scaled by the host speed that the kernel
        # runs just before and just after it give.
        before = calibrate.kernel()
        for _ in range(SETUP_SAMPLES - 1):
            probe, start = spawn([*common, "--setup-only"], deadline - time.monotonic())
            after = calibrate.kernel()
            setups.append(calibrate.at_reference(probe["setup_end"] - start, [before, after]))
            before = after
    doc, start = spawn(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
        deadline - time.monotonic(),
    )
    if args.trace:
        return doc["per_layer"], doc
    setups.append(calibrate.at_reference(doc["setup_end"] - start, [before]))
    values = {
        "sim_ips": doc["end_to_end"]["sim_ips"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": doc["peak_rss_mb"],
    }
    return values, doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("comm", "core", "explain", "matrix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale; the self-test runs tiny ones")
    args = parser.parse_args(argv)
    try:
        specs = metric_specs(args.trace)
        values, doc = measure(args)
        missing = [s["name"] for s in specs if s["name"] not in values]
        if missing:
            raise RunError(f"workload did not report {missing}")
    except (RunError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: no result: {exc}", file=sys.stderr)
        return 2
    metrics = {
        s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs
    }
    result = {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }
    meta = doc["meta"]
    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    if not args.trace:
        e2e = doc["end_to_end"]
        for name, walls in e2e["walls"].items():
            print(f"host seconds of {name}: {[round(w, 3) for w in walls]}")
        print(f"host_speed={e2e['host_speed']:.4f} from {e2e['calibrations']} calibrations")
        print(f"{'wall_s (not bounded)':34s} {e2e['wall_s']:>16.6g} s")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    for failure in doc["failures"]:
        print(f"FAILED {failure}")
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.scale != 1.0:
        name += f"-scale{args.scale}"
    (OUT / "results" / f"{name}.json").write_text(json.dumps(
        {**result, "meta": meta, "trace": args.trace, "failures": doc["failures"],
         "host": doc.get("end_to_end"), "kernel_s": doc["calibs"]},
        indent=1, sort_keys=True,
    ))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
