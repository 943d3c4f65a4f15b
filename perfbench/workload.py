"""One benchmark workload in a fresh process: set up, time, check.

``perfbench/run.py`` starts this file once per measured run (and a few
more times with ``--setup-only`` to sample set-up time), so the
interpreter start and ``import repro`` are part of what is measured.
It calls only the simulator's public entry points and prints one JSON
document as the last line of its standard output.

Untraced (``--trace 0``): set up, then run the workload's unit of work
(one pass over its cells) again and again until ``--seconds`` would be
exceeded, at least once, timing the calibration kernel of
``calibrate.py`` before the first cell and after every cell, for a third
of the host time (in ``matrix``, in the pool worker after each of its
cells).  Traced (``--trace 1``): untraced reference
units, then the layer wrappers of ``layers.py`` go in and units run traced
until the deadline; the per-layer numbers come from the traced units,
the tracing overhead from comparing the two.

Every cell's summary is checked against the committed golden matrix
(seeds it covers) and must repeat exactly from unit to unit, between
the untraced and traced units, and across runs with the same seed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = ROOT / "results" / "matrix_scale1.0.json"

#: In-process workloads: (benchmark, technique, path) cells of one unit.
#: ``explain`` runs the same cell untraced, then on the explain path.
CELLS = {
    "comm": (("tpc-b", "emesti+lvp+sle", "plain"), ("specweb", "emesti+lvp+sle", "plain")),
    "core": (("raytrace", "base", "plain"), ("ocean", "base", "plain")),
    "explain": (("tpc-b", "emesti+lvp", "plain"), ("tpc-b", "emesti+lvp", "explain")),
}
#: The Figure 7 slice's technique.  E-MESTI alone, not base and E-MESTI:
#: a run then holds the slice once (20-30 s with the calibration kernel
#: beside it), and the benchmark's runs fit their time limit.
MATRIX_TECHNIQUES = ("emesti",)
WORKLOADS = (*CELLS, "matrix")

#: The limits ``run_cell`` uses.
MAX_CYCLES = 500_000_000
MAX_EVENTS = 300_000_000

#: ``repro-sim explain`` gate: attribution rate of communication misses.
EXPLAIN_MIN_ATTRIBUTION = 0.95

#: Summary keys that measure the host or carry benchmark bookkeeping,
#: left out of every exactness comparison.
HOST_KEYS = ("wall_seconds", "worker", "retries", layers.CELL_KEY, calibrate.CELL_KEY)


class Failure(Exception):
    """An output check failed."""


def deterministic(summary: dict) -> dict:
    """The summary without host-dependent fields."""
    return {k: v for k, v in summary.items() if k not in HOST_KEYS}


class Bench:
    """Set-up state and the unit runners of one workload."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.scale = args.scale
        self.reference = {}  # filled in by ``setup``
        self.workers = min(2, os.cpu_count() or 1) if self.workload == "matrix" else 1
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, dict] = {}  # cell key -> deterministic summary
        self.on_cell = None  # traced run: names the cell its spans belong to
        self.calibrate = False  # untraced run: time the calibration kernel
        self.calibs: list[float] = []  # its host seconds, one per call

    # -- set-up --------------------------------------------------------------

    def import_repro(self) -> float:
        start = time.perf_counter()
        if not (SRC / "repro" / "__init__.py").is_file():
            raise SystemExit(f"perfbench: no simulator source at {SRC}")
        sys.path.insert(0, str(SRC))
        import repro
        from repro.common.config import scaled_config
        from repro.experiments import runner
        from repro.obs import metrics, provenance, tracer
        from repro.system.system import System
        from repro.workloads.registry import BENCHMARKS, get_benchmark

        if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
            raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
        self.runner = runner
        self.provenance = provenance
        self.Tracer = tracer.Tracer
        self.MetricsRegistry = metrics.MetricsRegistry
        self.System = System
        self.get_benchmark = get_benchmark
        self.benchmarks = tuple(BENCHMARKS)
        self.fingerprint = runner.config_fingerprint(scaled_config())
        return time.perf_counter() - start

    def setup(self) -> dict:
        """Everything before the first simulated event; returns its timings."""
        import_s = self.import_repro()
        start = time.perf_counter()
        self.reference = self.load_reference()
        self.cell_runner = self.runner.MatrixRunner(
            scale=self.scale, results_dir=OUT / "unused", verbose=False
        )
        pool_s = 0.0
        if self.workload == "matrix":
            if self.calibrate:  # before the pool forks, so its workers have it
                calibrate.after_each_cell(self.runner)
            pool_start = time.perf_counter()
            if self.workers > 1:
                self.warm_pool()
            pool_s = time.perf_counter() - pool_start
        else:
            benchmark, technique, _ = CELLS[self.workload][0]
            self.System(
                self.cell_runner.cell_config(technique),
                self.get_benchmark(benchmark, scale=self.scale),
                seed=self.seed,
            )
        return {
            "import_s": import_s,
            "build_s": time.perf_counter() - start - pool_s,
            "pool_s": pool_s,
        }

    def load_reference(self) -> dict:
        """The golden matrix: ``benchmark|technique|seed`` -> summary.

        The committed matrix holds scale-1.0 cells only; at another
        scale there is nothing to check against.
        """
        if self.scale != 1.0:
            return {}
        try:
            return json.loads(REFERENCE.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"perfbench: cannot read reference {REFERENCE}: {exc}")

    def warm_pool(self) -> None:
        """Start the matrix's worker pool and wait until every worker runs."""
        pool = self.runner.warm_pool(self.workers)
        for future in [pool.submit(os.getpid) for _ in range(self.workers)]:
            future.result()

    def stop_pool(self) -> None:
        """Shut the worker pool down and wait for its processes."""
        if self.workers > 1:
            self.runner.warm_pool(self.workers).shutdown(wait=True)
            self.runner.retire_pool(self.workers)

    def calibrate_host(self, after: float = 0.0) -> None:
        """Time the calibration kernel here, if enabled (in-process cells),
        beside the ``after`` seconds a cell just took."""
        if self.calibrate:
            self.calibs.extend(calibrate.beside(after))

    # -- units ---------------------------------------------------------------

    def run_unit(self) -> dict:
        """One pass over the workload's cells: wall time and checked cells.

        In process, the unit's wall time is the sum of its cells' times.
        """
        gc.collect()
        if self.workload == "matrix":
            return self.matrix_unit()
        cells = []
        for benchmark, technique, path in CELLS[self.workload]:
            cells.append(self.in_process_cell(benchmark, technique, path))
        wall = sum(c.get("wall", 0.0) for c in cells)
        return {"wall": wall, "cells": cells}

    def in_process_cell(self, benchmark: str, technique: str, path: str) -> dict:
        """Build, run and summarize one cell; ``explain`` adds provenance."""
        self.attempted += 1
        key = f"{benchmark}|{technique}|{self.seed}"
        cell = {"key": key, "path": path, "committed": 0, "events": 0}
        if self.on_cell is not None:
            self.on_cell(f"{key}|{path}")
        start = time.perf_counter()
        gc.disable()  # as run_cell does: no cyclic-GC passes mid-cell
        try:
            workload = self.get_benchmark(benchmark, scale=self.scale)
            tracer = metrics = None
            if path == "explain":
                tracer, metrics = self.Tracer(), self.MetricsRegistry()
            system = self.System(
                self.cell_runner.cell_config(technique), workload, seed=self.seed,
                tracer=tracer, metrics=metrics,
            )
            if tracer is not None:
                with tracer:
                    result = system.run(max_cycles=MAX_CYCLES, max_events=MAX_EVENTS)
                report = self.provenance.analyze_events(tracer.events)
                rows = self.provenance.reconcile(report, metrics)
                cell["trace_events"] = len(tracer.events)
                cell["spans_truncated"] = tracer.spans_truncated
                if not self.provenance.reconciliation_ok(rows):
                    raise Failure(f"{key}: explain trace/metrics reconciliation mismatch")
                if report.attribution_rate < EXPLAIN_MIN_ATTRIBUTION:
                    raise Failure(
                        f"{key}: explain attribution {report.attribution_rate:.3f} "
                        f"< {EXPLAIN_MIN_ATTRIBUTION}"
                    )
            else:
                result = system.run(max_cycles=MAX_CYCLES, max_events=MAX_EVENTS)
            summary = self.runner.summarize(result, time.perf_counter() - start)
            wall = time.perf_counter() - start  # summarize rounds its own copy
            summary["events"] = int(result.stats.get("run.events"))
            self.check(f"{key}|{path}", key, summary)
        except Exception as exc:  # noqa: BLE001 - every cell failure is counted
            self.fail(f"{key} ({path}): {type(exc).__name__}: {exc}")
            return cell
        finally:
            gc.enable()
        cell.update(
            wall=wall, committed=summary["committed"],
            events=summary["events"], summary=deterministic(summary),
        )
        return cell

    def matrix_unit(self) -> dict:
        """The Figure 7 slice through ``MatrixRunner.run_matrix`` into an empty dir."""
        results = OUT / f"matrix-{os.getpid()}"
        shutil.rmtree(results, ignore_errors=True)
        keys = [
            f"{b}|{t}|{self.seed}" for b in self.benchmarks for t in MATRIX_TECHNIQUES
        ]
        self.attempted += len(keys)
        start = time.perf_counter()
        try:
            matrix = self.runner.MatrixRunner(
                scale=self.scale, results_dir=results, verbose=False,
                workers=self.workers,
            )
            out = matrix.run_matrix(
                benchmarks=self.benchmarks, techniques=MATRIX_TECHNIQUES,
                seeds=(self.seed,), workers=self.workers,
            )
        except Exception as exc:  # noqa: BLE001 - a failed sweep fails every cell
            self.failed += len(keys) - 1
            self.fail(f"matrix sweep: {type(exc).__name__}: {exc}")
            return {"wall": time.perf_counter() - start, "cells": []}
        wall = time.perf_counter() - start
        shutil.rmtree(results, ignore_errors=True)
        # Each worker ran the kernel after each of its cells: that time
        # was spread over the workers, and is taken out of the unit's.
        kernels = [k for key in keys if self.calibrate for k in out[key].pop(calibrate.CELL_KEY)]
        self.calibs.extend(kernels)
        wall -= sum(kernels) / self.workers
        cells = []
        for key in keys:
            summary = out[key]
            cell_layers = summary.pop(layers.CELL_KEY, None)
            try:
                self.check(key, key, summary)
            except Failure as exc:
                self.fail(str(exc))
                continue
            cells.append({
                "key": key, "path": "matrix", "wall": summary["wall_seconds"],
                "committed": summary["committed"], "summary": deterministic(summary),
                "layers": cell_layers,
            })
        return {"wall": wall, "cells": cells}

    # -- checks --------------------------------------------------------------

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)
        print(f"perfbench: FAILED {message}", file=sys.stderr)

    def check(self, identity: str, key: str, summary: dict) -> None:
        """Golden-matrix fields and exact repetition; raises :class:`Failure`."""
        if key in self.reference:
            golden = self.reference[key]
            wrong = sorted(
                k for k in golden
                if k not in HOST_KEYS and summary.get(k) != golden[k]
            )
            if wrong:
                detail = ", ".join(f"{k}={summary.get(k)!r}!={golden[k]!r}" for k in wrong[:5])
                raise Failure(f"{key}: differs from {REFERENCE.name}: {detail}")
        current = deterministic(summary)
        first = self.first.setdefault(identity, current)
        if current != first:
            drift = sorted(k for k in current if current[k] != first.get(k))
            raise Failure(f"{identity}: counts drifted between units: {drift[:8]}")

    def compare_units(self, plain: dict, unit: dict) -> None:
        """Traced and untraced units must produce identical cells."""
        before = {(c["key"], c["path"]): c.get("summary") for c in plain["cells"]}
        for cell in unit["cells"]:
            if cell.get("summary") != before.get((cell["key"], cell["path"])):
                self.fail(f"{cell['key']} ({cell['path']}): traced unit differs from untraced")

    def check_ledger(self, meta: dict) -> None:
        """Compare this run's cell summaries with earlier runs of the same key.

        Runs are comparable only when workload, seed, scale, config
        fingerprint, worker count and simulator source all match; any
        other pair is never compared.
        """
        if not self.first:
            return
        ledger_path = OUT / "ledger.json"
        key = "|".join(str(meta[k]) for k in (
            "workload", "seed", "scale", "fingerprint", "workers", "src_sha"))
        try:
            ledger = json.loads(ledger_path.read_text())
        except (OSError, json.JSONDecodeError):
            ledger = {}
        earlier = ledger.get(key)
        if earlier is None:
            ledger[key] = self.first
            OUT.mkdir(exist_ok=True)
            tmp = ledger_path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(ledger, sort_keys=True))
            os.replace(tmp, ledger_path)
            return
        for identity, summary in self.first.items():
            if identity in earlier and earlier[identity] != summary:
                drift = sorted(k for k in summary if summary[k] != earlier[identity].get(k))
                self.fail(f"{identity}: counts differ from an earlier run: {drift[:8]}")


def pss_kb(pid: int) -> int:
    """Proportional set size of ``pid`` in KiB (0 once it has exited)."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as rollup:
            for line in rollup:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def child_pids(parent: int) -> list[int]:
    """Pids of the live direct children of ``parent``."""
    found = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as stat:
                ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == parent:
            found.append(int(entry.name))
    return found


class PeakPss:
    """Peak combined memory of this process and its pool workers.

    Polls the proportional set size of the process and its children:
    pages the forked workers still share with the parent count once
    across them, so the sum is the memory the process tree really holds
    at that instant.  The children are looked up again every second.
    """

    PERIOD = 0.1
    RESCAN = 10  # samples between child lookups

    def __init__(self):
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _poll(self) -> None:
        me, pids = os.getpid(), []
        for n in itertools.count():
            if n % self.RESCAN == 0:
                pids = [me, *child_pids(me)]
            self.peak_kb = max(self.peak_kb, sum(pss_kb(pid) for pid in pids))
            if self._stop.wait(self.PERIOD):
                return

    def stop(self) -> float:
        """Stop polling; returns the peak in MiB."""
        self._stop.set()
        self._thread.join()
        return self.peak_kb / 1024


def src_digest() -> str:
    """Hash of the simulator source, so results of different code never mix."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metadata(bench: Bench) -> dict:
    return {
        "workload": bench.workload,
        "seed": bench.seed,
        "scale": bench.scale,
        "workers": bench.workers,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "fingerprint": bench.fingerprint,
        "git_commit": git_commit(),
        "src_sha": src_digest(),
    }


def untraced(bench: Bench, deadline: float) -> dict:
    """The timed closed loop, until ``deadline``.

    In process, cell after cell in the unit's order, each started only
    while it is predicted (from its previous run) to end in time, and at
    least one whole unit: so a run holds as many cells as fit, and a
    unit's time is the sum of each cell's mean.  In ``matrix``, unit
    after unit, each started only while predicted to end in time (at
    least one).
    """
    if bench.workload == "matrix":
        walls, committed = [], 0
        while True:
            start = time.perf_counter()
            unit = bench.run_unit()
            walls.append(unit["wall"])
            committed = sum(c["committed"] for c in unit["cells"])
            now = time.perf_counter()
            if now + (now - start) > deadline or bench.failed:
                return end_to_end({"matrix": walls}, committed, bench.calibs)
    order = CELLS[bench.workload]
    walls: dict[str, list[float]] = {}
    committed: dict[str, int] = {}
    took: dict[str, float] = {}  # last host seconds of cell and kernel
    bench.calibrate_host()
    for n in itertools.count():
        benchmark, technique, path = order[n % len(order)]
        name = f"{benchmark}|{path}"
        if n >= len(order) and (
            bench.failed or time.perf_counter() + took[name] > deadline
        ):
            return end_to_end(walls, sum(committed.values()), bench.calibs)
        start = time.perf_counter()
        gc.collect()
        cell = bench.in_process_cell(benchmark, technique, path)
        bench.calibrate_host(after=cell.get("wall", 0.0))
        took[name] = time.perf_counter() - start
        walls.setdefault(name, []).append(cell.get("wall", 0.0))
        committed[name] = cell["committed"]


def traced(bench: Bench, deadline: float) -> dict:
    """Untraced reference units, then traced units until the deadline."""
    plain = bench.run_unit()
    if bench.workload != "matrix":
        # The first unit pays the process's warm-up (in matrix, the pool
        # workers pay theirs in every unit): keep each cell's faster run.
        again = bench.run_unit()
        cells = [
            min(a, b, key=lambda c: c.get("wall", float("inf")))
            for a, b in zip(plain["cells"], again["cells"])
        ]
        plain = {"wall": sum(c.get("wall", 0.0) for c in cells), "cells": cells}
    recorder = layers.SpanRecorder()
    bench.on_cell = lambda cell: setattr(recorder, "cell", cell)
    instrumentation = layers.Instrumentation(recorder)
    if bench.workers > 1:
        bench.stop_pool()  # workers are forked: restart them with the wrappers in
    instrumentation.install()
    if bench.workers > 1:
        bench.warm_pool()
    units = []
    try:
        while True:
            start = time.perf_counter()
            recorder.open_root(bench.workload)
            unit = bench.run_unit()
            recorder.close_root()
            unit["wall"] = time.perf_counter() - start
            units.append(unit)
            now = time.perf_counter()
            if now + (now - start) > deadline or bench.failed:
                break
    finally:
        instrumentation.uninstall()
    for unit in units:
        bench.compare_units(plain, unit)
    check = recorder.reconcile(sum(u["wall"] for u in units))
    if not check["ok"]:
        bench.fail(f"traced run does not reconcile: {check}")
    OUT.mkdir(exist_ok=True)
    recorder.write(OUT / f"spans-{bench.workload}.jsonl")
    self_s, calls, events = dict(recorder.self_s), dict(recorder.calls), recorder.events
    for cell in (c for u in units for c in u["cells"] if c.get("layers")):
        # A pool worker's cell: its own spans must reconcile as well.
        worker = cell["layers"]
        if worker["negative"] or abs(sum(worker["self_s"].values()) - worker["wall"]) > (
            1e-3 * max(1.0, worker["wall"])
        ):
            bench.fail(f"{cell['key']}: worker spans do not reconcile "
                       f"({worker['negative']} with negative self time)")
        for layer, seconds in worker["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + seconds
        for layer, count in worker["calls"].items():
            calls[layer] = calls.get(layer, 0) + count
        events += worker["events"]
    return layer_metrics(bench, plain, units, self_s, calls, events)


def layer_metrics(bench, plain, units, self_s, calls, events) -> dict:
    """The per-layer metrics of one traced run, per unit of work."""
    n = len(units)
    workers = bench.workers
    traced_wall = sum(u["wall"] for u in units) / n
    base = workers * traced_wall  # host seconds the traced unit had
    layer_s = dict.fromkeys(layers.LAYERS, 0.0)
    for key, seconds in self_s.items():
        if key != "unattributed":
            layer_s[key.split(".", 1)[0]] += seconds / n
    layer_calls = dict.fromkeys(layers.LAYERS, 0)
    for key, count in calls.items():
        if key != "unattributed":
            layer_calls[key.split(".", 1)[0]] += count / n
    unattributed = base - sum(layer_s.values())
    cells = [c for c in plain["cells"] if "summary" in c]

    def total(field):
        return sum(c["summary"].get(field, 0) for c in cells)

    def ratio(a, b):
        return a / b if b else 0.0

    events_per_unit = events / n
    if bench.workload != "matrix" and events_per_unit != total("events"):
        bench.fail(f"traced run fired {events_per_unit} events per unit, untraced {total('events')}")
    committed = total("committed")
    cell_walls = sorted(c["wall"] for c in cells)
    by_path = {c["path"]: c["wall"] for c in cells}
    matrix = bench.workload == "matrix"
    return {
        "events.count": events_per_unit,
        "events.per_committed": ratio(events_per_unit, committed),
        "events.self_s": layer_s["events"],
        "cpu.self_s": layer_s["cpu"],
        "cpu.share": ratio(layer_s["cpu"], base),
        "cpu.ns_per_committed": ratio(layer_s["cpu"], committed) * 1e9,
        "cpu.calls": layer_calls["cpu"],
        "memory.self_s": layer_s["memory"],
        "memory.calls": layer_calls["memory"],
        "memory.ns_per_access": ratio(layer_s["memory"], layer_calls["memory"]) * 1e9,
        "memory.misses": total("miss_total"),
        "memory.miss_capacity": total("miss_capacity"),
        "coherence.self_s": layer_s["coherence"],
        "coherence.calls": layer_calls["coherence"],
        "coherence.ns_per_txn": ratio(layer_s["coherence"], total("txn_total")) * 1e9,
        "coherence.bus_txns": total("txn_total"),
        "coherence.validates": total("txn_validate"),
        "coherence.validate_useful_ratio": ratio(
            total("validates_useful"), total("validates_broadcast")),
        "coherence.bus_queue_p95": max(
            (c["summary"].get("bus_queue_depth_p95", 0) for c in cells), default=0),
        "analysis.self_s": layer_s["analysis"],
        "analysis.calls": layer_calls["analysis"],
        "lvp.self_s": layer_s["lvp"],
        "lvp.predictions": total("lvp_predictions"),
        "lvp.correct_ratio": ratio(total("lvp_correct"), total("lvp_predictions")),
        "sle.self_s": layer_s["sle"],
        "sle.attempts": total("sle_attempts"),
        "sle.success_ratio": ratio(total("sle_successes"), total("sle_attempts")),
        "sle.restarts": total("sle_restarts"),
        "obs.self_s": layer_s["obs"],
        "obs.trace_events": sum(c.get("trace_events", 0) for c in plain["cells"]),
        "obs.spans_truncated": sum(c.get("spans_truncated", 0) for c in plain["cells"]),
        "obs.explain_overhead": ratio(by_path.get("explain", 0), by_path.get("plain", 0))
        if bench.workload == "explain" else 0.0,
        "runner.self_s": layer_s["runner"],
        "runner.pool_s": bench.timings["pool_s"],
        "runner.cell_s_p50": statistics.median(cell_walls) if matrix and cell_walls else 0.0,
        "runner.cell_s_max": cell_walls[-1] if matrix and cell_walls else 0.0,
        "runner.efficiency": ratio(sum(cell_walls), workers * plain["wall"]) if matrix else 0.0,
        "runner.summarize_s": self_s.get("runner.summarize", 0.0) / n,
        "runner.flush_s": self_s.get("runner.flush", 0.0) / n,
        "setup.self_s": layer_s["setup"],
        "setup.import_s": bench.timings["import_s"],
        "setup.build_s": bench.timings["build_s"],
        "trace.wall_s": base,
        "trace.unattributed_share": ratio(unattributed, base),
        "trace.overhead": ratio(traced_wall, plain["wall"]),
    }


def end_to_end(walls: dict[str, list[float]], committed: int, calibs: list[float]) -> dict:
    """Host seconds of one unit, at the reference speed, and simulated
    micro-ops per such second.

    ``walls`` holds the host seconds of every run of each cell (in
    ``matrix``, of each unit); a unit's host time is the sum of their
    means, and ``committed`` its committed micro-ops.  The host's speed
    changes from second to second and, for minutes, by up to 2x;
    ``calibrate.kernel`` ran between the cells the whole run long (in
    ``matrix``, in the pool workers).  The unit's host time scaled by the
    host speed those kernel times give is its time at the reference
    speed: what the run would have measured on a steady host.
    """
    host = sum(statistics.mean(runs) for runs in walls.values())
    wall = calibrate.at_reference(host, calibs)
    return {
        "sim_ips": committed / wall if wall else 0.0,
        "wall_s": wall,
        "walls": walls,
        "host_speed": calibrate.speed(calibs),
        "calibrations": len(calibs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once set up (a set-up time sample)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale (the self-test runs tiny ones)")
    args = parser.parse_args(argv)
    bench = Bench(args)
    bench.calibrate = not (args.trace or args.setup_only)
    bench.timings = bench.setup()
    doc = {"setup_end": time.monotonic(), **bench.timings}
    # Started once the pool has forked, so no fork happens beside the
    # sampling thread (the traced run re-forks its pool, and needs none).
    sampler = PeakPss() if bench.workers > 1 and not (args.trace or args.setup_only) else None
    try:
        if not args.setup_only:
            deadline = time.perf_counter() + args.seconds
            if args.trace:
                doc["per_layer"] = traced(bench, deadline)
            else:
                doc["end_to_end"] = untraced(bench, deadline)
            doc["meta"] = metadata(bench)
            bench.check_ledger(doc["meta"])
    finally:
        peak_mb = sampler.stop() if sampler else None
        bench.stop_pool()
    if peak_mb is None:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    doc.update(
        attempted=bench.attempted, failed=bench.failed, failures=bench.failures,
        peak_rss_mb=peak_mb, calibs=bench.calibs,
    )
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
