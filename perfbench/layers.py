"""Per-layer host-time attribution for the traced benchmark run.

The benchmark wraps each simulator layer's public entry points at run
time (nothing under ``src/`` changes) with spans that record name,
start, end, parent and cell id.  Events the scheduler dispatches are
attributed to the layer that owns the callback, through the public
``Scheduler.enable_profiling`` hook and ``component_of``.

A layer's self time is its span time minus the time its child spans
cover.  Every timed unit runs under a root span whose self time is the
unattributed remainder, so the self times of all layers plus the
unattributed time telescope to the root span's duration: the traced
wall time.  That sum only guards the bookkeeping; an attribution error
(time counted under two spans, or a child charged to the wrong parent)
shows as a span whose self time is negative, which
:meth:`SpanRecorder.reconcile` also refuses.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
from collections import defaultdict
from time import perf_counter

#: Layer names, in report order.  Each is named after its module.
LAYERS = (
    "events", "cpu", "memory", "coherence", "analysis", "lvp", "sle",
    "obs", "runner", "setup",
)

#: Package (or module) prefix -> layer.  Longest prefix wins.
LAYER_OF_MODULE = {
    "repro.common.events": "events",
    "repro.system": "events",
    "repro.cpu": "cpu",
    "repro.memory": "memory",
    "repro.coherence": "coherence",
    "repro.analysis": "analysis",
    "repro.lvp": "lvp",
    "repro.sle": "sle",
    "repro.obs": "obs",
    "repro.experiments.runner": "runner",
    "repro.workloads": "setup",
}

#: Summary key under which a pool worker returns its cell's layer totals.
CELL_KEY = "_perfbench_layers"

#: Spans kept in memory per process; later spans are still attributed
#: but not stored (counted in ``SpanRecorder.dropped``).
SPAN_LIMIT = 100_000

#: Seconds by which a span's self time may fall below 0 (clock rounding)
#: before it counts as mis-attributed.
NEGATIVE_SLACK = 1e-6


def layer_of_module(module: str) -> str | None:
    """The layer a ``repro`` module belongs to, or None."""
    best = None
    for prefix, layer in LAYER_OF_MODULE.items():
        if (module == prefix or module.startswith(prefix + ".")) and (
            best is None or len(prefix) > len(best[0])
        ):
            best = (prefix, layer)
    return best[1] if best else None


def class_layers() -> dict[str, str]:
    """Class qualname -> layer, for every class of a loaded repro module."""
    table: dict[str, str] = {}
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("repro.") or module is None:
            continue
        layer = layer_of_module(name)
        if layer is None:
            continue
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == name:
                table.setdefault(cls.__qualname__, layer)
    return table


class SpanRecorder:
    """Spans and per-layer self time for one process.

    ``stack`` holds one frame per open span: ``[child_seconds, span_id]``.
    A span's self time is its duration minus ``child_seconds``; on exit
    its whole duration is added to the parent frame's child time.
    """

    def __init__(self, limit: int = SPAN_LIMIT):
        self.limit = limit
        self.t0 = perf_counter()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.events = 0
        self.negative = 0  # spans whose self time fell below -NEGATIVE_SLACK
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.ids = itertools.count(1)
        self.cell = ""

    def reset(self) -> None:
        """Zero the accumulators in place (the wrappers hold references)."""
        self.self_s.clear()
        self.calls.clear()
        self.events = 0
        self.negative = 0
        del self.stack[:]

    def _store(self, sid, name, layer, start, end, parent) -> None:
        if len(self.spans) < self.limit:
            self.spans.append((sid, name, layer, start, end, parent, self.cell))
        else:
            self.dropped += 1

    def open_root(self, cell: str) -> None:
        """Open the root span of one timed unit (or one worker cell)."""
        self.cell = cell
        self.stack.append([0.0, next(self.ids), perf_counter(), cell])

    def close_root(self) -> float:
        """Close the root span; returns its duration.

        The root's self time is the unattributed remainder.
        """
        child, sid, start, self.cell = self.stack.pop()
        end = perf_counter()
        if (end - start) - child < -NEGATIVE_SLACK:
            self.negative += 1
        self.self_s["unattributed"] += (end - start) - child
        self._store(sid, "unit", "unattributed", start, end, 0)
        return end - start

    def wrap(self, fn, name: str, layer: str):
        """``fn`` recorded as a span of ``layer`` on every call."""
        stack = self.stack
        self_s = self.self_s
        calls = self.calls
        store = self._store
        ids = self.ids
        rec = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                own = dur - frame[0]
                if own < -NEGATIVE_SLACK:
                    rec.negative += 1
                self_s[layer] += own
                calls[layer] += 1
                if parent is not None:
                    parent[0] += dur
                store(frame[1], name, layer, start, end, parent[1] if parent else 0)

        return span

    def reconcile(self, wall: float, tolerance: float = 1e-3) -> dict:
        """Check layer self times + unattributed == traced wall time, and
        that no span's self time was negative.

        ``wall`` is timed apart from the spans, around the traced units;
        ``tolerance`` (relative) covers the root span's own open/close.
        """
        attributed = sum(v for k, v in self.self_s.items() if k != "unattributed")
        unattributed = self.self_s.get("unattributed", 0.0)
        return {
            "wall_s": wall,
            "attributed_s": attributed,
            "unattributed_s": unattributed,
            "negative_spans": self.negative,
            "ok": abs(attributed + unattributed - wall) <= tolerance * max(1.0, wall)
            and self.negative == 0,
        }

    def write(self, path) -> None:
        """Write the stored spans as JSON lines, one array per span.

        The first line names the fields; times are seconds since the
        recorder was created.
        """
        with open(path, "w") as out:
            out.write(json.dumps({
                "fields": ["id", "name", "layer", "start", "end", "parent", "cell"],
                "stored": len(self.spans), "dropped": self.dropped,
            }) + "\n")
            for sid, name, layer, start, end, parent, cell in self.spans:
                out.write(json.dumps([
                    sid, name, layer, round(start - self.t0, 7),
                    round(end - self.t0, 7), parent, cell,
                ]) + "\n")


class EventAttributor:
    """``Scheduler.enable_profiling`` target: one span per fired event.

    The profiled step reports each callback's wall time after it ran.
    Wrapped calls made inside the callback already added their time to
    the enclosing ``System.run`` frame, so the event's own self time is
    its duration minus the child time accrued since the previous event.
    """

    def __init__(self, recorder: SpanRecorder, layers_by_class: dict[str, str]):
        self.recorder = recorder
        self.layers_by_class = layers_by_class
        self.mark = None
        self.labels: dict[str, str] = {}

    def record(self, label: str, seconds: float) -> None:
        rec = self.recorder
        frame = rec.stack[-1]
        if self.mark is None or self.mark[0] is not frame:
            self.mark = [frame, 0.0]
        children = frame[0] - self.mark[1]
        layer = self.labels.get(label)
        if layer is None:
            layer = self.layers_by_class.get(label.split(".", 1)[0], "unattributed")
            self.labels[label] = layer
        own = seconds - children
        if own < -NEGATIVE_SLACK:
            rec.negative += 1
        rec.self_s[layer] += own
        rec.calls[layer] += 1
        rec.events += 1
        frame[0] += own
        self.mark[1] = frame[0]
        end = perf_counter()
        rec._store(next(rec.ids), label, layer, end - seconds, end, frame[1])


#: Module -> attribute paths of every wrapped entry point.  Each span's
#: layer is its module's (:func:`layer_of_module`), or its ``SUB_LAYER``.
ENTRY_POINTS = {
    "repro.cpu.core": (
        "Core.pump", "Core.load_completed", "Core.lvp_verified", "Core.lvp_mispredict",
        "Core.squash_from", "Core.stcx_resolved", "Core.release_region_ops",
        "Core.stall_fetch",
    ),
    "repro.memory.hierarchy": (
        "NodeMemory.load", "NodeMemory.store", "NodeMemory.stcx",
        "NodeMemory.prefetch_exclusive", "NodeMemory.apply_store_now",
        "NodeMemory.atomic_rmw", "NodeMemory.atomic_add",
    ),
    "repro.coherence.controller": (
        "CoherenceController.issue", "CoherenceController.on_grant",
        "CoherenceController.pre_grant", "CoherenceController.snoop_query",
        "CoherenceController.supply_data", "CoherenceController.snoop_apply",
        "CoherenceController.evict_line", "CoherenceController.after_store",
    ),
    "repro.coherence.bus": ("SnoopBus.request",),
    "repro.coherence.predictor": (
        "UsefulValidatePredictor.on_ts_detect",
        "UsefulValidatePredictor.on_external_request",
        "UsefulValidatePredictor.on_upgrade_response",
    ),
    "repro.lvp.unit": ("LVPUnit.candidate", "LVPUnit.resolve"),
    "repro.sle.engine": (
        "SLEEngine.on_fetch", "SLEEngine.consider_stcx", "SLEEngine.on_op_completed",
        "SLEEngine.on_remote_txn", "SLEEngine.on_local_line_invalidated",
        "SLEEngine.on_squash",
    ),
    "repro.analysis.classify": (
        "MissClassifier.on_miss", "MissClassifier.on_fill",
        "MissClassifier.on_local_evict", "MissClassifier.on_remote_invalidate",
    ),
    "repro.obs.tracer": ("Tracer.emit", "Tracer.span_begin", "Tracer.span_end"),
    "repro.obs.provenance": ("analyze_events", "reconcile"),
    "repro.experiments.runner": ("summarize", "MatrixRunner.flush"),
    "repro.system.system": ("System.run",),
}

#: Entry points whose self time is also reported on its own.
SUB_LAYER = {"summarize": "runner.summarize", "MatrixRunner.flush": "runner.flush"}


class Instrumentation:
    """Installs the wrappers on the layer classes, and removes them.

    ``System.__init__`` is wrapped too: its self time is the workload
    and system build (layer ``setup``), and every new ``System`` gets
    its scheduler's profiling hook pointed at an :class:`EventAttributor`.
    ``run_cell`` is wrapped so that each cell run in a pool worker (a
    forked copy of this process, wrappers included) returns its own
    layer totals on the summary under :data:`CELL_KEY`.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        rec = self.recorder
        for module_name, paths in ENTRY_POINTS.items():
            for path in paths:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                layer = SUB_LAYER.get(path) or layer_of_module(module_name)
                self._patch(owner, attr, rec.wrap(owner.__dict__[attr], path, layer))
        layers_by_class = class_layers()

        from repro.experiments import runner
        from repro.system.system import System

        build = rec.wrap(System.__dict__["__init__"], "System.__init__", "setup")

        def system_init(system, *args, **kwargs):
            build(system, *args, **kwargs)
            system.scheduler.enable_profiling(EventAttributor(rec, layers_by_class))

        self._patch(System, "__init__", functools.wraps(System.__init__)(system_init))

        run_cell = runner.run_cell

        @functools.wraps(run_cell)
        def traced_run_cell(*args, **kwargs):
            if rec.stack:  # in-process call: already under a unit root
                return run_cell(*args, **kwargs)
            rec.reset()
            rec.limit = 0  # worker spans are summed here, not stored
            rec.open_root(args[1])
            summary = run_cell(*args, **kwargs)
            wall = rec.close_root()
            summary[CELL_KEY] = {
                "self_s": dict(rec.self_s), "calls": dict(rec.calls),
                "events": rec.events, "negative": rec.negative, "wall": wall,
            }
            return summary

        self._patch(runner, "run_cell", traced_run_cell)

    def uninstall(self) -> None:
        while self.saved:
            owner, attr, value = self.saved.pop()
            setattr(owner, attr, value)
