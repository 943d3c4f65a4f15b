"""Labeled metrics registry with JSON / Prometheus export.

The :class:`StatsRegistry` counters are flat dotted strings — good for
summing, bad for analysis: ``ctrl3.validates_suppressed`` encodes the
node id in the name and nothing records which counters form one
logical series.  :class:`MetricsRegistry` layers first-class *named
series* on top: a metric family has a name, a help string, a kind
(counter / gauge / histogram), and label names; each label-value
combination is one series.  The paper-level event counts —
communication misses by cause, validates issued/useful/useless,
predictor confidence transitions, LVP verify/squash — become queryable
families instead of string-prefix conventions.

The stats registry is the only counter store:

* **Components declare series where they create the counter.**
  ``stats.counter("validates_suppressed", "repro_validates_total",
  "<help>", node=i, outcome="suppressed")`` returns the plain
  :class:`~repro.common.stats.CounterHandle` the hot path increments
  and records the declaration in the stats registry;
  ``stats.histogram(..., family, help, **labels)`` does the same for a
  distribution.  Simulator components never see a metrics registry.
* **The registry reads, it never counts.**  :meth:`MetricsRegistry.bind_stats`
  (called once per :class:`~repro.system.system.System` that was given
  a registry) turns every declaration into a read-only
  :class:`StatsView` over the stats counter, or exports the declared
  histogram object itself.  A raw ``stats.add`` on a declared counter
  therefore shows up in the export, and a declared counter that never
  moved exports as ``0.0``.

Families created directly with :meth:`~MetricsRegistry.counter` /
:meth:`~MetricsRegistry.gauge` / :meth:`~MetricsRegistry.histogram`
hold their own values (the job service and the run-summary gauges use
them); ``NULL_METRICS`` is their no-op stand-in.

Exports: :meth:`MetricsRegistry.to_json` for programmatic diffing and
:meth:`MetricsRegistry.to_prometheus` for the Prometheus text
exposition format (``repro-sim run --metrics``).
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterable

from repro.common.stats import Histogram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from repro.common.stats import StatsRegistry

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text format rules."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: dict[str, str]) -> str:
    """Render ``{k="v",...}`` (empty string when there are no labels)."""
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in labels.items()
    )
    return "{" + inner + "}"


class MetricSeries:
    """One labeled child of a counter/gauge family: a scalar value."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: dict[str, str]):
        self.labels = labels
        self.value: float = 0.0

    def inc(self, amount: float = 1) -> None:
        """Increment the series (counters should only ever go up)."""
        self.value += amount

    def set(self, value: float) -> None:
        """Set the series to an absolute value (gauges)."""
        self.value = value


class StatsView:
    """A read-only counter series backed by one stats counter."""

    __slots__ = ("labels", "_stats", "_key")

    def __init__(self, labels: dict[str, str], stats: "StatsRegistry", key: str):
        self.labels = labels
        self._stats = stats
        self._key = key

    @property
    def value(self) -> float:
        """The stats counter's current value (``0.0`` if never touched)."""
        return self._stats.get(self._key, 0.0)


class HistogramSeries:
    """One labeled child of a histogram family.

    Wraps a :class:`~repro.common.stats.Histogram` — either a private
    one, or (via :meth:`MetricsRegistry.bind_stats`) the stats
    histogram a component declared, so the distribution it already
    records is exported without double bookkeeping.
    """

    __slots__ = ("labels", "hist")

    def __init__(self, labels: dict[str, str], hist: Histogram):
        self.labels = labels
        self.hist = hist

    def record(self, value: float, n: int = 1) -> None:
        """Record ``n`` observations of ``value``."""
        self.hist.record(value, n)


Series = MetricSeries | StatsView | HistogramSeries


class MetricFamily:
    """A named metric with fixed label names and one series per value set."""

    __slots__ = ("name", "help", "kind", "label_names", "bounds", "_series")

    def __init__(
        self,
        name: str,
        help: str,  # noqa: A002 - Prometheus calls it "help"
        kind: str,
        label_names: tuple[str, ...],
        bounds: tuple[float, ...] | None = None,
    ):
        self.name = name
        self.help = help
        self.kind = kind
        self.label_names = label_names
        self.bounds = bounds
        self._series: dict[tuple[str, ...], Series] = {}

    def label_key(self, labels: dict) -> tuple[str, ...]:
        """The stringified label values, in ``label_names`` order.

        The keyword names must match the family's ``label_names``
        exactly.
        """
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ValueError(
                f"metric {self.name!r} takes labels {sorted(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def labels(self, **labels) -> Series:
        """The series for one label-value combination (created on first use)."""
        key = self.label_key(labels)
        series = self._series.get(key)
        if series is None:
            label_map = dict(zip(self.label_names, key))
            if self.kind == HISTOGRAM:
                series = HistogramSeries(label_map, Histogram(self.bounds))
            else:
                series = MetricSeries(label_map)
            self._series[key] = series
        return series

    def series(self) -> Iterable[Series]:
        """All series in deterministic (label-value) order."""
        return (self._series[key] for key in sorted(self._series))


class MetricsRegistry:
    """Registry of metric families with JSON and Prometheus export.

    Families are created idempotently: re-registering the same name
    with the same kind and label names returns the existing family
    (components each register their own sites); a conflicting
    re-registration raises.
    """

    def __init__(self):
        self._families: dict[str, MetricFamily] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def _register(
        self,
        name: str,
        help: str,  # noqa: A002
        kind: str,
        labels: Iterable[str],
        bounds: Iterable[float] | None = None,
    ) -> MetricFamily:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        label_names = tuple(labels)
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name: {label!r}")
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or set(family.label_names) != set(label_names):
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind} with "
                    f"labels {sorted(family.label_names)}"
                )
            if help and not family.help:
                family.help = help
            return family
        family = MetricFamily(
            name, help, kind, label_names,
            tuple(bounds) if bounds is not None else None,
        )
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "",  # noqa: A002
                labels: Iterable[str] = ()) -> MetricFamily:
        """Get-or-create a counter family."""
        return self._register(name, help, COUNTER, labels)

    def gauge(self, name: str, help: str = "",  # noqa: A002
              labels: Iterable[str] = ()) -> MetricFamily:
        """Get-or-create a gauge family."""
        return self._register(name, help, GAUGE, labels)

    def histogram(self, name: str, help: str = "",  # noqa: A002
                  labels: Iterable[str] = (),
                  bounds: Iterable[float] | None = None) -> MetricFamily:
        """Get-or-create a histogram family."""
        return self._register(name, help, HISTOGRAM, labels, bounds)

    def bind_stats(self, stats: "StatsRegistry") -> None:
        """Export every series declared in ``stats`` (see the module docstring).

        A declared counter becomes a read-only :class:`StatsView`; a
        declared histogram is exported as the very object the component
        records into.  Declaring one series twice is an error.
        """
        for decl in stats.declarations:
            family = self._register(decl.family, decl.help, decl.kind, decl.labels)
            key = family.label_key(decl.labels)
            if key in family._series:
                raise ValueError(f"metric {decl.family!r} series {key} declared twice")
            label_map = dict(zip(family.label_names, key))
            if decl.kind == HISTOGRAM:
                hist = stats.get_histogram(decl.key)
                family._series[key] = HistogramSeries(label_map, hist)
            else:
                family._series[key] = StatsView(label_map, stats, decl.key)

    # ------------------------------------------------------------------
    # Reading and export
    # ------------------------------------------------------------------

    def families(self) -> Iterable[MetricFamily]:
        """All families in name order."""
        return (self._families[name] for name in sorted(self._families))

    def get(self, name: str, **labels) -> float:
        """Value of one scalar series (0 if the series does not exist)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        key = tuple(str(labels[label]) for label in family.label_names)
        series = family._series.get(key)
        if series is None or isinstance(series, HistogramSeries):
            return 0.0
        return series.value

    def total(self, name: str) -> float:
        """Sum of every series of one counter/gauge family."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        return sum(
            s.value for s in family.series() if not isinstance(s, HistogramSeries)
        )

    def to_json(self) -> dict:
        """JSON-safe document: one entry per series, sorted, diffable."""
        out = []
        for family in self.families():
            for series in family.series():
                entry = {
                    "name": family.name,
                    "kind": family.kind,
                    "help": family.help,
                    "labels": series.labels,
                }
                if isinstance(series, HistogramSeries):
                    entry["histogram"] = series.hist.summary()
                else:
                    entry["value"] = series.value
                out.append(entry)
        return {"schema": 1, "series": out}

    def to_prometheus(self) -> str:
        """Render the registry in the Prometheus text exposition format."""
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for series in family.series():
                if isinstance(series, HistogramSeries):
                    lines.extend(self._prom_histogram(family, series))
                else:
                    labels = _format_labels(series.labels)
                    lines.append(f"{family.name}{labels} {series.value:g}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def _prom_histogram(family: MetricFamily, series: HistogramSeries) -> list[str]:
        """``_bucket``/``_sum``/``_count`` lines for one histogram series."""
        hist = series.hist
        lines = []
        cumulative = 0
        for bound, count in zip(hist.bounds, hist.counts):
            cumulative += count
            labels = _format_labels({**series.labels, "le": f"{bound:g}"})
            lines.append(f"{family.name}_bucket{labels} {cumulative}")
        labels = _format_labels({**series.labels, "le": "+Inf"})
        lines.append(f"{family.name}_bucket{labels} {hist.count}")
        base = _format_labels(series.labels)
        lines.append(f"{family.name}_sum{base} {hist.total:g}")
        lines.append(f"{family.name}_count{base} {hist.count}")
        return lines


class _NullSeries:
    """Series stand-in that accepts and discards everything."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        """Discard the increment."""

    def set(self, value: float) -> None:
        """Discard the value."""

    def record(self, value: float, n: int = 1) -> None:
        """Discard the observation."""


class _NullFamily:
    """Family stand-in whose every series is the shared null series."""

    __slots__ = ()

    def labels(self, **labels) -> _NullSeries:
        """Return the shared no-op series."""
        return _NULL_SERIES


class _NullMetrics:
    """Zero-overhead stand-in used when metrics collection is off.

    Deliberately *not* a :class:`MetricsRegistry` subclass (same
    pattern as ``NULL_TRACER``): components hold whichever object they
    were given and never branch.
    """

    __slots__ = ()

    def counter(self, name: str, help: str = "",  # noqa: A002
                labels: Iterable[str] = ()) -> _NullFamily:
        """Return the shared no-op family."""
        return _NULL_FAMILY

    def gauge(self, name: str, help: str = "",  # noqa: A002
              labels: Iterable[str] = ()) -> _NullFamily:
        """Return the shared no-op family."""
        return _NULL_FAMILY

    def histogram(self, name: str, help: str = "",  # noqa: A002
                  labels: Iterable[str] = (),
                  bounds: Iterable[float] | None = None) -> _NullFamily:
        """Return the shared no-op family."""
        return _NULL_FAMILY


_NULL_SERIES = _NullSeries()
_NULL_FAMILY = _NullFamily()

#: Shared no-op registry for owners of directly counted families.
NULL_METRICS = _NullMetrics()
