"""The metrics registry: families, labels, exports, and parity.

The load-bearing contracts:

* a series declared with ``stats.counter(name, family, ...)`` is a
  read-only view over that one stats counter once ``bind_stats`` runs:
  every write to the counter, through the handle or not, is exported,
  and a counter that never moved exports as ``0.0``;
* a metrics-enabled run exports the paper-level counters as named
  series whose totals equal the ``summarize()`` fields the figures
  read;
* enabling metrics does not perturb the simulation (identical stats
  snapshot with metrics on and off).
"""

from __future__ import annotations

import json

import pytest

from repro.common.stats import CounterHandle, StatsRegistry
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, _NullMetrics


class TestRegistry:
    def test_counter_family_and_series(self):
        m = MetricsRegistry()
        fam = m.counter("repro_widgets_total", "Widgets", labels=("kind",))
        fam.labels(kind="a").inc()
        fam.labels(kind="a").inc(2)
        fam.labels(kind="b").inc()
        assert m.get("repro_widgets_total", kind="a") == 3
        assert m.get("repro_widgets_total", kind="b") == 1
        assert m.total("repro_widgets_total") == 4

    def test_reregistration_is_idempotent(self):
        m = MetricsRegistry()
        first = m.counter("repro_x_total", "X", labels=("node",))
        again = m.counter("repro_x_total", labels=("node",))
        assert again is first
        assert again.help == "X"  # help survives a bare re-registration

    def test_conflicting_reregistration_raises(self):
        m = MetricsRegistry()
        m.counter("repro_x_total", labels=("node",))
        with pytest.raises(ValueError, match="already registered"):
            m.gauge("repro_x_total", labels=("node",))
        with pytest.raises(ValueError, match="already registered"):
            m.counter("repro_x_total", labels=("other",))

    def test_invalid_names_rejected(self):
        m = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            m.counter("bad name")
        with pytest.raises(ValueError, match="invalid label name"):
            m.counter("repro_ok_total", labels=("bad-label",))

    def test_label_kwargs_must_match_family(self):
        m = MetricsRegistry()
        fam = m.counter("repro_x_total", labels=("node",))
        with pytest.raises(ValueError, match="takes labels"):
            fam.labels(node=0, extra=1)
        with pytest.raises(ValueError, match="takes labels"):
            fam.labels()

    def test_label_values_are_stringified(self):
        m = MetricsRegistry()
        fam = m.counter("repro_x_total", labels=("node",))
        fam.labels(node=3).inc()
        assert m.get("repro_x_total", node="3") == 1
        assert fam.labels(node="3").value == 1

    def test_missing_series_reads_zero(self):
        m = MetricsRegistry()
        assert m.get("repro_never_registered") == 0.0
        assert m.total("repro_never_registered") == 0.0
        m.counter("repro_x_total", labels=("node",))
        assert m.get("repro_x_total", node=9) == 0.0


def _declared_stats():
    """A stats registry with one declared counter, ready to bind."""
    registry = StatsRegistry()
    stats = registry.scoped("ctrl0")
    handle = stats.counter(
        "ts_stores", "repro_ts_stores_total", "TS stores", node=0
    )
    return registry, stats, handle


class TestStatsViews:
    """Declared stats counters exported as read-only view series."""

    def test_view_reads_the_stats_counter(self):
        registry, stats, handle = _declared_stats()
        assert isinstance(handle, CounterHandle)
        assert handle.name == "ctrl0.ts_stores"
        m = MetricsRegistry()
        m.bind_stats(registry)
        handle.inc()
        handle.inc(4)
        assert stats.get("ts_stores") == 5
        assert m.get("repro_ts_stores_total", node=0) == 5
        assert m.total("repro_ts_stores_total") == 5

    def test_declaration_counts_stats_without_a_registry(self):
        registry, stats, handle = _declared_stats()
        handle.inc(3)
        assert stats.get("ts_stores") == 3
        assert [d.key for d in registry.declarations] == ["ctrl0.ts_stores"]

    def test_raw_stats_writes_on_a_declared_counter_are_exported(self):
        # The drift a second counter store allowed: an increment that
        # bypasses the handle must still reach the export.
        registry, stats, _ = _declared_stats()
        m = MetricsRegistry()
        m.bind_stats(registry)
        stats.add("ts_stores", 2)
        assert m.get("repro_ts_stores_total", node=0) == 2
        stats.set("ts_stores", 7)
        (entry,) = m.to_json()["series"]
        assert entry["value"] == 7
        assert 'repro_ts_stores_total{node="0"} 7' in m.to_prometheus()

    def test_never_incremented_counter_exports_float_zero(self):
        registry, _, _ = _declared_stats()
        m = MetricsRegistry()
        m.bind_stats(registry)
        (entry,) = m.to_json()["series"]
        assert entry["value"] == 0.0
        assert isinstance(entry["value"], float)
        assert "ctrl0.ts_stores" not in registry  # the view created nothing

    def test_view_is_read_only(self):
        registry, _, _ = _declared_stats()
        m = MetricsRegistry()
        m.bind_stats(registry)
        (family,) = m.families()
        view = family.labels(node=0)
        assert not hasattr(view, "inc")
        assert not hasattr(view, "set")

    def test_same_series_declared_twice_raises(self):
        registry, stats, _ = _declared_stats()
        stats.counter("ts_stores_again", "repro_ts_stores_total", node=0)
        with pytest.raises(ValueError, match="declared twice"):
            MetricsRegistry().bind_stats(registry)


class TestHistogramBinding:
    def test_bind_exports_existing_histogram(self):
        registry = StatsRegistry()
        hist = registry.scoped("node0").histogram(
            "miss_latency", "repro_lat_cycles", "Latency", node=0
        )
        m = MetricsRegistry()
        m.bind_stats(registry)
        hist.record(8)
        hist.record(100)
        doc = m.to_json()
        (entry,) = doc["series"]
        assert entry["name"] == "repro_lat_cycles"
        assert entry["labels"] == {"node": "0"}
        assert entry["histogram"]["count"] == 2
        (family,) = m.families()
        assert family.labels(node=0).hist is hist  # no double recording


class TestExports:
    def make(self):
        m = MetricsRegistry()
        fam = m.counter("repro_x_total", "Things counted", labels=("kind",))
        fam.labels(kind="b").inc(2)
        fam.labels(kind="a").inc()
        m.gauge("repro_level").labels().set(7)
        m.histogram("repro_lat", "Lat", labels=("node",)).labels(node=0).record(3, 2)
        return m

    def test_to_json_is_sorted_and_diffable(self):
        doc = self.make().to_json()
        assert doc["schema"] == 1
        names = [(e["name"], tuple(e["labels"].values())) for e in doc["series"]]
        assert names == sorted(names)
        json.dumps(doc)  # must be JSON-safe

    def test_prometheus_text_format(self):
        text = self.make().to_prometheus()
        assert "# HELP repro_x_total Things counted" in text
        assert "# TYPE repro_x_total counter" in text
        assert 'repro_x_total{kind="a"} 1' in text
        assert 'repro_x_total{kind="b"} 2' in text
        assert "# TYPE repro_level gauge" in text
        assert "repro_level 7" in text  # no labels -> bare name
        assert "# TYPE repro_lat histogram" in text
        assert 'repro_lat_bucket{node="0",le="+Inf"} 2' in text
        assert 'repro_lat_sum{node="0"} 6' in text
        assert 'repro_lat_count{node="0"} 2' in text
        assert text.endswith("\n")

    def test_prometheus_histogram_buckets_are_cumulative(self):
        m = MetricsRegistry()
        hist = m.histogram("repro_lat", labels=("node",)).labels(node=0)
        for value in (1, 2, 4, 1000):
            hist.record(value)
        text = m.to_prometheus()
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_lat_bucket")
        ]
        assert counts == sorted(counts)  # cumulative by definition
        assert counts[-1] == 4  # +Inf bucket sees everything

    def test_label_value_escaping(self):
        m = MetricsRegistry()
        m.counter("repro_x_total", labels=("name",)).labels(
            name='he said "hi"\\\n'
        ).inc()
        text = m.to_prometheus()
        assert '{name="he said \\"hi\\"\\\\\\n"}' in text


class TestNullMetrics:
    def test_not_a_registry_subclass(self):
        assert not isinstance(NULL_METRICS, MetricsRegistry)
        assert isinstance(NULL_METRICS, _NullMetrics)

    def test_families_are_shared_noops(self):
        fam = NULL_METRICS.counter("repro_anything_total", labels=("x",))
        assert fam is NULL_METRICS.gauge("repro_other")
        series = fam.labels(x=1)
        series.inc()
        series.set(9)
        series.record(3)  # all discarded, nothing raises


@pytest.fixture(scope="module")
def instrumented_run():
    """One small metrics-enabled run plus its summarize() view."""
    from repro.common.config import scaled_config
    from repro.experiments.runner import summarize
    from repro.system.system import System
    from repro.system.techniques import configure_technique
    from repro.workloads.registry import get_benchmark

    config = configure_technique(scaled_config(), "emesti+lvp")
    metrics = MetricsRegistry()
    system = System(
        config, get_benchmark("radiosity", scale=0.05), seed=1, metrics=metrics
    )
    result = system.run()
    return metrics, summarize(result), result


class TestRunParity:
    """Metric series vs the summarize() counters the figures read."""

    def test_paper_counters_match_summary(self, instrumented_run):
        metrics, summary, _ = instrumented_run
        assert metrics.total("repro_ts_stores_total") == summary["ts_stores"]
        assert metrics.total("repro_misses_total") == summary["miss_total"]
        for cause, key in (
            ("tss", "miss_comm_tss"),
            ("false", "miss_comm_false"),
            ("true", "miss_comm_true"),
        ):
            assert metrics.get(
                "repro_comm_misses_total", cause=cause
            ) == summary[key], cause

    def test_validates_by_outcome_match_summary(self, instrumented_run):
        metrics, summary, result = instrumented_run
        n = result.config.n_procs
        for outcome, key in (
            ("broadcast", "validates_broadcast"),
            ("suppressed", "validates_suppressed"),
        ):
            total = sum(
                metrics.get("repro_validates_total", node=i, outcome=outcome)
                for i in range(n)
            )
            assert total == summary[key], outcome

    def test_predictor_transitions_match_summary(self, instrumented_run):
        metrics, summary, result = instrumented_run
        n = result.config.n_procs
        useful = sum(
            metrics.get(
                "repro_predictor_transitions_total", node=i, cause=cause
            )
            for i in range(n)
            for cause in ("external_request", "useful_snoop")
        )
        useless = sum(
            metrics.get(
                "repro_predictor_transitions_total", node=i, cause="useless_snoop"
            )
            for i in range(n)
        )
        assert useful == summary["validates_useful"]
        assert useless == summary["validates_useless"]

    def test_lvp_series_match_summary(self, instrumented_run):
        metrics, summary, _ = instrumented_run
        assert metrics.total("repro_lvp_predictions_total") == summary[
            "lvp_predictions"
        ]
        for outcome, key in (
            ("verified", "lvp_correct"),
            ("squashed", "lvp_mispredictions"),
        ):
            total = sum(
                s.value
                for f in metrics.families()
                if f.name == "repro_lvp_resolutions_total"
                for s in f.series()
                if s.labels["outcome"] == outcome
            )
            assert total == summary[key], outcome

    def test_run_gauges_match_result(self, instrumented_run):
        metrics, _, result = instrumented_run
        assert metrics.get("repro_run_cycles") == result.cycles
        assert metrics.get("repro_run_committed") == result.committed

    def test_result_carries_registry(self, instrumented_run):
        metrics, _, result = instrumented_run
        assert result.metrics is metrics

    def test_metrics_do_not_perturb_the_simulation(self):
        from repro.common.config import scaled_config
        from repro.system.system import System
        from repro.system.techniques import configure_technique
        from repro.workloads.registry import get_benchmark

        def snapshot(metrics):
            config = configure_technique(scaled_config(), "emesti+lvp")
            system = System(
                config, get_benchmark("radiosity", scale=0.02), seed=1,
                metrics=metrics,
            )
            system.run()
            return system.stats.snapshot()

        assert snapshot(None) == snapshot(MetricsRegistry())
