"""Unit tests for the metrics registry, instrumentation hooks and exporter."""

import json
import statistics

import pytest

from repro.apps import load_application
from repro.core import PerformanceModel, RLASOptimizer, collocated_plan
from repro.dsps import ExecutionGraph
from repro.dsps.engine import LocalEngine
from repro.errors import MetricsError
from repro.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    build_report,
    load_report,
    write_report,
)
from repro.metrics.registry import Histogram
from repro.simulation import DiscreteEventSimulator

from tests.conftest import build_pipeline, pipeline_profiles


class TestCounter:
    def test_increments(self):
        counter = MetricsRegistry().counter("a.0.n")
        counter.inc()
        counter.inc(5)
        assert counter.snapshot() == 6

    def test_rejects_negative(self):
        counter = MetricsRegistry().counter("a.0.n")
        with pytest.raises(MetricsError):
            counter.inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        gauge = MetricsRegistry().gauge("a.0.g")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.snapshot() == 1.5


class TestHistogram:
    def test_moments_are_exact(self):
        histogram = Histogram("h")
        for value in [5.0, 1.0, 3.0]:
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 9.0
        assert histogram.mean == 3.0
        assert histogram.min == 1.0
        assert histogram.max == 5.0

    def test_quantiles_match_statistics_module(self):
        # Deterministic, unsorted, with duplicates.
        data = [((i * 37) % 101) * 0.5 for i in range(100)]
        histogram = Histogram("h")
        for value in data:
            histogram.observe(value)
        # Inclusive-method cut points: quantiles(n)[i-1] == quantile(i/n).
        quartiles = statistics.quantiles(data, n=4, method="inclusive")
        assert histogram.quantile(0.25) == pytest.approx(quartiles[0])
        assert histogram.percentile(50) == pytest.approx(quartiles[1])
        assert histogram.percentile(75) == pytest.approx(quartiles[2])
        percentiles = statistics.quantiles(data, n=100, method="inclusive")
        assert histogram.percentile(95) == pytest.approx(percentiles[94])
        assert histogram.percentile(99) == pytest.approx(percentiles[98])

    def test_reservoir_is_bounded_but_moments_stay_exact(self):
        histogram = Histogram("h", reservoir=64)
        for i in range(10_000):
            histogram.observe(float(i))
        assert len(histogram._reservoir) == 64
        assert histogram.count == 10_000
        assert histogram.min == 0.0
        assert histogram.max == 9999.0
        # The sampled median lands near the true median.
        assert histogram.percentile(50) == pytest.approx(5000, rel=0.25)

    def test_reservoir_sampling_is_deterministic(self):
        def build():
            h = Histogram("same-name", reservoir=32)
            for i in range(1000):
                h.observe(float(i % 97))
            return h.snapshot()

        assert build() == build()

    def test_empty_histogram(self):
        histogram = Histogram("h")
        assert histogram.snapshot() == {"count": 0}
        with pytest.raises(MetricsError):
            histogram.quantile(0.5)

    def test_weighted_observe_moves_moments_by_the_weight(self):
        # One kernel call over 100 rows at 3 ns a row, then one row at 9.
        histogram = Histogram("h")
        histogram.observe(3.0, 100)
        histogram.observe(9.0)
        assert histogram.count == 101
        assert histogram.total == 309.0
        assert histogram.mean == pytest.approx(309.0 / 101)
        assert (histogram.min, histogram.max) == (3.0, 9.0)
        # Quantiles are over calls: two samples, not 101.
        assert sorted(histogram._reservoir) == [3.0, 9.0]
        assert histogram.percentile(50) == 6.0
        null = NULL_REGISTRY.histogram("h")
        null.observe(3.0, 100)
        assert null.count == 0 and null.total == 0.0

    def test_weighted_reservoir_samples_calls(self):
        # Past a full reservoir, a call's chance of a slot is k / calls,
        # not k / items: the weighted and unweighted streams keep the same
        # slots.
        plain, weighted = Histogram("same", reservoir=8), Histogram("same", reservoir=8)
        for i in range(200):
            plain.observe(float(i))
            weighted.observe(float(i), 50)
        assert plain._reservoir == weighted._reservoir
        assert weighted.count == 50 * plain.count

    def test_quantile_bounds(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        with pytest.raises(MetricsError):
            histogram.quantile(1.5)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x.0.c") is registry.counter("x.0.c")
        assert registry.histogram("x.0.h") is registry.histogram("x.0.h")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x.0.c")
        with pytest.raises(MetricsError):
            registry.gauge("x.0.c")

    def test_empty_name_rejected(self):
        with pytest.raises(MetricsError):
            MetricsRegistry().counter("")

    def test_snapshot_structure(self):
        registry = MetricsRegistry()
        registry.counter("a.0.c").inc(2)
        registry.gauge("a.0.g").set(1.0)
        registry.histogram("a.0.h").observe(4.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"a.0.c": 2}
        assert snap["gauges"] == {"a.0.g": 1.0}
        assert snap["histograms"]["a.0.h"]["count"] == 1
        assert {"p50", "p95", "p99"} <= set(snap["histograms"]["a.0.h"])
        assert len(registry) == 3
        assert list(registry.names()) == ["a.0.c", "a.0.g", "a.0.h"]


class TestNullRegistry:
    def test_disabled_and_inert(self):
        registry = NullRegistry()
        assert registry.enabled is False
        registry.counter("a.0.c").inc(10)
        registry.gauge("a.0.g").set(1.0)
        registry.histogram("a.0.h").observe(5.0)
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_instruments_are_shared_singletons(self):
        registry = NullRegistry()
        assert registry.counter("a") is registry.counter("b")
        assert registry.histogram("a") is registry.histogram("b")

    def test_module_singleton(self):
        assert NULL_REGISTRY.enabled is False


class TestEngineInstrumentation:
    @pytest.fixture(scope="class")
    def instrumented_run(self):
        topology, _ = load_application("wc")
        registry = MetricsRegistry()
        engine = LocalEngine(topology, registry=registry)
        return engine, registry, engine.run(200)

    def test_counters_match_task_stats_exactly(self, instrumented_run):
        engine, registry, result = instrumented_run
        counters = registry.snapshot()["counters"]
        for task in engine.graph.tasks:
            stats = result.task_stats[task.task_id]
            prefix = f"engine.{task.component}.{task.replica_start}"
            assert counters[f"{prefix}.tuples_in"] == stats.tuples_in
            assert counters[f"{prefix}.tuples_out"] == stats.tuples_out
        assert counters["engine.run.events_ingested"] == result.events_ingested
        assert counters["engine.run.sink_received"] == result.sink_received()

    def test_process_latency_histograms(self, instrumented_run):
        _, registry, _ = instrumented_run
        histograms = registry.snapshot()["histograms"]
        process = {n: h for n, h in histograms.items() if n.endswith(".process_ns")}
        assert process
        for stats in process.values():
            assert stats["count"] > 0
            assert stats["p50"] <= stats["p95"] <= stats["p99"] <= stats["max"]

    def test_queue_gauges(self, instrumented_run):
        _, registry, _ = instrumented_run
        gauges = registry.snapshot()["gauges"]
        fills = {n: v for n, v in gauges.items() if n.endswith(".jumbo_fill_ratio")}
        assert fills
        assert all(0.0 <= v <= 1.0 for v in fills.values())
        assert any(n.endswith(".max_depth_tuples") for n in gauges)

    def test_uninstrumented_run_is_identical(self, instrumented_run):
        engine, _, instrumented = instrumented_run
        plain = LocalEngine(engine.topology).run(200)
        for task_id, stats in instrumented.task_stats.items():
            assert plain.task_stats[task_id].tuples_in == stats.tuples_in
            assert plain.task_stats[task_id].tuples_out == stats.tuples_out


class TestSimulatorInstrumentation:
    def test_des_occupancy_and_service(self, tiny_machine):
        topology = build_pipeline()
        profiles = pipeline_profiles(topology)
        graph = ExecutionGraph(topology, {n: 1 for n in topology.components})
        registry = MetricsRegistry()
        simulator = DiscreteEventSimulator(
            profiles, tiny_machine, seed=1, registry=registry
        )
        result = simulator.run(collocated_plan(graph), 1e5, max_events=500)
        snap = registry.snapshot()
        assert snap["counters"]["des.run.events_generated"] == result.events_generated
        assert snap["counters"]["des.run.tuples_delivered"] == result.tuples_delivered
        occupancy = {n: v for n, v in snap["gauges"].items() if n.endswith(".occupancy")}
        assert occupancy
        assert all(0.0 <= v <= 1.0 for v in occupancy.values())
        service = {n: h for n, h in snap["histograms"].items() if n.endswith(".service_ns")}
        assert service and all(h["count"] > 0 for h in service.values())
        waits = {n: h for n, h in snap["histograms"].items() if n.endswith(".wait_ns")}
        assert waits  # non-spout replicas pulled batches from queues
        assert snap["histograms"]["des.run.latency_ns"]["count"] == len(
            result.latency.samples_ns
        )

    def test_des_null_registry_matches(self, tiny_machine):
        topology = build_pipeline()
        profiles = pipeline_profiles(topology)
        graph = ExecutionGraph(topology, {n: 1 for n in topology.components})
        plan = collocated_plan(graph)
        plain = DiscreteEventSimulator(profiles, tiny_machine, seed=1).run(
            plan, 1e5, max_events=300
        )
        metered = DiscreteEventSimulator(
            profiles, tiny_machine, seed=1, registry=MetricsRegistry()
        ).run(plan, 1e5, max_events=300)
        assert plain.latency.samples_ns == metered.latency.samples_ns
        assert plain.simulated_ns == metered.simulated_ns


class TestOptimizerInstrumentation:
    def test_rlas_search_counters(self, tiny_machine):
        topology = build_pipeline()
        profiles = pipeline_profiles(topology)
        registry = MetricsRegistry()
        RLASOptimizer(
            topology,
            profiles,
            tiny_machine,
            ingress_rate=1e5,
            max_iterations=4,
            registry=registry,
        ).optimize()
        snap = registry.snapshot()
        counters = snap["counters"]
        assert counters["rlas.scaling.iterations"] >= 1
        assert counters["rlas.bnb.nodes_expanded"] > 0
        assert counters["rlas.bnb.plans_evaluated"] > 0
        assert counters["rlas.optimize.runs"] == 1
        assert snap["gauges"]["rlas.optimize.realized_throughput"] > 0
        assert snap["gauges"]["rlas.scaling.time_to_best_s"] >= 0


class TestExportRoundTrip:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("engine.op.0.tuples_in").inc(42)
        registry.gauge("engine.queue.0-1.jumbo_fill_ratio").set(0.75)
        histogram = registry.histogram("engine.op.0.process_ns")
        for value in (10.0, 20.0, 30.0):
            histogram.observe(value)
        return registry

    def test_round_trip(self, tmp_path):
        registry = self._registry()
        report = build_report(
            "engine-run", "wc", registry=registry, meta={"app": "wc"}, data={"k": 1}
        )
        path = write_report(tmp_path / "report.json", report)
        loaded = load_report(path)
        assert loaded.schema_version == report.schema_version
        assert loaded.kind == "engine-run"
        assert loaded.name == "wc"
        assert loaded.meta == {"app": "wc"}
        assert loaded.data == {"k": 1}
        assert loaded.metrics == registry.snapshot()
        assert loaded.counters()["engine.op.0.tuples_in"] == 42
        assert loaded.histograms()["engine.op.0.process_ns"]["p50"] == 20.0

    def test_rejects_future_schema(self, tmp_path):
        report = build_report("engine-run", "wc")
        raw = report.to_dict()
        raw["schema_version"] = 999
        path = tmp_path / "future.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(MetricsError):
            load_report(path)

    def test_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"schema_version": 1, "kind": "x"}))
        with pytest.raises(MetricsError):
            load_report(path)

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all {")
        with pytest.raises(MetricsError):
            load_report(path)
