"""Tests for the executor backends (inline + process pool).

The parity suite runs every example application through the inline
backend and the process-pool backend under the same lowering and asserts
identical sink multisets and per-task tuple counts.  Exactness depends on
the app's statefulness:

* WC tolerates replication everywhere — its keyed state (running word
  counts) is order-independent across input interleavings;
* FD/SD keep their order-sensitive stage behind a single parser task so
  per-key input order is preserved through the content-based groupings;
* LR's multi-input stateful joins need the process backend's ``ordered``
  mode, which processes input edges in the same strict declaration order
  the inline backend drains them in.
"""

from collections import Counter as Multiset

import pytest

from repro.apps import load_application
from repro.apps.linear_road import build_linear_road
from repro.core.plan import collocated_plan
from repro.dsps import LocalEngine
from repro.errors import ExecutionError
from repro.metrics import MetricsRegistry
from repro.runtime import (
    InlineBackend,
    OverloadConfig,
    ProcessPoolBackend,
    resolve_backend,
    shm_available,
)

EVENTS = 300


def run_app(app, *, backend="inline", replication=None, **kwargs):
    topology, _profiles = load_application(app)
    # Sinks sample nothing by default; retain everything so runs can be
    # compared value-for-value.
    topology.component("sink").template.keep_samples = 10**6
    engine = LocalEngine(
        topology, replication=replication, backend=backend, **kwargs
    )
    return engine.run(EVENTS)


def sink_multiset(result):
    return Multiset(
        tuple(item.values)
        for sinks in result.sinks.values()
        for sink in sinks
        for item in sink.samples
    )


def task_counts(result):
    return {
        task_id: (stats.tuples_in, stats.tuples_out)
        for task_id, stats in result.task_stats.items()
    }


def assert_depths_within_capacity(snapshot):
    gauges = snapshot["gauges"]
    depths = {n: v for n, v in gauges.items() if n.endswith(".max_depth_tuples")}
    assert depths, "expected per-queue depth gauges"
    for name, depth in depths.items():
        assert depth <= gauges[name.replace(".max_depth_tuples", ".capacity_tuples")]


def assert_parity(reference, candidate):
    assert candidate.events_ingested == reference.events_ingested
    assert candidate.sink_received() == reference.sink_received()
    assert task_counts(candidate) == task_counts(reference)
    assert sink_multiset(candidate) == sink_multiset(reference)


class TestBackendResolution:
    def test_names(self):
        assert isinstance(resolve_backend("inline"), InlineBackend)
        assert isinstance(resolve_backend("process"), ProcessPoolBackend)

    def test_instance_passthrough(self):
        backend = InlineBackend()
        assert resolve_backend(backend) is backend

    @pytest.mark.parametrize(
        "argument",
        [
            {"n_workers": 2},
            {"ordered": True},
            {"dataplane": "pickle"},
            {"vectorized": "off"},
            {"overload": OverloadConfig()},
            {"timeout_s": 5.0},
        ],
        ids=lambda argument: next(iter(argument)),
    )
    @pytest.mark.parametrize("backend", [InlineBackend(), ProcessPoolBackend()])
    def test_instance_rejects_what_it_would_ignore(self, backend, argument):
        (name,) = argument
        with pytest.raises(ExecutionError, match=f"^{name}= configures"):
            resolve_backend(backend, **argument)

    def test_instance_accepts_what_lives_on_the_spec(self):
        backend = ProcessPoolBackend()
        assert resolve_backend(backend, queue_budget=512) is backend

    def test_engine_names_the_argument_an_instance_would_drop(self):
        # An executor option asked of the engine next to a ready-made
        # backend used to run without it, silently.
        topology, _ = load_application("wc")
        with pytest.raises(ExecutionError, match="^overload= configures"):
            LocalEngine(
                topology,
                backend=ProcessPoolBackend(n_workers=2),
                overload=True,
                epoch_interval=100,
            )
        with pytest.raises(ExecutionError, match="^n_workers= configures"):
            LocalEngine(topology, backend=InlineBackend(), n_workers=2)

    def test_unknown_name(self):
        with pytest.raises(ExecutionError, match="unknown backend 'threads'"):
            resolve_backend("threads")

    def test_unknown_name_lists_valid_backends(self):
        with pytest.raises(ExecutionError, match="inline"):
            resolve_backend("gpu")

    def test_bad_worker_count(self):
        with pytest.raises(ExecutionError):
            ProcessPoolBackend(n_workers=0)

    @pytest.mark.parametrize("n", [0, -1, -100])
    def test_resolve_rejects_bad_worker_count(self, n):
        with pytest.raises(ExecutionError, match="n_workers must be >= 1"):
            resolve_backend("process", n_workers=n)

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_engine_rejects_bad_queue_capacity(self, capacity):
        topology, _ = load_application("wc")
        with pytest.raises(ExecutionError, match="queue_capacity must be positive"):
            LocalEngine(topology, queue_capacity=capacity)

    @pytest.mark.parametrize("budget", [0, -64])
    def test_engine_rejects_bad_queue_budget(self, budget):
        topology, _ = load_application("wc")
        with pytest.raises(ExecutionError, match="queue_budget must be positive"):
            LocalEngine(topology, queue_budget=budget)


class TestInlineBounded:
    """Bounded inline runs must match the unbounded (seed) semantics."""

    @pytest.mark.parametrize("app", ["wc", "fd", "sd", "lr"])
    def test_bounded_matches_unbounded(self, app):
        reference = run_app(app)
        bounded = run_app(app, queue_capacity=128)
        assert_parity(reference, bounded)

    def test_single_chain_is_bit_for_bit(self):
        # One replica per component: every queue has one producer, so even
        # the per-sink arrival sequence is reproduced exactly.
        reference = run_app("wc")
        bounded = run_app("wc", queue_budget=256)
        ref_samples = [
            tuple(i.values) for s in reference.sinks["sink"] for i in s.samples
        ]
        bnd_samples = [
            tuple(i.values) for s in bounded.sinks["sink"] for i in s.samples
        ]
        assert ref_samples == bnd_samples

    def test_backpressure_blocks_and_bounds(self):
        registry = MetricsRegistry()
        topology, _ = load_application("wc")
        engine = LocalEngine(
            topology, batch_size=32, queue_capacity=32, registry=registry
        )
        result = engine.run(EVENTS)
        assert result.sink_received() == EVENTS * 10
        snapshot = registry.snapshot()
        assert snapshot["counters"]["engine.run.backpressure_blocks"] > 0
        assert_depths_within_capacity(snapshot)

    def test_blocked_time_is_accounted(self):
        registry = MetricsRegistry()
        topology, _ = load_application("wc")
        engine = LocalEngine(
            topology, batch_size=32, queue_capacity=32, registry=registry
        )
        engine.run(EVENTS)
        snapshot = registry.snapshot()
        blocked = [
            value
            for name, value in snapshot["counters"].items()
            if name.endswith(".blocked_batches")
        ]
        assert sum(blocked) > 0


class TestProcessParity:
    def test_wc_replicated_arrival_mode(self):
        replication = {
            "spout": 1, "parser": 2, "splitter": 2, "counter": 2, "sink": 1,
        }
        reference = run_app("wc", replication=replication)
        candidate = run_app(
            "wc",
            replication=replication,
            backend=ProcessPoolBackend(n_workers=2),
        )
        assert_parity(reference, candidate)

    def test_fd_single_parser(self):
        replication = {"spout": 1, "parser": 1, "predictor": 2, "sink": 1}
        reference = run_app("fd", replication=replication)
        candidate = run_app(
            "fd",
            replication=replication,
            backend=ProcessPoolBackend(n_workers=2),
        )
        assert_parity(reference, candidate)
        assert sum(
            s.fraud_count for s in candidate.sinks["sink"]
        ) == sum(s.fraud_count for s in reference.sinks["sink"])

    def test_sd_single_parser(self):
        replication = {
            "spout": 1,
            "parser": 1,
            "moving_average": 2,
            "spike_detector": 2,
            "sink": 1,
        }
        reference = run_app("sd", replication=replication)
        candidate = run_app(
            "sd",
            replication=replication,
            backend=ProcessPoolBackend(n_workers=2),
        )
        assert_parity(reference, candidate)
        assert sum(
            s.spike_count for s in candidate.sinks["sink"]
        ) == sum(s.spike_count for s in reference.sinks["sink"])

    def test_lr_ordered_mode(self):
        """Where arrival order shows: at this seed, length and batch
        size ``accident_notify`` emits 22 tuples when its inputs are
        taken as they arrive (every run, on 2 and on 4 workers) and none
        inline.  At the default batch size arrival order happens to
        reproduce the inline counts, and ``ordered`` could be ignored
        unnoticed."""

        def run(backend):
            topology = build_linear_road(seed=7)
            topology.component("sink").template.keep_samples = 10**6
            return LocalEngine(topology, backend=backend, batch_size=4).run(8000)

        reference = run("inline")
        candidate = run(ProcessPoolBackend(n_workers=2, ordered=True))
        assert_parity(reference, candidate)
        (notifier,) = (
            stats
            for stats in candidate.task_stats.values()
            if stats.component == "accident_notify"
        )
        assert notifier.tuples_in > 0 and notifier.tuples_out == 0

    def test_single_worker_degenerates_cleanly(self):
        reference = run_app("wc")
        candidate = run_app("wc", backend=ProcessPoolBackend(n_workers=1))
        assert_parity(reference, candidate)

    def test_bounded_process_run_reports_runtime_metrics(self):
        registry = MetricsRegistry()
        topology, _ = load_application("wc")
        engine = LocalEngine(
            topology,
            queue_budget=256,
            registry=registry,
            backend=ProcessPoolBackend(n_workers=2),
        )
        result = engine.run(EVENTS)
        assert result.sink_received() == EVENTS * 10
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["runtime.run.workers"] == 2
        busy = [
            value
            for name, value in snapshot["gauges"].items()
            if name.startswith("runtime.worker.") and name.endswith(".busy_fraction")
        ]
        assert len(busy) == 2
        assert all(0.0 <= b <= 1.0 for b in busy)
        # Bytes crossed workers — over the rings, where the host has shm.
        plane = result.placement.dataplane
        assert plane == ("shm" if shm_available() else "pickle")
        assert snapshot["counters"]["runtime.run.dataplane_bytes"] > 0
        assert (snapshot["counters"]["runtime.run.pickled_bytes"] == 0) == (
            plane == "shm"
        )
        # Bounded edges stay within their capacity on this backend too —
        # except by a counted soft admission while a sender was blocked.
        if not any(
            value
            for name, value in snapshot["counters"].items()
            if name.endswith(".overflow_admissions")
        ):
            assert_depths_within_capacity(snapshot)


class TestFromPlan:
    def test_plan_driven_engine_is_bounded_and_placed(self):
        topology, _ = load_application("wc")
        probe = LocalEngine(topology)  # reuse its graph construction
        plan = collocated_plan(probe.graph, socket=1)
        engine = LocalEngine.from_plan(plan, backend="inline")
        assert engine.spec.bounded
        assert {rt.socket for rt in engine.spec.tasks} == {1}
        result = engine.run(200)
        assert result.sink_received() == 200 * 10
