"""Vectorized execution tests: kernel/scalar parity and fallback rules.

The columnar fast path must be invisible except for speed — every test
here runs the same workload with ``vectorized="auto"`` and ``"off"`` and
demands identical sink contents and per-task counters, then checks the
``runtime.vectorized.*`` accounting for the documented fallback triggers
(non-columnar schemas, armed fault injection, ``off`` mode) — a live
metrics registry is not one.
"""

from collections import Counter

import pytest

from repro.apps.spike_detection import build_spike_detection
from repro.apps.wordcount import build_wordcount
from repro.dsps.engine import LocalEngine
from repro.dsps.operators import Operator, Sink, Spout
from repro.dsps.topology import TopologyBuilder
from repro.dsps.tuples import DEFAULT_STREAM
from repro.errors import ExecutionError
from repro.metrics import MetricsRegistry
from repro.runtime import (
    STRING_DICT_MODES,
    VECTORIZED_MODES,
    FaultPlan,
    ProcessPoolBackend,
)
from repro.runtime.backends import resolve_backend

EVENTS = 200

REPLICATION = {
    "wc": {"spout": 1, "parser": 2, "splitter": 2, "counter": 2, "sink": 1},
    "sd": {
        "spout": 1,
        "parser": 1,
        "moving_average": 2,
        "spike_detector": 2,
        "sink": 1,
    },
}

BUILDERS = {"wc": build_wordcount, "sd": build_spike_detection}


def run_app(app, vectorized, backend="inline", registry=None, **engine_kw):
    topology = BUILDERS[app]()
    for spec in topology.components.values():
        operator = getattr(spec, "operator", None)
        if operator is not None and hasattr(operator, "keep_samples"):
            operator.keep_samples = 10**6
    engine = LocalEngine(
        topology,
        replication=REPLICATION[app],
        backend=backend,
        vectorized=vectorized if isinstance(backend, str) else None,
        registry=registry,
        queue_budget=4096,
        **engine_kw,
    )
    return engine.run(EVENTS)


def sink_multiset(result):
    return Counter(
        (component, item.stream, item.values)
        for component, sinks in result.sinks.items()
        for sink in sinks
        for item in sink.samples
    )


def task_counters(result):
    return {
        task_id: (
            stats.tuples_in,
            stats.tuples_out,
            dict(stats.out_by_stream),
            dict(stats.bytes_out_by_stream),
        )
        for task_id, stats in result.task_stats.items()
    }


def vectorized_counters(registry):
    return {
        key.rsplit(".", 1)[-1]: value
        for key, value in registry.snapshot()["counters"].items()
        if key.startswith("runtime.vectorized.")
    }


class TestParity:
    @pytest.mark.parametrize("app", ("wc", "sd"))
    def test_inline_on_off_identical(self, app):
        off = run_app(app, "off")
        on = run_app(app, "auto")
        assert sink_multiset(off) == sink_multiset(on)
        assert task_counters(off) == task_counters(on)
        assert off.sink_received() == on.sink_received()

    @pytest.mark.parametrize("app", ("wc", "sd"))
    def test_process_on_off_identical(self, app):
        off = run_app(
            app,
            None,
            backend=ProcessPoolBackend(n_workers=2, vectorized="off"),
        )
        on = run_app(
            app,
            None,
            backend=ProcessPoolBackend(n_workers=2, vectorized="auto"),
        )
        assert sink_multiset(off) == sink_multiset(on)
        assert task_counters(off) == task_counters(on)


class TestCounters:
    def test_process_backend_vectorizes_and_publishes(self):
        registry = MetricsRegistry()
        run_app(
            "wc",
            None,
            backend=ProcessPoolBackend(n_workers=2, vectorized="auto"),
            registry=registry,
        )
        counters = vectorized_counters(registry)
        assert counters["batches"] > 0
        assert counters["tuples"] > 0
        assert counters["fallbacks"] == 0

    def test_off_mode_counts_nothing(self):
        registry = MetricsRegistry()
        run_app(
            "wc",
            None,
            backend=ProcessPoolBackend(n_workers=2, vectorized="off"),
            registry=registry,
        )
        assert all(v == 0 for v in vectorized_counters(registry).values())

    def test_inline_registry_keeps_kernels(self):
        # An instrumented inline run times each kernel call and runs the
        # same kernels, with the same results, as an uninstrumented one.
        registry = MetricsRegistry()
        watched = run_app("wc", "auto", registry=registry)
        plain = run_app("wc", "auto")
        counters = vectorized_counters(registry)
        assert counters["batches"] > 0
        assert counters["fallbacks"] == 0
        assert sink_multiset(watched) == sink_multiset(plain)
        assert task_counters(watched) == task_counters(plain)


class _DictSpout(Spout):
    """Emits tuples whose second field no columnar schema can hold."""

    def next_batch(self, max_tuples):
        for i in range(max_tuples):
            yield (f"w{i % 7}", {"i": i})


class _DropSecond(Operator):
    """Kernel-capable pass-through of the first field only."""

    declared_fields = {DEFAULT_STREAM: "s"}
    column_schemas = ("s",)

    def process(self, item):
        yield DEFAULT_STREAM, (item.values[0],)

    def process_columns(self, batch):
        from repro.runtime.dataplane import ColumnBatch

        yield ColumnBatch.build(DEFAULT_STREAM, "s", [batch.columns[0]])


class _ScalarSink(Sink):
    """Opts out of columnar intake by overriding ``process``."""

    def process(self, item):
        return super().process(item)


def _build_dict_topology():
    builder = TopologyBuilder("dicts")
    builder.set_spout("spout", _DictSpout())
    builder.add_operator("op", _DropSecond()).shuffle_from("spout")
    builder.add_sink("sink", _ScalarSink()).shuffle_from("op")
    return builder.build()


class TestFallbacks:
    def test_non_columnar_schema_counts_fallbacks(self):
        registry = MetricsRegistry()
        engine = LocalEngine(
            _build_dict_topology(),
            replication={"spout": 1, "op": 1, "sink": 1},
            backend=ProcessPoolBackend(n_workers=2, vectorized="auto"),
            registry=registry,
            queue_budget=4096,
        )
        result = engine.run(EVENTS)
        assert result.sink_received() == EVENTS
        counters = vectorized_counters(registry)
        assert counters["fallbacks"] > 0
        assert counters["batches"] == 0

    def test_armed_injector_counts_fallbacks(self):
        # A scheduled drop fault keeps per-tuple fault ticks live for the
        # whole run, so every batch at a kernel-capable operator falls
        # back even though the schema qualifies.
        registry = MetricsRegistry()
        result = run_app(
            "wc",
            None,
            backend=ProcessPoolBackend(n_workers=2, vectorized="auto"),
            registry=registry,
            fault_plan=FaultPlan(seed=5, kinds=("drop",), n_faults=1),
            recovery_policy="retry",
        )
        assert result.recovery is not None
        counters = vectorized_counters(registry)
        assert counters["batches"] == 0
        assert counters["fallbacks"] > 0


class TestModeValidation:
    def test_resolve_backend_rejects_unknown_mode(self):
        with pytest.raises(ExecutionError):
            resolve_backend("inline", vectorized="turbo")

    def test_backends_reject_unknown_mode(self):
        from repro.runtime.backends import InlineBackend

        with pytest.raises(ExecutionError):
            InlineBackend(vectorized="turbo")
        with pytest.raises(ExecutionError):
            ProcessPoolBackend(vectorized="turbo")

    def test_modes_are_two_valued(self):
        assert VECTORIZED_MODES == STRING_DICT_MODES == ("auto", "off")

    def test_cli_accepts_vectorized_flag(self, capsys):
        from repro.cli import main

        assert main(["run", "wc", "--events", "50", "--vectorized", "off"]) == 0
        capsys.readouterr()

    def test_cli_rejects_unknown_vectorized_mode(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "wc", "--vectorized", "turbo"])
        capsys.readouterr()
