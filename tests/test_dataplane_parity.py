"""Data-plane parity suite: pickle vs shm must be semantically invisible.

Every example application is run through the inline backend (the seed
semantics), the process backend on the pickle reference plane, and the
process backend on the default shared-memory plane.  All three must
agree on the sink multiset, events ingested and per-task tuple counts —
the data plane may only change *how* bytes move, never *which* tuples
arrive.
"""

import multiprocessing.queues
from collections import Counter as Multiset
from pathlib import Path

import pytest

from repro.apps import load_application
from repro.core.plan import ExecutionPlan
from repro.dsps import LocalEngine
from repro.dsps.graph import ExecutionGraph
from repro.errors import ExecutionError
from repro.metrics import MetricsRegistry
from repro.runtime import ProcessPoolBackend, resolve_backend, shm_available
from repro.runtime.dataplane import SHM_NAME_PREFIX, channels

EVENTS = 300

#: Replication configs under which each app's semantics are deterministic
#: across backends (see tests/test_runtime_backends.py for the rationale).
REPLICATION = {
    "wc": {"spout": 1, "parser": 2, "splitter": 2, "counter": 2, "sink": 1},
    "fd": {"spout": 1, "parser": 1, "predictor": 2, "sink": 1},
    "sd": {
        "spout": 1,
        "parser": 1,
        "moving_average": 2,
        "spike_detector": 2,
        "sink": 1,
    },
    "lr": None,  # parallelism hints (all 1); needs the ordered backend
}

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="no POSIX shared memory"
)


def run_app(app, *, backend="inline", registry=None, alternate=False, **kwargs):
    """``alternate`` pins the owner map through the plan path, sockets
    alternating along the topological task order: tests that assert on
    transport counters need every stream on the wire, whatever the
    backend's own placement would keep local."""
    topology, _profiles = load_application(app)
    topology.component("sink").template.keep_samples = 10**6
    if alternate:
        replication = REPLICATION[app] or dict.fromkeys(topology.components, 1)
        graph = ExecutionGraph(topology, replication, group_size=1)
        sockets = {
            task.task_id: position % 2
            for position, task in enumerate(graph.topological_task_order())
        }
        engine = LocalEngine.from_plan(
            ExecutionPlan(graph, sockets), backend=backend, registry=registry, **kwargs
        )
        return engine.run(EVENTS)
    engine = LocalEngine(
        topology,
        replication=REPLICATION[app],
        backend=backend,
        registry=registry,
        **kwargs,
    )
    return engine.run(EVENTS)


def shm_segments():
    return {p.name for p in Path("/dev/shm").glob(f"{SHM_NAME_PREFIX}*")}


def process_backend(app, dataplane, **kwargs):
    ordered = app == "lr"
    return ProcessPoolBackend(
        n_workers=2, ordered=ordered, dataplane=dataplane, **kwargs
    )


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


def assert_parity(reference, candidate):
    assert candidate.events_ingested == reference.events_ingested
    assert candidate.sink_received() == reference.sink_received()
    assert task_counts(candidate) == task_counts(reference)
    assert sink_multiset(candidate) == sink_multiset(reference)


class TestDataplaneResolution:
    def test_resolve_accepts_both_planes(self):
        for plane in ("pickle", "shm"):
            backend = resolve_backend("process", dataplane=plane)
            assert backend.config.dataplane == plane
        assert resolve_backend("process").config.dataplane == "shm"

    def test_default_plane_is_pickle_on_a_host_without_shm(self, monkeypatch):
        # The transport is picked from what the code can observe: no
        # working POSIX shm, no rings — and the run says which plane ran.
        monkeypatch.setattr(channels, "shm_available", lambda: False)
        before = shm_segments()
        registry = MetricsRegistry()
        candidate = run_app(
            "wc", backend=ProcessPoolBackend(n_workers=2), registry=registry
        )
        assert_parity(run_app("wc"), candidate)
        assert candidate.placement.dataplane == "pickle"
        assert "over pickle" in candidate.placement.describe()
        counters = registry.snapshot()["counters"]
        assert counters["runtime.run.dataplane_bytes"] == counters[
            "runtime.run.pickled_bytes"
        ]
        assert shm_segments() == before

    def test_resolve_rejects_unknown_plane(self):
        with pytest.raises(ExecutionError, match="unknown dataplane"):
            resolve_backend("process", dataplane="rdma")

    def test_backend_rejects_unknown_plane(self):
        with pytest.raises(ExecutionError, match="unknown dataplane"):
            ProcessPoolBackend(dataplane="zeromq")

    def test_inline_ignores_dataplane(self):
        # The inline backend has no inter-process edges; selecting a data
        # plane must be accepted (and ignored) so CLI flags compose.
        result = run_app("wc", backend="inline", dataplane="shm")
        assert result.sink_received() == EVENTS * 10


class TestPickleShmParity:
    """Same run, byte-identical sink state, on every app."""

    @pytest.mark.parametrize("app", ["wc", "fd", "sd", "lr"])
    @needs_shm
    def test_shm_matches_inline(self, app):
        reference = run_app(app)
        candidate = run_app(app, backend=process_backend(app, "shm"))
        assert_parity(reference, candidate)

    @pytest.mark.parametrize("app", ["wc", "fd", "sd", "lr"])
    @needs_shm
    def test_shm_matches_pickle(self, app):
        pickled = run_app(app, backend=process_backend(app, "pickle"))
        shm = run_app(app, backend=process_backend(app, "shm"))
        assert_parity(pickled, shm)


class TestStringDictParity:
    """Dictionary encoding must be semantically invisible on every plane.

    The shm plane always runs the adaptive rule.  The matrix runs each
    app with kernels off and on — the two ways a string column reaches
    the codec: rows whose observed repetition promotes it, or a kernel's
    ``DictColumn`` that promotes at first sight — on both the pickle and
    shm planes, and compares sink multisets, ingest counts and per-task
    tuple counts against the inline reference.  WC's word edge and FD's
    trace edge promote mid-run, so the matrix exercises the raw->dict
    transition, the pickle plane's ``"D"``->``"s"`` decay, and LR's
    no-op path (integer schemas never consult the dictionary machinery).
    """

    @pytest.fixture(scope="class")
    def references(self):
        return {app: run_app(app) for app in ("wc", "fd", "sd", "lr")}

    @pytest.mark.parametrize("app", ["wc", "fd", "sd", "lr"])
    @pytest.mark.parametrize("mode", ["off", "auto"])
    @needs_shm
    def test_shm_dict_matches_inline(self, app, mode, references):
        candidate = run_app(
            app,
            backend=process_backend(app, "shm", vectorized=mode),
        )
        assert_parity(references[app], candidate)

    @pytest.mark.parametrize("app", ["wc", "fd", "sd", "lr"])
    @pytest.mark.parametrize("mode", ["off", "auto"])
    def test_pickle_dict_matches_inline(self, app, mode, references):
        candidate = run_app(
            app,
            backend=process_backend(app, "pickle", vectorized=mode),
        )
        assert_parity(references[app], candidate)

    def test_backend_rejects_unknown_mode(self):
        # No mode to choose: the option itself is unknown.
        with pytest.raises(TypeError, match="'string_dict'"):
            ProcessPoolBackend(string_dict="off")

    def test_resolve_rejects_unknown_mode(self):
        with pytest.raises(TypeError, match="'string_dict'"):
            resolve_backend("process", string_dict="off")


class TestStringDictRecovery:
    """Producer and consumer dictionaries reset in lockstep on restart.

    Codecs are built inside ``ShmRingChannel.connect()`` in the worker
    process, so a Supervisor retry rebuilds both sides from scratch —
    no stale decode table can survive a crash.  The sink multiset after
    an injected worker crash + replay must be bit-identical to a
    fault-free dict-encoded run.
    """

    @needs_shm
    def test_dict_state_resets_exactly_once_under_crash_retry(self):
        from repro.runtime import FaultPlan

        reference = run_app("wc", backend=process_backend("wc", "shm"), alternate=True)
        faulty = run_app(
            "wc",
            alternate=True,
            backend=process_backend("wc", "shm"),
            # Splitter #1 dies 100 sentences in: ~500 words down each of
            # its out-edges, past the 256 the dictionaries promote at.
            fault_plan=FaultPlan(seed=3, kinds=("crash",), at_tuple=100),
            recovery_policy="retry",
        )
        assert faulty.recovery.completed is True
        assert faulty.recovery.restarts >= 1
        assert_parity(reference, faulty)


class TestRingTransport:
    """The shm plane's rings are its whole transport: batches and
    barrier markers cross as frames, and a batch larger than the ring as
    parts — never through an ``mp.Queue``."""

    @pytest.mark.parametrize("app", ["wc", "lr"])
    @needs_shm
    def test_no_queue_carries_a_batch_or_a_marker(self, app, monkeypatch):
        def refuse(queue, *args, **kwargs):
            raise AssertionError("the shm plane used an mp.Queue")

        # The workers fork with the patch in place.
        monkeypatch.setattr(multiprocessing.queues.Queue, "put_nowait", refuse)
        monkeypatch.setattr(multiprocessing.queues.Queue, "get_nowait", refuse)
        before = shm_segments()
        registry = MetricsRegistry()
        options = {"epoch_interval": 100} if app == "lr" else {}
        candidate = run_app(
            app,
            backend=process_backend(app, "shm"),
            registry=registry,
            alternate=True,
            **options,
        )
        assert_parity(run_app(app, vectorized="off", **options), candidate)
        counters = registry.snapshot()["counters"]
        assert counters["runtime.dataplane.bytes_inline"] > 0
        assert shm_segments() == before

    @needs_shm
    def test_a_ring_smaller_than_a_batch_carries_it_in_parts(self, monkeypatch):
        monkeypatch.setattr(channels, "DEFAULT_RING_BYTES", 4096)
        before = shm_segments()
        registry = MetricsRegistry()
        candidate = run_app(
            "wc",
            backend=process_backend("wc", "shm"),
            registry=registry,
            alternate=True,
        )
        assert_parity(run_app("wc", vectorized="off"), candidate)
        counters = registry.snapshot()["counters"]
        assert counters["runtime.dataplane.bytes_oob"] > 0
        assert counters["runtime.dataplane.ring_full_blocks"] > 0
        assert shm_segments() == before


class TestDataplaneMetrics:
    @needs_shm
    def test_shm_run_reports_inline_bytes(self):
        registry = MetricsRegistry()
        result = run_app(
            "wc",
            backend=process_backend("wc", "shm"),
            registry=registry,
            alternate=True,
        )
        assert result.sink_received() == EVENTS * 10
        counters = registry.snapshot()["counters"]
        assert counters["runtime.dataplane.bytes_inline"] > 0
        assert counters["runtime.run.dataplane_bytes"] > 0
        # The sealed batches of every app edge are scalar-only; the codec
        # must not be falling back to pickle on the WC hot path.
        assert counters.get("runtime.dataplane.codec_fallbacks", 0) == 0

    def test_pickle_run_reports_dataplane_bytes(self):
        registry = MetricsRegistry()
        run_app(
            "wc",
            backend=process_backend("wc", "pickle"),
            registry=registry,
            alternate=True,
        )
        counters = registry.snapshot()["counters"]
        assert counters["runtime.run.pickled_bytes"] > 0
        assert (
            counters["runtime.run.dataplane_bytes"]
            == counters["runtime.run.pickled_bytes"]
        )

    @needs_shm
    def test_dict_run_publishes_dict_counters(self):
        # That the dictionary cuts the bytes is the codec's test
        # (test_dataplane_codec.py, TestDictCodec).
        registry = MetricsRegistry()
        result = run_app(
            "wc",
            backend=process_backend("wc", "shm"),
            registry=registry,
            alternate=True,
        )
        assert result.sink_received() == EVENTS * 10
        counters = registry.snapshot()["counters"]
        assert counters["runtime.dataplane.dict.promotions"] >= 1
        assert counters["runtime.dataplane.dict.columns"] >= 1
        assert counters["runtime.dataplane.dict.pages"] >= 1
        assert counters["runtime.dataplane.dict.bytes"] > 0
        assert counters.get("runtime.dataplane.codec_fallbacks", 0) == 0
        # Dict traffic still counts toward the plane's byte totals.
        assert (
            counters["runtime.dataplane.bytes_inline"]
            + counters["runtime.dataplane.bytes_oob"]
            >= counters["runtime.dataplane.dict.bytes"]
        )

    @needs_shm
    def test_dict_off_publishes_no_dict_counters(self):
        """Where the adaptive rule keeps a column raw, a run ships no
        dictionary: a map that cuts only the spout's edges moves nothing
        but all-distinct sentences, which the rule rejects."""
        registry = MetricsRegistry()
        topology, _profiles = load_application("wc")
        graph = ExecutionGraph(topology, REPLICATION["wc"], group_size=1)
        owner = {task.task_id: int(task.component != "spout") for task in graph.tasks}
        result = LocalEngine.from_plan(
            ExecutionPlan(graph, owner),
            backend=process_backend("wc", "shm"),
            registry=registry,
        ).run(EVENTS)
        assert result.sink_received() == EVENTS * 10
        counters = registry.snapshot()["counters"]
        assert counters["runtime.dataplane.bytes_inline"] > 0
        assert counters.get("runtime.dataplane.dict.promotions", 0) == 0
        assert counters.get("runtime.dataplane.dict.bytes", 0) == 0
