"""Epoch barriers: checkpoint contract, parity, resume, live migration.

The barrier protocol's core guarantee is that cutting the stream into
epochs is *observationally free*: a run with barriers produces exactly
the results of a run without them, on both backends.  On top of that sit
the two consumers — the supervisor's resume-from-last-epoch recovery
(duplicate deliveries shrink from whole-run replay to one epoch) and
live migration (moving tasks between sockets at a barrier does not
change results).  See docs/reconfiguration.md.
"""

import multiprocessing
import os
import signal
import time
from collections import Counter as Multiset
from dataclasses import replace as dc_replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import load_application
from repro.core.plan import ExecutionPlan
from repro.dsps import LocalEngine, Sink, Spout, TopologyBuilder
from repro.dsps.operators import MapOperator
from repro.errors import ExecutionError, StallError, WorkerCrashError
from repro.metrics import MetricsRegistry
from repro.metrics.registry import NULL_REGISTRY
from repro.runtime import (
    AdaptiveBatchConfig,
    EpochConfig,
    FaultPlan,
    Migration,
    ProcessPoolBackend,
    check_serializable,
    shm_available,
)
from repro.runtime.dataplane import SHM_NAME_PREFIX
from repro.runtime.backends import _InlineRun
from repro.runtime.epochs import BARRIER_PARTS
from repro.runtime.process_pool import CRASH_EXIT_CODE, _PoolRun, _Worker
from repro.runtime.lowering import instantiate_tasks
from repro.runtime.step import TaskStep

EVENTS = 300
INTERVAL = 100
#: Fault trigger inside the *second* epoch so resume-from-epoch has a
#: committed checkpoint to start from.
AT = 150


def build_engine(app, **kwargs):
    topology, _ = load_application(app)
    topology.component("sink").template.keep_samples = 10**6
    return LocalEngine(topology, **kwargs)


def sink_multiset(result):
    return Multiset(
        tuple(item.values)
        for sinks in result.sinks.values()
        for sink in sinks
        for item in sink.samples
    )


@pytest.fixture(scope="module")
def baselines():
    return {app: build_engine(app).run(EVENTS) for app in ("wc", "sd", "fd")}


class TestCheckSerializable:
    def test_plain_data_accepted(self):
        check_serializable(
            {
                "counts": {"a": 1, (1, 2): [0.5, True, None]},
                "blob": b"x",
                "nested": [({"k": "v"},)],
            }
        )

    @pytest.mark.parametrize("value", [set(), object(), {"x": {1, 2}}])
    def test_non_plain_data_rejected(self, value):
        with pytest.raises(ExecutionError, match="not codec-serializable"):
            check_serializable(value)

    def test_offending_path_is_named(self):
        with pytest.raises(ExecutionError, match=r"state\['deep'\]\[0\]"):
            check_serializable({"deep": [set()]})

    def test_interval_validated(self):
        with pytest.raises(ExecutionError, match="epoch interval"):
            EpochConfig(interval=0)


class TestEpochParityInline:
    """Barriers are observationally free on the inline backend."""

    @pytest.mark.parametrize("app", ["wc", "sd", "fd"])
    def test_bit_identical_results(self, app, baselines):
        result = build_engine(app, epoch_interval=INTERVAL).run(EVENTS)
        baseline = baselines[app]
        assert result.sink_received() == baseline.sink_received()
        assert sink_multiset(result) == sink_multiset(baseline)
        assert result.epochs is not None
        assert result.epochs.committed >= EVENTS // INTERVAL - 1

    def test_lr_totals_match(self):
        baseline = build_engine("lr").run(EVENTS)
        result = build_engine("lr", epoch_interval=INTERVAL).run(EVENTS)
        assert result.sink_received() == baseline.sink_received()

    def test_report_accounting(self):
        result = build_engine("wc", epoch_interval=INTERVAL).run(EVENTS)
        report = result.epochs
        assert report.interval == INTERVAL
        assert report.committed == len(
            [e for e in report.events if e["kind"] == "commit"]
        )
        assert report.snapshot_bytes > 0
        assert report.barrier_ns > 0
        assert report.migrations == 0
        assert report.resumed_from is None


class TestEpochParityProcess:
    """Quiescing one persistent pool at markers produces the same totals."""

    def test_process_backend_matches_inline(self, baselines):
        result = build_engine(
            "wc", backend="process", n_workers=2, epoch_interval=INTERVAL
        ).run(EVENTS)
        baseline = baselines["wc"]
        assert result.sink_received() == baseline.sink_received()
        assert sink_multiset(result) == sink_multiset(baseline)
        assert result.epochs.committed >= EVENTS // INTERVAL - 1


class TestBarrierObserver:
    """The executor's ``on_epoch`` callback sees consistent commits."""

    def _run_with_observer(self, observer):
        engine = build_engine("wc")
        return engine.backend.execute(
            engine.spec,
            EVENTS,
            engine.registry,
            epochs=EpochConfig(interval=INTERVAL),
            on_epoch=observer,
        )

    def test_commits_are_cumulative_and_ordered(self):
        commits = []
        self._run_with_observer(lambda c: commits.append(c) and None)
        assert [c.epoch for c in commits] == list(range(len(commits)))
        events = [c.events_ingested for c in commits]
        assert events == sorted(events)
        assert events[0] == INTERVAL
        # Checkpoint payloads deserialize and carry every task's state.
        payload = commits[-1].checkpoint.payload()
        assert set(payload) == {"states", "counters", "stats"}
        counter_states = [
            payload["states"][rt.task_id]
            for rt in commits[-1].spec.tasks
            if rt.component == "counter"
        ]
        assert counter_states and all("counts" in s for s in counter_states)

    def test_migration_at_barrier_preserves_results(self, baselines):
        """Moving every task to another socket mid-run changes nothing."""

        def relocate(commit):
            if commit.epoch != 1:
                return None
            moved = tuple(rt.task_id for rt in commit.spec.tasks)
            spec = dc_replace(
                commit.spec,
                tasks=tuple(
                    dc_replace(rt, socket=1) for rt in commit.spec.tasks
                ),
            )
            return Migration(spec=spec, moved=moved, detail="test shuffle")

        result = self._run_with_observer(relocate)
        assert result.epochs.migrations == 1
        assert result.epochs.migration_pause_ns > 0
        baseline = baselines["wc"]
        assert result.sink_received() == baseline.sink_received()
        assert sink_multiset(result) == sink_multiset(baseline)


class TestResumeFromEpoch:
    """Supervised retry restarts from the last committed checkpoint."""

    def _run(self, epoch_interval=None):
        return build_engine(
            "wc",
            queue_capacity=256,
            fault_plan=FaultPlan(seed=3, kinds=("crash",), at_tuple=AT),
            recovery_policy="retry",
            epoch_interval=epoch_interval,
        ).run(EVENTS)

    def test_resume_shrinks_duplicates(self, baselines):
        replayed = self._run(epoch_interval=None)
        resumed = self._run(epoch_interval=INTERVAL)
        for result in (replayed, resumed):
            assert result.recovery.completed is True
            assert result.recovery.restarts >= 1
        # Exactly-once-per-epoch: only the unfinished epoch is replayed.
        assert (
            resumed.recovery.duplicate_deliveries
            < replayed.recovery.duplicate_deliveries
        )
        assert resumed.recovery.resumed_from_epoch is not None
        assert resumed.epochs.resumed_from == resumed.recovery.resumed_from_epoch
        # And recovery stays exact.
        baseline = baselines["wc"]
        assert resumed.sink_received() == baseline.sink_received()
        assert sink_multiset(resumed) == sink_multiset(baseline)


# ---------------------------------------------------------------------------
# check_serializable: the exact-type fast path against the original walk
# ---------------------------------------------------------------------------
_SCALARS = (str, int, float, bool, bytes, type(None))


def reference_check(value, path="state"):
    """``check_serializable`` as it was before the fast path: one walk
    that formats the path of every node it visits."""
    if isinstance(value, bool) or isinstance(value, _SCALARS):
        return
    if isinstance(value, dict):
        for key, item in value.items():
            reference_check(key, f"{path}.key({key!r})")
            reference_check(item, f"{path}[{key!r}]")
        return
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            reference_check(item, f"{path}[{index}]")
        return
    raise ExecutionError(
        f"operator state at {path} is not codec-serializable: "
        f"{type(value).__name__!r} (allowed: dict/list/tuple/str/int/"
        "float/bool/bytes/None; see Operator.snapshot_state)"
    )


class _Dict(dict):
    pass


class _List(list):
    pass


class _Tuple(tuple):
    pass


class _Int(int):
    pass


class _Opaque:
    def __repr__(self):
        return "<opaque>"

    def __hash__(self):
        return 7

    def __eq__(self, other):
        return isinstance(other, _Opaque)


_plain_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.builds(_Int, st.integers(0, 3)),
)
_rejected_leaves = st.one_of(
    st.builds(_Opaque),
    st.frozensets(st.integers(0, 3), max_size=2),
    st.builds(set),
    st.builds(bytearray),
)
_keys = st.one_of(
    st.text(max_size=2),
    st.integers(0, 4),
    st.tuples(st.integers(0, 2), st.text(max_size=1)),
    st.builds(_Opaque),
    st.frozensets(st.integers(0, 2), max_size=1),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.lists(children, max_size=3).map(_List),
        st.lists(children, max_size=3).map(_Tuple),
        st.dictionaries(_keys, children, max_size=4),
        st.dictionaries(_keys, children, max_size=3).map(_Dict),
    )


_values = st.recursive(
    st.one_of(_plain_leaves, _rejected_leaves), _containers, max_leaves=25
)


class TestCheckSerializableEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(_values)
    def test_same_verdict_and_same_message(self, value):
        expected = None
        try:
            reference_check(value, "task 3 state")
        except ExecutionError as exc:
            expected = str(exc)
        got = None
        try:
            check_serializable(value, "task 3 state")
        except ExecutionError as exc:
            got = str(exc)
        assert got == expected


# ---------------------------------------------------------------------------
# The process backend's barrier: persistent workers, marker alignment
# ---------------------------------------------------------------------------
def process_backend(ordered=False, dataplane="pickle", **kwargs):
    kwargs.setdefault("timeout_s", 60.0)
    kwargs.setdefault("heartbeat_timeout_s", 5.0)
    return ProcessPoolBackend(
        n_workers=2, ordered=ordered, dataplane=dataplane, **kwargs
    )


def task_counts(result):
    return {
        task_id: (stats.tuples_in, stats.tuples_out)
        for task_id, stats in result.task_stats.items()
    }


def assert_same_run(reference, candidate):
    assert candidate.events_ingested == reference.events_ingested
    assert candidate.sink_received() == reference.sink_received()
    assert task_counts(candidate) == task_counts(reference)
    assert sink_multiset(candidate) == sink_multiset(reference)
    assert candidate.epochs.committed == reference.epochs.committed


def shm_segments():
    return {p.name for p in Path("/dev/shm").glob(f"{SHM_NAME_PREFIX}*")}


class _Finite(Spout):
    """A source that dries up after 130 events, whatever the budget."""

    def next_batch(self, max_tuples):
        for i in range(min(max_tuples, 130)):
            yield (i,)


def finite_topology():
    builder = TopologyBuilder("finite")
    builder.set_spout("spout", _Finite())
    builder.add_operator(
        "double", MapOperator(lambda values: (values[0] * 2,))
    ).shuffle_from("spout")
    builder.add_sink("sink", Sink(keep_samples=10**6)).shuffle_from("double")
    return builder.build()


class TestPersistentWorkerParity:
    """Counters and sink multisets of a barrier run on one persistent
    pool equal the inline barrier run at the same interval."""

    @pytest.fixture(scope="class")
    def inline_runs(self):
        return {
            (app, interval): build_engine(app, epoch_interval=interval).run(EVENTS)
            for app in ("wc", "lr")
            for interval in (100, 70)
        }

    @pytest.mark.parametrize("dataplane", ["pickle", "shm"])
    @pytest.mark.parametrize("interval", [100, 70])  # divides 300 / does not
    @pytest.mark.parametrize("app", ["wc", "lr"])
    def test_matches_inline(self, app, interval, dataplane, inline_runs):
        if dataplane == "shm" and not shm_available():
            pytest.skip("no POSIX shared memory")
        # LR's multi-input operators need the ordered discipline to
        # reproduce the inline interleaving tuple for tuple.
        result = build_engine(
            app,
            backend=process_backend(ordered=(app == "lr"), dataplane=dataplane),
            epoch_interval=interval,
        ).run(EVENTS)
        assert_same_run(inline_runs[app, interval], result)

    @pytest.mark.parametrize("dataplane", ["pickle", "shm"])
    def test_source_dries_up_before_the_budget(self, dataplane):
        if dataplane == "shm" and not shm_available():
            pytest.skip("no POSIX shared memory")
        reference = LocalEngine(finite_topology(), epoch_interval=50).run(EVENTS)
        result = LocalEngine(
            finite_topology(),
            backend=process_backend(dataplane=dataplane),
            epoch_interval=50,
        ).run(EVENTS)
        assert reference.events_ingested == 130
        assert reference.epochs.committed == 3  # 50, 100, 130 (dry)
        assert_same_run(reference, result)

    def test_many_barriers_on_more_workers_than_cores(self, baselines):
        """Thirty park/report/resume rounds on four workers (the host has
        two cores): a lost marker, report or directive would hang the
        run into its watchdog or change a count."""
        started = time.perf_counter()
        result = build_engine(
            "wc",
            backend=ProcessPoolBackend(n_workers=4, timeout_s=60.0),
            epoch_interval=10,
        ).run(EVENTS)
        assert time.perf_counter() - started < 30.0
        assert result.epochs.committed == 29
        assert multiprocessing.active_children() == []
        assert task_counts(result) == task_counts(baselines["wc"])
        assert sink_multiset(result) == sink_multiset(baselines["wc"])

    @pytest.mark.parametrize(
        "owner, chains",
        [({0: 0, 1: 1, 2: 0, 3: 1, 4: 0}, []), ({0: 0, 1: 1, 2: 1, 3: 1, 4: 0}, [(1, 2, 3)])],
        ids=["unfused", "fused"],
    )
    def test_markers_align_with_queues_one_batch_deep(self, owner, chains):
        """A fused chain (WC's, where one worker hosts it) and a
        multi-in-edge fan-in (LR) park on their markers while every
        sealed batch fills its queue."""
        batch = 8
        bounds = dict(batch_size=batch, queue_capacity=batch, epoch_interval=70)
        reference = build_engine("wc", **bounds).run(EVENTS)
        result = LocalEngine.from_plan(
            ExecutionPlan(build_engine("wc").graph, owner),
            backend=process_backend(),
            **bounds,
        ).run(EVENTS)
        assert result.placement.chains == chains
        assert_same_run(reference, result)
        # Arrival order interleaves LR's fan-in differently from the
        # inline run; what each component consumed and produced does not
        # depend on it.
        reference = build_engine("lr", **bounds).run(EVENTS)
        result = build_engine("lr", backend=process_backend(), **bounds).run(EVENTS)
        assert any(
            len(rt.in_edges) > 1 for rt in build_engine("lr").spec.tasks
        )
        components = {s.component for s in reference.task_stats.values()}
        for component in components:
            assert result.component_in(component) == reference.component_in(component)
            assert result.component_out(component) == reference.component_out(component)
        assert result.epochs.committed == reference.epochs.committed


def execute(engine, on_epoch=None, interval=INTERVAL, resume=None, registry=None):
    return engine.backend.execute(
        engine.spec,
        EVENTS,
        registry,
        epochs=EpochConfig(interval=interval),
        resume=resume,
        on_epoch=on_epoch,
    )


def worker_pids():
    return sorted(child.pid for child in multiprocessing.active_children())


class TestOnePoolPerRun:
    """A clean run with k epochs forks its workers once and draws each
    source event once."""

    @pytest.fixture
    def fast_forwards(self, tmp_path, monkeypatch):
        """Every ``TaskStep.fast_forward`` call a worker makes, as log
        lines (workers are forked, so they inherit the spy)."""
        log = tmp_path / "fast_forward.log"
        log.touch()
        real = TaskStep.fast_forward

        def spy(step, task_id, produced):
            with log.open("a") as handle:
                handle.write(f"{os.getpid()} {produced}\n")
            return real(step, task_id, produced)

        monkeypatch.setattr(TaskStep, "fast_forward", spy)
        return lambda: log.read_text().splitlines()

    def test_same_pids_at_every_barrier_and_no_redraw(self, baselines, fast_forwards):
        pids, commits = [], []

        def observer(commit):
            pids.append(worker_pids())
            commits.append(commit)

        engine = build_engine("wc", backend=process_backend())
        result = execute(engine, observer, interval=70)
        assert result.epochs.committed == len(pids) == 4
        assert len(pids[0]) == 2 and all(p == pids[0] for p in pids)
        assert fast_forwards() == []
        assert sink_multiset(result) == sink_multiset(baselines["wc"])
        # Launching from a checkpoint is where the committed prefix is
        # re-drawn: once per spout, in one worker.
        resumed = execute(engine, interval=70, resume=commits[1].checkpoint)
        assert [line.split()[1] for line in fast_forwards()] == ["140"]
        assert resumed.epochs.resumed_from == 1
        assert sink_multiset(resumed) == sink_multiset(baselines["wc"])

    def test_migration_relaunches_the_pool_from_the_checkpoint(
        self, baselines, fast_forwards
    ):
        pids = []

        def relocate(commit):
            pids.append(worker_pids())
            if commit.epoch != 0:
                return None
            moved = tuple(rt.task_id for rt in commit.spec.tasks)
            spec = dc_replace(
                commit.spec,
                tasks=tuple(
                    dc_replace(rt, socket=rt.task_id % 2)
                    for rt in commit.spec.tasks
                ),
            )
            return Migration(spec=spec, moved=moved, detail="test shuffle")

        registry = MetricsRegistry()
        engine = build_engine("wc", backend=process_backend())
        result = execute(engine, relocate, registry=registry)
        assert result.epochs.migrations == 1
        # The pause is the stop -> relaunch hand-off, not an assignment.
        assert result.epochs.migration_pause_ns > 1e6
        assert not set(pids[0]) & set(pids[1])
        assert [line.split()[1] for line in fast_forwards()] == ["100"]
        assert result.sink_received() == baselines["wc"].sink_received()
        assert sink_multiset(result) == sink_multiset(baselines["wc"])
        # Run totals count the stopped pool as well.
        plain = MetricsRegistry()
        execute(build_engine("wc", backend=process_backend()), registry=plain)
        assert (
            registry.snapshot()["counters"]["runtime.vectorized.tuples"]
            == plain.snapshot()["counters"]["runtime.vectorized.tuples"]
        )

    def test_aimd_resizes_live_buffers(self, baselines):
        pids = []
        registry = MetricsRegistry()
        # AIMD sizes where scalar rows seal, so the producers here are
        # scalar: a kernel's output crosses at its edge's cut instead
        # (TestAimdLeavesWholeEdges).
        engine = build_engine(
            "wc",
            backend=process_backend(
                batching=AdaptiveBatchConfig(), vectorized="off"
            ),
            queue_budget=2048,
        )
        result = execute(
            engine, lambda commit: pids.append(worker_pids()), registry=registry
        )
        snapshot = registry.snapshot()
        assert snapshot["counters"]["runtime.batch.increases"] > 0
        assert pids[0] == pids[-1]  # resized in place, no new pool
        grown = [
            name.removeprefix("runtime.batch.size.")
            for name, size in snapshot["gauges"].items()
            if name.startswith("runtime.batch.size.") and size > 64
        ]
        assert grown
        for edge in grown:
            counters = snapshot["counters"]
            mean = (
                counters[f"engine.queue.{edge}.enqueued_tuples"]
                / counters[f"engine.queue.{edge}.enqueued_batches"]
            )
            assert mean > 64  # whole-run mean: later epochs sealed bigger
        assert sink_multiset(result) == sink_multiset(baselines["wc"])

    def test_counters_describe_the_whole_run(self):
        """Dataplane and step counters of a barrier run equal those of
        the same run without barriers, give or take the barrier flushes
        (they used to describe the last epoch's pool only)."""
        if not shm_available():
            pytest.skip("no POSIX shared memory")
        snapshots = {}
        for interval in (None, INTERVAL):
            registry = MetricsRegistry()
            result = build_engine(
                "wc",
                backend=process_backend(dataplane="shm"),
                epoch_interval=interval,
                registry=registry,
            ).run(EVENTS)
            snapshots[interval] = registry.snapshot()["counters"]
        plain, barriers = snapshots[None], snapshots[INTERVAL]
        for name in ("runtime.vectorized.tuples", "runtime.fusion.composed_tuples"):
            assert barriers[name] == plain[name]
        # A chain head's kernel call covers the batches that were waiting
        # on its edge — how many is the workers' schedule — so head calls
        # are bounded by the batches queued (every WC consumer runs a
        # kernel), not equal between two runs.  Calls inside a fused
        # chain take a kernel's output whole and queue nothing.
        for counters in (plain, barriers):
            queued = sum(
                count
                for name, count in counters.items()
                if name.startswith("engine.queue.")
                and name.endswith(".enqueued_batches")
            )
            heads = (
                counters["runtime.vectorized.batches"]
                - counters["runtime.fusion.composed_batches"]
            )
            assert 0 < heads <= queued
        # Each commit flushes every edge's partial batch once and cuts
        # a spout's draw short, so an edge's columnar output — cut at
        # its capacity, not at the batch size — can also cross in fewer,
        # fuller batches (WC's splitter -> counter: 3 instead of 4).
        flushes = result.epochs.committed * len(build_engine("wc").spec.edges)
        extra = sum(
            barriers[name] - plain[name]
            for name in plain
            if name.startswith("engine.queue.") and name.endswith(".enqueued_batches")
        )
        assert abs(extra) <= flushes
        # The same rows cross the wire.  The bytes differ by framing
        # alone, and by where the string dictionary promotes, which
        # follows the first frames' sizes.
        for name, count in plain.items():
            if name.startswith("engine.queue.") and name.endswith(".enqueued_tuples"):
                assert barriers[name] == count, name
        ratio = barriers["runtime.run.dataplane_bytes"] / plain["runtime.run.dataplane_bytes"]
        assert abs(ratio - 1.0) < 0.01


def columnar_edges(spec):
    """The edges that carry columnar output when nothing runs scalar
    (``TaskStep.whole``): the out-edges of spouts and of operators with
    a kernel."""
    instances = instantiate_tasks(spec)
    return [
        (edge.producer, edge.consumer)
        for edge in spec.edges
        if isinstance(instances[edge.producer], Spout)
        or instances[edge.producer].supports_columns()
    ]


class TestAimdLeavesWholeEdges:
    """An edge that carries a kernel's or a columnar spout's output
    (``TaskStep.whole``) is cut at ``MAX_BATCH_ROWS`` or its queue's
    capacity, not at its batch size, so its mean enqueued batch reads
    above the size and AIMD used to grow it at every barrier (WC
    inline: 30 increases over 8 000 events, every edge at 544).  AIMD
    leaves such edges alone, in one process and on two workers; the
    rows are those of a run without AIMD."""

    @staticmethod
    def assert_whole_edges_unresized(app, whole, registry, result, reference):
        gauges = registry.snapshot()["gauges"]
        for producer, consumer in whole:
            size = gauges.get(f"runtime.batch.size.{producer}-{consumer}", 64)
            assert size == 64, (app, producer, consumer)
        assert result.sink_received() == reference.sink_received(), app
        assert task_counts(result) == task_counts(reference), app

    @pytest.mark.parametrize("app", ["wc", "lr"])
    def test_inline(self, app):
        reference = build_engine(app, epoch_interval=500).run(8000)
        registry = MetricsRegistry()
        engine = build_engine(
            app, epoch_interval=500, adaptive_batch=True, registry=registry
        )
        result = engine.run(8000)
        whole = columnar_edges(engine.spec)
        assert whole
        self.assert_whole_edges_unresized(app, whole, registry, result, reference)
        if app == "wc":
            # Every WC producer is columnar: nothing is left to resize.
            assert len(whole) == len(engine.spec.edges)
            assert registry.snapshot()["counters"]["runtime.batch.increases"] == 0

    @pytest.mark.parametrize("app", ["wc", "sd", "fd", "lr"])
    def test_process(self, app):
        ordered = app == "lr"
        reference = build_engine(
            app, backend=process_backend(ordered=ordered), epoch_interval=500
        ).run(4000)
        registry = MetricsRegistry()
        engine = build_engine(
            app,
            backend=process_backend(
                ordered=ordered, batching=AdaptiveBatchConfig()
            ),
            epoch_interval=500,
            registry=registry,
        )
        result = engine.run(4000)
        # Local or across a ring, bounded or not: every columnar edge.
        whole = columnar_edges(engine.spec)
        assert whole
        self.assert_whole_edges_unresized(app, whole, registry, result, reference)


class TestBarrierExplainsItself:
    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_commit_entries_and_gauges(self, backend):
        registry = MetricsRegistry()
        kwargs = {"backend": process_backend()} if backend == "process" else {}
        result = build_engine(
            "wc", epoch_interval=INTERVAL, registry=registry, **kwargs
        ).run(EVENTS)
        commits = [e for e in result.epochs.events if e["kind"] == "commit"]
        assert len(commits) == 2
        gauges = registry.snapshot()["gauges"]
        for part in BARRIER_PARTS:
            # The report hop is the pool's: the inline run reports 0.
            if part == "report" and backend == "inline":
                assert all(entry["report_ns"] == 0 for entry in commits)
            else:
                assert all(entry[f"{part}_ns"] > 0 for entry in commits)
            assert gauges[f"runtime.epoch.{part}_ns"] == pytest.approx(
                sum(entry[f"{part}_ns"] for entry in commits), abs=len(commits)
            )
        assert gauges["runtime.epoch.barrier_ns"] == pytest.approx(
            gauges["runtime.epoch.snapshot_ns"] + gauges["runtime.epoch.commit_ns"]
        )


class TestBarrierFaults:
    """Failures inside the barrier itself, not only at tuple offsets."""

    def _engine(self, **kwargs):
        return build_engine("wc", backend=process_backend(dataplane="shm"), **kwargs)

    def _assert_crash(self, engine, observer, committed_epoch):
        if not shm_available():
            pytest.skip("no POSIX shared memory")
        before = shm_segments()
        with pytest.raises(WorkerCrashError) as excinfo:
            execute(engine, observer)
        assert excinfo.value.last_checkpoint.epoch == committed_epoch
        assert excinfo.value.failed_workers
        assert shm_segments() == before
        assert multiprocessing.active_children() == []
        return excinfo.value

    def test_worker_killed_while_parked(self):
        """After its report, before ``resume``: the commit stands."""

        def kill_one(commit):
            if commit.epoch == 1:
                victim = multiprocessing.active_children()[0]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=5.0)

        self._assert_crash(self._engine(), kill_one, committed_epoch=1)

    def test_worker_killed_between_marker_and_report(self, monkeypatch):
        """All its tasks parked, nothing reported: the epoch is lost,
        the previous commit is what a retry resumes from."""
        barrier = _Worker._barrier
        seen = []

        def die_at_the_second(self):
            seen.append(self.me)
            if self.me == 1 and len(seen) == 2:
                os._exit(CRASH_EXIT_CODE)
            return barrier(self)

        monkeypatch.setattr(_Worker, "_barrier", die_at_the_second)
        self._assert_crash(self._engine(), None, committed_epoch=0)

    #: A crash verdict without a grace window: well under one 50 ms poll
    #: plus a 0.5 s grace.
    PROMPT_S = 0.4

    def test_worker_exits_right_after_its_barrier_report(self, monkeypatch):
        """Its report is read off its pipe — epoch 0 commits, and a commit
        needs every worker's share — and the next phase's first wait
        names it."""
        report, await_ = _Worker._report, _PoolRun._await
        spent = []

        def exit_after_barrier(worker, kind, **extra):
            report(worker, kind, **extra)
            if kind == "barrier" and worker.me == 1:
                os._exit(CRASH_EXIT_CODE)

        def timed(run):
            started = time.monotonic()
            try:
                await_(run)
            except WorkerCrashError:
                spent.append(time.monotonic() - started)
                raise

        monkeypatch.setattr(_Worker, "_report", exit_after_barrier)
        monkeypatch.setattr(_PoolRun, "_await", timed)
        error = self._assert_crash(self._engine(), None, committed_epoch=0)
        assert error.failed_workers == (1,)
        assert f"{{1: {CRASH_EXIT_CODE}}}" in str(error)
        (seconds,) = spent
        assert seconds < self.PROMPT_S

    def test_worker_killed_mid_phase_is_named_at_once(self, monkeypatch):
        """The dead one, with its exit code, within a wait of its death."""
        died = multiprocessing.get_context("fork").Value("d", 0.0, lock=False)
        complete, await_ = _Worker._complete_ready, _PoolRun._await
        loops = []  # per worker process: each forks its own copy
        since_death = []

        def die_in_the_second_phase(worker):
            loops.append(worker.limit)
            if worker.me == 1 and worker.limit > INTERVAL and len(loops) > 3:
                died.value = time.monotonic()
                os._exit(CRASH_EXIT_CODE)
            return complete(worker)

        def noted(run):
            try:
                await_(run)
            except WorkerCrashError:
                since_death.append(time.monotonic() - died.value)
                raise

        monkeypatch.setattr(_Worker, "_complete_ready", die_in_the_second_phase)
        monkeypatch.setattr(_PoolRun, "_await", noted)
        error = self._assert_crash(self._engine(), None, committed_epoch=0)
        assert error.failed_workers == (1,)
        assert "died without reporting a result" in str(error)
        assert f"{{1: {CRASH_EXIT_CODE}}}" in str(error)
        (seconds,) = since_death
        assert 0 < seconds < self.PROMPT_S

    def test_crash_mid_epoch_resumes_with_fewer_duplicates(self, baselines):
        """The sink dies on its 1500th tuple, half way through the second
        epoch (a commit every 1000): a replay re-delivers everything it
        had received, a resume only what came after the commit."""

        def run(epoch_interval):
            return build_engine(
                "wc",
                backend=process_backend(),
                fault_plan=FaultPlan(
                    seed=1, kinds=("crash",), target="sink", at_tuple=1500
                ),
                recovery_policy="retry",
                epoch_interval=epoch_interval,
            ).run(EVENTS)

        replayed, resumed = run(None), run(INTERVAL)
        for result in (replayed, resumed):
            assert result.recovery.completed is True
            assert result.recovery.restarts == 1
            assert result.sink_received() == baselines["wc"].sink_received()
            assert sink_multiset(result) == sink_multiset(baselines["wc"])
        assert resumed.recovery.resumed_from_epoch == 0
        # The delivery counters are stamped per batch, so each figure is
        # exact to within one batch of 64.
        assert 1499 - 64 <= replayed.recovery.duplicate_deliveries <= 1499
        assert 499 - 64 <= resumed.recovery.duplicate_deliveries <= 499


class TestSharesSealedAsBytes:
    """Each worker pickles its share of a checkpoint; the parent keeps
    the bytes and ``payload()`` merges them."""

    @pytest.mark.parametrize("app", ["wc", "lr"])
    def test_shares_seal_the_inline_checkpoint(self, app):
        """A checkpoint sealed from the workers' pickled shares restores
        what the inline run's single share does, and a supervised resume
        from it reproduces the uninterrupted run.  Tasks alternate
        between the workers, so no edge is fused on either side (the
        inline reference is the unfused lowering)."""
        if not shm_available():
            pytest.skip("no POSIX shared memory")
        graph = build_engine(app).graph
        owner = {task.task_id: task.task_id % 2 for task in graph.tasks}

        def pool(**kwargs):
            return LocalEngine.from_plan(
                ExecutionPlan(graph, owner),
                backend=process_backend(ordered=app == "lr", dataplane="shm"),
                **kwargs,
            )

        inline, pooled = [], []
        _InlineRun(
            pool().spec,
            EVENTS,
            NULL_REGISTRY,
            epochs=EpochConfig(interval=INTERVAL),
            on_epoch=inline.append,
        ).execute()
        registry = MetricsRegistry()
        whole = execute(pool(), pooled.append, registry=registry)
        assert whole.placement.chains == []
        assert len(pooled) == len(inline) == EVENTS // INTERVAL - 1
        for ours, theirs in zip(pooled, inline):
            assert len(ours.checkpoint.shares) == 2
            assert len(theirs.checkpoint.shares) == 1
            assert ours.checkpoint.payload() == theirs.checkpoint.payload()
        # Still reported: the bytes of the last commit's shares.
        last = pooled[-1].checkpoint
        assert whole.epochs.snapshot_bytes == last.snapshot_bytes > 0
        assert last.snapshot_bytes == sum(map(len, last.shares))
        gauges = registry.snapshot()["gauges"]
        assert gauges["runtime.epoch.snapshot_bytes"] == last.snapshot_bytes
        resumed = execute(
            pool(recovery_policy="retry"), resume=pooled[0].checkpoint
        )
        assert resumed.epochs.resumed_from == 0
        assert task_counts(resumed) == task_counts(whole)
        assert resumed.sink_received() == whole.sink_received()
        assert multiprocessing.active_children() == []


class TestOneDeadline:
    def test_parked_workers_outlive_a_slow_observer(self, baselines):
        """An ``on_epoch`` slower than the heartbeat watchdog is not a
        stall: parked workers keep heartbeating."""

        def slow(commit):
            if commit.epoch == 0:
                time.sleep(1.2)

        engine = build_engine(
            "wc", backend=process_backend(heartbeat_timeout_s=0.5)
        )
        result = execute(engine, slow)
        assert sink_multiset(result) == sink_multiset(baselines["wc"])

    def test_timeout_bounds_the_whole_run_not_each_epoch(self):
        engine = build_engine("wc", backend=process_backend(timeout_s=1.0))
        with pytest.raises(StallError):
            execute(engine, lambda commit: time.sleep(0.7))
        assert multiprocessing.active_children() == []
