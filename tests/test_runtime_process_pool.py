"""White-box tests for the process backend's worker internals.

These run the ``_Worker`` machinery in-process (plain ``queue.Queue``
stand-ins for the mp inboxes, lists for the shared liveness arrays) to
pin the admission-control and bounded-blocking behavior that the
end-to-end suites can only observe indirectly:

* ``_receive``: hard admission refuses over-capacity batches (backpressure
  holds the message), soft admission always lands and is counted — on
  the host's input queues, the ``CommunicationQueue`` the inline run uses;
* ``_land`` / ``_next_batch``: arrival mode drains cross-edge batches in
  arrival order, ordered mode in strict edge-declaration order;
* ``_blocking_put``: a full peer inbox blocks with bounded patience —
  a stuck peer raises QueueDeadlockError after the send deadline (this
  path used to spin forever); whether the peer died is the parent's to
  decide;
* ``_wait``: the run deadline bounds every worker wait, an idle one too.
"""

import queue
import threading
import time

import pytest

from repro.apps import load_application
from repro.dsps import LocalEngine
from repro.dsps.tuples import StreamTuple
from repro.errors import (
    ExecutionError,
    QueueDeadlockError,
    StallError,
)
from repro.runtime import ProcessPoolBackend
from repro.runtime.config import RunConfig
from repro.runtime.dataplane import ColumnBatch, PickleQueueChannel
from repro.runtime.process_pool import _Worker


def make_worker(*, ordered=False, queue_capacity=None, inboxes=None, **kwargs):
    """A single-worker ``_Worker`` over the lowered WC spec."""
    topology, _ = load_application("wc")
    engine = LocalEngine(topology, queue_capacity=queue_capacity)
    spec = engine.spec
    owner = {rt.task_id: 0 for rt in spec.tasks}
    return (
        _Worker(
            0,
            spec,
            owner,
            100,
            PickleQueueChannel(0, inboxes or [queue.Queue()]),
            RunConfig(ordered=ordered),
            **kwargs,
        ),
        spec,
    )


def tuples_of(n, producer=0):
    return [
        StreamTuple(values=(f"w{i}",), source_task=producer) for i in range(n)
    ]


def some_edge(spec):
    """An arbitrary (producer, consumer) edge of the lowered spec."""
    return spec.edges[0].producer, spec.edges[0].consumer


class TestConstructorValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_workers": 0},
            {"timeout_s": 0},
            {"timeout_s": -5.0},
            {"heartbeat_timeout_s": 0},
            {"vectorized": "on"},
            {"dataplane": "rdma"},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ExecutionError):
            ProcessPoolBackend(**kwargs)


class TestAdmission:
    """Batches arrive as a peer would send them: packed onto this
    worker's own inbox, admitted by ``_receive``."""

    def arrive(self, worker, spec, *sizes):
        producer, consumer = some_edge(spec)
        for n in sizes:
            worker.channel.try_put(
                0, worker.channel.pack(0, producer, consumer, tuples_of(n))
            )
        return worker.step.queues[(producer, consumer)]

    def test_hard_admission_refuses_over_capacity(self):
        worker, spec = make_worker(queue_capacity=64)
        queue = self.arrive(worker, spec, 60, 10)
        # 60 buffered + 10 more would exceed the 64-tuple capacity.
        assert worker._receive(limit=8, soft=False) == 1
        assert queue.depth_tuples == 60
        assert worker.held is not None and len(worker.held[2]) == 10
        assert worker._receive(limit=8, soft=False) == 0  # still held
        assert worker.metrics["overflow_admissions"] == 0

    def test_soft_admission_always_lands_and_is_counted(self):
        worker, spec = make_worker(queue_capacity=64)
        queue = self.arrive(worker, spec, 60, 10)
        assert worker._receive(limit=8, soft=True) == 2
        assert queue.depth_tuples == 70
        assert worker.held is None
        assert worker.metrics["overflow_admissions"] == 1

    def test_unbounded_edges_never_refuse(self):
        worker, spec = make_worker(queue_capacity=None)
        queue = self.arrive(worker, spec, *[64] * 10)
        assert worker._receive(limit=16, soft=False) == 10
        assert queue.depth_tuples == 640

    def test_depth_and_stats_bookkeeping(self):
        worker, spec = make_worker(queue_capacity=256)
        key = some_edge(spec)
        worker._land(key, tuples_of(64))
        worker._land(key, tuples_of(32))
        queue = worker.step.queues[key]
        stats = queue.stats
        assert stats.enqueued_batches == 2
        assert stats.enqueued_tuples == 96
        assert stats.max_depth_tuples == 96
        assert queue.depth_tuples == 96


class TestBacklogDrainOrder:
    def test_arrival_mode_drains_in_arrival_order(self):
        worker, spec = make_worker(ordered=False)
        # A consumer with at least one input edge.
        rt = next(r for r in spec.tasks if r.in_edges)
        keys = [(e.producer, e.consumer) for e in rt.in_edges]
        first = tuples_of(3, producer=keys[0][0])
        second = tuples_of(2, producer=keys[0][0])
        worker._land(keys[0], first)
        worker._land(keys[0], second)
        # FIFO: first-arrived batch drains first
        assert worker._next_batch(rt) is first
        assert worker._next_batch(rt) is second
        assert worker._next_batch(rt) is None
        stats = worker.step.queues[keys[0]].stats
        assert stats.dequeued_tuples == 5 and stats.pending_tuples == 0

    @pytest.mark.parametrize("ordered", (False, True))
    def test_queued_column_batches_merge_within_an_edge(self, ordered):
        """One kernel call covers what is queued — but arrival mode never
        merges across another edge's arrival, and its FIFO gives up one
        entry per merged batch."""
        topology, _ = load_application("lr")
        spec = LocalEngine(topology).spec
        rt = next(r for r in spec.tasks if len(r.in_edges) >= 2)
        worker = _Worker(
            0,
            spec,
            {t.task_id: 0 for t in spec.tasks},
            100,
            PickleQueueChannel(0, [queue.Queue()]),
            RunConfig(ordered=ordered),
        )
        early, late = [(e.producer, e.consumer) for e in rt.in_edges][:2]
        batch = ColumnBatch.from_tuples(tuples_of(12, producer=early[0]))
        first, second, third = batch.chunks(4)
        stranger = ColumnBatch.from_tuples(tuples_of(4, producer=late[0]))
        for key, payload in (
            (early, first),
            (early, second),
            (late, stranger),
            (early, third),
        ):
            worker._land(key, payload)
        if ordered:
            # Strict edge order: the live edge's whole backlog is one run.
            worker.eof.add(early)
            expected = [12, 4]
        else:
            expected = [8, 4, 4]
        taken = [worker._next_batch(rt) for _ in expected]
        assert [len(b) for b in taken] == expected
        assert taken[0].to_tuples() == batch.to_tuples()[: expected[0]]
        assert taken[1] is stranger
        assert worker._next_batch(rt) is None
        assert ordered or not worker.arrival[rt.task_id]

    def test_ordered_mode_respects_edge_declaration_order(self):
        # LR has true multi-input operators; use one to get >= 2 in-edges.
        topology, _ = load_application("lr")
        engine = LocalEngine(topology, queue_capacity=64)
        spec = engine.spec
        rt = next(r for r in spec.tasks if len(r.in_edges) >= 2)
        owner = {t.task_id: 0 for t in spec.tasks}
        worker = _Worker(
            0,
            spec,
            owner,
            100,
            PickleQueueChannel(0, [queue.Queue()]),
            RunConfig(ordered=True),
        )
        keys = [(e.producer, e.consumer) for e in rt.in_edges]
        late_edge_batch = tuples_of(64, producer=keys[1][0])
        worker._land(keys[1], late_edge_batch)
        # Strict edge order may hold a later edge's input arbitrarily
        # long, so ordered mode does not enforce capacities.
        assert not worker._channel_full(*keys[1])
        # The earliest declared edge has no data and no EOF: ordered mode
        # must wait for it rather than consume the later edge.
        assert worker._next_batch(rt) is None
        worker.eof.add(keys[0])
        assert worker._next_batch(rt) is late_edge_batch


def sink_worker(**kwargs):
    """Worker 1 of two, hosting only WC's sink: idle until its one
    in-edge, from worker 0, delivers."""
    topology, _ = load_application("wc")
    spec = LocalEngine(topology).spec
    sink = spec.sink_tasks[0]
    owner = {rt.task_id: int(rt.is_sink) for rt in spec.tasks}
    inboxes = [queue.Queue(), queue.Queue()]
    worker = _Worker(
        1, spec, owner, 100, PickleQueueChannel(1, inboxes), RunConfig(), **kwargs
    )
    return worker, sink, inboxes[1]


class TestIdleAccounting:
    def test_idle_time_is_the_sleep_it_got_not_the_sleep_it_asked_for(
        self, monkeypatch
    ):
        """``busy_fraction`` is ``1 - idle_s / wall``: an idle turn asks
        for 200 us and, on a busy host, gets a millisecond or more."""
        from repro.runtime import process_pool

        worker, sink, inbox = sink_worker()
        (edge,) = sink.in_edges

        slept = []
        real_sleep = time.sleep

        def slow_sleep(_seconds):
            started = time.perf_counter()
            real_sleep(0.002)
            slept.append(time.perf_counter() - started)

        monkeypatch.setattr(process_pool.time, "sleep", slow_sleep)
        feeder = threading.Timer(
            0.05, inbox.put, [("eof", edge.producer, edge.consumer)]
        )
        feeder.start()
        worker._run_phase()
        feeder.join(timeout=5.0)
        assert not feeder.is_alive()
        assert worker.completed == {sink.task_id}
        assert len(slept) >= 5
        assert worker.idle_s >= sum(slept) * 0.99
        # ... and not more than the loop's whole wall could hold.
        assert worker.idle_s <= sum(slept) + 0.05


class TestRunDeadline:
    def test_idle_worker_gives_up_at_the_run_deadline(self):
        """An idle worker whose inbox never delivers — its producer and
        the parent are gone — stops at the run deadline: no worker
        process outlives its run.  Driven in a thread, so a worker that
        never stops fails the test instead of hanging it."""
        worker, _sink, _inbox = sink_worker(run_deadline=time.monotonic() + 0.2)
        raised = []

        def phase():
            try:
                worker._run_phase()
            except StallError as exc:
                raised.append(exc)

        thread = threading.Thread(target=phase, daemon=True)
        thread.start()
        thread.join(timeout=2.0)
        assert not thread.is_alive(), "idle worker ignored the run deadline"
        (error,) = raised
        assert "run deadline" in str(error)


class TestBoundedBlockingPut:
    def test_live_stuck_peer_raises_deadlock_after_timeout(self):
        own_inbox = queue.Queue()
        peer_inbox = queue.Queue(maxsize=1)
        peer_inbox.put(("batch", 0, 0, b"full"))  # peer inbox already full
        worker, _spec = make_worker(
            inboxes=[own_inbox, peer_inbox], send_deadline_s=0.2
        )
        started = time.monotonic()
        with pytest.raises(QueueDeadlockError, match="blocked"):
            worker._blocking_put(1, ("batch", 0, 0, b"payload"))
        assert time.monotonic() - started >= 0.2
        worker.results = queue.Queue()
        worker._report("ok")
        _kind, _worker_id, report = worker.results.get_nowait()
        assert report["metrics"]["send_blocks"] == 1

    def test_send_completes_when_peer_drains(self):
        own_inbox = queue.Queue()
        peer_inbox = queue.Queue(maxsize=1)
        worker, _spec = make_worker(inboxes=[own_inbox, peer_inbox])
        worker._blocking_put(1, ("batch", 0, 0, b"payload"))
        assert peer_inbox.get_nowait() == ("batch", 0, 0, b"payload")

    def test_blocked_sender_keeps_draining_own_inbox(self):
        own_inbox = queue.Queue()
        peer_inbox = queue.Queue(maxsize=1)
        peer_inbox.put(("stuck",))
        worker, spec = make_worker(
            inboxes=[own_inbox, peer_inbox], send_deadline_s=0.2
        )
        # An EOF waiting in our own inbox must be absorbed while blocked
        # (soft receive), not left to deadlock the worker graph.
        producer, consumer = some_edge(spec)
        own_inbox.put(("eof", producer, consumer))
        with pytest.raises(QueueDeadlockError):
            worker._blocking_put(1, ("batch", 0, 0, b"payload"))
        assert (producer, consumer) in worker.eof


class TestSealedBatchByteAccounting:
    """Byte counters tick exactly once per sealed batch.

    ``pack()`` seals (and counts) a batch before ``_blocking_put`` starts
    retrying, so a send that blocks on a full peer inbox and loops must
    not inflate ``pickled_bytes_out``/``remote_batches_out``.
    """

    def test_retried_send_counts_bytes_once(self):
        own_inbox = queue.Queue()
        peer_inbox = queue.Queue(maxsize=1)
        peer_inbox.put(("stuck",))  # first try_put attempts fail
        worker, spec = make_worker(
            inboxes=[own_inbox, peer_inbox], send_deadline_s=5.0
        )
        producer, consumer = some_edge(spec)
        worker.owner[consumer] = 1  # force the remote-dispatch path
        # Unstick the peer inbox only after the sender has started
        # retrying, so the batch is demonstrably re-put at least once.
        threading.Timer(0.2, peer_inbox.get).start()
        worker._dispatch(producer, consumer, tuples_of(8, producer=producer))
        message = peer_inbox.get_nowait()
        assert message[0] == "batch"
        assert worker.metrics["send_blocks"] == 1  # the send did retry
        metrics = worker.channel.metrics
        assert metrics["remote_batches_out"] == 1
        assert metrics["pickled_bytes_out"] == len(message[3])

    def test_unblocked_send_counts_bytes_once(self):
        own_inbox = queue.Queue()
        peer_inbox = queue.Queue()
        worker, spec = make_worker(inboxes=[own_inbox, peer_inbox])
        producer, consumer = some_edge(spec)
        worker.owner[consumer] = 1
        for _ in range(3):
            worker._dispatch(producer, consumer, tuples_of(4, producer=producer))
        total = sum(len(peer_inbox.get_nowait()[3]) for _ in range(3))
        metrics = worker.channel.metrics
        assert metrics["remote_batches_out"] == 3
        assert metrics["pickled_bytes_out"] == total
