"""The shared task step and router (``repro.runtime.step``).

Evidence that one step serves both executors, and that keeping batches
columnar *between* tasks is invisible except for speed:

* scalar step units — a fused chain through ``run_item`` against the same
  tasks run unfused, the staged ``flush_chain``, shedding in ``route`` —
  and a structural guard: no executor calls an operator or a grouping;
* router units — the route counter, per-edge FIFO (pending scalar tuples
  leave before the chunks that follow them), columnar output cut at
  ``MAX_BATCH_ROWS`` or the queue capacity where that is less (scalar
  rows seal at the live buffer size), and every grouping against the
  scalar router on random batches;
* the inline executor end to end — all four applications against their
  ``vectorized="off"`` run under the conditions that stress the hand-off:
  queues exactly one batch deep, epoch barriers with a live migration,
  fused chains fed by a kernel task, sample-keeping and ``on_tuple`` sinks;
* an instrumented inline run is the uninstrumented one, timed: same
  results, same kernel calls, and each task's ``process_ns`` counts the
  tuples it took in;
* the gates both executors share — what counts as a fallback, what a
  sink takes, what a kernel may return.
"""

import ast
import os
import pickle
import random
from collections import Counter as Multiset
from contextlib import contextmanager
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np
import pytest

import repro.runtime

from repro.apps import build_application, build_linear_road
from repro.apps.wordcount import Counter, Parser, SentenceSpout, Splitter
from repro.core.plan import ExecutionPlan
from repro.dsps import LocalEngine
from repro.dsps.graph import ExecutionGraph
from repro.dsps.operators import IterableSpout, Operator, Sink, Spout
from repro.dsps.queues import MAX_BATCH_ROWS, CommunicationQueue, OutputBuffer
from repro.dsps.streams import (
    BroadcastGrouping,
    FieldsGrouping,
    GlobalGrouping,
    ShuffleGrouping,
)
from repro.dsps.topology import TopologyBuilder
from repro.dsps.tuples import DEFAULT_STREAM, JumboTuple, StreamTuple
from repro.errors import TopologyError
from repro.metrics import MetricsRegistry
from repro.metrics.registry import NULL_REGISTRY
from repro.runtime import EpochConfig, Migration, OverloadConfig, ProcessPoolBackend
from repro.runtime.backends import _InlineRun
from repro.runtime.dataplane import ColumnBatch, DictColumn
from repro.runtime.faults import FaultPlan
from repro.runtime.fusion import in_one_process
from repro.runtime.lowering import instantiate_task
from repro.runtime.overload import Shedder
from repro.runtime.process_pool import _Worker
from repro.runtime.step import STEP_COUNTERS, TaskStep, column_cut, partition

APPS = ("wc", "sd", "fd", "lr")
EVENTS = 300
BATCH = 8
#: Batch sizes the cut tests build their harness at: the default and a
#: small one.
CUT_BATCH_SIZES = (64, 5)


# ---------------------------------------------------------------------------
# Fixtures: a producer with one route under a chosen grouping
# ---------------------------------------------------------------------------
class _Numbers(Spout):
    def next_batch(self, max_tuples):
        for i in range(max_tuples):
            yield (f"k{i % 5}", i)


class _Pass(Operator):
    """Kernel-capable identity over ("s", "q") rows."""

    declared_fields = {DEFAULT_STREAM: "sq"}
    column_schemas = ("sq",)

    def process(self, item):
        yield DEFAULT_STREAM, item.values

    def process_columns(self, batch):
        yield ColumnBatch.build(DEFAULT_STREAM, "sq", list(batch.columns))


def _connect(handle, kind):
    if kind == "fields":
        return handle.fields_from("src", 0)
    return getattr(handle, f"{kind}_from")("src")


def route_spec(kind, consumers, batch_size=BATCH, queue_capacity=None):
    """Lowered spec of spout -> src -> dst(xN, grouping ``kind``) -> sink."""
    builder = TopologyBuilder("route")
    builder.set_spout("spout", _Numbers())
    builder.add_operator("src", _Pass()).shuffle_from("spout")
    _connect(builder.add_operator("dst", _Pass()), kind)
    builder.add_sink("sink", Sink()).shuffle_from("dst")
    engine = LocalEngine(
        builder.build(),
        replication={"spout": 1, "src": 1, "dst": consumers, "sink": 1},
        batch_size=batch_size,
        queue_capacity=queue_capacity,
    )
    return engine.spec


def rows(n, start=0, source=1):
    return [
        StreamTuple(
            values=(f"k{(start + i) % 5}", start + i),
            source_task=source,
            event_time_ns=float(start + i),
        )
        for i in range(n)
    ]


class Harness:
    """One producer's routing state, driven scalar or columnar.

    Scalar tuples go through the shared ``route`` (the reference
    router); batches through the shared ``route_columns``; deliveries
    are enqueued as the inline run would.  Unbounded queues, so nothing
    ever suspends.
    """

    def __init__(self, spec):
        self.spec = spec
        self.step = TaskStep(spec, 0, vectorized="auto")
        self.rt = next(rt for rt in spec.tasks if rt.component == "src")

    def enqueue(self, deliveries):
        for producer, consumer, payload in deliveries:
            self.step.queues[(producer, consumer)].put(payload)

    def scalar(self, items):
        for item in items:
            self.enqueue(self.step.route(self.rt, item))

    def columnar(self, items):
        batch = ColumnBatch.from_tuples(items)
        self.enqueue(self.step.route_columns(self.rt, batch))

    def finish(self):
        """Flush, then per-consumer tuple sequences and the counters."""
        self.enqueue(self.step.flush_buffers(self.rt))
        received = {}
        for edge in self.rt.out_edges:
            queue = self.step.queues[(edge.producer, edge.consumer)]
            received[edge.consumer] = [
                (t.values, t.stream, t.source_task, t.event_time_ns)
                for payload in queue.drain()
                for t in (
                    payload.to_tuples()
                    if isinstance(payload, ColumnBatch)
                    else payload
                )
            ]
        return received, dict(self.step.counters)


# ---------------------------------------------------------------------------
# Scalar step units
# ---------------------------------------------------------------------------
class _Pairs(Operator):
    """Holds every other tuple back: emits the sum of each pair, a copy
    of every input on a side stream nobody subscribes to, and the odd
    one out at ``flush()``.  ``LOG`` records the call order."""

    LOG: list = []

    def __init__(self, name):
        self.name = name
        self.held = None

    def process(self, item):
        self.LOG.append(("process", self.name, item.values))
        yield "side", item.values
        if self.held is None:
            self.held = item.values[0]
        else:
            yield DEFAULT_STREAM, (self.held + item.values[0],)
            self.held = None

    def flush(self):
        self.LOG.append(("flush", self.name))
        if self.held is not None:
            yield DEFAULT_STREAM, (self.held,)
            self.held = None


class _Synchronous:
    """The smallest executor the step admits: every delivery runs its
    consumer in place, as a worker does for a local edge."""

    def __init__(self, fused, replicas=1, shedder=None):
        builder = TopologyBuilder("pairs")
        builder.set_spout("spout", _Numbers())
        previous = "spout"
        for name in "abc":
            builder.add_operator(name, _Pairs(name)).shuffle_from(previous)
            previous = name
        builder.add_sink("sink", Sink(keep_samples=10**6)).shuffle_from("c")
        replication = {"spout": 1, "a": 1, "b": 1, "c": 1, "sink": replicas}
        spec = LocalEngine(builder.build(), replication=replication, batch_size=3).spec
        if fused:
            spec = in_one_process(spec)
        self.run = _InlineRun(spec, 0, NULL_REGISTRY, vectorized="off")
        self.by_name = {rt.component: rt for rt in reversed(spec.tasks)}
        self.step = self.run.step
        self.step.shedder = shedder
        self.chains, self.stages = self.step.chains, self.step.stages

    def deliver(self, deliveries):
        for _producer, consumer, payload in deliveries:
            if consumer in self.stages:
                chain, position = self.stages[consumer]
                self.deliver(self.step.run_rows(chain, position, payload))
            else:
                self.deliver(self.step.run(self.chains[consumer], payload.tuples))

    def close(self):
        """End of stream, upstream first: each chain flushes once its
        producers have flushed and drained."""
        for rt in self.run.spec.tasks:
            if rt.task_id in self.stages:
                continue
            chain = self.chains.get(rt.task_id, (rt,))
            if not rt.is_spout:
                self.deliver(self.step.flush_chain(chain))
            for member in chain:
                self.deliver(self.step.flush_buffers(member))

    def outcome(self):
        """Sink contents, per-task counters, the tail's route counters."""
        result = self.run._snapshot(partial=False)
        tail = self.by_name["c"].task_id
        return {
            "sinks": sink_contents(result)["sink"],
            "stats": task_counters(result),
            # A fused hand-off crosses no route; the tail's are real.
            "tail_counters": {
                key: n for key, n in self.step.counters.items() if key[0] == tail
            },
        }


class TestScalarStep:
    @pytest.fixture(autouse=True)
    def fresh_log(self, monkeypatch):
        monkeypatch.setattr(_Pairs, "LOG", [])

    def feed(self, executor, n):
        head = executor.by_name["a"]
        chain = executor.chains[head.task_id]
        for item in rows(n, source=0):
            item = dc_replace(item, values=(item.values[1],))
            executor.deliver(executor.step.run_item(chain, 0, item))

    def test_chain_of_three_equals_the_three_tasks_unfused(self):
        unfused, fused = _Synchronous(False, replicas=2), _Synchronous(True, replicas=2)
        assert [len(c) for c in fused.chains.values()].count(3) == 1
        assert all(len(c) == 1 for c in unfused.chains.values())
        for executor in (unfused, fused):
            self.feed(executor, 23)
            executor.close()
        want, got = unfused.outcome(), fused.outcome()
        assert got == want
        assert sorted(map(len, got["sinks"])) == [1, 2]  # 23 -> 12 -> 6 -> 3
        # Every stage emitted on "side" (counted in its stats), no route
        # carries it, and mid-chain it never reached the next stage.
        a, b = (got["stats"][fused.by_name[n].task_id] for n in "ab")
        assert a[2] == {"side": 23, DEFAULT_STREAM: 12}
        assert b[0] == 12 and b[2]["side"] == 12

    def test_flush_chain_is_staged(self):
        fused = _Synchronous(True)
        chain = fused.chains[fused.by_name["a"].task_id]
        self.feed(fused, 1)  # a holds it; b and c saw nothing
        fused.deliver(fused.step.flush_chain(chain))
        assert _Pairs.LOG[1:] == [
            ("flush", "a"),
            ("process", "b", (0,)),  # a's leftover, before b flushes
            ("flush", "b"),
            ("process", "c", (0,)),  # b's through c, before c flushes
            ("flush", "c"),
        ]
        # Same order as end-of-stream propagation through real queues.
        unfused = _Synchronous(False)
        del _Pairs.LOG[:]
        self.feed(unfused, 1)
        unfused.close()
        assert _Pairs.LOG[1:] == [
            ("flush", "a"),
            ("process", "b", (0,)),
            ("flush", "b"),
            ("process", "c", (0,)),
            ("flush", "c"),
        ]
        # Flush output derives from no input: event time zero, own source.
        fused.close()
        tail = fused.by_name["c"].task_id
        assert fused.outcome()["sinks"] == [[(DEFAULT_STREAM, (0,), tail, 0.0)]]
        assert fused.outcome() == unfused.outcome()

    def test_shedding_advances_the_route_counters_exactly_as_unshed(self):
        shedder = Shedder("random", 0.5, seed=5)
        shedder.active = True
        unshed = _Synchronous(False, replicas=3)
        shed = _Synchronous(False, replicas=3, shedder=shedder)
        tail = shed.by_name["c"]
        for executor, offsets in ((unshed, [None] * 40), (shed, range(40))):
            for item, offset in zip(rows(40, source=tail.task_id), offsets):
                executor.deliver(executor.step.route(tail, item, offset))
            executor.deliver(executor.step.flush_buffers(tail))
        assert shed.step.counters == unshed.step.counters
        dropped = sum(shedder.shed.values())
        assert 0 < dropped < 40 and sum(shedder.offered.values()) == 40
        # The survivors went to the replica the unshed run sent them to.
        want, got = unshed.outcome()["sinks"], shed.outcome()["sinks"]
        assert sum(map(len, got)) == 40 - dropped
        assert all(set(g) <= set(w) for g, w in zip(got, want))


class TestExecutorsOwnNoOperatorCalls:
    """``step.py`` is the only caller of ``Operator.process`` /
    ``flush`` and ``Grouping.route`` (and of ``OutputBuffer.flush``),
    and the only builder, restorer and snapshotter of a task partition:
    an executor that grows its own copy of the loop body, or of the
    tables it runs on, fails here."""

    STEP_CALLS = ("process", "flush", "route")
    STATE_CALLS = (
        "restore_state",
        "snapshot_state",
        "next_batch",
        "instantiate_task",
        "instantiate_tasks",
        "restore_tasks",
        "snapshot_tasks",
        "fast_forward",
    )

    @pytest.mark.parametrize("module", ("backends", "process_pool"))
    def test_no_process_flush_or_route_calls(self, module):
        path = Path(repro.runtime.__file__).with_name(f"{module}.py")
        calls = [
            f"{module}.py:{node.lineno} {name}("
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            for name in [getattr(node.func, "attr", getattr(node.func, "id", None))]
            if name in self.STEP_CALLS + self.STATE_CALLS
        ]
        assert calls == []


# ---------------------------------------------------------------------------
# Router units
# ---------------------------------------------------------------------------
class TestRouter:
    def test_single_consumer_counter_advances_by_batch_length(self):
        harness = Harness(route_spec("fields", 1))
        harness.columnar(rows(21))
        (key,) = harness.step.counters
        assert harness.step.counters[key] == 21
        harness.columnar(rows(5, start=21))
        assert harness.step.counters[key] == 26

    def test_pending_scalar_tuples_leave_before_the_chunks(self):
        harness = Harness(route_spec("shuffle", 1))
        harness.scalar(rows(3))  # below the batch size: stays pending
        (edge,) = harness.rt.out_edges
        queue = harness.step.queues[(edge.producer, edge.consumer)]
        assert queue.is_empty and harness.step.buffers[
            (edge.producer, edge.consumer)
        ].pending == 3
        harness.columnar(rows(4, start=3))
        first, second = queue.drain()
        assert [t.values[1] for t in first] == [0, 1, 2]  # scalar, flushed first
        assert isinstance(second, ColumnBatch)
        assert second.columns[1].tolist() == [3, 4, 5, 6]

    @pytest.mark.parametrize("capacity", (10 * BATCH, 2 * MAX_BATCH_ROWS))
    def test_bounded_edge_chunks_follow_the_queue_capacity(self, capacity):
        cut = min(MAX_BATCH_ROWS, capacity)

        def lengths(deliveries):
            # As delivered: a bounded queue admits one chunk at a time.
            return [len(payload) for _, _, payload in deliveries]

        for size in CUT_BATCH_SIZES:
            harness = Harness(
                route_spec("shuffle", 1, batch_size=size, queue_capacity=capacity)
            )
            (edge,) = harness.rt.out_edges
            key = (edge.producer, edge.consumer)
            assert harness.step.queues[key].capacity_tuples == capacity
            # The batch size does not move where columnar output is cut.
            assert harness.step.whole[key] == cut
            batch = ColumnBatch.from_tuples(rows(2 * cut + 3))
            assert lengths(harness.step.route_columns(harness.rt, batch)) == [
                cut,
                cut,
                3,
            ]
            # Scalar rows seal at the batch size.
            sealed = [
                delivery
                for item in rows(2 * size + 1)
                for delivery in harness.step.route(harness.rt, item)
            ]
            assert lengths(sealed) == [size, size]
            assert lengths(harness.step.flush_buffers(harness.rt)) == [1]

    def test_unbounded_local_edge_takes_the_output_whole(self):
        n = 2 * MAX_BATCH_ROWS + 7
        for size in CUT_BATCH_SIZES:
            harness = Harness(route_spec("shuffle", 1, batch_size=size))
            (edge,) = harness.rt.out_edges
            key = (edge.producer, edge.consumer)
            queue = harness.step.queues[key]
            assert queue.capacity_tuples is None and key in harness.step.whole
            harness.columnar(rows(n))
            # Cut only where take() would stop merging anyway.
            assert [len(b) for b in iter(queue.poll, None)] == [
                MAX_BATCH_ROWS,
                MAX_BATCH_ROWS,
                7,
            ]
            # Scalar rows still seal at the batch size.
            harness.scalar(rows(2 * size + 1))
            assert [len(b) for b in iter(queue.poll, None)] == [size, size]
            assert harness.step.buffers[key].pending == 1
            harness.enqueue(harness.step.flush_buffers(harness.rt))
            assert [len(b) for b in iter(queue.poll, None)] == [1]

    def test_small_batch_is_delivered_by_reference(self):
        harness = Harness(route_spec("shuffle", 1))
        batch = ColumnBatch.from_tuples(rows(BATCH))
        ((_, _, payload),) = harness.step.route_columns(harness.rt, batch)
        assert payload is batch

    @pytest.mark.parametrize("kind", ("shuffle", "fields", "broadcast", "global"))
    @pytest.mark.parametrize("consumers", (1, 3, 4))
    def test_matches_scalar_router_on_random_batches(self, kind, consumers):
        rng = random.Random(f"{kind}-{consumers}")
        spec = route_spec(kind, consumers)
        reference, candidate = Harness(spec), Harness(spec)
        position = 0
        for _ in range(12):
            n = rng.randint(1, 40)
            items = rows(n, start=position)
            position += n
            reference.scalar(items)
            # The candidate interleaves both shapes, as an operator whose
            # batches only sometimes qualify for its kernel would.
            if rng.random() < 0.3:
                candidate.scalar(items)
            else:
                candidate.columnar(items)
        got, got_counters = candidate.finish()
        want, want_counters = reference.finish()
        assert got == want
        assert got_counters == want_counters

    def test_unrouted_stream_is_dropped(self):
        harness = Harness(route_spec("shuffle", 2))
        batch = ColumnBatch.from_tuples(
            [dc_replace(t, stream="elsewhere") for t in rows(4)]
        )
        assert list(harness.step.route_columns(harness.rt, batch)) == []
        assert not harness.step.counters


class TestPartition:
    def batch(self, n):
        return ColumnBatch.from_tuples(rows(n))

    @pytest.mark.parametrize("counter", (0, 1, 5, 7))
    def test_shuffle_rows_follow_the_counter(self, counter):
        batch = self.batch(10)
        parts = dict(partition(ShuffleGrouping(), batch, 3, counter))
        for index, part in parts.items():
            want = [j for j in range(10) if (counter + j) % 3 == index]
            assert part.columns[1].tolist() == want
            assert part.event_times.tolist() == [float(j) for j in want]
        assert sum(len(p) for p in parts.values()) == 10

    def test_shuffle_skips_consumers_without_rows(self):
        parts = partition(ShuffleGrouping(), self.batch(2), 4, 3)
        assert [index for index, _ in parts] == [0, 3]

    def test_broadcast_and_global(self):
        batch = self.batch(6)
        assert partition(BroadcastGrouping(), batch, 3, 9) == [
            (0, batch),
            (1, batch),
            (2, batch),
        ]
        assert partition(GlobalGrouping(), batch, 3, 9) == [(0, batch)]

    def test_content_keyed_groupings_are_left_to_the_scalar_router(self):
        class Custom(ShuffleGrouping):
            def route(self, item, n_consumers, counter):
                return [0]

        batch = self.batch(6)
        assert partition(FieldsGrouping(0), batch, 3, 0) is None
        assert partition(Custom(), batch, 3, 0) is None
        # One consumer: degenerate whatever the grouping.
        assert partition(FieldsGrouping(0), batch, 1, 0) == [(0, batch)]


class TestFieldsGroupingSingleConsumer:
    def test_skips_the_hash_but_not_the_key_check(self):
        grouping = FieldsGrouping(0, 2)
        assert grouping.route(StreamTuple(values=("a", 1, 2)), 1, 0) == [0]
        with pytest.raises(TopologyError, match="lacks key fields"):
            grouping.route(StreamTuple(values=("a",)), 1, 0)
        # Several consumers: same replica for the same key, as before.
        picks = {
            tuple(grouping.route(StreamTuple(values=("a", i, 2)), 4, i))
            for i in range(8)
        }
        assert len(picks) == 1


# ---------------------------------------------------------------------------
# Mixed payloads on one queue
# ---------------------------------------------------------------------------
class TestMixedPayloadQueue:
    def test_depth_and_stats_count_tuples_whatever_the_shape(self):
        queue = CommunicationQueue(0, 1, capacity_tuples=20)
        buffer = OutputBuffer(0, 1, batch_size=4)
        jumbo = [buffer.append(t) for t in rows(8)]
        first, second = (b for b in jumbo if b is not None)
        columnar = ColumnBatch.from_tuples(rows(6, start=8))
        tail = JumboTuple(source_task=0, target_task=1, tuples=rows(3, start=14))
        for batch in (first, columnar, second, tail):
            queue.put(batch)
        assert queue.depth_tuples == 17
        assert queue.has_space(3) and not queue.has_space(4)
        assert not queue.offer(ColumnBatch.from_tuples(rows(4)))
        assert queue.stats.rejected_batches == 1
        assert queue.offer(columnar.select(slice(0, 0)))  # empty: no-op
        assert queue.stats.enqueued_batches == 4
        payloads = queue.drain()
        # FIFO: the ColumnBatch keeps its place between the jumbo tuples,
        # which coalesce only with their neighbours.
        assert [type(p) for p in payloads] == [list, ColumnBatch, list]
        assert payloads[1] is columnar
        assert [len(p) for p in payloads] == [4, 6, 7]
        stats = queue.stats
        assert stats.enqueued_tuples == stats.dequeued_tuples == 17
        assert stats.max_depth_tuples == 17 and stats.pending_tuples == 0
        assert queue.is_empty and not queue.is_full


    def test_queued_chunks_come_back_as_the_batch_they_were_cut_from(self):
        queue = CommunicationQueue(0, 1)
        batch = ColumnBatch.from_tuples(rows(20))
        for chunk in batch.chunks(BATCH):
            queue.put(chunk)
        (payload,) = queue.drain()
        assert payload.to_tuples() == batch.to_tuples()
        assert queue.stats.enqueued_batches == 3
        assert queue.stats.dequeued_tuples == 20

    @pytest.mark.parametrize(
        "odd_one",
        (
            lambda: ColumnBatch.from_tuples(rows(4, source=2)),
            lambda: ColumnBatch.from_tuples(
                [dc_replace(t, stream="side") for t in rows(4)]
            ),
            lambda: ColumnBatch.from_tuples([dc_replace(t, values=(1,)) for t in rows(4)]),
            lambda: ColumnBatch.build(DEFAULT_STREAM, "sq", [["k"] * 4, [0] * 4]),
            lambda: ColumnBatch.from_tuples(rows(MAX_BATCH_ROWS)),  # full by itself
        ),
        ids=("source", "stream", "schema", "no_event_times", "row_bound"),
    )
    def test_a_batch_that_does_not_join_closes_the_run(self, odd_one):
        queue = CommunicationQueue(0, 1)
        before = list(ColumnBatch.from_tuples(rows(16)).chunks(BATCH))
        odd = odd_one()
        after = ColumnBatch.from_tuples(rows(BATCH, start=16))
        for batch in (*before, odd, after):
            queue.put(batch)
        merged, alone, last = queue.drain()
        assert merged.to_tuples() == rows(16)
        # Handed over as queued, in its place: nothing reordered, nothing
        # held back for a better fit.
        assert alone is odd and last is after

    def test_codes_of_two_tables_never_share_a_run(self):
        words = ["a", "b"]

        def coded(table):
            batch = ColumnBatch.build(
                DEFAULT_STREAM, "s", [DictColumn([0, 1, 1], table)]
            )
            batch.source_task, batch.event_times = 1, np.zeros(3)
            return batch

        queue = CommunicationQueue(0, 1)
        same = [coded(words), coded(words)]
        restarted = coded(list(words))  # equal strings, a fresh table
        for batch in (*same, restarted):
            queue.put(batch)
        merged, alone = queue.drain()
        assert merged.columns[0].table is words and len(merged) == 6
        assert merged.columns[0].tolist() == ["a", "b", "b", "a", "b", "b"]
        assert alone is restarted


# ---------------------------------------------------------------------------
# Inline executor parity
# ---------------------------------------------------------------------------
def sink_contents(result):
    """Every sink's retained tuples, in arrival order."""
    return {
        component: [
            [(t.stream, t.values, t.source_task, t.event_time_ns) for t in sink.samples]
            for sink in sinks
        ]
        for component, sinks in result.sinks.items()
    }


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


def app_engine(app, vectorized, **kwargs):
    topology = build_application(app)
    topology.component("sink").template.keep_samples = 10**6
    kwargs.setdefault("replication", {name: 1 for name in topology.components})
    return LocalEngine(topology, vectorized=vectorized, **kwargs)


def assert_same_run(reference, candidate, ordered=True):
    """``ordered=False`` compares sinks as multisets: with bounded queues
    the interleaving of a sink's *several* producers follows the schedule,
    which batch shapes legitimately change (per-edge order never does)."""
    assert candidate.events_ingested == reference.events_ingested
    assert task_counters(candidate) == task_counters(reference)
    got, want = sink_contents(candidate), sink_contents(reference)
    if not ordered:
        got, want = (
            {c: [Multiset(s) for s in sinks] for c, sinks in contents.items()}
            for contents in (got, want)
        )
    assert got == want


@pytest.fixture(scope="module")
def scalar_runs():
    return {app: app_engine(app, "off").run(EVENTS) for app in APPS}


class TestInlineParity:
    @pytest.mark.parametrize("app", APPS)
    def test_unbounded_queues(self, app, scalar_runs):
        assert_same_run(scalar_runs[app], app_engine(app, "auto").run(EVENTS))

    @pytest.mark.parametrize("app", APPS)
    def test_queue_one_batch_deep(self, app, monkeypatch):
        """``queue_capacity == batch_size``: every sealed batch fills its
        queue, so a producer holding ColumnBatch chunks must block on the
        first and resume once the consumer has drained it."""
        blocked_on_columns = set()
        enqueue = _InlineRun._enqueue

        def spy(self, producer, consumer, batch):
            queue = self.step.queues[(producer, consumer)]
            if isinstance(batch, ColumnBatch) and not queue.has_space(len(batch)):
                blocked_on_columns.add((producer, consumer))
            yield from enqueue(self, producer, consumer, batch)

        reference = app_engine(
            app, "off", batch_size=BATCH, queue_capacity=BATCH
        ).run(EVENTS)
        monkeypatch.setattr(_InlineRun, "_enqueue", spy)
        engine = app_engine(app, "auto", batch_size=BATCH, queue_capacity=BATCH)
        run = _InlineRun(engine.spec, EVENTS, NULL_REGISTRY, vectorized="auto")
        candidate = run.execute()
        assert_same_run(reference, candidate, ordered=False)
        # WC's splitter and LR's dispatcher fan out: one input chunk makes
        # several output chunks, and the second finds the queue full.
        assert blocked_on_columns or app in ("sd", "fd")
        for key in blocked_on_columns:
            stats = run.step.queues[key].stats
            assert stats.blocked_batches > 0
            assert stats.max_depth_tuples <= BATCH
        assert all(queue.is_empty for queue in run.step.queues.values())

    @pytest.mark.parametrize("app", APPS)
    def test_epoch_barriers_with_live_migration(self, app):
        interval = 100
        reference = app_engine(app, "off", epoch_interval=interval).run(EVENTS)
        engine = app_engine(app, "auto")
        seen = []

        def observer(commit):
            # Quiescence: nothing — in particular no ColumnBatch — is in
            # flight at a barrier, and pending output stayed scalar.
            assert all(queue.is_empty for queue in run.step.queues.values())
            seen.append(commit.epoch)
            if commit.epoch != 0:
                return None
            moved = tuple(rt.task_id for rt in commit.spec.tasks)
            spec = dc_replace(
                commit.spec,
                tasks=tuple(dc_replace(rt, socket=1) for rt in commit.spec.tasks),
            )
            return Migration(spec=spec, moved=moved, detail="test move")

        run = _InlineRun(
            engine.spec,
            EVENTS,
            NULL_REGISTRY,
            vectorized="auto",
            epochs=EpochConfig(interval=interval),
            on_epoch=observer,
        )
        candidate = run.execute()
        assert seen and candidate.epochs.migrations == 1
        # Snapshots are validated plain data at every commit
        # (check_serializable); the last one still unpickles without numpy
        # scalars having leaked into operator state.
        assert set(run.last_checkpoint.payload()) == {"states", "counters", "stats"}
        assert_same_run(reference, candidate)

    @pytest.mark.parametrize("app", APPS)
    def test_fused_chain_fed_by_a_kernel_task(self, app, scalar_runs):
        """Chain heads drain queues too: a head fed ColumnBatch chunks by
        an upstream kernel (parser -> [dispatcher, ...] in LR; forced
        here by fusing only the tail of each pipeline) must take them."""
        engine = app_engine(app, "auto")
        fused = in_one_process(engine.spec)
        # Behead the chain that starts right after the spout, so that the
        # new head has a kernel task upstream (FD's chain of two stays).
        spout_fed = {
            edge.consumer
            for rt in fused.tasks
            if rt.is_spout
            for edge in rt.out_edges
        }
        trimmed = tuple(
            chain[1:] if chain[0] in spout_fed and len(chain) > 2 else chain
            for chain in fused.fusion
        )
        spec = dc_replace(fused, fusion=trimmed)
        registry_free = _InlineRun(spec, EVENTS, NULL_REGISTRY, vectorized="auto")
        candidate = registry_free.execute()
        assert_same_run(scalar_runs[app], candidate)
        assert registry_free.step.metrics["fusion_composed_batches"] > 0

    @pytest.mark.parametrize("hooked", (True, False))
    def test_sampling_and_on_tuple_sinks(self, hooked):
        """A sink that still collects samples, or hooks ``on_tuple``, sees
        every tuple of a ColumnBatch, in order; one that does neither
        counts the batch in O(1) once its samples are full."""

        class Recorder(Sink):
            def __init__(self):
                super().__init__(keep_samples=5)
                self.seen = []

            def on_tuple(self, item):
                self.seen.append((item.values, item.event_time_ns))

        def run(vectorized):
            builder = TopologyBuilder("wc")
            builder.set_spout("spout", SentenceSpout(seed=3))
            builder.add_operator("parser", Parser()).shuffle_from("spout")
            builder.add_operator("splitter", Splitter()).shuffle_from("parser")
            builder.add_operator("counter", Counter()).fields_from("splitter", 0)
            sink = Recorder() if hooked else Sink(keep_samples=5)
            builder.add_sink("sink", sink).shuffle_from("counter")
            result = LocalEngine(builder.build(), vectorized=vectorized).run(EVENTS)
            return result, result.sinks["sink"][0]

        (reference, scalar_sink), (candidate, columnar_sink) = run("off"), run("auto")
        assert columnar_sink.received == scalar_sink.received == EVENTS * 10
        assert len(columnar_sink.samples) == 5
        assert sink_contents(candidate) == sink_contents(reference)
        if hooked:
            assert columnar_sink.seen == scalar_sink.seen
            assert len(scalar_sink.seen) == scalar_sink.received


# ---------------------------------------------------------------------------
# A kernel's output crosses every edge whole, up to the consumer's capacity
# ---------------------------------------------------------------------------
#: A bound no queue ever reaches: the run is scheduled exactly as an
#: unbounded one, but its edges are bounded.
NEVER_FULL = 10**9


def rows_of(payload):
    tuples = payload.to_tuples() if isinstance(payload, ColumnBatch) else payload
    if isinstance(tuples, JumboTuple):
        tuples = tuples.tuples
    return [(t.stream, t.values, t.source_task, t.event_time_ns) for t in tuples]


def cut_at_batch_size(step):
    """Cut ``step``'s columnar output at each edge's batch size, as
    every bounded and remote edge once did (and as placement's sample
    still prices it)."""
    step.whole = {edge: buffer.batch_size for edge, buffer in step.buffers.items()}


def recorded_run(spec, events, vectorized, interval=None, batch_cut=False):
    """Run ``spec`` inline (fused as ``InlineBackend`` fuses it) and
    record every edge's enqueued rows, in order, and batch lengths."""
    run = _InlineRun(
        in_one_process(spec),
        events,
        NULL_REGISTRY,
        vectorized=vectorized,
        epochs=None if interval is None else EpochConfig(interval=interval),
    )
    if batch_cut:
        cut_at_batch_size(run.step)
    edges = {key: ([], []) for key in run.step.queues}
    for key, queue in run.step.queues.items():

        def offer(batch, force=False, _offer=queue.offer, _seen=edges[key]):
            _seen[0].extend(rows_of(batch))
            _seen[1].append(len(batch))
            return _offer(batch, force)

        queue.offer = offer
    return run, run.execute(), edges


def replicated(app):
    """Two replicas of every operator between the spouts and the sinks,
    so shuffles split kernel outputs and fewer edges fuse."""
    topology = build_application(app)
    return {
        name: 1 if isinstance(topology.component(name).template, (Spout, Sink)) else 2
        for name in topology.components
    }


def assert_chunks_fit(spec, lengths):
    """No batch on an edge is larger than ``MAX_BATCH_ROWS`` or than the
    consumer's queue capacity."""
    for key, seen in lengths.items():
        cut = column_cut(spec.queue_capacity.get(key))
        assert max(seen, default=0) <= cut, (key, cut, max(seen))


class TestCutWhole:
    """The cut rule changes how many chunks cross an edge, never what
    crosses it: counters equal the scalar reference, and every edge's
    rows, concatenated, equal those of the same run cut at the batch
    size everywhere — inline, and on two workers over the searched map
    and over one that cuts every edge it can."""

    def check(self, make_engine, vectorized, events=EVENTS, interval=None):
        barriers = {} if interval is None else {"epoch_interval": interval}
        reference = make_engine("off", **barriers).run(events)
        spec = make_engine(vectorized).spec
        run, candidate, edges = recorded_run(spec, events, vectorized, interval)
        assert_same_run(reference, candidate)
        bounded_spec = make_engine(vectorized, queue_capacity=NEVER_FULL).spec
        bounded, _, bounded_edges = recorded_run(
            bounded_spec, events, vectorized, interval, batch_cut=True
        )
        assert {key: seen[0] for key, seen in edges.items()} == {
            key: seen[0] for key, seen in bounded_edges.items()
        }
        assert_chunks_fit(spec, {key: seen[1] for key, seen in edges.items()})
        if vectorized == "off":
            assert not run.step.whole
            assert edges == bounded_edges
        else:
            # The out-edges of kernel tasks and spouts, cut where take()
            # stops merging: every queue here is unbounded.
            step = run.step
            assert step.whole == {
                key: MAX_BATCH_ROWS
                for key in step.buffers
                if key[0] in step.kernels or key[0] in step.spout_iters
            }
        return edges

    @pytest.mark.parametrize("vectorized", ("off", "auto"))
    @pytest.mark.parametrize("batch_size", (1, 64))
    @pytest.mark.parametrize("app", APPS)
    def test_rows_and_counters_are_the_bounded_runs(self, app, batch_size, vectorized):
        def make_engine(mode, **kwargs):
            return app_engine(
                app,
                mode,
                batch_size=batch_size,
                replication=replicated(app),
                **kwargs,
            )

        edges = self.check(make_engine, vectorized)
        if vectorized == "auto":
            # Some output crossed in one piece larger than a batch.
            largest = max(max(lengths, default=0) for _, lengths in edges.values())
            assert batch_size < largest <= MAX_BATCH_ROWS

    @pytest.mark.parametrize("interval", (None, 5000, 2500, 1000, 70))
    def test_linear_road_interval_sweep(self, interval):
        def make_engine(mode, **kwargs):
            # The sink keeps its default few samples: a barrier snapshots
            # what it keeps, 114 times at interval 70.
            return LocalEngine(build_linear_road(seed=11), vectorized=mode, **kwargs)

        self.check(make_engine, "auto", 8000, interval)

    @pytest.mark.parametrize("forced", (False, True), ids=("searched", "max_cut"))
    @pytest.mark.parametrize("queue_budget", (4096, 256))
    @pytest.mark.parametrize("batch_size", (1, 64))
    @pytest.mark.parametrize("app", APPS)
    def test_two_workers(
        self, app, batch_size, queue_budget, forced, scalar_runs, landed
    ):
        def run(batch_cut):
            registry = MetricsRegistry()
            with landed.recording() as lengths, pytest.MonkeyPatch.context() as mp:
                if batch_cut:
                    real = TaskStep._bind

                    def bind(step, spec):
                        real(step, spec)
                        cut_at_batch_size(step)

                    mp.setattr(TaskStep, "_bind", bind)
                result = two_worker_engine(
                    app, forced, registry, batch_size=batch_size, queue_budget=queue_budget
                ).run(EVENTS)
            counters = registry.snapshot()["counters"]
            overflow = sum(
                count
                for name, count in counters.items()
                if name.endswith(".overflow_admissions")
            )
            return result, lengths, overflow

        candidate, edges, overflow = run(batch_cut=False)
        assert_same_run(scalar_runs[app], candidate, ordered=False)
        reference, reference_edges, reference_overflow = run(batch_cut=True)
        # A searched map may fuse other edges in the two runs.
        common = edges.keys() & reference_edges.keys()
        assert common
        assert {key: edges[key][0] for key in common} == {
            key: reference_edges[key][0] for key in common
        }
        spec = two_worker_engine(
            app, forced, NULL_REGISTRY, batch_size=batch_size, queue_budget=queue_budget
        ).spec
        assert_chunks_fit(spec, {key: seen[1] for key, seen in edges.items()})
        largest = max(max(seen[1]) for seen in edges.values())
        assert batch_size < largest
        if reference_overflow == 0:
            assert overflow == 0


def max_cut_sockets(spec):
    """Task id -> worker (0 or 1) for a map that cuts as many edges as
    two workers can: every edge of WC, SD and FD; LR's triangles
    (dispatcher -> detector -> notifiers) keep some edges local."""
    ids = [rt.task_id for rt in spec.tasks]
    position = {task_id: index for index, task_id in enumerate(ids)}
    pairs = [(position[e.producer], position[e.consumer]) for e in spec.edges]
    best = max(
        range(2 ** len(ids)),
        key=lambda bits: sum((bits >> a ^ bits >> b) & 1 for a, b in pairs),
    )
    return {task_id: best >> position[task_id] & 1 for task_id in ids}


def two_worker_engine(app, forced, registry, **options):
    """``app`` on two workers over shm rings; LR in strict edge order, so
    that its fan-in operators' output (and so each edge's rows) does not
    follow the arrival schedule."""
    backend = ProcessPoolBackend(
        n_workers=2, ordered=app == "lr", timeout_s=60.0, heartbeat_timeout_s=5.0
    )
    topology = build_application(app)
    topology.component("sink").template.keep_samples = 10**6
    replication = {name: 1 for name in topology.components}
    if not forced:
        return LocalEngine(
            topology,
            replication=replication,
            backend=backend,
            registry=registry,
            **options,
        )
    graph = ExecutionGraph(topology, replication, group_size=1)
    sockets = max_cut_sockets(LocalEngine(topology, replication=replication).spec)
    return LocalEngine.from_plan(
        ExecutionPlan(graph, sockets), backend=backend, registry=registry, **options
    )


class _Landed:
    """Every batch a worker admits onto an in-edge queue, recorded in
    the worker (forked workers inherit the patched ``_land``) and read
    back per edge as ``(rows, batch lengths)``."""

    def __init__(self, directory):
        self.directory = directory
        self.runs = 0

    def spy(self, real):
        def land(worker, key, payload):
            with (self.current / f"{os.getpid()}.pkl").open("ab") as handle:
                pickle.dump((key, rows_of(payload), len(payload)), handle)
            return real(worker, key, payload)

        return land

    @contextmanager
    def recording(self):
        self.runs += 1
        self.current = self.directory / str(self.runs)
        self.current.mkdir()
        edges: dict = {}
        yield edges
        for path in sorted(self.current.iterdir()):
            with path.open("rb") as handle:
                while True:
                    try:
                        key, landed_rows, length = pickle.load(handle)
                    except EOFError:
                        break
                    seen = edges.setdefault(key, ([], []))
                    seen[0].extend(landed_rows)
                    seen[1].append(length)


@pytest.fixture
def landed(tmp_path, monkeypatch):
    recorder = _Landed(tmp_path)
    monkeypatch.setattr(_Worker, "_land", recorder.spy(_Worker._land))
    return recorder


# ---------------------------------------------------------------------------
# A registry times the run it watches
# ---------------------------------------------------------------------------
def watched_run(app, registry, vectorized="auto", interval=None):
    engine = app_engine(app, vectorized)
    run = _InlineRun(
        in_one_process(engine.spec),
        EVENTS,
        registry,
        vectorized=vectorized,
        epochs=None if interval is None else EpochConfig(interval=interval),
    )
    return run.execute(), run


class TestInstrumentedRun:
    @pytest.mark.parametrize("interval", (None, 70))
    @pytest.mark.parametrize("app", APPS)
    def test_a_registry_changes_nothing_that_runs(self, app, interval):
        plain, plain_run = watched_run(app, NULL_REGISTRY, interval=interval)
        registry = MetricsRegistry()
        watched, _ = watched_run(app, registry, interval=interval)
        assert_same_run(plain, watched)
        published = {
            name: value
            for name, value in registry.snapshot()["counters"].items()
            if name.startswith(("runtime.vectorized.", "runtime.fusion."))
        }
        assert published == {
            f"runtime.{key.replace('_', '.', 1)}": plain_run.step.metrics[key]
            for key in STEP_COUNTERS
        }
        assert published["runtime.vectorized.batches"] > 0
        if app == "wc":
            assert published["runtime.vectorized.fallbacks"] == 0

    @pytest.mark.parametrize("vectorized", ("auto", "off"))
    @pytest.mark.parametrize("app", APPS)
    def test_process_ns_counts_what_each_task_took_in(self, app, vectorized):
        registry = MetricsRegistry()
        result, run = watched_run(app, registry, vectorized)
        assert (run.step.metrics["vectorized_batches"] > 0) == (vectorized == "auto")
        histograms = registry.snapshot()["histograms"]
        for rt in run.spec.tasks:
            name = f"engine.{rt.component}.{rt.task.replica_start}.process_ns"
            taken = (
                run.step.spout_produced[rt.task_id]
                if rt.is_spout
                else result.task_stats[rt.task_id].tuples_in
            )
            assert taken > 0
            assert histograms[name]["count"] == taken, name


# ---------------------------------------------------------------------------
# Columnar from the source, coalesced at the consumer
# ---------------------------------------------------------------------------
def _finite_source(topology, n):
    """Replace the spout by one that dries up after ``n`` events."""
    spout = topology.component("spout").template
    events = list(spout.clone().next_batch(n))
    spout.__class__ = IterableSpout
    spout.__dict__ = dict(vars(IterableSpout(events)))


#: Forces the ladder up a rung at every barrier, whatever the host's
#: timing: any lag at all violates the SLO.
_ALWAYS_OVERLOADED = OverloadConfig(
    max_lag_ms=1e-9, enter_epochs=1, shed_mode="random", shed_rate=0.5, shed_seed=9
)

#: Condition -> (engine options, events asked for, finite source size).
SOURCE_CONDITIONS = {
    "no_barriers": ({}, EVENTS, None),
    # 300 events in epochs of 70: every boundary cuts a source chunk
    # (1 024 inline, 256 in a worker) short.
    "epoch_cuts_mid_chunk": ({"epoch_interval": 70}, EVENTS, None),
    "shed_rung_active": (
        {"epoch_interval": 50, "overload": _ALWAYS_OVERLOADED},
        EVENTS,
        None,
    ),
    "fault_plan_ticks_the_spout": (
        {
            "fault_plan": FaultPlan(
                seed=3, kinds=("crash",), target="spout", at_tuple=150
            ),
            "recovery_policy": "retry",
        },
        EVENTS,
        None,
    ),
    "source_dries_up_early": ({}, EVENTS, 200),
    "queue_one_batch_deep": (
        {"batch_size": BATCH, "queue_capacity": BATCH},
        EVENTS,
        None,
    ),
}


def source_run(app, backend, vectorized, condition):
    options, events, finite = SOURCE_CONDITIONS[condition]
    options = dict(options)
    executor = {"vectorized": vectorized}
    if "overload" in options:
        executor["overload"] = options.pop("overload")
    if backend == "process":
        executor = {
            "backend": ProcessPoolBackend(
                n_workers=2, ordered=(app == "lr"), **executor
            )
        }
    topology = build_application(app)
    topology.component("sink").template.keep_samples = 10**6
    if finite is not None:
        _finite_source(topology, finite)
    engine = LocalEngine(
        topology,
        replication={name: 1 for name in topology.components},
        **executor,
        **options,
    )
    return engine.run(events)


class TestColumnarSource:
    """Events leave the spout as columns whenever nothing asks to see
    them one by one, and a consumer's kernel takes what is queued in one
    call: against the scalar run, nothing but the speed may differ."""

    @pytest.mark.parametrize("condition", SOURCE_CONDITIONS)
    @pytest.mark.parametrize("backend", ("inline", "process"))
    @pytest.mark.parametrize("app", APPS)
    def test_parity_with_the_scalar_run(self, app, backend, condition):
        reference = source_run(app, "inline", "off", condition)
        candidate = source_run(app, backend, "auto", condition)
        # Several producers into one sink (LR), bounded queues and worker
        # schedules interleave differently; per-edge order never does.
        ordered = backend == "inline" and condition != "queue_one_batch_deep"
        assert_same_run(reference, candidate, ordered=ordered)
        if condition == "source_dries_up_early":
            assert candidate.events_ingested == 200
        if condition == "shed_rung_active":
            assert candidate.overload.shed == reference.overload.shed > 0
        if condition == "fault_plan_ticks_the_spout":
            assert candidate.recovery.restarts == 1

    def test_the_source_is_columnar_exactly_when_nothing_watches_events(self):
        spec = app_engine("wc", "auto").spec
        step = TaskStep(spec, 10, vectorized="auto")
        assert step.columnar_sources
        step.shedder = Shedder("random", 0.5, 1)  # the shed rung, active
        assert not step.columnar_sources
        assert not TaskStep(spec, 10, vectorized="off").columnar_sources
        ticked = TaskStep(spec, 10, vectorized="auto", tick=lambda rt: None)
        assert not ticked.columnar_sources

    def test_emit_columns_accounts_like_emit(self):
        spec = app_engine("lr", "auto").spec
        spout = next(rt for rt in spec.tasks if rt.is_spout)

        def drive(columnar):
            step = TaskStep(spec, 100, vectorized="auto")
            deliveries = []
            if columnar:
                # Whole batches per draw: the chunks are the jumbo
                # tuples the scalar path seals.  36 left: dries up.
                deliveries += step.emit_columns(spout, 64)
                deliveries += step.emit_columns(spout, 64)
            else:
                while (values := step.draw(spout)) is not None:
                    deliveries += step.emit(spout, values)
            deliveries += step.flush_buffers(spout)
            rows = [
                (consumer, t.values, t.event_time_ns, t.source_task)
                for _, consumer, payload in deliveries
                for t in (
                    payload.to_tuples()
                    if isinstance(payload, ColumnBatch)
                    else payload.tuples
                )
            ]
            stats = step.stats[spout.task_id]
            return (
                rows,
                [len(payload) for _, _, payload in deliveries],
                (stats.tuples_out, stats.out_by_stream, stats.bytes_out_by_stream),
                dict(step.counters),
                step.spout_produced[spout.task_id],
                spout.task_id in step.exhausted,
            )

        assert drive(columnar=True) == drive(columnar=False)

    def test_rows_the_acceptance_rule_declines_go_scalar(self):
        class Ragged(Spout):
            def next_batch(self, max_tuples):
                for i in range(max_tuples):
                    yield ("k", i) if i % 2 else ("k", None)

        builder = TopologyBuilder("ragged")
        builder.set_spout("spout", Ragged())
        builder.add_sink("sink", Sink(keep_samples=100)).shuffle_from("spout")
        runs = [
            LocalEngine(builder.build(), vectorized=mode).run(40)
            for mode in ("off", "auto")
        ]
        assert_same_run(*runs)
        assert runs[1].sink_received() == 40


def kernel_inputs(app, monkeypatch):
    """The input batches every kernel of ``app`` took on an inline run,
    per task, in order (whole runs: up to 1 024 rows each)."""
    taken = {}
    run_columns = TaskStep.run_columns

    def spy(self, chain, position, batch):
        taken.setdefault(chain[position].task_id, []).append(batch)
        return run_columns(self, chain, position, batch)

    monkeypatch.setattr(TaskStep, "run_columns", spy)
    spec = app_engine(app, "auto", batch_size=BATCH).spec
    _InlineRun(spec, 2000, NULL_REGISTRY, vectorized="auto").execute()
    monkeypatch.undo()
    return spec, taken


def kernel_trace(spec, task_id, batches):
    """What a fresh instance of ``task_id`` emits for ``batches``, one
    kernel call each — rows and event times per stream — and the state
    it ends in."""
    rt = next(rt for rt in spec.tasks if rt.task_id == task_id)
    operator = instantiate_task(spec, rt)
    emitted = {}
    for batch in batches:
        for out in operator.process_columns(batch) or ():
            out.stamp_from(batch, task_id)
            emitted.setdefault(out.stream, []).extend(
                (t.values, t.event_time_ns) for t in out.to_tuples()
            )
    return emitted, operator.snapshot_state()


class TestKernelContract:
    """``kernel(A ++ B)`` is ``kernel(A)`` then ``kernel(B)``: what
    coalescing queued batches into one call rests on, for every
    ``process_columns`` the four applications run."""

    @pytest.mark.parametrize("app", APPS)
    def test_one_call_over_a_run_equals_a_call_per_batch(self, app, monkeypatch):
        spec, taken = kernel_inputs(app, monkeypatch)
        kernels = {
            rt.task_id
            for rt in spec.tasks
            if not rt.is_spout
            and spec.topology.component(rt.component).template.supports_columns()
        }
        assert set(taken) == kernels  # every kernel of the app ran
        for task_id, runs in taken.items():
            # A task fed enough rows must have taken a coalesced run; a
            # rare stream (LR's balance queries: ~10 rows) may not have.
            if sum(map(len, runs)) > 3 * BATCH:
                assert max(len(run) for run in runs) > 3 * BATCH, task_id
            pieces = [piece for run in runs for piece in run.chunks(BATCH)]
            merged = kernel_trace(spec, task_id, runs)
            apart = kernel_trace(spec, task_id, pieces)
            assert merged == apart, spec.tasks[task_id].component


# ---------------------------------------------------------------------------
# Gates shared by both executors
# ---------------------------------------------------------------------------
class _QuietKernel(_Pass):
    """A filter that drops everything may return ``None``, not ``()``."""

    def process(self, item):
        return ()

    def process_columns(self, batch):
        return None


class _ScalarSink(Sink):
    """Opts out of columnar intake by overriding ``process``."""

    def process(self, item):
        return super().process(item)


def small_topology(operator, sink):
    builder = TopologyBuilder("gates")
    builder.set_spout("spout", _Numbers())
    builder.add_operator("op", operator).shuffle_from("spout")
    builder.add_sink("sink", sink).shuffle_from("op")
    return builder.build()


def step_counters(registry):
    return {
        key.removeprefix("runtime.vectorized."): value
        for key, value in registry.snapshot()["counters"].items()
        if key.startswith("runtime.vectorized.")
    }


def inline_metrics(topology, vectorized="auto", **kwargs):
    engine = LocalEngine(topology, vectorized=vectorized, **kwargs)
    run = _InlineRun(engine.spec, 100, NULL_REGISTRY, vectorized=vectorized)
    return run.execute(), run.step.metrics


class TestSharedGates:
    def test_kernel_returning_none_emits_nothing(self):
        result, metrics = inline_metrics(small_topology(_QuietKernel(), Sink()))
        assert result.sink_received() == 0
        assert metrics["vectorized_batches"] > 0

    def test_inline_sink_takes_columns_but_never_transposes(self):
        # Kernel upstream: the sink counts through process_columns — the
        # 13 queued chunks of either hop coalesce into one kernel call.
        result, metrics = inline_metrics(
            small_topology(_Pass(), Sink()), batch_size=BATCH
        )
        assert result.sink_received() == 100
        assert metrics["vectorized_batches"] == 2  # op once, sink once
        assert metrics["vectorized_tuples"] == 200
        assert metrics["vectorized_fallbacks"] == 0

        # Scalar upstream: the sink's batches stay scalar and are not
        # "fallbacks" — no kernel would have won anything on them.
        class Plain(Operator):
            def process(self, item):
                yield DEFAULT_STREAM, item.values

        result, metrics = inline_metrics(small_topology(Plain(), Sink()))
        assert result.sink_received() == 100
        assert all(metrics[key] == 0 for key in STEP_COUNTERS)

    def test_process_overriding_sink_is_a_counted_fallback_on_both_backends(self):
        result, metrics = inline_metrics(small_topology(_Pass(), _ScalarSink()))
        assert result.sink_received() == 100
        assert metrics["vectorized_fallbacks"] > 0
        registry = MetricsRegistry()
        result = LocalEngine(
            small_topology(_Pass(), _ScalarSink()),
            backend=ProcessPoolBackend(n_workers=2, vectorized="auto"),
            registry=registry,
            queue_budget=4096,
        ).run(100)
        assert result.sink_received() == 100
        counters = step_counters(registry)
        assert counters["batches"] > 0 and counters["fallbacks"] > 0

    @pytest.mark.parametrize("backend", ("inline", "process"))
    def test_chain_hand_off_to_a_scalar_stage_bursts_once(self, backend):
        """kernel -> scalar-only operator inside one fused chain: the step
        addresses the batch to the member, the executor runs it scalar."""

        class Double(Operator):
            def process(self, item):
                yield DEFAULT_STREAM, (item.values[0], item.values[1] * 2)

        def build():
            builder = TopologyBuilder("handoff")
            builder.set_spout("spout", _Numbers())
            builder.add_operator("first", _Pass()).shuffle_from("spout")
            builder.add_operator("second", Double()).shuffle_from("first")
            builder.add_sink("sink", Sink(keep_samples=1000)).shuffle_from("second")
            return builder.build()

        reference = LocalEngine(build(), vectorized="off").run(100)
        if backend == "inline":
            spec = in_one_process(LocalEngine(build(), vectorized="auto").spec)
            assert spec.fusion == ((1, 2),)
            run = _InlineRun(spec, 100, NULL_REGISTRY, vectorized="auto")
            candidate, metrics = run.execute(), run.step.metrics
        else:
            # The chain's two ends share worker 0, the sink runs on 1.
            registry = MetricsRegistry()
            graph = LocalEngine(build()).graph
            candidate = LocalEngine.from_plan(
                ExecutionPlan(graph, {0: 0, 1: 0, 2: 0, 3: 1}),
                backend=ProcessPoolBackend(n_workers=2, vectorized="auto"),
                registry=registry,
            ).run(100)
            assert candidate.placement.chains == [(1, 2)]
            metrics = {
                key.removeprefix("runtime.").replace(".", "_", 1): value
                for key, value in registry.snapshot()["counters"].items()
            }
        assert_same_run(reference, candidate)
        assert metrics["fusion_fallbacks"] > 0
        assert metrics["fusion_composed_batches"] == 0
        assert metrics["vectorized_fallbacks"] == 0  # "second" has no kernel

    def test_off_mode_and_per_tuple_observers_disable_kernels(self):
        _, metrics = inline_metrics(small_topology(_Pass(), Sink()), "off")
        assert all(metrics[key] == 0 for key in STEP_COUNTERS)
        # A fault tick sees every tuple: capable tasks, no kernel.
        spec = LocalEngine(small_topology(_Pass(), Sink())).spec
        ticked = TaskStep(spec, 100, vectorized="auto", tick=lambda rt: None)
        assert ticked.capable and not ticked.kernels
