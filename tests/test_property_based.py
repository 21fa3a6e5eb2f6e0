"""Property-based tests (hypothesis) for core invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PerformanceModel, collocated_plan
from repro.core.plan import ExecutionPlan
from repro.dsps import ExecutionGraph, JumboTuple, OutputBuffer, StreamTuple
from repro.dsps.queues import CommunicationQueue
from repro.dsps.streams import FieldsGrouping, ShuffleGrouping
from repro.hardware import GB, MachineSpec, glueless_two_tray

from tests.conftest import build_pipeline, pipeline_profiles

TOPOLOGY = build_pipeline()
PROFILES = pipeline_profiles(TOPOLOGY)
MACHINE = MachineSpec(
    name="prop (4x4)",
    topology=glueless_two_tray(4),
    cores_per_socket=4,
    freq_ghz=2.0,
    local_latency_ns=50.0,
    hop_latency_ns={1: 200.0, 2: 400.0},
    local_bandwidth=20.0 * GB,
    hop_bandwidth={1: 8.0 * GB, 2: 4.0 * GB},
)
MODEL = PerformanceModel(PROFILES, MACHINE)

replication_strategy = st.fixed_dictionaries(
    {
        "spout": st.integers(1, 4),
        "stage": st.integers(1, 4),
        "fan": st.integers(1, 6),
        "sink": st.integers(1, 4),
    }
)


class TestGraphInvariants:
    @given(replication=replication_strategy)
    @settings(max_examples=40, deadline=None)
    def test_unicast_shares_sum_to_one(self, replication):
        graph = ExecutionGraph(TOPOLOGY, replication)
        for task in graph.tasks:
            outgoing = graph.outgoing(task.task_id)
            if outgoing:
                assert math.isclose(sum(e.share for e in outgoing), 1.0)

    @given(replication=replication_strategy, ratio=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_compression_preserves_replicas(self, replication, ratio):
        fine = ExecutionGraph(TOPOLOGY, replication)
        coarse = ExecutionGraph(TOPOLOGY, replication, group_size=ratio)
        assert fine.total_replicas == coarse.total_replicas
        assert coarse.n_tasks <= fine.n_tasks

    @given(replication=replication_strategy, ratio=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_replica_assignment_covers_everything(self, replication, ratio):
        graph = ExecutionGraph(TOPOLOGY, replication, group_size=ratio)
        placement = {t.task_id: t.task_id % 4 for t in graph.tasks}
        assignment = graph.replica_assignment(placement)
        assert len(assignment) == graph.total_replicas


class TestModelInvariants:
    @given(replication=replication_strategy, rate=st.floats(1.0, 1e9))
    @settings(max_examples=40, deadline=None)
    def test_processed_never_exceeds_input_or_capacity(self, replication, rate):
        graph = ExecutionGraph(TOPOLOGY, replication)
        result = MODEL.evaluate(collocated_plan(graph), rate)
        for rates in result.rates.values():
            assert rates.processed_rate <= rates.input_rate * (1 + 1e-9)
            assert rates.processed_rate <= rates.capacity * (1 + 1e-9)

    @given(rate=st.floats(1.0, 1e8))
    @settings(max_examples=30, deadline=None)
    def test_throughput_monotone_in_ingress(self, rate):
        graph = ExecutionGraph(TOPOLOGY, {n: 1 for n in TOPOLOGY.components})
        plan = collocated_plan(graph)
        low = MODEL.evaluate(plan, rate).throughput
        high = MODEL.evaluate(plan, rate * 2).throughput
        assert high >= low * (1 - 1e-9)

    @given(
        replication=replication_strategy,
        sockets=st.lists(st.integers(0, 3), min_size=16, max_size=16),
        rate=st.floats(1e3, 1e9),
    )
    @settings(max_examples=40, deadline=None)
    def test_bounding_dominates_complete_value(self, replication, sockets, rate):
        """The B&B bound (Tf=0 relaxation) upper-bounds any placement."""
        graph = ExecutionGraph(TOPOLOGY, replication)
        placement = {
            t.task_id: sockets[i % len(sockets)]
            for i, t in enumerate(graph.tasks)
        }
        plan = ExecutionPlan(graph=graph, placement=placement)
        exact = MODEL.evaluate(plan, rate).throughput
        from repro.core.plan import empty_plan

        bound = MODEL.evaluate(empty_plan(graph), rate, bounding=True).throughput
        assert exact <= bound * (1 + 1e-9)

    @given(
        replication=replication_strategy,
        sockets=st.lists(st.integers(0, 3), min_size=16, max_size=16),
    )
    @settings(max_examples=30, deadline=None)
    def test_flow_conservation_at_sinks(self, replication, sockets):
        """Sink input rate == fan output reaching it (no tuples invented)."""
        graph = ExecutionGraph(TOPOLOGY, replication)
        placement = {
            t.task_id: sockets[i % len(sockets)]
            for i, t in enumerate(graph.tasks)
        }
        result = MODEL.evaluate(
            ExecutionPlan(graph=graph, placement=placement), 1e5
        )
        fan_out = sum(
            r.output_rate for r in result.rates.values() if r.component == "fan"
        )
        sink_in = sum(
            r.input_rate for r in result.rates.values() if r.component == "sink"
        )
        assert math.isclose(fan_out, sink_in, rel_tol=1e-9)


class TestGroupingProperties:
    @given(
        keys=st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=50),
        n_consumers=st.integers(1, 16),
    )
    @settings(max_examples=50, deadline=None)
    def test_fields_grouping_stable(self, keys, n_consumers):
        grouping = FieldsGrouping(0)
        for key in keys:
            item = StreamTuple(values=(key,))
            first = grouping.route(item, n_consumers, 0)
            again = grouping.route(item, n_consumers, 99)
            assert first == again
            assert 0 <= first[0] < n_consumers

    @given(n_consumers=st.integers(1, 12), count=st.integers(1, 200))
    @settings(max_examples=30, deadline=None)
    def test_shuffle_is_balanced(self, n_consumers, count):
        grouping = ShuffleGrouping()
        targets = [
            grouping.route(StreamTuple(values=(i,)), n_consumers, i)[0]
            for i in range(count)
        ]
        counts = [targets.count(c) for c in range(n_consumers)]
        assert max(counts) - min(counts) <= 1


class TestQueueProperties:
    @given(
        batch_size=st.integers(1, 32),
        n_tuples=st.integers(0, 200),
    )
    @settings(max_examples=50, deadline=None)
    def test_buffer_plus_flush_loses_nothing(self, batch_size, n_tuples):
        buffer = OutputBuffer(0, 1, batch_size=batch_size)
        queue = CommunicationQueue(0, 1)
        for i in range(n_tuples):
            sealed = buffer.append(StreamTuple(values=(i,)))
            if sealed is not None:
                queue.put(sealed)
        sealed = buffer.flush()
        if sealed is not None:
            queue.put(sealed)
        drained = [t for payload in queue.drain() for t in payload]
        assert [t.values[0] for t in drained] == list(range(n_tuples))

    @given(sizes=st.lists(st.integers(1, 20), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_bounded_queue_never_overflows(self, sizes):
        capacity = 25
        queue = CommunicationQueue(0, 1, capacity_tuples=capacity)
        for index, size in enumerate(sizes):
            batch = JumboTuple(
                source_task=0,
                target_task=1,
                tuples=[StreamTuple(values=(index, i)) for i in range(size)],
            )
            queue.offer(batch)
            assert queue.depth_tuples <= capacity
