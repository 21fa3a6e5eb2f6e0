"""Tests for the unified lowering (repro.runtime.lowering)."""

import pickle

import pytest

from repro.apps import build_wordcount
from repro.core.plan import collocated_plan, empty_plan
from repro.dsps.graph import ExecutionGraph
from repro.errors import PlanError
from repro.runtime import (
    DEFAULT_QUEUE_BUDGET,
    RuntimeSpec,
    instantiate_tasks,
    lower_graph,
    lower_plan,
)

REPLICATION = {"spout": 1, "parser": 2, "splitter": 2, "counter": 3, "sink": 1}


@pytest.fixture()
def topology():
    return build_wordcount()


@pytest.fixture()
def graph(topology):
    return ExecutionGraph(topology, REPLICATION, group_size=1)


class TestLowerGraph:
    def test_tasks_cover_graph_in_topological_order(self, topology, graph):
        spec = lower_graph(topology, graph)
        assert [rt.task_id for rt in spec.tasks] == [
            t.task_id for t in graph.topological_task_order()
        ]
        assert len(spec.edges) == len(graph.edges)

    def test_spout_and_sink_flags(self, topology, graph):
        spec = lower_graph(topology, graph)
        assert [rt.component for rt in spec.spout_tasks] == ["spout"]
        assert all(rt.component == "sink" for rt in spec.sink_tasks)

    def test_unbounded_by_default(self, topology, graph):
        spec = lower_graph(topology, graph)
        assert not spec.bounded
        assert all(c is None for c in spec.queue_capacity.values())

    def test_uniform_capacity(self, topology, graph):
        spec = lower_graph(topology, graph, queue_capacity=128)
        assert spec.bounded
        assert set(spec.queue_capacity.values()) == {128}

    def test_budget_split_over_in_edges(self, topology, graph):
        spec = lower_graph(topology, graph, batch_size=64, queue_budget=512)
        for edge in graph.edges:
            n_in = len(graph.incoming(edge.consumer))
            expected = max(64, 512 // n_in)
            assert spec.queue_capacity[(edge.producer, edge.consumer)] == expected

    def test_budget_floors_at_batch_size(self, topology):
        # Many producers into one counter replica: the even split would drop
        # below one batch, so the floor must kick in.
        graph = ExecutionGraph(
            topology,
            {"spout": 1, "parser": 1, "splitter": 8, "counter": 1, "sink": 1},
            group_size=1,
        )
        spec = lower_graph(topology, graph, batch_size=64, queue_budget=128)
        counter_task = graph.tasks_of("counter")[0].task_id
        for edge in graph.incoming(counter_task):
            assert spec.queue_capacity[(edge.producer, edge.consumer)] == 64

    def test_capacity_and_budget_are_exclusive(self, topology, graph):
        with pytest.raises(PlanError):
            lower_graph(topology, graph, queue_capacity=128, queue_budget=512)

    def test_capacity_below_batch_rejected(self, topology, graph):
        with pytest.raises(PlanError):
            lower_graph(topology, graph, batch_size=64, queue_capacity=32)
        with pytest.raises(PlanError):
            lower_graph(topology, graph, batch_size=64, queue_budget=32)

    def test_foreign_graph_rejected(self, topology, graph):
        with pytest.raises(PlanError):
            lower_graph(build_wordcount(), graph)

    def test_routes_follow_topology_edge_order(self, topology, graph):
        spec = lower_graph(topology, graph)
        for rt in spec.tasks:
            expected = [
                (e.stream, tuple(t.task_id for t in graph.tasks_of(e.consumer)))
                for e in topology.outgoing(rt.component)
            ]
            assert [(r.stream, r.consumers) for r in rt.routes] == expected

    def test_route_modes(self, topology, graph):
        spec = lower_graph(topology, graph)
        modes = {
            (rt.component, route.stream): route.mode
            for rt in spec.tasks
            for route in rt.routes
        }
        # WC uses shuffle and fields groupings only -> everything unicast.
        assert set(modes.values()) == {"pick"}

    def test_counter_key_is_built_once(self, topology, graph):
        spec = lower_graph(topology, graph)
        for rt in spec.tasks:
            for route in rt.routes:
                # The key checkpoints and route counters are stored under.
                assert route.counter_key == f"{route.stream}->{route.consumers}"
                assert route.counter_key is route.counter_key
                copy = pickle.loads(pickle.dumps(route))
                assert copy.counter_key == route.counter_key


class TestLowerPlan:
    def test_requires_complete_plan(self, graph):
        with pytest.raises(PlanError):
            lower_plan(empty_plan(graph))

    def test_placement_reaches_tasks(self, graph):
        plan = collocated_plan(graph, socket=2)
        spec = lower_plan(plan)
        assert {rt.socket for rt in spec.tasks} == {2}
        assert spec.socket_groups() == {2: [rt.task_id for rt in spec.tasks]}

    def test_bounded_by_default_budget(self, graph):
        spec = lower_plan(collocated_plan(graph))
        assert spec.bounded
        for edge in graph.edges:
            n_in = len(graph.incoming(edge.consumer))
            assert spec.queue_capacity[(edge.producer, edge.consumer)] == max(
                64, DEFAULT_QUEUE_BUDGET // n_in
            )

    def test_uniform_capacity_overrides_budget(self, graph):
        spec = lower_plan(collocated_plan(graph), queue_capacity=256)
        assert set(spec.queue_capacity.values()) == {256}

    def test_plan_socket_groups_helper(self, graph):
        plan = collocated_plan(graph, socket=1)
        groups = plan.socket_groups()
        assert list(groups) == [1]
        assert groups[1] == sorted(t.task_id for t in graph.tasks)


class TestInstantiate:
    def test_one_prepared_instance_per_task(self, topology, graph):
        spec = lower_graph(topology, graph)
        instances = instantiate_tasks(spec)
        assert set(instances) == {t.task_id for t in graph.tasks}
        # Instances are clones: the same component's replicas are distinct
        # objects and none of them is the topology's template.
        counters = [
            instances[t.task_id] for t in graph.tasks_of("counter")
        ]
        assert len({id(c) for c in counters}) == len(counters)
        template = topology.component("counter").template
        assert all(c is not template for c in counters)

    def test_describe_mentions_every_task(self, topology, graph):
        spec = lower_graph(topology, graph, queue_capacity=128)
        text = spec.describe()
        assert f"{len(spec.tasks)} tasks" in text
        assert f"{len(spec.edges)} queues" in text
        assert isinstance(spec, RuntimeSpec)
