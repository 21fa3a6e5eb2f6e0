"""Unit tests for branch-and-bound placement (Algorithm 2)."""

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PerformanceModel,
    PlacementOptimizer,
    TfMode,
    bnb,
    collocated_plan,
)
from repro.core.bnb import packing_exists
from repro.dsps import ExecutionGraph
from repro.errors import PlanError

from tests.conftest import build_pipeline, pipeline_profiles


@pytest.fixture()
def model(tiny_machine):
    topology = build_pipeline()
    return PerformanceModel(pipeline_profiles(topology), tiny_machine)


@pytest.fixture()
def topology():
    return build_pipeline()


class TestSearch:
    def test_finds_feasible_plan(self, model, topology):
        graph = ExecutionGraph(topology, {n: 1 for n in topology.components})
        result = PlacementOptimizer(model, 1e6).optimize(graph)
        assert result.plan is not None
        assert result.plan.is_complete
        assert result.throughput > 0
        assert result.stats.solutions_found >= 1

    def test_light_load_collocates(self, model, topology):
        """At low rates everything fits locally, which is optimal (Tf=0)."""
        graph = ExecutionGraph(topology, {n: 1 for n in topology.components})
        result = PlacementOptimizer(model, 1e5).optimize(graph)
        assert len(result.plan.used_sockets()) == 1

    def test_matches_collocated_value_when_local_fits(self, model, topology):
        graph = ExecutionGraph(topology, {n: 1 for n in topology.components})
        result = PlacementOptimizer(model, 1e5).optimize(graph)
        reference = model.evaluate(collocated_plan(graph), 1e5).throughput
        assert result.throughput >= reference * (1 - 1e-9)

    def test_spreads_when_one_socket_is_too_small(self, model, topology, tiny_machine):
        # 3 replicas each = 12 replicas > 4 cores per socket.
        graph = ExecutionGraph(topology, {n: 3 for n in topology.components})
        result = PlacementOptimizer(model, 1e7).optimize(graph)
        assert result.plan is not None
        assert len(result.plan.used_sockets()) >= 3
        for socket in result.plan.used_sockets():
            assert result.plan.replicas_on(socket) <= tiny_machine.cores_per_socket

    def test_infeasible_when_replicas_exceed_cores(self, model, topology):
        graph = ExecutionGraph(topology, {n: 5 for n in topology.components})
        result = PlacementOptimizer(model, 1e6).optimize(graph)
        assert result.plan is None
        assert not result.feasible
        assert result.throughput == 0.0

    def test_initial_plan_seeds_incumbent(self, model, topology):
        graph = ExecutionGraph(topology, {n: 1 for n in topology.components})
        seed = collocated_plan(graph)
        result = PlacementOptimizer(model, 1e5).optimize(graph, initial_plan=seed)
        assert result.throughput >= model.evaluate(seed, 1e5).throughput * (1 - 1e-9)

    def test_respects_node_budget(self, model, topology):
        graph = ExecutionGraph(topology, {n: 2 for n in topology.components})
        result = PlacementOptimizer(model, 1e7, max_nodes=3).optimize(graph)
        assert result.stats.nodes_expanded <= 3

    def test_branch_width_one_is_greedy(self, model, topology):
        graph = ExecutionGraph(topology, {n: 2 for n in topology.components})
        result = PlacementOptimizer(model, 1e7, branch_width=1).optimize(graph)
        assert result.plan is not None
        # Greedy: one child per expansion.
        assert result.stats.children_generated <= result.stats.nodes_expanded + 1

    def test_wider_search_never_worse(self, model, topology):
        graph = ExecutionGraph(topology, {n: 2 for n in topology.components})
        narrow = PlacementOptimizer(model, 1e7, branch_width=1).optimize(graph)
        wide = PlacementOptimizer(model, 1e7, branch_width=4).optimize(graph)
        assert wide.throughput >= narrow.throughput * (1 - 1e-9)

    def test_invalid_parameters(self, model):
        with pytest.raises(PlanError):
            PlacementOptimizer(model, 0.0)
        with pytest.raises(PlanError):
            PlacementOptimizer(model, 1e6, branch_width=0)

    def test_bottlenecks_reported(self, model, topology):
        graph = ExecutionGraph(topology, {n: 1 for n in topology.components})
        result = PlacementOptimizer(model, 1e12).optimize(graph)
        assert result.bottlenecks  # everything is over-fed at infinite input

    def test_compressed_graph_supported(self, model, topology):
        graph = ExecutionGraph(
            topology, {"spout": 1, "stage": 1, "fan": 4, "sink": 1}, group_size=2
        )
        result = PlacementOptimizer(model, 1e7).optimize(graph)
        assert result.plan is not None


class TestNumaAwareness:
    def test_prefers_fewer_hops(self, model, topology, tiny_machine):
        """When forced off-socket, the plan should stay within the tray."""
        graph = ExecutionGraph(topology, {n: 2 for n in topology.components})
        result = PlacementOptimizer(model, 1e7).optimize(graph)
        used = sorted(result.plan.used_sockets())
        # tiny machine trays are (0,1) and (2,3): an in-tray plan exists
        # for 8 replicas, so the search should not span trays.
        trays = {tiny_machine.topology.tray_of(s) for s in used}
        assert len(trays) == 1

    def test_zero_tf_mode_yields_equal_or_higher_estimate(
        self, topology, tiny_machine
    ):
        profiles = pipeline_profiles(topology)
        graph = ExecutionGraph(topology, {n: 2 for n in topology.components})
        relative = PlacementOptimizer(
            PerformanceModel(profiles, tiny_machine, tf_mode=TfMode.RELATIVE), 1e7
        ).optimize(graph)
        zero = PlacementOptimizer(
            PerformanceModel(profiles, tiny_machine, tf_mode=TfMode.ZERO), 1e7
        ).optimize(graph)
        assert zero.throughput >= relative.throughput * (1 - 1e-9)


def _counter_tuple(stats):
    return (
        stats.nodes_expanded,
        stats.nodes_pruned,
        stats.nodes_deduplicated,
        stats.children_generated,
        stats.evaluations,
        stats.solutions_found,
        stats.best_fit_commits,
    )


class TestIncrementalParity:
    """The incremental probe path must be bit-identical to the legacy
    batch-evaluation path: same plans, same throughput, same search tree."""

    @pytest.mark.parametrize("replication", [1, 2, 3])
    @pytest.mark.parametrize("rate", [1e5, 1e7])
    def test_plans_and_stats_match_legacy(self, model, topology, replication, rate):
        graph = ExecutionGraph(
            topology, {n: replication for n in topology.components}
        )
        legacy = PlacementOptimizer(model, rate, use_incremental=False).optimize(
            graph
        )
        fast = PlacementOptimizer(model, rate, use_incremental=True).optimize(
            graph
        )
        if legacy.plan is None:
            assert fast.plan is None
        else:
            assert fast.plan.placement == legacy.plan.placement
        assert fast.throughput == legacy.throughput
        assert _counter_tuple(fast.stats) == _counter_tuple(legacy.stats)

    def test_incremental_counters_populated(self, model, topology):
        graph = ExecutionGraph(topology, {n: 2 for n in topology.components})
        result = PlacementOptimizer(model, 1e7).optimize(graph)
        assert result.stats.cache_hits >= 0
        assert result.stats.incremental_evals > 0
        # legacy path never touches the evaluator counters
        legacy = PlacementOptimizer(model, 1e7, use_incremental=False).optimize(
            graph
        )
        assert legacy.stats.incremental_evals == 0
        assert legacy.stats.full_evals == 0

    def test_stats_publish_new_metric_names(self, model, topology):
        from repro.metrics import MetricsRegistry

        graph = ExecutionGraph(topology, {n: 1 for n in topology.components})
        result = PlacementOptimizer(model, 1e6).optimize(graph)
        registry = MetricsRegistry()
        result.stats.publish(registry)
        names = set(registry.names())
        assert "rlas.bnb.cache_hits" in names
        assert "rlas.model.incremental_evals" in names
        assert "rlas.model.full_evals" in names


class TestDeterministicTieBreak:
    def test_repeated_searches_are_identical(self, model, topology):
        graph = ExecutionGraph(topology, {n: 2 for n in topology.components})
        first = PlacementOptimizer(model, 1e7).optimize(graph)
        second = PlacementOptimizer(model, 1e7).optimize(graph)
        assert first.plan.placement == second.plan.placement
        assert _counter_tuple(first.stats) == _counter_tuple(second.stats)

    def test_symmetric_machine_uses_lowest_socket(self, model, topology):
        """All sockets look identical to the first task: candidate
        deduplication plus the (rate, collocation, remaining-cpu,
        socket-id) ranking must deterministically pick socket 0."""
        graph = ExecutionGraph(topology, {n: 1 for n in topology.components})
        result = PlacementOptimizer(model, 1e5).optimize(graph)
        assert result.plan.used_sockets() == {0}

    def test_spread_plan_prefers_low_socket_ids(self, model, topology, tiny_machine):
        """When forced off-socket on a symmetric machine, equivalent
        sockets must be chosen in ascending id order (satellite: stable
        best-fit ranking)."""
        graph = ExecutionGraph(topology, {n: 3 for n in topology.components})
        result = PlacementOptimizer(model, 1e7).optimize(graph)
        used = sorted(result.plan.used_sockets())
        # low ids first: using socket k implies sockets of strictly lower
        # id within the same tray are used too
        tray0 = [s for s in used if tiny_machine.topology.tray_of(s) == 0]
        if tray0:
            assert tray0 == list(range(len(tray0)))


def _brute_force_packs(weights, bins, capacity):
    """Whether some assignment of ``weights`` to bins respects capacity."""
    return any(
        all(
            sum(w for w, b in zip(weights, assignment) if b == k) <= capacity
            for k in range(bins)
        )
        for assignment in itertools.product(range(bins), repeat=len(weights))
    )


def _wc_search(replication, **optimizer):
    """The WC graph of one scaling step at 4 sockets, and its search."""
    from repro.apps import load_application
    from repro.core.scaling import saturation_ingress
    from repro.hardware import server_a

    topology, profiles = load_application("wc")
    model = PerformanceModel(profiles, server_a(4))
    rate = saturation_ingress(topology, model)
    graph = ExecutionGraph(topology, replication, group_size=5)
    return PlacementOptimizer(model, rate, **optimizer).optimize(graph)


#: The four WC replications whose groups of 5 cannot tile 4 x 18 cores:
#: the compressed searches of the benchmark's WC plan that find nothing.
_UNPACKABLE_WC = (
    {"spout": 3, "parser": 2, "splitter": 16, "counter": 37, "sink": 14},
    {"spout": 2, "parser": 4, "splitter": 9, "counter": 33, "sink": 24},
    {"spout": 2, "parser": 3, "splitter": 8, "counter": 34, "sink": 25},
    {"spout": 2, "parser": 2, "splitter": 7, "counter": 35, "sink": 26},
)


class TestPackingProof:
    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 6), max_size=7),
        bins=st.integers(2, 3),
        capacity=st.integers(1, 8),
    )
    def test_matches_brute_force(self, weights, bins, capacity):
        expected = _brute_force_packs(weights, bins, capacity)
        assert packing_exists(weights, bins, capacity) is expected
        # A capped search may give up, but never answers wrongly.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bnb, "PACKING_STEP_CAP", 2)
            assert packing_exists(weights, bins, capacity) in (expected, None)

    def test_exact_search_packs_what_first_fit_decreasing_misses(self, monkeypatch):
        # FFD: 3+3 | 2+2+2 | and the last 2 fits nowhere; 3+2+2 twice fits.
        assert packing_exists([3, 3, 2, 2, 2, 2], 2, 7) is True
        monkeypatch.setattr(bnb, "PACKING_STEP_CAP", 0)
        assert packing_exists([3, 3, 2, 2, 2, 2], 2, 7) is None

    def test_a_graph_first_fit_decreasing_misses_is_searched(
        self, model, topology, tiny_machine
    ):
        graph = ExecutionGraph(
            topology,
            {"spout": 1, "stage": 4, "fan": 10, "sink": 12},
            group_size={"spout": 1, "stage": 2, "fan": 2, "sink": 3},
        )
        weights = sorted((t.weight for t in graph.tasks), reverse=True)
        assert weights == [3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 1]
        machine = replace(tiny_machine, cores_per_socket=7)
        result = PlacementOptimizer(
            PerformanceModel(model.profiles, machine), 1e5
        ).optimize(graph)
        assert result.stats.packing_proofs == 0
        assert result.stats.nodes_expanded > 0

    @pytest.mark.parametrize("replication", _UNPACKABLE_WC, ids=str)
    def test_unpackable_wc_graphs_cost_no_search(self, replication, monkeypatch):
        proven = _wc_search(replication)
        assert proven.stats.packing_proofs == 1
        assert proven.stats.nodes_expanded == 0
        assert proven.stats.evaluations == 0
        monkeypatch.setattr(bnb, "packing_exists", lambda *args: None)
        searched = _wc_search(replication)
        assert searched.stats.packing_proofs == 0
        assert searched.stats.nodes_expanded == 256  # the no-solution budget
        for result in (proven, searched):
            assert result.plan is None and result.model_result is None
            assert not result.feasible and result.throughput == 0.0

    def test_step_cap_overflow_falls_back_to_the_search(self, monkeypatch):
        monkeypatch.setattr(bnb, "PACKING_STEP_CAP", 0)
        result = _wc_search(_UNPACKABLE_WC[0])
        assert result.stats.packing_proofs == 0
        assert result.stats.nodes_expanded == 256
        assert result.plan is None and not result.feasible
