"""Integration tests for the RLAS facade (on the small test machine)."""

import pytest

from repro.core import (
    PerformanceModel,
    RLASOptimizer,
    TfMode,
    rlas_fix_lower,
    rlas_fix_upper,
)
from repro.core.scaling import saturation_ingress

from tests.conftest import build_pipeline, pipeline_profiles


@pytest.fixture(scope="module")
def optimized(tiny_machine_module):
    topology = build_pipeline()
    profiles = pipeline_profiles(topology)
    machine = tiny_machine_module
    rate = saturation_ingress(topology, PerformanceModel(profiles, machine))
    plan = RLASOptimizer(
        topology, profiles, machine, rate, compress_ratio=2
    ).optimize()
    return topology, profiles, machine, rate, plan


@pytest.fixture(scope="session")
def tiny_machine_module():
    from repro.hardware import GB, MachineSpec, glueless_two_tray

    return MachineSpec(
        name="tiny (4x4)",
        topology=glueless_two_tray(4),
        cores_per_socket=4,
        freq_ghz=2.0,
        local_latency_ns=50.0,
        hop_latency_ns={1: 200.0, 2: 400.0},
        local_bandwidth=20.0 * GB,
        hop_bandwidth={1: 8.0 * GB, 2: 4.0 * GB},
    )


class TestOptimizedPlan:
    def test_plan_is_complete_and_valid(self, optimized):
        topology, profiles, machine, rate, plan = optimized
        plan.expanded_plan.validate_complete(machine)
        assert plan.throughput > 0
        assert plan.realized_throughput == pytest.approx(plan.throughput)

    def test_expanded_matches_replication(self, optimized):
        _, _, _, _, plan = optimized
        assert plan.expanded_plan.graph.total_replicas == plan.total_replicas
        assert all(t.weight == 1 for t in plan.expanded_plan.graph.tasks)

    def test_beats_trivial_plan(self, optimized, tiny_machine_module):
        topology, profiles, machine, rate, plan = optimized
        from repro.core import collocated_plan
        from repro.dsps import ExecutionGraph

        model = PerformanceModel(profiles, machine)
        trivial = collocated_plan(
            ExecutionGraph(topology, {n: 1 for n in topology.components})
        )
        assert plan.throughput > model.evaluate(trivial, rate).throughput

    def test_describe_is_readable(self, optimized):
        _, _, _, _, plan = optimized
        text = plan.describe()
        assert "replication" in text
        assert "throughput" in text


class TestFixedModes:
    def test_fix_modes_plan_and_realize(self, tiny_machine_module):
        topology = build_pipeline()
        profiles = pipeline_profiles(topology)
        machine = tiny_machine_module
        rate = saturation_ingress(topology, PerformanceModel(profiles, machine))
        lower = rlas_fix_lower(
            topology, profiles, machine, rate, compress_ratio=2
        )
        upper = rlas_fix_upper(
            topology, profiles, machine, rate, compress_ratio=2
        )
        assert lower.planning_mode is TfMode.WORST
        assert upper.planning_mode is TfMode.ZERO
        # fix(L) under-estimates capacity during planning; fix(U) ignores
        # RMA; both realize under the relative model.
        assert lower.realized_throughput > 0
        assert upper.realized_throughput > 0

    def test_rlas_realizes_at_least_fix_lower(self, tiny_machine_module):
        topology = build_pipeline()
        profiles = pipeline_profiles(topology)
        machine = tiny_machine_module
        rate = saturation_ingress(topology, PerformanceModel(profiles, machine))
        rlas = RLASOptimizer(
            topology, profiles, machine, rate, compress_ratio=2
        ).optimize()
        lower = rlas_fix_lower(topology, profiles, machine, rate, compress_ratio=2)
        assert rlas.realized_throughput >= lower.realized_throughput * 0.9


#: The two plans ``benchmarks/perf`` times as ``rlas_plan``: throughput to
#: the last bit, replication, the final placement (socket of each task of
#: the compressed plan, by task id), and what the search and the
#: refinement did to get there.  A change to any of these is a change of
#: algorithm, not of speed, and only the traced benchmark would otherwise
#: notice.
_PINNED = {
    "wc": (
        39115338.164251216,
        {"spout": 2, "parser": 2, "splitter": 7, "counter": 35, "sink": 26},
        "0000000003321111112223301222221133333",
        {
            "rlas.bnb.searches": 8,
            "rlas.bnb.packing_proofs": 1,
            "rlas.bnb.nodes_expanded": 1368,
            "rlas.bnb.nodes_pruned": 476,
            "rlas.bnb.nodes_deduplicated": 491,
            "rlas.bnb.children_generated": 1406,
            "rlas.bnb.plans_evaluated": 2925,
            "rlas.bnb.solutions_found": 27,
            "rlas.bnb.cache_hits": 491,
            "rlas.scaling.iterations": 8,
            "rlas.scaling.graph_builds": 15,
            "rlas.refine.runs": 12,
            "rlas.refine.moves_accepted": 0,
            "rlas.refine.swaps_accepted": 5,
        },
        {
            "rlas.model.incremental_evals": 3677,
            "rlas.model.full_evals": 152,
            "rlas.refine.evaluations": 649,
        },
    ),
    "lr": (
        3214665.149840727,
        {
            "spout": 1,
            "parser": 1,
            "dispatcher": 1,
            "avg_speed": 10,
            "las_avg_speed": 3,
            "accident_detect": 5,
            "count_vehicles": 11,
            "accident_notify": 4,
            "toll_notify": 32,
            "daily_expenditure": 1,
            "account_balance": 1,
            "sink": 2,
        },
        "0000001131112222111222222222222223333333333333333",
        {
            "rlas.bnb.searches": 6,
            "rlas.bnb.packing_proofs": 0,
            "rlas.bnb.nodes_expanded": 2058,
            "rlas.bnb.nodes_pruned": 314,
            "rlas.bnb.nodes_deduplicated": 1576,
            "rlas.bnb.children_generated": 2133,
            "rlas.bnb.plans_evaluated": 4563,
            "rlas.bnb.solutions_found": 15,
            "rlas.bnb.cache_hits": 1576,
            "rlas.scaling.iterations": 6,
            "rlas.scaling.graph_builds": 9,
            "rlas.refine.runs": 10,
            "rlas.refine.moves_accepted": 7,
            "rlas.refine.swaps_accepted": 5,
        },
        {
            "rlas.model.incremental_evals": 4975,
            "rlas.model.full_evals": 85,
            "rlas.refine.evaluations": 679,
        },
    ),
}


@pytest.mark.parametrize("app", sorted(_PINNED))
def test_benchmark_plan_and_search_tree_are_pinned(app):
    from repro.apps import load_application
    from repro.hardware import server_a
    from repro.metrics import MetricsRegistry

    throughput, replication, sockets, tree, ceilings = _PINNED[app]
    topology, profiles = load_application(app)
    machine = server_a(4)
    rate = saturation_ingress(topology, PerformanceModel(profiles, machine))
    registry = MetricsRegistry()
    plan = RLASOptimizer(
        topology, profiles, machine, rate, max_iterations=32, registry=registry
    ).optimize()
    assert plan.realized_throughput == throughput
    assert plan.throughput == throughput
    assert plan.replication == replication
    placement = plan.plan.placement
    assert "".join(str(placement[i]) for i in range(len(placement))) == sockets
    snapshot = registry.snapshot()
    counters = snapshot["counters"]
    assert {name: counters[name] for name in tree} == tree
    # What the search and the refinement ask of the evaluator may fall,
    # never rise; the refinement answers some candidates without it.
    for name, ceiling in ceilings.items():
        assert 0 < counters[name] <= ceiling
    assert counters["rlas.refine.skipped_twins"] > 0
    assert counters["rlas.refine.skipped_repeats"] > 0
    # Where the time went is on record: one observation per refinement.
    assert snapshot["histograms"]["rlas.refine.runtime_s"]["count"] == tree[
        "rlas.refine.runs"
    ]
    assert snapshot["gauges"]["rlas.scaling.rebalance_s"] > 0
