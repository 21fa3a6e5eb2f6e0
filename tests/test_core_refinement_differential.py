"""Differential tests: evaluator-driven ``refine_plan`` vs the pass it replaced.

``reference_refine_plan`` is the previous implementation, verbatim: a fresh
``ExecutionPlan``, a batch ``PerformanceModel.evaluate`` and a full
``resource_report`` per candidate.  The production pass scores the same
candidates in the same order on one ``IncrementalEvaluator``, skipping
those whose rejection is known, so placement, every ``ModelResult`` field
and every statistic but the evaluation count must be equal — not close.
"""

from __future__ import annotations

import random
from dataclasses import replace
from functools import lru_cache

import pytest

from repro.apps import load_application
from repro.core import PerformanceModel, TfMode
from repro.core.bnb import PlacementOptimizer
from repro.core.constraints import resource_report
from repro.core.plan import ExecutionPlan, collocated_plan
from repro.core.refinement import RefinementStats, refine_plan
from repro.core.scaling import saturation_ingress
from repro.dsps import ExecutionGraph
from repro.errors import PlanError
from repro.hardware import server_a

APPS = ("wc", "lr", "fd", "sd")
MACHINES = ("tiny", "a2", "a4")


def reference_refine_plan(plan, model, ingress_rate, max_passes=4, top_k=24):
    """The full-evaluate refinement this PR's evaluator pass replaced."""
    if not plan.is_complete:
        raise PlanError("refinement needs a complete plan")
    machine = model.machine
    stats = RefinementStats()

    def evaluate(candidate):
        stats.evaluations += 1
        result = model.evaluate(candidate, ingress_rate)
        report = resource_report(candidate, result, machine, model.profiles)
        return result, report.is_feasible

    best_plan = plan
    best_result, feasible = evaluate(plan)
    if not feasible:
        # Refinement never starts from an infeasible plan; return as-is.
        stats.initial_throughput = stats.final_throughput = best_result.throughput
        return best_plan, best_result, stats
    stats.initial_throughput = best_result.throughput

    for _ in range(max_passes):
        stats.passes += 1
        improved = False
        hot_tasks = sorted(
            best_result.rates.values(), key=lambda r: r.tf_ns, reverse=True
        )[:top_k]
        hot_ids = [r.task_id for r in hot_tasks if r.tf_ns > 0]
        if not hot_ids:
            break

        for task_id in hot_ids:
            current_socket = best_plan.placement[task_id]
            # Move the task to each other socket.
            for socket in machine.sockets:
                if socket == current_socket:
                    continue
                candidate = _with_move(best_plan, {task_id: socket})
                result, ok = evaluate(candidate)
                if ok and result.throughput > best_result.throughput * (1 + 1e-9):
                    best_plan, best_result = candidate, result
                    stats.moves_accepted += 1
                    improved = True
                    break
            else:
                # Move found nothing: try swapping with a task elsewhere.
                for other_id in hot_ids:
                    other_socket = best_plan.placement[other_id]
                    if other_id == task_id or other_socket == current_socket:
                        continue
                    candidate = _with_move(
                        best_plan,
                        {task_id: other_socket, other_id: current_socket},
                    )
                    result, ok = evaluate(candidate)
                    if ok and result.throughput > best_result.throughput * (1 + 1e-9):
                        best_plan, best_result = candidate, result
                        stats.swaps_accepted += 1
                        improved = True
                        break
        if not improved:
            break

    stats.final_throughput = best_result.throughput
    return best_plan, best_result, stats


def _with_move(plan, moves):
    placement = dict(plan.placement)
    placement.update(moves)
    return ExecutionPlan(graph=plan.graph, placement=placement)


@lru_cache(maxsize=None)
def _app(app):
    return load_application(app)


def _setup(app, machine_name, tiny_machine, mode):
    """Model, graph and an ingress rate that leaves refinement work to do."""
    machine = {"tiny": tiny_machine, "a2": server_a(2), "a4": server_a(4)}[
        machine_name
    ]
    topology, profiles = _app(app)
    model = PerformanceModel(profiles, machine, tf_mode=mode)
    replicas = 1 if machine_name == "tiny" else 2
    graph = ExecutionGraph(topology, {n: replicas for n in topology.components})
    return model, graph, 0.5 * saturation_ingress(topology, model)


def _dealt_plan(graph, n_sockets, rng):
    """A random complete plan with the tasks dealt evenly over sockets."""
    order = [t.task_id for t in graph.tasks]
    rng.shuffle(order)
    socket_of = {task_id: i % n_sockets for i, task_id in enumerate(order)}
    return ExecutionPlan(graph=graph, placement=dict(sorted(socket_of.items())))


def _assert_same(got, expected, model, rate):
    plan, result, stats = got
    ref_plan, ref_result, ref_stats = expected
    assert plan.placement == ref_plan.placement
    # The pass skips candidates whose verdict is known (twin swaps, repeats
    # of a rejected move set); it evaluates no more than the reference, and
    # every candidate it skips is one the reference evaluates and rejects.
    assert stats.evaluations <= ref_stats.evaluations
    skipped = stats.skipped_twins + stats.skipped_repeats
    assert stats.evaluations + skipped == ref_stats.evaluations
    assert replace(
        stats, evaluations=ref_stats.evaluations, skipped_twins=0, skipped_repeats=0
    ) == ref_stats
    for other in (ref_result, model.evaluate(plan, rate)):
        assert result.throughput == other.throughput
        assert result.rates == other.rates
        assert (result.interconnect_bytes == other.interconnect_bytes).all()
        assert result.flows == other.flows


@pytest.mark.parametrize("mode", list(TfMode), ids=lambda m: m.value)
@pytest.mark.parametrize("machine_name", MACHINES)
@pytest.mark.parametrize("app", APPS)
class TestMatchesFullEvaluateReference:
    def test_random_complete_plans(self, app, machine_name, mode, tiny_machine):
        model, graph, rate = _setup(app, machine_name, tiny_machine, mode)
        rng = random.Random(f"{app}/{machine_name}/{mode.value}")
        for _ in range(4):
            plan = _dealt_plan(graph, model.machine.n_sockets, rng)
            budget = {"max_passes": rng.randint(1, 3), "top_k": rng.choice((4, 8))}
            _assert_same(
                refine_plan(plan, model, rate, **budget),
                reference_refine_plan(plan, model, rate, **budget),
                model,
                rate,
            )

    def test_bnb_incumbent(self, app, machine_name, mode, tiny_machine):
        model, graph, rate = _setup(app, machine_name, tiny_machine, mode)
        plan = PlacementOptimizer(model, rate).optimize(graph).plan
        if plan is None:
            pytest.skip("no feasible placement at this rate")
        _assert_same(
            refine_plan(plan, model, rate, max_passes=2, top_k=8),
            reference_refine_plan(plan, model, rate, max_passes=2, top_k=8),
            model,
            rate,
        )

    def test_infeasible_start_and_zero_passes(
        self, app, machine_name, mode, tiny_machine
    ):
        model, graph, rate = _setup(app, machine_name, tiny_machine, mode)
        # One socket, more replicas than it has cores.
        topology = graph.topology
        each = model.machine.cores_per_socket // len(topology.components) + 1
        crowded = collocated_plan(
            ExecutionGraph(topology, {n: each for n in topology.components})
        )
        report = resource_report(
            crowded, model.evaluate(crowded, rate), model.machine, model.profiles
        )
        assert not report.is_feasible
        got = refine_plan(crowded, model, rate)
        assert got[0] is crowded and got[2].passes == 0
        _assert_same(got, reference_refine_plan(crowded, model, rate), model, rate)
        plan = _dealt_plan(graph, model.machine.n_sockets, random.Random(5))
        _assert_same(
            refine_plan(plan, model, rate, max_passes=0),
            reference_refine_plan(plan, model, rate, max_passes=0),
            model,
            rate,
        )


@pytest.mark.parametrize("app", APPS)
def test_full_machine_rejects_paying_moves(app, tiny_machine):
    """Every core taken: a move that would pay overfills its socket and is
    rejected on feasibility, so only swaps get through — as many, and the
    same ones, as in the reference."""
    topology, profiles = _app(app)
    model = PerformanceModel(profiles, tiny_machine)
    base, extra = divmod(tiny_machine.n_cores, len(topology.components))
    graph = ExecutionGraph(
        topology,
        {n: base + (i < extra) for i, n in enumerate(topology.components)},
    )
    rate = 0.5 * saturation_ingress(topology, model)
    rng = random.Random(app)
    for _ in range(2):
        plan = _dealt_plan(graph, tiny_machine.n_sockets, rng)
        got = refine_plan(plan, model, rate)
        _assert_same(got, reference_refine_plan(plan, model, rate), model, rate)
        assert got[2].moves_accepted == 0 and got[2].swaps_accepted > 0


@pytest.mark.parametrize("app", APPS)
def test_verdict_does_not_depend_on_insertion_order(app, tiny_machine):
    """``resource_report`` folds per-socket demand in dict order, the
    evaluator in task-id order: the same placement inserted backwards must
    refine to the same placement, throughput and statistics."""
    model, graph, rate = _setup(app, "a4", tiny_machine, TfMode.RELATIVE)
    forward = _dealt_plan(graph, 4, random.Random(app))
    backward = ExecutionPlan(
        graph=graph, placement=dict(reversed(forward.placement.items()))
    )
    assert list(backward.placement) == list(reversed(forward.placement))
    plan_f, result_f, stats_f = refine_plan(forward, model, rate)
    plan_b, result_b, stats_b = refine_plan(backward, model, rate)
    assert plan_f.placement == plan_b.placement
    assert result_f.throughput == result_b.throughput
    assert result_f.rates == result_b.rates
    assert stats_f == stats_b
    assert stats_f.moves_accepted + stats_f.swaps_accepted > 0


@pytest.mark.parametrize("app", APPS)
def test_skips_change_nothing_but_the_work(app):
    """Four replicas of every component on four sockets: twins abound and
    passes repeat rejected candidates.  Skipping both leaves placement,
    every ``ModelResult`` field and every other statistic as the reference
    that evaluates them all."""
    topology, profiles = _app(app)
    model = PerformanceModel(profiles, server_a(4))
    graph = ExecutionGraph(topology, {n: 4 for n in topology.components})
    rate = 0.5 * saturation_ingress(topology, model)
    skipped_twins = skipped_repeats = 0
    for seed in range(3):
        plan = _dealt_plan(graph, 4, random.Random(f"{app}/{seed}"))
        budget = {"max_passes": 3, "top_k": 32}
        got = refine_plan(plan, model, rate, **budget)
        expected = reference_refine_plan(plan, model, rate, **budget)
        _assert_same(got, expected, model, rate)
        skipped_twins += got[2].skipped_twins
        skipped_repeats += got[2].skipped_repeats
    assert skipped_twins > 0 and skipped_repeats > 0
