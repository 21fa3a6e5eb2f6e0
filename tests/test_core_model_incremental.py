"""Differential tests: IncrementalEvaluator vs batch ``evaluate``.

The incremental evaluator must be *bit-identical* to the batch model under
every apply/undo/reset sequence — the B&B search relies on this to prune
with exact bounds.  These tests replay long randomized placement histories
on all four benchmark applications and compare every ``ModelResult`` field
after every step.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PerformanceModel, empty_plan
from repro.core.constraints import resource_report
from repro.dsps import ExecutionGraph
from repro.errors import PlanError
from repro.hardware import server_a

from tests.conftest import build_pipeline, pipeline_profiles

APPS = ("wc", "fd", "sd", "lr")


@pytest.fixture(scope="module")
def machine():
    return server_a(4)


def _bundle(app: str):
    from repro.apps import load_application

    return load_application(app)


def _exact_match(result_a, result_b, machine):
    """Assert two ModelResults are bitwise identical."""
    assert result_a.throughput == result_b.throughput
    assert result_a.bottlenecks == result_b.bottlenecks
    assert set(result_a.rates) == set(result_b.rates)
    for task_id, a in result_a.rates.items():
        b = result_b.rates[task_id]
        assert (
            a.input_rate,
            a.capacity,
            a.processed_rate,
            a.te_ns,
            a.overhead_ns,
            a.tf_ns,
            a.oversupplied,
            a.output_rate,
            dict(a.output_rates),
        ) == (
            b.input_rate,
            b.capacity,
            b.processed_rate,
            b.te_ns,
            b.overhead_ns,
            b.tf_ns,
            b.oversupplied,
            b.output_rate,
            dict(b.output_rates),
        ), f"task {task_id} diverged"
    assert (result_a.interconnect_bytes == result_b.interconnect_bytes).all()


class TestRandomizedEquivalence:
    """≥200 randomized apply/undo sequences across the four apps."""

    @pytest.mark.parametrize("app", APPS)
    def test_apply_undo_reset_matches_batch(self, app, machine):
        topology, profiles = _bundle(app)
        model = PerformanceModel(profiles, machine)
        graph = ExecutionGraph(topology, {n: 2 for n in topology.components})
        rate = 50_000.0
        evaluator = model.evaluator(graph, rate)
        rng = random.Random(hash(app) & 0xFFFF)
        sockets = list(machine.sockets)
        task_ids = [t.task_id for t in graph.tasks]
        placement: dict[int, int] = {}
        undo_depth = 0

        def check():
            plan = empty_plan(graph).assign(placement)
            batch = model.evaluate(plan, rate, bounding=True)
            _exact_match(evaluator.result(), batch, machine)
            report = resource_report(plan, batch, machine, model.profiles)
            assert evaluator.check().feasible == report.is_feasible

        check()  # empty placement
        for step in range(80):
            action = rng.random()
            if action < 0.45 or undo_depth == 0:
                # (re)place a random task via apply
                task_id = rng.choice(task_ids)
                socket = rng.choice(sockets + [None])
                evaluator.apply(task_id, socket)
                if socket is None:
                    placement.pop(task_id, None)
                else:
                    placement[task_id] = socket
                undo_depth += 1
            elif action < 0.85:
                evaluator.undo()
                undo_depth -= 1
                # rebuild the shadow placement from the evaluator's truth
                placement = evaluator.placement()
            else:
                # jump to an unrelated random placement
                placement = {
                    tid: rng.choice(sockets)
                    for tid in task_ids
                    if rng.random() < 0.7
                }
                evaluator.reset(placement)
                undo_depth = 0
            check()

    def test_complete_plan_matches_unbounded_evaluate(self, machine):
        """On a complete plan the evaluator equals plain ``evaluate``."""
        topology, profiles = _bundle("wc")
        model = PerformanceModel(profiles, machine)
        graph = ExecutionGraph(topology, {n: 2 for n in topology.components})
        rng = random.Random(7)
        evaluator = model.evaluator(graph, 80_000.0)
        for _ in range(20):
            placement = {
                t.task_id: rng.choice(list(machine.sockets)) for t in graph.tasks
            }
            evaluator.reset(placement)
            plan = empty_plan(graph).assign(placement)
            batch = model.evaluate(plan, 80_000.0)
            _exact_match(evaluator.result(), batch, machine)

    def test_undo_restores_exact_state(self, machine):
        topology, profiles = _bundle("sd")
        model = PerformanceModel(profiles, machine)
        graph = ExecutionGraph(topology, {n: 2 for n in topology.components})
        evaluator = model.evaluator(graph, 60_000.0)
        rng = random.Random(11)
        baseline = {
            t.task_id: rng.choice(list(machine.sockets)) for t in graph.tasks
        }
        evaluator.reset(baseline)
        before = evaluator.result()
        for _ in range(50):
            task_id = rng.choice(list(baseline))
            evaluator.apply(task_id, rng.choice(list(machine.sockets)))
            evaluator.undo()
        _exact_match(evaluator.result(), before, machine)

    def test_counters_track_evaluation_modes(self, machine):
        topology = build_pipeline()
        profiles = pipeline_profiles(topology)
        model = PerformanceModel(profiles, machine)
        graph = ExecutionGraph(topology, {n: 1 for n in topology.components})
        evaluator = model.evaluator(graph, 1e5)
        start_full = evaluator.full_evals
        # Moving the spout forces a full re-evaluation.
        spout_id = graph.tasks_of("spout")[0].task_id
        evaluator.apply(spout_id, 1)
        assert evaluator.full_evals == start_full + 1
        # Moving the sink is a pure downstream delta.
        start_incremental = evaluator.incremental_evals
        sink_id = graph.tasks_of("sink")[0].task_id
        evaluator.apply(sink_id, 1)
        assert evaluator.incremental_evals == start_incremental + 1


class TestExtendedCheck:
    @pytest.mark.parametrize("app", APPS)
    def test_one_more_task_is_the_full_fold(self, app, machine):
        """The B&B's per-candidate check — its node's sums plus the task
        just placed — equals folding every placed task again, bit for bit
        (CPU, memory, replicas, interconnect and the verdict)."""
        from repro.core.model import Feasibility

        topology, profiles = _bundle(app)
        model = PerformanceModel(profiles, machine)
        graph = ExecutionGraph(topology, {n: 3 for n in topology.components})
        evaluator = model.evaluator(graph, 2_000_000.0)
        rng = random.Random(app)
        base = evaluator.check()
        crossing = False
        for task in graph.tasks:  # producer-first, as the search places
            evaluator.apply(task.task_id, rng.choice(list(machine.sockets)))
            extended = evaluator.check(base, task.task_id)
            full = evaluator.check()
            for name in Feasibility.__slots__:
                assert getattr(extended, name) == getattr(full, name), name
            crossing = crossing or any(map(any, full.interconnect))
            base = extended
        assert crossing and sum(base.replicas) == graph.total_replicas


#: Every piece of state an evaluator carries between calls.
_STATE = (
    "_socket",
    "_input_rate",
    "_tf",
    "_overhead",
    "_t",
    "_capacity",
    "_processed",
    "_oversupplied",
    "_out",
    "_icx",
    "_throughput",
)
_SOCKETS = 4
_WC_TASKS = 10  # five components, two replicas each

_steps = st.lists(
    st.tuples(
        st.sampled_from(("apply", "undo", "bounce", "keep", "refuse", "miss")),
        st.integers(0, _WC_TASKS - 1),
        st.integers(1, _WC_TASKS - 1),
        st.integers(0, _SOCKETS - 1),
        st.integers(0, _SOCKETS - 1),
    ),
    max_size=24,
)


class TestTryMoves:
    """``try_moves`` — refinement's swap, the reconfiguration climb's move —
    nested inside outstanding applies, kept or rejected either way, and the
    B&B's ``undo(keep=True)`` / ``redo`` between them."""

    @settings(max_examples=80, deadline=None)
    @given(
        start=st.lists(
            st.integers(0, _SOCKETS - 1), min_size=_WC_TASKS, max_size=_WC_TASKS
        ),
        steps=_steps,
    )
    def test_state_equals_a_fresh_evaluators(self, start, steps):
        topology, profiles = _bundle("wc")
        model = PerformanceModel(profiles, server_a(_SOCKETS))
        graph = ExecutionGraph(topology, {n: 2 for n in topology.components})
        assert graph.n_tasks == _WC_TASKS
        evaluator = model.evaluator(graph, 80_000.0)
        evaluator.reset(dict(enumerate(start)))
        history = [dict(enumerate(start))]  # placements undo walks back through
        for kind, task, offset, socket, other_socket in steps:
            current = history[-1]
            if kind == "apply":
                evaluator.apply(task, socket)
                history.append({**current, task: socket})
            elif kind == "undo":
                if len(history) > 1:
                    evaluator.undo()
                    history.pop()
            elif kind == "bounce":
                # What the B&B does between a probe and the pop of the
                # child it kept: undo, then re-enter without recomputing.
                if len(history) > 1:
                    evals = evaluator.incremental_evals + evaluator.full_evals
                    record = evaluator.undo(keep=True)
                    assert evaluator.placement() == history[-2]
                    evaluator.redo(record)
                    assert evaluator.incremental_evals + evaluator.full_evals == evals
                    history = [current]
            else:
                moves = [
                    (task, socket),
                    ((task + offset) % _WC_TASKS, other_socket),
                ]
                kept = evaluator.try_moves(
                    moves,
                    math.inf if kind == "miss" else -math.inf,
                    lambda: kind == "keep",
                )
                assert kept == (kind == "keep")
                if kept:
                    history = [{**current, **dict(moves)}]
            assert evaluator.placement() == history[-1]
            fresh = model.evaluator(graph, 80_000.0)
            fresh.reset(history[-1])
            for name in _STATE:
                assert getattr(evaluator, name) == getattr(fresh, name), name
        if len(history) == 1:
            with pytest.raises(PlanError):
                evaluator.undo()  # a kept step dropped the history

    def test_one_step_one_delta(self, machine):
        """A swap is one re-propagation, not one per task moved."""
        topology, profiles = _bundle("wc")
        model = PerformanceModel(profiles, machine)
        graph = ExecutionGraph(topology, {n: 2 for n in topology.components})
        evaluator = model.evaluator(graph, 80_000.0)
        evaluator.reset({t.task_id: t.task_id % 2 for t in graph.tasks})
        sinks = [t.task_id for t in graph.tasks_of("sink")]
        before = evaluator.incremental_evals + evaluator.full_evals
        evaluator.try_moves(
            [(sinks[0], 1), (sinks[1], 0)], -math.inf, lambda: False
        )
        assert evaluator.incremental_evals + evaluator.full_evals == before + 1


class TestEvaluatorFactory:
    def test_rejects_nonpositive_rate(self, machine):
        topology = build_pipeline()
        model = PerformanceModel(pipeline_profiles(topology), machine)
        graph = ExecutionGraph(topology, {n: 1 for n in topology.components})
        from repro.errors import PlanError

        with pytest.raises(PlanError):
            model.evaluator(graph, 0.0)

    def test_undo_on_empty_stack_raises(self, machine):
        topology = build_pipeline()
        model = PerformanceModel(pipeline_profiles(topology), machine)
        graph = ExecutionGraph(topology, {n: 1 for n in topology.components})
        evaluator = model.evaluator(graph, 1e5)
        from repro.errors import PlanError

        with pytest.raises(PlanError):
            evaluator.undo()
