"""Local-search refinement of a placement (move/swap passes).

Best-fit commits make the branch-and-bound search fast but greedy: once a
component's tasks have packed a socket full, downstream tasks can be forced
cross-tray even when exchanging a few tasks between sockets would reduce
the total RMA cost.  This pass polishes a complete plan with
first-improvement *move* and *swap* steps, prioritizing the tasks paying
the highest measured fetch cost.

This is an implementation extension over the paper's Algorithm 2 (the kind
of post-optimization a production scheduler would run); it only ever
*improves* the modelled throughput, and DESIGN.md records it.

Two kinds of candidate are skipped unevaluated, because their verdict is
known (docs/optimizer.md, "Exact prunings"): swaps of *twins* — tasks with
the same component, weight, producers and consumers, whose swap permutes
the model's state and moves throughput by rounding alone — and a move set
already rejected since the last accepted step, which a rejection leaves
the evaluator exactly as it found it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.model import ModelResult, PerformanceModel
from repro.core.plan import ExecutionPlan
from repro.dsps.graph import ExecutionGraph
from repro.errors import PlanError


@dataclass
class RefinementStats:
    """Instrumentation of one refinement run."""

    passes: int = 0
    moves_accepted: int = 0
    swaps_accepted: int = 0
    evaluations: int = 0
    #: Candidates answered without an evaluation: swaps of twins, and move
    #: sets rejected before in the same state (see the module docstring).
    skipped_twins: int = 0
    skipped_repeats: int = 0
    initial_throughput: float = 0.0
    final_throughput: float = 0.0

    def publish(self, registry, runtime_s: float) -> None:
        """Accumulate this run, and the wall time it took, into a metrics
        registry (one plan refines many times; the counters add up)."""
        registry.counter("rlas.refine.runs").inc()
        registry.counter("rlas.refine.evaluations").inc(self.evaluations)
        registry.counter("rlas.refine.skipped_twins").inc(self.skipped_twins)
        registry.counter("rlas.refine.skipped_repeats").inc(self.skipped_repeats)
        registry.counter("rlas.refine.moves_accepted").inc(self.moves_accepted)
        registry.counter("rlas.refine.swaps_accepted").inc(self.swaps_accepted)
        registry.histogram("rlas.refine.runtime_s").observe(runtime_s)


def refine_plan(
    plan: ExecutionPlan,
    model: PerformanceModel,
    ingress_rate: float,
    max_passes: int = 4,
    top_k: int = 24,
) -> tuple[ExecutionPlan, ModelResult, RefinementStats]:
    """Improve ``plan`` by moving/swapping high-RMA tasks between sockets.

    Every candidate is scored on one
    :class:`~repro.core.model.IncrementalEvaluator`: a move, or both
    halves of a swap, is one ``try_moves`` delta and a rejected candidate
    its undo — the rows the moved tasks can change, not a model pass and a
    plan object per candidate.  Throughput, rates and the feasibility
    verdict (Eqs. 3-5, folded per socket in task-id order) are those of
    the batch model bit for bit and do not depend on the insertion order
    of ``plan.placement``.

    Parameters
    ----------
    plan:
        Complete plan to polish.
    model:
        Performance model used for evaluation (same one the optimizer used).
    ingress_rate:
        External ingress rate ``I``.
    max_passes:
        Upper bound on full move+swap sweeps.
    top_k:
        Number of highest-fetch-cost tasks considered per sweep.

    Returns the (possibly unchanged) plan, its evaluation, and statistics.
    The plan, its evaluation and every statistic but ``evaluations`` and
    the skip counters are those of evaluating every candidate: a skipped
    one would be rejected.
    """
    if not plan.is_complete:
        raise PlanError("refinement needs a complete plan")
    evaluator = model.evaluator(plan.graph, ingress_rate)
    evaluator.reset(plan.placement)
    placement = dict(plan.placement)
    stats = RefinementStats(evaluations=1, initial_throughput=evaluator.throughput)
    twin_of = twin_classes(plan.graph)
    # Move sets rejected since the last accepted step.
    rejected: set[frozenset] = set()

    def feasible() -> bool:
        return evaluator.check().feasible

    def improves(*moves: tuple[int, int]) -> bool:
        """Keep ``moves`` iff they are feasible and model strictly better."""
        key = frozenset(moves)
        if key in rejected:
            stats.skipped_repeats += 1
            return False
        stats.evaluations += 1
        threshold = evaluator.throughput * (1 + 1e-9)
        kept = evaluator.try_moves(moves, threshold, feasible)
        if kept:
            placement.update(moves)
            rejected.clear()
        else:
            rejected.add(key)
        return kept

    def swap_improves(task_id: int, other_id: int, home: int) -> bool:
        if twin_of[task_id] == twin_of[other_id]:
            stats.skipped_twins += 1
            return False
        return improves((task_id, placement[other_id]), (other_id, home))

    def fetch_ns(task_id: int) -> float:
        return evaluator.task_values(task_id)[1]

    # Refinement never starts from an infeasible plan; return it as-is.
    for _ in range(max_passes if feasible() else 0):
        stats.passes += 1
        improved = False
        hot_ids = [
            task_id
            for task_id in sorted(
                range(plan.graph.n_tasks), key=fetch_ns, reverse=True
            )[:top_k]
            if fetch_ns(task_id) > 0
        ]
        for task_id in hot_ids:
            home = placement[task_id]
            # Move the task to each other socket.
            if any(
                socket != home and improves((task_id, socket))
                for socket in model.machine.sockets
            ):
                stats.moves_accepted += 1
                improved = True
            # Move found nothing: try swapping with a task elsewhere.
            elif any(
                other_id != task_id
                and placement[other_id] != home
                and swap_improves(task_id, other_id, home)
                for other_id in hot_ids
            ):
                stats.swaps_accepted += 1
                improved = True
        if not improved:
            break

    stats.final_throughput = evaluator.throughput
    if stats.moves_accepted or stats.swaps_accepted:
        plan = ExecutionPlan(graph=plan.graph, placement=placement)
    return plan, evaluator.result(), stats


def twin_classes(graph: ExecutionGraph) -> list[int]:
    """Number each task by its twin class, indexed by task id.

    Twins share component and weight, and have the same producer task ids
    and the same consumer task ids over the same streams with the same
    shares: each computes from exactly the other's inputs, so exchanging
    their sockets only permutes the model's per-task state.
    """
    number: dict[tuple, int] = {}
    return [
        number.setdefault(
            (
                task.component,
                task.weight,
                tuple(
                    sorted(
                        (e.producer, e.stream, e.share)
                        for e in graph.incoming(task.task_id)
                    )
                ),
                tuple(
                    sorted(
                        (e.consumer, e.stream, e.share)
                        for e in graph.outgoing(task.task_id)
                    )
                ),
            ),
            len(number),
        )
        for task in graph.tasks
    ]
