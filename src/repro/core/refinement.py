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
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.model import ModelResult, PerformanceModel
from repro.core.plan import ExecutionPlan
from repro.errors import PlanError


@dataclass
class RefinementStats:
    """Instrumentation of one refinement run."""

    passes: int = 0
    moves_accepted: int = 0
    swaps_accepted: int = 0
    evaluations: int = 0
    initial_throughput: float = 0.0
    final_throughput: float = 0.0

    def publish(self, registry, runtime_s: float) -> None:
        """Accumulate this run, and the wall time it took, into a metrics
        registry (one plan refines many times; the counters add up)."""
        registry.counter("rlas.refine.runs").inc()
        registry.counter("rlas.refine.evaluations").inc(self.evaluations)
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
    """
    if not plan.is_complete:
        raise PlanError("refinement needs a complete plan")
    evaluator = model.evaluator(plan.graph, ingress_rate)
    evaluator.reset(plan.placement)
    placement = dict(plan.placement)
    stats = RefinementStats(evaluations=1, initial_throughput=evaluator.throughput)

    def feasible() -> bool:
        return evaluator.check().feasible

    def improves(*moves: tuple[int, int]) -> bool:
        """Keep ``moves`` iff they are feasible and model strictly better."""
        stats.evaluations += 1
        threshold = evaluator.throughput * (1 + 1e-9)
        kept = evaluator.try_moves(moves, threshold, feasible)
        if kept:
            placement.update(moves)
        return kept

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
                and improves((task_id, placement[other_id]), (other_id, home))
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
