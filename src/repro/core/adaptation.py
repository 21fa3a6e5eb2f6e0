"""Adaptation to workload changes (Section 5.3's future-work sketch).

The paper optimizes once for a stable workload and notes that "in
practical scenarios, stream rate as well as its characteristics can vary
over time, and the application needs to be re-optimized in response to
workload changes".  This module implements that loop:

* :func:`detect_drift` — compare freshly profiled statistics against the
  ones the current plan was optimized for;
* :class:`AdaptiveController` — hold the active plan, and when drift
  crosses a threshold either *re-place* cheaply (placement only, keeping
  the replication — the lightweight heuristic response the paper
  suggests) or *re-optimize* fully (replication + placement) when the
  drift is structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.core.bnb import PlacementOptimizer
from repro.core.compression import expand_plan
from repro.core.model import BRISKSTREAM, PerformanceModel, TfMode
from repro.core.plan import ExecutionPlan
from repro.core.profiles import ProfileSet, SystemProfile
from repro.core.rlas import OptimizedPlan, RLASOptimizer
from repro.dsps.graph import ExecutionGraph
from repro.errors import PlanError


@dataclass(frozen=True)
class DriftReport:
    """How far newly profiled statistics drifted from the plan's inputs."""

    component: str
    te_ratio: float
    selectivity_delta: float

    @property
    def magnitude(self) -> float:
        """Scalar drift: max of relative Te change and selectivity delta."""
        return max(abs(self.te_ratio - 1.0), self.selectivity_delta)


class AdaptationAction(Enum):
    """What the controller decided to do for one observation."""

    NONE = "none"
    REPLACE = "replace"  # placement-only re-optimization
    REOPTIMIZE = "reoptimize"  # full RLAS (replication + placement)


def detect_drift(old: ProfileSet, new: ProfileSet) -> list[DriftReport]:
    """Per-component drift between two profile sets (same topology)."""
    if set(old.components()) != set(new.components()):
        raise PlanError("profile sets describe different topologies")
    reports = []
    for name in old.components():
        before, after = old[name], new[name]
        te_ratio = (
            after.te_cycles / before.te_cycles if before.te_cycles > 0 else 1.0
        )
        streams = set(before.selectivity) | set(after.selectivity)
        sel_delta = max(
            (
                abs(after.stream_selectivity(s) - before.stream_selectivity(s))
                for s in streams
            ),
            default=0.0,
        )
        reports.append(
            DriftReport(component=name, te_ratio=te_ratio, selectivity_delta=sel_delta)
        )
    return reports


class AdaptiveController:
    """Keeps an execution plan current as the workload drifts.

    Parameters
    ----------
    plan:
        The currently deployed :class:`OptimizedPlan`.
    profiles:
        The statistics the plan was optimized against.
    ingress_rate:
        Current external ingress rate.
    system:
        Runtime cost structure.
    replace_threshold:
        Drift magnitude that triggers a cheap placement-only response.
    reoptimize_threshold:
        Drift magnitude that triggers a full RLAS run.
    """

    def __init__(
        self,
        plan: OptimizedPlan,
        profiles: ProfileSet,
        ingress_rate: float,
        system: SystemProfile = BRISKSTREAM,
        replace_threshold: float = 0.10,
        reoptimize_threshold: float = 0.35,
    ) -> None:
        if not 0 < replace_threshold <= reoptimize_threshold:
            raise PlanError(
                "thresholds must satisfy 0 < replace <= reoptimize"
            )
        self.plan = plan
        self.profiles = profiles
        self.ingress_rate = ingress_rate
        self.system = system
        self.replace_threshold = replace_threshold
        self.reoptimize_threshold = reoptimize_threshold
        self.history: list[AdaptationAction] = []

    def decide(
        self, new_profiles: ProfileSet
    ) -> tuple[AdaptationAction, float]:
        """The threshold verdict on freshly profiled statistics, and the
        drift magnitude it was read from — the decision without the
        re-plan, for callers that plan for themselves (the live
        reconfiguration controller searches once, pinned to the deployed
        replication)."""
        magnitude = max(
            (r.magnitude for r in detect_drift(self.profiles, new_profiles)),
            default=0.0,
        )
        if magnitude < self.replace_threshold:
            return AdaptationAction.NONE, magnitude
        if magnitude < self.reoptimize_threshold:
            return AdaptationAction.REPLACE, magnitude
        return AdaptationAction.REOPTIMIZE, magnitude

    def adopt(self, action: AdaptationAction, new_profiles: ProfileSet) -> None:
        """Record ``action``; one that re-plans makes ``new_profiles``
        the baseline later drift is measured against."""
        if action is not AdaptationAction.NONE:
            self.profiles = new_profiles
        self.history.append(action)

    def observe(self, new_profiles: ProfileSet) -> AdaptationAction:
        """React to freshly profiled statistics.

        Returns the action taken; :attr:`plan` is updated in place for
        REPLACE/REOPTIMIZE.
        """
        action, _ = self.decide(new_profiles)
        if action is AdaptationAction.REPLACE:
            self.plan = self._replace(new_profiles)
        elif action is AdaptationAction.REOPTIMIZE:
            self.plan = self._reoptimize(new_profiles)
        self.adopt(action, new_profiles)
        return action

    def replan_placement(
        self,
        profiles: ProfileSet,
        *,
        replication: "dict[str, int] | None" = None,
        initial: "dict[int, int] | None" = None,
    ) -> OptimizedPlan | None:
        """Placement-only replan under ``profiles`` (keeps task counts).

        This is the public REPLACE path, usable directly by the live
        reconfiguration controller: passing ``replication`` pins the
        currently *deployed* replication — a running dataflow can move
        tasks between sockets at an epoch barrier but cannot add or
        remove them — and places the fully expanded graph (group size 1),
        whose deterministic task ids line up with the deployed spec's.
        ``initial`` optionally seeds the branch-and-bound incumbent with
        a known-good placement (task id -> socket, e.g. the currently
        deployed one) so the search never returns a plan it models worse
        than the seed.  Returns ``None`` when the placement search finds
        no feasible plan; callers decide the fallback (``observe``
        re-optimizes).
        """
        model = PerformanceModel(
            profiles, self.plan.machine, system=self.system, tf_mode=TfMode.RELATIVE
        )
        if replication is None:
            replication = dict(self.plan.replication)
            group_sizes: "dict[str, int] | int" = {
                t.component: max(t.weight, 1) for t in self.plan.plan.graph.tasks
            }
        else:
            replication = dict(replication)
            group_sizes = 1
        graph = ExecutionGraph(
            self.plan.topology, replication, group_size=group_sizes
        )
        seed = None
        if initial is not None:
            try:
                seed = ExecutionPlan(graph=graph, placement=dict(initial))
            except PlanError:
                seed = None  # seed describes different tasks: search cold
        placer = PlacementOptimizer(model, self.ingress_rate)
        result = placer.optimize(graph, initial_plan=seed)
        if result.plan is None or result.model_result is None:
            return None
        expanded = expand_plan(result.plan)
        realized = model.evaluate(expanded, self.ingress_rate)
        return OptimizedPlan(
            topology=self.plan.topology,
            machine=self.plan.machine,
            replication=replication,
            plan=result.plan,
            expanded_plan=expanded,
            model_result=result.model_result,
            realized_result=realized,
            planning_mode=TfMode.RELATIVE,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _replace(self, profiles: ProfileSet) -> OptimizedPlan:
        """Placement-only response: keep replication, re-place all tasks."""
        plan = self.replan_placement(profiles)
        if plan is None:
            return self._reoptimize(profiles)
        return plan

    def _reoptimize(self, profiles: ProfileSet) -> OptimizedPlan:
        """Full RLAS run under the new statistics."""
        optimizer = RLASOptimizer(
            self.plan.topology,
            profiles,
            self.plan.machine,
            self.ingress_rate,
            system=self.system,
        )
        return optimizer.optimize(
            initial_replication=dict(self.plan.replication)
        )
