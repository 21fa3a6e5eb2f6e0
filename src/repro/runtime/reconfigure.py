"""Live plan reconfiguration at epoch barriers (Section 5.3's loop, online).

BriskStream plans once and keeps the placement for the whole run; the
paper notes that stream rates and characteristics vary over time and the
application "needs to be re-optimized in response to workload changes"
(Section 5.3).  The offline pieces of that loop already exist —
:func:`~repro.core.adaptation.detect_drift` and
:class:`~repro.core.adaptation.AdaptiveController` re-plan from freshly
profiled statistics — but they operate on *profiles*, not on a running
dataflow.  This module closes the loop:

1. **Observe.**  The executor calls :meth:`ReconfigController.on_epoch`
   at every barrier commit.  The controller diffs the commit's cumulative
   per-task statistics and wall-clock against the previous commit, turning
   each epoch window into observed per-component execution costs and
   selectivities, and folds them into the deployed profile set.
2. **Decide.**  The observed profiles feed
   :meth:`AdaptiveController.decide`: drift below the replace threshold
   does nothing; above it, the controller replans.  When the overload
   ladder's top rung requests a replan (``EpochCommit.overload``, see
   :mod:`repro.runtime.overload` and docs/overload.md), sustained
   backpressure alone escalates to a placement replan even if the
   profile drift stayed under threshold.  A plan whose replication
   differs from the deployed one cannot be applied live (a running
   dataflow can move tasks at a barrier but not add or remove them), so
   the one search a replan runs is
   :meth:`AdaptiveController.replan_placement` pinned to the deployed
   replication — replication changes remain a restart-level response.
3. **Score.**  Before migrating, the candidate placement is scored
   against the deployed one under the *observed* profiles with
   :class:`~repro.core.model.IncrementalEvaluator`: the deployed
   placement is applied first, then only the moved tasks — the plan diff
   — are re-applied on top.  A candidate that does not model strictly
   better is rejected (the pause is not worth paying).
4. **Migrate.**  An accepted candidate becomes a
   :class:`~repro.runtime.epochs.Migration`: the same tasks and edges
   with updated socket placement.  The executor applies it inside the
   barrier pause — snapshot state is handed to the re-placed tasks and
   the stream resumes (pause-at-barrier migration in the style of Madsen
   et al.; see PAPERS.md and docs/reconfiguration.md).

Everything is deterministic given the run's tuple streams except the
wall-clock signal, which is measured; tests therefore drive drift through
selectivity (a workload shift changes measured selectivities exactly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.errors import ExecutionError, PlanError, ProfilingError
from repro.metrics.registry import NULL_REGISTRY, MetricsRegistry
from repro.runtime.epochs import EpochCommit, Migration
from repro.runtime.lowering import with_sockets

# The planning stack (repro.core.*) imports the dsps/runtime layers for
# graph and plan types, so importing it at module scope here would close
# an import cycle: repro.core.adaptation -> ... -> repro.runtime ->
# reconfigure -> repro.core.adaptation.  All core imports stay inside
# the methods that need them.
if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.adaptation import AdaptationAction
    from repro.core.profiles import ProfileSet
    from repro.core.rlas import OptimizedPlan

__all__ = ["ReconfigController", "ReconfigReport"]


@dataclass
class ReconfigReport:
    """What the reconfiguration controller did, run-report ready."""

    replace_threshold: float
    reoptimize_threshold: float
    #: Barrier commits observed (including the calibration window).
    observations: int = 0
    #: Replans produced by the adaptation controller (drift crossed).
    replans: int = 0
    #: Replans triggered by the overload ladder's backpressure signal
    #: alone (``EpochCommit.overload``), with no profile-drift trigger.
    pressure_replans: int = 0
    #: Live migrations handed to the executor.
    migrations: int = 0
    #: Candidate placements rejected by the incremental score.
    rejected: int = 0
    #: Per-decision timeline (dicts, run-report ready).
    events: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "replace_threshold": self.replace_threshold,
            "reoptimize_threshold": self.reoptimize_threshold,
            "observations": self.observations,
            "replans": self.replans,
            "pressure_replans": self.pressure_replans,
            "migrations": self.migrations,
            "rejected": self.rejected,
            "timeline": list(self.events),
        }


class _Window:
    """Cumulative counters of one commit, kept to diff the next one."""

    def __init__(self, commit: EpochCommit) -> None:
        self.events = commit.events_ingested
        self.spout_produced = dict(commit.checkpoint.spout_produced)
        self.tuples_in = {
            task_id: stats.tuples_in
            for task_id, stats in commit.task_stats.items()
        }
        self.out_by_stream = {
            task_id: dict(stats.out_by_stream)
            for task_id, stats in commit.task_stats.items()
        }
        self.wall_ns = dict(commit.task_wall_ns)


class ReconfigController:
    """Watches barrier commits; migrates the plan when the workload drifts.

    Parameters
    ----------
    plan:
        The deployed :class:`~repro.core.rlas.OptimizedPlan` (its
        ``expanded_plan`` is what the running spec was lowered from).
    profiles:
        The statistics the deployed plan was optimized against.
    ingress_rate:
        Ingress rate re-planning optimizes for.
    replace_threshold / reoptimize_threshold:
        Drift magnitudes forwarded to :class:`AdaptiveController`
        (validated here, with the CLI-facing error type).
    registry:
        Metrics registry for ``runtime.reconfig.*`` instruments.

    Re-planning models run on the cost structure the
    :class:`~repro.core.adaptation.AdaptiveController` judges drift with.
    """

    def __init__(
        self,
        plan: "OptimizedPlan",
        profiles: "ProfileSet",
        ingress_rate: float,
        *,
        replace_threshold: float = 0.10,
        reoptimize_threshold: float = 0.35,
        registry: MetricsRegistry | None = None,
    ) -> None:
        from repro.core.adaptation import AdaptiveController

        if not 0 < replace_threshold <= reoptimize_threshold:
            raise ExecutionError(
                "reconfiguration thresholds must satisfy "
                f"0 < replace ({replace_threshold}) <= "
                f"reoptimize ({reoptimize_threshold})"
            )
        if ingress_rate <= 0:
            raise ExecutionError(
                f"reconfiguration needs a positive ingress rate, "
                f"got {ingress_rate}"
            )
        self.plan = plan
        self.ingress_rate = ingress_rate
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.controller = AdaptiveController(
            plan,
            profiles,
            ingress_rate,
            replace_threshold=replace_threshold,
            reoptimize_threshold=reoptimize_threshold,
        )
        self.report = ReconfigReport(
            replace_threshold=replace_threshold,
            reoptimize_threshold=reoptimize_threshold,
        )
        self._deployed_replication = dict(plan.replication)
        self._prev: _Window | None = None
        #: Model-cycles per observed wall-ns, calibrated on the first
        #: measured window so that window's Te reads as "no drift".
        self._te_reference: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Barrier observer (the executor's ``on_epoch`` callback)
    # ------------------------------------------------------------------
    def on_epoch(self, commit: EpochCommit) -> Migration | None:
        from repro.core.adaptation import AdaptationAction

        self.report.observations += 1
        self.registry.counter("runtime.reconfig.observations").inc()
        prev, self._prev = self._prev, _Window(commit)
        if prev is None or commit.events_ingested <= prev.events:
            # First commit: nothing to diff yet — this window calibrates.
            return None
        observed = self._observed_profiles(commit, prev)
        # The verdict only: the controller's own re-plan may change
        # replication, which a running dataflow cannot follow, so the
        # one search that counts is _migration_for's.
        action, magnitude = self.controller.decide(observed)
        self.controller.adopt(action, observed)
        self.registry.gauge("runtime.reconfig.drift_magnitude").set(magnitude)
        overload = commit.overload or {}
        if action is AdaptationAction.NONE and overload.get("replan_requested"):
            # The overload ladder's top rung: sustained backpressure is
            # drift the profile diff alone may not see (a uniformly
            # overdriven pipeline keeps its selectivities), so the
            # ladder's replan request escalates straight to a placement
            # replan under the observed profiles.
            action = AdaptationAction.REPLACE
            self.report.pressure_replans += 1
            self.registry.counter("runtime.reconfig.pressure_replans").inc()
        if action is AdaptationAction.NONE:
            return None
        self.report.replans += 1
        self.registry.counter("runtime.reconfig.replans").inc()
        migration = self._migration_for(commit, observed, action, magnitude)
        if migration is None:
            return None
        self.report.migrations += 1
        self.registry.counter("runtime.reconfig.migrations").inc()
        return migration

    # ------------------------------------------------------------------
    # Observation: epoch window -> profile set
    # ------------------------------------------------------------------
    def _observed_profiles(
        self, commit: EpochCommit, prev: _Window
    ) -> "ProfileSet":
        by_component: dict[str, dict[str, Any]] = {}
        for rt in commit.spec.tasks:
            entry = by_component.setdefault(
                rt.component,
                {"in": 0, "out": {}, "wall": 0.0, "has_wall": False},
            )
            task_id = rt.task_id
            stats = commit.task_stats.get(task_id)
            if stats is None:
                continue
            if rt.is_spout:
                # A spout's "inputs" are the external events it drew.
                entry["in"] += commit.checkpoint.spout_produced.get(
                    task_id, 0
                ) - prev.spout_produced.get(task_id, 0)
            else:
                entry["in"] += stats.tuples_in - prev.tuples_in.get(task_id, 0)
            prev_out = prev.out_by_stream.get(task_id, {})
            for stream, count in stats.out_by_stream.items():
                delta = count - prev_out.get(stream, 0)
                if delta:
                    entry["out"][stream] = entry["out"].get(stream, 0) + delta
            wall = commit.task_wall_ns.get(task_id)
            if wall is not None:
                entry["wall"] += wall - prev.wall_ns.get(task_id, 0.0)
                entry["has_wall"] = True

        observed = self.controller.profiles
        for component, entry in by_component.items():
            consumed = entry["in"]
            if consumed <= 0:
                continue  # no work this window: keep the current profile
            try:
                profile = observed[component]
            except ProfilingError:
                continue
            changes: dict[str, Any] = {}
            # Selectivity: measured per output stream.  Streams with no
            # output this window keep their profiled value — an operator
            # that buffers until flush() (e.g. WC's counter) is silent
            # mid-stream, which is not evidence its selectivity changed.
            selectivity = {
                stream: entry["out"][stream] / consumed
                for stream in entry["out"]
            }
            if selectivity:
                merged = dict(profile.selectivity)
                merged.update(selectivity)
                changes["selectivity"] = merged
            # Execution cost: wall-ns per consumed tuple, converted into
            # model cycles via the first measured window's calibration
            # (wall-clock is an inline-backend signal; process workers
            # report no per-task wall and Te keeps its profiled value).
            if entry["has_wall"] and entry["wall"] > 0.0:
                te_ns = entry["wall"] / consumed
                reference = self._te_reference.get(component)
                if reference is None and te_ns > 0.0:
                    reference = profile.te_cycles / te_ns
                    self._te_reference[component] = reference
                if reference is not None:
                    changes["te_cycles"] = te_ns * reference
            if changes:
                observed = observed.replace(component, **changes)
        return observed

    # ------------------------------------------------------------------
    # Decision: replanned profiles -> live migration (or nothing)
    # ------------------------------------------------------------------
    def _migration_for(
        self,
        commit: EpochCommit,
        observed: "ProfileSet",
        action: AdaptationAction,
        magnitude: float,
    ) -> Migration | None:
        spec = commit.spec
        deployed = {
            rt.task_id: (rt.socket if rt.socket is not None else 0)
            for rt in spec.tasks
        }
        # A migration can move tasks between sockets at a barrier but not
        # add or remove them.  The *live* candidate is therefore always a
        # placement-only replan pinned to the deployed replication and
        # seeded with the deployed placement, so the search never returns
        # a plan it models worse than what is already running.
        candidate = self.controller.replan_placement(
            observed, replication=self._deployed_replication, initial=deployed
        )
        if candidate is None:
            self._record(
                commit, action, magnitude, "no-feasible-placement", ()
            )
            return None
        expanded = candidate.expanded_plan
        try:
            target = {
                task_id: expanded.socket_of(task_id) for task_id in deployed
            }
        except (KeyError, PlanError):
            self._record(commit, action, magnitude, "task-id-mismatch", ())
            return None
        before, after, final = self._refine(observed, expanded, deployed, target)
        moved = tuple(
            sorted(
                task_id
                for task_id, socket in final.items()
                if socket is not None and socket != deployed[task_id]
            )
        )
        if not moved:
            self._record(commit, action, magnitude, "placement-unchanged", ())
            return None
        if after <= before:
            self.report.rejected += 1
            self.registry.counter("runtime.reconfig.rejected").inc()
            self._record(
                commit,
                action,
                magnitude,
                "rejected",
                moved,
                modeled_before=before,
                modeled_after=after,
            )
            return None
        target = final
        self.registry.gauge("runtime.reconfig.modeled_gain").set(
            after - before
        )
        detail = (
            f"{action.value}: drift {magnitude:.3f}, "
            f"modeled {before:,.0f} -> {after:,.0f} ev/s"
        )
        self._record(
            commit,
            action,
            magnitude,
            "migrated",
            moved,
            modeled_before=before,
            modeled_after=after,
        )
        return Migration(
            spec=with_sockets(spec, target), moved=moved, detail=detail
        )

    #: Hill-climbing passes over all tasks during candidate refinement.
    _REFINE_PASSES = 2

    def _refine(
        self,
        observed: "ProfileSet",
        expanded: Any,
        deployed: Mapping[int, int],
        target: Mapping[int, int | None],
    ) -> tuple[float, float, dict[int, int]]:
        """Score and locally improve the candidate under observed profiles.

        One :class:`IncrementalEvaluator` drives the whole step: the
        deployed placement is applied in full (``before``), the
        candidate's diff is tried on top (kept only if it models strictly
        better and stays feasible), and a bounded hill-climb then probes
        every task against every other socket, keeping strict feasible
        improvements.  The climb optimizes exactly the objective the
        migration is judged by, so when workload drift really made the
        deployed placement suboptimal, an improving move is found even
        when the global search could not beat the deployed incumbent.
        Returns ``(before, after, final placement)``.
        """
        from repro.core.model import (
            IncrementalEvaluator,
            PerformanceModel,
            TfMode,
        )

        model = PerformanceModel(
            observed,
            self.plan.machine,
            system=self.controller.system,
            tf_mode=TfMode.RELATIVE,
        )
        evaluator = IncrementalEvaluator(
            model, expanded.graph, self.ingress_rate
        )
        evaluator.reset(deployed)
        before = evaluator.throughput
        base_feasible = evaluator.check().feasible

        def acceptable() -> bool:
            return evaluator.check().feasible or not base_feasible

        candidate_moves = [
            (task_id, socket)
            for task_id, socket in sorted(target.items())
            if socket is not None and socket != deployed[task_id]
        ]
        if candidate_moves:
            evaluator.try_moves(candidate_moves, before, acceptable)
        n_sockets = self.plan.machine.n_sockets
        task_ids = sorted(deployed)
        for _ in range(self._REFINE_PASSES):
            improved = False
            for task_id in task_ids:
                current = evaluator.placement().get(task_id)
                for socket in range(n_sockets):
                    if socket != current and evaluator.try_moves(
                        [(task_id, socket)], evaluator.throughput, acceptable
                    ):
                        current = socket
                        improved = True
            if not improved:
                break
        return before, evaluator.throughput, evaluator.placement()

    def _record(
        self,
        commit: EpochCommit,
        action: AdaptationAction,
        magnitude: float,
        outcome: str,
        moved: tuple[int, ...],
        *,
        modeled_before: float | None = None,
        modeled_after: float | None = None,
    ) -> None:
        event = {
            "epoch": commit.epoch,
            "action": action.value,
            "magnitude": round(magnitude, 6),
            "outcome": outcome,
            "moved": list(moved),
        }
        if modeled_before is not None:
            # The floats the decision compared, unrounded: a migration is
            # taken on any strict gain, however small.
            event["modeled_before"] = modeled_before
            event["modeled_after"] = modeled_after
        self.report.events.append(event)
