"""Supervised execution: recovery policies over any executor backend.

The :class:`Supervisor` is itself an :class:`ExecutorBackend` that wraps a
delegate (inline or process pool) in an attempt loop.  The delegate's
watchdogs guarantee every failure surfaces as a *typed, bounded*
:class:`~repro.errors.ExecutionError` carrying partial progress; the
supervisor decides what happens next according to its policy:

``fail-fast``
    Re-raise immediately, after attaching the
    :class:`~repro.runtime.results.RecoveryReport` (attempt timeline,
    fault schedule, partial-progress accounting) to the exception.

``retry``
    Restart the run from the last committed checkpoint with bounded
    exponential backoff.  Without epoch barriers the last committed
    checkpoint is the run start and a restart is a full replay — classic
    at-least-once semantics: tuples the failed attempt already delivered
    to sinks are delivered again by the successful one.  With barriers
    enabled (:class:`~repro.runtime.epochs.EpochConfig`), the failed
    attempt's exception carries its last committed
    :class:`~repro.runtime.epochs.EpochCheckpoint` and the restart
    resumes *after* it — exactly-once-per-epoch delivery: only the
    unfinished epoch's tuples are re-delivered.  Either way the report's
    ``duplicate_deliveries`` counter is exactly the measured overlap
    (deliveries beyond the resumed checkpoint's committed baseline).
    One deliberate exception: an injected *message loss* detected after
    a completed attempt always replays from the run start, because the
    loss may sit inside an already-committed epoch whose checkpoint
    would skip re-delivering it.

``degrade``
    Treat the failure's implicated sockets as lost hardware: shrink the
    machine model, re-run RLAS placement (the branch-and-bound
    :class:`~repro.core.bnb.PlacementOptimizer`) for the *same* execution
    graph on the surviving sockets, and restart on the new plan.
    Replication is kept — only placement moves — so the functional
    semantics of the run are unchanged.  The shrunken machine is
    ``machine.subset(n_surviving)``: on the symmetric NUMA topologies the
    machine models describe, dropping the first or the last socket is
    equivalent, so the subset stands in for whichever socket actually
    failed.

Faults injected via :mod:`repro.runtime.faults` are attempt-scoped, so a
recovery replay runs clean unless the fault plan deliberately schedules
faults on later attempts (which is how the supervisor's own giving-up
path is tested).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Callable

from repro.errors import ExecutionError
from repro.metrics.registry import NULL_REGISTRY, MetricsRegistry
from repro.runtime.backends import ExecutorBackend
from repro.runtime.epochs import EpochCheckpoint, EpochConfig
from repro.runtime.faults import FaultInjector, FaultPlan, merge_fault_summaries
from repro.runtime.lowering import RuntimeSpec, with_sockets
from repro.runtime.overload import decorrelated_jitter
from repro.runtime.results import RecoveryReport, RunResult

if TYPE_CHECKING:
    from repro.apps.profiles import ProfileSet
    from repro.hardware.machine import MachineSpec
    from repro.runtime.backends import OnEpoch

#: Recovery policies the supervisor implements (see docs/robustness.md).
RECOVERY_POLICIES = ("fail-fast", "retry", "degrade")


@dataclass
class DegradeContext:
    """Hardware/model context the ``degrade`` policy replans against.

    Parameters
    ----------
    profiles:
        Operator profiles the performance model scores placements with.
    machine:
        The full (pre-failure) machine specification.
    ingress_rate:
        Ingress rate the replan optimizes for; ``None`` re-derives the
        saturation rate of the *shrunken* machine (the degraded system
        should not be asked to sustain the full machine's load).
    max_nodes:
        Optional branch-and-bound node budget for the replan; ``None``
        uses the optimizer's adaptive default.
    """

    profiles: "ProfileSet"
    machine: "MachineSpec"
    ingress_rate: float | None = None
    max_nodes: int | None = None


class Supervisor(ExecutorBackend):
    """Run a lowered spec under a recovery policy.

    Parameters
    ----------
    backend:
        Delegate backend executing each attempt.
    policy:
        One of :data:`RECOVERY_POLICIES`.
    fault_plan:
        Optional :class:`~repro.runtime.faults.FaultPlan`; resolved into
        a concrete schedule against the spec at execute time, then armed
        per attempt.
    max_restarts:
        Upper bound on restarts (``retry``/``degrade``); exceeding it
        re-raises the last failure with the report attached.
    backoff_base_s / backoff_max_s:
        Backoff parameters between restarts.  Each restart sleeps one
        decorrelated-jitter step — ``min(max, uniform(base, prev * 3))``
        — so supervisors that failed together restart desynchronized
        instead of thundering-herding the shared sockets.
    backoff_seed:
        Seed for the jitter RNG, so a supervised run's backoff schedule
        is reproducible.
    degrade:
        :class:`DegradeContext`; required when ``policy="degrade"``.
    sleep:
        Injection point for the backoff sleep (tests pass a recorder).
    """

    name = "supervised"

    def __init__(
        self,
        backend: ExecutorBackend,
        *,
        policy: str = "fail-fast",
        fault_plan: FaultPlan | None = None,
        max_restarts: int = 3,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        backoff_seed: int = 0,
        degrade: DegradeContext | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if policy not in RECOVERY_POLICIES:
            raise ExecutionError(
                f"unknown recovery policy {policy!r}; "
                f"expected one of {RECOVERY_POLICIES}"
            )
        if max_restarts < 0:
            raise ExecutionError(f"max_restarts must be >= 0, got {max_restarts}")
        if backoff_base_s < 0 or backoff_max_s < 0:
            raise ExecutionError("backoff durations must be non-negative")
        if policy == "degrade" and degrade is None:
            raise ExecutionError(
                "policy 'degrade' needs a DegradeContext (profiles + machine) "
                "to replan against"
            )
        self.backend = backend
        self.policy = policy
        self.fault_plan = fault_plan
        self.max_restarts = max_restarts
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.backoff_seed = backoff_seed
        self._backoff_rng = random.Random(backoff_seed)
        self._prev_backoff_s = backoff_base_s
        self.degrade = degrade
        self.sleep = sleep

    # ------------------------------------------------------------------
    # ExecutorBackend API
    # ------------------------------------------------------------------
    def execute(
        self,
        spec: RuntimeSpec,
        max_events: int,
        registry: MetricsRegistry | None = None,
        *,
        injector: "FaultInjector | None" = None,
        epochs: "EpochConfig | None" = None,
        resume: "EpochCheckpoint | None" = None,
        on_epoch: "OnEpoch | None" = None,
    ) -> RunResult:
        registry = registry if registry is not None else NULL_REGISTRY
        schedule = (
            self.fault_plan.schedule(spec)
            if self.fault_plan is not None
            else (injector.schedule if injector is not None else ())
        )
        report = RecoveryReport(
            policy=self.policy,
            fault_schedule=[fault.to_dict() for fault in schedule],
        )
        started = perf_counter()
        summaries: list[dict[str, float]] = []
        degraded: list[int] = []
        current = spec
        attempt = 0
        checkpoint = resume
        while True:
            report.attempts += 1
            arm = (
                FaultInjector(
                    schedule,
                    attempt,
                    base_counts=checkpoint.tick_counts() if checkpoint else None,
                )
                if schedule
                else None
            )
            # Barrier kwargs are only forwarded when barriers are in play,
            # so epoch-unaware delegates (test doubles, minimal backends)
            # keep working unchanged.
            barrier_kwargs = (
                {"epochs": epochs, "resume": checkpoint, "on_epoch": on_epoch}
                if epochs is not None
                else {}
            )
            try:
                result = self.backend.execute(
                    current,
                    max_events,
                    registry,
                    injector=arm,
                    **barrier_kwargs,
                )
            except ExecutionError as exc:
                # A barrier-enabled attempt leaves its newest committed
                # checkpoint on the exception: the replay resumes after
                # it instead of from the run start.
                newer = getattr(exc, "last_checkpoint", None)
                if epochs is not None and newer is not None:
                    checkpoint = newer
                self._account_failure(
                    report, summaries, exc, attempt, started,
                    baseline=checkpoint.sink_received if checkpoint else 0,
                )
                if self.policy == "fail-fast" or report.restarts >= self.max_restarts:
                    self._fail(report, registry, exc, attempt, started)
                if self.policy == "degrade":
                    current = self._replan(
                        current, exc, degraded, report, attempt, started
                    )
                attempt = self._restart(
                    report, attempt, started, checkpoint=checkpoint
                )
                continue
            lost = (result.fault_summary or {}).get("dropped_tuples", 0)
            if lost:
                # Injected message loss: the run "completed" but tuples
                # vanished in flight.  Without delivery acks the loss is
                # only visible through the injector's accounting — treat
                # the attempt as failed so recovery replays it.  The drop
                # may sit inside an already-committed epoch, so this
                # replay always goes back to the run start (resuming from
                # a post-loss checkpoint would never re-deliver the lost
                # tuples).
                checkpoint = None
                exc = ExecutionError(
                    f"message loss detected: {int(lost)} tuples dropped "
                    "in flight",
                    partial_result=result,
                )
                self._account_failure(
                    report, summaries, exc, attempt, started, baseline=0
                )
                if self.policy == "fail-fast" or report.restarts >= self.max_restarts:
                    self._fail(report, registry, exc, attempt, started)
                attempt = self._restart(report, attempt, started)
                continue
            break
        report.resumed_from_epoch = (
            checkpoint.epoch if checkpoint is not None and report.restarts else None
        )
        if result.fault_summary:
            summaries.append(result.fault_summary)
        report.completed = True
        report.degraded_sockets = degraded
        report.record(attempt, perf_counter() - started, "completed")
        result.recovery = report
        result.fault_summary = (
            merge_fault_summaries(*summaries) if summaries else None
        )
        self._publish(registry, report, result.fault_summary)
        return result

    # ------------------------------------------------------------------
    # Attempt-loop helpers
    # ------------------------------------------------------------------
    def _account_failure(
        self,
        report: RecoveryReport,
        summaries: list[dict[str, float]],
        exc: ExecutionError,
        attempt: int,
        started: float,
        *,
        baseline: int = 0,
    ) -> None:
        report.record(
            attempt,
            perf_counter() - started,
            "fault-detected",
            error=type(exc).__name__,
            detail=str(exc).splitlines()[0] if str(exc) else "",
        )
        partial = exc.partial_result
        if partial is not None:
            # Everything the failed attempt delivered to sinks beyond the
            # checkpoint the replay resumes from will be delivered again:
            # the measured duplicate count.  ``baseline`` is 0 without
            # barriers (full replay re-delivers everything).
            report.duplicate_deliveries += max(
                0, partial.sink_received() - baseline
            )
            if partial.fault_summary:
                summaries.append(partial.fault_summary)

    def _restart(
        self,
        report: RecoveryReport,
        attempt: int,
        started: float,
        checkpoint: "EpochCheckpoint | None" = None,
    ) -> int:
        report.restarts += 1
        # Decorrelated jitter: grows like the exponential schedule in
        # expectation but desynchronizes supervisors that failed at the
        # same moment (thundering-herd restarts on shared sockets).
        # Seeded, so the schedule is reproducible; a zero base never
        # sleeps.
        backoff = self._prev_backoff_s = decorrelated_jitter(
            self._backoff_rng,
            self.backoff_base_s,
            self.backoff_max_s,
            self._prev_backoff_s,
        )
        if backoff > 0:
            self.sleep(backoff)
        report.record(
            attempt + 1,
            perf_counter() - started,
            "restart" if checkpoint is None else "resume",
            detail=(
                f"backoff {backoff:.3f}s"
                if checkpoint is None
                else f"backoff {backoff:.3f}s; resume after {checkpoint.describe()}"
            ),
        )
        return attempt + 1

    def _fail(
        self,
        report: RecoveryReport,
        registry: MetricsRegistry,
        exc: ExecutionError,
        attempt: int,
        started: float,
    ) -> None:
        report.completed = False
        report.record(
            attempt,
            perf_counter() - started,
            "failed",
            error=type(exc).__name__,
        )
        exc.recovery = report
        self._publish(registry, report, None)
        raise exc

    def _replan(
        self,
        spec: RuntimeSpec,
        exc: ExecutionError,
        degraded: list[int],
        report: RecoveryReport,
        attempt: int,
        started: float,
    ) -> RuntimeSpec:
        """Re-place the graph on the sockets surviving ``exc``."""
        # Local imports: the runtime layer must not depend on the
        # model/optimizer stack unless degrade is actually exercised.
        from repro.core.bnb import PlacementOptimizer
        from repro.core.model import PerformanceModel
        from repro.core.scaling import saturation_ingress

        ctx = self.degrade
        assert ctx is not None  # enforced in __init__
        failed = sorted(set(exc.failed_sockets)) or [
            max(rt.socket or 0 for rt in spec.tasks)
        ]
        for socket in failed:
            if socket not in degraded:
                degraded.append(socket)
        surviving = ctx.machine.n_sockets - len(degraded)
        if surviving < 1:
            raise ExecutionError(
                "degrade: no surviving sockets left to replan onto "
                f"(lost {sorted(degraded)})"
            )
        machine = ctx.machine.subset(surviving)
        model = PerformanceModel(ctx.profiles, machine)
        rate = ctx.ingress_rate or saturation_ingress(spec.topology, model)
        placement = PlacementOptimizer(
            model, rate, max_nodes=ctx.max_nodes
        ).optimize(spec.graph)
        if placement.plan is None or not placement.plan.is_complete:
            raise ExecutionError(
                f"degrade: no feasible placement on {surviving} surviving "
                f"socket(s)"
            )
        sockets = {
            rt.task_id: placement.plan.socket_of(rt.task_id) for rt in spec.tasks
        }
        report.replans += 1
        report.replanned_placements.append(
            {
                "attempt": attempt,
                "surviving_sockets": surviving,
                "modeled_throughput": placement.throughput,
                "placement": sockets,
            }
        )
        report.record(
            attempt,
            perf_counter() - started,
            "replan",
            detail=(
                f"lost socket(s) {sorted(degraded)}; replaced plan on "
                f"{surviving} socket(s), modeled throughput "
                f"{placement.throughput:,.0f} ev/s"
            ),
        )
        # Queue capacities and batch size are kept: degrade moves tasks,
        # it does not resize the memory the spec was admitted with.
        return with_sockets(spec, sockets)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _publish(
        self,
        registry: MetricsRegistry,
        report: RecoveryReport,
        fault_summary: dict[str, float] | None,
    ) -> None:
        if not registry.enabled:
            return
        prefix = "runtime.recovery"
        registry.gauge(f"{prefix}.attempts").set(report.attempts)
        registry.gauge(f"{prefix}.restarts").set(report.restarts)
        registry.gauge(f"{prefix}.replans").set(report.replans)
        registry.gauge(f"{prefix}.duplicate_deliveries").set(
            report.duplicate_deliveries
        )
        registry.gauge(f"{prefix}.completed").set(1.0 if report.completed else 0.0)
        registry.gauge(f"{prefix}.degraded_sockets").set(
            len(report.degraded_sockets)
        )
        if report.resumed_from_epoch is not None:
            registry.gauge(f"{prefix}.resumed_from_epoch").set(
                report.resumed_from_epoch
            )
        if fault_summary:
            for key, value in fault_summary.items():
                registry.gauge(f"runtime.faults.{key}").set(value)
