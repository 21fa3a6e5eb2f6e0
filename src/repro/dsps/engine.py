"""Functional local engine: a facade over the unified runtime layer.

Historically this module *was* the executor: it expanded the replicated
dataflow into tasks, queues and routing tables and walked them inline.
That expansion now lives in :mod:`repro.runtime.lowering` (shared with the
discrete-event simulator) and the execution strategies live behind
:class:`repro.runtime.backends.ExecutorBackend`:

* ``backend="inline"`` (default) — deterministic single-process execution
  with the seed engine's exact semantics; with bounded queues it adds
  blocking-producer backpressure.
* ``backend="process"`` — parallel execution on multiprocessing workers
  grouped by plan socket (see :mod:`repro.runtime.process_pool`).

The engine keeps serving its three original purposes — validating
application logic, measuring selectivities/tuple sizes for model
instantiation, and feeding the profiler — while delegating *how* tuples
move to the chosen backend.  :class:`TaskStats` and :class:`RunResult`
are re-exported from :mod:`repro.runtime.results` for compatibility.
"""

from __future__ import annotations

from typing import Mapping

from repro.dsps.graph import ExecutionGraph
from repro.dsps.topology import Topology
from repro.errors import ExecutionError
from repro.metrics.registry import NULL_REGISTRY, MetricsRegistry
from repro.runtime.backends import ExecutorBackend, resolve_backend
from repro.runtime.batching import AdaptiveBatchConfig
from repro.runtime.epochs import EpochConfig
from repro.runtime.faults import FaultPlan
from repro.runtime.fusion import FusionConfig, as_fusion_config, plan_fusion
from repro.runtime.lowering import RuntimeSpec, lower_graph, lower_plan
from repro.runtime.overload import OverloadConfig
from repro.runtime.reconfigure import ReconfigController
from repro.runtime.results import RunResult, TaskStats
from repro.runtime.supervisor import DegradeContext, Supervisor

__all__ = ["LocalEngine", "RunResult", "TaskStats"]


def _validate_queue_bounds(
    queue_capacity: int | None, queue_budget: int | None
) -> None:
    if queue_capacity is not None and queue_capacity <= 0:
        raise ExecutionError(
            f"queue_capacity must be positive, got {queue_capacity}"
        )
    if queue_budget is not None and queue_budget <= 0:
        raise ExecutionError(f"queue_budget must be positive, got {queue_budget}")


def _validate_batch_size(batch_size: int) -> int:
    if batch_size < 1:
        raise ExecutionError(f"batch_size must be >= 1, got {batch_size}")
    return batch_size


def _coerce_adaptive(
    adaptive_batch: "AdaptiveBatchConfig | bool | None",
    epoch_interval: int | None,
) -> AdaptiveBatchConfig | None:
    """Normalize the engine's ``adaptive_batch`` argument.

    ``True`` selects the default AIMD parameters; a config object is
    passed through.  The controller only acts at epoch barriers, so
    enabling it without ``epoch_interval`` would silently do nothing —
    fail loudly instead.
    """
    if adaptive_batch is None or adaptive_batch is False:
        return None
    config = (
        AdaptiveBatchConfig() if adaptive_batch is True else adaptive_batch
    )
    if epoch_interval is None:
        raise ExecutionError(
            "adaptive batch sizing adjusts at epoch barriers: "
            "pass epoch_interval together with adaptive_batch"
        )
    return config


def _coerce_overload(
    overload: "OverloadConfig | Mapping[str, object] | bool | None",
    epoch_interval: int | None,
) -> OverloadConfig | None:
    """Normalize the engine's ``overload`` argument.

    ``True`` selects the default knobs; a mapping is expanded into
    :class:`~repro.runtime.overload.OverloadConfig` kwargs (the CLI
    path); a config object is passed through.  The ladder only steps at
    epoch barriers, so arming it without ``epoch_interval`` would
    silently do nothing — fail loudly instead.
    """
    if overload is None or overload is False:
        return None
    if overload is True:
        config = OverloadConfig()
    elif isinstance(overload, OverloadConfig):
        config = overload
    else:
        config = OverloadConfig(**dict(overload))
    if epoch_interval is None:
        raise ExecutionError(
            "overload control steps at epoch barriers: "
            "pass epoch_interval together with overload"
        )
    return config


def _barriers(
    epoch_interval: int | None, reconfig: ReconfigController | None
) -> EpochConfig | None:
    """Validate and build the epoch-barrier configuration."""
    if reconfig is not None and epoch_interval is None:
        raise ExecutionError(
            "live reconfiguration requires epoch barriers: "
            "pass epoch_interval together with reconfig"
        )
    if epoch_interval is None:
        return None
    return EpochConfig(interval=epoch_interval)


def _supervise(
    backend: ExecutorBackend,
    fault_plan: FaultPlan | None,
    recovery_policy: str | None,
    max_restarts: int,
    degrade: DegradeContext | None,
) -> ExecutorBackend:
    """Wrap ``backend`` in a Supervisor when fault tolerance is requested."""
    if fault_plan is None and recovery_policy is None:
        return backend
    return Supervisor(
        backend,
        policy=recovery_policy or "fail-fast",
        fault_plan=fault_plan,
        max_restarts=max_restarts,
        degrade=degrade,
    )


class LocalEngine:
    """Functional executor for a topology, pluggable in how it runs."""

    def __init__(
        self,
        topology: Topology,
        replication: Mapping[str, int] | None = None,
        batch_size: int = 64,
        registry: MetricsRegistry | None = None,
        *,
        backend: "str | ExecutorBackend" = "inline",
        queue_capacity: int | None = None,
        queue_budget: int | None = None,
        n_workers: int | None = None,
        dataplane: str | None = None,
        vectorized: str | None = None,
        string_dict: str | None = None,
        fault_plan: FaultPlan | None = None,
        recovery_policy: str | None = None,
        max_restarts: int = 3,
        degrade: DegradeContext | None = None,
        epoch_interval: int | None = None,
        reconfig: ReconfigController | None = None,
        fuse: "str | FusionConfig | None" = None,
        adaptive_batch: "AdaptiveBatchConfig | bool | None" = None,
        overload: "OverloadConfig | Mapping[str, object] | bool | None" = None,
    ) -> None:
        """
        Parameters
        ----------
        topology:
            The validated application DAG.
        replication:
            Replicas per component; defaults to each component's
            parallelism hint.
        batch_size:
            Jumbo-tuple batch size used on every producer/consumer pair.
        registry:
            Metrics sink for run instrumentation (tuple counts, queue
            depths, per-operator wall-clock).  Defaults to the shared
            :data:`~repro.metrics.registry.NULL_REGISTRY`, in which case
            the hot path stays the uninstrumented loop.
        backend:
            Executor backend name (``"inline"``/``"process"``) or a
            ready-made :class:`~repro.runtime.backends.ExecutorBackend`
            — which carries its own options: the backend arguments
            below configure a backend built from its name, and beside
            an instance each raises :class:`~repro.errors.ExecutionError`.
        queue_capacity:
            Uniform per-edge tuple bound.  ``None`` together with
            ``queue_budget=None`` leaves queues unbounded (the historical
            engine semantics, still the default).
        queue_budget:
            Per-consumer-task buffered-tuple budget, split over the
            consumer's input edges (mutually exclusive with
            ``queue_capacity``).
        n_workers:
            Worker-process count when ``backend="process"`` is given by
            name; ignored by the inline backend.
        dataplane:
            Remote-batch transport when ``backend="process"`` is given by
            name: ``"pickle"`` (default) or ``"shm"`` (shared-memory
            rings + binary codec; see docs/dataplane.md).  Validated but
            otherwise ignored for the single-process inline backend.
        vectorized:
            Columnar kernel dispatch when the backend is given by name:
            ``"auto"`` (default — use vectorized kernels when numpy and
            the operator support them), ``"on"`` (fail loudly without
            numpy) or ``"off"`` (scalar dispatch only); see
            docs/vectorized.md.
        string_dict:
            Adaptive string-dictionary encoding on the shm data plane
            when the backend is given by name: ``"auto"`` (default —
            per-edge string columns promote to dictionary codes once
            observed repetition warrants it), ``"on"`` (every string
            column promotes immediately) or ``"off"`` (raw strings on
            the wire); see docs/dataplane.md.  Accepted-and-ignored by
            the inline backend, which moves no bytes.
        fault_plan:
            Optional :class:`~repro.runtime.faults.FaultPlan` — chaos
            runs; implies supervised execution.
        recovery_policy:
            Optional policy (``fail-fast``/``retry``/``degrade``) — wraps
            the backend in a :class:`~repro.runtime.supervisor.Supervisor`.
        max_restarts:
            Restart bound for ``retry``/``degrade`` recovery.
        degrade:
            :class:`~repro.runtime.supervisor.DegradeContext`; required
            when ``recovery_policy="degrade"``.
        epoch_interval:
            When set, run with *epoch barriers*: commit a consistent
            operator-state checkpoint every ``epoch_interval`` events per
            spout replica.  Supervised ``retry`` runs then resume from
            the last committed epoch instead of replaying from the start
            (see docs/reconfiguration.md).
        reconfig:
            Optional :class:`~repro.runtime.reconfigure.ReconfigController`
            consulted at every barrier commit; when the observed workload
            drifts it re-plans the placement and migrates the running
            dataflow live.  Requires ``epoch_interval``.
        fuse:
            Runtime operator-chain fusion (see docs/fusion.md): a mode
            name (``"auto"``/``"on"``/``"off"``) or a full
            :class:`~repro.runtime.fusion.FusionConfig`.  ``None`` (the
            default) keeps fusion off — the historical behavior.
        adaptive_batch:
            Per-edge AIMD batch sizing: ``True`` for the default
            :class:`~repro.runtime.batching.AdaptiveBatchConfig`, or a
            config object.  Requires ``epoch_interval`` (adjustments
            happen only at barriers).
        overload:
            Overload control (see docs/overload.md): ``True`` for the
            default :class:`~repro.runtime.overload.OverloadConfig`, a
            mapping of its kwargs, or a config object.  Arms per-edge
            lag tracking, the hysteretic degradation ladder (batch
            shrink / load shedding / spout throttling / degrade replan)
            and the ``data.overload`` run-report timeline.  Requires
            ``epoch_interval`` (the ladder steps only at barriers).
        """
        _validate_queue_bounds(queue_capacity, queue_budget)
        _validate_batch_size(batch_size)
        self.topology = topology
        if replication is None:
            replication = {
                name: spec.parallelism_hint
                for name, spec in topology.components.items()
            }
        self.graph = ExecutionGraph(topology, replication, group_size=1)
        self.batch_size = batch_size
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.epochs = _barriers(epoch_interval, reconfig)
        self.reconfig = reconfig
        fusion = as_fusion_config(fuse)
        batching = _coerce_adaptive(adaptive_batch, epoch_interval)
        overload_config = _coerce_overload(overload, epoch_interval)
        self.spec = plan_fusion(
            lower_graph(
                topology,
                self.graph,
                batch_size=batch_size,
                queue_capacity=queue_capacity,
                queue_budget=queue_budget,
            ),
            fusion,
        )
        self.backend = _supervise(
            resolve_backend(
                backend,
                n_workers=n_workers,
                dataplane=dataplane,
                vectorized=vectorized,
                string_dict=string_dict,
                fuse=fusion.mode,
                batching=batching,
                overload=overload_config,
            ),
            fault_plan,
            recovery_policy,
            max_restarts,
            degrade,
        )

    @classmethod
    def from_plan(
        cls,
        plan,
        *,
        batch_size: int = 64,
        registry: MetricsRegistry | None = None,
        backend: "str | ExecutorBackend" = "inline",
        queue_capacity: int | None = None,
        queue_budget: int | None = None,
        n_workers: int | None = None,
        dataplane: str | None = None,
        vectorized: str | None = None,
        string_dict: str | None = None,
        fault_plan: FaultPlan | None = None,
        recovery_policy: str | None = None,
        max_restarts: int = 3,
        degrade: DegradeContext | None = None,
        epoch_interval: int | None = None,
        reconfig: ReconfigController | None = None,
        fuse: "str | FusionConfig | None" = None,
        adaptive_batch: "AdaptiveBatchConfig | bool | None" = None,
        overload: "OverloadConfig | Mapping[str, object] | bool | None" = None,
    ) -> "LocalEngine":
        """Build an engine from a complete :class:`~repro.core.plan.ExecutionPlan`.

        Plan-driven engines run *bounded* by default: capacities derive
        from the plan's queue budget, and tasks carry their socket
        placement (which the process backend uses to group workers).
        This is the entry point live reconfiguration uses: the spec's
        task ids line up with the optimized plan's expanded graph, so a
        :class:`~repro.runtime.reconfigure.ReconfigController` built from
        the same plan can map replanned placements onto running tasks.
        """
        _validate_queue_bounds(queue_capacity, queue_budget)
        _validate_batch_size(batch_size)
        fusion = as_fusion_config(fuse)
        batching = _coerce_adaptive(adaptive_batch, epoch_interval)
        overload_config = _coerce_overload(overload, epoch_interval)
        spec = plan_fusion(
            lower_plan(
                plan,
                batch_size=batch_size,
                queue_capacity=queue_capacity,
                **(
                    {}
                    if queue_budget is None
                    else {"queue_budget": queue_budget}
                ),
            ),
            fusion,
        )
        engine = cls.__new__(cls)
        engine.topology = spec.topology
        engine.graph = spec.graph
        engine.batch_size = batch_size
        engine.registry = registry if registry is not None else NULL_REGISTRY
        engine.epochs = _barriers(epoch_interval, reconfig)
        engine.reconfig = reconfig
        engine.spec = spec
        engine.backend = _supervise(
            resolve_backend(
                backend,
                n_workers=n_workers,
                dataplane=dataplane,
                vectorized=vectorized,
                string_dict=string_dict,
                fuse=fusion.mode,
                batching=batching,
                overload=overload_config,
            ),
            fault_plan,
            recovery_policy,
            max_restarts,
            degrade,
        )
        return engine

    def run(self, max_events: int) -> RunResult:
        """Ingest up to ``max_events`` external events per spout replica and
        process the DAG to completion.

        Returns per-task statistics plus the live sink instances, whose
        application-level state (counters, detected spikes...) callers can
        inspect directly.
        """
        kwargs: dict = {}
        if self.epochs is not None:
            kwargs["epochs"] = self.epochs
            if self.reconfig is not None:
                kwargs["on_epoch"] = self.reconfig.on_epoch
        result = self.backend.execute(
            self.spec, max_events, self.registry, **kwargs
        )
        if self.reconfig is not None:
            result.reconfig = self.reconfig.report
        return result

    def describe(self) -> str:
        """Human-readable summary of the lowered runtime configuration."""
        return self.spec.describe()
