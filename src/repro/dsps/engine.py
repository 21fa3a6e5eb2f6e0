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

from functools import partial
from typing import Any, Callable, Mapping

from repro.dsps.graph import ExecutionGraph
from repro.dsps.topology import Topology
from repro.metrics.registry import NULL_REGISTRY, MetricsRegistry
from repro.runtime.backends import ExecutorBackend, resolve_backend
from repro.runtime.epochs import EpochConfig, require_barriers
from repro.runtime.lowering import RuntimeSpec, lower_graph, lower_plan
from repro.runtime.reconfigure import ReconfigController
from repro.runtime.results import RunResult, TaskStats
from repro.runtime.supervisor import Supervisor

__all__ = ["LocalEngine", "RunResult", "TaskStats"]


class LocalEngine:
    """Functional executor for a topology, pluggable in how it runs.

    Both constructors take the run's options as keywords — the fields of
    :class:`~repro.runtime.config.RunConfig`, which documents, defaults
    and validates each; the result reads back as ``engine.config``.
    Beside them:

    registry:
        Metrics sink for run instrumentation (tuple counts, queue
        depths, per-operator wall-clock).  Defaults to the shared
        :data:`~repro.metrics.registry.NULL_REGISTRY`, in which case
        nothing is timed or published.  A live registry runs the same
        program — the same kernels and columnar spouts — and times it.
    backend:
        Executor backend name (``"inline"``/``"process"``) or a
        ready-made :class:`~repro.runtime.backends.ExecutorBackend`,
        which carries its own executor options: beside an instance each
        of those raises :class:`~repro.errors.ExecutionError`, and the
        engine's own (lowering, ``epoch_interval``, supervision) are
        laid over the instance's config.
    reconfig:
        Optional :class:`~repro.runtime.reconfigure.ReconfigController`
        consulted at every barrier commit; when the observed workload
        drifts it re-plans the placement and migrates the running
        dataflow live.  Requires ``epoch_interval``.
    """

    def __init__(
        self,
        topology: Topology,
        replication: Mapping[str, int] | None = None,
        batch_size: int = 64,
        registry: MetricsRegistry | None = None,
        *,
        backend: "str | ExecutorBackend" = "inline",
        reconfig: ReconfigController | None = None,
        **options: Any,
    ) -> None:
        """Run ``topology`` with ``replication`` replicas per component
        (default: each component's parallelism hint), unplaced."""
        if replication is None:
            replication = {
                name: spec.parallelism_hint
                for name, spec in topology.components.items()
            }
        graph = ExecutionGraph(topology, replication, group_size=1)
        self._build(
            partial(lower_graph, topology, graph),
            registry,
            backend,
            reconfig,
            {"batch_size": batch_size, **options},
        )

    @classmethod
    def from_plan(
        cls,
        plan,
        *,
        registry: MetricsRegistry | None = None,
        backend: "str | ExecutorBackend" = "inline",
        reconfig: ReconfigController | None = None,
        **options: Any,
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
        engine = cls.__new__(cls)
        engine._build(partial(lower_plan, plan), registry, backend, reconfig, options)
        return engine

    def _build(
        self,
        lower: Callable[..., RuntimeSpec],
        registry: MetricsRegistry | None,
        backend: "str | ExecutorBackend",
        reconfig: ReconfigController | None,
        options: Mapping[str, Any],
    ) -> None:
        """Options → config → lowered spec → (supervised) backend."""
        resolved = resolve_backend(backend, **options)
        built = resolved is not backend  # here, by name, from our options
        config = (
            resolved.config
            if built
            else backend.config.over(backend=backend.name, **options)
        )
        # A ready-made instance keeps its executor options, and may get
        # barriers for them at execute(): the engine vouches for its own.
        require_barriers(
            config.epoch_interval,
            overload=config.overload if built else None,
            reconfig=reconfig,
        )
        self.config = config
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.reconfig = reconfig
        self.epochs = (
            EpochConfig(interval=config.epoch_interval)
            if config.epoch_interval is not None
            else None
        )
        self.spec = lower(**config.lowering())
        self.topology = self.spec.topology
        self.graph = self.spec.graph
        if config.fault_plan is not None or config.recovery_policy is not None:
            resolved = Supervisor(
                resolved,
                policy=config.recovery_policy or "fail-fast",
                fault_plan=config.fault_plan,
                max_restarts=config.max_restarts,
                degrade=config.degrade,
            )
        self.backend = resolved

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
