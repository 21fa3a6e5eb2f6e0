"""Unified runtime layer: lowering + pluggable executor backends.

This package owns the single translation from ``(Topology, ExecutionPlan)``
to runnable state (:mod:`repro.runtime.lowering`), the result types every
executor produces (:mod:`repro.runtime.results`), and the executor
backends themselves (:mod:`repro.runtime.backends`,
:mod:`repro.runtime.process_pool`), configured by the one declaration of
a run's options (:mod:`repro.runtime.config`).  The functional engine facade
(:class:`repro.dsps.engine.LocalEngine`) and the discrete-event simulator
both build on the same lowering, so live runs and simulated runs share
queue topology, routing and iteration orders by construction.

The fault-tolerance layer (:mod:`repro.runtime.faults`,
:mod:`repro.runtime.supervisor`) adds deterministic fault injection and
supervised recovery (``fail-fast``/``retry``/``degrade``) on top of any
backend; see docs/robustness.md.

The elasticity layer (:mod:`repro.runtime.epochs`,
:mod:`repro.runtime.reconfigure`) adds epoch barriers — periodic
consistent state checkpoints every backend can commit and resume from —
and a live reconfiguration controller that re-plans the placement at a
barrier when the observed workload drifts; see docs/reconfiguration.md.

The fusion layer (:mod:`repro.runtime.fusion`) derives fused operator
chains from where each executor runs its tasks (an exclusive edge inside
one process executes inline, skipping its queue and codec); see
docs/fusion.md.

The placement layer (:mod:`repro.runtime.placement`, imported by the
process backend on demand: it sits on the optimizer stack, which imports
this package) places the tasks of an unplaced spec on worker processes
with RLAS, the workers standing in for sockets; see docs/runtime.md.

The overload-control layer (:mod:`repro.runtime.overload`) adds lag
SLOs, a hysteretic degradation ladder (deterministic load shedding,
spout throttling, degrade replans), also stepped at epoch
barriers; see docs/overload.md.
"""

from repro.runtime.backends import (
    BACKEND_NAMES,
    ExecutorBackend,
    InlineBackend,
    publish_engine_metrics,
    resolve_backend,
)
from repro.runtime.config import RunConfig
from repro.runtime.epochs import (
    EpochCheckpoint,
    EpochCommit,
    EpochConfig,
    EpochReport,
    Migration,
    check_serializable,
)
from repro.runtime.dataplane import (
    DATAPLANE_NAMES,
    STRING_DICT_MODES,
    VECTORIZED_MODES,
    BatchCodec,
    ChannelEndpoint,
    ColumnBatch,
    DictColumn,
    PickleQueueChannel,
    ShmRingChannel,
    shm_available,
)
from repro.runtime.faults import (
    FAULT_KINDS,
    Fault,
    FaultInjector,
    FaultPlan,
    merge_fault_summaries,
)
from repro.runtime.fusion import FusionConfig, plan_fusion, with_chains
from repro.runtime.overload import (
    RUNGS,
    SHED_MODES,
    DegradationLadder,
    LagTracker,
    OverloadConfig,
    OverloadDetector,
    OverloadManager,
    OverloadReport,
    Shedder,
    decorrelated_jitter,
    shed_score,
)
from repro.runtime.lowering import (
    DEFAULT_QUEUE_BUDGET,
    RouteSpec,
    RuntimeSpec,
    TaskRuntime,
    instantiate_task,
    instantiate_tasks,
    lower_graph,
    lower_plan,
    with_sockets,
)
from repro.runtime.process_pool import ProcessPoolBackend
from repro.runtime.reconfigure import ReconfigController, ReconfigReport
from repro.runtime.results import (
    Placement,
    RecoveryEvent,
    RecoveryReport,
    RunResult,
    TaskStats,
)
from repro.runtime.supervisor import (
    RECOVERY_POLICIES,
    DegradeContext,
    Supervisor,
)

__all__ = [
    "BACKEND_NAMES",
    "BatchCodec",
    "ChannelEndpoint",
    "ColumnBatch",
    "DATAPLANE_NAMES",
    "STRING_DICT_MODES",
    "VECTORIZED_MODES",
    "DictColumn",
    "DEFAULT_QUEUE_BUDGET",
    "DegradeContext",
    "EpochCheckpoint",
    "EpochCommit",
    "EpochConfig",
    "EpochReport",
    "ExecutorBackend",
    "Migration",
    "ReconfigController",
    "ReconfigReport",
    "check_serializable",
    "PickleQueueChannel",
    "ShmRingChannel",
    "shm_available",
    "FAULT_KINDS",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "FusionConfig",
    "DegradationLadder",
    "LagTracker",
    "OverloadConfig",
    "OverloadDetector",
    "OverloadManager",
    "OverloadReport",
    "RUNGS",
    "SHED_MODES",
    "Shedder",
    "decorrelated_jitter",
    "shed_score",
    "InlineBackend",
    "ProcessPoolBackend",
    "RECOVERY_POLICIES",
    "Placement",
    "RecoveryEvent",
    "RecoveryReport",
    "RouteSpec",
    "RunConfig",
    "RunResult",
    "RuntimeSpec",
    "Supervisor",
    "TaskRuntime",
    "TaskStats",
    "instantiate_task",
    "instantiate_tasks",
    "lower_graph",
    "lower_plan",
    "merge_fault_summaries",
    "plan_fusion",
    "publish_engine_metrics",
    "resolve_backend",
    "with_chains",
    "with_sockets",
]
