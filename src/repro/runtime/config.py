"""The options of one run, declared, normalized and validated once.

BriskStream lets the optimizer decide how a dataflow runs and carries a
handful of system parameters beside it (jumbo-tuple batch size, the
Eq. 5 queue budget).  :class:`RunConfig` is that handful for this
runtime.  Every door that takes run options —
:class:`~repro.dsps.engine.LocalEngine` and its ``from_plan``,
:func:`~repro.runtime.backends.resolve_backend`, the backend
constructors, ``repro run`` — takes them as keyword ``**options`` and
hands them to :meth:`RunConfig.of`; none re-declares, re-defaults or
re-checks a field, and an unknown option is a ``TypeError`` naming it.
The run report carries the result as ``meta.config``
(:meth:`RunConfig.to_dict`), so a config goes in and comes back out
with the outcome.  docs/runtime.md ("Run options") tabulates the fields
beside their CLI flags.

Sub-configs validate themselves where they are built
(:class:`~repro.runtime.overload.OverloadConfig`,
:class:`~repro.runtime.epochs.EpochConfig`, the
:class:`~repro.runtime.supervisor.Supervisor`'s policy rules); the one
cross-option rule — what acts only at an epoch barrier needs barriers —
is :func:`repro.runtime.epochs.require_barriers`, enforced where the
barriers are known.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from typing import TYPE_CHECKING, Any, Mapping

from repro.errors import ExecutionError
from repro.runtime.dataplane import DATAPLANE_NAMES, VECTORIZED_MODES
from repro.runtime.overload import OverloadConfig

if TYPE_CHECKING:
    from repro.runtime.faults import FaultPlan
    from repro.runtime.supervisor import DegradeContext

#: The options an executor backend reads.  They configure a backend
#: built from its *name*; the rest — lowering, ``epoch_interval``,
#: supervision — are the engine's, and are laid over an instance's config.
_EXECUTOR_OPTIONS = frozenset(
    {
        "vectorized",
        "n_workers",
        "ordered",
        "dataplane",
        "timeout_s",
        "heartbeat_timeout_s",
        "overload",
    }
)

def _given(options: Mapping[str, Any]) -> dict[str, Any]:
    """A door's keyword options by field name.  ``None`` means "the
    default" (or, laid over a config, "as it is") at every door."""
    return {name: value for name, value in options.items() if value is not None}


def reject_executor_options(instance: Any, options: Mapping[str, Any]) -> None:
    """A ready-made backend ``instance`` was configured by whoever built
    it: an executor option beside it would be dropped, so it is an error
    naming the option.  (``False`` spells "off", and asks for nothing.)"""
    for name, value in _given(options).items():
        if name in _EXECUTOR_OPTIONS and value is not False:
            raise ExecutionError(
                f"{name}= configures a backend built from its name; "
                f"a {type(instance).__name__} instance was passed, which "
                "would ignore it — set it on the instance"
            )


@dataclass(frozen=True)
class RunConfig:
    """How one run executes.  Build it with :meth:`of` (or lay options
    over an existing one with :meth:`over`); fields read back
    normalized."""

    # -- lowering ------------------------------------------------------
    #: Jumbo-tuple batch size on every producer/consumer pair.
    batch_size: int = 64
    #: Uniform per-edge tuple bound.  ``None`` together with
    #: ``queue_budget=None`` leaves queues unbounded (the seed engine's
    #: semantics) — except from a plan, which runs bounded by the
    #: lowering's default budget.
    queue_capacity: int | None = None
    #: Per-consumer-task buffered-tuple budget (Eq. 5), split over the
    #: consumer's input edges; ``queue_capacity`` overrides it.
    queue_budget: int | None = None

    # -- executor ------------------------------------------------------
    #: Name of the executor backend the run was built on (``"inline"``,
    #: ``"process"``, or a custom backend's own ``name``).
    backend: str = "inline"
    #: Columnar kernel dispatch (docs/vectorized.md): ``"auto"`` (use a
    #: vectorized kernel when operator and schema allow, falling through
    #: per batch otherwise) or ``"off"`` (scalar dispatch only).
    vectorized: str = "auto"
    #: Worker processes of the process backend — forked in full even
    #: when the plan or the placement search fills fewer.  ``None``: one
    #: per plan socket when the spec is placed, else ``min(4, cpu_count)``.
    n_workers: int | None = None
    #: Process backend: serve each task's input edges in strict
    #: declaration order — the inline backend's drain order, which
    #: order-sensitive multi-input topologies (LR) need for parity — at
    #: the cost of buffering: capacities are not enforced.  Default:
    #: arrival order.
    ordered: bool = False
    #: Process backend: transport for remote batches
    #: (docs/dataplane.md): ``"shm"`` (binary-codec payloads and markers
    #: written once, as frames, into per-pair shared-memory rings; a
    #: host without working POSIX shared memory gets the pickle plane
    #: instead, and the run's placement says so) or ``"pickle"``
    #: (pickled payloads inside bounded ``mp.Queue`` inboxes — the
    #: reference the parity tests compare against).
    dataplane: str = "shm"
    #: Process backend: bound on the whole execution.  One deadline,
    #: armed when ``execute()`` starts and shipped to the workers once,
    #: that every epoch, barrier observer and migration relaunch draws
    #: on; exceeding it raises :class:`~repro.errors.StallError`.  A
    #: supervised retry is a new ``execute()`` with a new deadline.
    timeout_s: float = 300.0
    #: Process backend: a worker whose heartbeat is older than this is
    #: stalled, says the parent's watchdog.  Workers stamp it once per
    #: scheduling loop and in every wait, every few milliseconds.
    heartbeat_timeout_s: float = 10.0

    # -- barriers ------------------------------------------------------
    #: Commit a consistent operator-state checkpoint every this many
    #: events per spout replica (docs/reconfiguration.md); supervised
    #: ``retry`` then resumes from the last commit instead of replaying.
    epoch_interval: int | None = None
    #: Overload control (docs/overload.md) — lag SLOs and the shed /
    #: throttle / replan ladder, stepped once per barrier commit:
    #: ``True`` for the default
    #: :class:`~repro.runtime.overload.OverloadConfig`, a mapping of its
    #: keywords, or a config.  Needs barriers.
    overload: "OverloadConfig | Mapping[str, Any] | bool | None" = None

    # -- supervision ---------------------------------------------------
    #: Chaos runs (docs/robustness.md); implies supervised execution.
    fault_plan: "FaultPlan | None" = None
    #: ``"fail-fast"`` / ``"retry"`` / ``"degrade"``: wrap the backend in
    #: a :class:`~repro.runtime.supervisor.Supervisor`.
    recovery_policy: str | None = None
    #: Restart bound for ``retry`` / ``degrade``.
    max_restarts: int = 3
    #: What ``degrade`` replans against; required by that policy.
    degrade: "DegradeContext | None" = None

    def __post_init__(self) -> None:
        put = object.__setattr__  # frozen: normalize in place, once
        if isinstance(self.overload, bool):
            put(self, "overload", OverloadConfig() if self.overload else None)
        elif isinstance(self.overload, Mapping):
            put(self, "overload", OverloadConfig(**self.overload))
        if self.batch_size < 1:
            raise ExecutionError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.queue_capacity is not None and self.queue_capacity <= 0:
            raise ExecutionError(
                f"queue_capacity must be positive, got {self.queue_capacity}"
            )
        if self.queue_budget is not None and self.queue_budget <= 0:
            raise ExecutionError(
                f"queue_budget must be positive, got {self.queue_budget}"
            )
        if self.vectorized not in VECTORIZED_MODES:
            raise ExecutionError(
                f"unknown vectorized mode {self.vectorized!r}; "
                f"expected one of {VECTORIZED_MODES}"
            )
        if self.n_workers is not None and self.n_workers < 1:
            raise ExecutionError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.dataplane not in DATAPLANE_NAMES:
            raise ExecutionError(
                f"unknown dataplane {self.dataplane!r}; "
                f"expected one of {DATAPLANE_NAMES}"
            )
        if self.timeout_s <= 0:
            raise ExecutionError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.heartbeat_timeout_s <= 0:
            raise ExecutionError(
                f"heartbeat_timeout_s must be positive, got {self.heartbeat_timeout_s}"
            )

    @classmethod
    def of(cls, **options: Any) -> "RunConfig":
        """A door's keyword options as a config."""
        return cls(**_given(options))

    def over(self, **options: Any) -> "RunConfig":
        """This config with a door's keyword options laid over it."""
        return replace(self, **_given(options))

    def lowering(self) -> dict[str, Any]:
        """The keywords of :func:`~repro.runtime.lowering.lower_graph` /
        ``lower_plan``; an unset budget is left to the lowering's own
        default (a plan runs bounded)."""
        options = {
            "batch_size": self.batch_size,
            "queue_capacity": self.queue_capacity,
        }
        if self.queue_budget is not None:
            options["queue_budget"] = self.queue_budget
        return options

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe, and equal for equal configs: modes and numbers
        verbatim, a sub-config as the dict of its fields, any other
        object (profiles, machine models) as its type's name."""
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(value: Any, nested: bool = False) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_plain(item, nested) for item in value]
    if is_dataclass(value) and not nested:
        return {f.name: _plain(getattr(value, f.name), True) for f in fields(value)}
    return type(value).__name__
