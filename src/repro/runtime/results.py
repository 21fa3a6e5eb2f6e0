"""Run results shared by every executor backend.

:class:`TaskStats` and :class:`RunResult` used to live inside the
functional engine; they moved here when the runtime layer was extracted so
that every backend (inline, process pool) produces the same result shape.
``repro.dsps.engine`` re-exports both names for backward compatibility.

The fault-tolerant runtime adds two optional layers on top of the base
result: a ``fault_summary`` (injected-fault counters a backend collected
during the run) and a ``recovery`` report (the supervisor's attempt
timeline — restarts, replans, duplicate-delivery accounting).  Both stay
``None`` for plain unsupervised runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from repro.dsps.operators import Sink
from repro.metrics.reporting import relative_error

if TYPE_CHECKING:
    from repro.metrics.registry import MetricsRegistry


@dataclass
class RecoveryEvent:
    """One entry of the supervisor's recovery timeline."""

    attempt: int
    elapsed_s: float
    kind: str  # "fault-detected" | "restart" | "resume" | "replan" | "completed" | "failed"
    error: str = ""
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "attempt": self.attempt,
            "elapsed_s": round(self.elapsed_s, 6),
            "kind": self.kind,
            "error": self.error,
            "detail": self.detail,
        }


@dataclass
class RecoveryReport:
    """Summary of one supervised execution (see docs/robustness.md).

    ``duplicate_deliveries`` counts sink deliveries made by *failed*
    attempts: under the supervisor's replay-from-last-checkpoint retry
    semantics every one of those tuples is delivered again by the
    successful attempt, so the counter is exactly the at-least-once
    duplicate count an external sink would have observed.
    """

    policy: str
    attempts: int = 0
    restarts: int = 0
    replans: int = 0
    duplicate_deliveries: int = 0
    completed: bool = False
    #: Epoch index the successful attempt resumed after, or None when the
    #: run replayed from the start (no committed checkpoint / no barriers).
    resumed_from_epoch: int | None = None
    degraded_sockets: list[int] = field(default_factory=list)
    #: One entry per degrade replan: the surviving-socket placement the
    #: optimizer produced ({"attempt", "surviving_sockets", "placement"}).
    replanned_placements: list[dict] = field(default_factory=list)
    fault_schedule: list[dict] = field(default_factory=list)
    events: list[RecoveryEvent] = field(default_factory=list)

    def record(
        self,
        attempt: int,
        elapsed_s: float,
        kind: str,
        error: str = "",
        detail: str = "",
    ) -> None:
        self.events.append(
            RecoveryEvent(
                attempt=attempt,
                elapsed_s=elapsed_s,
                kind=kind,
                error=error,
                detail=detail,
            )
        )

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "attempts": self.attempts,
            "restarts": self.restarts,
            "replans": self.replans,
            "duplicate_deliveries": self.duplicate_deliveries,
            "completed": self.completed,
            "resumed_from_epoch": self.resumed_from_epoch,
            "degraded_sockets": list(self.degraded_sockets),
            "replanned_placements": list(self.replanned_placements),
            "fault_schedule": list(self.fault_schedule),
            "timeline": [event.to_dict() for event in self.events],
        }


@dataclass
class Placement:
    """One process-backend ``execute()``'s task→worker decision (see
    :mod:`repro.runtime.placement`), run-report ready."""

    owner: dict[int, int]
    n_workers: int
    #: ``plan`` (the spec carried sockets), ``calibrated`` (Te, selectivity
    #: and traffic measured on the run's first events; message and codec
    #: costs :mod:`repro.runtime.placement`'s constants) or ``prior``
    #: (nothing measured).
    source: str
    cut_edges: list[tuple[int, int]]
    #: The data plane the pool's cut edges ran over: ``shm``, or
    #: ``pickle`` — by name, or because the host has no POSIX shm.
    #: Empty until a pool is launched under the placement.
    dataplane: str = ""
    #: The fused chains the pool forked with (task ids, head first):
    #: derived from ``owner``, never searched.  Empty until a pool is
    #: launched under the placement.
    chains: list[tuple[int, ...]] = field(default_factory=list)
    #: Modelled load of each worker relative to the busiest one.
    load_share: list[float] = field(default_factory=list)
    #: Ingress the busiest worker's core admits (calibrated runs only:
    #: the prior's costs have no unit).
    predicted_events_per_s: float | None = None
    #: Ring messages per ingested event over the cut edges.
    messages_per_event: float | None = None
    sample_events: int = 0
    calibrate_ms: float = 0.0
    search_ms: float = 0.0
    bnb_nodes: int = 0
    delivered_events_per_s: float | None = None
    #: |predicted - delivered| / delivered (Table 4, for this runtime).
    rel_error: float | None = None

    def settle(self, events: int, seconds: float) -> None:
        """Score the prediction against what the run delivered while it
        streamed (pool start-up and barrier commits excluded)."""
        if events and seconds > 0:
            self.delivered_events_per_s = events / seconds
            if self.predicted_events_per_s is not None:
                self.rel_error = relative_error(
                    self.delivered_events_per_s, self.predicted_events_per_s
                )

    def to_dict(self) -> dict:
        return asdict(self)

    def describe(self) -> str:
        parts = [
            f"[{self.source}] "
            + " | ".join(
                ",".join(str(t) for t, w in sorted(self.owner.items()) if w == worker)
                for worker in range(self.n_workers)
            ),
            f"{len(self.cut_edges)} cut edges"
            + (f" over {self.dataplane}" if self.dataplane else ""),
            f"{len(self.chains)} fused chains",
        ]
        if self.predicted_events_per_s is not None:
            parts.append(f"{self.messages_per_event:.3f} messages/event")
            parts.append(f"predicted {self.predicted_events_per_s:,.0f} events/s")
        if self.rel_error is not None:
            parts[-1] += (
                f" (delivered {self.delivered_events_per_s:,.0f}, "
                f"rel. error {self.rel_error:.2f})"
            )
        parts.append(
            f"calibrate {self.calibrate_ms:.1f} ms, search {self.search_ms:.1f} ms, "
            f"{self.bnb_nodes} B&B nodes"
        )
        return "; ".join(parts)

    def publish(self, registry: "MetricsRegistry") -> None:
        """``runtime.placement.*`` (docs/metrics.md)."""
        values = {
            key: value
            for key, value in self.to_dict().items()
            if isinstance(value, (int, float)) and key != "n_workers"
        }
        values["calibrated"] = float(self.source == "calibrated")
        values["cut_edges"] = len(self.cut_edges)
        values.update((f"owner.{t}", w) for t, w in self.owner.items())
        values.update((f"load_share.{w}", s) for w, s in enumerate(self.load_share))
        for key, value in values.items():
            registry.gauge(f"runtime.placement.{key}").set(value)


@dataclass
class TaskStats:
    """Per-task functional counters collected during a run."""

    task_id: int
    component: str
    tuples_in: int = 0
    tuples_out: int = 0
    out_by_stream: dict[str, int] = field(default_factory=dict)
    bytes_out_by_stream: dict[str, int] = field(default_factory=dict)

    def record_out(self, stream: str, size: int) -> None:
        self.tuples_out += 1
        self.out_by_stream[stream] = self.out_by_stream.get(stream, 0) + 1
        self.bytes_out_by_stream[stream] = (
            self.bytes_out_by_stream.get(stream, 0) + size
        )

    def record_out_many(self, stream: str, count: int, size: int) -> None:
        """Bulk form of :meth:`record_out` for columnar emissions: one
        call per output batch with the summed payload size must leave the
        counters identical to ``count`` scalar calls."""
        self.tuples_out += count
        self.out_by_stream[stream] = self.out_by_stream.get(stream, 0) + count
        self.bytes_out_by_stream[stream] = (
            self.bytes_out_by_stream.get(stream, 0) + size
        )

    def merge(self, other: "TaskStats") -> None:
        """Fold another replica of the same task's counters into this one."""
        self.tuples_in += other.tuples_in
        self.tuples_out += other.tuples_out
        for stream, count in other.out_by_stream.items():
            self.out_by_stream[stream] = self.out_by_stream.get(stream, 0) + count
        for stream, size in other.bytes_out_by_stream.items():
            self.bytes_out_by_stream[stream] = (
                self.bytes_out_by_stream.get(stream, 0) + size
            )


@dataclass
class RunResult:
    """Outcome of one functional engine run."""

    topology_name: str
    events_ingested: int
    task_stats: dict[int, TaskStats]
    sinks: dict[str, list[Sink]]
    #: Injected-fault counters collected by the backend (chaos runs only).
    fault_summary: dict[str, float] | None = None
    #: Supervisor recovery timeline (supervised runs only).
    recovery: RecoveryReport | None = None
    #: Epoch/barrier accounting (:class:`~repro.runtime.epochs.EpochReport`,
    #: barrier runs only; typed loosely to keep this module import-light).
    epochs: object | None = None
    #: Live-reconfiguration decisions
    #: (:class:`~repro.runtime.reconfigure.ReconfigReport`, ``--adapt`` only).
    reconfig: object | None = None
    #: Overload-control ladder timeline and shed accounting
    #: (:class:`~repro.runtime.overload.OverloadReport`, armed runs only).
    overload: object | None = None
    #: The process backend's task→worker decision.
    placement: Placement | None = None
    #: True when this result describes an aborted attempt's partial state.
    partial: bool = False

    def component_in(self, component: str) -> int:
        """Total tuples consumed by all replicas of ``component``."""
        return sum(
            s.tuples_in for s in self.task_stats.values() if s.component == component
        )

    def component_out(self, component: str, stream: str | None = None) -> int:
        """Total tuples emitted by ``component`` (optionally one stream)."""
        total = 0
        for stats in self.task_stats.values():
            if stats.component != component:
                continue
            if stream is None:
                total += stats.tuples_out
            else:
                total += stats.out_by_stream.get(stream, 0)
        return total

    def selectivity(self, component: str, stream: str | None = None) -> float:
        """Measured output/input ratio of ``component``.

        For spouts the denominator is the number of ingested events.
        """
        consumed = self.component_in(component)
        if consumed == 0:
            consumed = self.events_ingested
        if consumed == 0:
            return 0.0
        return self.component_out(component, stream) / consumed

    def mean_tuple_bytes(self, component: str, stream: str | None = None) -> float:
        """Measured mean output payload size of ``component`` in bytes."""
        tuples = 0
        total_bytes = 0
        for stats in self.task_stats.values():
            if stats.component != component:
                continue
            for name, count in stats.out_by_stream.items():
                if stream is not None and name != stream:
                    continue
                tuples += count
                total_bytes += stats.bytes_out_by_stream.get(name, 0)
        if tuples == 0:
            return 0.0
        return total_bytes / tuples

    def sink_received(self) -> int:
        """Total tuples received across every sink replica."""
        return sum(s.received for sinks in self.sinks.values() for s in sinks)
