"""Epoch barriers, state checkpoints and live-migration primitives.

BriskStream optimizes a plan once and leaves workload adaptation as
future work (Section 5.3).  Adapting a *running* dataflow needs a unit of
consistency smaller than the whole run: this module provides it.  The
stream is cut into **epochs** of a fixed number of external events per
spout.  At each epoch boundary both executors run the dataflow to
quiescence — spouts pause, queues drain, output buffers flush — and then
**commit** a checkpoint: every task's :meth:`Operator.snapshot_state`
value plus the runtime bookkeeping needed to resume (spout positions,
routing counters, per-task statistics), serialized in one blob.

Checkpoints serve two consumers:

* the **Supervisor**, which on a mid-epoch failure restarts from the last
  committed checkpoint instead of from the beginning of the run —
  upgrading at-least-once replay to *exactly-once-per-epoch* delivery
  (only the tuples of the unfinished epoch are re-delivered);
* the **reconfiguration controller** (:mod:`repro.runtime.reconfigure`),
  whose re-planning decisions are applied at the barrier: the paused
  state is handed to the re-placed tasks and the stream resumes — a
  pause-at-barrier migration in the style of Madsen et al. (PAPERS.md).

Everything here is backend-agnostic plain data; the barrier protocols
themselves live in :mod:`repro.runtime.backends` (inline) and
:mod:`repro.runtime.process_pool` (one worker pool per epoch slice).
See docs/reconfiguration.md for the full protocol walk-through.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Mapping, MutableMapping

from repro.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.lowering import RuntimeSpec

__all__ = [
    "EpochCheckpoint",
    "EpochCommit",
    "EpochConfig",
    "EpochReport",
    "Migration",
    "check_serializable",
    "fast_forward",
    "restore_tasks",
]

#: Checkpoint blobs use pickle protocol 5, same as the data plane's codec
#: fallback: one serialization dialect for everything that crosses a
#: process boundary.
CHECKPOINT_PICKLE_PROTOCOL = 5

_SCALAR_TYPES = (str, int, float, bool, bytes, type(None))


@dataclass(frozen=True)
class EpochConfig:
    """Barrier policy: cut an epoch every ``interval`` events per spout."""

    interval: int

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ExecutionError(
                f"epoch interval must be >= 1, got {self.interval}"
            )


def check_serializable(value: Any, path: str = "state") -> None:
    """Enforce the operator state contract: plain data only.

    Accepts arbitrary compositions of ``dict``, ``list``, ``tuple`` and
    the scalar types (``str``/``int``/``float``/``bool``/``bytes``/
    ``None``).  Anything else — deques, sets, numpy arrays, custom
    objects — raises :class:`ExecutionError` naming the offending path,
    *before* the value reaches a codec that might accept it silently
    (pickle would happily move a deque, but the shm codec or a future
    JSON checkpoint store would not).
    """
    if isinstance(value, bool) or isinstance(value, _SCALAR_TYPES):
        return
    if isinstance(value, dict):
        for key, item in value.items():
            check_serializable(key, f"{path}.key({key!r})")
            check_serializable(item, f"{path}[{key!r}]")
        return
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            check_serializable(item, f"{path}[{index}]")
        return
    raise ExecutionError(
        f"operator state at {path} is not codec-serializable: "
        f"{type(value).__name__!r} (allowed: dict/list/tuple/str/int/"
        "float/bool/bytes/None; see Operator.snapshot_state)"
    )


@dataclass(frozen=True)
class EpochCheckpoint:
    """One committed epoch: everything needed to resume after it.

    The operator states, routing counters and per-task statistics live in
    a single pickled ``blob`` — serializing at commit time is the actual
    barrier guarantee (a checkpoint that cannot cross a process boundary
    is worthless), and it decouples the checkpoint's lifetime from the
    live instances that produced it.
    """

    #: Zero-based index of the committed epoch.
    epoch: int
    #: External events ingested up to and including this epoch.
    events_ingested: int
    #: Per-spout-task tuple positions (how far each source advanced).
    spout_produced: dict[int, int]
    #: Tuples received across all sinks at the barrier (duplicate
    #: accounting baseline for exactly-once-per-epoch recovery).
    sink_received: int
    #: Pickled ``{"states", "counters", "stats"}`` payload.
    blob: bytes

    @classmethod
    def capture(
        cls,
        epoch: int,
        *,
        events_ingested: int,
        spout_produced: Mapping[int, int],
        states: Mapping[int, Any],
        counters: Mapping[Any, int],
        stats: Mapping[int, Any],
        sink_received: int,
    ) -> "EpochCheckpoint":
        """Validate the operator states and seal them into a blob."""
        for task_id, state in states.items():
            check_serializable(state, path=f"task {task_id} state")
        blob = pickle.dumps(
            {
                "states": dict(states),
                "counters": dict(counters),
                "stats": dict(stats),
            },
            protocol=CHECKPOINT_PICKLE_PROTOCOL,
        )
        return cls(
            epoch=epoch,
            events_ingested=events_ingested,
            spout_produced=dict(spout_produced),
            sink_received=sink_received,
            blob=blob,
        )

    @property
    def snapshot_bytes(self) -> int:
        return len(self.blob)

    def payload(self) -> dict:
        """Deserialize the blob (states / counters / stats)."""
        return pickle.loads(self.blob)

    def describe(self) -> str:
        return (
            f"epoch {self.epoch}: {self.events_ingested} events, "
            f"{self.snapshot_bytes} checkpoint bytes"
        )


def restore_tasks(
    payload: Mapping[str, Any],
    instances: Mapping[int, Any],
    counters: MutableMapping[Any, int],
    stats: MutableMapping[int, Any],
) -> None:
    """Resume the tasks in ``instances`` from a checkpoint ``payload``:
    operator state, routing counters, cumulative per-task statistics.
    ``instances`` may be a partition of the checkpointed tasks (one
    worker's share); the rest of the payload is ignored."""
    for task_id, state in payload["states"].items():
        if state is not None and task_id in instances:
            instances[task_id].restore_state(state)
    counters.update(payload["counters"])
    for task_id, task_stats in payload["stats"].items():
        if task_id in stats:
            stats[task_id] = task_stats


def fast_forward(iterator: Iterator, produced: int) -> bool:
    """Advance a spout's source past its ``produced`` committed tuples;
    False when it dried up first.

    Sources are deterministic seeded generators, so re-drawing (and
    discarding) the committed prefix replays them to the exact resume
    position without recording stats or fault ticks.
    """
    dry = object()
    return all(next(iterator, dry) is not dry for _ in range(produced))


@dataclass(frozen=True)
class EpochCommit:
    """What an ``on_epoch`` observer sees at each barrier.

    ``task_stats`` and ``task_wall_ns`` are *cumulative* counters; drift
    detectors diff consecutive commits themselves.  Both mappings are
    owned by the executor — observers must treat them as read-only.

    ``overload`` carries the overload ladder's state at this barrier
    when overload control is armed (:mod:`repro.runtime.overload`):
    ``{"rung": name, "replan_requested": bool}``.  The reconfiguration
    controller uses it to let sustained backpressure trigger a replan
    even when the profile drift signal alone would not.
    """

    epoch: int
    spec: "RuntimeSpec"
    checkpoint: EpochCheckpoint
    task_stats: Mapping[int, Any]
    task_wall_ns: Mapping[int, float]
    events_ingested: int
    overload: Mapping[str, Any] | None = None


@dataclass(frozen=True)
class Migration:
    """A live plan change to apply at the barrier that produced it.

    ``spec`` carries the same tasks/edges with updated socket placement;
    ``moved`` lists the task ids whose socket changed.  The executor
    re-instantiates the moved tasks under the new placement and feeds
    them the just-committed snapshot through
    :meth:`Operator.restore_state` — the handoff *is* the state
    contract's production path.
    """

    spec: "RuntimeSpec"
    moved: tuple[int, ...]
    detail: str = ""


@dataclass
class EpochReport:
    """Per-run epoch/barrier accounting, attached to ``RunResult``."""

    interval: int
    committed: int = 0
    #: Epoch index this run resumed after (recovery), or None.
    resumed_from: int | None = None
    #: Wall time spent inside barrier commits (snapshot + serialize).
    barrier_ns: float = 0.0
    #: Size of the last committed checkpoint blob.
    snapshot_bytes: int = 0
    #: Live migrations applied at barriers.
    migrations: int = 0
    #: Wall time spent paused while applying migrations.
    migration_pause_ns: float = 0.0
    #: Barrier/migration timeline (dicts, run-report ready).
    events: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "interval": self.interval,
            "committed": self.committed,
            "resumed_from": self.resumed_from,
            "barrier_ns": round(self.barrier_ns),
            "snapshot_bytes": self.snapshot_bytes,
            "migrations": self.migrations,
            "migration_pause_ns": round(self.migration_pause_ns),
            "timeline": list(self.events),
        }
