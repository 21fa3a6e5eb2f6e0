"""Epoch barriers, state checkpoints and live-migration primitives.

BriskStream optimizes a plan once and leaves workload adaptation as
future work (Section 5.3).  Adapting a *running* dataflow needs a unit of
consistency smaller than the whole run: this module provides it.  The
stream is cut into **epochs** of a fixed number of external events per
spout.  At each epoch boundary both executors run the dataflow to
quiescence — spouts pause, queues drain, output buffers flush — and then
**commit** a checkpoint: every task's :meth:`Operator.snapshot_state`
value plus the runtime bookkeeping needed to resume (spout positions,
routing counters, per-task statistics), pickled where it lives: a share each.

Checkpoints serve two consumers:

* the **Supervisor**, which on a mid-epoch failure restarts from the last
  committed checkpoint instead of from the beginning of the run —
  upgrading at-least-once replay to *exactly-once-per-epoch* delivery
  (only the tuples of the unfinished epoch are re-delivered);
* the **reconfiguration controller** (:mod:`repro.runtime.reconfigure`),
  whose re-planning decisions are applied at the barrier: the paused
  state is handed to the re-placed tasks and the stream resumes — a
  pause-at-barrier migration in the style of Madsen et al. (PAPERS.md).

The epoch loop and the commit sequence are written once, here
(:class:`EpochDriver`, which states what an executor supplies): capture
-> overload step -> ``on_epoch`` -> migration.  Inline
phases are cooperative generators over persistent queues; process
workers live for the whole run and quiesce on barrier markers
(:mod:`repro.runtime.process_pool`)::

    spout --marker--> task ... --marker--> sink      (every edge, in band)
    task: marker on every in-edge, depth 0 -> flush, forward, park
    worker: all tasks parked -> validate + snapshot + pickle its share -> report
    parent: union reports -> seal the shares -> observers -> directive
    worker: resume {limit, final, shed}

See docs/reconfiguration.md for the full protocol walk-through.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from itertools import chain
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.errors import ExecutionError, TopologyError
from repro.metrics.registry import MetricsRegistry
from repro.runtime.lowering import RuntimeSpec
from repro.runtime.overload import OverloadConfig, OverloadManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.results import RunResult

__all__ = [
    "BarrierState",
    "EpochCheckpoint",
    "EpochCommit",
    "EpochConfig",
    "EpochDriver",
    "EpochReport",
    "Migration",
    "check_serializable",
    "require_barriers",
    "seal_share",
]

#: Checkpoint shares use pickle protocol 5, same as the data plane's codec
#: fallback: one serialization dialect for everything that crosses a
#: process boundary.
CHECKPOINT_PICKLE_PROTOCOL = 5

#: What a commit's barrier splits into (``EpochReport``, ``runtime.epoch.*``).
BARRIER_PARTS = ("quiesce", "snapshot", "report", "commit", "resume")

_SCALAR_TYPES = (str, int, float, bool, bytes, type(None))
_EXACT_SCALARS = frozenset(_SCALAR_TYPES)
_PLAIN_TYPES = (*_SCALAR_TYPES, dict, list, tuple)
_MAX_DEPTH = 1000


@dataclass(frozen=True)
class EpochConfig:
    """Barrier policy: cut an epoch every ``interval`` events per spout."""

    interval: int

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ExecutionError(
                f"epoch interval must be >= 1, got {self.interval}"
            )


#: What acts only at an epoch barrier, by option name.
_BARRIER_BOUND = {
    "overload": "overload control steps at epoch barriers",
    "reconfig": "live reconfiguration requires epoch barriers",
    "resume": "resume from a checkpoint requires epoch barriers",
}


def require_barriers(barriers: Any, **acting: Any) -> None:
    """The barrier rule: an option that acts only at an epoch barrier
    (``acting``, by name; ``None`` = not asked for) would silently do
    nothing in a run that has none (``barriers`` is None) — fail loudly
    instead.  Enforced by :class:`EpochDriver`, where a run's barriers
    are known, and by the engine at construction, to fail fast."""
    if barriers is not None:
        return
    for name, value in acting.items():
        if value is not None:
            raise ExecutionError(
                f"{_BARRIER_BOUND[name]}: pass epoch_interval together with {name}"
            )


def _plain(value: Any) -> bool:
    """True when ``value`` is plain data (subclasses too), vetted in C a
    nesting level at a time; a cycle, past ``_MAX_DEPTH`` levels, is left
    to the walk that names an offender."""
    level = [value]
    for _ in range(_MAX_DEPTH):
        kinds = set(map(type, level)) - _EXACT_SCALARS
        if not kinds:
            return True
        if not all(issubclass(kind, _PLAIN_TYPES) for kind in kinds):
            return False
        dicts = [*filter(dict.__instancecheck__, level)]
        level = [
            *chain.from_iterable(dicts),
            *chain.from_iterable(map(dict.values, dicts)),
            *chain.from_iterable(filter(list.__instancecheck__, level)),
            *chain.from_iterable(filter(tuple.__instancecheck__, level)),
        ]
    return False


def check_serializable(value: Any, path: str = "state") -> None:
    """Enforce the operator state contract: plain data only.

    Accepts arbitrary compositions of ``dict``, ``list``, ``tuple`` and
    the scalar types (``str``/``int``/``float``/``bool``/``bytes``/
    ``None``).  Anything else — deques, sets, numpy arrays, custom
    objects — raises :class:`ExecutionError` naming the offending path,
    *before* the value reaches a codec that might accept it silently
    (pickle would happily move a deque, but the shm codec or a future
    JSON checkpoint store would not).  The path is only built once
    something was rejected: a second, slow walk names the offender.
    """
    if not _plain(value):
        _name_offender(value, path)


def _name_offender(value: Any, path: str) -> None:
    """Raise for the first non-plain node under ``value``, depth first."""
    if isinstance(value, _SCALAR_TYPES):
        return
    if isinstance(value, dict):
        for key, item in value.items():
            _name_offender(key, f"{path}.key({key!r})")
            _name_offender(item, f"{path}[{key!r}]")
        return
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _name_offender(item, f"{path}[{index}]")
        return
    raise ExecutionError(
        f"operator state at {path} is not codec-serializable: "
        f"{type(value).__name__!r} (allowed: dict/list/tuple/str/int/"
        "float/bool/bytes/None; see Operator.snapshot_state)"
    )


def seal_share(states: Mapping, counters: Mapping, stats: Mapping) -> bytes:
    """One owner's part of a checkpoint, pickled where it lives: the
    parent seals the bytes and never unpickles a share at a barrier."""
    share = {"states": dict(states), "counters": dict(counters), "stats": dict(stats)}
    return pickle.dumps(share, protocol=CHECKPOINT_PICKLE_PROTOCOL)


@dataclass(frozen=True)
class EpochCheckpoint:
    """One committed epoch: everything needed to resume after it.

    The operator states, routing counters and per-task statistics live in
    pickled ``shares``, one per owner (:func:`seal_share`) — serializing
    at the barrier is the actual guarantee (a checkpoint that cannot
    cross a process boundary is worthless), and it decouples the
    checkpoint's lifetime from the live instances that produced it.
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
    #: Pickled ``{"states", "counters", "stats"}`` shares, one per owner.
    shares: tuple[bytes, ...]

    @classmethod
    def capture(
        cls, epoch: int, *, states: Mapping, counters: Mapping, stats: Mapping, **parts
    ) -> "EpochCheckpoint":
        """Validate the operator states, then seal them as one share."""
        for task_id, state in states.items():
            check_serializable(state, path=f"task {task_id} state")
        return cls(epoch, shares=(seal_share(states, counters, stats),), **parts)

    @property
    def snapshot_bytes(self) -> int:
        return sum(map(len, self.shares))

    def payload(self) -> dict:
        """The shares, unpickled and merged (states / counters / stats)."""
        merged: dict = {"states": {}, "counters": {}, "stats": {}}
        for share in self.shares:
            for key, part in pickle.loads(share).items():
                merged[key].update(part)
        return merged

    def tick_counts(self) -> dict[int, int]:
        """Per-task tuple counts at this checkpoint, for seeding a
        :class:`~repro.runtime.faults.FaultInjector`: spouts tick once
        per produced tuple, operators once per consumed one, so fault
        trigger offsets stay run-absolute across a resume."""
        base = {
            task_id: stats.tuples_in
            for task_id, stats in self.payload()["stats"].items()
        }
        base.update(self.spout_produced)
        return base

    def describe(self) -> str:
        return (
            f"epoch {self.epoch}: {self.events_ingested} events, "
            f"{self.snapshot_bytes} checkpoint bytes"
        )


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
    """Per-run epoch/barrier accounting, attached to ``RunResult``.

    Each ``commit`` entry of :attr:`events` splits its barrier into
    ``quiesce_ns`` (first spout at the boundary -> last task parked),
    ``snapshot_ns`` (validate, ``snapshot_state``, pickle; the slowest
    worker), ``report_ns`` (last share ready -> parent holds every report;
    0 inline), ``commit_ns`` (sealing) and ``resume_ns`` (directive issued
    -> stream moving again); :meth:`total` sums one of them over the run.
    """

    interval: int
    committed: int = 0
    #: Epoch index this run resumed after (recovery), or None.
    resumed_from: int | None = None
    #: Size of the last committed checkpoint (its shares' bytes).
    snapshot_bytes: int = 0
    #: Live migrations applied at barriers.
    migrations: int = 0
    #: Wall time spent paused while applying migrations (inline: restore
    #: the moved tasks; process: stop the pool, relaunch it from the
    #: checkpoint under the new spec).
    migration_pause_ns: float = 0.0
    #: Barrier/migration timeline (dicts, run-report ready).
    events: list[dict] = field(default_factory=list)

    def total(self, part: str) -> int:
        """Sum of the commits' ``<part>_ns`` over the run."""
        return sum(entry.get(f"{part}_ns", 0) for entry in self.events)

    @property
    def barrier_ns(self) -> int:
        """Wall time spent inside barrier commits (snapshot + serialize)."""
        return self.total("snapshot") + self.total("commit")

    def to_dict(self) -> dict:
        return {
            "interval": self.interval,
            "committed": self.committed,
            "resumed_from": self.resumed_from,
            "barrier_ns": self.barrier_ns,
            **{f"{part}_ns": self.total(part) for part in BARRIER_PARTS},
            "snapshot_bytes": self.snapshot_bytes,
            "migrations": self.migrations,
            "migration_pause_ns": round(self.migration_pause_ns),
            "timeline": list(self.events),
        }


@dataclass
class BarrierState:
    """A quiescent executor at an epoch boundary (``collect()``).  The
    ``shares`` were validated and pickled where they live
    (``TaskStep.snapshot``, :func:`seal_share`; in parallel on the process
    backend); counters are cumulative."""

    shares: Sequence[bytes]
    stats: Mapping[int, Any]
    spout_produced: Mapping[int, int]
    #: Spouts whose source dried up before the event budget.
    exhausted: set[int]
    sink_received: int
    #: Per-edge :class:`~repro.dsps.queues.QueueStats`.
    queue_stats: Mapping[tuple[int, int], Any]
    #: Edges whose worker stalled on its transport this epoch (shm ring
    #: full, blocked remote send) — pressure beyond ``blocked_batches``.
    pressure: frozenset[tuple[int, int]] = frozenset()
    task_wall_ns: Mapping[int, float] = field(default_factory=dict)
    quiesce_ns: float = 0.0
    snapshot_ns: float = 0.0
    report_ns: float = 0.0


class EpochDriver:
    """The epoch loop and barrier commit sequence of one execution.

    ``run(executor)`` drives any executor that supplies ``spec`` (the
    deployed spec) and:

    ``run_phase(limit, final, directive) -> resume_ns``
        Advance every spout to the cumulative position ``limit`` (or
        until it dries up) and run to quiescence; a ``final`` phase also
        closes the stream (``flush()``).  ``directive`` is what the last
        commit changed: ``{"shed": ctx | None}``.
    ``collect() -> BarrierState``
        The quiescent state after a non-final phase.
    ``migrate(migration, checkpoint)``
        Apply a live plan change at the barrier that produced it.
    ``result(partial) -> RunResult``
        The run so far; without an :class:`EpochConfig`, one final phase.
    """

    def __init__(
        self,
        spec: RuntimeSpec,
        max_events: int,
        registry: MetricsRegistry,
        *,
        epochs: EpochConfig | None = None,
        resume: EpochCheckpoint | None = None,
        on_epoch: "Callable[[EpochCommit], Migration | None] | None" = None,
        overload: OverloadConfig | None = None,
    ) -> None:
        if max_events < 0:
            raise TopologyError("max_events must be >= 0")
        require_barriers(epochs, overload=overload, resume=resume)
        self.max_events = max_events
        self.registry = registry
        self.on_epoch = on_epoch
        #: Newest committed checkpoint (``resume`` until the first commit).
        self.checkpoint = resume
        self.report = (
            EpochReport(
                interval=epochs.interval,
                resumed_from=resume.epoch if resume is not None else None,
            )
            if epochs is not None
            else None
        )
        self.manager = (
            OverloadManager(spec, overload, epochs.interval, registry)
            if overload is not None
            else None
        )

    def run(self, executor: Any) -> "RunResult":
        try:
            self._loop(executor)
        except ExecutionError as exc:
            # Failed runs stay observable: partial progress feeds the
            # supervisor's duplicate accounting, the last committed
            # checkpoint upgrades its replay to resume-from-epoch.
            if exc.partial_result is None:
                exc.partial_result = self._finish(executor, partial=True)
            if getattr(exc, "last_checkpoint", None) is None:
                exc.last_checkpoint = self.checkpoint
            raise
        return self._finish(executor, partial=False)

    def _loop(self, executor: Any) -> None:
        if self.report is None:  # no barriers: one final phase
            executor.run_phase(self.max_events, True, {})
            return
        interval = self.report.interval
        epoch = self.checkpoint.epoch + 1 if self.checkpoint is not None else 0
        # Cumulative per-spout admission target.  Without overload
        # control every epoch admits exactly one interval — (epoch + 1)
        # * interval; the throttle rung shrinks the per-epoch allowance
        # so backlogged queues can drain.
        limit = min(self.max_events, epoch * interval)
        directive: dict = {}
        committed: dict | None = None
        dried = False
        while True:
            if not dried:
                allowance = (
                    self.manager.spout_allowance()
                    if self.manager is not None
                    else interval
                )
                limit = min(self.max_events, limit + allowance)
            # Sources that dried up before the event budget: what ran is
            # committed, a flush-only final phase closes the stream.
            final = dried or limit >= self.max_events
            resume_ns = executor.run_phase(limit, final, directive)
            if committed is not None:
                committed["resume_ns"] = round(resume_ns)
            if final:
                return
            state = executor.collect()
            directive, committed = self._commit(executor, epoch, state)
            dried = set(state.spout_produced) <= state.exhausted
            epoch += 1

    def _commit(
        self, executor: Any, epoch: int, state: BarrierState
    ) -> tuple[dict, dict]:
        """Seal the quiescent state as a checkpoint, step the observers,
        apply a migration; returns the next phase's directive and the
        timeline entry (its ``resume_ns`` is known one phase later)."""
        report = self.report
        started = perf_counter()
        events = sum(state.spout_produced.values())
        checkpoint = self.checkpoint = EpochCheckpoint(
            epoch,
            events_ingested=events,
            spout_produced=dict(state.spout_produced),
            sink_received=state.sink_received,
            shares=tuple(state.shares),
        )
        commit_ns = (perf_counter() - started) * 1e9
        report.committed += 1
        report.snapshot_bytes = checkpoint.snapshot_bytes
        entry = {
            "kind": "commit",
            "epoch": epoch,
            "events_ingested": events,
            "snapshot_bytes": checkpoint.snapshot_bytes,
            "quiesce_ns": round(state.quiesce_ns),
            "snapshot_ns": round(state.snapshot_ns),
            "report_ns": round(state.report_ns),
            "commit_ns": round(commit_ns),
            "resume_ns": 0,
        }
        report.events.append(entry)
        overload_state = None
        if self.manager is not None:
            self.manager.observe_queue_stats(epoch, state.queue_stats, state.pressure)
            overload_state = self.manager.commit_state()
        if self.on_epoch is not None:
            migration = self.on_epoch(
                EpochCommit(
                    epoch=epoch,
                    spec=executor.spec,
                    checkpoint=checkpoint,
                    task_stats=state.stats,
                    task_wall_ns=state.task_wall_ns,
                    events_ingested=events,
                    overload=overload_state,
                )
            )
            if migration is not None:
                if {rt.task_id for rt in migration.spec.tasks} != set(state.stats):
                    raise ExecutionError(
                        "live migration cannot add or remove tasks; "
                        "replication changes require a restart"
                    )
                started = perf_counter()
                executor.migrate(migration, checkpoint)
                pause_ns = (perf_counter() - started) * 1e9
                report.migrations += 1
                report.migration_pause_ns += pause_ns
                report.events.append(
                    {
                        "kind": "migration",
                        "epoch": epoch,
                        "moved": sorted(migration.moved),
                        "pause_ns": round(pause_ns),
                        "detail": migration.detail,
                    }
                )
        shed = self.manager.shed_context() if self.manager is not None else None
        return {"shed": shed}, entry

    def _finish(self, executor: Any, partial: bool) -> "RunResult":
        """The executor's result with the barrier accounting attached —
        and published, on a complete run."""
        result = executor.result(partial)
        result.epochs = self.report
        if self.manager is not None:
            result.overload = self.manager.finish()
        registry = self.registry
        if partial or not registry.enabled:
            return result
        if self.report is not None:
            report = self.report
            for name in ("interval", "committed", "snapshot_bytes", "barrier_ns"):
                registry.gauge(f"runtime.epoch.{name}").set(getattr(report, name))
            for part in BARRIER_PARTS:
                registry.gauge(f"runtime.epoch.{part}_ns").set(report.total(part))
        return result
