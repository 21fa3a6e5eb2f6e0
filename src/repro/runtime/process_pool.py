"""Process-pool executor: true parallel execution across worker processes.

The GIL limits the inline backend to one core, so this backend partitions
the lowered task table across ``multiprocessing`` workers — by plan socket
when the spec carries a placement (one worker per socket, mirroring
BriskStream's NUMA partitioning), otherwise where RLAS puts each task
with the workers as its sockets (:mod:`repro.runtime.placement`: costs
calibrated on the run's first events, crossing a process boundary as
``Tf``) — and ships sealed jumbo batches between workers over the data
plane (:mod:`repro.runtime.dataplane`): batches and markers written as
frames into one shared-memory ring per worker pair.

Flow control happens at three levels:

* **local edges** (producer and consumer on the same worker) use the
  spec's per-edge tuple capacities as hard bounds: an over-capacity
  append makes the producer process the consumer's backlog in place
  until the batch fits;
* **remote edges** are physically bounded by the sender→consumer ring
  (``DEFAULT_INBOX_BATCHES`` frames, and its bytes): a full ring blocks
  the sending task.  While blocked, a worker keeps draining its *own*
  rings (admitting over-capacity batches rather than deadlocking; such
  overflow is counted and reported) so that mutually-sending workers
  always make progress;
* **spouts** additionally check every downstream channel before
  generating a chunk and pause while any is full, so ingestion is
  throttled by the slowest consumer — the live analogue of the DES's
  blocking-producer backpressure.

Two processing disciplines are supported.  The default *arrival* mode
processes batches in the order they arrive (pipelined, maximum overlap).
``ordered=True`` processes each task's input edges in strict declaration
order instead — the same order the inline backend drains queues in —
which reproduces inline results for order-sensitive multi-input
topologies at the cost of buffering (capacities are not enforced in this
mode, since strict edge order may require holding later edges' input
arbitrarily long).

Epoch barriers
--------------
Operators stay put and only tuples move: one pool runs the whole
execution.  At a non-final epoch boundary a spout flushes and sends a
**barrier marker** down each out-edge — the EOF message on the EOF path,
which the next phase resets; a task with the marker on every in-edge and
nothing queued flushes, forwards it and parks; a worker whose tasks are
all parked pickles its share of the checkpoint (sealed as those bytes),
reports it and blocks, heartbeating, for the parent's ``resume``
(:meth:`_Worker._barrier`; the sequence is drawn in
:mod:`repro.runtime.epochs`).  Directives and reports cross one duplex
pipe per worker, sent by the thread that has them.  State is unpickled
only when a pool is launched from a checkpoint: a supervised
``resume=``, or a migration, which relaunches it re-partitioned.

Liveness
--------
Only the parent decides that a worker died (see docs/robustness.md).
Its watchdog (:meth:`_PoolRun._await`) waits on the pending workers'
pipes and sentinels, and turns one that exited without reporting into
:class:`~repro.errors.WorkerCrashError` at once, and a stale heartbeat
or the run's deadline into
:class:`~repro.errors.StallError` — always naming the worker, and with a
partial :class:`~repro.runtime.results.RunResult`: task counters as last
reported, sink deliveries from shared counters the sinks' workers stamp
per batch, so they survive whichever worker died.  The pool is then
stopped, survivors included.

A worker never raises about a peer; it reports on itself.  It stamps a
shared heartbeat slot once per scheduling loop, and every wait — idle,
parked at a barrier, blocked on a send — goes through
:meth:`_Worker._wait`, which heartbeats and raises
:class:`~repro.errors.StallError` past the run deadline, so no worker
outlives its run even if the parent is gone.  A send still blocked
after :data:`_SEND_DEADLINE_S` raises
:class:`~repro.errors.QueueDeadlockError`.

Fault injection (:mod:`repro.runtime.faults`) threads through the same
paths: each worker arms an injector over its own task partition, so a
``crash`` fault genuinely kills the hosting process (``os._exit``) and
the parent's watchdog is what detects it.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import defaultdict, deque
from contextlib import suppress
from time import monotonic, monotonic_ns, perf_counter
from typing import TYPE_CHECKING, Any, Iterator, Mapping

import multiprocessing as mp

from repro.dsps.operators import Sink
from repro.dsps.queues import QueueStats
from repro.dsps.tuples import JumboTuple
from repro.errors import (
    ExecutionError,
    InjectedFaultError,
    QueueDeadlockError,
    StallError,
    WorkerCrashError,
)
from repro.metrics.registry import NULL_REGISTRY, MetricsRegistry
from repro.runtime.backends import ExecutorBackend, publish_engine_metrics
from repro.runtime.config import RunConfig
from repro.runtime.dataplane import ChannelEndpoint, create_dataplane
from repro.runtime.epochs import (
    BarrierState,
    EpochCheckpoint,
    EpochConfig,
    EpochDriver,
    Migration,
    seal_share,
)
from repro.runtime.faults import FaultInjector, merge_fault_summaries
from repro.runtime.fusion import with_chains
from repro.runtime.overload import Shedder
from repro.runtime.lowering import RuntimeSpec, TaskRuntime
from repro.runtime.results import Placement, RunResult
from repro.runtime.step import (
    STEP_COUNTERS,
    Delivery,
    TaskStep,
    publish_step_counters,
)

if TYPE_CHECKING:
    from repro.runtime.backends import OnEpoch

#: Events a spout generates per scheduling quantum.
_SPOUT_CHUNK = 256

#: Batches an operator processes per scheduling quantum.
_PROCESS_QUANTUM = 8

#: A worker's wait quantum while no local progress is possible (s).
_IDLE_SLEEP_S = 0.0002

#: Parent watchdog poll interval while waiting for worker reports, and a
#: parked worker's wait quantum on its pipe (s).
_POLL_INTERVAL_S = 0.05

#: Longest one remote send may stay blocked on a full peer channel before
#: it raises :class:`~repro.errors.QueueDeadlockError` (s).
_SEND_DEADLINE_S = 30.0

#: Exit code an injected ``crash`` fault dies with (distinguishable from
#: interpreter crashes in the parent's diagnostics).
CRASH_EXIT_CODE = 70


def _mp_context() -> mp.context.BaseContext:
    """Prefer ``fork`` (fast, inherits the lowered spec) over ``spawn``."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class ProcessPoolBackend(ExecutorBackend):
    """Execute a lowered spec on a pool of worker processes, configured
    by the executor fields of :class:`~repro.runtime.config.RunConfig`."""

    name = "process"

    def __init__(self, **options: Any) -> None:
        super().__init__(**options)
        #: The last searched ``(spec, placement)``, for :meth:`_place`.
        self._placed: "tuple[RuntimeSpec, Placement] | None" = None

    # ------------------------------------------------------------------
    # Parent side
    # ------------------------------------------------------------------
    def _n_workers(self, spec: RuntimeSpec) -> int:
        """The pool's width: ``n_workers`` as constructed — forked in
        full even when the plan or the search fills fewer — else one
        worker per plan socket, else up to four of the host's cores."""
        if self.config.n_workers is not None:
            return self.config.n_workers
        if spec.placed:
            return len(spec.socket_groups())
        return min(4, os.cpu_count() or 1)

    def _place(
        self,
        spec: RuntimeSpec,
        max_events: int,
        injector: "FaultInjector | None",
        resume: "EpochCheckpoint | None",
    ) -> "Placement | None":
        """Where RLAS puts the tasks of an unplaced ``spec`` (None when
        it carries plan sockets): decided once per execution, and reused
        when the same run is relaunched from a checkpoint (a supervised
        ``resume=``)."""
        if spec.placed:
            return None
        if resume is not None and self._placed is not None:
            placed_spec, placement = self._placed
            if placed_spec is spec:
                return placement
        # Imported here: the optimizer stack imports the runtime package.
        from repro.runtime.placement import place

        # Calibrating on kernels the workers will not run would misprice
        # every task: an armed injector makes them tick per tuple.
        vectorized = "off" if injector is not None else self.config.vectorized
        placement = place(spec, self._n_workers(spec), max_events, vectorized)
        self._placed = (spec, placement)
        return placement

    def _assign(
        self, spec: RuntimeSpec, searched: "Placement | None"
    ) -> "Placement":
        """Partition task ids over workers: grouped by plan socket when
        the spec carries a placement, else as this execution's search
        decided.  A plan is never spread further than it asks: with fewer
        sockets than workers the workers beyond them host no task."""
        if not spec.placed:
            return searched
        # One worker per socket (wrapping when sockets > workers) keeps
        # same-socket tasks colocated, so their edges stay in-process.
        n = self._n_workers(spec)
        groups = spec.socket_groups()
        owner = {
            task_id: index % n
            for index, socket in enumerate(sorted(groups))
            for task_id in groups[socket]
        }
        return Placement(owner, n, "plan", spec.cut_edges(owner))

    def _sockets_of_workers(
        self, spec: RuntimeSpec, owner: Mapping[int, int]
    ) -> dict[int, tuple[int, ...]]:
        """Plan sockets hosted by each worker (for failure attribution)."""
        sockets: dict[int, set[int]] = defaultdict(set)
        for rt in spec.tasks:
            sockets[owner[rt.task_id]].add(rt.socket if rt.socket is not None else 0)
        return {wid: tuple(sorted(s)) for wid, s in sockets.items()}

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
        config = self.config
        registry = registry if registry is not None else NULL_REGISTRY
        driver = EpochDriver(
            spec,
            max_events,
            registry,
            epochs=epochs,
            resume=resume,
            on_epoch=on_epoch,
            overload=config.overload,
        )
        searched = self._place(spec, max_events, injector, resume)
        run = _PoolRun(self, spec, max_events, registry, injector, driver, searched)
        try:
            return driver.run(run)
        finally:
            run.stop()


#: Per-worker counters summed into ``runtime.dataplane.*``.
_DATAPLANE_COUNTERS = (
    "ring_full_blocks",
    "bytes_inline",
    "bytes_oob",
    "codec_fallbacks",
    "dict_columns",
    "dict_pages",
    "dict_bytes",
    "dict_promotions",
    "dict_demotions",
)

#: Per-worker counters published as ``runtime.worker.<id>.*``.
_WORKER_COUNTERS = (
    "send_blocks",
    "pickled_bytes_out",
    "remote_batches_out",
    "overflow_admissions",
    "spout_throttles",
)


class _PoolRun:
    """Parent side of one process-backend execution (one per ``run()``):
    the executor half of :class:`~repro.runtime.epochs.EpochDriver`'s
    contract.  A phase is a ``resume`` directive to every parked worker,
    then one report per worker — a *barrier report* (its share of the
    epoch snapshot: states and counts) after a non-final phase, the
    final outcome (with its ``Sink`` instances) after the last.  A pool
    is only ever started by :meth:`_launch`, under ``self.spec`` and
    from the driver's checkpoint (module docstring, Epoch barriers).
    """

    def __init__(
        self,
        backend: ProcessPoolBackend,
        spec: RuntimeSpec,
        max_events: int,
        registry: MetricsRegistry,
        injector: "FaultInjector | None",
        driver: EpochDriver,
        searched: "Placement | None",
    ) -> None:
        self.backend = backend
        self.spec = spec
        self.max_events = max_events
        self.registry = registry
        self.injector = injector
        self.driver = driver
        #: The execution's search (None: the spec carries plan sockets),
        #: and the task→worker map the live pool was forked under.
        self.searched = searched
        self.placement: "Placement | None" = None
        #: Seconds the pool spent streaming (phase resumed to last report)
        #: and the events a ``resume=`` checkpoint had ingested before it.
        self.streamed_s = 0.0
        resume = driver.checkpoint
        self.resumed_events = resume.events_ingested if resume is not None else 0
        # One deadline for the whole execution.  The workers get a copy,
        # so a blocked send or a parked worker gives up when the *run* is
        # out of budget (CLOCK_MONOTONIC is comparable across processes
        # on every platform we fork on).
        self.deadline = monotonic() + backend.config.timeout_s
        self.workers: list = []
        #: The parent's end of each worker's duplex pipe.
        self.pipes: list = []
        #: Latest report per worker of the live pool, and when (monotonic
        #: ns) the phase's last one arrived.
        self.reports: dict[int, dict] = {}
        self.held_at = 0
        #: Cumulative metrics / queue stats of pools a migration stopped.
        self.carried: list[dict] = []
        self.edge_stats: dict[tuple[int, int], QueueStats] = {}

    # ------------------------------------------------------------------
    # Pool lifetime
    # ------------------------------------------------------------------
    def _launch(self) -> None:
        """Fork a pool under ``self.spec``; every worker restores its
        partition from the newest committed checkpoint (``resume=``
        before the first commit), if any, and parks for its first
        directive."""
        backend = self.backend
        config = backend.config
        self.placement = backend._assign(self.spec, self.searched)
        # The pool is n_workers wide even if the search left one empty.
        n_workers, owner = self.placement.n_workers, self.placement.owner
        # Chains follow the owner map: an exclusive edge inside one
        # worker is one loop.  The spec keeps its plan sockets, which
        # failures are attributed to.
        spec = self.spec = with_chains(self.spec, owner)
        self.placement.chains = list(spec.fusion)
        self.worker_sockets = backend._sockets_of_workers(spec, owner)
        ctx = _mp_context()
        # The data plane owns the pool's transport resources (shm ring
        # segments, or pickle inboxes); closing it in stop() is what
        # guarantees no shared-memory segment survives the run, even
        # when workers crashed or the watchdog fired mid-flight.
        self.plane = create_dataplane(
            config.dataplane, ctx, n_workers, edge_schemas=spec.edge_schemas
        )
        self.placement.dataplane = self.plane.name
        # Shared state the parent's watchdog reads: heartbeat timestamps
        # (monotonic seconds, stamped by each worker once per loop and in
        # every wait), and one delivery counter per sink task, which
        # outlives the worker that stamps it.
        self.heartbeats = ctx.Array("d", [monotonic()] * n_workers, lock=False)
        self.progress = ctx.Array("q", len(spec.sink_tasks), lock=False)
        self.reports = {}
        injector = self.injector
        for worker_id in range(n_workers):
            parent_end, worker_end = ctx.Pipe()
            process = ctx.Process(
                target=_worker_main,
                args=(worker_id, spec, owner, self.max_events),
                kwargs=dict(
                    channel=self.plane.endpoint(worker_id),
                    config=config,
                    heartbeats=self.heartbeats,
                    schedule=injector.schedule if injector else (),
                    attempt=injector.attempt if injector else 0,
                    run_deadline=self.deadline,
                    checkpoint=self.driver.checkpoint,
                    edge_stats=self.edge_stats,
                    control=worker_end,
                    progress=self.progress,
                ),
                daemon=True,
            )
            process.start()
            # Closed before the next fork: the worker holds the only copy
            # of its end, so the parent reads EOF the moment it exits.
            worker_end.close()
            self.workers.append(process)
            self.pipes.append(parent_end)

    def stop(self) -> None:
        """Tear the pool down: whatever is still alive is terminated (a
        parked worker holds nothing the checkpoint does not), and closing
        the plane unlinks every segment."""
        if not self.workers:
            return
        for process in self.workers:
            if process.is_alive():
                process.terminate()
        for process in self.workers:
            process.join(timeout=5.0)
        self.plane.close()
        for pipe in self.pipes:
            pipe.close()
        self.workers, self.pipes = [], []

    # ------------------------------------------------------------------
    # EpochDriver contract
    # ------------------------------------------------------------------
    def run_phase(self, limit: int, final: bool, directive: Mapping) -> float:
        if not self.workers:
            self._launch()
        issued = monotonic_ns()
        message = {"limit": limit, "final": final, **directive}
        for pipe in self.pipes:
            # A worker that already exited refuses it: _await names it.
            with suppress(OSError):
                pipe.send(message)
        self._await()
        resumed = max(r["resumed_at"] for r in self.reports.values())
        self.streamed_s += (monotonic_ns() - resumed) / 1e9
        return resumed - issued

    def _union(self, key: str) -> dict:
        """One mapping out of every worker's latest ``key`` share."""
        return {
            k: v for report in self.reports.values() for k, v in report[key].items()
        }

    def collect(self) -> BarrierState:
        """Union the workers' barrier reports; their checkpoint shares
        stay the bytes each worker validated and pickled."""
        reports = [self.reports[w] for w in sorted(self.reports)]
        union = self._union
        boundaries = [r["boundary_at"] for r in reports if r["boundary_at"]]
        parked = max(r["parked_at"] for r in reports)
        shared = max(r["parked_at"] + r["snapshot_ns"] for r in reports)
        return BarrierState(
            shares=[r["share"] for r in reports],
            stats=union("stats"),
            spout_produced=union("spout_produced"),
            exhausted={t for r in reports for t in r["exhausted"]},
            sink_received=sum(r["sink_received"] for r in reports),
            queue_stats=union("edge_stats"),
            pressure=frozenset(e for r in reports for e in r["pressure"]),
            # No task_wall_ns: per-task wall-clock is an inline-backend
            # signal; workers only report per-process busy time.
            quiesce_ns=float(parked - min(boundaries)) if boundaries else 0.0,
            snapshot_ns=max(r["snapshot_ns"] for r in reports),
            report_ns=max(0.0, self.held_at - shared),
        )

    def migrate(self, migration: Migration, checkpoint: EpochCheckpoint) -> None:
        """Stop the quiescent pool and relaunch it, re-partitioned under
        the new placement, from the checkpoint just committed; the
        stopped pool's cumulative metrics and queue stats carry over."""
        self.carried += [r["metrics"] for r in self.reports.values()]
        self.edge_stats.update(self._union("edge_stats"))
        self.stop()
        self.spec = migration.spec
        self._launch()

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------
    def _await(self) -> None:
        """Collect one report per worker under the parent watchdog, the
        only place a worker's death becomes an error.

        Raises a typed :class:`ExecutionError` subclass naming the
        worker on any worker failure, stall or timeout — this method
        never blocks unboundedly.  The caller's ``stop()`` then tears
        down the survivors, which never judge their peers.
        """
        # Imported here: the inline executor imports this module too, and
        # has no use for the connection module's half megabyte.
        from multiprocessing.connection import wait

        config = self.backend.config
        workers = self.workers
        pending = set(range(len(workers)))
        while pending:
            watched = {}
            for w in pending:
                watched[self.pipes[w]] = watched[workers[w].sentinel] = w
            ready = {watched[r] for r in wait(list(watched), _POLL_INTERVAL_S)}
            # Read to the end first: whatever a worker sent before it
            # exited is there, so one still pending once its pipe closed
            # or its sentinel fired died without a report.
            lost = [
                w for w in sorted(ready) if self._read(w, pending) and w in pending
            ]
            if lost:
                for w in lost:
                    workers[w].join(_POLL_INTERVAL_S)  # reap: the exit code
                codes = {w: workers[w].exitcode for w in lost}
                raise WorkerCrashError(
                    f"worker(s) {lost} died without reporting a result "
                    f"(exit codes {codes})",
                    failed_workers=tuple(lost),
                    failed_sockets=self._sockets_of(lost),
                )
            if not pending:
                break
            now = monotonic()
            stale = [
                w
                for w in sorted(pending)
                if now - self.heartbeats[w] > config.heartbeat_timeout_s
            ]
            if stale:
                ages = {w: round(now - self.heartbeats[w], 2) for w in stale}
                raise StallError(
                    f"worker(s) {stale} stopped heartbeating "
                    f"(last heartbeat {ages} s ago, "
                    f"watchdog {config.heartbeat_timeout_s}s)",
                    failed_workers=tuple(stale),
                    failed_sockets=self._sockets_of(stale),
                )
            if now > self.deadline:
                raise StallError(
                    f"process backend timed out after {config.timeout_s}s "
                    f"waiting for worker results (workers {sorted(pending)} "
                    "still running)",
                    failed_workers=tuple(sorted(pending)),
                )
        self.held_at = monotonic_ns()

    def _read(self, worker_id: int, pending: set[int]) -> bool:
        """Take every report (or raise the error) waiting on the pipe of
        ``worker_id``; True once the worker exited."""
        pipe = self.pipes[worker_id]
        try:
            while pipe.poll():
                kind, *body = pipe.recv()
                if kind == "error":
                    error_class, text, trace = body
                    raise error_class(
                        f"worker {worker_id} failed: {text}\n{trace}",
                        failed_workers=(worker_id,),
                        failed_sockets=self._sockets_of([worker_id]),
                    )
                self.reports[worker_id] = body[0]
                pending.discard(worker_id)
        except (EOFError, OSError):
            return True
        return not self.workers[worker_id].is_alive()

    def _sockets_of(self, worker_ids: list[int]) -> tuple[int, ...]:
        return tuple(
            sorted(s for w in worker_ids for s in self.worker_sockets.get(w, ()))
        )

    # ------------------------------------------------------------------
    # Result
    # ------------------------------------------------------------------
    def result(self, partial: bool) -> RunResult:
        """Merge the workers' latest reports into a result: of a
        complete run, the final outcomes.  A partial one (failure path)
        takes task counters from whatever reports did arrive — the last
        barrier's, for workers that died or were still running — and sink
        deliveries from the shared progress slots, live up to the failure
        whichever worker it hit."""
        spec = self.spec
        reports = self.reports
        sinks_by_task: dict[int, Sink] = {}
        for report in reports.values():
            sinks_by_task.update(report.get("sinks", ()))
        sinks: dict[str, list[Sink]] = defaultdict(list)
        for slot, rt in enumerate(spec.sink_tasks):
            sink = sinks_by_task.get(rt.task_id)
            if sink is None and partial and self.workers:
                sink = Sink()
                sink.received = self.progress[slot]
            if sink is not None:
                sinks[rt.component].append(sink)
        # Run-level figures also count the pools a migration stopped.
        metrics_of = {worker_id: r["metrics"] for worker_id, r in reports.items()}
        every = [*self.carried, *metrics_of.values()]
        summaries = [metrics.get("fault_summary") for metrics in every]
        result = RunResult(
            topology_name=spec.topology.name,
            events_ingested=sum(self._union("spout_produced").values()),
            task_stats=self._union("stats"),
            sinks=dict(sinks),
            fault_summary=(
                merge_fault_summaries(*summaries) if any(summaries) else None
            ),
            placement=self.placement,
            partial=partial,
        )
        manager = self.driver.manager
        if manager is not None and not partial:
            for metrics in every:
                manager.merge_shed_snapshot(metrics.get("overload_shed"))
        if not partial:
            self.placement.settle(
                result.events_ingested - self.resumed_events, self.streamed_s
            )
        registry = self.registry
        if partial or not registry.enabled:
            return result
        publish_engine_metrics(
            registry,
            spec,
            result,
            self._union("edge_stats"),
            self._union("whole"),
        )
        self.placement.publish(registry)
        registry.gauge("runtime.run.workers").set(len(reports))
        totals = {
            key: sum(metrics.get(key, 0.0) for metrics in every)
            for key in ("pickled_bytes_out", *_DATAPLANE_COUNTERS, *STEP_COUNTERS)
        }
        for worker_id, metrics in sorted(metrics_of.items()):
            prefix = f"runtime.worker.{worker_id}"
            for key in ("busy_fraction", "blocked_send_ns"):
                registry.gauge(f"{prefix}.{key}").set(metrics.get(key, 0.0))
            for key in _WORKER_COUNTERS:
                registry.counter(f"{prefix}.{key}").inc(int(metrics.get(key, 0)))
        registry.counter("runtime.run.pickled_bytes").inc(
            int(totals["pickled_bytes_out"])
        )
        for key in _DATAPLANE_COUNTERS:
            # dict_* counters publish under a dotted sub-namespace:
            # runtime.dataplane.dict.{columns,pages,bytes,...}.
            name = key.replace("dict_", "dict.")
            registry.counter(f"runtime.dataplane.{name}").inc(int(totals[key]))
        publish_step_counters(registry, totals)
        # Total payload bytes the run moved between workers, whatever
        # the transport: pickled control-queue payloads plus the shm
        # plane's codec payloads, in one frame or in parts.
        registry.counter("runtime.run.dataplane_bytes").inc(
            int(
                totals["pickled_bytes_out"]
                + totals["bytes_inline"]
                + totals["bytes_oob"]
            )
        )
        return result


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_main(
    worker_id: int,
    spec: RuntimeSpec,
    owner: Mapping[int, int],
    max_events: int,
    **kwargs: Any,
) -> None:
    worker = None
    control = kwargs["control"]
    try:
        worker = _Worker(worker_id, spec, owner, max_events, **kwargs)
        worker.run()
    except BaseException as exc:
        # Typed runtime errors keep their class (pickled by name) and
        # message across the process boundary; anything else travels as
        # its repr.  The parent may be gone, or have stopped the pool.
        typed = isinstance(exc, ExecutionError)
        error = type(exc) if typed else ExecutionError
        text = str(exc) if typed else repr(exc)
        with suppress(OSError):
            control.send(("error", error, text, traceback.format_exc()))
    finally:
        # Detach this worker's channel resources (shm mappings must be
        # closed before exit; the parent owns segment lifetime/unlink).
        if worker is not None:
            worker.channel.close()


class _Worker:
    """One worker process: steps a :class:`~repro.runtime.step.TaskStep`
    hosting its share of the tasks, phase after phase, for the whole
    run — scheduling quanta, channels, liveness and barrier reports."""

    def __init__(
        self,
        worker_id: int,
        spec: RuntimeSpec,
        owner: Mapping[int, int],
        max_events: int,
        channel: ChannelEndpoint,
        config: RunConfig,
        *,
        heartbeats: Any = None,
        schedule: tuple = (),
        attempt: int = 0,
        run_deadline: float | None = None,
        send_deadline_s: float = _SEND_DEADLINE_S,
        checkpoint: EpochCheckpoint | None = None,
        edge_stats: Mapping[tuple[int, int], QueueStats] | None = None,
        control: Any = None,
        progress: Any = None,
    ) -> None:
        self.me = worker_id
        self.owner = dict(owner)
        self.channel = channel
        self.channel.connect()
        self.ordered = config.ordered
        self.heartbeats = heartbeats
        self.control = control
        # What bounds a wait: the run's deadline bounds every one, a
        # send's own deadline a blocked send (``send_deadline_s`` is the
        # white-box tests' seam).
        self.run_deadline = run_deadline
        self.send_deadline_s = send_deadline_s
        # The current phase, set by each resume directive: the cumulative
        # per-spout bound, and whether it closes the stream.
        self.limit = max_events
        self.final = True
        # Spout-side deterministic shedding, keyed by the spout's
        # cumulative tuple offset, so the decision stream is identical
        # across phases, backends and replays; built by the first
        # directive that carries the ladder's shed context.
        self.shedder: Shedder | None = None
        mine = [task_id for task_id, wid in self.owner.items() if wid == worker_id]
        self.injector = (
            FaultInjector(
                tuple(schedule),
                attempt,
                tasks=set(mine),
                # A pool launched from a checkpoint seeds the per-task
                # tuple counts so trigger offsets stay run-absolute and
                # faults spent before it never re-fire.
                base_counts=checkpoint.tick_counts() if checkpoint else None,
            )
            if schedule
            else None
        )
        if self.injector is not None:
            self.injector.follow_chains(spec.fusion)
        # The task host: this worker's partition (a fused chain runs
        # inline in its head, and chains were derived from the owner map,
        # so all its members are here), resumed from the checkpoint the
        # pool was launched from;
        # its input queues continue a stopped pool's cumulative stats.
        # An armed injector needs per-tuple fault ticks, so it disables
        # kernels for the run; the shedder follows the directives.
        # Ordered mode cannot bound its queues (module docstring).
        self.step = TaskStep(
            spec,
            max_events,
            tasks=mine,
            checkpoint=checkpoint,
            vectorized=config.vectorized,
            tick=self._fault_tick if self.injector is not None else None,
            bounded=not config.ordered,
            queue_stats=edge_stats,
        )
        #: The step's counters; this worker adds its transport counters.
        self.metrics = self.step.metrics
        #: Arrival mode: per consumer, the in-edges of its queued
        #: batches in the order they arrived, as ``[edge, batches]`` runs.
        self.arrival: dict[int, deque] = {task_id: deque() for task_id in mine}
        self.eof: set[tuple[int, int]] = set()
        self.completed: set[int] = set()
        # A received batch refused hard admission, already decoded — kept
        # as (producer, consumer, payload) so a retry never re-decodes
        # (and the shm ring slot it came from is already released).  The
        # payload is a tuple list or, for columnar consumers, possibly a
        # ColumnBatch; both support len() everywhere admission cares.
        self.held: tuple[int, int, Any] | None = None
        #: Sink task id -> its slot of the shared delivery counters.
        self.sink_slots = {
            rt.task_id: slot
            for slot, rt in enumerate(spec.sink_tasks if progress is not None else ())
            if rt.task_id in self.step.instances
        }
        self.progress = progress
        if checkpoint is not None:
            for task_id in self.sink_slots:
                self._stamp_progress(task_id)
        # Barrier bookkeeping (monotonic ns; comparable across workers).
        self.boundary_at: int | None = None  # first local spout at the boundary
        self.resumed_at = 0
        self.blocks_seen = 0.0  # transport stalls reported so far
        self.started = perf_counter()
        self.idle_s = 0.0

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    def _beat(self) -> None:
        if self.heartbeats is not None:
            self.heartbeats[self.me] = monotonic()

    def _wait(self, parked: bool = False) -> float:
        """The one place a worker waits — idle, parked at a barrier or
        blocked on a send: heartbeat, give up past the run deadline, then
        block for one quantum (the control pipe's poll when ``parked``,
        a short sleep otherwise).  Returns the seconds waited, timed
        rather than assumed: a 200 us sleep takes a millisecond or more
        on a busy host, and busy_fraction is 1 - idle."""
        self._beat()
        started = monotonic()
        if self.run_deadline is not None and started > self.run_deadline:
            raise StallError(f"worker {self.me}: still waiting past the run deadline")
        if parked:
            self.control.poll(_POLL_INTERVAL_S)
        else:
            time.sleep(_IDLE_SLEEP_S)
        return monotonic() - started

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def _fault_tick(self, rt: TaskRuntime) -> None:
        """The step's fault tick: count one tuple at ``rt`` and act on a
        fired crash/raise/stall fault (``drop`` faults only flip
        injector state; :meth:`_dispatch` honors them)."""
        fault = self.injector.tick(rt.task_id)
        if fault is None:
            return
        if fault.kind == "crash":
            # A real worker loss: die hard, without flushing buffers or
            # posting a result.  The parent watchdog attributes it.
            os._exit(CRASH_EXIT_CODE)
        if fault.kind == "raise":
            raise InjectedFaultError(
                f"injected operator failure: {fault.describe()}"
            )
        if fault.kind == "stall":
            # Stop heartbeating and stop working: the parent watchdog
            # converts this into a StallError within its timeout.
            while True:
                time.sleep(_POLL_INTERVAL_S)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Phase after phase until the final one: park for the parent's
        directive, run to the phase boundary, report."""
        directive = self._await_directive()
        while True:
            self._resume(directive)
            self._run_phase()
            if self.final:
                sinks = {
                    task_id: instance
                    for task_id, instance in self.step.instances.items()
                    if isinstance(instance, Sink)
                }
                # Where columnar output was cut: the jumbo_fill_ratio basis.
                self._report("ok", sinks=sinks, whole=self.step.whole)
                return
            directive = self._barrier()

    def _run_phase(self) -> None:
        """Until every local task has closed its outputs for the phase:
        spouts at the boundary, the others once a marker (an EOF that
        the next ``resume`` resets) arrived on every in-edge."""
        while len(self.completed) < len(self.step.mine):
            self._beat()
            progress = self._receive(limit=64, soft=False)
            progress += self._step_spouts()
            progress += self._step_process(_PROCESS_QUANTUM)
            progress += self._complete_ready()
            if not progress:
                self.idle_s += self._wait()

    # ------------------------------------------------------------------
    # Barriers
    # ------------------------------------------------------------------
    def _barrier(self) -> dict:
        """Every local task is parked at the epoch boundary: validate,
        snapshot and pickle this worker's share in place, send it up as
        one report, and wait for the parent's answer."""
        parked_at = monotonic_ns()
        started = perf_counter()
        states, sink_received = self.step.snapshot()
        share = seal_share(states, self.step.counters, self.step.stats)
        # Pressure beyond blocked_batches: a worker that stalled on its
        # shm ring or blocked on remote sends this epoch marks all its
        # remote out-edges as pressured (the transport does not say
        # which edge).  The overload ladder reads it.
        blocks = self.metrics["send_blocks"] + self.channel.metrics["ring_full_blocks"]
        pressure = [
            (edge.producer, edge.consumer)
            for rt in self.step.mine
            for edge in rt.out_edges
            if blocks > self.blocks_seen and self.owner[edge.consumer] != self.me
        ]
        self.blocks_seen = blocks
        self._report(
            "barrier",
            share=share,
            sink_received=sink_received,
            pressure=pressure,
            parked_at=parked_at,
            snapshot_ns=(perf_counter() - started) * 1e9,
        )
        return self._await_directive()

    def _await_directive(self) -> dict:
        """Park until the parent answers ``resume {...}`` (or stops the
        pool).  Parked workers keep heartbeating — a slow barrier
        observer (an RLAS re-plan takes seconds) must not read as a
        stall — and give up with the run's deadline."""
        while not self.control.poll():
            self.idle_s += self._wait(parked=True)
        return self.control.recv()

    def _resume(self, directive: Mapping) -> None:
        """Start the next phase on warm state: new bounds, the ladder's
        shed rung; markers and completions reset."""
        self.limit = directive["limit"]
        self.final = directive["final"]
        shed = directive.get("shed")
        if shed is not None:
            if self.shedder is None:
                self.shedder = Shedder(shed["mode"], shed["rate"], shed["seed"])
            self.shedder.active = shed["active"]
            self.step.shedder = self.shedder if shed["active"] else None
        self.eof.clear()
        self.completed.clear()
        self.boundary_at = None
        self.resumed_at = monotonic_ns()

    def _report(self, kind: str, **extra: Any) -> None:
        """Post this worker's cumulative counters to the parent, plus
        what only a barrier (``share`` ...) or the end (``sinks``,
        ``whole``) has."""
        wall_s = max(perf_counter() - self.started, 1e-9)
        metrics = dict(self.metrics)
        metrics["busy_fraction"] = max(0.0, 1.0 - self.idle_s / wall_s)
        for key, value in self.channel.snapshot_metrics().items():
            metrics[key] = metrics.get(key, 0.0) + value
        if self.injector is not None:
            metrics["fault_summary"] = self.injector.summary()
        if self.shedder is not None:
            # The parent folds every worker's final snapshot into the
            # run-level OverloadReport.
            metrics["overload_shed"] = self.shedder.snapshot()
        self._beat()
        self.control.send(
            (
                kind,
                {
                    "stats": self.step.stats,
                    "spout_produced": dict(self.step.spout_produced),
                    "exhausted": sorted(self.step.exhausted),
                    "edge_stats": self.step.queue_stats,
                    "metrics": metrics,
                    "boundary_at": self.boundary_at,
                    "resumed_at": self.resumed_at,
                    **extra,
                },
            )
        )

    def _stamp_progress(self, task_id: int) -> None:
        self.progress[self.sink_slots[task_id]] = self.step.instances[
            task_id
        ].received

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _land(self, key: tuple[int, int], payload: Any) -> None:
        """Queue an admitted batch (a tuple list or a ColumnBatch) on
        its in-edge; arrival mode also notes when it came."""
        self.step.queues[key].offer(payload, force=True)
        if not self.ordered and len(payload):  # an empty batch is not queued
            fifo = self.arrival[key[1]]
            if fifo and fifo[-1][0] == key:
                fifo[-1][1] += 1
            else:
                fifo.append([key, 1])

    def _receive(self, limit: int, soft: bool) -> int:
        """Drain up to ``limit`` channel messages; returns how many landed.

        ``soft=False`` (main loop) refuses over-capacity batches, holding
        the refused message so the channel backs up and remote producers
        block — per-edge backpressure.  ``soft=True`` (used while this
        worker is itself blocked on a send) admits everything to keep the
        worker graph deadlock-free.  Never blocks: channel reads are
        non-blocking polls, so a dead producer cannot hang this path (the
        parent's watchdog ends the resulting idle wait).
        """
        received = 0
        for _ in range(limit):
            if self.held is not None:
                producer, consumer, payload = self.held
                self.held = None
            else:
                message = self.channel.try_get()
                if message is None:
                    break
                if message[0] == "eof":
                    self.eof.add((message[1], message[2]))
                    received += 1
                    continue
                # Decode before admission: frees the transport resource
                # (shm ring slot) promptly, and a held retry re-admits the
                # already-decoded payload instead of decoding twice.
                # Consumers with a columnar kernel get the payload as a
                # ColumnBatch where the wire format allows.
                producer, consumer, payload = self.channel.unpack(
                    message,
                    columns=self.channel.peek_consumer(message)
                    in self.step.kernels,
                )
            key = (producer, consumer)
            if not self.step.queues[key].has_space(len(payload)):
                if not soft:
                    self.held = (producer, consumer, payload)
                    break
                self.metrics["overflow_admissions"] += 1
            self._land(key, payload)
            received += 1
        return received

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _channel_full(self, producer: int, consumer: int) -> bool:
        if self.owner[consumer] == self.me:
            return self.step.queues[(producer, consumer)].is_full
        return self.channel.dest_full(self.owner[consumer])

    def _dispatch(self, producer: int, consumer: int, payload: Any) -> None:
        """Send one batch — a sealed jumbo tuple, a bare tuple list or a
        ColumnBatch, shipped whole — to ``consumer``, wherever it runs."""
        if isinstance(payload, JumboTuple):
            payload = payload.tuples
        if not len(payload):
            return
        if self.injector is not None and self.injector.take_drop(
            producer, len(payload)
        ):
            # Injected message loss: the batch vanishes before delivery.
            return
        if self.owner[consumer] == self.me:
            self._deliver_local(producer, consumer, payload)
            return
        # Packing seals the batch exactly once — byte counters live
        # there, so an overflow-admission retry inside _blocking_put can
        # never double-count a batch.
        dest = self.owner[consumer]
        self._blocking_put(
            dest, self.channel.pack(dest, producer, consumer, payload)
        )

    def _deliver_local(self, producer: int, consumer: int, tuples: Any) -> None:
        key = (producer, consumer)
        queue = self.step.queues[key]
        # Hard local bound: make room by processing the consumer's
        # backlog in place (always possible — head batches only flow
        # downstream, and the graph is acyclic).
        blocked_from = None
        while not queue.has_space(len(tuples)) and self._process_one(consumer):
            if blocked_from is None:
                blocked_from = perf_counter()
                queue.stats.blocked_batches += 1
        if blocked_from is not None:
            queue.stats.blocked_ns += (perf_counter() - blocked_from) * 1e9
        self._land(key, tuples)

    def _blocking_put(self, target_worker: int, message: tuple) -> None:
        """Send to a peer's channel, waiting while it is full.

        While blocked the worker keeps draining its own channels (softly:
        never refuse) so a ring of mutually-blocked workers cannot
        deadlock, and waits in :meth:`_wait` when nothing arrived.  A
        send still blocked after ``send_deadline_s`` raises
        :class:`~repro.errors.QueueDeadlockError`.  A dead peer is the
        parent's to report, and it stops this worker long before that.
        """
        if self.channel.try_put(target_worker, message):
            return
        self.metrics["send_blocks"] += 1
        blocked_from = perf_counter()
        deadline = monotonic() + self.send_deadline_s
        while not self.channel.try_put(target_worker, message):
            self._beat()
            if monotonic() > deadline:
                raise QueueDeadlockError(
                    f"worker {self.me}: send to worker {target_worker} "
                    f"blocked past its {self.send_deadline_s}s deadline"
                )
            if not self._receive(limit=16, soft=True):
                self._wait()
        self.metrics["blocked_send_ns"] += (perf_counter() - blocked_from) * 1e9

    def _send_eof(self, producer: int, consumer: int) -> None:
        if self.owner[consumer] == self.me:
            self.eof.add((producer, consumer))
        else:
            self._blocking_put(self.owner[consumer], ("eof", producer, consumer))

    # ------------------------------------------------------------------
    # Step deliveries
    # ------------------------------------------------------------------
    def _deliver(self, deliveries: Iterator[Delivery]) -> None:
        """Hand the step's deliveries over: to a local backlog or a
        peer's channel, or — addressed to a fused chain member — back to
        the step to run scalar from that stage."""
        for producer, consumer, payload in deliveries:
            stage = self.step.stages.get(consumer)
            if stage is None:
                self._dispatch(producer, consumer, payload)
            else:
                chain, position = stage
                self._deliver(self.step.run_rows(chain, position, payload))

    def _flush_task(self, rt: TaskRuntime) -> None:
        self._deliver(self.step.flush_buffers(rt))
        for edge in rt.out_edges:
            self._send_eof(edge.producer, edge.consumer)
        self.completed.add(rt.task_id)

    # ------------------------------------------------------------------
    # Spouts
    # ------------------------------------------------------------------
    def _step_spouts(self) -> int:
        progress = 0
        for rt in self.step.mine:
            if not rt.is_spout or rt.task_id in self.completed:
                continue
            if any(
                self._channel_full(edge.producer, edge.consumer)
                for edge in rt.out_edges
            ):
                # Backpressure reached the source: pause ingestion until
                # downstream drains.
                self.metrics["spout_throttles"] += 1
                continue
            step = self.step
            produced = step.spout_produced[rt.task_id]
            chunk = max(0, min(_SPOUT_CHUNK, self.limit - produced))
            if step.columnar_sources:
                self._deliver(step.emit_columns(rt, chunk))
            else:
                for _ in range(chunk):
                    values = step.draw(rt)
                    if values is None:
                        break
                    self._deliver(step.emit(rt, values))
            progress += step.spout_produced[rt.task_id] - produced
            if (
                rt.task_id in step.exhausted
                or step.spout_produced[rt.task_id] >= self.limit
            ):
                # Source dried up, or the phase boundary (epoch barrier)
                # was reached: flush, then a marker down every out-edge.
                if self.boundary_at is None:
                    self.boundary_at = monotonic_ns()
                self._flush_task(rt)
                progress += 1
        return progress

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------
    def _next_batch(self, rt: TaskRuntime) -> Any:
        """The next queued batch of ``rt``, or None when it has to wait."""
        queues = self.step.queues
        if self.ordered:
            # Strict edge order: only the earliest edge that is still live
            # may be processed; if it has no data yet, wait.
            for edge in rt.in_edges:
                key = (edge.producer, edge.consumer)
                batch, _ = queues[key].take()
                if batch is not None:
                    return batch
                if key not in self.eof:
                    return None
            return None
        fifo = self.arrival[rt.task_id]
        if not fifo:
            return None
        # The head edge's run, up to the next arrival on another edge.
        key, waiting = head = fifo[0]
        batch, merged = queues[key].take(waiting)
        if merged == waiting:
            fifo.popleft()
        else:
            head[1] -= merged
        return batch

    def _process_one(self, consumer: int) -> bool:
        """Process one queued batch of chain head ``consumer``; False
        when none."""
        chain = self.step.chains[consumer]
        payload = self._next_batch(chain[0])
        if payload is None:
            return False
        self._deliver(self.step.run(chain, payload))
        if consumer in self.sink_slots:
            self._stamp_progress(consumer)
        return True

    def _complete_chain(self, chain: tuple[TaskRuntime, ...]) -> None:
        """Finish a chain (an unfused task is a chain of one) whose
        head's inputs reached EOF: in the final phase the staged
        ``flush()``, then every constituent flushes its output buffers
        and sends EOF — the barrier marker, in any other phase —
        downstream, head first."""
        if self.final:
            self._deliver(self.step.flush_chain(chain))
        for rt in chain:
            self._flush_task(rt)

    def _step_process(self, quantum: int) -> int:
        progress = 0
        for head in self.step.chains:
            if head in self.completed:
                continue
            for _ in range(quantum):
                if not self._process_one(head):
                    break
                progress += 1
        return progress

    def _complete_ready(self) -> int:
        progress = 0
        queues = self.step.queues
        for head, chain in self.step.chains.items():
            if head in self.completed:
                continue
            for edge in chain[0].in_edges:
                key = (edge.producer, edge.consumer)
                if key not in self.eof or not queues[key].is_empty:
                    break
            else:
                self._complete_chain(chain)
                progress += 1
        return progress
