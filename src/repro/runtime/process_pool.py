"""Process-pool executor: true parallel execution across worker processes.

The GIL limits the inline backend to one core, so this backend partitions
the lowered task table across ``multiprocessing`` workers — by plan socket
when the spec carries a placement (one worker per socket, mirroring
BriskStream's NUMA partitioning), round-robin otherwise — and ships
sealed jumbo batches between workers as pickled payloads over bounded
``mp.Queue`` inboxes.

Flow control happens at three levels:

* **local edges** (producer and consumer on the same worker) use the
  spec's per-edge tuple capacities as hard bounds: an over-capacity
  append makes the producer process the consumer's backlog in place
  until the batch fits;
* **remote edges** are physically bounded by the consumer worker's inbox
  (``inbox_batches`` jumbo batches): a full inbox blocks the sending
  task.  While blocked, a worker keeps draining its *own* inbox (admitting
  over-capacity batches rather than deadlocking; such overflow is counted
  and reported) so that mutually-sending workers always make progress;
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

Liveness
--------
Every worker stamps a shared heartbeat slot once per scheduling loop, and
the parent writes observed exit codes into a shared status array.  Three
watchdogs turn what used to be silent hangs into typed, bounded errors
(see docs/robustness.md):

* the **parent watchdog** polls worker results, converting a dead worker
  into :class:`~repro.errors.WorkerCrashError` and a stale-but-alive
  worker (or an exhausted overall budget) into
  :class:`~repro.errors.StallError`, always with a partial
  :class:`~repro.runtime.results.RunResult` merged from the workers that
  did finish;
* a **blocked send** (:meth:`_Worker._blocking_put`) raises
  :class:`~repro.errors.WorkerCrashError` as soon as the parent marks the
  destination worker dead, and :class:`~repro.errors.QueueDeadlockError`
  when the send exceeds ``send_timeout_s`` with the peer still alive;
* an **idle worker** whose upstream producers' workers died raises
  :class:`~repro.errors.WorkerCrashError` instead of waiting forever for
  EOF markers that will never arrive.

Fault injection (:mod:`repro.runtime.faults`) threads through the same
paths: each worker arms an injector over its own task partition, so a
``crash`` fault genuinely kills the hosting process (``os._exit``) and
the watchdogs above are what detect it.
"""

from __future__ import annotations

import os
import pickle
import queue as queue_mod
import random
import time
import traceback
from collections import defaultdict, deque
from time import monotonic, perf_counter
from typing import TYPE_CHECKING, Any, Iterator, Mapping

import multiprocessing as mp

from repro.dsps.operators import Operator, Sink
from repro.dsps.queues import OutputBuffer, QueueStats
from repro.dsps.tuples import JumboTuple, StreamTuple
from repro.errors import (
    ExecutionError,
    InjectedFaultError,
    QueueDeadlockError,
    StallError,
    TopologyError,
    WorkerCrashError,
)
from repro.metrics.registry import NULL_REGISTRY, MetricsRegistry
from repro.runtime.backends import (
    ExecutorBackend,
    publish_engine_metrics,
    require_vectorized,
    validate_vectorized,
)
from repro.runtime.dataplane import (
    DATAPLANE_NAMES,
    DEFAULT_RING_BYTES,
    STRING_DICT_MODES,
    ChannelEndpoint,
    ColumnBatch,
    PickleQueueChannel,
    create_dataplane,
)
from repro.runtime.epochs import (
    EpochCheckpoint,
    EpochCommit,
    EpochConfig,
    EpochReport,
    fast_forward,
    restore_tasks,
)
from repro.runtime.batching import AdaptiveBatchConfig, AdaptiveBatchController
from repro.runtime.faults import FaultInjector, merge_fault_summaries
from repro.runtime.overload import (
    CircuitBreaker,
    EdgeWindow,
    OverloadConfig,
    OverloadManager,
    SendRetryPolicy,
    Shedder,
    decorrelated_jitter,
)
from repro.runtime.lowering import (
    RuntimeSpec,
    TaskRuntime,
    apply_edge_batches,
    instantiate_task,
)
from repro.runtime.results import RunResult, TaskStats
from repro.runtime.step import (
    STEP_COUNTERS,
    Delivery,
    TaskStep,
    chain_stages,
    publish_step_counters,
)

if TYPE_CHECKING:
    from repro.runtime.backends import OnEpoch
    from repro.runtime.faults import Fault

#: Default bound, in jumbo batches, of each worker's inbox queue.
DEFAULT_INBOX_BATCHES = 64

#: Events a spout generates per scheduling quantum.
_SPOUT_CHUNK = 256

#: Batches an operator processes per scheduling quantum.
_PROCESS_QUANTUM = 8

#: Sleep while no local progress is possible (seconds).
_IDLE_SLEEP_S = 0.0002

#: Parent watchdog poll interval while waiting for worker results (s).
_POLL_INTERVAL_S = 0.05

#: Grace window for late result messages from a worker seen dead (s).
_DEATH_GRACE_S = 0.5

#: Exit code an injected ``crash`` fault dies with (distinguishable from
#: interpreter crashes in the parent's diagnostics).
CRASH_EXIT_CODE = 70

#: Sentinel in the shared status array: worker still running.
_STATUS_RUNNING = -1000

#: Worker-side error kinds mapped back to typed exceptions in the parent.
_ERROR_CLASSES = {
    "WorkerCrashError": WorkerCrashError,
    "StallError": StallError,
    "QueueDeadlockError": QueueDeadlockError,
    "InjectedFaultError": InjectedFaultError,
    "ExecutionError": ExecutionError,
}


def _mp_context() -> mp.context.BaseContext:
    """Prefer ``fork`` (fast, inherits the lowered spec) over ``spawn``."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class ProcessPoolBackend(ExecutorBackend):
    """Execute a lowered spec on a pool of worker processes.

    Parameters
    ----------
    n_workers:
        Worker process count.  Defaults to one worker per placement
        socket when the spec is placed on more than one socket, else
        ``min(4, cpu_count)``.
    ordered:
        Process each task's input edges in strict declaration order
        (see module docstring).  Default False (arrival order).
    inbox_batches:
        Bound, in jumbo batches, of each worker's inbox.
    timeout_s:
        Parent-side bound on the whole execution; exceeding it raises
        :class:`~repro.errors.StallError` (never a silent hang).
    heartbeat_timeout_s:
        A worker whose heartbeat is older than this is considered stalled
        (parent side) or dead (peer side, combined with the status
        array).  Workers heartbeat once per scheduling loop, so normal
        operation refreshes it every few milliseconds.
    send_timeout_s:
        Worker-side bound on one blocked remote send; exceeding it with
        the peer still alive raises
        :class:`~repro.errors.QueueDeadlockError`.
    dataplane:
        Transport for remote batches: ``"pickle"`` (default — pickled
        payloads inside the control queues, the historical behavior) or
        ``"shm"`` (binary-codec payloads written once into per-pair
        shared-memory rings, descriptors over the control queues).  See
        docs/dataplane.md.
    ring_bytes:
        Capacity of each per-worker-pair ring when ``dataplane="shm"``.
    vectorized:
        Columnar kernel mode: ``"auto"`` (default — use vectorized
        ``process_columns`` kernels when numpy is available, falling
        through per batch otherwise), ``"on"`` (fail if numpy is
        missing) or ``"off"`` (scalar execution only).  See
        docs/vectorized.md.
    batching:
        Optional :class:`~repro.runtime.batching.AdaptiveBatchConfig`
        enabling the per-edge AIMD batch-size controller.  Adjustments
        happen only at epoch barriers (one AIMD step per slice, fed by
        that slice's per-edge queue statistics and worker pressure
        signals), so runs without an :class:`EpochConfig` keep their
        configured sizes.  See docs/fusion.md.
    overload:
        Optional :class:`~repro.runtime.overload.OverloadConfig` arming
        the overload-control ladder (lag SLOs, load shedding, spout
        throttling).  Like adaptive batching it is stepped once per
        epoch slice, so it requires an :class:`EpochConfig`.  See
        docs/overload.md.
    send_retry:
        Optional :class:`~repro.runtime.overload.SendRetryPolicy`
        overriding the blocked-send retry/backoff/circuit-breaker
        behaviour; by default the policy's deadline is
        ``send_timeout_s`` (preserving the historical bound) with
        decorrelated-jitter sleeps and a half-open probe circuit.
    """

    name = "process"

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        ordered: bool = False,
        inbox_batches: int = DEFAULT_INBOX_BATCHES,
        timeout_s: float = 300.0,
        heartbeat_timeout_s: float = 10.0,
        send_timeout_s: float = 30.0,
        dataplane: str = "pickle",
        ring_bytes: int = DEFAULT_RING_BYTES,
        vectorized: str = "auto",
        string_dict: str = "auto",
        batching: AdaptiveBatchConfig | None = None,
        overload: OverloadConfig | None = None,
        send_retry: SendRetryPolicy | None = None,
    ) -> None:
        if n_workers is not None and n_workers < 1:
            raise ExecutionError(f"n_workers must be >= 1, got {n_workers}")
        if inbox_batches < 1:
            raise ExecutionError(f"inbox_batches must be >= 1, got {inbox_batches}")
        if timeout_s <= 0:
            raise ExecutionError(f"timeout_s must be positive, got {timeout_s}")
        if heartbeat_timeout_s <= 0:
            raise ExecutionError(
                f"heartbeat_timeout_s must be positive, got {heartbeat_timeout_s}"
            )
        if send_timeout_s <= 0:
            raise ExecutionError(
                f"send_timeout_s must be positive, got {send_timeout_s}"
            )
        if dataplane not in DATAPLANE_NAMES:
            raise ExecutionError(
                f"unknown dataplane {dataplane!r}; "
                f"expected one of {DATAPLANE_NAMES}"
            )
        if ring_bytes < 4096:
            raise ExecutionError(f"ring_bytes must be >= 4096, got {ring_bytes}")
        validate_vectorized(vectorized)
        if string_dict not in STRING_DICT_MODES:
            raise ExecutionError(
                f"unknown string_dict {string_dict!r}; "
                f"expected one of {STRING_DICT_MODES}"
            )
        self.n_workers = n_workers
        self.ordered = ordered
        self.inbox_batches = inbox_batches
        self.timeout_s = timeout_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.send_timeout_s = send_timeout_s
        self.dataplane = dataplane
        self.ring_bytes = ring_bytes
        self.vectorized = vectorized
        self.string_dict = string_dict
        self.batching = batching
        self.overload = overload
        self.send_retry = (
            send_retry
            if send_retry is not None
            else SendRetryPolicy(deadline_s=send_timeout_s)
        )

    # ------------------------------------------------------------------
    # Parent side
    # ------------------------------------------------------------------
    def _assign(self, spec: RuntimeSpec) -> tuple[int, dict[int, int]]:
        """Partition task ids over workers, grouping by plan socket."""
        groups = spec.socket_groups()
        sockets = sorted(groups)
        n = self.n_workers
        if n is None:
            n = len(sockets) if len(sockets) > 1 else min(4, os.cpu_count() or 1)
        n = max(1, n)
        owner: dict[int, int] = {}
        if len(sockets) >= n:
            # One worker per socket (wrapping when sockets > workers) keeps
            # same-socket tasks colocated, so their edges stay in-process.
            for index, socket in enumerate(sockets):
                for task_id in groups[socket]:
                    owner[task_id] = index % n
        else:
            # Fewer socket groups than workers: spread tasks round-robin so
            # every worker gets a share of the pipeline.
            position = 0
            for socket in sockets:
                for task_id in groups[socket]:
                    owner[task_id] = position % n
                    position += 1
        # A fused chain executes inline in its head's scheduling loop, so
        # every constituent must live in the head's process.  Chains only
        # span one socket (plan_fusion's eligibility rule), so this never
        # fights the socket partitioning above — it only overrides the
        # round-robin spread.
        for chain in spec.fusion:
            head_owner = owner[chain[0]]
            for task_id in chain[1:]:
                owner[task_id] = head_owner
        return n, owner

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
        if max_events < 0:
            raise TopologyError("max_events must be >= 0")
        require_vectorized(self.vectorized)
        registry = registry if registry is not None else NULL_REGISTRY
        if epochs is not None:
            return self._execute_epochs(
                spec, max_events, registry, injector, epochs, resume, on_epoch
            )
        if self.overload is not None:
            raise ExecutionError(
                "overload control requires epoch barriers "
                "(pass an EpochConfig / --epoch-interval)"
            )
        if resume is not None:
            raise ExecutionError(
                "resume from a checkpoint requires epoch barriers "
                "(pass an EpochConfig)"
            )
        n_workers, outcomes = self._run_slice(spec, max_events, injector, None)
        return self._merge(spec, registry, n_workers, outcomes)

    def _run_slice(
        self,
        spec: RuntimeSpec,
        max_events: int,
        injector: "FaultInjector | None",
        epoch_ctx: dict | None,
    ) -> tuple[int, list[tuple]]:
        """Launch one worker pool and collect every worker's outcome.

        ``epoch_ctx`` (barrier runs only) carries the epoch slice bounds
        and the previous checkpoint to each worker; ``None`` runs the
        whole event budget in one pool — the historical behavior.
        """
        n_workers, owner = self._assign(spec)
        worker_sockets = self._sockets_of_workers(spec, owner)
        schedule: tuple["Fault", ...] = injector.schedule if injector else ()
        attempt = injector.attempt if injector else 0
        # The parent watchdog arms its own copy of this deadline in
        # _await_outcomes; shipping it to the workers lets a blocked send
        # give up when the *run* is out of budget, not just when its own
        # send deadline expires (CLOCK_MONOTONIC is comparable across
        # processes on every platform we fork on).
        run_deadline = monotonic() + self.timeout_s
        ctx = _mp_context()
        # The data plane owns the run's transport resources (control
        # queues, shm ring segments); closing it in the finally below is
        # what guarantees no shared-memory segment survives the run, even
        # when workers crashed or the watchdog fired mid-flight.
        plane = create_dataplane(
            self.dataplane,
            ctx,
            n_workers,
            self.inbox_batches,
            ring_bytes=self.ring_bytes,
            edge_schemas=spec.edge_schemas,
            string_dict=self.string_dict,
        )
        results: Any = ctx.Queue()
        # Shared liveness state: heartbeat timestamps (monotonic seconds,
        # stamped by each worker once per loop) and exit-status slots the
        # parent fills in as soon as it observes a death, so blocked peers
        # can distinguish "dead" from "slow".
        heartbeats = ctx.Array("d", [monotonic()] * n_workers, lock=False)
        status = ctx.Array("i", [_STATUS_RUNNING] * n_workers, lock=False)
        workers = [
            ctx.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    spec,
                    owner,
                    max_events,
                    plane.endpoint(worker_id),
                    results,
                    self.ordered,
                    heartbeats,
                    status,
                    self.heartbeat_timeout_s,
                    self.send_timeout_s,
                    schedule,
                    attempt,
                    self.vectorized,
                    epoch_ctx,
                    self.send_retry,
                    run_deadline,
                ),
                daemon=True,
            )
            for worker_id in range(n_workers)
        ]
        for process in workers:
            process.start()
        outcomes: list[tuple] = []
        try:
            self._await_outcomes(
                workers, results, heartbeats, status, worker_sockets, outcomes
            )
        finally:
            for process in workers:
                if process.is_alive():
                    process.terminate()
            for process in workers:
                process.join(timeout=5.0)
            plane.close()
            results.cancel_join_thread()
        return n_workers, outcomes

    def _execute_epochs(
        self,
        spec: RuntimeSpec,
        max_events: int,
        registry: MetricsRegistry,
        injector: "FaultInjector | None",
        epochs: "EpochConfig",
        resume: "EpochCheckpoint | None",
        on_epoch: "OnEpoch | None",
    ) -> RunResult:
        """Barrier protocol: one worker pool per epoch slice.

        The process backend's epoch barrier is *stop-and-resume*: each
        slice runs the dataflow to completion over the next
        ``interval``-events window per spout (suppressing windowed
        ``flush()`` on non-final slices), the workers return their
        operator snapshots in the result payload, and the parent commits
        them as the epoch checkpoint before launching the next pool.
        Quiescence is therefore free — pool teardown is the barrier —
        and a migration is just the next slice launching under the new
        placement (re-partitioning tasks over workers by socket).
        """
        report = EpochReport(
            interval=epochs.interval,
            resumed_from=resume.epoch if resume is not None else None,
        )
        spout_ids = {rt.task_id for rt in spec.tasks if rt.is_spout}
        spout_produced = {task_id: 0 for task_id in spout_ids}
        blob: bytes | None = None
        tick_base: dict[int, int] = {}
        checkpoint = resume
        epoch = 0
        if resume is not None:
            blob = resume.blob
            spout_produced.update(resume.spout_produced)
            payload = resume.payload()
            tick_base = {
                task_id: stats.tuples_in
                for task_id, stats in payload["stats"].items()
            }
            tick_base.update(resume.spout_produced)
            epoch = resume.epoch + 1
        fault_summaries: list[dict[str, float]] = []
        exhausted: set[int] = set()
        controller = (
            AdaptiveBatchController(spec, self.batching)
            if self.batching is not None
            else None
        )
        manager = (
            OverloadManager(spec, self.overload, epochs.interval, registry)
            if self.overload is not None
            else None
        )
        # The spout budget is a *cumulative admission target*: each epoch
        # extends it by the token-bucket allowance (the full interval
        # while healthy — integer-identical to the historical
        # ``(epoch + 1) * interval`` — a fraction of it while the
        # throttle rung is active).
        limit = min(max_events, epoch * epochs.interval)
        while True:
            allowance = (
                manager.spout_allowance()
                if manager is not None
                else epochs.interval
            )
            limit = min(max_events, limit + allowance)
            final = limit >= max_events or exhausted >= spout_ids
            epoch_ctx = {
                "blob": blob,
                "spout_produced": dict(spout_produced),
                "limit": limit,
                "final": final,
                "tick_base": dict(tick_base),
                "shed": manager.shed_context() if manager is not None else None,
            }
            try:
                n_workers, outcomes = self._run_slice(
                    spec, max_events, injector, epoch_ctx
                )
            except ExecutionError as exc:
                if getattr(exc, "last_checkpoint", None) is None:
                    exc.last_checkpoint = checkpoint
                raise
            states: dict[int, Any] = {}
            counters: dict[Any, int] = {}
            stats_map: dict[int, TaskStats] = {}
            sink_received = 0
            for outcome in outcomes:
                payload = outcome[6].get("epoch") or {}
                states.update(payload.get("states", {}))
                counters.update(payload.get("counters", {}))
                spout_produced.update(payload.get("spout_produced", {}))
                exhausted.update(payload.get("exhausted", ()))
                stats_map.update(outcome[3])
                for sink in outcome[4].values():
                    sink_received += sink.received
                summary = outcome[6].get("fault_summary")
                if summary:
                    fault_summaries.append(summary)
            if controller is not None or manager is not None:
                # Pressure beyond blocked_batches: a worker that stalled
                # on its shm ring or blocked on remote sends marks all
                # its remote out-edges as pressured (the transport does
                # not say which edge, so all of that worker's candidates
                # count).  Shared by the AIMD batch controller and the
                # overload detector.
                _, slice_owner = self._assign(spec)
                pressure: set[tuple[int, int]] = set()
                for outcome in outcomes:
                    worker_id = outcome[1]
                    metrics_blob = outcome[6]
                    if metrics_blob.get("ring_full_blocks", 0) or metrics_blob.get(
                        "send_blocks", 0
                    ):
                        for rt in spec.tasks:
                            if slice_owner.get(rt.task_id) != worker_id:
                                continue
                            for edge in rt.out_edges:
                                if slice_owner.get(edge.consumer) != worker_id:
                                    pressure.add((edge.producer, edge.consumer))
            if manager is not None:
                # One ladder step per slice.  Worker pools are fresh each
                # slice, so the per-edge QueueStats they report *are* the
                # window deltas the lag tracker and detector want.
                windows: dict[tuple[int, int], EdgeWindow] = {}
                for outcome in outcomes:
                    for key, st in outcome[5].items():
                        windows[key] = EdgeWindow(
                            enqueued_batches=st.enqueued_batches,
                            enqueued_tuples=st.enqueued_tuples,
                            dequeued_tuples=st.dequeued_tuples,
                            blocked_batches=st.blocked_batches,
                            peak_depth=st.max_depth_tuples,
                        )
                    manager.merge_shed_snapshot(
                        outcome[6].get("overload_shed")
                    )
                manager.observe_windows(epoch, windows, frozenset(pressure))
            if controller is not None:
                # One AIMD step per slice, from the same window deltas.
                # While the ladder's batch-shrink rung is active every
                # edge is treated as pressured so batches shrink toward
                # their floor (finer batches drain bounded queues sooner).
                window: dict[tuple[int, int], tuple[int, int, int]] = {}
                for outcome in outcomes:
                    for key, st in outcome[5].items():
                        window[key] = (
                            st.enqueued_batches,
                            st.enqueued_tuples,
                            st.blocked_batches,
                        )
                batch_pressure: set[tuple[int, int]] = set(pressure)
                if manager is not None and manager.force_batch_pressure:
                    batch_pressure.update(window)
                changed = controller.observe_window(window, batch_pressure)
                if changed and not final:
                    spec = apply_edge_batches(spec, changed)
            if final:
                result = self._merge(spec, registry, n_workers, outcomes)
                result.events_ingested = sum(spout_produced.values())
                if fault_summaries:
                    result.fault_summary = merge_fault_summaries(
                        *fault_summaries
                    )
                result.epochs = report
                if manager is not None:
                    result.overload = manager.finish()
                if registry.enabled:
                    registry.gauge("runtime.epoch.interval").set(report.interval)
                    registry.gauge("runtime.epoch.committed").set(
                        report.committed
                    )
                    registry.gauge("runtime.epoch.barrier_ns").set(
                        report.barrier_ns
                    )
                    registry.gauge("runtime.epoch.snapshot_bytes").set(
                        report.snapshot_bytes
                    )
                    if controller is not None:
                        for name, value in controller.report().items():
                            registry.counter(f"runtime.batch.{name}").inc(value)
                        for (p, c), size in spec.edge_batch_size.items():
                            registry.gauge(f"runtime.batch.size.{p}-{c}").set(
                                size
                            )
                return result
            started = perf_counter()
            checkpoint = EpochCheckpoint.capture(
                epoch,
                events_ingested=sum(spout_produced.values()),
                spout_produced=spout_produced,
                states=states,
                counters=counters,
                stats=stats_map,
                sink_received=sink_received,
            )
            report.barrier_ns += (perf_counter() - started) * 1e9
            report.committed += 1
            report.snapshot_bytes = checkpoint.snapshot_bytes
            report.events.append(
                {
                    "kind": "commit",
                    "epoch": epoch,
                    "events_ingested": checkpoint.events_ingested,
                    "snapshot_bytes": checkpoint.snapshot_bytes,
                }
            )
            blob = checkpoint.blob
            tick_base = {
                task_id: stats.tuples_in
                for task_id, stats in stats_map.items()
            }
            tick_base.update(spout_produced)
            if on_epoch is not None:
                commit = EpochCommit(
                    epoch=epoch,
                    spec=spec,
                    checkpoint=checkpoint,
                    task_stats=stats_map,
                    # Per-task wall-clock is an inline-backend signal;
                    # workers only report per-process busy time.
                    task_wall_ns={},
                    events_ingested=checkpoint.events_ingested,
                    overload=(
                        manager.commit_state() if manager is not None else None
                    ),
                )
                migration = on_epoch(commit)
                if migration is not None:
                    started = perf_counter()
                    spec = migration.spec
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
            epoch += 1

    def _await_outcomes(
        self,
        workers: list,
        results: Any,
        heartbeats: Any,
        status: Any,
        worker_sockets: Mapping[int, tuple[int, ...]],
        outcomes: list[tuple],
    ) -> None:
        """Collect one outcome per worker under the parent watchdog.

        Successful outcomes accumulate into ``outcomes`` (also on
        failure, so the caller can merge partial progress).  Raises a
        typed :class:`ExecutionError` subclass on any worker failure,
        stall or timeout — this method never blocks unboundedly.
        """
        deadline = monotonic() + self.timeout_s
        pending = set(range(len(workers)))

        def drain(timeout: float) -> bool:
            try:
                outcome = results.get(timeout=timeout)
            except queue_mod.Empty:
                return False
            if outcome[0] == "error":
                _, worker_id, error_kind, message, trace = outcome
                error_cls = _ERROR_CLASSES.get(error_kind, ExecutionError)
                raise error_cls(
                    f"worker {worker_id} failed: {message}\n{trace}",
                    partial_result=self._partial(outcomes),
                    failed_workers=(worker_id,),
                    failed_sockets=worker_sockets.get(worker_id, ()),
                )
            outcomes.append(outcome)
            pending.discard(outcome[1])
            return True

        while pending:
            if drain(_POLL_INTERVAL_S):
                continue
            now = monotonic()
            dead = [
                wid
                for wid in sorted(pending)
                if not workers[wid].is_alive()
            ]
            if dead:
                # Publish the deaths so blocked peers stop waiting, then
                # give the result queue a grace window: a worker that
                # exited cleanly may still have its outcome in flight.
                for wid in dead:
                    status[wid] = workers[wid].exitcode or 0
                grace = monotonic() + _DEATH_GRACE_S
                while monotonic() < grace and pending & set(dead):
                    drain(_POLL_INTERVAL_S)
                lost = sorted(pending & set(dead))
                if lost:
                    codes = {wid: workers[wid].exitcode for wid in lost}
                    sockets = tuple(
                        sorted(
                            s
                            for wid in lost
                            for s in worker_sockets.get(wid, ())
                        )
                    )
                    raise WorkerCrashError(
                        f"worker(s) {lost} died without reporting a result "
                        f"(exit codes {codes})",
                        partial_result=self._partial(outcomes),
                        failed_workers=tuple(lost),
                        failed_sockets=sockets,
                    )
                continue
            stale = [
                wid
                for wid in sorted(pending)
                if now - heartbeats[wid] > self.heartbeat_timeout_s
            ]
            if stale:
                ages = {wid: round(now - heartbeats[wid], 2) for wid in stale}
                sockets = tuple(
                    sorted(
                        s for wid in stale for s in worker_sockets.get(wid, ())
                    )
                )
                raise StallError(
                    f"worker(s) {stale} stopped heartbeating "
                    f"(last heartbeat {ages} s ago, "
                    f"watchdog {self.heartbeat_timeout_s}s)",
                    partial_result=self._partial(outcomes),
                    failed_workers=tuple(stale),
                    failed_sockets=sockets,
                )
            if now > deadline:
                raise StallError(
                    f"process backend timed out after {self.timeout_s}s "
                    f"waiting for worker results (workers {sorted(pending)} "
                    "still running)",
                    partial_result=self._partial(outcomes),
                    failed_workers=tuple(sorted(pending)),
                )

    def _partial(self, outcomes: list[tuple]) -> RunResult | None:
        """Merge the outcomes received so far into a partial result."""
        if not outcomes:
            return None
        result = self._merge(None, NULL_REGISTRY, len(outcomes), outcomes)
        result.partial = True
        return result

    def _merge(
        self,
        spec: RuntimeSpec | None,
        registry: MetricsRegistry,
        n_workers: int,
        outcomes: list[tuple],
    ) -> RunResult:
        events = 0
        task_stats: dict[int, TaskStats] = {}
        sinks_by_task: dict[int, Sink] = {}
        edge_stats: dict[tuple[int, int], QueueStats] = {}
        worker_metrics: dict[int, dict[str, float]] = {}
        fault_summaries: list[dict[str, float]] = []
        for _, worker_id, worker_events, stats, sinks, edges, metrics in outcomes:
            events += worker_events
            task_stats.update(stats)
            sinks_by_task.update(sinks)
            edge_stats.update(edges)
            worker_metrics[worker_id] = metrics
            summary = metrics.get("fault_summary")
            if summary:
                fault_summaries.append(summary)
        sinks: dict[str, list[Sink]] = defaultdict(list)
        if spec is not None:
            for rt in spec.tasks:
                if rt.task_id in sinks_by_task:
                    sinks[rt.component].append(sinks_by_task[rt.task_id])
            topology_name = spec.topology.name
        else:
            # Partial merge (failure path): no spec ordering available;
            # group surviving sinks by their task's component label.
            for task_id, sink in sinks_by_task.items():
                component = task_stats[task_id].component
                sinks[component].append(sink)
            topology_name = next(
                (s.component for s in task_stats.values()), "partial"
            )
        result = RunResult(
            topology_name=topology_name,
            events_ingested=events,
            task_stats=task_stats,
            sinks=dict(sinks),
            fault_summary=(
                merge_fault_summaries(*fault_summaries)
                if fault_summaries
                else None
            ),
        )
        if spec is not None and registry.enabled:
            publish_engine_metrics(registry, spec, result, edge_stats)
            registry.gauge("runtime.run.workers").set(n_workers)
            totals = defaultdict(float)
            dataplane_counters = (
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
            for worker_id, metrics in sorted(worker_metrics.items()):
                prefix = f"runtime.worker.{worker_id}"
                registry.gauge(f"{prefix}.busy_fraction").set(
                    metrics.get("busy_fraction", 0.0)
                )
                registry.gauge(f"{prefix}.blocked_send_ns").set(
                    metrics.get("blocked_send_ns", 0.0)
                )
                registry.counter(f"{prefix}.send_blocks").inc(
                    int(metrics.get("send_blocks", 0))
                )
                registry.counter(f"{prefix}.pickled_bytes_out").inc(
                    int(metrics.get("pickled_bytes_out", 0))
                )
                registry.counter(f"{prefix}.remote_batches_out").inc(
                    int(metrics.get("remote_batches_out", 0))
                )
                registry.counter(f"{prefix}.overflow_admissions").inc(
                    int(metrics.get("overflow_admissions", 0))
                )
                registry.counter(f"{prefix}.spout_throttles").inc(
                    int(metrics.get("spout_throttles", 0))
                )
                for key in ("pickled_bytes_out", *dataplane_counters, *STEP_COUNTERS):
                    totals[key] += metrics.get(key, 0.0)
            registry.counter("runtime.run.pickled_bytes").inc(
                int(totals["pickled_bytes_out"])
            )
            for key in dataplane_counters:
                # dict_* counters publish under a dotted sub-namespace:
                # runtime.dataplane.dict.{columns,pages,bytes,...}.
                name = key.replace("dict_", "dict.")
                registry.counter(f"runtime.dataplane.{name}").inc(int(totals[key]))
            publish_step_counters(registry, totals)
            # Total payload bytes the run moved between workers, whatever
            # the transport: pickled control-queue payloads plus the shm
            # plane's in-ring and out-of-band codec payloads.
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
    endpoint: Any,
    results: Any,
    ordered: bool,
    heartbeats: Any,
    status: Any,
    heartbeat_timeout_s: float,
    send_timeout_s: float,
    schedule: tuple,
    attempt: int,
    vectorized: str = "auto",
    epoch_ctx: dict | None = None,
    send_retry: SendRetryPolicy | None = None,
    run_deadline: float | None = None,
) -> None:
    worker = None
    try:
        worker = _Worker(
            worker_id,
            spec,
            owner,
            max_events,
            endpoint,
            ordered,
            heartbeats=heartbeats,
            status=status,
            heartbeat_timeout_s=heartbeat_timeout_s,
            send_timeout_s=send_timeout_s,
            schedule=schedule,
            attempt=attempt,
            vectorized=vectorized,
            epoch_ctx=epoch_ctx,
            send_retry=send_retry,
            run_deadline=run_deadline,
        )
        results.put(worker.run())
    except ExecutionError as exc:
        results.put(
            (
                "error",
                worker_id,
                type(exc).__name__,
                str(exc),
                traceback.format_exc(),
            )
        )
    except BaseException as exc:
        results.put(
            (
                "error",
                worker_id,
                "ExecutionError",
                repr(exc),
                traceback.format_exc(),
            )
        )
    finally:
        # Detach this worker's channel resources (shm mappings must be
        # closed before exit; the parent owns segment lifetime/unlink).
        if worker is not None:
            worker.channel.close()


class _Worker:
    """One worker process: runs its task partition to completion."""

    def __init__(
        self,
        worker_id: int,
        spec: RuntimeSpec,
        owner: Mapping[int, int],
        max_events: int,
        channel: Any,
        ordered: bool,
        *,
        heartbeats: Any = None,
        status: Any = None,
        heartbeat_timeout_s: float = 10.0,
        send_timeout_s: float = 30.0,
        schedule: tuple = (),
        attempt: int = 0,
        vectorized: str = "auto",
        epoch_ctx: dict | None = None,
        send_retry: SendRetryPolicy | None = None,
        run_deadline: float | None = None,
    ) -> None:
        self.me = worker_id
        self.spec = spec
        self.owner = dict(owner)
        # Accept either a ChannelEndpoint (normal path, built by the data
        # plane in the parent) or a bare list of inbox queues (white-box
        # tests), which gets the historical pickle channel.
        if isinstance(channel, ChannelEndpoint):
            self.channel = channel
        else:
            self.channel = PickleQueueChannel(worker_id, list(channel))
        self.channel.connect()
        self.ordered = ordered
        self.heartbeats = heartbeats
        self.status = status
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.send_timeout_s = send_timeout_s
        # Blocked-send retry/backoff state (repro.runtime.overload): one
        # circuit breaker per destination, a jitter RNG that only shapes
        # sleep timing (never data), and the run watchdog's deadline so a
        # stalled send cannot outlive ``timeout_s`` by up to the send
        # deadline.
        self.send_policy = (
            send_retry
            if send_retry is not None
            else SendRetryPolicy(deadline_s=send_timeout_s)
        )
        self.run_deadline = run_deadline
        self.breakers: dict[int, CircuitBreaker] = {}
        self.send_rng = random.Random(0x5EED ^ worker_id)
        self.mine: list[TaskRuntime] = [
            rt for rt in spec.tasks if self.owner[rt.task_id] == worker_id
        ]
        self.epoch_ctx = epoch_ctx
        self.slice_limit = (
            max_events if epoch_ctx is None else epoch_ctx["limit"]
        )
        self.slice_final = True if epoch_ctx is None else epoch_ctx["final"]
        # Shed directive for this slice (overload ladder, parent side):
        # spout-side deterministic shedding keyed by the spout's
        # cumulative tuple offset, so the decision stream is identical
        # across slices, backends and replays.
        shed_ctx = epoch_ctx.get("shed") if epoch_ctx is not None else None
        if shed_ctx is not None:
            self.shedder: Shedder | None = Shedder(
                shed_ctx["mode"], shed_ctx["rate"], shed_ctx["seed"]
            )
            self.shedder.active = shed_ctx["active"]
        else:
            self.shedder = None
        self.injector = (
            FaultInjector(
                tuple(schedule),
                attempt,
                tasks={rt.task_id for rt in self.mine},
                # Relaunched epoch slices seed the per-task tuple counts so
                # trigger offsets stay run-absolute and spent faults from
                # earlier slices of this attempt never re-fire.
                base_counts=(
                    epoch_ctx.get("tick_base") if epoch_ctx else None
                ),
            )
            if schedule
            else None
        )
        self.instances = {
            rt.task_id: instantiate_task(spec, rt) for rt in self.mine
        }
        self.stats = {
            rt.task_id: TaskStats(task_id=rt.task_id, component=rt.component)
            for rt in self.mine
        }
        self.buffers = {
            (edge.producer, edge.consumer): OutputBuffer(
                edge.producer,
                edge.consumer,
                spec.batch_for((edge.producer, edge.consumer)),
            )
            for rt in self.mine
            for edge in rt.out_edges
        }
        self.counters: dict[tuple[int, str], int] = defaultdict(int)
        if epoch_ctx is not None and epoch_ctx.get("blob") is not None:
            # Resume this worker's partition from the previous epoch's
            # checkpoint.
            restore_tasks(
                pickle.loads(epoch_ctx["blob"]),
                self.instances,
                self.counters,
                self.stats,
            )
        # Inbound bookkeeping: one stats block and backlog per in-edge of a
        # local task.  Arrival mode queues (edge, tuples) per consumer in
        # arrival order; ordered mode queues per edge.
        self.edge_stats: dict[tuple[int, int], QueueStats] = {}
        self.edge_depth: dict[tuple[int, int], int] = {}
        self.edge_backlog: dict[tuple[int, int], deque] = {}
        self.arrival: dict[int, deque] = {}
        for rt in self.mine:
            self.arrival[rt.task_id] = deque()
            for edge in rt.in_edges:
                key = (edge.producer, edge.consumer)
                self.edge_stats[key] = QueueStats()
                self.edge_depth[key] = 0
                self.edge_backlog[key] = deque()
        self.eof: set[tuple[int, int]] = set()
        self.completed: set[int] = set()
        self.events = 0
        self.max_events = max_events
        # A received batch refused hard admission, already decoded — kept
        # as (producer, consumer, payload) so a retry never re-decodes
        # (and the shm ring slot it came from is already released).  The
        # payload is a tuple list or, for columnar consumers, possibly a
        # ColumnBatch; both support len() everywhere admission cares.
        self.held: tuple[int, int, Any] | None = None
        self.rt_by_id: dict[int, TaskRuntime] = {
            rt.task_id: rt for rt in spec.tasks
        }
        # Fused chains (repro.runtime.fusion): the head runs every stage
        # inline, so _assign colocated all constituents on this worker.
        # Members are skipped by the scheduling loops — their intra-chain
        # edges stay idle and their instances/stats/state are driven by
        # the head's chain execution.  An unfused task is a chain of one.
        self.fused_members: frozenset[int] = spec.fused_member_ids
        self.chains: dict[int, tuple[TaskRuntime, ...]] = {
            rt.task_id: (rt,)
            for rt in self.mine
            if not rt.is_spout and rt.task_id not in self.fused_members
        }
        for chain in spec.fusion:
            if chain[0] in self.chains:
                self.chains[chain[0]] = tuple(self.rt_by_id[tid] for tid in chain)
        self.stages = chain_stages(self.chains.values())  # see _deliver
        self.metrics: dict[str, Any] = defaultdict(float)
        # The task step (repro.runtime.step, shared with the inline run).
        # An armed injector needs per-tuple fault ticks, so it disables
        # kernels for the run; the shed rung is constant within a slice.
        self.step = TaskStep(
            self.instances,
            self.stats,
            self.counters,
            self.buffers,
            self.metrics,
            vectorized=vectorized,
            transpose_sinks=True,
            tick=self._fault_tick if self.injector is not None else None,
            shedder=(
                self.shedder
                if self.shedder is not None and self.shedder.active
                else None
            ),
        )
        self.spout_iters: dict[int, Iterator] = {
            rt.task_id: self.instances[rt.task_id].next_batch(max_events)
            for rt in self.mine
            if rt.is_spout
        }
        self.spout_produced: dict[int, int] = {t: 0 for t in self.spout_iters}
        self.exhausted_spouts: set[int] = set()
        if epoch_ctx is not None:
            for task_id in self.spout_produced:
                self.spout_produced[task_id] = epoch_ctx["spout_produced"].get(
                    task_id, 0
                )
        # Per-spout production at slice start: events this worker reports
        # are the slice delta (the parent accumulates across slices).
        self.spout_start: dict[int, int] = dict(self.spout_produced)
        for task_id, start in self.spout_start.items():
            if not fast_forward(self.spout_iters[task_id], start):
                self.exhausted_spouts.add(task_id)

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    def _beat(self) -> None:
        if self.heartbeats is not None:
            self.heartbeats[self.me] = monotonic()

    def _peer_dead(self, worker: int) -> bool:
        """True once the parent has recorded ``worker``'s exit."""
        return self.status is not None and self.status[worker] != _STATUS_RUNNING

    def _check_dead_producers(self) -> None:
        """Raise if an idle wait depends on EOFs from a dead worker."""
        if self.status is None:
            return
        for rt in self.mine:
            if rt.task_id in self.completed:
                continue
            for edge in rt.in_edges:
                key = (edge.producer, edge.consumer)
                peer = self.owner[edge.producer]
                if key in self.eof or peer == self.me:
                    continue
                if self._peer_dead(peer):
                    raise WorkerCrashError(
                        f"worker {self.me}: upstream worker {peer} died "
                        f"before finishing edge {edge.producer}->"
                        f"{edge.consumer}"
                    )

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
            self.metrics["stalled"] = 1.0
            while True:
                time.sleep(_IDLE_SLEEP_S * 50)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> tuple:
        started = perf_counter()
        idle_s = 0.0
        idle_since: float | None = None
        while len(self.completed) < len(self.mine):
            self._beat()
            progress = self._receive(limit=64, soft=False)
            progress += self._step_spouts()
            progress += self._step_process(_PROCESS_QUANTUM)
            progress += self._complete_ready()
            if not progress:
                now = monotonic()
                if idle_since is None:
                    idle_since = now
                elif now - idle_since > self.heartbeat_timeout_s:
                    # Long idle: are we waiting on a dead upstream worker?
                    self._check_dead_producers()
                    idle_since = now
                time.sleep(_IDLE_SLEEP_S)
                idle_s += _IDLE_SLEEP_S
            else:
                idle_since = None
        wall_s = max(perf_counter() - started, 1e-9)
        self.metrics["busy_fraction"] = max(0.0, 1.0 - idle_s / wall_s)
        self.metrics["wall_ns"] = wall_s * 1e9
        for key, value in self.channel.snapshot_metrics().items():
            self.metrics[key] += value
        if self.injector is not None:
            self.metrics["fault_summary"] = self.injector.summary()
        if self.shedder is not None:
            # Per-slice shed accounting; the parent folds every worker's
            # snapshot into the run-level OverloadReport.
            self.metrics["overload_shed"] = self.shedder.snapshot()
        if self.breakers:
            self.metrics["send_breaker_opens"] = float(
                sum(b.opens for b in self.breakers.values())
            )
            self.metrics["send_breaker_probes"] = float(
                sum(b.probes for b in self.breakers.values())
            )
        if self.epoch_ctx is not None:
            # Barrier payload: this worker's share of the epoch snapshot.
            # The parent unions the shares and seals them as the
            # EpochCheckpoint once every worker has reported.
            self.metrics["epoch"] = {
                "states": {
                    task_id: instance.snapshot_state()
                    for task_id, instance in self.instances.items()
                    if isinstance(instance, Operator)
                },
                "counters": dict(self.counters),
                "spout_produced": dict(self.spout_produced),
                "exhausted": sorted(self.exhausted_spouts),
            }
        sinks = {
            rt.task_id: self.instances[rt.task_id]
            for rt in self.mine
            if isinstance(self.instances[rt.task_id], Sink)
        }
        self._beat()
        # Plain dict for pickling; defaultdict factory is module-level safe
        # anyway, but the result payload should be inert.
        return (
            "ok",
            self.me,
            self.events,
            self.stats,
            sinks,
            self.edge_stats,
            dict(self.metrics),
        )

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _admit(self, producer: int, consumer: int, payload: Any, soft: bool) -> bool:
        """Admit a received batch into the consumer's backlog.

        ``payload`` is a tuple list or a ColumnBatch (both sized).
        Returns False when hard admission is refused (over capacity); the
        caller must hold the message and retry later.
        """
        key = (producer, consumer)
        capacity = self.spec.queue_capacity[key]
        if capacity is not None and not self.ordered:
            if self.edge_depth[key] + len(payload) > capacity:
                if not soft:
                    return False
                self.metrics["overflow_admissions"] += 1
        self._enqueue_backlog(key, payload)
        return True

    def _enqueue_backlog(self, key: tuple[int, int], payload: Any) -> None:
        stats = self.edge_stats[key]
        stats.enqueued_batches += 1
        stats.enqueued_tuples += len(payload)
        self.edge_depth[key] += len(payload)
        stats.max_depth_tuples = max(stats.max_depth_tuples, self.edge_depth[key])
        if self.ordered:
            self.edge_backlog[key].append(payload)
        else:
            self.arrival[key[1]].append((key, payload))

    def _receive(self, limit: int, soft: bool) -> int:
        """Drain up to ``limit`` inbox messages; returns how many landed.

        ``soft=False`` (main loop) refuses over-capacity batches, holding
        the refused message so the inbox backs up and remote producers
        block — per-edge backpressure.  ``soft=True`` (used while this
        worker is itself blocked on a send) admits everything to keep the
        worker graph deadlock-free.  Never blocks: inbox reads are
        non-blocking polls, so a dead producer cannot hang this path (the
        main loop's dead-producer check bounds the resulting idle wait).
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
                if self.channel.peek_consumer(message) in self.step.kernels:
                    producer, consumer, payload = self.channel.unpack_columns(
                        message
                    )
                else:
                    producer, consumer, payload = self.channel.unpack(message)
            if self._admit(producer, consumer, payload, soft):
                received += 1
            else:
                self.held = (producer, consumer, payload)
                break
        return received

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _channel_full(self, producer: int, consumer: int) -> bool:
        if self.owner[consumer] == self.me:
            capacity = self.spec.queue_capacity[(producer, consumer)]
            if capacity is None or self.ordered:
                return False
            return self.edge_depth[(producer, consumer)] >= capacity
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
        pack = (
            self.channel.pack_columns
            if isinstance(payload, ColumnBatch)
            else self.channel.pack
        )
        self._blocking_put(dest, pack(dest, producer, consumer, payload))

    def _deliver_local(self, producer: int, consumer: int, tuples: Any) -> None:
        key = (producer, consumer)
        capacity = self.spec.queue_capacity[key]
        if capacity is not None and not self.ordered:
            # Hard local bound: make room by processing the consumer's
            # backlog in place (always possible — head batches only flow
            # downstream, and the graph is acyclic).
            blocked_from = None
            while (
                self.edge_depth[key] + len(tuples) > capacity
                and self._process_one(consumer)
            ):
                if blocked_from is None:
                    blocked_from = perf_counter()
                    self.edge_stats[key].blocked_batches += 1
            if blocked_from is not None:
                self.edge_stats[key].blocked_ns += (
                    perf_counter() - blocked_from
                ) * 1e9
        self._enqueue_backlog(key, tuples)

    def _blocking_put(self, target_worker: int, message: tuple) -> None:
        """Send to a peer inbox, retrying with bounded patience.

        While blocked the worker keeps heartbeating and draining its own
        inbox (softly: never refuse) so a ring of mutually-blocked
        workers cannot deadlock.  Retries back off under decorrelated
        jitter (:func:`repro.runtime.overload.decorrelated_jitter`), and
        after ``open_after_s`` of continuous blocking the per-destination
        circuit opens: the sender stops hammering the channel and probes
        it half-open once per ``probe_interval_s`` until the peer drains.
        The wait is bounded three ways: a peer the parent has marked dead
        raises :class:`~repro.errors.WorkerCrashError` immediately; a
        peer alive but not draining past the policy deadline raises
        :class:`~repro.errors.QueueDeadlockError`; and the run watchdog's
        own deadline is honoured too, so a stalled send can never outlive
        ``timeout_s`` by up to the send deadline.
        """
        policy = self.send_policy
        breaker = self.breakers.get(target_worker)
        if breaker is None:
            breaker = self.breakers[target_worker] = CircuitBreaker(policy)
        if self.channel.try_put(target_worker, message):
            breaker.on_success()
            return
        self.metrics["send_blocks"] += 1
        blocked_from = perf_counter()
        deadline = monotonic() + policy.deadline_s
        if self.run_deadline is not None:
            deadline = min(deadline, self.run_deadline)
        sleep_s = policy.base_sleep_s
        while True:
            self._beat()
            now = monotonic()
            if breaker.allow(now):
                if self.channel.try_put(target_worker, message):
                    breaker.on_success()
                    break
                breaker.on_blocked(now)
            if self._peer_dead(target_worker):
                raise WorkerCrashError(
                    f"worker {self.me}: peer worker {target_worker} died "
                    "with its inbox full; message undeliverable"
                ) from None
            if now > deadline:
                raise QueueDeadlockError(
                    f"worker {self.me}: send to worker {target_worker} "
                    f"blocked past its deadline "
                    f"(send budget {policy.deadline_s}s, "
                    f"circuit {'open' if breaker.open else 'closed'}, "
                    "peer alive but not draining)"
                ) from None
            if not self._receive(limit=16, soft=True):
                sleep_s = decorrelated_jitter(
                    self.send_rng, policy.base_sleep_s, policy.max_sleep_s, sleep_s
                )
                time.sleep(sleep_s)
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
            stage = self.stages.get(consumer)
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
        for rt in self.mine:
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
            iterator = self.spout_iters[rt.task_id]
            produced = self.spout_produced[rt.task_id]
            exhausted = rt.task_id in self.exhausted_spouts
            chunk = max(0, min(_SPOUT_CHUNK, self.slice_limit - produced))
            for _ in range(chunk):
                values = next(iterator, None)
                if values is None:
                    exhausted = True
                    break
                self._deliver(self.step.emit(rt, values, produced))
                produced += 1
                progress += 1
            self.spout_produced[rt.task_id] = produced
            if exhausted:
                self.exhausted_spouts.add(rt.task_id)
            if exhausted or produced >= self.slice_limit:
                # Source dried up, or the slice boundary (epoch barrier)
                # was reached: close this spout's outputs for the slice.
                self.events += produced - self.spout_start.get(rt.task_id, 0)
                self._flush_task(rt)
                progress += 1
        return progress

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------
    def _next_batch(self, rt: TaskRuntime) -> tuple[tuple[int, int], list[StreamTuple]] | None:
        if self.ordered:
            # Strict edge order: only the earliest edge that is still live
            # may be processed; if it has no data yet, wait.
            for edge in rt.in_edges:
                key = (edge.producer, edge.consumer)
                backlog = self.edge_backlog[key]
                if backlog:
                    return key, backlog.popleft()
                if key not in self.eof:
                    return None
            return None
        fifo = self.arrival[rt.task_id]
        if not fifo:
            return None
        return fifo.popleft()

    def _process_one(self, consumer: int) -> bool:
        """Process one backlog batch of task ``consumer``; False when none."""
        rt = self.rt_by_id[consumer]
        entry = self._next_batch(rt)
        if entry is None:
            return False
        key, payload = entry
        self.edge_depth[key] -= len(payload)
        self.edge_stats[key].dequeued_tuples += len(payload)
        self._deliver(self.step.run(self.chains[consumer], payload))
        return True

    def _complete_chain(self, chain: tuple[TaskRuntime, ...]) -> None:
        """Finish a chain (an unfused task is a chain of one) whose
        head's inputs reached EOF: on the final slice the staged
        ``flush()``, then every constituent flushes its output buffers
        and sends EOF downstream, head first."""
        if self.slice_final:
            self._deliver(self.step.flush_chain(chain))
        for rt in chain:
            self._flush_task(rt)

    def _step_process(self, quantum: int) -> int:
        progress = 0
        for rt in self.mine:
            if (
                rt.is_spout
                or rt.task_id in self.completed
                or rt.task_id in self.fused_members
            ):
                continue
            for _ in range(quantum):
                if not self._process_one(rt.task_id):
                    break
                progress += 1
        return progress

    def _complete_ready(self) -> int:
        progress = 0
        for rt in self.mine:
            if (
                rt.is_spout
                or rt.task_id in self.completed
                or rt.task_id in self.fused_members
            ):
                continue
            live = False
            for edge in rt.in_edges:
                key = (edge.producer, edge.consumer)
                if key not in self.eof or self.edge_depth[key] > 0:
                    live = True
                    break
            if live:
                continue
            self._complete_chain(self.chains[rt.task_id])
            progress += 1
        return progress
