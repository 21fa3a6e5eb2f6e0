"""Executor backends: how a lowered :class:`RuntimeSpec` actually runs.

The runtime layer separates *what* runs (the lowering: tasks, queues,
routes) from *how* it runs:

* :class:`InlineBackend` — the deterministic single-process executor.  It
  keeps the seed engine's semantics exactly (same task order, same drain
  order, same routing counters), but is driven through a cooperative
  scheduler so that **bounded** queues exert real blocking-producer
  backpressure: a producer whose sealed batch does not fit suspends until
  the consumer drains, transitively throttling the spout — the same
  mechanism the discrete-event simulator models in virtual time.  With
  unbounded queues (the default without a plan) nothing ever blocks and
  the schedule degenerates to the seed engine's topological walk,
  reproducing its sink outputs bit-for-bit.
* :class:`~repro.runtime.process_pool.ProcessPoolBackend` — true parallel
  execution on multiprocessing workers grouped by plan socket (imported
  lazily to keep this module light).

Backends receive a spec, an event budget and a metrics registry, and
return the same :class:`~repro.runtime.results.RunResult` shape.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterator, Mapping, NamedTuple

from repro.dsps.operators import Sink
from repro.dsps.queues import MAX_BATCH_ROWS, CommunicationQueue, QueueStats
from repro.dsps.tuples import JumboTuple
from repro.errors import (
    ExecutionError,
    InjectedFaultError,
    QueueDeadlockError,
    StallError,
    WorkerCrashError,
)
from repro.metrics.registry import NULL_REGISTRY, MetricsRegistry
from repro.runtime.config import RunConfig, reject_executor_options
from repro.runtime.dataplane.columns import ColumnBatch
from repro.runtime.epochs import (
    BarrierState,
    EpochCheckpoint,
    EpochCommit,
    EpochConfig,
    EpochDriver,
    Migration,
    seal_share,
)
from repro.runtime.fusion import in_one_process
from repro.runtime.lowering import RuntimeSpec, TaskRuntime
from repro.runtime.results import RunResult, TaskStats
from repro.runtime.step import Delivery, TaskStep, publish_step_counters

if TYPE_CHECKING:
    from typing import Callable

    from repro.runtime.faults import FaultInjector

    #: Barrier observer: sees each committed epoch, may return a live
    #: plan migration to apply before the stream resumes.
    OnEpoch = Callable[[EpochCommit], Migration | None]

#: Backend names :func:`resolve_backend` accepts.
BACKEND_NAMES = ("inline", "process")


class ExecutorBackend(ABC):
    """Strategy interface: execute a lowered spec and report the outcome."""

    #: Short name used by the CLI's ``--backend`` flag and in metrics.
    name: str = "abstract"

    #: The run's options (:class:`~repro.runtime.config.RunConfig`
    #: documents each; a backend reads the executor ones).  The defaults,
    #: for a subclass whose constructor takes none.
    config = RunConfig()

    def __init__(self, **options: Any) -> None:
        self.config = RunConfig.of(backend=self.name, **options)

    @abstractmethod
    def execute(
        self,
        spec: RuntimeSpec,
        max_events: int,
        registry: MetricsRegistry | None = None,
        *,
        injector: "FaultInjector | None" = None,
        epochs: EpochConfig | None = None,
        resume: EpochCheckpoint | None = None,
        on_epoch: "OnEpoch | None" = None,
    ) -> RunResult:
        """Ingest up to ``max_events`` events per spout task and run to
        completion, returning per-task statistics and live sink state.

        ``injector`` optionally arms deterministic fault injection (see
        :mod:`repro.runtime.faults`); backends without fault support must
        reject a non-None injector rather than silently ignore it.

        ``epochs`` enables barrier commits every ``interval`` events per
        spout (see :mod:`repro.runtime.epochs`); ``resume`` restarts
        execution *after* a previously committed checkpoint instead of
        from scratch, and ``on_epoch`` observes every commit, optionally
        returning a :class:`~repro.runtime.epochs.Migration` the backend
        applies at the barrier before resuming the stream.  On failure
        with barriers enabled the raised :class:`ExecutionError` carries
        the last committed checkpoint as ``last_checkpoint``.
        """


def resolve_backend(
    backend: "str | ExecutorBackend", **options: Any
) -> ExecutorBackend:
    """Turn a backend name into a backend built from ``options``
    (:class:`~repro.runtime.config.RunConfig` fields), or pass an
    instance through.

    Beside an instance, an option it would have read raises
    (:func:`~repro.runtime.config.reject_executor_options`).  By name,
    the inline backend runs in one process and moves no bytes: it
    accepts the process backend's options and ignores them.
    """
    if isinstance(backend, ExecutorBackend):
        reject_executor_options(backend, options)
        return backend
    if backend == "inline":
        return InlineBackend(**options)
    if backend == "process":
        from repro.runtime.process_pool import ProcessPoolBackend

        return ProcessPoolBackend(**options)
    raise ExecutionError(
        f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}"
    )


def publish_engine_metrics(
    registry: MetricsRegistry,
    spec: RuntimeSpec,
    result: RunResult,
    queue_stats: Mapping[tuple[int, int], QueueStats],
    whole: Mapping[tuple[int, int], int],
) -> None:
    """Mirror a run's functional counters into the metrics registry.

    Shared by every backend so runs emit one schema regardless of how they
    executed.  Names follow ``component.replica.metric`` under the
    ``engine.`` prefix; per-queue metrics use the producer/consumer
    task-id pair as the replica field (see docs/metrics.md).  ``whole``
    maps the edges that carried columnar output to the size it was cut
    at (:attr:`TaskStep.whole <repro.runtime.step.TaskStep.whole>`):
    their fill ratio is taken against that cut, every other edge's
    against its jumbo batch size.
    """
    if not registry.enabled:
        return
    registry.counter("engine.run.events_ingested").inc(result.events_ingested)
    registry.counter("engine.run.sink_received").inc(result.sink_received())
    blocked_total = 0
    for rt in spec.tasks:
        stats = result.task_stats[rt.task_id]
        prefix = f"engine.{rt.component}.{rt.task.replica_start}"
        registry.counter(f"{prefix}.tuples_in").inc(stats.tuples_in)
        registry.counter(f"{prefix}.tuples_out").inc(stats.tuples_out)
    for (producer, consumer), stats in queue_stats.items():
        prefix = f"engine.queue.{producer}-{consumer}"
        registry.counter(f"{prefix}.enqueued_batches").inc(stats.enqueued_batches)
        registry.counter(f"{prefix}.enqueued_tuples").inc(stats.enqueued_tuples)
        registry.gauge(f"{prefix}.max_depth_tuples").set(stats.max_depth_tuples)
        cut_at = whole.get((producer, consumer)) or spec.batch_for(
            (producer, consumer)
        )
        registry.gauge(f"{prefix}.jumbo_fill_ratio").set(
            stats.jumbo_fill_ratio(cut_at)
        )
        capacity = spec.queue_capacity.get((producer, consumer))
        if capacity is not None:
            registry.gauge(f"{prefix}.capacity_tuples").set(capacity)
        if stats.blocked_batches:
            registry.counter(f"{prefix}.blocked_batches").inc(stats.blocked_batches)
            registry.gauge(f"{prefix}.blocked_ns").set(stats.blocked_ns)
        blocked_total += stats.blocked_batches
    registry.counter("engine.run.backpressure_blocks").inc(blocked_total)
    # The chains that ran: ``spec`` is the executor's own.
    fused = sum(len(chain) for chain in spec.fusion)
    registry.gauge("runtime.fusion.chains").set(len(spec.fusion))
    registry.gauge("runtime.fusion.fused_tasks").set(fused)
    registry.gauge("runtime.fusion.edges_eliminated").set(fused - len(spec.fusion))


class InlineBackend(ExecutorBackend):
    """Deterministic single-process executor with cooperative backpressure."""

    name = "inline"

    def execute(
        self,
        spec: RuntimeSpec,
        max_events: int,
        registry: MetricsRegistry | None = None,
        *,
        injector: "FaultInjector | None" = None,
        epochs: EpochConfig | None = None,
        resume: EpochCheckpoint | None = None,
        on_epoch: "OnEpoch | None" = None,
    ) -> RunResult:
        config = self.config
        registry = registry if registry is not None else NULL_REGISTRY
        # One process hosts every task, so every eligible edge fuses; a
        # migration re-sockets the spec and leaves these chains as they are.
        return _InlineRun(
            in_one_process(spec),
            max_events,
            registry,
            injector,
            vectorized=config.vectorized,
            batching=config.adaptive_batch,
            overload=config.overload,
            epochs=epochs,
            resume=resume,
            on_epoch=on_epoch,
        ).execute()


class _InlineRun:
    """One inline execution (one object per ``run()``): the cooperative
    scheduler over a :class:`~repro.runtime.step.TaskStep` hosting every
    task of the spec.

    The executor half of :class:`~repro.runtime.epochs.EpochDriver`'s
    contract.  A run is a sequence of *phases*: each advances every
    spout to the next epoch boundary and drains the DAG to quiescence
    (fresh cooperative generators over the host's persistent
    queues/instances/counters); the driver commits in between.  Without
    barriers there is exactly one final phase — the historical
    single-pass schedule, bit-for-bit.
    """

    def __init__(
        self,
        spec: RuntimeSpec,
        max_events: int,
        registry: MetricsRegistry,
        injector: "FaultInjector | None" = None,
        *,
        vectorized: str = "auto",
        **barriers: Any,
    ) -> None:
        self.spec = spec
        self.registry = registry
        self.injector = injector
        if injector is not None:
            injector.follow_chains(spec.fusion)
        #: ``barriers`` are the driver's keywords: ``epochs``, ``resume``,
        #: ``on_epoch``, ``batching``, ``overload``.
        self.driver = EpochDriver(spec, max_events, registry, **barriers)
        self.instrumented = registry.enabled
        #: Per-task wall time, summed over scheduler turns: the
        #: ``task_wall_ns`` gauges, the drift detector's Te signal at a
        #: barrier and :func:`inline_rounds`' samples.
        self.wall: dict[int, float] = defaultdict(float)
        # The task host.  An armed injector ticks per tuple, which
        # disables kernels for the run (counted fallbacks); the
        # histograms time whatever runs.
        self.step = TaskStep(
            spec,
            max_events,
            checkpoint=self.driver.checkpoint,
            vectorized=vectorized,
            tick=self._fault_tick if injector is not None else None,
            histograms=(
                {
                    rt.task_id: registry.histogram(
                        f"engine.{rt.component}.{rt.task.replica_start}.process_ns"
                    )
                    for rt in spec.tasks
                }
                if self.instrumented
                else None
            ),
        )
        self.done: set[int] = set()  # tasks finished in the current phase
        self.ticks = 0  # processed batches/events; stall detector input
        #: When the first spout reached the current phase's boundary.
        self.boundary_at: float | None = None

    @property
    def last_checkpoint(self) -> EpochCheckpoint | None:
        return self.driver.checkpoint

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
    def execute(self) -> RunResult:
        return self.driver.run(self)

    def run_phase(self, limit: int, final: bool, directive: Mapping) -> float:
        """Run every task until quiescence at the phase boundary.

        ``limit`` is the *cumulative* per-spout production bound for this
        phase (the next epoch boundary, or the whole event budget for the
        single phase of an epoch-less run).  ``final`` phases additionally
        run each operator's :meth:`~repro.dsps.operators.Operator.flush`.
        """
        entered = perf_counter()
        step = self.step
        step.resize(directive.get("edge_batches", {}))
        # The overload ladder only moves at barriers.
        manager = self.driver.manager
        step.shedder = (
            manager.shedder if manager is not None and manager.shed_active else None
        )
        self.done = set()
        self.boundary_at = None
        active: list[tuple[int, Iterator[None]]] = []
        for rt in step.mine:
            if rt.task_id in step.stages:
                continue  # executed inline by its chain head
            if rt.is_spout:
                loop = self._spout_loop(rt, limit)
            else:
                loop = self._chain_loop(step.chains[rt.task_id], final)
            if self.injector is not None:
                loop = _park_when_stalled(loop)
            active.append((rt.task_id, loop))
        resume_ns = (perf_counter() - entered) * 1e9
        while active:
            before = self.ticks
            survivors: list[tuple[int, Iterator[None]]] = []
            for task_id, loop in active:
                started = perf_counter()
                alive = next(loop, _FINISHED) is not _FINISHED
                self.wall[task_id] += perf_counter() - started
                if alive:
                    survivors.append((task_id, loop))
            active = survivors
            if active and self.ticks == before:
                blocked = [
                    f"{p}->{c}"
                    for (p, c), q in self.step.queues.items()
                    if q.is_full
                ]
                stalled = sorted(self.injector.stalled) if self.injector else []
                message = (
                    "inline scheduler stalled: no task can make progress "
                    f"(full queues: {blocked or 'none'}"
                    + (f", stalled tasks: {stalled}" if stalled else "")
                    + ")"
                )
                # Full queues mean a blocked producer ring (deadlock
                # shape); otherwise a task simply stopped consuming.
                error_cls = QueueDeadlockError if blocked else StallError
                raise error_cls(
                    message,
                    failed_sockets=self._sockets_of(stalled),
                )
        return resume_ns

    # ------------------------------------------------------------------
    # Barrier commits and live migration
    # ------------------------------------------------------------------
    def collect(self) -> BarrierState:
        """The quiescent state, snapshotted, validated and pickled as one share."""
        started = perf_counter()
        step = self.step
        states, sink_received = step.snapshot()
        return BarrierState(
            shares=(seal_share(states, step.counters, step.stats),),
            stats=step.stats,
            spout_produced=step.spout_produced,
            exhausted=step.exhausted,
            sink_received=sink_received,
            queue_stats=step.queue_stats,
            whole=step.whole,
            task_wall_ns={t: s * 1e9 for t, s in self.wall.items()},
            quiesce_ns=(
                (started - self.boundary_at) * 1e9 if self.boundary_at else 0.0
            ),
            snapshot_ns=(perf_counter() - started) * 1e9,
        )

    def migrate(self, migration: Migration, checkpoint: EpochCheckpoint) -> None:
        """Hand the committed state to the re-placed tasks and resume."""
        self.spec = migration.spec
        self.step.migrate(migration.spec, migration.moved, checkpoint)

    def _snapshot(self, partial: bool) -> RunResult:
        """Current run state as a result (complete or mid-failure)."""
        sinks: dict[str, list[Sink]] = defaultdict(list)
        for rt in self.spec.tasks:
            instance = self.step.instances[rt.task_id]
            if isinstance(instance, Sink):
                sinks[rt.component].append(instance)
        return RunResult(
            topology_name=self.spec.topology.name,
            events_ingested=sum(self.step.spout_produced.values()),
            task_stats=self.step.stats,
            sinks=dict(sinks),
            fault_summary=self.injector.summary() if self.injector else None,
            partial=partial,
        )

    def result(self, partial: bool) -> RunResult:
        """The run as a result; a complete one is published."""
        result = self._snapshot(partial)
        if self.instrumented and not partial:
            for rt in self.spec.tasks:
                self.registry.gauge(
                    f"engine.{rt.component}.{rt.task.replica_start}.task_wall_ns"
                ).set(self.wall[rt.task_id] * 1e9)
            publish_engine_metrics(
                self.registry,
                self.spec,
                result,
                self.step.queue_stats,
                self.step.whole,
            )
            publish_step_counters(self.registry, self.step.metrics)
        return result

    def _sockets_of(self, task_ids) -> tuple[int, ...]:
        task_ids = set(task_ids)
        sockets = {
            rt.socket if rt.socket is not None else 0
            for rt in self.spec.tasks
            if rt.task_id in task_ids
        }
        return tuple(sorted(sockets))

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def _fault_tick(self, rt: TaskRuntime) -> None:
        """The step's fault tick: count one tuple at ``rt`` and act on a
        fired crash/raise/stall fault.  ``drop`` faults only flip
        injector state here; :meth:`_enqueue` honors them."""
        fault = self.injector.tick(rt.task_id)
        if fault is None:
            return
        socket = rt.socket if rt.socket is not None else 0
        if fault.kind == "crash":
            # Single-process simulation of a worker loss: the typed error
            # the process backend's watchdog would raise, minus the pid.
            raise WorkerCrashError(
                f"injected crash: {fault.describe()}",
                failed_sockets=(socket,),
            )
        if fault.kind == "raise":
            raise InjectedFaultError(
                f"injected operator failure: {fault.describe()}",
                failed_sockets=(socket,),
            )
        if fault.kind == "stall":
            raise _Stalled

    # ------------------------------------------------------------------
    # Task loops (generators: ``yield`` = cannot progress right now).
    # What a task *does* with a tuple is repro.runtime.step's; the loops
    # own the queues it is fetched from and enqueued on.
    # ------------------------------------------------------------------
    def _spout_loop(self, rt: TaskRuntime, limit: int) -> Iterator[None]:
        step = self.step
        task_id = rt.task_id
        # Fixed for the phase: the shed rung only moves at barriers.
        columnar = step.columnar_sources
        # Positions are cumulative across phases (and across a resume):
        # event times and epoch boundaries count from the run's origin.
        while step.spout_produced[task_id] < limit and task_id not in step.exhausted:
            if columnar:
                room = limit - step.spout_produced[task_id]
                yield from self._deliver(
                    step.emit_columns(rt, min(room, MAX_BATCH_ROWS))
                )
                self.ticks += 1
                continue
            values = step.draw(rt)
            if values is None:
                break
            for producer, consumer, sealed in step.emit(rt, values):
                yield from self._enqueue(producer, consumer, sealed)
            self.ticks += 1
        if self.boundary_at is None:
            self.boundary_at = perf_counter()
        yield from self._deliver(step.flush_buffers(rt))
        self.done.add(rt.task_id)

    def _chain_loop(
        self, chain: tuple[TaskRuntime, ...], final: bool
    ) -> Iterator[None]:
        """Drive one fused chain — an unfused task is a chain of one —
        from its head's input queues.  Intermediates never touch a
        queue; the tail routes through its own (real) out-edges."""
        head = chain[0]
        producers = {edge.producer for edge in head.in_edges}
        in_queues = [
            self.step.queues[(edge.producer, edge.consumer)]
            for edge in head.in_edges
        ]
        while True:
            progressed = False
            for queue in in_queues:
                for payload in _drain(queue):
                    progressed = True
                    self.ticks += 1
                    yield from self._deliver(self.step.run(chain, payload))
            if producers <= self.done:
                if all(queue.is_empty for queue in in_queues):
                    break
                continue
            if not progressed:
                yield
        if final:
            yield from self._deliver(self.step.flush_chain(chain))
        for rt in chain:
            yield from self._deliver(self.step.flush_buffers(rt))
        self.done.update(rt.task_id for rt in chain)

    def _deliver(self, deliveries: Iterator[Delivery]) -> Iterator[None]:
        """Hand the step's deliveries over: onto the edge's queue —
        suspending while it is full — or, addressed to a fused chain
        member, back to the step to run scalar from that stage."""
        for producer, consumer, payload in deliveries:
            stage = self.step.stages.get(consumer)
            if stage is None:
                yield from self._enqueue(producer, consumer, payload)
            else:
                chain, position = stage
                yield from self._deliver(
                    self.step.run_rows(chain, position, payload)
                )

    def _enqueue(
        self, producer: int, consumer: int, batch: "JumboTuple | ColumnBatch"
    ) -> Iterator[None]:
        if self.injector is not None and self.injector.take_drop(
            producer, len(batch)
        ):
            # Injected message loss: the sealed batch vanishes.  The run
            # still completes (EOF is membership-based, not count-based);
            # the supervisor detects the loss from the fault summary.
            self.ticks += 1
            return
        queue = self.step.queues[(producer, consumer)]
        if not queue.has_space(len(batch)):
            # Blocking-producer backpressure: suspend until the consumer
            # drains enough of the queue for the sealed batch to fit.
            queue.stats.blocked_batches += 1
            blocked_from = perf_counter()
            while not queue.has_space(len(batch)):
                yield
            queue.stats.blocked_ns += (perf_counter() - blocked_from) * 1e9
        queue.put(batch)
        self.ticks += 1


class InlineSample(NamedTuple):
    """What :func:`inline_rounds` yields: cumulative and live — read it
    before asking for the next round."""

    #: Wall time per task id, measured per scheduler turn (kernels on).
    task_wall_ns: Mapping[int, float]
    stats: Mapping[int, TaskStats]
    queue_stats: Mapping[tuple[int, int], QueueStats]
    spout_produced: Mapping[int, int]
    #: Task ids whose end of an edge is columnar: operators that ran
    #: their kernel, spouts whose events left as columns.
    columnar: frozenset[int]


def inline_rounds(
    spec: RuntimeSpec, rounds: int, round_events: int, *, vectorized: str = "auto"
) -> Iterator[InlineSample]:
    """Run the first ``rounds * round_events`` events per spout of
    ``spec`` inline, on a private instantiation (fresh operator clones,
    queues and counters — nothing another run of the spec touches),
    yielding after each round what a barrier observer would see, without
    a registry, a snapshot or a commit."""
    run = _InlineRun(spec, rounds * round_events, NULL_REGISTRY, vectorized=vectorized)
    step = run.step
    # Every edge cuts at the batch size, so its enqueued batches are the
    # messages the calibrated message cost was priced on (the run itself
    # cuts columnar output at ``TaskStep.whole``'s sizes).
    step.whole = {edge: buffer.batch_size for edge, buffer in step.buffers.items()}
    for index in range(rounds):
        run.run_phase((index + 1) * round_events, False, {})
        yield InlineSample(
            {task_id: wall * 1e9 for task_id, wall in run.wall.items()},
            step.stats,
            step.queue_stats,
            step.spout_produced,
            frozenset(step.kernels).union(
                step.spout_iters if step.columnar_sources else ()
            ),
        )


class _Stalled(Exception):
    """An injected stall fired in the task loop that was running."""


def _park_when_stalled(loop: Iterator[None]) -> Iterator[None]:
    """Run ``loop`` until a stall fault fires in it, then never progress
    again — mid-batch, mid-chain, wherever it was.  The scheduler's
    no-progress watchdog converts that into a :class:`StallError`."""
    try:
        yield from loop
    except _Stalled:
        while True:
            yield


def _drain(queue: CommunicationQueue) -> Iterator:
    """Payloads of ``queue`` until it stays empty: a consumer suspended
    mid-payload lets its producers refill the queue, and each in-queue
    is exhausted before the next one is looked at."""
    while True:
        payloads = queue.drain()
        if not payloads:
            return
        yield from payloads


#: Sentinel distinguishing a finished task loop from a yielded suspension.
_FINISHED = object()
