"""The task host, step and router, shared by both executors.

BriskStream's executor is one loop per operator: fetch a jumbo tuple,
process it, partition the output, enqueue *by reference* — one queue
insertion per batch, no per-tuple copy (Section 5.2) — and it is the
same loop wherever RLAS puts the replica.  :class:`TaskStep` is that
loop body together with the state it runs on, written once and
scheduler-agnostic: it builds a partition of a lowered spec (operator
instances, ``TaskStats``, output buffers, route counters, one input
queue per in-edge, spout positions, fused chains and kernels), restores
it from a checkpoint, snapshots it at a barrier and re-instantiates
moved tasks on a migration.  It is the only place in the runtime that
calls ``Operator.process`` / ``flush`` / ``snapshot_state`` /
``restore_state``, ``Spout.next_batch`` or ``Grouping.route``.

A drained payload enters through :meth:`TaskStep.run`.  It takes the
task's columnar kernel when :meth:`~TaskStep.intake` lets it
(:meth:`~TaskStep.run_columns`: kernel-to-kernel through a fused chain,
lineage stamped, outputs routed without bursting by
:meth:`~TaskStep.route_columns`) and goes row at a time otherwise
(:meth:`~TaskStep.run_item`, routed by :meth:`~TaskStep.route`).  Spouts
enter through :meth:`~TaskStep.emit_columns` — a draw of events,
transposed once — or, while something must see single events, through
:meth:`~TaskStep.draw` and :meth:`~TaskStep.emit`; closing a stream is
:meth:`~TaskStep.flush_chain`, closing a phase
:meth:`~TaskStep.flush_buffers`.  An unfused task is a chain of one.

The step never moves a batch or reads a clock it was not handed.
It *yields deliveries* — ``(producer, consumer, payload)`` with
``payload`` a sealed :class:`~repro.dsps.tuples.JumboTuple` or a
:class:`ColumnBatch` — and the executor that drives it owns how a
delivery travels: the inline run enqueues it on the consumer's queue
(suspending while it is full), a process worker does the same for a
local consumer and packs it onto a channel for a remote one.  A delivery
addressed to the next member of a fused chain (that edge's queue stays
idle) means the hand-off was not negotiated columnar: the executor hands
it back to :meth:`~TaskStep.run_rows`, which bursts it once and
continues scalar.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice
from time import perf_counter_ns
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.dsps.operators import Emission, Operator, Sink
from repro.dsps.queues import (
    MAX_BATCH_ROWS,
    CommunicationQueue,
    OutputBuffer,
    QueueStats,
)
from repro.dsps.streams import BroadcastGrouping, GlobalGrouping, ShuffleGrouping
from repro.dsps.tuples import DEFAULT_STREAM, StreamTuple
from repro.metrics.registry import MetricsRegistry
from repro.runtime.dataplane.columns import (
    ColumnBatch,
    schema_accepts,
)
from repro.runtime.epochs import EpochCheckpoint, check_serializable
from repro.runtime.lowering import (
    RouteSpec,
    RuntimeSpec,
    TaskRuntime,
    instantiate_task,
)
from repro.runtime.overload import Shedder
from repro.runtime.results import TaskStats

#: ``(producer task, consumer task, JumboTuple | ColumnBatch)``.
Delivery = tuple[int, int, Any]

#: Step counters, keyed as the workers ship them to the parent; the
#: first underscore splits the registry namespace from the counter name
#: (``runtime.vectorized.batches``, ``runtime.fusion.composed_tuples``).
STEP_COUNTERS = (
    "vectorized_batches",
    "vectorized_tuples",
    "vectorized_fallbacks",
    "fusion_composed_batches",
    "fusion_composed_tuples",
    "fusion_fallbacks",
)


def publish_step_counters(
    registry: MetricsRegistry, totals: Mapping[str, float]
) -> None:
    """Publish a run's step counters as ``runtime.{vectorized,fusion}.*``."""
    for key in STEP_COUNTERS:
        name = key.replace("_", ".", 1)
        registry.counter(f"runtime.{name}").inc(int(totals.get(key, 0)))


def partition(
    grouping: Any, batch: ColumnBatch, n_consumers: int, counter: int
) -> list[tuple[int, ColumnBatch]] | None:
    """Split ``batch`` over a route's consumers without bursting it.

    Returns ``(consumer index, rows)`` pairs whose per-consumer row order
    equals the scalar router's, or ``None`` when the grouping keys on
    tuple *content* (``FieldsGrouping`` hashes ``repr(key)``; so may any
    user grouping) and the rows must be routed one at a time.  With one
    consumer every grouping is degenerate.  ``counter`` is the route
    counter *before* this batch.
    """
    kind = type(grouping)
    if n_consumers == 1 or kind is GlobalGrouping:
        return [(0, batch)]
    if kind is BroadcastGrouping:
        return [(index, batch) for index in range(n_consumers)]
    if kind is ShuffleGrouping:
        # Row j goes to (counter + j) % k: consumer i owns the stride
        # starting at (i - counter) % k.
        n = len(batch)
        parts = []
        for index in range(n_consumers):
            first = (index - counter) % n_consumers
            if first < n:
                parts.append(
                    (index, batch.select(slice(first, None, n_consumers)))
                )
        return parts
    return None


def column_cut(capacity: int | None) -> int:
    """Where columnar output is cut on an edge whose consumer's queue
    holds ``capacity`` tuples (``None``: unbounded): at
    ``MAX_BATCH_ROWS``, where the consumer's ``take()`` stops merging
    anyway, or at the capacity, so that every chunk is admissible."""
    return MAX_BATCH_ROWS if capacity is None else min(MAX_BATCH_ROWS, capacity)


#: What ``flush()`` output derives from: no input tuple, event time zero.
_NO_INPUT = StreamTuple(values=())


class TaskStep:
    """One executor's task partition: its state and its step.

    Parameters
    ----------
    spec, max_events:
        The lowered spec and the per-spout event budget the sources are
        opened with.
    tasks:
        Ids of the tasks hosted here (``None`` = every task of ``spec``:
        the inline run).  A fused chain is hosted whole.
    checkpoint:
        Resume the partition from this committed epoch instead of from
        the start of the stream: operator states, route counters and
        statistics from its shares, every source re-drawn to its position.
    vectorized:
        The run's ``--vectorized`` mode; ``"off"`` makes no task
        kernel-capable and every counter stays zero.
    tick:
        The executor's fault tick, called with the :class:`TaskRuntime`
        once per tuple a task takes in (per event a spout emits) while
        an injector is armed.  How a fired fault *acts* is the
        executor's: the inline run raises the typed error or parks the
        task, a worker really exits or stops heartbeating.
    histograms:
        Task id → histogram of the ns spent inside the task per tuple
        it takes in (the instrumented inline run): one observation per
        kernel call (the per-row mean, weighted by the rows), per
        ``process()`` call, and per draw from a spout's source (per
        event, or per chunk weighted by the events drawn).  Its count is
        the task's ``tuples_in`` (a spout's events drawn).
    bounded:
        Whether the input queues enforce the spec's capacities (a worker
        in ``ordered`` mode cannot: strict edge order may have to hold a
        later edge's input arbitrarily long).
    queue_stats:
        Per-edge :class:`QueueStats` the input queues continue from (a
        pool relaunched by a migration).

    ``tick`` observes individual tuples, so it disables kernels for the
    run — every batch at a kernel-capable task is then a counted
    fallback — and keeps the spouts emitting event by event
    (:attr:`columnar_sources`).  ``histograms`` time whatever runs and
    change nothing about what does.

    A sink takes the :class:`ColumnBatch` payloads that reach it in its
    kernel and runs row batches row by row: a transpose buys a sink
    nothing.

    The scalar and the columnar path advance the same :attr:`counters`
    and fill the same :attr:`buffers`, which is what keeps per-edge FIFO
    and the routing sequence identical whichever path a batch took.
    """

    def __init__(
        self,
        spec: RuntimeSpec,
        max_events: int,
        *,
        tasks: Iterable[int] | None = None,
        checkpoint: EpochCheckpoint | None = None,
        vectorized: str,
        tick: Callable[[TaskRuntime], None] | None = None,
        histograms: Mapping[int, Any] | None = None,
        bounded: bool = True,
        queue_stats: Mapping[tuple[int, int], QueueStats] | None = None,
    ) -> None:
        self.max_events = max_events
        self.vectorized = vectorized
        self.tick = tick
        self.histograms = histograms or {}
        #: The overload ladder's shedder while its shed rung is active
        #: (set by the executor at a barrier): spout output is offered
        #: to it per consumer before buffering.
        self.shedder: Shedder | None = None
        #: :data:`STEP_COUNTERS`, plus whatever the executor counts.
        self.metrics: dict[str, float] = defaultdict(float)
        hosted = None if tasks is None else set(tasks)
        #: The hosted tasks, in spec order.
        self.mine = tuple(
            rt for rt in spec.tasks if hosted is None or rt.task_id in hosted
        )
        self.instances: dict[int, Any] = {}
        #: Per-spout source position: the live iterator (one per run,
        #: paused at phase boundaries), how many events it has emitted —
        #: cumulative across phases and a resume — and whether it dried
        #: up before the event budget.
        self.spout_iters: dict[int, Iterator] = {}
        self.spout_produced: dict[int, int] = {}
        self.exhausted: set[int] = set()
        for rt in self.mine:
            self._instantiate(spec, rt)
        self.stats = {
            rt.task_id: TaskStats(task_id=rt.task_id, component=rt.component)
            for rt in self.mine
        }
        self.counters: dict[tuple[int, str], int] = defaultdict(int)
        #: One input queue per in-edge, one output buffer per out-edge.
        self.queues: dict[tuple[int, int], CommunicationQueue] = {}
        self.buffers: dict[tuple[int, int], OutputBuffer] = {}
        for edge in spec.edges:
            key = (edge.producer, edge.consumer)
            if edge.consumer in self.instances:
                self.queues[key] = CommunicationQueue(
                    *key,
                    spec.queue_capacity[key] if bounded else None,
                    (queue_stats or {}).get(key),
                )
            if edge.producer in self.instances:
                self.buffers[key] = OutputBuffer(*key, spec.batch_for(key))
        self._bind(spec)
        if checkpoint is not None:
            payload = checkpoint.payload()
            self._restore(checkpoint, payload, self.instances)
            self.counters.update(
                (key, count)
                for key, count in payload["counters"].items()
                if key[0] in self.instances
            )
            for task_id, task_stats in payload["stats"].items():
                if task_id in self.stats:
                    self.stats[task_id] = task_stats

    # ------------------------------------------------------------------
    # The partition: build, restore, snapshot, migrate
    # ------------------------------------------------------------------
    def _instantiate(self, spec: RuntimeSpec, rt: TaskRuntime) -> None:
        instance = self.instances[rt.task_id] = instantiate_task(spec, rt)
        if rt.is_spout:
            self.spout_iters[rt.task_id] = instance.next_batch(self.max_events)
            self.spout_produced.setdefault(rt.task_id, 0)

    def _bind(self, spec: RuntimeSpec) -> None:
        """Derive what follows from ``spec.fusion`` and the live
        instances: the chains, their stages and the kernel tables."""
        by_id = {rt.task_id: rt for rt in self.mine}
        members = spec.fused_member_ids
        #: Head task id → chain, for every hosted task an executor
        #: schedules: spouts and fused members (run inline by their
        #: head) have none; an unfused task is a chain of one.
        self.chains: dict[int, tuple[TaskRuntime, ...]] = {
            rt.task_id: (rt,)
            for rt in self.mine
            if not rt.is_spout and rt.task_id not in members
        }
        for chain in spec.fusion:
            if chain[0] in self.chains:
                self.chains[chain[0]] = tuple(by_id[tid] for tid in chain)
        #: Fused member task id → ``(chain, position)``.  Nothing is ever
        #: queued in front of a member, so the executor runs a delivery
        #: addressed to one in place, scalar, from that stage of its
        #: chain (:meth:`run_rows`).
        self.stages: dict[int, tuple[tuple[TaskRuntime, ...], int]] = {
            rt.task_id: (chain, position)
            for chain in self.chains.values()
            for position, rt in enumerate(chain)
            if position
        }
        #: Tasks whose operator publishes a kernel (drives fallback
        #: accounting: only work a kernel *could* have taken counts).
        self.capable: set[int] = set()
        #: Kernels actually dispatched to.  A ``Sink`` subclass that
        #: overrides ``process`` keeps per-tuple delivery (the default
        #: ``process_columns`` replicates only the default ``process``):
        #: capable, hence counted, but never dispatched.
        self.kernels: dict[int, Any] = {}
        #: Input-schema negotiation per kernel (None = any schema).
        self.schemas: dict[int, frozenset | None] = {}
        #: Sinks: their kernel takes only the payloads that arrive as
        #: columns.
        self.columnar_only: set[int] = set()
        #: Whether something sees every tuple of the run one by one:
        #: no kernel is dispatched to, no spout emits columns.
        self.per_tuple = self.vectorized == "off" or self.tick is not None
        for task_id, operator in self.instances.items():
            if (
                self.vectorized == "off"
                or not isinstance(operator, Operator)
                or not operator.supports_columns()
            ):
                continue
            self.capable.add(task_id)
            is_sink = isinstance(operator, Sink)
            if is_sink:
                self.columnar_only.add(task_id)
            if self.per_tuple or (
                is_sink and type(operator).process is not Sink.process
            ):
                continue
            self.kernels[task_id] = operator.process_columns
            accepted = operator.column_schemas
            self.schemas[task_id] = None if accepted is None else frozenset(accepted)
        #: Out-edges of the hosted kernel tasks and columnar spouts (none
        #: while something sees single tuples), each with the size
        #: :meth:`route_columns` cuts their columnar output at:
        #: :func:`column_cut` of the consumer's queue capacity.  A
        #: kernel's output already exists whole, so cutting it at the
        #: batch size buys no latency, only messages the consumer's
        #: ``take()`` glues straight back together; the batch size only
        #: says where *scalar* rows seal, and AIMD leaves these edges
        #: alone.
        self.whole: dict[tuple[int, int], int] = {
            key: column_cut(spec.queue_capacity.get(key))
            for key in self.buffers
            if key[0] in self.kernels
            or (key[0] in self.spout_iters and not self.per_tuple)
        }

    def _restore(
        self,
        checkpoint: EpochCheckpoint,
        payload: Mapping[str, Any],
        task_ids: Iterable[int],
    ) -> None:
        """Hand freshly instantiated tasks what ``checkpoint`` committed
        for them: an operator its state, a spout its position."""
        for task_id in task_ids:
            if task_id in self.spout_iters:
                produced = checkpoint.spout_produced.get(task_id, 0)
                self.spout_produced[task_id] = produced
                self.fast_forward(task_id, produced)
            else:
                state = payload["states"].get(task_id)
                if state is not None:
                    self.instances[task_id].restore_state(state)

    def fast_forward(self, task_id: int, produced: int) -> None:
        """Advance spout ``task_id``'s source past its ``produced``
        committed tuples.

        Sources are deterministic seeded generators, so re-drawing (and
        discarding) the committed prefix replays them to the exact resume
        position without recording stats or fault ticks.
        """
        iterator = self.spout_iters[task_id]
        if not all(next(iterator, None) is not None for _ in range(produced)):
            self.exhausted.add(task_id)

    def snapshot(self) -> tuple[dict[int, Any], int]:
        """Every hosted operator's state, validated where it lives, and
        what the hosted sinks received so far."""
        states: dict[int, Any] = {}
        sink_received = 0
        for task_id, instance in self.instances.items():
            if isinstance(instance, Operator):
                states[task_id] = state = instance.snapshot_state()
                check_serializable(state, path=f"task {task_id} state")
            if isinstance(instance, Sink):
                sink_received += instance.received
        return states, sink_received

    def migrate(
        self, spec: RuntimeSpec, moved: Iterable[int], checkpoint: EpochCheckpoint
    ) -> None:
        """Continue under ``spec`` — same tasks, new sockets — at the
        barrier that committed ``checkpoint``.

        The stream is paused and every queue empty; moved tasks are
        re-instantiated under the new placement and restored *from the
        checkpoint's shares* — the exact serialize → deserialize → restore
        path a cross-process handoff needs — and the chains, stages
        and kernel tables are bound again from ``spec``.  Counters,
        statistics, queues and buffers carry on.
        """
        hosted = self.instances
        self.mine = tuple(rt for rt in spec.tasks if rt.task_id in hosted)
        by_id = {rt.task_id: rt for rt in self.mine}
        moved = [task_id for task_id in moved if task_id in hosted]
        for task_id in moved:
            self._instantiate(spec, by_id[task_id])
        self._restore(checkpoint, checkpoint.payload(), moved)
        self._bind(spec)

    def resize(self, edge_batches: Mapping[tuple[int, int], int]) -> None:
        """Apply a barrier's AIMD step to the live output buffers."""
        for key, size in edge_batches.items():
            if key in self.buffers:
                self.buffers[key].batch_size = size

    @property
    def columnar_sources(self) -> bool:
        """Whether the hosted spouts' events leave as columns right now
        (:meth:`emit_columns`) rather than one by one (:meth:`draw`,
        :meth:`emit`): nothing watches single tuples this run, and no
        shed rung is deciding per event and consumer."""
        return not self.per_tuple and self.shedder is None

    @property
    def queue_stats(self) -> dict[tuple[int, int], QueueStats]:
        """The input queues' cumulative :class:`QueueStats`, per edge."""
        return {key: queue.stats for key, queue in self.queues.items()}

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def run(
        self,
        chain: Sequence[TaskRuntime],
        payload: "ColumnBatch | Sequence[StreamTuple]",
    ) -> Iterator[Delivery]:
        """Run one drained payload through ``chain`` from its head: in
        the head's kernel when it qualifies, row at a time otherwise."""
        batch = self.intake(chain[0].task_id, payload)
        if batch is not None:
            return self.run_columns(chain, 0, batch)
        return self.run_rows(chain, 0, payload)

    def intake(
        self, task_id: int, payload: "ColumnBatch | Sequence[StreamTuple]"
    ) -> ColumnBatch | None:
        """The batch ``task_id``'s kernel takes for ``payload``, or
        ``None`` when the payload goes the scalar path — counted as a
        fallback when a kernel could have taken it."""
        columnar = isinstance(payload, ColumnBatch)
        if not columnar and task_id in self.columnar_only:
            return None
        kernel = self.kernels.get(task_id)
        if kernel is not None:
            batch = payload if columnar else ColumnBatch.from_tuples(payload)
            if batch is not None and schema_accepts(
                self.schemas[task_id], batch.schema
            ):
                return batch
        if task_id in self.capable:
            # Not exactly columnar, a schema the kernel did not
            # negotiate, or kernels disabled for the whole run.
            self.metrics["vectorized_fallbacks"] += 1
        return None

    # ------------------------------------------------------------------
    # Columnar step
    # ------------------------------------------------------------------
    def run_columns(
        self, chain: Sequence[TaskRuntime], position: int, batch: ColumnBatch
    ) -> Iterator[Delivery]:
        """Run ``batch`` through the kernel of ``chain[position]`` and
        onward.

        Composed stages hand the output batch to the next kernel without
        materializing tuples or touching a queue; the tail's outputs are
        routed.  A successor with no kernel, or one that did not
        negotiate the intermediate schema, gets the batch as a delivery
        (counted in ``fusion_fallbacks``) and continues scalar.
        """
        rt = chain[position]
        task_id = rt.task_id
        stats = self.stats[task_id]
        metrics = self.metrics
        n = len(batch)
        stats.tuples_in += n
        metrics["vectorized_batches"] += 1
        metrics["vectorized_tuples"] += n
        if position:
            metrics["fusion_composed_batches"] += 1
            metrics["fusion_composed_tuples"] += n
        last = position + 1 == len(chain)
        # Materialized before anything is routed or composed, so a timed
        # call covers this kernel's work alone.
        started = perf_counter_ns()
        outputs = list(self.kernels[task_id](batch) or ())
        histogram = self.histograms.get(task_id)
        if histogram is not None:
            histogram.observe((perf_counter_ns() - started) / n, n)
        for out in outputs:
            if len(out) == 0:
                continue
            out.stamp_from(batch, task_id)
            stats.record_out_many(out.stream, len(out), out.payload_bytes())
            if last:
                yield from self.route_columns(rt, out)
                continue
            if out.stream != rt.out_edges[0].stream:
                continue  # no matching route in the unfused run either
            next_id = chain[position + 1].task_id
            if next_id in self.kernels and schema_accepts(
                self.schemas[next_id], out.schema
            ):
                yield from self.run_columns(chain, position + 1, out)
            else:
                if next_id in self.capable:
                    metrics["vectorized_fallbacks"] += 1
                metrics["fusion_fallbacks"] += 1
                yield task_id, next_id, out

    # ------------------------------------------------------------------
    # Scalar step
    # ------------------------------------------------------------------
    def run_rows(
        self,
        chain: Sequence[TaskRuntime],
        position: int,
        payload: "ColumnBatch | Iterable[StreamTuple]",
    ) -> Iterator[Delivery]:
        """Run ``payload`` row at a time from ``chain[position]`` onward;
        a :class:`ColumnBatch` is burst to tuples once, here.

        Per-stage ``TaskStats``, fault ticks and histograms are those of
        the unfused run, and a linear chain keeps per-tuple FIFO order,
        so fusing changes no result.
        """
        if isinstance(payload, ColumnBatch):
            payload = payload.to_tuples()
        return self._pass_on(
            chain, position, self._processed(chain[position], payload)
        )

    def run_item(
        self, chain: Sequence[TaskRuntime], position: int, item: StreamTuple
    ) -> Iterator[Delivery]:
        """Run one tuple through ``chain[position]`` and onward."""
        return self._pass_on(
            chain, position, self._processed(chain[position], (item,))
        )

    def flush_chain(self, chain: Sequence[TaskRuntime]) -> Iterator[Delivery]:
        """Close the stream at ``chain``: every stage's ``flush()``.

        Staged: stage *i*'s trailing output runs through stages *i+1…*
        before those flush — the order the unfused run produces, where a
        downstream operator only flushes once its producer has flushed
        and drained.  ``flush()`` ends the *stream*, not a phase or an
        epoch slice: executors call this once the run truly closes.
        """
        for position, rt in enumerate(chain):
            trailing = self.instances[rt.task_id].flush()
            yield from self._pass_on(chain, position, ((_NO_INPUT, trailing),))

    def _processed(
        self, rt: TaskRuntime, items: Iterable[StreamTuple]
    ) -> Iterator[tuple[StreamTuple, Iterable[Emission]]]:
        """Each tuple ``rt`` takes in, with what its operator emits for
        it: counted, fault-ticked and — when instrumented — timed."""
        task_id = rt.task_id
        stats = self.stats[task_id]
        tick = self.tick
        process = self.instances[task_id].process
        histogram = self.histograms.get(task_id)
        for item in items:
            stats.tuples_in += 1
            if tick is not None:
                tick(rt)
            if histogram is None:
                yield item, process(item)
            else:
                # Materialize the generator so the observed wall clock
                # covers the operator's whole per-tuple work.
                started = perf_counter_ns()
                emitted = list(process(item))
                histogram.observe(perf_counter_ns() - started)
                yield item, emitted

    def _pass_on(
        self,
        chain: Sequence[TaskRuntime],
        position: int,
        work: Iterable[tuple[StreamTuple, Iterable[Emission]]],
    ) -> Iterator[Delivery]:
        """Account what ``chain[position]`` emitted — ``work`` pairs each
        parent tuple with its emissions — and pass it on: the tail's
        output is routed, a member's enters the next stage."""
        rt = chain[position]
        task_id = rt.task_id
        stats = self.stats[task_id]
        last = position + 1 == len(chain)
        for parent, emitted in work:
            for stream, values in emitted:
                out = parent.derive(values, stream=stream, source_task=task_id)
                stats.record_out(stream, out.payload_size_bytes)
                if last:
                    yield from self.route(rt, out)
                elif stream == rt.out_edges[0].stream:
                    yield from self.run_item(chain, position + 1, out)
                # else: a stream the intra-chain edge does not carry —
                # dropped, as route() drops it in the unfused run.

    def draw(self, rt: TaskRuntime) -> tuple | None:
        """Spout ``rt``'s next event, or ``None`` once its source has
        dried up (which :attr:`exhausted` then records)."""
        task_id = rt.task_id
        started = perf_counter_ns()
        values = next(self.spout_iters[task_id], None)
        histogram = self.histograms.get(task_id)
        if values is None:
            self.exhausted.add(task_id)
        elif histogram is not None:
            histogram.observe(perf_counter_ns() - started)
        return values

    def emit(self, rt: TaskRuntime, values: tuple) -> list[Delivery]:
        """Emit the event spout ``rt`` just drew.  The spout's cumulative
        position — across phases, slices and a resume — stamps the event
        time and keys the shed decision, and advances once the event is
        routed."""
        task_id = rt.task_id
        if self.tick is not None:
            self.tick(rt)
        produced = self.spout_produced[task_id]
        item = StreamTuple(
            values=values, source_task=task_id, event_time_ns=float(produced)
        )
        self.stats[task_id].record_out(item.stream, item.payload_size_bytes)
        # Load is shed at the sources, before any downstream work is
        # invested in it.
        deliveries = self.route(
            rt, item, None if self.shedder is None else produced
        )
        self.spout_produced[task_id] = produced + 1
        return deliveries

    def emit_columns(self, rt: TaskRuntime, n: int) -> Iterator[Delivery]:
        """Draw up to ``n`` events of spout ``rt`` and emit them as one
        :class:`ColumnBatch` — transposed once, through the acceptance
        rule every row batch goes through, stamped and accounted as
        :meth:`emit` stamps and accounts them one by one.  Events the
        rule declines go through :meth:`emit`.  Only while
        :attr:`columnar_sources` holds: nothing here ticks or sheds a
        single event, and a histogram times the draw as a whole.
        """
        task_id = rt.task_id
        started = perf_counter_ns()
        rows = list(islice(self.spout_iters[task_id], n))
        histogram = self.histograms.get(task_id)
        if histogram is not None and rows:
            histogram.observe((perf_counter_ns() - started) / len(rows), len(rows))
        if len(rows) < n:
            self.exhausted.add(task_id)
        produced = self.spout_produced[task_id]
        batch = ColumnBatch.from_rows(
            rows,
            DEFAULT_STREAM,
            task_id,
            np.arange(produced, produced + len(rows), dtype="<f8"),
        )
        if batch is None:
            for values in rows:
                yield from self.emit(rt, values)
            return
        self.stats[task_id].record_out_many(
            batch.stream, len(batch), batch.payload_bytes()
        )
        yield from self.route_columns(rt, batch)
        self.spout_produced[task_id] = produced + len(batch)

    def flush_buffers(self, rt: TaskRuntime) -> Iterator[Delivery]:
        """Seal and deliver whatever ``rt``'s output buffers still hold."""
        for edge in rt.out_edges:
            sealed = self.buffers[(edge.producer, edge.consumer)].flush()
            if sealed is not None:
                yield edge.producer, edge.consumer, sealed

    # ------------------------------------------------------------------
    # Router
    # ------------------------------------------------------------------
    def route(
        self,
        rt: TaskRuntime,
        item: StreamTuple,
        shed_offset: int | None = None,
        routes: Iterable[RouteSpec] | None = None,
    ) -> list[Delivery]:
        """Route one tuple into the output buffers of its consumers;
        returns the jumbo tuples that sealed, as deliveries.

        ``shed_offset`` offers the tuple to the shedder, per consumer,
        under that offset.  Route counters advance whether or not it is
        shed, so a shed run routes the survivors exactly like an unshed
        one.  ``routes`` restricts routing to some of ``rt``'s routes.
        """
        task_id = rt.task_id
        counters = self.counters
        deliveries: list[Delivery] = []
        for route in rt.routes if routes is None else routes:
            if route.stream != item.stream:
                continue
            consumers = route.consumers
            key = (task_id, route.counter_key)
            indices = route.grouping.route(item, len(consumers), counters[key])
            counters[key] += 1
            for index in indices:
                consumer = consumers[index]
                if shed_offset is not None and self.shedder.should_shed(
                    (task_id, consumer),
                    shed_offset,
                    item,
                    getattr(self.instances[task_id], "sheddable", None),
                ):
                    continue
                sealed = self.buffers[(task_id, consumer)].append(item)
                if sealed is not None:
                    deliveries.append((task_id, consumer, sealed))
        return deliveries

    def route_columns(self, rt: TaskRuntime, out: ColumnBatch) -> Iterator[Delivery]:
        """Route one columnar output batch to its downstream edges.

        The route counter advances by ``len(out)``, exactly as the scalar
        loop would, and each receiving edge's pending scalar buffer is
        flushed *first*, so per-edge FIFO order holds.  The consumer's
        share then leaves in chunks of the edge's cut in :attr:`whole`
        — ``MAX_BATCH_ROWS``, or the consumer's queue capacity where
        that is less, so every chunk fits an empty queue and neither
        local backpressure nor a worker's refusal can wedge — whether
        the queue is local and unbounded, local and bounded, or across
        a ring.  Content-keyed groupings with several consumers burst to
        tuples and keep the scalar discipline.
        """
        task_id = rt.task_id
        buffers = self.buffers
        whole = self.whole
        burst: list[StreamTuple] | None = None
        for route in rt.routes:
            if route.stream != out.stream:
                continue
            consumers = route.consumers
            key = (task_id, route.counter_key)
            parts = partition(
                route.grouping, out, len(consumers), self.counters[key]
            )
            if parts is None:
                if burst is None:
                    burst = out.to_tuples()
                only = (route,)
                for item in burst:
                    yield from self.route(rt, item, routes=only)
                continue
            self.counters[key] += len(out)
            for index, rows in parts:
                consumer = consumers[index]
                edge = (task_id, consumer)
                sealed = buffers[edge].flush()
                if sealed is not None:
                    yield task_id, consumer, sealed
                for chunk in rows.chunks(whole[edge]):
                    yield task_id, consumer, chunk
