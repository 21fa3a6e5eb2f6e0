"""The columnar task step and router, shared by both executors.

BriskStream hands a jumbo tuple between operators *by reference*: one
queue insertion per batch, no per-tuple copy (Section 5.2).  This module
is that discipline for :class:`ColumnBatch` payloads, written once and
scheduler-agnostic: it decides whether a payload may take a task's
columnar kernel (:meth:`ColumnarStep.intake`), runs the kernel — through
a fused chain kernel-to-kernel — stamping lineage and updating
``TaskStats`` (:meth:`ColumnarStep.run_columns`), and routes each output
batch to its consumers without bursting it
(:meth:`ColumnarStep.route_columns`).

The step never touches a queue, a channel or a clock.  It *yields
deliveries* — ``(producer, consumer, payload)`` with ``payload`` a sealed
:class:`~repro.dsps.tuples.JumboTuple` or a :class:`ColumnBatch` — and the
executor that drives it owns how a delivery travels: the inline run
enqueues it on a bounded in-memory queue (suspending while it is full),
a process worker dispatches it locally or packs it onto a channel.  A
delivery addressed to the next member of a fused chain (no queue exists
for that edge) means the hand-off was not negotiated columnar: the
executor bursts the batch once and runs the chain scalar from there.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, MutableMapping, Sequence

from repro.dsps.operators import Operator, Sink
from repro.dsps.queues import OutputBuffer
from repro.dsps.streams import BroadcastGrouping, GlobalGrouping, ShuffleGrouping
from repro.dsps.tuples import StreamTuple
from repro.metrics.registry import MetricsRegistry
from repro.runtime.dataplane.columns import (
    ColumnBatch,
    columns_available,
    schema_accepts,
)
from repro.runtime.lowering import RouteSpec, TaskRuntime
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


def chain_stages(
    chains: Iterable[Sequence[TaskRuntime]],
) -> dict[int, tuple[Sequence[TaskRuntime], int]]:
    """Fused member task id → ``(chain, position)``.  Members have no
    queue in front of them, so the executor runs a delivery addressed
    to one in place, scalar, from that stage of its chain."""
    return {
        rt.task_id: (chain, position)
        for chain in chains
        for position, rt in enumerate(chain)
        if position
    }


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


class ColumnarStep:
    """Columnar execution state of one executor's task partition.

    Parameters
    ----------
    instances, stats, counters, buffers:
        The executor's own live tables (task id → operator / ``TaskStats``,
        route-counter key → count, edge → :class:`OutputBuffer`), shared
        by reference: the scalar paths the executor keeps and this step
        advance the same counters and flush the same buffers, which is
        what keeps per-edge FIFO and the routing sequence identical
        whichever path a batch took.
    metrics:
        Mapping the :data:`STEP_COUNTERS` are accumulated into.
    vectorized:
        The run's ``--vectorized`` mode; ``"off"`` (or no numpy) makes
        no task kernel-capable and every counter stays zero.
    per_tuple:
        Something must observe individual tuples (armed fault injector,
        per-call latency histograms): kernels are disabled and every
        batch at a kernel-capable task is a counted fallback.
    transpose_sinks:
        Whether a *scalar* batch arriving at a sink is transposed for
        ``Sink.process_columns``.  Workers do (their sinks mostly see
        wire-decoded columns anyway); the inline run does not — a
        transpose buys a sink nothing — and only hands its sinks the
        ``ColumnBatch`` payloads that reach them as such.
    """

    def __init__(
        self,
        instances: Mapping[int, Any],
        stats: Mapping[int, TaskStats],
        counters: MutableMapping[tuple[int, str], int],
        buffers: Mapping[tuple[int, int], OutputBuffer],
        metrics: MutableMapping[str, Any],
        *,
        vectorized: str,
        per_tuple: bool,
        transpose_sinks: bool,
    ) -> None:
        self.stats = stats
        self.counters = counters
        self.buffers = buffers
        self.metrics = metrics
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
        #: Sinks that take columnar payloads only (see ``transpose_sinks``).
        self.columnar_only: set[int] = set()
        if vectorized == "off" or not columns_available():
            return
        for task_id, operator in instances.items():
            if not isinstance(operator, Operator) or not operator.supports_columns():
                continue
            self.capable.add(task_id)
            is_sink = isinstance(operator, Sink)
            if is_sink and not transpose_sinks:
                self.columnar_only.add(task_id)
            if per_tuple or (is_sink and type(operator).process is not Sink.process):
                continue
            self.kernels[task_id] = operator.process_columns
            accepted = operator.column_schemas
            self.schemas[task_id] = None if accepted is None else frozenset(accepted)

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
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
    # Step
    # ------------------------------------------------------------------
    def run_columns(
        self, chain: Sequence[TaskRuntime], position: int, batch: ColumnBatch
    ) -> Iterator[Delivery]:
        """Run ``batch`` through the kernel of ``chain[position]`` and
        onward; an unfused task is a chain of one.

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
        for out in self.kernels[task_id](batch) or ():
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
    # Router
    # ------------------------------------------------------------------
    def route_columns(self, rt: TaskRuntime, out: ColumnBatch) -> Iterator[Delivery]:
        """Route one columnar output batch to its downstream edges.

        The route counter advances by ``len(out)``, exactly as the scalar
        loop would, and each receiving edge's pending scalar buffer is
        flushed *first*, so per-edge FIFO order holds; the consumer's
        share then leaves in chunks of that edge's live batch size (the
        buffer's — barriers resize it — not the spec's as lowered).
        Content-keyed groupings with several consumers burst to tuples
        and keep the scalar discipline.
        """
        task_id = rt.task_id
        buffers = self.buffers
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
                yield from self._route_burst(task_id, route, burst)
                continue
            self.counters[key] += len(out)
            for index, rows in parts:
                consumer = consumers[index]
                buffer = buffers[(task_id, consumer)]
                sealed = buffer.flush()
                if sealed is not None:
                    yield task_id, consumer, sealed
                for chunk in rows.chunks(buffer.batch_size):
                    yield task_id, consumer, chunk

    def _route_burst(
        self, task_id: int, route: RouteSpec, items: list[StreamTuple]
    ) -> Iterator[Delivery]:
        """The scalar router's loop over a burst batch (one route)."""
        counters = self.counters
        key = (task_id, route.counter_key)
        consumers = route.consumers
        n_consumers = len(consumers)
        pick = route.grouping.route
        buffers = self.buffers
        for item in items:
            indices = pick(item, n_consumers, counters[key])
            counters[key] += 1
            for index in indices:
                consumer = consumers[index]
                sealed = buffers[(task_id, consumer)].append(item)
                if sealed is not None:
                    yield task_id, consumer, sealed
