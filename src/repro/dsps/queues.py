"""Bounded communication queues with backpressure accounting.

Each consumer task owns one input queue per producer task.  BriskStream
enqueues *jumbo tuples* (batches sharing one header), so an insertion costs
one queue operation regardless of how many tuples it carries.

Queues are used in two modes:

* the functional :class:`~repro.dsps.engine.LocalEngine` uses them as plain
  FIFOs to move real tuples between operator replicas;
* the discrete-event simulator bounds them and uses :meth:`QueueStats` to
  account for blocking (backpressure) time.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sized
from dataclasses import dataclass, field
from typing import Any

from repro.dsps.tuples import JumboTuple, StreamTuple
from repro.errors import SimulationError

#: The most rows one hand-off carries: the cut on a kernel's or columnar
#: spout's output (:func:`repro.runtime.step.column_cut`) and the bound
#: on a coalesced run of columnar batches (:meth:`CommunicationQueue.take`)
#: — the size the benchmark's kernel probes measure at.  Unbounded runs
#: buy nothing more per call and hold every merged copy at once.
MAX_BATCH_ROWS = 1024


@dataclass
class QueueStats:
    """Counters describing one queue's lifetime behaviour."""

    enqueued_batches: int = 0
    enqueued_tuples: int = 0
    dequeued_tuples: int = 0
    rejected_batches: int = 0
    max_depth_tuples: int = 0
    #: Backpressure episodes: times a producer had to suspend because a
    #: sealed batch did not fit (incremented by the executing backend once
    #: per episode, not per retry).
    blocked_batches: int = 0
    #: Wall-clock (live runs) or virtual (DES) nanoseconds producers spent
    #: suspended on this queue.
    blocked_ns: float = 0.0

    @property
    def pending_tuples(self) -> int:
        return self.enqueued_tuples - self.dequeued_tuples

    @property
    def mean_batch_tuples(self) -> float:
        """Average sealed jumbo-tuple size actually enqueued."""
        if self.enqueued_batches == 0:
            return 0.0
        return self.enqueued_tuples / self.enqueued_batches

    def jumbo_fill_ratio(self, batch_size: int) -> float:
        """Mean enqueued batch size as a fraction of the target size.

        1.0 means every jumbo tuple sealed full; low values mean flushes
        (end of input, timeouts) dominated and batching bought little.
        """
        if batch_size <= 0:
            return 0.0
        return self.mean_batch_tuples / batch_size


class CommunicationQueue:
    """A bounded FIFO of jumbo tuples between one producer/consumer pair.

    A queued batch is held *by reference* and only needs a length: next
    to :class:`JumboTuple` the live runtime enqueues columnar batches
    (``repro.runtime.dataplane.ColumnBatch``), which cross the queue
    without ever materializing tuples.  Capacity, depth and
    :class:`QueueStats` count tuples whatever the payload's shape.

    Parameters
    ----------
    producer:
        Producer task id (bookkeeping only).
    consumer:
        Consumer task id (bookkeeping only).
    capacity_tuples:
        Maximum number of buffered tuples before the queue reports itself
        full (``None`` = unbounded, the functional engine's default).
    stats:
        Counters to continue from: the edge's cumulative
        :class:`QueueStats` when a relaunched worker pool takes it over
        (``None`` = a fresh edge).
    """

    def __init__(
        self,
        producer: int,
        consumer: int,
        capacity_tuples: int | None = None,
        stats: QueueStats | None = None,
    ) -> None:
        if capacity_tuples is not None and capacity_tuples < 1:
            raise SimulationError("queue capacity must be >= 1 tuple")
        self.producer = producer
        self.consumer = consumer
        self.capacity_tuples = capacity_tuples
        self.stats = stats if stats is not None else QueueStats()
        self._batches: deque = deque()
        self._depth_tuples = 0

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    @property
    def is_full(self) -> bool:
        """True when no more tuples fit (backpressure to the producer)."""
        if self.capacity_tuples is None:
            return False
        return self._depth_tuples >= self.capacity_tuples

    def has_space(self, tuples: int) -> bool:
        """True when ``tuples`` more tuples fit without exceeding capacity."""
        if self.capacity_tuples is None:
            return True
        return self._depth_tuples + tuples <= self.capacity_tuples

    def offer(self, batch: Sized, force: bool = False) -> bool:
        """Try to enqueue ``batch``; returns False when full (no partial add).

        ``force`` admits it over capacity — soft admission: a process
        worker blocked on a send of its own must keep taking what its
        peers send, or two mutually-sending workers deadlock.
        """
        n = len(batch)
        if n == 0:
            return True
        if not force and not self.has_space(n):
            self.stats.rejected_batches += 1
            return False
        self._batches.append(batch)
        self._depth_tuples += n
        self.stats.enqueued_batches += 1
        self.stats.enqueued_tuples += n
        self.stats.max_depth_tuples = max(self.stats.max_depth_tuples, self._depth_tuples)
        return True

    def put(self, batch: Sized) -> None:
        """Enqueue ``batch`` or raise when the queue is full."""
        if not self.offer(batch):
            raise SimulationError(
                f"queue {self.producer}->{self.consumer} full "
                f"({self._depth_tuples}/{self.capacity_tuples} tuples)"
            )

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    @property
    def depth_tuples(self) -> int:
        """Buffered tuple count."""
        return self._depth_tuples

    @property
    def is_empty(self) -> bool:
        return not self._batches

    def poll(self) -> Sized | None:
        """Dequeue the oldest batch, or None when empty."""
        if not self._batches:
            return None
        batch = self._batches.popleft()
        self._depth_tuples -= len(batch)
        self.stats.dequeued_tuples += len(batch)
        return batch

    def take(self, max_batches: int | None = None) -> tuple[Any, int]:
        """Dequeue the run of adjacent compatible batches at the head as
        one processable payload: ``(payload, batches merged)``, or
        ``(None, 0)`` when empty.

        A consumer pays its per-batch costs once per run.  Adjacent jumbo
        tuples coalesce into one ``list[StreamTuple]``; a batch that can
        say which neighbours :meth:`join <repro.runtime.dataplane.
        ColumnBatch.joins>` it coalesces with them through its type's
        ``concat``, up to :data:`MAX_BATCH_ROWS` rows; any other batch is
        handed over whole.  At most ``max_batches`` are merged, and only
        what is already waiting: nothing is held back for a fuller run.
        """
        head = self.poll()
        if head is None:
            return None, 0
        jumbo = isinstance(head, JumboTuple)
        joins = None if jumbo else getattr(head, "joins", None)
        if not jumbo and joins is None:
            return head, 1
        run = [head]
        rows = len(head)
        waiting = self._batches
        while waiting and len(run) != max_batches:
            batch = waiting[0]
            if jumbo:
                if not isinstance(batch, JumboTuple):
                    break
            else:
                rows += len(batch)
                if rows > MAX_BATCH_ROWS or not joins(batch):
                    break
            run.append(self.poll())
        if jumbo:
            return [item for batch in run for item in batch.tuples], len(run)
        if len(run) == 1:
            return head, 1
        return type(head).concat(run), len(run)

    def drain(self) -> list:
        """Dequeue everything, in FIFO order: the payloads :meth:`take`
        hands over until the queue is empty."""
        payloads: list = []
        while self._batches:
            payloads.append(self.take()[0])
        return payloads


class OutputBuffer:
    """Per-(producer, consumer) accumulation buffer forming jumbo tuples.

    The partition controller appends output tuples here; once
    ``batch_size`` tuples accumulate (or on :meth:`flush`), they are sealed
    into one :class:`JumboTuple` and handed to the communication queue.
    """

    def __init__(self, producer: int, consumer: int, batch_size: int = 64) -> None:
        if batch_size < 1:
            raise SimulationError("jumbo tuple batch size must be >= 1")
        self.producer = producer
        self.consumer = consumer
        self.batch_size = batch_size
        self._pending: list[StreamTuple] = []
        self.sealed_batches = 0

    def append(self, item: StreamTuple) -> JumboTuple | None:
        """Buffer ``item``; return a sealed jumbo tuple when the batch fills."""
        self._pending.append(item)
        if len(self._pending) >= self.batch_size:
            return self._seal()
        return None

    def flush(self) -> JumboTuple | None:
        """Seal whatever is pending (end of input / timeout path)."""
        if not self._pending:
            return None
        return self._seal()

    @property
    def pending(self) -> int:
        return len(self._pending)

    def _seal(self) -> JumboTuple:
        batch = JumboTuple(
            source_task=self.producer,
            target_task=self.consumer,
            tuples=self._pending,
        )
        self._pending = []
        self.sealed_batches += 1
        return batch
