"""Unit tests for communication queues and jumbo-tuple output buffers."""

import pytest

from repro.dsps import CommunicationQueue, OutputBuffer, StreamTuple
from repro.dsps.queues import MAX_BATCH_ROWS
from repro.errors import SimulationError


class _Rows(list):
    """A batch that says which neighbours it merges with."""

    def __init__(self, kind, values):
        super().__init__(values)
        self.kind = kind

    def __eq__(self, other):
        return type(other) is _Rows and self.kind == other.kind and list(self) == list(other)

    def joins(self, other):
        return type(other) is _Rows and other.kind == self.kind

    @classmethod
    def concat(cls, batches):
        return cls(batches[0].kind, [v for batch in batches for v in batch])


def _batchify(buffer, n):
    sealed = []
    for i in range(n):
        batch = buffer.append(StreamTuple(values=(i,)))
        if batch is not None:
            sealed.append(batch)
    return sealed


class TestOutputBuffer:
    def test_seals_at_batch_size(self):
        buffer = OutputBuffer(producer=0, consumer=1, batch_size=4)
        sealed = _batchify(buffer, 9)
        assert len(sealed) == 2
        assert all(len(batch) == 4 for batch in sealed)
        assert buffer.pending == 1

    def test_flush_partial(self):
        buffer = OutputBuffer(0, 1, batch_size=4)
        _batchify(buffer, 2)
        batch = buffer.flush()
        assert batch is not None and len(batch) == 2
        assert buffer.flush() is None

    def test_sealed_counter(self):
        buffer = OutputBuffer(0, 1, batch_size=2)
        _batchify(buffer, 5)
        buffer.flush()
        assert buffer.sealed_batches == 3

    def test_invalid_batch_size(self):
        with pytest.raises(SimulationError):
            OutputBuffer(0, 1, batch_size=0)


class TestCommunicationQueue:
    def test_fifo_order(self):
        queue = CommunicationQueue(0, 1)
        buffer = OutputBuffer(0, 1, batch_size=3)
        for batch in _batchify(buffer, 6):
            queue.put(batch)
        (drained,) = queue.drain()
        assert [t.values[0] for t in drained] == [0, 1, 2, 3, 4, 5]

    def test_unbounded_by_default(self):
        queue = CommunicationQueue(0, 1)
        assert not queue.is_full
        buffer = OutputBuffer(0, 1, batch_size=100)
        for batch in _batchify(buffer, 1000):
            queue.put(batch)
        assert queue.depth_tuples == 1000

    def test_bounded_rejects_overflow(self):
        queue = CommunicationQueue(0, 1, capacity_tuples=5)
        buffer = OutputBuffer(0, 1, batch_size=3)
        batches = _batchify(buffer, 9)
        assert queue.offer(batches[0])
        assert not queue.offer(batches[1]) or queue.depth_tuples <= 5
        # second batch fits (3+3 > 5): must have been rejected
        assert queue.depth_tuples == 3
        assert queue.stats.rejected_batches == 1

    def test_put_raises_when_full(self):
        queue = CommunicationQueue(0, 1, capacity_tuples=2)
        buffer = OutputBuffer(0, 1, batch_size=3)
        (batch,) = _batchify(buffer, 3)
        with pytest.raises(SimulationError, match="full"):
            queue.put(batch)

    def test_is_full_flag(self):
        queue = CommunicationQueue(0, 1, capacity_tuples=3)
        buffer = OutputBuffer(0, 1, batch_size=3)
        queue.put(_batchify(buffer, 3)[0])
        assert queue.is_full

    def test_poll_returns_none_when_empty(self):
        queue = CommunicationQueue(0, 1)
        assert queue.poll() is None
        assert queue.is_empty

    def test_drain_coalesces_jumbo_runs_and_keeps_other_batches_whole(self):
        # Anything sized may cross the queue by reference (the runtime
        # enqueues columnar batches).  Runs of jumbo tuples coalesce, and
        # so do runs of batches that say they join (``_Rows`` below: the
        # protocol ``ColumnBatch`` implements); any other batch is
        # handed over whole, in its place.
        queue = CommunicationQueue(0, 1, capacity_tuples=32)
        buffer = OutputBuffer(0, 1, batch_size=4)
        first, second, third = _batchify(buffer, 12)
        opaque = ("a", "b", "c")
        rows = [_Rows("x", [1, 2]), _Rows("x", [3]), _Rows("y", [4]), _Rows("y", [5])]
        for batch in (first, second, opaque, third, *rows):
            queue.put(batch)
        assert queue.depth_tuples == 20
        assert not queue.offer(("d",) * 13)  # 20 + 13 > 32, whatever the shape
        payloads = queue.drain()
        assert [t.values[0] for t in payloads[0]] == list(range(8))
        assert payloads[1] is opaque
        assert [t.values[0] for t in payloads[2]] == [8, 9, 10, 11]
        # A run closes where a batch does not join its head: order kept.
        assert payloads[3:] == [_Rows("x", [1, 2, 3]), _Rows("y", [4, 5])]
        assert queue.is_empty and queue.depth_tuples == 0
        assert queue.stats.enqueued_batches == 8
        assert queue.stats.dequeued_tuples == queue.stats.enqueued_tuples == 20
        assert queue.drain() == []

    def test_take_hands_over_the_head_run_and_says_how_many_it_merged(self):
        queue = CommunicationQueue(0, 1)
        assert queue.take() == (None, 0)
        batches = [_Rows("x", [i]) for i in range(5)]
        for batch in batches:
            queue.put(batch)
        assert queue.take(2) == (_Rows("x", [0, 1]), 2)
        payload, merged = queue.take(1)
        assert payload is batches[2] and merged == 1  # alone: by reference
        assert queue.take() == (_Rows("x", [3, 4]), 2)
        assert queue.stats.dequeued_tuples == 5

    def test_a_run_of_joining_batches_stops_at_the_row_bound(self):
        queue = CommunicationQueue(0, 1)
        third = MAX_BATCH_ROWS // 3 + 1
        for start in range(4):
            queue.put(_Rows("x", [start] * third))
        assert [len(p) for p in queue.drain()] == [2 * third, 2 * third]
        # Never split, never held back: a batch over the bound is a run
        # of one, and what follows it starts the next.
        queue.put(_Rows("x", [0] * (MAX_BATCH_ROWS + 1)))
        queue.put(_Rows("x", [1]))
        assert [len(p) for p in queue.drain()] == [MAX_BATCH_ROWS + 1, 1]

    def test_stats_track_depth(self):
        queue = CommunicationQueue(0, 1)
        buffer = OutputBuffer(0, 1, batch_size=2)
        for batch in _batchify(buffer, 6):
            queue.put(batch)
        assert queue.stats.max_depth_tuples == 6
        queue.drain()
        assert queue.stats.pending_tuples == 0
        assert queue.stats.dequeued_tuples == 6

    def test_empty_batch_is_noop(self):
        from repro.dsps import JumboTuple

        queue = CommunicationQueue(0, 1, capacity_tuples=1)
        assert queue.offer(JumboTuple(source_task=0, target_task=1))
        assert queue.depth_tuples == 0

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            CommunicationQueue(0, 1, capacity_tuples=0)
