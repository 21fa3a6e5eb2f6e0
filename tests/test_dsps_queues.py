"""Unit tests for communication queues and jumbo-tuple output buffers."""

import pytest

from repro.dsps import CommunicationQueue, OutputBuffer, StreamTuple
from repro.errors import SimulationError


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
        # enqueues columnar batches); only runs of jumbo tuples coalesce.
        queue = CommunicationQueue(0, 1, capacity_tuples=16)
        buffer = OutputBuffer(0, 1, batch_size=4)
        first, second, third = _batchify(buffer, 12)
        opaque = ("a", "b", "c")
        for batch in (first, second, opaque, third):
            queue.put(batch)
        assert queue.depth_tuples == 15
        assert not queue.offer(("d", "e"))  # 15 + 2 > 16, whatever the shape
        payloads = queue.drain()
        assert [t.values[0] for t in payloads[0]] == list(range(8))
        assert payloads[1] is opaque
        assert [t.values[0] for t in payloads[2]] == [8, 9, 10, 11]
        assert queue.is_empty and queue.depth_tuples == 0
        assert queue.stats.enqueued_batches == 4
        assert queue.stats.dequeued_tuples == queue.stats.enqueued_tuples == 15
        assert queue.drain() == []

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
