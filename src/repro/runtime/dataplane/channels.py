"""Transport half of the data plane: how sealed batches cross workers.

BriskStream's central runtime claim is that tuples cross sockets by
*reference*: the producer writes the payload once and hands the consumer
a pointer (Appendix A).  The process backend's original transport was the
opposite — every sealed batch was pickled and *copied* through an
OS-pipe-backed ``mp.Queue``.  This module makes the transport pluggable:

* :class:`PickleQueueChannel` — the original behavior, refactored out of
  ``process_pool.py``: batches travel as pickled payloads inside one
  bounded ``mp.Queue`` inbox per worker.  The reference the parity tests
  compare against, and what :func:`create_dataplane` hands back on a
  host without working POSIX shared memory.
* :class:`ShmRingChannel` — the default, the pass-by-reference
  analogue.  One fixed-size :class:`ShmRing` (a SPSC ring over
  ``multiprocessing.shared_memory``) per ordered producer→consumer
  *worker* pair.  A sealed batch is encoded once with the binary
  :class:`~repro.runtime.dataplane.codec.BatchCodec` and written once
  into the ring as a frame; barrier/EOF markers are frames too.  Nothing
  else crosses: no queue, no feeder thread, no descriptor.

Both planes keep the worker's flow control: a send that finds its
channel at its bound is refused, and the worker's blocked-send loop,
spout throttling and watchdogs act on that, so the planes differ only
in *where bytes live*, not in the liveness story.

Ring layout (one ring per directed worker pair)::

      offset 0        8        16 .. 64       72       80 .. 128      128+capacity
      +--------+--------+--------+--------+--------+------+--------------+
      | write  | frames |        | read   | frames |      | data region: |
      | pos u64| written|        | pos u64| read   |      | frames       |
      +--------+--------+--------+--------+--------+------+--------------+
       producer's half             consumer's half

      frame: | length u32 | producer u32 | consumer u32 | kind u32 | payload |
      kind:  DATA (a batch), MARKER (an EOF / barrier marker) or PART

Positions and frame counts are *monotonic* (never wrapped), so ``write_pos
- read_pos`` is the exact number of unconsumed bytes and ``frames written
- frames read`` the unconsumed frames; the physical offset of position
``p`` is ``128 + p % capacity``, and a frame crossing the end of the
region is written/read as two slices.  Each half of the header has one
writer, a cache line from the other: the producer copies a frame in,
then stores its frame count, then ``write_pos``; the consumer copies the
frame out, then stores its count, then ``read_pos``.

The header is read and written through a native ``"Q"`` view of its 128
bytes (``memoryview.cast``): every word moves as one aligned 8-byte load
or store, which the other process sees whole (aligned 8-byte accesses
are single-copy atomic on 64-bit CPUs).  That the frame's bytes land
before the position that publishes them rests on x86-64's store order;
nothing here fences a weakly ordered CPU.  ``struct``'s standard-size
``"<Q"``, which the header went through before, moves a word a byte at
a time: a consumer could read a ``write_pos`` half old and half new,
below ``read_pos``, take it for "a frame arrived" and decode stale
bytes (tests/test_dataplane_ring_stress.py saw it about once per
250 000 frames on a 2-vCPU x86-64 host).  :meth:`ShmRing.take` raises
:class:`~repro.errors.ExecutionError` when a position reads below the
other or a frame runs past ``write_pos``, rather than decode.

A ring is bounded twice: :data:`DEFAULT_INBOX_BATCHES` frames and its
byte capacity.  A message whose frame could never fit leaves as PART
frames, each as large as the space freed so far, closed by its DATA
frame; the consumer reassembles them.  Per-edge FIFO holds because an
edge always maps to one sender→consumer ring, and a sender finishes one
message before it starts the next.
"""

from __future__ import annotations

import itertools
import os
import pickle
import queue as queue_mod
import struct
from abc import ABC, abstractmethod
from collections import defaultdict
from typing import Any, Mapping

from repro.dsps.tuples import StreamTuple
from repro.errors import ExecutionError
from repro.runtime.dataplane.codec import BatchCodec
from repro.runtime.dataplane.columns import ColumnBatch

#: Data-plane names ``RunConfig.dataplane`` and ``create_dataplane`` accept.
DATAPLANE_NAMES = ("pickle", "shm")

#: Shared-memory segment name prefix (kept short for macOS's 31-char cap).
SHM_NAME_PREFIX = "rdp"

#: Per-pair ring capacity in bytes.
DEFAULT_RING_BYTES = 1 << 20

#: Bound, in jumbo batches and markers, of what may be in flight: per
#: ring (sender→worker pair) on the shm plane, per inbox on the pickle one.
DEFAULT_INBOX_BATCHES = 64

#: Frame kinds: a batch, a barrier/EOF marker, and a non-final part of a
#: message too large for the ring.
DATA, MARKER, _PART = 0, 1, 2

#: Header words (u64, native order): the producer's half — write
#: position, frames written — and the consumer's half — read position,
#: frames read — a cache line apart.
_WRITE, _WRITTEN, _READ, _TAKEN = 0, 1, 8, 9
_RING_HEADER_BYTES = 128

#: Frame header: payload length, producer task, consumer task, kind.
_FRAME = struct.Struct("<IIII")

_ring_sequence = itertools.count()


def shm_available() -> bool:
    """True when POSIX shared memory actually works on this platform."""
    try:
        from multiprocessing import shared_memory

        probe = shared_memory.SharedMemory(create=True, size=16)
        probe.close()
        probe.unlink()
        return True
    except Exception:
        return False


class _suppress_tracking:
    """Silence resource-tracker registration while attaching a segment.

    On POSIX, ``SharedMemory(name=...)`` registers the segment with the
    resource tracker even when merely *attaching* (fixed only in 3.13's
    ``track=False``).  Segment lifetime belongs to the parent — which
    created it and unlinks it in ``DataPlane.close`` — so an attacher
    must leave the tracker untouched: under ``fork`` all processes share
    one tracker whose cache is a set, and attach-side register/unregister
    pairs would unbalance the creator's entry.
    """

    def __enter__(self) -> None:
        from multiprocessing import resource_tracker

        self._module = resource_tracker
        self._register = resource_tracker.register
        resource_tracker.register = lambda name, rtype: None

    def __exit__(self, *exc: Any) -> None:
        self._module.register = self._register


class ShmRing:
    """Single-producer single-consumer ring over one shm segment.

    It carries frames (:meth:`put` / :meth:`take`) or raw byte writes
    (:meth:`try_write` / :meth:`consume`, what the layer benchmark
    probes), never both.  An instance is one side's view: the producer's
    remembers how much of a message going out in parts it has written,
    the consumer's the parts it has received.
    """

    def __init__(self, shm: Any, capacity: int) -> None:
        self._shm = shm
        self._buf = shm.buf
        #: The header as native u64 words: each read or write is one
        #: aligned 8-byte load or store (the segment is page-aligned).
        self._header = shm.buf[:_RING_HEADER_BYTES].cast("Q")
        self.capacity = capacity
        #: Producer side: ``(payload, bytes written)`` of a message whose
        #: parts are partly in the ring.
        self._sending: tuple[bytes, int] | None = None
        #: Consumer side: the parts of a message not closed yet.
        self._parts: list[bytes] = []

    # -- lifecycle ------------------------------------------------------
    @classmethod
    def create(cls, name: str, capacity: int) -> "ShmRing":
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(
            name=name, create=True, size=_RING_HEADER_BYTES + capacity
        )
        shm.buf[:_RING_HEADER_BYTES] = bytes(_RING_HEADER_BYTES)
        return cls(shm, capacity)

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        from multiprocessing import shared_memory

        with _suppress_tracking():
            shm = shared_memory.SharedMemory(name=name)
        return cls(shm, shm.size - _RING_HEADER_BYTES)

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        self._buf = None
        if self._header is not None:
            # An exported view keeps the segment from closing.
            self._header.release()
            self._header = None
        try:
            self._shm.close()
        except Exception:  # pragma: no cover - idempotent teardown
            pass

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    # -- bytes in the region --------------------------------------------
    def _copy_in(self, position: int, data: Any) -> None:
        start = _RING_HEADER_BYTES + position % self.capacity
        end = _RING_HEADER_BYTES + self.capacity
        size = len(data)
        if start + size <= end:
            self._buf[start : start + size] = data
        else:
            split = end - start
            view = memoryview(data)
            self._buf[start:end] = view[:split]
            self._buf[_RING_HEADER_BYTES : _RING_HEADER_BYTES + size - split] = (
                view[split:]
            )

    def _copy_out(self, position: int, size: int) -> bytes:
        start = _RING_HEADER_BYTES + position % self.capacity
        end = _RING_HEADER_BYTES + self.capacity
        if start + size <= end:
            return bytes(self._buf[start : start + size])
        split = end - start
        return bytes(self._buf[start:end]) + bytes(
            self._buf[_RING_HEADER_BYTES : _RING_HEADER_BYTES + size - split]
        )

    def in_flight(self) -> tuple[int, int]:
        """Frames and bytes written and not yet taken."""
        header = self._header
        return (
            header[_WRITTEN] - header[_TAKEN],
            header[_WRITE] - header[_READ],
        )

    # -- raw bytes ------------------------------------------------------
    def try_write(self, payload: bytes) -> int | None:
        """Copy ``payload`` into the ring; its start position, or None
        when the payload does not fit right now (or ever)."""
        size = len(payload)
        header = self._header
        write = header[_WRITE]
        if size > self.capacity - (write - header[_READ]):
            return None
        self._copy_in(write, payload)
        header[_WRITE] = write + size
        return write

    def consume(self, start: int, size: int) -> bytes:
        """Copy ``size`` bytes written at position ``start`` out of the
        ring and free them (advances ``read_pos`` past the payload)."""
        payload = self._copy_out(start, size)
        self._header[_READ] = start + size
        return payload

    # -- frames ---------------------------------------------------------
    def put(
        self,
        kind: int,
        producer: int,
        consumer: int,
        payload: bytes,
        max_frames: int = DEFAULT_INBOX_BATCHES,
    ) -> bool:
        """Write one message (``kind`` is :data:`DATA` or :data:`MARKER`).

        False while the ring is at its frame or byte bound; call again
        with the same ``payload`` object until True.  A message whose
        frame is larger than the ring goes out as parts, each as large as
        the free space, so a False may leave some of it written.
        """
        header, capacity, size = self._header, self.capacity, len(payload)
        sent = 0
        if self._sending is not None:
            pending, sent = self._sending
            if pending is not payload:
                raise ValueError("another message is partly written to this ring")
        whole = _FRAME.size + size <= capacity
        while True:
            write, written = header[_WRITE], header[_WRITTEN]
            read, taken = header[_READ], header[_TAKEN]
            free = capacity - (write - read)
            rest = size - sent
            if written - taken >= max_frames:
                break
            if _FRAME.size + rest <= free:
                chunk, frame_kind = rest, kind
            elif whole or free <= _FRAME.size:
                break
            else:
                chunk, frame_kind = free - _FRAME.size, _PART
            self._copy_in(write, _FRAME.pack(chunk, producer, consumer, frame_kind))
            self._copy_in(write + _FRAME.size, memoryview(payload)[sent : sent + chunk])
            # Publish after the frame is in place, the count before the
            # position: the consumer never reads bytes beyond write_pos.
            header[_WRITTEN] = written + 1
            header[_WRITE] = write + _FRAME.size + chunk
            sent += chunk
            if frame_kind != _PART:
                self._sending = None
                return True
        self._sending = (payload, sent) if sent else None
        return False

    def take(self) -> tuple[int, int, int, bytes] | None:
        """The oldest whole message as ``(kind, producer, consumer,
        payload)``, or None when none has arrived complete."""
        header = self._header
        while True:
            write = header[_WRITE]
            read = header[_READ]
            if write == read:
                return None
            if write - read < _FRAME.size:
                raise ExecutionError(
                    f"shm ring {self.name}: write position {write} is not a"
                    f" whole frame past read position {read}"
                )
            size, producer, consumer, kind = _FRAME.unpack(
                self._copy_out(read, _FRAME.size)
            )
            end = read + _FRAME.size + size
            if end > write:
                raise ExecutionError(
                    f"shm ring {self.name}: a {size}-byte frame at {read}"
                    f" runs past write position {write}"
                )
            payload = self._copy_out(read + _FRAME.size, size)
            # Free only after the copy: the producer may reuse the space
            # as soon as read_pos moves.
            header[_TAKEN] += 1
            header[_READ] = end
            if kind != _PART:
                if self._parts:
                    self._parts.append(payload)
                    payload = b"".join(self._parts)
                    self._parts = []
                return kind, producer, consumer, payload
            self._parts.append(payload)


# ----------------------------------------------------------------------
# Worker-side endpoints
# ----------------------------------------------------------------------
class ChannelEndpoint(ABC):
    """One worker's view of the data plane.

    The worker keeps all scheduling/liveness logic (bounded blocking
    sends, soft draining, EOF bookkeeping) and talks to the transport
    only through this interface.  ``pack`` serializes a sealed batch —
    a tuple list or a :class:`ColumnBatch`, columnar end-to-end where the
    content allows — exactly once into a ``("batch", producer, consumer,
    bytes)`` message; a marker is ``("eof", producer, consumer)``.  Byte
    counters tick once per batch, and a retried put of the same message
    never re-encodes (see docs/dataplane.md).

    Endpoints are built parent-side (picklable) and activated in the
    worker process via :meth:`connect`.
    """

    plane: str = "abstract"

    def __init__(self, worker_id: int) -> None:
        self.me = worker_id
        self.metrics: dict[str, float] = defaultdict(float)

    def connect(self) -> None:
        """Attach process-local resources (called in the worker)."""

    def close(self) -> None:
        """Release process-local resources (never unlinks segments)."""

    def snapshot_metrics(self) -> dict[str, float]:
        """Channel counters to merge into the worker's result metrics."""
        return dict(self.metrics)

    # -- serialization --------------------------------------------------
    @abstractmethod
    def pack(
        self,
        dest: int,
        producer: int,
        consumer: int,
        payload: "list[StreamTuple] | ColumnBatch",
    ) -> tuple:
        """Serialize one sealed batch into a message for ``dest``."""

    @abstractmethod
    def unpack(
        self, message: tuple, columns: bool = False
    ) -> "tuple[int, int, list[StreamTuple] | ColumnBatch]":
        """Inverse of :meth:`pack`: ``(producer, consumer, payload)``.

        Rows by default.  ``columns=True`` prefers a :class:`ColumnBatch`
        and still hands back rows when the payload cannot be columnar
        (pickle fallbacks, row-packed pickle messages, empty batches);
        such callers must accept either payload shape.
        """

    def peek_consumer(self, message: tuple) -> int:
        """Consumer task id of a data message, without unpacking it.

        Lets the receiving worker decide *how* to unpack — columnar for
        consumers with a vectorized kernel, rows otherwise — before
        paying for the payload.
        """
        return message[2]

    # -- transport ------------------------------------------------------
    @abstractmethod
    def try_put(self, dest: int, message: tuple) -> bool:
        """Send a batch or marker to worker ``dest``; False, without
        blocking, while that channel is at its bound."""

    @abstractmethod
    def try_get(self) -> tuple | None:
        """The next message sent to this worker, or None."""

    @abstractmethod
    def dest_full(self, dest: int) -> bool:
        """Whether a put to worker ``dest`` would find its bound now."""


class PickleQueueChannel(ChannelEndpoint):
    """The historical transport: pickled batches inside bounded
    ``mp.Queue`` inboxes, one per worker."""

    plane = "pickle"

    def __init__(self, worker_id: int, inboxes: list) -> None:
        super().__init__(worker_id)
        self.inboxes = inboxes

    def pack(
        self,
        dest: int,
        producer: int,
        consumer: int,
        payload: "list[StreamTuple] | ColumnBatch",
    ) -> tuple:
        # A ColumnBatch ships as the object itself: the receiver loads
        # it and bursts only if it must.
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self.metrics["pickled_bytes_out"] += len(blob)
        self.metrics["remote_batches_out"] += 1
        return ("batch", producer, consumer, blob)

    def unpack(
        self, message: tuple, columns: bool = False
    ) -> "tuple[int, int, list[StreamTuple] | ColumnBatch]":
        _, producer, consumer, blob = message
        payload = pickle.loads(blob)
        if not columns and isinstance(payload, ColumnBatch):
            payload = payload.to_tuples()
        return producer, consumer, payload

    def try_put(self, dest: int, message: tuple) -> bool:
        try:
            self.inboxes[dest].put_nowait(message)
            return True
        except queue_mod.Full:
            return False

    def try_get(self) -> tuple | None:
        try:
            return self.inboxes[self.me].get_nowait()
        except queue_mod.Empty:
            return None

    def dest_full(self, dest: int) -> bool:
        try:
            return self.inboxes[dest].full()
        except NotImplementedError:  # pragma: no cover - platform specific
            return False


#: What a frame's kind reads as in a message.
_TAGS = {DATA: "batch", MARKER: "eof"}


class ShmRingChannel(ChannelEndpoint):
    """Codec-encoded batches and markers written once, as frames, into
    per-pair shm rings; the rings are the whole transport."""

    plane = "shm"

    def __init__(
        self,
        worker_id: int,
        ring_names: Mapping[tuple[int, int], str],
        edge_schemas: Mapping[tuple[int, int], str] | None = None,
    ) -> None:
        super().__init__(worker_id)
        self.ring_names = dict(ring_names)
        self.edge_schemas = dict(edge_schemas or {})
        self.codec: BatchCodec | None = None
        self.send_rings: dict[int, ShmRing] = {}
        self.recv_rings: list[ShmRing] = []
        #: Receive ring the next poll starts at (round-robin).
        self._turn = 0
        #: The last message a put refused, so a retried send counts one
        #: ``ring_full_blocks``.
        self._refused: tuple | None = None

    def connect(self) -> None:
        # The codec — and with it all per-edge dictionary/mirror state —
        # is built fresh inside the worker process, once per execution
        # attempt: a Supervisor retry or a new epoch slice reconnects,
        # resetting producer dictionaries and consumer mirrors together.
        self.codec = BatchCodec(self.edge_schemas)
        for (sender, dest), name in sorted(self.ring_names.items()):
            if sender == self.me:
                self.send_rings[dest] = ShmRing.attach(name)
            elif dest == self.me:
                self.recv_rings.append(ShmRing.attach(name))

    def close(self) -> None:
        for ring in (*self.send_rings.values(), *self.recv_rings):
            ring.close()
        self.send_rings.clear()
        self.recv_rings.clear()

    def snapshot_metrics(self) -> dict[str, float]:
        snapshot = dict(self.metrics)
        if self.codec is not None:
            codec = self.codec
            snapshot["codec_fallbacks"] = float(codec.fallback_batches)
            snapshot["dict_columns"] = float(codec.dict_columns)
            snapshot["dict_pages"] = float(codec.dict_pages)
            snapshot["dict_bytes"] = float(codec.dict_bytes)
            snapshot["dict_promotions"] = float(codec.dict_promotions)
            snapshot["dict_demotions"] = float(codec.dict_demotions)
        return snapshot

    def pack(
        self,
        dest: int,
        producer: int,
        consumer: int,
        payload: "list[StreamTuple] | ColumnBatch",
    ) -> tuple:
        # One wire format whichever shape was handed over — the receiver
        # cannot tell which side packed.
        encode = (
            self.codec.encode_columns
            if isinstance(payload, ColumnBatch)
            else self.codec.encode
        )
        self.metrics["remote_batches_out"] += 1
        return ("batch", producer, consumer, encode((producer, consumer), payload))

    def unpack(
        self, message: tuple, columns: bool = False
    ) -> "tuple[int, int, list[StreamTuple] | ColumnBatch]":
        _, producer, consumer, payload = message
        edge = (producer, consumer)
        if columns:
            batch = self.codec.decode_columns(payload, edge)
            if batch is not None:
                return producer, consumer, batch
            # pickle fallback or empty: rows it is
        return producer, consumer, self.codec.decode(payload, edge)

    def try_put(self, dest: int, message: tuple) -> bool:
        ring = self.send_rings[dest]
        if message[0] == "eof":
            kind, payload = MARKER, b""
        else:
            kind, payload = DATA, message[3]
        if ring.put(kind, message[1], message[2], payload):
            if kind == DATA:
                parts = _FRAME.size + len(payload) > ring.capacity
                self.metrics["bytes_oob" if parts else "bytes_inline"] += len(payload)
            return True
        if message is not self._refused:
            self._refused = message
            self.metrics["ring_full_blocks"] += 1
        return False

    def try_get(self) -> tuple | None:
        rings = self.recv_rings
        for _ in range(len(rings)):
            ring = rings[self._turn]
            self._turn = (self._turn + 1) % len(rings)
            frame = ring.take()
            if frame is not None:
                kind, producer, consumer, payload = frame
                return (_TAGS[kind], producer, consumer, payload)
        return None

    def dest_full(self, dest: int) -> bool:
        return self.send_rings[dest].in_flight()[0] >= DEFAULT_INBOX_BATCHES


# ----------------------------------------------------------------------
# Parent-side planes
# ----------------------------------------------------------------------
class DataPlane(ABC):
    """Parent-side owner of a run's transport resources.

    Created per ``execute()`` attempt; ``close`` must be unconditionally
    safe to call from the backend's ``finally`` block — including after
    worker crashes — because it is what guarantees shared-memory
    segments never outlive a run (no leaked ``/dev/shm`` entries).
    """

    name: str = "abstract"

    @abstractmethod
    def endpoint(self, worker_id: int) -> ChannelEndpoint:
        """A (picklable, unconnected) endpoint for one worker."""

    @abstractmethod
    def close(self) -> None:
        """Release what the plane created."""


class PickleDataPlane(DataPlane):
    name = "pickle"

    def __init__(self, ctx: Any, n_workers: int) -> None:
        self.inboxes = [
            ctx.Queue(maxsize=DEFAULT_INBOX_BATCHES) for _ in range(n_workers)
        ]

    def endpoint(self, worker_id: int) -> PickleQueueChannel:
        return PickleQueueChannel(worker_id, self.inboxes)

    def close(self) -> None:
        for inbox in self.inboxes:
            inbox.cancel_join_thread()


class ShmDataPlane(DataPlane):
    name = "shm"

    def __init__(
        self,
        n_workers: int,
        *,
        edge_schemas: Mapping[tuple[int, int], str] | None = None,
    ) -> None:
        self.edge_schemas = dict(edge_schemas or {})
        self.rings: dict[tuple[int, int], ShmRing] = {}
        run_tag = f"{SHM_NAME_PREFIX}{os.getpid():x}_{next(_ring_sequence):x}"
        try:
            for sender in range(n_workers):
                for dest in range(n_workers):
                    if sender == dest:
                        continue
                    name = f"{run_tag}_{sender}_{dest}"
                    self.rings[(sender, dest)] = ShmRing.create(
                        name, DEFAULT_RING_BYTES
                    )
        except Exception as exc:
            self.close()
            raise ExecutionError(
                f"cannot create shared-memory rings ({exc!r})"
            ) from exc

    def endpoint(self, worker_id: int) -> ShmRingChannel:
        return ShmRingChannel(
            worker_id,
            {key: ring.name for key, ring in self.rings.items()},
            self.edge_schemas,
        )

    def close(self) -> None:
        for ring in self.rings.values():
            ring.close()
            ring.unlink()
        self.rings.clear()


def create_dataplane(
    name: str,
    ctx: Any,
    n_workers: int,
    *,
    edge_schemas: Mapping[tuple[int, int], str] | None = None,
) -> DataPlane:
    """Build the parent-side data plane for one pool: the shm plane, or
    the pickle plane when asked for by name or when this platform has no
    working POSIX shared memory.  The plane's ``name`` says which."""
    if name not in DATAPLANE_NAMES:
        raise ExecutionError(
            f"unknown dataplane {name!r}; expected one of {DATAPLANE_NAMES}"
        )
    if name == "shm" and shm_available():
        return ShmDataPlane(n_workers, edge_schemas=edge_schemas)
    return PickleDataPlane(ctx, n_workers)
