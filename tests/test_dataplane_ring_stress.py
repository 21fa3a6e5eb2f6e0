"""The shm ring between two processes, with a producer racing its consumer.

``FramedRingMachine`` (test_dataplane_codec.py) models the ring in one
process, so it can never see one side read a header word while the other
side is storing it.  Here a forked producer streams sequence-stamped
frames of varying sizes and kinds — markers, data frames whose write
position carries into its second byte nearly every time, and messages
larger than the ring that go out in parts — through a 4 KiB ring while
the parent takes them and checks every one.

A header word read a byte at a time while the other process stores it
can look like a frame that is not there; the consumer then decodes stale
bytes.  That happened about once per 250 000 frames on a 2-vCPU x86 host
while the header went through ``struct``'s ``"<Q"``;
:data:`RING_STRESS_FRAMES` is sized to see it in nearly every run there.

Run it longer by hand with::

    PYTHONPATH=src python -c "from tests.test_dataplane_ring_stress import \\
        RING_STRESS_FRAMES, ring_stress; ring_stress(10 * RING_STRESS_FRAMES)"
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.runtime.dataplane import ShmRing, shm_available
from repro.runtime.dataplane.channels import DATA, MARKER

#: Frames one tier-1 run sends (about 3.5 s on a 2-vCPU host).
RING_STRESS_FRAMES = 1_000_000

_RING_BYTES = 4096

#: Message ``i`` is ``_MESSAGES[i % len(_MESSAGES)]`` with producer field
#: ``i``: every 13th a marker, one in 251 larger than the ring, the rest
#: data frames of 236-255 payload bytes (16-byte frame header on top).
_MESSAGES = [
    (MARKER, b"")
    if k % 13 == 0
    else (DATA, bytes(range(256)) * 24)
    if k == 100
    else (DATA, bytes([k]) * (236 + k * 37 % 20))
    for k in range(251)
]


def _produce(name: str, frames: int) -> None:
    ring = ShmRing.attach(name)
    put = ring.put
    for i in range(frames):
        kind, payload = _MESSAGES[i % len(_MESSAGES)]
        while not put(kind, i, 7, payload):
            pass
    ring.close()


def ring_stress(frames: int, timeout_s: float = 120.0) -> None:
    """Send ``frames`` messages from a forked producer through a 4 KiB
    ring; raise ``AssertionError`` at the first one that arrives wrong."""
    name = f"rdptest_stress{os.getpid():x}"
    ring = ShmRing.create(name, _RING_BYTES)
    producer = multiprocessing.get_context("fork").Process(
        target=_produce, args=(name, frames), daemon=True
    )
    try:
        producer.start()
        take = ring.take
        deadline = time.monotonic() + timeout_s
        i = idle = 0
        while i < frames:
            got = take()
            if got is None:
                idle += 1
                if not idle % 65536 and time.monotonic() > deadline:
                    raise AssertionError(f"frame {i} never arrived")
                continue
            kind, payload = _MESSAGES[i % len(_MESSAGES)]
            assert got == (kind, i, 7, payload), (
                f"frame {i} arrived as kind {got[0]}, producer {got[1]},"
                f" consumer {got[2]}, {len(got[3])} bytes"
            )
            i += 1
        assert take() is None
        producer.join(timeout_s)
        assert producer.exitcode == 0
    finally:
        if producer.is_alive():
            producer.kill()
            producer.join()
        ring.close()
        ring.unlink()


@pytest.mark.skipif(not shm_available(), reason="no POSIX shared memory")
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_every_frame_arrives_whole_while_the_producer_races():
    ring_stress(RING_STRESS_FRAMES)
