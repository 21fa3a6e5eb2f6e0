"""Seeded synthetic workload generators for the four benchmark apps.

The paper's testing workloads are themselves synthetic (random ten-word
sentences for WC, generated transaction/sensor streams for FD/SD, and the
Linear Road benchmark's position reports for LR).  These generators
reproduce their statistical shape deterministically from a seed.
"""

from __future__ import annotations

import random
from typing import Iterator

#: Word pool used by the sentence generator (average length ~5 characters,
#: matching the paper's "ten random words" sentences).
_WORDS = (
    "the quick brown fox jumps over lazy dog stream tuple socket core "
    "cache numa remote local memory brisk storm flink heron spout sink "
    "split count parse shuffle fields window state query plan cost rate "
    "speed toll road lane exit ramp car accident segment minute daily"
).split()


def sentences(
    seed: int = 7,
    words_per_sentence: int = 10,
    empty_fraction: float = 0.0,
    shift_at: int | None = None,
    shift_words_per_sentence: int | None = None,
) -> Iterator[tuple[str]]:
    """Infinite stream of random sentences (Word Count input).

    ``empty_fraction`` injects invalid (empty) tuples so the parser has
    something to drop when a test wants selectivity < 1.

    ``shift_at``/``shift_words_per_sentence`` model a mid-stream workload
    characteristic change (Section 5.3): from the ``shift_at``-th sentence
    on, sentences carry ``shift_words_per_sentence`` words instead, which
    multiplies the splitter's selectivity — the drift the reconfiguration
    controller reacts to (see docs/reconfiguration.md).
    """
    rng = random.Random(seed)
    # ``rng.choice(_WORDS)``, ten times a sentence, is most of a Word
    # Count source's cost: draw the index with the rejection loop
    # ``Random._randbelow`` runs, inline.  Same calls on the same
    # generator, so the stream is the one ``choice`` gives
    # (tests/test_apps_workloads.py holds the two together).
    getrandbits = rng.getrandbits
    n_words = len(_WORDS)
    bits = n_words.bit_length()
    produced = 0
    while True:
        length = words_per_sentence
        if (
            shift_at is not None
            and shift_words_per_sentence is not None
            and produced >= shift_at
        ):
            length = shift_words_per_sentence
        if empty_fraction > 0.0 and rng.random() < empty_fraction:
            yield ("",)
        else:
            words = []
            for _ in range(length):
                index = getrandbits(bits)
                while index >= n_words:
                    index = getrandbits(bits)
                words.append(_WORDS[index])
            yield (" ".join(words),)
        produced += 1


def transactions(
    seed: int = 11, n_accounts: int = 1000, fraud_fraction: float = 0.02
) -> Iterator[tuple[str, str]]:
    """Infinite stream of credit-card-style records (Fraud Detection input).

    Each record is ``(entity_id, record_data)`` where ``record_data`` is a
    comma-separated transaction trace.  A small fraction follows an unusual
    transition pattern the Markov predictor should score as fraudulent.
    """
    rng = random.Random(seed)
    states = ["low", "mid", "high"]
    while True:
        account = f"acc_{rng.randrange(n_accounts):05d}"
        if rng.random() < fraud_fraction:
            trace = ",".join(rng.choice(("high", "high", "max")) for _ in range(5))
        else:
            trace = ",".join(rng.choice(states) for _ in range(5))
        yield account, trace


def sensor_readings(
    seed: int = 13, n_devices: int = 64, spike_fraction: float = 0.01
) -> Iterator[tuple[str, float, int]]:
    """Infinite stream of ``(device_id, value, timestamp)`` sensor readings
    (Spike Detection input).  Values hover around a per-device mean with a
    rare multiplicative spike.
    """
    rng = random.Random(seed)
    means = [20.0 + rng.random() * 10.0 for _ in range(n_devices)]
    timestamp = 0
    while True:
        device = rng.randrange(n_devices)
        value = rng.gauss(means[device], 1.0)
        if rng.random() < spike_fraction:
            value *= 3.0
        timestamp += 1
        yield f"dev_{device:03d}", value, timestamp


#: Linear Road input record types (subset used by the paper's LR workload).
POSITION_REPORT = 0
ACCOUNT_BALANCE_REQUEST = 2
DAILY_EXPENDITURE_REQUEST = 3


def linear_road_records(
    seed: int = 17,
    n_vehicles: int = 2000,
    n_segments: int = 100,
    query_fraction: float = 0.01,
    stopped_fraction: float = 0.003,
) -> Iterator[tuple]:
    """Infinite stream of Linear Road records (LR input).

    ~99% position reports, with small fractions of account-balance and
    daily-expenditure requests, matching the dispatcher selectivities of
    Table 8.  A sliver of vehicles reports speed 0 repeatedly at the same
    position so accident detection has something to find.

    Each record is the flat 11-field tuple ``(record_type, time, vid,
    speed, xway, lane, direction, segment, position, query_id, day)``,
    built in place.  The ``rng`` calls and their order fix the stream
    (tests/test_apps_workloads.py pins it); a tuple display evaluates
    its fields left to right, so draws inside one keep that order.
    """
    rng = random.Random(seed)
    random_ = rng.random
    randrange = rng.randrange
    road_length = n_segments * 5280
    half_queries = query_fraction / 2
    time = 0
    positions = {vid: randrange(road_length) for vid in range(n_vehicles)}
    stopped = set(
        rng.sample(range(n_vehicles), max(1, int(n_vehicles * stopped_fraction)))
    )
    while True:
        time += 1
        roll = random_()
        vid = randrange(n_vehicles)
        if roll < half_queries:
            yield (
                ACCOUNT_BALANCE_REQUEST, time, vid, 0, 0, 0, 0, 0, 0,
                randrange(1 << 16), 0,
            )
        elif roll < query_fraction:
            yield (
                DAILY_EXPENDITURE_REQUEST, time, vid, 0, 0, 0, 0, 0, 0,
                randrange(1 << 16), randrange(1, 70),
            )
        else:
            if vid in stopped:
                speed = 0
            else:
                speed = randrange(40, 100)
                positions[vid] = (positions[vid] + speed) % road_length
            position = positions[vid]
            yield (
                POSITION_REPORT, time, vid, speed,
                randrange(2), randrange(4), randrange(2),
                position // 5280, position, 0, 0,
            )


def take(iterator: Iterator, n: int) -> list:
    """First ``n`` items of an iterator (test/profiling helper)."""
    return [item for _, item in zip(range(n), iterator)]
