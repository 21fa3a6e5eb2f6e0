"""Seeded synthetic workload generators for the four benchmark apps.

The paper's testing workloads are themselves synthetic (random ten-word
sentences for WC, generated transaction/sensor streams for FD/SD, and the
Linear Road benchmark's position reports for LR).  These generators
reproduce their statistical shape deterministically from a seed.
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import Iterator

import numpy as np

#: Word pool used by the sentence generator (average length ~5 characters,
#: matching the paper's "ten random words" sentences).
_WORDS = (
    "the quick brown fox jumps over lazy dog stream tuple socket core "
    "cache numa remote local memory brisk storm flink heron spout sink "
    "split count parse shuffle fields window state query plan cost rate "
    "speed toll road lane exit ramp car accident segment minute daily"
).split()

#: Words :func:`sentences` draws per bulk chunk.
_CHUNK_WORDS = 4096

#: Index ``i`` is ``_WORDS[i] + " "`` (a word inside a sentence), index
#: ``len(_WORDS) + i`` is ``_WORDS[i] + "\n"`` (a sentence's last word);
#: an object array, so one fancy index picks a chunk's tokens.
_TOKENS = np.array(
    [word + " " for word in _WORDS] + [word + "\n" for word in _WORDS],
    dtype=object,
)


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

    The stream is the one ``rng.choice(_WORDS)`` per word gives, sentence
    for sentence (tests/test_apps_workloads.py holds the two together).
    Without empty sentences the words are drawn in bulk, up to
    :data:`_CHUNK_WORDS` of them ahead of the sentences read so far: the
    stream is unchanged, but the generator's ``rng`` state after ``n``
    sentences is not the one per-word draws leave.  Nothing reads it.
    """
    rng = random.Random(seed)
    if empty_fraction > 0.0:
        # Each sentence's ``rng.random()`` sits between the word draws.
        yield from _sentences_per_word(
            rng, words_per_sentence, empty_fraction, shift_at,
            shift_words_per_sentence,
        )
        return
    # ``choice`` runs ``Random._randbelow``: ``getrandbits(bits)`` until
    # the value is below ``len(_WORDS)``.  For ``bits`` <= 32 that is the
    # top ``bits`` bits of one Mersenne Twister output, and
    # ``getrandbits(32 * k)`` returns ``k`` consecutive outputs, least
    # significant first: those outputs shifted down, less the values too
    # large, are the same accepted indices.
    getrandbits = rng.getrandbits
    bits = len(_WORDS).bit_length()
    pending = np.empty(0, dtype="<u4")
    shifts = shift_at is not None and shift_words_per_sentence is not None
    produced = 0
    while True:
        length = words_per_sentence
        if shifts and produced >= shift_at:
            length = shift_words_per_sentence
        n = max(1, _CHUNK_WORDS // max(1, length))
        if shifts and produced < shift_at:
            n = min(n, shift_at - produced)
        produced += n
        if length <= 0:
            yield from repeat(("",), n)
            continue
        need = n * length
        while len(pending) < need:
            # Enough outputs at the acceptance rate, plus a margin; a
            # short draw goes round again.
            k = ((need - len(pending)) << bits) // len(_WORDS) + 64
            raw = np.frombuffer(
                getrandbits(32 * k).to_bytes(4 * k, "little"), "<u4"
            ) >> (32 - bits)
            pending = np.concatenate((pending, raw[raw < len(_WORDS)]))
        codes = pending[:need].astype(np.intp).reshape(n, length)
        pending = pending[need:]
        # A sentence's last word takes its "\n" token, so one join and
        # one split cut the chunk into its sentences.
        codes[:, -1] += len(_WORDS)
        text = "".join(_TOKENS[codes.ravel()].tolist())
        yield from zip(text.split("\n")[:-1])


def _sentences_per_word(
    rng: random.Random,
    words_per_sentence: int,
    empty_fraction: float,
    shift_at: int | None,
    shift_words_per_sentence: int | None,
) -> Iterator[tuple[str]]:
    """:func:`sentences` with empty ones: each word index drawn with the
    rejection loop ``Random._randbelow`` runs, inline."""
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
        if rng.random() < empty_fraction:
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
    (tests/test_apps_workloads.py pins it against ``randrange``).  Per
    record, each ``randrange(n)`` — ``a + randrange(b - a)`` for
    ``randrange(a, b)`` — is written out as the rejection loop
    ``Random._randbelow`` runs: ``getrandbits(n.bit_length())`` until the
    value is below ``n``.  That draws what ``randrange`` draws, in the
    same order: vid, then speed / xway / lane / direction, or query id /
    day.
    """
    rng = random.Random(seed)
    random_ = rng.random
    getrandbits = rng.getrandbits
    road_length = n_segments * 5280
    half_queries = query_fraction / 2
    time = 0
    positions = {vid: rng.randrange(road_length) for vid in range(n_vehicles)}
    stopped = set(
        rng.sample(range(n_vehicles), max(1, int(n_vehicles * stopped_fraction)))
    )
    vid_bits = n_vehicles.bit_length()
    while True:
        time += 1
        roll = random_()
        vid = getrandbits(vid_bits)
        while vid >= n_vehicles:
            vid = getrandbits(vid_bits)
        if roll < query_fraction:
            query_id = getrandbits(17)  # randrange(1 << 16)
            while query_id >= 1 << 16:
                query_id = getrandbits(17)
            if roll < half_queries:
                yield (
                    ACCOUNT_BALANCE_REQUEST, time, vid, 0, 0, 0, 0, 0, 0,
                    query_id, 0,
                )
            else:
                day = getrandbits(7)  # randrange(1, 70)
                while day >= 69:
                    day = getrandbits(7)
                yield (
                    DAILY_EXPENDITURE_REQUEST, time, vid, 0, 0, 0, 0, 0, 0,
                    query_id, day + 1,
                )
        else:
            if vid in stopped:
                speed = 0
            else:
                speed = getrandbits(6)  # randrange(40, 100)
                while speed >= 60:
                    speed = getrandbits(6)
                speed += 40
                positions[vid] = (positions[vid] + speed) % road_length
            position = positions[vid]
            xway = getrandbits(2)  # randrange(2)
            while xway >= 2:
                xway = getrandbits(2)
            lane = getrandbits(3)  # randrange(4)
            while lane >= 4:
                lane = getrandbits(3)
            direction = getrandbits(2)  # randrange(2)
            while direction >= 2:
                direction = getrandbits(2)
            yield (
                POSITION_REPORT, time, vid, speed, xway, lane, direction,
                position // 5280, position, 0, 0,
            )


def take(iterator: Iterator, n: int) -> list:
    """First ``n`` items of an iterator (test/profiling helper)."""
    return [item for _, item in zip(range(n), iterator)]
