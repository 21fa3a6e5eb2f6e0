"""Unit tests for the synthetic workload generators."""

import random
from collections import Counter
from dataclasses import dataclass
from itertools import count, cycle, islice

import pytest

from repro.apps import linear_road_records, sensor_readings, sentences, take, transactions
from repro.apps.workloads import (
    ACCOUNT_BALANCE_REQUEST,
    DAILY_EXPENDITURE_REQUEST,
    POSITION_REPORT,
    _CHUNK_WORDS,
    _WORDS,
)


class TestSentences:
    def test_word_count_per_sentence(self):
        for (sentence,) in take(sentences(seed=1), 50):
            assert len(sentence.split()) == 10

    def test_deterministic_by_seed(self):
        assert take(sentences(seed=5), 20) == take(sentences(seed=5), 20)
        assert take(sentences(seed=5), 20) != take(sentences(seed=6), 20)

    def test_empty_fraction(self):
        items = take(sentences(seed=2, empty_fraction=0.5), 400)
        empties = sum(1 for (s,) in items if not s)
        assert 120 < empties < 280

    def test_custom_length(self):
        for (sentence,) in take(sentences(seed=1, words_per_sentence=3), 10):
            assert len(sentence.split()) == 3


    @pytest.mark.parametrize(
        "options",
        (
            {},
            {"empty_fraction": 0.25},
            {"shift_at": 4000, "shift_words_per_sentence": 3},
            {"words_per_sentence": 0},
            {"words_per_sentence": 1},
            {"words_per_sentence": 3},
            {"shift_at": 1234, "shift_words_per_sentence": 0},
            {"words_per_sentence": 0, "shift_at": 50, "shift_words_per_sentence": 10},
            {"empty_fraction": 0.25, "words_per_sentence": 1},
        ),
        ids=(
            "plain", "empty_fraction", "shift_at", "words_0", "words_1",
            "words_3", "shift_to_0", "shift_from_0", "empty_fraction_words_1",
        ),
    )
    def test_stream_is_the_one_random_choice_draws(self, options):
        """Word indices are drawn in bulk (or, with empty sentences, with
        ``Random``'s own rejection loop inline); the stream must stay the
        one the public ``choice`` gives, sentence for sentence, however
        the reads cut it."""

        def with_choice(
            seed, words_per_sentence=10, empty_fraction=0.0, shift_at=None,
            shift_words_per_sentence=None,
        ):
            rng = random.Random(seed)
            for produced in count():
                length = words_per_sentence
                if shift_at is not None and produced >= shift_at:
                    length = shift_words_per_sentence
                if empty_fraction > 0.0 and rng.random() < empty_fraction:
                    yield ("",)
                else:
                    yield (" ".join(rng.choice(_WORDS) for _ in range(length)),)

        for seed in (7, 11):
            want = take(with_choice(seed, **options), 10_000)
            assert take(sentences(seed=seed, **options), 10_000) == want
            # Reads of every size, straddling the bulk chunk's boundaries.
            stream = sentences(seed=seed, **options)
            got = []
            for size in cycle((1, 409, 410, _CHUNK_WORDS + 1, 3, 0, 2047)):
                got.extend(islice(stream, min(size, 10_000 - len(got))))
                if len(got) == 10_000:
                    break
            assert got == want


class TestTransactions:
    def test_record_shape(self):
        for entity, trace in take(transactions(seed=1), 20):
            assert entity.startswith("acc_")
            assert len(trace.split(",")) == 5

    def test_fraud_fraction_visible(self):
        records = take(transactions(seed=3, fraud_fraction=0.5), 400)
        suspicious = sum(1 for _, trace in records if "max" in trace or trace.count("high") >= 3)
        assert suspicious > 100


class TestSensorReadings:
    def test_record_shape(self):
        for device, value, timestamp in take(sensor_readings(seed=1), 20):
            assert device.startswith("dev_")
            assert isinstance(value, float)
            assert timestamp > 0

    def test_timestamps_monotone(self):
        stamps = [t for _, _, t in take(sensor_readings(seed=1), 100)]
        assert stamps == sorted(stamps)

    def test_device_pool_respected(self):
        devices = {d for d, _, _ in take(sensor_readings(seed=1, n_devices=4), 200)}
        assert len(devices) <= 4


class TestLinearRoadRecords:
    def test_type_mix_matches_table8(self):
        records = take(linear_road_records(seed=1), 5000)
        kinds = Counter(r[0] for r in records)
        assert kinds[POSITION_REPORT] / len(records) > 0.97
        assert kinds[ACCOUNT_BALANCE_REQUEST] > 0
        assert kinds[DAILY_EXPENDITURE_REQUEST] > 0

    def test_position_reports_have_valid_fields(self):
        for record in take(linear_road_records(seed=2), 500):
            if record[0] != POSITION_REPORT:
                continue
            _, time, vid, speed, xway, lane, direction, segment, position, _, _ = record
            assert 0 <= speed < 100
            assert segment == position // 5280
            assert direction in (0, 1)

    def test_some_vehicles_are_stopped(self):
        records = take(linear_road_records(seed=3, stopped_fraction=0.05), 3000)
        stopped = [r for r in records if r[0] == POSITION_REPORT and r[3] == 0]
        assert stopped

    def test_deterministic(self):
        a = take(linear_road_records(seed=9), 100)
        b = take(linear_road_records(seed=9), 100)
        assert a == b

    @pytest.mark.parametrize(
        "options, records",
        (
            ({}, 100_000),
            ({"stopped_fraction": 0.05}, 20_000),
            ({"query_fraction": 0.2}, 20_000),
            ({"n_vehicles": 500, "query_fraction": 0.2}, 100_000),
        ),
        ids=("defaults", "stopped_fraction", "query_fraction", "small_fleet"),
    )
    def test_stream_is_the_one_the_record_dataclass_built(self, options, records):
        """The generator builds each record's tuple in place and writes
        each ``randrange`` out as ``Random._randbelow``'s rejection loop;
        the stream must stay the one ``randrange`` calls produced through
        a frozen 11-field record dataclass, value for value and type for
        type (``reference.json`` of the benchmark rests on it)."""

        @dataclass(frozen=True)
        class Record:
            record_type: int
            time: int
            vid: int
            speed: int
            xway: int
            lane: int
            direction: int
            segment: int
            position: int
            query_id: int = 0
            day: int = 0

            def as_values(self):
                return (
                    self.record_type, self.time, self.vid, self.speed,
                    self.xway, self.lane, self.direction, self.segment,
                    self.position, self.query_id, self.day,
                )

        def with_dataclass(
            seed, n_vehicles=2000, n_segments=100, query_fraction=0.01,
            stopped_fraction=0.003,
        ):
            rng = random.Random(seed)
            time = 0
            positions = {
                vid: rng.randrange(n_segments * 5280) for vid in range(n_vehicles)
            }
            stopped = set(
                rng.sample(
                    range(n_vehicles), max(1, int(n_vehicles * stopped_fraction))
                )
            )
            while True:
                time += 1
                roll = rng.random()
                vid = rng.randrange(n_vehicles)
                if roll < query_fraction / 2:
                    yield Record(
                        record_type=ACCOUNT_BALANCE_REQUEST, time=time, vid=vid,
                        speed=0, xway=0, lane=0, direction=0, segment=0,
                        position=0, query_id=rng.randrange(1 << 16),
                    ).as_values()
                elif roll < query_fraction:
                    yield Record(
                        record_type=DAILY_EXPENDITURE_REQUEST, time=time,
                        vid=vid, speed=0, xway=0, lane=0, direction=0,
                        segment=0, position=0,
                        query_id=rng.randrange(1 << 16),
                        day=rng.randrange(1, 70),
                    ).as_values()
                else:
                    if vid in stopped:
                        speed = 0
                    else:
                        speed = rng.randrange(40, 100)
                        positions[vid] = (positions[vid] + speed) % (
                            n_segments * 5280
                        )
                    position = positions[vid]
                    yield Record(
                        record_type=POSITION_REPORT, time=time, vid=vid,
                        speed=speed, xway=rng.randrange(2),
                        lane=rng.randrange(4), direction=rng.randrange(2),
                        segment=position // 5280, position=position,
                    ).as_values()

        def typed(records):
            return [tuple(map(type, record)) for record in records]

        for seed in (7, 11, 17, 31):
            got = take(linear_road_records(seed=seed, **options), records)
            want = take(with_dataclass(seed, **options), records)
            assert got == want
            assert typed(got) == typed(want)
