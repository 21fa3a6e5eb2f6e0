"""Data-plane unit tests: binary batch codec and shared-memory rings.

The codec must be *lossless* for every batch it accepts on the columnar
path and must fall back to pickle (never fail, never corrupt) for every
batch it cannot encode — the property tests drive both paths with
generated schemas and adversarial values.
"""

import itertools
import os
import pickle
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.dsps.tuples import StreamTuple
from repro.runtime.dataplane import (
    BatchCodec,
    ShmRing,
    infer_schema,
    shm_available,
    validate_schema,
)
from repro.runtime.dataplane.channels import DATA, MARKER
from repro.runtime.dataplane.codec import FIELD_TYPECODES

EDGE = (0, 1)

#: Auto mode with the observation window shut: every string column
#: promotes on its first batch, low-cardinality losers included.
FIRST_SIGHT = dict(string_dict="auto", dict_min_observed=0, dict_max_ratio=1.0)

_VALUE_STRATEGIES = {
    "q": st.integers(min_value=-(2**63), max_value=2**63 - 1),
    "d": st.floats(allow_nan=False, allow_infinity=False),
    "?": st.booleans(),
    "s": st.text(max_size=40),
    "y": st.binary(max_size=40),
}


def batches(schema_alphabet=FIELD_TYPECODES, max_arity=5, max_rows=30):
    """Strategy: (schema, rows) with rows conforming to the schema."""

    def rows_for(schema):
        row = st.tuples(*(_VALUE_STRATEGIES[c] for c in schema))
        return st.lists(row, min_size=0, max_size=max_rows).map(
            lambda rows: (schema, rows)
        )

    return st.text(
        alphabet=schema_alphabet, min_size=1, max_size=max_arity
    ).flatmap(rows_for)


def make_tuples(rows, stream="default", source_task=3):
    return [
        StreamTuple(
            values=row,
            stream=stream,
            source_task=source_task,
            event_time_ns=float(i),
        )
        for i, row in enumerate(rows)
    ]


def assert_batches_equal(decoded, original):
    assert len(decoded) == len(original)
    for got, want in zip(decoded, original):
        assert got.values == want.values
        assert got.stream == want.stream
        assert got.source_task == want.source_task
        assert got.event_time_ns == want.event_time_ns


class TestSchemaHelpers:
    def test_validate_accepts_known_typecodes(self):
        validate_schema("qd?sy")

    def test_validate_rejects_unknown_typecode(self):
        with pytest.raises(ValueError):
            validate_schema("qx")

    def test_validate_rejects_empty(self):
        with pytest.raises(ValueError):
            validate_schema("")

    def test_infer_schema_exact_types(self):
        assert infer_schema((1, 2.0, True, "a", b"b")) == "qd?sy"

    def test_infer_schema_rejects_unsupported(self):
        assert infer_schema((1, [2])) is None

    def test_bool_is_not_int(self):
        # bool is an int subclass; the codec must keep them distinct.
        assert infer_schema((True,)) == "?"
        assert infer_schema((1,)) == "q"


class TestCodecRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(batches())
    def test_declared_schema_round_trip(self, schema_rows):
        schema, rows = schema_rows
        codec = BatchCodec({EDGE: schema})
        original = make_tuples(rows)
        decoded = codec.decode(codec.encode(EDGE, original))
        assert_batches_equal(decoded, original)
        assert codec.fallback_batches == 0

    @settings(max_examples=100, deadline=None)
    @given(batches())
    def test_inferred_schema_round_trip(self, schema_rows):
        _, rows = schema_rows
        codec = BatchCodec()
        original = make_tuples(rows)
        decoded = codec.decode(codec.encode(EDGE, original))
        assert_batches_equal(decoded, original)

    @settings(max_examples=100, deadline=None)
    @given(st.text())
    def test_unicode_strings_survive(self, text):
        codec = BatchCodec({EDGE: "s"})
        original = make_tuples([(text,)])
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            pass  # surrogates: must still round-trip via the fallback
        decoded = codec.decode(codec.encode(EDGE, original))
        assert_batches_equal(decoded, original)

    def test_empty_batch(self):
        codec = BatchCodec({EDGE: "qq"})
        payload = codec.encode(EDGE, [])
        assert codec.decode(payload) == []

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(), st.none()),
                st.one_of(st.text(max_size=10), st.none()),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_none_bearing_rows_fall_back_losslessly(self, rows):
        codec = BatchCodec({EDGE: "qs"})
        original = make_tuples(rows)
        decoded = codec.decode(codec.encode(EDGE, original))
        assert_batches_equal(decoded, original)
        if any(v is None for row in rows for v in row):
            assert codec.fallback_batches > 0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=50))
    def test_fallback_counted_once_per_batch(self, n_rows):
        # The documented semantics: ``fallback_batches`` (surfaced as
        # runtime.dataplane.codec_fallbacks) counts sealed *batches* that
        # took the pickle path — exactly one increment per encode() call
        # regardless of how many tuples the batch carries.
        codec = BatchCodec({EDGE: "q"})
        original = make_tuples([(None,)] * n_rows)
        decoded = codec.decode(codec.encode(EDGE, original))
        assert_batches_equal(decoded, original)
        assert codec.fallback_batches == 1
        codec.encode(EDGE, original)
        assert codec.fallback_batches == 2

    def test_schema_mismatch_falls_back(self):
        codec = BatchCodec({EDGE: "q"})
        original = make_tuples([("not an int",)])
        decoded = codec.decode(codec.encode(EDGE, original))
        assert_batches_equal(decoded, original)
        assert codec.fallback_batches == 1

    def test_out_of_range_int_falls_back(self):
        codec = BatchCodec({EDGE: "q"})
        original = make_tuples([(2**80,)])
        decoded = codec.decode(codec.encode(EDGE, original))
        assert_batches_equal(decoded, original)
        assert codec.fallback_batches == 1

    def test_ragged_arity_falls_back(self):
        codec = BatchCodec({EDGE: "qq"})
        original = make_tuples([(1, 2), (3,)])
        decoded = codec.decode(codec.encode(EDGE, original))
        assert_batches_equal(decoded, original)

    def test_mixed_streams_fall_back(self):
        codec = BatchCodec({EDGE: "q"})
        original = make_tuples([(1,)], stream="a") + make_tuples(
            [(2,)], stream="b"
        )
        decoded = codec.decode(codec.encode(EDGE, original))
        assert_batches_equal(decoded, original)

    def test_columnar_beats_pickle_on_scalar_batch(self):
        codec = BatchCodec({EDGE: "sq"})
        original = make_tuples([(f"word{i}", i) for i in range(64)])
        payload = codec.encode(EDGE, original)
        assert len(payload) < len(
            pickle.dumps(original, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def test_invalid_declared_schema_rejected(self):
        with pytest.raises(ValueError):
            BatchCodec({EDGE: "zz"})


#: Adversarial string shapes for the dictionary path: empty strings,
#: astral-plane and combining codepoints (multi-byte utf-8, zero-width
#: joiners), and multi-KB outliers that dwarf the page header.
_COMBINING_AND_ASTRAL = "́̈‍\U0001f600\U0001f680\U0001d54a"
_ADVERSARIAL_STRING = st.one_of(
    st.just(""),
    st.text(max_size=20),
    st.text(alphabet=_COMBINING_AND_ASTRAL, min_size=1, max_size=6),
    st.builds(
        lambda char, n: char * n,
        st.sampled_from("xé\U0001f600"),
        st.integers(min_value=1000, max_value=4000),
    ),
)


class TestDictCodec:
    """Dictionary-encoded string path: losslessness, pages, adaptivity.

    A forced-dict encoder and a raw encoder must be observationally
    identical after decode for *any* string column the columnar path
    accepts — including the adversarial shapes above — and every
    adaptivity transition (promote, reject, demote, fallback-recover)
    must leave the codec in a state that still round-trips.
    """

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(_ADVERSARIAL_STRING, min_size=0, max_size=20),
            min_size=1,
            max_size=4,
        )
    )
    def test_dict_path_matches_raw_path(self, word_batches):
        raw = BatchCodec({EDGE: "s"}, string_dict="off")
        encoder = BatchCodec({EDGE: "s"}, **FIRST_SIGHT)
        decoder = BatchCodec({EDGE: "s"})
        for words in word_batches:
            original = make_tuples([(word,) for word in words])
            assert_batches_equal(
                raw.decode(raw.encode(EDGE, original)), original
            )
            assert_batches_equal(
                decoder.decode(encoder.encode(EDGE, original), edge=EDGE),
                original,
            )
        assert raw.fallback_batches == 0
        assert encoder.fallback_batches == 0

    @settings(max_examples=100, deadline=None)
    @given(st.text())
    def test_unicode_survives_dict_mode(self, text):
        # Surrogate-bearing strings cannot utf-8 encode; the dict path
        # must roll back its table additions and the batch must still
        # round-trip via the pickle fallback.
        encoder = BatchCodec({EDGE: "s"}, **FIRST_SIGHT)
        decoder = BatchCodec()
        original = make_tuples([(text,)])
        decoded = decoder.decode(encoder.encode(EDGE, original), edge=EDGE)
        assert_batches_equal(decoded, original)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=20))
    def test_all_none_column_falls_back_then_recovers(self, n_rows):
        encoder = BatchCodec({EDGE: "s"}, **FIRST_SIGHT)
        decoder = BatchCodec()
        nones = make_tuples([(None,)] * n_rows)
        assert_batches_equal(
            decoder.decode(encoder.encode(EDGE, nones), edge=EDGE), nones
        )
        assert encoder.fallback_batches == 1
        # The failed batch must not wedge the column: the next clean
        # batch dict-encodes and decodes against an intact mirror.
        words = make_tuples([("hello",)] * n_rows)
        assert_batches_equal(
            decoder.decode(encoder.encode(EDGE, words), edge=EDGE), words
        )
        assert encoder.fallback_batches == 1

    def test_auto_promotes_exactly_at_observation_floor(self):
        encoder = BatchCodec(
            {EDGE: "s"}, string_dict="auto", dict_min_observed=32
        )
        decoder = BatchCodec()
        original = make_tuples([(f"w{i % 4}",) for i in range(16)])
        first = encoder.encode(EDGE, original)  # observed 16 < 32: raw
        assert encoder.dict_promotions == 0
        second = encoder.encode(EDGE, original)  # observed 32: promote
        assert encoder.dict_promotions == 1
        assert encoder.dict_columns == 1
        assert_batches_equal(decoder.decode(first, edge=EDGE), original)
        assert_batches_equal(decoder.decode(second, edge=EDGE), original)

    def test_auto_rejects_high_cardinality_columns(self):
        encoder = BatchCodec(
            {EDGE: "s"}, string_dict="auto", dict_min_observed=32
        )
        for base in range(4):  # 64 observed, all distinct: never promote
            original = make_tuples(
                [(f"uniq-{base}-{i}",) for i in range(16)]
            )
            encoder.encode(EDGE, original)
        assert encoder.dict_promotions == 0
        assert encoder.dict_columns == 0

    def test_forced_dict_demotes_past_entry_cap(self):
        encoder = BatchCodec(
            {EDGE: "s"}, **FIRST_SIGHT, dict_max_entries=8
        )
        decoder = BatchCodec()
        first = make_tuples([(f"w{i}",) for i in range(8)])
        page_one = encoder.encode(EDGE, first)
        assert encoder.dict_promotions == 1
        assert encoder.dict_demotions == 0
        second = make_tuples([(f"w{i}",) for i in range(8, 20)])
        page_two = encoder.encode(EDGE, second)  # blows the cap: demote
        assert encoder.dict_demotions == 1
        assert encoder.dict_columns == 0
        assert_batches_equal(decoder.decode(page_one, edge=EDGE), first)
        assert_batches_equal(decoder.decode(page_two, edge=EDGE), second)
        assert encoder.fallback_batches == 0

    def test_repeat_batches_ship_empty_pages_and_shrink(self):
        encoder = BatchCodec({EDGE: "s"}, **FIRST_SIGHT)
        original = make_tuples([("alpha",), ("beta",)] * 8)
        first = encoder.encode(EDGE, original)
        pages = encoder.dict_pages
        second = encoder.encode(EDGE, original)
        # All entries shipped with the first batch: the second carries
        # only the 8-byte empty page header plus codes.
        assert len(second) < len(first)
        assert encoder.dict_pages == pages
        # ... which is what dictionaries are for: fewer bytes than the
        # same repetitive batch with every string spelled out.
        raw = BatchCodec({EDGE: "s"}, string_dict="off")
        assert len(second) < len(raw.encode(EDGE, original))

    def test_auto_ships_fewer_bytes_than_off_where_words_repeat(self):
        """The adaptive rule the shm plane always runs, at its default
        thresholds, against raw strings: words that repeat cost fewer
        bytes; all-distinct sentences are rejected and cost the same."""
        rng = random.Random(7)
        vocabulary = [f"word{i}" for i in range(50)]
        words = [
            make_tuples([(rng.choice(vocabulary),) for _ in range(64)])
            for _ in range(20)
        ]
        sentences = [
            make_tuples([(f"sentence {b} {i}",) for i in range(64)])
            for b in range(20)
        ]

        def wire_bytes(mode, batches):
            codec = BatchCodec({EDGE: "s"}, string_dict=mode)
            return sum(len(codec.encode(EDGE, batch)) for batch in batches), codec

        auto, codec = wire_bytes("auto", words)
        assert auto < wire_bytes("off", words)[0]
        assert codec.dict_promotions == 1
        auto, codec = wire_bytes("auto", sentences)
        assert auto == wire_bytes("off", sentences)[0]
        assert codec.dict_pages == 0

    def test_fresh_consumer_detects_page_gap(self):
        encoder = BatchCodec({EDGE: "s"}, **FIRST_SIGHT)
        encoder.encode(EDGE, make_tuples([("alpha",)]))
        stale = encoder.encode(EDGE, make_tuples([("beta",)]))
        fresh = BatchCodec()
        with pytest.raises(ValueError, match="dictionary page gap"):
            fresh.decode(stale, edge=EDGE)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            BatchCodec({EDGE: "s"}, string_dict="zstd")


@pytest.mark.skipif(not shm_available(), reason="no POSIX shared memory")
class TestShmRing:
    def test_write_read_round_trip(self):
        ring = ShmRing.create("rdptest_rt", 256)
        try:
            start = ring.try_write(b"hello")
            assert start is not None
            assert ring.consume(start, 5) == b"hello"
        finally:
            ring.close()
            ring.unlink()

    def test_wraparound(self):
        ring = ShmRing.create("rdptest_wrap", 64)
        try:
            for i in range(10):  # forces several wraps of the 64-byte ring
                payload = bytes([i]) * 40
                start = ring.try_write(payload)
                assert start is not None
                assert ring.consume(start, len(payload)) == payload
        finally:
            ring.close()
            ring.unlink()

    def test_full_ring_refuses_then_accepts_after_drain(self):
        ring = ShmRing.create("rdptest_full", 64)
        try:
            first = ring.try_write(b"a" * 40)
            assert first is not None
            assert ring.try_write(b"b" * 40) is None  # only 24 bytes free
            assert ring.consume(first, 40) == b"a" * 40
            assert ring.try_write(b"b" * 40) is not None
        finally:
            ring.close()
            ring.unlink()

    def test_oversized_payload_never_fits(self):
        ring = ShmRing.create("rdptest_big", 64)
        try:
            assert ring.try_write(b"x" * 65) is None
        finally:
            ring.close()
            ring.unlink()

    def test_attach_sees_writes(self):
        ring = ShmRing.create("rdptest_attach", 128)
        try:
            reader = ShmRing.attach("rdptest_attach")
            start = ring.try_write(b"shared")
            assert reader.consume(start, 6) == b"shared"
            reader.close()
        finally:
            ring.close()
            ring.unlink()


@pytest.fixture
def framed_ring():
    """A 256-byte ring: the producer's mapping and a second, attached one
    the consumer reads through."""
    name = f"rdptest_frames{os.getpid():x}"
    writer = ShmRing.create(name, 256)
    reader = ShmRing.attach(name)
    try:
        yield writer, reader
    finally:
        reader.close()
        writer.close()
        writer.unlink()


@pytest.mark.skipif(not shm_available(), reason="no POSIX shared memory")
class TestFramedRing:
    def test_batches_and_markers_arrive_in_order(self, framed_ring):
        writer, reader = framed_ring
        assert writer.put(DATA, 4, 9, b"batch")
        assert writer.put(MARKER, 4, 9, b"")
        assert writer.in_flight() == reader.in_flight() == (2, 2 * 16 + 5)
        assert reader.take() == (DATA, 4, 9, b"batch")
        assert reader.take() == (MARKER, 4, 9, b"")
        assert reader.take() is None
        assert writer.in_flight() == (0, 0)

    def test_the_frame_bound_refuses_then_admits(self, framed_ring):
        writer, reader = framed_ring
        assert writer.put(DATA, 0, 1, b"a", max_frames=2)
        assert writer.put(DATA, 0, 1, b"b", max_frames=2)
        assert not writer.put(DATA, 0, 1, b"c", max_frames=2)
        assert reader.take()[3] == b"a"
        assert writer.put(DATA, 0, 1, b"c", max_frames=2)

    def test_the_byte_bound_refuses_a_frame_that_fits_the_ring(self, framed_ring):
        writer, reader = framed_ring
        assert writer.put(DATA, 0, 1, b"x" * 150)
        assert not writer.put(DATA, 0, 1, b"y" * 100)  # 90 B free, frame 116
        assert writer.in_flight() == (1, 166)
        reader.take()
        assert writer.put(DATA, 0, 1, b"y" * 100)

    def test_a_message_larger_than_the_ring_goes_in_parts(self, framed_ring):
        writer, reader = framed_ring
        payload = bytes(range(256)) * 4  # four rings' worth
        refused = 0
        while not writer.put(DATA, 2, 3, payload):
            refused += 1
            assert writer.in_flight()[1] > 0  # each refused put wrote a part
            assert reader.take() is None  # ... which the consumer holds
        assert refused >= 4
        assert reader.take() == (DATA, 2, 3, payload)
        assert writer.in_flight() == (0, 0)

    def test_a_part_written_message_is_finished_first(self, framed_ring):
        writer, _reader = framed_ring
        assert not writer.put(DATA, 0, 1, b"z" * 1000)
        with pytest.raises(ValueError, match="partly written"):
            writer.put(MARKER, 0, 1, b"")


_machine_rings = itertools.count()


class FramedRingMachine(RuleBasedStateMachine):
    """The framed ring against a deque of whole messages: data, marker
    and part frames, wrap-around, both bounds, and every read through a
    second mapping of the segment."""

    CAPACITY = 256
    MAX_FRAMES = 4

    def __init__(self):
        super().__init__()
        self.name = f"rdptest_sm{os.getpid():x}_{next(_machine_rings)}"
        self.writer = ShmRing.create(self.name, self.CAPACITY)
        self.reader = ShmRing.attach(self.name)
        self.model = deque()
        #: A message the writer has only partly written (parts).
        self.pending = None

    @rule(
        marker=st.booleans(),
        producer=st.integers(0, 2**32 - 1),
        consumer=st.integers(0, 2**32 - 1),
        payload=st.one_of(
            st.binary(max_size=80), st.binary(min_size=200, max_size=700)
        ),
    )
    def put(self, marker, producer, consumer, payload):
        message = self.pending or (
            (MARKER, producer, consumer, b"")
            if marker
            else (DATA, producer, consumer, payload)
        )
        if self.writer.put(*message, max_frames=self.MAX_FRAMES):
            self.model.append(message)
            self.pending = None
            return
        # Refused only at a bound: the frame count, or too few free bytes
        # for the whole frame (a part needs more than a frame header).
        frames, used = self.writer.in_flight()
        free = self.CAPACITY - used
        whole = 16 + len(message[3]) <= self.CAPACITY
        assert frames == self.MAX_FRAMES or (
            free < 16 + len(message[3]) if whole else free <= 16
        )
        self.pending = None if whole else message

    @rule()
    def take(self):
        got = self.reader.take()
        assert got == (self.model.popleft() if self.model else None)

    @rule()
    def drain_then_finish(self):
        """A part-written message completes once the consumer keeps up."""
        for _ in range(64):
            while (got := self.reader.take()) is not None:
                assert got == self.model.popleft()
            if self.pending is None:
                return
            if self.writer.put(*self.pending, max_frames=self.MAX_FRAMES):
                self.model.append(self.pending)
                self.pending = None
        raise AssertionError("a part-written message never completed")

    @invariant()
    def within_bounds(self):
        frames, used = self.writer.in_flight()
        assert (frames, used) == self.reader.in_flight()
        assert 0 <= frames <= self.MAX_FRAMES
        assert 0 <= used <= self.CAPACITY

    def teardown(self):
        self.reader.close()
        self.writer.close()
        self.writer.unlink()


TestFramedRingMachine = pytest.mark.skipif(
    not shm_available(), reason="no POSIX shared memory"
)(FramedRingMachine.TestCase)
TestFramedRingMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
