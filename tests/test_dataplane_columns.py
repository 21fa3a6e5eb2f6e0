"""Unit tests for the columnar batch layer (docs/vectorized.md).

Covers the zero-copy/copy contract — wire-decoded batches are read-only
views over the payload bytes, tuple-built batches are writable copies —
plus schema negotiation, scalar interop fidelity and the accounting
helpers the executors rely on.
"""

import multiprocessing
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsps.tuples import StreamTuple
from repro.runtime.dataplane import (
    BatchCodec,
    ColumnBatch,
    DictColumn,
    StringTable,
    create_dataplane,
    schema_accepts,
    shm_available,
)
from repro.runtime.dataplane.columns import (
    COLUMN_DTYPES,
    _FIXED_PAYLOAD_BYTES,
    schema_dtypes,
    take,
    validate_schema,
)

EDGE = (0, 1)


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


MIXED_ROWS = [(i, float(i) / 3, i % 2 == 0, f"w{i}", bytes([i])) for i in range(16)]


class TestFromTuples:
    def test_round_trip_preserves_values_and_types(self):
        original = make_tuples(MIXED_ROWS)
        batch = ColumnBatch.from_tuples(original)
        assert batch is not None
        assert batch.schema == "qd?sy"
        assert len(batch) == len(original)
        for got, want in zip(batch.to_tuples(), original):
            assert got.values == want.values
            assert tuple(type(v) for v in got.values) == tuple(
                type(v) for v in want.values
            )
            assert got.event_time_ns == want.event_time_ns

    def test_columns_are_writable_copies(self):
        original = make_tuples([(1,), (2,), (3,)])
        batch = ColumnBatch.from_tuples(original)
        batch.columns[0][0] = 99  # must not raise, must not alias inputs
        assert original[0].values == (1,)

    def test_empty_batch_declines(self):
        assert ColumnBatch.from_tuples([]) is None

    def test_zero_arity_rows_keep_their_count(self):
        """No field column to measure: the event times carry the count,
        through the transpose, the wire and back."""
        original = make_tuples([(), (), ()])
        assert len(ColumnBatch.from_tuples(original)) == 3
        codec = BatchCodec()
        payload = codec.encode(EDGE, original)
        assert len(codec.decode_columns(payload, EDGE)) == 3
        assert codec.decode(payload, EDGE) == original
        assert codec.fallback_batches == 0

    def test_mixed_stream_declines(self):
        tuples = make_tuples([(1,)], stream="a") + make_tuples(
            [(2,)], stream="b"
        )
        assert ColumnBatch.from_tuples(tuples) is None

    def test_mixed_source_declines(self):
        tuples = make_tuples([(1,)], source_task=1) + make_tuples(
            [(2,)], source_task=2
        )
        assert ColumnBatch.from_tuples(tuples) is None

    def test_ragged_arity_declines(self):
        assert ColumnBatch.from_tuples(make_tuples([(1, 2), (3,)])) is None

    def test_bool_in_int_column_declines(self):
        # bool is an int subclass; silent coercion would change types.
        assert ColumnBatch.from_tuples(make_tuples([(1,), (True,)])) is None

    def test_out_of_range_int_declines(self):
        assert ColumnBatch.from_tuples(make_tuples([(2**80,)])) is None

    def test_unsupported_value_declines(self):
        assert ColumnBatch.from_tuples(make_tuples([({"k": 1},)])) is None

    def test_from_tuples_bursts_back_to_original_list(self):
        original = make_tuples([(1,), (2,)])
        batch = ColumnBatch.from_tuples(original)
        assert batch.to_tuples() is not None
        assert batch.to_tuples()[0] is original[0]


class TestWireZeroCopy:
    def test_decode_columns_views_share_payload_memory(self):
        codec = BatchCodec({EDGE: "qd?"})
        original = make_tuples(
            [(i, float(i), i % 2 == 0) for i in range(32)]
        )
        payload = codec.encode_columns(EDGE, ColumnBatch.from_tuples(original))
        batch = codec.decode_columns(payload)
        assert batch is not None
        wire = np.frombuffer(payload, dtype=np.uint8)
        for code, column in zip(batch.schema, batch.columns):
            assert column.dtype == np.dtype(COLUMN_DTYPES[code])
            assert np.shares_memory(column, wire)
        assert np.shares_memory(batch.event_times, wire)

    def test_decode_columns_views_are_read_only(self):
        codec = BatchCodec({EDGE: "q"})
        payload = codec.encode_columns(
            EDGE, ColumnBatch.from_tuples(make_tuples([(1,), (2,)]))
        )
        batch = codec.decode_columns(payload)
        with pytest.raises(ValueError):
            batch.columns[0][0] = 99

    def test_encode_columns_bytes_match_scalar_encode(self):
        codec_a = BatchCodec({EDGE: "qd?sy"})
        codec_b = BatchCodec({EDGE: "qd?sy"})
        original = make_tuples(MIXED_ROWS)
        scalar = codec_a.encode(EDGE, original)
        columnar = codec_b.encode_columns(
            EDGE, ColumnBatch.from_tuples(original)
        )
        assert scalar == columnar

    def test_decode_columns_refuses_pickle_payload(self):
        codec = BatchCodec({EDGE: "q"})
        payload = codec.encode(EDGE, make_tuples([(None,)]))  # pickled
        assert codec.decode_columns(payload) is None
        assert codec.decode(payload)[0].values == (None,)

    def test_wire_round_trip_is_lossless(self):
        codec = BatchCodec({EDGE: "qd?sy"})
        original = make_tuples(MIXED_ROWS)
        payload = codec.encode_columns(EDGE, ColumnBatch.from_tuples(original))
        for got, want in zip(
            codec.decode_columns(payload).to_tuples(), original
        ):
            assert got.values == want.values
            assert tuple(type(v) for v in got.values) == tuple(
                type(v) for v in want.values
            )
            assert got.event_time_ns == want.event_time_ns


class TestBuildAndLineage:
    def test_build_canonicalizes_dtypes(self):
        batch = ColumnBatch.build("s1", "qd", [[1, 2], [0.5, 1.5]])
        assert batch.columns[0].dtype == np.dtype("<i8")
        assert batch.columns[1].dtype == np.dtype("<f8")

    def test_build_keeps_canonical_columns_and_recasts_the_rest(self):
        ints = np.array([1, 2], dtype="<i8")
        narrow = np.array([1, 2], dtype="<i4")
        words = ["a", "b"]
        batch = ColumnBatch.build("s1", "qqs", [ints, narrow, words])
        assert batch.columns[0] is ints
        assert batch.columns[1] is not narrow
        assert batch.columns[1].dtype == np.dtype("<i8")
        assert batch.columns[2] is words

    @pytest.mark.parametrize("schema", ("qx", "", "D?z"))
    def test_a_bad_schema_raises_every_time(self, schema):
        # validate_schema is memoized per string; a raise is not.
        for _ in range(3):
            with pytest.raises(ValueError):
                ColumnBatch.build("s1", schema, [[1]] * len(schema))
            with pytest.raises(ValueError):
                validate_schema(schema, allow_dict=True)
        validate_schema("qD", allow_dict=True)
        with pytest.raises(ValueError):
            validate_schema("qD")  # the memo keys on allow_dict too

    def test_build_rejects_ragged_columns(self):
        with pytest.raises(ValueError):
            ColumnBatch.build("s1", "qq", [[1, 2], [3]])

    def test_build_rejects_wrong_column_count(self):
        with pytest.raises(ValueError):
            ColumnBatch.build("s1", "qq", [[1, 2]])

    def test_build_rejects_bad_index_length(self):
        with pytest.raises(ValueError):
            ColumnBatch.build("s1", "q", [[1, 2]], index=[0])

    def test_stamp_from_propagates_times_through_index(self):
        parent = ColumnBatch.from_tuples(make_tuples([(1,), (2,), (3,)]))
        out = ColumnBatch.build("s1", "q", [[20, 10]], index=[1, 0])
        out.stamp_from(parent, source_task=7)
        assert out.source_task == 7
        assert out.event_times.tolist() == [1.0, 0.0]
        burst = out.to_tuples()
        assert [t.event_time_ns for t in burst] == [1.0, 0.0]
        assert all(t.source_task == 7 for t in burst)

    def test_stamp_from_identity_requires_matching_length(self):
        parent = ColumnBatch.from_tuples(make_tuples([(1,), (2,)]))
        out = ColumnBatch.build("s1", "q", [[1, 2, 3]])  # no index, 3 != 2
        with pytest.raises(ValueError):
            out.stamp_from(parent, source_task=7)


class TestFromRows:
    """The half of the acceptance rule a spout's events go through:
    value tuples that never were ``StreamTuple`` rows."""

    def test_equals_from_tuples_on_the_same_rows(self):
        tuples = make_tuples(MIXED_ROWS)
        batch = ColumnBatch.from_rows(
            MIXED_ROWS, "default", 3, np.arange(len(MIXED_ROWS), dtype="<f8")
        )
        assert same_batch(batch, ColumnBatch.from_tuples(tuples))
        assert batch.to_tuples() == tuples

    @pytest.mark.parametrize(
        "rows",
        (
            [],
            [(1, "a"), (2,)],  # ragged
            [(1,), (True,)],  # bool in an int column
            [(1,), (1 << 70,)],  # past int64
            [(None,)],
            [([1],)],
        ),
    )
    def test_declines_what_from_tuples_declines(self, rows):
        times = np.arange(len(rows), dtype="<f8")
        assert ColumnBatch.from_rows(rows, "default", 3, times) is None
        assert ColumnBatch.from_tuples(make_tuples(rows)) is None

    @pytest.mark.parametrize("schema", (None, "qs"))
    @pytest.mark.parametrize("ragged", ((1,), (1, "a", 2), ()))
    @pytest.mark.parametrize("position", (0, 2, 4))
    def test_declines_a_ragged_row_anywhere(self, position, ragged, schema):
        rows = [(i, "a") for i in range(5)]
        rows[position] = ragged
        times = np.arange(len(rows), dtype="<f8")
        assert ColumnBatch.from_rows(rows, "default", 3, times, schema) is None

    def test_declared_schema_is_checked_not_trusted(self):
        times = np.zeros(2)
        assert ColumnBatch.from_rows([(1,), (2,)], "default", 3, times, "q")
        assert ColumnBatch.from_rows([(1,), (2,)], "default", 3, times, "d") is None
        assert ColumnBatch.from_rows([("a",)], "default", 3, times[:1], "D") is None


def same_batch(left, right) -> bool:
    """Equal rows, event times, metadata and column representation."""
    return (
        (left.stream, left.source_task, left.schema)
        == (right.stream, right.source_task, right.schema)
        and np.array_equal(left.event_times, right.event_times)
        and [type(c) for c in left.columns] == [type(c) for c in right.columns]
        and all(
            getattr(a, "dtype", None) == getattr(b, "dtype", None)
            and (a.table is b.table if isinstance(a, DictColumn) else True)
            for a, b in zip(left.columns, right.columns)
        )
        and left.to_tuples() == right.to_tuples()
    )


_WORDS = ["", "a", "bb", "ccc", "dddd"]
_ROW = st.tuples(
    st.integers(-(1 << 63), (1 << 63) - 1),
    st.floats(allow_nan=False),
    st.booleans(),
    st.text(max_size=4),
    st.binary(max_size=4),
    st.integers(0, len(_WORDS) - 1),
)


def typed_batch(rows, table=_WORDS, stream="s1", source=5):
    """One column per typecode, "D" included, stamped like a routed
    kernel output."""
    columns = [list(c) for c in zip(*rows)]
    columns[5] = DictColumn(columns[5], table)
    batch = ColumnBatch.build(stream, "qd?syD", columns)
    batch.source_task = source
    batch.event_times = np.arange(len(rows), dtype="<f8")
    return batch


class TestConcat:
    """``concat`` is the inverse of ``chunks``, and ``joins`` says which
    neighbours it may be asked to merge (the rule consumers coalesce
    queued batches by)."""

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(_ROW, min_size=1, max_size=40), k=st.integers(1, 45))
    def test_concat_of_chunks_is_the_batch(self, rows, k):
        batch = typed_batch(rows)
        chunks = list(batch.chunks(k))
        assert all(chunks[0].joins(chunk) for chunk in chunks)
        merged = ColumnBatch.concat(chunks)
        assert same_batch(merged, batch)
        assert merged.payload_bytes() == batch.payload_bytes()
        assert merged.index is None

    def test_zero_arity_rows_keep_their_count(self):
        batch = ColumnBatch.from_tuples(make_tuples([(), (), ()]))
        merged = ColumnBatch.concat(list(batch.chunks(2)))
        assert len(merged) == 3 and merged.to_tuples() == batch.to_tuples()

    def test_joins_refuses_what_must_not_mix(self):
        rows = [(1, 0.5, True, "x", b"y", 2)] * 3
        head = typed_batch(rows)
        assert head.joins(typed_batch(rows))
        assert not head.joins(typed_batch(rows, stream="s2"))
        assert not head.joins(typed_batch(rows, source=6))
        # Equal strings, another table object: codes of two tables do
        # not mix (a restarted kernel starts a fresh vocabulary).
        assert not head.joins(typed_batch(rows, table=list(_WORDS)))
        other_schema = ColumnBatch.from_tuples(make_tuples([(1,)], "s1", 5))
        assert not head.joins(other_schema)
        unstamped = typed_batch(rows)
        unstamped.event_times = None
        assert not head.joins(unstamped) and not unstamped.joins(head)
        assert not head.joins(head.to_tuples())  # a row batch


class TestStringTable:
    def test_lengths_extend_only_when_the_table_grew(self):
        table = StringTable(["a", "bb"])
        first = table.lengths()
        assert first.tolist() == [1, 2]
        assert table.lengths() is first  # nothing new: nothing measured
        table.append("cccc")
        assert table.lengths().tolist() == [1, 2, 4]

    def test_char_total_is_the_same_over_either_table(self):
        codes = [0, 2, 2, 1]
        plain = DictColumn(codes, ["a", "bb", "cccc"])
        kept = DictColumn(codes, StringTable(["a", "bb", "cccc"]))
        assert plain.char_total() == kept.char_total() == 11
        kept.table.append("eeeee")
        assert DictColumn([3, 0], kept.table).char_total() == 6


class TestChunksAndAccounting:
    def test_chunks_are_views_covering_all_rows(self):
        batch = ColumnBatch.from_tuples(
            make_tuples([(i, f"w{i}") for i in range(10)])
        )
        chunks = list(batch.chunks(4))
        assert [len(c) for c in chunks] == [4, 4, 2]
        assert np.shares_memory(chunks[0].columns[0], batch.columns[0])
        rebuilt = [v for c in chunks for v in c.columns[0].tolist()]
        assert rebuilt == batch.columns[0].tolist()

    def test_small_batch_chunks_to_itself(self):
        batch = ColumnBatch.from_tuples(make_tuples([(1,)]))
        assert list(batch.chunks(64)) == [batch]

    def test_payload_bytes_matches_per_tuple_accounting(self):
        original = make_tuples(MIXED_ROWS)
        batch = ColumnBatch.from_tuples(original)
        assert batch.payload_bytes() == sum(
            t.payload_size_bytes for t in original
        )

    def test_fixed_payload_constants_match_tuples_module(self):
        # _FIXED_PAYLOAD_BYTES mirrors repro.dsps.tuples sizing; if the
        # tuple-size model changes, the columnar mirror must follow.
        probes = {"q": (123,), "d": (1.5,), "?": (True,)}
        for code, values in probes.items():
            (tup,) = make_tuples([values])
            assert _FIXED_PAYLOAD_BYTES[code] == tup.payload_size_bytes, code
        (s_tup,) = make_tuples([("abc",)])
        assert 40 + 2 * 3 == s_tup.payload_size_bytes
        (y_tup,) = make_tuples([(b"abc",)])
        assert 33 + 3 == y_tup.payload_size_bytes


class TestDictColumn:
    """The dictionary-encoded string column view (docs/vectorized.md)."""

    WORDS = ["alpha", "beta", "alpha", "gamma", "beta", "alpha"]

    def make(self):
        table = sorted(set(self.WORDS))
        codes = np.asarray(
            [table.index(w) for w in self.WORDS], dtype="<i4"
        )
        return DictColumn(codes, table)

    def test_list_like_protocol(self):
        column = self.make()
        assert len(column) == 6
        assert column[0] == "alpha"
        assert column[-1] == "alpha"
        assert list(column) == self.WORDS
        assert column.tolist() == self.WORDS
        assert column.as_strings() == self.WORDS

    def test_slice_and_fancy_index_stay_encoded(self):
        column = self.make()
        sliced = column[1:4]
        assert isinstance(sliced, DictColumn)
        assert sliced.table is column.table
        assert sliced.tolist() == self.WORDS[1:4]
        picked = column[[4, 0]]
        assert isinstance(picked, DictColumn)
        assert picked.tolist() == ["beta", "alpha"]

    def test_take_helper_preserves_encoding(self):
        got = take(self.make(), [2, 5])
        assert isinstance(got, DictColumn)
        assert got.tolist() == ["alpha", "alpha"]

    def test_build_upgrades_s_to_dict_schema(self):
        batch = ColumnBatch.build("s1", "s", [self.make()])
        assert batch.schema == "D"
        assert isinstance(batch.columns[0], DictColumn)

    def test_build_rejects_plain_column_for_dict_schema(self):
        with pytest.raises(ValueError, match="not DictColumn"):
            ColumnBatch.build("s1", "D", [["alpha", "beta"]])

    def test_to_tuples_materializes_strings(self):
        batch = ColumnBatch.build("s1", "s", [self.make()])
        assert [t.values[0] for t in batch.to_tuples()] == self.WORDS

    def test_payload_bytes_counts_strings_not_codes(self):
        # Logical tuple accounting is encoding-independent: a coded
        # column charges the same bytes as its materialized strings.
        coded = ColumnBatch.build("s1", "s", [self.make()])
        plain = ColumnBatch.build("s1", "s", [list(self.WORDS)])
        assert coded.payload_bytes() == plain.payload_bytes()

    def test_pickle_decays_to_plain_strings(self):
        batch = ColumnBatch.build("s1", "s", [self.make()])
        clone = pickle.loads(pickle.dumps(batch))
        assert clone.schema == "s"
        assert not isinstance(clone.columns[0], DictColumn)
        assert list(clone.columns[0]) == self.WORDS

    def test_wire_round_trip_shares_code_memory(self):
        codec = BatchCodec({EDGE: "s"}, string_dict="auto")
        batch = ColumnBatch.build("default", "s", [self.make()])
        batch.stamp_from(
            ColumnBatch.from_tuples(
                make_tuples([(w,) for w in self.WORDS])
            ),
            source_task=3,
        )
        payload = codec.encode_columns(EDGE, batch)
        decoded = codec.decode_columns(payload, edge=EDGE)
        assert decoded.schema == "D"
        column = decoded.columns[0]
        assert isinstance(column, DictColumn)
        assert column.tolist() == self.WORDS
        wire = np.frombuffer(payload, dtype=np.uint8)
        assert np.shares_memory(column.codes, wire)

    def test_schema_accepts_dict_for_string_kernels(self):
        assert schema_accepts(("sq",), "Dq")
        assert schema_accepts(("s",), "D")
        assert schema_accepts(None, "D")
        assert not schema_accepts(("qd",), "Dq")


class TestHelpers:
    def test_schema_dtypes_negotiation(self):
        assert schema_dtypes("qd?sy") == ("<i8", "<f8", "|b1", None, None)

    def test_take_on_lists_and_arrays(self):
        assert take(["a", "b", "c"], [2, 0]) == ["c", "a"]
        got = take(np.array([1, 2, 3]), [2, 0])
        assert got.tolist() == [3, 1]

    def test_pickle_round_trip_drops_tuple_cache(self):
        batch = ColumnBatch.from_tuples(make_tuples([(1, "a"), (2, "b")]))
        clone = pickle.loads(pickle.dumps(batch))
        assert clone._tuples is None
        assert [t.values for t in clone.to_tuples()] == [
            t.values for t in batch.to_tuples()
        ]
        assert clone.stream == batch.stream
        assert clone.source_task == batch.source_task


def _kernel_dict_batch():
    words = DictColumn([0, 1, 2, 2, 1, 0], ["a", "bb", "ccc"])
    return ColumnBatch(
        "default", 3, "Dq", np.arange(6, dtype="<f8"), [words, np.arange(6)]
    )


#: name -> (payload factory, the codec takes it columnar)
CHANNEL_PAYLOADS = {
    "rows": (lambda: make_tuples(MIXED_ROWS), True),
    "batch": (lambda: ColumnBatch.from_tuples(make_tuples(MIXED_ROWS)), True),
    "none_field": (lambda: make_tuples([(1, None), (2, "x")]), False),
    "kernel_dict": (_kernel_dict_batch, True),
    "empty": (list, True),
}


def receive(endpoint, timeout_s=5.0):
    """The next message for ``endpoint``: the pickle plane's inbox hands
    a put over through a feeder thread, so it may take a moment."""
    deadline = time.monotonic() + timeout_s
    while (message := endpoint.try_get()) is None:
        assert time.monotonic() < deadline, "nothing arrived"
        time.sleep(0.001)
    return message


class TestChannelContract:
    """``ChannelEndpoint``: one ``pack`` taking either payload shape, one
    ``unpack(message, columns=...)``, with ``try_put`` / ``try_get`` in
    between — on both planes."""

    @pytest.fixture(
        params=[
            "pickle",
            pytest.param(
                "shm",
                marks=pytest.mark.skipif(
                    not shm_available(), reason="no POSIX shared memory"
                ),
            ),
        ]
    )
    def endpoints(self, request):
        plane = create_dataplane(
            request.param, multiprocessing.get_context(), 2
        )
        sender, receiver = plane.endpoint(0), plane.endpoint(1)
        try:
            sender.connect()
            receiver.connect()
            yield sender, receiver
        finally:
            sender.close()
            receiver.close()
            plane.close()

    @pytest.mark.parametrize("columns", [False, True], ids=["rows", "columns"])
    @pytest.mark.parametrize("kind", CHANNEL_PAYLOADS)
    def test_round_trip(self, endpoints, kind, columns):
        sender, receiver = endpoints
        make, columnar = CHANNEL_PAYLOADS[kind]
        payload = make()
        want = (
            payload.to_tuples() if isinstance(payload, ColumnBatch) else payload
        )
        message = sender.pack(1, 4, 9, payload)
        assert sender.try_put(1, message)
        message = receive(receiver)
        assert receiver.try_get() is None
        assert receiver.peek_consumer(message) == 9
        producer, consumer, got = receiver.unpack(message, columns=columns)
        assert (producer, consumer) == (4, 9)
        # Which shapes can come back columnar: whatever the codec encoded
        # as columns with rows in it (shm), a shipped ColumnBatch (pickle).
        # Everything else — a fallback payload above all — is rows.
        if sender.plane == "shm":
            stays_columnar = columnar and len(want) > 0
        else:
            stays_columnar = isinstance(payload, ColumnBatch)
        if columns and stays_columnar:
            assert isinstance(got, ColumnBatch)
            got = got.to_tuples()
        assert isinstance(got, list)
        assert got == want
        assert [tuple(map(type, t.values)) for t in got] == [
            tuple(map(type, t.values)) for t in want
        ]
        metrics = sender.snapshot_metrics()
        assert metrics["remote_batches_out"] == 1
        if sender.plane == "shm":
            assert metrics["codec_fallbacks"] == (0 if columnar else 1)
            assert metrics["bytes_inline"] > 0 and "bytes_oob" not in metrics
        else:
            assert "codec_fallbacks" not in metrics
            assert metrics["pickled_bytes_out"] == len(message[3])

    def test_markers_keep_their_place_behind_batches(self, endpoints):
        sender, receiver = endpoints
        sender.try_put(1, sender.pack(1, 4, 9, make_tuples(MIXED_ROWS)))
        sender.try_put(1, ("eof", 4, 9))
        first, marker = receive(receiver), receive(receiver)
        assert first[0] == "batch" and receiver.unpack(first)[:2] == (4, 9)
        assert marker[:3] == ("eof", 4, 9)
        assert receiver.try_get() is None
