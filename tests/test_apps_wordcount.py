"""Functional tests for the Word Count application."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_wordcount
from repro.apps.wordcount import Counter, Parser, Splitter
from repro.apps.workloads import sentences
from repro.dsps import LocalEngine, StreamTuple
from repro.dsps.tuples import DEFAULT_STREAM
from repro.runtime.dataplane.columns import ColumnBatch, DictColumn, StringTable


class TestOperators:
    def test_parser_drops_empty(self):
        parser = Parser()
        assert list(parser.process(StreamTuple(values=("",)))) == []
        assert list(parser.process(StreamTuple(values=("a b",)))) == [
            ("default", ("a b",))
        ]

    def test_splitter_emits_each_word(self):
        splitter = Splitter()
        out = list(splitter.process(StreamTuple(values=("a boy and a girl",))))
        assert [v[0] for _, v in out] == ["a", "boy", "and", "a", "girl"]

    def test_counter_tracks_occurrences(self):
        counter = Counter()
        first = list(counter.process(StreamTuple(values=("a",))))
        second = list(counter.process(StreamTuple(values=("a",))))
        assert first == [("default", ("a", 1))]
        assert second == [("default", ("a", 2))]


class TestParserKernel:
    """``Parser.process_columns`` keeps the rows, and the lineage, that
    ``process`` keeps tuple by tuple: whole batches of valid sentences
    and batches with empty ones (``empty_fraction > 0``)."""

    @pytest.mark.parametrize("empty_fraction", (0.0, 0.3, 1.0))
    def test_kernel_equals_process(self, empty_fraction):
        source = sentences(seed=5, empty_fraction=empty_fraction)
        parser = Parser()
        for rows in (1024, 64, 1):
            column = [next(source)[0] for _ in range(rows)]
            want = [
                (i, values)
                for i, sentence in enumerate(column)
                for _, values in parser.process(StreamTuple(values=(sentence,)))
            ]
            batch = ColumnBatch.build(DEFAULT_STREAM, "s", [column])
            outs = list(parser.process_columns(batch))
            if not want:
                assert outs == []
                continue
            (out,) = outs
            index = range(len(column)) if out.index is None else out.index.tolist()
            assert list(zip(index, [(s,) for s in out.columns[0]])) == want
        if empty_fraction == 0.0:
            assert out.columns[0] is column  # passed through untouched


#: ``str.split()``'s ASCII whitespace.
WHITESPACE = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "
PLAIN_TOKENS = st.one_of(
    st.sampled_from(["a", "to", "fox", "brisk", "accident", "8bytes!!"]),
    st.text(alphabet="abcxyz", min_size=1, max_size=8),
    st.sampled_from(WHITESPACE),
)
#: Plus what sends a batch down the per-word loop: NUL, words of nine
#: bytes and more, non-ASCII letters and whitespace.
ANY_TOKENS = st.one_of(
    PLAIN_TOKENS,
    st.sampled_from(["\0", "a\0", "fox\0", "ninebytes", "fourteen-bytes", "\u00e9t\u00e9"]),
    st.text(alphabet="abc", min_size=9, max_size=14),
    st.sampled_from(["\x85", "\u3000", "\u00a0"]),
)
BATCHES = st.lists(
    st.one_of(
        st.lists(st.lists(PLAIN_TOKENS, max_size=12).map("".join), max_size=40),
        st.lists(st.lists(ANY_TOKENS, max_size=12).map("".join), max_size=40),
    ),
    min_size=1,
    max_size=4,
)


def split_loop(codes, table, column):
    """The splitter kernel's per-word loop, frozen: its codes and lineage
    index, growing ``codes``/``table`` as it goes."""
    word_codes, counts = [], []
    for sentence in column:
        parts = sentence.split()
        for word in parts:
            code = codes.get(word)
            if code is None:
                code = codes[word] = len(table)
                table.append(word)
            word_codes.append(code)
        counts.append(len(parts))
    return word_codes, np.repeat(np.arange(len(counts)), counts).tolist()


def slot_of(word, slots=4096):
    """The slot a word's key hashes to in a table of ``slots``."""
    key = int.from_bytes(word.encode("ascii"), "little")
    return ((key * 0x9E3779B97F4A7C15) % (1 << 64)) >> (64 - slots.bit_length() + 1)


class TestSplitterKernel:
    """``Splitter.process_columns`` finds words in the batch's bytes; its
    rows are those ``process`` gives row by row, and its codes, table
    and lineage index those of the per-word loop it replaced, batch
    after batch on one instance."""

    @staticmethod
    def kernel(splitter, column):
        outs = list(
            splitter.process_columns(ColumnBatch.build(DEFAULT_STREAM, "s", [column]))
        )
        if not outs:
            return [], []
        (out,) = outs
        words = out.columns[0]
        assert isinstance(words, DictColumn) and words.table is splitter._table
        return words.codes.tolist(), out.index.tolist()

    def assert_kernel_is_loop(self, batches):
        splitter, codes, table = Splitter(), {}, []
        for column in batches:
            got_codes, got_index = self.kernel(splitter, column)
            assert (got_codes, got_index) == split_loop(codes, table, column)
            assert list(splitter._table) == table
            want = [
                (i, values)
                for i, sentence in enumerate(column)
                for _, values in splitter.process(StreamTuple(values=(sentence,)))
            ]
            rows = [(splitter._table[code],) for code in got_codes]
            assert list(zip(got_index, rows)) == want
        return splitter

    @settings(max_examples=300, deadline=None)
    @given(BATCHES)
    def test_equals_the_loop_and_process(self, batches):
        self.assert_kernel_is_loop(batches)

    def test_the_seed_7_stream(self):
        source = sentences(seed=7)
        self.assert_kernel_is_loop(
            [[next(source)[0] for _ in range(rows)] for rows in (1024, 64, 1, 1024)]
        )

    def test_blank_and_empty_rows(self):
        self.assert_kernel_is_loop(
            [[""], [" ", "\x1f\t"], ["", "a", "  ", "b c", ""], ["", " "]]
        )

    def test_a_vocabulary_past_the_slot_tables_doubling(self):
        rng = random.Random(3)
        vocabulary = [f"w{i}" for i in range(20_000)]
        batches = [
            [" ".join(vocabulary[k : k + 10]) for k in range(j, j + 10_240, 10)]
            for j in (0, 10_240)
        ] + [
            [" ".join(rng.choices(vocabulary, k=10)) for _ in range(1024)]
            for _ in range(2)
        ]
        splitter = self.assert_kernel_is_loop(batches)
        # Grown to keep the vocabulary under a quarter of the slots.
        assert len(splitter._slot_keys) >= 4 * 20_000

    @staticmethod
    def one_slot(n):
        """``n`` words whose keys hash to one slot of the first table."""
        seen = {}
        for i in range(100_000):
            word = f"x{i}"
            words = seen.setdefault(slot_of(word), [])
            words.append(word)
            if len(words) == n:
                return words

    @staticmethod
    def resident(splitter, words):
        keys = [int.from_bytes(word.encode("ascii"), "little") for word in words]
        return [key in splitter._slot_keys for key in keys]

    def test_two_words_in_one_slot(self):
        first, second = self.one_slot(2)
        batches = [
            [first],
            [second, f"{first} {second} {first}"],
            [second] * 3,
            [f"{first} {second}", first],
        ]
        splitter = self.assert_kernel_is_loop(batches)
        # The slot holds one of the two, its neighbour the other.
        assert (splitter._slot_keys != 0).sum() == 2
        assert self.resident(splitter, [first, second]) == [True, True]

    def test_two_colliding_words_new_in_one_batch(self):
        """Both first seen in one batch: the install that writes one over
        the other moves the overwritten one to the bucket's second way,
        so the next batch finds both without the dict."""
        first, second = self.one_slot(2)
        splitter = self.assert_kernel_is_loop([[f"{second} {first}", first]])
        assert self.resident(splitter, [first, second]) == [True, True]
        codes = splitter._codes
        splitter._codes = None  # a miss would read it
        got, _ = self.kernel(splitter, [f"{first} {second}"] * 3)
        assert got == [codes[first], codes[second]] * 3

    def test_three_words_in_one_slot(self):
        """A bucket holds two: the third word keeps missing into the dict,
        and every code is still the loop's."""
        words = self.one_slot(3)
        self.assert_kernel_is_loop(
            [[" ".join(words)], [" ".join(reversed(words))], words, [words[2]] * 4]
        )

    def test_nul_is_a_letter(self):
        """``str.split()`` keeps a NUL inside its word, and a zero-padded
        key would not tell "a" from "a\\0" or "\\0" from an empty slot."""
        self.assert_kernel_is_loop([["a a\0 \0", "\0\0 a"], ["a fox"], ["fox\0 \0"]])

    def test_a_fallback_batch_then_a_byte_batch(self):
        splitter = self.assert_kernel_is_loop(
            [
                ["caf\u00e9 fox", "a fox", "accidents happen"],
                ["fox a caf", "happen accident", "fox"],
                ["a\0b fox", "fox"],
                ["fox happen", "caf a"],
            ]
        )
        # The ASCII batches went by bytes and filled the slot table.
        assert (splitter._slot_keys != 0).sum() >= 5


class TestCounterKernel:
    """``Counter.process_columns`` emits, batch after batch, the rows and
    leaves the running counts that ``process`` does tuple by tuple."""

    @staticmethod
    def assert_kernel_is_scalar(columns):
        kernel, scalar = Counter(), Counter()
        for column in columns:
            (out,) = kernel.process_columns(
                ColumnBatch.build(DEFAULT_STREAM, "s", [column])
            )
            assert out.columns[0] is column  # codes pass through untouched
            want = [
                values
                for word in column
                for _, values in scalar.process(StreamTuple(values=(word,)))
            ]
            assert list(zip(column, out.columns[1].tolist())) == want
            assert kernel.counts == scalar.counts

    @staticmethod
    def coded(table, rng, rows, vocabulary):
        return DictColumn(
            np.array([rng.randrange(vocabulary) for _ in range(rows)]), table
        )

    def test_dictionary_batches(self):
        rng = random.Random(1)
        table = StringTable(f"w{i}" for i in range(45))
        self.assert_kernel_is_scalar(
            [self.coded(table, rng, rows, 45) for rows in (1000, 1024, 7)]
        )

    def test_plain_string_batches(self):
        rng = random.Random(2)
        words = [f"w{i}" for i in range(45)] + ["", "w1 ", "\u00e9t\u00e9"]
        self.assert_kernel_is_scalar(
            [[rng.choice(words) for _ in range(rows)] for rows in (500, 64, 3)]
        )

    def test_one_row_batches(self):
        table = StringTable(["only", "other"])
        self.assert_kernel_is_scalar(
            [DictColumn([1], table), DictColumn([1], table), DictColumn([0], table)]
        )
        self.assert_kernel_is_scalar([["a"], ["a"], ["b"]])

    @pytest.mark.parametrize("size", (256, 257, 65_536, 65_537))
    def test_tables_either_side_of_a_narrow_code_width(self, size):
        """Codes sort as uint8 up to 256 table entries, as uint16 up to
        65 536, and as they come beyond."""
        rng = random.Random(size)
        table = StringTable(f"w{i}" for i in range(size))
        hot = [0, 1, 255, size - 2, size - 1]
        self.assert_kernel_is_scalar(
            [
                DictColumn(
                    [rng.choice(hot) if rng.random() < 0.5 else rng.randrange(size)
                     for _ in range(2000)],
                    table,
                )
                for _ in range(3)
            ]
        )

    def test_a_table_listing_words_absent_from_the_batch(self):
        """Only words in the batch get a running count, as in ``process``."""
        rng = random.Random(4)
        table = StringTable(f"w{i}" for i in range(300))
        self.assert_kernel_is_scalar(
            [self.coded(table, rng, 200, 10) for _ in range(3)]
        )


class TestTopology:
    def test_structure_matches_figure2(self):
        topology = build_wordcount()
        assert topology.topological_order() == [
            "spout",
            "parser",
            "splitter",
            "counter",
            "sink",
        ]
        assert topology.sinks == ["sink"]

    def test_selectivities_match_paper(self):
        """Parser selectivity 1, splitter 10 on the testing workload."""
        topology = build_wordcount()
        run = LocalEngine(topology).run(500)
        assert run.selectivity("parser") == pytest.approx(1.0)
        assert run.selectivity("splitter") == pytest.approx(10.0)
        assert run.selectivity("counter") == pytest.approx(1.0)

    def test_sink_sees_every_word(self):
        topology = build_wordcount()
        run = LocalEngine(topology).run(200)
        assert run.sink_received() == 200 * 10

    def test_counts_are_consistent(self):
        """Total counted occurrences equal words emitted."""
        topology = build_wordcount()
        engine = LocalEngine(topology, replication={
            "spout": 1, "parser": 2, "splitter": 2, "counter": 4, "sink": 1
        })
        run = engine.run(300)
        assert run.component_out("counter") == run.component_out("splitter")

    def test_empty_sentences_dropped(self):
        topology = build_wordcount(empty_fraction=0.3)
        run = LocalEngine(topology).run(500)
        assert run.selectivity("parser") < 1.0
        assert run.sink_received() < 5000
