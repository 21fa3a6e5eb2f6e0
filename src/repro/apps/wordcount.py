"""Word Count (WC): the paper's running example application (Figure 2).

``Spout -> Parser -> Splitter -> Counter -> Sink``

* **Spout** continuously generates sentences of ten random words.
* **Parser** drops invalid tuples (empty sentences); selectivity 1 on the
  paper's workload.
* **Splitter** splits each sentence into words (selectivity 10).
* **Counter** maintains a per-replica hashmap word -> occurrences and emits
  ``(word, count)`` for every input word (selectivity 1).  Fields grouping
  guarantees the same word is always counted by the same replica.
* **Sink** increments a counter per received tuple (throughput monitor).
"""

from __future__ import annotations

from itertools import islice, repeat
from typing import Iterable, Iterator

import numpy as np

from repro.dsps.operators import (
    Emission,
    Operator,
    OperatorContext,
    Sink,
    Spout,
)
from repro.dsps.topology import Topology, TopologyBuilder
from repro.dsps.tuples import DEFAULT_STREAM, StreamTuple
from repro.runtime.dataplane.columns import ColumnBatch, DictColumn, StringTable

from repro.apps.workloads import sentences


class SentenceSpout(Spout):
    """Generates random ten-word sentences."""

    declared_fields = {DEFAULT_STREAM: "s"}

    def __init__(
        self,
        seed: int = 7,
        words_per_sentence: int = 10,
        empty_fraction: float = 0.0,
        shift_at: int | None = None,
        shift_words_per_sentence: int | None = None,
    ) -> None:
        self.seed = seed
        self.words_per_sentence = words_per_sentence
        self.empty_fraction = empty_fraction
        self.shift_at = shift_at
        self.shift_words_per_sentence = shift_words_per_sentence
        self._source: Iterator[tuple[str]] | None = None

    def prepare(self, context: OperatorContext) -> None:
        # Offset the seed by replica index so replicas do not emit
        # identical streams.
        self._source = sentences(
            seed=self.seed + context.replica_index,
            words_per_sentence=self.words_per_sentence,
            empty_fraction=self.empty_fraction,
            shift_at=self.shift_at,
            shift_words_per_sentence=self.shift_words_per_sentence,
        )

    def next_batch(self, max_tuples: int) -> Iterator[tuple[str]]:
        if self._source is None:
            self._source = sentences(
                self.seed,
                self.words_per_sentence,
                shift_at=self.shift_at,
                shift_words_per_sentence=self.shift_words_per_sentence,
            )
        return islice(self._source, max_tuples)


class Parser(Operator):
    """Drops invalid (empty) sentences; passes the rest through."""

    declared_fields = {DEFAULT_STREAM: "s"}
    column_schemas = ("s",)

    def process(self, item: StreamTuple) -> Iterable[Emission]:
        sentence = item.values[0]
        if sentence:
            yield DEFAULT_STREAM, (sentence,)

    def process_columns(self, batch: ColumnBatch) -> Iterable[ColumnBatch]:
        sentences = batch.columns[0]
        if all(sentences):  # the usual batch: nothing to drop
            yield ColumnBatch.build(DEFAULT_STREAM, "s", [sentences])
            return
        keep = [i for i, sentence in enumerate(sentences) if sentence]
        if keep:
            yield ColumnBatch.build(
                DEFAULT_STREAM,
                "s",
                [[sentences[i] for i in keep]],
                index=keep,
            )


#: ``str.split()``'s ASCII whitespace (``\t \n \x0b \x0c \r``,
#: ``\x1c``-``\x1f`` and space) as a ``bytes.translate`` table: 1 for
#: whitespace, 0 for any other byte.
_WHITESPACE = bytes(
    int(chr(byte).isspace()) if byte < 128 else 0 for byte in range(256)
)
#: Pad after a batch's text: whitespace, so no word runs into it, and
#: eight bytes, so an 8-byte read at any word start stays in bounds.
_PAD = b" " * 8
#: ``_KEY_MASK[n]`` keeps the low ``n`` bytes of a little-endian read.
_KEY_MASK = np.array([(1 << (8 * n)) - 1 for n in range(9)], dtype=np.uint64)
#: Fibonacci hashing's multiplier (2**64 / golden ratio).
_HASH = np.uint64(0x9E3779B97F4A7C15)
#: Slots the splitter's word cache starts with (a power of two).
_SLOTS = 4096


class Splitter(Operator):
    """Splits each sentence into words, one output tuple per word.

    The columnar kernel emits the word column *dictionary-encoded*: it
    keeps a per-replica append-only word table (an encoding cache, not
    semantic state — a restarted replica simply starts a fresh table)
    and hands downstream a :class:`DictColumn` of ``int32`` codes, so
    the counter and the data plane never re-hash the word strings.
    """

    declared_fields = {DEFAULT_STREAM: "s"}
    column_schemas = ("s",)

    def __init__(self) -> None:
        self._codes: dict[str, int] = {}
        self._table = StringTable()
        #: The word cache :meth:`_lookup` reads, built at its first call
        #: (so that copying an unused prototype copies no table).
        self._slot_keys = None

    def process(self, item: StreamTuple) -> Iterable[Emission]:
        for word in item.values[0].split():
            yield DEFAULT_STREAM, (word,)

    def process_columns(self, batch: ColumnBatch) -> Iterable[ColumnBatch]:
        """Find the batch's words in its bytes (:meth:`_split_bytes`), or,
        in a batch with non-ASCII text, a NUL or a word longer than eight
        bytes, with the per-word ``split()`` loop.  Both give a word the
        code the loop would: its first appearance's rank in the table."""
        sentences = batch.columns[0]
        found = self._split_bytes(sentences)
        if found is None:
            codes = self._codes
            table = self._table
            lookup = codes.get
            word_codes: list[int] = []
            counts: list[int] = []
            for sentence in sentences:
                parts = sentence.split()
                for word in parts:
                    code = lookup(word)
                    if code is None:
                        code = len(table)
                        codes[word] = code
                        table.append(word)
                    word_codes.append(code)
                counts.append(len(parts))
            index = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
            found = np.asarray(word_codes, dtype="<i4"), index
        word_codes, index = found
        if not len(word_codes):
            return
        column = DictColumn(word_codes, self._table)
        yield ColumnBatch.build(DEFAULT_STREAM, "s", [column], index=index)

    def _split_bytes(self, sentences):
        """``(codes, index)`` of the words of ``sentences``, found in bytes,
        or ``None`` if a word's bytes cannot be its key.

        The sentences are joined by one space and encoded once.  A byte
        table of ``str.split()``'s ASCII whitespace marks where words
        start and end; a word of at most eight bytes, read as one
        zero-padded little-endian ``uint64``, is its own key (no NUL in
        the text, so no two words share one).  Sentence ``k``'s first
        word is the first to start at or after the sentence does.
        """
        text = " ".join(sentences)
        if not text.isascii() or "\0" in text:
            return None
        # A space before the text: text[i] is byte i + 1 of ``data``.
        data = b"".join((b" ", text.encode("ascii"), _PAD))
        ws = np.frombuffer(data.translate(_WHITESPACE), dtype=bool)
        # The class flips where a word starts and where it ends, and
        # ``data`` starts and ends in whitespace: the flips alternate.
        flips = np.flatnonzero(ws[:-1] != ws[1:])
        starts = flips[0::2]
        ends = flips[1::2]
        lengths = ends - starts
        if len(lengths) and lengths.max() > 8:
            return None
        # An unaligned view: ``take`` would copy all of it aligned first.
        keys = np.ndarray((len(text),), "<u8", data, 1, (1,))[starts]
        keys &= _KEY_MASK.take(lengths)
        word_codes = self._lookup(keys, text, starts, ends)
        # A sentence and the space after it.
        spans = np.fromiter(map(len, sentences), np.intp, len(sentences)) + 1
        first = np.append(starts.searchsorted(spans.cumsum() - spans), len(starts))
        index = np.repeat(np.arange(len(spans), dtype=np.intp), np.diff(first))
        return word_codes, index

    def _lookup(self, keys, text, starts, ends):
        """The codes of the words ``keys`` stand for, adding new words.

        A direct-mapped slot table, indexed by the key's Fibonacci hash,
        holds the codes of words already seen.  Rows whose slot holds
        another key go through the ``_codes`` dict, new words in order
        of first appearance; the table doubles, rebuilt from ``_table``,
        when the vocabulary passes a quarter of it.
        """
        if self._slot_keys is None:
            self._grow()
        slots = self._slots(keys)
        hit = self._slot_keys.take(slots) == keys
        word_codes = self._slot_codes.take(slots)
        if hit.all():
            return word_codes
        missed = np.flatnonzero(~hit)
        unique, first, inverse = np.unique(
            keys.take(missed), return_index=True, return_inverse=True
        )
        # Visit the missed words in order of first appearance.
        order = first.argsort()
        at = missed.take(first.take(order))
        codes = self._codes
        table = self._table
        fresh = np.empty(len(unique), dtype="<i4")
        for rank, start, end in zip(
            order.tolist(), starts.take(at).tolist(), ends.take(at).tolist()
        ):
            word = text[start:end]
            code = codes.get(word)
            if code is None:
                code = len(table)
                codes[word] = code
                table.append(word)
            fresh[rank] = code
        word_codes[missed] = fresh.take(inverse)
        if 4 * len(table) > self._slot_keys.size:
            self._grow()
        else:
            self._install(unique, fresh)
        return word_codes

    def _slots(self, keys):
        """Each key's slot: the top bits of its Fibonacci hash."""
        return ((keys * _HASH) >> self._shift).view(np.intp)

    def _install(self, keys, codes) -> None:
        slots = self._slots(keys)
        self._slot_keys[slots] = keys
        self._slot_codes[slots] = codes

    def _grow(self) -> None:
        """(Re)build the slot table from ``_table``, with the vocabulary
        at most a quarter of it."""
        slots = _SLOTS
        while 4 * len(self._table) > slots:
            slots *= 2
        self._slot_keys = np.zeros(slots, dtype=np.uint64)
        self._slot_codes = np.zeros(slots, dtype="<i4")
        self._shift = np.uint64(65 - slots.bit_length())
        keys, codes = [], []
        for code, word in enumerate(self._table):
            if len(word) <= 8 and word.isascii() and "\0" not in word:
                keys.append(int.from_bytes(word.encode("ascii"), "little"))
                codes.append(code)
        self._install(np.array(keys, dtype=np.uint64), np.array(codes, dtype="<i4"))


class Counter(Operator):
    """Counts word occurrences; emits ``(word, running_count)`` per input."""

    declared_fields = {DEFAULT_STREAM: "sq"}
    column_schemas = ("s",)

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def process(self, item: StreamTuple) -> Iterable[Emission]:
        word = item.values[0]
        count = self.counts.get(word, 0) + 1
        self.counts[word] = count
        yield DEFAULT_STREAM, (word, count)

    def process_columns(self, batch: ColumnBatch) -> Iterable[ColumnBatch]:
        """Whole-batch counting kernel: one stable sort.

        For the ``k``-th occurrence (0-based) of a word within the batch
        the scalar path emits ``prior + k + 1``, where ``prior`` is the
        word's running count before the batch.  A stable sort of the
        rows by word keeps each word's occurrences together and in batch
        order, so in sorted position ``i`` of a group starting at
        ``start`` that count is ``prior + 1 - start + i``; scattering it
        back through the sort order gives every row its count.

        A dictionary-encoded word column sorts its codes — as ``uint8``
        or ``uint16`` when the table is small enough, which numpy
        radix-sorts — and touches a word string once per distinct word
        present (for the running-count dict), never per occurrence; a
        plain-string column sorts the strings.  The output passes the
        input column through, so codes survive to the sink edge
        untouched.
        """
        words = batch.columns[0]
        if isinstance(words, DictColumn):
            table = words.table
            keys = words.codes
            # Narrow codes sort by radix (one pass per byte).
            if len(table) <= 1 << 8:
                keys = keys.astype(np.uint8)
            elif len(table) <= 1 << 16:
                keys = keys.astype(np.uint16)
        else:
            table = None
            keys = np.asarray(words)
        n = len(keys)
        order = keys.argsort(kind="stable")
        ordered = keys.take(order)
        # A group starts where the sorted key changes; the last ends at n.
        edges = np.empty(n + 1, dtype=bool)
        edges[0] = edges[n] = True
        np.not_equal(ordered[1:], ordered[:-1], out=edges[1:n])
        bounds = edges.nonzero()[0]
        starts = bounds[:-1]
        sizes = bounds[1:] - starts
        present = ordered[starts].tolist()
        if table is None:
            group_words = present
        else:
            group_words = list(map(table.__getitem__, present))
        counts = self.counts
        base = np.fromiter(
            map(counts.get, group_words, repeat(0)),
            dtype="<i8",
            count=len(group_words),
        )
        sorted_counts = (base + 1 - starts).repeat(sizes)
        sorted_counts += np.arange(n)
        out_counts = np.empty(n, dtype="<i8")
        out_counts[order] = sorted_counts
        counts.update(zip(group_words, (base + sizes).tolist()))
        yield ColumnBatch.build(DEFAULT_STREAM, "sq", [words, out_counts])

    def snapshot_state(self) -> dict:
        return {"counts": dict(self.counts)}

    def restore_state(self, state: dict) -> None:
        self.counts = dict(state["counts"])


class WordCountSink(Sink):
    """Counts received ``(word, count)`` tuples (standard sink behaviour)."""


def build_wordcount(
    seed: int = 7,
    words_per_sentence: int = 10,
    empty_fraction: float = 0.0,
    shift_at: int | None = None,
    shift_words_per_sentence: int | None = None,
) -> Topology:
    """Build the WC topology with the paper's grouping structure."""
    builder = TopologyBuilder("wc")
    builder.set_spout(
        "spout",
        SentenceSpout(
            seed=seed,
            words_per_sentence=words_per_sentence,
            empty_fraction=empty_fraction,
            shift_at=shift_at,
            shift_words_per_sentence=shift_words_per_sentence,
        ),
    )
    builder.add_operator("parser", Parser()).shuffle_from("spout")
    builder.add_operator("splitter", Splitter()).shuffle_from("parser")
    builder.add_operator("counter", Counter()).fields_from("splitter", 0)
    builder.add_sink("sink", WordCountSink()).shuffle_from("counter")
    return builder.build()
