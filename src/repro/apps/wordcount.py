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

    def process(self, item: StreamTuple) -> Iterable[Emission]:
        for word in item.values[0].split():
            yield DEFAULT_STREAM, (word,)

    def process_columns(self, batch: ColumnBatch) -> Iterable[ColumnBatch]:
        codes = self._codes
        table = self._table
        lookup = codes.get
        word_codes: list[int] = []
        counts: list[int] = []
        for sentence in batch.columns[0]:
            parts = sentence.split()
            for word in parts:
                code = lookup(word)
                if code is None:
                    code = len(table)
                    codes[word] = code
                    table.append(word)
                word_codes.append(code)
            counts.append(len(parts))
        if not word_codes:
            return
        index = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
        column = DictColumn(np.asarray(word_codes, dtype="<i4"), table)
        yield ColumnBatch.build(DEFAULT_STREAM, "s", [column], index=index)


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
