"""Fraud Detection (FD): ``Spout -> Parser -> Predict -> Sink`` (Figure 18a).

The predictor scores each incoming transaction trace against a per-account
Markov transition model: unusual state transitions raise the score.  Per
the paper's application settings (Appendix B), every operator has
selectivity 1 — a signal is passed to the sink for every input regardless
of whether fraud was detected.
"""

from __future__ import annotations

from itertools import islice
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
from repro.runtime.dataplane.columns import ColumnBatch, DictColumn

from repro.apps.workloads import transactions

#: Transition weights of the "normal" Markov model: common transitions are
#: cheap, rare ones raise the fraud score.
_TRANSITION_SCORE = {
    ("low", "low"): 0.0,
    ("low", "mid"): 0.1,
    ("mid", "low"): 0.1,
    ("mid", "mid"): 0.0,
    ("mid", "high"): 0.2,
    ("high", "mid"): 0.2,
    ("high", "high"): 0.4,
}
_UNSEEN_TRANSITION_SCORE = 1.0
_FRAUD_THRESHOLD = 2.0


class TransactionSpout(Spout):
    """Generates ``(entity_id, record_data)`` transaction records."""

    declared_fields = {DEFAULT_STREAM: "ss"}

    def __init__(self, seed: int = 11, fraud_fraction: float = 0.02) -> None:
        self.seed = seed
        self.fraud_fraction = fraud_fraction
        self._source: Iterator[tuple[str, str]] | None = None

    def prepare(self, context: OperatorContext) -> None:
        self._source = transactions(
            seed=self.seed + context.replica_index,
            fraud_fraction=self.fraud_fraction,
        )

    def next_batch(self, max_tuples: int) -> Iterator[tuple[str, str]]:
        if self._source is None:
            self._source = transactions(self.seed, fraud_fraction=self.fraud_fraction)
        return islice(self._source, max_tuples)

    def sheddable(self, item: StreamTuple) -> bool:
        """Routine traces may be shed under overload (``--shed semantic``).

        Any trace touching a high-value state must reach the predictor —
        those are the records the fraud model exists for — so semantic
        shedding preserves fraud recall and only trades away routine
        low/mid activity.
        """
        trace = item.values[1]
        return "high" not in trace and "max" not in trace


class TransactionParser(Operator):
    """Validates records; drops tuples with empty entity or trace."""

    declared_fields = {DEFAULT_STREAM: "ss"}
    column_schemas = ("ss",)

    def process(self, item: StreamTuple) -> Iterable[Emission]:
        entity, trace = item.values
        if entity and trace:
            yield DEFAULT_STREAM, (entity, trace)

    def process_columns(self, batch: ColumnBatch) -> Iterable[ColumnBatch]:
        entities, traces = batch.columns
        keep = [
            i for i in range(len(entities)) if entities[i] and traces[i]
        ]
        if len(keep) == len(entities):
            yield ColumnBatch.build(DEFAULT_STREAM, "ss", [entities, traces])
        elif keep:
            yield ColumnBatch.build(
                DEFAULT_STREAM,
                "ss",
                [[entities[i] for i in keep], [traces[i] for i in keep]],
                index=keep,
            )


class MarkovPredictor(Operator):
    """Scores a transaction trace against the Markov transition model.

    Emits ``(entity, score, is_fraud)`` for *every* input (selectivity 1).
    """

    declared_fields = {DEFAULT_STREAM: "sd?"}
    column_schemas = ("ss",)

    def __init__(self, threshold: float = _FRAUD_THRESHOLD) -> None:
        self.threshold = threshold
        self.scored = 0
        self.flagged = 0
        # Per-trace-code score cache for dictionary-encoded trace
        # columns, keyed by table identity (tables are append-only, so
        # a cached prefix stays valid as the table grows).  Pure cache,
        # not semantic state: a restart recomputes from scratch.
        self._score_table: list | None = None
        self._scores: list[float] = []

    def process(self, item: StreamTuple) -> Iterable[Emission]:
        entity, trace = item.values
        states = trace.split(",")
        score = 0.0
        for previous, current in zip(states, states[1:]):
            score += _TRANSITION_SCORE.get(
                (previous, current), _UNSEEN_TRANSITION_SCORE
            )
        is_fraud = score >= self.threshold
        self.scored += 1
        if is_fraud:
            self.flagged += 1
        yield DEFAULT_STREAM, (entity, score, is_fraud)

    def process_columns(self, batch: ColumnBatch) -> Iterable[ColumnBatch]:
        # Scoring walks each trace's transition pairs in order (float
        # addition order matters), so scores stay a per-row loop; the
        # thresholding is the vectorized part.
        entities, traces = batch.columns
        transition = _TRANSITION_SCORE
        if isinstance(traces, DictColumn):
            # Dictionary-encoded traces: score each *distinct* trace
            # once (the per-code score is a pure function of the trace
            # string) and gather per-row scores by code.  Identical
            # floats to the per-row loop — same pairs, same order.
            table = traces.table
            cached = self._scores
            if self._score_table is not table:
                self._score_table = table
                cached = self._scores = []
            while len(cached) < len(table):
                states = table[len(cached)].split(",")
                score = 0.0
                for previous, current in zip(states, states[1:]):
                    score += transition.get(
                        (previous, current), _UNSEEN_TRANSITION_SCORE
                    )
                cached.append(score)
            score_col = np.asarray(cached, dtype="<f8")[traces.codes]
        else:
            scores: list[float] = []
            for trace in traces:
                states = trace.split(",")
                score = 0.0
                for previous, current in zip(states, states[1:]):
                    score += transition.get(
                        (previous, current), _UNSEEN_TRANSITION_SCORE
                    )
                scores.append(score)
            score_col = np.asarray(scores, dtype="<f8")
        flags = score_col >= self.threshold
        self.scored += len(traces)
        self.flagged += int(np.count_nonzero(flags))
        yield ColumnBatch.build(
            DEFAULT_STREAM, "sd?", [entities, score_col, flags]
        )

    def snapshot_state(self) -> dict:
        return {"scored": self.scored, "flagged": self.flagged}

    def restore_state(self, state: dict) -> None:
        self.scored = state["scored"]
        self.flagged = state["flagged"]


class FraudSink(Sink):
    """Counts results and tracks how many were flagged fraudulent."""

    def __init__(self, keep_samples: int = 0) -> None:
        super().__init__(keep_samples)
        self.fraud_count = 0

    def on_tuple(self, item: StreamTuple) -> None:
        if item.values[2]:
            self.fraud_count += 1

    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["fraud_count"] = self.fraud_count
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self.fraud_count = state["fraud_count"]


def build_fraud_detection(seed: int = 11, fraud_fraction: float = 0.02) -> Topology:
    """Build the FD topology (fields grouping keeps an entity on one replica)."""
    builder = TopologyBuilder("fd")
    builder.set_spout("spout", TransactionSpout(seed=seed, fraud_fraction=fraud_fraction))
    builder.add_operator("parser", TransactionParser()).shuffle_from("spout")
    builder.add_operator("predictor", MarkovPredictor()).fields_from("parser", 0)
    builder.add_sink("sink", FraudSink()).shuffle_from("predictor")
    return builder.build()
