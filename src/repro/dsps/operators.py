"""Operator abstractions: spouts, bolts and sinks.

An application is a DAG of continuously running operators (Section 2.2).
The functional contract is deliberately small:

* a :class:`Spout` produces new tuples from an external source;
* an :class:`Operator` consumes one input tuple and emits zero or more
  output tuples on named streams;
* a :class:`Sink` consumes results and keeps whatever statistics the
  application wants (the paper's sinks count tuples to monitor throughput).

Operators must be *replicable*: the engine instantiates one copy of the
operator per replica via :meth:`Operator.clone`, so instance state (e.g. a
counter's hashmap) is per-replica, exactly as in a real DSPS.

Stateful operators additionally implement the **state contract** —
:meth:`Operator.snapshot_state` / :meth:`Operator.restore_state` — which
the runtime uses for epoch checkpoints, exactly-once-per-epoch recovery
and live plan migration (see docs/reconfiguration.md).  Snapshots must be
*plain data* (dicts, lists, tuples, strings, numbers, bools, bytes,
``None``) so any serialization codec can move them between processes;
containers like :class:`collections.deque` or :class:`set` must be
converted on the way out and rebuilt on the way in.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
)

from repro.dsps.tuples import DEFAULT_STREAM, StreamTuple

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime dependency
    from repro.runtime.dataplane.columns import ColumnBatch

#: An emitted record: (stream name, values tuple).
Emission = tuple[str, tuple[Any, ...]]


@dataclass(frozen=True)
class OperatorContext:
    """Runtime information handed to an operator replica at start-up."""

    operator: str
    replica_index: int
    n_replicas: int
    task_id: int


class Operator(ABC):
    """A continuously running, replicable stream operator."""

    #: Optional schema hint for the data plane's binary codec: a mapping
    #: from output stream name to one field typecode per emitted value
    #: ('q' int64, 'd' float64, '?' bool, 's' str, 'y' bytes).  Purely an
    #: optimization — wrong or missing declarations only cost a codec
    #: fallback to pickle, never correctness (see docs/dataplane.md).
    declared_fields: Mapping[str, str] | None = None

    #: Input-schema gate for :meth:`process_columns`: the typecode
    #: strings the kernel accepts, or ``None`` to accept any columnar
    #: batch.  Executors route batches whose inferred schema is not
    #: listed through the scalar path instead (counted under
    #: ``runtime.vectorized.fallbacks``), so kernels may assume the
    #: layouts they declare — e.g. a kernel declaring ``("sdq",)`` never
    #: sees a batch whose third column is not int64.
    column_schemas: Sequence[str] | None = None

    def prepare(self, context: OperatorContext) -> None:
        """Called once per replica before any tuple is processed."""

    @abstractmethod
    def process(self, item: StreamTuple) -> Iterable[Emission]:
        """Handle one input tuple; yield ``(stream, values)`` emissions."""

    def process_columns(
        self, batch: "ColumnBatch"
    ) -> "Iterable[ColumnBatch]":
        """Handle one columnar batch; yield output :class:`ColumnBatch`es.

        The opt-in **vectorized kernel API**: operators that override this
        receive sealed batches as per-field columns (numpy arrays for the
        fixed-width typecodes) and return whole output batches built with
        ``ColumnBatch.build(stream, schema, columns, index=...)``, where
        ``index`` maps each output row to the input row that produced it
        (``None`` for 1:1 kernels).  The executor stamps ``source_task``
        and propagates event times through ``index``; kernels only supply
        values.

        Overrides must be **bit-identical** to the scalar path: same
        per-stream output multiset, same state updates, same float
        arithmetic order where results depend on it.  Executors fall
        through to :meth:`process` whenever a batch does not qualify
        (non-columnar schema, fault injection, ``--vectorized off``), and
        results must not depend on which path ran.
        """
        raise NotImplementedError

    @classmethod
    def supports_columns(cls) -> bool:
        """Capability flag: True when this operator overrides
        :meth:`process_columns` (executors check the class, not the
        instance, so kernels cannot be toggled per replica)."""
        return cls.process_columns is not Operator.process_columns

    def flush(self) -> Iterable[Emission]:
        """Emit any trailing output when the input is exhausted."""
        return ()

    def snapshot_state(self) -> Any:
        """Serializable snapshot of this replica's mutable state.

        Stateless operators return ``None`` (the default).  Stateful
        operators return *plain data only* — any composition of ``dict``,
        ``list``, ``tuple``, ``str``, ``int``, ``float``, ``bool``,
        ``bytes`` and ``None`` — so the snapshot survives any codec the
        runtime moves it through.  Feeding the value back into
        :meth:`restore_state` on a fresh replica must reproduce the
        original replica exactly: the same inputs afterwards yield the
        same emissions and the same next snapshot (the round-trip law the
        property suite in ``tests/test_state_roundtrip.py`` enforces).
        """
        return None

    def restore_state(self, state: Any) -> None:
        """Rebuild this replica's mutable state from a snapshot.

        The default accepts only the stateless ``None`` snapshot; an
        operator whose :meth:`snapshot_state` returns anything else must
        override both ends of the contract.
        """
        if state is not None:
            raise NotImplementedError(
                f"{type(self).__name__} snapshots state but does not "
                "implement restore_state"
            )

    def sheddable(self, item: StreamTuple) -> bool:
        """Semantic load-shedding predicate (see docs/overload.md).

        Under overload with ``--shed semantic``, the runtime only ever
        drops tuples whose producing operator blesses them here — a
        priority/key predicate declaring which of its outputs the
        application can afford to lose.  The default blesses none, so an
        operator that does not override it is fully protected.  The
        predicate must be **pure** (no state updates, no side effects):
        whether it runs at all depends on the overload ladder, and a
        shed run must stay deterministic.
        """
        return False

    def clone(self) -> "Operator":
        """Fresh replica with independent state (deep copy by default)."""
        return copy.deepcopy(self)


class Spout(ABC):
    """A source operator pulling tuples from an external stream."""

    #: Same codec schema hint as :attr:`Operator.declared_fields`.
    declared_fields: Mapping[str, str] | None = None

    def prepare(self, context: OperatorContext) -> None:
        """Called once per replica before the first :meth:`next_batch`."""

    @abstractmethod
    def next_batch(self, max_tuples: int) -> Iterator[tuple[Any, ...]]:
        """Produce up to ``max_tuples`` value tuples (may yield fewer)."""

    def sheddable(self, item: StreamTuple) -> bool:
        """Semantic load-shedding predicate — see
        :meth:`Operator.sheddable`.  Shedding is applied at the spouts'
        output edges, so this is the predicate the runtime actually
        consults; the default blesses nothing.
        """
        return False

    def clone(self) -> "Spout":
        return copy.deepcopy(self)


class Sink(Operator):
    """Terminal operator: counts received tuples and stores samples.

    The paper's sinks increment a counter per received tuple, which is how
    application throughput is monitored.  :attr:`received` is that counter.
    """

    def __init__(self, keep_samples: int = 0) -> None:
        self.received = 0
        self.keep_samples = keep_samples
        self.samples: list[StreamTuple] = []

    def process(self, item: StreamTuple) -> Iterable[Emission]:
        self.received += 1
        if len(self.samples) < self.keep_samples:
            self.samples.append(item)
        self.on_tuple(item)
        return ()

    def process_columns(self, batch: "ColumnBatch") -> "Iterable[ColumnBatch]":
        """Columnar intake: count a whole batch in O(1) when possible.

        Bursting back to tuples only happens while samples are still
        being collected or when a subclass hooks :meth:`on_tuple`.
        Executors call this only for sinks that keep the default
        :meth:`process`; overriding ``process`` re-enables per-tuple
        delivery (see the capability gating in the backends).
        """
        n = len(batch)
        if (
            len(self.samples) < self.keep_samples
            or type(self).on_tuple is not Sink.on_tuple
        ):
            for item in batch.to_tuples():
                self.received += 1
                if len(self.samples) < self.keep_samples:
                    self.samples.append(item)
                self.on_tuple(item)
        else:
            self.received += n
        return ()

    def on_tuple(self, item: StreamTuple) -> None:
        """Hook for subclasses; default does nothing beyond counting."""

    def snapshot_state(self) -> Any:
        """Received count plus retained samples, flattened to plain data."""
        return {
            "received": self.received,
            "samples": [
                [item.stream, list(item.values), item.source_task, item.event_time_ns]
                for item in self.samples
            ],
        }

    def restore_state(self, state: Any) -> None:
        self.received = state["received"]
        self.samples = [
            StreamTuple(
                values=tuple(values),
                stream=stream,
                source_task=source_task,
                event_time_ns=event_time_ns,
            )
            for stream, values, source_task, event_time_ns in state["samples"]
        ]


class MapOperator(Operator):
    """Apply ``fn`` to each tuple's values; emit the result (1:1)."""

    def __init__(
        self,
        fn: Callable[[tuple[Any, ...]], Sequence[Any] | None],
        stream: str = DEFAULT_STREAM,
    ) -> None:
        self.fn = fn
        self.stream = stream

    def process(self, item: StreamTuple) -> Iterable[Emission]:
        result = self.fn(item.values)
        if result is not None:
            yield self.stream, tuple(result)


class FlatMapOperator(Operator):
    """Apply ``fn`` producing zero or more output value tuples per input."""

    def __init__(
        self,
        fn: Callable[[tuple[Any, ...]], Iterable[Sequence[Any]]],
        stream: str = DEFAULT_STREAM,
    ) -> None:
        self.fn = fn
        self.stream = stream

    def process(self, item: StreamTuple) -> Iterable[Emission]:
        for values in self.fn(item.values):
            yield self.stream, tuple(values)


class FilterOperator(Operator):
    """Pass tuples satisfying ``predicate``, drop the rest."""

    def __init__(
        self,
        predicate: Callable[[tuple[Any, ...]], bool],
        stream: str = DEFAULT_STREAM,
    ) -> None:
        self.predicate = predicate
        self.stream = stream

    def process(self, item: StreamTuple) -> Iterable[Emission]:
        if self.predicate(item.values):
            yield self.stream, item.values


class IterableSpout(Spout):
    """Spout replaying a (possibly infinite) iterable of value tuples."""

    def __init__(self, source: Iterable[Sequence[Any]]) -> None:
        self._factory = source
        self._iterator: Iterator[Sequence[Any]] | None = None

    def prepare(self, context: OperatorContext) -> None:
        self._iterator = iter(self._factory)

    def next_batch(self, max_tuples: int) -> Iterator[tuple[Any, ...]]:
        if self._iterator is None:
            self._iterator = iter(self._factory)
        for _ in range(max_tuples):
            try:
                values = next(self._iterator)
            except StopIteration:
                return
            yield tuple(values)
