"""Streams and partitioning (grouping) strategies.

An edge of the logical DAG carries a *grouping* that decides, for every
tuple a producer replica emits, which consumer replica receives it.  The
strategies mirror Storm's groupings, which BriskStream adopts (Appendix A:
"partition controller ... according to application specified partition
strategies such as shuffle partitioning").
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from repro.dsps.tuples import DEFAULT_STREAM, StreamTuple
from repro.errors import TopologyError


class Grouping(ABC):
    """Strategy mapping an output tuple to consumer replica indices."""

    #: True when each tuple goes to exactly one consumer replica.
    unicast: bool = True

    @abstractmethod
    def route(self, item: StreamTuple, n_consumers: int, counter: int) -> list[int]:
        """Return the consumer replica indices that must receive ``item``.

        Parameters
        ----------
        item:
            The tuple being routed.
        n_consumers:
            Number of replicas of the consuming operator.
        counter:
            Monotone per-producer-edge counter, used by round-robin style
            strategies.
        """

    def fan_out(self, n_consumers: int) -> float:
        """Average number of consumer replicas receiving each tuple."""
        return 1.0

    def rate_share(self, consumer_index: int, n_consumers: int) -> float:
        """Fraction of the producer's output rate reaching one replica.

        The performance model uses this to split an operator's output rate
        over the consumer's replicas without enumerating tuples.
        """
        if n_consumers <= 0:
            raise TopologyError("consumer replica count must be positive")
        return 1.0 / n_consumers


class ShuffleGrouping(Grouping):
    """Round-robin tuples over consumer replicas (load balancing)."""

    def route(self, item: StreamTuple, n_consumers: int, counter: int) -> list[int]:
        return [counter % n_consumers]


class FieldsGrouping(Grouping):
    """Hash-partition on key fields: same key -> same consumer replica."""

    def __init__(self, *key_fields: int) -> None:
        if not key_fields:
            raise TopologyError("fields grouping needs at least one key field")
        self.key_fields = tuple(key_fields)

    def route(self, item: StreamTuple, n_consumers: int, counter: int) -> list[int]:
        try:
            key = tuple(item.values[f] for f in self.key_fields)
        except IndexError as exc:
            raise TopologyError(
                f"tuple {item.values!r} lacks key fields {self.key_fields}"
            ) from exc
        if n_consumers == 1:
            return [0]  # the one replica, whatever the key hashes to
        digest = zlib.crc32(repr(key).encode("utf-8"))
        return [digest % n_consumers]


class BroadcastGrouping(Grouping):
    """Every consumer replica receives every tuple."""

    unicast = False

    def route(self, item: StreamTuple, n_consumers: int, counter: int) -> list[int]:
        return list(range(n_consumers))

    def fan_out(self, n_consumers: int) -> float:
        return float(n_consumers)

    def rate_share(self, consumer_index: int, n_consumers: int) -> float:
        return 1.0


class GlobalGrouping(Grouping):
    """All tuples go to the lowest-indexed consumer replica."""

    def route(self, item: StreamTuple, n_consumers: int, counter: int) -> list[int]:
        return [0]

    def rate_share(self, consumer_index: int, n_consumers: int) -> float:
        return 1.0 if consumer_index == 0 else 0.0


@dataclass(frozen=True)
class StreamEdge:
    """A logical DAG edge: producer --(stream, grouping)--> consumer."""

    producer: str
    consumer: str
    stream: str = DEFAULT_STREAM
    grouping: Grouping = ShuffleGrouping()

    def describe(self) -> str:
        kind = type(self.grouping).__name__.replace("Grouping", "").lower()
        return f"{self.producer} --[{self.stream}/{kind}]--> {self.consumer}"


def shuffle() -> Grouping:
    """Convenience constructor for :class:`ShuffleGrouping`."""
    return ShuffleGrouping()


def fields(*key_fields: int) -> Grouping:
    """Convenience constructor for :class:`FieldsGrouping`."""
    return FieldsGrouping(*key_fields)


def broadcast() -> Grouping:
    """Convenience constructor for :class:`BroadcastGrouping`."""
    return BroadcastGrouping()


def global_() -> Grouping:
    """Convenience constructor for :class:`GlobalGrouping`."""
    return GlobalGrouping()
