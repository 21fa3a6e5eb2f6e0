"""Spike Detection (SD): ``Spout -> Parser -> MovingAverage ->
SpikeDetection -> Sink`` (Figure 18b).

Sensor readings are averaged per device over a sliding window; the spike
detector compares each reading against the device's moving average.  Per
the paper's application settings, a signal is passed to the sink for every
input regardless of whether a spike triggered (selectivity 1 everywhere).
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from repro.dsps.operators import Emission, Operator, OperatorContext, Sink, Spout
from repro.dsps.topology import Topology, TopologyBuilder
from repro.dsps.tuples import DEFAULT_STREAM, StreamTuple
from repro.runtime.dataplane.columns import ColumnBatch, take

from repro.apps.workloads import sensor_readings

#: Sliding window length of the per-device moving average.
MOVING_AVERAGE_WINDOW = 1000
#: A reading this much above the moving average counts as a spike.
SPIKE_THRESHOLD = 1.5


class SensorSpout(Spout):
    """Generates ``(device_id, value, timestamp)`` readings."""

    declared_fields = {DEFAULT_STREAM: "sdq"}

    def __init__(self, seed: int = 13, spike_fraction: float = 0.01) -> None:
        self.seed = seed
        self.spike_fraction = spike_fraction
        self._source: Iterator[tuple[str, float, int]] | None = None

    def prepare(self, context: OperatorContext) -> None:
        self._source = sensor_readings(
            seed=self.seed + context.replica_index,
            spike_fraction=self.spike_fraction,
        )

    def next_batch(self, max_tuples: int) -> Iterator[tuple[str, float, int]]:
        if self._source is None:
            self._source = sensor_readings(self.seed, spike_fraction=self.spike_fraction)
        return islice(self._source, max_tuples)


class SensorParser(Operator):
    """Validates readings; drops malformed tuples.

    The device-id column may arrive dictionary-encoded (a
    :class:`~repro.runtime.dataplane.columns.DictColumn` of int32
    codes) when the shm data plane promoted it; the kernels here need
    no dict awareness — ``DictColumn`` is list-like, and
    ``ColumnBatch.build`` carries a passed-through coded column forward
    as ``"D"`` so codes survive to the next hop without re-encoding.
    """

    declared_fields = {DEFAULT_STREAM: "sdq"}
    column_schemas = ("sdq",)

    def process(self, item: StreamTuple) -> Iterable[Emission]:
        device, value, timestamp = item.values
        if device and value is not None:
            yield DEFAULT_STREAM, (device, float(value), timestamp)

    def process_columns(self, batch: ColumnBatch) -> Iterable[ColumnBatch]:
        devices, values, timestamps = batch.columns
        # A "d" column can hold neither None nor non-floats, so only the
        # empty-device check from the scalar path can still drop rows.
        keep = [i for i, device in enumerate(devices) if device]
        if len(keep) == len(devices):
            yield ColumnBatch.build(
                DEFAULT_STREAM, "sdq", [devices, values, timestamps]
            )
        elif keep:
            yield ColumnBatch.build(
                DEFAULT_STREAM,
                "sdq",
                [take(devices, keep), take(values, keep), take(timestamps, keep)],
                index=keep,
            )


class MovingAverage(Operator):
    """Per-device sliding-window average; emits ``(device, avg, value)``."""

    declared_fields = {DEFAULT_STREAM: "sdd"}
    column_schemas = ("sdq",)

    def __init__(self, window: int = MOVING_AVERAGE_WINDOW) -> None:
        self.window = window
        self._values: dict[str, deque[float]] = {}
        self._sums: dict[str, float] = {}

    def process(self, item: StreamTuple) -> Iterable[Emission]:
        device, value, _timestamp = item.values
        history = self._values.get(device)
        if history is None:
            history = deque()
            self._values[device] = history
            self._sums[device] = 0.0
        history.append(value)
        self._sums[device] += value
        if len(history) > self.window:
            self._sums[device] -= history.popleft()
        average = self._sums[device] / len(history)
        yield DEFAULT_STREAM, (device, average, value)

    def process_columns(self, batch: ColumnBatch) -> Iterable[ColumnBatch]:
        # The running window sum is order-dependent float arithmetic, so
        # the kernel keeps the sequential per-row loop (over pure-Python
        # floats — ``tolist`` round-trips bit-identically) and only the
        # batch assembly is columnar.
        devices = batch.columns[0]
        values = batch.columns[1].tolist()
        averages: list[float] = []
        sums = self._sums
        window = self.window
        for device, value in zip(devices, values):
            history = self._values.get(device)
            if history is None:
                history = deque()
                self._values[device] = history
                sums[device] = 0.0
            history.append(value)
            sums[device] += value
            if len(history) > window:
                sums[device] -= history.popleft()
            averages.append(sums[device] / len(history))
        yield ColumnBatch.build(
            DEFAULT_STREAM,
            "sdd",
            [devices, np.asarray(averages, dtype="<f8"), batch.columns[1]],
        )

    def snapshot_state(self) -> dict:
        # The running sums are stored as-is (not recomputed from the
        # windows on restore) so float accumulation order — and with it
        # every future average — is bit-identical after a round-trip.
        return {
            "values": {device: list(history) for device, history in self._values.items()},
            "sums": dict(self._sums),
        }

    def restore_state(self, state: dict) -> None:
        self._values = {
            device: deque(history) for device, history in state["values"].items()
        }
        self._sums = dict(state["sums"])


class SpikeDetector(Operator):
    """Flags readings above ``threshold * moving_average``.

    Emits ``(device, value, avg, is_spike)`` for every input.
    """

    declared_fields = {DEFAULT_STREAM: "sdd?"}
    column_schemas = ("sdd",)

    def __init__(self, threshold: float = SPIKE_THRESHOLD) -> None:
        self.threshold = threshold
        self.spikes = 0

    def process(self, item: StreamTuple) -> Iterable[Emission]:
        device, average, value = item.values
        is_spike = value > self.threshold * average
        if is_spike:
            self.spikes += 1
        yield DEFAULT_STREAM, (device, value, average, is_spike)

    def process_columns(self, batch: ColumnBatch) -> Iterable[ColumnBatch]:
        devices, averages, values = batch.columns
        # Elementwise float64 compare — IEEE-identical to the scalar path.
        is_spike = values > self.threshold * averages
        self.spikes += int(np.count_nonzero(is_spike))
        yield ColumnBatch.build(
            DEFAULT_STREAM, "sdd?", [devices, values, averages, is_spike]
        )

    def snapshot_state(self) -> dict:
        return {"spikes": self.spikes}

    def restore_state(self, state: dict) -> None:
        self.spikes = state["spikes"]


class SpikeSink(Sink):
    """Counts results and remembers how many spikes were reported."""

    def __init__(self, keep_samples: int = 0) -> None:
        super().__init__(keep_samples)
        self.spike_count = 0

    def on_tuple(self, item: StreamTuple) -> None:
        if item.values[3]:
            self.spike_count += 1

    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["spike_count"] = self.spike_count
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self.spike_count = state["spike_count"]


def build_spike_detection(seed: int = 13, spike_fraction: float = 0.01) -> Topology:
    """Build the SD topology (fields grouping keeps a device on one replica)."""
    builder = TopologyBuilder("sd")
    builder.set_spout("spout", SensorSpout(seed=seed, spike_fraction=spike_fraction))
    builder.add_operator("parser", SensorParser()).shuffle_from("spout")
    builder.add_operator("moving_average", MovingAverage()).fields_from("parser", 0)
    builder.add_operator("spike_detector", SpikeDetector()).shuffle_from("moving_average")
    builder.add_sink("sink", SpikeSink()).shuffle_from("spike_detector")
    return builder.build()
