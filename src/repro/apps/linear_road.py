"""Linear Road (LR): the paper's most complex benchmark topology
(Figure 18c, selectivities in Table 8).

The topology implements a simplified-but-real Linear Road variable-tolling
pipeline over a multi-stream DAG::

                              +-> avg_speed -> las_avg_speed -----+
                              |-> accident_detect --(broadcast)---+-> toll_notify -> sink
    spout -> parser -> dispatcher -> count_vehicles --------------+
                              |-> accident_detect -> accident_notify -> sink
                              |-> daily_expenditure -> sink
                              +-> account_balance -> sink

Streams follow Table 8: the dispatcher classifies input records into
``position_report`` (~99%), ``balance_stream`` and ``daily_exp_request``
(~0.5% each); ``avg_speed``/``count_vehicles``/``las_avg_speed`` have
selectivity 1; accident streams have selectivity ~0 (rare events); the
toll notifier emits one notification per position report and one updated
toll record per segment-statistics input.

Every LR schema is integer-only ("q" columns end to end) and the segment
key is the native ``(xway, direction, segment)`` int triple, so the
kernels already operate on fixed-width code-like arrays — the end state
the data plane's adaptive string dictionaries (docs/dataplane.md) buy
for WC/FD/SD string keys.  String-dictionary modes are therefore a no-op
on LR by construction: there is no "s" column to promote.
"""

from __future__ import annotations

from collections import deque
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
from repro.runtime.dataplane.columns import ColumnBatch

from repro.apps.workloads import (
    ACCOUNT_BALANCE_REQUEST,
    DAILY_EXPENDITURE_REQUEST,
    POSITION_REPORT,
    linear_road_records,
)

#: Stream names (kept close to Table 8's spelling).
POSITION_STREAM = "position_report"
BALANCE_STREAM = "balance_stream"
DAILY_STREAM = "daily_exp_request"
AVG_STREAM = "avg_stream"
LAS_STREAM = "las_stream"
DETECT_STREAM = "detect_stream"
COUNTS_STREAM = "counts_stream"
NOTIFY_STREAM = "notify_stream"
TOLL_STREAM = "toll_notify_stream"

#: Consecutive zero-speed reports at one position that signal an accident.
ACCIDENT_STOPPED_REPORTS = 4
#: Base toll charged when a segment is congested.
BASE_TOLL = 2
#: Vehicles per segment above which tolls apply.
CONGESTION_THRESHOLD = 50
#: Speed below which a segment counts as congested.
CONGESTION_SPEED = 40.0


class LinearRoadSpout(Spout):
    """Replays the Linear Road record stream."""

    declared_fields = {DEFAULT_STREAM: "qqqqqqqqqqq"}

    def __init__(self, seed: int = 17, n_vehicles: int = 2000) -> None:
        self.seed = seed
        self.n_vehicles = n_vehicles
        self._source: Iterator[tuple] | None = None

    def prepare(self, context: OperatorContext) -> None:
        self._source = linear_road_records(
            seed=self.seed + context.replica_index, n_vehicles=self.n_vehicles
        )

    def next_batch(self, max_tuples: int) -> Iterator[tuple]:
        if self._source is None:
            self._source = linear_road_records(self.seed, n_vehicles=self.n_vehicles)
        return islice(self._source, max_tuples)


class LinearRoadParser(Operator):
    """Validates raw records (drops malformed tuples; selectivity 1)."""

    declared_fields = {DEFAULT_STREAM: "qqqqqqqqqqq"}
    column_schemas = ("qqqqqqqqqqq",)

    def process(self, item: StreamTuple) -> Iterable[Emission]:
        if len(item.values) == 11 and item.values[0] in (
            POSITION_REPORT,
            ACCOUNT_BALANCE_REQUEST,
            DAILY_EXPENDITURE_REQUEST,
        ):
            yield DEFAULT_STREAM, item.values

    def process_columns(self, batch: ColumnBatch) -> Iterable[ColumnBatch]:
        # The 11-field arity check is implied by the batch schema; only
        # the record-type filter can still drop rows.
        record_types = batch.columns[0]
        keep = np.flatnonzero(
            (record_types == POSITION_REPORT)
            | (record_types == ACCOUNT_BALANCE_REQUEST)
            | (record_types == DAILY_EXPENDITURE_REQUEST)
        )
        if len(keep) == len(record_types):
            yield ColumnBatch.build(
                DEFAULT_STREAM, "qqqqqqqqqqq", list(batch.columns)
            )
        elif len(keep):
            yield ColumnBatch.build(
                DEFAULT_STREAM,
                "qqqqqqqqqqq",
                [column[keep] for column in batch.columns],
                index=keep,
            )


class Dispatcher(Operator):
    """Classifies records onto typed streams (Table 8's selectivities).

    * ``position_report``: ``(time, vid, speed, xway, lane, dir, seg, pos)``
    * ``balance_stream``: ``(time, vid, query_id)``
    * ``daily_exp_request``: ``(time, vid, query_id, day)``
    """

    declared_fields = {
        POSITION_STREAM: "qqqqqqqq",
        BALANCE_STREAM: "qqq",
        DAILY_STREAM: "qqqq",
    }
    column_schemas = ("qqqqqqqqqqq",)

    def process(self, item: StreamTuple) -> Iterable[Emission]:
        (
            record_type,
            time,
            vid,
            speed,
            xway,
            lane,
            direction,
            segment,
            position,
            query_id,
            day,
        ) = item.values
        if record_type == POSITION_REPORT:
            yield POSITION_STREAM, (
                time,
                vid,
                speed,
                xway,
                lane,
                direction,
                segment,
                position,
            )
        elif record_type == ACCOUNT_BALANCE_REQUEST:
            yield BALANCE_STREAM, (time, vid, query_id)
        elif record_type == DAILY_EXPENDITURE_REQUEST:
            yield DAILY_STREAM, (time, vid, query_id, day)

    def process_columns(self, batch: ColumnBatch) -> Iterable[ColumnBatch]:
        # One output batch per typed stream.  Rows keep their relative
        # order within each stream, which is all downstream edges can
        # observe (the three streams go to disjoint consumers).
        cols = batch.columns
        record_types = cols[0]
        for record_type, stream, schema, fields in (
            (POSITION_REPORT, POSITION_STREAM, "qqqqqqqq", (1, 2, 3, 4, 5, 6, 7, 8)),
            (ACCOUNT_BALANCE_REQUEST, BALANCE_STREAM, "qqq", (1, 2, 9)),
            (DAILY_EXPENDITURE_REQUEST, DAILY_STREAM, "qqqq", (1, 2, 9, 10)),
        ):
            rows = np.flatnonzero(record_types == record_type)
            if len(rows) == 0:
                continue
            yield ColumnBatch.build(
                stream, schema, [cols[f][rows] for f in fields], index=rows
            )


#: Field indices inside a position-report tuple.
_POS_TIME, _POS_VID, _POS_SPEED, _POS_XWAY, _POS_LANE, _POS_DIR, _POS_SEG, _POS_POS = (
    range(8)
)


def _segment_key(values: tuple) -> tuple[int, int, int]:
    return values[_POS_XWAY], values[_POS_DIR], values[_POS_SEG]


class AverageSpeed(Operator):
    """Running average speed per (xway, dir, segment); selectivity 1.

    Emits ``(xway, dir, seg, avg_speed)`` on ``avg_stream``.
    """

    declared_fields = {AVG_STREAM: "qqqd"}
    column_schemas = ("qqqqqqqq",)

    def __init__(self, window: int = 256) -> None:
        self.window = window
        self._speeds: dict[tuple[int, int, int], deque[int]] = {}
        self._sums: dict[tuple[int, int, int], float] = {}

    def process(self, item: StreamTuple) -> Iterable[Emission]:
        key = _segment_key(item.values)
        speed = item.values[_POS_SPEED]
        history = self._speeds.get(key)
        if history is None:
            history = deque()
            self._speeds[key] = history
            self._sums[key] = 0.0
        history.append(speed)
        self._sums[key] += speed
        if len(history) > self.window:
            self._sums[key] -= history.popleft()
        average = self._sums[key] / len(history)
        yield AVG_STREAM, (*key, average)

    def process_columns(self, batch: ColumnBatch) -> Iterable[ColumnBatch]:
        # A windowed running sum is sequential per segment, so the loop
        # stays scalar over pure-Python values, in ``process``'s float
        # order: add the new speed, subtract the evicted one, divide.
        cols = batch.columns
        speeds = cols[_POS_SPEED].tolist()
        xways = cols[_POS_XWAY].tolist()
        dirs = cols[_POS_DIR].tolist()
        segs = cols[_POS_SEG].tolist()
        histories = self._speeds
        sums = self._sums
        window = self.window
        averages = np.empty(len(speeds), dtype="<f8")
        for i in range(len(speeds)):
            key = (xways[i], dirs[i], segs[i])
            speed = speeds[i]
            history = histories.get(key)
            if history is None:
                history = histories[key] = deque()
                sums[key] = 0.0
            history.append(speed)
            total = sums[key] + speed
            if len(history) > window:
                total -= history.popleft()
            sums[key] = total
            averages[i] = total / len(history)
        yield ColumnBatch.build(
            AVG_STREAM,
            "qqqd",
            [cols[_POS_XWAY], cols[_POS_DIR], cols[_POS_SEG], averages],
        )

    def snapshot_state(self) -> dict:
        # Sums are snapshotted as-is (never recomputed) so restored
        # replicas continue the exact float accumulation sequence.
        return {
            "speeds": {key: list(history) for key, history in self._speeds.items()},
            "sums": dict(self._sums),
        }

    def restore_state(self, state: dict) -> None:
        self._speeds = {key: deque(history) for key, history in state["speeds"].items()}
        self._sums = dict(state["sums"])


class LastAverageSpeed(Operator):
    """Latest average velocity (LAV) per segment; selectivity 1.

    Emits ``(xway, dir, seg, lav)`` on ``las_stream``.
    """

    declared_fields = {LAS_STREAM: "qqqd"}
    column_schemas = ("qqqd",)

    def __init__(self) -> None:
        self._lav: dict[tuple[int, int, int], float] = {}

    def process(self, item: StreamTuple) -> Iterable[Emission]:
        xway, direction, segment, average = item.values
        key = (xway, direction, segment)
        self._lav[key] = average
        yield LAS_STREAM, (xway, direction, segment, average)

    def process_columns(self, batch: ColumnBatch) -> Iterable[ColumnBatch]:
        # ``dict.update`` over the rows in order: the last row of a key
        # wins and first-seen keys keep their insertion order, as one
        # assignment per tuple leaves them.  The batch passes through.
        cols = batch.columns
        self._lav.update(
            zip(
                zip(cols[0].tolist(), cols[1].tolist(), cols[2].tolist()),
                cols[3].tolist(),
            )
        )
        yield ColumnBatch.build(LAS_STREAM, "qqqd", list(cols))

    def snapshot_state(self) -> dict:
        return {"lav": dict(self._lav)}

    def restore_state(self, state: dict) -> None:
        self._lav = dict(state["lav"])


class AccidentDetector(Operator):
    """Detects stopped vehicles (4 consecutive reports at one position).

    Emits ``(xway, dir, seg, time)`` on ``detect_stream`` only when an
    accident is *first* detected, so selectivity is ~0 (Table 8).
    """

    declared_fields = {DETECT_STREAM: "qqqq"}

    def __init__(self, stopped_reports: int = ACCIDENT_STOPPED_REPORTS) -> None:
        self.stopped_reports = stopped_reports
        self._stopped_counts: dict[int, tuple[int, int]] = {}
        self._active_accidents: set[tuple[int, int, int]] = set()
        self.detected = 0

    def process(self, item: StreamTuple) -> Iterable[Emission]:
        vid = item.values[_POS_VID]
        speed = item.values[_POS_SPEED]
        position = item.values[_POS_POS]
        key = _segment_key(item.values)
        if speed > 0:
            self._stopped_counts.pop(vid, None)
            self._active_accidents.discard(key)
            return
        last_position, count = self._stopped_counts.get(vid, (position, 0))
        count = count + 1 if last_position == position else 1
        self._stopped_counts[vid] = (position, count)
        if count >= self.stopped_reports and key not in self._active_accidents:
            self._active_accidents.add(key)
            self.detected += 1
            yield DETECT_STREAM, (*key, item.values[_POS_TIME])

    def snapshot_state(self) -> dict:
        return {
            "stopped_counts": {
                vid: list(entry) for vid, entry in self._stopped_counts.items()
            },
            "active_accidents": sorted(self._active_accidents),
            "detected": self.detected,
        }

    def restore_state(self, state: dict) -> None:
        self._stopped_counts = {
            vid: tuple(entry) for vid, entry in state["stopped_counts"].items()
        }
        self._active_accidents = {tuple(key) for key in state["active_accidents"]}
        self.detected = state["detected"]


class CountVehicles(Operator):
    """Distinct vehicles per (xway, dir, segment, minute); selectivity 1.

    Emits ``(xway, dir, seg, count)`` on ``counts_stream``.
    """

    declared_fields = {COUNTS_STREAM: "qqqq"}
    column_schemas = ("qqqqqqqq",)

    def __init__(self, minute_length: int = 60) -> None:
        self.minute_length = minute_length
        self._minute: dict[tuple[int, int, int], int] = {}
        self._vehicles: dict[tuple[int, int, int], set[int]] = {}

    def process(self, item: StreamTuple) -> Iterable[Emission]:
        key = _segment_key(item.values)
        minute = item.values[_POS_TIME] // self.minute_length
        if self._minute.get(key) != minute:
            self._minute[key] = minute
            self._vehicles[key] = set()
        self._vehicles[key].add(item.values[_POS_VID])
        yield COUNTS_STREAM, (*key, len(self._vehicles[key]))

    def process_columns(self, batch: ColumnBatch) -> Iterable[ColumnBatch]:
        # Per-segment distinct counting is inherently sequential (each
        # row's count depends on the set built by its predecessors), so
        # the loop stays scalar over pure-Python ints; the batch assembly
        # and the unchanged key columns are the columnar win.
        cols = batch.columns
        times = cols[_POS_TIME].tolist()
        vids = cols[_POS_VID].tolist()
        xways = cols[_POS_XWAY].tolist()
        dirs = cols[_POS_DIR].tolist()
        segs = cols[_POS_SEG].tolist()
        minute_of = self._minute
        vehicles_of = self._vehicles
        minute_length = self.minute_length
        counts = np.empty(len(times), dtype="<i8")
        for i in range(len(times)):
            key = (xways[i], dirs[i], segs[i])
            minute = times[i] // minute_length
            if minute_of.get(key) != minute:
                minute_of[key] = minute
                vehicles_of[key] = set()
            bucket = vehicles_of[key]
            bucket.add(vids[i])
            counts[i] = len(bucket)
        yield ColumnBatch.build(
            COUNTS_STREAM,
            "qqqq",
            [cols[_POS_XWAY], cols[_POS_DIR], cols[_POS_SEG], counts],
        )

    def snapshot_state(self) -> dict:
        return {
            "minute": dict(self._minute),
            "vehicles": {
                key: sorted(vids) for key, vids in self._vehicles.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        self._minute = dict(state["minute"])
        self._vehicles = {key: set(vids) for key, vids in state["vehicles"].items()}


class AccidentNotifier(Operator):
    """Notifies vehicles entering a segment with an active accident.

    Consumes ``detect_stream`` (broadcast: updates accident table, emits
    nothing) and position reports (emits ``notify_stream`` only for
    affected vehicles — selectivity ~0).
    """

    declared_fields = {NOTIFY_STREAM: "qqqqq"}
    column_schemas = ("qqqq", "qqqqqqqq")

    def __init__(self) -> None:
        self._accidents: set[tuple[int, int, int]] = set()
        self.notified = 0

    def process(self, item: StreamTuple) -> Iterable[Emission]:
        if item.stream == DETECT_STREAM:
            xway, direction, segment, _time = item.values
            self._accidents.add((xway, direction, segment))
            return
        key = _segment_key(item.values)
        if key in self._accidents:
            self.notified += 1
            yield NOTIFY_STREAM, (
                item.values[_POS_VID],
                *key,
                item.values[_POS_TIME],
            )

    def process_columns(self, batch: ColumnBatch) -> Iterable[ColumnBatch]:
        # Wire batches carry one stream each, as in ``TollNotifier``.
        cols = batch.columns
        accidents = self._accidents
        if batch.stream == DETECT_STREAM:
            accidents.update(
                zip(cols[0].tolist(), cols[1].tolist(), cols[2].tolist())
            )
            return
        if not accidents:
            return  # the common case: no accident yet, nobody to notify
        keys = zip(
            cols[_POS_XWAY].tolist(),
            cols[_POS_DIR].tolist(),
            cols[_POS_SEG].tolist(),
        )
        rows = [i for i, key in enumerate(keys) if key in accidents]
        if not rows:
            return
        self.notified += len(rows)
        yield ColumnBatch.build(
            NOTIFY_STREAM,
            "qqqqq",
            [
                cols[field][rows]
                for field in (_POS_VID, _POS_XWAY, _POS_DIR, _POS_SEG, _POS_TIME)
            ],
            index=rows,
        )

    def snapshot_state(self) -> dict:
        return {"accidents": sorted(self._accidents), "notified": self.notified}

    def restore_state(self, state: dict) -> None:
        self._accidents = {tuple(key) for key in state["accidents"]}
        self.notified = state["notified"]


class TollNotifier(Operator):
    """Computes tolls from segment statistics (Table 8: selectivity 1 on
    position, counts and LAV streams; ~0 on the accident stream).

    State: latest LAV and vehicle count per segment, active accidents.
    * position report -> ``(vid, toll, time)`` toll notification;
    * counts/las input -> updated ``(xway, dir, seg, toll)`` record;
    * detect input -> updates the accident table, emits nothing.
    """

    column_schemas = ("qqqq", "qqqd", "qqqqqqqq")

    def __init__(self) -> None:
        self._lav: dict[tuple[int, int, int], float] = {}
        self._counts: dict[tuple[int, int, int], int] = {}
        self._accidents: set[tuple[int, int, int]] = set()
        self.tolls_charged = 0

    def _toll(self, key: tuple[int, int, int], lav: float, count: int) -> int:
        """The toll a segment with LAV ``lav`` and ``count`` vehicles
        charges: nonzero only while it is congested and accident-free."""
        if key in self._accidents:
            return 0  # tolls suspended in accident segments
        if lav >= CONGESTION_SPEED or count <= CONGESTION_THRESHOLD:
            return 0
        return BASE_TOLL * (count - CONGESTION_THRESHOLD) ** 2

    def _toll_for(self, key: tuple[int, int, int]) -> int:
        return self._toll(key, self._lav.get(key, 100.0), self._counts.get(key, 0))

    def process(self, item: StreamTuple) -> Iterable[Emission]:
        if item.stream == DETECT_STREAM:
            xway, direction, segment, _time = item.values
            self._accidents.add((xway, direction, segment))
            return
        if item.stream == LAS_STREAM:
            xway, direction, segment, lav = item.values
            key = (xway, direction, segment)
            self._lav[key] = lav
            yield TOLL_STREAM, (*key, self._toll_for(key))
            return
        if item.stream == COUNTS_STREAM:
            xway, direction, segment, count = item.values
            key = (xway, direction, segment)
            self._counts[key] = count
            yield TOLL_STREAM, (*key, self._toll_for(key))
            return
        # Position report: charge the vehicle the current segment toll.
        key = _segment_key(item.values)
        toll = self._toll_for(key)
        if toll > 0:
            self.tolls_charged += 1
        yield TOLL_STREAM, (item.values[_POS_VID], toll, item.values[_POS_TIME])

    # No declared_fields: TOLL_STREAM mixes arity-4 segment records with
    # arity-3 vehicle notifications, so the codec infers (and falls back)
    # per batch instead.

    def process_columns(self, batch: ColumnBatch) -> Iterable[ColumnBatch]:
        # Wire batches carry one stream each, so the per-tuple stream
        # branch becomes a per-batch branch.  A toll is nonzero only on
        # a congested, accident-free segment — usually none — so no row
        # pays a lookup unless its own value, or its segment, can toll.
        cols = batch.columns
        if batch.stream == DETECT_STREAM:
            self._accidents.update(
                zip(cols[0].tolist(), cols[1].tolist(), cols[2].tolist())
            )
            return
        n = len(batch)
        tolls = np.zeros(n, dtype="<i8")
        if batch.stream in (LAS_STREAM, COUNTS_STREAM):
            keys = list(zip(cols[0].tolist(), cols[1].tolist(), cols[2].tolist()))
            latest = cols[3].tolist()
            # A row's toll reads its own new value and the other table,
            # which this batch leaves alone; rows whose value cannot
            # toll (LAV not below the speed, count not above the
            # threshold) read nothing.
            las = batch.stream == LAS_STREAM
            tolling = np.flatnonzero(
                ~(cols[3] >= CONGESTION_SPEED) if las else cols[3] > CONGESTION_THRESHOLD
            )
            # One update in row order: the last row of a key wins and
            # first-seen keys keep their order, as per-row assignment.
            (self._lav if las else self._counts).update(zip(keys, latest))
            for i in tolling.tolist():
                key = keys[i]
                if las:
                    tolls[i] = self._toll(key, latest[i], self._counts.get(key, 0))
                else:
                    tolls[i] = self._toll(key, self._lav.get(key, 100.0), latest[i])
            yield ColumnBatch.build(
                TOLL_STREAM, "qqqq", [cols[0], cols[1], cols[2], tolls]
            )
            return
        # Position reports: charge each vehicle its segment's toll,
        # computed once per tolled segment and gathered into the rows.
        counts = self._counts
        tolled = {
            key: toll
            for key, lav in self._lav.items()
            if not lav >= CONGESTION_SPEED
            and (toll := self._toll(key, lav, counts.get(key, 0)))
        }
        if tolled:
            keys = zip(
                cols[_POS_XWAY].tolist(),
                cols[_POS_DIR].tolist(),
                cols[_POS_SEG].tolist(),
            )
            tolls = np.fromiter(
                map(tolled.get, keys, repeat(0)), dtype="<i8", count=n
            )
            self.tolls_charged += int(np.count_nonzero(tolls))
        yield ColumnBatch.build(
            TOLL_STREAM, "qqq", [cols[_POS_VID], tolls, cols[_POS_TIME]]
        )

    def snapshot_state(self) -> dict:
        return {
            "lav": dict(self._lav),
            "counts": dict(self._counts),
            "accidents": sorted(self._accidents),
            "tolls_charged": self.tolls_charged,
        }

    def restore_state(self, state: dict) -> None:
        self._lav = dict(state["lav"])
        self._counts = dict(state["counts"])
        self._accidents = {tuple(key) for key in state["accidents"]}
        self.tolls_charged = state["tolls_charged"]


class DailyExpenditure(Operator):
    """Answers historical daily-expenditure queries from a synthetic table."""

    declared_fields = {DEFAULT_STREAM: "qqq"}
    column_schemas = ("qqqq",)

    def process(self, item: StreamTuple) -> Iterable[Emission]:
        time, vid, query_id, day = item.values
        # Deterministic synthetic history: charge derived from (vid, day).
        charge = (vid * 31 + day * 7) % 90
        yield DEFAULT_STREAM, (query_id, time, charge)

    def process_columns(self, batch: ColumnBatch) -> Iterable[ColumnBatch]:
        time, vid, query_id, day = batch.columns
        # Reduced mod 90 first, so no int64 product can overflow: numpy's
        # ``%`` floors like Python's, and the residue is the same.
        charge = ((vid % 90) * 31 + (day % 90) * 7) % 90
        yield ColumnBatch.build(DEFAULT_STREAM, "qqq", [query_id, time, charge])


class AccountBalance(Operator):
    """Answers account-balance queries from per-vehicle running balances."""

    declared_fields = {DEFAULT_STREAM: "qqq"}
    column_schemas = ("qqq",)

    def __init__(self) -> None:
        self._balances: dict[int, int] = {}

    def process(self, item: StreamTuple) -> Iterable[Emission]:
        time, vid, query_id = item.values
        balance = self._balances.get(vid, 0)
        yield DEFAULT_STREAM, (query_id, time, balance)

    def process_columns(self, batch: ColumnBatch) -> Iterable[ColumnBatch]:
        time, vid, query_id = batch.columns
        get = self._balances.get
        balances = [get(v, 0) for v in vid.tolist()]
        yield ColumnBatch.build(DEFAULT_STREAM, "qqq", [query_id, time, balances])

    def snapshot_state(self) -> dict:
        return {"balances": dict(self._balances)}

    def restore_state(self, state: dict) -> None:
        self._balances = dict(state["balances"])


class LinearRoadSink(Sink):
    """Counts all notifications/responses reaching the end of the DAG."""


def build_linear_road(seed: int = 17, n_vehicles: int = 2000) -> Topology:
    """Build the full LR topology with Table 8's stream structure."""
    builder = TopologyBuilder("lr")
    builder.set_spout("spout", LinearRoadSpout(seed=seed, n_vehicles=n_vehicles))
    builder.add_operator("parser", LinearRoadParser()).shuffle_from("spout")
    builder.add_operator("dispatcher", Dispatcher()).shuffle_from("parser")
    builder.add_operator("avg_speed", AverageSpeed()).fields_from(
        "dispatcher", _POS_XWAY, _POS_DIR, _POS_SEG, stream=POSITION_STREAM
    )
    builder.add_operator("las_avg_speed", LastAverageSpeed()).fields_from(
        "avg_speed", 0, 1, 2, stream=AVG_STREAM
    )
    builder.add_operator("accident_detect", AccidentDetector()).fields_from(
        "dispatcher", _POS_VID, stream=POSITION_STREAM
    )
    builder.add_operator("count_vehicles", CountVehicles()).fields_from(
        "dispatcher", _POS_XWAY, _POS_DIR, _POS_SEG, stream=POSITION_STREAM
    )
    (
        builder.add_operator("accident_notify", AccidentNotifier())
        .fields_from("dispatcher", _POS_VID, stream=POSITION_STREAM)
        .broadcast_from("accident_detect", stream=DETECT_STREAM)
    )
    (
        builder.add_operator("toll_notify", TollNotifier())
        .fields_from("dispatcher", _POS_XWAY, _POS_DIR, _POS_SEG, stream=POSITION_STREAM)
        .fields_from("count_vehicles", 0, 1, 2, stream=COUNTS_STREAM)
        .fields_from("las_avg_speed", 0, 1, 2, stream=LAS_STREAM)
        .broadcast_from("accident_detect", stream=DETECT_STREAM)
    )
    builder.add_operator("daily_expenditure", DailyExpenditure()).fields_from(
        "dispatcher", 1, stream=DAILY_STREAM
    )
    builder.add_operator("account_balance", AccountBalance()).fields_from(
        "dispatcher", 1, stream=BALANCE_STREAM
    )
    (
        builder.add_sink("sink", LinearRoadSink())
        .shuffle_from("toll_notify", stream=TOLL_STREAM)
        .shuffle_from("accident_notify", stream=NOTIFY_STREAM)
        .shuffle_from("daily_expenditure")
        .shuffle_from("account_balance")
    )
    return builder.build()
