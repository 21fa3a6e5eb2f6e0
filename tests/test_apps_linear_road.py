"""Functional tests for the Linear Road application."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_linear_road
from repro.apps.linear_road import (
    AccidentDetector,
    BALANCE_STREAM,
    COUNTS_STREAM,
    DAILY_STREAM,
    DETECT_STREAM,
    Dispatcher,
    LAS_STREAM,
    POSITION_STREAM,
    TollNotifier,
    TOLL_STREAM,
)
from repro.dsps import LocalEngine, StreamTuple
from repro.dsps.operators import Operator
from repro.runtime import ProcessPoolBackend
from repro.runtime.dataplane import ColumnBatch


class TestDispatcher:
    def test_routes_by_record_type(self):
        dispatcher = Dispatcher()
        position = list(
            dispatcher.process(
                StreamTuple(values=(0, 10, 7, 55, 1, 2, 0, 3, 15900, 0, 0))
            )
        )
        balance = list(
            dispatcher.process(
                StreamTuple(values=(2, 11, 7, 0, 0, 0, 0, 0, 0, 42, 0))
            )
        )
        daily = list(
            dispatcher.process(
                StreamTuple(values=(3, 12, 7, 0, 0, 0, 0, 0, 0, 43, 5))
            )
        )
        assert position[0][0] == POSITION_STREAM
        assert balance[0][0] == BALANCE_STREAM
        assert daily[0][0] == DAILY_STREAM


class TestAccidentDetector:
    def test_four_stopped_reports_trigger(self):
        detector = AccidentDetector()
        report = (100, 9, 0, 1, 2, 0, 3, 15900)
        emissions = []
        for _ in range(4):
            emissions.extend(
                detector.process(StreamTuple(values=report, stream=POSITION_STREAM))
            )
        assert len(emissions) == 1
        assert emissions[0][0] == DETECT_STREAM
        assert detector.detected == 1

    def test_moving_vehicle_never_triggers(self):
        detector = AccidentDetector()
        for position in range(0, 400, 100):
            report = (100, 9, 60, 1, 2, 0, 3, position)
            assert not list(
                detector.process(StreamTuple(values=report, stream=POSITION_STREAM))
            )

    def test_no_duplicate_alert_for_same_accident(self):
        detector = AccidentDetector()
        report = (100, 9, 0, 1, 2, 0, 3, 15900)
        total = []
        for _ in range(10):
            total.extend(
                detector.process(StreamTuple(values=report, stream=POSITION_STREAM))
            )
        assert len(total) == 1


class TestTollNotifier:
    def test_congestion_charges_toll(self):
        notifier = TollNotifier()
        key = (1, 0, 3)
        notifier.process(
            StreamTuple(values=(*key, 20.0), stream="las_stream")
        ).__iter__().__next__()
        list(notifier.process(StreamTuple(values=(*key, 80), stream="counts_stream")))
        out = list(
            notifier.process(
                StreamTuple(
                    values=(100, 9, 30, 1, 2, 0, 3, 15900), stream=POSITION_STREAM
                )
            )
        )
        assert out[0][0] == TOLL_STREAM
        assert out[0][1][1] > 0  # toll charged
        assert notifier.tolls_charged == 1

    def test_free_flow_is_toll_free(self):
        notifier = TollNotifier()
        out = list(
            notifier.process(
                StreamTuple(
                    values=(100, 9, 80, 1, 2, 0, 3, 15900), stream=POSITION_STREAM
                )
            )
        )
        assert out[0][1][1] == 0

    def test_accident_suspends_tolls(self):
        notifier = TollNotifier()
        key = (1, 0, 3)
        list(notifier.process(StreamTuple(values=(*key, 20.0), stream="las_stream")))
        list(notifier.process(StreamTuple(values=(*key, 80), stream="counts_stream")))
        list(notifier.process(StreamTuple(values=(*key, 100), stream=DETECT_STREAM)))
        out = list(
            notifier.process(
                StreamTuple(
                    values=(100, 9, 30, 1, 2, 0, 3, 15900), stream=POSITION_STREAM
                )
            )
        )
        assert out[0][1][1] == 0


#: A few segments, so that one batch repeats keys.
_SEGMENT = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 2))
#: One batch of one stream, its values around the congestion thresholds
#: (LAV 40, 50 vehicles), so that tolls are charged and suspended.
_TOLL_BATCH = st.one_of(
    st.tuples(
        st.just(LAS_STREAM),
        st.lists(st.tuples(_SEGMENT, st.floats(0.0, 80.0)), min_size=1, max_size=12),
    ),
    st.tuples(
        st.just(COUNTS_STREAM),
        st.lists(st.tuples(_SEGMENT, st.integers(0, 100)), min_size=1, max_size=12),
    ),
    st.tuples(
        st.just(DETECT_STREAM),
        st.lists(st.tuples(_SEGMENT, st.integers(0, 9)), min_size=1, max_size=2),
    ),
    st.tuples(
        st.just(POSITION_STREAM),
        st.lists(st.tuples(_SEGMENT, st.integers(0, 99)), min_size=1, max_size=12),
    ),
)


def _toll_inputs(stream, rows):
    """``rows`` as the notifier's input tuples of ``stream``."""
    if stream == POSITION_STREAM:
        # (time, vid, speed, xway, lane, dir, seg, pos)
        values = [(vid, vid + 1, 0, x, 1, d, s, 0) for (x, d, s), vid in rows]
    else:
        values = [(*segment, value) for segment, value in rows]
    return [StreamTuple(values=v, stream=stream) for v in values]


class TestTollKernel:
    """``TollNotifier.process_columns`` is ``process`` batch by batch:
    the seed-7 stream charges no toll, so this drives congested segments,
    accidents and keys repeated within one batch."""

    @staticmethod
    def assert_kernel_is_process(batches):
        scalar, columnar = TollNotifier(), TollNotifier()
        for stream, rows in batches:
            items = _toll_inputs(stream, rows)
            want = [
                values for item in items for _, values in scalar.process(item)
            ]
            got = [
                row
                for out in columnar.process_columns(ColumnBatch.from_tuples(items))
                for row in zip(*(column.tolist() for column in out.columns))
            ]
            assert got == want
        assert columnar.tolls_charged == scalar.tolls_charged
        want_state, got_state = scalar.snapshot_state(), columnar.snapshot_state()
        assert got_state == want_state
        for table in ("lav", "counts"):
            assert list(got_state[table]) == list(want_state[table])
        return scalar.tolls_charged

    def test_congested_segments_charge_in_one_batch(self):
        charged = self.assert_kernel_is_process(
            [
                (LAS_STREAM, [((0, 0, 0), 20.0), ((0, 0, 1), 20.0), ((0, 0, 0), 30.0)]),
                (COUNTS_STREAM, [((0, 0, 0), 80), ((0, 0, 1), 60), ((0, 0, 0), 70)]),
                (DETECT_STREAM, [((0, 0, 1), 5)]),
                (POSITION_STREAM, [((0, 0, 0), 1), ((0, 0, 1), 2), ((0, 0, 2), 3)]),
            ]
        )
        assert charged == 1

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_TOLL_BATCH, min_size=1, max_size=12))
    def test_any_batch_sequence(self, batches):
        self.assert_kernel_is_process(batches)


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def run(self):
        return LocalEngine(build_linear_road()).run(3000)

    def test_dispatcher_selectivities_match_table8(self, run):
        assert run.selectivity("dispatcher", POSITION_STREAM) > 0.97
        assert run.selectivity("dispatcher", BALANCE_STREAM) < 0.02
        assert run.selectivity("dispatcher", DAILY_STREAM) < 0.02

    def test_unit_selectivity_operators(self, run):
        for component in ("avg_speed", "las_avg_speed", "count_vehicles"):
            assert run.selectivity(component) == pytest.approx(1.0)

    def test_accident_streams_are_rare(self, run):
        assert run.selectivity("accident_detect") < 0.05
        assert run.selectivity("accident_notify") < 0.2

    def test_toll_notifier_answers_every_input(self, run):
        # ~1.0: the accident-stream inputs (selectivity 0) are a sliver.
        assert run.selectivity("toll_notify") == pytest.approx(1.0, abs=0.01)

    def test_sink_receives_several_streams(self, run):
        # toll notifications dominate (3 inputs x sel 1 on ~99% of events)
        assert run.sink_received() > 2.5 * run.events_ingested

    def test_topology_has_eleven_components_plus_sink(self):
        topology = build_linear_road()
        assert len(topology) == 12
        assert set(topology.sinks) == {"sink"}

    def test_replicated_run_consistent(self):
        replication = {
            "spout": 1,
            "parser": 2,
            "dispatcher": 2,
            "avg_speed": 3,
            "las_avg_speed": 2,
            "accident_detect": 2,
            "count_vehicles": 3,
            "accident_notify": 2,
            "toll_notify": 4,
            "daily_expenditure": 1,
            "account_balance": 1,
            "sink": 2,
        }
        run = LocalEngine(build_linear_road(), replication=replication).run(1500)
        assert run.selectivity("toll_notify") == pytest.approx(1.0, abs=0.05)
        assert run.sink_received() > 2.5 * run.events_ingested


def per_component(result):
    components = sorted({s.component for s in result.task_stats.values()})
    return (
        result.events_ingested,
        result.sink_received(),
        {c: (result.component_in(c), result.component_out(c)) for c in components},
    )


class TestKernels:
    """LR runs columnar from spout to sink; only the accident detector
    keeps its scalar path."""

    @pytest.mark.parametrize("epoch_interval", (None, 2500), ids=("free", "epochs"))
    @pytest.mark.parametrize("seed", (7, 11))
    def test_benchmark_operating_point_equals_the_scalar_reference(
        self, seed, epoch_interval
    ):
        """``lr_epochs_shm``'s per-slice oracle: 8 000 events, inline and
        on two process workers in arrival order, equal per component to
        the scalar inline run.  ``accident_notify``'s count depends on
        when the detections reach it, so a detector kernel — routing its
        detections at once instead of holding them in an output buffer
        until the phase flush — fails here on the process backend."""
        barriers = {} if epoch_interval is None else {"epoch_interval": epoch_interval}
        reference = per_component(
            LocalEngine(
                build_linear_road(seed=seed), vectorized="off", **barriers
            ).run(8000)
        )
        inline = LocalEngine(build_linear_road(seed=seed), **barriers).run(8000)
        process = LocalEngine(
            build_linear_road(seed=seed),
            backend=ProcessPoolBackend(n_workers=2),
            queue_budget=4096,
            **barriers,
        ).run(8000)
        assert per_component(inline) == reference
        assert per_component(process) == reference

    def test_the_detector_is_the_only_per_tuple_operator(self, monkeypatch):
        topology = build_linear_road(seed=7)
        called = set()
        for name in topology.components:
            template = topology.component(name).template
            if not isinstance(template, Operator):
                continue
            # Patch where ``process`` is defined, so a sink keeps the
            # default ``Sink.process`` its columnar intake is gated on.
            owner = next(c for c in type(template).__mro__ if "process" in vars(c))

            def spy(self, item, _process=owner.process):
                called.add(type(self).__name__)
                return _process(self, item)

            monkeypatch.setattr(owner, "process", spy)
        result = LocalEngine(topology).run(8000)
        assert result.component_in("accident_detect") > 0
        assert called == {"AccidentDetector"}
        assert not AccidentDetector.supports_columns()
