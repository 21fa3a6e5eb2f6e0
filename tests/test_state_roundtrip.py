"""Property suite for the operator state contract (snapshot/restore).

The round-trip law from :meth:`Operator.snapshot_state`: feed an operator
an arbitrary prefix of tuples, snapshot it, restore the snapshot into a
*fresh* replica, and the replica must be indistinguishable from the
original — the same suffix of inputs yields the same emissions and the
same next snapshot.  The law is what makes epoch checkpoints, supervisor
resume and live migration correct (docs/reconfiguration.md), so it is
checked property-style across every stateful operator of the four
applications, with the snapshot additionally forced through
``check_serializable`` and a real pickle round-trip — exactly the path a
checkpoint share takes.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.fraud_detection import FraudSink, MarkovPredictor
from repro.apps.linear_road import (
    COUNTS_STREAM,
    DETECT_STREAM,
    LAS_STREAM,
    AccidentDetector,
    AccountBalance,
    AverageSpeed,
    CountVehicles,
    LastAverageSpeed,
    LinearRoadSink,
    TollNotifier,
)
from repro.apps.spike_detection import MovingAverage, SpikeDetector, SpikeSink
from repro.apps.wordcount import Counter, Splitter, WordCountSink
from repro.core.fusion import FusedOperator
from repro.dsps import Sink
from repro.dsps.tuples import StreamTuple
from repro.runtime import check_serializable

# ---------------------------------------------------------------------------
# Input-tuple strategies, one per operator input schema
# ---------------------------------------------------------------------------

_WORDS = st.sampled_from(["the", "quick", "fox", "a", "stream"])
_DEVICES = st.sampled_from(["dev-0", "dev-1", "dev-2"])
_FLOATS = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
_STATES = st.sampled_from(["low", "mid", "high", "odd"])

word_tuples = st.builds(lambda w: StreamTuple(values=(w,)), _WORDS)
reading_tuples = st.builds(
    lambda d, v, t: StreamTuple(values=(d, v, t)),
    _DEVICES,
    _FLOATS,
    st.integers(min_value=0, max_value=10**9),
)
average_tuples = st.builds(
    lambda d, a, v: StreamTuple(values=(d, a, v)), _DEVICES, _FLOATS, _FLOATS
)
trace_tuples = st.builds(
    lambda e, states: StreamTuple(values=(e, ",".join(states))),
    st.sampled_from(["acct-1", "acct-2"]),
    st.lists(_STATES, min_size=1, max_size=6),
)
fraud_tuples = st.builds(
    lambda e, s, f: StreamTuple(values=(e, s, f)),
    st.sampled_from(["acct-1", "acct-2"]),
    _FLOATS,
    st.booleans(),
)
# LR position report: (time, vid, speed, xway, lane, dir, seg, pos).
position_tuples = st.builds(
    lambda t, vid, speed, xway, direction, seg, pos: StreamTuple(
        values=(t, vid, speed, xway, 0, direction, seg, pos)
    ),
    st.integers(min_value=0, max_value=600),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=5),
)
# The toll notifier branches per input stream: position reports on the
# default stream plus LAV / vehicle-count / accident-detect records.
toll_input_tuples = st.one_of(
    position_tuples,
    st.builds(
        lambda stream, xway, direction, seg, v: StreamTuple(
            values=(xway, direction, seg, v), stream=stream
        ),
        st.sampled_from([LAS_STREAM, COUNTS_STREAM, DETECT_STREAM]),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=200),
    ),
)
segment_stat_tuples = st.builds(
    lambda xway, direction, seg, v: StreamTuple(
        values=(xway, direction, seg, v)
    ),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=2),
    _FLOATS,
)

#: (operator factory, input strategy) for every stateful operator; the
#: factory runs per example so replicas never share state.
CASES = {
    "wc-counter": (Counter, word_tuples),
    "wc-sink": (WordCountSink, word_tuples),
    "sd-moving-average": (MovingAverage, reading_tuples),
    "sd-spike-detector": (SpikeDetector, average_tuples),
    "sd-sink": (
        lambda: SpikeSink(keep_samples=4),
        st.builds(
            lambda d, v, a, s: StreamTuple(values=(d, v, a, s)),
            _DEVICES,
            _FLOATS,
            _FLOATS,
            st.booleans(),
        ),
    ),
    "fd-markov-predictor": (MarkovPredictor, trace_tuples),
    "fd-sink": (lambda: FraudSink(keep_samples=4), fraud_tuples),
    "lr-average-speed": (lambda: AverageSpeed(window=4), position_tuples),
    "lr-last-average-speed": (LastAverageSpeed, segment_stat_tuples),
    "lr-accident-detector": (AccidentDetector, position_tuples),
    "lr-count-vehicles": (lambda: CountVehicles(minute_length=60), position_tuples),
    "lr-toll-notifier": (TollNotifier, toll_input_tuples),
    "lr-account-balance": (
        AccountBalance,
        # Balance query: (time, vid, query_id).
        st.builds(
            lambda t, vid, q: StreamTuple(values=(t, vid, q)),
            st.integers(min_value=0, max_value=600),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=99),
        ),
    ),
    "lr-sink": (lambda: LinearRoadSink(keep_samples=4), segment_stat_tuples),
    "base-sink": (lambda: Sink(keep_samples=4), word_tuples),
    # Fused chains delegate snapshot/restore to every constituent, so a
    # fused stateful pair must satisfy the same round-trip law (runtime
    # fusion keeps per-task snapshots; core fuse() rewrites share this).
    "fused-splitter-counter": (
        lambda: FusedOperator(Splitter(), Counter()),
        st.builds(
            lambda words: StreamTuple(values=(" ".join(words),)),
            st.lists(_WORDS, min_size=1, max_size=5),
        ),
    ),
    "fused-average-detector": (
        lambda: FusedOperator(MovingAverage(), SpikeDetector()),
        reading_tuples,
    ),
}


def _feed(operator, items):
    return [
        (stream, tuple(values))
        for item in items
        for stream, values in operator.process(item)
    ]


def _strategy(name):
    factory, tuples = CASES[name]
    return st.tuples(
        st.just(factory),
        st.lists(tuples, max_size=30),
        st.lists(tuples, max_size=15),
    )


@st.composite
def _case(draw):
    name = draw(st.sampled_from(sorted(CASES)))
    return (name, *draw(_strategy(name)))


@given(case=_case())
@settings(max_examples=200, deadline=None)
def test_snapshot_restore_round_trip(case):
    """Prefix -> snapshot -> pickle -> restore: suffix behaviour identical."""
    name, factory, prefix, suffix = case
    original = factory()
    _feed(original, prefix)
    state = original.snapshot_state()
    # The contract: plain data only, surviving the checkpoint codec.
    check_serializable(state, path=f"{name} state")
    moved = pickle.loads(pickle.dumps(state, protocol=5))

    restored = factory()
    restored.restore_state(moved)
    assert _feed(restored, suffix) == _feed(original, suffix)
    assert restored.snapshot_state() == original.snapshot_state()


@given(case=_case())
@settings(max_examples=50, deadline=None)
def test_snapshot_is_isolated_from_live_state(case):
    """A snapshot is a value: mutating the operator afterwards must not
    retroactively change it (checkpoints outlive the replica)."""
    name, factory, prefix, suffix = case
    operator = factory()
    _feed(operator, prefix)
    state = operator.snapshot_state()
    frozen = pickle.dumps(state, protocol=5)
    _feed(operator, suffix)
    assert pickle.dumps(state, protocol=5) == frozen


@given(received=st.integers(min_value=0, max_value=1000))
def test_base_sink_restore_resets_counters(received):
    sink = Sink()
    sink.restore_state({"received": received, "samples": []})
    assert sink.received == received
    assert sink.samples == []
