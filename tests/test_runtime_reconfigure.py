"""Live reconfiguration: drift-triggered migration at epoch barriers.

The scenario is WC with a mid-stream workload shift: after ``shift_at``
sentences the generator switches from 10 to 25 words per sentence, a
2.5x selectivity drift the controller observes exactly from barrier
commit deltas.  The operating point (3M events/s on a 4-socket Server A)
is chosen so RLAS deploys an *uneven* socket spread — the modeled
throughput is placement-sensitive there, so re-placing under the drifted
profiles finds strictly improving moves.  Under a uniform spread the
model is placement-invariant and the controller correctly stays put
(the no-drift test pins that).

The load-bearing assertion is bit-identity: live migration (pause at a
barrier, hand snapshots to re-placed tasks, resume) must not change a
single result relative to the same plan run without adaptation.
"""

from collections import Counter

import pytest

from repro.apps import load_application
from repro.apps.wordcount import build_wordcount
from repro.core import RLASOptimizer
from repro.core.bnb import PlacementOptimizer
from repro.dsps import LocalEngine
from repro.errors import ExecutionError
from repro.hardware import server_a
from repro.runtime import ReconfigController

EVENTS = 3000
INTERVAL = 500
#: Ingress rate at which RLAS spreads WC unevenly across the 4 sockets.
RATE = 3_000_000


@pytest.fixture(scope="module")
def wc_profiles():
    return load_application("wc")[1]


@pytest.fixture(scope="module")
def shifted_plan(wc_profiles):
    """Deployment plan for the workload-shift topology (drift at 800)."""
    topology = build_wordcount(seed=7, shift_at=800, shift_words_per_sentence=25)
    return RLASOptimizer(
        topology, wc_profiles, server_a(4), RATE
    ).optimize()


def controller_for(plan, profiles, **kwargs):
    return ReconfigController(plan, profiles, RATE, **kwargs)


def run_engine(plan, controller=None, **kwargs):
    return LocalEngine.from_plan(
        plan.expanded_plan,
        epoch_interval=INTERVAL,
        reconfig=controller,
        **kwargs,
    ).run(EVENTS)


def sink_states(result):
    return {
        component: [sink.snapshot_state() for sink in sinks]
        for component, sinks in result.sinks.items()
    }


def stats_view(result):
    return {
        task_id: (stats.tuples_in, stats.tuples_out, stats.out_by_stream)
        for task_id, stats in result.task_stats.items()
    }


class TestValidation:
    def test_thresholds_must_be_ordered(self, shifted_plan, wc_profiles):
        with pytest.raises(ExecutionError, match="thresholds"):
            controller_for(
                shifted_plan,
                wc_profiles,
                replace_threshold=0.5,
                reoptimize_threshold=0.2,
            )

    def test_replace_threshold_must_be_positive(self, shifted_plan, wc_profiles):
        with pytest.raises(ExecutionError, match="thresholds"):
            controller_for(shifted_plan, wc_profiles, replace_threshold=0.0)

    def test_ingress_rate_must_be_positive(self, shifted_plan, wc_profiles):
        with pytest.raises(ExecutionError, match="ingress rate"):
            ReconfigController(shifted_plan, wc_profiles, 0.0)

    def test_reconfig_requires_barriers(self, shifted_plan, wc_profiles):
        controller = controller_for(shifted_plan, wc_profiles)
        with pytest.raises(ExecutionError, match="epoch_interval"):
            LocalEngine.from_plan(
                shifted_plan.expanded_plan, reconfig=controller
            )


class TestDriftMigration:
    @pytest.fixture(scope="class")
    def adapted(self, shifted_plan, wc_profiles):
        """``(result, controller, planner calls made during the run)``."""
        controller = controller_for(shifted_plan, wc_profiles)
        calls = Counter()
        with pytest.MonkeyPatch.context() as patch:
            for planner in (RLASOptimizer, PlacementOptimizer):

                def counted(self, *args, _real=planner.optimize, **kwargs):
                    calls[type(self).__name__] += 1
                    return _real(self, *args, **kwargs)

                patch.setattr(planner, "optimize", counted)
            result = run_engine(shifted_plan, controller)
        return result, controller, calls

    def test_one_search_per_acted_on_barrier(self, adapted):
        """The verdict costs no plan: a barrier that acts runs the one
        pinned placement search whose result can migrate, and never the
        adaptation controller's own re-plan (a full RLAS run nobody
        read — it used to be a third of this scenario's wall)."""
        _, controller, calls = adapted
        assert controller.report.replans >= 1
        assert calls["RLASOptimizer"] == 0
        assert calls["PlacementOptimizer"] == controller.report.replans
        # The verdicts are still recorded as ``observe`` records them.
        history = controller.controller.history
        assert len(history) == controller.report.observations - 1
        assert sum(a.value != "none" for a in history) == controller.report.replans

    def test_shift_triggers_live_migration(self, adapted):
        result, controller, _ = adapted
        report = controller.report
        assert result.reconfig is report
        assert report.observations == result.epochs.committed
        assert report.replans >= 1
        assert report.migrations >= 1
        assert result.epochs.migrations == report.migrations

    def test_migration_events_carry_modeled_gain(self, adapted):
        _, controller, _ = adapted
        migrated = [
            e for e in controller.report.events if e["outcome"] == "migrated"
        ]
        assert migrated
        for event in migrated:
            assert event["moved"]
            assert event["modeled_after"] > event["modeled_before"]
            assert event["magnitude"] >= controller.report.replace_threshold

    def test_results_bit_identical_to_unadapted_run(
        self, adapted, shifted_plan
    ):
        """The stream never stops and nothing changes observably."""
        result, controller, _ = adapted
        assert controller.report.migrations >= 1
        baseline = run_engine(shifted_plan)
        assert result.events_ingested == baseline.events_ingested
        assert result.sink_received() == baseline.sink_received()
        assert stats_view(result) == stats_view(baseline)
        assert sink_states(result) == sink_states(baseline)

    def test_run_report_payload_round_trips(self, adapted):
        _, controller, _ = adapted
        payload = controller.report.to_dict()
        assert payload["migrations"] == controller.report.migrations
        assert len(payload["timeline"]) == len(controller.report.events)


class TestNoDrift:
    def test_stable_workload_keeps_placement(self, wc_profiles):
        """No shift, no wall-clock signal: the controller never migrates.

        The process backend reports no per-task wall time, so observed
        profiles differ from the deployed ones only through measured
        selectivities — which a stable workload reproduces exactly.
        """
        topology = build_wordcount(seed=7)
        plan = RLASOptimizer(topology, wc_profiles, server_a(4), RATE).optimize()
        controller = controller_for(plan, wc_profiles)
        result = run_engine(
            plan, controller, backend="process", n_workers=2
        )
        assert controller.report.observations == result.epochs.committed
        assert controller.report.migrations == 0
        assert result.epochs.migrations == 0
