"""Unit tests for the supervisor's policy machinery.

The chaos suite (test_runtime_faults.py) exercises recovery end-to-end;
these tests pin the supervisor's control logic in isolation using a stub
backend that fails on demand — backoff growth and bounding, restart
exhaustion, report contents, duplicate accounting.
"""

import pytest

from repro.apps import load_application
from repro.dsps import LocalEngine
from repro.errors import ExecutionError, WorkerCrashError
from repro.metrics import MetricsRegistry
from repro.runtime import (
    ExecutorBackend,
    RunResult,
    Supervisor,
)


class _StubSink:
    def __init__(self, received):
        self.received = received


def _result(sink_received=0, partial=False, fault_summary=None):
    return RunResult(
        topology_name="stub",
        events_ingested=100,
        task_stats={},
        sinks={"sink": [_StubSink(sink_received)]},
        fault_summary=fault_summary,
        partial=partial,
    )


class FlakyBackend(ExecutorBackend):
    """Fails ``failures`` times, then succeeds."""

    name = "flaky"

    def __init__(self, failures, error_factory=None):
        self.failures = failures
        self.calls = 0
        self.error_factory = error_factory or (
            lambda attempt: WorkerCrashError(
                f"boom on attempt {attempt}",
                partial_result=_result(sink_received=10, partial=True),
            )
        )

    def execute(self, spec, max_events, registry=None, *, injector=None):
        attempt = self.calls
        self.calls += 1
        if attempt < self.failures:
            raise self.error_factory(attempt)
        return _result(sink_received=100)


class TestValidation:
    def test_unknown_policy(self):
        with pytest.raises(ExecutionError, match="unknown recovery policy"):
            Supervisor(FlakyBackend(0), policy="reboot")

    def test_negative_restarts(self):
        with pytest.raises(ExecutionError, match="max_restarts"):
            Supervisor(FlakyBackend(0), policy="retry", max_restarts=-1)

    def test_negative_backoff(self):
        with pytest.raises(ExecutionError, match="backoff"):
            Supervisor(FlakyBackend(0), policy="retry", backoff_base_s=-0.1)

    def test_degrade_needs_context(self):
        with pytest.raises(ExecutionError, match="DegradeContext"):
            Supervisor(FlakyBackend(0), policy="degrade")

    def test_engine_rejects_bad_policy(self):
        topology, _ = load_application("wc")
        with pytest.raises(ExecutionError, match="unknown recovery policy"):
            LocalEngine(topology, recovery_policy="reboot")


class TestRetryLoop:
    def test_jittered_backoff_is_seeded_deterministic(self):
        def run(seed):
            sleeps = []
            result = Supervisor(
                FlakyBackend(4),
                policy="retry",
                max_restarts=5,
                backoff_base_s=0.1,
                backoff_max_s=0.35,
                backoff_seed=seed,
                sleep=sleeps.append,
            ).execute(None, 100)
            # Four failures, four backoffs, then the run completes (the
            # recovery assertions of the deleted
            # test_backoff_grows_exponentially_and_caps).
            assert result.recovery.completed
            assert result.recovery.attempts == 5
            assert result.recovery.restarts == 4
            return sleeps

        first, again = run(7), run(7)
        assert first == again  # same seed -> same backoff schedule
        assert len(first) == 4
        # Every sleep respects the configured bounds, and the decorrelated
        # walk stays within [base, 3 * prev].
        prev = 0.1
        for backoff in first:
            assert 0.1 <= backoff <= 0.35
            assert backoff <= max(0.1, prev * 3)
            prev = backoff
        # Different seeds desynchronize (the thundering-herd property):
        # at least one step of the schedule must differ.
        assert run(8) != first

    def test_restart_exhaustion_reraises_with_report(self):
        supervisor = Supervisor(
            FlakyBackend(10),
            policy="retry",
            max_restarts=2,
            backoff_base_s=0.0,
            sleep=lambda s: None,
        )
        with pytest.raises(WorkerCrashError) as excinfo:
            supervisor.execute(None, 100)
        recovery = excinfo.value.recovery
        assert recovery is not None
        assert recovery.completed is False
        assert recovery.attempts == 3  # initial + 2 restarts
        assert recovery.restarts == 2
        assert [e.kind for e in recovery.events].count("restart") == 2
        assert recovery.events[-1].kind == "failed"

    def test_duplicates_accumulate_across_failed_attempts(self):
        supervisor = Supervisor(
            FlakyBackend(3),
            policy="retry",
            max_restarts=3,
            backoff_base_s=0.0,
            sleep=lambda s: None,
        )
        result = supervisor.execute(None, 100)
        # Each failed attempt had delivered 10 tuples to sinks.
        assert result.recovery.duplicate_deliveries == 30

    def test_fail_fast_never_restarts(self):
        backend = FlakyBackend(1)
        supervisor = Supervisor(backend, policy="fail-fast")
        with pytest.raises(WorkerCrashError):
            supervisor.execute(None, 100)
        assert backend.calls == 1

    def test_timeline_order(self):
        supervisor = Supervisor(
            FlakyBackend(1),
            policy="retry",
            backoff_base_s=0.0,
            sleep=lambda s: None,
        )
        result = supervisor.execute(None, 100)
        kinds = [e.kind for e in result.recovery.events]
        assert kinds == ["fault-detected", "restart", "completed"]
        elapsed = [e.elapsed_s for e in result.recovery.events]
        assert elapsed == sorted(elapsed)  # monotonic timeline

    def test_metrics_published(self):
        registry = MetricsRegistry()
        supervisor = Supervisor(
            FlakyBackend(2),
            policy="retry",
            backoff_base_s=0.0,
            sleep=lambda s: None,
        )
        supervisor.execute(None, 100, registry)
        gauges = registry.snapshot()["gauges"]
        assert gauges["runtime.recovery.attempts"] == 3
        assert gauges["runtime.recovery.restarts"] == 2
        assert gauges["runtime.recovery.completed"] == 1.0
        assert gauges["runtime.recovery.duplicate_deliveries"] == 20


class TestDropLossHandling:
    def test_loss_on_final_attempt_fails_fast(self):
        class LossyBackend(ExecutorBackend):
            name = "lossy"

            def execute(self, spec, max_events, registry=None, *, injector=None):
                return _result(
                    sink_received=90,
                    fault_summary={"dropped_tuples": 64.0, "faults_fired": 1.0},
                )

        supervisor = Supervisor(LossyBackend(), policy="fail-fast")
        with pytest.raises(ExecutionError, match="message loss"):
            supervisor.execute(None, 100)

    def test_loss_retries_until_clean(self):
        class EventuallyCleanBackend(ExecutorBackend):
            name = "eventually-clean"

            def __init__(self):
                self.calls = 0

            def execute(self, spec, max_events, registry=None, *, injector=None):
                self.calls += 1
                if self.calls == 1:
                    return _result(
                        sink_received=90,
                        fault_summary={"dropped_tuples": 64.0},
                    )
                return _result(sink_received=100)

        backend = EventuallyCleanBackend()
        supervisor = Supervisor(
            backend, policy="retry", backoff_base_s=0.0, sleep=lambda s: None
        )
        result = supervisor.execute(None, 100)
        assert backend.calls == 2
        assert result.recovery.completed
        # The lossy attempt's sink deliveries count as duplicates.
        assert result.recovery.duplicate_deliveries == 90
