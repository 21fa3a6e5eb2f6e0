"""Runtime operator-chain fusion suite.

Fusion follows placement: an exclusive edge whose two ends run in one
process is one loop, derived by the executor from where it runs each
task — every eligible edge inline, the ones inside a worker on the
process backend.  Its whole contract is *semantic invisibility*: a run
must be bit-identical to the unfused run — same per-task tuple counts,
same sink multisets — while skipping the intra-chain queues entirely.
The parity tests drive every example application through both backends
under the conditions that move chains (kernels on and off, epoch
barriers, a live migration, a crash inside a chain member) against one
unfused scalar ``_InlineRun`` reference per app.  Around them: the chains
each app gets in one process (the derivation's property over random DAGs
and owner maps is in tests/test_runtime_placement.py) and the engine's
validation of the options near it.
"""

from collections import Counter as Multiset

import pytest

from repro.apps import load_application
from repro.core.plan import ExecutionPlan
from repro.dsps import LocalEngine
from repro.errors import ExecutionError
from repro.metrics import MetricsRegistry
from repro.metrics.registry import NULL_REGISTRY
from repro.runtime import (
    EpochConfig,
    FaultPlan,
    FusionConfig,
    Migration,
    ProcessPoolBackend,
    lower_graph,
    plan_fusion,
    with_chains,
    with_sockets,
)
from repro.runtime.backends import _InlineRun
from repro.runtime.fusion import in_one_process

EVENTS = 300
APPS = ("wc", "sd", "fd", "lr")

#: Fused chains per app at replication 1 in one process (task ids, head
#: first): every exclusive operator->operator pair collapses.
EXPECTED_CHAINS = {
    "wc": ((1, 2, 3),),
    "sd": ((1, 2, 3),),
    "fd": ((1, 2),),
    "lr": ((1, 2), (3, 8)),
}


def process_backend(app, vectorized="off", **kwargs):
    # LR's multi-input joins need strict edge order for inline parity.
    return ProcessPoolBackend(
        n_workers=2, ordered=(app == "lr"), vectorized=vectorized, **kwargs
    )


def build_engine(app, *, backend="inline", vectorized="off", **kwargs):
    topology, _profiles = load_application(app)
    topology.component("sink").template.keep_samples = 10**6
    replication = {name: 1 for name in topology.components}
    if backend == "process":
        # resolve_backend rejects backend options beside an instance.
        backend = process_backend(app, vectorized)
        vectorized = None
    return LocalEngine(
        topology,
        replication=replication,
        backend=backend,
        vectorized=vectorized,
        **kwargs,
    )


def sink_multiset(result):
    return Multiset(
        tuple(item.values)
        for sinks in result.sinks.values()
        for sink in sinks
        for item in sink.samples
    )


def task_counts(result):
    return {
        task_id: (stats.tuples_in, stats.tuples_out)
        for task_id, stats in result.task_stats.items()
    }


def assert_identical(reference, candidate, label=""):
    assert candidate.events_ingested == reference.events_ingested, label
    assert task_counts(candidate) == task_counts(reference), label
    assert sink_multiset(candidate) == sink_multiset(reference), label


def ran_chains(engine, result):
    """The chains the run executed: every eligible edge inline (the
    gauges of ``test_expected_chains_at_replication_one`` witness it),
    the ones inside a worker on the process backend, which says so."""
    if result.placement is None:
        return in_one_process(engine.spec).fusion
    assert result.placement.chains == list(
        with_chains(engine.spec, result.placement.owner).fusion
    )
    return tuple(result.placement.chains)


@pytest.fixture(scope="module")
def baselines():
    """Unfused scalar ``_InlineRun``s: the semantics every run must hit."""
    return {
        app: _InlineRun(
            build_engine(app).spec, EVENTS, NULL_REGISTRY, vectorized="off"
        ).execute()
        for app in APPS
    }


def wc_spec(**kwargs):
    topology, _profiles = load_application("wc")
    replication = {name: 1 for name in topology.components}
    from repro.dsps.graph import ExecutionGraph

    graph = ExecutionGraph(topology, replication, group_size=1)
    return lower_graph(topology, graph, **kwargs)


# ---------------------------------------------------------------------------
# Chains in one process
# ---------------------------------------------------------------------------
class TestPlanFusion:
    @pytest.mark.parametrize("app", APPS)
    def test_expected_chains_at_replication_one(self, app):
        spec = in_one_process(build_engine(app).spec)
        assert spec.fusion == EXPECTED_CHAINS[app]
        for chain in spec.fusion:
            assert all(tid in spec.fused_member_ids for tid in chain[1:])
        # The inline run executes exactly these, and says so.
        registry = MetricsRegistry()
        build_engine(app, registry=registry).run(50)
        gauges = registry.snapshot()["gauges"]
        assert gauges["runtime.fusion.chains"] == len(spec.fusion)
        assert gauges["runtime.fusion.fused_tasks"] == len(spec.fused_member_ids) + len(
            spec.fusion
        )

    def test_spout_and_sink_edges_never_fuse(self):
        # plan_fusion is the whole-spec entry to the same derivation.
        lowered = wc_spec()
        spec = plan_fusion(lowered, FusionConfig(mode="auto"))
        assert spec == in_one_process(lowered)
        spout = next(rt.task_id for rt in spec.tasks if rt.is_spout)
        sink = next(rt.task_id for rt in spec.tasks if rt.is_sink)
        for chain in spec.fusion:
            assert spout not in chain
            assert sink not in chain

    def test_replicated_edges_are_ineligible(self):
        # Replication breaks 1:1 exclusivity: parser feeds two splitter
        # replicas, each splitter feeds two counters.
        topology, _profiles = load_application("wc")
        engine = LocalEngine(
            topology,
            replication={
                "spout": 1,
                "parser": 1,
                "splitter": 2,
                "counter": 2,
                "sink": 1,
            },
        )
        assert in_one_process(engine.spec).fusion == ()

    def test_off_mode_plans_no_chains(self):
        # There is no mode to turn fusion off: a map that gives every task
        # its own process is the unfused run, whatever the spec carried.
        spec = in_one_process(wc_spec())
        unfused = with_chains(spec, {rt.task_id: rt.task_id for rt in spec.tasks})
        assert unfused.fusion == ()
        assert unfused.fused_member_ids == frozenset()

    def test_cross_socket_skipped_under_auto(self):
        spec = wc_spec()
        sockets = {rt.task_id: int(rt.component == "splitter") for rt in spec.tasks}
        # parser(1)->splitter(2) and splitter(2)->counter(3) both cross
        # owners now; nothing is left to fuse.
        assert with_chains(with_sockets(spec, sockets), sockets).fusion == ()

    def test_refit_dissolves_and_revives_chains(self):
        # A migration re-derives chains from the new map: the chain
        # shrinks when the counter leaves and is whole again when it returns.
        spec = in_one_process(wc_spec())
        assert spec.fusion == ((1, 2, 3),)
        apart = {rt.task_id: int(rt.component == "counter") for rt in spec.tasks}
        split = with_chains(spec, apart)
        assert split.fusion == ((1, 2),)
        back = with_chains(split, dict.fromkeys(apart, 0))
        assert back.fusion == ((1, 2, 3),)


# ---------------------------------------------------------------------------
# Engine surface
# ---------------------------------------------------------------------------
class TestEngineValidation:
    def test_batch_size_must_be_positive(self):
        with pytest.raises(ExecutionError, match="batch_size"):
            build_engine("wc", batch_size=0)

    def test_unknown_fuse_mode_rejected(self):
        # fusion has no modes: fuse= is not an option at all.
        with pytest.raises(TypeError, match="unexpected keyword argument 'fuse'"):
            build_engine("wc", fuse="sometimes")

    def test_engine_default_is_unfused(self):
        # The engine's spec is the lowering; chains are the executor's.
        assert build_engine("wc").spec.fusion == ()


# ---------------------------------------------------------------------------
# Parity with the unfused scalar reference
# ---------------------------------------------------------------------------
class TestFusionParity:
    """Default runs are bit-identical to the unfused scalar reference."""

    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("backend", ["inline", "process"])
    @pytest.mark.parametrize(
        "vectorized",
        # The ids say whether kernels run; the mode that runs them is "auto".
        ["off", pytest.param("auto", id="on")],
    )
    def test_fused_matches_unfused_baseline(
        self, baselines, app, backend, vectorized
    ):
        engine = build_engine(app, backend=backend, vectorized=vectorized)
        result = engine.run(EVENTS)
        ran_chains(engine, result)
        assert_identical(baselines[app], result)

    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_unfused_matches_baseline(self, baselines, app, backend):
        """Where nothing fuses — the inline run calibration samples, a
        worker map that cuts every exclusive edge — kernels on."""
        spec = build_engine(app).spec
        if backend == "inline":
            result = _InlineRun(spec, EVENTS, NULL_REGISTRY, vectorized="auto").execute()
        else:
            alternating = {rt.task_id: rt.task_id % 2 for rt in spec.tasks}
            result = LocalEngine.from_plan(
                ExecutionPlan(spec.graph, alternating),
                backend=process_backend(app, "auto"),
            ).run(EVENTS)
            assert result.placement.chains == []
        assert_identical(baselines[app], result)

    def test_fusion_survives_epoch_barriers(self, baselines):
        for app in APPS:
            for backend in ("inline", "process"):
                result = build_engine(
                    app, backend=backend, vectorized="auto", epoch_interval=70
                ).run(EVENTS)
                assert_identical(baselines[app], result, (app, backend))
                assert result.epochs.committed == 4

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_fusion_survives_live_migration(self, baselines, backend):
        """At the first barrier every task but the spout moves to socket
        0: the inline run keeps its chains (one process either way), the
        process backend relaunches its pool and re-derives them — from
        whatever its own map fused to every eligible edge."""
        for app in APPS:
            engine = build_engine(app, backend=backend, vectorized="auto")

            def relocate(commit):
                if commit.epoch != 0:
                    return None
                sockets = {rt.task_id: int(rt.is_spout) for rt in commit.spec.tasks}
                return Migration(
                    spec=with_sockets(commit.spec, sockets),
                    moved=tuple(sockets),
                    detail="test move",
                )

            result = engine.backend.execute(
                engine.spec, EVENTS, epochs=EpochConfig(interval=70), on_epoch=relocate
            )
            assert result.epochs.migrations == 1, app
            assert ran_chains(engine, result) == EXPECTED_CHAINS[app], app
            assert_identical(baselines[app], result, app)


# ---------------------------------------------------------------------------
# Faults landing inside a fused chain
# ---------------------------------------------------------------------------
class TestFusionUnderFault:
    """A crash in a chain *member* recovers exactly like an unfused run:
    per-constituent state snapshots make the chain checkpointable."""

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_chain_member_crash_recovers(self, baselines, backend):
        for app in APPS:
            spec = build_engine(app).spec
            member = spec.runtime_of(EXPECTED_CHAINS[app][0][1]).component
            result = build_engine(
                app,
                backend=backend,
                vectorized="auto",
                fault_plan=FaultPlan(
                    seed=3, kinds=("crash",), at_tuple=150, target=member
                ),
                recovery_policy="retry",
                epoch_interval=70,
            ).run(EVENTS)
            assert result.recovery.completed is True, app
            assert result.recovery.restarts >= 1, app
            assert_identical(baselines[app], result, app)

    def test_chain_member_raise_fails_fast_by_default(self):
        engine = build_engine(
            "wc",
            queue_budget=2048,
            fault_plan=FaultPlan(
                seed=3, kinds=("raise",), at_tuple=50, target="counter"
            ),
        )
        with pytest.raises(ExecutionError):
            engine.run(EVENTS)
