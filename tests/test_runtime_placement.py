"""Relative-location-aware task→worker placement (runtime/placement.py).

Four groups, in the order the change leans on them:

* **invariance** — where a task runs changes no result: WC and LR under
  hand-pinned owner maps (every prefix cut, an empty worker, seeded
  random maps) on both data planes equal the scalar inline run;
* **the search** on synthetic costs (no clock): heavy edges stay
  uncut, loads respect the model's own bound, equal inputs give equal
  maps, plan sockets are honoured, chains follow the map and never
  steer it, the prior yields contiguous topological blocks;
* **calibration is side-effect free** and the decision is made once per
  execution;
* a hypothesis property over random DAG shapes, costs and owner maps:
  the search's map, and the chains any map allows.
"""

import random
from collections import Counter as Multiset
from dataclasses import replace as dc_replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import load_application
from repro.core.plan import ExecutionPlan
from repro.core.profiles import OperatorProfile, ProfileSet
from repro.dsps import LocalEngine, MapOperator, Sink, TopologyBuilder
from repro.dsps.operators import IterableSpout
from repro.errors import ExecutionError
from repro.runtime import FaultPlan, ProcessPoolBackend, shm_available, with_chains
from repro.runtime import placement as rp
from repro.runtime.faults import FaultInjector
from repro.runtime.fusion import in_one_process
from repro.runtime.lowering import instantiate_tasks

PLANES = ["pickle"] + (["shm"] if shm_available() else [])
#: LR's multi-input operators need strict edge order for inline parity.
ORDERED = {"wc": False, "lr": True}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def app_engine(app, **kwargs):
    topology, _ = load_application(app)
    topology.component("sink").template.keep_samples = 10**6
    replication = {name: 1 for name in topology.components}
    return LocalEngine(topology, replication=replication, **kwargs)


def pinned_engine(app, owner, plane, **kwargs):
    """A process-backend engine whose owner map is pinned through the
    plan path (task → socket, one worker per socket)."""
    base = app_engine(app)
    plan = ExecutionPlan(base.graph, owner)
    backend = ProcessPoolBackend(
        n_workers=max(2, max(owner.values()) + 1),
        dataplane=plane,
        ordered=ORDERED[app],
    )
    return LocalEngine.from_plan(plan, backend=backend, **kwargs)


def observed(result):
    return (
        result.events_ingested,
        {t: (s.tuples_in, s.tuples_out) for t, s in result.task_stats.items()},
        Multiset(
            tuple(item.values)
            for sinks in result.sinks.values()
            for sink in sinks
            for item in sink.samples
        ),
    )


def owner_maps(task_ids, seed):
    """Every prefix cut, everything on worker 0 (worker 1 stays empty)
    and three seeded random maps over two and three workers."""
    maps = [
        {t: int(i >= cut) for i, t in enumerate(task_ids)}
        for cut in range(1, len(task_ids))
    ]
    maps.append(dict.fromkeys(task_ids, 0))
    rng = random.Random(seed)
    for n_workers in (2, 2, 3):
        maps.append({t: rng.randrange(n_workers) for t in task_ids})
    return maps


def chain(costs, hop=100.0, fan=None):
    """A linear topology ``c0 -> c1 -> ... -> sink`` with hand-written
    costs: ``costs[i]`` ns per input tuple, ``hop`` ns to move a tuple,
    ``fan[i]`` output tuples per input of stage ``i``."""
    fan = fan or {}
    builder = TopologyBuilder("chain")
    builder.set_spout("c0", IterableSpout([(1,)]))
    names = [f"c{i}" for i in range(len(costs))]
    for previous, name in zip(names, names[1:]):
        builder.add_operator(name, MapOperator(lambda v: v)).shuffle_from(previous)
    builder.add_sink("sink", Sink()).shuffle_from(names[-1])
    topology = builder.build()
    profiles = {
        name: OperatorProfile(
            name, cost, 0.0, {"default": hop}, {"default": fan.get(i, 1.0)}
        )
        for i, (name, cost) in enumerate(zip(names, costs))
    }
    profiles["sink"] = OperatorProfile("sink", 0.0)
    return LocalEngine(topology).spec, ProfileSet(topology, profiles)


def score(spec, profiles, owner, n_workers):
    """The model's score of an owner map (admissible ingress)."""
    machine = rp.worker_machine(n_workers, len(spec.tasks))
    model = rp._WorkerModel(profiles, machine, system=rp._SYSTEM)
    evaluator = model.evaluator(spec.graph, 1.0)
    evaluator.reset(owner)
    return evaluator.throughput


# ---------------------------------------------------------------------------
# (i) placement invariance
# ---------------------------------------------------------------------------
class TestPlacementInvariance:
    EVENTS = 300

    @pytest.mark.parametrize("plane", PLANES)
    def test_wordcount_under_every_owner_map(self, plane):
        reference = observed(app_engine("wc", vectorized="off").run(self.EVENTS))
        task_ids = [rt.task_id for rt in app_engine("wc").spec.tasks]
        for owner in owner_maps(task_ids, seed=18):
            result = pinned_engine("wc", owner, plane).run(self.EVENTS)
            assert observed(result) == reference, owner
            assert result.placement.owner == owner
            assert result.placement.source == "plan"

    @pytest.mark.parametrize(
        "plane, interval", list(zip(PLANES, (None, 100))) + [(PLANES[0], 100)]
    )
    def test_linear_road_under_every_owner_map(self, plane, interval):
        kwargs = {} if interval is None else {"epoch_interval": interval}
        reference = observed(
            app_engine("lr", vectorized="off", **kwargs).run(self.EVENTS)
        )
        task_ids = [rt.task_id for rt in app_engine("lr").spec.tasks]
        for owner in owner_maps(task_ids, seed=81):
            result = pinned_engine("lr", owner, plane, **kwargs).run(self.EVENTS)
            assert observed(result) == reference, owner

    def test_an_empty_worker_is_still_forked_and_reported(self):
        from repro.metrics import MetricsRegistry

        registry = MetricsRegistry()
        owner = dict.fromkeys(range(5), 0)
        result = pinned_engine("wc", owner, "pickle", registry=registry).run(200)
        gauges = registry.snapshot()["gauges"]
        assert gauges["runtime.run.workers"] == 2.0
        assert "runtime.worker.1.busy_fraction" in gauges
        assert gauges["runtime.placement.cut_edges"] == 0.0
        assert result.placement.cut_edges == []

    @pytest.mark.parametrize("app", ["wc", "lr"])
    def test_calibrated_runs_repeat_their_counters(self, app):
        """Whatever map the calibration picks, the results are the same."""
        events = 2 * rp.SAMPLE_SHARE * rp.ROUND_EVENTS
        reference = observed(app_engine(app, vectorized="off").run(events))
        sources = set()
        for _ in range(3):
            engine = app_engine(
                app,
                backend=ProcessPoolBackend(n_workers=2, ordered=ORDERED[app]),
            )
            result = engine.run(events)
            assert observed(result) == reference, result.placement.owner
            sources.add(result.placement.source)
        assert sources == {"calibrated"}


# ---------------------------------------------------------------------------
# (ii) the search on synthetic inputs
# ---------------------------------------------------------------------------
class TestSearch:
    def test_heavy_edge_is_not_cut_when_a_light_one_balances_as_well(self):
        # c1 fans out 10x and c2 folds it back for next to nothing: the
        # cuts after c1 and after c2 balance the same 2000 | 2000, but
        # the first one moves ten tuples per event instead of one.
        spec, profiles = chain(
            [1000.0, 1000.0, 0.001, 1000.0, 1000.0], fan={1: 10.0, 2: 0.1}
        )
        placement = rp.search(spec, 2, profiles)
        assert placement.cut_edges == [(2, 3)]
        assert placement.owner == {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}

    def test_diamond_keeps_the_heavy_branch_with_its_producer(self):
        builder = TopologyBuilder("diamond")
        builder.set_spout("src", IterableSpout([(1,)]))
        builder.add_operator("split", MapOperator(lambda v: v)).shuffle_from("src")
        builder.add_operator("heavy", MapOperator(lambda v: v)).shuffle_from(
            "split", stream="heavy"
        )
        builder.add_operator("light", MapOperator(lambda v: v)).shuffle_from(
            "split", stream="light"
        )
        builder.add_sink("sink", Sink()).shuffle_from("heavy").shuffle_from("light")
        topology = builder.build()
        hop = {"default": 200.0}
        profiles = ProfileSet(
            topology,
            {
                "src": OperatorProfile("src", 500.0, 0.0, hop, {"default": 1.0}),
                "split": OperatorProfile(
                    "split",
                    500.0,
                    0.0,
                    {"heavy": 200.0, "light": 200.0},
                    {"heavy": 10.0, "light": 1.0},
                ),
                "heavy": OperatorProfile("heavy", 100.0, 0.0, hop, {"default": 0.1}),
                "light": OperatorProfile("light", 1500.0, 0.0, hop, {"default": 1.0}),
                "sink": OperatorProfile("sink", 0.0),
            },
        )
        spec = LocalEngine(topology).spec
        placement = rp.search(spec, 2, profiles)
        task = {rt.component: rt.task_id for rt in spec.tasks}
        owner = placement.owner
        assert owner[task["heavy"]] == owner[task["split"]]
        assert owner[task["light"]] != owner[task["split"]]
        assert (task["split"], task["heavy"]) not in placement.cut_edges

    def test_loads_respect_the_models_own_bound(self):
        costs = [700.0, 1300.0, 400.0, 900.0, 1100.0, 600.0]
        spec, profiles = chain(costs, hop=50.0)
        for n_workers in (1, 2, 3):
            placement = rp.search(spec, n_workers, profiles, "calibrated")
            assert max(placement.load_share) == pytest.approx(1.0)
            assert all(0.0 <= share <= 1.0 for share in placement.load_share)
            alone = 1e9 / sum(costs)
            assert alone * (1 - 1e-9) <= placement.predicted_events_per_s
            assert placement.predicted_events_per_s <= n_workers * alone * (1 + 1e-9)
            assert placement.predicted_events_per_s == pytest.approx(
                score(spec, profiles, placement.owner, n_workers)
            )

    def test_never_worse_than_a_single_worker(self):
        # Hops dearer than any split could win back: stay put.
        spec, profiles = chain([1000.0] * 4, hop=5000.0)
        placement = rp.search(spec, 3, profiles)
        assert set(placement.owner.values()) == {0}
        assert placement.cut_edges == []

    def test_equal_inputs_give_equal_maps(self):
        spec, profiles = chain([500.0, 800.0, 800.0, 500.0])
        first = rp.search(spec, 2, profiles, "calibrated")
        for _ in range(3):
            spec, profiles = chain([500.0, 800.0, 800.0, 500.0])
            again = rp.search(spec, 2, profiles, "calibrated")
            assert again.owner == first.owner
            assert again.predicted_events_per_s == first.predicted_events_per_s
        # Ties go to the lower worker id: the spout's worker is worker 0.
        assert first.owner[0] == 0

    def test_fused_chain_stays_with_its_head(self):
        """Placement is blind to chains, and chains follow the map: a
        spec that carries WC's chain of three is placed exactly as one
        that does not — even where the cut falls inside the chain — and
        WC's calibrated map ``0,1 | 2,3,4`` runs chain ``(2,3)`` on
        worker 1."""
        spec = app_engine("wc").spec
        fused = in_one_process(spec)
        assert fused.fusion == ((1, 2, 3),)
        # Costs under which cutting inside the chain balances best.
        heavy = rp.prior(spec).replace("splitter", te_cycles=10 * rp.PRIOR_NS)
        for candidate in (rp.prior(spec), heavy):
            owner = rp.search(spec, 2, candidate).owner
            assert rp.search(fused, 2, candidate).owner == owner
        assert len({owner[1], owner[2], owner[3]}) == 2
        result = pinned_engine("wc", {0: 0, 1: 0, 2: 1, 3: 1, 4: 1}, "pickle").run(300)
        assert result.placement.chains == [(2, 3)]
        assert "1 fused chains" in result.placement.describe()

    def test_plan_sockets_are_honoured(self):
        spec = app_engine("wc").spec
        sockets = {0: 2, 1: 0, 2: 2, 3: 0, 4: 1}
        placed = dc_replace(
            spec,
            tasks=tuple(dc_replace(rt, socket=sockets[rt.task_id]) for rt in spec.tasks),
        )
        backend = ProcessPoolBackend(n_workers=2)
        assert backend._place(placed, 10_000, None, None) is None
        placement = backend._assign(placed, None)
        # Sockets in order, one worker each, wrapping: 0 -> 0, 1 -> 1, 2 -> 0.
        assert placement.owner == {0: 0, 1: 0, 2: 0, 3: 0, 4: 1}
        assert placement.source == "plan"
        assert ProcessPoolBackend(n_workers=3)._assign(placed, None).owner == {
            0: 2, 1: 0, 2: 2, 3: 0, 4: 1,
        }
        # A plan is not spread beyond its sockets: one socket keeps one
        # worker busy, of as many as were asked for (one, when none were).
        collocated = dc_replace(
            spec, tasks=tuple(dc_replace(rt, socket=0) for rt in spec.tasks)
        )
        wide = ProcessPoolBackend(n_workers=4)._assign(collocated, None)
        assert (set(wide.owner.values()), wide.n_workers) == ({0}, 4)
        assert ProcessPoolBackend()._assign(collocated, None).n_workers == 1

    @pytest.mark.parametrize("app, n_workers", [("wc", 2), ("wc", 3), ("lr", 2)])
    def test_prior_gives_contiguous_topological_blocks(self, app, n_workers):
        spec = app_engine(app).spec
        placement = rp.place(spec, n_workers, 1, "auto")
        assert placement.source == "prior"
        assert placement.predicted_events_per_s is None
        owner = placement.owner
        assert len(set(owner.values())) > 1
        # No stream leaves a worker for a lower one: the workers cut the
        # topological order into blocks.
        assert all(owner[e.producer] <= owner[e.consumer] for e in spec.edges)

    def test_short_runs_and_single_workers_do_not_calibrate(self):
        spec = app_engine("wc").spec
        afford = rp.SAMPLE_SHARE * rp.ROUND_EVENTS
        assert rp.place(spec, 2, afford - 1, "auto").source == "prior"
        assert rp.place(spec, 2, afford, "auto").sample_events == rp.ROUND_EVENTS
        assert rp.place(spec, 2, 10**6, "auto").sample_events == (
            rp.ROUNDS * rp.ROUND_EVENTS
        )
        # One worker leaves no choice and no events nothing to move:
        # neither is searched (run(0) is what set-up time measures).
        for n_workers, events in ((1, 10**6), (2, 0)):
            trivial = rp.place(spec, n_workers, events, "auto")
            assert trivial.source == "prior" and trivial.bnb_nodes == 0
            assert set(trivial.owner.values()) == {0}


# ---------------------------------------------------------------------------
# (iii) calibration is side-effect free; one decision per execution
# ---------------------------------------------------------------------------
class _CountingSpout(IterableSpout):
    """Counts, on whichever instance is asked, the events it handed out."""

    def __init__(self, n):
        super().__init__([(i,) for i in range(n)])
        self.drawn = 0

    def next_batch(self, max_tuples):
        for values in super().next_batch(max_tuples):
            self.drawn += 1
            yield values


class _CountingMap(MapOperator):
    def __init__(self):
        super().__init__(lambda v: v)
        self.seen = 0

    def process(self, item):
        self.seen += 1
        return super().process(item)


def counting_topology(n=4096):
    builder = TopologyBuilder("counting")
    builder.set_spout("spout", _CountingSpout(n))
    builder.add_operator("map", _CountingMap()).shuffle_from("spout")
    builder.add_sink("sink", Sink(keep_samples=10**6)).shuffle_from("map")
    return builder.build()


class TestCalibrationIsSideEffectFree:
    EVENTS = 2 * rp.SAMPLE_SHARE * rp.ROUND_EVENTS

    def test_templates_and_later_instances_are_untouched(self):
        topology = counting_topology()
        spec = LocalEngine(topology).spec
        profiles, messages, events = rp.calibrate(spec, rp.ROUNDS, "auto")
        assert events == rp.ROUNDS * rp.ROUND_EVENTS
        assert profiles["map"].selectivity["default"] == 1.0
        assert all(count > 0 for count in messages.values())
        assert topology.component("spout").template.drawn == 0
        assert topology.component("map").template.seen == 0
        fresh = instantiate_tasks(spec)
        assert fresh[0].drawn == 0 and fresh[1].seen == 0

    def test_a_spout_end_is_priced_by_how_its_events_leave(self):
        """Columns from the source when kernels are on (nothing watches
        single events in a calibration run), rows otherwise — the edge's
        codec term follows."""
        spec = app_engine("wc").spec
        per_message = rp.MESSAGE_NS / rp.ROUND_EVENTS  # one batch a round
        for vectorized, codec in (("auto", rp.COLUMN_NS), ("off", rp.ROW_NS)):
            profiles, _, _ = rp.calibrate(spec, rp.ROUNDS, vectorized)
            hop = profiles["spout"].output_bytes["default"]
            assert hop == pytest.approx(per_message + codec)

    def test_an_edge_is_sampled_as_a_cut_edge_would_carry_it(self):
        """A run hands a kernel's output to a consumer in its own process
        whole when the queue is unbounded; between workers it goes in
        batch-size chunks, and those are the messages placement prices.
        WC's splitter turns a round's 64 sentences into 640 words: ten
        chunks, not one batch."""
        _, got, _ = rp.calibrate(app_engine("wc").spec, rp.ROUNDS, "auto")
        bounded = app_engine("wc", queue_capacity=10**9).spec
        _, want, _ = rp.calibrate(bounded, rp.ROUNDS, "auto")
        assert got == want
        assert got[(2, 3)] == pytest.approx(10 / rp.ROUND_EVENTS)

    def test_the_run_ingests_exactly_its_budget_from_the_first_event(self):
        calibrated = LocalEngine(
            counting_topology(), backend=ProcessPoolBackend(n_workers=2)
        ).run(self.EVENTS)
        assert calibrated.placement.source == "calibrated"
        assert calibrated.events_ingested == self.EVENTS
        # The same owner map, pinned: no calibration ever ran.
        engine = LocalEngine(counting_topology())
        pinned = LocalEngine.from_plan(
            ExecutionPlan(engine.graph, calibrated.placement.owner),
            backend=ProcessPoolBackend(n_workers=2),
        ).run(self.EVENTS)

        def first_sink_tuples(result):
            return [item.values for item in result.sinks["sink"][0].samples[:500]]

        assert first_sink_tuples(calibrated) == first_sink_tuples(pinned)
        assert first_sink_tuples(calibrated)[0] == (0,)

    def test_an_operator_that_fails_on_the_sample_fails_the_run_not_the_placement(
        self,
    ):
        """Calibration may not change how a failure surfaces: the run
        reports it, typed, as it always did."""

        def explode(values):
            raise ValueError("operator bug")

        builder = TopologyBuilder("failing")
        builder.set_spout("spout", IterableSpout([(i,) for i in range(4096)]))
        builder.add_operator("map", MapOperator(explode)).shuffle_from("spout")
        builder.add_sink("sink", Sink()).shuffle_from("map")
        topology = builder.build()
        spec = LocalEngine(topology).spec
        assert rp.place(spec, 2, self.EVENTS, "auto").source == "prior"
        engine = LocalEngine(topology, backend=ProcessPoolBackend(n_workers=2))
        with pytest.raises(ExecutionError, match="operator bug"):
            engine.run(self.EVENTS)

    def test_a_mistake_in_the_calibration_itself_is_not_swallowed(self, monkeypatch):
        """Only the operators' own failures fall back to the prior."""

        def broken(*args):
            raise KeyError("tuples_in")

        monkeypatch.setattr(rp, "_profiles", broken)
        with pytest.raises(KeyError, match="tuples_in"):
            rp.place(app_engine("wc").spec, 2, self.EVENTS, "auto")

    def test_an_armed_injector_is_never_ticked(self):
        spec = app_engine("wc").spec
        schedule = FaultPlan(seed=1, kinds=("raise",), at_tuple=5).schedule(spec)
        injector = FaultInjector(schedule, 0)
        placement = ProcessPoolBackend(n_workers=2)._place(
            spec, self.EVENTS, injector, None
        )
        assert placement.source == "calibrated"
        assert injector.fired == [] and not injector._counts

    def test_one_decision_per_execution_reused_by_a_resumed_relaunch(
        self, monkeypatch
    ):
        decisions = []
        place = rp.place

        def counting_place(*args):
            decisions.append(place(*args))
            return decisions[-1]

        monkeypatch.setattr(rp, "place", counting_place)
        engine = app_engine(
            "wc",
            backend=ProcessPoolBackend(n_workers=2),
            epoch_interval=500,
            fault_plan=FaultPlan(
                seed=5, kinds=("crash",), at_tuple=1200, target="spout"
            ),
            recovery_policy="retry",
        )
        result = engine.run(self.EVENTS)
        assert result.recovery.restarts == 1
        assert result.recovery.resumed_from_epoch is not None
        assert len(decisions) == 1
        assert result.placement is decisions[0]
        assert result.events_ingested == self.EVENTS
        # A new execution decides again.
        engine.run(self.EVENTS)
        assert len(decisions) == 2


# ---------------------------------------------------------------------------
# (iv) random DAG shapes and costs
# ---------------------------------------------------------------------------
@st.composite
def dags(draw):
    """A connected DAG of 3-7 components with random costs, fan-outs and
    hop costs; every edge has its own stream."""
    n = draw(st.integers(min_value=2, max_value=6))
    cost = st.floats(min_value=1.0, max_value=5000.0)
    builder = TopologyBuilder("random")
    builder.set_spout("c0", IterableSpout([(1,)]))
    streams = {"c0": []}
    for index in range(1, n):
        name = f"c{index}"
        handle = builder.add_operator(name, MapOperator(lambda v: v))
        parents = draw(
            st.lists(
                st.integers(min_value=0, max_value=index - 1),
                min_size=1,
                max_size=2,
                unique=True,
            )
        )
        for parent in parents:
            handle.shuffle_from(f"c{parent}", stream=f"s{parent}_{index}")
            streams[f"c{parent}"].append(f"s{parent}_{index}")
        streams[name] = []
    sink = builder.add_sink("sink", Sink())
    for name, out in streams.items():
        if not out:
            sink.shuffle_from(name, stream=f"{name}_out")
            out.append(f"{name}_out")
    topology = builder.build()
    profiles = {
        name: OperatorProfile(
            name,
            draw(cost),
            0.0,
            {s: draw(cost) for s in out},
            {s: draw(st.floats(min_value=0.1, max_value=4.0)) for s in out},
        )
        for name, out in streams.items()
    }
    profiles["sink"] = OperatorProfile("sink", draw(cost))
    return LocalEngine(topology).spec, ProfileSet(topology, profiles)


def assert_chains_follow(spec, owner):
    """The chains ``owner`` allows are maximal, each inside one owner,
    free of spouts, sinks and non-exclusive edges, and a pure function of
    ``(spec, owner)``."""
    chains = with_chains(spec, owner).fusion
    by_id = {rt.task_id: rt for rt in spec.tasks}

    def fusible(producer, consumer):
        return (
            len(producer.out_edges) == 1
            and len(consumer.in_edges) == 1
            and not producer.is_spout
            and not consumer.is_sink
        )

    links = {pair for chain in chains for pair in zip(chain, chain[1:])}
    members = [task_id for chain in chains for task_id in chain]
    assert len(members) == len(set(members))
    assert all(len(chain) >= 2 for chain in chains)
    for chain in chains:
        assert len({owner[task_id] for task_id in chain}) == 1
    for producer, consumer in links:
        assert fusible(by_id[producer], by_id[consumer])
    for edge in spec.edges:
        pair = (edge.producer, edge.consumer)
        if fusible(by_id[pair[0]], by_id[pair[1]]) and owner[pair[0]] == owner[pair[1]]:
            assert pair in links  # maximal
    carried = dc_replace(spec, fusion=((max(by_id) + 1,),))
    assert with_chains(carried, dict(owner)).fusion == chains


class TestSearchProperties:
    # Random DAGs rarely grow an exclusive run of three operators; a
    # linear one, whole and cut inside the run, always has one.
    @example(chain([500.0] * 5), 2, [0] * 8)
    @example(chain([500.0] * 5), 2, [0, 0, 0, 1, 1, 1, 0, 0])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        dags(),
        st.integers(min_value=1, max_value=3),
        st.lists(st.integers(min_value=0, max_value=2), min_size=8, max_size=8),
    )
    def test_map_is_complete_in_range_and_not_worse_than_round_robin(
        self, dag, n_workers, workers
    ):
        spec, profiles = dag
        placement = rp.search(spec, n_workers, profiles)
        task_ids = [rt.task_id for rt in spec.tasks]
        # Chains follow any map, the search's or a drawn one, and never
        # steer the search.
        drawn = {t: w % n_workers for t, w in zip(task_ids, workers)}
        for owner in (placement.owner, drawn):
            assert_chains_follow(spec, owner)
        assert rp.search(in_one_process(spec), n_workers, profiles).owner == (
            placement.owner
        )
        assert sorted(placement.owner) == sorted(task_ids)
        assert set(placement.owner.values()) <= set(range(n_workers))
        assert placement.cut_edges == spec.cut_edges(placement.owner)
        found = score(spec, profiles, placement.owner, n_workers)
        alone = score(spec, profiles, dict.fromkeys(task_ids, 0), n_workers)
        assert found >= alone
        # A search that closed inside its node budget is optimal under
        # the model; the budget itself only guarantees the line above.
        if placement.bnb_nodes < rp.NODES_PER_TASK * len(task_ids):
            dealt = {t: i % n_workers for i, t in enumerate(task_ids)}
            assert found >= score(spec, profiles, dealt, n_workers) * (1 - 1e-12)
