"""RLAS on the process backend: place tasks on workers by relative location.

The paper's cost of an operator is ``T = Te + Tf`` with ``Tf`` set by
where its producer runs (Formula 2).  Here the sockets are the pool's
worker processes — one core each, time-shared by the tasks they host —
and ``Tf`` is what crossing a process boundary costs.  Three steps, once
per ``execute()`` (docs/runtime.md, "Placement", has the dictionary):

1. :func:`calibrate` runs the run's first events inline on a private
   instantiation of the spec and reads per-component ``Te + Others``
   (wall per input tuple, the cheapest round), selectivities and
   per-edge traffic — a :class:`~repro.core.profiles.ProfileSet` in
   which a stream's ``N`` is the cost, in ns, of moving one of its
   tuples between workers.  :func:`prior` is the same set with nothing
   measured: every task and every hop costs the same.
2. :func:`worker_machine` is the ``n``-worker machine: ``S = 1``,
   ``L(i, j) = 1`` ns across workers, so Formula 2 reads ``Tf = N``.
3. :func:`search` hands both to the branch and bound of
   :mod:`repro.core.bnb`, scoring a placement by the ingress rate every
   worker's core admits (Eq. 3) instead of a sink rate at a fixed one.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Callable

from repro.core.bnb import PlacementOptimizer
from repro.core.model import IncrementalEvaluator, PerformanceModel
from repro.core.plan import collocated_plan
from repro.core.profiles import OperatorProfile, ProfileSet, SystemProfile
from repro.hardware.machine import NS_PER_SECOND, MachineSpec
from repro.hardware.topology import InterconnectKind, SocketTopology
from repro.runtime.backends import inline_rounds
from repro.runtime.lowering import RuntimeSpec
from repro.runtime.results import Placement

#: Calibration sample: ``ROUNDS`` rounds of ``ROUND_EVENTS`` events per
#: spout (one default jumbo batch), never more than 1/``SAMPLE_SHARE`` of
#: the run.  Sized by measurement (docs/benchmarks.md, ISSUE 18): two
#: rounds cost 2-3 % of the slices they place, and the cheaper of two
#: rounds is stable where single samples of one task read 3.1 and 74.5 us.
ROUNDS = 2
ROUND_EVENTS = 64
SAMPLE_SHARE = 16
#: One message between workers, at each end: pack + frame write on the
#: sender; ring poll + frame copy + decode on the receiver.  Sized when a
#: descriptor also crossed an ``mp.Queue``; docs/runtime.md has the
#: figure re-measured without it.
MESSAGE_NS = 45_000.0
#: Codec cost per tuple and end, by how the batch leaves or arrives:
#: row-coded (a scalar producer or consumer) or columnar (a kernel, or
#: a spout whose events leave as columns).
ROW_NS = 570.0
COLUMN_NS = 10.0
#: The uniform prior's cost of every task, and of every hop at each end.
PRIOR_NS = 1000.0
#: Branch-and-bound node budget per task.  The first dive (one node per
#: task) follows the bound into a balanced plan — on LR within 5 % of
#: the best found at any budget, less than the inputs' own noise; the
#: second helping revisits the choices nearest the sinks (2.3 ms).
NODES_PER_TASK = 2

#: Others, queue access and serialization are inside the measured terms.
_SYSTEM = SystemProfile(name="process pool (measured)")


def worker_machine(n_workers: int, replicas: int) -> MachineSpec:
    """Workers as sockets: cycles counted in ns, a hop across workers one
    ns per unit of ``N``, and no bandwidth bound (rings and queues block;
    they do not saturate).  A worker time-shares its one core between the
    tasks it hosts, so ``cores_per_socket`` is ``replicas``, the graph's
    whole weight, and stands for nothing but the replica bound — which
    then never binds.  The core itself is :class:`_WorkerEvaluator`'s: it
    charges every worker ``NS_PER_SECOND`` and does not read
    ``cpu_capacity``."""
    return MachineSpec(
        name=f"process pool ({n_workers} workers)",
        topology=SocketTopology(n_workers, InterconnectKind.XNC),
        cores_per_socket=replicas,
        freq_ghz=1.0,
        local_latency_ns=0.0,
        hop_latency_ns={1: 1.0},
        local_bandwidth=float("inf"),
        hop_bandwidth={1: float("inf")},
        cache_line_bytes=1,
    )


class _WorkerEvaluator(IncrementalEvaluator):
    """Scores a placement by the ingress rate every worker's single core
    admits: ``I * C / max_w(load_w)``, loads being linear in ``I`` below
    it.  For a partial placement the busiest worker carries no less than
    its placed load, and no less than an even share of all work, placed
    or not — the score bounds every completion's, which is what branch
    and bound prunes on."""

    def loads(self) -> tuple[list[float], float]:
        """Eq. 3's left side per worker — plus the sender's share of every
        cut edge: ``Tf`` bills the consumer alone, and a worker that only
        sent would look free — and the work not placed yet."""
        load = [0.0] * self._n_sockets
        unplaced = 0.0
        for socket, rate, t_ns in zip(self._socket, self._processed, self._t):
            if socket is None:
                unplaced += rate * t_ns
            else:
                load[socket] += rate * t_ns
        for flows in self._icx:
            for sender, _receiver, ns_per_s in flows:
                load[sender] += ns_per_s
        return load, unplaced

    @property
    def throughput(self) -> float:
        load, unplaced = self.loads()
        busiest = max(max(load), (sum(load) + unplaced) / len(load))
        return self._ingress * NS_PER_SECOND / max(busiest, 1e-9)


class _WorkerModel(PerformanceModel):
    def evaluator(self, graph, ingress_rate) -> _WorkerEvaluator:
        return _WorkerEvaluator(self, graph, ingress_rate)


def _profiles(
    spec: RuntimeSpec,
    te_ns: Callable[[str], float],
    selectivity: Callable[[str, str], float],
    hop_ns: Callable[[str, str], float],
) -> ProfileSet:
    """The model's operator inputs, per component and stream.  Chains
    are not priced: they follow from the map this search decides."""
    topology = spec.topology
    profiles = {}
    for name in topology.components:
        streams = {edge.stream for edge in topology.outgoing(name)}
        profiles[name] = OperatorProfile(
            component=name,
            te_cycles=te_ns(name),
            selectivity={s: selectivity(name, s) for s in streams},
            output_bytes={s: hop_ns(name, s) for s in streams},
        )
    return ProfileSet(topology, profiles)


def prior(spec: RuntimeSpec) -> ProfileSet:
    """Nothing measured: every task costs the same per tuple and passes
    every tuple on, and every hop costs the same at each end."""
    return _profiles(
        spec, lambda name: PRIOR_NS, lambda name, s: 1.0, lambda name, s: PRIOR_NS
    )


def calibrate(
    spec: RuntimeSpec, rounds: int, vectorized: str
) -> tuple[ProfileSet, dict[tuple[int, int], float], int] | None:
    """Measure the model's inputs on the run's first events.

    Returns the profiles, the ring messages per ingested event of every
    edge and the events sampled — or None when an operator raised on the
    sample.  ``Te`` is a component's wall per input tuple in its cheapest
    round (a spout's input is what it drew); selectivities and traffic
    are the whole sample's.  The sample runs ``spec`` as lowered, unfused:
    a chain would hide its members' ``Te`` and its edges' hops.
    """
    te: dict[str, float] = {}
    wall: dict[str, float] = defaultdict(float)
    taken: dict[str, int] = defaultdict(int)
    sampled = inline_rounds(spec, rounds, ROUND_EVENTS, vectorized=vectorized)
    for _ in range(rounds):
        try:
            sample = next(sampled)
        except Exception:
            # An operator that fails on the sample fails the run as well,
            # and it is the run that reports it: typed, with its partial
            # result.  Only the operators run in here; a mistake in the
            # arithmetic below is not caught.
            return None
        before = wall, taken
        wall, taken = defaultdict(float), defaultdict(int)
        for rt in spec.tasks:
            wall[rt.component] += sample.task_wall_ns.get(rt.task_id, 0.0)
            taken[rt.component] += (
                sample.spout_produced[rt.task_id]
                if rt.is_spout
                else sample.stats[rt.task_id].tuples_in
            )
        for name, count in taken.items():
            fresh = count - before[1][name]
            if fresh:
                spent = (wall[name] - before[0][name]) / fresh
                te[name] = min(te.get(name, spent), spent)
    events = sum(sample.spout_produced.values())
    emitted: dict[tuple[str, str], int] = defaultdict(int)
    for rt in spec.tasks:
        for stream, count in sample.stats[rt.task_id].out_by_stream.items():
            emitted[(rt.component, stream)] += count
    # What moving a stream between workers costs each end: its messages
    # plus the codec of its tuples (the mean of both ends'), per tuple.
    component = {rt.task_id: rt.component for rt in spec.tasks}
    cost: dict[tuple[str, str], float] = defaultdict(float)
    moved: dict[tuple[str, str], int] = defaultdict(int)
    messages = {}
    for edge in spec.edges:
        key = (edge.producer, edge.consumer)
        stats = sample.queue_stats[key]
        messages[key] = stats.enqueued_batches / max(events, 1)
        codec = sum(COLUMN_NS if end in sample.columnar else ROW_NS for end in key) / 2
        stream = (component[edge.producer], edge.stream)
        cost[stream] += MESSAGE_NS * stats.enqueued_batches
        cost[stream] += codec * stats.enqueued_tuples
        moved[stream] += stats.enqueued_tuples
    profiles = _profiles(
        spec,
        lambda name: te.get(name, 0.0),
        lambda name, s: emitted[(name, s)] / max(taken[name], 1),
        lambda name, s: cost[(name, s)] / max(moved[(name, s)], 1),
    )
    return profiles, messages, events


def search(
    spec: RuntimeSpec, n_workers: int, profiles: ProfileSet, source: str = "prior"
) -> Placement:
    """The placement the branch and bound finds for ``profiles`` — a pure
    function of costs and traffic.  The incumbent starts as everything on
    worker 0, so no answer models worse than not parallelizing; the first
    dive follows the bound into a balanced plan; equal candidates rank
    collocated first, then by lower worker id, so equal inputs give equal
    maps."""
    started = perf_counter()
    replicas = sum(task.weight for task in spec.graph.tasks)
    model = _WorkerModel(profiles, worker_machine(n_workers, replicas), system=_SYSTEM)
    found = PlacementOptimizer(
        model, 1.0, max_nodes=NODES_PER_TASK * len(spec.tasks), branch_width=n_workers
    ).optimize(spec.graph, initial_plan=collocated_plan(spec.graph))
    owner = dict(sorted(found.plan.placement.items()))
    evaluator = model.evaluator(spec.graph, 1.0)
    evaluator.reset(owner)
    loads, _ = evaluator.loads()
    busiest = max(max(loads), 1e-9)
    return Placement(
        owner=owner,
        n_workers=n_workers,
        source=source,
        cut_edges=spec.cut_edges(owner),
        load_share=[load / busiest for load in loads],
        predicted_events_per_s=(
            found.throughput * len(spec.topology.spouts)
            if source == "calibrated"
            else None
        ),
        search_ms=(perf_counter() - started) * 1e3,
        bnb_nodes=found.stats.nodes_expanded,
    )


def place(
    spec: RuntimeSpec, n_workers: int, max_events: int, vectorized: str
) -> Placement:
    """Calibrate on as much of the run as it can afford, then search."""
    if n_workers == 1 or max_events == 0:
        # No choice to make, or no tuple to move: nothing to search for.
        owner = {rt.task_id: 0 for rt in spec.tasks}
        return Placement(owner, n_workers, "prior", [])
    rounds = min(ROUNDS, max_events // (SAMPLE_SHARE * ROUND_EVENTS))
    started = perf_counter()
    sample = calibrate(spec, rounds, vectorized) if rounds else None
    if sample is None:
        return search(spec, n_workers, prior(spec))
    profiles, messages, events = sample
    calibrate_ms = (perf_counter() - started) * 1e3
    placement = search(spec, n_workers, profiles, "calibrated")
    placement.calibrate_ms = calibrate_ms
    placement.sample_events = events
    placement.messages_per_event = sum(messages[e] for e in placement.cut_edges)
    return placement
