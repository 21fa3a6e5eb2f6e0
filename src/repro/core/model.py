"""The rate-based NUMA-aware performance model (Section 3.1).

For a given execution plan the model estimates, per task, the expected
output rate ``ro``.  The application throughput is the summed output rate
of all sink operators: ``R = sum(ro over sinks)``.

Per-tuple cost (Formula 1's ``T(p)``) decomposes into

``Te``
    function execution + emission time (profiled, plan-independent);
``Others``
    runtime overhead determined by the system profile (object churn,
    queue access, serialization — Section 5 is about making this small);
``Tf``
    data fetch time, ``ceil(N / S) * L(i, j)`` when the task sits on a
    different socket than its producer, else 0 (Formula 2).

Two supply regimes close the model (Section 3.1):

Case 1 (over-supplied, ``ri > capacity``)
    the task is a *bottleneck*: it outputs at capacity, splitting output
    over producers proportionally to their input shares;
Case 2 (under-supplied)
    output is limited by input: ``ro = ri * selectivity``.

The model is the innermost loop of branch-and-bound search, so all
plan-independent terms (per-edge wire bytes and cache-line counts, per-task
execution and overhead costs) are compiled once per execution graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.plan import ExecutionPlan
from repro.core.profiles import ProfileSet, SystemProfile
from repro.dsps.graph import ExecutionGraph
from repro.errors import PlanError
from repro.hardware.machine import NS_PER_SECOND, MachineSpec

#: Default system cost structure: BriskStream itself (jumbo tuples, tiny
#: instruction footprint, pass-by-reference).  Calibrated so that "Others"
#: lands near 10% of Storm's per-tuple overhead (Figure 8).
BRISKSTREAM = SystemProfile(
    name="BriskStream",
    te_multiplier=1.0,
    others_ns=60.0,
    queue_op_ns=220.0,
    serialization_ns_per_byte=0.0,
    header_amortized=True,
    queue_amortized=True,
    batch_size=64,
)

#: Relative slack before a task counts as over-supplied (numerical noise guard).
_OVERSUPPLY_TOLERANCE = 1e-9


class TfMode(Enum):
    """How the data-fetch term ``Tf`` reacts to relative location."""

    #: Formula 2 — the RLAS paradigm: Tf depends on the NUMA distance
    #: between the task and each of its producers.
    RELATIVE = "relative"
    #: RLAS_fix(U): ignore remote memory access entirely (Tf = 0).  Also the
    #: "W/o rma" bound of Figure 10.
    ZERO = "zero"
    #: RLAS_fix(L): pessimistically anti-collocate every task from all its
    #: producers (Tf uses the machine's worst-case latency).
    WORST = "worst"


@dataclass(frozen=True, slots=True)
class EdgeFlow:
    """Steady-state flow over one task edge under a plan."""

    producer: int
    consumer: int
    stream: str
    tuple_rate: float
    wire_bytes_per_tuple: float
    producer_socket: int | None
    consumer_socket: int | None
    fetch_ns_per_tuple: float = 0.0

    @property
    def bytes_per_second(self) -> float:
        return self.tuple_rate * self.wire_bytes_per_tuple

    @property
    def crosses_sockets(self) -> bool:
        return (
            self.producer_socket is not None
            and self.consumer_socket is not None
            and self.producer_socket != self.consumer_socket
        )


@dataclass(frozen=True, slots=True)
class TaskRates:
    """Model outputs for one task."""

    task_id: int
    component: str
    weight: int
    input_rate: float
    capacity: float
    processed_rate: float
    output_rates: Mapping[str, float]
    te_ns: float
    overhead_ns: float
    tf_ns: float
    oversupplied: bool

    @property
    def t_ns(self) -> float:
        """Total per-tuple cost ``T = Te + Others + Tf``."""
        return self.te_ns + self.overhead_ns + self.tf_ns

    @property
    def output_rate(self) -> float:
        """Total output rate over all streams."""
        return float(sum(self.output_rates.values()))

    @property
    def oversupply_ratio(self) -> float:
        """``ri / capacity`` — Algorithm 1 scales bottlenecks by its ceiling."""
        if self.capacity <= 0:
            return float("inf") if self.input_rate > 0 else 1.0
        return self.input_rate / self.capacity


@dataclass
class ModelResult:
    """Full evaluation of a plan: rates, interconnect traffic and ``R``."""

    throughput: float
    rates: dict[int, TaskRates]
    interconnect_bytes: np.ndarray
    flows: list[EdgeFlow] = field(default_factory=list)

    @property
    def bottlenecks(self) -> list[int]:
        """Over-supplied task ids (Case 1) — the scaling targets."""
        return [t for t, r in sorted(self.rates.items()) if r.oversupplied]

    def rate(self, task_id: int) -> TaskRates:
        try:
            return self.rates[task_id]
        except KeyError as exc:
            raise PlanError(f"no rates computed for task {task_id}") from exc

    def component_throughput(self, component: str) -> float:
        """Summed processed rate of one component's tasks."""
        return sum(
            r.processed_rate for r in self.rates.values() if r.component == component
        )


class _CompiledTask:
    """Plan-independent constants of one task."""

    __slots__ = (
        "task_id",
        "component",
        "weight",
        "te_ns",
        "base_overhead_ns",
        "serde_per_in_byte",
        "selectivity",
        "memory_bytes",
        "spout_share",
        "is_sink",
        "in_edges",
        "producers",
    )

    def __init__(self) -> None:
        #: One ``(producer, stream, share, wire_bytes, cache_lines)`` per
        #: in-edge, in graph edge order: the plan-independent constants the
        #: forward pass folds, unpacked without an attribute lookup.
        self.in_edges: list[tuple[int, str, float, float, int]] = []
        #: Task ids of ``in_edges``' producers (set once edges are known).
        self.producers: frozenset[int] = frozenset()


class _CompiledGraph:
    """All plan-independent terms of one execution graph."""

    def __init__(
        self,
        graph: ExecutionGraph,
        profiles: ProfileSet,
        machine: MachineSpec,
        system: SystemProfile,
    ) -> None:
        self.graph = graph
        self._consumers: dict[int, tuple[int, ...]] = {}
        self._closures: dict[int, tuple[int, ...]] = {}
        topology = graph.topology
        spout_weights = {
            name: sum(t.weight for t in graph.tasks_of(name))
            for name in topology.spouts
        }
        sink_components = set(topology.sinks)
        self.tasks: list[_CompiledTask] = []
        by_id: dict[int, _CompiledTask] = {}
        for task in graph.topological_task_order():
            profile = profiles[task.component]
            ct = _CompiledTask()
            ct.task_id = task.task_id
            ct.component = task.component
            ct.weight = task.weight
            ct.te_ns = system.execute_ns(machine.cycles_to_ns(profile.te_cycles))
            total_sel = profile.total_selectivity
            if total_sel > 0:
                out_bytes = (
                    sum(
                        profile.stream_selectivity(s) * profile.stream_bytes(s)
                        for s in profile.selectivity
                    )
                    / total_sel
                )
            else:
                out_bytes = 0.0
            ct.base_overhead_ns = (
                system.others_ns
                + system.queue_cost_ns(total_sel)
                + system.serialization_ns_per_byte * out_bytes
            )
            if len(topology.incoming(task.component)) > 1:
                # e.g. Flink's mandatory stream-merger for multi-input
                # operators (LR); zero for BriskStream and Storm.
                ct.base_overhead_ns += system.multi_input_penalty_ns
            ct.serde_per_in_byte = system.serialization_ns_per_byte
            ct.selectivity = tuple(profile.selectivity.items())
            ct.memory_bytes = profile.memory_bytes
            ct.spout_share = (
                task.weight / spout_weights[task.component]
                if task.component in spout_weights
                else 0.0
            )
            ct.is_sink = task.component in sink_components
            self.tasks.append(ct)
            by_id[task.task_id] = ct
        consumers: dict[int, set[int]] = {}
        for edge in graph.edges:
            producer = graph.task(edge.producer)
            payload = profiles.edge_payload_bytes(producer.component, edge.stream)
            wire = system.wire_bytes(payload)
            by_id[edge.consumer].in_edges.append(
                (
                    edge.producer,
                    edge.stream,
                    edge.share,
                    wire,
                    machine.cache_lines(wire),
                )
            )
            consumers.setdefault(edge.producer, set()).add(edge.consumer)
        self._consumers = {
            producer: tuple(sorted(seen)) for producer, seen in consumers.items()
        }
        for ct in self.tasks:
            ct.producers = frozenset(edge[0] for edge in ct.in_edges)

    def downstream_closure(self, task_id: int) -> tuple[int, ...]:
        """Task ids whose model state can depend on ``task_id``'s placement.

        The model is a single forward pass over the DAG, so a placement
        change of one task can only alter the task itself (its ``Tf``) and
        everything reachable through its out-edges (rates *and* the ``Tf``
        its consumers pay to fetch from it).  Cached per task: the closures
        are the incremental evaluator's dependency sets.
        """
        cached = self._closures.get(task_id)
        if cached is None:
            seen: set[int] = set()
            stack = [task_id]
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                stack.extend(self._consumers.get(current, ()))
            cached = tuple(sorted(seen))
            self._closures[task_id] = cached
        return cached


class PerformanceModel:
    """Evaluates execution plans for one application on one machine."""

    def __init__(
        self,
        profiles: ProfileSet,
        machine: MachineSpec,
        system: SystemProfile = BRISKSTREAM,
        tf_mode: TfMode = TfMode.RELATIVE,
    ) -> None:
        self.profiles = profiles
        self.machine = machine
        self.system = system
        self.tf_mode = tf_mode
        self._latency = [
            [machine.latency_ns(i, j) for j in machine.sockets]
            for i in machine.sockets
        ]
        self._worst_latency = self._compute_worst_latency()
        self._compiled: dict[int, _CompiledGraph] = {}

    def _compute_worst_latency(self) -> float:
        machine = self.machine
        if machine.n_sockets == 1:
            return machine.local_latency_ns
        return max(
            machine.latency_ns(i, j)
            for i in machine.sockets
            for j in machine.sockets
            if i != j
        )

    def _compile(self, graph: ExecutionGraph) -> _CompiledGraph:
        compiled = self._compiled.get(id(graph))
        if compiled is None or compiled.graph is not graph:
            compiled = _CompiledGraph(graph, self.profiles, self.machine, self.system)
            if len(self._compiled) > 64:
                self._compiled.clear()
            self._compiled[id(graph)] = compiled
        return compiled

    def __getstate__(self) -> dict:
        # The compiled-graph cache is keyed by object identity, which does
        # not survive pickling (multi-worker search ships models to worker
        # processes); workers recompile lazily.
        state = self.__dict__.copy()
        state["_compiled"] = {}
        return state

    def evaluator(
        self, graph: ExecutionGraph, ingress_rate: float
    ) -> "IncrementalEvaluator":
        """An :class:`IncrementalEvaluator` bound to ``graph`` and ``I``.

        Compiles the graph once (shared with :meth:`evaluate` through the
        compilation cache) and returns a stateful evaluator supporting
        ``apply``/``undo``/``reset`` with delta re-propagation — the B&B
        search's fast path.
        """
        return IncrementalEvaluator(self, graph, ingress_rate)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def evaluate(
        self,
        plan: ExecutionPlan,
        ingress_rate: float,
        bounding: bool = False,
        collect_flows: bool = False,
    ) -> ModelResult:
        """Estimate rates and throughput of ``plan`` under input rate ``I``.

        Parameters
        ----------
        plan:
            Placement to evaluate.  Must be complete unless ``bounding``.
        ingress_rate:
            External input stream ingress rate ``I`` (events/s), split over
            each spout component's replicas.
        bounding:
            Evaluate the B&B bounding function: tasks without a placement
            (or whose producer is unplaced) fetch at local cost, i.e.
            ``Tf = 0`` for those edges — the relaxed problem whose value
            upper-bounds every completion of this partial plan.
        collect_flows:
            Also materialize per-edge :class:`EdgeFlow` records (needed by
            the communication-matrix metrics; skipped in the optimizer's
            hot path).
        """
        if not bounding and not plan.is_complete:
            raise PlanError(
                "plan is incomplete; use bounding=True to evaluate a partial plan"
            )
        compiled = self._compile(plan.graph)
        placement = plan.placement
        latency = self._latency
        zero_tf = self.tf_mode is TfMode.ZERO
        worst_tf = self.tf_mode is TfMode.WORST
        worst_latency = self._worst_latency
        n = self.machine.n_sockets
        interconnect = np.zeros((n, n), dtype=np.float64)
        rates: dict[int, TaskRates] = {}
        out_rates: dict[int, dict[str, float]] = {}
        flows: list[EdgeFlow] = []
        throughput = 0.0

        for ct in compiled.tasks:
            socket = placement.get(ct.task_id)
            if not ct.in_edges:
                input_rate = ingress_rate * ct.spout_share
                tf_ns = 0.0
                in_bytes = 0.0
            else:
                total_rate = 0.0
                weighted_tf = 0.0
                weighted_bytes = 0.0
                for producer, stream, share, wire, lines in ct.in_edges:
                    producer_out = out_rates[producer].get(stream)
                    if not producer_out:
                        continue
                    rate = producer_out * share
                    producer_socket = placement.get(producer)
                    if zero_tf:
                        fetch = 0.0
                    elif worst_tf:
                        fetch = lines * worst_latency
                    elif producer_socket is None or socket is None:
                        fetch = 0.0  # bounding relaxation: assume collocated
                    elif producer_socket == socket:
                        fetch = 0.0
                    else:
                        fetch = lines * latency[producer_socket][socket]
                    total_rate += rate
                    weighted_tf += rate * fetch
                    weighted_bytes += rate * wire
                    if (
                        producer_socket is not None
                        and socket is not None
                        and producer_socket != socket
                    ):
                        interconnect[producer_socket, socket] += rate * wire
                    if collect_flows:
                        flows.append(
                            EdgeFlow(
                                producer=producer,
                                consumer=ct.task_id,
                                stream=stream,
                                tuple_rate=rate,
                                wire_bytes_per_tuple=wire,
                                producer_socket=producer_socket,
                                consumer_socket=socket,
                                fetch_ns_per_tuple=fetch,
                            )
                        )
                if total_rate > 0.0:
                    input_rate = total_rate
                    tf_ns = weighted_tf / total_rate
                    in_bytes = weighted_bytes / total_rate
                else:
                    input_rate = tf_ns = in_bytes = 0.0

            overhead_ns = ct.base_overhead_ns + ct.serde_per_in_byte * in_bytes
            t_ns = ct.te_ns + overhead_ns + tf_ns
            capacity = ct.weight * NS_PER_SECOND / t_ns if t_ns > 0 else float("inf")
            processed = input_rate if input_rate <= capacity else capacity
            oversupplied = input_rate > capacity * (1.0 + _OVERSUPPLY_TOLERANCE)
            task_out = {stream: processed * sel for stream, sel in ct.selectivity}
            out_rates[ct.task_id] = task_out
            if ct.is_sink:
                throughput += processed
                if not task_out:
                    # Sinks emit nothing; their "output rate" for R is the
                    # processed rate (the paper's sink counter increments).
                    task_out = {"__sink__": processed}
            rates[ct.task_id] = TaskRates(
                task_id=ct.task_id,
                component=ct.component,
                weight=ct.weight,
                input_rate=input_rate,
                capacity=capacity,
                processed_rate=processed,
                output_rates=task_out,
                te_ns=ct.te_ns,
                overhead_ns=overhead_ns,
                tf_ns=tf_ns,
                oversupplied=oversupplied,
            )

        return ModelResult(
            throughput=throughput,
            rates=rates,
            interconnect_bytes=interconnect,
            flows=flows,
        )

    # ------------------------------------------------------------------
    # Term helpers (used by measurement/metrics code and tests)
    # ------------------------------------------------------------------
    def fetch_cost_ns(
        self,
        payload_bytes: float,
        producer_socket: int | None,
        consumer_socket: int | None,
    ) -> float:
        """Formula 2 under the active :class:`TfMode` (wire bytes include
        the per-tuple header share the system profile dictates)."""
        if self.tf_mode is TfMode.ZERO:
            return 0.0
        wire = self.system.wire_bytes(payload_bytes)
        lines = self.machine.cache_lines(wire)
        if self.tf_mode is TfMode.WORST:
            return lines * self._worst_latency
        if producer_socket is None or consumer_socket is None:
            return 0.0  # bounding relaxation: assume collocated
        if producer_socket == consumer_socket:
            return 0.0
        return lines * self.machine.latency_ns(producer_socket, consumer_socket)


#: Fraction of the graph a delta's dependency closure may cover before the
#: incremental evaluator falls back to a full re-propagation (recomputing
#: everything is then no slower than the delta bookkeeping, and trivially
#: exact).
_FULL_EVAL_FRACTION = 0.6


class Feasibility:
    """Outcome of one constraint check (Eqs. 3-5) over evaluator state."""

    __slots__ = ("feasible", "cpu", "memory", "replicas", "interconnect")

    def __init__(
        self,
        feasible: bool,
        cpu: list[float],
        memory: list[float],
        replicas: list[int],
        interconnect: list[list[float]],
    ) -> None:
        self.feasible = feasible
        #: Per-socket CPU demand (ns of work per second), Eq. 3's left side.
        self.cpu = cpu
        #: Per-socket memory traffic (Eq. 4) and replica count (cores).
        self.memory = memory
        self.replicas = replicas
        #: Bytes per second from socket i to socket j, Eq. 5's left side.
        self.interconnect = interconnect


class IncrementalEvaluator:
    """Delta re-evaluation of plans over one execution graph.

    The batch :meth:`PerformanceModel.evaluate` is a single forward pass in
    topological task order, so the only state a placement change of task
    ``x`` can touch is ``x`` itself plus its downstream closure (rates
    propagate forward; the consumers' ``Tf`` references ``x``'s socket).
    This evaluator keeps the full per-task state of the last evaluated
    placement and, on :meth:`apply`/:meth:`reset`, re-propagates only the
    affected topological suffix — bit-identical to the batch pass, because
    every per-task computation performs the same float operations in the
    same order on the same inputs.

    Fallback: when a delta touches a spout (its closure is essentially the
    whole graph) or the closure covers most tasks, the evaluator performs a
    full re-propagation instead (counted in :attr:`full_evals`); results
    are identical either way.

    Not thread-safe; B&B owns one evaluator per search.
    """

    def __init__(
        self, model: PerformanceModel, graph: ExecutionGraph, ingress_rate: float
    ) -> None:
        if ingress_rate <= 0:
            raise PlanError("ingress rate must be positive")
        self._model = model
        self._graph = graph
        self._compiled = model._compile(graph)
        self._ingress = ingress_rate
        machine = model.machine
        self._machine = machine
        self._latency = model._latency
        self._worst = model._worst_latency
        self._zero_tf = model.tf_mode is TfMode.ZERO
        self._worst_tf = model.tf_mode is TfMode.WORST
        tasks = self._compiled.tasks
        self._tasks = tasks
        n = len(tasks)
        self._n = n
        ns = machine.n_sockets
        self._n_sockets = ns
        self._bandwidth = [
            [machine.bandwidth(i, j) if i != j else 0.0 for j in range(ns)]
            for i in range(ns)
        ]
        # evaluate() walks compiled tasks in topological order, which is
        # also dense task-id order (ExecutionGraph assigns ids that way);
        # the state arrays below are indexed by task id and rely on it.
        self._sinks = [ct.task_id for ct in tasks if ct.is_sink]
        self._socket: list[int | None] = [None] * n
        self._input_rate = [0.0] * n
        self._tf = [0.0] * n
        self._overhead = [0.0] * n
        self._t = [0.0] * n
        self._capacity = [0.0] * n
        self._processed = [0.0] * n
        self._oversupplied = [False] * n
        self._out: list[dict[str, float]] = [{} for _ in range(n)]
        self._icx: list[list[tuple[int, int, float]]] = [[] for _ in range(n)]
        self._throughput = 0.0
        self._undo: list[tuple] = []
        #: Delta re-propagations performed (the fast path).
        self.incremental_evals = 0
        #: Full re-propagations performed (construction, resets, fallbacks).
        self.full_evals = 0
        self.full_evals += 1
        self._recompute(range(n), set(range(n)))

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------
    @property
    def throughput(self) -> float:
        """Summed sink output rate ``R`` of the current placement."""
        return self._throughput

    def placement(self) -> dict[int, int]:
        """Copy of the current (possibly partial) placement."""
        return {i: s for i, s in enumerate(self._socket) if s is not None}

    def apply(self, task_id: int, socket: int | None) -> None:
        """Place (or move, or with ``None`` unplace) one task.

        Saves an undo record; re-propagates the task's dependency closure.
        """
        self._apply(((task_id, socket),))

    def _apply(self, moves: Sequence[tuple[int, int | None]]) -> None:
        """Re-place every task of ``moves`` in one delta, one undo record."""
        socket_of = self._socket
        for task_id, _ in moves:
            if not 0 <= task_id < self._n:
                raise PlanError(f"unknown task id {task_id}")
        previous = [(task_id, socket_of[task_id]) for task_id, _ in moves]
        prev_throughput = self._throughput
        for task_id, socket in moves:
            socket_of[task_id] = socket
        written = self._run_delta([task_id for task_id, _ in moves], collect=True)
        self._undo.append((previous, prev_throughput, written))

    def undo(self, keep: bool = False) -> tuple | None:
        """Revert the most recent :meth:`apply` (LIFO).

        With ``keep``, returns the record :meth:`redo` takes to bring the
        reverted state back without recomputing it.
        """
        if not self._undo:
            raise PlanError("nothing to undo")
        return self._restore(self._undo.pop(), keep)

    def redo(self, record: tuple) -> None:
        """Re-enter the state an ``undo(keep=True)`` left; the evaluator
        must be where that undo put it.  A jump, like :meth:`reset` (the
        undo history is cleared), but it recomputes nothing and counts as
        no evaluation."""
        self._undo.clear()
        self._restore(record, False)

    def _restore(self, record: tuple, invert: bool) -> tuple | None:
        previous, throughput, states = record
        socket_of = self._socket
        inverse = None
        if invert:
            inverse = (
                [(task_id, socket_of[task_id]) for task_id, _ in previous],
                self._throughput,
                [
                    (
                        i,
                        (
                            self._input_rate[i],
                            self._tf[i],
                            self._overhead[i],
                            self._t[i],
                            self._capacity[i],
                            self._processed[i],
                            self._oversupplied[i],
                            self._out[i],
                            self._icx[i],
                        ),
                    )
                    for i, _ in states
                ],
            )
        for task_id, socket in reversed(previous):
            socket_of[task_id] = socket
        for i, state in states:
            (
                self._input_rate[i],
                self._tf[i],
                self._overhead[i],
                self._t[i],
                self._capacity[i],
                self._processed[i],
                self._oversupplied[i],
                self._out[i],
                self._icx[i],
            ) = state
        self._throughput = throughput
        return inverse

    def try_moves(
        self,
        moves: Sequence[tuple[int, int | None]],
        threshold: float,
        accept: Callable[[], bool],
    ) -> bool:
        """Apply ``moves`` (distinct tasks) as one step; keep it iff
        ``throughput > threshold`` and ``accept()``, else undo it.

        The local searches' keep-or-undo primitive.  A kept step is a
        commitment: like :meth:`reset` it drops the undo history, which
        therefore cannot grow with the moves a climb accepts (and no older
        record can be replayed over it).  A rejected step leaves no trace.
        """
        self._apply(moves)
        if self.throughput > threshold and accept():
            self._undo.clear()
            return True
        self.undo()
        return False

    def reset(self, placement: Mapping[int, int]) -> None:
        """Synchronize to ``placement``, re-propagating only the diff.

        Clears the undo history (a reset is a jump, not a step).
        """
        changed = []
        socket_of = self._socket
        for i in range(self._n):
            new = placement.get(i)
            if socket_of[i] != new:
                socket_of[i] = new
                changed.append(i)
        self._undo.clear()
        if changed:
            self._run_delta(changed)

    def _run_delta(
        self, changed: list[int], collect: bool = False
    ) -> list[tuple] | None:
        """Re-propagate what re-placing ``changed`` can affect: the union
        of their downstream closures, or everything when that is most of
        the graph or a spout moved."""
        closure = self._compiled.downstream_closure
        if len(changed) == 1:
            affected = closure(changed[0])
        else:
            seen: set[int] = set()
            for i in changed:
                seen.update(closure(i))
            affected = tuple(sorted(seen))
        tasks = self._tasks
        touches_spout = any(tasks[i].spout_share > 0.0 for i in changed)
        if touches_spout or len(affected) >= _FULL_EVAL_FRACTION * self._n:
            self.full_evals += 1
            return self._recompute(range(self._n), set(changed), collect)
        self.incremental_evals += 1
        return self._recompute(affected, set(changed), collect)

    # ------------------------------------------------------------------
    # The forward pass (mirrors PerformanceModel.evaluate exactly)
    # ------------------------------------------------------------------
    def _recompute(
        self, indices, changed: set[int], collect: bool = False
    ) -> list[tuple] | None:
        """Re-run the model's per-task pass over ``indices`` (ascending).

        The loop body must stay operation-for-operation identical to the
        batch pass in :meth:`PerformanceModel.evaluate`; the randomized
        equivalence tests enforce this bit-for-bit.

        ``changed`` holds the task ids whose socket just changed.  A task
        outside it whose producers all kept their socket *and* their exact
        output rates is skipped: its row is a pure function of those
        inputs, so recomputing it would write back the identical bits.
        Propagation therefore stops at the frontier where values stop
        changing — in branch-and-bound probes (downstream tasks unplaced,
        fetch relaxed to zero) that is typically the direct consumers.

        With ``collect`` the previous state of every overwritten row is
        returned for :meth:`undo`.
        """
        tasks = self._tasks
        socket_of = self._socket
        out = self._out
        latency = self._latency
        zero_tf = self._zero_tf
        worst_tf = self._worst_tf
        worst = self._worst
        ingress = self._ingress
        input_rate_arr = self._input_rate
        tf_arr = self._tf
        overhead_arr = self._overhead
        t_arr = self._t
        capacity_arr = self._capacity
        processed_arr = self._processed
        oversupplied_arr = self._oversupplied
        icx_arr = self._icx
        out_changed: set[int] = set()
        written: list[tuple] | None = [] if collect else None
        for i in indices:
            ct = tasks[i]
            if (
                i not in changed
                and changed.isdisjoint(ct.producers)
                and out_changed.isdisjoint(ct.producers)
            ):
                continue
            socket = socket_of[i]
            contribs: list[tuple[int, int, float]] = []
            if not ct.in_edges:
                input_rate = ingress * ct.spout_share
                tf_ns = 0.0
                in_bytes = 0.0
            else:
                total_rate = 0.0
                weighted_tf = 0.0
                weighted_bytes = 0.0
                for producer, stream, share, wire, lines in ct.in_edges:
                    producer_out = out[producer].get(stream)
                    if not producer_out:
                        continue
                    rate = producer_out * share
                    producer_socket = socket_of[producer]
                    if zero_tf:
                        fetch = 0.0
                    elif worst_tf:
                        fetch = lines * worst
                    elif producer_socket is None or socket is None:
                        fetch = 0.0  # bounding relaxation: assume collocated
                    elif producer_socket == socket:
                        fetch = 0.0
                    else:
                        fetch = lines * latency[producer_socket][socket]
                    total_rate += rate
                    weighted_tf += rate * fetch
                    weighted_bytes += rate * wire
                    if (
                        producer_socket is not None
                        and socket is not None
                        and producer_socket != socket
                    ):
                        contribs.append((producer_socket, socket, rate * wire))
                if total_rate > 0.0:
                    input_rate = total_rate
                    tf_ns = weighted_tf / total_rate
                    in_bytes = weighted_bytes / total_rate
                else:
                    input_rate = tf_ns = in_bytes = 0.0
            overhead_ns = ct.base_overhead_ns + ct.serde_per_in_byte * in_bytes
            t_ns = ct.te_ns + overhead_ns + tf_ns
            capacity = ct.weight * NS_PER_SECOND / t_ns if t_ns > 0 else float("inf")
            processed = input_rate if input_rate <= capacity else capacity
            prev_out = out[i]
            if collect:
                written.append(
                    (
                        i,
                        (
                            input_rate_arr[i],
                            tf_arr[i],
                            overhead_arr[i],
                            t_arr[i],
                            capacity_arr[i],
                            processed_arr[i],
                            oversupplied_arr[i],
                            prev_out,
                            icx_arr[i],
                        ),
                    )
                )
            input_rate_arr[i] = input_rate
            tf_arr[i] = tf_ns
            overhead_arr[i] = overhead_ns
            t_arr[i] = t_ns
            capacity_arr[i] = capacity
            processed_arr[i] = processed
            oversupplied_arr[i] = input_rate > capacity * (1.0 + _OVERSUPPLY_TOLERANCE)
            new_out = {stream: processed * sel for stream, sel in ct.selectivity}
            out[i] = new_out
            icx_arr[i] = contribs
            if new_out != prev_out:
                out_changed.add(i)
        # Left-fold over sinks in topological order: the same grouping of
        # additions the batch pass performs while walking all tasks.
        throughput = 0.0
        for i in self._sinks:
            throughput += processed_arr[i]
        self._throughput = throughput
        return written

    # ------------------------------------------------------------------
    # Readouts
    # ------------------------------------------------------------------
    def task_values(self, task_id: int) -> tuple[float, float, float, float]:
        """``(output_rate, tf_ns, processed_rate, t_ns)`` of one task.

        The best-fit ranking inputs, without materializing a
        :class:`TaskRates`.
        """
        ct = self._tasks[task_id]
        out = self._out[task_id]
        if ct.is_sink and not out:
            output_rate = self._processed[task_id]
        else:
            output_rate = float(sum(out.values()))
        return (
            output_rate,
            self._tf[task_id],
            self._processed[task_id],
            self._t[task_id],
        )

    def check(
        self, base: Feasibility | None = None, last: int | None = None
    ) -> Feasibility:
        """Constraint check of the current placement (Eqs. 3-5 + cores).

        Unplaced tasks contribute no demand — B&B's relaxed sub-problem.
        Every per-socket sum is a left fold over the placed tasks in
        task-id order, whatever order the placement was given in; for a
        plan built producer-first that is also the order
        :func:`repro.core.constraints.resource_report` folds in.

        With ``base`` — the check of this placement without task ``last``,
        which no placed task follows in id order and whose placing changed
        no placed task's row — only ``last``'s terms are added to copies of
        ``base``'s sums: the same folds, one step further, the same bits.
        """
        ns = self._n_sockets
        if base is None:
            cpu = [0.0] * ns
            mem = [0.0] * ns
            replicas = [0] * ns
            matrix = [[0.0] * ns for _ in range(ns)]
            folded = range(self._n)
        else:
            cpu = base.cpu.copy()
            mem = base.memory.copy()
            replicas = base.replicas.copy()
            matrix = base.interconnect
            folded = (last,)
        socket_of = self._socket
        tasks = self._tasks
        processed = self._processed
        t = self._t
        icx = self._icx
        for i in folded:
            s = socket_of[i]
            if s is None:
                continue
            cpu[s] += processed[i] * t[i]
            mem[s] += processed[i] * tasks[i].memory_bytes
            replicas[s] += tasks[i].weight
            if icx[i]:
                if base is not None:
                    matrix = [row.copy() for row in matrix]
                for a, b, value in icx[i]:
                    matrix[a][b] += value
        feasible = self._fits(cpu, mem, replicas, matrix)
        return Feasibility(feasible, cpu, mem, replicas, matrix)

    def _fits(
        self,
        cpu: list[float],
        mem: list[float],
        replicas: list[int],
        matrix: list[list[float]],
    ) -> bool:
        machine = self._machine
        cpu_capacity = machine.cpu_capacity
        local_bandwidth = machine.local_bandwidth
        cores = machine.cores_per_socket
        sockets = range(self._n_sockets)
        for s in sockets:
            if (
                cpu[s] > cpu_capacity
                or mem[s] > local_bandwidth
                or replicas[s] > cores
            ):
                return False
            row = matrix[s]
            limit = self._bandwidth[s]
            for j in sockets:
                if j != s and row[j] > 0 and row[j] > limit[j]:
                    return False
        return True

    def result(self) -> ModelResult:
        """Materialize the full :class:`ModelResult` of the current state.

        Bit-identical to ``model.evaluate(plan, I, bounding=True)`` on the
        equivalent plan (and to the unbounded call when it is complete).
        """
        ns = self._n_sockets
        interconnect = np.zeros((ns, ns), dtype=np.float64)
        for contribs in self._icx:
            for i, j, value in contribs:
                interconnect[i, j] += value
        rates: dict[int, TaskRates] = {}
        for i in range(self._n):
            ct = self._tasks[i]
            task_out = self._out[i]
            if ct.is_sink and not task_out:
                task_out = {"__sink__": self._processed[i]}
            rates[i] = TaskRates(
                task_id=i,
                component=ct.component,
                weight=ct.weight,
                input_rate=self._input_rate[i],
                capacity=self._capacity[i],
                processed_rate=self._processed[i],
                output_rates=task_out,
                te_ns=ct.te_ns,
                overhead_ns=self._overhead[i],
                tf_ns=self._tf[i],
                oversupplied=self._oversupplied[i],
            )
        return ModelResult(
            throughput=self._throughput,
            rates=rates,
            interconnect_bytes=interconnect,
            flows=[],
        )
