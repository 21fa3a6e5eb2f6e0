"""The single lowering from (Topology, ExecutionPlan) to runnable state.

Both the functional engine (live execution) and the discrete-event
simulator used to expand a plan into runtime state independently: task
tables, per-edge queues, routing tables.  This module owns that
translation so the two stay structurally identical — a queue that exists
in the DES exists in a live run, routing fan-outs match, and the iteration
orders (which drive round-robin pulls and routing counters) are fixed in
exactly one place.

The lowering is deliberately *execution-free*: a :class:`RuntimeSpec` is a
frozen description that any :class:`~repro.runtime.backends.ExecutorBackend`
(or the DES) can turn into live queues and operator instances.

Queue capacities
----------------
Live bounded runs derive per-edge capacities from a *queue budget*: every
consumer task is granted ``queue_budget`` buffered tuples (the paper's
Eq. 5 bounds total queue memory per replica), split evenly over its input
edges and floored at one jumbo batch so a sealed batch always fits.
Passing an explicit ``queue_capacity`` instead applies one uniform bound
per edge (the DES convention), and ``queue_capacity=None`` with
``queue_budget=None`` leaves every queue unbounded (the seed engine's
semantics, still the default for ``LocalEngine`` runs without a plan).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

from repro.dsps.graph import ExecutionGraph, Task, TaskEdge
from repro.dsps.operators import Operator, OperatorContext, Spout
from repro.dsps.streams import BroadcastGrouping, GlobalGrouping, Grouping
from repro.dsps.topology import Topology
from repro.errors import PlanError

if TYPE_CHECKING:  # import cycle: core.plan imports dsps, which imports us
    from repro.core.plan import ExecutionPlan

#: Default per-consumer-task queue budget in tuples for bounded live runs;
#: matches the BriskStream system profile's ``queue_capacity``.
DEFAULT_QUEUE_BUDGET = 2048


@dataclass(frozen=True)
class RouteSpec:
    """One logical outgoing edge of a task, resolved to consumer task ids.

    Attributes
    ----------
    stream:
        Stream name the producer emits on.
    grouping:
        The edge's partitioning strategy (routes individual tuples).
    consumers:
        Consumer task ids in replica order — the index space
        ``grouping.route`` selects from.
    mode:
        Rate-level routing class derived from the grouping: ``"all"``
        (broadcast), ``"first"`` (global) or ``"pick"`` (unicast).  The
        DES routes by mode without touching tuple contents.
    """

    stream: str
    grouping: Grouping
    consumers: tuple[int, ...]
    mode: str

    @cached_property
    def counter_key(self) -> str:
        """Per-producer routing-counter key (stable across backends),
        built once per route: the routers read it per call."""
        return f"{self.stream}->{self.consumers}"


@dataclass(frozen=True)
class TaskRuntime:
    """Everything a backend needs to run one task."""

    task: Task
    is_spout: bool
    is_sink: bool
    socket: int | None
    in_edges: tuple[TaskEdge, ...]
    out_edges: tuple[TaskEdge, ...]
    routes: tuple[RouteSpec, ...]

    @property
    def task_id(self) -> int:
        return self.task.task_id

    @property
    def component(self) -> str:
        return self.task.component


@dataclass(frozen=True)
class RuntimeSpec:
    """A lowered, runnable description of one execution configuration.

    ``tasks`` is in topological task order (producers before consumers) —
    the order backends instantiate and schedule in.  ``edges`` preserves
    the execution graph's edge order, which fixes each consumer's input
    round-robin sequence.
    """

    topology: Topology
    graph: ExecutionGraph
    tasks: tuple[TaskRuntime, ...]
    edges: tuple[TaskEdge, ...]
    queue_capacity: Mapping[tuple[int, int], int | None]
    batch_size: int
    #: Field typecodes per (producer, consumer) task pair, collected from
    #: the producing operators' ``declared_fields`` hints; seeds the data
    #: plane's binary codec so edge schemas need no runtime inference.
    edge_schemas: Mapping[tuple[int, int], str] = field(default_factory=dict)
    #: Fused task chains, head first: every intra-chain edge is executed
    #: inline by the chain head instead of through a queue.  Task ids stay
    #: stable — constituents keep their instances, stats and state, so
    #: epochs, migration and parity checks are unaffected by fusion.  A
    #: lowering has none: an executor derives them from where it runs
    #: each task (:mod:`repro.runtime.fusion`).
    fusion: tuple[tuple[int, ...], ...] = ()
    @property
    def fused_member_ids(self) -> frozenset[int]:
        """Task ids executed inline by a chain head (everything after the
        head of each fused chain)."""
        return frozenset(
            tid for chain in self.fusion for tid in chain[1:]
        )

    def runtime_of(self, task_id: int) -> TaskRuntime:
        for rt in self.tasks:
            if rt.task_id == task_id:
                return rt
        raise PlanError(f"unknown task id {task_id}")

    @property
    def spout_tasks(self) -> list[TaskRuntime]:
        return [rt for rt in self.tasks if rt.is_spout]

    @property
    def sink_tasks(self) -> list[TaskRuntime]:
        return [rt for rt in self.tasks if rt.is_sink]

    @property
    def bounded(self) -> bool:
        """True when at least one queue carries a finite capacity."""
        return any(c is not None for c in self.queue_capacity.values())

    @property
    def placed(self) -> bool:
        """True when at least one task carries a plan socket."""
        return any(rt.socket is not None for rt in self.tasks)

    def socket_groups(self) -> dict[int, list[int]]:
        """Task ids grouped by placement socket (socket 0 when unplaced)."""
        groups: dict[int, list[int]] = {}
        for rt in self.tasks:
            groups.setdefault(rt.socket if rt.socket is not None else 0, []).append(
                rt.task_id
            )
        return groups

    def cut_edges(self, owner: Mapping[int, int]) -> list[tuple[int, int]]:
        """Edges whose ends ``owner`` (task id → worker) keeps apart."""
        return [
            (edge.producer, edge.consumer)
            for edge in self.edges
            if owner[edge.producer] != owner[edge.consumer]
        ]

    def describe(self) -> str:
        """Human-readable lowering summary."""
        bounded = sum(1 for c in self.queue_capacity.values() if c is not None)
        lines = [
            f"runtime spec of {self.topology.name!r}: "
            f"{len(self.tasks)} tasks, {len(self.edges)} queues "
            f"({bounded} bounded), batch={self.batch_size}"
        ]
        for rt in self.tasks:
            kind = "spout" if rt.is_spout else ("sink" if rt.is_sink else "op")
            socket = "-" if rt.socket is None else str(rt.socket)
            lines.append(
                f"  [{rt.task_id}] {rt.task.label} ({kind}, socket {socket}, "
                f"{len(rt.in_edges)} in / {len(rt.out_edges)} out)"
            )
        return "\n".join(lines)


def _route_mode(grouping: Grouping) -> str:
    if isinstance(grouping, BroadcastGrouping):
        return "all"
    if isinstance(grouping, GlobalGrouping):
        return "first"
    return "pick"


def _build_routes(
    topology: Topology, graph: ExecutionGraph, component: str
) -> tuple[RouteSpec, ...]:
    routes = []
    for edge in topology.outgoing(component):
        consumers = tuple(t.task_id for t in graph.tasks_of(edge.consumer))
        routes.append(
            RouteSpec(
                stream=edge.stream,
                grouping=edge.grouping,
                consumers=consumers,
                mode=_route_mode(edge.grouping),
            )
        )
    return tuple(routes)


def _capacities(
    graph: ExecutionGraph,
    batch_size: int,
    queue_capacity: int | None,
    queue_budget: int | None,
) -> dict[tuple[int, int], int | None]:
    if queue_capacity is not None and queue_budget is not None:
        raise PlanError("pass either queue_capacity or queue_budget, not both")
    if queue_capacity is not None and queue_capacity < batch_size:
        raise PlanError(
            f"queue capacity {queue_capacity} cannot hold one batch of {batch_size}"
        )
    if queue_budget is not None and queue_budget < batch_size:
        raise PlanError(
            f"queue budget {queue_budget} cannot hold one batch of {batch_size}"
        )
    capacities: dict[tuple[int, int], int | None] = {}
    for edge in graph.edges:
        key = (edge.producer, edge.consumer)
        if queue_capacity is not None:
            capacities[key] = queue_capacity
        elif queue_budget is not None:
            n_in = max(1, len(graph.incoming(edge.consumer)))
            capacities[key] = max(batch_size, queue_budget // n_in)
        else:
            capacities[key] = None
    return capacities


def _edge_schemas(
    topology: Topology, graph: ExecutionGraph
) -> dict[tuple[int, int], str]:
    """Field typecodes per task edge, from producers' declared fields.

    An edge whose producer declares no schema for its stream — or a task
    pair carrying two streams with conflicting schemas — is simply left
    out: the codec then infers (or falls back) at runtime.
    """
    from repro.runtime.dataplane.codec import validate_schema

    component_of = {
        task.task_id: task.component for task in graph.topological_task_order()
    }
    schemas: dict[tuple[int, int], str | None] = {}
    for edge in graph.edges:
        template = topology.component(component_of[edge.producer]).template
        declared = getattr(template, "declared_fields", None) or {}
        code = declared.get(edge.stream)
        if code is not None:
            try:
                validate_schema(code)
            except ValueError as exc:
                raise PlanError(
                    f"component {component_of[edge.producer]!r} declares an "
                    f"invalid field schema for stream {edge.stream!r}: {exc}"
                ) from exc
        key = (edge.producer, edge.consumer)
        if key in schemas and schemas[key] != code:
            code = None
        schemas[key] = code
    return {key: code for key, code in schemas.items() if code is not None}


def lower_graph(
    topology: Topology,
    graph: ExecutionGraph,
    *,
    batch_size: int = 64,
    queue_capacity: int | None = None,
    queue_budget: int | None = None,
    placement: Mapping[int, int] | None = None,
) -> RuntimeSpec:
    """Lower an execution graph (optionally with a placement) to a spec."""
    if batch_size < 1:
        raise PlanError("batch size must be >= 1")
    if graph.topology is not topology:
        raise PlanError("graph was built from a different topology")
    spouts = set(topology.spouts)
    sinks = set(topology.sinks)
    placement = dict(placement) if placement is not None else {}
    routes_by_component = {
        name: _build_routes(topology, graph, name) for name in topology.components
    }
    tasks = tuple(
        TaskRuntime(
            task=task,
            is_spout=task.component in spouts,
            is_sink=task.component in sinks,
            socket=placement.get(task.task_id),
            in_edges=tuple(graph.incoming(task.task_id)),
            out_edges=tuple(graph.outgoing(task.task_id)),
            routes=routes_by_component[task.component],
        )
        for task in graph.topological_task_order()
    )
    return RuntimeSpec(
        topology=topology,
        graph=graph,
        tasks=tasks,
        edges=tuple(graph.edges),
        queue_capacity=_capacities(graph, batch_size, queue_capacity, queue_budget),
        batch_size=batch_size,
        edge_schemas=_edge_schemas(topology, graph),
    )


def lower_plan(
    plan: "ExecutionPlan",
    *,
    batch_size: int = 64,
    queue_capacity: int | None = None,
    queue_budget: int | None = DEFAULT_QUEUE_BUDGET,
) -> RuntimeSpec:
    """Lower a complete :class:`ExecutionPlan` to a runnable spec.

    Unlike :func:`lower_graph`, a plan lowering is bounded by default:
    queue capacities derive from the plan's queue budget (see the module
    docstring) unless a uniform ``queue_capacity`` overrides them.
    """
    if not plan.is_complete:
        raise PlanError(f"plan incomplete: tasks {plan.unplaced_tasks} unplaced")
    if queue_capacity is not None:
        queue_budget = None
    return lower_graph(
        plan.graph.topology,
        plan.graph,
        batch_size=batch_size,
        queue_capacity=queue_capacity,
        queue_budget=queue_budget,
        placement=plan.placement,
    )


def with_sockets(spec: RuntimeSpec, sockets: Mapping[int, int | None]) -> RuntimeSpec:
    """``spec`` re-placed: each task on ``sockets[task id]`` (a task not
    named keeps its socket).  The one way a running spec changes
    sockets: a live migration and a degraded re-plan both come through
    here, and the executor that runs the result derives its chains."""
    return dc_replace(
        spec,
        tasks=tuple(
            dc_replace(rt, socket=sockets.get(rt.task_id, rt.socket))
            for rt in spec.tasks
        ),
    )


def instantiate_tasks(spec: RuntimeSpec) -> dict[int, Spout | Operator]:
    """Clone and prepare one operator instance per task of ``spec``.

    Shared by the inline backend and the process-pool workers (each worker
    instantiates only its own partition, but through this same path so
    replica contexts are identical everywhere).
    """
    return {
        rt.task_id: instantiate_task(spec, rt) for rt in spec.tasks
    }


def instantiate_task(spec: RuntimeSpec, rt: TaskRuntime) -> Spout | Operator:
    """Clone and prepare the operator instance backing one task."""
    template = spec.topology.component(rt.component).template
    instance = template.clone()
    instance.prepare(
        OperatorContext(
            operator=rt.component,
            replica_index=rt.task.replica_start,
            n_replicas=spec.graph.replication[rt.component],
            task_id=rt.task_id,
        )
    )
    return instance
