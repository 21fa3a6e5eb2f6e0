"""Topologically sorted iterative scaling (Section 4, Algorithm 1).

Replication and placement must be optimized *together*: an operator's
processing capability varies with its placement (the NUMA effect), so the
bottleneck set is only known after placement optimization.  The scaling
loop therefore alternates:

1. optimize placement for the current replication configuration (B&B,
   then a local-search polish);
2. walk components sinks-first (reverse topological order) and grow every
   bottleneck (over-supplied) operator by a step proportional to its
   over-supply ratio ``ceil(ri / ro)``, clamped to at most double; when
   the replica budget runs out, over-provisioned components are trimmed
   back to their demand first;
3. repeat until placement fails, nothing can grow, or a configuration
   repeats; then attempt a demand-proportional budget rebalance.

The best plan seen across iterations is returned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import ceil

from repro.core.bnb import PlacementOptimizer, PlacementResult
from repro.core.model import PerformanceModel
from repro.core.refinement import refine_plan
from repro.dsps.graph import ExecutionGraph
from repro.dsps.topology import Topology
from repro.errors import PlanError
from repro.metrics.registry import NULL_REGISTRY, MetricsRegistry


def saturation_ingress(
    topology: Topology,
    model: PerformanceModel,
    headroom: float = 0.95,
) -> float:
    """Estimate the maximum attainable ingress rate ``Imax`` (Section 6.1).

    The paper tunes the external input rate to just keep the system busy.
    Analytically, the machine saturates when the per-event CPU demand summed
    over the whole pipeline (at local-access costs) equals the machine's
    aggregate capacity; ``headroom`` backs off slightly for RMA and
    imbalance losses.
    """
    graph = ExecutionGraph(topology, {n: 1 for n in topology.components})
    from repro.core.plan import collocated_plan  # local import: avoid cycle

    result = model.evaluate(collocated_plan(graph), 1.0, bounding=True)
    per_event_ns = sum(
        r.processed_rate * r.t_ns for r in result.rates.values()
    )
    if per_event_ns <= 0:
        raise PlanError("pipeline consumes no CPU; cannot estimate saturation")
    return model.machine.n_cores * 1e9 / per_event_ns * headroom


def suggest_initial_replication(
    topology: Topology,
    model: PerformanceModel,
    ingress_rate: float,
    max_total_replicas: int,
    headroom: float = 0.85,
) -> dict[str, int]:
    """Estimate a starting replication level from local-only costs.

    Appendix D notes that starting the scaling loop from a reasonably large
    DAG (instead of all-ones) cuts the number of iterations.  This walks
    the topology assuming every operator is collocated with its producers
    (``Tf = 0``) and provisions ``ceil(rate * T / 1e9)`` replicas, scaled
    by ``headroom`` and clipped to the replica budget — deliberately a
    slight *under*-estimate so Algorithm 1 still converges from below.
    """
    graph = ExecutionGraph(topology, {n: 1 for n in topology.components})
    from repro.core.plan import collocated_plan  # local import: avoid cycle

    result = model.evaluate(collocated_plan(graph), ingress_rate, bounding=True)
    needed: dict[str, int] = {}
    rate_in: dict[str, float] = {}
    for name in topology.topological_order():
        task = graph.tasks_of(name)[0]
        rates = result.rates[task.task_id]
        t_ns = rates.t_ns
        if not topology.incoming(name):
            demand = ingress_rate
        else:
            demand = 0.0
            for edge in topology.incoming(name):
                producer_out = rate_in.get(edge.producer, 0.0) * model.profiles[
                    edge.producer
                ].stream_selectivity(edge.stream)
                demand += producer_out * edge.grouping.fan_out(1)
        rate_in[name] = demand
        replicas = max(1, ceil(demand * t_ns / 1e9 * headroom))
        needed[name] = replicas
    total = sum(needed.values())
    if total > max_total_replicas:
        scale = max_total_replicas / total
        needed = {n: max(1, int(k * scale)) for n, k in needed.items()}
    return needed


@dataclass
class ScalingIteration:
    """Snapshot of one scaling loop iteration."""

    replication: dict[str, int]
    throughput: float
    feasible: bool
    scaled_component: str | None = None


@dataclass
class ScalingResult:
    """Best replication + placement found by Algorithm 1."""

    replication: dict[str, int]
    placement: PlacementResult
    iterations: list[ScalingIteration] = field(default_factory=list)
    runtime_s: float = 0.0

    @property
    def throughput(self) -> float:
        return self.placement.throughput

    @property
    def total_replicas(self) -> int:
        return sum(self.replication.values())


class ScalingOptimizer:
    """Joint replication/placement optimizer (the RLAS outer loop)."""

    def __init__(
        self,
        topology: Topology,
        model: PerformanceModel,
        ingress_rate: float,
        compress_ratio: int = 1,
        max_total_replicas: int | None = None,
        max_iterations: int = 64,
        max_nodes: int | None = None,
        refine_passes: int = 1,
        refine_top_k: int = 12,
        registry: MetricsRegistry | None = None,
    ) -> None:
        """
        Parameters
        ----------
        topology:
            The logical application DAG.
        model:
            Performance model (profiles + machine + system + Tf mode).
        ingress_rate:
            External ingress rate ``I`` (events/s).
        compress_ratio:
            Heuristic 3's replica group size ``r`` handed to the execution
            graph (1 = no compression; the paper defaults to 5).
        max_total_replicas:
            Scaling upper limit; defaults to the machine's core count
            (each replica needs a core under thread affinity).
        max_iterations:
            Hard cap on scaling iterations.
        max_nodes:
            Per-iteration B&B expansion budget.
        refine_passes / refine_top_k:
            Budget for the per-iteration local-search polish of the B&B
            placement (0 passes disables it).  Refining inside the loop
            matters: it lowers the RMA-induced part of a bottleneck before
            the scaler reacts to it by adding replicas.
        registry:
            Metrics sink for search statistics (B&B node counts, scaling
            iterations, time-to-best, refinement and rebalance time);
            defaults to the no-op registry.
        """
        if compress_ratio < 1:
            raise PlanError("compress ratio must be >= 1")
        self.topology = topology
        self.model = model
        self.ingress_rate = ingress_rate
        self.compress_ratio = compress_ratio
        self.max_total_replicas = (
            max_total_replicas
            if max_total_replicas is not None
            else model.machine.n_cores
        )
        self.max_iterations = max_iterations
        self.max_nodes = max_nodes
        self.refine_passes = refine_passes
        self.refine_top_k = refine_top_k
        self.registry = registry if registry is not None else NULL_REGISTRY
        #: Distinct execution graphs built (memoized); regression-tested.
        self._graph_builds = 0
        self._graph_cache: dict[tuple[frozenset, int], ExecutionGraph] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def optimize(
        self,
        initial_replication: dict[str, int] | None = None,
        seed: bool = False,
    ) -> ScalingResult:
        """Run Algorithm 1 and return the best plan discovered.

        ``initial_replication`` seeds the loop explicitly.  When it is
        omitted and ``seed`` is true, a local-cost-based estimate is used
        (Appendix D's "start from a reasonably large DAG" optimization);
        by default every component starts at replication level 1, the
        paper's baseline Algorithm 1 behaviour — growing from below lets
        the bottleneck-driven loop stop at the *efficient* replication
        level instead of saturating the machine.
        """
        start = time.perf_counter()
        if initial_replication is None and seed:
            initial_replication = suggest_initial_replication(
                self.topology, self.model, self.ingress_rate, self.max_total_replicas
            )
        replication = dict(
            initial_replication
            or {name: 1 for name in self.topology.components}
        )
        placer = PlacementOptimizer(
            self.model,
            self.ingress_rate,
            max_nodes=self.max_nodes,
        )

        best: ScalingResult | None = None
        iterations: list[ScalingIteration] = []
        seen_configs: set[frozenset[tuple[str, int]]] = set()

        for _ in range(self.max_iterations):
            config = frozenset(replication.items())
            if config in seen_configs:
                break  # trim/grow reached a fixed point or a cycle
            seen_configs.add(config)
            graph = self._build_graph(replication)
            result = self._place_with_fallback(placer, graph, replication)
            result = self._refine(result)
            feasible = result.plan is not None
            self.registry.counter("rlas.scaling.iterations").inc()
            result.stats.publish(self.registry)
            iterations.append(
                ScalingIteration(
                    replication=dict(replication),
                    throughput=result.throughput,
                    feasible=feasible,
                )
            )
            if feasible and (best is None or result.throughput > best.throughput):
                best = ScalingResult(
                    replication=dict(replication), placement=result
                )
                self.registry.gauge("rlas.scaling.best_throughput").set(
                    result.throughput
                )
                self.registry.gauge("rlas.scaling.time_to_best_s").set(
                    time.perf_counter() - start
                )
            if not feasible:
                break  # cannot place this configuration: stop scaling
            scaled = self._scale_bottlenecks(replication, result)
            if not scaled:
                break  # no bottleneck left, or replica budget exhausted
            iterations[-1].scaled_component = ",".join(scaled)

        if best is not None:
            # The endgame's wall outside refinement, which has its own clock.
            refining = self.registry.histogram("rlas.refine.runtime_s")
            entered, refined = time.perf_counter(), refining.total
            rebalanced = self._attempt_rebalance(placer, best)
            self.registry.gauge("rlas.scaling.rebalance_s").set(
                time.perf_counter() - entered - (refining.total - refined)
            )
            if rebalanced is not None and rebalanced.throughput > best.throughput:
                iterations.append(
                    ScalingIteration(
                        replication=dict(rebalanced.replication),
                        throughput=rebalanced.throughput,
                        feasible=True,
                        scaled_component="<rebalance>",
                    )
                )
                best = rebalanced
        if best is None:
            raise PlanError(
                f"no feasible execution plan found for {self.topology.name!r} "
                f"on {self.model.machine.name}"
            )
        best.iterations = iterations
        best.runtime_s = time.perf_counter() - start
        return best

    # ------------------------------------------------------------------
    # Budget rebalance
    # ------------------------------------------------------------------
    def _attempt_rebalance(
        self, placer: PlacementOptimizer, best: ScalingResult
    ) -> ScalingResult | None:
        """Endgame: re-derive a demand-proportional replication.

        The growth loop can stall with the budget exhausted while the
        component mix still reflects its doubling trajectory rather than
        the per-component demand.  This pass finds the largest ingress
        fraction whose demand-proportional allocation (at local costs,
        with a margin for RMA) fits the replica budget, places it, and
        keeps it when it beats the incumbent.
        """
        demand = self._unit_demand()
        margin = 1.05
        # Initial RMA expectation: most of a component's input crosses one
        # hop until a placement proves otherwise.
        tf_est = {name: 0.7 * tf_spread for name, (_, _, tf_spread) in demand.items()}
        best_rebalance: ScalingResult | None = None

        for _ in range(3):
            def total_needed(ingress: float) -> tuple[int, dict[str, int]]:
                needed = {
                    name: max(
                        1,
                        ceil(rate * ingress * (t_ns + tf_est[name]) * margin / 1e9),
                    )
                    for name, (rate, t_ns, _) in demand.items()
                }
                return sum(needed.values()), needed

            low, high = 0.0, self.ingress_rate
            chosen: dict[str, int] | None = None
            for _bisect in range(32):
                mid = (low + high) / 2
                total, needed = total_needed(mid)
                if total <= self.max_total_replicas:
                    chosen = needed
                    low = mid
                else:
                    high = mid
            if chosen is None:
                return best_rebalance
            graph = self._build_graph(chosen)
            result = self._place_with_fallback(placer, graph, chosen)
            result = self._refine(result)
            if result.plan is None or result.model_result is None:
                return best_rebalance
            candidate = ScalingResult(replication=dict(chosen), placement=result)
            if (
                best_rebalance is None
                or candidate.throughput > best_rebalance.throughput
            ):
                best_rebalance = candidate
            # Feed the *measured* RMA cost of this placement back into the
            # demand estimate: components that ended up paying more remote
            # access than expected get more replicas next round.
            rates = result.model_result.rates
            for name in self.topology.components:
                tasks = result.plan.graph.tasks_of(name)
                total_rate = sum(rates[t.task_id].processed_rate for t in tasks)
                if total_rate <= 0:
                    continue
                measured_tf = (
                    sum(
                        rates[t.task_id].processed_rate * rates[t.task_id].tf_ns
                        for t in tasks
                    )
                    / total_rate
                )
                tf_est[name] = 0.5 * tf_est[name] + 0.5 * measured_tf
        return best_rebalance

    def _unit_demand(self) -> dict[str, tuple[float, float, float]]:
        """Per-component (input rate per unit ingress, local T, 1-hop Tf).

        Two single-replica evaluations: one fully collocated (local costs)
        and one spread round-robin over the sockets (typical remote fetch
        cost per component).
        """
        graph = ExecutionGraph(self.topology, {n: 1 for n in self.topology.components})
        from repro.core.plan import ExecutionPlan, collocated_plan  # local import

        local = self.model.evaluate(collocated_plan(graph), 1.0, bounding=True)
        n_sockets = self.model.machine.n_sockets
        spread_plan = ExecutionPlan(
            graph=graph,
            placement={t.task_id: t.task_id % n_sockets for t in graph.tasks},
        )
        spread = self.model.evaluate(spread_plan, 1.0)
        demand: dict[str, tuple[float, float, float]] = {}
        for name in self.topology.components:
            task = graph.tasks_of(name)[0]
            demand[name] = (
                local.rates[task.task_id].input_rate,
                local.rates[task.task_id].t_ns,
                spread.rates[task.task_id].tf_ns,
            )
        return demand

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _build_graph(
        self, replication: dict[str, int], group_size: int | None = None
    ) -> ExecutionGraph:
        """Build (or reuse) the execution graph of one replication config.

        The scaling loop and the rebalance endgame repeatedly request
        graphs for replication dicts they have already tried (fixed
        points, re-probes of the incumbent, fallback retries), and the
        incremental evaluator's compiled state is cached per graph
        *object* — so memoizing on the frozen replication signature both
        skips redundant graph expansion and lets every reuse hit the
        model's compile cache.
        """
        size = self.compress_ratio if group_size is None else group_size
        key = (frozenset(replication.items()), size)
        graph = self._graph_cache.get(key)
        if graph is None:
            graph = ExecutionGraph(self.topology, dict(replication), group_size=size)
            self._graph_cache[key] = graph
            self._graph_builds += 1
            self.registry.counter("rlas.scaling.graph_builds").inc()
        return graph

    def _refine(self, result: PlacementResult) -> PlacementResult:
        """Polish a feasible placement with the local-search pass."""
        if result.plan is None or self.refine_passes < 1:
            return result
        started = time.perf_counter()
        plan, model_result, stats = refine_plan(
            result.plan,
            self.model,
            self.ingress_rate,
            max_passes=self.refine_passes,
            top_k=self.refine_top_k,
        )
        stats.publish(self.registry, time.perf_counter() - started)
        if model_result.throughput <= result.throughput:
            return result
        return PlacementResult(
            plan=plan,
            throughput=model_result.throughput,
            model_result=model_result,
            stats=result.stats,
        )

    def _place_with_fallback(
        self,
        placer: PlacementOptimizer,
        graph: ExecutionGraph,
        replication: dict[str, int],
    ) -> PlacementResult:
        """Optimize placement; on failure retry once with finer compression.

        A compressed group may be too coarse to fit any socket even though
        the same replicas would fit individually (Appendix D): groups of 5
        cannot tile sockets of 18 cores.  Such a graph costs no search —
        ``PlacementOptimizer`` proves first that its weights do not pack
        (counted as ``rlas.bnb.packing_proofs``) — and halving the ratio
        often restores feasibility.  The retry is bounded to one step —
        fully uncompressed graphs of a saturated machine are far too
        expensive to search when they do pack the cores but break another
        constraint.  The returned search's statistics carry the discarded
        one's packing proof, if it had one.
        """
        result = placer.optimize(graph)
        if result.plan is None and self.compress_ratio > 1:
            coarse_proofs = result.stats.packing_proofs
            finer = self._build_graph(
                replication, group_size=max(1, self.compress_ratio // 2)
            )
            result = placer.optimize(finer)
            result.stats.packing_proofs += coarse_proofs
        return result

    #: Per-iteration growth clamp: a bottleneck at most doubles, so the
    #: replica budget is shared across components instead of being consumed
    #: by the first large over-supply ratio observed.
    _MAX_GROWTH_FACTOR = 2.0

    def _scale_bottlenecks(
        self, replication: dict[str, int], result: PlacementResult
    ) -> list[str]:
        """Grow every bottleneck component, sinks first.

        Algorithm 1 as published scales one operator per placement
        round; growing all bottlenecks of the round at once (each clamped
        to at most double) reaches the same equilibrium in far fewer
        placement optimizations — an implementation deviation DESIGN.md
        records.  When the replica budget is exhausted, over-provisioned
        components are trimmed back to their demand first, which keeps the
        plan in the paper's observed "just fulfilled" state (Section 6.4)
        instead of letting an early overshoot starve downstream operators.

        Returns the scaled component names (empty when nothing can grow).
        """
        assert result.model_result is not None and result.plan is not None
        bottleneck_tasks = set(result.bottlenecks)
        if not bottleneck_tasks:
            return []
        graph = result.plan.graph
        rates = result.model_result.rates
        scaled: list[str] = []
        for component in self.topology.reverse_topological_order():
            tasks = [
                t for t in graph.tasks_of(component) if t.task_id in bottleneck_tasks
            ]
            if not tasks:
                continue
            input_rate = sum(rates[t.task_id].input_rate for t in tasks)
            capacity = sum(rates[t.task_id].capacity for t in tasks)
            current = replication[component]
            if capacity <= 0:
                target = current + 1
            else:
                target = ceil(current * input_rate / capacity)
            target = min(target, int(current * self._MAX_GROWTH_FACTOR))
            target = max(target, current + 1)
            total = sum(replication.values())
            headroom = self.max_total_replicas - total
            if headroom < target - current:
                bottleneck_components = {
                    result.plan.graph.task(t).component for t in bottleneck_tasks
                }
                freed = self._trim_overprovisioned(
                    replication,
                    result,
                    exempt=bottleneck_components,
                    needed=target - current - headroom,
                )
                headroom += freed
            if headroom <= 0:
                continue  # try a later (upstream) bottleneck
            target = min(target, current + headroom)
            if target <= current:
                continue
            replication[component] = target
            scaled.append(component)
        return scaled

    def _trim_overprovisioned(
        self,
        replication: dict[str, int],
        result: PlacementResult,
        exempt: set[str],
        needed: int,
    ) -> int:
        """Shrink components whose capacity far exceeds their input.

        Trims at most ``needed`` replicas in total, never below each
        component's own demand (with a safety margin for the RMA penalty a
        tighter packing may introduce).  Bottleneck components are exempt.
        Returns the number of freed replicas.
        """
        assert result.model_result is not None and result.plan is not None
        rates = result.model_result.rates
        graph = result.plan.graph
        margin = 1.25
        freed = 0
        for component in self.topology.topological_order():
            if freed >= needed or component in exempt:
                continue
            tasks = graph.tasks_of(component)
            input_rate = sum(rates[t.task_id].input_rate for t in tasks)
            # Requirement at *local* cost (Tf = 0): that is the capacity a
            # well-collocated placement can achieve, so trimming towards it
            # nudges the plan back to collocation instead of locking in the
            # RMA penalty the current over-spread placement pays.
            local_capacity = sum(
                t.weight * 1e9 / (rates[t.task_id].t_ns - rates[t.task_id].tf_ns)
                for t in tasks
                if rates[t.task_id].t_ns > rates[t.task_id].tf_ns
            )
            # Per-replica capacity must use the replica count the rates
            # were computed under, not a replication level a previous trim
            # in this round may already have mutated.
            rated_replicas = graph.replication[component]
            current = replication[component]
            if local_capacity <= 0 or current <= 1:
                continue
            per_replica = local_capacity / rated_replicas
            required = max(1, ceil(input_rate * margin / per_replica))
            excess = current - required
            if excess <= 0:
                continue
            cut = min(excess, needed - freed)
            replication[component] = current - cut
            freed += cut
        return freed
