"""Branch-and-bound placement optimization (Section 4, Algorithm 2).

The solver enumerates a tree of (partial) placements.  A node's *bounding
value* is the throughput of the relaxed problem in which every not-yet
placed task is collocated with all of its producers (``Tf = 0``) and
contributes no resource demand — a true upper bound on every completion of
the node, so pruning preserves optimality.

The paper's three branching heuristics appear as follows:

1. **Collocation heuristic** — tasks are placed strictly producer-first
   (topological task order), so each edge's collocation decision is
   resolved exactly when its consumer is placed; placements of a task
   relative to not-yet-placed neighbours, which cannot change any output
   rate, are never enumerated.
2. **Best-fit & redundancy elimination** — producer-first ordering makes
   every task's output rate fully determined at placement time, so the
   best-fit rule (max output rate; ties broken towards collocation, then
   the least remaining CPU, then the lowest socket id — a total order, so
   every search ranks identically) ranks candidates at every step; only
   the top ``branch_width`` are explored.  Identical sub-problems are
   dropped via a visited set over placement signatures *canonicalized up
   to permutations of interchangeable replicas*, and interchangeable
   sockets (same occupants, same NUMA relation to every used socket) are
   branched only once.
3. **Graph compression** is handled upstream by building the execution
   graph with ``group_size > 1`` (see :mod:`repro.core.compression`).

Before any of that, a graph whose task weights cannot be packed into the
sockets' cores at all is answered at once (:func:`packing_exists`): no
branch could ever complete it, since a task never lands on a socket whose
cores it would overfill.

Evaluation cost, the innermost loop of the search, is paid two ways
(see docs/optimizer.md):

* an :class:`~repro.core.model.IncrementalEvaluator` re-propagates only
  the topological suffix a single placement step can affect, instead of
  re-running the full model per candidate;
* a **transposition cache** keyed by the canonical placement signature
  reuses the evaluation of previously seen (equivalent) sub-problems.

The search is strictly sequential and deterministic: at 0.1–0.5 s a
search, forking and merging a parallel frontier costs more than it saves
(docs/benchmarks.md, ISSUE 20).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.constraints import resource_report
from repro.core.model import (
    Feasibility,
    IncrementalEvaluator,
    ModelResult,
    PerformanceModel,
)
from repro.core.plan import ExecutionPlan
from repro.dsps.graph import ExecutionGraph
from repro.errors import PlanError


@dataclass
class SearchStats:
    """Instrumentation of one branch-and-bound run."""

    nodes_expanded: int = 0
    nodes_pruned: int = 0
    nodes_deduplicated: int = 0
    children_generated: int = 0
    evaluations: int = 0
    solutions_found: int = 0
    best_fit_commits: int = 0
    cache_hits: int = 0
    incremental_evals: int = 0
    full_evals: int = 0
    runtime_s: float = 0.0
    time_to_best_s: float = 0.0
    optimal: bool = True
    #: Searches answered "infeasible" without branching, because the task
    #: weights were proven not to fit the sockets' cores: 0 or 1 for one
    #: search, plus the coarser graph's proof when
    #: ``ScalingOptimizer._place_with_fallback`` discards it for a finer one.
    packing_proofs: int = 0

    def publish(self, registry, prefix: str = "rlas.bnb") -> None:
        """Accumulate this search's counts into a metrics registry.

        Counters add up across searches (one scaling run performs many);
        the time gauges reflect the most recent search.  The evaluator's
        delta/full split is published under the model's namespace.
        """
        registry.counter(f"{prefix}.searches").inc()
        registry.counter(f"{prefix}.nodes_expanded").inc(self.nodes_expanded)
        registry.counter(f"{prefix}.nodes_pruned").inc(self.nodes_pruned)
        registry.counter(f"{prefix}.nodes_deduplicated").inc(self.nodes_deduplicated)
        registry.counter(f"{prefix}.children_generated").inc(self.children_generated)
        registry.counter(f"{prefix}.plans_evaluated").inc(self.evaluations)
        registry.counter(f"{prefix}.solutions_found").inc(self.solutions_found)
        registry.counter(f"{prefix}.cache_hits").inc(self.cache_hits)
        registry.counter(f"{prefix}.packing_proofs").inc(self.packing_proofs)
        registry.counter("rlas.model.incremental_evals").inc(self.incremental_evals)
        registry.counter("rlas.model.full_evals").inc(self.full_evals)
        registry.gauge(f"{prefix}.runtime_s").set(self.runtime_s)
        registry.gauge(f"{prefix}.time_to_best_s").set(self.time_to_best_s)
        registry.histogram(f"{prefix}.search_runtime_s").observe(self.runtime_s)


@dataclass
class PlacementResult:
    """Outcome of a placement search."""

    plan: ExecutionPlan | None
    throughput: float
    model_result: ModelResult | None
    stats: SearchStats
    feasible: bool = True

    @property
    def bottlenecks(self) -> list[int]:
        """Over-supplied tasks of the winning plan (scaling targets)."""
        if self.model_result is None:
            return []
        return self.model_result.bottlenecks


#: States the exact packing search may visit before it gives up and
#: leaves the question to the placement search.
PACKING_STEP_CAP = 4096


def packing_exists(weights: list[int], bins: int, capacity: int) -> bool | None:
    """Whether ``weights`` fit into ``bins`` bins of ``capacity`` each.

    First-fit-decreasing answers most instances (True when it packs);
    otherwise an exact search walks the weights largest first over the
    distinct reachable bin loads, kept as sorted tuples (bins of equal load
    are interchangeable), so each sub-problem is explored once.  Returns
    None when that search would visit more than ``PACKING_STEP_CAP`` states.
    """
    items = sorted(weights, reverse=True)
    if sum(items) > bins * capacity or (items and items[0] > capacity):
        return False
    loads = [0] * bins
    for weight in items:
        fits = next((k for k in range(bins) if loads[k] + weight <= capacity), None)
        if fits is None:
            break
        loads[fits] += weight
    else:
        return True
    states = {(0,) * bins}
    steps = 0
    for weight in items:
        reached = set()
        for state in states:
            for k, load in enumerate(state):
                if load + weight > capacity or (k and state[k - 1] == load):
                    continue
                reached.add(
                    tuple(sorted(state[:k] + (load + weight,) + state[k + 1 :]))
                )
        steps += len(reached)
        if not reached:
            return False
        if steps > PACKING_STEP_CAP:
            return None
        states = reached
    return True


@dataclass
class _Node:
    """A branch kept by best fit: a live node once the search pushes it."""

    bound: float
    #: Best-fit rank among its siblings (ties on the stack pop in it).
    rank: int
    #: Task -> socket of the placed prefix; a plan object is built only
    #: for a placement that becomes the incumbent.
    placement: dict[int, int]
    signature: frozenset | None = None
    result: ModelResult | None = None  # populated on the batch path only
    #: Per-socket replica load / canonical class counts of ``placement``,
    #: threaded through the search so nodes need no O(placed) rebuild —
    #: and, on the incremental path, its constraint sums (None: refold).
    load: dict | None = None
    counts: dict | None = None
    check: Feasibility | None = None
    #: The evaluator record of this node's last placement and the parent
    #: placement it applies to: popped straight after its parent's probe,
    #: the node re-enters the evaluator without a re-propagation.
    redo: tuple | None = None
    parent: dict | None = None


class PlacementOptimizer:
    """B&B solver for the operator placement problem."""

    def __init__(
        self,
        model: PerformanceModel,
        ingress_rate: float,
        max_nodes: int | None = None,
        branch_width: int = 2,
        use_incremental: bool = True,
    ) -> None:
        """
        Parameters
        ----------
        model:
            Performance model bound to profiles, machine and system.
        ingress_rate:
            External ingress rate ``I`` used for every evaluation.
        max_nodes:
            Expansion budget; when exhausted the best solution found so
            far is returned with ``stats.optimal = False``.  The bounding
            function is a loose relaxation (it zeroes every unplaced
            task's ``Tf``), so exhausting wide searches buys little —
            by default the budget adapts to the graph size
            (``16 * n_tasks``, at least 256 nodes).
        branch_width:
            Candidate sockets explored per task placement (1 = pure
            greedy best-fit; larger values trade runtime for optimality).
        use_incremental:
            Evaluate candidates with the delta-propagating
            :class:`~repro.core.model.IncrementalEvaluator` plus the
            transposition cache (default).  ``False`` re-runs the full
            batch model per candidate — the pre-optimization path, kept
            for differential testing and the optimizer benchmark.
        """
        if ingress_rate <= 0:
            raise PlanError("ingress rate must be positive")
        if branch_width < 1:
            raise PlanError("branch width must be >= 1")
        self.model = model
        self.machine = model.machine
        self.profiles = model.profiles
        self.ingress_rate = ingress_rate
        self.max_nodes = max_nodes
        self.branch_width = branch_width
        self.use_incremental = use_incremental
        self._graph: ExecutionGraph | None = None
        self._topo_tasks: list = []
        self._task_classes: dict[int, tuple] = {}
        self._class_of: list[int] = []
        self._weight_of: list[int] = []
        self._rounded_latency: list[list[float]] = []
        self._evaluator: IncrementalEvaluator | None = None
        self._tt_cache: dict[frozenset, tuple] = {}
        self._candidates: dict[tuple[int, ...], list[int]] = {}
        #: The placement dict the evaluator's state currently stands for.
        self._synced: dict[int, int] | None = None
        self._stats = SearchStats()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def optimize(
        self,
        graph: ExecutionGraph,
        initial_plan: ExecutionPlan | None = None,
    ) -> PlacementResult:
        """Find the throughput-maximizing feasible placement of ``graph``.

        ``initial_plan`` optionally seeds the incumbent (e.g. a first-fit
        plan) so pruning can start early (Appendix D discussion).  When the
        task weights provably do not pack into the sockets' cores, the
        infeasible result returns without a search
        (``stats.packing_proofs``).
        """
        stats = self._stats = SearchStats()
        start = time.perf_counter()
        # Necessary, not sufficient: a packing may still break a CPU,
        # memory or bandwidth constraint, which the search then finds.
        stats.packing_proofs = int(
            packing_exists(
                [t.weight for t in graph.tasks],
                self.machine.n_sockets,
                self.machine.cores_per_socket,
            )
            is False
        )
        best_plan, best_value, best_result = (
            (None, 0.0, None)
            if stats.packing_proofs
            else self._run(graph, initial_plan, stats, start)
        )
        stats.runtime_s = time.perf_counter() - start
        if best_plan is None:
            return PlacementResult(
                plan=None,
                throughput=0.0,
                model_result=None,
                stats=stats,
                feasible=False,
            )
        return PlacementResult(
            plan=best_plan,
            throughput=best_value,
            model_result=best_result,
            stats=stats,
        )

    def _run(
        self,
        graph: ExecutionGraph,
        initial_plan: ExecutionPlan | None,
        stats: SearchStats,
        start: float,
    ) -> tuple[ExecutionPlan | None, float, ModelResult | None]:
        """Seed the incumbent and run the search; returns the incumbent."""
        node_budget = (
            self.max_nodes
            if self.max_nodes is not None
            else min(max(256, 16 * graph.n_tasks), 1500)
        )
        # Infeasible configurations that do pack the cores (a CPU or
        # bandwidth constraint breaks) should still fail fast: if the
        # deep-first descent has not produced a single complete plan within
        # this budget, alternatives will not rescue it either.
        no_solution_budget = max(256, 6 * graph.n_tasks)

        self._prepare(graph)
        best_plan: ExecutionPlan | None = None
        best_value = 0.0
        best_result: ModelResult | None = None

        if initial_plan is not None and initial_plan.is_complete:
            seeded = self._seed_incumbent(initial_plan)
            if seeded is not None:
                best_plan, best_value, best_result = seeded
                stats.solutions_found += 1
                stats.time_to_best_s = time.perf_counter() - start

        found = self._search(
            [_Node(bound=float("inf"), rank=0, placement={})],
            set(),
            best_plan,
            best_value,
            best_result,
            stats,
            start,
            node_budget,
            no_solution_budget,
        )
        self._collect_eval_counters(stats)
        return found

    # ------------------------------------------------------------------
    # Search core
    # ------------------------------------------------------------------
    def _prepare(self, graph: ExecutionGraph) -> None:
        """Bind per-search state: topo order, task classes, evaluator."""
        self._graph = graph
        self._topo_tasks = graph.topological_task_order()
        self._task_classes = self._equivalence_classes(graph)
        # Signatures hash every (class, socket) key per candidate: number
        # the classes once instead of re-hashing their nested tuples.
        number: dict[tuple, int] = {}
        self._class_of = [
            number.setdefault(self._task_classes[t.task_id], len(number))
            for t in graph.tasks
        ]
        self._weight_of = [t.weight for t in graph.tasks]
        machine = self.machine
        self._rounded_latency = [
            [round(machine.latency_ns(i, j), 3) for j in machine.sockets]
            for i in machine.sockets
        ]
        self._tt_cache = {}
        self._candidates = {}
        self._synced = None
        self._evaluator = (
            self.model.evaluator(graph, self.ingress_rate)
            if self.use_incremental
            else None
        )

    def _search(
        self,
        stack: list[_Node],
        visited: set[frozenset],
        best_plan: ExecutionPlan | None,
        best_value: float,
        best_result: ModelResult | None,
        stats: SearchStats,
        start: float,
        node_budget: int,
        no_solution_budget: int,
    ) -> tuple[ExecutionPlan | None, float, ModelResult | None]:
        """Run the DFS main loop; returns the incumbent."""
        while stack:
            if stats.nodes_expanded >= node_budget or (
                best_plan is None and stats.nodes_expanded >= no_solution_budget
            ):
                stats.optimal = False
                break
            node = stack.pop()
            incumbent = best_value if best_plan is not None else None
            if incumbent is not None and node.bound <= incumbent:
                stats.nodes_pruned += 1
                continue
            stats.nodes_expanded += 1
            live: list[_Node] = []
            for child in self._branch(node):
                if child.signature in visited:
                    stats.nodes_deduplicated += 1
                    continue
                visited.add(child.signature)
                if incumbent is not None and child.bound <= incumbent:
                    stats.nodes_pruned += 1
                    continue
                if len(child.placement) == len(self._topo_tasks):
                    # Bounding and full evaluation coincide on complete
                    # plans, so this child is already a valued solution.
                    if child.bound > best_value:
                        best_plan = ExecutionPlan(
                            graph=self._graph, placement=child.placement
                        )
                        best_value = child.bound
                        best_result = (
                            child.result
                            if child.result is not None
                            else self._materialize(best_plan)
                        )
                        stats.solutions_found += 1
                        stats.time_to_best_s = time.perf_counter() - start
                        incumbent = best_value
                    continue
                live.append(child)
                stats.children_generated += 1
            # LIFO stack: push so the most promising pops first — highest
            # bound last; on tied bounds, the best-fit-ranked child last.
            live.sort(key=lambda n: (n.bound, -n.rank))
            stack.extend(live)
        return best_plan, best_value, best_result

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _seed_incumbent(
        self, plan: ExecutionPlan
    ) -> tuple[ExecutionPlan, float, ModelResult] | None:
        """Evaluate a complete seed plan; None when it is infeasible."""
        self._stats.evaluations += 1
        evaluator = self._evaluator
        if evaluator is not None:
            self._sync(plan.placement)
            if not evaluator.check().feasible:
                return None
            return plan, evaluator.throughput, evaluator.result()
        result = self.model.evaluate(plan, self.ingress_rate, bounding=True)
        report = resource_report(plan, result, self.machine, self.profiles)
        if not report.is_feasible:
            return None
        return plan, result.throughput, result

    def _materialize(self, plan: ExecutionPlan) -> ModelResult:
        """Full :class:`ModelResult` of a plan (incumbent bookkeeping).

        Off the hot path: called only when a new best solution is found.
        """
        evaluator = self._evaluator
        if evaluator is not None:
            self._sync(plan.placement)
            return evaluator.result()
        return self.model.evaluate(plan, self.ingress_rate, bounding=True)

    def _sync(self, placement: dict[int, int], redo: tuple | None = None) -> None:
        """Bring the evaluator to ``placement`` — by ``redo``, the record of
        its last step, when given; by a diff-propagating reset otherwise —
        and remember which dict its state now stands for."""
        if redo is not None:
            self._evaluator.redo(redo)
        elif placement is not self._synced:
            self._evaluator.reset(placement)
        self._synced = placement

    def _collect_eval_counters(self, stats: SearchStats) -> None:
        """Copy the evaluator's delta/full split into the search stats."""
        evaluator = self._evaluator
        if evaluator is not None:
            stats.incremental_evals = evaluator.incremental_evals
            stats.full_evals = evaluator.full_evals

    # ------------------------------------------------------------------
    # Branching
    # ------------------------------------------------------------------
    def _branch(self, node: _Node) -> list[_Node]:
        """Expand a live node: place the next task in topological order.

        Placing tasks producer-first means every task's output rate is
        fully determined at placement time (its producers are all placed),
        so the best-fit commit (heuristic 2) applies at every step and the
        collocation decision of each edge (heuristic 1) is resolved the
        moment its consumer is placed — placements of a task relative to
        not-yet-placed neighbours, which cannot change any rate, are never
        enumerated.  ``branch_width`` keeps the search a *tree* rather
        than a greedy line: the top-k candidate sockets are explored, and
        the bounding function prunes the rest.
        """
        task_id = self._next_task(node.placement)
        if task_id is None:
            return []
        return self._place_task(node, task_id)

    def _next_task(self, placement: dict[int, int]) -> int | None:
        """First unplaced task in topological order.

        Search nodes always place a prefix of the topological order (the
        root is empty and every branch extends by ``_next_task``), so the
        next task is simply the one at index ``len(placement)``.
        """
        depth = len(placement)
        if depth >= len(self._topo_tasks):
            return None
        return self._topo_tasks[depth].task_id

    def _place_task(self, node: _Node, task_id: int) -> list[_Node]:
        """Branch one task over its best candidate sockets.

        Candidates are ranked best-fit style: maximize the task's output
        rate, break ties towards collocation (low ``Tf``), then the socket
        with the least remaining CPU (pack tight, keep whole sockets free
        for downstream operators), then the lowest socket id.  Only the
        effective branch width's best candidates become children — and
        only those get a placement of their own; a probed candidate is a
        tuple.  Sockets whose core budget the task cannot fit are skipped
        without a model evaluation (the dominant case late in a packed
        search).
        """
        placement = node.placement
        weight_of = self._weight_of
        weight = weight_of[task_id]
        class_of = self._class_of
        if node.load is None or node.counts is None:
            node.load = {}
            node.counts = {}
            for placed_id, socket in placement.items():
                node.load[socket] = node.load.get(socket, 0) + weight_of[placed_id]
                key = (class_of[placed_id], socket)
                node.counts[key] = node.counts.get(key, 0) + 1
        probe = (
            self._probe_incremental
            if self._evaluator is not None
            else self._probe_batch
        )
        feasible = probe(node, task_id, weight)
        if not feasible:
            return []
        # Best fit: max output rate; among equals prefer collocation (low
        # Tf), then the socket with the least remaining CPU (pack tight),
        # then the lowest socket id — a total, deterministic order.
        feasible.sort(key=lambda entry: (-entry[0], entry[1], entry[2], entry[3]))
        self._stats.best_fit_commits += 1
        task_class = class_of[task_id]
        chosen: list[_Node] = []
        for rank, (*_, socket, evaluated) in enumerate(feasible[: self.branch_width]):
            load = dict(node.load)
            load[socket] = load.get(socket, 0) + weight
            counts = dict(node.counts)
            key = (task_class, socket)
            counts[key] = counts.get(key, 0) + 1
            chosen.append(
                _Node(
                    rank=rank,
                    placement={**placement, task_id: socket},
                    parent=placement,
                    load=load,
                    counts=counts,
                    **evaluated,
                )
            )
        return chosen

    @staticmethod
    def _child_signature(
        base_counts: dict[tuple, int], task_class: int, socket: int
    ) -> frozenset:
        """Signature of parent + one placement, without a full recount.

        Equals ``_canonical_signature`` of the child plan: bump the one
        ``(class, socket)`` count, freeze, restore.
        """
        key = (task_class, socket)
        previous = base_counts.get(key)
        base_counts[key] = (previous or 0) + 1
        signature = frozenset(base_counts.items())
        if previous is None:
            del base_counts[key]
        else:
            base_counts[key] = previous
        return signature

    def _probe_incremental(
        self, node: _Node, task_id: int, weight: int
    ) -> list[tuple[float, float, float, int, dict]]:
        """Evaluate candidate sockets through apply/undo + the cache.

        One ``(output rate, Tf, remaining CPU, socket, evaluated)`` per
        feasible candidate: the ranking key, then what a kept child takes
        along — its signature and bound and, when freshly probed, its
        constraint check and the evaluator record that re-enters it.

        The task probed is the last placed in id order and moves no placed
        task's row, so a candidate's check is the node's own plus that one
        task's terms; a node popped straight after its parent's probe
        finds the evaluator where that probe left it and redoes its own
        step instead of re-propagating it.
        """
        machine = self.machine
        stats = self._stats
        cache = self._tt_cache
        evaluator = self._evaluator
        placement = node.placement
        self._sync(placement, node.redo if node.parent is self._synced else None)
        base = node.check if node.check is not None else evaluator.check()
        task_class = self._class_of[task_id]
        feasible: list[tuple[float, float, float, int, dict]] = []
        for socket in self._candidate_sockets(node.load):
            if node.load.get(socket, 0) + weight > machine.cores_per_socket:
                continue
            signature = self._child_signature(node.counts, task_class, socket)
            stats.evaluations += 1
            cached = cache.get(signature)
            if cached is not None:
                stats.cache_hits += 1
                ok, bound, out_rate, tf_ns, remaining_cpu = cached
                if ok:
                    evaluated = {"signature": signature, "bound": bound}
                    feasible.append(
                        (out_rate, tf_ns, remaining_cpu, socket, evaluated)
                    )
                continue
            evaluator.apply(task_id, socket)
            check = evaluator.check(base, task_id)
            if not check.feasible:
                cache[signature] = (False, 0.0, 0.0, 0.0, 0.0)
                evaluator.undo()
                continue
            out_rate, tf_ns, processed, t_ns = evaluator.task_values(task_id)
            # Remaining CPU of the socket *before* this task landed on it:
            # a remote placement inflates the task's own demand via Tf,
            # which must not make the socket look more packed.
            remaining_cpu = (
                machine.cpu_capacity - check.cpu[socket] + processed * t_ns
            )
            bound = evaluator.throughput
            cache[signature] = (True, bound, out_rate, tf_ns, remaining_cpu)
            evaluated = {
                "signature": signature,
                "bound": bound,
                "check": check,
                "redo": evaluator.undo(keep=True),
            }
            feasible.append((out_rate, tf_ns, remaining_cpu, socket, evaluated))
        return feasible

    def _probe_batch(
        self, node: _Node, task_id: int, weight: int
    ) -> list[tuple[float, float, float, int, dict]]:
        """Evaluate candidate sockets with one full model run each.

        The pre-incremental path, kept for differential testing and the
        old-vs-new optimizer benchmark.
        """
        machine = self.machine
        task_class = self._class_of[task_id]
        feasible: list[tuple[float, float, float, int, dict]] = []
        for socket in self._candidate_sockets(node.load):
            if node.load.get(socket, 0) + weight > machine.cores_per_socket:
                continue
            child_plan = ExecutionPlan(
                graph=self._graph, placement={**node.placement, task_id: socket}
            )
            self._stats.evaluations += 1
            result = self.model.evaluate(child_plan, self.ingress_rate, bounding=True)
            report = resource_report(child_plan, result, machine, self.profiles)
            if not report.is_feasible:
                continue
            own = result.rates[task_id]
            remaining_cpu = (
                machine.cpu_capacity
                - report.usage(socket).cpu_ns_per_s
                + own.processed_rate * own.t_ns
            )
            evaluated = {
                "signature": self._child_signature(node.counts, task_class, socket),
                "bound": result.throughput,
                "result": result,
            }
            feasible.append(
                (own.output_rate, own.tf_ns, remaining_cpu, socket, evaluated)
            )
        return feasible

    def _candidate_sockets(self, load: dict[int, int]) -> list[int]:
        """Sockets to branch over, deduplicated by interchangeability.

        Two sockets are interchangeable when they host the same occupants
        and sit at the same NUMA distance from every socket already in use
        — branching both would explore isomorphic subtrees (the paper's
        "S1 is identical to S0 at this point" observation).  No two used
        sockets host the same tasks, so only empty ones can be: the answer
        is every used socket plus the first empty one of each distance
        pattern — a function of the used set alone, kept per search.
        """
        used = tuple(sorted(load))
        candidates = self._candidates.get(used)
        if candidates is None:
            latency = self._rounded_latency
            relations: set[tuple] = set()
            candidates = self._candidates[used] = []
            for socket in self.machine.sockets:
                if socket not in load:
                    relation = tuple(latency[socket][u] for u in used)
                    if relation in relations:
                        continue
                    relations.add(relation)
                candidates.append(socket)
        return candidates

    # ------------------------------------------------------------------
    # Redundancy elimination helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _equivalence_classes(graph: ExecutionGraph) -> dict[int, tuple]:
        """Group interchangeable tasks (heuristic 2's redundancy cut).

        Two replicas of the same component with identical weights and
        identical edge share structure behave identically under the model,
        so placements differing only by a permutation of such replicas are
        the same sub-problem.
        """
        classes: dict[int, tuple] = {}
        for task in graph.tasks:
            incoming = tuple(
                sorted(
                    (graph.task(e.producer).component, e.stream, round(e.share, 12))
                    for e in graph.incoming(task.task_id)
                )
            )
            outgoing = tuple(
                sorted(
                    (graph.task(e.consumer).component, e.stream, round(e.share, 12))
                    for e in graph.outgoing(task.task_id)
                )
            )
            classes[task.task_id] = (task.component, task.weight, incoming, outgoing)
        return classes

    def _canonical_signature(self, plan: ExecutionPlan) -> frozenset:
        """Placement identity up to permutations of interchangeable tasks."""
        counts: dict[tuple, int] = {}
        class_of = self._class_of
        for task_id, socket in plan.placement.items():
            key = (class_of[task_id], socket)
            counts[key] = counts.get(key, 0) + 1
        return frozenset(counts.items())
