"""RLAS: the Relative-Location Aware Scheduling facade.

Ties the performance model, branch-and-bound placement and iterative
scaling together behind one call::

    optimizer = RLASOptimizer(topology, profiles, machine, ingress_rate=2e6)
    optimized = optimizer.optimize()
    optimized.throughput          # model-estimated R of the chosen plan
    optimized.replication         # replicas per component
    optimized.expanded_plan       # replica-granularity placement

The fixed-capability ablations of Figure 12 are one parameter away:
``tf_mode=TfMode.WORST`` gives RLAS_fix(L) (every operator pessimistically
pays worst-case remote access) and ``tf_mode=TfMode.ZERO`` gives
RLAS_fix(U) (the NUMA effect is ignored).  Whatever mode *plans*, the
resulting plan is always re-evaluated under the relative-location model —
that is the throughput the machine would actually deliver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.compression import expand_plan
from repro.core.model import BRISKSTREAM, ModelResult, PerformanceModel, TfMode
from repro.core.plan import ExecutionPlan
from repro.core.profiles import ProfileSet, SystemProfile
from repro.core.refinement import refine_plan
from repro.core.scaling import ScalingIteration, ScalingOptimizer
from repro.dsps.topology import Topology
from repro.hardware.machine import MachineSpec
from repro.metrics.registry import NULL_REGISTRY, MetricsRegistry

#: The paper's default compression ratio (Table 7 shows r=5 is the sweet spot).
DEFAULT_COMPRESS_RATIO = 5


@dataclass
class OptimizedPlan:
    """The output of one RLAS optimization run."""

    topology: Topology
    machine: MachineSpec
    replication: dict[str, int]
    plan: ExecutionPlan
    expanded_plan: ExecutionPlan
    model_result: ModelResult
    realized_result: ModelResult
    planning_mode: TfMode
    iterations: list[ScalingIteration] = field(default_factory=list)
    runtime_s: float = 0.0

    @property
    def throughput(self) -> float:
        """Throughput estimated under the *planning* model."""
        return self.model_result.throughput

    @property
    def realized_throughput(self) -> float:
        """Throughput of the chosen plan under the relative-location model.

        For ``TfMode.RELATIVE`` planning this equals :attr:`throughput`;
        for the fixed ablations it is what the plan actually achieves.
        """
        return self.realized_result.throughput

    @property
    def total_replicas(self) -> int:
        return sum(self.replication.values())

    def describe(self) -> str:
        lines = [
            f"RLAS plan for {self.topology.name!r} on {self.machine.name}",
            f"  replication: {self.replication}",
            f"  estimated throughput: {self.throughput:,.0f} events/s",
            f"  realized throughput:  {self.realized_throughput:,.0f} events/s",
            f"  optimizer runtime: {self.runtime_s:.2f}s "
            f"({len(self.iterations)} scaling iterations)",
        ]
        lines.append(self.plan.describe())
        return "\n".join(lines)


class RLASOptimizer:
    """End-to-end RLAS: joint replication + placement optimization."""

    def __init__(
        self,
        topology: Topology,
        profiles: ProfileSet,
        machine: MachineSpec,
        ingress_rate: float,
        system: SystemProfile = BRISKSTREAM,
        tf_mode: TfMode = TfMode.RELATIVE,
        compress_ratio: int = DEFAULT_COMPRESS_RATIO,
        max_total_replicas: int | None = None,
        max_iterations: int = 64,
        max_nodes: int | None = None,
        final_refine_passes: int = 3,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.topology = topology
        self.profiles = profiles
        self.machine = machine
        self.ingress_rate = ingress_rate
        self.system = system
        self.tf_mode = tf_mode
        self.compress_ratio = compress_ratio
        self.max_total_replicas = max_total_replicas
        self.max_iterations = max_iterations
        self.max_nodes = max_nodes
        self.final_refine_passes = final_refine_passes
        self.registry = registry if registry is not None else NULL_REGISTRY

    def optimize(
        self, initial_replication: dict[str, int] | None = None
    ) -> OptimizedPlan:
        """Run the full RLAS loop and return the optimized plan."""
        planning_model = PerformanceModel(
            self.profiles, self.machine, system=self.system, tf_mode=self.tf_mode
        )
        scaler = ScalingOptimizer(
            self.topology,
            planning_model,
            self.ingress_rate,
            compress_ratio=self.compress_ratio,
            max_total_replicas=self.max_total_replicas,
            max_iterations=self.max_iterations,
            max_nodes=self.max_nodes,
            registry=self.registry,
        )
        scaling = scaler.optimize(initial_replication)
        plan = scaling.placement.plan
        model_result = scaling.placement.model_result
        assert plan is not None and model_result is not None
        if self.final_refine_passes > 0:
            started = time.perf_counter()
            plan, model_result, stats = refine_plan(
                plan,
                planning_model,
                self.ingress_rate,
                max_passes=self.final_refine_passes,
                top_k=32,
            )
            stats.publish(self.registry, time.perf_counter() - started)
        expanded = expand_plan(plan)
        realized_model = PerformanceModel(
            self.profiles, self.machine, system=self.system, tf_mode=TfMode.RELATIVE
        )
        realized = realized_model.evaluate(expanded, self.ingress_rate)
        if self.registry.enabled:
            registry = self.registry
            registry.counter("rlas.optimize.runs").inc()
            registry.gauge("rlas.optimize.runtime_s").set(scaling.runtime_s)
            registry.gauge("rlas.optimize.total_replicas").set(
                sum(scaling.replication.values())
            )
            registry.gauge("rlas.optimize.estimated_throughput").set(
                model_result.throughput
            )
            registry.gauge("rlas.optimize.realized_throughput").set(
                realized.throughput
            )
        return OptimizedPlan(
            topology=self.topology,
            machine=self.machine,
            replication=scaling.replication,
            plan=plan,
            expanded_plan=expanded,
            model_result=model_result,
            realized_result=realized,
            planning_mode=self.tf_mode,
            iterations=scaling.iterations,
            runtime_s=scaling.runtime_s,
        )


def rlas_fix_lower(
    topology: Topology,
    profiles: ProfileSet,
    machine: MachineSpec,
    ingress_rate: float,
    **kwargs: object,
) -> OptimizedPlan:
    """RLAS_fix(L): plan as if every fetch paid worst-case remote latency."""
    return RLASOptimizer(
        topology, profiles, machine, ingress_rate, tf_mode=TfMode.WORST, **kwargs
    ).optimize()


def rlas_fix_upper(
    topology: Topology,
    profiles: ProfileSet,
    machine: MachineSpec,
    ingress_rate: float,
    **kwargs: object,
) -> OptimizedPlan:
    """RLAS_fix(U): plan as if remote memory access were free."""
    return RLASOptimizer(
        topology, profiles, machine, ingress_rate, tf_mode=TfMode.ZERO, **kwargs
    ).optimize()
