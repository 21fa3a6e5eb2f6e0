"""The four benchmark workloads and the per-slice correctness oracle.

A *slice* is one complete run of the program on default flags: one
``LocalEngine(...).run(N)`` for the three runtime workloads, one
``RLASOptimizer(...).optimize()`` for ``rlas_plan``.  The runtime is a
run-to-completion job over a seeded in-program generator — a closed
loop with one client and no arrival schedule — so the end-to-end figure
is work completed per second at the stated input size.

Every workload exposes the same small surface (``kinds``, ``events``,
``set_up``, ``warm_up``, ``run_slice``, ``reference``, ``check``) so the
measurement loop in ``measure.py`` and the traced pass in ``tracing.py``
treat them alike.
"""

from __future__ import annotations

import glob
import json
import multiprocessing
from contextlib import nullcontext
from pathlib import Path

from repro.apps.linear_road import build_linear_road
from repro.apps.profiles import build_application, profile_application
from repro.apps.wordcount import build_wordcount
from repro.core.constraints import is_feasible
from repro.core.model import PerformanceModel
from repro.core.rlas import RLASOptimizer
from repro.core.scaling import saturation_ingress
from repro.dsps.engine import LocalEngine
from repro.hardware.servers import server_a
from repro.runtime import ProcessPoolBackend
from repro.runtime.dataplane import SHM_NAME_PREFIX

HERE = Path(__file__).resolve().parent

#: Reference values this benchmark was accepted with (seed 7, full size):
#: per-workload counters of the runtime workloads and the modelled plan
#: throughputs ``rlas_plan`` must not fall below.  They belong in
#: BENCHMARK.json by the issue's wording, but that file's keys are fixed.
STORED_REFERENCE = json.loads((HERE / "reference.json").read_text())
STORED_SEED = 7

#: Workers of the process-backend workloads: the host has two cores and
#: nothing else runs concurrently.
N_WORKERS = 2
QUEUE_BUDGET = 4096

_BUILDERS = {"wc": build_wordcount, "lr": build_linear_road}


def build_topology(app: str, seed: int):
    """The application's topology over its generator seeded with ``seed``."""
    return _BUILDERS[app](seed=seed)


def no_span(name: str):
    """Stand-in for ``Tracer.span`` when a run is not traced."""
    return nullcontext()


def result_counters(result) -> dict:
    """The counters a slice must reproduce exactly."""
    components = sorted({s.component for s in result.task_stats.values()})
    return {
        "events_ingested": result.events_ingested,
        "sink_received": result.sink_received(),
        "tuples_in": {c: result.component_in(c) for c in components},
        "tuples_out": {c: result.component_out(c) for c in components},
    }


def shm_segments() -> set[str]:
    return set(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*"))


def leaks(baseline: set[str]) -> list[str]:
    """What a finished slice must not leave behind."""
    problems = [f"leaked shm segment {p}" for p in sorted(shm_segments() - baseline)]
    problems += [
        f"surviving child process {child.pid}"
        for child in multiprocessing.active_children()
    ]
    return problems


class RuntimeWorkload:
    """One application on one executor configuration, default flags.

    ``reference_factor`` is the cost of the scalar inline reference run in
    slices of this workload (measured: 1.3 for ``wc_inline``, 3 for
    ``wc_shm``, 1.8 for ``lr_epochs_shm``, plus margin); the measurement
    loop keeps that much of its time free.
    """

    kinds = ("run",)
    #: Slices a run's medians are taken over at the least, however slow
    #: the host (the sizes below give 35-50 in 30 s when it is not).
    min_rounds = 30

    def __init__(
        self,
        name: str,
        app: str,
        n_events: int,
        *,
        shm: bool,
        epoch_interval: int | None = None,
        reference_factor: float,
        stored: dict | None = None,
    ) -> None:
        self.name = name
        self.app = app
        self.n_events = n_events
        self.shm = shm
        self.epoch_interval = epoch_interval
        self.reference_factor = reference_factor
        self.stored = stored

    def events(self, kind: str = "run") -> int:
        return self.n_events

    def engine(self, seed: int, *, registry=None, span=no_span, barriers=True):
        """Build topology and engine as a user of this configuration
        would; ``span`` wraps each call into a layer."""
        with span(f"apps.build_{self.app}"):
            topology = build_topology(self.app, seed)
        kwargs: dict = {"registry": registry}
        if self.shm:
            kwargs["backend"] = ProcessPoolBackend(
                n_workers=N_WORKERS, dataplane="shm"
            )
            kwargs["queue_budget"] = QUEUE_BUDGET
        if barriers and self.epoch_interval is not None:
            kwargs["epoch_interval"] = self.epoch_interval
        with span("engine.LocalEngine"):
            return LocalEngine(topology, **kwargs)

    def set_up(self, seed: int) -> None:
        """Everything a run pays before its first event."""
        self.engine(seed).run(0)

    def warm_up(self, seed: int) -> None:
        for _ in range(2):
            self.run_slice("run", seed)

    def run_slice(self, kind: str, seed: int, *, registry=None, span=no_span):
        engine = self.engine(seed, registry=registry, span=span)
        with span("engine.run"):
            return engine.run(self.n_events)

    def counters(self, kind: str, result) -> dict:
        return result_counters(result)

    def reference(self, kind: str, seed: int) -> dict:
        """Scalar inline run of the same topology, seed, size and barriers."""
        topology = build_topology(self.app, seed)
        kwargs: dict = {"vectorized": "off"}
        if self.epoch_interval is not None:
            kwargs["epoch_interval"] = self.epoch_interval
        return result_counters(LocalEngine(topology, **kwargs).run(self.n_events))

    def reference_cost(self, slice_s: float) -> float:
        """Seconds to keep free for :meth:`reference` after the slices."""
        return slice_s * self.reference_factor

    def check(self, kind: str, seed: int, got: dict, reference: dict) -> list[str]:
        problems = [
            f"{key}: got {got[key]!r}, reference {reference[key]!r}"
            for key in reference
            if got.get(key) != reference[key]
        ]
        if self.stored is not None and seed == STORED_SEED:
            problems += [
                f"{key}: got {got[key]!r}, stored {self.stored[key]!r}"
                for key in self.stored
                if got.get(key) != self.stored[key]
            ]
        return problems


class PlanWorkload:
    """RLAS planning of WC and LR for Server A at saturation ingress.

    The optimizer's inputs are the applications' calibrated profiles,
    which do not depend on the benchmark seed: a seed-dependent profile
    would change the search tree from run to run and make the spread
    between seeds a property of the inputs rather than of the code.
    """

    name = "rlas_plan"
    kinds = ("wc", "lr")
    #: Rounds (one plan of each application) a run completes at the least;
    #: a round takes ~2 s, so 30 s hold 10 or 11 and no run can hold 30.
    min_rounds = 8
    shm = False
    MAX_ITERATIONS = 32

    def __init__(self, sockets: int, stored: dict | None = None) -> None:
        self.sockets = sockets
        self.stored = stored
        self._inputs: dict[tuple[str, int], tuple] = {}

    def events(self, kind: str) -> int:
        return 1  # one complete plan

    def load(self, app: str, sockets: int, span=no_span):
        with span(f"apps.build_{app}"):
            topology = build_application(app)
        with span("apps.profile_application"):
            profiles = profile_application(topology)
        machine = server_a(sockets)
        with span("core.saturation_ingress"):
            rate = saturation_ingress(topology, PerformanceModel(profiles, machine))
        return topology, profiles, machine, rate

    def inputs(self, app: str, sockets: int | None = None):
        key = (app, sockets or self.sockets)
        if key not in self._inputs:
            self._inputs[key] = self.load(*key)
        return self._inputs[key]

    def set_up(self, seed: int) -> None:
        for app in self.kinds:
            self.load(app, self.sockets)

    def warm_up(self, seed: int) -> None:
        # Two full-size warm-up plans would cost a third of the run; a
        # 2-socket plan of each app imports and exercises the same code.
        for app in self.kinds:
            self.inputs(app)
            self._optimize(app, 2)

    def _optimize(self, app: str, sockets: int, registry=None):
        topology, profiles, machine, rate = self.inputs(app, sockets)
        return RLASOptimizer(
            topology,
            profiles,
            machine,
            rate,
            max_iterations=self.MAX_ITERATIONS,
            registry=registry,
        ).optimize()

    def run_slice(self, kind: str, seed: int, *, registry=None, span=no_span):
        self.inputs(kind)  # loading the app is set-up, not part of the slice
        with span("core.RLASOptimizer.optimize"):
            return self._optimize(kind, self.sockets, registry)

    def counters(self, kind: str, plan) -> dict:
        _, profiles, machine, _ = self.inputs(kind)
        return {
            "feasible": is_feasible(
                plan.expanded_plan, plan.realized_result, machine, profiles
            ),
            "throughput": plan.realized_throughput,
        }

    def reference(self, kind: str, seed: int) -> dict:
        return {"throughput": self.stored[kind] if self.stored else 0.0}

    def reference_cost(self, slice_s: float) -> float:
        return 0.0

    def check(self, kind: str, seed: int, got: dict, reference: dict) -> list[str]:
        problems = []
        if not got["feasible"]:
            problems.append("plan violates a resource constraint")
        # Modelled throughput is a float sum: allow rounding, not regress.
        if got["throughput"] < reference["throughput"] * (1 - 1e-9):
            problems.append(
                f"plan throughput {got['throughput']!r} below stored "
                f"reference {reference['throughput']!r}"
            )
        return problems


def make_workloads(quick: bool = False) -> dict:
    """The benchmark's workloads, at full size or ``--quick`` size (tiny
    inputs, no stored references).  BENCHMARK.json says why each exists."""
    counters = {} if quick else STORED_REFERENCE["counters"]
    workloads = (
        RuntimeWorkload(
            "wc_inline",
            "wc",
            400 if quick else 5_000,
            shm=False,
            reference_factor=1.6,
            stored=counters.get("wc_inline"),
        ),
        RuntimeWorkload(
            "wc_shm",
            "wc",
            600 if quick else 10_000,
            shm=True,
            reference_factor=3.5,
            stored=counters.get("wc_shm"),
        ),
        RuntimeWorkload(
            "lr_epochs_shm",
            "lr",
            600 if quick else 8_000,
            shm=True,
            epoch_interval=200 if quick else 2_500,
            reference_factor=2.2,
            stored=counters.get("lr_epochs_shm"),
        ),
        PlanWorkload(
            2 if quick else 4,
            stored=None if quick else STORED_REFERENCE["plan_throughput"],
        ),
    )
    return {w.name: w for w in workloads}
