"""The traced pass: per-layer metrics, never mixed into the end-to-end ones.

Three sources feed the per-layer metrics of a ``--trace`` run:

* the frozen-input probe suite of ``layers.py`` (the same in every run);
* slices run with a live :class:`MetricsRegistry` attached.  Each
  registry-derived metric has a *home workload* (``backends.*`` →
  ``wc_inline``, ``epochs.*`` → ``lr_epochs_shm``, ``core.*`` →
  ``rlas_plan``, ``codec``/``channels``/``process_pool`` counters → the
  reported workload when it uses shm, else ``wc_shm``).  A workload the
  pass reports on gets several traced slices, each sharing its kernel
  bracket with an untraced one (their ratio is the tracing overhead);
  every other home workload gets one traced slice, so that every result
  has every metric.  The probe suite, the barrier pairs and those single
  slices run once per pass, however many workloads it reports on;
* paired Linear Road slices with and without barriers, on both
  executors, for the cost of one epoch barrier.

Spans are recorded by this file and ``layers.py`` around each call into a
layer — name, start, end, parent span, slice id — kept in memory and
written out when the pass ends.  Spans inside ``src/`` are a later issue.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from calibrate import read_kernel
from layers import DEFAULT_ROUNDS, run_probes
from measure import calibrated_group, calibrated_wall
from workloads import (
    N_WORKERS,
    RuntimeWorkload,
    build_topology,
    make_workloads,
    shm_segments,
)

from repro.core.model import PerformanceModel
from repro.core.plan import collocated_plan
from repro.core.profiles import ProfileSet, SystemProfile
from repro.core.scaling import saturation_ingress
from repro.dsps.graph import ExecutionGraph
from repro.hardware.servers import laptop
from repro.metrics import MetricsRegistry
from repro.metrics.reporting import relative_error


class Tracer:
    """In-memory span recorder; a span's parent is the span open around it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.slice_id: str | None = None

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "slice": self.slice_id,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, dict]:
        """Per span name: count, total time, and self time (a span's
        duration minus the part its child spans cover)."""
        children = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for s in self.spans:
            entry = out[s["name"]]
            duration = s["end"] - s["start"]
            entry["count"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - children[s["id"]]
        return dict(out)


def repeats(seconds: float, quick: bool) -> dict:
    """How often the pass repeats its parts.  The counts for 30 s (15
    probe rounds, 4 slice pairs of a reported workload — half for each
    application of ``rlas_plan`` — and 3 barrier pairs) end a pass that
    reports on one workload in about 30 s on the 2-core host; shorter
    runs repeat less, longer ones trace up to 5 pairs."""
    if quick:
        return {"rounds": 2, "pairs": 1, "barrier_pairs": 1}
    scale = seconds / 30.0

    def clamp(value: float, low: int, high: int) -> int:
        return max(low, min(high, round(value)))

    return {
        "rounds": clamp(DEFAULT_ROUNDS * scale, 5, DEFAULT_ROUNDS),
        "pairs": clamp(4 * scale, 1, 5),
        "barrier_pairs": clamp(3 * scale, 1, 3),
    }


class SliceRunner:
    """Runs calibrated slices, traced or not, and keeps the verdicts."""

    def __init__(self, tracer: Tracer, seed: int, workloads: dict) -> None:
        self.tracer = tracer
        self.seed = seed
        self.workloads = workloads
        self.baseline = shm_segments()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counted: dict[tuple[str, str], list[dict]] = defaultdict(list)
        self._cal = read_kernel()

    def run(self, workload, kind: str, label: str, *, traced: tuple[bool, ...], call=None):
        """One slice per entry of ``traced`` — with a live registry or
        without — back to back between two calibration kernels.  ``call``
        replaces the workload's own ``run_slice`` (the barrier probes use
        it).  Returns one record per slice, ``None`` for a failed one."""
        steps = []
        for with_registry in traced:
            registry = MetricsRegistry() if with_registry else None
            slice_id = f"{workload.name}:{kind}:{label}:traced={with_registry}"

            def run(registry=registry, slice_id=slice_id):
                self.tracer.slice_id = slice_id
                try:
                    with self.tracer.span(f"slice.{workload.name}"):
                        if call is not None:
                            return call()
                        return workload.run_slice(
                            kind, self.seed, registry=registry, span=self.tracer.span
                        )
                finally:
                    self.tracer.slice_id = None

            def digest(outcome, registry=registry):
                return {
                    "outcome": outcome,
                    "counters": workload.counters(kind, outcome),
                    "snapshot": registry.snapshot() if registry else None,
                }

            steps.append((slice_id, run, digest))
        records, self._cal = calibrated_group(
            [step[1:] for step in steps], self.baseline, self._cal
        )
        out: list[dict | None] = []
        for (slice_id, _, _), record in zip(steps, records):
            self.attempted += 1
            if record["problems"]:
                self.failed += 1
                self.failures += [f"{slice_id}: {p}" for p in record["problems"]]
                out.append(None)
                continue
            # Linear Road's accident notifications depend on where the
            # barriers fall, so a barrier probe's own call has no reference.
            if call is None and workload is self.workloads.get(workload.name):
                self.counted[workload.name, kind].append(record["kept"]["counters"])
            out.append(
                {
                    "wall": record["wall"],
                    "cal_wall": calibrated_wall(record),
                    "scale": calibrated_wall(record) / record["wall"],
                    **record["kept"],
                }
            )
        return out

    def check_counted(self) -> None:
        """The oracle of the end-to-end runs, on every slice this pass ran
        of a benchmark workload as the benchmark defines it, traced or not."""
        for (name, kind), counted in self.counted.items():
            workload = self.workloads[name]
            reference = workload.reference(kind, self.seed)
            for counters in counted:
                problems = workload.check(kind, self.seed, counters, reference)
                if problems:
                    self.failed += 1
                    self.failures += [f"{name}:{kind}: {p}" for p in problems]


# -- registry-derived metrics, per home workload ------------------------------
def inline_metrics(record: dict) -> dict:
    snap = record["snapshot"]
    kernel_ns = sum(
        h["sum"] for name, h in snap["histograms"].items() if name.endswith(".process_ns")
    )
    return {
        "backends.inline_sched_share": 1.0 - kernel_ns / (record["wall"] * 1e9),
        "backends.vectorized_batches": snap["counters"]["runtime.vectorized.batches"],
        "backends.vectorized_fallbacks": snap["counters"]["runtime.vectorized.fallbacks"],
    }


def transport_metrics(record: dict, events: int) -> dict:
    snap = record["snapshot"]
    counters, gauges = snap["counters"], snap["gauges"]
    kevents = events / 1000.0
    workers = range(N_WORKERS)
    metrics = {
        "codec.fallback_batches": counters["runtime.dataplane.codec_fallbacks"],
        "codec.dict_pages": counters["runtime.dataplane.dict.pages"],
        "codec.dict_bytes": counters["runtime.dataplane.dict.bytes"],
        "channels.wire_bytes_per_event": counters["runtime.run.dataplane_bytes"] / events,
        "channels.oob_bytes_per_event": counters["runtime.dataplane.bytes_oob"] / events,
        "channels.ring_full_blocks_per_kevent": counters["runtime.dataplane.ring_full_blocks"]
        / kevents,
        "process_pool.blocked_send_share": sum(
            gauges[f"runtime.worker.{w}.blocked_send_ns"] for w in workers
        )
        / (N_WORKERS * record["wall"] * 1e9),
        "process_pool.send_blocks_per_kevent": sum(
            counters[f"runtime.worker.{w}.send_blocks"] for w in workers
        )
        / kevents,
        "process_pool.spout_throttles_per_kevent": sum(
            counters[f"runtime.worker.{w}.spout_throttles"] for w in workers
        )
        / kevents,
    }
    for w in workers:
        metrics[f"process_pool.worker_busy_share.{w}"] = gauges[
            f"runtime.worker.{w}.busy_fraction"
        ]
    return metrics


def epoch_metrics(record: dict) -> dict:
    gauges = record["snapshot"]["gauges"]
    return {
        "epochs.barrier_share": gauges["runtime.epoch.barrier_ns"] / (record["wall"] * 1e9),
        "epochs.snapshot_bytes": gauges["runtime.epoch.snapshot_bytes"],
        "epochs.commits_per_slice": gauges["runtime.epoch.committed"],
    }


_PLAN_COUNTS = {
    "core.bnb.plans_evaluated": "rlas.bnb.plans_evaluated",
    "core.bnb.nodes_expanded": "rlas.bnb.nodes_expanded",
    "core.bnb.cache_hits": "rlas.bnb.cache_hits",
    "core.model.incremental_evals": "rlas.model.incremental_evals",
    "core.model.full_evals": "rlas.model.full_evals",
    "core.scaling.iterations": "rlas.scaling.iterations",
    "core.scaling.graph_builds": "rlas.scaling.graph_builds",
}


def plan_metrics(records: dict[str, dict]) -> dict:
    """From one traced plan of each application (counts are summed)."""
    metrics = {
        name: sum(r["snapshot"]["counters"][source] for r in records.values())
        for name, source in _PLAN_COUNTS.items()
    }
    search_s = sum(
        r["snapshot"]["histograms"]["rlas.bnb.search_runtime_s"]["sum"] * r["scale"]
        for r in records.values()
    )
    metrics["core.bnb.plans_evaluated_per_s"] = (
        metrics["core.bnb.plans_evaluated"] / search_s
    )
    for app, record in records.items():
        metrics[f"core.rlas.plan_throughput.{app}"] = record["counters"]["throughput"]
    return metrics


def median_of(dicts: list[dict]) -> dict:
    """Per-key median over slices (exact counts are equal in every slice)."""
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


# -- the model against the real runtime (Table 4 analogue) -------------------------
def measured_te_ns(record: dict) -> dict[str, float]:
    """Per-component calibrated ns per input tuple (per event for spouts),
    from an inline traced slice's per-call timing histograms."""
    te: dict[str, float] = {}
    for name, h in record["snapshot"]["histograms"].items():
        if name.endswith(".process_ns") and h["count"]:
            component = name.split(".")[1]
            te[component] = h["sum"] / h["count"] * record["scale"]
    return te


def model_error(topology, inline_record: dict, shm_record: dict) -> dict:
    """Feed measured Te and selectivities to the performance model on a
    single-socket machine with as many cores as the runtime has workers;
    compare its throughput (sink tuples/s at saturation ingress) with what
    the process backend delivered."""
    te_ns = measured_te_ns(inline_record)
    machine = laptop(cores=N_WORKERS, freq_ghz=1.0)  # 1 GHz: cycles == ns
    profiles = ProfileSet.from_run(
        topology,
        inline_record["outcome"],
        te_cycles={c: te_ns.get(c, 0.0) for c in topology.components},
    )
    # Te is measured wall per call: nothing left for the system profile to add.
    model = PerformanceModel(profiles, machine, system=SystemProfile(name="measured"))
    plan = collocated_plan(ExecutionGraph(topology, {c: 1 for c in topology.components}))
    rate = saturation_ingress(topology, model, headroom=1.0)
    estimated = model.evaluate(plan, rate).throughput
    measured = shm_record["counters"]["sink_received"] / shm_record["cal_wall"]
    return {
        "estimated": estimated,
        "measured": measured,
        "rel_error": relative_error(measured, estimated),
    }


# -- the pass ------------------------------------------------------------------------
def inline_lr(lr: RuntimeWorkload, name: str, n_events: int, barriers: bool) -> RuntimeWorkload:
    """Linear Road as ``lr`` runs it, but on the inline executor."""
    return RuntimeWorkload(
        name,
        "lr",
        n_events,
        shm=False,
        epoch_interval=lr.epoch_interval if barriers else None,
        reference_factor=0.0,
    )


def traced_slices(runner: SliceRunner, workloads: dict, own: list[str], pairs: int):
    """``pairs`` (untraced, traced) slices of every workload in ``own`` and
    one traced slice of every other; returns ``(traced, untraced)`` records
    by workload and kind."""
    traced: dict[str, dict[str, list[dict]]] = {}
    untraced: dict[str, dict[str, list[dict]]] = {}
    for name, target in workloads.items():
        traced[name] = {kind: [] for kind in target.kinds}
        untraced[name] = {kind: [] for kind in target.kinds}
        # rlas_plan has two kinds of slice: half the pairs of each.
        repeat = max(1, pairs // len(target.kinds)) if name in own else 1
        for index in range(repeat):
            # Which of a pair runs first alternates: the first follows a
            # kernel run, the second a slice of its own kind.
            modes = (True,) if name not in own else (index % 2 == 1, index % 2 == 0)
            for kind in target.kinds:
                records = runner.run(target, kind, str(index), traced=modes)
                if None in records:
                    continue
                for with_registry, record in zip(modes, records):
                    (traced if with_registry else untraced)[name][kind].append(record)
    return traced, untraced


def overhead_metrics(workload, traced: dict, untraced: dict, notes: list[str]) -> dict:
    """Tracing overhead of the run's own workload, with its bases."""
    if not all(traced[k] and untraced[k] for k in workload.kinds):
        return {}

    def total(records: dict, field: str) -> float:
        return sum(statistics.median(r[field] for r in records[k]) for k in workload.kinds)

    with_ms = total(traced, "cal_wall") * 1e3
    without_ms = total(untraced, "cal_wall") * 1e3
    events = sum(workload.events(k) for k in workload.kinds)
    notes.append(
        f"trace.overhead_ratio = {with_ms:.1f} ms traced / {without_ms:.1f} ms "
        f"untraced (calibrated slice medians, {len(untraced[workload.kinds[0]])} pairs)"
    )
    return {
        "trace.traced_slice_ms": with_ms,
        "trace.untraced_slice_ms": without_ms,
        "trace.overhead_ratio": with_ms / without_ms,
        "raw.events_per_s": events / total(untraced, "wall"),
    }


def barrier_metrics(runner: SliceRunner, lr: RuntimeWorkload, pairs: int, notes: list[str]) -> dict:
    """Cost of one barrier: untraced LR slices with and without barriers,
    interleaved, on each executor."""
    metrics: dict[str, float] = {}
    span = runner.tracer.span
    for label, target in (
        ("process", lr),
        ("inline", inline_lr(lr, "lr_epochs_inline", lr.n_events, barriers=True)),
    ):
        walls: dict[bool, list[float]] = {True: [], False: []}
        commits = 0
        for index in range(pairs):
            for barriers in (False, True):
                (record,) = runner.run(
                    target,
                    "run",
                    f"{index}:barriers={barriers}",
                    traced=(False,),
                    call=lambda t=target, b=barriers: t.engine(
                        runner.seed, span=span, barriers=b
                    ).run(t.n_events),
                )
                if record is not None:
                    walls[barriers].append(record["cal_wall"])
                    if barriers:
                        commits = record["outcome"].epochs.committed
        if not (walls[True] and walls[False] and commits):
            continue
        with_ms = statistics.median(walls[True]) * 1e3
        without_ms = statistics.median(walls[False]) * 1e3
        metrics[f"epochs.lr_slice_ms.barriers.{label}"] = with_ms
        metrics[f"epochs.lr_slice_ms.no_barriers.{label}"] = without_ms
        metrics[f"epochs.barrier_ms_per_epoch.{label}"] = (with_ms - without_ms) / commits
        notes.append(
            f"epochs.barrier_ms_per_epoch.{label} = ({with_ms:.1f} ms with - "
            f"{without_ms:.1f} ms without barriers) / {commits} commits"
        )
    return metrics


def run_traced(
    own: list[str], seed: int, seconds: float, quick: bool, trace_path: Path
) -> list[dict]:
    """One traced pass; returns one result per workload named in ``own``.
    Every result has every per-layer metric; ``trace.*``, ``raw.*`` and
    the transport counters are the reported workload's own."""
    tracer = Tracer()
    workloads = make_workloads(quick)
    runner = SliceRunner(tracer, seed, workloads)
    lr = workloads["lr_epochs_shm"]
    n = repeats(seconds, quick)
    notes: list[str] = []

    with tracer.span("layers.run_probes"):
        probes = run_probes(seed, n["rounds"], tracer.span)
    shared: dict[str, float] = dict(probes["metrics"])

    traced, untraced = traced_slices(runner, workloads, own, n["pairs"])

    def from_registry(name: str, derive) -> dict:
        records = traced[name]["run"]
        return median_of([derive(r) for r in records]) if records else {}

    shared.update(from_registry("wc_inline", inline_metrics))
    shared.update(from_registry(lr.name, epoch_metrics))
    plans = traced["rlas_plan"]
    if all(plans.values()):
        shared.update(plan_metrics({app: records[0] for app, records in plans.items()}))
    shared.update(barrier_metrics(runner, lr, n["barrier_pairs"], notes))

    # Model vs runtime.  Te comes from inline per-call timing: for WC the
    # wc_inline traced slice has it, for LR a short inline traced run.
    lr_te = inline_lr(lr, "lr_te_inline", max(200, lr.n_events // 8), barriers=False)
    (lr_te_record,) = runner.run(lr_te, "run", "te", traced=(True,))
    for name, app, inline_records in (
        ("wc_shm", "wc", traced["wc_inline"]["run"]),
        (lr.name, "lr", [lr_te_record] if lr_te_record else []),
    ):
        if inline_records and traced[name]["run"]:
            error = model_error(
                build_topology(app, seed), inline_records[0], traced[name]["run"][0]
            )
            shared[f"model.rel_error.{name}"] = error["rel_error"]
            notes.append(
                f"model.rel_error.{name}: model {error['estimated']:.0f} vs measured "
                f"{error['measured']:.0f} sink tuples/s"
            )

    runner.check_counted()
    trace_path.write_text(json.dumps({"workloads": own, "spans": tracer.spans}) + "\n")
    self_times = tracer.self_times()
    top = sorted(self_times.items(), key=lambda kv: -kv[1]["self_s"])[:6]
    notes.append(
        "largest self times: "
        + ", ".join(f"{name} {v['self_s']:.2f} s" for name, v in top)
    )

    results = []
    for name in own:
        workload = workloads[name]
        own_notes: list[str] = []
        transport_home = name if workload.shm else "wc_shm"
        metrics = {
            **shared,
            **from_registry(
                transport_home,
                lambda r: transport_metrics(r, workloads[transport_home].n_events),
            ),
            **overhead_metrics(workload, traced[name], untraced[name], own_notes),
        }
        results.append(
            {
                "workload": name,
                "seed": seed,
                # Counts and verdict are the whole pass's, shared slices included.
                "correct": not runner.failures,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "failures": runner.failures,
                "metrics": metrics,
                "notes": own_notes + notes,
                "detail": {
                    "probes": probes["detail"],
                    "repeats": n,
                    "self_time_s": self_times,
                },
            }
        )
    return results
