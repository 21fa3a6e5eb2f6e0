"""Command-line interface: run, optimize, simulate and inspect from a shell.

Examples::

    python -m repro machines
    python -m repro run wc --events 5000 --emit-metrics wc_run.json
    python -m repro run wc --backend process --workers 2 --events 5000
    python -m repro optimize --app wc --server A --sockets 8
    python -m repro simulate --app lr --server B --latency
    python -m repro profile --app sd
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.apps import APP_NAMES, build_wordcount, load_application
from repro.core import PerformanceModel, RLASOptimizer, TfMode
from repro.core.scaling import saturation_ingress
from repro.dsps.engine import LocalEngine
from repro.errors import ExecutionError
from repro.hardware import server_a, server_b
from repro.metrics import MetricsRegistry, build_report, format_table, write_report
from repro.runtime import (
    RECOVERY_POLICIES,
    SHED_MODES,
    VECTORIZED_MODES,
    DegradeContext,
    FaultPlan,
    OverloadConfig,
    ReconfigController,
)
from repro.simulation import DiscreteEventSimulator, FlowSimulator

_SERVERS = {"A": server_a, "B": server_b}


def _machine(args: argparse.Namespace):
    return _SERVERS[args.server](args.sockets)


def _registry(args: argparse.Namespace) -> MetricsRegistry | None:
    """A live registry when ``--emit-metrics`` was requested, else None."""
    return MetricsRegistry() if getattr(args, "emit_metrics", None) else None


def _emit(
    args: argparse.Namespace,
    kind: str,
    registry: MetricsRegistry | None,
    meta: dict,
    data: dict | None = None,
) -> None:
    if registry is None or not args.emit_metrics:
        return
    report = build_report(
        kind=kind, name=args.app, registry=registry, meta=meta, data=data
    )
    path = write_report(args.emit_metrics, report)
    print(f"metrics report written to {path}")


def _optimize(args: argparse.Namespace, registry: MetricsRegistry | None = None):
    topology, profiles = load_application(args.app)
    machine = _machine(args)
    model = PerformanceModel(profiles, machine)
    rate = args.rate or saturation_ingress(topology, model)
    if registry is None:
        registry = MetricsRegistry()  # the planner's own clocks, not emitted
    started = time.perf_counter()
    plan = RLASOptimizer(
        topology,
        profiles,
        machine,
        rate,
        tf_mode=TfMode(args.tf_mode),
        compress_ratio=args.compress_ratio,
        registry=registry,
    ).optimize()
    planning_s = time.perf_counter() - started
    print(plan.describe())
    print(
        f"  planning {planning_s:.2f} s: "
        f"search {registry.histogram('rlas.bnb.search_runtime_s').total:.2f} s · "
        f"refine {registry.histogram('rlas.refine.runtime_s').total:.2f} s · "
        f"rebalance {registry.gauge('rlas.scaling.rebalance_s').snapshot():.2f} s; "
        f"packing proofs {registry.counter('rlas.bnb.packing_proofs').value} · "
        f"skipped: twin swaps {registry.counter('rlas.refine.skipped_twins').value}, "
        f"repeats {registry.counter('rlas.refine.skipped_repeats').value}"
    )
    return plan, rate, profiles, machine


def cmd_machines(args: argparse.Namespace) -> int:
    rows = []
    for name, factory in _SERVERS.items():
        d = factory().describe()
        rows.append(
            [
                name,
                d["processor"],
                d["one_hop_latency_ns"],
                d["max_hops_latency_ns"],
                d["total_local_bandwidth_gb_s"],
            ]
        )
    print(
        format_table(
            ["server", "processor", "1-hop ns", "max-hop ns", "total B/W GB/s"],
            rows,
            title="Available machine models (Table 2)",
        )
    )
    return 0


def _run_config(args: argparse.Namespace, profiles) -> dict:
    """cmd_run's flags as :class:`~repro.runtime.config.RunConfig`
    fields — the one place a flag becomes a run option.

    Overload control is armed when ``--max-lag-ms`` or ``--shed`` departs
    from its inert default; with both at rest the run carries no overload
    machinery at all.  ``degrade`` replans against the app's measured
    profiles on the machine model ``--server`` / ``--sockets`` select.
    """
    armed = args.max_lag_ms is not None or args.shed != "off"
    return dict(
        batch_size=args.batch_size,
        queue_capacity=args.queue_capacity,
        backend=args.backend,
        vectorized=args.vectorized,
        n_workers=args.workers,
        heartbeat_timeout_s=args.watchdog_timeout,
        epoch_interval=args.epoch_interval,
        overload=(
            OverloadConfig(
                max_lag_ms=args.max_lag_ms,
                shed_mode=args.shed,
                shed_rate=args.shed_rate,
                shed_seed=args.shed_seed,
            )
            if armed
            else None
        ),
        fault_plan=(
            FaultPlan.from_cli(args.inject_faults) if args.inject_faults else None
        ),
        recovery_policy=args.recovery_policy,
        max_restarts=args.max_restarts,
        degrade=(
            DegradeContext(profiles=profiles, machine=_machine(args))
            if args.recovery_policy == "degrade"
            else None
        ),
    )


#: Flags a run report's ``meta`` repeats flat, beside ``meta.config``.
_META_FLAGS = (
    "app",
    "events",
    "batch_size",
    "backend",
    "vectorized",
    "epoch_interval",
    "adapt",
    "max_lag_ms",
    "shed",
)


def _run_meta(args: argparse.Namespace, topology, engine, **outcome) -> dict:
    """A run report's ``meta``, the same for a finished and a failed
    run: how it was asked for, and — once an engine was built — the
    config it ran under."""
    meta = {flag: getattr(args, flag) for flag in _META_FLAGS}
    meta["topology"] = topology.name
    meta["config"] = engine.config.to_dict() if engine is not None else None
    meta.update(outcome)
    return meta


def _recovery_data(recovery, fault_summary) -> dict:
    """Report payload for a (possibly absent) recovery outcome."""
    data: dict = {}
    if recovery is not None:
        data["recovery"] = recovery.to_dict()
    if fault_summary:
        data["fault_summary"] = dict(fault_summary)
    return data


def _run_data(result) -> dict:
    """Full run-report payload: recovery + placement + epoch + reconfig +
    overload."""
    data = _recovery_data(result.recovery, result.fault_summary)
    if result.placement is not None:
        data["placement"] = result.placement.to_dict()
    if result.epochs is not None:
        data["epochs"] = result.epochs.to_dict()
    if result.reconfig is not None:
        data["reconfig"] = result.reconfig.to_dict()
    if result.overload is not None:
        data["overload"] = result.overload.to_dict()
    return data


def _shifted_topology(args: argparse.Namespace, topology):
    """Apply the WC mid-stream workload-shift flags, when given."""
    if args.shift_at is None and args.shift_words is None:
        return topology
    if args.app != "wc":
        raise ExecutionError(
            "--shift-at/--shift-words model WC's sentence-length shift "
            f"and require app 'wc', got {args.app!r}"
        )
    if args.shift_at is None or args.shift_words is None:
        raise ExecutionError(
            "--shift-at and --shift-words must be given together"
        )
    if args.shift_at <= 0 or args.shift_words <= 0:
        raise ExecutionError(
            "--shift-at and --shift-words must be positive, got "
            f"{args.shift_at} and {args.shift_words}"
        )
    return build_wordcount(
        shift_at=args.shift_at, shift_words_per_sentence=args.shift_words
    )


def _adapt_setup(args: argparse.Namespace, topology, profiles, registry):
    """Optimize a deployment plan and build the reconfiguration controller.

    ``--adapt`` runs the plan-driven engine: RLAS places the topology for
    the machine model first (the spec then carries socket placements the
    controller can migrate), and a :class:`ReconfigController` watches
    every epoch barrier for workload drift.
    """
    machine = _machine(args)
    model = PerformanceModel(profiles, machine)
    rate = args.rate or saturation_ingress(topology, model)
    plan = RLASOptimizer(topology, profiles, machine, rate).optimize()
    controller = ReconfigController(
        plan,
        profiles,
        rate,
        replace_threshold=args.replace_threshold,
        reoptimize_threshold=args.reoptimize_threshold,
        registry=registry,
    )
    return plan, controller


def _print_epochs(result) -> None:
    report = result.epochs
    if report is None:
        return
    print(
        f"epochs [interval {report.interval}]: committed={report.committed} "
        f"barrier_ms={report.barrier_ns / 1e6:.2f} "
        f"snapshot_bytes={report.snapshot_bytes} "
        f"migrations={report.migrations} "
        f"pause_ms={report.migration_pause_ns / 1e6:.2f}"
    )


def _print_reconfig(result) -> None:
    report = result.reconfig
    if report is None:
        return
    print(
        f"reconfig: observations={report.observations} "
        f"replans={report.replans} migrations={report.migrations} "
        f"rejected={report.rejected}"
    )
    for event in report.events:
        line = (
            f"  epoch {event['epoch']}: {event['action']} "
            f"(drift {event['magnitude']:.3f}) -> {event['outcome']}"
        )
        if event["moved"]:
            line += f", moved {len(event['moved'])} tasks"
        print(line)


def _print_overload(result) -> None:
    report = getattr(result, "overload", None)
    if report is None:
        return
    slo = "none" if report.max_lag_ms is None else f"{report.max_lag_ms:g}ms"
    print(
        f"overload [slo {slo}, shed {report.shed_mode}]: "
        f"epochs={report.epochs} pressured={report.pressured_epochs} "
        f"slo_violations={report.slo_violations} "
        f"peak_rung={report.peak_rung} p99_lag_ms={report.p99_lag_ms():.2f}"
    )
    if report.offered:
        print(
            f"  shed {report.shed}/{report.offered} offered tuples "
            f"({report.accuracy_loss():.1%} accuracy loss), "
            f"{report.protected} protected"
        )
    if report.throttled_epochs:
        print(
            f"  throttled {report.throttled_epochs} epochs "
            f"({report.tokens_denied} admissions deferred), "
            f"replans_requested={report.replans_requested}"
        )
    for event in report.timeline:
        print(
            f"  epoch {event['epoch']}: {event['kind']} -> "
            f"{event['rung']} ({event['reason']})"
        )


def _print_recovery(recovery) -> None:
    if recovery is None:
        return
    print(
        f"recovery [{recovery.policy}]: attempts={recovery.attempts} "
        f"restarts={recovery.restarts} replans={recovery.replans} "
        f"duplicate_deliveries={recovery.duplicate_deliveries} "
        f"completed={recovery.completed}"
    )
    for event in recovery.events:
        line = f"  t+{event.elapsed_s:8.3f}s  attempt {event.attempt}: {event.kind}"
        if event.error:
            line += f" ({event.error})"
        if event.detail:
            line += f" — {event.detail}"
        print(line)


def cmd_run(args: argparse.Namespace) -> int:
    """Execute an application on the functional engine, fully
    instrumented: the registry times the same kernels an uninstrumented
    run takes."""
    topology, profiles = load_application(args.app)
    registry = MetricsRegistry()
    engine = None
    try:
        topology = _shifted_topology(args, topology)
        options = _run_config(args, profiles)
        if args.adapt:
            plan, controller = _adapt_setup(args, topology, profiles, registry)
            engine = LocalEngine.from_plan(
                plan.expanded_plan, registry=registry, reconfig=controller, **options
            )
        else:
            engine = LocalEngine(topology, registry=registry, **options)
        result = engine.run(args.events)
    except ExecutionError as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        _print_recovery(exc.recovery)
        partial = exc.partial_result
        if partial is not None:
            print(
                f"partial progress: {partial.events_ingested} events ingested, "
                f"{partial.sink_received()} tuples at sinks"
            )
        _emit(
            args,
            "engine-run",
            registry,
            meta=_run_meta(
                args, topology, engine, failed=True, error=type(exc).__name__
            ),
            data=_recovery_data(
                exc.recovery,
                partial.fault_summary if partial is not None else None,
            ),
        )
        return 1
    rows = []
    for name in topology.topological_order():
        rows.append(
            [
                name,
                result.component_in(name),
                result.component_out(name),
                round(result.selectivity(name), 3),
                round(result.mean_tuple_bytes(name), 1),
            ]
        )
    print(
        format_table(
            ["component", "tuples in", "tuples out", "selectivity", "mean bytes"],
            rows,
            title=f"Engine run — {args.app.upper()} "
            f"({result.events_ingested} events ingested)",
        )
    )
    print(f"sink received: {result.sink_received()} tuples")
    if result.placement is not None:
        print(f"placement: {result.placement.describe()}")
    _print_epochs(result)
    _print_reconfig(result)
    _print_overload(result)
    _print_recovery(result.recovery)
    _emit(
        args,
        "engine-run",
        registry,
        meta=_run_meta(args, topology, engine),
        data=_run_data(result),
    )
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    registry = _registry(args)
    _optimize(args, registry)
    _emit(
        args,
        "optimize",
        registry,
        meta={"app": args.app, "server": args.server, "sockets": args.sockets},
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    registry = _registry(args)
    plan, rate, profiles, machine = _optimize(args, registry)
    flow = FlowSimulator(profiles, machine).simulate(plan.expanded_plan, rate)
    print(f"\nmeasured throughput: {flow.throughput:,.0f} events/s")
    if args.latency:
        des = DiscreteEventSimulator(profiles, machine, seed=1, registry=registry)
        events_out = flow.throughput / max(rate, 1.0)
        result = des.run(
            plan.expanded_plan, flow.throughput / max(events_out, 1e-9), max_events=4000
        )
        print(
            f"latency: p50={result.latency.percentile(50) / 1e6:.2f} ms  "
            f"p99={result.latency.p99_ms():.2f} ms"
        )
    _emit(
        args,
        "simulate",
        registry,
        meta={
            "app": args.app,
            "server": args.server,
            "sockets": args.sockets,
            "latency": bool(args.latency),
        },
    )
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    topology, profiles = load_application(args.app)
    rows = []
    for name in topology.topological_order():
        p = profiles[name]
        rows.append(
            [
                name,
                round(p.te_cycles),
                round(p.total_selectivity, 3),
                round(p.stream_bytes() or max(p.output_bytes.values(), default=0)),
                round(p.memory_bytes),
            ]
        )
    print(
        format_table(
            ["operator", "Te (cycles)", "selectivity", "out bytes", "M (bytes)"],
            rows,
            title=f"Calibrated profiles — {args.app.upper()}",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="BriskStream reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("machines", help="list machine models").set_defaults(
        handler=cmd_machines
    )

    run = sub.add_parser(
        "run", help="execute an app on the functional engine with metrics"
    )
    run.add_argument("app", choices=APP_NAMES, help="application to run")
    run.add_argument("--events", type=int, default=2000, help="events per spout")
    run.add_argument("--batch-size", type=int, default=64)
    run.add_argument(
        "--backend",
        choices=("inline", "process"),
        default="inline",
        help="executor backend (see docs/runtime.md)",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for --backend process",
    )
    run.add_argument(
        "--vectorized",
        choices=VECTORIZED_MODES,
        default="auto",
        help=(
            "columnar kernel dispatch: auto (use numpy kernels when "
            "operator and schema qualify) or off (scalar dispatch only; "
            "see docs/vectorized.md)"
        ),
    )
    run.add_argument(
        "--queue-capacity",
        type=int,
        default=None,
        help="bound every communication queue to N tuples (backpressure)",
    )
    run.add_argument(
        "--epoch-interval",
        type=int,
        default=None,
        metavar="N",
        help=(
            "commit a consistent state checkpoint every N events per "
            "spout replica (epoch barriers; see docs/reconfiguration.md)"
        ),
    )
    run.add_argument(
        "--adapt",
        action="store_true",
        help=(
            "watch epoch commits for workload drift and migrate the "
            "placement live (requires --epoch-interval)"
        ),
    )
    run.add_argument(
        "--replace-threshold",
        type=float,
        default=0.10,
        metavar="D",
        help="drift magnitude triggering a placement-only replan (--adapt)",
    )
    run.add_argument(
        "--reoptimize-threshold",
        type=float,
        default=0.35,
        metavar="D",
        help="drift magnitude triggering a full re-optimization (--adapt)",
    )
    run.add_argument(
        "--rate",
        type=float,
        default=None,
        help="ingress rate (events/s) --adapt plans for; default saturation",
    )
    run.add_argument(
        "--shift-at",
        type=int,
        default=None,
        metavar="N",
        help="WC only: shift sentence length after N sentences per spout",
    )
    run.add_argument(
        "--shift-words",
        type=int,
        default=None,
        metavar="W",
        help="WC only: words per sentence after the shift point",
    )
    run.add_argument(
        "--max-lag-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "end-to-end tuple-lag SLO in milliseconds; arms overload "
            "control (requires --epoch-interval; see docs/overload.md)"
        ),
    )
    run.add_argument(
        "--shed",
        choices=SHED_MODES,
        default="off",
        help=(
            "graceful load shedding under overload: off (never drop), "
            "random (seeded deterministic sampling) or semantic (only "
            "tuples the spout's sheddable() predicate blesses; see "
            "docs/overload.md)"
        ),
    )
    run.add_argument(
        "--shed-rate",
        type=float,
        default=0.5,
        metavar="F",
        help="fraction of eligible tuples dropped while shedding is active",
    )
    run.add_argument(
        "--shed-seed",
        type=int,
        default=1,
        help="seed for the deterministic shedding hash",
    )
    run.add_argument(
        "--inject-faults",
        metavar="SPEC",
        default=None,
        help=(
            "deterministic chaos: key=value pairs, e.g. "
            "'seed=7,kinds=crash|stall,n=2,at=100' (see docs/robustness.md)"
        ),
    )
    run.add_argument(
        "--recovery-policy",
        choices=RECOVERY_POLICIES,
        default=None,
        help="supervise the run: fail-fast, retry or degrade",
    )
    run.add_argument(
        "--max-restarts",
        type=int,
        default=3,
        help="restart bound for retry/degrade recovery",
    )
    run.add_argument(
        "--watchdog-timeout",
        type=float,
        default=None,
        metavar="S",
        help="heartbeat watchdog timeout for --backend process (seconds)",
    )
    run.add_argument(
        "--server",
        choices=("A", "B"),
        default="A",
        help="machine model the degrade policy replans against",
    )
    run.add_argument(
        "--sockets",
        type=int,
        default=4,
        help="socket count of the degrade machine model",
    )
    run.add_argument(
        "--emit-metrics",
        metavar="PATH",
        default=None,
        help="write a JSON run report (see docs/metrics.md)",
    )
    run.set_defaults(handler=cmd_run)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--app", choices=APP_NAMES, default="wc")
        p.add_argument("--server", choices=("A", "B"), default="A")
        p.add_argument("--sockets", type=int, default=8)
        p.add_argument("--rate", type=float, default=None, help="ingress (events/s)")
        p.add_argument(
            "--tf-mode",
            choices=[m.value for m in TfMode],
            default="relative",
            help="relative (RLAS) / worst (fix L) / zero (fix U)",
        )
        p.add_argument("--compress-ratio", type=int, default=5)
        p.add_argument(
            "--emit-metrics",
            metavar="PATH",
            default=None,
            help="write a JSON run report (see docs/metrics.md)",
        )

    opt = sub.add_parser("optimize", help="run RLAS and print the plan")
    common(opt)
    opt.set_defaults(handler=cmd_optimize)

    sim = sub.add_parser("simulate", help="optimize then measure the plan")
    common(sim)
    sim.add_argument("--latency", action="store_true", help="also run the DES")
    sim.set_defaults(handler=cmd_simulate)

    prof = sub.add_parser("profile", help="print an app's calibrated profiles")
    prof.add_argument("--app", choices=APP_NAMES, default="wc")
    prof.set_defaults(handler=cmd_profile)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
