"""Per-layer probe suite: public calls of single layers on frozen inputs.

Each probe times one public entry point of one module (an operator
kernel, the codec, a ring, the lowering, ...) on inputs generated once
from the seed, from outside the program.  Probes run in *rounds*: one
round calls every probe once (each probe loops its call a fixed number
of times) between two runs of the calibration kernel, and a probe's
value for that round is calibrated with that bracket — so a probe gets
as many calibrated repeats as there are rounds (15 by default) and the
kernel is not run once per probe.  Reported: the median over rounds;
quartiles go to the result file.  Sizes that are exact (bytes per tuple)
are reported as counts, not timed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import calibrated, kernel, summarize
from workloads import N_WORKERS, QUEUE_BUDGET, no_span

from repro.apps.linear_road import (
    POSITION_STREAM,
    CountVehicles,
    Dispatcher,
    LinearRoadParser,
    LinearRoadSpout,
    TollNotifier,
    build_linear_road,
)
from repro.apps.profiles import load_application
from repro.apps.wordcount import (
    Counter,
    Parser,
    SentenceSpout,
    Splitter,
    build_wordcount,
)
from repro.core.model import PerformanceModel
from repro.core.plan import empty_plan
from repro.dsps.graph import ExecutionGraph
from repro.dsps.operators import OperatorContext
from repro.dsps.tuples import StreamTuple
from repro.hardware.servers import server_a
from repro.runtime import InlineBackend, ProcessPoolBackend
from repro.runtime.dataplane import BatchCodec, ColumnBatch, ShmRing
from repro.runtime.epochs import EpochCheckpoint, EpochConfig
from repro.runtime.fusion import FusionConfig, plan_fusion
from repro.runtime.lowering import instantiate_tasks, lower_graph

ROWS = 1024  # rows of every frozen operator/codec input batch
RING_PAYLOAD = 4096
RING_BATCHES = 128
DEFAULT_ROUNDS = 15


def _context(component: str, task_id: int) -> OperatorContext:
    return OperatorContext(
        operator=component, replica_index=0, n_replicas=1, task_id=task_id
    )


def _rows(values: list[tuple], source_task: int) -> list[StreamTuple]:
    return [
        StreamTuple(values=v, source_task=source_task, event_time_ns=float(i))
        for i, v in enumerate(values)
    ]


def _kernel_output(operator, batch: ColumnBatch, task_id: int, stream=None):
    """First output batch of ``operator.process_columns`` (on ``stream``),
    stamped the way the executor would."""
    for out in operator.process_columns(batch):
        if stream is None or out.stream == stream:
            out.stamp_from(batch, task_id)
            return out
    raise RuntimeError(f"{type(operator).__name__} emitted nothing on {stream}")


def _lowered(topology):
    replication = {
        name: spec.parallelism_hint for name, spec in topology.components.items()
    }
    graph = ExecutionGraph(topology, replication, group_size=1)
    return graph, lower_graph(
        topology, graph, batch_size=64, queue_budget=QUEUE_BUDGET
    )


def timed(call, loops: int, per: float, scale: float):
    """A probe: ``call`` looped ``loops`` times; seconds per unit of work
    (``per`` units per call) times ``scale`` (1e9 for ns, 1e3 for ms)."""

    def probe() -> float:
        started = perf_counter()
        for _ in range(loops):
            call()
        return (perf_counter() - started) / (loops * per) * scale

    return probe


class FrozenInputs:
    """Inputs generated once from the seed, and the probes over them."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.timed: dict[str, object] = {}
        self.exact: dict[str, float] = {}
        self._apps_wc()
        self._apps_lr()
        self._lowering()
        self._codec_and_columns()
        self._ring()
        self._pool()
        self._snapshot()
        self._model()
        self._import()

    def close(self) -> None:
        self.ring.close()
        self.ring.unlink()

    # -- apps ------------------------------------------------------------
    def _apps_wc(self) -> None:
        spout = SentenceSpout(seed=self.seed)
        spout.prepare(_context("spout", 0))
        sentences = ColumnBatch.from_tuples(
            _rows(list(spout.next_batch(ROWS)), 0), "s"
        )
        parser, splitter, counter = Parser(), Splitter(), Counter()
        parsed = _kernel_output(parser, sentences, 1)
        words = next(_kernel_output(splitter, parsed, 2).chunks(ROWS))
        self.wc_words = words  # DictColumn-coded, as the splitter ships them
        self.timed["apps.wc.spout_ns_per_event"] = timed(
            lambda: list(spout.next_batch(ROWS)), 1, ROWS, 1e9
        )
        self.timed["apps.wc.parser_ns_per_tuple"] = timed(
            lambda: list(parser.process_columns(sentences)), 40, ROWS, 1e9
        )
        self.timed["apps.wc.splitter_ns_per_tuple"] = timed(
            lambda: list(splitter.process_columns(parsed)), 3, ROWS, 1e9
        )
        self.timed["apps.wc.counter_ns_per_tuple"] = timed(
            lambda: list(counter.process_columns(words)), 20, ROWS, 1e9
        )

    def _apps_lr(self) -> None:
        spout = LinearRoadSpout(seed=self.seed)
        spout.prepare(_context("spout", 0))
        records = ColumnBatch.from_tuples(
            _rows(list(spout.next_batch(ROWS)), 0), "q" * 11
        )
        parser, dispatcher = LinearRoadParser(), Dispatcher()
        counter, toll = CountVehicles(), TollNotifier()
        parsed = _kernel_output(parser, records, 1)
        positions = _kernel_output(dispatcher, parsed, 2, POSITION_STREAM)
        self.lr_positions = positions
        n = len(positions)
        self.timed["apps.lr.spout_ns_per_event"] = timed(
            lambda: list(spout.next_batch(ROWS)), 1, ROWS, 1e9
        )
        self.timed["apps.lr.parser_ns_per_tuple"] = timed(
            lambda: list(parser.process_columns(records)), 40, ROWS, 1e9
        )
        self.timed["apps.lr.dispatcher_ns_per_tuple"] = timed(
            lambda: list(dispatcher.process_columns(parsed)), 40, ROWS, 1e9
        )
        self.timed["apps.lr.count_vehicles_ns_per_tuple"] = timed(
            lambda: list(counter.process_columns(positions)), 3, n, 1e9
        )
        self.timed["apps.lr.toll_notify_ns_per_tuple"] = timed(
            lambda: list(toll.process_columns(positions)), 3, n, 1e9
        )

    # -- runtime.lowering / runtime.fusion -----------------------------------
    def _lowering(self) -> None:
        self.wc_topology = build_wordcount(seed=self.seed)
        self.lr_topology = build_linear_road(seed=self.seed)
        wc_graph, self.wc_spec = _lowered(self.wc_topology)
        lr_graph, self.lr_spec = _lowered(self.lr_topology)
        for app, topology, graph in (
            ("wc", self.wc_topology, wc_graph),
            ("lr", self.lr_topology, lr_graph),
        ):
            self.timed[f"lowering.lower_graph_ms.{app}"] = timed(
                lambda t=topology, g=graph: lower_graph(
                    t, g, batch_size=64, queue_budget=QUEUE_BUDGET
                ),
                10,
                1,
                1e3,
            )
        # Default engines run with fusion off, where planning is a no-op;
        # "auto" is the mode that does the planning work.
        auto = FusionConfig(mode="auto")
        self.timed["fusion.plan_fusion_ms.lr"] = timed(
            lambda: plan_fusion(self.lr_spec, auto), 10, 1, 1e3
        )

    # -- runtime.dataplane.codec / .columns ------------------------------
    def _codec_and_columns(self) -> None:
        position_rows = self.lr_positions.to_tuples()
        edge = (2, 3)
        for label, schema, encode_input, columnar in (
            ("wc_words", "s", self.wc_words, True),
            ("lr_position", "q" * 8, position_rows, False),
        ):
            # Default flags: string dictionaries on "auto".  Warm both ends
            # so that the frozen payload is a steady-state one (dictionary
            # already shipped), and decode in the order encoded.
            producer = BatchCodec({edge: schema}, string_dict="auto")
            consumer = BatchCodec({edge: schema}, string_dict="auto")
            encode = producer.encode_columns if columnar else producer.encode
            for _ in range(3):
                payload = encode(edge, encode_input)
                consumer.decode(payload, edge)
            n = len(encode_input)
            self.exact[f"codec.bytes_per_tuple.{label}"] = len(payload) / n
            self.timed[f"codec.encode_ns_per_tuple.{label}"] = timed(
                lambda e=encode, i=encode_input: e(edge, i), 10, n, 1e9
            )
            self.timed[f"codec.decode_ns_per_tuple.{label}"] = timed(
                lambda c=consumer, p=payload: c.decode(p, edge), 5, n, 1e9
            )
            self.timed[f"codec.decode_columns_ns_per_tuple.{label}"] = timed(
                lambda c=consumer, p=payload: c.decode_columns(p, edge), 40, n, 1e9
            )
        self.timed["columns.from_tuples_ns_per_tuple"] = timed(
            lambda: ColumnBatch.from_tuples(position_rows), 5, len(position_rows), 1e9
        )
        self.timed["columns.chunks_ns_per_batch"] = timed(
            lambda: list(self.lr_positions.chunks(64)), 20, 1, 1e9
        )

    # -- runtime.dataplane.channels --------------------------------------
    def _ring(self) -> None:
        ring = self.ring = ShmRing.create(
            f"perfprobe{os.getpid():x}", RING_BATCHES * RING_PAYLOAD
        )
        payload = bytes(range(256)) * (RING_PAYLOAD // 256)
        positions: list[int] = []

        def write() -> float:
            positions.clear()
            started = perf_counter()
            for _ in range(RING_BATCHES):
                positions.append(ring.try_write(payload))
            return (perf_counter() - started) / RING_BATCHES * 1e9

        def consume() -> float:
            # Runs right after ``write`` in every round: drains what it wrote.
            started = perf_counter()
            for start in positions:
                ring.consume(start, RING_PAYLOAD)
            return (perf_counter() - started) / RING_BATCHES * 1e9

        self.timed["channels.ring_write_ns_per_batch"] = write
        self.timed["channels.ring_consume_ns_per_batch"] = consume

    # -- runtime.process_pool --------------------------------------------
    def _pool(self) -> None:
        backend = ProcessPoolBackend(n_workers=N_WORKERS, dataplane="shm")
        self.timed["process_pool.pool_cycle_ms"] = timed(
            lambda: backend.execute(self.wc_spec, 0), 2, 1, 1e3
        )

    # -- runtime.epochs ----------------------------------------------------
    def _snapshot(self) -> None:
        """Warm LR operators through the public barrier path: run inline
        with barriers, keep the last commit's checkpoint, restore it into
        fresh instances."""
        commits = []
        InlineBackend().execute(
            self.lr_spec,
            4000,
            None,
            epochs=EpochConfig(interval=2000),
            on_epoch=lambda commit: commits.append(commit),
        )
        checkpoint = commits[-1].checkpoint
        payload = checkpoint.payload()
        instances = instantiate_tasks(self.lr_spec)
        for task_id, state in payload["states"].items():
            instances[task_id].restore_state(state)
        operators = {t: instances[t] for t in payload["states"]}

        def snapshot_and_seal() -> None:
            EpochCheckpoint.capture(
                checkpoint.epoch,
                events_ingested=checkpoint.events_ingested,
                spout_produced=checkpoint.spout_produced,
                states={t: op.snapshot_state() for t, op in operators.items()},
                counters=payload["counters"],
                stats=payload["stats"],
                sink_received=checkpoint.sink_received,
            )

        self.timed["epochs.snapshot_ms.lr"] = timed(snapshot_and_seal, 3, 1, 1e3)

    # -- core.model -----------------------------------------------------------
    def _model(self) -> None:
        machine = server_a(8)
        for app in ("wc", "lr"):
            topology, profiles = load_application(app)
            graph = ExecutionGraph(topology, {n: 4 for n in topology.components})
            plan = empty_plan(graph).assign(
                {task.task_id: task.task_id % 8 for task in graph.tasks}
            )
            model = PerformanceModel(profiles, machine)
            self.timed[f"core.model.evaluate_us.{app}"] = timed(
                lambda m=model, p=plan: m.evaluate(p, 1e6), 10, 1, 1e6
            )

    # -- whole program ---------------------------------------------------
    def _import(self) -> None:
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        command = [sys.executable, "-c", "import repro.dsps.engine, repro.core.rlas"]
        self.timed["repro.import_ms"] = timed(
            lambda: subprocess.run(command, env=env, check=True), 1, 1, 1e3
        )


#: Probes too slow to repeat every round; they run in every k-th round.
EVERY = {"repro.import_ms": 3}


def run_probes(seed: int, rounds: int, span=no_span) -> dict:
    """Run the suite; returns ``{"metrics": {name: value}, "detail": ...}``."""
    with span("layers.freeze_inputs"):
        frozen = FrozenInputs(seed)
    samples: dict[str, list[float]] = {name: [] for name in frozen.timed}
    try:
        for probe in frozen.timed.values():  # untimed warm-up of every probe
            probe()
        cal_before = kernel()
        for index in range(rounds):
            raw = {}
            for name, probe in frozen.timed.items():
                if index % EVERY.get(name, 1):
                    continue
                with span(f"probe.{name}"):
                    raw[name] = probe()
            cal_after = kernel()
            for name, value in raw.items():
                samples[name].append(calibrated(value, cal_before, cal_after))
            cal_before = cal_after
    finally:
        frozen.close()
    detail = {name: summarize(values) for name, values in samples.items()}
    metrics = {name: d["median"] for name, d in detail.items()}
    metrics.update(frozen.exact)
    return {"metrics": metrics, "detail": detail}
