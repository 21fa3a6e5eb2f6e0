"""Operator-chain fusion + adaptive batch sizing bake-off.

Same topology, same process-pool backend, same shm data plane, same
worker count — the baseline runs the placement unfused with fixed
per-edge batches, the contender fuses every exclusive same-socket
operator chain (``--fuse auto``) and lets the per-edge AIMD controller
resize the surviving queues at epoch barriers (``--adaptive-batch``).
Word Count at replication 1 fuses parser→splitter→counter into one
chain, eliminating two of the four queue hops: intermediate tuples never
touch a ring, a codec, or a scheduler pass (docs/fusion.md).

Two measurements, recorded together in ``BENCH_fusion.json``:

* **end-to-end** — WC on both configurations: wall time, tuples/second,
  and the ``runtime.fusion.*`` / ``runtime.batch.*`` counters the fused
  run reported.  The fused run must actually compose batches inside the
  chain (``composed_batches > 0``) and the unfused run must not.
* **parity** — both runs must ingest the same events and deliver the
  same number of sink tuples; fusion may only change speed, never
  results (the full bit-identity matrix lives in
  tests/test_runtime_fusion.py).

The speedup floor (default 1.15x, overridable via ``REPRO_FUSION_FLOOR``
— CI pins 1.0, i.e. "fusion must never be slower") is only meaningful
where chain work can actually overlap the spout and sink, so it is
asserted when >= 2 cores are visible; a single-core host still reports
the numbers but skips the floor.
"""

from __future__ import annotations

import os
from time import perf_counter

import pytest

from repro.apps.wordcount import build_wordcount
from repro.dsps.engine import LocalEngine
from repro.metrics import MetricsRegistry, format_table
from repro.runtime import AdaptiveBatchConfig, ProcessPoolBackend, shm_available

from support import QUICK, pinned_plan, write_result

EVENTS = 4_000 if QUICK else 16_000
WORKERS = 2
QUEUE_BUDGET = 4096
EPOCH_INTERVAL = 2_000
SPEEDUP_FLOOR = float(os.environ.get("REPRO_FUSION_FLOOR", "1.15"))


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _runtime_counters(registry: MetricsRegistry, prefix: str) -> dict[str, int]:
    return {
        key.removeprefix(prefix): value
        for key, value in registry.snapshot()["counters"].items()
        if key.startswith(prefix)
    }


def _timed_wc(fused: bool, registry: MetricsRegistry | None = None):
    topology = build_wordcount()
    topology.component("sink").template.keep_samples = 0
    # Both maps are pinned to what the backend dealt out when the floor
    # was set: sockets alternating along the pipeline for the baseline
    # (every hop a ring), the chain on one socket with spout and sink on
    # the other for the contender.  Batching goes on the instance only:
    # the engine rejects backend options beside a ready-made backend.
    sockets = {0: 0, 1: 1, 2: 1, 3: 1, 4: 0} if fused else None
    engine = LocalEngine.from_plan(
        pinned_plan(topology, sockets=sockets, workers=WORKERS),
        registry=registry,
        backend=ProcessPoolBackend(
            n_workers=WORKERS,
            dataplane="shm",
            batching=AdaptiveBatchConfig() if fused else None,
        ),
        queue_budget=QUEUE_BUDGET,
        fuse="auto" if fused else "off",
        epoch_interval=EPOCH_INTERVAL if fused else None,
    )
    started = perf_counter()
    result = engine.run(EVENTS)
    return perf_counter() - started, result


def test_fusion_throughput():
    if not shm_available():
        pytest.skip("no POSIX shared memory on this host")
    cores = _cores()

    # Warm import/fork/allocation paths once per configuration.
    _timed_wc(False)
    _timed_wc(True)

    base_registry = MetricsRegistry()
    base_s, base_result = _timed_wc(False, base_registry)
    fused_registry = MetricsRegistry()
    fused_s, fused_result = _timed_wc(True, fused_registry)

    # Fusion may only change speed, never results.
    assert fused_result.events_ingested == base_result.events_ingested
    assert fused_result.sink_received() == base_result.sink_received()

    base_fusion = _runtime_counters(base_registry, "runtime.fusion.")
    fused_fusion = _runtime_counters(fused_registry, "runtime.fusion.")
    fused_batch = _runtime_counters(fused_registry, "runtime.batch.")
    assert all(v == 0 for v in base_fusion.values())
    # The WC chain is fully columnar: composed batches flow through the
    # fused kernels without falling back to per-tuple chaining.
    assert fused_fusion["composed_batches"] > 0
    assert fused_fusion["composed_tuples"] > 0

    tuples_delivered = base_result.sink_received()
    base_tps = tuples_delivered / base_s
    fused_tps = tuples_delivered / fused_s
    speedup = base_s / fused_s if fused_s > 0 else 0.0

    rows = [
        ["unfused, fixed batch", f"{base_s:.3f}", f"{base_tps:,.0f}", "0", "1.00"],
        [
            "fused + adaptive",
            f"{fused_s:.3f}",
            f"{fused_tps:,.0f}",
            f"{fused_fusion['composed_batches']:,}",
            f"{speedup:.2f}",
        ],
    ]
    text = format_table(
        ["configuration", "wall s", "tuples/s", "composed batches", "speedup"],
        rows,
        title=(
            f"Operator-chain fusion — WC, shm plane, {WORKERS} workers, "
            f"{EVENTS} events, {cores} core(s) visible; "
            f"{fused_batch.get('adjustments', 0)} batch adjustments"
        ),
    )
    write_result(
        "BENCH_fusion",
        text,
        data={
            "app": "wc",
            "events": EVENTS,
            "workers": WORKERS,
            "cores": cores,
            "dataplane": "shm",
            "epoch_interval": EPOCH_INTERVAL,
            "baseline": {
                "wall_s": base_s,
                "tuples_per_s": base_tps,
                "fusion": base_fusion,
            },
            "fused": {
                "wall_s": fused_s,
                "tuples_per_s": fused_tps,
                "fusion": fused_fusion,
                "batch": fused_batch,
            },
            "speedup": speedup,
        },
    )

    if cores >= 2:
        assert speedup >= SPEEDUP_FLOOR, (
            f"fusion speedup {speedup:.2f}x below {SPEEDUP_FLOOR}x "
            f"on {cores} cores"
        )
