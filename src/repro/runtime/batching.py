"""Adaptive per-edge jumbo batch sizing (AIMD at epoch barriers).

The jumbo batch size trades latency for throughput: bigger batches
amortize queue/codec/IPC overhead but sit longer in output buffers and
occupy more of a bounded queue.  PR 6 shipped a single global
``batch_size=64`` — the same static-configuration rigidity the
reconfiguration literature argues should be closed-loop.  This module
closes it with the congestion-control classic, **additive-increase /
multiplicative-decrease**, per edge:

* **decrease** (×``decrease`` factor) when the edge showed *pressure*
  over the last epoch window — producers blocked on a full queue
  (``QueueStats.blocked_batches``/``blocked_ns``) or, for remote edges,
  the owning worker reported shm-ring stalls (``ring_full_blocks``) or
  blocking sends (``send_blocks``).  Smaller batches drain in finer
  grains and stop a slow consumer from stalling its producer for a whole
  jumbo batch at a time.
* **increase** (+``increase`` tuples) when the edge moved data without
  pressure *and* its sealed batches ran nearly full
  (``fill_target``) — the producer is saturating the current size, so
  there is amortization left on the table.  Half-empty batches mean the
  flow is trickle-bound and growing the size would only add latency.

Adjustments happen **only at epoch barriers** (the commit step of
:class:`~repro.runtime.epochs.EpochDriver`) so they compose with
live reconfiguration: a migrated spec simply carries the controller's
sizes forward in :attr:`RuntimeSpec.edge_batch_size`.  Sizes are clamped
to ``[min_batch, max_batch]`` and to each edge's queue capacity, and the
result is validated by :func:`repro.runtime.lowering.apply_edge_batches`
— a sealed batch must always fit its queue.

The overload ladder (:mod:`repro.runtime.overload`) reuses this
controller as its gentlest rung: while the ladder sits at *batch-shrink*
or above, the backend marks **every** window edge as pressured, so the
AIMD decrease drives all batch sizes down without any new mechanism here
(see docs/overload.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dsps.queues import MAX_BATCH_ROWS
from repro.errors import PlanError
from repro.runtime.lowering import RuntimeSpec

EdgeKey = tuple[int, int]


@dataclass(frozen=True)
class AdaptiveBatchConfig:
    """AIMD parameters for the per-edge batch-size controller."""

    min_batch: int = 8
    max_batch: int = MAX_BATCH_ROWS
    #: Additive step in tuples when an edge earns an increase.
    increase: int = 32
    #: Multiplicative factor applied on pressure (0 < decrease < 1).
    decrease: float = 0.5
    #: Mean sealed-batch fill (tuples per batch / size) an edge must
    #: sustain over the window before it may grow.
    fill_target: float = 0.85

    def __post_init__(self) -> None:
        if self.min_batch < 1:
            raise PlanError("min_batch must be >= 1")
        if self.max_batch < self.min_batch:
            raise PlanError("max_batch must be >= min_batch")
        if self.increase < 1:
            raise PlanError("increase must be >= 1 tuple")
        if not 0.0 < self.decrease < 1.0:
            raise PlanError("decrease must be in (0, 1)")
        if not 0.0 < self.fill_target <= 1.0:
            raise PlanError("fill_target must be in (0, 1]")


class AdaptiveBatchController:
    """Per-edge AIMD batch sizing driven by windowed queue statistics.

    One controller instance survives the whole run (it lives with the
    epoch driver, never in workers), which feeds it the run's cumulative
    :class:`~repro.dsps.queues.QueueStats` once per barrier via
    :meth:`observe`; that differences them into one *window* and takes
    the AIMD step, :meth:`observe_window`.
    """

    def __init__(
        self, spec: RuntimeSpec, config: AdaptiveBatchConfig | None = None
    ) -> None:
        self.config = config if config is not None else AdaptiveBatchConfig()
        self.capacity: dict[EdgeKey, int | None] = dict(spec.queue_capacity)
        self.sizes: dict[EdgeKey, int] = {
            key: spec.batch_for(key) for key in spec.queue_capacity
        }
        self._last: dict[EdgeKey, tuple[int, int, int]] = {}
        self.adjustments = 0
        self.increases = 0
        self.decreases = 0

    def _clamp(self, key: EdgeKey, size: int) -> int:
        size = max(self.config.min_batch, min(self.config.max_batch, size))
        capacity = self.capacity.get(key)
        if capacity is not None:
            size = min(size, capacity)
        return max(1, size)

    def observe_window(
        self,
        window: dict[EdgeKey, tuple[int, int, int]],
        pressure_keys: frozenset[EdgeKey] | set[EdgeKey] = frozenset(),
    ) -> dict[EdgeKey, int]:
        """One AIMD step over a window of per-edge deltas.

        ``window`` maps edge -> (batches, tuples, blocked_batches)
        observed since the previous barrier; ``pressure_keys`` marks
        edges under externally detected pressure (shm-ring stalls or
        blocking remote sends attributed by the caller).  Returns only
        the sizes that changed.
        """
        changed: dict[EdgeKey, int] = {}
        for key, (batches, tuples, blocked) in window.items():
            current = self.sizes.get(key)
            if current is None:
                continue
            pressured = blocked > 0 or key in pressure_keys
            if batches <= 0 and not pressured:
                continue  # idle edge (e.g. inside a fused chain)
            if pressured:
                new = self._clamp(key, int(current * self.config.decrease))
                if new < current:
                    self.decreases += 1
            else:
                fill = (tuples / batches) / current
                if fill < self.config.fill_target:
                    continue
                new = self._clamp(key, current + self.config.increase)
                if new > current:
                    self.increases += 1
            if new != current:
                self.sizes[key] = new
                changed[key] = new
                self.adjustments += 1
        return changed

    def observe(
        self,
        stats: dict[EdgeKey, object],
        pressure_keys: frozenset[EdgeKey] | set[EdgeKey] = frozenset(),
    ) -> dict[EdgeKey, int]:
        """AIMD step over *cumulative* queue stats (both executors)."""
        window: dict[EdgeKey, tuple[int, int, int]] = {}
        for key, st in stats.items():
            now = (st.enqueued_batches, st.enqueued_tuples, st.blocked_batches)
            prev = self._last.get(key, (0, 0, 0))
            self._last[key] = now
            window[key] = (now[0] - prev[0], now[1] - prev[1], now[2] - prev[2])
        return self.observe_window(window, pressure_keys)

    def report(self) -> dict[str, int]:
        """Counters for the ``runtime.batch.*`` metrics."""
        return {
            "adjustments": self.adjustments,
            "increases": self.increases,
            "decreases": self.decreases,
        }
