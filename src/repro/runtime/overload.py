"""Overload control: lag SLOs, load shedding, and a degradation ladder.

BriskStream's RLAS plans are computed for a *profiled* arrival rate; the
runtime that executes them assumed the plan keeps up.  When real input
outruns the plan, the pre-PR-9 runtime had exactly two behaviours —
block producers on bounded queues, and eventually die on a watchdog —
with no path in between.  This module adds that path, stepped at the
same epoch barriers that drive live reconfiguration (reconfigure.py):

* :class:`LagTracker` — per-edge queue-residence and end-to-end tuple
  lag estimates (``runtime.overload.lag_ms.*``).  Tuples deliberately
  carry **no wall-clock stamp** (``event_time_ns`` is virtual time, and
  adding a field would change the wire format and break the parity
  matrices), so lag is estimated by Little's law over each epoch
  window: a tuple entering an edge whose peak depth was *d* and whose
  drain rate was *r* waited roughly ``d / r``.  End-to-end lag is the
  critical path of those residences from any spout to any sink; the
  wall-clock window boundaries measured at each barrier stand in for
  per-tuple spout emit timestamps.
* :class:`OverloadDetector` — sustained-pressure detection with
  hysteresis.  An epoch is *pressured* when any edge spent a
  significant fraction of its sealed batches blocked on a full queue,
  when a worker reported shm-ring stalls / blocking remote sends, or
  when the estimated end-to-end lag violated the configured SLO
  (``--max-lag-ms``).  Only ``enter_epochs`` *consecutive* pressured
  epochs flip the detector to overloaded, and only ``exit_epochs``
  consecutive clean epochs flip it back — one noisy window never
  triggers degradation.
* :class:`DegradationLadder` — an explicit escalation policy between
  "keep up" and "crash", one rung per epoch while overload persists:

  ====  =============  ====================================================
  rung  name           effect
  ====  =============  ====================================================
  0     normal         nothing
  1     shed           seeded deterministic load shedding at the spouts
  2     throttle       spouts admit a fraction of the interval per epoch
  3     replan         request a live degrade replan (reconfigure.py)
  ====  =============  ====================================================

  Rungs are exited in reverse order, one per clean epoch, and every
  transition is recorded in a ``data.overload`` run-report timeline.
* :class:`Shedder` — load shedding whose drop decision is a **pure
  function** of ``(seed, edge, tuple offset)`` (:func:`shed_score`), so
  a shed run is exactly reproducible and ``--shed off`` is bit-identical
  to a run without overload control.  ``semantic`` mode only drops
  tuples the producing operator declared sheddable
  (:meth:`repro.dsps.operators.Operator.sheddable`); accuracy loss is
  accounted per edge in the run report.

One :class:`OverloadManager` per run owns all of the above; backends
feed it one window of queue statistics per epoch and read back the
current directives (see docs/overload.md).  :func:`decorrelated_jitter`
is the :class:`~repro.runtime.supervisor.Supervisor`'s restart backoff.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Mapping

from repro.errors import PlanError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.metrics.registry import MetricsRegistry
    from repro.runtime.lowering import RuntimeSpec

EdgeKey = tuple[int, int]

#: Valid ``--shed`` modes.
SHED_MODES = ("off", "random", "semantic")

#: Ladder rungs, lowest (healthy) first.
RUNGS = ("normal", "shed", "throttle", "replan")

RUNG_NORMAL = 0
RUNG_SHED = 1
RUNG_THROTTLE = 2
RUNG_REPLAN = 3

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """splitmix64 finalizer — a cheap, well-distributed 64-bit mix."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def shed_score(seed: int, edge: EdgeKey, offset: int) -> float:
    """Deterministic uniform score in [0, 1) for one shedding decision.

    A pure function of ``(seed, edge, offset)`` — no hidden state, no
    call-order dependence — so shed runs replay exactly and the
    hypothesis property test can pin the contract.  ``offset`` is the
    producing spout's cumulative tuple index, which both backends agree
    on by construction.
    """
    h = _mix64((seed & _MASK64) * 0x9E3779B97F4A7C15 + 1)
    h = _mix64(h ^ _mix64(edge[0] + 0x632BE59BD9B4E019))
    h = _mix64(h ^ _mix64(edge[1] + 0x9E6C63D0876A9F4B))
    h = _mix64(h ^ _mix64(offset))
    return (h >> 11) / float(1 << 53)


def decorrelated_jitter(
    rng: random.Random, base_s: float, cap_s: float, prev_s: float
) -> float:
    """One step of AWS-style decorrelated-jitter backoff.

    ``sleep = min(cap, uniform(base, prev * 3))`` — grows roughly
    exponentially in expectation but desynchronizes concurrent retriers,
    which is exactly what thundering-herd restarts need.
    """
    return min(cap_s, rng.uniform(base_s, max(base_s, prev_s * 3)))


@dataclass(frozen=True)
class OverloadConfig:
    """Knobs for the overload-control subsystem (docs/overload.md)."""

    #: End-to-end lag SLO in milliseconds; ``None`` disables the lag
    #: trigger (pressure signals still drive the ladder).
    max_lag_ms: float | None = None
    #: ``off`` | ``random`` | ``semantic`` (see :data:`SHED_MODES`).
    shed_mode: str = "off"
    #: Fraction of sheddable tuples dropped while the shed rung is
    #: active.
    shed_rate: float = 0.5
    #: Seed for the deterministic shed decision.
    shed_seed: int = 1
    #: Consecutive pressured epochs before the detector flips to
    #: overloaded (hysteresis, entry side).
    enter_epochs: int = 2
    #: Consecutive clean epochs before it flips back (exit side).
    exit_epochs: int = 2
    #: Fraction of an edge's sealed batches that must have blocked on a
    #: full queue before the edge counts as pressured.  Bounded healthy
    #: runs block occasionally; sustained blocking is the signal.
    pressure_ratio: float = 0.2
    #: Fraction of the epoch interval admitted per epoch while the
    #: throttle rung is active.
    throttle_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.max_lag_ms is not None and self.max_lag_ms <= 0:
            raise PlanError("max_lag_ms must be positive")
        if self.shed_mode not in SHED_MODES:
            raise PlanError(f"shed_mode must be one of {SHED_MODES}")
        if not 0.0 < self.shed_rate <= 1.0:
            raise PlanError("shed_rate must be in (0, 1]")
        if self.enter_epochs < 1 or self.exit_epochs < 1:
            raise PlanError("enter_epochs/exit_epochs must be >= 1")
        if not 0.0 < self.pressure_ratio <= 1.0:
            raise PlanError("pressure_ratio must be in (0, 1]")
        if not 0.0 < self.throttle_fraction < 1.0:
            raise PlanError("throttle_fraction must be in (0, 1)")


@dataclass(frozen=True)
class EdgeWindow:
    """Per-edge queue activity observed over one epoch window."""

    enqueued_batches: int = 0
    enqueued_tuples: int = 0
    dequeued_tuples: int = 0
    blocked_batches: int = 0
    #: Peak queue depth in tuples seen so far (cumulative high-water
    #: mark — good enough for a residence estimate).
    peak_depth: int = 0


class LagTracker:
    """Queue-residence and end-to-end lag estimates from edge windows.

    See the module docstring for why lag is estimated (Little's law per
    edge, critical path end-to-end) rather than measured per tuple.
    """

    def __init__(self, spec: "RuntimeSpec") -> None:
        self._in_edges: dict[int, list[EdgeKey]] = {}
        self._order: list[int] = [rt.task_id for rt in spec.tasks]
        for edge in spec.edges:
            self._in_edges.setdefault(edge.consumer, []).append(
                (edge.producer, edge.consumer)
            )
        self.edge_lag_ms: dict[EdgeKey, float] = {}
        self.e2e_lag_ms = 0.0

    def update(
        self, windows: Mapping[EdgeKey, EdgeWindow], wall_s: float
    ) -> float:
        """Fold one epoch window in; returns the end-to-end lag in ms."""
        wall_s = max(wall_s, 1e-9)
        for key, w in windows.items():
            if w.dequeued_tuples > 0:
                rate = w.dequeued_tuples / wall_s
                self.edge_lag_ms[key] = w.peak_depth / rate * 1e3
            elif w.peak_depth > 0:
                # Nothing drained all window: every queued tuple waited
                # at least the window.
                self.edge_lag_ms[key] = wall_s * 1e3
            else:
                self.edge_lag_ms[key] = 0.0
        arrival: dict[int, float] = {}
        for task_id in self._order:
            arrival[task_id] = max(
                (
                    arrival.get(p, 0.0) + self.edge_lag_ms.get((p, c), 0.0)
                    for p, c in self._in_edges.get(task_id, ())
                ),
                default=0.0,
            )
        self.e2e_lag_ms = max(arrival.values(), default=0.0)
        return self.e2e_lag_ms


class OverloadDetector:
    """Hysteretic sustained-pressure detection over epoch windows."""

    def __init__(self, config: OverloadConfig) -> None:
        self.config = config
        self.overloaded = False
        self.pressured_streak = 0
        self.clean_streak = 0
        self.slo_violations = 0
        self.last_reasons: tuple[str, ...] = ()

    def observe(
        self,
        windows: Mapping[EdgeKey, EdgeWindow],
        pressure_keys: frozenset[EdgeKey] | set[EdgeKey],
        e2e_lag_ms: float,
    ) -> bool:
        """Fold one epoch in; returns whether this epoch was pressured."""
        cfg = self.config
        reasons = []
        if any(
            w.blocked_batches > 0
            and w.blocked_batches >= cfg.pressure_ratio * max(1, w.enqueued_batches)
            for w in windows.values()
        ):
            reasons.append("blocked-put")
        if pressure_keys:
            reasons.append("ring-full")
        if cfg.max_lag_ms is not None and e2e_lag_ms > cfg.max_lag_ms:
            reasons.append("lag-slo")
            self.slo_violations += 1
        self.last_reasons = tuple(reasons)
        pressured = bool(reasons)
        if pressured:
            self.pressured_streak += 1
            self.clean_streak = 0
            if self.pressured_streak >= cfg.enter_epochs:
                self.overloaded = True
        else:
            self.clean_streak += 1
            self.pressured_streak = 0
            if self.clean_streak >= cfg.exit_epochs:
                self.overloaded = False
        return pressured


class DegradationLadder:
    """Explicit, hysteretic escalation between "keep up" and "crash".

    One rung up per epoch while the detector stays overloaded, one rung
    down per epoch once it has cleanly recovered; every transition is
    appended to ``timeline`` for the run report.
    """

    def __init__(self, config: OverloadConfig) -> None:
        self.config = config
        self.rung = RUNG_NORMAL
        self.peak_rung = RUNG_NORMAL
        self.escalations = 0
        self.timeline: list[dict] = []

    def step(self, epoch: int, detector: OverloadDetector) -> int:
        if detector.overloaded and self.rung < RUNG_REPLAN:
            self.rung += 1
            self.peak_rung = max(self.peak_rung, self.rung)
            self.escalations += 1
            self.timeline.append(
                {
                    "epoch": epoch,
                    "kind": "escalate",
                    "rung": RUNGS[self.rung],
                    "reason": "+".join(detector.last_reasons) or "sustained",
                }
            )
        elif not detector.overloaded and self.rung > RUNG_NORMAL:
            self.rung -= 1
            self.timeline.append(
                {
                    "epoch": epoch,
                    "kind": "de-escalate",
                    "rung": RUNGS[self.rung],
                    "reason": "recovered",
                }
            )
        return self.rung


class Shedder:
    """Seeded deterministic load shedding at the spouts.

    ``should_shed`` is driven entirely by :func:`shed_score` — see the
    module docstring for the purity contract.  ``semantic`` mode asks
    the producing operator's :meth:`sheddable` predicate first; tuples
    it does not explicitly bless are never dropped.
    """

    def __init__(self, mode: str, rate: float, seed: int) -> None:
        if mode not in SHED_MODES:
            raise PlanError(f"shed mode must be one of {SHED_MODES}")
        self.mode = mode
        self.rate = rate
        self.seed = seed
        self.active = False
        self.offered: dict[EdgeKey, int] = {}
        self.shed: dict[EdgeKey, int] = {}
        self.protected = 0

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    def should_shed(
        self,
        edge: EdgeKey,
        offset: int,
        item: object = None,
        predicate: Callable[[object], object] | None = None,
    ) -> bool:
        if not self.active or not self.enabled:
            return False
        self.offered[edge] = self.offered.get(edge, 0) + 1
        if self.mode == "semantic":
            if predicate is None or not predicate(item):
                self.protected += 1
                return False
        if shed_score(self.seed, edge, offset) < self.rate:
            self.shed[edge] = self.shed.get(edge, 0) + 1
            return True
        return False

    def snapshot(self) -> dict:
        """Picklable accounting blob (worker -> parent merge)."""
        return {
            "offered": {f"{p}-{c}": n for (p, c), n in self.offered.items()},
            "shed": {f"{p}-{c}": n for (p, c), n in self.shed.items()},
            "protected": self.protected,
        }


@dataclass
class OverloadReport:
    """Run-report payload: what the ladder saw and did (``data.overload``)."""

    max_lag_ms: float | None
    shed_mode: str
    shed_rate: float
    shed_seed: int
    epochs: int = 0
    pressured_epochs: int = 0
    slo_violations: int = 0
    peak_rung: str = RUNGS[0]
    final_rung: str = RUNGS[0]
    peak_lag_ms: float = 0.0
    lag_samples_ms: list[float] = field(default_factory=list)
    offered: int = 0
    shed: int = 0
    protected: int = 0
    shed_by_edge: dict[str, int] = field(default_factory=dict)
    throttled_epochs: int = 0
    tokens_denied: int = 0
    replans_requested: int = 0
    timeline: list[dict] = field(default_factory=list)

    def p99_lag_ms(self) -> float:
        if not self.lag_samples_ms:
            return 0.0
        ordered = sorted(self.lag_samples_ms)
        return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]

    def accuracy_loss(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    def to_dict(self) -> dict:
        return {
            "max_lag_ms": self.max_lag_ms,
            "shed_mode": self.shed_mode,
            "shed_rate": self.shed_rate,
            "shed_seed": self.shed_seed,
            "epochs": self.epochs,
            "pressured_epochs": self.pressured_epochs,
            "slo_violations": self.slo_violations,
            "peak_rung": self.peak_rung,
            "final_rung": self.final_rung,
            "peak_lag_ms": self.peak_lag_ms,
            "p99_lag_ms": self.p99_lag_ms(),
            "shedding": {
                "offered": self.offered,
                "shed": self.shed,
                "protected": self.protected,
                "accuracy_loss": self.accuracy_loss(),
                "by_edge": dict(self.shed_by_edge),
            },
            "throttle": {
                "throttled_epochs": self.throttled_epochs,
                "tokens_denied": self.tokens_denied,
            },
            "replans_requested": self.replans_requested,
            "timeline": list(self.timeline),
        }


class OverloadManager:
    """One overload-control loop per run, stepped at epoch barriers.

    The epoch driver (:class:`repro.runtime.epochs.EpochDriver`) feeds
    it the run's cumulative per-edge queue statistics once per barrier
    (:meth:`observe_queue_stats` — the same dialect from both executors)
    and reads back directives: whether shedding is active, the spout
    admission allowance for the next epoch, and whether a degrade replan
    is requested.
    """

    def __init__(
        self,
        spec: "RuntimeSpec",
        config: OverloadConfig,
        interval: int,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        from repro.metrics.registry import NULL_REGISTRY

        self.config = config
        self.interval = max(1, interval)
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.tracker = LagTracker(spec)
        self.detector = OverloadDetector(config)
        self.ladder = DegradationLadder(config)
        self.shedder = Shedder(config.shed_mode, config.shed_rate, config.shed_seed)
        self.report = OverloadReport(
            max_lag_ms=config.max_lag_ms,
            shed_mode=config.shed_mode,
            shed_rate=config.shed_rate,
            shed_seed=config.shed_seed,
        )
        self._last: dict[EdgeKey, tuple[int, int, int, int, int]] = {}
        self._wall_mark = perf_counter()
        self._sealed = False

    # ------------------------------------------------------------------
    # directives read by the backends
    @property
    def rung(self) -> int:
        return self.ladder.rung

    @property
    def shed_active(self) -> bool:
        return self.ladder.rung >= RUNG_SHED and self.shedder.enabled

    @property
    def throttling(self) -> bool:
        return self.ladder.rung >= RUNG_THROTTLE

    def request_replan(self) -> bool:
        """True when the top rung asks reconfiguration for a replan."""
        if self.ladder.rung >= RUNG_REPLAN and self.detector.overloaded:
            self.report.replans_requested += 1
            return True
        return False

    def commit_state(self) -> dict:
        """Overload payload attached to each :class:`EpochCommit`."""
        return {
            "rung": RUNGS[self.ladder.rung],
            "replan_requested": self.request_replan(),
        }

    # ------------------------------------------------------------------
    # one step per epoch barrier
    def observe_queue_stats(
        self,
        epoch: int,
        stats: Mapping[EdgeKey, object],
        pressure_keys: frozenset[EdgeKey] | set[EdgeKey] = frozenset(),
    ) -> int:
        """One ladder step from *cumulative* QueueStats; returns the rung."""
        windows: dict[EdgeKey, EdgeWindow] = {}
        for key, st in stats.items():
            seen = (
                st.enqueued_batches,
                st.enqueued_tuples,
                st.dequeued_tuples,
                st.blocked_batches,
                st.max_depth_tuples,
            )
            prev = self._last.get(key, (0, 0, 0, 0, 0))
            self._last[key] = seen
            windows[key] = EdgeWindow(
                enqueued_batches=seen[0] - prev[0],
                enqueued_tuples=seen[1] - prev[1],
                dequeued_tuples=seen[2] - prev[2],
                blocked_batches=seen[3] - prev[3],
                peak_depth=seen[4],
            )
        now = perf_counter()
        wall_s = max(now - self._wall_mark, 1e-9)
        self._wall_mark = now
        lag = self.tracker.update(windows, wall_s)
        pressured = self.detector.observe(windows, pressure_keys, lag)
        rung = self.ladder.step(epoch, self.detector)
        self.shedder.active = self.shed_active

        self.report.epochs += 1
        self.report.pressured_epochs += int(pressured)
        self.report.slo_violations = self.detector.slo_violations
        self.report.peak_lag_ms = max(self.report.peak_lag_ms, lag)
        self.report.lag_samples_ms.append(lag)
        self.report.peak_rung = RUNGS[self.ladder.peak_rung]

        registry = self.registry
        if registry.enabled:
            registry.gauge("runtime.overload.lag_ms.e2e").set(lag)
            for (p, c), edge_lag in self.tracker.edge_lag_ms.items():
                registry.gauge(f"runtime.overload.lag_ms.{p}-{c}").set(edge_lag)
            registry.histogram("runtime.overload.lag_ms").observe(lag)
            registry.gauge("runtime.overload.rung").set(rung)
            if pressured:
                registry.counter("runtime.overload.pressured_epochs").inc()
        return rung

    def spout_allowance(self) -> int:
        """Tuples each spout may produce next epoch: the interval, or
        ``throttle_fraction`` of it while the throttle rung is active, so
        backlogged queues get room to drain.  What a throttled epoch
        does not admit is counted in ``tokens_denied``."""
        if not self.throttling:
            return self.interval
        granted = max(1, int(self.interval * self.config.throttle_fraction))
        self.report.throttled_epochs += 1
        self.report.tokens_denied += self.interval - granted
        return granted

    # ------------------------------------------------------------------
    # shed accounting (local shedder + worker-side snapshots)
    def shed_context(self) -> dict | None:
        """Picklable shed directive for process-pool workers."""
        if not self.shedder.enabled:
            return None
        return {
            "mode": self.config.shed_mode,
            "rate": self.config.shed_rate,
            "seed": self.config.shed_seed,
            "active": self.shed_active,
        }

    def merge_shed_snapshot(self, blob: Mapping | None) -> None:
        if not blob:
            return
        self.report.offered += sum(int(n) for n in blob.get("offered", {}).values())
        for edge, n in blob.get("shed", {}).items():
            self.report.shed += int(n)
            self.report.shed_by_edge[edge] = (
                self.report.shed_by_edge.get(edge, 0) + int(n)
            )
        self.report.protected += int(blob.get("protected", 0))

    def finish(self) -> OverloadReport:
        """Seal and return the run report (idempotent)."""
        if self._sealed:
            return self.report
        self._sealed = True
        self.merge_shed_snapshot(self.shedder.snapshot())
        # The local shedder's counts are folded in exactly once.
        self.shedder.offered.clear()
        self.shedder.shed.clear()
        self.shedder.protected = 0
        self.report.final_rung = RUNGS[self.ladder.rung]
        self.report.timeline = list(self.ladder.timeline)
        registry = self.registry
        if registry.enabled:
            registry.counter("runtime.overload.shed_tuples").inc(self.report.shed)
            registry.counter("runtime.overload.escalations").inc(
                self.ladder.escalations
            )
            registry.gauge("runtime.overload.slo_violations").set(
                self.report.slo_violations
            )
            registry.gauge("runtime.overload.p99_lag_ms").set(
                self.report.p99_lag_ms()
            )
        return self.report
