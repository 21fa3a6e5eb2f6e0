"""Deterministic, seedable fault injection for the runtime backends.

Chaos testing a stream processor means answering one question under
controlled conditions: *what does the system do when a component fails
mid-run?*  This module provides the controlled conditions:

* a :class:`FaultPlan` — a declarative, seedable description of which
  faults to inject ("crash the worker owning the splitter after it
  produced 500 tuples").  The same seed always yields the same concrete
  schedule for the same lowered spec, so chaos runs are reproducible
  bit-for-bit (the determinism contract the profiler's crc32 seeding
  established for sampling carries over to fault schedules);
* a :class:`FaultInjector` — the per-attempt arming state a backend
  consults from its hot loops.  Backends call :meth:`FaultInjector.tick`
  once per tuple a task produces/processes; when a fault's trigger count
  is reached the injector hands the fault back and the backend acts on
  its kind:

  ``crash``
      the hosting worker process dies immediately (``os._exit``); the
      inline backend simulates this by raising
      :class:`~repro.errors.WorkerCrashError`;
  ``raise``
      the operator's ``process()`` raises
      :class:`~repro.errors.InjectedFaultError`;
  ``stall``
      the task stops making progress forever (the watchdog must convert
      this into a bounded, typed :class:`~repro.errors.StallError`);
  ``drop``
      the task's next sealed output batch is silently discarded —
      detected afterwards through the injector's loss accounting, which
      stands in for per-edge delivery acks.

Faults are *attempt-scoped*: each entry fires on one supervised attempt
(attempt 0 by default), so a ``retry``/``degrade`` recovery replay runs
clean unless the plan deliberately schedules repeat faults.
"""

from __future__ import annotations

import random
import zlib
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import ExecutionError
from repro.runtime.lowering import RuntimeSpec

#: Fault kinds a backend knows how to act on.
FAULT_KINDS = ("crash", "raise", "stall", "drop")

#: Default upper bound (exclusive) for seeded trigger offsets.
DEFAULT_HORIZON = 256


@dataclass(frozen=True)
class Fault:
    """One concrete, scheduled fault: *what* fires *where* and *when*."""

    kind: str
    task_id: int
    component: str
    at_tuple: int
    attempt: int = 0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "task_id": self.task_id,
            "component": self.component,
            "at_tuple": self.at_tuple,
            "attempt": self.attempt,
        }

    def describe(self) -> str:
        return (
            f"{self.kind} at task {self.task_id} ({self.component}) "
            f"after {self.at_tuple} tuples (attempt {self.attempt})"
        )


@dataclass(frozen=True)
class FaultPlan:
    """A declarative fault-injection configuration.

    A plan is spec-independent; :meth:`schedule` resolves it against a
    lowered :class:`RuntimeSpec` into concrete :class:`Fault` entries.
    Resolution is deterministic: the seed drives a private
    ``random.Random`` (crc32-mixed so similar seeds diverge), and task
    candidates are drawn from the spec's fixed topological task order.

    Parameters
    ----------
    seed:
        Determinism seed for target/offset selection.
    kinds:
        Fault kinds to draw from, one per injected fault (cycled when
        ``n_faults`` exceeds ``len(kinds)``).
    n_faults:
        Number of faults to schedule.
    target:
        Restrict targets to one component name (``None`` = any eligible
        task, seeded choice).
    at_tuple:
        Fixed trigger offset (``None`` = seeded in ``[1, horizon]``).
    horizon:
        Upper bound for seeded trigger offsets; keep below the run's
        per-task tuple volume or the fault never fires.
    attempt:
        Supervised attempt the faults fire on (0 = first attempt).
    """

    seed: int = 0
    kinds: tuple[str, ...] = ("crash",)
    n_faults: int = 1
    target: str | None = None
    at_tuple: int | None = None
    horizon: int = DEFAULT_HORIZON
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.n_faults < 1:
            raise ExecutionError("fault plan needs n_faults >= 1")
        if self.horizon < 1:
            raise ExecutionError("fault horizon must be >= 1")
        if self.at_tuple is not None and self.at_tuple < 1:
            raise ExecutionError("fault trigger at_tuple must be >= 1")
        if not self.kinds:
            raise ExecutionError("fault plan needs at least one kind")
        for kind in self.kinds:
            if kind not in FAULT_KINDS:
                raise ExecutionError(
                    f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
                )

    # ------------------------------------------------------------------
    # Parsing (the CLI's --inject-faults argument)
    # ------------------------------------------------------------------
    @classmethod
    def from_cli(cls, text: str) -> "FaultPlan":
        """Parse ``key=value`` pairs, e.g. ``seed=7,kinds=crash|stall,n=2``.

        Recognized keys: ``seed``, ``kind``/``kinds`` (``|``-separated),
        ``n``, ``target``, ``at``, ``horizon``, ``attempt``.
        """
        kwargs: dict = {}
        for part in filter(None, (p.strip() for p in text.split(","))):
            if "=" not in part:
                raise ExecutionError(
                    f"bad --inject-faults fragment {part!r}; expected key=value"
                )
            key, _, value = part.partition("=")
            key = key.strip().lower()
            value = value.strip()
            try:
                if key == "seed":
                    kwargs["seed"] = int(value)
                elif key in ("kind", "kinds"):
                    kwargs["kinds"] = tuple(
                        k.strip() for k in value.split("|") if k.strip()
                    )
                elif key == "n":
                    kwargs["n_faults"] = int(value)
                elif key == "target":
                    kwargs["target"] = value
                elif key == "at":
                    kwargs["at_tuple"] = int(value)
                elif key == "horizon":
                    kwargs["horizon"] = int(value)
                elif key == "attempt":
                    kwargs["attempt"] = int(value)
                else:
                    raise ExecutionError(
                        f"unknown --inject-faults key {key!r}; expected "
                        "seed/kind/kinds/n/target/at/horizon/attempt"
                    )
            except ValueError:
                raise ExecutionError(
                    f"--inject-faults value for {key!r} must be an integer, "
                    f"got {value!r}"
                ) from None
        return cls(**kwargs)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _eligible(self, spec: RuntimeSpec, kind: str) -> list:
        if kind in ("raise", "stall"):
            # Only tasks with a process() loop can raise from / stall it.
            tasks = [rt for rt in spec.tasks if not rt.is_spout]
        elif kind == "drop":
            tasks = [rt for rt in spec.tasks if rt.out_edges]
        else:
            tasks = list(spec.tasks)
        if self.target is not None:
            tasks = [rt for rt in tasks if rt.component == self.target]
        return tasks

    def schedule(self, spec: RuntimeSpec) -> tuple[Fault, ...]:
        """Resolve the plan into concrete faults for ``spec``."""
        rng = random.Random(zlib.crc32(f"faults:{self.seed}".encode()))
        faults = []
        for index in range(self.n_faults):
            kind = self.kinds[index % len(self.kinds)]
            candidates = self._eligible(spec, kind)
            if not candidates:
                raise ExecutionError(
                    f"no eligible task for fault kind {kind!r}"
                    + (f" on component {self.target!r}" if self.target else "")
                )
            rt = rng.choice(candidates)
            at = (
                self.at_tuple
                if self.at_tuple is not None
                else rng.randint(1, self.horizon)
            )
            faults.append(
                Fault(
                    kind=kind,
                    task_id=rt.task_id,
                    component=rt.component,
                    at_tuple=at,
                    attempt=self.attempt,
                )
            )
        return tuple(faults)


class FaultInjector:
    """Per-attempt arming state consulted from backend hot loops.

    One injector is built per execution attempt (and, on the process
    backend, per worker — each task lives in exactly one worker, so
    per-task tuple counts partition cleanly).  The injector is pure
    bookkeeping; *acting* on a fired fault is the backend's job.
    """

    def __init__(
        self,
        schedule: tuple[Fault, ...],
        attempt: int = 0,
        *,
        tasks: "set[int] | None" = None,
        base_counts: "Mapping[int, int] | None" = None,
    ) -> None:
        self.schedule = tuple(schedule)
        self.attempt = attempt
        self._armed: dict[int, list[Fault]] = defaultdict(list)
        for fault in schedule:
            if fault.attempt != attempt:
                continue
            if tasks is not None and fault.task_id not in tasks:
                continue
            if (
                base_counts is not None
                and fault.at_tuple <= base_counts.get(fault.task_id, 0)
            ):
                # Already fired (or passed over) in an earlier epoch slice
                # of the same attempt: a relaunched worker must not re-arm
                # it or every slice would crash at the same offset.
                continue
            self._armed[fault.task_id].append(fault)
        self._counts: dict[int, int] = defaultdict(int)
        if base_counts is not None:
            self._counts.update(base_counts)
        self.fired: list[Fault] = []
        self.stalled: set[int] = set()
        self._pending_drops: dict[int, int] = defaultdict(int)
        #: Chain member -> the chain's tail (:meth:`follow_chains`).
        self._drop_from: dict[int, int] = {}
        self.dropped_batches = 0
        self.dropped_tuples = 0

    # ------------------------------------------------------------------
    # Hot-loop API
    # ------------------------------------------------------------------
    def tick(self, task_id: int) -> Fault | None:
        """Count one tuple at ``task_id``; return a fault if one fires.

        A ``drop`` fault is additionally recorded as a pending drop,
        which the backend's send path consumes (:meth:`take_drop`), and
        a ``stall`` in :attr:`stalled`, which names the task in the
        resulting ``StallError``; the fault is still returned so the
        backend's fault tick acts on every kind in one place.
        """
        armed = self._armed.get(task_id)
        if not armed:
            return None
        self._counts[task_id] += 1
        count = self._counts[task_id]
        for index, fault in enumerate(armed):
            if count >= fault.at_tuple:
                del armed[index]
                self.fired.append(fault)
                if fault.kind == "stall":
                    self.stalled.add(task_id)
                elif fault.kind == "drop":
                    self._pending_drops[self._drop_from.get(task_id, task_id)] += 1
                return fault
        return None

    def follow_chains(self, chains: Iterable[tuple[int, ...]]) -> None:
        """A drop armed at a fused chain's member loses the chain's next
        sealed batch: an edge inside a chain carries no message to lose."""
        self._drop_from = {task_id: chain[-1] for chain in chains for task_id in chain}

    def take_drop(self, producer: int, n_tuples: int) -> bool:
        """Consume a pending drop for ``producer``'s next sealed batch."""
        if self._pending_drops.get(producer, 0) <= 0:
            return False
        self._pending_drops[producer] -= 1
        self.dropped_batches += 1
        self.dropped_tuples += n_tuples
        return True

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """Flat counters for metrics / cross-process result payloads."""
        by_kind: dict[str, float] = defaultdict(float)
        for fault in self.fired:
            by_kind[f"faults_{fault.kind}"] += 1
        return {
            "faults_fired": float(len(self.fired)),
            "dropped_batches": float(self.dropped_batches),
            "dropped_tuples": float(self.dropped_tuples),
            **by_kind,
        }

    def fired_descriptions(self) -> list[str]:
        return [fault.describe() for fault in self.fired]


def merge_fault_summaries(
    *summaries: "dict[str, float] | None",
) -> dict[str, float]:
    """Fold per-worker fault summaries into one (missing entries skipped)."""
    merged: dict[str, float] = defaultdict(float)
    for summary in summaries:
        if not summary:
            continue
        for key, value in summary.items():
            merged[key] += value
    return dict(merged)
