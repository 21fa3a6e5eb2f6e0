"""Plan-aware runtime operator fusion.

:mod:`repro.core.fusion` models fusion as a *topology rewrite* — useful
for the optimizer's what-if algebra, but a rewrite renames components,
collapses task ids and therefore breaks everything keyed by them
(per-task stats, epoch checkpoints, live migration).  The runtime takes
the other road: fusion is **metadata on the lowered spec**.  A fused
chain is a sequence of task ids whose intra-chain edges are executed
inline by the chain *head* — the intermediate tuples (or columnar
batches) never hit a queue, never pay header/codec costs, and never
leave the producing worker — while every constituent keeps its own
operator instance, its own :class:`TaskStats`, and its own snapshot
under epoch barriers.  Results are bit-identical to the unfused run:
a linear chain preserves per-tuple FIFO order, and the columnar kernel
contract (bit-identical to the scalar path per batch) makes kernel
outputs independent of batch boundaries.

Eligibility mirrors :func:`repro.core.fusion._exclusive_edge`, applied
at task granularity: the producer task's only out-edge is the fused
edge, the consumer task's only in-edge is that same edge (which implies
both components run a single replica), the producer is not a spout, the
consumer is not a sink — and, because fusion's whole point is erasing
the queue *and* the potential remote hop, both endpoints must land on
the same socket of the deployed placement.

Modes (``--fuse``):

``off``
    No chains; the spec runs exactly as lowered.
``auto``
    Fuse every eligible same-socket edge; edges that cross sockets are
    silently skipped.  When operator profiles and a machine model are
    available (the CLI passes them), each candidate must additionally
    clear :func:`repro.core.fusion.fusion_candidates`' benefit-ratio bar
    against the RLAS cost model.

:func:`refit_fusion` re-derives chains for a migrated spec so live
replans (:mod:`repro.runtime.reconfigure`) respect fusion: a chain whose
members drift onto different sockets dissolves back into queued edges at
the barrier, and newly co-located pairs fuse.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import TYPE_CHECKING, Mapping

from repro.errors import PlanError
from repro.runtime.lowering import RuntimeSpec, TaskRuntime

if TYPE_CHECKING:
    from repro.core.profiles import ProfileSet, SystemProfile

#: Valid ``--fuse`` modes, in documentation order.
FUSE_MODES = ("auto", "off")

#: Benefit-ratio bar a candidate must clear under ``auto`` when a cost
#: model is available; matches :func:`repro.core.fusion.auto_fuse`.
DEFAULT_MIN_BENEFIT = 0.15


def validate_fuse(mode: str) -> str:
    """Validate and return a ``--fuse`` mode name."""
    if mode not in FUSE_MODES:
        raise PlanError(
            f"unknown fuse mode {mode!r}; expected one of {', '.join(FUSE_MODES)}"
        )
    return mode


@dataclass(frozen=True)
class FusionConfig:
    """How to derive fused chains for a lowered spec.

    ``profiles``/``machine`` are optional: with both present, ``auto``
    applies the cost model's profitability test; without them it fuses
    every structurally eligible same-socket edge (the right default for
    unprofiled engine runs, where eliminating the queue is always a win
    on a single box).
    """

    mode: str = "auto"
    min_benefit: float = DEFAULT_MIN_BENEFIT
    profiles: "ProfileSet | None" = None
    machine: object | None = None
    system: "SystemProfile | None" = None

    def __post_init__(self) -> None:
        validate_fuse(self.mode)
        if self.min_benefit < 0:
            raise PlanError("min_benefit must be >= 0")


def as_fusion_config(fuse: "str | FusionConfig | None") -> FusionConfig:
    """Coerce the engine's ``fuse`` argument to a :class:`FusionConfig`.

    ``None`` means fusion off (the backwards-compatible engine default);
    a bare string selects a mode with no cost model attached.
    """
    if fuse is None:
        return FusionConfig(mode="off")
    if isinstance(fuse, FusionConfig):
        return fuse
    return FusionConfig(mode=validate_fuse(fuse))


def _socket_of(rt: TaskRuntime) -> int:
    """Placement socket, treating unplaced tasks as socket 0 (the same
    convention as :meth:`RuntimeSpec.socket_groups`)."""
    return rt.socket if rt.socket is not None else 0


def _eligible_pairs(spec: RuntimeSpec) -> list[tuple[TaskRuntime, TaskRuntime]]:
    """Structurally fusible (producer, consumer) task pairs, ignoring
    placement: exclusive 1:1 task edge, producer not a spout, consumer
    not a sink."""
    by_id = {rt.task_id: rt for rt in spec.tasks}
    pairs = []
    for rt in spec.tasks:
        if rt.is_spout or len(rt.out_edges) != 1:
            continue
        consumer = by_id[rt.out_edges[0].consumer]
        if consumer.is_sink or len(consumer.in_edges) != 1:
            continue
        pairs.append((rt, consumer))
    return pairs


def _benefit_ratios(
    spec: RuntimeSpec, config: FusionConfig
) -> Mapping[tuple[str, str], float] | None:
    """Component-pair benefit ratios from the RLAS cost model, or ``None``
    when no model was supplied (structural fusion only)."""
    if config.profiles is None or config.machine is None:
        return None
    # Imported lazily: repro.core pulls in the whole optimizer stack, and
    # the runtime package must stay importable without it mid-bootstrap.
    from repro.core.fusion import fusion_candidates
    from repro.core.model import BRISKSTREAM

    candidates = fusion_candidates(
        spec.topology,
        config.profiles,
        config.machine,
        config.system if config.system is not None else BRISKSTREAM,
    )
    return {(c.producer, c.consumer): c.benefit_ratio for c in candidates}


def plan_fusion(spec: RuntimeSpec, config: FusionConfig) -> RuntimeSpec:
    """Derive fused chains for ``spec`` under ``config``.

    Returns a new spec carrying :attr:`RuntimeSpec.fusion` (chains of
    task ids, head first) and :attr:`RuntimeSpec.fuse_mode`.  The task
    table, edges and queue capacities are untouched — eliminated edges
    keep their (idle) queues so a later :func:`refit_fusion` can revive
    them without re-lowering.
    """
    if config.mode == "off":
        return dc_replace(spec, fusion=(), fuse_mode="off")

    ratios = _benefit_ratios(spec, config)
    chosen: dict[int, int] = {}  # producer task id -> consumer task id
    for producer, consumer in _eligible_pairs(spec):
        if _socket_of(producer) != _socket_of(consumer):
            continue
        if ratios is not None:
            ratio = ratios.get((producer.component, consumer.component))
            if ratio is None or ratio < config.min_benefit:
                continue
        chosen[producer.task_id] = consumer.task_id

    # Union consecutive pairs into maximal chains, head first.
    tails = set(chosen.values())
    chains = []
    for head in (tid for tid in chosen if tid not in tails):
        chain = [head]
        while chain[-1] in chosen:
            chain.append(chosen[chain[-1]])
        chains.append(tuple(chain))
    chains.sort(key=lambda chain: chain[0])
    return dc_replace(spec, fusion=tuple(chains), fuse_mode=config.mode)


def refit_fusion(spec: RuntimeSpec) -> RuntimeSpec:
    """Re-derive fused chains after a placement change (live migration).

    Structural-only: there is no cost model mid-run.
    """
    if spec.fuse_mode == "off":
        return spec
    return plan_fusion(spec, FusionConfig(mode="auto"))


def with_sockets(
    spec: RuntimeSpec, sockets: Mapping[int, int | None]
) -> RuntimeSpec:
    """``spec`` re-placed: each task on ``sockets[task id]`` (a task not
    named keeps its socket) with the fused chains re-derived — a chain
    the move split dissolves back into its queued edges, newly
    co-located pairs fuse.  The one way a running spec changes sockets:
    a live migration and a degraded re-plan both come through here."""
    tasks = tuple(
        dc_replace(rt, socket=sockets.get(rt.task_id, rt.socket))
        for rt in spec.tasks
    )
    return refit_fusion(dc_replace(spec, tasks=tasks))


def chain_map(spec: RuntimeSpec) -> dict[int, tuple[int, ...]]:
    """Chain-head task id -> full chain (including the head)."""
    return {chain[0]: chain for chain in spec.fusion}
