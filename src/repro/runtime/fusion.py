"""Runtime operator-chain fusion: two tasks on an exclusive edge in one
process are one loop.

BriskStream lets RLAS decide where operators run and has co-located
operators hand jumbo tuples over by reference (Section 5.2).  The runtime
follows the same order: placement never sees a chain, and once an
executor has fixed its task → process map, :func:`with_chains` derives
the chains that map allows.  The inline run hosts everything in one
process; the process backend derives them under the owner map its pool
forks under, again after every migration and degraded re-plan.

A chain is **metadata on the lowered spec** (:attr:`RuntimeSpec.fusion`,
task ids head first) rather than the topology rewrite of
:mod:`repro.core.fusion`: every constituent keeps its own operator
instance, :class:`TaskStats` row and snapshot under epoch barriers, so
everything keyed by task id (checkpoints, migration, per-task stats)
is unaffected.  The chain head runs the intra-chain edges inline — the
intermediate tuples or columnar batches never touch a queue or a codec
— and results are bit-identical to the unfused run: a linear chain
preserves per-tuple FIFO order, and the columnar kernel contract makes
kernel outputs independent of batch boundaries.

An edge fuses when it is the producer task's only out-edge and the
consumer task's only in-edge (so both ends run one replica), the
producer is not a spout, the consumer is not a sink, and both ends run
in one process.  Consecutive fused edges make maximal chains.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Mapping

from repro.runtime.lowering import RuntimeSpec


def with_chains(spec: RuntimeSpec, owner: Mapping[int, int]) -> RuntimeSpec:
    """``spec`` carrying the maximal chains ``owner`` (task id → process)
    allows, head first and sorted by head — a pure function of the two:
    whatever chains ``spec`` carried before are not read."""
    by_id = {rt.task_id: rt for rt in spec.tasks}
    link: dict[int, int] = {}  # producer task id -> consumer task id
    for rt in spec.tasks:
        if rt.is_spout or len(rt.out_edges) != 1:
            continue
        consumer = by_id[rt.out_edges[0].consumer]
        if consumer.is_sink or len(consumer.in_edges) != 1:
            continue
        if owner[rt.task_id] == owner[consumer.task_id]:
            link[rt.task_id] = consumer.task_id
    tails = set(link.values())
    chains = []
    for head in sorted(tid for tid in link if tid not in tails):
        chain = [head]
        while chain[-1] in link:
            chain.append(link[chain[-1]])
        chains.append(tuple(chain))
    return dc_replace(spec, fusion=tuple(chains))


def in_one_process(spec: RuntimeSpec) -> RuntimeSpec:
    """``spec`` with the chains of a run that hosts every task in one
    process: every structurally eligible edge fuses."""
    return with_chains(spec, dict.fromkeys((rt.task_id for rt in spec.tasks), 0))


@dataclass(frozen=True)
class FusionConfig:
    """The argument of :func:`plan_fusion`.  Nothing in the runtime
    builds one: there is no fusion option to configure."""

    mode: str = "auto"


def plan_fusion(spec: RuntimeSpec, config: FusionConfig) -> RuntimeSpec:
    """The whole-spec entry to the same derivation: the chains of
    ``spec`` run in one process (:func:`in_one_process`)."""
    return in_one_process(spec)
