"""Pluggable data plane: batch transport + serialization for the process
backend.

Two coordinated halves (see docs/dataplane.md):

* **Transport** (:mod:`repro.runtime.dataplane.channels`) — how sealed
  jumbo batches cross worker processes: the :class:`ShmRingChannel`
  (batches and markers written once, as frames, into a shared-memory
  ring per worker pair — the paper's pass-by-reference transfer) or, by
  name or on a host without POSIX shared memory, the historical
  :class:`PickleQueueChannel` (pickled payloads through bounded
  ``mp.Queue`` inboxes).
* **Codec** (:mod:`repro.runtime.dataplane.codec`) — the compact binary
  columnar batch format the shm channel uses instead of per-batch
  pickle, with per-edge schema caching and an always-correct pickle
  protocol-5 fallback.
"""

from repro.runtime.dataplane.channels import (
    DATAPLANE_NAMES,
    DEFAULT_RING_BYTES,
    SHM_NAME_PREFIX,
    ChannelEndpoint,
    DataPlane,
    PickleDataPlane,
    PickleQueueChannel,
    ShmDataPlane,
    ShmRing,
    ShmRingChannel,
    create_dataplane,
    shm_available,
)
from repro.runtime.dataplane.codec import (
    FIELD_TYPECODES,
    STRING_DICT_MODES,
    BatchCodec,
    infer_schema,
    validate_schema,
)
from repro.runtime.dataplane.columns import (
    COLUMN_DTYPES,
    DICT_TYPECODE,
    VECTORIZED_MODES,
    ColumnBatch,
    DictColumn,
    StringTable,
    schema_accepts,
    schema_dtypes,
)

__all__ = [
    "BatchCodec",
    "COLUMN_DTYPES",
    "ChannelEndpoint",
    "ColumnBatch",
    "DATAPLANE_NAMES",
    "DEFAULT_RING_BYTES",
    "DICT_TYPECODE",
    "DataPlane",
    "DictColumn",
    "FIELD_TYPECODES",
    "STRING_DICT_MODES",
    "VECTORIZED_MODES",
    "schema_accepts",
    "schema_dtypes",
    "PickleDataPlane",
    "PickleQueueChannel",
    "SHM_NAME_PREFIX",
    "ShmDataPlane",
    "ShmRing",
    "ShmRingChannel",
    "StringTable",
    "create_dataplane",
    "infer_schema",
    "shm_available",
    "validate_schema",
]
