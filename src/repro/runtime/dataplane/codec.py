"""Compact binary codec for sealed jumbo batches.

The pickle channel serializes every sealed batch with ``pickle.dumps`` on
a list of :class:`~repro.dsps.tuples.StreamTuple` dataclasses — a generic
object-graph walk that re-discovers, per batch, structure that is fixed
per edge: every tuple in a batch shares one producer task, (almost
always) one stream name, and one field layout.  This codec exploits that:
a batch is encoded as **struct-packed columns** under a single shared
header, with the per-edge field layout (the *schema*) resolved once — from
the topology's declared fields when the producing operator publishes
``declared_fields``, or inferred from the first batch otherwise — and
cached per ``(producer, consumer)`` edge.

Wire format (little-endian)::

    byte 0            magic: 0 = pickled payload follows, 1 = columnar
    -- columnar only --
    u32               n (tuple count)
    i64               source_task (shared by the whole batch)
    u16 + bytes       stream name (utf-8)
    u8  + bytes       arity + one typecode per field
    n x f64           event_time_ns column
    per field column:
      'q' int64 / 'd' float64 / '?' bool   n fixed-size values
      's' str / 'y' bytes                  n x u32 lengths, then the blobs
      'D' dict str                         delta page, then n x i32 codes

A "D" (dictionary-encoded string) column carries its decode-table *delta
page* in-band, ahead of the codes that reference it::

    u32               base (producer table size before this page)
    u32               n_new (entries appended by this page)
    n_new x (u32+b)   utf-8 entry blobs, length-prefixed
    n x i32           codes into the table

The consumer mirrors the decode table per ``(edge, column)``: a page
whose ``base`` is below the mirror size re-delivers known entries (a
no-op — entries are immutable and append-only), one above it is a FIFO
violation and raises.  Both sides of an edge live on codec instances
created inside the worker processes, so a Supervisor retry or a new
epoch slice resets producer dictionary and consumer mirror in lockstep —
dictionary state can never leak across restart boundaries, keeping
retried deliveries exactly-once.

Promotion from "s" to "D" is *adaptive* and per ``(edge, column)`` (see
:data:`STRING_DICT_MODES`): columns start raw, promote when the observed
distinct/total cardinality ratio crosses the threshold (or immediately
when the producing kernel already hands over a
:class:`~repro.runtime.dataplane.columns.DictColumn`), and demote — with
a counted metric — if the dictionary blows past the entry cap.  Every
payload is self-describing, so the consumer needs no mode agreement.

Field typecodes are exact-type checked on encode (``True`` is *not* an
int64, ``1`` is *not* a float64) so a decoded batch is value- and
type-identical to its input.  Any mismatch — ragged arity, mixed streams,
``None`` fields, exotic types, out-of-range ints, unencodable strings —
falls back to pickle protocol 5 for that batch (magic byte 0) and is
counted in :attr:`BatchCodec.fallback_batches` — exactly once per sealed
batch, regardless of how many tuples it carries; correctness never
depends on the schema being right.

The columnar wire layout doubles as the in-memory layout of
:class:`~repro.runtime.dataplane.columns.ColumnBatch`, and the format is
written out once: :meth:`BatchCodec.encode_columns` is the encoder and
:meth:`BatchCodec.decode_columns` the decoder (fixed-width columns come
back as zero-copy numpy views over the payload).  The row entry points
are a transpose on either side of them — :meth:`BatchCodec.encode` is
``ColumnBatch.from_tuples`` (the one acceptance rule) in front of the
encoder, :meth:`BatchCodec.decode` is ``to_tuples`` behind the decoder —
so either end of an edge can pick rows or columns independently.
"""

from __future__ import annotations

import pickle
import struct
import sys
from itertools import accumulate
from typing import Mapping

import numpy as np

from repro.dsps.tuples import StreamTuple
from repro.runtime.dataplane.columns import (  # noqa: F401  (re-exports)
    COLUMN_DTYPES,
    DICT_TYPECODE,
    FIELD_TYPECODES,
    ColumnBatch,
    DictColumn,
    StringTable,
    infer_schema,
    validate_schema,
)

_MAGIC_PICKLE = 0
_MAGIC_COLUMNAR = 1

_HEADER = struct.Struct("<IqH")  # n, source_task, stream length

#: String-dictionary modes of a codec.  "auto" — what the shm plane
#: always runs — promotes per (edge, column) once the observed
#: repetition proves worthwhile (at first sight with
#: ``dict_min_observed=0, dict_max_ratio=1.0``), "off" never
#: dictionary-encodes.  Decoding understands "D" payloads in both — the
#: wire is self-describing.
STRING_DICT_MODES = ("auto", "off")

#: Auto mode decides once per (edge, column): on the first batch that
#: carries the running observation count past this many strings, the
#: column promotes iff distinct/observed <= DICT_PROMOTE_MAX_RATIO and
#: is otherwise rejected (stays raw "s" for the codec's lifetime).
DICT_PROMOTE_MIN_OBSERVED = 256
DICT_PROMOTE_MAX_RATIO = 0.5

#: Hard cap on dictionary entries.  A promoted column whose table blows
#: the cap demotes back to raw "s" (counted in ``dict_demotions``); a
#: raw column whose distinct sample blows it is rejected before ever
#: promoting (no metric — nothing was ever encoded as dict).
DICT_MAX_ENTRIES = 1 << 16


class _ColumnDict:
    """Producer-side dictionary state for one ``(edge, column)``."""

    __slots__ = (
        "status",
        "codes",
        "table",
        "shipped",
        "observed",
        "seen",
        "xlate_table",
        "xlate_map",
    )

    def __init__(self) -> None:
        self.status = "raw"  # raw -> dict -> demoted, or raw -> rejected
        self.codes: dict[str, int] | None = None  # string -> code
        self.table: list[str] | None = None  # code -> string
        self.shipped = 0  # table entries already delivered in-band
        self.observed = 0  # strings sampled while raw
        self.seen: set[str] | None = None  # distinct sample while raw
        self.xlate_table: list | None = None  # kernel table (identity)
        self.xlate_map = None  # <i4 array: kernel code -> edge code


class BatchCodec:
    """Per-edge schema-cached batch encoder/decoder.

    One instance lives on each end of a channel; the schema cache is
    keyed by ``(producer_task, consumer_task)`` and seeded from the
    lowering's declared edge schemas.  A cached value of ``None`` marks
    an edge whose tuples proved un-columnar (so later batches skip the
    inference attempt and go straight to the pickle fallback).
    """

    def __init__(
        self,
        edge_schemas: Mapping[tuple[int, int], str] | None = None,
        *,
        string_dict: str = "auto",
        dict_min_observed: int = DICT_PROMOTE_MIN_OBSERVED,
        dict_max_ratio: float = DICT_PROMOTE_MAX_RATIO,
        dict_max_entries: int = DICT_MAX_ENTRIES,
    ) -> None:
        if string_dict not in STRING_DICT_MODES:
            raise ValueError(
                f"string_dict must be one of {STRING_DICT_MODES}, "
                f"got {string_dict!r}"
            )
        self.schemas: dict[tuple[int, int], str | None] = {}
        for key, code in (edge_schemas or {}).items():
            validate_schema(code)
            self.schemas[key] = code
        self.string_dict = string_dict
        self.dict_min_observed = dict_min_observed
        self.dict_max_ratio = dict_max_ratio
        self.dict_max_entries = dict_max_entries
        self._dicts: dict[tuple, _ColumnDict] = {}  # producer side
        self._mirrors: dict[tuple, list[str]] = {}  # consumer side
        self.encoded_batches = 0
        #: Count of *sealed batches* (never tuples) that took the pickle
        #: fallback: a 500-tuple batch with one ``None`` field adds exactly
        #: 1, the same as a single-tuple batch.  Surfaced per run as the
        #: ``runtime.dataplane.codec_fallbacks`` counter.
        self.fallback_batches = 0
        #: Dictionary-encoding counters, surfaced per run as the
        #: ``runtime.dataplane.dict.*`` metrics.  ``dict_columns`` is the
        #: number of (edge, column) pairs currently encoding as dict;
        #: ``dict_bytes`` is the wire bytes spent on in-band delta pages
        #: (headers included).
        self.dict_columns = 0
        self.dict_pages = 0
        self.dict_bytes = 0
        self.dict_promotions = 0
        self.dict_demotions = 0

    # ------------------------------------------------------------------
    # String dictionaries (producer side)
    # ------------------------------------------------------------------
    def _dict_state(
        self,
        edge: tuple[int, int],
        col_index: int,
        values,
        *,
        kernel_dict: bool = False,
    ) -> _ColumnDict | None:
        """Promoted per-(edge, column) dictionary to encode with, or
        ``None`` to stay raw.

        ``values`` is only sampled while the column is raw;
        ``kernel_dict`` marks a column the producing kernel already hands
        over as a :class:`DictColumn`, which promotes immediately (the
        repetition decision was effectively made upstream).
        """
        if self.string_dict == "off":
            return None
        key = (edge, col_index)
        state = self._dicts.get(key)
        if state is None:
            state = self._dicts[key] = _ColumnDict()
        if state.status == "dict":
            return state
        if state.status != "raw":  # demoted / rejected: raw for good
            return None
        if kernel_dict:
            self._promote(state)
            return state
        state.observed += len(values)
        seen = state.seen
        if seen is None:
            seen = state.seen = set()
        seen.update(values)
        if len(seen) > self.dict_max_entries:
            state.status = "rejected"
            state.seen = None
            return None
        if state.observed >= self.dict_min_observed:
            if len(seen) <= state.observed * self.dict_max_ratio:
                self._promote(state)
                return state
            state.status = "rejected"
            state.seen = None
        return None

    def _promote(self, state: _ColumnDict) -> None:
        state.status = "dict"
        state.codes = {}
        state.table = []
        state.shipped = 0
        state.seen = None
        self.dict_columns += 1
        self.dict_promotions += 1

    def _demote(self, state: _ColumnDict) -> None:
        state.status = "demoted"
        state.codes = None
        state.table = None
        state.xlate_table = None
        state.xlate_map = None
        self.dict_columns -= 1
        self.dict_demotions += 1

    def _dict_codes(
        self, state: _ColumnDict, values
    ) -> list[int] | None:
        """Append-assign codes for ``values``.

        Returns ``None`` when an entry cannot be dictionary-encoded (new
        entries of this call are rolled back, state intact for future
        batches) or when the table blew the entry cap (column demoted).
        """
        codes = state.codes
        table = state.table
        pre = len(table)
        lookup = codes.get
        out = []
        try:
            for value in values:
                code = lookup(value)
                if code is None:
                    # Validate now: page emission must never fail after
                    # an entry is in the table, or the column would wedge.
                    value.encode("utf-8")
                    code = len(table)
                    codes[value] = code
                    table.append(value)
                out.append(code)
        except (AttributeError, TypeError, UnicodeEncodeError):
            for entry in table[pre:]:
                del codes[entry]
            del table[pre:]
            return None
        if len(table) > self.dict_max_entries:
            self._demote(state)
            return None
        return out

    def _dict_page(self, state: _ColumnDict):
        """Wire parts for the pending delta page ``table[shipped:]``.

        Pure: returns ``(parts, n_new, new_table_len, page_bytes)`` and
        mutates nothing — the caller advances ``state.shipped`` (and the
        page counters) only after the whole payload assembled, so a batch
        that falls back to pickle re-ships the same entries next time.
        """
        table = state.table
        base = state.shipped
        entries = table[base:]
        parts = [struct.pack("<II", base, len(entries))]
        nbytes = 8
        for entry in entries:
            blob = entry.encode("utf-8")
            parts.append(struct.pack("<I", len(blob)))
            parts.append(blob)
            nbytes += 4 + len(blob)
        return parts, len(entries), len(table), nbytes

    def _xlate(self, state: _ColumnDict, column: DictColumn):
        """Edge codes (``<i4`` array) for a kernel-produced
        :class:`DictColumn`, or ``None`` when the shared edge dictionary
        demoted or an entry proved unencodable.

        Kernel tables are append-only, so the kernel-code -> edge-code
        map only ever extends; a *different* table object (fresh operator
        state after a restart) rebuilds the map from scratch while
        already-shipped edge entries keep their codes.
        """
        table = column.table
        if state.xlate_table is not table:
            state.xlate_table = table
            state.xlate_map = np.empty(0, dtype="<i4")
        known = len(state.xlate_map)
        if len(table) > known:
            mapped = self._dict_codes(state, table[known:])
            if mapped is None:
                state.xlate_table = None
                state.xlate_map = None
                return None
            state.xlate_map = np.concatenate(
                [state.xlate_map, np.asarray(mapped, dtype="<i4")]
            )
        return state.xlate_map[column.codes]

    # ------------------------------------------------------------------
    # String dictionaries (consumer side)
    # ------------------------------------------------------------------
    def _apply_page(
        self, payload: bytes, offset: int, edge, col_index: int
    ):
        """Apply one in-band delta page to the consumer-side mirror for
        ``(edge, col_index)``; returns ``(new_offset, decode_table)``.

        Idempotent under re-delivery: entries below the mirror size are
        skipped (they are immutable and append-only), so a Supervisor
        retry that replays an epoch through fresh codecs — or a page
        re-shipped after a pickle-fallback batch — never double-applies.
        A page starting *above* the mirror size means an entry was lost
        in transit, which the FIFO per-edge rings make impossible short
        of a bug, so it raises rather than decode garbage.
        """
        key = (edge, col_index)
        mirror = self._mirrors.get(key)
        if mirror is None:
            mirror = self._mirrors[key] = StringTable()
        base, n_new = struct.unpack_from("<II", payload, offset)
        offset += 8
        size = len(mirror)
        if base > size:
            raise ValueError(
                f"dictionary page gap on edge {edge} column {col_index}: "
                f"page base {base} but mirror holds {size} entries"
            )
        for j in range(n_new):
            (length,) = struct.unpack_from("<I", payload, offset)
            offset += 4
            if base + j >= size:
                # sys.intern: one str object per distinct value per edge,
                # shared by scalar fall-through, sinks and every batch
                # that references it — instead of a fresh allocation per
                # occurrence per batch.
                mirror.append(
                    sys.intern(
                        payload[offset : offset + length].decode("utf-8")
                    )
                )
            offset += length
        return offset, mirror

    # ------------------------------------------------------------------
    # Encode
    # ------------------------------------------------------------------
    def encode(
        self, edge: tuple[int, int], tuples: list[StreamTuple]
    ) -> bytes:
        """Serialize a sealed batch for ``edge``; never raises on content.

        A row batch is a transpose in front of :meth:`encode_columns`:
        :meth:`ColumnBatch.from_tuples` is the one acceptance rule, and a
        batch it declines is the pickle fallback.
        """
        if not tuples:
            self.encoded_batches += 1
            return bytes([_MAGIC_COLUMNAR]) + _HEADER.pack(0, 0, 0) + b"\x00"
        schema = self.schemas.get(edge)
        if schema is None and edge not in self.schemas:
            schema = self.schemas[edge] = infer_schema(tuples[0].values)
        if schema is not None:
            batch = ColumnBatch.from_tuples(tuples, schema)
            if batch is not None:
                return self.encode_columns(edge, batch)
        return self._pickled(tuples)

    def _pickled(self, tuples: list[StreamTuple]) -> bytes:
        self.fallback_batches += 1  # one per batch, never per tuple
        return bytes([_MAGIC_PICKLE]) + pickle.dumps(tuples, protocol=5)

    def encode_columns(
        self, edge: tuple[int, int], batch: ColumnBatch
    ) -> bytes:
        """Serialize a :class:`ColumnBatch` for ``edge`` — the one
        encoder; the receiving end decodes the payload with either
        :meth:`decode` or :meth:`decode_columns`, whichever its consumer
        wants.  Content the wire format cannot hold falls back to pickled
        tuples and counts one :attr:`fallback_batches` increment.
        """
        try:
            n = len(batch)
            stream_bytes = batch.stream.encode("utf-8")
            schema = batch.schema
            wire_schema = list(schema)
            commits: list = []  # dict-page state, applied only on success
            body: list[bytes] = []
            for index, code in enumerate(schema):
                column = batch.columns[index]
                if code in COLUMN_DTYPES:
                    body.append(
                        column.astype(COLUMN_DTYPES[code], copy=False)
                        .tobytes()
                    )
                    continue
                if code == "y":
                    blobs = column
                else:  # "s", or a kernel's "D" (promoted at first sight)
                    coded = code == DICT_TYPECODE
                    state = self._dict_state(
                        edge, index, column, kernel_dict=coded
                    )
                    codes = None
                    if state is not None:
                        codes = (
                            self._xlate(state, column)
                            if coded
                            else self._dict_codes(state, column)
                        )
                    if codes is not None:
                        page, n_new, new_len, nbytes = self._dict_page(
                            state
                        )
                        body.extend(page)
                        body.append(np.asarray(codes, dtype="<i4").tobytes())
                        wire_schema[index] = DICT_TYPECODE
                        commits.append((state, new_len, n_new, nbytes))
                        continue
                    # Dict off, not promoted or demoted: raw strings.
                    wire_schema[index] = "s"
                    blobs = [v.encode("utf-8") for v in column]
                body.append(struct.pack(f"<{n}I", *map(len, blobs)))
                body.append(b"".join(blobs))
            payload = b"".join(
                [
                    bytes([_MAGIC_COLUMNAR]),
                    _HEADER.pack(n, batch.source_task, len(stream_bytes)),
                    stream_bytes,
                    bytes([len(schema)]),
                    "".join(wire_schema).encode("ascii"),
                    batch.event_times.astype("<f8", copy=False).tobytes(),
                    *body,
                ]
            )
        except (struct.error, OverflowError, UnicodeEncodeError, TypeError,
                ValueError, AttributeError):
            # Surrogate strings, non-bytes blobs, an unstamped batch.
            return self._pickled(batch.to_tuples())
        self.encoded_batches += 1
        # Only now is the payload guaranteed to ship: advance the shipped
        # watermark and account the page bytes.  Entries left unshipped by
        # a failed batch ride the next successful page instead.
        for state, new_len, n_new, nbytes in commits:
            state.shipped = new_len
            if n_new:
                self.dict_pages += 1
            self.dict_bytes += nbytes
        return payload

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------
    def decode(
        self, payload: bytes, edge: tuple[int, int] | None = None
    ) -> list[StreamTuple]:
        """Inverse of :meth:`encode`: payload bytes back to tuples.

        ``edge`` keys the consumer-side dictionary mirrors; a codec
        decoding more than one edge must pass it so "D" columns of
        different edges cannot collide.
        """
        if payload[0] == _MAGIC_PICKLE:
            return pickle.loads(payload[1:])
        batch = self.decode_columns(payload, edge)
        return [] if batch is None else batch.to_tuples()

    def decode_columns(
        self, payload: bytes, edge: tuple[int, int] | None = None
    ) -> ColumnBatch | None:
        """Decode a columnar payload into a :class:`ColumnBatch` — the
        one decoder — or ``None`` when the payload is a pickle fallback
        or empty (callers then use :meth:`decode`).

        Fixed-width columns ("q"/"d"/"?") and the event-time column are
        **zero-copy, read-only** ``np.frombuffer`` views over ``payload``;
        "D" columns are zero-copy ``<i4`` code views wrapped in a
        :class:`DictColumn` sharing the per-``(edge, column)`` mirror
        table; variable-length columns materialize Python lists.
        """
        if payload[0] == _MAGIC_PICKLE:
            return None
        n, source, stream_len = _HEADER.unpack_from(payload, 1)
        if n == 0:
            return None
        offset = 1 + _HEADER.size
        stream = payload[offset : offset + stream_len].decode("utf-8")
        offset += stream_len
        arity = payload[offset]
        offset += 1
        schema = payload[offset : offset + arity].decode("ascii")
        offset += arity
        times = np.frombuffer(payload, dtype="<f8", count=n, offset=offset)
        offset += 8 * n
        columns: list = []
        for index, code in enumerate(schema):
            dtype = COLUMN_DTYPES.get(code)
            if dtype is not None:
                column = np.frombuffer(
                    payload, dtype=dtype, count=n, offset=offset
                )
                offset += column.itemsize * n
                columns.append(column)
            elif code == DICT_TYPECODE:
                offset, table = self._apply_page(payload, offset, edge, index)
                codes = np.frombuffer(
                    payload, dtype="<i4", count=n, offset=offset
                )
                offset += 4 * n
                columns.append(DictColumn(codes, table))
            else:
                lengths = struct.unpack_from(f"<{n}I", payload, offset)
                offset += 4 * n
                ends = list(accumulate(lengths, initial=offset))
                offset = ends[-1]
                spans = zip(ends, ends[1:])
                if code == "s":
                    columns.append(
                        [payload[a:b].decode("utf-8") for a, b in spans]
                    )
                else:
                    columns.append([payload[a:b] for a, b in spans])
        return ColumnBatch(stream, source, schema, times, columns)
