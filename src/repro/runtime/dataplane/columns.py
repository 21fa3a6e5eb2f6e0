"""Columnar batch views for vectorized operator kernels.

PR 5 moved sealed batches through shared memory as struct-packed columns,
but both executors immediately *burst* every batch back into per-tuple
Python calls — the transport got cheaper while the compute stayed scalar.
This module keeps a sealed batch columnar all the way to the operator: a
:class:`ColumnBatch` wraps one column per field (numpy arrays for the
fixed-width typecodes, plain lists for strings/bytes) so an operator that
implements ``process_columns`` can run one numpy kernel per batch instead
of one Python call per tuple.

Dtype negotiation follows the codec's per-edge schema: typecodes with an
entry in :data:`COLUMN_DTYPES` ("q"/"d"/"?") decode into **zero-copy**
``np.frombuffer`` views over the wire payload (read-only, backed by the
bytes the shm ring handed over); variable-length typecodes ("s"/"y") have
no fixed stride and always materialize Python lists.  Batches built from
tuples on the producer side (:meth:`ColumnBatch.from_tuples`) are copies
by construction and therefore writable.

A ``ColumnBatch`` is intentionally *permissive about provenance* and
*strict about content*: any content that the codec would refuse (ragged
arity, mixed streams, ``None`` fields, bool-vs-int confusion,
out-of-range ints) makes ``from_tuples`` return ``None``, which the
executors count as ``runtime.vectorized.fallbacks`` and route through the
scalar path instead.  Correctness never depends on a batch qualifying.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.dsps.tuples import StreamTuple

if TYPE_CHECKING:  # pragma: no cover
    import numpy.typing as npt

#: Typecodes an operator may declare (shared with the wire format).
FIELD_TYPECODES = "qd?sy"

#: Dictionary-encoded string column: ``<i4`` codes into a per-edge decode
#: table.  Never *declared* by operators ("s" columns are promoted to "D"
#: adaptively by the codec, or produced by kernels emitting a
#: :class:`DictColumn`); batch schemas may carry it, declared edge
#: schemas may not.  (The issue's natural name "d" is taken by float64.)
DICT_TYPECODE = "D"

#: Typecodes a batch schema may carry (declared codes + dict columns).
BATCH_TYPECODES = FIELD_TYPECODES + DICT_TYPECODE

#: Vectorized execution modes accepted by backends and the CLI:
#: ``auto`` uses a columnar kernel where operator and schema allow and
#: falls through per batch otherwise, ``off`` disables columnar dispatch
#: entirely.
VECTORIZED_MODES = ("auto", "off")

#: Dtype negotiation table: wire typecode -> numpy dtype for the
#: fixed-width columns that support zero-copy views.  Variable-length
#: typecodes ("s", "y") are absent on purpose — they decode to lists.
COLUMN_DTYPES = {"q": "<i8", "d": "<f8", "?": "|b1"}

#: :data:`COLUMN_DTYPES` as numpy dtypes, to recognise a canonical column.
_NUMPY_DTYPES = {code: np.dtype(dtype) for code, dtype in COLUMN_DTYPES.items()}

#: The exact Python type a field of each declared typecode holds.
_FIELD_TYPES = {"q": int, "d": float, "?": bool, "s": str, "y": bytes}

#: Mirrors ``repro.dsps.tuples._payload_bytes_uncached`` for the scalar
#: types a columnar batch can hold; ``tests/test_dataplane_columns.py``
#: asserts the two stay in sync.
_FIXED_PAYLOAD_BYTES = {"q": 28, "d": 24, "?": 16}


@lru_cache(maxsize=256)
def validate_schema(code: str, *, allow_dict: bool = False) -> None:
    """Raise ``ValueError`` unless ``code`` is a valid typecode string.

    ``allow_dict`` admits the "D" (dictionary-encoded string) typecode,
    which batch schemas may carry but declared edge schemas may not —
    promotion to dictionary encoding is the codec's adaptive decision,
    never an operator declaration.

    Memoized per string (every kernel output is built through it, from a
    handful of schemas); a raise is not cached, so a bad schema raises
    every time.
    """
    if not code:
        raise ValueError("schema must declare at least one field")
    allowed = BATCH_TYPECODES if allow_dict else FIELD_TYPECODES
    bad = set(code) - set(allowed)
    if bad:
        raise ValueError(
            f"invalid field typecode(s) {sorted(bad)} in schema {code!r}; "
            f"expected characters from {allowed!r}"
        )


def schema_accepts(accepted, schema: str) -> bool:
    """Schema negotiation for kernel dispatch and fused-chain hand-offs.

    ``accepted`` is an operator's ``column_schemas`` (``None`` = any).
    A batch schema matches a declared schema positionally, with a "D"
    (dictionary-encoded string) column satisfying an "s" declaration:
    a :class:`DictColumn` is list-like over the same strings, so every
    kernel written against "s" input works unchanged on the coded form.
    """
    if accepted is None:
        return True
    if schema in accepted:
        return True
    if DICT_TYPECODE not in schema:
        return False
    return schema.replace(DICT_TYPECODE, "s") in accepted


def infer_schema(values: tuple) -> str | None:
    """Typecode string of one value tuple, or None when not encodable."""
    codes = []
    for value in values:
        t = type(value)
        if t is bool:
            codes.append("?")
        elif t is int:
            codes.append("q")
        elif t is float:
            codes.append("d")
        elif t is str:
            codes.append("s")
        elif t is bytes:
            codes.append("y")
        else:
            return None
    return "".join(codes)


def schema_dtypes(schema: str) -> tuple:
    """Negotiated numpy dtype per field; ``None`` marks a list column."""
    return tuple(COLUMN_DTYPES.get(code) for code in schema)


def take(column, index):
    """Gather ``column`` rows at ``index`` for array *and* list columns."""
    if isinstance(column, list):
        return [column[i] for i in index]
    return column[index]


class StringTable(list):
    """An append-only ``list[str]`` decode table that keeps its strings'
    lengths beside it: :meth:`lengths` measures only the entries appended
    since it was last asked, so byte accounting over a
    :class:`DictColumn` costs its rows, not its vocabulary."""

    #: Lengths of the entries measured so far (replaced, never written
    #: to: an instance that was never asked shares the class's).
    _lengths = np.empty(0, dtype="<i8")

    def lengths(self) -> "npt.NDArray":
        """``len()`` of every entry, as an ``<i8`` array."""
        known = len(self._lengths)
        if known < len(self):
            fresh = np.fromiter(
                map(len, islice(self, known, None)),
                dtype="<i8",
                count=len(self) - known,
            )
            self._lengths = np.concatenate((self._lengths, fresh))
        return self._lengths


class DictColumn:
    """A dictionary-encoded string column: ``<i4`` codes + a shared table.

    The decode ``table`` is an append-only ``list[str]`` (a
    :class:`StringTable` where the runtime builds it) shared by every
    batch of one edge (consumer side: the codec's per-edge mirror, grown
    by in-band delta pages; producer side: a kernel's own vocabulary).
    ``codes`` index into it.  The view is read-only by contract — kernels
    must treat both parts as immutable, like every wire-decoded column.

    A ``DictColumn`` is deliberately list-like over the decoded strings
    (``len``/iteration/indexing/slicing/``tolist``), so generic code
    written against "s" columns works unchanged; kernels that understand
    codes (`isinstance(column, DictColumn)`) operate on the ``codes``
    array directly and never materialize Python strings.
    """

    __slots__ = ("codes", "table")

    def __init__(self, codes, table: list) -> None:
        self.codes = np.asarray(codes, dtype="<i4")
        self.table = table

    def __len__(self) -> int:
        return len(self.codes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DictColumn(rows={len(self.codes)}, table={len(self.table)})"

    def __getitem__(self, item):
        """Int -> decoded string; slice/fancy index -> coded sub-column."""
        if isinstance(item, (int, np.integer)):
            return self.table[self.codes[item]]
        if isinstance(item, slice):
            return DictColumn(self.codes[item], self.table)
        return DictColumn(self.codes[np.asarray(item)], self.table)

    def __iter__(self):
        return iter(self.tolist())

    def tolist(self) -> list:
        """Decoded strings, sharing the table's (interned) objects."""
        table = self.table
        return [table[c] for c in self.codes.tolist()]

    #: Lossless scalar fall-through (the issue's contract name).
    as_strings = tolist

    def char_total(self) -> int:
        """Total decoded characters — "s"-equivalent byte accounting
        without materializing any string."""
        if len(self.codes) == 0:
            return 0
        table = self.table
        if isinstance(table, StringTable):
            lens = table.lengths()
        else:
            lens = np.fromiter(map(len, table), dtype="<i8", count=len(table))
        return int(lens[self.codes].sum())


class ColumnBatch:
    """One sealed batch as per-field columns.

    Attributes
    ----------
    stream:
        Output stream shared by every tuple in the batch.
    source_task:
        Producing task id shared by the whole batch (kernels leave the
        default; the executor stamps it via :meth:`stamp_from`).
    schema:
        Codec typecode string, one character per field.
    event_times:
        ``float64`` array of per-tuple event times, or ``None`` on a
        fresh kernel output (stamped by the executor from the input
        batch through :attr:`index`).
    columns:
        One entry per field: a numpy array for "q"/"d"/"?" columns, a
        Python list for "s"/"y" columns.
    index:
        Lineage map for kernel outputs: ``index[i]`` is the input row
        that produced output row ``i`` (``None`` = identity).  Drives
        event-time propagation for filters and flat-maps.
    """

    __slots__ = (
        "stream",
        "source_task",
        "schema",
        "event_times",
        "columns",
        "index",
        "_tuples",
    )

    def __init__(
        self,
        stream: str,
        source_task: int,
        schema: str,
        event_times,
        columns: list,
        index=None,
        _tuples: list[StreamTuple] | None = None,
    ) -> None:
        self.stream = stream
        self.source_task = source_task
        self.schema = schema
        self.event_times = event_times
        self.columns = columns
        self.index = index
        self._tuples = _tuples

    def __len__(self) -> int:
        if self.columns:
            return len(self.columns[0])
        # Zero-arity rows: only the event-time column knows the count.
        return 0 if self.event_times is None else len(self.event_times)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnBatch(stream={self.stream!r}, schema={self.schema!r}, "
            f"rows={len(self)})"
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_tuples(
        cls, tuples: Sequence[StreamTuple], schema: str | None = None
    ) -> "ColumnBatch | None":
        """Transpose a scalar batch into columns, or ``None`` if it does
        not qualify: uniform stream/source throughout, and rows
        :meth:`from_rows` accepts.  This is the runtime's single
        acceptance rule — the step's kernel intake and the codec's row
        encoder both go through it.  The produced columns are **copies**
        — mutating them never aliases the input tuples.
        """
        if not tuples:
            return None
        first = tuples[0]
        stream = first.stream
        source = first.source_task
        for item in tuples:
            if item.stream != stream or item.source_task != source:
                return None
        batch = cls.from_rows(
            [t.values for t in tuples],
            stream,
            source,
            [t.event_time_ns for t in tuples],
            schema,
        )
        if batch is not None:
            batch._tuples = list(tuples)
        return batch

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[tuple],
        stream: str,
        source_task: int,
        event_times,
        schema: str | None = None,
    ) -> "ColumnBatch | None":
        """Transpose value tuples that never were :class:`StreamTuple`
        rows (a spout's events), or ``None`` if they do not qualify:
        uniform arity and exact field types throughout (``schema``'s, or
        the first row's).  ``event_times`` is anything ``np.asarray``
        takes, one per row.
        """
        if not rows:
            return None
        if schema is None:
            schema = infer_schema(rows[0])
            if schema is None:
                return None
        arity = len(schema)
        if set(map(len, rows)) != {arity}:
            return None
        columns: list = []
        try:
            for code, column in zip(schema, zip(*rows)):
                if set(map(type, column)) != {_FIELD_TYPES.get(code)}:
                    return None
                dtype = COLUMN_DTYPES.get(code)
                columns.append(
                    list(column) if dtype is None else np.array(column, dtype=dtype)
                )
            event_times = np.asarray(event_times, dtype="<f8")
        except (OverflowError, TypeError, ValueError):
            # Out-of-range int64, non-float event times.
            return None
        return cls(stream, source_task, schema, event_times, columns)

    @classmethod
    def build(
        cls,
        stream: str,
        schema: str,
        columns: Sequence,
        *,
        index=None,
    ) -> "ColumnBatch":
        """Kernel-side constructor: canonicalize ``columns`` to the
        negotiated dtypes (numpy for fixed-width, list for var-length)
        and leave ``event_times``/``source_task`` for the executor to
        stamp from the input batch via :meth:`stamp_from`.
        """
        validate_schema(schema, allow_dict=True)
        if len(columns) != len(schema):
            raise ValueError(
                f"schema {schema!r} declares {len(schema)} fields but "
                f"{len(columns)} columns were given"
            )
        canonical: list = []
        actual: list[str] = []
        n = None
        for code, column in zip(schema, columns):
            # A DictColumn passed for an "s" field upgrades that position
            # to "D" in place: kernels that merely pass a string column
            # through keep it coded without being dictionary-aware.
            if code == "s" and isinstance(column, DictColumn):
                code = DICT_TYPECODE
            if code == DICT_TYPECODE:
                if not isinstance(column, DictColumn):
                    raise ValueError(
                        "schema declares a 'D' field but the column is "
                        f"{type(column).__name__}, not DictColumn"
                    )
            else:
                dtype = _NUMPY_DTYPES.get(code)
                if dtype is not None:
                    # A canonical column is kept as it is.
                    if type(column) is not np.ndarray or column.dtype != dtype:
                        column = np.asarray(column, dtype=dtype)
                elif not isinstance(column, list):
                    column = list(column)
            if n is None:
                n = len(column)
            elif len(column) != n:
                raise ValueError("ragged columns in ColumnBatch.build")
            canonical.append(column)
            actual.append(code)
        schema = "".join(actual)
        if index is not None:
            index = np.asarray(index, dtype=np.intp)
            if len(index) != n:
                raise ValueError(
                    f"lineage index has {len(index)} rows, columns have {n}"
                )
        return cls(stream, -1, schema, None, canonical, index=index)

    # ------------------------------------------------------------------
    # Executor plumbing
    # ------------------------------------------------------------------
    def stamp_from(self, parent: "ColumnBatch", source_task: int) -> None:
        """Stamp executor-owned metadata onto a kernel output batch:
        the producing task id and per-row event times pulled from the
        input batch through the lineage :attr:`index`.
        """
        self.source_task = source_task
        times = parent.event_times
        if times is None:
            raise ValueError("input batch has no event times to propagate")
        if self.index is not None:
            times = times[self.index]
        if len(times) != len(self):
            raise ValueError(
                f"kernel emitted {len(self)} rows with no lineage index; "
                f"input batch has {len(times)} rows"
            )
        self.event_times = times

    def chunks(self, size: int) -> Iterator["ColumnBatch"]:
        """Split into dispatch-sized slices (numpy views, zero copies)."""
        n = len(self)
        if n <= size:
            yield self
            return
        for start in range(0, n, size):
            yield self.select(slice(start, start + size))

    def select(self, rows: slice) -> "ColumnBatch":
        """The rows a (possibly strided) slice picks, in order: numpy
        views over the fixed-width columns, no copies."""
        return ColumnBatch(
            self.stream,
            self.source_task,
            self.schema,
            None if self.event_times is None else self.event_times[rows],
            [column[rows] for column in self.columns],
            _tuples=None if self._tuples is None else self._tuples[rows],
        )

    def joins(self, other: object) -> bool:
        """Whether ``other`` may follow this batch in one :meth:`concat`:
        a stamped batch of the same stream, source task and schema whose
        "D" columns index the *same* table object (codes of two tables
        do not mix)."""
        return (
            type(other) is ColumnBatch
            and other.stream == self.stream
            and other.source_task == self.source_task
            and other.schema == self.schema
            and self.event_times is not None
            and other.event_times is not None
            and all(
                mine.table is theirs.table
                for code, mine, theirs in zip(
                    self.schema, self.columns, other.columns
                )
                if code == DICT_TYPECODE
            )
        )

    @classmethod
    def concat(cls, batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """The rows of ``batches``, in order, as one batch — the inverse
        of :meth:`chunks`.  Every batch must :meth:`join <joins>` the
        first; the lineage :attr:`index` (spent once a batch is stamped)
        is not carried over."""
        first = batches[0]
        columns: list = []
        for position, column in enumerate(first.columns):
            parts = [batch.columns[position] for batch in batches]
            if isinstance(column, DictColumn):
                column = DictColumn(
                    np.concatenate([part.codes for part in parts]), column.table
                )
            elif isinstance(column, list):
                column = list(chain.from_iterable(parts))
            else:
                column = np.concatenate(parts)
            columns.append(column)
        return cls(
            first.stream,
            first.source_task,
            first.schema,
            np.concatenate([batch.event_times for batch in batches]),
            columns,
        )

    # ------------------------------------------------------------------
    # Scalar interop
    # ------------------------------------------------------------------
    def to_tuples(self) -> list[StreamTuple]:
        """Burst back into :class:`StreamTuple` rows.

        ``.tolist()`` on the fixed-width columns yields pure-Python
        ``int``/``float``/``bool`` values bit-identical to the originals,
        so a burst batch is indistinguishable from one that never went
        columnar.  Batches built by :meth:`from_tuples` return their
        original tuple list (do not mutate it).
        """
        if self._tuples is not None:
            return self._tuples
        n = len(self)
        cols = [
            column.tolist() if not isinstance(column, list) else column
            for column in self.columns
        ]
        times = (
            [0.0] * n if self.event_times is None else self.event_times.tolist()
        )
        rows = list(zip(*cols)) if cols else [()] * n
        stream = self.stream
        source = self.source_task
        # Hot path: bypass the frozen-dataclass __init__ (which pays one
        # object.__setattr__ per field) by writing the instance dict of a
        # bare instance directly.  Field semantics are unchanged — frozen
        # dataclasses keep a normal __dict__.
        new = StreamTuple.__new__
        out = []
        for i in range(n):
            item = new(StreamTuple)
            d = item.__dict__
            d["values"] = rows[i]
            d["stream"] = stream
            d["source_task"] = source
            d["event_time_ns"] = times[i]
            out.append(item)
        return out

    def payload_bytes(self) -> int:
        """Total payload bytes, equal to the sum of per-tuple
        ``payload_size_bytes`` over the burst rows (the vectorized path
        must feed the byte-accounting in ``TaskStats`` identically).
        """
        n = len(self)
        total = 0
        for code, column in zip(self.schema, self.columns):
            fixed = _FIXED_PAYLOAD_BYTES.get(code)
            if fixed is not None:
                total += fixed * n
            elif code == "s":
                total += 40 * n + 2 * sum(map(len, column))
            elif code == DICT_TYPECODE:
                # Accounted as the strings the codes stand for, so the
                # per-tuple model is independent of the encoding chosen.
                total += 40 * n + 2 * column.char_total()
            else:  # 'y'
                total += 33 * n + sum(map(len, column))
        return total

    # ------------------------------------------------------------------
    # Pickle support (the pickle plane ships ColumnBatch objects whole)
    # ------------------------------------------------------------------
    def __getstate__(self):
        # Drop the burst-tuple cache: shipping rows next to columns would
        # double the payload for zero information.  Dict columns decay to
        # raw string lists ("D" -> "s"): decode tables are a per-edge
        # codec affair, never shipped per batch on the pickle plane.
        schema = self.schema
        columns = self.columns
        if DICT_TYPECODE in schema:
            columns = [
                column.tolist() if isinstance(column, DictColumn) else column
                for column in columns
            ]
            schema = schema.replace(DICT_TYPECODE, "s")
        return (
            self.stream,
            self.source_task,
            schema,
            self.event_times,
            columns,
            self.index,
        )

    def __setstate__(self, state) -> None:
        (
            self.stream,
            self.source_task,
            self.schema,
            self.event_times,
            self.columns,
            self.index,
        ) = state
        self._tuples = None
