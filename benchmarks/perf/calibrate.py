"""Calibration kernel and the statistics every reported number goes through.

The host this benchmark runs on is a small shared VM: the hypervisor
withholds CPU time from it in bursts, so its speed changes by tens of
percent over seconds and minutes (see README.md, "Noise").  Raw wall
times therefore do not repeat.  What does repeat is the *ratio* of a
measured slice to a fixed piece of work executed right next to it: both
see the same host, so its speed divides out.

``kernel()`` is that fixed piece of work.  It is single-threaded, touches
the same kinds of operations the runtime spends its time in
(``str.split``, dict counting, ``struct.pack``, ``numpy.unique``) and
owns its input, so no change to ``src/`` can alter it.  **Do not edit it
after this PR**: every later number is expressed in units of it, and a
faster kernel would read as a slower program.

A slice's calibrated time is::

    slice_wall / mean(cal_before.wall, cal_after.wall) * CAL_REF_S

i.e. "how long the slice would have taken on a host where the kernel
takes exactly ``CAL_REF_S``"; CPU time is calibrated with the kernel's
CPU time in the same way (time the hypervisor withheld is in neither,
where it is in every wall time).
"""

from __future__ import annotations

import os
import statistics
import struct
from time import perf_counter, process_time
from typing import NamedTuple

import numpy as np

#: Reference duration of ``kernel()``: the constant that turns a
#: slice/kernel ratio back into seconds.  Its value is arbitrary (close
#: to what the kernel takes on the 2-core VM this was written on) but
#: must never change, or the trajectory loses its unit.
CAL_REF_S = 0.2

_VOCAB = (
    "stream tuple batch socket core queue ring codec epoch barrier plan "
    "model fetch local remote cache line numa bound branch search scale "
    "place route shuffle field key count word split parse sink spout"
).split()
_N_SENTENCES = 2600
_PASSES = 36
_WORDS_PER_SENTENCE = 10
_PACK = struct.Struct("<qqd")


def _make_sentences() -> list[str]:
    # A 32-bit LCG, not ``random``: the input must not depend on the
    # interpreter's generator or on any seed the benchmark is given.
    state = 0x9E3779B9
    out = []
    for _ in range(_N_SENTENCES):
        words = []
        for _ in range(_WORDS_PER_SENTENCE):
            state = (state * 1664525 + 1013904223) & 0xFFFFFFFF
            words.append(_VOCAB[(state >> 16) % len(_VOCAB)])
        out.append(" ".join(words))
    return out


_SENTENCES = _make_sentences()
_CODES = {word: code for code, word in enumerate(_VOCAB)}


def kernel() -> float:
    """Run the fixed calibration workload once; return its wall seconds."""
    started = perf_counter()
    counts: dict[str, int] = {}
    get = counts.get
    pack = _PACK.pack
    packed = 0
    for _ in range(_PASSES):
        codes: list[int] = []
        for row, sentence in enumerate(_SENTENCES):
            for word in sentence.split():
                counts[word] = get(word, 0) + 1
                codes.append(_CODES[word])
            packed += len(pack(row, len(codes), float(packed)))
        arr = np.asarray(codes, dtype="<i4")
        for lo in range(0, len(arr), 1024):
            uniq, inverse = np.unique(arr[lo : lo + 1024], return_inverse=True)
            packed += int(np.bincount(inverse).sum()) + len(uniq)
    elapsed = perf_counter() - started
    # The result is consumed and checked inside the timed region's scope,
    # so no part of the work can be skipped.
    expected = _PASSES * _N_SENTENCES * _WORDS_PER_SENTENCE
    if sum(counts.values()) != expected or packed <= expected:
        raise RuntimeError("calibration kernel computed a wrong result")
    return elapsed


def calibrated(value: float, cal_before: float, cal_after: float) -> float:
    """Express ``value`` (seconds) in calibrated seconds."""
    return value / ((cal_before + cal_after) / 2.0) * CAL_REF_S


class Cal(NamedTuple):
    """One reading of the calibration kernel: its wall and CPU seconds."""

    wall: float
    cpu: float


def read_kernel() -> Cal:
    cpu0 = process_time()
    wall = kernel()
    return Cal(wall, process_time() - cpu0)


def stolen_seconds() -> float:
    """CPU seconds the hypervisor has withheld from this machine's CPUs
    while they had work to run (``steal`` in ``/proc/stat``; 0 where the
    platform does not report it)."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def summarize(values: list[float]) -> dict:
    """Median, quartiles (as ``statistics.quantiles(values, n=4)`` gives
    them), relative IQR and count of one sample."""
    if len(values) == 1:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": q2,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / q2 if q2 else 0.0,
        "n": len(values),
    }
