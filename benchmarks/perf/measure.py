"""End-to-end measurement of one workload: calibrated slices, no tracing.

A run sets up, warms up, then runs slices — each between two runs of the
calibration kernel, adjacent slices sharing one — until the workload's
floor of slices is reached *and* the next round would not fit into
``seconds``.  The floor wins over the deadline: on a slow host a run
takes longer, up to twice ``seconds``, rather than report a median of
fewer slices.  The reference run that the oracle compares against comes
*last*, so that its memory (an inline scalar run holds every queue in
one process) does not count towards the workload's ``peak_rss_mb``.
"""

from __future__ import annotations

import resource
import traceback
from time import perf_counter

from calibrate import CAL_REF_S, Cal, calibrated, read_kernel, stolen_seconds, summarize
from workloads import leaks, shm_segments

#: Share of the run spent on set-up cycles, and their number.  A cycle
#: of ``rlas_plan`` profiles two applications (~0.5 s), so its share buys
#: fewer cycles than the 20 the issue asks for; the runtime workloads get 40.
SETUP_SHARE = 0.15
SETUP_CYCLES = 40
MIN_SETUP_CYCLES = 3
#: Set-up cycles between two calibration kernels: short cycles share a
#: bracket so that calibration does not cost more than the cycles.
SETUP_GROUP_S = 0.25
MAX_SETUP_GROUP = 10

QUICK_ROUNDS = 3
#: The floor of slices yields to the clock at this multiple of ``seconds``
#: (a run must end within the driver's 180 s whatever the host does).
HARD_STOP = 2.0


def cpu_seconds() -> float:
    """User + system CPU of this process and every child it has waited for
    (``getrusage``: microseconds, where ``os.times`` counts 10 ms ticks)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def calibrated_group(steps, baseline: set[str], cal_before: Cal):
    """Run ``steps`` back to back, then the calibration kernel.

    A step is ``(call, digest)``: ``call()`` is timed (wall and CPU) and
    ``digest(outcome)`` reduces its outcome, once the clock has stopped,
    to what the caller keeps.  A step that raises, or that leaves a shm
    segment or a child process behind, is a failed step: its record lists
    the ``problems``.  Returns the records — each with the kernel readings
    on either side of the group — and the closing reading, which opens the
    next group.
    """
    records = []
    for call, digest in steps:
        stolen0 = stolen_seconds()
        cpu0 = cpu_seconds()
        started = perf_counter()
        try:
            outcome = call()
            wall = perf_counter() - started
            cpu = cpu_seconds() - cpu0
            stolen = stolen_seconds() - stolen0
            kept = digest(outcome)
            del outcome
            problems = leaks(baseline)
        except Exception:  # a step that raises is a failed step
            wall = perf_counter() - started
            cpu = stolen = kept = None
            problems = [traceback.format_exc(limit=3)]
        records.append(
            {"wall": wall, "cpu": cpu, "stolen": stolen, "kept": kept, "problems": problems}
        )
    cal_after = read_kernel()
    for record in records:
        record["cal"] = (cal_before, cal_after)
    return records, cal_after


def calibrated_wall(record: dict) -> float:
    before, after = record["cal"]
    return calibrated(record["wall"], before.wall, after.wall)


def calibrated_cpu(record: dict) -> float:
    """CPU seconds against the kernel's CPU seconds: the hypervisor's
    stolen time is in neither, where it is in every wall time."""
    before, after = record["cal"]
    return calibrated(record["cpu"], before.cpu, after.cpu)


def measure_setup(
    workload, seed: int, budget_s: float, baseline: set[str], quick: bool
) -> list[dict]:
    """Calibrated set-up cycles, short ones several to a bracket."""
    started = perf_counter()
    workload.set_up(seed)  # untimed: pays lazy imports, sizes the groups
    first = perf_counter() - started
    group = max(1, min(MAX_SETUP_GROUP, round(SETUP_GROUP_S / max(first, 1e-4))))
    per_cycle = first + CAL_REF_S / group
    cycles = max(MIN_SETUP_CYCLES, min(SETUP_CYCLES, int(budget_s / per_cycle)))
    if quick:
        cycles = group = MIN_SETUP_CYCLES
    step = (lambda: workload.set_up(seed), lambda outcome: None)
    records: list[dict] = []
    cal = read_kernel()
    while len(records) < cycles:
        done, cal = calibrated_group(
            [step] * min(group, cycles - len(records)), baseline, cal
        )
        records += done
    return records


def summaries(records: list[dict]) -> dict:
    """Calibrated and raw wall and CPU of ``records``, each summarized."""
    return {
        "calibrated_wall_s": summarize([calibrated_wall(r) for r in records]),
        "calibrated_cpu_s": summarize([calibrated_cpu(r) for r in records]),
        "raw_wall_s": summarize([r["wall"] for r in records]),
        "raw_cpu_s": summarize([r["cpu"] for r in records]),
    }


def run_end_to_end(workload, seed: int, seconds: float, quick: bool) -> dict:
    """Measure one workload; returns metrics, verdict and detail."""
    started = perf_counter()
    baseline = shm_segments()
    setup = measure_setup(workload, seed, seconds * SETUP_SHARE, baseline, quick)
    if not quick:
        workload.warm_up(seed)
    slices = run_slices(workload, seed, started, seconds, baseline, quick)
    rss = peak_rss_mb()  # before the reference run inflates it
    return verdict(workload, seed, setup, slices, rss)


def run_slices(
    workload, seed: int, started: float, seconds: float, baseline: set[str], quick: bool
) -> dict[str, list[dict]]:
    """Rounds of one calibrated slice of each kind: at least the
    workload's floor, then for as long as another fits into ``seconds``."""
    kinds = workload.kinds
    floor = QUICK_ROUNDS if quick else workload.min_rounds
    slices: dict[str, list[dict]] = {kind: [] for kind in kinds}
    steps = {
        kind: (
            lambda kind=kind: workload.run_slice(kind, seed),
            lambda outcome, kind=kind: workload.counters(kind, outcome),
        )
        for kind in kinds
    }
    rounds = 0
    loop_started = perf_counter()
    cal = read_kernel()
    while rounds < floor or not quick:
        if rounds:
            one_round = (perf_counter() - loop_started) / rounds
            sliced = sum(r["wall"] for k in kinds for r in slices[k]) / rounds
            ends = perf_counter() + one_round + workload.reference_cost(sliced) - started
            if ends > (seconds if rounds >= floor else HARD_STOP * seconds):
                break
        for kind in kinds:
            done, cal = calibrated_group([steps[kind]], baseline, cal)
            slices[kind] += done
        rounds += 1
    return slices


def verdict(
    workload, seed: int, setup: list[dict], slices: dict[str, list[dict]], rss: float
) -> dict:
    """Check every slice against the reference run, then reduce the good
    ones to the metrics."""
    kinds = workload.kinds
    # Verdicts.  Set-up cycles are attempts too: one that raises or leaks fails.
    attempted = len(setup)
    failures = [f"set_up[{i}]: {p}" for i, r in enumerate(setup) for p in r["problems"]]
    failed = sum(1 for r in setup if r["problems"])
    setup = [r for r in setup if not r["problems"]]
    for kind in kinds:
        reference = workload.reference(kind, seed)
        for index, record in enumerate(slices[kind]):
            attempted += 1
            if not record["problems"]:
                record["problems"] = workload.check(kind, seed, record["kept"], reference)
            if record["problems"]:
                failed += 1
                failures += [f"{kind}[{index}]: {p}" for p in record["problems"]]

    detail: dict = {"kinds": {}}
    good = {kind: [r for r in slices[kind] if not r["problems"]] for kind in kinds}
    metrics: dict = {}
    raw: dict = {}
    iqr_share: dict = {}
    notes: list[str] = []
    if setup and all(good.values()):
        for kind in kinds:
            detail["kinds"][kind] = {
                "events_per_slice": workload.events(kind),
                "slices": len(good[kind]),
                "slices_raw": [
                    {
                        "wall_s": r["wall"],
                        "cpu_s": r["cpu"],
                        "stolen_s": r["stolen"],
                        "cal_wall_s": [c.wall for c in r["cal"]],
                        "cal_cpu_s": [c.cpu for c in r["cal"]],
                    }
                    for r in good[kind]
                ],
                **summaries(good[kind]),
            }
        detail["setup"] = summaries(setup)
        detail["cal_wall_s"] = summarize(
            [c.wall for k in kinds for r in good[k] for c in r["cal"]]
        )
        # Information: CPU seconds the hypervisor withheld per second of slice.
        timed = [r for k in kinds for r in good[k]]
        detail["stolen_per_slice_s"] = sum(r["stolen"] for r in timed) / sum(
            r["wall"] for r in timed
        )
        notes.append(
            f"{len(timed)} slices; the hypervisor withheld "
            f"{detail['stolen_per_slice_s']:.2f} CPU-s per second of slice"
        )
        events = sum(workload.events(kind) for kind in kinds)

        def total(field: str, stat: str = "median") -> float:
            return sum(detail["kinds"][kind][field][stat] for kind in kinds)

        def spread(field: str) -> float:
            return (total(field, "q3") - total(field, "q1")) / total(field)

        metrics = {
            "events_per_s": {"value": events / total("calibrated_wall_s"), "unit": "1/s"},
            "cpu_us_per_event": {
                "value": total("calibrated_cpu_s") / events * 1e6,
                "unit": "us",
            },
            "setup_s": {"value": detail["setup"]["calibrated_wall_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        }
        # Information only: the same numbers without calibration, and the
        # scatter (IQR / median) of the per-slice values behind each median.
        raw = {
            "events_per_s": events / total("raw_wall_s"),
            "cpu_us_per_event": total("raw_cpu_s") / events * 1e6,
            "setup_s": detail["setup"]["raw_wall_s"]["median"],
        }
        iqr_share = {
            "events_per_s": spread("calibrated_wall_s"),
            "cpu_us_per_event": spread("calibrated_cpu_s"),
            "setup_s": detail["setup"]["calibrated_wall_s"]["iqr_share"],
        }
    return {
        "workload": workload.name,
        "seed": seed,
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "notes": notes,
        "metrics": metrics,
        "raw": raw,
        "iqr_share": iqr_share,
        "detail": detail,
    }
