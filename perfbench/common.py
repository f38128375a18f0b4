"""Shared pieces of the benchmark: the host-speed probe, percentiles,
process accounting, operation counts, the end-to-end metrics of a pass
and the result line.

Nothing here imports ``repro``; the probe kernel in particular must call
nothing in the program, so that a change to the program cannot move it.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for prepared inputs and run files, inside the checkout.
WORK = ROOT / ".bench_work"

#: The probe kernel's size, and its time on the reference host (the host
#: the README's figures come from).
PROBE_KEYS = 20_000
PROBE_CAPACITY = 8192
PROBE_ACCESSES = 6000
PROBE_NOMINAL_S = 0.0045
_PROBE_KEYS = [((i * 2654435761) % 1_000_003, (i * 40503) % 97)
               for i in range(PROBE_KEYS)]


def probe_kernel() -> int:
    """A fixed pure-Python reference workload that calls nothing in the
    program: the lookup-and-insert path of an ``OrderedDict`` LRU, the
    kind of work the program's tables do.  The 6 000 keys are distinct
    tuples and the capacity is never reached, so every access is a miss
    that allocates a new entry.

    A smaller, cache-resident loop was tried first; it sped up and slowed
    down about twice as much as the program when the host changed speed,
    while this one tracks the program's speed one for one.
    """
    table: "OrderedDict[tuple, int]" = OrderedDict()
    get = table.get
    keys = _PROBE_KEYS
    hits = 0
    for i in range(PROBE_ACCESSES):
        key = keys[(i * 7919) % PROBE_KEYS]
        tally = get(key)
        if tally is None:
            if len(table) >= PROBE_CAPACITY:
                table.popitem(last=False)
            table[key] = 1
        else:
            table[key] = tally + 1
            table.move_to_end(key)
            hits += 1
    return hits


class HostProbe:
    """Times :func:`probe_kernel` at points where the program is idle.

    This host's speed changes in steps that last from a fraction of a
    second to minutes, so the probe runs between any two program calls
    (rounds, queries, checkpoints, set-ups) and each call's time is
    rescaled by the probe runs just before and just after it:
    ``rescaled = raw * nominal / mean(probe before, probe after)``.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def tick(self) -> float:
        """Run the probe; returns the rescale factor for the program work
        done since the previous probe."""
        started = time.perf_counter()
        probe_kernel()
        self.samples.append(time.perf_counter() - started)
        return PROBE_NOMINAL_S / statistics.mean(self.samples[-2:])

    def call(self, function, *args, **kwargs):
        """Run ``function``, then the probe; returns (result, Timing)."""
        started = time.perf_counter()
        result = function(*args, **kwargs)
        elapsed = time.perf_counter() - started
        return result, Timing(elapsed, self.tick())

    @property
    def seconds(self) -> float:
        """The median probe time of the run."""
        return statistics.median(self.samples)

    def whole_run(self, timings: Sequence["Timing"]) -> List["Timing"]:
        """The timings rescaled by the run's median probe instead of the
        probes next to each: for work that runs in other processes (server
        start, CPU time of the server and its workers, QUERY, CHECKPOINT),
        where one probe pair in the client says little about the host's
        speed for those processes during the call."""
        factor = PROBE_NOMINAL_S / self.seconds
        return [Timing(timing.raw, factor) for timing in timings]


class Timing(NamedTuple):
    """One program timing and the factor that rescales it."""

    raw: float
    factor: float

    @property
    def scaled(self) -> float:
        return self.raw * self.factor


def scaled(timings: Sequence[Timing]) -> List[float]:
    return [timing.scaled for timing in timings]


def raw(timings: Sequence[Timing]) -> List[float]:
    return [timing.raw for timing in timings]


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail_percentile(count: int) -> float:
    """The highest of p99.9/p99/p90/p75 with at least ten samples beyond
    it; the median alone below 40 samples."""
    for pct in (99.9, 99.0, 90.0, 75.0):
        if count * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def proc_cpu_seconds(pid: int) -> float:
    """CPU time of every thread of ``pid`` from ``/proc`` (ns resolution)."""
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat") as stream:
                total += int(stream.read().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total / 1e9


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``."""
    children: List[int] = []
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/children") as stream:
                children.extend(int(p) for p in stream.read().split())
        except FileNotFoundError:
            continue
    return children


class CheckFailed(AssertionError):
    """An output of the program disagreed with the benchmark's oracle."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def log(*parts: object) -> None:
    print(*parts, flush=True)


class Ops:
    """The operations a run attempted and those that failed.

    An operation is one call into the program that the run depends on:
    preparing the inputs, a set-up, a round (a ``submit_many`` call, the
    ``submit`` calls between two acks, or one BATCH frame), a query, a
    checkpoint.  One that raises counts as failed, and the exception ends
    the run.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def op(self):
        self.attempted += 1
        try:
            yield
        except BaseException:
            self.failed += 1
            raise


def timed(statistic, timings: Sequence[Timing], unit: str,
          scale: float = 1.0) -> tuple:
    """``statistic`` over rescaled and over raw timings, as a metric:
    (rescaled, unit, raw)."""
    return (statistic(scaled(timings)) * scale, unit,
            statistic(raw(timings)) * scale)


def per_event(count: int, timings: Sequence[Timing], unit: str,
              scale: float = 1.0) -> tuple:
    """Total time per event, as a metric: (rescaled, unit, raw)."""
    return (sum(scaled(timings)) / count * scale, unit,
            sum(raw(timings)) / count * scale)


def per_second(count: int, timings: Sequence[Timing], unit: str) -> tuple:
    """Events per second of total time, as a metric."""
    return (count / sum(scaled(timings)), unit, count / sum(raw(timings)))


def plain(value: float, unit: str) -> tuple:
    """A figure no host speed affects: (value, unit, raw)."""
    return (value, unit, value)


class Pass:
    """Everything one set-up plus timed section measured (raw seconds,
    each with the factor that rescales it)."""

    def __init__(self) -> None:
        self.setup: List[Timing] = []
        #: one in-process round, or one BATCH round trip
        self.acks: List[Timing] = []
        #: time inside the program's calls in the timed section, per round
        self.work: List[Timing] = []
        #: CPU time of the program's processes, per round
        self.cpu: List[Timing] = []
        self.query: List[Timing] = []
        self.checkpoint: List[Timing] = []
        self.checkpoint_bytes = 0
        self.events = 0
        self.rounds = 0
        self.section = (0.0, 0.0)
        self.peak_rss_mb = 0.0

    @property
    def busy(self) -> tuple:
        """(rescaled, raw) seconds inside the program's calls in the
        timed section."""
        return sum(scaled(self.work)), sum(raw(self.work))


#: ``demand_misses`` and ``device_reads`` on a workload without a cache:
#: a fixed placeholder, not a measurement (see the README).
NO_CACHE = (1.0, 1.0)


def end_to_end(result: Pass, figures: Dict[str, float], *,
               whole_run: Optional[HostProbe] = None,
               cache: tuple = NO_CACHE) -> Dict[str, tuple]:
    """The end-to-end metrics of one pass: name -> (rescaled, unit, raw).

    ``whole_run`` rescales set-up, CPU, query and checkpoint times by
    that probe's run median instead of the probes next to each (see
    :meth:`HostProbe.whole_run`).  ``cache`` is (demand misses, device
    reads), each relative to the misses of a plain LRU cache.
    """
    events = result.events
    tail = tail_percentile(len(result.acks))
    figures.update(ack_tail_pct=tail, events=events, rounds=result.rounds)
    setup, cpu = result.setup, result.cpu
    query, checkpoint = result.query, result.checkpoint
    if whole_run is not None:
        setup, cpu, query, checkpoint = (whole_run.whole_run(timings) for
                                         timings in (setup, cpu, query,
                                                     checkpoint))
    return {
        "events_per_s": per_second(events, result.work, "ref.ev/s"),
        "cpu_us_per_event": per_event(events, cpu, "ref.us/event", 1e6),
        "setup_s": timed(statistics.median, setup, "s"),
        "peak_rss_mb": plain(result.peak_rss_mb, "MiB"),
        "query_p50_ms": timed(statistics.median, query, "ref.ms", 1e3),
        "ack_p50_ms": timed(statistics.median, result.acks, "ref.ms", 1e3),
        "ack_tail_ms": timed(lambda values: percentile(values, tail),
                             result.acks, "ref.ms", 1e3),
        "checkpoint_ms": timed(statistics.median, checkpoint, "ref.ms",
                               1e3),
        "checkpoint_bytes": plain(result.checkpoint_bytes, "bytes"),
        "demand_misses": plain(cache[0], "x-lru"),
        "device_reads": plain(cache[1], "x-lru"),
    }


def emit_result(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, tuple]) -> None:
    """Print the result object as the last line of standard output."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(entry[0]), "unit": entry[1]}
                    for name, entry in metrics.items()},
    }), flush=True)


def fmt_table(rows: Iterable[Sequence[object]]) -> str:
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(width) for cell, width
                               in zip(row, widths)) for row in rows)


def host_fingerprint() -> str:
    import platform

    import numpy
    return (f"cpu_count={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__}")


def require_source() -> None:
    """Exit non-zero unless the program's sources are in this checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program sources at {SRC}/repro", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
