"""The two in-process workloads: ``ingest-rsrch`` and ``prefetch-wdev``.

Both restore a checkpoint of the stream's prefix (set-up), feed the rest
of the stream in closed-loop rounds for the timed section, then answer
snapshot queries and write checkpoints.  ``ingest-rsrch`` feeds event
lists through ``submit_many`` (the columnar lane); ``prefetch-wdev``
submits event by event to a ``CachedCharacterizationService`` so each
transaction is served, prefetched on, then trained.
"""

from __future__ import annotations

import copy
import gc
import os
import time
from pathlib import Path
from typing import Dict, Optional

import oracle
import spans
from common import (
    NO_CACHE, WORK, HostProbe, Ops, Pass, Timing, check, end_to_end,
    proc_peak_rss_mb,
)
from config import MIN_SUPPORT, WORKLOADS, analyzer_config
from prep import EventSource, input_dir, to_batch, to_events


def make_service(workload: str):
    from repro.service import CharacterizationService
    from repro.telemetry import MetricsRegistry

    spec = WORKLOADS[workload]
    common = dict(config=analyzer_config(), min_support=MIN_SUPPORT,
                  snapshot_interval=10**9, registry=MetricsRegistry())
    if workload == "prefetch-wdev":
        from repro.cache import CachedCharacterizationService
        return CachedCharacterizationService(
            cache=spec["cache_blocks"], cache_policy="lru", prefetch=True,
            prefetch_budget=spec["prefetch_budget"],
            prefetch_min_support=spec["prefetch_min_support"], **common)
    return CharacterizationService(**common)


class InprocPass(Pass):
    """A :class:`Pass` plus the service and its counters around the
    timed section."""

    def __init__(self) -> None:
        super().__init__()
        self.service = None
        self.report_before = None
        self.report_after = None
        self.monitor_before: Dict[str, int] = {}
        self.monitor_after: Dict[str, int] = {}


def _restore(workload: str, ckpt: Path):
    service = make_service(workload)
    with open(ckpt, "rb") as stream:
        service.restore(stream)
    return service


def run_pass(workload: str, seed: int, probe: HostProbe, ops: Ops, *,
             seconds: Optional[float], rounds: Optional[int],
             setups: int, recorder=None) -> InprocPass:
    """Set-up (``setups`` times; the last service is kept) and one timed
    section of closed-loop rounds.

    The section ends after ``seconds`` of wall time or after ``rounds``
    rounds, whichever is given; a round is one ack: a ``submit_many``
    call, or ``chunk_events`` single ``submit`` calls.  The host probe
    runs between any two program calls, where the program is idle.
    """
    spec = WORKLOADS[workload]
    inputs = input_dir(workload, seed)
    ckpt = inputs / "prefix.ckpt"
    result = InprocPass()
    for attempt in range(setups):
        gc.collect()
        probe.tick()
        with ops.op():
            service, timing = probe.call(_restore, workload, ckpt)
        result.setup.append(timing)
        if attempt + 1 < setups:
            service.release()
    result.service = service

    source = EventSource(inputs / "main.bin")
    chunk = spec["chunk_events"]
    per_event = workload == "prefetch-wdev"
    result.report_before = copy.deepcopy(service.analyzer.report())
    result.monitor_before = service.monitor.stats.as_dict()
    gc.collect()
    root = recorder.open(spans.ROOT) if recorder is not None else None
    section_start = time.perf_counter()
    probe.tick()
    position = 0
    while position < source.count:
        if seconds is not None and \
                time.perf_counter() - section_start >= seconds:
            break
        if rounds is not None and result.rounds >= rounds:
            break
        events = to_events(source.rows(position, chunk))
        with ops.op():
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            if per_event:
                submit = service.submit
                for event in events:
                    submit(event)
            else:
                service.submit_many(events)
            elapsed = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
        factor = probe.tick()  # the program is idle between rounds
        result.acks.append(Timing(elapsed, factor))
        result.work.append(Timing(elapsed, factor))
        result.cpu.append(Timing(cpu, factor))
        position += len(events)
        result.rounds += 1
    result.section = (section_start, time.perf_counter())
    if root is not None:
        recorder.close(root)
        result.section = (recorder.starts[root], recorder.ends[root])
    result.events = position
    result.report_after = copy.deepcopy(service.analyzer.report())
    result.monitor_after = service.monitor.stats.as_dict()
    source.close()

    for _ in range(spec["queries"]):
        with ops.op():
            result.query.append(probe.call(service.snapshot)[1])
    run_dir = WORK / "run" / f"{workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / "final.ckpt"

    def write_checkpoint():
        with open(path, "wb") as stream:
            return service.checkpoint(stream)

    for _ in range(spec["checkpoints"]):
        with ops.op():
            result.checkpoint_bytes, timing = probe.call(write_checkpoint)
        result.checkpoint.append(timing)
    path.unlink()
    run_dir.rmdir()
    result.peak_rss_mb = proc_peak_rss_mb(os.getpid())
    return result


def verify(workload: str, seed: int, result: InprocPass) -> Dict[str, float]:
    """Check the pass's outputs against the oracle; returns the figures
    the checks computed (recall, no-cache block reads, ...)."""
    spec = WORKLOADS[workload]
    inputs = input_dir(workload, seed)
    service = result.service
    chunk = spec["chunk_events"]
    prefix = EventSource(inputs / "prefix.bin")
    prefix_emitted, _ = oracle.replay_monitor(
        (to_batch(rows) for rows in prefix.chunks(prefix.count, chunk)),
        flush=True)
    prefix.close()
    main = EventSource(inputs / "main.bin")
    # The checkpoints flushed the live monitor, so the replay flushes too.
    emitted, replay_stats = oracle.replay_monitor(
        (to_batch(rows) for rows in main.chunks(result.events, chunk)),
        flush=True)
    main.close()
    oracle.check_monitor(emitted, replay_stats,
                         service.monitor.stats.as_dict())
    exact = oracle.exact_pair_counts([prefix_emitted, emitted])
    reported = [(oracle.pair_key(pair), tally) for pair, tally
                in service.snapshot().frequent_pairs]
    figures = {"recall": oracle.check_tallies(reported, exact),
               "pairs_distinct": len(exact)}
    blocks = oracle.blocks_accessed(emitted)
    figures["blocks_accessed"] = blocks
    if workload == "prefetch-wdev":
        from repro.cache import simulate_cache
        from repro.core.extent import Extent

        capacity = spec["cache_blocks"]
        reference = oracle.lru_misses(oracle.arrival_accesses(emitted),
                                      capacity)
        program_lru = simulate_cache(
            (Extent(start, length) for start, length
             in oracle.arrival_accesses(emitted)),
            capacity, policy="lru").misses
        check(program_lru == reference,
              f"program LRU missed {program_lru} blocks, reference LRU "
              f"{reference}")
        stats = service.cache_stats
        check(stats.hits + stats.misses == blocks,
              f"cache served {stats.hits + stats.misses} blocks, the "
              f"emitted transactions hold {blocks}")
        check(stats.misses < reference,
              f"prefetching run missed {stats.misses} blocks, not fewer "
              f"than the no-prefetch LRU's {reference}")
        figures["lru_misses"] = reference
    return figures


def cache_ratios(workload: str, result: InprocPass,
                 figures: Dict[str, float]) -> tuple:
    """(demand misses, device reads), each relative to the misses of a
    plain LRU cache of the program's cache size.  Only prefetch-wdev has
    a cache; elsewhere both are the fixed placeholder ``NO_CACHE``."""
    if workload != "prefetch-wdev":
        return NO_CACHE
    stats = result.service.cache_stats
    baseline = figures["lru_misses"]
    return (stats.misses / baseline,
            (stats.misses + stats.prefetches_issued) / baseline)


def run(workload: str, seed: int, seconds: float, probe: HostProbe,
        ops: Ops):
    """The untraced run: returns (metrics, figures)."""
    spec = WORKLOADS[workload]
    result = run_pass(workload, seed, probe, ops, seconds=seconds,
                      rounds=None, setups=spec["setup_repeats"])
    try:
        figures = verify(workload, seed, result)
    finally:
        result.service.release()
    metrics = end_to_end(result, figures,
                         cache=cache_ratios(workload, result, figures))
    return metrics, figures
