"""The ``serve-hm`` workload: ``repro serve`` in its own process.

The server runs on a Unix socket with a write-ahead log at its default
fsync policy and two shard processes.  One client on one connection
sends fixed-size BATCH frames and waits for each ack, as ``repro send``
does, with a top-k QUERY after every ``batches_per_query`` frames.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import oracle
import spans
from common import (
    ROOT, SRC, WORK, HostProbe, Ops, Pass, Timing, check, child_pids,
    end_to_end, proc_cpu_seconds, proc_peak_rss_mb,
)
from config import CAPACITY, MIN_SUPPORT, TOP_K, WORKLOADS
from prep import EventSource, input_dir, to_batch, to_columns, to_events

WORKLOAD = "serve-hm"
#: How long a server may take to answer its first QUERY or to drain.
START_TIMEOUT_S = 60.0


class Server:
    """One ``repro serve`` process and its files, relative to the checkout
    root (a Unix socket path must stay short)."""

    def __init__(self, tag: str, spans: Optional[Path] = None) -> None:
        self.dir = WORK / "run" / f"{WORKLOAD}-{os.getpid()}-{tag}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        rel = self.dir.relative_to(ROOT)
        # Unix socket paths are short: the server gets one relative to the
        # checkout root, the client one relative to its working directory.
        self.socket = os.path.relpath(self.dir / "s.sock")
        self.wal_dir = self.dir / "wal"
        self.trace_log = self.dir / "trace.ndjson"
        argv = ["serve", "--unix", str(rel / "s.sock"),
                "--capacity", str(CAPACITY), "--support", str(MIN_SUPPORT),
                "--shards", str(WORKLOADS[WORKLOAD]["shards"]),
                "--shard-processes", "--wal-dir", str(rel / "wal"),
                "--checkpoint", str(rel / "state.ckpt"), "--keep-wal"]
        if spans is None:
            command = [sys.executable, "-m", "repro.cli.main"] + argv
        else:
            command = [sys.executable,
                       str(Path(__file__).with_name("serve_main.py")),
                       str(spans)] + argv + [
                "--trace-log", str(rel / "trace.ndjson"),
                "--trace-sample", "1.0"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log = open(self.dir / "server.log", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=ROOT, env=env,
                                     stdout=self.log,
                                     stderr=subprocess.STDOUT)

    def connect_and_query(self):
        """Poll until the first QUERY is answered; returns the client and
        the seconds since the process was started."""
        from repro.server.client import CharacterizationClient

        deadline = self.started + START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}"
                                   f"; see {self.dir / 'server.log'}")
            client = CharacterizationClient(self.socket, timeout=60.0)
            try:
                client.connect()
            except OSError:
                client.close()
                if time.perf_counter() > deadline:
                    raise RuntimeError("server did not start listening")
                time.sleep(0.005)
                continue
            client.query_top(k=TOP_K, min_support=MIN_SUPPORT)
            return client, time.perf_counter() - self.started

    def pids(self) -> List[int]:
        return [self.proc.pid] + child_pids(self.proc.pid)

    def stop(self) -> None:
        """SIGINT: the server drains, checkpoints and exits."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=START_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


class ServePass(Pass):
    """A :class:`Pass` plus the server and what it reported after the
    timed section.  ``work`` holds one BATCH-and-QUERY round per entry."""

    def __init__(self) -> None:
        super().__init__()
        self.server: Optional[Server] = None
        self.stats: Dict = {}
        self.reported: list = []


def run_pass(seed: int, probe: HostProbe, ops: Ops, *,
             seconds: Optional[float], rounds: Optional[int], setups: int,
             spans: Optional[Path] = None, recorder=None) -> ServePass:
    """Set-up (``setups`` server starts, each until its first QUERY is
    answered) and one timed section against the last server started."""
    result = ServePass()
    for attempt in range(setups):
        probe.tick()
        server = Server(str(attempt), spans=spans)
        try:
            with ops.op():
                client, elapsed = server.connect_and_query()
        except BaseException:
            server.stop()
            server.remove()
            raise
        result.setup.append(Timing(elapsed, probe.tick()))
        if attempt + 1 < setups:
            client.close()
            server.stop()
            server.remove()
    result.server = server
    try:
        try:
            _section(seed, probe, ops, result, client, seconds, rounds,
                     recorder)
        finally:
            client.close()
            server.stop()
    except BaseException:
        server.remove()
        raise
    return result


def _cpu(pids: List[int]) -> float:
    return sum(proc_cpu_seconds(pid) for pid in pids)


def _section(seed, probe, ops, result, client, seconds, rounds, recorder):
    """The timed section, then checkpoints, STATS and the final query."""
    spec = WORKLOADS[WORKLOAD]
    server = result.server
    source = EventSource(input_dir(WORKLOAD, seed) / "main.bin")
    chunk = spec["chunk_events"]
    per_query = spec["batches_per_query"]
    pids = server.pids()
    root = recorder.open(spans.ROOT) if recorder is not None else None
    section_start = time.perf_counter()
    probe.tick()
    position = 0
    while position + chunk * per_query <= source.count:
        if seconds is not None and \
                time.perf_counter() - section_start >= seconds:
            break
        if rounds is not None and result.rounds >= rounds:
            break
        cpu_before = _cpu(pids)
        acks = []
        for _ in range(per_query):
            events = to_events(source.rows(position, chunk))
            with ops.op():
                t0 = time.perf_counter()
                reply = client.send_events(events)
                acks.append(time.perf_counter() - t0)
                check(reply.get("type") == "OK"
                      and reply.get("accepted") == len(events),
                      f"BATCH not acknowledged in full: {reply}")
            position += len(events)
        with ops.op():
            t0 = time.perf_counter()
            client.query_top(k=TOP_K, min_support=MIN_SUPPORT)
            query = time.perf_counter() - t0
        cpu = _cpu(pids) - cpu_before
        factor = probe.tick()  # the server is idle after a QUERY
        result.acks.extend(Timing(ack, factor) for ack in acks)
        result.query.append(Timing(query, factor))
        result.work.append(Timing(sum(acks) + query, factor))
        result.cpu.append(Timing(cpu, factor))
        result.rounds += 1
    result.section = (section_start, time.perf_counter())
    if root is not None:
        recorder.close(root)
        result.section = (recorder.starts[root], recorder.ends[root])
    result.events = position
    source.close()

    for _ in range(spec["checkpoints"]):
        with ops.op():
            reply, timing = probe.call(client.checkpoint)
        result.checkpoint.append(timing)
        result.checkpoint_bytes = reply["bytes"]
    with ops.op():
        result.stats = client.stats()
    with ops.op():
        result.reported = client.query_top(k=10**9, min_support=MIN_SUPPORT)
    result.peak_rss_mb = sum(proc_peak_rss_mb(pid) for pid in pids)


def verify(seed: int, result: ServePass) -> Dict[str, float]:
    """WAL replay, monitor accounting, exact tallies and recall."""
    from repro.resilience.wal import WriteAheadLog

    spec = WORKLOADS[WORKLOAD]
    server = result.server
    source = EventSource(input_dir(WORKLOAD, seed) / "main.bin")
    acked = source.rows(0, result.events)
    wal = WriteAheadLog(server.wal_dir, readonly=True)
    replayed = [event for record in wal.replay() for event in record.events]
    check(len(replayed) == len(acked),
          f"WAL replayed {len(replayed)} events, {len(acked)} were acked")
    check(bool(np.array_equal(to_columns(replayed), acked)),
          "WAL replay differs from the acknowledged events")

    # The CHECKPOINT frames flushed the live monitor before STATS.
    emitted, replay_stats = oracle.replay_monitor(
        (to_batch(rows) for rows in source.chunks(result.events,
                                                  spec["chunk_events"])),
        flush=True)
    source.close()
    oracle.check_monitor(emitted, replay_stats, result.stats["monitor"])
    exact = oracle.exact_pair_counts([emitted])
    reported = [(oracle.pair_key(pair), tally)
                for pair, tally in result.reported]
    return {
        "recall": oracle.check_tallies(reported, exact),
        "pairs_distinct": len(exact),
        "blocks_accessed": oracle.blocks_accessed(emitted),
        "wal_events": len(replayed),
    }


def run(workload: str, seed: int, seconds: float, probe: HostProbe,
        ops: Ops):
    """The untraced run: returns (metrics, figures)."""
    spec = WORKLOADS[WORKLOAD]
    result = run_pass(seed, probe, ops, seconds=seconds, rounds=None,
                      setups=spec["setup_repeats"])
    try:
        figures = verify(seed, result)
    finally:
        result.server.remove()
    # Server start, the server's CPU time, QUERY and CHECKPOINT run in
    # other processes: rescaled by the run's median probe.  Rescaled by
    # the probes next to each round instead, the CPU time of ten seeds
    # spread 0.15 against 0.02.
    return end_to_end(result, figures, whole_run=probe), figures
