"""Prepare a workload's seeded inputs (run as its own process, untimed).

Usage: ``python3 perfbench/prep.py <workload> <seed>``

Writes ``.bench_work/inputs/<workload>-<seed>/``:

* ``prefix.bin`` / ``main.bin`` -- the event stream as packed rows of
  :data:`EVENT_DTYPE`, split at the prefix length;
* ``prefix.ckpt`` -- for workloads that start from a restored synopsis,
  the checkpoint of a service that ingested the prefix.

Generation lives in its own process so that the benchmark process never
holds the generator's per-record objects: its peak memory is the
program's, plus these compact columns read a chunk at a time.  The
directory is reused when it is already complete.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import WORK, require_source  # noqa: E402
from config import WORKLOADS, plain_service  # noqa: E402

#: One packed event: 33 bytes.
EVENT_DTYPE = np.dtype([
    ("ts", "<f8"), ("lat", "<f8"), ("start", "<i8"),
    ("length", "<i4"), ("pid", "<i4"), ("op", "u1"),
])


def input_dir(workload: str, seed: int) -> Path:
    return WORK / "inputs" / f"{workload}-{seed}"


def to_columns(events) -> np.ndarray:
    """Packed rows of :data:`EVENT_DTYPE` for a list of event objects."""
    out = np.empty(len(events), dtype=EVENT_DTYPE)
    out["ts"] = [e.timestamp for e in events]
    out["lat"] = [e.latency for e in events]
    out["start"] = [e.start for e in events]
    out["length"] = [e.length for e in events]
    out["pid"] = [e.pid for e in events]
    out["op"] = [0 if e.op.value == "R" else 1 for e in events]
    return out


class EventSource:
    """Reads a prepared stream a chunk at a time, so the benchmark
    process never holds the whole input in memory."""

    def __init__(self, path: Path) -> None:
        self._file = open(path, "rb")
        self.count = path.stat().st_size // EVENT_DTYPE.itemsize

    def rows(self, lo: int, count: int) -> np.ndarray:
        self._file.seek(lo * EVENT_DTYPE.itemsize)
        return np.fromfile(self._file, dtype=EVENT_DTYPE,
                           count=max(0, min(count, self.count - lo)))

    def chunks(self, end: int, size: int):
        for lo in range(0, end, size):
            yield self.rows(lo, min(size, end - lo))

    def close(self) -> None:
        self._file.close()


def to_events(rows: np.ndarray) -> list:
    """Event objects for one chunk: what a caller of the program holds."""
    from repro.monitor.events import BlockIOEvent
    from repro.trace.record import OpType

    ops = (OpType.READ, OpType.WRITE)
    return [BlockIOEvent(ts, pid, ops[op], start, length, lat)
            for ts, lat, start, length, pid, op in zip(
                rows["ts"].tolist(), rows["lat"].tolist(),
                rows["start"].tolist(), rows["length"].tolist(),
                rows["pid"].tolist(), rows["op"].tolist())]


def to_batch(rows: np.ndarray):
    """The same chunk as a columnar EventBatch (for the oracle replay)."""
    from repro.monitor.batch import EventBatch
    return EventBatch(rows["ts"], rows["pid"], rows["op"], rows["start"],
                      rows["length"], rows["lat"])


def prepare(workload: str, seed: int) -> Path:
    from repro.blkdev.device import SsdDevice
    from repro.blkdev.replay import replay_timed
    from repro.workloads.enterprise import generate_named

    spec = WORKLOADS[workload]
    target = input_dir(workload, seed)
    done = target / "DONE"
    if done.exists():
        return target
    target.mkdir(parents=True, exist_ok=True)
    total = spec["prefix_events"] + spec["main_events"]
    records, _truth = generate_named(spec["trace"], requests=total, seed=seed)
    events = []
    replay_timed(records, SsdDevice(seed=seed),
                 listeners=[events.append], collect=False)
    del records
    prefix = events[:spec["prefix_events"]]
    to_columns(prefix).tofile(target / "prefix.bin")
    to_columns(events[spec["prefix_events"]:]).tofile(target / "main.bin")
    if spec["prefix_events"]:
        service = plain_service()
        chunk = spec["chunk_events"]
        for lo in range(0, len(prefix), chunk):
            service.submit_many(prefix[lo:lo + chunk])
        tmp = target / "prefix.ckpt.tmp"
        with open(tmp, "wb") as stream:
            service.checkpoint(stream)
        os.replace(tmp, target / "prefix.ckpt")
        service.release()
    done.write_text("ok\n")
    return target


if __name__ == "__main__":
    require_source()
    prepare(sys.argv[1], int(sys.argv[2]))
