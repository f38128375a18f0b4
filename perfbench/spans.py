"""The traced run's span recorder.

Spans are recorded from the benchmark's own code: :meth:`Recorder.wrap`
replaces a public function of the program with a wrapper that opens a
span around the call.  Each span keeps its name, start, end and parent
(the span open when it started) in flat arrays; :meth:`Recorder.dump`
writes them out when the run ends, and :func:`self_times` turns them into
each span name's self time: its duration minus the part covered by its
children.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Which layer each span name belongs to.
LAYER_OF = {
    "monitor.build": "monitor",
    "monitor.cut": "monitor",
    "core.update": "core",
    "engine.restore": "engine",
    "engine.checkpoint": "engine",
    "engine.route": "engine",
    "engine.shard_round": "engine",
    "engine.query_merge": "engine",
    "service.query": "service",
    "server.encode": "server",
    "server.decode": "server",
    "resilience.wal_append": "resilience",
    "resilience.fsync": "resilience",
    "cache.partner_query": "cache",
    "cache.access": "cache",
    "cache.fill": "cache",
}
LAYERS = ("monitor", "core", "engine", "service", "server", "resilience",
          "cache")
#: The timed section's root span, and the host probe's spans inside it
#: (benchmark work, left out of the section's time).
ROOT = "section"
PROBE = "probe"


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self._stack: List[int] = []
        #: Per-name sums of a value measured on each call (see ``wrap``).
        self.values: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._undo: List[Tuple[object, str, bool, object]] = []

    def _id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def open(self, name: str) -> int:
        index = len(self.starts)
        self.name_ids.append(self._id(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("span closed out of order")

    def wrap(self, owner, attr: str, name: str,
             measure: Optional[Callable] = None) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr``; ``measure(args, result)`` adds to ``values[name]``."""
        original = getattr(owner, attr)
        recorder = self
        calls = self.calls
        values = self.values

        def wrapper(*args, **kwargs):
            index = recorder.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(index)
            calls[name] += 1
            if measure is not None:
                values[name] += measure(args, result)
            return result

        wrapper.__wrapped__ = original
        own = owner.__dict__
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, wrapper)

    def tally(self, owner, attr: str, name: str, measure: Callable,
              under: str) -> None:
        """Count calls of ``owner.attr`` made directly inside a span named
        ``under`` (no span of its own), summing ``measure(args, result)``."""
        original = getattr(owner, attr)
        recorder = self
        under_id = self._id(under)
        calls = self.calls
        values = self.values

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            stack = recorder._stack
            if stack and recorder.name_ids[stack[-1]] == under_id:
                calls[name] += 1
                values[name] += measure(args, result)
            return result

        wrapper.__wrapped__ = original
        own = owner.__dict__
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        """Put every wrapped attribute back as it was."""
        while self._undo:
            owner, attr, had_own, previous = self._undo.pop()
            if had_own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

    def arrays(self):
        return (np.frombuffer(self.name_ids, dtype=np.uint16).astype(np.int64),
                np.frombuffer(self.starts, dtype=np.float64),
                np.frombuffer(self.ends, dtype=np.float64),
                np.frombuffer(self.parents, dtype=np.int64))

    def dump(self, path: Path) -> None:
        names, starts, ends, parents = self.arrays()
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_ids=names, starts=starts, ends=ends, parents=parents)


def load(path: Path):
    data = np.load(path)
    return ([str(name) for name in data["names"]], data["name_ids"], data["starts"],
            data["ends"], data["parents"])


def self_times(names, name_ids, starts, ends, parents,
               window: Optional[Tuple[float, float]] = None
               ) -> Dict[str, float]:
    """Seconds of self time per span name (spans starting in ``window``)."""
    durations = ends - starts
    covered = np.zeros(len(durations))
    has_parent = parents >= 0
    np.add.at(covered, parents[has_parent], durations[has_parent])
    own = durations - covered
    keep = np.ones(len(own), dtype=bool)
    if window is not None:
        keep = (starts >= window[0]) & (starts <= window[1])
    totals = np.bincount(name_ids[keep], weights=own[keep],
                         minlength=len(names))
    return {name: float(totals[i]) for i, name in enumerate(names)}


def layer_split(own: Dict[str, float]) -> Dict[str, float]:
    """Self seconds per layer (names outside the map are ignored)."""
    split = {layer: 0.0 for layer in LAYERS}
    for name, seconds in own.items():
        layer = LAYER_OF.get(name)
        if layer is not None:
            split[layer] += seconds
    return split


def durations(names, name_ids, starts, ends,
              window: Optional[Tuple[float, float]] = None
              ) -> Dict[str, Tuple[float, int]]:
    """(total seconds, span count) per span name, inside ``window``."""
    keep = np.ones(len(starts), dtype=bool)
    if window is not None:
        keep = (starts >= window[0]) & (starts <= window[1])
    totals = np.bincount(name_ids[keep], weights=(ends - starts)[keep],
                         minlength=len(names))
    counts = np.bincount(name_ids[keep], minlength=len(names))
    return {name: (float(totals[i]), int(counts[i]))
            for i, name in enumerate(names)}
