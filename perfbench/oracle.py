"""Independent output checks: exact pair counts, monitor accounting and a
reference LRU, computed apart from the program's synopsis and cache.

The only program code used here is the monitor, replayed over the same
events to recover the transactions the live monitor emitted; everything
counted from them (pair tallies, LRU misses) is plain Python.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from common import check
from config import MAX_TRANSACTION, RECALL_FLOOR, TOP_K

PairKey = Tuple[int, int, int, int]


class Emitted:
    """The transactions a replayed monitor emitted, as flat columns."""

    def __init__(self) -> None:
        #: (starts, lengths) of the member events, in arrival order.
        self.arrival: List[Tuple[np.ndarray, np.ndarray]] = []
        self.starts: List[np.ndarray] = []
        self.lengths: List[np.ndarray] = []
        self.offsets: List[np.ndarray] = []
        self.raw_sizes: List[np.ndarray] = []

    def on_transaction_batch(self, batch) -> None:
        self.starts.append(batch.starts.copy())
        self.lengths.append(batch.lengths.copy())
        self.offsets.append(batch.offsets.copy())
        self.raw_sizes.append(np.diff(batch.raw_offsets))
        self.arrival.append((batch.raw_starts.copy(),
                             batch.raw_lengths.copy()))

    def __call__(self, transaction) -> None:
        """Scalar-lane delivery (a flush emits the open transaction so)."""
        from repro.monitor.batch import TransactionBatch
        self.on_transaction_batch(
            TransactionBatch.from_transactions([transaction]))

    def transactions(self) -> Iterable[List[Tuple[int, int]]]:
        """Each transaction's distinct extents, sorted, oldest first."""
        for starts, lengths, offsets in zip(self.starts, self.lengths,
                                            self.offsets):
            s = starts.tolist()
            n = lengths.tolist()
            o = offsets.tolist()
            for t in range(len(o) - 1):
                yield list(zip(s[o[t]:o[t + 1]], n[o[t]:o[t + 1]]))

    def raw_size_total(self) -> int:
        return int(sum(int(sizes.sum()) for sizes in self.raw_sizes))

    def largest(self) -> int:
        return max((int(sizes.max()) for sizes in self.raw_sizes
                    if len(sizes)), default=0)

    def count(self) -> int:
        return int(sum(len(sizes) for sizes in self.raw_sizes))


def replay_monitor(chunks: Iterable, flush: bool):
    """Run a fresh monitor, configured as the service's, over event
    chunks (each an :class:`EventBatch`); returns (emitted, stats)."""
    from repro.monitor.monitor import ClockPolicy, Monitor
    from repro.monitor.window import DynamicLatencyWindow
    from repro.telemetry import NULL_REGISTRY

    emitted = Emitted()
    monitor = Monitor(window=DynamicLatencyWindow(),
                      max_transaction_size=MAX_TRANSACTION, dedup=True,
                      sinks=[emitted], clock_policy=ClockPolicy.REORDER,
                      registry=NULL_REGISTRY)
    for batch in chunks:
        monitor.on_events(batch)
    if flush:
        monitor.flush()
    return emitted, monitor.stats


def check_monitor(emitted: Emitted, replay_stats, live_stats: Dict) -> None:
    """Emitted sizes + removed + filtered + dropped == events seen, the
    live monitor agrees with the replay, and no transaction is too big."""
    total = (emitted.raw_size_total() + live_stats["duplicates_removed"]
             + live_stats["events_filtered"] + live_stats["events_dropped"])
    check(total == live_stats["events_seen"],
          f"monitor accounting: transaction sizes + removed + filtered + "
          f"dropped = {total} != events_seen {live_stats['events_seen']}")
    check(emitted.count() == live_stats["transactions_emitted"],
          f"monitor emitted {live_stats['transactions_emitted']} "
          f"transactions, replay emitted {emitted.count()}")
    check(replay_stats.as_dict() == live_stats,
          f"live monitor stats {live_stats} != replay "
          f"{replay_stats.as_dict()}")
    check(emitted.largest() <= MAX_TRANSACTION,
          f"a transaction holds {emitted.largest()} extents "
          f"(limit {MAX_TRANSACTION})")


def exact_pair_counts(emitted_sets: Sequence[Emitted]) -> Counter:
    """Exact co-occurrence counts of every extent pair."""
    counts: Counter = Counter()
    for emitted in emitted_sets:
        for extents in emitted.transactions():
            n = len(extents)
            for i in range(n - 1):
                a = extents[i]
                for j in range(i + 1, n):
                    b = extents[j]
                    counts[(a[0], a[1], b[0], b[1])] += 1
    return counts


def check_tallies(reported: Sequence[Tuple[PairKey, int]],
                  exact: Counter) -> float:
    """No reported tally exceeds its exact count; top-k recall meets the
    floor.  Returns the recall (ties at the k-th count count as hits)."""
    for key, tally in reported:
        check(tally <= exact.get(key, 0),
              f"pair {key} reported with tally {tally} > exact count "
              f"{exact.get(key, 0)}")
    top = exact.most_common(TOP_K)
    check(len(top) == TOP_K, f"only {len(top)} distinct pairs in the stream")
    threshold = top[-1][1]
    hits = sum(1 for key, _tally in reported[:TOP_K]
               if exact.get(key, 0) >= threshold)
    recall = hits / TOP_K
    check(recall >= RECALL_FLOOR,
          f"top-{TOP_K} recall {recall:.3f} < {RECALL_FLOOR}")
    return recall


def pair_key(pair) -> PairKey:
    return (pair.first.start, pair.first.length,
            pair.second.start, pair.second.length)


def lru_misses(accesses: Iterable[Tuple[int, int]], capacity: int) -> int:
    """Block misses of a plain LRU cache over (start, length) accesses."""
    resident: "OrderedDict[int, None]" = OrderedDict()
    misses = 0
    for start, length in accesses:
        for block in range(start, start + length):
            if block in resident:
                resident.move_to_end(block)
            else:
                misses += 1
                if len(resident) >= capacity:
                    resident.popitem(last=False)
                resident[block] = None
    return misses


def blocks_accessed(emitted: Emitted) -> int:
    return int(sum(int(lengths.sum()) for _starts, lengths
                   in emitted.arrival))


def arrival_accesses(emitted: Emitted) -> Iterable[Tuple[int, int]]:
    """Every emitted transaction's extents in arrival order: the demand
    stream a cache attached to the monitor serves."""
    for starts, lengths in emitted.arrival:
        yield from zip(starts.tolist(), lengths.tolist())
