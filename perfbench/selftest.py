"""Self-test of the benchmark's checks and layer map.

    python3 perfbench/selftest.py

1. A wrong output fails the run: every tally the synopsis reports is
   bumped by one from outside, and the ingest-rsrch checks must refuse it.
2. The layer map points the right way: a fixed busy-wait is injected from
   outside into ``TwoTierTable.access_fast`` (the table update of the
   ``core`` layer).  Untraced and delayed runs of ingest-rsrch alternate;
   ``events_per_s`` must get worse by more than its bound in
   BENCHMARK.json, and the traced ``core.update_us_per_event`` must grow
   while ``monitor.cut_us_per_event`` stays within the same share.

Exits 0 when every expectation holds.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT, CheckFailed, HostProbe, Ops, log, require_source,
)

WORKLOAD = "ingest-rsrch"
SEED = 1
#: Plain and delayed runs of ``SECONDS`` each, alternated this many times.
PAIRS = 3
SECONDS = 10.0
#: The busy-wait added to every ``TwoTierTable.access_fast`` call.
DELAY_S = 4e-6


@contextmanager
def patched(owner, attr, make):
    original = owner.__dict__[attr]
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def bumped_tallies(original):
    def frequent_pairs(self, *args, **kwargs):
        return [(pair, tally + 1)
                for pair, tally in original(self, *args, **kwargs)]
    return frequent_pairs


def delayed(delay_s):
    def make(original):
        clock = time.perf_counter

        def access_fast(self, key):
            until = clock() + delay_s
            while clock() < until:
                pass
            return original(self, key)
        return access_fast
    return make


def main() -> int:
    require_source()
    import inproc
    import traced
    from repro.core.correlation_table import CorrelationTable
    from repro.core.two_tier import TwoTierTable
    from run import prepare_inputs

    bounds = {entry["name"]: entry["bound"] for entry in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    prepare_inputs(WORKLOAD, SEED)
    ok = True

    with patched(CorrelationTable, "frequent", bumped_tallies):
        try:
            inproc.run(WORKLOAD, SEED, 2.0, HostProbe(), Ops())
        except CheckFailed as failure:
            log(f"bumped tallies: refused as expected ({failure})")
        else:
            log("bumped tallies: NOT refused")
            ok = False

    def events_per_s(delay: bool) -> float:
        probe = HostProbe()
        if not delay:
            return inproc.run(WORKLOAD, SEED, SECONDS, probe,
                              Ops())[0]["events_per_s"][0]
        with patched(TwoTierTable, "access_fast", delayed(DELAY_S)):
            return inproc.run(WORKLOAD, SEED, SECONDS, probe,
                              Ops())[0]["events_per_s"][0]

    base, slow = [], []
    for index in range(PAIRS):
        order = (False, True) if index % 2 == 0 else (True, False)
        for delay in order:
            (slow if delay else base).append(events_per_s(delay))
    change = 1.0 - statistics.median(slow) / statistics.median(base)
    tripped = change > bounds["events_per_s"] and max(slow) < min(base)
    log(f"events_per_s: base {sorted(base)}, delayed {sorted(slow)}; "
        f"worse by {change:.1%} against a bound of "
        f"{bounds['events_per_s']:.0%}: "
        f"{'tripped' if tripped else 'NOT tripped'}")
    ok &= tripped

    def layers(delay: bool):
        probe = HostProbe()
        if not delay:
            metrics = traced.run(WORKLOAD, SEED, SECONDS, probe, Ops())[0]
        else:
            with patched(TwoTierTable, "access_fast", delayed(DELAY_S)):
                metrics = traced.run(WORKLOAD, SEED, SECONDS, probe,
                                     Ops())[0]
        return (metrics["core.update_us_per_event"][0],
                metrics["monitor.cut_us_per_event"][0])

    core_base, cut_base = layers(False)
    core_slow, cut_slow = layers(True)
    core_change = core_slow / core_base - 1.0
    cut_change = abs(cut_slow / cut_base - 1.0)
    moved = core_change > bounds["events_per_s"] and cut_change < core_change
    log(f"core.update_us_per_event {core_base:.2f} -> {core_slow:.2f} "
        f"({core_change:+.1%}); monitor.cut_us_per_event {cut_base:.2f} -> "
        f"{cut_slow:.2f}: {'as mapped' if moved else 'NOT as mapped'}")
    ok &= moved
    log("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
