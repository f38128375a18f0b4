"""``repro serve`` with the traced run's span recorder installed.

Usage: ``python3 perfbench/serve_main.py <spans.npz> serve <args...>``

Wraps the server-side layer functions (frame decode, WAL append, shard
routing and rounds, merged queries, monitor) before handing the
arguments to the program's own CLI entry point, and writes the spans plus
the engine's decision counts to ``<spans.npz>`` / ``<spans>.json`` when
the server exits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_source  # noqa: E402
from spans import Recorder  # noqa: E402


def install(recorder: Recorder, counts: dict) -> None:
    import repro.resilience.service as resilient
    from repro.engine import procshard
    from repro.monitor.batch import EventBatch
    from repro.monitor.monitor import Monitor
    from repro.resilience.wal import WriteAheadLog
    from repro.server import protocol

    recorder.wrap(protocol.FrameDecoder, "feed", "server.decode")
    recorder.wrap(protocol, "events_from_frame", "server.decode")
    recorder.wrap(WriteAheadLog, "append", "resilience.wal_append")
    recorder.wrap(WriteAheadLog, "_fsync_now", "resilience.fsync")
    recorder.wrap(procshard, "route_batch", "engine.route")
    recorder.wrap(procshard.ProcessShardedAnalyzer,
                  "process_transaction_batch", "engine.shard_round")
    recorder.wrap(procshard.ProcessShardedAnalyzer, "frequent_pairs",
                  "engine.query_merge")
    recorder.wrap(resilient, "save_engine_checkpoint", "engine.checkpoint")
    recorder.wrap(EventBatch, "from_events", "monitor.build")
    recorder.wrap(Monitor, "on_events", "monitor.cut")

    close = procshard.ProcessShardedAnalyzer.close

    def close_after_report(self, *args, **kwargs):
        if not self.closed:
            report = self.report()
            counts.update(
                pair_updates=report.pairs_seen,
                item_evictions=report.item_stats.t1_evictions
                + report.item_stats.t2_evictions,
                pair_evictions=report.correlation_stats.t1_evictions
                + report.correlation_stats.t2_evictions,
                demotions=report.correlation_stats.demotions)
        return close(self, *args, **kwargs)

    procshard.ProcessShardedAnalyzer.close = close_after_report


def main() -> int:
    require_source()
    target = Path(sys.argv[1])
    recorder = Recorder()
    counts: dict = {}
    install(recorder, counts)
    from repro.cli.main import main as cli_main
    try:
        return cli_main(sys.argv[2:])
    finally:
        recorder.dump(target)
        target.with_suffix(".json").write_text(json.dumps({
            "calls": recorder.calls, "counts": counts}))


if __name__ == "__main__":
    sys.exit(main())
