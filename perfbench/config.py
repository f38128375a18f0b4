"""The make-up of every workload's inputs and of the program under test.

Every size the README quotes is defined here, once.
"""

from __future__ import annotations

#: Table capacities of every synopsis (items, pairs), as in the repo's
#: engine benchmark.
CAPACITY = 4096
#: ``min_support`` of every service and query.
MIN_SUPPORT = 5
#: Top-k size of the recall check and of serve-hm's interleaved QUERY.
TOP_K = 100
#: Recall floor against exact pair counts (the paper's accuracy claim).
RECALL_FLOOR = 0.9
#: Largest transaction the monitor may emit.
MAX_TRANSACTION = 8


def analyzer_config():
    from repro.core.config import AnalyzerConfig
    return AnalyzerConfig(item_capacity=CAPACITY,
                          correlation_capacity=CAPACITY)


def plain_service():
    """The service a prefix checkpoint is written from."""
    from repro.service import CharacterizationService
    from repro.telemetry import MetricsRegistry
    return CharacterizationService(
        config=analyzer_config(), min_support=MIN_SUPPORT,
        snapshot_interval=10**9, registry=MetricsRegistry(),
    )


WORKLOADS = {
    "ingest-rsrch": {
        "trace": "rsrch",
        "prefix_events": 40_000,
        "main_events": 640_000,
        # submit_many chunk: an event list past the columnar threshold
        "chunk_events": 1024,
        "setup_repeats": 9,
        "queries": 31,
        "checkpoints": 41,
        "traced_rounds_per_s": 30,
    },
    "serve-hm": {
        "trace": "hm",
        "prefix_events": 0,
        "main_events": 400_000,
        "chunk_events": 512,      # events per BATCH frame
        "batches_per_query": 8,   # a top-k QUERY after this many BATCHes
        "shards": 2,
        "setup_repeats": 3,
        "checkpoints": 11,
        "traced_rounds_per_s": 3,
    },
    "prefetch-wdev": {
        "trace": "wdev",
        "prefix_events": 20_000,
        "main_events": 120_000,
        # events submitted one by one between two acks
        "chunk_events": 32,
        "cache_blocks": 4096,
        "prefetch_budget": 2,
        "prefetch_min_support": 2,
        "setup_repeats": 9,
        "queries": 31,
        "checkpoints": 41,
        "traced_rounds_per_s": 25,
    },
}
