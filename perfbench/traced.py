"""The traced run (``--trace 1``): the per-layer split.

It runs the workload twice with one set-up each, on the same fixed
number of rounds (what the reference host does in ``--seconds``): first
untraced, then with spans recorded around each layer's public functions
from this file.  Fixed work makes the decision counts of two versions of
the program comparable, and the wall time of the two sections gives the
tracing overhead.  The traced pass's outputs go through the same checks
as an untraced run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import spans
from common import WORK, HostProbe, Ops, plain
from config import WORKLOADS

#: Every per-layer metric, in BENCHMARK.json order, with its unit.
PER_LAYER = (
    ("monitor.build_us_per_event", "ref.us/event"),
    ("monitor.cut_us_per_event", "ref.us/event"),
    ("monitor.transactions", "count"),
    ("core.update_us_per_event", "ref.us/event"),
    ("core.pair_updates", "count"),
    ("core.item_evictions", "count"),
    ("core.pair_evictions", "count"),
    ("core.demotions", "count"),
    ("engine.restore_ms", "ref.ms"),
    ("engine.checkpoint_ms", "ref.ms"),
    ("engine.route_us_per_event", "ref.us/event"),
    ("engine.shard_round_us_per_event", "ref.us/event"),
    ("engine.shard_apply_us_per_event", "ref.us/event"),
    ("engine.query_merge_ms", "ref.ms"),
    ("service.query_ms", "ref.ms"),
    ("server.encode_us_per_event", "ref.us/event"),
    ("server.decode_us_per_event", "ref.us/event"),
    ("server.bytes_in_per_event", "bytes/event"),
    ("resilience.wal_append_us_per_event", "ref.us/event"),
    ("resilience.wal_bytes_per_event", "bytes/event"),
    ("resilience.wal_syncs", "count"),
    ("cache.partner_query_us", "ref.us"),
    ("cache.pairs_examined_per_query", "pairs/query"),
    ("cache.access_us_per_access", "ref.us/access"),
    ("cache.fill_us_per_access", "ref.us/access"),
    ("cache.prefetch_accuracy", "ratio"),
) + tuple((f"{layer}.self_ms", "ref.ms") for layer in spans.LAYERS) + (
    ("trace.unaccounted_ms", "ref.ms"),
    ("trace.section_ms", "ref.ms"),
    ("trace.overhead_pct", "%"),
    ("host.probe_ms", "ms"),
)


def _trace_dir() -> Path:
    path = WORK / "traces"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _install_inproc(recorder: spans.Recorder) -> None:
    import repro.service as service_module
    from repro.cache import SimulatedBlockCache, SynopsisPrefetcher
    from repro.core.correlation_table import CorrelationTable
    from repro.core.typed import TypedOnlineAnalyzer
    from repro.monitor.batch import EventBatch
    from repro.monitor.monitor import Monitor
    from repro.service import CharacterizationService

    recorder.wrap(EventBatch, "from_events", "monitor.build")
    recorder.wrap(Monitor, "on_events", "monitor.cut")
    recorder.wrap(Monitor, "on_event", "monitor.cut")
    recorder.wrap(TypedOnlineAnalyzer, "process_transaction_batch",
                  "core.update")
    recorder.wrap(TypedOnlineAnalyzer, "process_transaction", "core.update")
    recorder.wrap(service_module, "load_engine", "engine.restore")
    recorder.wrap(service_module, "dump_engine", "engine.checkpoint")
    recorder.wrap(CharacterizationService, "snapshot", "service.query")
    recorder.wrap(SynopsisPrefetcher, "partners_of", "cache.partner_query")
    recorder.tally(CorrelationTable, "pairs_involving",
                   "cache.pairs_examined", lambda _args, result: len(result),
                   under="cache.partner_query")
    recorder.wrap(SimulatedBlockCache, "access", "cache.access")
    recorder.wrap(SimulatedBlockCache, "prefetch", "cache.fill")


def _encoded_batch_bytes(args, result) -> int:
    return len(result) if args[0].get("type") == "BATCH" else 0


def _install_client(recorder: spans.Recorder) -> None:
    from repro.server import protocol

    recorder.wrap(protocol, "batch_frame", "server.encode")
    recorder.wrap(protocol, "encode_frame", "server.encode",
                  measure=_encoded_batch_bytes)


def _decisions(before, after) -> Dict[str, int]:
    def evictions(stats):
        return stats.t1_evictions + stats.t2_evictions
    return {
        "pair_updates": after.pairs_seen - before.pairs_seen,
        "item_evictions": evictions(after.item_stats)
        - evictions(before.item_stats),
        "pair_evictions": evictions(after.correlation_stats)
        - evictions(before.correlation_stats),
        "demotions": after.correlation_stats.demotions
        - before.correlation_stats.demotions,
    }


def run(workload: str, seed: int, seconds: float, probe: HostProbe,
        ops: Ops):
    """The traced run: returns (metrics, figures)."""
    spec = WORKLOADS[workload]
    rounds = max(1, round(seconds * spec["traced_rounds_per_s"]))
    recorder = spans.Recorder()
    tag = f"{workload}-{seed}"
    if workload == "serve-hm":
        import serve
        plain_pass = serve.run_pass(seed, probe, ops, seconds=None,
                                    rounds=rounds, setups=1)
        plain_pass.server.remove()
        server_spans = _trace_dir() / f"{tag}-server.npz"
        _install_client(recorder)
        recorder.wrap(HostProbe, "tick", spans.PROBE)
        try:
            traced = serve.run_pass(seed, probe, ops, seconds=None,
                                    rounds=rounds, setups=1,
                                    spans=server_spans, recorder=recorder)
        finally:
            recorder.unwrap_all()
        try:
            figures = serve.verify(seed, traced)
            layer = _serve_layers(traced, recorder, server_spans)
        finally:
            traced.server.remove()
    else:
        import inproc
        plain_pass = inproc.run_pass(workload, seed, probe, ops,
                                     seconds=None, rounds=rounds, setups=1)
        plain_pass.service.release()
        _install_inproc(recorder)
        recorder.wrap(HostProbe, "tick", spans.PROBE)
        try:
            traced = inproc.run_pass(workload, seed, probe, ops,
                                     seconds=None, rounds=rounds, setups=1,
                                     recorder=recorder)
        finally:
            recorder.unwrap_all()
        figures = inproc.verify(workload, seed, traced)
        layer = _inproc_layers(workload, traced, recorder)
        traced.service.release()
    recorder.dump(_trace_dir() / f"{tag}-client.npz")

    # One factor for every self time of the traced section: its rescaled
    # over raw program time.
    traced_scaled, traced_raw = traced.busy
    factor = traced_scaled / traced_raw
    values = {name: 0.0 for name, _unit in PER_LAYER}
    values.update(layer)
    values["trace.overhead_pct"] = (
        traced_scaled / plain_pass.busy[0] - 1.0) * 100.0
    values["host.probe_ms"] = probe.seconds * 1e3
    metrics = {}
    for name, unit in PER_LAYER:
        value = values[name]
        if unit.startswith("ref."):
            metrics[name] = (value * factor, unit, value)
        else:
            metrics[name] = plain(value, unit)
    figures.update(events=traced.events, rounds=traced.rounds,
                   untraced_busy_s=plain_pass.busy[1],
                   traced_busy_s=traced_raw)
    return metrics, figures


def _mean_ms(total: Dict[str, tuple], name: str) -> float:
    """Mean duration of the spans named ``name``, in ms (0 if none)."""
    seconds, count = total.get(name, (0.0, 0))
    return seconds / count * 1e3 if count else 0.0


def _inproc_layers(workload: str, traced, recorder: spans.Recorder
                   ) -> Dict[str, float]:
    ids, starts, ends, parents = recorder.arrays()
    names = recorder.names
    window = traced.section
    own = spans.self_times(names, ids, starts, ends, parents, window)
    total = spans.durations(names, ids, starts, ends)
    events = traced.events
    split = spans.layer_split(own)
    out = {f"{layer}.self_ms": seconds * 1e3
           for layer, seconds in split.items()}
    out["trace.unaccounted_ms"] = own.get(spans.ROOT, 0.0) * 1e3
    out["trace.section_ms"] = (window[1] - window[0]
                               - own.get(spans.PROBE, 0.0)) * 1e3
    per_event = 1e6 / events
    out["monitor.build_us_per_event"] = own.get("monitor.build", 0) * per_event
    out["monitor.cut_us_per_event"] = own.get("monitor.cut", 0) * per_event
    out["monitor.transactions"] = (
        traced.monitor_after["transactions_emitted"]
        - traced.monitor_before["transactions_emitted"])
    out["core.update_us_per_event"] = own.get("core.update", 0) * per_event
    for key, value in _decisions(traced.report_before,
                                 traced.report_after).items():
        out[f"core.{key}"] = value

    out["engine.restore_ms"] = _mean_ms(total, "engine.restore")
    out["engine.checkpoint_ms"] = _mean_ms(total, "engine.checkpoint")
    out["service.query_ms"] = _mean_ms(total, "service.query")
    if workload == "prefetch-wdev":
        accesses = recorder.calls["cache.access"]
        out["cache.partner_query_us"] = \
            _mean_ms(total, "cache.partner_query") * 1e3
        out["cache.pairs_examined_per_query"] = (
            recorder.values["cache.pairs_examined"]
            / max(1, recorder.calls["cache.pairs_examined"]))
        out["cache.access_us_per_access"] = \
            own.get("cache.access", 0) * 1e6 / max(1, accesses)
        out["cache.fill_us_per_access"] = \
            own.get("cache.fill", 0) * 1e6 / max(1, accesses)
        stats = traced.service.cache_stats
        out["cache.prefetch_accuracy"] = stats.prefetch_accuracy
    return out


def _serve_layers(traced, recorder: spans.Recorder, server_spans: Path
                  ) -> Dict[str, float]:
    from repro.telemetry.tracelog import read_trace_records

    window = traced.section
    events = traced.events
    per_event = 1e6 / events
    c_names = recorder.names
    c_ids, c_starts, c_ends, c_parents = recorder.arrays()
    client_own = spans.self_times(c_names, c_ids, c_starts, c_ends,
                                  c_parents, window)
    s_names, s_ids, s_starts, s_ends, s_parents = spans.load(server_spans)
    server_own = spans.self_times(s_names, s_ids, s_starts, s_ends,
                                  s_parents, window)
    server_total = spans.durations(s_names, s_ids, s_starts, s_ends, window)
    extra = json.loads(server_spans.with_suffix(".json").read_text())
    split = spans.layer_split(client_own)
    for layer, seconds in spans.layer_split(server_own).items():
        split[layer] += seconds
    section = window[1] - window[0] - client_own.get(spans.PROBE, 0.0)
    out = {f"{layer}.self_ms": seconds * 1e3
           for layer, seconds in split.items()}
    out["trace.section_ms"] = section * 1e3
    out["trace.unaccounted_ms"] = (section - sum(split.values())) * 1e3
    apply_s = sum(record["duration"] for record
                  in read_trace_records(str(traced.server.trace_log))
                  if record.get("name") == "shard.apply")
    out["monitor.build_us_per_event"] = \
        server_own.get("monitor.build", 0) * per_event
    out["monitor.cut_us_per_event"] = \
        server_own.get("monitor.cut", 0) * per_event
    out["monitor.transactions"] = \
        traced.stats["monitor"]["transactions_emitted"]
    # The core update runs inside the shard workers' shard.apply spans.
    out["core.update_us_per_event"] = apply_s * per_event
    for key, value in extra["counts"].items():
        out[f"core.{key}"] = value
    out["engine.route_us_per_event"] = \
        server_own.get("engine.route", 0) * per_event
    out["engine.shard_round_us_per_event"] = \
        server_own.get("engine.shard_round", 0) * per_event
    out["engine.shard_apply_us_per_event"] = apply_s * per_event
    out["engine.query_merge_ms"] = _mean_ms(server_total,
                                            "engine.query_merge")
    out["engine.checkpoint_ms"] = _mean_ms(
        spans.durations(s_names, s_ids, s_starts, s_ends),
        "engine.checkpoint")
    out["server.encode_us_per_event"] = \
        client_own.get("server.encode", 0) * per_event
    out["server.decode_us_per_event"] = \
        server_own.get("server.decode", 0) * per_event
    out["server.bytes_in_per_event"] = \
        recorder.values["server.encode"] / events
    out["resilience.wal_append_us_per_event"] = (
        server_own.get("resilience.wal_append", 0)
        + server_own.get("resilience.fsync", 0)) * per_event
    wal_bytes = sum(path.stat().st_size
                    for path in traced.server.wal_dir.glob("*.seg"))
    out["resilience.wal_bytes_per_event"] = wal_bytes / events
    out["resilience.wal_syncs"] = extra["calls"].get("resilience.fsync", 0)
    return out
