"""Metric names and units, and the per-layer numbers of a traced batch.

``END_TO_END`` and ``PER_LAYER`` are the names ``BENCHMARK.json``
declares; ``tests/test_perfbench.py`` keeps the two in step.
"""

from __future__ import annotations

import statistics

from tracing import Recorder, layer_names

__all__ = ["END_TO_END", "PER_LAYER", "TABLE_ONLY", "layer_metrics", "ratio"]

#: name -> unit; reported with --trace 0 on every workload
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "put_p50_ms": "ms",
    "put_p99_ms": "ms",
    "get_p50_ms": "ms",
    "get_p99_ms": "ms",
    "wire_bytes_per_op": "B/op",
    "peak_rss_mb": "MB",
}

#: printed in the table but not in the JSON: the checker's time spread
#: 0.29-0.57 (IQR / median over ten seeds) on a shared 2-core host, more
#: than the largest bound a gated metric may have
TABLE_ONLY: dict[str, str] = {"verify_s": "s"}

_SELF_TIMED = layer_names()

#: name -> unit; reported with --trace 1 on every workload (0 where the
#: workload does not exercise the layer)
PER_LAYER: dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in _SELF_TIMED},
    "sim.engine.events": "count",
    "sim.network.messages": "count",
    "sim.reliable.retransmissions": "count",
    "sim.reliable.useful_ratio": "ratio",
    "sim.faults.drops": "count",
    "core.base.ops": "count",
    "core.base.deliveries": "count",
    "core.activation.checks": "count",
    "core.activation.ready_ratio": "ratio",
    "core.activation.peak_buffered": "count",
    "core.log.calls": "count",
    "core.log.final_entries_mean": "count",
    "core.log.purged_records": "count",
    "core.clocks.merges": "count",
    "metrics.stats.samples": "count",
    "service.codec.frames": "count",
    "service.codec.bytes": "B",
    "service.channel.frames_sent": "count",
    "service.channel.retransmissions": "count",
    "service.channel.useful_ratio": "ratio",
    "service.runtime.timer_fires": "count",
    "service.api.connect_p50_ms": "ms",
    "service.api.response_p50_ms": "ms",
    "service.node.cpu_ms_per_op": "ms/op",
    "service.node.rss_mb": "MB",
    "verify.events": "count",
    "loadgen.cpu_ms_per_op": "ms/op",
    "trace.overhead": "ratio",
    "trace.wall_s": "s",
}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, extras: dict) -> dict[str, float]:
    """The per-layer metrics one traced batch measured (no trace.* yet).

    ``extras`` carries what the batch read from program state at the
    end (peak buffer depth, final log sizes, live-node /proc numbers).
    """
    c = rec.counts
    out: dict[str, float] = {f"{layer}.self_s": rec.self_s.get(layer, 0.0)
                             for layer in _SELF_TIMED}
    out.update({
        "sim.engine.events": extras.get("sim.engine.events", 0),
        "sim.network.messages": c.get("sim.network.messages", 0),
        "sim.reliable.retransmissions": c.get("sim.reliable.retransmissions", 0),
        "sim.reliable.useful_ratio": ratio(c.get("sim.reliable.app_deliveries", 0),
                                           c.get("sim.reliable.data_sends", 0)),
        "sim.faults.drops": c.get("sim.faults.drops", 0),
        "core.base.ops": c.get("core.base.ops", 0) + c.get("core.base.ops_read", 0),
        "core.base.deliveries": c.get("core.base.deliveries", 0),
        "core.activation.checks": c.get("core.activation.checks", 0),
        "core.activation.ready_ratio": ratio(c.get("core.activation.ready", 0),
                                             c.get("core.activation.checks", 0)),
        "core.activation.peak_buffered": extras.get("core.activation.peak_buffered", 0),
        "core.log.calls": c.get("core.log.calls", 0),
        "core.log.final_entries_mean": extras.get("core.log.final_entries_mean", 0),
        "core.log.purged_records": extras.get("core.log.purged_records", 0),
        "core.clocks.merges": c.get("core.clocks.merges", 0),
        "metrics.stats.samples": (c.get("metrics.stats.samples", 0)
                                  + c.get("metrics.stats.samples_many", 0)),
        "service.codec.frames": c.get("service.codec.frames", 0),
        "service.codec.bytes": c.get("service.codec.bytes", 0),
        "service.channel.frames_sent": c.get("service.channel.frames_sent", 0),
        "service.channel.retransmissions": extras.get("service.channel.retransmissions", 0),
        "service.runtime.timer_fires": c.get("service.runtime.timer_fires", 0),
        "verify.events": extras.get("verify.events", 0),
    })
    # data frames handed to the wire, first sends plus retransmissions
    out["service.channel.frames_sent"] += out["service.channel.retransmissions"]
    out["service.channel.useful_ratio"] = ratio(
        c.get("service.channel.app_deliveries", 0), out["service.channel.frames_sent"])
    for key in ("service.api.connect_ms", "service.api.response_ms"):
        samples = extras.get(key) or []
        out[key.replace("_ms", "_p50_ms")] = statistics.median(samples) if samples else 0.0
    for key in ("service.node.cpu_ms_per_op", "service.node.rss_mb",
                "loadgen.cpu_ms_per_op"):
        out[key] = extras.get(key, 0.0)
    return out
