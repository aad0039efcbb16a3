"""The in-process workloads: two simulator runs and the loopback cluster.

Each ``*_batch`` function runs one sample of its workload in the
current process and returns a JSON-ready dict.  The caller runs every
batch in a fresh process (see ``worker.py``), because state left by one
batch -- allocator growth, interned caches -- slows the next.

Inputs come only from the seed: the simulator's workload and latency
draws, the fault seed derived from it, and the loopback op plan.
Batches of one run share the seed, so their exact counters must agree.

Every batch samples the host's speed (``hostspeed.py``) around each
timed region and every ``CHUNK_OPS`` operations of the op phase, and
returns its times twice: as measured, and under ``"ref"`` at the
reference speed.  Sampling time is excluded from every timed region.
"""

from __future__ import annotations

import gc
import hashlib
import resource
from contextlib import nullcontext
from random import Random
from time import perf_counter
from typing import Callable, Optional

from repro.core.base import CausalProtocol
from repro.experiments.runner import SimulationConfig, run_simulation
from repro.service import loopback as loopback_mod
from repro.service.bootstrap import build_placement, default_topology
from repro.service.history import dump_events, merge_event_lists
from repro.sim.faults import FaultPlan
from repro.verify import causal_checker
from repro.workload import generator
from hostspeed import ChunkClock, HostSpeed
from tracing import Recorder

__all__ = ["SIM_WORKLOADS", "LOOPBACK", "OpTimer", "fault_seed", "sim_config",
           "sim_batch", "sim_counters", "loopback_plan", "loopback_batch", "peak_rss_mb"]

#: set-up is repeated this many times per batch; the median is reported
SETUP_REPEATS = 5
#: operations between two samples of the host's speed
CHUNK_OPS = 200

SIM_WORKLOADS: dict[str, dict] = {
    # the paper's partial-replication headline: Opt-Track, n=20, p=0.3n
    "sim-partial": {
        "protocol": "opt-track", "n_sites": 20, "replication_factor": 6,
        "n_vars": 100, "write_rate": 0.5, "ops_per_process": 600,
        "chaos": False, "verify_ops": 60,
    },
    # full replication under message loss: kernel, network, reliable channel
    "sim-full-chaos": {
        "protocol": "optp", "n_sites": 20, "replication_factor": None,
        "n_vars": 100, "write_rate": 0.5, "ops_per_process": 200,
        "chaos": True, "verify_ops": 25,
    },
}

#: in-process service cluster: real codec and channels, no sockets
LOOPBACK = {
    "protocol": "opt-track", "n_sites": 10, "replication_factor": 3,
    "n_vars": 100, "write_fraction": 0.5, "ops": 3000, "step_ms": 1.0,
}


def fault_seed(seed: int) -> int:
    """The fault-injector seed derived from the workload seed."""
    return (seed * 2_654_435_761 + 97) % (1 << 32)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class OpTimer:
    """Wall time of every write/read call a simulated site makes into its
    protocol.  A remote read's wait for its reply is simulated time, so
    only the call itself is timed.  Every ``CHUNK_OPS``-th call ends a
    chunk of ``clock``."""

    def __init__(self, speed: HostSpeed) -> None:
        self.put_ms: list[float] = []
        self.get_ms: list[float] = []
        self.clock = ChunkClock(speed, self.put_ms, self.get_ms)
        self._calls = 0
        self._undo: list[tuple[type, str, Callable]] = []

    def _after_call(self) -> None:
        self._calls += 1
        if self._calls % CHUNK_OPS == 0:
            self.clock.cut()

    def install_on_protocols(self) -> None:
        for attr, sink in (("write", self.put_ms), ("read", self.get_ms)):
            original = CausalProtocol.__dict__[attr]

            def timed(*args, __fn=original, __sink=sink, **kwargs):
                t0 = perf_counter()
                try:
                    return __fn(*args, **kwargs)
                finally:
                    __sink.append((perf_counter() - t0) * 1000.0)
                    self._after_call()

            self._undo.append((CausalProtocol, attr, original))
            setattr(CausalProtocol, attr, timed)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def sim_config(name: str, seed: int, *, ops_per_process: Optional[int] = None,
               record_history: bool = False) -> SimulationConfig:
    spec = SIM_WORKLOADS[name]
    return SimulationConfig(
        protocol=spec["protocol"],
        n_sites=spec["n_sites"],
        replication_factor=spec["replication_factor"],
        n_vars=spec["n_vars"],
        write_rate=spec["write_rate"],
        ops_per_process=ops_per_process or spec["ops_per_process"],
        seed=seed,
        fault_plan=(FaultPlan.uniform(drop_rate=0.05, dup_rate=0.02)
                    if spec["chaos"] else None),
        fault_seed=fault_seed(seed),
        record_history=record_history,
    )


def _generate(config: SimulationConfig):
    return generator.generate_workload(
        config.n_sites, n_vars=config.n_vars, write_rate=config.write_rate,
        ops_per_process=config.ops_per_process, gap_range_ms=config.gap_range_ms,
        seed=config.seed,
    )


def _protocol_extras(protocols: list) -> dict:
    """End-of-run protocol state the traced run reports per layer."""
    logs = [getattr(p, "log", None) for p in protocols]
    return {
        "core.activation.peak_buffered": max(p.pending_sm_peak for p in protocols),
        "core.log.final_entries_mean": sum(p.log_size() for p in protocols) / len(protocols),
        "core.log.purged_records": sum(getattr(log, "purged_records", 0) for log in logs),
    }


def _certify(out: dict, history, placement, speed: HostSpeed) -> None:
    """Add the causal checker's verdict on one history, and its time, to
    a batch's result."""
    gc.collect()
    report, elapsed, at_ref = speed.timed(
        lambda: causal_checker.check_causal_consistency(history, placement))
    out.update({"ok": report.ok, "verify_s": [elapsed], "verify_events": len(history),
                "violations": [str(v) for v in report.violations[:5]]})
    out["ref"]["verify_s"] = [at_ref]


def _timed_setup(speed: HostSpeed, build: Callable[[], object]) -> tuple[object, list, list]:
    """``build()`` ``SETUP_REPEATS`` times; returns the last result and its
    times as measured and at reference speed."""
    built, measured, at_ref = None, [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # start every timed region from the same heap state
        built, elapsed, scaled = speed.timed(build)
        measured.append(elapsed)
        at_ref.append(scaled)
    return built, measured, at_ref


def sim_batch(name: str, seed: int, verify: bool = True,
              recorder: Optional[Recorder] = None) -> dict:
    """One whole seeded simulation run (strict completion is its check),
    then, if ``verify``, a shortened run of the same workload certified
    by the causal checker.

    The checker is superlinear in history length, so the full batch is
    certified once, offline (``record_expected.py``); a run certifies a
    shortened history of the same protocol, placement and seed, and its
    other batches must repeat the first one's exact counters.
    """
    config = sim_config(name, seed)
    # a traced batch reports per-layer time, not host speed: no kernel runs
    speed = HostSpeed(enabled=recorder is None)
    workload, setup_s, setup_ref = _timed_setup(speed, lambda: _generate(config))
    timer = OpTimer(speed)
    timer.install_on_protocols()
    try:
        gc.collect()
        timer.clock.start()
        result = run_simulation(config, workload=workload)  # strict: raises on a stall
        timer.clock.cut()
    finally:
        timer.uninstall()
    clock = timer.clock
    rss_mb = peak_rss_mb()
    wire_bytes = sum(t.lifetime_bytes for t in result.collector.tallies.values())
    out = {
        "ok": True, "ops": workload.total_operations, "failed": 0,
        "op_wall_s": clock.wall_s(), "setup_s": setup_s,
        "put_ms": timer.put_ms, "get_ms": timer.get_ms, "verify_s": [],
        "ref": {"op_wall_s": clock.wall_at_reference_s(), "setup_s": setup_ref,
                "put_ms": clock.series_at_reference(0),
                "get_ms": clock.series_at_reference(1), "verify_s": []},
        "speed_factor": speed.factor(),
        "wire_bytes": wire_bytes, "peak_rss_mb": rss_mb, "counters": sim_counters(result),
        "extras": _protocol_extras(result.protocols),
    }
    del result
    if verify:
        with recorder.paused() if recorder is not None else nullcontext():
            short = run_simulation(sim_config(
                name, seed, ops_per_process=SIM_WORKLOADS[name]["verify_ops"],
                record_history=True))
        _certify(out, short.history, short.placement, speed)
    return out


def sim_counters(result) -> dict:
    """Exact counts of one run: they repeat for a seed and move with it."""
    collector = result.collector
    counters = {"sim.engine.events": result.total_sim_events,
                "messages": collector.lifetime_message_count}
    for kind, tally in sorted(collector.tallies.items(), key=lambda kv: kv[0].value):
        counters[f"{kind.value}_count"] = tally.lifetime_count
        counters[f"{kind.value}_bytes"] = tally.lifetime_bytes
    counters["retransmissions"] = collector.retransmissions
    counters["injected_drops"] = collector.injected_drops
    return counters


def loopback_plan(seed: int) -> list[tuple[int, bool, int, object]]:
    """(site, is_write, var, value) per op; sites take turns, any site
    writes any variable, variables are uniform."""
    spec = LOOPBACK
    rng = Random(seed)
    n, q = spec["n_sites"], spec["n_vars"]
    plan = []
    for k in range(spec["ops"]):
        site = k % n
        is_write = rng.random() < spec["write_fraction"]
        var = rng.randrange(q)
        plan.append((site, is_write, var, f"s{site}k{k}" if is_write else None))
    return plan


class _FrameBytes:
    """Counts the encoded peer frames the loopback hub moves."""

    def __init__(self, dumps: Callable[[object], bytes]) -> None:
        self._dumps = dumps
        self.frames = 0
        self.bytes = 0

    def __call__(self, obj: object) -> bytes:
        data = self._dumps(obj)
        self.frames += 1
        self.bytes += len(data)
        return data


def loopback_batch(seed: int, verify: bool = True, sample_speed: bool = True) -> dict:
    """One loopback run: op phase, settle, then, if ``verify``, the causal
    checker.  The history's digest is an exact counter, so a batch that
    repeats a certified batch's counters repeats its certified history."""
    spec = LOOPBACK
    topology = default_topology(spec["n_sites"], protocol=spec["protocol"],
                                n_vars=spec["n_vars"],
                                replication_factor=spec["replication_factor"])
    plan = loopback_plan(seed)
    speed = HostSpeed(enabled=sample_speed)
    cluster, setup_s, setup_ref = _timed_setup(
        speed, lambda: loopback_mod.LoopbackCluster(topology))
    assert isinstance(cluster, loopback_mod.LoopbackCluster)
    hub_dumps = loopback_mod.dumps
    wire = _FrameBytes(hub_dumps)
    loopback_mod.dumps = wire
    put_ms: list[float] = []
    get_ms: list[float] = []
    step = spec["step_ms"]
    clock = ChunkClock(speed, put_ms, get_ms)
    try:
        gc.collect()
        clock.start()
        for k, (site, is_write, var, value) in enumerate(plan):
            if k and k % CHUNK_OPS == 0:
                clock.cut()
            t0 = perf_counter()
            if is_write:
                cluster.put(site, var, value)
                put_ms.append((perf_counter() - t0) * 1000.0)
            else:
                cluster.get(site, var)
                get_ms.append((perf_counter() - t0) * 1000.0)
            cluster.clock.advance(step)
        cluster.settle()
        clock.cut()
    finally:
        loopback_mod.dumps = hub_dumps
    rss_mb = peak_rss_mb()
    history = merge_event_lists(cluster.histories())
    counters = {"service.codec.frames": wire.frames, "service.codec.bytes": wire.bytes,
                "history_events": len(history),
                "history_sha256": hashlib.sha256(
                    dump_events(history.events).encode()).hexdigest()}
    for node in cluster.nodes:
        for kind, tally in node.collector.tallies.items():
            for suffix, value in (("count", tally.lifetime_count),
                                  ("bytes", tally.lifetime_bytes)):
                key = f"{kind.value}_{suffix}"
                counters[key] = counters.get(key, 0) + value
    channels = [ch for t in cluster.transports for ch in t._channels.values()]
    extras = _protocol_extras([node.protocol for node in cluster.nodes])
    extras["service.channel.retransmissions"] = sum(ch.retransmissions for ch in channels)
    out = {
        "ok": True, "ops": len(plan), "failed": 0,
        "op_wall_s": clock.wall_s(), "setup_s": setup_s,
        "put_ms": put_ms, "get_ms": get_ms, "verify_s": [],
        "ref": {"op_wall_s": clock.wall_at_reference_s(), "setup_s": setup_ref,
                "put_ms": clock.series_at_reference(0),
                "get_ms": clock.series_at_reference(1), "verify_s": []},
        "speed_factor": speed.factor(),
        "wire_bytes": wire.bytes, "peak_rss_mb": rss_mb, "counters": counters,
        "extras": extras,
    }
    if verify:
        _certify(out, history, build_placement(topology), speed)
    return out
