"""Tests of the benchmark itself (not part of the repo's tier-1 suite).

    python3 -m pytest perfbench/tests -q

Shrunk workloads keep these fast; the live test boots real node
processes on free local ports.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import hostspeed  # noqa: E402
import live  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Shrink every in-process workload to a few seconds in total."""
    monkeypatch.setitem(workloads.SIM_WORKLOADS, "sim-partial",
                        {**workloads.SIM_WORKLOADS["sim-partial"], "ops_per_process": 40})
    monkeypatch.setitem(workloads.SIM_WORKLOADS, "sim-full-chaos",
                        {**workloads.SIM_WORKLOADS["sim-full-chaos"], "ops_per_process": 30})
    monkeypatch.setattr(workloads, "LOOPBACK", {**workloads.LOOPBACK, "ops": 300})
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)


def test_benchmark_json_matches_the_catalog():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == catalog.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == catalog.PER_LAYER
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_expected_counters_cover_every_deterministic_workload():
    expected = run.load_expected()
    assert set(expected) == {*run.SIM, "loopback"}


@pytest.mark.parametrize("name", run.SIM)
def test_sim_counters_repeat_for_a_seed_and_move_with_it(small, name):
    a = workloads.sim_batch(name, 5)["counters"]
    b = workloads.sim_batch(name, 5)["counters"]
    c = workloads.sim_batch(name, 6)["counters"]
    assert a == b
    for key in ("sim.engine.events", "messages", "SM_bytes"):
        assert a[key] != c[key], key
    if name == "sim-full-chaos":
        assert a["retransmissions"] > 0
        assert a["retransmissions"] != c["retransmissions"]


def test_loopback_counters_repeat_for_a_seed_and_move_with_it(small):
    a, b, c = (workloads.loopback_batch(seed) for seed in (5, 5, 6))
    assert a["ok"] and b["ok"] and c["ok"]
    assert a["counters"] == b["counters"]
    assert a["wire_bytes"] / a["ops"] == b["wire_bytes"] / b["ops"]
    for key in ("service.codec.frames", "service.codec.bytes"):
        assert a["counters"][key] != c["counters"][key], key


def _traced(fn):
    """Run ``fn(recorder)`` with every entry point traced."""
    rec = tracing.Recorder()
    uninstall = tracing.install(rec)
    try:
        t0 = perf_counter()
        result = fn(rec)
        wall = perf_counter() - t0
    finally:
        uninstall()
    return rec, result, wall


def test_tracing_changes_no_counter_and_counts_the_same_work(small):
    plain = workloads.sim_batch("sim-full-chaos", 5)
    rec, traced, _ = _traced(lambda r: workloads.sim_batch("sim-full-chaos", 5, recorder=r))
    assert traced["counters"] == plain["counters"]
    layers = catalog.layer_metrics(rec, traced["counters"])
    assert layers["sim.engine.events"] == plain["counters"]["sim.engine.events"]
    assert layers["sim.network.messages"] == plain["counters"]["messages"]
    assert layers["sim.reliable.retransmissions"] == plain["counters"]["retransmissions"]
    assert layers["sim.faults.drops"] == plain["counters"]["injected_drops"]
    rec, looped, _ = _traced(lambda r: workloads.loopback_batch(5))
    layers = catalog.layer_metrics(rec, looped["extras"])
    assert layers["service.codec.frames"] == looped["counters"]["service.codec.frames"]
    assert layers["service.codec.bytes"] == looped["counters"]["service.codec.bytes"]


@pytest.mark.parametrize("name", [*run.SIM, "loopback"])
def test_traced_self_times_sum_to_within_the_traced_wall_time(small, name):
    rec, _, wall = _traced(lambda r: workloads.loopback_batch(5) if name == "loopback"
                           else workloads.sim_batch(name, 5, recorder=r))
    total = sum(rec.self_s.values())
    assert 0 < total <= wall
    assert all(v >= 0 for v in rec.self_s.values())


def test_tracing_restores_every_entry_point():
    from repro.core import opt_track
    from repro.service import loopback

    before = (opt_track.opt_track_entries_ready, loopback.dumps,
              workloads.CausalProtocol.__dict__["write"])
    uninstall = tracing.install(tracing.Recorder())
    assert opt_track.opt_track_entries_ready is not before[0]  # aliases are wrapped
    assert loopback.dumps is not before[1]
    uninstall()
    after = (opt_track.opt_track_entries_ready, loopback.dumps,
             workloads.CausalProtocol.__dict__["write"])
    assert after == before


def test_a_missing_entry_point_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracing, "ENTRY_POINTS", [
        ("core.log", "repro.core.log", "OptTrackLog", ("no_such_method",), False, {})])
    with pytest.raises(tracing.TraceError, match="no_such_method"):
        tracing.install(tracing.Recorder())


def _node_pids_alive(pids: list[int]) -> list[int]:
    return [pid for pid in pids if Path(f"/proc/{pid}").exists()
            and "Z" not in Path(f"/proc/{pid}/stat").read_text().split(")")[-1][:3]]


def test_no_node_process_survives_a_live_run(tmp_path, monkeypatch):
    clusters = []
    real = live.Cluster

    class Spy(real):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            clusters.append(self)

    monkeypatch.setattr(live, "Cluster", Spy)
    monkeypatch.setitem(live.LIVE, "ops_per_client", 50)
    result = live.live_batch(5, tmp_path / "ok", ROOT / "src")
    assert result["ok"] and result["ops"] > 0 and result["wire_bytes"] > 0
    assert result["verify_events"] > 0

    def boom(*_args):
        raise RuntimeError("client crashed")

    monkeypatch.setattr(live, "_drive", boom)
    with pytest.raises(RuntimeError, match="client crashed"):
        live.live_batch(5, tmp_path / "boom", ROOT / "src")
    pids = [p.pid for c in clusters for p in c.procs]
    assert len(pids) == 2 * live.LIVE["n_sites"]
    assert _node_pids_alive(pids) == []
    assert not (tmp_path / "ok").exists() and not (tmp_path / "boom").exists()


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loopback", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _batch(scale: float = 1.0, **overrides) -> dict:
    """A batch result whose reference-speed times are ``scale`` times its
    measured ones."""
    times = {"op_wall_s": 2.0, "setup_s": [0.2], "put_ms": [4.0] * 100,
             "get_ms": [2.0] * 100, "verify_s": [1.0], **overrides}
    ref = {k: v * scale if isinstance(v, float) else [x * scale for x in v]
           for k, v in times.items()}
    return {"ok": True, "ops": 100, "failed": 0, "speed_factor": scale,
            "wire_bytes": 1000, "peak_rss_mb": 50.0, **times, "ref": ref}


class _ScriptedSpeed:
    def __init__(self, samples: list[float]) -> None:
        self._samples = iter(samples)

    def sample(self) -> float:
        return next(self._samples)


def test_chunk_clock_scales_each_chunk_by_the_samples_around_it(monkeypatch):
    ref = hostspeed.REFERENCE_S
    ticks = iter([0.0, 1.0, 1.5, 3.5, 4.0])  # start, then (cut, after sample) twice
    monkeypatch.setattr(hostspeed, "perf_counter", lambda: next(ticks))
    puts: list[float] = []
    clock = hostspeed.ChunkClock(_ScriptedSpeed([ref, 2 * ref, 2 * ref]), puts)
    clock.start()
    puts.append(3.0)
    clock.cut()  # a 1-s chunk between samples ref and 2ref: scale 2/3
    puts.append(4.0)
    clock.cut()  # a 2-s chunk between two 2ref samples: scale 1/2
    assert clock.wall_s() == 3.0 and clock.paused_s == 1.0
    assert clock.wall_at_reference_s() == pytest.approx(1 * 2 / 3 + 2 * 0.5)
    assert clock.series_at_reference(0) == pytest.approx([2.0, 2.0])


def test_host_speed_factor_and_reference_rows():
    speed = hostspeed.HostSpeed()
    assert speed.factor() == 1.0
    speed.samples = [2 * hostspeed.REFERENCE_S] * 3
    assert speed.factor() == pytest.approx(0.5)
    assert hostspeed.HostSpeed(enabled=False).sample() == hostspeed.REFERENCE_S
    # a host running at half the reference speed: times halve, rates double
    b = _batch(scale=0.5)
    rows = run.metric_rows([b], [b], at_reference_speed=True)
    raw = run.metric_rows([b], [b], at_reference_speed=False)
    assert rows["ops_per_s"][0] == pytest.approx(2 * raw["ops_per_s"][0]) == pytest.approx(100)
    for metric in ("setup_s", "put_p50_ms", "get_p99_ms", "verify_s"):
        assert rows[metric][0] == pytest.approx(raw[metric][0] / 2), metric
    for metric in ("wire_bytes_per_op", "peak_rss_mb"):
        assert rows[metric] == raw[metric], metric


def test_one_slow_batch_does_not_set_the_run_tail():
    calm = [_batch(), _batch()]
    stormy = _batch(put_ms=[4.0] * 90 + [400.0] * 10)
    rows = run.metric_rows([*calm, stormy], [*calm, stormy], at_reference_speed=True)
    assert rows["put_p99_ms"][0] == 4.0
    assert rows["put_p50_ms"][0] == 4.0


def test_speed_sampling_is_not_timed(small, monkeypatch):
    """The op phase excludes the time spent sampling the host's speed."""
    plain = workloads.loopback_batch(5, verify=False, sample_speed=False)

    def slow_sample(self):
        time.sleep(0.5)
        self.samples.append(hostspeed.REFERENCE_S)
        return hostspeed.REFERENCE_S

    monkeypatch.setattr(hostspeed.HostSpeed, "sample", slow_sample)
    sampled = workloads.loopback_batch(5, verify=False)
    assert sampled["counters"] == plain["counters"]
    assert sampled["speed_factor"] == 1.0
    assert sampled["op_wall_s"] < plain["op_wall_s"] + 0.25  # one 0.5-s sample ran
    assert max(sampled["setup_s"]) < 0.25


def test_tail_has_ten_samples_beyond_it():
    xs = [float(i) for i in range(1000)]
    label, value = run.tail(xs, "high")
    assert label == "p99" and sum(x > value for x in xs) >= 10
    assert run.tail([3.0, 1.0, 2.0], "low") == ("worst", 1.0)
