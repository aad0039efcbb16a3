"""The live-tcp workload: real node processes, sockets and HTTP.

One batch boots a fresh 3-node cluster on ports chosen at run time,
drives it with closed-loop clients through a fixed, seeded op plan (a
fixed history size keeps the checker's time comparable between
batches), waits for quiescence, reads each
node's CPU time and memory from ``/proc`` and its peer-link byte counts
from ``ss``, certifies the merged history with the causal checker, and
tears the cluster down -- on every exit path, including errors,
timeouts, SIGTERM and Ctrl-C.

Closed loop: each client drives one site and sends its next request
only after the previous reply, because each site is a sequential
application process that waits for its reply (paper Section II).
The clients run their plans in chunks of ``CHUNK_OPS_PER_CLIENT`` ops;
between two chunks, with no request in flight, the batch samples the
host's speed (``hostspeed.py``), and that time is not measured.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path
from random import Random
from time import perf_counter

from repro.service.bootstrap import (
    ClusterTopology, NodeSpec, build_placement, save_topology,
)
from repro.service.history import load_events, merge_event_lists
from repro.service.loadgen import http_request
from repro.verify import causal_checker
from hostspeed import ChunkClock, HostSpeed

__all__ = ["LIVE", "live_batch", "Cluster"]

LIVE = {
    "protocol": "opt-track", "n_sites": 3, "n_vars": 30, "replication_factor": 2,
    "clients": (0, 1), "write_fraction": 0.5, "ops_per_client": 1000,
}

BOOT_TIMEOUT_S = 30.0
SETTLE_TIMEOUT_S = 30.0
#: a request that takes longer than this counts as failed (timeout)
REQUEST_TIMEOUT_S = 10.0
#: ops each client runs between two samples of the host's speed
CHUNK_OPS_PER_CLIENT = 100
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def free_ports(n: int) -> list[int]:
    """Ports the kernel hands out as free right now (bound, then released)."""
    socks = []
    try:
        for _ in range(n):
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from /proc/<pid>/stat."""
    text = Path(f"/proc/{pid}/stat").read_text()
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_mem_mb(pid: int) -> tuple[float, float]:
    """(current RSS, peak RSS) in MB, from /proc/<pid>/status."""
    rss = hwm = 0.0
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            rss = int(line.split()[1]) / 1024.0
        elif line.startswith("VmHWM:"):
            hwm = int(line.split()[1]) / 1024.0
    return rss, hwm


def peer_bytes_received(peer_ports: set[int]) -> int:
    """TCP payload bytes received on accepted peer links (``ss -tin``).

    A link from node i to node j is dialled by i; the socket j accepted
    has j's peer port as its local port, and its ``bytes_received`` is
    every framed byte i sent j, length prefixes included.
    """
    out = subprocess.run(["ss", "-tinH"], capture_output=True, text=True,
                         check=True, timeout=10).stdout
    total = 0
    local_port = None
    for line in out.splitlines():
        if not line[:1].isspace():
            addrs = [tok for tok in line.split() if ":" in tok]
            local_port = int(addrs[0].rsplit(":", 1)[1]) if len(addrs) >= 2 else None
            continue
        if local_port in peer_ports:
            for tok in line.split():
                if tok.startswith("bytes_received:"):
                    total += int(tok.split(":", 1)[1])
    return total


class Cluster:
    """A fresh node process per site; ``close`` always reaps them all."""

    def __init__(self, run_dir: Path, src_dir: Path) -> None:
        spec = LIVE
        n = spec["n_sites"]
        ports = free_ports(2 * n)
        self.topology = ClusterTopology(
            protocol=spec["protocol"], n_vars=spec["n_vars"],
            replication_factor=spec["replication_factor"],
            nodes=tuple(NodeSpec(site=i, host="127.0.0.1", peer_port=ports[i],
                                 http_port=ports[n + i]) for i in range(n)),
        )
        self.run_dir = run_dir
        self.src_dir = src_dir
        self.procs: list[subprocess.Popen] = []
        self._logs: list = []

    def boot(self) -> float:
        """Start every node; returns seconds until every /status is 200."""
        self.run_dir.mkdir(parents=True, exist_ok=True)
        topo_path = self.run_dir / "topology.json"
        save_topology(self.topology, topo_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src_dir), env.get("PYTHONPATH")) if p)
        t0 = perf_counter()
        for node in self.topology.nodes:
            log = (self.run_dir / f"node-{node.site}.log").open("w")
            self._logs.append(log)
            self.procs.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "_node", "--topology", str(topo_path),
                 "--site", str(node.site)],
                stdout=subprocess.DEVNULL, stderr=log, env=env))
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            for p in self.procs:
                if p.poll() is not None:
                    raise RuntimeError(f"node exited during boot: {self.log_tail()}")
            if asyncio.run(self._all_ready()):
                return perf_counter() - t0
            time.sleep(0.01)
        raise RuntimeError(f"cluster not ready after {BOOT_TIMEOUT_S}s")

    async def _all_ready(self) -> bool:
        for node in self.topology.nodes:
            try:
                status, _ = await http_request(node.host, node.http_port, "GET", "/status")
            except OSError:
                return False
            if status != 200:
                return False
        return True

    def log_tail(self) -> str:
        tails = []
        for path in sorted(self.run_dir.glob("node-*.log")):
            tails.append(f"{path.name}: {path.read_text()[-400:]}")
        return " | ".join(tails)

    def cpu_s(self) -> float:
        return sum(proc_cpu_s(p.pid) for p in self.procs)

    def mem_mb(self) -> tuple[float, float]:
        mems = [proc_mem_mb(p.pid) for p in self.procs]
        return sum(m[0] for m in mems), sum(m[1] for m in mems)

    def close(self) -> None:
        for p in self.procs:
            if p.poll() is None:
                p.terminate()
        for p in self.procs:
            try:
                p.wait(timeout=5)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait(timeout=5)
        for log in self._logs:
            log.close()
        shutil.rmtree(self.run_dir, ignore_errors=True)


class _ClientStats:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.sheds = 0
        self.errors: list[str] = []
        self.put_ms: list[float] = []
        self.get_ms: list[float] = []
        self.connect_ms: list[float] = []
        self.response_ms: list[float] = []
        #: sites whose client lost a reply and so stopped
        self.stopped: set[int] = set()


async def _request(host: str, port: int, head: bytes, stats: _ClientStats) -> int:
    """One HTTP call on a fresh connection (the API closes each one),
    timed as connect + response; returns the status code."""
    t0 = perf_counter()
    reader, writer = await asyncio.open_connection(host, port)
    t1 = perf_counter()
    try:
        writer.write(head)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    t2 = perf_counter()
    stats.connect_ms.append((t1 - t0) * 1000.0)
    stats.response_ms.append((t2 - t1) * 1000.0)
    line = raw.split(b"\r\n", 1)[0].split()
    if len(line) < 2:
        raise ConnectionError(f"malformed HTTP response: {raw[:80]!r}")
    return int(line[1])


def _client_plan(seed: int, site: int, n_vars: int) -> list[tuple[bool, int]]:
    """(is_write, var) per op of one site's client; variables are uniform."""
    rng = Random((seed * 1_000_003) ^ (site + 1))
    plan = []
    for _ in range(LIVE["ops_per_client"]):
        is_write = rng.random() < LIVE["write_fraction"]
        plan.append((is_write, rng.randrange(n_vars)))
    return plan


async def _client(topology: ClusterTopology, site: int, plan: list[tuple[bool, int]],
                  first: int, stats: _ClientStats) -> None:
    """Ops ``first`` to ``first + CHUNK_OPS_PER_CLIENT`` of one site's plan."""
    node = topology.node(site)
    for k in range(first, min(first + CHUNK_OPS_PER_CLIENT, len(plan))):
        is_write, var = plan[k]
        if is_write:
            body = json.dumps({"value": f"s{site}k{k}"}).encode()
            head = (f"PUT /kv/{var} HTTP/1.1\r\nHost: {node.host}\r\n"
                    f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
                    ).encode() + body
        else:
            head = (f"GET /kv/{var} HTTP/1.1\r\nHost: {node.host}\r\n"
                    f"Content-Length: 0\r\nConnection: close\r\n\r\n").encode()
        stats.attempted += 1
        t0 = perf_counter()
        try:
            status = await asyncio.wait_for(
                _request(node.host, node.http_port, head, stats), REQUEST_TIMEOUT_S)
        except (OSError, asyncio.TimeoutError) as exc:
            stats.failed += 1
            stats.errors.append(f"site {site}: {'PUT' if is_write else 'GET'} x{var}: {exc!r}")
            stats.stopped.add(site)
            return  # a site that lost a reply cannot keep program order
        elapsed_ms = (perf_counter() - t0) * 1000.0
        if status == 200:
            (stats.put_ms if is_write else stats.get_ms).append(elapsed_ms)
        else:
            stats.failed += 1
            if status == 503:
                stats.sheds += 1
            else:
                stats.errors.append(f"site {site}: {'PUT' if is_write else 'GET'} "
                                    f"x{var} -> {status}")


async def _drive(topology: ClusterTopology, seed: int, stats: _ClientStats,
                 clock: ChunkClock) -> None:
    """Every client's plan, chunk by chunk, with a cut of ``clock``
    between chunks and at the end."""
    plans = {site: _client_plan(seed, site, topology.n_vars) for site in LIVE["clients"]}
    clock.start()
    for first in range(0, LIVE["ops_per_client"], CHUNK_OPS_PER_CLIENT):
        await asyncio.gather(*(_client(topology, site, plan, first, stats)
                               for site, plan in plans.items()
                               if site not in stats.stopped))
        clock.cut()


async def _settle_and_fetch(topology: ClusterTopology) -> list | None:
    """Poll /status until every node is drained twice in a row, then
    download every node's history; None if the cluster never settles."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + SETTLE_TIMEOUT_S
    stable = 0
    while stable < 2:
        if loop.time() > deadline:
            return None
        idle = True
        for node in topology.nodes:
            status, body = await http_request(node.host, node.http_port, "GET", "/status")
            data = json.loads(body)
            if status != 200 or data["pending_protocol"] or data["pending_channel"]:
                idle = False
        stable = stable + 1 if idle else 0
        await asyncio.sleep(0.02)
    per_site = []
    for node in topology.nodes:
        status, body = await http_request(node.host, node.http_port, "GET", "/history")
        if status != 200:
            raise RuntimeError(f"site {node.site}: /history -> {status}")
        per_site.append(load_events(body.decode("utf-8")))
    return per_site


def live_batch(seed: int, run_dir: Path, src_dir: Path, sample_speed: bool = True) -> dict:
    """Boot, drive the clients' op plans, settle, measure, verify, tear down."""
    cluster = Cluster(run_dir, src_dir)
    speed = HostSpeed(enabled=sample_speed)
    stats = _ClientStats()
    clock = ChunkClock(speed, stats.put_ms, stats.get_ms)
    try:
        _, setup_s, setup_ref = speed.timed(cluster.boot)
        cpu0 = cluster.cpu_s()
        gc.collect()
        own0 = time.process_time()
        asyncio.run(_drive(cluster.topology, seed, stats, clock))
        own_cpu = time.process_time() - own0 - clock.paused_s  # sampling is CPU-bound
        node_cpu = cluster.cpu_s() - cpu0
        per_site = asyncio.run(_settle_and_fetch(cluster.topology))
        ok = per_site is not None
        violations: list[str] = [] if ok else ["cluster failed to quiesce"]
        rss_mb, hwm_mb = cluster.mem_mb()
        peer_ports = {node.peer_port for node in cluster.topology.nodes}
        wire = peer_bytes_received(peer_ports)
    finally:
        cluster.close()
    verify_s: list[float] = []
    verify_ref: list[float] = []
    events = 0
    if ok:
        history = merge_event_lists(per_site)
        events = len(history)
        gc.collect()
        report, elapsed, at_ref = speed.timed(lambda: causal_checker.check_causal_consistency(
            history, build_placement(cluster.topology)))
        verify_s.append(elapsed)
        verify_ref.append(at_ref)
        ok = report.ok
        violations = [str(v) for v in report.violations[:5]]
    done = stats.attempted - stats.failed
    return {
        "ok": ok and not stats.errors, "ops": stats.attempted, "failed": stats.failed,
        "op_wall_s": clock.wall_s(), "setup_s": [setup_s],
        "put_ms": stats.put_ms, "get_ms": stats.get_ms, "verify_s": verify_s,
        "ref": {"op_wall_s": clock.wall_at_reference_s(), "setup_s": [setup_ref],
                "put_ms": clock.series_at_reference(0),
                "get_ms": clock.series_at_reference(1), "verify_s": verify_ref},
        "speed_factor": speed.factor(),
        "wire_bytes": wire, "verify_events": events, "peak_rss_mb": hwm_mb,
        "violations": violations, "errors": stats.errors[:5],
        "extras": {
            "service.api.connect_ms": stats.connect_ms,
            "service.api.response_ms": stats.response_ms,
            "service.node.cpu_ms_per_op": node_cpu * 1000.0 / max(done, 1),
            "service.node.rss_mb": rss_mb,
            "loadgen.cpu_ms_per_op": own_cpu * 1000.0 / max(done, 1),
        },
    }
