"""One batch of one workload, in a fresh process.

    python3 perfbench/worker.py '{"workload": "loopback", "seed": 1, ...}'

``run.py`` starts one of these per sample and reads the JSON object on
the last line of its output.  Keys of the spec: ``workload``, ``seed``,
``verify`` (run the causal checker), ``trace`` (bool) and ``out_dir``
(where the traced batch writes its spans as JSONL, and live-tcp its
node files).
"""

from __future__ import annotations

import json
import os
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from catalog import layer_metrics  # noqa: E402
from tracing import Recorder, install  # noqa: E402


def _terminate(signum, _frame):
    # turn SIGTERM into an exception so every `finally` (node teardown) runs
    raise SystemExit(128 + signum)


def nominal_ops(workload: str) -> int:
    """The ops a batch plans: a failed batch counts them all as failed."""
    if workload in workloads.SIM_WORKLOADS:
        spec = workloads.SIM_WORKLOADS[workload]
        return spec["n_sites"] * spec["ops_per_process"]
    if workload == "loopback":
        return workloads.LOOPBACK["ops"]
    import live

    return len(live.LIVE["clients"]) * live.LIVE["ops_per_client"]


def run_batch(spec: dict, recorder: Recorder | None) -> dict:
    name, seed, verify = spec["workload"], spec["seed"], spec["verify"]
    if name in workloads.SIM_WORKLOADS:
        return workloads.sim_batch(name, seed, verify, recorder)
    if name == "loopback":
        return workloads.loopback_batch(seed, verify, sample_speed=recorder is None)
    if name == "live-tcp":
        import live  # sockets and asyncio only where they are used

        # every live batch is its own execution, so each one is checked
        run_dir = Path(spec["out_dir"]) / f"live-{os.getpid()}"
        return live.live_batch(seed, run_dir, SRC, sample_speed=recorder is None)
    raise ValueError(f"unknown workload {name!r}")


def main() -> int:
    spec = json.loads(sys.argv[1])
    signal.signal(signal.SIGTERM, _terminate)
    recorder = Recorder() if spec["trace"] else None
    uninstall = install(recorder) if recorder is not None else None
    t0 = perf_counter()
    try:
        result = run_batch(spec, recorder)
    except Exception as exc:  # report the failure; the parent counts it
        traceback.print_exc()
        result = {"ok": False, "ops": nominal_ops(spec["workload"]),
                  "failed": nominal_ops(spec["workload"]),
                  "error": f"{type(exc).__name__}: {exc}"}
    wall = perf_counter() - t0
    if uninstall is not None:
        uninstall()
    if recorder is not None:
        extras = dict(result.get("extras", {}))
        extras["verify.events"] = result.get("verify_events", 0)
        extras.update(result.get("counters", {}))
        layers = layer_metrics(recorder, extras)
        layers["trace.wall_s"] = wall
        result["layers"] = layers
        out = Path(spec["out_dir"]) / f"trace-{spec['workload']}-{spec['seed']}.jsonl"
        out.parent.mkdir(parents=True, exist_ok=True)
        recorder.write_jsonl(str(out))
        result["span_file"] = str(out.relative_to(ROOT))
        result["spans"] = recorder.n_spans
    result.pop("extras", None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
