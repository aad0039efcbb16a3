"""The repo benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sim-partial --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Every sample runs in a fresh worker process (``worker.py``).  Untraced
runs (``--trace 0``) repeat batches until ``--seconds`` of op phase have
been measured and report every end-to-end metric; traced runs
(``--trace 1``) measure one untraced and one traced batch and report
every per-layer metric.  Each run checks its outputs (strict completion
and exact, repeatable counters on the simulator; the causal checker on
the service workloads) and exits 1 if any check fails.  Times in the
JSON are at the reference host speed (``hostspeed.py``); the table also
shows them as measured.  A table goes to standard output first; the
last line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch output (spans, live-node files), listed in .gitignore
OUT_DIR = ROOT / ".perfbench"
#: the seed whose exact counters are recorded in expected.json
REFERENCE_SEED = 1
WORKLOADS = ("sim-partial", "sim-full-chaos", "loopback", "live-tcp")
SIM = ("sim-partial", "sim-full-chaos")
#: no worker may run longer than this (the whole run must end in 180 s)
WORKER_TIMEOUT_S = 150.0

sys.path.insert(0, str(HERE))
from catalog import END_TO_END, PER_LAYER, TABLE_ONLY  # noqa: E402


class RunFailed(Exception):
    """The benchmark itself could not run (not a correctness failure)."""


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile, q in [0, 100]."""
    s = sorted(xs)
    if not s:
        return 0.0
    k = max(0, min(len(s) - 1, math.ceil(q / 100.0 * len(s)) - 1))
    return s[k]


def median(xs: list[float]) -> float:
    s = sorted(xs)
    if not s:
        return 0.0
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def tail(xs: list[float], worse: str) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, or,
    with too few samples for that, the worst sample."""
    n = len(xs)
    for q, label in ((99.9, "p99.9"), (99.0, "p99"), (90.0, "p90")):
        if n * (100.0 - q) / 100.0 >= 10:
            return label, percentile(xs, q if worse == "high" else 100.0 - q)
    return "worst", (max(xs) if worse == "high" else min(xs)) if xs else 0.0


def spawn(spec: dict) -> dict:
    """Run one worker; its last output line is the result."""
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGTERM)  # the worker tears its nodes down
        try:
            proc.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        return {"ok": False, "ops": 1, "failed": 1, "error": "worker timed out"}
    except BaseException:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=15)
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker {spec} exited {proc.returncode}")
    return json.loads(lines[-1])


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def check_counters(name: str, seed: int, batches: list[dict]) -> list[str]:
    """Exact counters must repeat across batches of one seed and, for the
    reference seed, equal the recorded values."""
    problems = []
    runs = [b["counters"] for b in batches if "counters" in b]
    if any(c != runs[0] for c in runs[1:]):
        problems.append("exact counters differ between batches of one seed")
    if runs and seed == REFERENCE_SEED:
        want = load_expected().get(name)
        if want is None:
            problems.append(f"expected.json has no entry for {name}")
        elif runs[0] != want:
            diff = sorted(k for k in set(want) | set(runs[0])
                          if want.get(k) != runs[0].get(k))
            problems.append(f"counters differ from expected.json: {diff}")
    return problems


def run_batches(name: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """The batches of one run, each from a fresh worker process."""
    # the first batch (the traced one, when tracing) runs the causal checker;
    # the rest must repeat its exact counters (live-tcp checks every batch)
    base = {"workload": name, "seed": seed, "trace": False, "verify": False,
            "out_dir": str(OUT_DIR)}
    if trace:
        return [spawn(base), spawn({**base, "trace": True, "verify": True})]
    batches = []
    measured = 0.0
    while measured < seconds:
        batches.append(spawn({**base, "verify": not batches}))
        measured += batches[-1].get("op_wall_s", seconds)
        if not batches[-1]["ok"]:
            break
    return batches


def metric_rows(good: list[dict], untraced: list[dict],
                at_reference_speed: bool) -> dict[str, tuple[float, list[float], str]]:
    """metric -> (value, the samples it summarizes, which direction is
    worse).  Times are a batch's ``"ref"`` times (at the reference host
    speed, see ``hostspeed.py``) when ``at_reference_speed``, and as
    measured otherwise.

    A p99 is the median of the batches' own p99s: a few seconds of heavy
    contention on a shared host stretch the slowest calls of one batch,
    and the median keeps that batch from setting the run's tail."""
    def times(b: dict) -> dict:
        return b["ref"] if at_reference_speed else b

    # the rate over the whole run's op phase; its per-batch rates are the samples
    done = sum(b["ops"] - b["failed"] for b in untraced)
    busy = sum(times(b)["op_wall_s"] for b in untraced)
    rates = [(b["ops"] - b["failed"]) / times(b)["op_wall_s"] for b in untraced]
    rows = {"ops_per_s": (done / busy if busy else 0.0, rates, "low")}
    for kind in ("put", "get"):
        per_batch = [times(b)[f"{kind}_ms"] for b in untraced]
        pooled = [x for xs in per_batch for x in xs]
        rows[f"{kind}_p50_ms"] = (median(pooled), pooled, "high")
        rows[f"{kind}_p99_ms"] = (median([percentile(xs, 99) for xs in per_batch if xs]),
                                  pooled, "high")
    for metric, xs in (
            ("setup_s", [s for b in untraced for s in times(b)["setup_s"]]),
            ("verify_s", [s for b in good for s in times(b)["verify_s"]]),
            ("wire_bytes_per_op", [b["wire_bytes"] / b["ops"] for b in untraced]),
            ("peak_rss_mb", [b["peak_rss_mb"] for b in untraced])):
        rows[metric] = (median(xs), xs, "high")
    return rows


def summarize(name: str, seed: int, batches: list, trace: bool) -> dict:
    problems = []
    for b in batches:
        if not b["ok"]:
            problems.append(b.get("error") or "; ".join(
                b.get("violations", []) + b.get("errors", [])) or "check failed")
    if name != "live-tcp":
        problems += check_counters(name, seed, batches)
    correct = not problems
    attempted = sum(b["ops"] for b in batches)
    failed = attempted if not correct else sum(b["failed"] for b in batches)
    good = [b for b in batches if b["ok"] and "op_wall_s" in b]
    untraced = [b for b in good if "layers" not in b]
    rows = metric_rows(good, untraced, at_reference_speed=True)
    raw = metric_rows(good, untraced, at_reference_speed=False)
    print(f"workload {name}  seed {seed}  batches {len(batches)}  "
          f"attempted {attempted}  failed {failed}  "
          f"failed_frac {failed / max(attempted, 1):.6g}  "
          f"correct {'yes' if correct else 'NO'}")
    for problem in problems:
        print(f"  check failed: {problem}")
    metrics: dict[str, dict] = {}
    if not trace:
        factors = [b["speed_factor"] for b in untraced]
        print(f"  host speed factor (reference / measured) median {median(factors):.4g}, "
              f"range {min(factors, default=0):.4g}-{max(factors, default=0):.4g}")
        print(f"  {'metric':<20} {'unit':<6} {'value':>12} {'median':>12} "
              f"{'tail':>18} {'n':>7} {'measured':>12}")
        for metric, unit in {**END_TO_END, **TABLE_ONLY}.items():
            value, xs, worse = rows[metric]
            label, tail_v = tail(xs, worse)
            print(f"  {metric:<20} {unit:<6} {value:>12.6g} {median(xs):>12.6g} "
                  f"{label + ' ' + format(tail_v, '.6g'):>18} {len(xs):>7} "
                  f"{raw[metric][0]:>12.6g}")
            if metric in END_TO_END:
                metrics[metric] = {"value": value, "unit": unit}
    else:
        traced = next((b for b in batches if "layers" in b), None)
        layers = dict(traced["layers"]) if traced else {}
        traced_rate = ((traced["ops"] - traced["failed"]) / traced["op_wall_s"]
                       if traced and traced.get("op_wall_s") else 0.0)
        # both rates as measured: the traced batch does not sample the speed
        untraced_rate = raw["ops_per_s"][0]
        layers["trace.overhead"] = untraced_rate / traced_rate if traced_rate else 0.0
        if traced:
            print(f"  spans: {traced.get('spans', 0)} written to {traced.get('span_file')}")
            # set-up (workload) and the checker (verify) run outside the op phase
            op_phase = sorted(((v, k[:-len(".self_s")]) for k, v in layers.items()
                               if k.endswith(".self_s") and v > 0
                               and k not in ("workload.self_s", "verify.self_s")),
                              reverse=True)
            if op_phase:  # live-tcp's op phase runs in the node processes
                print("  op-phase self time by layer: " + ", ".join(
                    f"{layer} {v:.3g}s" for v, layer in op_phase[:5]))
        print(f"  {'metric':<34} {'unit':<6} {'value':>14}")
        for metric, unit in PER_LAYER.items():
            value = layers.get(metric, 0.0)
            print(f"  {metric:<34} {unit:<6} {value:>14.6g}")
            metrics[metric] = {"value": value, "unit": unit}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def check_checkout() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise RunFailed(f"no program source at {SRC / 'repro'}; run from a full checkout")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    return summarize(name, seed, run_batches(name, seed, seconds, trace), trace)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="op-phase seconds measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so spawn() stops the running worker
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    try:
        check_checkout()
        OUT_DIR.mkdir(exist_ok=True)
        if args.workload != "all":
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            results = {w: run_one(w, args.seed, args.seconds, bool(args.trace))
                       for w in WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{m}": v for w, r in results.items()
                            for m, v in r["metrics"].items()},
            }
    except RunFailed as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
