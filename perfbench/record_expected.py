"""Record the reference seed's exact counters into ``expected.json``.

    python3 perfbench/record_expected.py

For each deterministic workload this runs one benchmark batch in a
fresh worker process and keeps its counters -- but only after the same
run, repeated with its history recorded, passes the causal checker on
the full history and reproduces those counters exactly.  (A benchmark
batch checks a shortened simulator history instead, because the checker
is superlinear in history length; the loopback batch checks its full
history every time.)  Rerun this only when a change is meant to alter
the counters, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.experiments.runner import run_simulation  # noqa: E402
from repro.verify.causal_checker import check_causal_consistency  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    seed = run.REFERENCE_SEED
    expected = {}
    for name in (*run.SIM, "loopback"):
        batch = run.spawn({"workload": name, "seed": seed, "trace": False,
                           "verify": True, "out_dir": str(run.OUT_DIR)})
        if not batch["ok"]:
            raise SystemExit(f"{name}: batch failed: {batch}")
        if name in run.SIM:
            result = run_simulation(workloads.sim_config(name, seed, record_history=True))
            t0 = perf_counter()
            report = check_causal_consistency(result.history, result.placement)
            print(f"{name}: checker on {len(result.history)} events: "
                  f"{'PASS' if report.ok else 'FAIL'} in {perf_counter() - t0:.1f}s")
            if not report.ok:
                raise SystemExit(f"{name}: {report.violations[:3]}")
            if workloads.sim_counters(result) != batch["counters"]:
                raise SystemExit(f"{name}: the recorded-history run has other counters")
        else:
            print(f"{name}: checker on {batch['verify_events']} events: PASS")
        expected[name] = batch["counters"]
    (HERE / "expected.json").write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"wrote {HERE / 'expected.json'} for seed {seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
