"""The p1torsion benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload exact-series --seed 1 --seconds 5 --trace 0

Run from the root of a checkout.  With --trace 0 it times the program's
set-up in fresh interpreters, then runs the workload in one more fresh
interpreter (perfbench/worker.py) and prints the end-to-end metrics.  With
--trace 1 it runs the workload once untraced and once with spans around every
layer, and prints the per-layer metrics.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 4        # plus the worker's own import: the median of five
WORKER_TIMEOUT = 170.0  # seconds; a run must end within 180
# Limits per operation; a worker stops starting operations after DEADLINE
# seconds, or TRACE_DEADLINE when tracing, which runs two workers in turn.
OP_LIMIT = {"selftest": 120.0}
DEFAULT_OP_LIMIT = 60.0
DEADLINE = 120.0
TRACE_DEADLINE = 75.0


def _worker(argv: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and parse its JSON line."""
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, "--spawned-at", repr(spawned_at)] + argv,
        cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(argv)} exited {proc.returncode}")
    return json.loads(lines[-1])


def _metric_specs() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "p1torsion", "cli.py")):
        print(f"error: run from a p1torsion checkout; no src/p1torsion under "
              f"{ROOT}", file=sys.stderr)
        return 2
    end_to_end, per_layer = _metric_specs()
    os.makedirs(OUT, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--op-limit",
              str(OP_LIMIT.get(args.workload, DEFAULT_OP_LIMIT))]
    if args.tiny:
        common.append("--tiny")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        if args.trace == 0:
            setups = [_worker(["--probe"], 60)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            run = _worker(common + ["--deadline", str(DEADLINE)], WORKER_TIMEOUT)
            setups.append(run["setup_s"])
            values = {"setup_s": statistics.median(setups),
                      "wall_s": run["wall_s"],
                      "op_iqm_s": run["op_iqm_s"],
                      "peak_rss_mb": run["peak_rss_mb"]}
            wanted = end_to_end
        else:
            budget = WORKER_TIMEOUT / 2
            run = _worker(common + ["--deadline", str(TRACE_DEADLINE)], budget)
            traced = _worker(common + [
                "--deadline", str(TRACE_DEADLINE), "--rounds", str(run["rounds"]),
                "--trace-out", os.path.join(OUT, f"spans-{tag}.json")], budget)
            values = dict(traced["layers"])
            values["trace.overhead_s"] = traced["wall_s"] - run["wall_s"]
            run["correct"] = run["correct"] and traced["correct"]
            run["traced"] = {k: traced[k] for k in ("wall_s", "ops", "failed")}
            wanted = per_layer
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    missing = [name for name in wanted if name not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {"correct": run["correct"], "attempted": run["attempted"],
              "failed": run["failed"],
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in wanted.items()}}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump({**result, "round_s": run["round_s"], "ops": run["ops"],
                   "traced": run.get("traced")}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
