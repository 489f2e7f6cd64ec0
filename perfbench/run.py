"""Benchmark of ncmoduli: one workload, one seed, one run.

    python3 perfbench/run.py --workload covering --seed 1 --seconds 20 --trace 0

Run it from the root of a source tree of ncmoduli; it imports the
package from ``src/``.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("covering", "orbits", "counts", "cli")
SETUPS = 7  # set-up is timed this many times per run; the median is reported
DEADLINE_S = 170.0


def declared_metrics(trace: int):
    """Name -> unit of the metrics BENCHMARK.json declares for this kind of run."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class WorkerError(RuntimeError):
    pass


def spawn(args, role, deadline):
    """Run a fresh worker process; return its result and its set-up time.

    The set-up time is scaled by the speed readings the worker takes when
    it starts and when its set-up ends.
    """
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--role", role,
    ]
    started = time.monotonic()
    # a session of its own, so that a timeout also stops the CLI children
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{role} worker ran past the deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"{role} worker exited with code {proc.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise WorkerError(f"{role} worker printed no result")
    result = json.loads(lines[-1])
    return result, (result["ready"] - started) / result["setup_slowdown"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark one ncmoduli workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "ncmoduli" / "__init__.py").is_file():
        print(f"error: no ncmoduli source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        for role in ["setup"] * (0 if args.trace else SETUPS - 1) + ["measure"]:
            res, setup = spawn(args, role, deadline)
            setups.append(setup)
    except (WorkerError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = declared_metrics(args.trace)
    if args.trace:
        values = res["per_layer"]
    else:
        values = {name: res[name] for name in units if name != "setup_s"}
        values["setup_s"] = median(setups)
    if set(values) != set(units):
        print(f"error: measured {sorted(set(values) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    n = res["ops"]
    print(f"workload {args.workload}, seed {args.seed}: {n} ops in a closed loop with one caller, "
          f"{res['loop_s']:.2f} s timed, {res['failed']} failed their oracle")
    if args.trace:
        for module, row in res["modules"].items():
            print(f"  spans of {module:<10} calls {row['calls']:>7}  total {row['total_ms']:10.1f} ms"
                  f"  self {row['self_ms']:10.1f} ms")
        print(f"  {res['spans_per_op']:.2f} layer spans per op; spans written to {res['trace_file']}")
        for name, m in metrics.items():
            print(f"  {name:<42} {m['value']:14.4f} {m['unit']}")
    else:
        samples = {"setup_s": f"median of {len(setups)} set-ups", "peak_rss_mb": "high-water mark"}
        for name, m in metrics.items():
            print(f"  {name:<14} {m['value']:12.4f} {m['unit']:<4} ({samples.get(name, f'{n} ops')})")
        print(f"  unscaled: ops_per_s {res['raw_ops_per_s']:.4f}, op_p50_ms {res['raw_op_p50_ms']:.4f}; "
              f"speed reading at {res['slowdown']:.3f}x its reference")
    print(f"  outputs sha256 {res['digest']} over the first {res['digest_ops']} ops")
    print(f"  known wrong answers: {json.dumps(res['known_wrong'], sort_keys=True)}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": n,
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
