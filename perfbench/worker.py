"""One measuring process: set up a workload, run it, check it, report.

``run.py`` starts this file as a fresh interpreter, so the set-up it
times covers interpreter start, ``import ncmoduli``, seeded input
generation and warm-up.  With ``--role setup`` the process stops right
before the first timed op; with ``--role measure`` it runs the closed
loop (one caller, next op when the last returns), checks every output
against its oracle outside the timed region, and, with ``--trace 1``,
also records spans and runs the per-layer probes.  Its last stdout line
is one JSON object; logs go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from statistics import median, quantiles

import probes
import speed
import workloads
from tracing import NullTracer, Tracer, module_summary

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100  # untraced runs time at least this many, so ten lie beyond p90
DIGEST_OPS = 100  # the digest covers a fixed prefix of the op stream
OVERHEAD_PAIRS = 24
OVERHEAD_BUDGET_S = 6.0


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def timed_loop(wl, tracer, seconds, min_ops):
    """Closed loop: ops back to back until ``seconds`` pass and ``min_ops`` are done.

    The workload's speed reading runs before each op and after the last,
    outside the timed region.
    """
    latencies, cpu, outputs, slowdowns = [], [], [], [wl.slowdown()]
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        op = wl.op(i)
        tracer.op = i
        c0 = wl.cpu()
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.op"):
                out = wl.run(op, tracer)
        except Exception as exc:  # an op that raises is an output the oracle judges
            out = exc
        t1 = time.perf_counter()
        cpu.append(wl.cpu() - c0)
        latencies.append(t1 - t0)
        outputs.append(out)
        slowdowns.append(wl.slowdown())
        i += 1
    tracer.op = -1
    return latencies, cpu, outputs, slowdowns


def verify(wl, outputs):
    failed = 0
    records = []
    for i, out in enumerate(outputs):
        op = wl.op(i)
        try:
            ok, record = wl.check(op, out)
        except Exception as exc:  # a malformed output is a failed op, not a crash
            ok, record = False, {"kind": op[0], "check_error": repr(exc)}
        if not ok:
            failed += 1
            if failed <= 5:
                print(f"op {i} ({op[0]}) failed its oracle: {str(record)[:300]}", file=sys.stderr)
        records.append(record)
    digest = hashlib.sha256(canonical(records[:DIGEST_OPS]).encode()).hexdigest()
    return failed, digest


def tracing_overhead(wl, n_ops):
    """Percent by which traced ops run slower than the same ops untraced.

    Each of the first ops runs once untraced and once traced, back to
    back, the order alternating, so drift on the machine falls on both
    sides alike.  (A speed reading per side added more noise than it
    removed.)
    """
    plain = traced = 0.0
    start = time.perf_counter()
    for i in range(min(n_ops, OVERHEAD_PAIRS)):
        if i >= 4 and time.perf_counter() - start > OVERHEAD_BUDGET_S:
            break
        op = wl.op(i)
        sides = (NullTracer(), Tracer()) if i % 2 == 0 else (Tracer(), NullTracer())
        for tracer in sides:
            t0 = time.perf_counter()
            try:
                with tracer.span("bench.op"):
                    wl.run(op, tracer)
            except Exception:  # already judged in the main loop
                pass
            dt = time.perf_counter() - t0
            if isinstance(tracer, NullTracer):
                plain += dt
            else:
                traced += dt
    return (traced - plain) / plain * 100.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), default="measure")
    args = parser.parse_args(argv)

    # one CPU for the worker and its children: the speed kernel then
    # measures the CPU the ops run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # set-up is scaled by readings at its start and end, taken in this
    # process because the machine's phase can change between processes
    setup_readings = [speed.slowdown() for _ in range(2)]
    sys.path.insert(0, str(ROOT / "src"))
    import ncmoduli as nc

    wl = workloads.WORKLOADS[args.workload](nc, args.seed, ROOT)
    try:
        wl.warmup()
        ready = time.monotonic()
        setup_readings += [speed.slowdown() for _ in range(2)]
        if args.role == "setup":
            print(canonical({"ready": ready, "setup_slowdown": median(setup_readings)}))
            return 0

        tracer = Tracer() if args.trace else NullTracer()
        raw, raw_cpu, outputs, slowdowns = timed_loop(wl, tracer, args.seconds, 1 if args.trace else MIN_OPS)
        peak_rss = wl.peak_rss_mb()
        failed, digest = verify(wl, outputs)
        n = len(raw)
        factors = speed.op_factors(slowdowns)
        latencies = [t * f for t, f in zip(raw, factors)]
        result = {
            "ready": ready,
            "setup_slowdown": median(setup_readings),
            "ops": n,
            "failed": failed,
            "digest": digest,
            "digest_ops": min(n, DIGEST_OPS),
            "loop_s": sum(raw),
            "raw_ops_per_s": n / sum(raw),
            "raw_op_p50_ms": median(raw) * 1e3,
            "slowdown": median(slowdowns),
            "ops_per_s": n / sum(latencies),
            "op_p50_ms": median(latencies) * 1e3,
            "op_p90_ms": quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
            "cpu_ms_per_op": sum(c * f for c, f in zip(raw_cpu, factors)) / n * 1e3,
            "peak_rss_mb": peak_rss,
            "known_wrong": probes.known_wrong(nc),
        }
        if args.trace:
            loop_spans = list(tracer.spans)
            result["spans_per_op"] = (len(loop_spans) - n) / n
            layers = {"trace.overhead_pct": tracing_overhead(wl, n)}
            layers.update(probes.run_probes(nc, args.seed, tracer, ROOT))
            layers.update(result["known_wrong"])
            result["per_layer"] = layers
            result["modules"] = module_summary(loop_spans)
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(
                canonical(
                    {
                        "workload": args.workload,
                        "seed": args.seed,
                        "fields": ["name", "start", "end", "parent", "op"],
                        "loop_spans": loop_spans,
                        "probe_spans": tracer.spans[len(loop_spans):],
                        "modules": result["modules"],
                    }
                ),
                encoding="utf-8",
            )
            result["trace_file"] = str(trace_path.relative_to(ROOT))
        print(canonical(result))
        return 0
    finally:
        wl.close()


if __name__ == "__main__":
    raise SystemExit(main())
