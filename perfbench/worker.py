"""One workload in one fresh process; prints a single JSON line.

Started by run.py, never by hand: the process exists so that peak memory
belongs to one workload.  Set-up (importing moncoh from the checkout's
``src`` and building the inputs) is timed before any operation runs.

--trace 0 runs one whole pass over the operation list and then keeps
cycling through it, one operation at a time, while the next operation's
median so far still ends within --seconds.  Each operation's time is the
median of its samples, so every timing metric draws on the whole window.
--trace 1 runs one untraced pass and then one traced pass, and reports
the per-layer numbers of the traced one.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads
from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_pass(workload, record: dict[str, str] | None, call=None,
             stop=None, between=None) -> dict:
    """Run every operation once, or until ``stop(op)`` says not to start
    ``op``; render and check the results afterwards.  ``between()`` runs
    before each operation, outside its time."""
    results, errors, times = {}, {}, {}
    start = perf_counter()
    for op in workload.ops:
        if stop is not None and stop(op):
            break
        if between is not None:
            between()
        t = perf_counter()
        try:
            results[op.name] = op.run() if call is None else call(op.run)
        except Exception as exc:  # a raising operation is a counted failure
            errors[op.name] = f"{type(exc).__name__}: {exc}"
        times[op.name] = perf_counter() - t
    wall = perf_counter() - start
    checked = workload.check(results)
    digests, failures = {}, {}
    for op in workload.ops:
        if op.name not in times:
            continue
        if op.name in errors:
            failures[op.name] = [errors[op.name]]
            continue
        text, problems = checked[op.name]
        digests[op.name] = workloads.digest(text)
        if record is not None and record.get(op.name) != digests[op.name][:8]:
            problems = problems + ["fingerprint differs from the recorded one"]
        if problems:
            failures[op.name] = problems
    return {"wall": wall, "times": times, "digests": digests, "failures": failures}


def pass_fingerprint(digests: dict[str, str]) -> str:
    return workloads.digest("\n".join(f"{k} {digests[k]}" for k in sorted(digests)))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import moncoh
    workload = workloads.build(args.workload, args.seed, args.size, moncoh)
    setup_s = perf_counter() - t0
    if not Path(moncoh.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"moncoh imported from {moncoh.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    host = HostSpeed()
    host.sample(0.1)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_factor": host.factor()}))
        return 0

    record_file = HERE / "fingerprints.json"
    records = json.loads(record_file.read_text()) if record_file.exists() else {}
    key = (f"{args.workload}/{args.size}" if args.workload != "cli_docs"
           else f"{args.workload}/{args.size}/{args.seed}")
    record = None
    if key in records:
        names = sorted(op.name for op in workload.ops)
        packed = records[key]
        record = {n: packed[8 * i:8 * i + 8] for i, n in enumerate(names)}

    out = {"setup_s": setup_s, "setup_factor": host.factor(),
           "ops_per_pass": len(workload.ops), "recorded": record is not None}
    passes = []
    with contextlib.suppress(Exception):  # a failure counts in the passes
        workload.ops[0].run()  # warm-up, untimed
    if args.trace == 0:
        # One whole pass, then operations in the same order while each is
        # expected to end within the window.
        host.sample(0.2)
        start = perf_counter()
        passes.append(run_pass(workload, record, between=host.tick))

        def stop(op):
            typical = statistics.median(
                p["times"][op.name] for p in passes if op.name in p["times"])
            return perf_counter() - start + typical > args.seconds
        while len(passes[-1]["times"]) == len(workload.ops):
            more = run_pass(workload, record, stop=stop, between=host.tick)
            if not more["times"]:
                break
            passes.append(more)
        host.sample(0.2)
        # run.py multiplies the times by this factor.
        out["factor"] = host.factor()
        out["loop_s"] = host.loop_s()
        out["loop_samples"] = len(host.samples)
    else:
        passes.append(run_pass(workload, record))
        tracer = tracing.Tracer()
        with tracing.traced(tracer) as missing:
            traced = run_pass(workload, record,
                              call=lambda fn: tracer.call("op", fn, (), {}))
        passes.append(traced)
        layers = tracer.metrics()
        layers["trace.overhead_s"] = (traced["wall"] - passes[0]["wall"], "s")
        out["layers"] = layers
        out["missing_targets"] = missing
        out["spans"] = len(tracer.spans)
        out["top_self"] = tracer.top_self()

    timed = passes if args.trace == 0 else passes[:1]
    failures = {}
    for p in passes:
        for name, problems in p["failures"].items():
            failures.setdefault(name, problems)
    failed = sum(len(p["failures"]) for p in passes)
    # Every pass, partial ones included, must render each operation alike.
    first = passes[0]["digests"]
    consistent = all(d == first.get(k) for p in passes
                     for k, d in p["digests"].items())
    per_op = {op.name: statistics.median(
        p["times"][op.name] for p in timed if op.name in p["times"])
        for op in workload.ops}
    p95 = percentile(list(per_op.values()), 0.95)
    out.update({
        "passes": len(passes),
        "attempted": sum(len(p["times"]) for p in passes),
        "failed": failed,
        "failures": dict(sorted(failures.items())[:10]),
        "fingerprint": pass_fingerprint(first),
        "fingerprints_agree": consistent,
        "wall_s": sum(per_op.values()),
        "op_s_p50": statistics.median(per_op.values()),
        "op_s_p95": p95,
        "beyond_p95": sum(1 for t in per_op.values() if t > p95),
        "samples": sum(len(p["times"]) for p in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if workload.headline is not None:
        out["headline_s"] = per_op[workload.headline]
        out["headline"] = workload.headline
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
