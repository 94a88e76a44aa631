#!/usr/bin/env python3
"""moncoh benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload cli_docs --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; moncoh is imported from ``src``, nothing
is installed or built.  The workload runs in a fresh child process
(worker.py) so that its peak memory is its own.  Eight more children only
set up, and ``setup_s`` is the median of the nine set-up times.  Every
time is scaled to a reference host speed (hostspeed.py); the raw seconds
are printed on the "#" lines.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced pass together with the tracing overhead.  Human-readable
lines come first, each starting with "#"; the last line is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
code is 0 only when every operation matched its closed form, its
recorded fingerprint and the other passes of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("leech_large", "grid_total", "cli_docs")
SETUP_SAMPLES = 9
TIME_LIMIT_S = 170


def _worker(args, extra: list[str], deadline: float) -> dict:
    cmd = [sys.executable, "-B", str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, *extra]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure whole passes for this many seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs are for the smoke check")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "moncoh" / "__init__.py").is_file():
        print(f"no moncoh sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = monotonic() + TIME_LIMIT_S
    load = os.getloadavg()[0]
    try:
        res = _worker(args, [], deadline)
        setups = [res] + [_worker(args, ["--setup-only"], deadline)
                          for _ in range(SETUP_SAMPLES - 1)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0 and res["fingerprints_agree"]
    print(f"# workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace}")
    print(f"# context: python {platform.python_version()}, nproc "
          f"{os.cpu_count()}, load average {load:.2f} at start")
    print(f"# operations: {res['ops_per_pass']} per pass, {res['passes']} "
          f"passes (the last may be partial), {res['samples']} timed samples, "
          f"{res['beyond_p95']} operations beyond p95")
    print(f"# fingerprint {res['fingerprint']} "
          f"(passes agree: {res['fingerprints_agree']}, "
          f"recorded for this input: {res['recorded']})")
    print(f"# fail_frac {failed / attempted:.6g} ({failed} of {attempted})")
    for name, problems in res["failures"].items():
        print(f"# FAILED {name}: {'; '.join(problems)[:300]}")
    if "headline" in res:
        scaled = (f", {res['headline_s'] * res['factor']:.4f} s scaled"
                  if "factor" in res else "")
        print(f"# headline {res['headline']}: {res['headline_s']:.4f} s raw{scaled}")

    setup_raw = statistics.median(r["setup_s"] for r in setups)
    setup = statistics.median(r["setup_s"] * r["setup_factor"] for r in setups)
    if args.trace == 0:
        f = res["factor"]
        print(f"# host speed: reference loop {res['loop_s']:.6f} s (median of "
              f"{res['loop_samples']}), times scaled by {f:.4f}; raw wall_s "
              f"{res['wall_s']:.6g}, op_s_p50 {res['op_s_p50']:.6g}, op_s_p95 "
              f"{res['op_s_p95']:.6g}, setup_s {setup_raw:.6g}")
        metrics = {
            "wall_s": (res["wall_s"] * f, "s"),
            "op_s_p50": (res["op_s_p50"] * f, "s"),
            "op_s_p95": (res["op_s_p95"] * f, "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "setup_s": (setup, "s"),
        }
    else:
        metrics = {k: tuple(v) for k, v in res["layers"].items()}
        print(f"# spans recorded: {res['spans']}; largest self times:")
        for name, secs, calls in res["top_self"]:
            print(f"#   {name}: {secs:.4f} s in {calls} calls")
        for target in res["missing_targets"]:
            print(f"# WARNING trace target {target} not found; its metrics read 0")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
