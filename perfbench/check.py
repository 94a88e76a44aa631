#!/usr/bin/env python3
"""Run every workload untraced once and traced twice, and check the output.

    python3 perfbench/check.py --size tiny   # smoke check, under a minute
    python3 perfbench/check.py               # full size, about six minutes

For each workload this asserts that the last line of run.py's output is
JSON, that it names every metric BENCHMARK.json lists with that metric's
unit, that correct is true and fail_frac is 0, that the two traced runs
report identical counts, and that the traced runs' fingerprint equals the
untraced run's.  It prints one table of end-to-end metrics and one of
per-layer metrics, and exits 1 if any assertion failed.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: float, trace: int,
         size: str) -> tuple[int, list[str], dict | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--size", size], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, lines, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = 1 if args.size == "tiny" else spec["run_seconds"]
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems: list[str] = []
    tables: dict[int, dict[str, dict]] = {0: {}, 1: {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [_run(name, args.seed, seconds, t, args.size) for t in (0, 1, 1)]
        prints = []
        for (code, lines, result), trace in zip(runs, (0, 1, 1)):
            where = f"{name} trace {trace}"
            if result is None:
                problems.append(f"{where}: last line is not JSON")
                continue
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{where}: exit {code}, correct "
                                f"{result['correct']}, failed {result['failed']}")
                problems += [f"{where}: {ln}" for ln in lines if "FAILED" in ln]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics/units differ from "
                                f"BENCHMARK.json: {sorted(set(got.items()) ^ set(expected[trace].items()))}")
            prints.append(next((m.group(1) for m in map(
                re.compile(r"^# fingerprint (\w+)").match, lines) if m), None))
            tables[trace][name] = {k: v["value"] for k, v in result["metrics"].items()}
            tables[trace][name]["fail_frac"] = result["failed"] / max(1, result["attempted"])
        if len(set(prints)) != 1 or None in prints:
            problems.append(f"{name}: fingerprints differ between runs: {prints}")
        traced = [r[2] for r in runs[1:] if r[2] is not None]
        if len(traced) == 2:
            for metric, unit in expected[1].items():
                a = traced[0]["metrics"].get(metric, {}).get("value")
                b = traced[1]["metrics"].get(metric, {}).get("value")
                if unit != "s" and a != b:
                    problems.append(f"{name}: {metric} differs between traced "
                                    f"runs: {a} vs {b}")
    for trace, title in ((0, "end-to-end (untraced)"), (1, "per-layer (traced)")):
        names = list(expected[trace]) + ["fail_frac"]
        print(f"{title}, size {args.size}, seed {args.seed}")
        print(f"  {'metric':30}" + "".join(f"{w:>16}" for w in tables[trace]))
        for metric in names:
            unit = expected[trace].get(metric, "ratio")
            row = "".join(f"{tables[trace][w].get(metric, float('nan')):>16.6g}"
                          for w in tables[trace])
            print(f"  {metric + ' [' + unit + ']':30}{row}")
    for p in problems:
        print(f"PROBLEM {p}")
    print("check passed" if not problems else f"check failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
