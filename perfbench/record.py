#!/usr/bin/env python3
"""Record the per-operation fingerprints that run.py checks against.

    python3 perfbench/record.py

Writes perfbench/fingerprints.json.  leech_large and grid_total get one
entry per size, because their results do not depend on the seed; cli_docs
gets one entry per size and seed for seeds 0..19.  An entry packs the
first 8 hex digits of each operation's SHA-256, in operation-name order.
Nothing is recorded unless every operation passes its closed-form checks.
Rerun only when the workloads themselves change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import moncoh  # noqa: E402
import workloads  # noqa: E402
from worker import run_pass  # noqa: E402

CLI_SEEDS = range(20)


def main() -> int:
    records = {}
    for name in workloads.WORKLOADS:
        for size in workloads.SIZES:
            seeds = CLI_SEEDS if name == "cli_docs" else [0]
            for seed in seeds:
                wl = workloads.build(name, seed, size, moncoh)
                result = run_pass(wl, None)
                if result["failures"]:
                    print(f"{name}/{size}/{seed} fails its checks: "
                          f"{result['failures']}", file=sys.stderr)
                    return 1
                key = f"{name}/{size}" + (f"/{seed}" if name == "cli_docs" else "")
                digests = result["digests"]
                records[key] = "".join(digests[k][:8] for k in sorted(digests))
                print(f"recorded {key}: {len(digests)} operations", flush=True)
    (HERE / "fingerprints.json").write_text(
        json.dumps(records, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
