#!/usr/bin/env python3
"""Time the largest Leech complexes of the ceiling table and check them.

Each row builds one ``LeechComplex(m, A, p + 1)`` with a constant system in
a fresh process and takes every H^n up to p.  It prints the canonical
generators of C^0..C^(p+1), the build and cohomology seconds and the
process's peak RSS, and checks the table against its closed form:

* H^*(Z/n; Z) = Z, 0, Z/n, 0, Z/n, ...;
* H^*(Z/n; Z/2) = Z/2 in every degree, for even n;
* a monoid with a zero element, such as a power set under union, has
  H^0 = A and H^n = 0 above.

Exits 1 when a table differs from its closed form.
"""

import multiprocessing
import resource
import sys
import time

from moncoh import constant_system, cyclic_group, parse_group, power_set_monoid
from moncoh.leech import LeechComplex, cochain_ngens

# (monoid, coefficients, degree bound)
ROWS = [("P(3)", "Z", 4), ("Z/8", "Z", 4), ("P(4)", "Z", 3),
        ("Z/8", "Z/2", 4), ("P(3)", "Z/2", 4), ("Z/8", "Z", 5),
        ("Z/8", "Z/2", 5)]


def monoid(label: str):
    if label.startswith("Z/"):
        return cyclic_group(int(label[2:]))
    return power_set_monoid(int(label[2:-1]))


def closed_form(label: str, coeffs: str, p: int) -> list[str]:
    if label.startswith("P("):
        return [coeffs] + ["0"] * p
    n = int(label[2:])
    if coeffs == "Z/2" and n % 2 == 0:
        return ["Z/2"] * (p + 1)
    if coeffs == "Z":
        return ["Z"] + ["0" if k % 2 else f"Z/{n}" for k in range(1, p + 1)]
    raise ValueError(f"no closed form for {label} over {coeffs}")


def measure(label: str, coeffs: str, p: int):
    """Run in a fresh process, so that the peak RSS is this row's own."""
    m = monoid(label)
    system = constant_system(m, parse_group(coeffs))
    coords = sum(cochain_ngens(m, system, n) for n in range(p + 2))
    start = time.perf_counter()
    cx = LeechComplex(m, system, p + 1)
    built = time.perf_counter()
    table = [cx.cohomology(n).render() for n in range(p + 1)]
    done = time.perf_counter()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return coords, built - start, done - built, peak_mb, table


def main() -> int:
    ctx = multiprocessing.get_context("spawn")
    failed = False
    print("| monoid | coeffs | degrees | coords | build | cohomology "
          "| peak RSS | closed form |")
    print("|---|---|---|---|---|---|---|---|")
    for label, coeffs, p in ROWS:
        with ctx.Pool(1) as pool:
            coords, build_s, coh_s, peak_mb, table = pool.apply(
                measure, (label, coeffs, p))
        ok = table == closed_form(label, coeffs, p)
        failed |= not ok
        print(f"| `{label}` | `{coeffs}` | to {p} | {coords:,} | {build_s:.2f} s "
              f"| {coh_s:.2f} s | {peak_mb:,.0f} MB "
              f"| {'ok' if ok else 'DIFFERS: ' + ', '.join(table)} |",
              flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
