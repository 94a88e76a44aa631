#!/usr/bin/env python3
"""Time the largest Leech complexes of the ceiling table and check them.

Each row runs in a fresh process with a constant system and takes every
H^n up to p, by one of two routes:

* ``full`` builds ``LeechComplex(m, A, p + 1)`` and times the build and
  the cohomology apart;
* ``table`` times one ``leech_cohomology_table(m, A, p)`` call, which
  builds the Morse-reduced complex, under "cohomology".

It prints the canonical generators of the full C^0..C^(p+1), the seconds
and the process's peak RSS, and checks the table against its closed form:

* H^*(Z/n; A) for a constant A: H^0 = A, H^odd = A[n], the elements
  killed by n, and H^even = A/nA above degree 0;
* a monoid with a zero element, such as a power set under union, has
  H^0 = A and H^n = 0 above.

Exits 1 when a table differs from its closed form.
"""

import math
import multiprocessing
import resource
import sys
import time

from moncoh import (
    FgAbGroup,
    constant_system,
    cyclic_group,
    leech_cohomology_table,
    parse_group,
    power_set_monoid,
)
from moncoh.leech import LeechComplex, cochain_ngens

# (monoid, coefficients, degree bound, route)
ROWS = [("P(3)", "Z", 4, "full"), ("Z/8", "Z", 4, "full"),
        ("P(4)", "Z", 3, "full"), ("Z/8", "Z/2", 4, "full"),
        ("P(3)", "Z/2", 4, "full"), ("Z/8", "Z", 5, "full"),
        ("Z/8", "Z/2", 5, "full"), ("Z/8", "Z/4", 4, "full"),
        ("Z/8", "Z/6", 4, "full"), ("Z/8", "Z/6", 5, "table"),
        ("Z/8", "Z x Z/2", 5, "table"), ("Z/8", "Z", 6, "table"),
        ("P(4)", "Z", 4, "table")]


def monoid(label: str):
    if label.startswith("Z/"):
        return cyclic_group(int(label[2:]))
    return power_set_monoid(int(label[2:-1]))


def closed_form(label: str, coeffs: str, p: int) -> list[str]:
    if label.startswith("P("):
        return [coeffs] + ["0"] * p
    n, a = int(label[2:]), parse_group(coeffs)
    killed = FgAbGroup.from_invariants(math.gcd(d, n) for d in a.torsion)
    quotient = FgAbGroup.from_invariants(
        [n] * a.free_rank + [math.gcd(d, n) for d in a.torsion])
    return [coeffs] + [(killed if k % 2 else quotient).render()
                       for k in range(1, p + 1)]


def measure(label: str, coeffs: str, p: int, route: str):
    """Run in a fresh process, so that the peak RSS is this row's own."""
    m = monoid(label)
    system = constant_system(m, parse_group(coeffs))
    coords = sum(cochain_ngens(m, system, n) for n in range(p + 2))
    start = time.perf_counter()
    if route == "full":
        cx = LeechComplex(m, system, p + 1)
        built = time.perf_counter()
        table = [cx.cohomology(n).render() for n in range(p + 1)]
    else:
        built = start
        table = [g.render() for g in leech_cohomology_table(m, system, p)]
    done = time.perf_counter()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    build = f"{built - start:.2f} s" if route == "full" else "—"
    return coords, build, done - built, peak_mb, table


def main() -> int:
    ctx = multiprocessing.get_context("spawn")
    failed = False
    print("| monoid | coeffs | degrees | route | coords | build | cohomology "
          "| peak RSS | closed form |")
    print("|---|---|---|---|---|---|---|---|---|")
    for label, coeffs, p, route in ROWS:
        with ctx.Pool(1) as pool:
            coords, build, coh_s, peak_mb, table = pool.apply(
                measure, (label, coeffs, p, route))
        ok = table == closed_form(label, coeffs, p)
        failed |= not ok
        print(f"| `{label}` | `{coeffs}` | to {p} | {route} | {coords:,} "
              f"| {build} | {coh_s:.2f} s | {peak_mb:,.0f} MB "
              f"| {'ok' if ok else 'DIFFERS: ' + ', '.join(table)} |",
              flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
