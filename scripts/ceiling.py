#!/usr/bin/env python3
"""Time the largest Leech complexes of the ceiling table and check them.

Each row runs in a fresh process with a constant system and takes every
H^n up to p, by one of three routes:

* ``full`` builds ``LeechComplex(m, A, p + 1)`` and times the build and
  the cohomology apart;
* ``table`` times one ``leech_cohomology_table(m, A, p)`` call, which
  builds the Morse-reduced complex, under "cohomology";
* ``total`` times one ``total_cohomology`` call on the grid of power sets
  ``P(k)..P(1)``, top floor first, with the zero vertical family.

It prints the canonical generators of the full C^0..C^(p+1), of every
floor for a total, the seconds and the process's peak RSS, and checks the
table against its closed form:

* H^*(Z/n; A) for a constant A: H^0 = A, H^odd = A[n], the elements
  killed by n, and H^even = A/nA above degree 0;
* a monoid with a zero element, such as a power set under union, has
  H^0 = A and H^n = 0 above;
* so with the zero family the total of k power-set floors, the sum of
  their tables shifted by the floor index, is A below degree k and 0 from
  degree k on.

Exits 1 when a table differs from its closed form.
"""

import math
import multiprocessing
import resource
import sys
import time

from moncoh import (
    FgAbGroup,
    GridSpec,
    VerticalFamily,
    constant_system,
    cyclic_group,
    leech_cohomology_table,
    parse_group,
    power_set_monoid,
    total_cohomology,
)
from moncoh.leech import LeechComplex, cochain_ngens

# (monoid, coefficients, degree bound, route)
ROWS = [("P(3)", "Z", 4, "full"), ("Z/8", "Z", 4, "full"),
        ("P(4)", "Z", 3, "full"), ("Z/8", "Z/2", 4, "full"),
        ("P(3)", "Z/2", 4, "full"), ("Z/8", "Z", 5, "full"),
        ("Z/8", "Z/2", 5, "full"), ("Z/8", "Z/4", 4, "full"),
        ("Z/8", "Z/6", 4, "full"), ("Z/8", "Z/6", 5, "table"),
        ("Z/8", "Z x Z/2", 5, "table"), ("Z/8", "Z", 6, "table"),
        ("P(4)", "Z", 4, "table"), ("P(3)..P(1)", "Z", 4, "total"),
        ("P(4)..P(1)", "Z", 4, "total")]


def monoids(label: str) -> list:
    """The floors of a label, top first: one monoid, or P(k)..P(1)."""
    if label.startswith("Z/"):
        return [cyclic_group(int(label[2:]))]
    top, _, bottom = label.partition("..")
    lowest = int((bottom or top)[2:-1])
    return [power_set_monoid(k) for k in range(int(top[2:-1]), lowest - 1, -1)]


def closed_form(label: str, coeffs: str, p: int) -> list[str]:
    if label.startswith("P("):
        floors = len(monoids(label))
        return [coeffs if k < floors else "0" for k in range(p + 1)]
    n, a = int(label[2:]), parse_group(coeffs)
    killed = FgAbGroup.from_invariants(math.gcd(d, n) for d in a.torsion)
    quotient = FgAbGroup.from_invariants(
        [n] * a.free_rank + [math.gcd(d, n) for d in a.torsion])
    return [coeffs] + [(killed if k % 2 else quotient).render()
                       for k in range(1, p + 1)]


def measure(label: str, coeffs: str, p: int, route: str):
    """Run in a fresh process, so that the peak RSS is this row's own."""
    floors = [(m, constant_system(m, parse_group(coeffs)))
              for m in monoids(label)]
    m, system = floors[0]
    coords = sum(cochain_ngens(*floor, n) for floor in floors
                 for n in range(p + 2))
    start = time.perf_counter()
    if route == "full":
        cx = LeechComplex(m, system, p + 1)
        built = time.perf_counter()
        table = [cx.cohomology(n).render() for n in range(p + 1)]
    elif route == "table":
        built = start
        table = [g.render() for g in leech_cohomology_table(m, system, p)]
    else:
        built = start
        table = [g.render() for g in total_cohomology(
            GridSpec(tuple(floors)), VerticalFamily.zero(), p)]
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
