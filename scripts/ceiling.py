#!/usr/bin/env python3
"""Time the largest Leech complexes of the ceiling table and check them.

Each row runs in a fresh process with a constant system and takes every
H^n up to p, by one of four routes:

* ``full`` builds ``LeechComplex(m, A, p + 1)`` and times the build and
  the cohomology apart;
* ``table`` times one ``leech_cohomology_table(m, A, p)`` call, which
  builds the Morse-reduced complex, under "cohomology";
* ``total`` times one ``total_cohomology`` call on the grid of power sets
  ``P(k)..P(1)``, top floor first, with the zero vertical family;
* ``h`` times one ``h_pipeline`` call on ``h(k)``, k sets over 2^k - 1
  points, one point per nonempty subcollection, and reads the value at
  every position of its staircase path.

It prints the canonical generators of the full C^0..C^(p+1), of every
floor for a total or a pipeline, the seconds and the process's peak RSS,
and checks the table against its closed form:

* H^*(Z/n; A) for a constant A: H^0 = A, H^odd = A[n], the elements
  killed by n, and H^even = A/nA above degree 0;
* a monoid with a zero element, such as a power set under union, has
  H^0 = A and H^n = 0 above;
* so with the zero family the total of k power-set floors, the sum of
  their tables shifted by the floor index, is A below degree k and 0 from
  degree k on;
* the floors of ``h(k)`` are union monoids, with zeros, of 2, 4, ..., 2^k
  elements, and with Z coefficients C^n of a floor of m elements is
  Z^((m-1)^n).  As H^n = 0 for n > 0, ker d^n = im d^(n-1) has rank
  K_n = sum over j = 1..n-1 of (-1)^(n-1-j) (m-1)^j, and K_0 = 1; so
  coker d^(n-1) is free of rank (m-1)^n - K_n.  A path position reads
  H^n between two horizontal maps, ker d^n after a zero vertical map (or
  at the start), coker d^(n-1) before one, and all of C^n between two.

Exits 1 when a table differs from its closed form.
"""

import itertools
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
from moncoh.structured import SetSystem, build_gr, h_pipeline

# (monoid, coefficients, degree bound, route)
ROWS = [("P(3)", "Z", 4, "full"), ("Z/8", "Z", 4, "full"),
        ("P(4)", "Z", 3, "full"), ("Z/8", "Z/2", 4, "full"),
        ("P(3)", "Z/2", 4, "full"), ("Z/8", "Z", 5, "full"),
        ("Z/8", "Z/2", 5, "full"), ("Z/8", "Z/4", 4, "full"),
        ("Z/8", "Z/6", 4, "full"), ("Z/8", "Z/6", 5, "table"),
        ("Z/8", "Z x Z/2", 5, "table"), ("Z/8", "Z", 6, "table"),
        ("P(4)", "Z", 4, "table"), ("P(3)..P(1)", "Z", 4, "total"),
        ("P(4)..P(1)", "Z", 4, "total"), ("h(4)", "Z", 3, "h"),
        ("h(4)", "Z", 4, "h")]


def set_system(k: int) -> SetSystem:
    """k sets over 2^k - 1 points, one point per nonempty subcollection,
    so that h is onto the subcollections."""
    subsets = [c for size in range(1, k + 1)
               for c in itertools.combinations(range(k), size)]
    points = ["".join(map(str, c)) for c in subsets]
    return SetSystem.from_names(points, [
        (f"U{i}", [x for x, c in zip(points, subsets) if i in c])
        for i in range(k)])


def monoids(label: str) -> list:
    """The floors of a label, top first: one monoid, or P(k)..P(1); the
    floors of h(k) in path order."""
    if label.startswith("Z/"):
        return [cyclic_group(int(label[2:]))]
    if label.startswith("h("):
        k = int(label[2:-1])
        return [build_gr(set_system(k), r) for r in range(k)]
    top, _, bottom = label.partition("..")
    lowest = int((bottom or top)[2:-1])
    return [power_set_monoid(k) for k in range(int(top[2:-1]), lowest - 1, -1)]


def path_closed_form(k: int, p: int) -> list[str]:
    """The staircase path of h(k) over Z: D R repeated k - 1 times, then R
    on; a position's value depends on its floor's size, its degree and
    the moves on either side of it."""
    values = []
    floor = degree = 0
    before = "start"
    for move in "DR" * (k - 1) + "R" * (p + 1):
        if degree > p:
            break
        others = 2 ** (floor + 1) - 1  # the non-identity elements
        cells = others ** degree  # the generators of C^n
        kernel = 1 if degree == 0 else sum(
            (-1) ** (degree - 1 - j) * others ** j for j in range(1, degree))
        if before == "R":
            rank = 0 if move == "R" else cells - kernel  # H^n, coker
        else:
            rank = kernel if move == "R" else cells  # ker, all of C^n
        values.append(FgAbGroup(rank).render())
        before = move
        floor, degree = (floor + 1, degree) if move == "D" else (
            floor, degree + 1)
    return values


def closed_form(label: str, coeffs: str, p: int) -> list[str]:
    if label.startswith("h("):
        return path_closed_form(int(label[2:-1]), p)
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
    elif route == "h":
        built = start
        table = [e.group.render() for e in h_pipeline(
            set_system(len(floors)), parse_group(coeffs), p).square.entries]
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
