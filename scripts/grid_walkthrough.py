#!/usr/bin/env python3
"""Walk a staircase path through a three-floor grid and print every
report the engine produces: the per-position cohomology with its
classification tag, the local-exactness summary, and the total-complex
table for the same grid with the zero vertical family.
"""

import argparse

from moncoh import (
    GridSpec,
    PathSpec,
    VerticalFamily,
    Z,
    constant_system,
    cyclic_group,
    leech_cohomology_table,
    local_exactness_report,
    square_cohomology,
    total_cohomology,
    union_monoid,
)


def build_grid() -> GridSpec:
    floors = [cyclic_group(2), cyclic_group(3), union_monoid([{"x"}])]
    return GridSpec(tuple((m, constant_system(m, Z)) for m in floors))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pmax", type=int, default=4)
    parser.add_argument("--moves", default="DRDR")
    args = parser.parse_args()

    grid = build_grid()
    family = VerticalFamily.zero()
    path = PathSpec(args.moves)

    print(f"floors: {', '.join(m.name for m, _ in grid.floors)}")
    print(f"moves {args.moves!r}, degrees up to {args.pmax}\n")

    square = square_cohomology(grid, family, path, args.pmax)
    for e in square.entries:
        print(f"position {e.index}: (floor {e.floor}, degree {e.degree})  "
              f"{e.tag:20s} H = {e.group}")

    exact = local_exactness_report(grid, family, path, args.pmax,
                                   square_report=square)
    print()
    for run in exact.runs:
        kind = "tail" if run.tail else ("short" if run.short else "interior")
        print(f"horizontal run on floor {run.floor}: degrees "
              f"{run.start_degree}..{run.end_degree} ({kind})")
    if exact.extremal_positions:
        spots = ", ".join(f"({f}, {d})" for f, d in exact.extremal_positions)
        print(f"extremal positions: {spots}")
    for ident in exact.identifications:
        print(f"floor {ident.floor} degree {ident.degree}: path "
              f"{ident.path_group} vs floor {ident.floor_group} [ok]")

    print("\nfloor tables for comparison:")
    for k, (m, c) in enumerate(grid.floors):
        table = ", ".join(g.render()
                          for g in leech_cohomology_table(m, c, args.pmax))
        print(f"  floor {k} ({m.name}): {table}")

    totals = total_cohomology(grid, family, args.pmax)
    print("\ntotal complex (zero family):")
    for n, g in enumerate(totals):
        print(f"  Tot^{n} = {g}")


if __name__ == "__main__":
    main()
