"""Degree bounds, counts and sizes are ints, never floats or bools.

Each entry point refuses one with a ValueError that names the value,
rather than reading 1.5 or True as 1 or failing later with a TypeError
from range() or a slice."""

from __future__ import annotations

import pytest

from moncoh.abelian import Z
from moncoh.coeff import constant_system
from moncoh.grid import GridSpec, PathSpec, VerticalFamily, square_cohomology
from moncoh.leech import LeechComplex, cochain_group, leech_cohomology_table
from moncoh.monoid import cyclic_group, power_set_monoid
from moncoh.structured import SetSystem, StructureDescriptor, build_gr, fs_pipeline
from moncoh.totalcx import TotalComplex, is_double_complex, total_cohomology

M = cyclic_group(2)
C = constant_system(M, Z)
GRID = GridSpec(((M, C),))
ZERO = VerticalFamily.zero()
SYSTEM = SetSystem.from_names(["p"], [("U", ["p"])])
DESCRIPTORS = [StructureDescriptor.make([(2, [])])]

CASES = {
    "square_cohomology": (lambda v: square_cohomology(GRID, ZERO, PathSpec(""), v),
                          1.5, "degree bound"),
    "fs_pipeline": (lambda v: fs_pipeline(DESCRIPTORS, p_max=v), 1.5,
                    "degree bound"),
    "walk": (lambda v: PathSpec("DR").walk(v), True, "degree bound"),
    "descending_at": (lambda v: PathSpec.descending_at([0], v), 1.5,
                      "floor count"),
    "staircase": (lambda v: PathSpec.staircase(v), 2.5, "floor count"),
    "cochain_group_bool": (lambda v: cochain_group(M, C, v), True,
                           "cochain degree"),
    "cochain_group_float": (lambda v: cochain_group(M, C, v), 1.0,
                            "cochain degree"),
    "LeechComplex": (lambda v: LeechComplex(M, C, v), 2.0, "max degree"),
    "leech_cohomology_table": (lambda v: leech_cohomology_table(M, C, v), True,
                               "degree bound"),
    "TotalComplex": (lambda v: TotalComplex(GRID, ZERO, v), 2.0,
                     "degree bound"),
    "total_cohomology": (lambda v: total_cohomology(GRID, ZERO, v), True,
                         "degree bound"),
    "is_double_complex": (lambda v: is_double_complex(GRID, ZERO, v), 1.5,
                          "degree bound"),
    "cyclic_group": (cyclic_group, True, "cyclic group order"),
    "power_set_monoid": (power_set_monoid, True, "ground set size"),
    "build_gr": (lambda v: build_gr(SYSTEM, v), 0.0, "set index"),
}


@pytest.mark.parametrize("call, value, what", CASES.values(), ids=CASES.keys())
def test_non_integer_refused_by_name(call, value, what):
    with pytest.raises(ValueError, match=f"^{what} {value!r} is not an integer$"):
        call(value)


@pytest.mark.parametrize("build", [PathSpec.staircase,
                                   lambda n: PathSpec.descending_at([0], n)],
                         ids=["staircase", "descending_at"])
def test_floor_count_must_be_positive(build):
    assert build(1) == PathSpec("")
    with pytest.raises(ValueError, match="^floor count must be positive, got 0$"):
        build(0)
