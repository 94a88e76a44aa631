"""Total complex of a floor stack whose squares all commute.

The stack is a genuine double complex when, for every floor pair and
degree, going right-then-down equals going down-then-right.  The grid
machinery never requires that; this module detects it and, when it
holds, folds the stack into a single complex

    Tot^n = direct sum over floor + degree = n of the cochain groups,

with differential D = horizontal + (-1)^degree * vertical on each
summand.  The sign rides the vertical map and depends on the summand's
internal degree, which is what makes the two routes around each
commuting square cancel.  So the one proof of D o D = 0 proves its blocks
too: each floor's d o d, the column condition and every square (f, d)
with f + d below the top degree; only squares beyond that are composed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .abelian import (
    AbHom,
    CochainComplex,
    DirectSum,
    FgAbGroup,
    SparseColumn,
    add_block,
    assemble_hom,
)
from .grid import ColumnConditionError, GridSpec, VerticalFamily
from .leech import CochainGroup, floor_cochains, translation_failure

SIGN_CONVENTION = ("total differential D = horizontal + (-1)^degree * "
                   "vertical per summand")


class NotADoubleComplex(ValueError):
    """The stack fails the column condition or a square does not
    commute; view is the full commutation record."""

    def __init__(self, message: str, view: DoubleComplexView):
        self.view = view
        super().__init__(message)


@dataclass(frozen=True)
class DoubleComplexView:
    """Per-square commutation record; square (f, d) compares the two
    routes from floor f, degree d to floor f + 1, degree d + 1."""

    floor_count: int
    p_max: int
    commutes: tuple[tuple[bool, ...], ...]
    column_ok: bool

    @property
    def first_failure(self) -> tuple[int, int] | None:
        return next(((f, d) for f, row in enumerate(self.commutes)
                     for d, good in enumerate(row) if not good), None)

    @property
    def ok(self) -> bool:
        return self.column_ok and self.first_failure is None


def is_double_complex(grid: GridSpec, family: VerticalFamily,
                      p_max: int) -> DoubleComplexView:
    """Exact commutation test for every square up to the degree bound, each
    composed both ways on unproven floors; one floor passes vacuously."""
    return _double_complex_view(
        family.column_violations(),
        *_floors_and_verticals(grid, family, p_max + 1), p_max, 0)


Floor = tuple[list[CochainGroup], list[AbHom]]  # cochain groups, coboundaries


def _floors_and_verticals(grid: GridSpec, family: VerticalFamily, max_degree: int
                          ) -> tuple[tuple[Floor, ...], list[list[AbHom]]]:
    """Each floor built to max_degree, not proven, and ``family.hom`` once
    per floor pair and degree 0..max_degree."""
    floors = tuple(floor_cochains(m, c, max_degree) for m, c in grid.floors)
    return floors, [
        [family.hom(f, source[d], target[d]) for d in range(max_degree + 1)]
        for f, ((source, _), (target, _)) in enumerate(zip(floors, floors[1:]))]


def _double_complex_view(violations: Sequence[tuple[int, int, AbHom]],
                         floors: Sequence[Floor],
                         verticals: Sequence[Sequence[AbHom]], p_max: int,
                         proven: int) -> DoubleComplexView:
    """``is_double_complex`` on floors built to degree p_max + 1; squares with
    f + d < proven are blocks of a proven D o D = 0 and are not composed."""
    rows = []
    for f, vert in enumerate(verticals):
        source, target = floors[f][1], floors[f + 1][1]
        rows.append(tuple(
            f + d < proven
            or target[d].compose(vert[d]).equals(vert[d + 1].compose(source[d]))
            for d in range(p_max + 1)))
    return DoubleComplexView(len(floors), p_max, tuple(rows), not violations)


@dataclass(frozen=True)
class TotalGroup:
    degree: int
    summands: tuple[tuple[int, int], ...]  # (floor, degree), floors ascending
    dsum: DirectSum

    @property
    def total(self) -> FgAbGroup:
        return self.dsum.total


class TotalComplex(CochainComplex):
    """Groups Tot^0..Tot^(n_max + 1) and differentials D^0..D^(n_max), with
    D o D = 0 verified once per pair at construction; each H^n is computed
    on first request and kept.  complexes holds each floor's unproven groups
    and coboundaries.  A failing proof is located first as a floor breaking
    the translation relations, then as NotADoubleComplex, then as its own."""

    def __init__(self, grid: GridSpec, family: VerticalFamily, n_max: int):
        if n_max < 0:
            raise ValueError("degree bound must be nonnegative")
        floors, verticals = _floors_and_verticals(grid, family, n_max + 1)
        self.complexes = floors
        # the summand (p, n - p) of Tot^n is its p-th
        self.levels: list[TotalGroup] = []
        for n in range(n_max + 2):
            summands = tuple((p, n - p) for p in range(min(len(floors), n + 1)))
            self.levels.append(TotalGroup(n, summands, DirectSum.of(
                [floors[p][0][q].total for p, q in summands])))
        differentials: list[AbHom] = []
        for n in range(n_max + 1):
            src, tgt = self.levels[n].dsum, self.levels[n + 1].dsum
            columns: list[SparseColumn] = [
                {} for _ in range(src.presentation_size)]
            for p, q in self.levels[n].summands:
                add_block(columns, tgt.offsets[p], src.offsets[p],
                          floors[p][1][q].columns)
                if p < len(verticals) and not verticals[p][q].is_zero():
                    add_block(columns, tgt.offsets[p + 1], src.offsets[p],
                              verticals[p][q].columns, -1 if q % 2 else 1)
            differentials.append(assemble_hom(src, tgt, columns))
        failure = None
        try:
            super().__init__(self.levels[0].total, differentials, lambda n: (
                AssertionError(f"total differential fails to square to zero "
                               f"between degrees {n} and {n + 2}")))
        except AssertionError as exc:
            failure = exc
            for groups, maps in floors:
                CochainComplex(groups[0].total, maps, translation_failure)
        violations = family.column_violations()
        view = _double_complex_view(violations, floors, verticals, n_max,
                                    n_max if failure is None else 0)
        if violations:
            raise NotADoubleComplex(str(ColumnConditionError(violations)),
                                    view)
        bad = view.first_failure
        if bad is not None:
            raise NotADoubleComplex(f"square at (floor {bad[0]}, degree "
                                    f"{bad[1]}) does not commute", view)
        if failure is not None:
            raise failure


def total_cohomology(grid: GridSpec, family: VerticalFamily,
                     n_max: int) -> list[FgAbGroup]:
    """H^0..H^n_max of the total complex; empty when the range is empty."""
    if n_max < 0:
        return []
    cx = TotalComplex(grid, family, n_max)
    return [cx.cohomology(n) for n in range(n_max + 1)]
