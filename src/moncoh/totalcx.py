"""Total complex of a floor stack whose squares all commute.

The stack is a genuine double complex when, for every floor pair and
degree, going right-then-down equals going down-then-right.  The grid
machinery never requires that; this module detects it and, when it
holds, folds the stack into a single complex

    Tot^n = direct sum over floor + degree = n of the cochain groups,

with differential D = horizontal + (-1)^degree * vertical on each
summand.  The sign rides the vertical map and depends on the summand's
internal degree, which is what makes the two routes around each
commuting square cancel; D o D = 0 is re-verified on every construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .abelian import (
    AbHom,
    DirectSum,
    FgAbGroup,
    SparseColumn,
    TRIVIAL_GROUP,
    _ComplexCohomology,
    add_block,
    assemble_hom,
)
from .grid import GridSpec, VerticalFamily
from .leech import LeechComplex

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
        for f, row in enumerate(self.commutes):
            for d, good in enumerate(row):
                if not good:
                    return (f, d)
        return None

    @property
    def ok(self) -> bool:
        return self.column_ok and self.first_failure is None


def is_double_complex(grid: GridSpec, family: VerticalFamily,
                      p_max: int) -> DoubleComplexView:
    """Exact commutation test for every square up to the degree bound;
    single-floor grids pass vacuously."""
    return _double_complex_view(family, _floor_complexes(grid, p_max + 1),
                                p_max)


def _floor_complexes(grid: GridSpec,
                     max_degree: int) -> tuple[LeechComplex, ...]:
    return tuple(LeechComplex(m, c, max_degree) for m, c in grid.floors)


def _vertical(family: VerticalFamily, complexes: Sequence[LeechComplex],
              floor: int, degree: int) -> AbHom:
    return family.hom(floor, complexes[floor].group(degree),
                      complexes[floor + 1].group(degree))


def _double_complex_view(family: VerticalFamily,
                         complexes: Sequence[LeechComplex],
                         p_max: int) -> DoubleComplexView:
    """``is_double_complex`` on floor complexes built to degree p_max + 1."""
    rows = []
    for f in range(len(complexes) - 1):
        row = []
        for d in range(p_max + 1):
            down_then_right = complexes[f + 1].differential(d).compose(
                _vertical(family, complexes, f, d))
            right_then_down = _vertical(family, complexes, f, d + 1).compose(
                complexes[f].differential(d))
            row.append(right_then_down.equals(down_then_right))
        rows.append(tuple(row))
    return DoubleComplexView(
        floor_count=len(complexes),
        p_max=p_max,
        commutes=tuple(rows),
        column_ok=not family.column_violations(),
    )


@dataclass(frozen=True)
class TotalGroup:
    degree: int
    summands: tuple[tuple[int, int], ...]  # (floor, degree), floors ascending
    dsum: DirectSum

    @property
    def total(self) -> FgAbGroup:
        return self.dsum.total


class TotalComplex:
    """Groups Tot^0..Tot^(n_max + 1) and differentials D^0..D^(n_max), with
    D o D = 0 verified once per pair at construction; each H^n is computed
    on first request and kept."""

    def __init__(self, grid: GridSpec, family: VerticalFamily, n_max: int):
        if n_max < 0:
            raise ValueError("degree bound must be nonnegative")
        self.complexes = _floor_complexes(grid, n_max + 1)
        view = _double_complex_view(family, self.complexes, n_max)
        if not view.column_ok:
            raise NotADoubleComplex(
                "vertical maps do not square to zero down the columns", view)
        bad = view.first_failure
        if bad is not None:
            raise NotADoubleComplex(
                f"square at (floor {bad[0]}, degree {bad[1]}) does not commute",
                view)
        self.grid = grid
        self.family = family
        self.n_max = n_max
        self.levels: list[TotalGroup] = []
        index_of: list[dict[tuple[int, int], int]] = []
        for n in range(n_max + 2):
            summands = tuple(
                (p, n - p)
                for p in range(min(grid.floor_count - 1, n) + 1))
            dsum = DirectSum.of(
                [self.complexes[p].group(q).total for p, q in summands])
            self.levels.append(TotalGroup(n, summands, dsum))
            index_of.append({pq: i for i, pq in enumerate(summands)})
        self.differentials: list[AbHom] = []
        for n in range(n_max + 1):
            src, tgt = self.levels[n].dsum, self.levels[n + 1].dsum
            columns: list[SparseColumn] = [
                {} for _ in range(src.presentation_size)]
            for i, (p, q) in enumerate(self.levels[n].summands):
                horiz = self.complexes[p].differential(q)
                add_block(columns, tgt.offsets[index_of[n + 1][(p, q + 1)]],
                          src.offsets[i], horiz.columns)
                if p + 1 < grid.floor_count:
                    vert = _vertical(family, self.complexes, p, q)
                    if not vert.is_zero():
                        add_block(columns, tgt.offsets[index_of[n + 1][(p + 1, q)]],
                                  src.offsets[i], vert.columns, -1 if q % 2 else 1)
            self.differentials.append(assemble_hom(src, tgt, columns))
        self._engine = _ComplexCohomology(
            self.differentials, lambda n: AssertionError(
                f"total differential fails to square to zero between "
                f"degrees {n} and {n + 2}"))

    def group(self, n: int) -> TotalGroup:
        return self.levels[n]

    def differential(self, n: int) -> AbHom:
        if n == -1:
            return AbHom.zero(TRIVIAL_GROUP, self.levels[0].total)
        return self.differentials[n]

    def cohomology(self, n: int) -> FgAbGroup:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"H^{n} is outside the built range 0..{self.n_max}")
        return self._engine.cohomology(n)


def total_cohomology(grid: GridSpec, family: VerticalFamily,
                     n_max: int) -> list[FgAbGroup]:
    """H^0..H^n_max of the total complex; empty when the range is empty."""
    if n_max < 0:
        return []
    cx = TotalComplex(grid, family, n_max)
    return [cx.cohomology(n) for n in range(n_max + 1)]
