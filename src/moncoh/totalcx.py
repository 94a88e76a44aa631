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
with f + d below the top degree; only squares beyond that are checked.

A square past the proof's reach whose vertical maps are both pulled back
along one monoid homomorphism phi, between floors with the same constant
coefficients A, commutes by naturality of the normalized bar
construction: phi^* (x) 1_A commutes with the coboundary.  Such a square
is certified from the entries of its two vertical maps, compared exactly
with phi^* (x) 1_A, and is not composed.

Each call keeps its own floor store: every floor's cochain groups, built
up front because each vertical map is checked against them, and each
floor coboundary, built on first read.  D reads floor p's d^q for
q <= n_max - p.  A square past the proof's reach that is not certified
reads d^d of its lower floor only through a nonzero vertical map, and
d^d of its upper floor only after one, through ``leech.coboundary_after``;
a square with two zero vertical maps reads nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .abelian import (
    AbHom,
    CochainComplex,
    DirectSum,
    FgAbGroup,
    SparseColumn,
    _integers_only,
    add_block,
    assemble_hom,
)
from .coeff import CoeffSystem
from .grid import ColumnConditionError, GridSpec, VerticalFamily
from .leech import (
    coboundary,
    coboundary_after,
    cochain_group,
    translation_failure,
)

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
    """Exact commutation test for every square up to the degree bound on
    unproven floors; one floor passes vacuously."""
    _integers_only([[p_max]], "degree bound")
    if p_max < 0:
        raise ValueError("degree bound must be nonnegative")
    violations = family.column_violations()
    return _double_complex_view(violations, _FloorStore(grid, family, p_max),
                                p_max, 0)


class _FloorStore:
    """The floors of one call to degree bound n: each floor's cochain
    groups C^0..C^(n+1) and ``family.hom`` once per floor pair and degree,
    built up front, and its coboundaries, each built on first read and
    kept for that call, never proven."""

    def __init__(self, grid: GridSpec, family: VerticalFamily, n: int):
        self.floors = grid.floors
        self.groups = [[cochain_group(m, c, k) for k in range(n + 2)]
                       for m, c in grid.floors]
        self.verticals = [[family.hom(f, s, t) for s, t in zip(source, target)]
                          for f, (source, target) in enumerate(
                              zip(self.groups, self.groups[1:]))]
        self._maps: list[dict[int, AbHom]] = [{} for _ in grid.floors]
        self._pullbacks: dict[tuple[int, int], tuple[int, ...] | None] = {}
        self._constant: dict[int, bool] = {}

    def natural(self, f: int, d: int) -> bool:
        """Square (f, d) commutes by naturality of the bar construction:
        v_d and v_(d+1) are both phi^* (x) 1_A for one monoid homomorphism
        phi from floor f + 1 to floor f, both floors constant over A."""
        phi = self.pullback(f, d + 1)
        return phi is not None and self.pullback(f, d) == phi

    def pullback(self, f: int, d: int) -> tuple[int, ...] | None:
        """The element map phi with v_d = phi^* (x) 1_A exactly, in
        canonical coordinates, when phi is a monoid homomorphism and both
        floors are constant over A; else None.  phi is read off the
        diagonal tuples (a, ..., a) of v_max(d, 1): row (a, ..., a) of the
        first generator holds a 1 in column (phi(a), ..., phi(a)), or
        nothing when phi(a) is the identity."""
        if (f, d) in self._pullbacks:
            return self._pullbacks[f, d]
        self._pullbacks[f, d] = None
        (low, lc), (up, uc) = self.floors[f], self.floors[f + 1]
        a = lc.groups[0]
        if f not in self._constant:
            self._constant[f] = _constant_over(lc, a) and _constant_over(uc, a)
        if not self._constant[f]:
            return None
        lower, upper = low.non_identity(), up.non_identity()
        k, r, read = len(lower), a.ngens, max(d, 1)
        # copies of one group chain, so each change of basis here is a
        # permutation; the tuple (i, ..., i) over n elements is number
        # i * (1 + n + ... + n^(read - 1))
        cols = self.groups[f][read].dsum.permutation
        rows = self.groups[f + 1][read].dsum.permutation
        v = self.verticals[f][read].columns
        heads = [v[cols[b * r * sum(k ** q for q in range(read))]]
                 for b in range(k)]
        unit = r * sum(len(upper) ** q for q in range(read))
        # step[i] is the position of phi(upper[i]) in lower, None for e
        step = [next((b for b, col in enumerate(heads)
                      if rows[i * unit] in col), None)
                for i in range(len(upper))]
        phi = [low.identity_index] * up.size
        for x, b in zip(upper, step):
            if b is not None:
                phi[x] = lower[b]
        if any(phi[up.table[x][y]] != low.table[phi[x]][phi[y]]
               for x in range(up.size) for y in range(up.size)):
            return None
        # generator g of upper tuple j reads generator g of lower tuple
        # images[j], or nothing when phi sends an entry of j to e
        images: list[int | None] = [0]
        for _ in range(d):
            images = [None if i is None or b is None else i * k + b
                      for i in images for b in step]
        cols = self.groups[f][d].dsum.permutation
        rows = self.groups[f + 1][d].dsum.permutation
        want: list[SparseColumn] = [{} for _ in range(k ** d * r)]
        for j, i in enumerate(images):
            if i is not None:
                for g in range(r):
                    want[cols[i * r + g]][rows[j * r + g]] = 1
        if self.verticals[f][d].columns != tuple(want):
            return None
        self._pullbacks[f, d] = tuple(phi)
        return self._pullbacks[f, d]

    def coboundary(self, f: int, d: int) -> AbHom:
        maps = self._maps[f]
        if d not in maps:
            groups = self.groups[f]
            maps[d] = coboundary(*self.floors[f], d, groups[d], groups[d + 1])
        return maps[d]

    def coboundary_after(self, f: int, d: int, inner: AbHom) -> AbHom:
        """d^d of floor f after inner, filling only what inner reaches
        unless d^d is already built."""
        built = self._maps[f].get(d)
        if built is not None:
            return built.compose(inner)
        groups = self.groups[f]
        return coboundary_after(*self.floors[f], d, inner, groups[d],
                                groups[d + 1])


def _constant_over(c: CoeffSystem, group: FgAbGroup) -> bool:
    """Every group of c is group and every translation the identity."""
    one = tuple({j: 1} for j in range(group.ngens))
    return (all(g == group for g in c.groups)
            and all(h.columns == one for h in chain(c.lstar.values(),
                                                    c.rstar.values())))


def _double_complex_view(violations: Sequence[tuple[int, int, AbHom]],
                         store: _FloorStore, p_max: int,
                         proven: int) -> DoubleComplexView:
    """``is_double_complex`` on the store's floors; squares with
    f + d < proven are blocks of a proven D o D = 0 and are not composed.
    A square with two zero vertical maps commutes, and so does one that
    ``natural`` certifies; any other is composed.  A route through a zero
    vertical map is zero, so one with one zero map commutes when the other
    route is zero."""
    rows = []
    for f, vert in enumerate(store.verticals):
        row = []
        for d in range(p_max + 1):
            below, above = vert[d].is_zero(), vert[d + 1].is_zero()
            if f + d < proven or below and above or store.natural(f, d):
                row.append(True)
            elif below:
                row.append(vert[d + 1].compose(store.coboundary(f, d)).is_zero())
            else:
                up = store.coboundary_after(f + 1, d, vert[d])
                row.append(up.is_zero() if above else up.equals(
                    vert[d + 1].compose(store.coboundary(f, d))))
        rows.append(tuple(row))
    return DoubleComplexView(len(store.groups), p_max, tuple(rows),
                             not violations)


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
    on first request and kept.  Floor p's coboundaries are built for the
    blocks of D, d^q with q <= n_max - p, and beyond that only as far as
    the squares past the proof's reach read them.  A failing proof is
    located first as a floor breaking the translation relations, then as
    NotADoubleComplex, then as its own."""

    def __init__(self, grid: GridSpec, family: VerticalFamily, n_max: int):
        _integers_only([[n_max]], "degree bound")
        if n_max < 0:
            raise ValueError("degree bound must be nonnegative")
        store = _FloorStore(grid, family, n_max)
        groups, verticals = store.groups, store.verticals
        # the summand (p, n - p) of Tot^n is its p-th
        self.levels: list[TotalGroup] = []
        for n in range(n_max + 2):
            summands = tuple((p, n - p) for p in range(min(len(groups), n + 1)))
            self.levels.append(TotalGroup(n, summands, DirectSum.of(
                [groups[p][q].total for p, q in summands])))
        differentials: list[AbHom] = []
        for n in range(n_max + 1):
            src, tgt = self.levels[n].dsum, self.levels[n + 1].dsum
            columns: list[SparseColumn] = [
                {} for _ in range(src.presentation_size)]
            for p, q in self.levels[n].summands:
                add_block(columns, tgt.offsets[p], src.offsets[p],
                          store.coboundary(p, q).columns)
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
            for f, floor in enumerate(groups):
                CochainComplex(floor[0].total, [
                    store.coboundary(f, d) for d in range(n_max + 1)],
                    translation_failure)
        violations = family.column_violations()
        view = _double_complex_view(violations, store, n_max,
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
    _integers_only([[n_max]], "degree bound")
    if n_max < 0:
        return []
    cx = TotalComplex(grid, family, n_max)
    return [cx.cohomology(n) for n in range(n_max + 1)]
