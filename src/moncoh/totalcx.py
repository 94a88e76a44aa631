"""Total complex of a floor stack whose squares all commute.

The stack is a genuine double complex when, for every floor pair and
degree, going right-then-down equals going down-then-right.  The grid
machinery never requires that; this module detects it and, when it
holds, folds the stack into a single complex

    Tot^n = direct sum over floor + degree = n of the cochain groups,

with differential D = horizontal + (-1)^degree * vertical on each
summand.  The sign rides the vertical map and depends on the summand's
internal degree, which is what makes the two routes around each
commuting square cancel.

A square whose vertical maps are both pulled back along one monoid
homomorphism phi, between floors with the same constant coefficients A,
commutes by naturality of the normalized bar construction: phi^* (x) 1_A
commutes with the coboundary.  Such a square is certified from the
entries of its two vertical maps, compared exactly with phi^* (x) 1_A,
and is not composed.

``total_cohomology`` reads Tot reduced along the union of its floors'
one-level Morse matchings (``leech.morse_reduction``) when Tot is
certified to square to zero without composing anything: some floor's
matching pairs cells, every floor satisfies the translation relations,
no stacked vertical maps compose to a nonzero map, and every square has
two zero vertical maps or is certified by naturality.  The walk reads
each nonzero vertical map as phi^* (x) 1_A through the phi that
certified it, so it builds no floor coboundary and no cochain group.

Any other stack is a ``TotalComplex``, which is also the reference in
tests.  Its one proof of D o D = 0 proves its blocks too: each floor's
d o d, the column condition and every square (f, d) with f + d below the
top degree; only squares beyond that are checked, each certified by
naturality or else composed.  D reads floor p's d^q for q <= n_max - p.

A square that is composed reads the floor store's coboundaries (see
``grid``), but a route through a zero vertical map is zero and reads
none: d^d of the lower floor is read only under a nonzero upper map, and
d^d of the upper floor only over a nonzero lower one.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .grid import (
    ColumnConditionError,
    GridSpec,
    VerticalFamily,
    _degree_bound,
    _FloorStore,
)
from .leech import (
    morse_reduction,
    one_level_matching,
    relations_hold,
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
    _degree_bound(p_max)
    store = _FloorStore(grid, family, p_max)
    return _double_complex_view(not store.violations, store, p_max, 0)


def _double_complex_view(column_ok: bool, store: _FloorStore, p_max: int,
                         proven: int) -> DoubleComplexView:
    """``is_double_complex`` on the store's floors; squares with
    f + d < proven are blocks of a proven D o D = 0 and are not composed.
    A square with two zero vertical maps commutes, and so does one that
    ``natural`` certifies; any other is composed.  A route through a zero
    vertical map is zero, so one with one zero map commutes when the other
    route is zero."""
    def commutes(f: int, d: int) -> bool:
        if f + d < proven or store.certified(f, d):
            return True
        zero, above = store.zero[f], store.vertical(f, d + 1)
        if zero[d]:
            return above.compose(store.coboundary(f, d)).is_zero()
        up = store.coboundary(f + 1, d).compose(store.vertical(f, d))
        return up.is_zero() if zero[d + 1] else up.equals(
            above.compose(store.coboundary(f, d)))

    return DoubleComplexView(len(store.floors), p_max, tuple(
        tuple(commutes(f, d) for d in range(p_max + 1))
        for f in range(len(store.zero))), column_ok)


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
        _degree_bound(n_max)
        self._build(_FloorStore(grid, family, n_max))

    @classmethod
    def _from_store(cls, store: _FloorStore) -> TotalComplex:
        """The total complex of a store's floors to its degree bound,
        reading the maps and totals the store already holds."""
        cx = cls.__new__(cls)
        cx._build(store)
        return cx

    def _build(self, store: _FloorStore) -> None:
        n_max, zero = store.n, store.zero
        # the summand (p, n - p) of Tot^n is its p-th
        self.levels: list[TotalGroup] = []
        for n in range(n_max + 2):
            summands = tuple((p, n - p)
                             for p in range(min(len(store.floors), n + 1)))
            self.levels.append(TotalGroup(n, summands, DirectSum.of(
                [store.group(p, q).total for p, q in summands])))
        differentials: list[AbHom] = []
        for n in range(n_max + 1):
            src, tgt = self.levels[n].dsum, self.levels[n + 1].dsum
            columns: list[SparseColumn] = [
                {} for _ in range(src.presentation_size)]
            for p, q in self.levels[n].summands:
                add_block(columns, tgt.offsets[p], src.offsets[p],
                          store.coboundary(p, q).columns)
                if p < len(zero) and not zero[p][q]:
                    add_block(columns, tgt.offsets[p + 1], src.offsets[p],
                              store.vertical(p, q).columns, -1 if q % 2 else 1)
            differentials.append(assemble_hom(src, tgt, columns))
        failure = None
        try:
            super().__init__(self.levels[0].total, differentials,
                             _total_failure)
        except AssertionError as exc:
            failure = exc
            for f in range(len(store.floors)):
                CochainComplex(store.group(f, 0).total, [
                    store.coboundary(f, d) for d in range(n_max + 1)],
                    translation_failure)
        violations = store.violations
        view = _double_complex_view(not violations, store, n_max,
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


def _total_failure(n: int) -> AssertionError:
    return AssertionError(f"total differential fails to square to zero "
                          f"between degrees {n} and {n + 2}")


def total_cohomology(grid: GridSpec, family: VerticalFamily,
                     n_max: int) -> list[FgAbGroup]:
    """H^0..H^n_max of the total complex; empty when the range is empty.

    Read off Tot reduced along its floors' matchings when D is certified
    to square to zero through Tot^(n_max + 1) without composing anything
    (see the module docstring), and otherwise off a ``TotalComplex``
    built on the same floor store, which raises its own errors and
    views."""
    _integers_only([[n_max]], "degree bound")
    if n_max < 0:
        return []
    store = _FloorStore(grid, family, n_max)
    zero = store.zero  # every stored map is checked first
    matchings = [one_level_matching(m) for m, _ in grid.floors]
    if (any(pairs for _, pairs, _ in matchings)
            and all(relations_hold(c) for _, c in grid.floors)
            and not store.violations
            and all(store.certified(f, d) for f in range(len(zero))
                    for d in range(n_max + 1))):
        _, groups, differentials = morse_reduction(
            [(m, c, matching) for (m, c), matching
             in zip(grid.floors, matchings)],
            n_max + 1, store.vertical_terms)
        cx = CochainComplex(groups[0].total, differentials, _total_failure)
    else:
        cx = TotalComplex._from_store(store)
    return [cx.cohomology(n) for n in range(n_max + 1)]
