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

Each call keeps its own floor store: every stored vertical map, its
shape checked against the canonical totals counted without building
the groups, with whether it is zero, a missing map being zero; and each
floor's cochain groups and coboundaries, built on first read.  A square
that is composed reads the store's coboundaries, but a route through a
zero vertical map is zero and reads none: d^d of the lower floor is read
only under a nonzero upper map, and d^d of the upper floor only over a
nonzero lower one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

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
from .coeff import _constant_over
from .grid import ColumnConditionError, GridSpec, VerticalFamily
from .leech import (
    CochainGroup,
    Terms,
    coboundary,
    cochain_group,
    cochain_totals,
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
    _integers_only([[p_max]], "degree bound")
    if p_max < 0:
        raise ValueError("degree bound must be nonnegative")
    violations = family.column_violations()
    return _double_complex_view(violations, _FloorStore(grid, family, p_max),
                                p_max, 0)


class _FloorStore:
    """The floors of one call to degree bound n: ``family``'s stored map
    once per floor pair and degree 0..n+1, its shape checked against the
    canonical totals ``cochain_totals`` counts, and whether it is zero, a
    missing map being None and zero; and each floor's cochain groups and
    coboundaries, each built on first read and kept for that call, never
    proven."""

    def __init__(self, grid: GridSpec, family: VerticalFamily, n: int):
        self.floors = grid.floors
        totals: dict[int, list[FgAbGroup]] = {}

        def total(f: int, d: int) -> FgAbGroup:
            if f not in totals:
                totals[f] = cochain_totals(*self.floors[f], n + 1)
            return totals[f][d]

        self.verticals = [
            [family.stored(f, d, total(f, d), total(f + 1, d))
             if (f, d) in family.maps else None for d in range(n + 2)]
            for f in range(len(self.floors) - 1)]
        self.zero = [[v is None or v.is_zero() for v in row]
                     for row in self.verticals]
        self._groups: dict[tuple[int, int], CochainGroup] = {}
        self._maps: dict[tuple[int, int], AbHom] = {}
        self._pullbacks: dict[tuple[int, int], tuple[int, ...] | None] = {}
        self._constant: dict[int, bool] = {}
        self._homomorphisms: dict[tuple[int, tuple[int, ...]], bool] = {}

    def group(self, f: int, k: int) -> CochainGroup:
        if (f, k) not in self._groups:
            self._groups[f, k] = cochain_group(*self.floors[f], k)
        return self._groups[f, k]

    def certified(self, f: int, d: int) -> bool:
        """Square (f, d) commutes without composing: both its vertical
        maps are zero, or ``natural`` certifies it."""
        return self.zero[f][d] and self.zero[f][d + 1] or self.natural(f, d)

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
        nothing when phi(a) is the identity, as everywhere in a missing
        map."""
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
        # step[i] is the position of phi(upper[i]) in lower, None for e
        step: list[int | None] = [None] * len(upper)
        v = self.verticals[f][read]
        if v is not None:
            # the tuple (i, ..., i) over n elements is number
            # i * (1 + n + ... + n^(read - 1))
            cols = _copies_permutation(a, k ** read)
            rows = _copies_permutation(a, len(upper) ** read)
            heads = [v.columns[cols[b * r * sum(k ** q for q in range(read))]]
                     for b in range(k)]
            unit = r * sum(len(upper) ** q for q in range(read))
            step = [next((b for b, col in enumerate(heads)
                          if rows[i * unit] in col), None)
                    for i in range(len(upper))]
        phi = [low.identity_index] * up.size
        for x, b in zip(upper, step):
            if b is not None:
                phi[x] = lower[b]
        key = f, tuple(phi)
        if key not in self._homomorphisms:
            self._homomorphisms[key] = all(
                phi[z] == low.table[phi[x]][phi[y]]
                for x, row in enumerate(up.table) for y, z in enumerate(row))
        if not self._homomorphisms[key]:
            return None
        # generator g of upper tuple j reads generator g of lower tuple
        # images[j], or nothing when phi sends an entry of j to e
        images: list[int | None] = [0]
        for _ in range(d):
            images = [None if i is None or b is None else i * k + b
                      for i in images for b in step]
        v = self.verticals[f][d]
        if v is None:
            if r and any(i is not None for i in images):
                return None
        else:
            cols = _copies_permutation(a, k ** d)
            rows = _copies_permutation(a, len(upper) ** d)
            want: list[SparseColumn] = [{} for _ in range(k ** d * r)]
            for j, i in enumerate(images):
                if i is not None:
                    for g in range(r):
                        want[cols[i * r + g]][rows[j * r + g]] = 1
            if v.columns != tuple(want):
                return None
        self._pullbacks[f, d] = tuple(phi)
        return self._pullbacks[f, d]

    def coboundary(self, f: int, d: int) -> AbHom:
        if (f, d) not in self._maps:
            self._maps[f, d] = coboundary(*self.floors[f], d, self.group(f, d),
                                          self.group(f, d + 1))
        return self._maps[f, d]

    def vertical_terms(self, p: int, q: int) -> Callable[[int], Terms] | None:
        """The block (-1)^q v_q of D from floor p to floor p + 1, read at
        a cell of floor p in the layout of ``leech._face_rule``; None when
        v_q is zero.  A nonzero map that certified squares read is
        phi^* (x) 1_A for the phi that ``pullback`` certified against its
        entries, so cell x of floor p reaches each tuple of floor p + 1
        that phi sends to x, by the identity of A."""
        if self.zero[p][q]:
            return None
        phi = self.pullback(p, q)
        (low, _), (up, _) = self.floors[p], self.floors[p + 1]
        lower, upper = low.non_identity(), up.non_identity()
        k, width, sign = len(lower), len(upper), -1 if q % 2 else 1
        place = {b: i for i, b in enumerate(lower)}
        # fibers[i]: the positions in upper of the elements phi sends to
        # lower[i]
        fibers: list[list[int]] = [[] for _ in lower]
        for u, a in enumerate(upper):
            if phi[a] in place:
                fibers[place[phi[a]]].append(u)

        def terms(x: int) -> Terms:
            targets, w = [0], k ** q
            for _ in range(q):
                w //= k
                targets = [t * width + u for t in targets
                           for u in fibers[x // w % k]]
            return [(t, None, sign) for t in targets]

        return terms


def _copies_permutation(group: FgAbGroup, copies: int) -> Sequence[int]:
    """``DirectSum.of([group] * copies).permutation`` without building
    the sum: the canonical generators are the presentation generators
    stably sorted by order, so generator g of copy i, among the
    generators start .. start + size - 1 of group of its order, is
    canonical generator copies * start + i * size + g - start."""
    orders = group.orders
    if len(set(orders)) < 2:
        return range(copies * len(orders))
    spots = [(orders.index(o), orders.count(o)) for o in orders]
    return [copies * start + i * size + g - start for i in range(copies)
            for g, (start, size) in enumerate(spots)]


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
    for f, (vert, zero) in enumerate(zip(store.verticals, store.zero)):
        row = []
        for d in range(p_max + 1):
            below, above = zero[d], zero[d + 1]
            if f + d < proven or store.certified(f, d):
                row.append(True)
            elif below:
                row.append(vert[d + 1].compose(store.coboundary(f, d)).is_zero())
            else:
                up = store.coboundary(f + 1, d).compose(vert[d])
                row.append(up.is_zero() if above else up.equals(
                    vert[d + 1].compose(store.coboundary(f, d))))
        rows.append(tuple(row))
    return DoubleComplexView(len(store.floors), p_max, tuple(rows),
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
        verticals, zero = store.verticals, store.zero
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
                if p < len(verticals) and not zero[p][q]:
                    add_block(columns, tgt.offsets[p + 1], src.offsets[p],
                              verticals[p][q].columns, -1 if q % 2 else 1)
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


def _total_failure(n: int) -> AssertionError:
    return AssertionError(f"total differential fails to square to zero "
                          f"between degrees {n} and {n + 2}")


def total_cohomology(grid: GridSpec, family: VerticalFamily,
                     n_max: int) -> list[FgAbGroup]:
    """H^0..H^n_max of the total complex; empty when the range is empty.

    Read off Tot reduced along its floors' matchings when D is certified
    to square to zero through Tot^(n_max + 1) without composing anything
    (see the module docstring), and otherwise off a ``TotalComplex``,
    which raises its own errors and views."""
    _integers_only([[n_max]], "degree bound")
    if n_max < 0:
        return []
    store = _FloorStore(grid, family, n_max)
    matchings = [one_level_matching(m) for m, _ in grid.floors]
    if (any(pairs for _, pairs, _ in matchings)
            and all(relations_hold(c) for _, c in grid.floors)
            and not family.column_violations()
            and all(store.certified(f, d) for f in range(len(store.zero))
                    for d in range(n_max + 1))):
        _, groups, differentials = morse_reduction(
            [(m, c, matching) for (m, c), matching
             in zip(grid.floors, matchings)],
            n_max + 1, store.vertical_terms)
        cx = CochainComplex(groups[0].total, differentials, _total_failure)
    else:
        cx = TotalComplex(grid, family, n_max)
    return [cx.cohomology(n) for n in range(n_max + 1)]
