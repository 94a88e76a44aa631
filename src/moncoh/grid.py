"""Cohomology along lattice paths through stacked cochain complexes.

A grid stacks floors, each a finite monoid with a coefficient system;
position (floor f, degree j) carries the degree j cochain group of floor
f.  A path starts at (0, 0) and at each step moves right (R, same floor,
degree + 1, along the floor's coboundary) or down (D, floor + 1, same
degree, along a supplied vertical family).  After its explicit moves a
path continues rightward forever; walks are truncated by a degree bound.

The groups along a path form a cochain sequence.  It is a complex exactly
when consecutive maps compose to zero: right-right pairs do when the
floor's coefficient system satisfies the translation relations, down
pairs need the family's column condition, and mixed pairs are a condition
on the family.  PathCochain builds the groups and maps the walk reads; it
is a CochainComplex like a floor or total complex, so each consecutive
pair is proven once at construction, in path order.
square_cohomology reads H at every visited position and classifies each
value by the shape of its flanking maps:

    in horizontal or start, out horizontal -> floor_leech: the value is
        the floor's own cohomology at that degree;
    in zero-vertical or start, out zero-vertical -> full_cochain_group;
    in zero-vertical, out horizontal -> kernel_group (kernel of the
        outgoing coboundary);
    anything flanked by a nonzero vertical, or horizontal-in with
        vertical-out -> extremal: a truncation artifact of the path, not
        one of the named forms.

No floor complex is built: paths and totals (``totalcx``) read each
floor's groups, coboundaries and vertical maps from one floor store per
call, which reads each on first request, keeps it for the call and
proves none.  It checks a stored map against a built group's total, or
else the one ``cochain_totals`` counts, so a path counts no totals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .abelian import AbHom, CochainComplex, FgAbGroup, SparseColumn, _integers_only
from .coeff import CoeffSystem
from .leech import (
    CochainGroup,
    Terms,
    coboundary,
    cochain_group,
    cochain_totals,
    translation_failure,
)
from .monoid import FinMonoid

Position = tuple[int, int]  # (floor, degree)


class PathError(ValueError):
    """A move string that does not fit the grid."""


class TooManyDescents(PathError):
    """More descents than the truncated stack has floors below."""


class DescentBelowBottomFloor(PathError):
    """Descent from the bottom floor of a grid declared finite."""


class ColumnConditionError(ValueError):
    """Two stacked vertical maps whose composition is nonzero."""

    def __init__(self, violations: Sequence[tuple[int, int, AbHom]]):
        self.violations = tuple(violations)
        spots = ", ".join(f"(floor {f}, degree {d})" for f, d, _ in violations)
        super().__init__(f"vertical maps do not square to zero at {spots}")


@dataclass(frozen=True)
class CompositionViolation:
    """First position whose incoming and outgoing maps fail to compose to
    zero, with the offending product."""

    index: int
    position: Position
    moves: tuple[str, str]
    product: AbHom


class MixedCompositionError(ValueError):
    def __init__(self, violation: CompositionViolation):
        self.violation = violation
        f, d = violation.position
        super().__init__(
            f"maps around position (floor {f}, degree {d}) compose to a "
            f"nonzero homomorphism; the path groups do not form a complex")


@dataclass(frozen=True)
class GridSpec:
    """Stack of floors; finite means the bottom floor really is the last
    one rather than a truncation artifact."""

    floors: tuple[tuple[FinMonoid, CoeffSystem], ...]
    finite: bool = True

    def __post_init__(self) -> None:
        if not self.floors:
            raise ValueError("a grid needs at least one floor")
        if not isinstance(self.finite, bool):
            raise ValueError(f"finite must be a bool, got {self.finite!r}")
        object.__setattr__(self, "floors", tuple(
            (m, c) for m, c in self.floors))
        for k, (m, c) in enumerate(self.floors):
            if c.monoid != m:
                raise ValueError(
                    f"floor {k}: coefficient system belongs to a different monoid")
        for i in range(len(self.floors)):
            for j in range(i + 1, len(self.floors)):
                if self.floors[i][0].same_table(self.floors[j][0]):
                    raise ValueError(
                        f"floors {i} and {j} share a multiplication table; "
                        f"floors must be pairwise distinct")

    @property
    def floor_count(self) -> int:
        return len(self.floors)


def _floor_count(n: object) -> int:
    """n itself when it is a positive int and not a bool."""
    _integers_only([[n]], "floor count")
    if n < 1:
        raise ValueError(f"floor count must be positive, got {n!r}")
    return n


def _degree_bound(n: object) -> None:
    """Refuse a degree bound that is not a nonnegative int."""
    _integers_only([[n]], "degree bound")
    if n < 0:
        raise ValueError("degree bound must be nonnegative")


@dataclass(frozen=True)
class PathSpec:
    """Explicit move prefix over {R, D}; continued rightward forever."""

    prefix_moves: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.prefix_moves, str):
            raise ValueError(f"path moves must be a string, got "
                             f"{self.prefix_moves!r}")
        bad = set(self.prefix_moves) - {"R", "D"}
        if bad:
            raise ValueError(f"path moves must be R or D, got {sorted(bad)!r}")

    @classmethod
    def staircase(cls, floor_count: int) -> "PathSpec":
        """Down then right once per lower floor: the default path."""
        return cls("DR" * (_floor_count(floor_count) - 1))

    @classmethod
    def descending_at(cls, columns: Iterable[int],
                      floor_count: int) -> "PathSpec":
        """Down at each of the first floor_count - 1 distinct columns, in
        ascending order; the other columns are dropped."""
        columns = list(columns)
        _integers_only([columns], "descent column")
        chosen = sorted(set(columns))
        if chosen and chosen[0] < 0:
            raise ValueError("descent columns must be nonnegative")
        chosen = chosen[:_floor_count(floor_count) - 1]
        return cls("".join("R" * (c - prev) + "D" for prev, c
                           in zip([0, *chosen], chosen)))

    def walk(self, p_max: int) -> list[Position]:
        """Positions from (0,0) through degree p_max, plus the single next
        position at degree p_max + 1 so the last one has an outgoing map."""
        _degree_bound(p_max)
        pos = (0, 0)
        out = [pos]
        for move in itertools.chain(self.prefix_moves, itertools.repeat("R")):
            pos = (pos[0] + 1, pos[1]) if move == "D" else (pos[0], pos[1] + 1)
            out.append(pos)
            if pos[1] > p_max:
                return out
        raise AssertionError("unreachable: the rightward tail is infinite")


def validate_path(path: PathSpec, grid: GridSpec) -> None:
    """Check the whole declared prefix against the floor stack.

    Descents are validated on the full prefix, whatever the degree bound:
    a declared move below the bottom floor is an error even when
    truncation would hide it.
    """
    moves, bottom = path.prefix_moves, grid.floor_count - 1
    if moves.count("D") > bottom:
        k = -1  # the descent from the bottom floor is the floor_count-th
        for _ in range(grid.floor_count):
            k = moves.find("D", k + 1)
        if grid.finite:
            raise DescentBelowBottomFloor(
                f"move {k} descends below floor {bottom}, the bottom of a "
                f"finite grid")
        raise TooManyDescents(f"move {k} needs floor {bottom + 1} but only "
                              f"{grid.floor_count} floors were supplied")


@dataclass(frozen=True)
class VerticalFamily:
    """Degree-preserving maps between consecutive floors, keyed by
    (floor, degree); missing keys mean the zero map, so the zero family is
    the one with no maps."""

    maps: Mapping[tuple[int, int], AbHom] = field(default_factory=dict)

    @classmethod
    def zero(cls) -> "VerticalFamily":
        return cls({})

    @classmethod
    def explicit(cls, maps: Mapping[tuple[int, int], AbHom]) -> "VerticalFamily":
        return cls(dict(maps))

    def column_violations(self) -> list[tuple[int, int, AbHom]]:
        """Stored stacked pairs whose composition is nonzero; the witness
        is keyed by the upper floor and shared degree."""
        out = []
        for (floor, degree), lower in sorted(self.maps.items()):
            upper = self.maps.get((floor + 1, degree))
            if upper is None:
                continue
            product = upper.compose(lower)
            if not product.is_zero():
                out.append((floor, degree, product))
        return out


class _FloorStore:
    """The floors of one call to degree bound n (see the module docstring)."""

    def __init__(self, grid: GridSpec, family: VerticalFamily, n: int):
        self.floors = grid.floors
        self.family = family
        self.n = n
        self._groups: dict[tuple[int, int], CochainGroup] = {}
        self._maps: dict[tuple[int, int], AbHom] = {}
        self._verticals: dict[tuple[int, int], AbHom | None] = {}
        self._totals: dict[int, list[FgAbGroup]] = {}
        self._pullbacks: dict[tuple[int, int], tuple[int, ...] | None] = {}

    def group(self, f: int, k: int) -> CochainGroup:
        if (f, k) not in self._groups:
            self._groups[f, k] = cochain_group(*self.floors[f], k)
        return self._groups[f, k]

    def coboundary(self, f: int, d: int) -> AbHom:
        if (f, d) not in self._maps:
            self._maps[f, d] = coboundary(*self.floors[f], d, self.group(f, d),
                                          self.group(f, d + 1))
        return self._maps[f, d]

    def vertical(self, f: int, d: int) -> AbHom | None:
        """The family's map from floor f to floor f + 1 in degree d, or
        None; read once, and checked to connect the groups' totals."""
        if (f, d) not in self._verticals:
            v = self.family.maps.get((f, d))
            if v is not None:
                dom, cod = self._total(f, d), self._total(f + 1, d)
                if v.domain != dom or v.codomain != cod:
                    raise ValueError(
                        f"vertical map at (floor {f}, degree {d}) connects "
                        f"{v.domain} -> {v.codomain} but the cochain groups "
                        f"there are {dom} -> {cod}")
            self._verticals[f, d] = v
        return self._verticals[f, d]

    def _total(self, f: int, d: int) -> FgAbGroup:
        if (f, d) in self._groups:
            return self._groups[f, d].total
        if f not in self._totals:
            self._totals[f] = cochain_totals(*self.floors[f], self.n + 1)
        return self._totals[f][d]

    @cached_property
    def zero(self) -> list[list[bool]]:
        """zero[f][d]: the map at (f, d) is zero, for degrees 0..n+1; the
        first read reads and checks the whole family."""
        return [[v is None or v.is_zero()
                 for v in map(self.vertical, [f] * (self.n + 2),
                              range(self.n + 2))]
                for f in range(len(self.floors) - 1)]

    @cached_property
    def violations(self) -> list[tuple[int, int, AbHom]]:
        """The family's ``column_violations``, composed once per call."""
        return self.family.column_violations()

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
        if not (lc.constant and uc.constant and uc.groups[0] == a):
            return None
        lower, upper = low.non_identity(), up.non_identity()
        k, r, read = len(lower), a.ngens, max(d, 1)
        # step[i] is the position of phi(upper[i]) in lower, None for e
        step: list[int | None] = [None] * len(upper)
        v = self.vertical(f, read)
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
        if not all(phi[z] == low.table[phi[x]][phi[y]]
                   for x, row in enumerate(up.table) for y, z in enumerate(row)):
            return None
        # generator g of upper tuple j reads generator g of lower tuple
        # images[j], or nothing when phi sends an entry of j to e
        images: list[int | None] = [0]
        for _ in range(d):
            images = [None if i is None or b is None else i * k + b
                      for i in images for b in step]
        v = self.vertical(f, d)
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


class PathCochain(CochainComplex):
    """The cochain complex along a truncated path.

    positions lists the couples with degree <= p_max; differentials[k]
    leaves positions[k], the last one landing at degree p_max + 1, and
    cohomology(k) is H at positions[k].  move_tags mirrors differentials
    with horizontal/vertical labels.
    Only what the walk reads is built: the cochain group of each walked
    position, one coboundary per horizontal move and one family map per
    descent.  Every consecutive pair of maps is proven to compose to zero
    at construction, in path order.  A failing pair of coboundaries
    raises the floor's translation-relations AssertionError, any other
    failing pair MixedCompositionError.
    """

    def __init__(self, grid: GridSpec, family: VerticalFamily, path: PathSpec,
                 p_max: int):
        validate_path(path, grid)
        self.grid = grid
        self.family = family
        self.path = path
        self.p_max = p_max
        walked = path.walk(p_max)
        self.positions: tuple[Position, ...] = tuple(walked[:-1])
        store = _FloorStore(grid, family, p_max)
        groups = [store.group(f, d) for f, d in walked]
        maps: list[AbHom] = []
        tags: list[str] = []
        for k, ((f0, d0), (f1, _)) in enumerate(zip(walked, walked[1:])):
            if f1 == f0:
                maps.append(store.coboundary(f0, d0))
                tags.append("horizontal")
            else:
                v = store.vertical(f0, d0)
                maps.append(AbHom.zero(groups[k].total, groups[k + 1].total)
                            if v is None else v)
                tags.append("vertical")
        self.move_tags: tuple[str, ...] = tuple(tags)
        self.groups: tuple[CochainGroup, ...] = tuple(groups[:-1])
        super().__init__(groups[0].total, maps, self._failure)

    def _failure(self, k: int) -> Exception:
        if self.move_tags[k] == self.move_tags[k + 1] == "horizontal":
            return translation_failure(self.positions[k][1])
        return MixedCompositionError(CompositionViolation(
            k + 1, self.positions[k + 1], self.move_tags[k:k + 2],
            self.differentials[k + 1].compose(self.differentials[k])))


def validate_mixed_compositions(grid: GridSpec, family: VerticalFamily,
                                path: PathSpec,
                                p_max: int) -> CompositionViolation | None:
    """The first consecutive pair of path maps with a nonzero composite.

    Mixed pairs (right-then-down and down-then-right) are the substantive
    condition on the family; a vertical pair fails where the column
    condition does.  A failing pair of coboundaries raises the floor's
    AssertionError instead.  Returns the first violation instead of
    raising so callers can report the witness.
    """
    try:
        PathCochain(grid, family, path, p_max)
    except MixedCompositionError as exc:
        return exc.violation
    return None


@dataclass(frozen=True)
class SquareEntry:
    index: int
    floor: int
    degree: int
    move_in: str  # "start", "R" or "D"
    move_out: str  # "R" or "D"
    group: FgAbGroup
    tag: str


@dataclass(eq=False)
class SquareReport:
    entries: tuple[SquareEntry, ...]
    cochain: PathCochain

    def groups(self) -> list[FgAbGroup]:
        return [e.group for e in self.entries]

    def tags(self) -> list[str]:
        return [e.tag for e in self.entries]


# (kind of the map in, kind of the map out) -> tag; any other pair is
# extremal.  H is horizontal, V0 a zero vertical map, V a nonzero one.
_TAGS = {("start", "H"): "floor_leech", ("H", "H"): "floor_leech",
         ("start", "V0"): "full_cochain_group",
         ("V0", "V0"): "full_cochain_group", ("V0", "H"): "kernel_group"}


def classify_trivial(cochain: PathCochain) -> list[str]:
    """Per-position tags from the flanking map shapes; zero-ness of a
    vertical flank is decided by the actual map, so explicit families with
    zero blocks classify the same way as the zero family."""
    kinds = ["start"] + ["H" if tag == "horizontal" else
                         "V0" if hom.is_zero() else "V"
                         for tag, hom in zip(cochain.move_tags,
                                             cochain.differentials)]
    return [_TAGS.get(pair, "extremal") for pair in zip(kinds, kinds[1:])]


def square_cohomology(grid: GridSpec, family: VerticalFamily, path: PathSpec,
                      p_max: int) -> SquareReport:
    """Cohomology at every path position with degree <= p_max.

    H at position k is ker(map out of k) / im(map into k), the incoming
    map at the start being zero.  The column condition is checked first;
    then the PathCochain proves each consecutive pair once, and the first
    mixed pair that fails raises MixedCompositionError with the same
    witness validate_mixed_compositions reports.  At a floor_leech
    position both flanks are the floor's own d^(n-1) and d^n, so the
    value is the floor's H^n.  A finite grid makes this the bounded-stack
    variant, otherwise it is a truncation of the unbounded one.
    """
    column = family.column_violations()
    if column:
        raise ColumnConditionError(column)
    pc = PathCochain(grid, family, path, p_max)
    tags = classify_trivial(pc)
    entries = []
    for k, (floor, degree) in enumerate(pc.positions):
        entries.append(SquareEntry(
            index=k,
            floor=floor,
            degree=degree,
            move_in="start" if k == 0 else
                    ("R" if pc.move_tags[k - 1] == "horizontal" else "D"),
            move_out="R" if pc.move_tags[k] == "horizontal" else "D",
            group=pc.cohomology(k),
            tag=tags[k],
        ))
    return SquareReport(tuple(entries), pc)


@dataclass(frozen=True)
class HorizontalRun:
    """Maximal stretch of rightward moves on one floor.

    length counts the moves between reported positions; a tail run keeps
    going past the truncation bound, so only non-tail runs can be called
    short."""

    floor: int
    start_degree: int
    end_degree: int
    length: int
    short: bool
    tail: bool


@dataclass(frozen=True)
class FloorIdentification:
    floor: int
    degree: int
    path_group: FgAbGroup
    floor_group: FgAbGroup
    matches: bool


@dataclass(eq=False)
class LocalExactnessReport:
    runs: tuple[HorizontalRun, ...]
    identifications: tuple[FloorIdentification, ...]
    extremal_positions: tuple[Position, ...]
    all_identified: bool


def local_exactness_report(grid: GridSpec, family: VerticalFamily,
                           path: PathSpec, p_max: int,
                           square_report: SquareReport,
                           ) -> LocalExactnessReport:
    """Maximal horizontal runs plus the floor identifications.

    Both flanks of a floor_leech position are the floor's own
    coboundaries, so its path value is the floor's H^n by construction:
    each identification records the entry's group as both values, and
    all match.  The independent check, against floor tables built
    separately, is test_criterion_04_floor_identification in
    tests/test_acceptance.py.  Runs shorter than five moves are flagged,
    since short runs are the ones whose boundary effects dominate; the
    final run is the truncated all-right tail and is never flagged short.

    square_report is ``square_cohomology`` of the same grid, family, path
    and p_max; a report computed for other arguments raises ValueError.
    """
    pc = square_report.cochain
    differing = [name for name, ours, theirs in (
        ("grid", grid, pc.grid), ("family", family, pc.family),
        ("path", path, pc.path), ("p_max", p_max, pc.p_max))
        if ours != theirs]
    if differing:
        raise ValueError(
            "square_report was computed for a different "
            + ", ".join(differing))
    runs: list[HorizontalRun] = []
    n_moves = len(pc.differentials)
    for tag, group in itertools.groupby(range(n_moves),
                                        pc.move_tags.__getitem__):
        if tag != "horizontal":
            continue
        moves = list(group)
        end = moves[-1] + 1  # the position the run's last move lands on
        floor, start_degree = pc.positions[moves[0]]
        end_degree = pc.positions[min(end, len(pc.positions) - 1)][1]
        tail = end == n_moves
        length = end_degree - start_degree
        runs.append(HorizontalRun(
            floor=floor,
            start_degree=start_degree,
            end_degree=end_degree,
            length=length,
            short=(not tail) and length < 5,
            tail=tail,
        ))
    return LocalExactnessReport(
        runs=tuple(runs),
        identifications=tuple(
            FloorIdentification(e.floor, e.degree, e.group, e.group, True)
            for e in square_report.entries if e.tag == "floor_leech"),
        extremal_positions=tuple((e.floor, e.degree)
                                 for e in square_report.entries
                                 if e.tag == "extremal"),
        all_identified=True,
    )
