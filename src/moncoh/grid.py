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

No floor complex is built: a coboundary no path position reads is
neither built nor proven.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .abelian import AbHom, CochainComplex, FgAbGroup, _integers_only
from .coeff import CoeffSystem
from .leech import CochainGroup, coboundary, cochain_group, translation_failure
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
        _integers_only([[p_max]], "degree bound")
        if p_max < 0:
            raise ValueError("degree bound must be nonnegative")
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

    def hom(self, floor: int, source: CochainGroup,
            target: CochainGroup) -> AbHom:
        """The map from source on floor to target on floor + 1, both of
        one degree."""
        degree, dom, cod = source.degree, source.total, target.total
        stored = self.maps.get((floor, degree))
        if stored is None:
            return AbHom.zero(dom, cod)
        if stored.domain != dom or stored.codomain != cod:
            raise ValueError(
                f"vertical map at (floor {floor}, degree {degree}) connects "
                f"{stored.domain} -> {stored.codomain} but the cochain groups "
                f"there are {dom} -> {cod}")
        return stored


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
        groups = [cochain_group(*grid.floors[f], d) for f, d in walked]
        maps: list[AbHom] = []
        tags: list[str] = []
        for k, ((f0, d0), (f1, _)) in enumerate(zip(walked, walked[1:])):
            if f1 == f0:
                maps.append(coboundary(*grid.floors[f0], d0, groups[k],
                                       groups[k + 1]))
                tags.append("horizontal")
            else:
                maps.append(family.hom(f0, groups[k], groups[k + 1]))
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
                           square_report: SquareReport | None = None,
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

    A square_report passed in must have been computed for the same grid,
    family, path and p_max; otherwise ValueError is raised.
    """
    if square_report is None:
        report = square_cohomology(grid, family, path, p_max)
    else:
        report = square_report
        given = report.cochain
        differing = [name for name, ours, theirs in (
            ("grid", grid, given.grid), ("family", family, given.family),
            ("path", path, given.path), ("p_max", p_max, given.p_max))
            if ours != theirs]
        if differing:
            raise ValueError(
                "square_report was computed for a different "
                + ", ".join(differing))
    pc = report.cochain
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
            for e in report.entries if e.tag == "floor_leech"),
        extremal_positions=tuple((e.floor, e.degree) for e in report.entries
                                 if e.tag == "extremal"),
        all_identified=True,
    )
