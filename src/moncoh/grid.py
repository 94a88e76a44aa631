"""Cohomology along lattice paths through stacked cochain complexes.

A grid stacks floors, each a finite monoid with a coefficient system;
position (floor f, degree j) carries the degree j cochain group of floor
f.  A path starts at (0, 0) and at each step moves right (R, same floor,
degree + 1, along the floor's coboundary) or down (D, floor + 1, same
degree, along a supplied vertical family).  After its explicit moves a
path continues rightward forever; walks are truncated by a degree bound.

The groups along a path form a cochain sequence.  It is a complex exactly
when consecutive maps compose to zero: right-right pairs always do, down
pairs need the family's column condition, and mixed pairs are probed by
validate_mixed_compositions.  square_cohomology takes cohomology at every
visited position, which proves each consecutive pair once on the way,
and classifies each value by the shape of its flanking maps:

    in horizontal or start, out horizontal -> floor_leech: the value is
        the floor's own cohomology at that degree;
    in zero-vertical or start, out zero-vertical -> full_cochain_group;
    in zero-vertical, out horizontal -> kernel_group (kernel of the
        outgoing coboundary);
    anything flanked by a nonzero vertical, or horizontal-in with
        vertical-out -> extremal: a truncation artifact of the path, not
        one of the named forms.

Each floor complex is built only as deep as the walk reaches on that
floor, so differentials no path position reads are neither built nor
proven.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .abelian import (
    AbHom,
    CompositionNonzero,
    FgAbGroup,
    TRIVIAL_GROUP,
    cohomology_at,
)
from .coeff import CoeffSystem
from .leech import CochainGroup, LeechComplex
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

    def complexes(self, max_degree: int) -> tuple[LeechComplex, ...]:
        return tuple(LeechComplex(m, c, max_degree) for m, c in self.floors)


@dataclass(frozen=True)
class PathSpec:
    """Explicit move prefix over {R, D}; continued rightward forever."""

    prefix_moves: str = ""

    def __post_init__(self) -> None:
        bad = set(self.prefix_moves) - {"R", "D"}
        if bad:
            raise ValueError(f"path moves must be R or D, got {sorted(bad)!r}")

    def walk(self, p_max: int) -> list[Position]:
        """Positions from (0,0) through degree p_max, plus the single next
        position at degree p_max + 1 so the last one has an outgoing map."""
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
    floor = 0
    bottom = grid.floor_count - 1
    for k, move in enumerate(path.prefix_moves):
        if move == "D":
            if floor == bottom:
                if grid.finite:
                    raise DescentBelowBottomFloor(
                        f"move {k} descends below floor {bottom}, the bottom "
                        f"of a finite grid")
                raise TooManyDescents(
                    f"move {k} needs floor {floor + 1} but only "
                    f"{grid.floor_count} floors were supplied")
            floor += 1


def path_from_rule(rule: Callable[[int], bool], grid: GridSpec,
                   p_max: int) -> PathSpec:
    """Path that descends at every column where the rule holds, clamped at
    the bottom floor; trailing right-moves are dropped since the tail is
    implicit."""
    bottom = grid.floor_count - 1
    floor = 0
    moves: list[str] = []
    for column in range(p_max + 1):
        if rule(column) and floor < bottom:
            moves.append("D")
            floor += 1
        moves.append("R")
    while moves and moves[-1] == "R":
        moves.pop()
    return PathSpec("".join(moves))


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

    def hom(self, complexes: Sequence[LeechComplex], floor: int,
            degree: int) -> AbHom:
        dom = complexes[floor].group(degree).total
        cod = complexes[floor + 1].group(degree).total
        stored = self.maps.get((floor, degree))
        if stored is None:
            return AbHom.zero(dom, cod)
        if stored.domain != dom or stored.codomain != cod:
            raise ValueError(
                f"vertical map at (floor {floor}, degree {degree}) connects "
                f"{stored.domain} -> {stored.codomain} but the cochain groups "
                f"there are {dom} -> {cod}")
        return stored


class PathCochain:
    """Groups and maps along a truncated path.

    positions lists the couples with degree <= p_max; maps[k] leaves
    positions[k], the last one landing on tail_position at degree
    p_max + 1.  move_tags mirrors maps with horizontal/vertical labels.
    complexes[f] is floor f's complex built to the highest degree the walk
    reaches on f, tail included, and to degree 0 on a floor it never
    visits; its d o d proofs cover exactly the differentials built.
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
        self.tail_position: Position = walked[-1]
        top = [0] * grid.floor_count
        for f, d in walked:
            top[f] = max(top[f], d)
        self.complexes: tuple[LeechComplex, ...] = tuple(
            LeechComplex(m, c, top[f]) for f, (m, c) in enumerate(grid.floors))
        maps: list[AbHom] = []
        tags: list[str] = []
        for (f0, d0), (f1, _) in zip(walked, walked[1:]):
            if f1 == f0:
                maps.append(self.complexes[f0].differential(d0))
                tags.append("horizontal")
            else:
                maps.append(family.hom(self.complexes, f0, d0))
                tags.append("vertical")
        self.maps: tuple[AbHom, ...] = tuple(maps)
        self.move_tags: tuple[str, ...] = tuple(tags)
        self.groups: tuple[CochainGroup, ...] = tuple(
            self.complexes[f].group(d) for f, d in self.positions)

    def violation_at(self, k: int) -> CompositionViolation:
        """The pair of maps around positions[k] with its product as the
        witness; for k >= 1."""
        return CompositionViolation(
            k, self.positions[k], (self.move_tags[k - 1], self.move_tags[k]),
            self.maps[k].compose(self.maps[k - 1]))


def validate_mixed_compositions(grid: GridSpec, family: VerticalFamily,
                                path: PathSpec,
                                p_max: int) -> CompositionViolation | None:
    """Probe every consecutive pair of path maps for a nonzero composite.

    Mixed pairs (right-then-down and down-then-right) are the substantive
    condition on the family; same-direction pairs are implied by the floor
    complexes and the column condition but are re-checked here anyway.
    Returns the first violation instead of raising so callers can report
    the witness.
    """
    pc = PathCochain(grid, family, path, p_max)
    for k in range(1, len(pc.maps)):
        violation = pc.violation_at(k)
        if not violation.product.is_zero():
            return violation
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
    finite: bool
    p_max: int
    moves: str
    entries: tuple[SquareEntry, ...]
    cochain: PathCochain

    def groups(self) -> list[FgAbGroup]:
        return [e.group for e in self.entries]

    def tags(self) -> list[str]:
        return [e.tag for e in self.entries]


def _flank_kind(tag: str, hom: AbHom) -> str:
    if tag == "horizontal":
        return "H"
    return "V0" if hom.is_zero() else "V"


def _classify(in_kind: str, out_kind: str) -> str:
    if in_kind in ("start", "H") and out_kind == "H":
        return "floor_leech"
    if in_kind in ("start", "V0") and out_kind == "V0":
        return "full_cochain_group"
    if in_kind == "V0" and out_kind == "H":
        return "kernel_group"
    return "extremal"


def classify_trivial(cochain: PathCochain) -> list[str]:
    """Per-position tags from the flanking map shapes; zero-ness of a
    vertical flank is decided by the actual map, so explicit families with
    zero blocks classify the same way as the zero family."""
    tags = []
    for k in range(len(cochain.positions)):
        in_kind = ("start" if k == 0 else
                   _flank_kind(cochain.move_tags[k - 1], cochain.maps[k - 1]))
        out_kind = _flank_kind(cochain.move_tags[k], cochain.maps[k])
        tags.append(_classify(in_kind, out_kind))
    return tags


def square_cohomology(grid: GridSpec, family: VerticalFamily, path: PathSpec,
                      p_max: int) -> SquareReport:
    """Cohomology at every path position with degree <= p_max.

    H at position k is ker(map out of k) / im(map into k), the incoming
    map at the start being zero.  The column condition is checked first.
    Each consecutive pair of maps is proven to compose to zero once, by
    the cohomology computation at the position between them; the first
    pair that fails raises MixedCompositionError with the same witness
    validate_mixed_compositions reports.  At a floor_leech position both
    flanks are the floor's own d^(n-1) and d^n, so the value is the
    floor complex's stored H^n.  A finite grid makes this the
    bounded-stack variant, otherwise it is a truncation of the unbounded
    one.
    """
    column = family.column_violations()
    if column:
        raise ColumnConditionError(column)
    pc = PathCochain(grid, family, path, p_max)
    tags = classify_trivial(pc)
    start = AbHom.zero(TRIVIAL_GROUP, pc.groups[0].total)
    entries = []
    for k, (floor, degree) in enumerate(pc.positions):
        if tags[k] == "floor_leech":
            group = pc.complexes[floor].cohomology(degree)
        else:
            try:
                group = cohomology_at(start if k == 0 else pc.maps[k - 1],
                                      pc.maps[k])
            except CompositionNonzero:
                raise MixedCompositionError(pc.violation_at(k)) from None
        entries.append(SquareEntry(
            index=k,
            floor=floor,
            degree=degree,
            move_in="start" if k == 0 else
                    ("R" if pc.move_tags[k - 1] == "horizontal" else "D"),
            move_out="R" if pc.move_tags[k] == "horizontal" else "D",
            group=group,
            tag=tags[k],
        ))
    return SquareReport(grid.finite, p_max, path.prefix_moves,
                        tuple(entries), pc)


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
    """Maximal horizontal runs plus the floor-identification check.

    Every position flanked by horizontal maps must carry the floor's own
    cohomology; the report reads the floor value from the floor complex,
    which stores each H^n once, and records the comparison.  The path
    value at such a position is that same stored group, so the comparison
    restates the classification; an independent check builds the floor
    table separately.  Runs shorter than five moves are flagged, since
    short runs are the ones whose boundary effects dominate; the final
    run is the truncated all-right tail and is never flagged short.

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
    n_moves = len(pc.maps)
    k = 0
    while k < n_moves:
        if pc.move_tags[k] != "horizontal":
            k += 1
            continue
        start = k
        while k < n_moves and pc.move_tags[k] == "horizontal":
            k += 1
        floor, start_degree = pc.positions[start]
        last_reported = min(k, len(pc.positions) - 1)
        end_degree = pc.positions[last_reported][1]
        tail = k == n_moves
        length = end_degree - start_degree
        runs.append(HorizontalRun(
            floor=floor,
            start_degree=start_degree,
            end_degree=end_degree,
            length=length,
            short=(not tail) and length < 5,
            tail=tail,
        ))
    identifications = []
    for entry in report.entries:
        if entry.tag != "floor_leech":
            continue
        floor_group = pc.complexes[entry.floor].cohomology(entry.degree)
        identifications.append(FloorIdentification(
            entry.floor, entry.degree, entry.group, floor_group,
            entry.group == floor_group))
    extremal = tuple((e.floor, e.degree) for e in report.entries
                     if e.tag == "extremal")
    return LocalExactnessReport(
        runs=tuple(runs),
        identifications=tuple(identifications),
        extremal_positions=extremal,
        all_identified=all(i.matches for i in identifications),
    )
