"""Monoids of structure classes and of set-system unions, with the two
pipelines that feed them into the path-cohomology engine.

A structure descriptor is the canonical signature of an algebraic
structure: its operation multiset (arity plus property tags) and its
non-algebraic tags; the descriptor with neither is the empty structure,
the one with no data at all.  Equivalent descriptors collapse to one
class; products of classes only record which classes appear, so the
class subsets under union form the monoid built by build_Kn, with the
empty structure as identity.

A set system is a finite list of named point sets.  Each point x is sent
to the subcollection of sets containing it; when that map reaches every
nonempty subcollection, the unions of the first r + 1 sets form a
strictly growing tower of idempotent monoids, one floor per r.

Both pipelines stack their monoids as grid floors (constant coefficient
systems unless the caller supplies otherwise) and return the square
cohomology and local-exactness reports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .abelian import FgAbGroup, Z
from .coeff import constant_system
from .grid import (
    GridSpec,
    LocalExactnessReport,
    PathSpec,
    SquareReport,
    VerticalFamily,
    local_exactness_report,
    square_cohomology,
)
from .monoid import FinMonoid, union_monoid

Operation = tuple[int, tuple[str, ...]]


class NoNewClass(ValueError):
    """A pipeline floor would repeat the previous one."""


class NotSurjective(ValueError):
    def __init__(self, missing_names: Sequence[str]):
        self.missing = tuple(missing_names)
        super().__init__(
            "the point-to-subcollection map misses " + ", ".join(self.missing))


def _arity(arity: object) -> int:
    """arity itself when it is a positive int and not a bool."""
    if not isinstance(arity, int) or isinstance(arity, bool) or arity < 1:
        raise ValueError(
            f"operation arity must be a positive integer, got {arity!r}")
    return arity


@dataclass(frozen=True)
class StructureDescriptor:
    """Canonical signature; construct through make()."""

    operations: tuple[Operation, ...]
    nonalg_tags: tuple[str, ...]

    def __post_init__(self) -> None:
        for arity, tags in self.operations:
            _arity(arity)
            if tuple(sorted(set(tags))) != tags:
                raise ValueError(f"operation tags not canonical: {tags!r}")
        if tuple(sorted(self.operations)) != self.operations:
            raise ValueError("operations not in canonical order")
        if tuple(sorted(set(self.nonalg_tags))) != self.nonalg_tags:
            raise ValueError("non-algebraic tags not canonical")

    @property
    def is_empty(self) -> bool:
        """The structure with no data: no operations and no tags."""
        return not self.operations and not self.nonalg_tags

    @classmethod
    def make(cls, operations, nonalg_tags=()) -> "StructureDescriptor":
        ops = tuple(sorted(
            (_arity(arity), tuple(sorted(set(map(str, tags)))))
            for arity, tags in operations))
        nonalg = tuple(sorted(set(map(str, nonalg_tags))))
        return cls(ops, nonalg)


def distinct_classes(
        descriptors: Sequence[StructureDescriptor]) -> list[StructureDescriptor]:
    """First-occurrence representatives of the equivalence classes."""
    out: list[StructureDescriptor] = []
    for d in descriptors:
        if d not in out:
            out.append(d)
    return out


def build_Kn(descriptors: Sequence[StructureDescriptor]) -> FinMonoid:
    """Monoid of class subsets under the structure product.

    Descriptors are deduplicated into classes named by first-occurrence
    index; the result is the power set of the classes under union, the
    identity being the empty structure.
    """
    if not descriptors:
        raise ValueError("at least one descriptor is required")
    classes = distinct_classes(descriptors)
    family = [{str(i)} for i in range(len(classes))]
    return union_monoid(family, name=f"K{len(classes)}")


@dataclass(frozen=True)
class SetSystem:
    """Named points covered by named, pairwise-distinct sets."""

    points: tuple[str, ...]
    sets: tuple[tuple[str, frozenset[int]], ...]

    def __post_init__(self) -> None:
        if len(set(self.points)) != len(self.points):
            raise ValueError("point names must be distinct")
        names = [name for name, _ in self.sets]
        if len(set(names)) != len(names):
            raise ValueError("set names must be distinct")
        if not self.sets:
            raise ValueError("at least one set is required")
        seen: dict[frozenset[int], str] = {}
        for name, members in self.sets:
            for i in members:
                if not 0 <= i < len(self.points):
                    raise ValueError(f"set {name} has an out-of-range member")
            if members in seen:
                raise ValueError(
                    f"sets {seen[members]} and {name} have the same members")
            seen[members] = name

    @classmethod
    def from_names(cls, points: Sequence[str],
                   named_sets: Sequence[tuple[str, Sequence[str]]]) -> "SetSystem":
        pts = tuple(points)
        index = {p: i for i, p in enumerate(pts)}
        sets = []
        for name, members in named_sets:
            try:
                sets.append((name, frozenset(index[m] for m in members)))
            except KeyError as exc:
                raise ValueError(f"set {name} mentions unknown point {exc.args[0]!r}")
        return cls(pts, tuple(sets))

    @property
    def set_count(self) -> int:
        return len(self.sets)

    def set_name(self, i: int) -> str:
        return self.sets[i][0]

    def members_of(self, i: int) -> frozenset[int]:
        return self.sets[i][1]


def h_map(system: SetSystem) -> dict[str, frozenset[int]]:
    """Per point, in point order, the index subcollection of sets
    containing it."""
    return {p: frozenset(k for k in range(system.set_count)
                         if i in system.members_of(k))
            for i, p in enumerate(system.points)}


@dataclass(frozen=True)
class SurjectivityReport:
    ok: bool
    missing: tuple[tuple[int, ...], ...]
    missing_names: tuple[str, ...]
    hmap: dict[str, frozenset[int]]


def check_h_surjective(system: SetSystem) -> SurjectivityReport:
    """Is every nonempty subcollection of sets hit by some point?

    Missing subcollections are listed smallest first, rendered with the
    set names.
    """
    hm = h_map(system)
    realized = set(hm.values())
    missing = []
    k = system.set_count
    for size in range(1, k + 1):
        for combo in itertools.combinations(range(k), size):
            if frozenset(combo) not in realized:
                missing.append(combo)
    names = tuple(
        "{" + ",".join(system.set_name(i) for i in combo) + "}"
        for combo in missing)
    return SurjectivityReport(not missing, tuple(missing), names, hm)


@dataclass(frozen=True)
class ChainPlan:
    """Deterministic chain choice: sets kept in input order, with one
    witness point per prefix subcollection."""

    permutation: tuple[int, ...]
    representatives: tuple[str, ...]


def reorder_chain(system: SetSystem) -> ChainPlan:
    """Order realizing the prefix chain; surjectivity makes the input
    order work, so the permutation is the identity and only the witness
    points vary."""
    report = check_h_surjective(system)
    if not report.ok:
        raise NotSurjective(report.missing_names)
    reps = []
    for r in range(system.set_count):
        wanted = frozenset(range(r + 1))
        for point, sub in report.hmap.items():
            if sub == wanted:
                reps.append(point)
                break
    return ChainPlan(tuple(range(system.set_count)), tuple(reps))


def build_gr(system: SetSystem, r: int) -> FinMonoid:
    """Monoid of all unions of the first r + 1 sets, identity empty."""
    if not 0 <= r < system.set_count:
        raise ValueError(f"set index {r} out of range")
    family = []
    for i in range(r + 1):
        family.append({system.points[p] for p in system.members_of(i)})
    return union_monoid(family, name=f"g{r}")


@dataclass(eq=False)
class PipelineReport:
    floors: tuple[FinMonoid, ...]
    grid: GridSpec
    path: PathSpec
    square: SquareReport
    exactness: LocalExactnessReport
    notes: tuple[str, ...]
    chain: ChainPlan | None = None


def _run_grid(floors: Sequence[FinMonoid], coeff_group: FgAbGroup,
              path: PathSpec | None, p_max: int,
              family: VerticalFamily | None,
              notes: list[str]) -> tuple[GridSpec, PathSpec, SquareReport,
                                         LocalExactnessReport]:
    grid = GridSpec(tuple((m, constant_system(m, coeff_group))
                          for m in floors))
    notes.append(
        f"floors carry constant coefficient systems over {coeff_group.render()}")
    if path is None:
        path = PathSpec.staircase(len(grid.floors))
        notes.append(f"default staircase path {path.prefix_moves!r} chosen")
    if family is None:
        family = VerticalFamily.zero()
        notes.append("zero vertical family assumed")
    square = square_cohomology(grid, family, path, p_max)
    exact = local_exactness_report(grid, family, path, p_max,
                                   square_report=square)
    return grid, path, square, exact


def fs_pipeline(descriptors: Sequence[StructureDescriptor],
                coeff_group: FgAbGroup = Z,
                path: PathSpec | None = None,
                p_max: int = 4,
                family: VerticalFamily | None = None) -> PipelineReport:
    """Floors are the class-subset monoids of each descriptor prefix.

    Every descriptor must introduce a new class, otherwise two
    consecutive floors would coincide.
    """
    if not descriptors:
        raise ValueError("at least one descriptor is required")
    floors = []
    classes: list[StructureDescriptor] = []
    for i, d in enumerate(descriptors):
        if d in classes:
            raise NoNewClass(
                f"descriptor {i} is equivalent to an earlier one, so its "
                f"floor would repeat the previous floor")
        classes.append(d)
        floors.append(build_Kn(classes))
    notes: list[str] = [f"{len(classes)} structure classes"]
    grid, path, square, exact = _run_grid(
        floors, coeff_group, path, p_max, family, notes)
    return PipelineReport(tuple(floors), grid, path, square, exact,
                          tuple(notes))


def h_pipeline(system: SetSystem,
               coeff_group: FgAbGroup = Z,
               path: PathSpec | None = None,
               p_max: int = 4,
               family: VerticalFamily | None = None) -> PipelineReport:
    """Floors are the union monoids of growing set prefixes.

    Requires the point-to-subcollection map to be surjective onto the
    nonempty subcollections, which also forces the floors to grow
    strictly.
    """
    chain = reorder_chain(system)  # raises NotSurjective with the witnesses
    floors = [build_gr(system, r) for r in range(system.set_count)]
    notes: list[str] = [
        "floor sizes " + ", ".join(str(m.size) for m in floors)]
    grid, path, square, exact = _run_grid(
        floors, coeff_group, path, p_max, family, notes)
    return PipelineReport(tuple(floors), grid, path, square, exact,
                          tuple(notes), chain=chain)
